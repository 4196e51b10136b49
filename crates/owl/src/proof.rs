//! Proof rendering over tracked derivations — the analogue of Pellet's
//! axiom explanations. With [`crate::ReasonerOptions::track_derivations`]
//! enabled, every inferred triple carries the rule that produced it and
//! its premises; this module walks those records back to asserted triples
//! and renders an indented proof tree.

use std::collections::HashSet;

use feo_rdf::{GraphView, TermId};

use crate::reasoner::InferenceResult;

/// One step of a proof: the triple, the rule that derived it (or
/// "asserted"), and its sub-proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofNode {
    pub triple: [TermId; 3],
    pub rule: &'static str,
    pub premises: Vec<ProofNode>,
}

impl ProofNode {
    /// Renders the proof as an indented tree using local names. Takes
    /// any [`GraphView`], so proofs render over plain graphs, overlays,
    /// and stacked ledger views alike.
    pub fn render<G: GraphView + ?Sized>(&self, g: &G) -> String {
        let mut out = String::new();
        self.render_into(g, &mut out, 0);
        out
    }

    fn render_into<G: GraphView + ?Sized>(&self, g: &G, out: &mut String, depth: usize) {
        let [s, p, o] = self.triple;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} {} {}   [{}]\n",
            g.term_name(s),
            g.term_name(p),
            g.term_name(o),
            self.rule
        ));
        for prem in &self.premises {
            prem.render_into(g, out, depth + 1);
        }
    }

    /// Number of nodes in the proof tree.
    pub fn size(&self) -> usize {
        1 + self.premises.iter().map(ProofNode::size).sum::<usize>()
    }
}

/// Builds the proof tree for `triple`, following derivation records until
/// asserted triples (no record) are reached. Cycles (possible through
/// symmetric rules) are cut by marking visited triples as asserted.
pub fn proof(result: &InferenceResult, triple: [TermId; 3]) -> ProofNode {
    let mut visited = HashSet::new();
    build(result, triple, &mut visited, 0)
}

fn build(
    result: &InferenceResult,
    triple: [TermId; 3],
    visited: &mut HashSet<[TermId; 3]>,
    depth: usize,
) -> ProofNode {
    if depth > 32 || !visited.insert(triple) {
        return ProofNode {
            triple,
            rule: "…",
            premises: Vec::new(),
        };
    }
    match result.derivations.get(&triple) {
        None => ProofNode {
            triple,
            rule: "asserted",
            premises: Vec::new(),
        },
        Some(d) => ProofNode {
            triple,
            rule: d.rule,
            premises: d
                .premises
                .iter()
                .map(|&p| build(result, p, visited, depth + 1))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reasoner::{Reasoner, ReasonerOptions};
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::vocab::{rdf, rdfs};
    use feo_rdf::{Graph, GraphStore};

    fn tracked() -> Reasoner {
        Reasoner::with_options(ReasonerOptions {
            track_derivations: true,
        })
    }

    #[test]
    fn proof_chain_for_type_inheritance() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix rdfs: <{}> .\n@prefix e: <http://e/> .\n\
                 e:A rdfs:subClassOf e:B . e:B rdfs:subClassOf e:C .\n\
                 e:x a e:A .",
                rdfs::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let result = tracked()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let x = g.lookup_iri("http://e/x").unwrap();
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let c = g.lookup_iri("http://e/C").unwrap();
        let node = proof(&result, [x, ty, c]);
        assert_eq!(node.rule, "cax-sco");
        // The premise chain bottoms out at the asserted typing.
        let rendered = node.render(&g);
        assert!(rendered.contains("[cax-sco]"));
        assert!(rendered.contains("[asserted]"));
        assert!(node.size() >= 2);
    }

    #[test]
    fn transitive_proof_has_two_premises() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:p a owl:TransitiveProperty .\n\
                 e:a e:p e:b . e:b e:p e:c .",
                feo_rdf::vocab::owl::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let result = tracked()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let a = g.lookup_iri("http://e/a").unwrap();
        let p = g.lookup_iri("http://e/p").unwrap();
        let c = g.lookup_iri("http://e/c").unwrap();
        let node = proof(&result, [a, p, c]);
        assert_eq!(node.rule, "prp-trp");
        assert_eq!(node.premises.len(), 2);
        assert!(node.premises.iter().all(|n| n.rule == "asserted"));
    }

    #[test]
    fn asserted_triples_have_trivial_proofs() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        let result = tracked()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let a = g.lookup_iri("http://e/a").unwrap();
        let p = g.lookup_iri("http://e/p").unwrap();
        let b = g.lookup_iri("http://e/b").unwrap();
        let node = proof(&result, [a, p, b]);
        assert_eq!(node.rule, "asserted");
        assert!(node.premises.is_empty());
    }

    #[test]
    fn tracking_disabled_by_default() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix rdfs: <{}> .\n@prefix e: <http://e/> .\n\
                 e:A rdfs:subClassOf e:B . e:x a e:A .",
                rdfs::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let result = Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        assert!(result.derivations.is_empty());
    }

    #[test]
    fn inverse_proof_cites_the_forward_edge() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:likes owl:inverseOf e:likedBy .\n\
                 e:u e:likes e:curry .",
                feo_rdf::vocab::owl::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let result = tracked()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let curry = g.lookup_iri("http://e/curry").unwrap();
        let liked_by = g.lookup_iri("http://e/likedBy").unwrap();
        let u = g.lookup_iri("http://e/u").unwrap();
        let node = proof(&result, [curry, liked_by, u]);
        assert_eq!(node.rule, "prp-inv");
        assert_eq!(node.premises.len(), 1);
        let rendered = node.render(&g);
        assert!(rendered.contains("likes"), "{rendered}");
    }
}

#[cfg(test)]
mod deep_proof_tests {
    use super::*;
    use crate::reasoner::{Reasoner, ReasonerOptions};
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::vocab::{owl as owlv, rdf};
    use feo_rdf::Graph;

    /// A proof through a property chain must include the walked steps and
    /// bottom out at assertions.
    #[test]
    fn chain_proofs_carry_step_premises() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:forbids owl:propertyChainAxiom (e:forbids e:partOf) .\n\
                 e:preg e:forbids e:rawfish .\n\
                 e:rawfish e:partOf e:sushi .",
                owlv::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let result = Reasoner::with_options(ReasonerOptions {
            track_derivations: true,
        })
        .materialize(&mut g, &Default::default())
        .expect("materialize");
        let preg = g.lookup_iri("http://e/preg").unwrap();
        let forbids = g.lookup_iri("http://e/forbids").unwrap();
        let sushi = g.lookup_iri("http://e/sushi").unwrap();
        let node = proof(&result, [preg, forbids, sushi]);
        assert_eq!(node.rule, "prp-spo2");
        assert_eq!(node.premises.len(), 2, "both chain steps recorded");
        assert!(node.premises.iter().all(|p| p.rule == "asserted"));
    }

    /// Complex-class membership proofs carry the witness triples.
    #[test]
    fn restriction_membership_proofs_have_witnesses() {
        let mut g = Graph::new();
        parse_turtle_into(
            &format!(
                "@prefix owl: <{}> .\n@prefix e: <http://e/> .\n\
                 e:Fact owl:equivalentClass [ owl:intersectionOf (\n\
                   [ a owl:Restriction ; owl:onProperty e:supports ; owl:someValuesFrom e:Param ]\n\
                   [ a owl:Restriction ; owl:onProperty e:presentIn ; owl:hasValue e:Eco ]\n\
                 ) ] .\n\
                 e:autumn e:supports e:q . e:q a e:Param .\n\
                 e:autumn e:presentIn e:Eco .",
                owlv::NS
            ),
            &mut g,
            &Default::default(),
        )
        .unwrap();
        let result = Reasoner::with_options(ReasonerOptions {
            track_derivations: true,
        })
        .materialize(&mut g, &Default::default())
        .expect("materialize");
        let autumn = g.lookup_iri("http://e/autumn").unwrap();
        let ty = g.lookup_iri(rdf::TYPE).unwrap();
        let fact = g.lookup_iri("http://e/Fact").unwrap();
        let node = proof(&result, [autumn, ty, fact]);
        assert_eq!(node.rule, "cls");
        assert!(
            node.premises.len() >= 3,
            "witnesses: supports edge + param typing + presence, got {:?}",
            node.premises
        );
        let rendered = node.render(&g);
        assert!(rendered.contains("supports"), "{rendered}");
        assert!(rendered.contains("presentIn"), "{rendered}");
    }
}
