//! Axiom extraction: reads OWL-in-RDF syntax out of any [`GraphView`]
//! into the structured [`Ontology`] model.
//!
//! Handles the RDF mapping for: `rdfs:subClassOf` / `subPropertyOf` /
//! `domain` / `range`, `owl:equivalentClass`, `owl:disjointWith`,
//! `owl:inverseOf`, the property-characteristic classes
//! (Transitive/Symmetric/Asymmetric/Functional/InverseFunctional/
//! Irreflexive), `owl:propertyChainAxiom`, `owl:sameAs` /
//! `owl:differentFrom`, and restriction blank nodes
//! (`owl:Restriction` with someValuesFrom / allValuesFrom / hasValue) plus
//! `owl:intersectionOf` / `unionOf` / `complementOf` / `oneOf` with RDF
//! lists.

use std::collections::HashMap;

use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{GraphView, TermId};

use crate::axiom::{Axiom, ClassExpr, Ontology};

/// The predicates of OWL's RDF syntax that extraction reads as schema:
/// every one it reads but `rdf:type` (which also types individuals)
/// and `owl:sameAs` / `owl:differentFrom` (which relate individuals).
/// No rule of a delta closure concludes one, so where a world differs
/// from its base by ABox triples, a pattern over one of them reads the
/// base's triples.
pub const SCHEMA_PREDICATES: [&str; 18] = [
    rdfs::SUB_CLASS_OF,
    rdfs::SUB_PROPERTY_OF,
    rdfs::DOMAIN,
    rdfs::RANGE,
    owl::EQUIVALENT_CLASS,
    owl::EQUIVALENT_PROPERTY,
    owl::DISJOINT_WITH,
    owl::INVERSE_OF,
    owl::PROPERTY_CHAIN_AXIOM,
    owl::PROPERTY_DISJOINT_WITH,
    owl::ON_PROPERTY,
    owl::SOME_VALUES_FROM,
    owl::ALL_VALUES_FROM,
    owl::HAS_VALUE,
    owl::INTERSECTION_OF,
    owl::UNION_OF,
    owl::COMPLEMENT_OF,
    owl::ONE_OF,
];

/// Pre-resolved vocabulary ids for one graph. Missing entries mean the
/// graph never mentions that IRI, so no axiom of that kind can exist.
struct Vocab {
    sub_class_of: Option<TermId>,
    sub_property_of: Option<TermId>,
    domain: Option<TermId>,
    range: Option<TermId>,
    equivalent_class: Option<TermId>,
    equivalent_property: Option<TermId>,
    disjoint_with: Option<TermId>,
    inverse_of: Option<TermId>,
    property_chain: Option<TermId>,
    property_disjoint_with: Option<TermId>,
    same_as: Option<TermId>,
    different_from: Option<TermId>,
    rdf_type: Option<TermId>,
    on_property: Option<TermId>,
    some_values_from: Option<TermId>,
    all_values_from: Option<TermId>,
    has_value: Option<TermId>,
    intersection_of: Option<TermId>,
    union_of: Option<TermId>,
    complement_of: Option<TermId>,
    one_of: Option<TermId>,
    transitive: Option<TermId>,
    symmetric: Option<TermId>,
    asymmetric: Option<TermId>,
    functional: Option<TermId>,
    inverse_functional: Option<TermId>,
    irreflexive: Option<TermId>,
}

impl Vocab {
    fn resolve<G: GraphView + ?Sized>(g: &G) -> Self {
        let f = |iri: &str| g.lookup_iri(iri);
        Vocab {
            sub_class_of: f(rdfs::SUB_CLASS_OF),
            sub_property_of: f(rdfs::SUB_PROPERTY_OF),
            domain: f(rdfs::DOMAIN),
            range: f(rdfs::RANGE),
            equivalent_class: f(owl::EQUIVALENT_CLASS),
            equivalent_property: f(owl::EQUIVALENT_PROPERTY),
            disjoint_with: f(owl::DISJOINT_WITH),
            inverse_of: f(owl::INVERSE_OF),
            property_chain: f(owl::PROPERTY_CHAIN_AXIOM),
            property_disjoint_with: f(owl::PROPERTY_DISJOINT_WITH),
            same_as: f(owl::SAME_AS),
            different_from: f(owl::DIFFERENT_FROM),
            rdf_type: f(rdf::TYPE),
            on_property: f(owl::ON_PROPERTY),
            some_values_from: f(owl::SOME_VALUES_FROM),
            all_values_from: f(owl::ALL_VALUES_FROM),
            has_value: f(owl::HAS_VALUE),
            intersection_of: f(owl::INTERSECTION_OF),
            union_of: f(owl::UNION_OF),
            complement_of: f(owl::COMPLEMENT_OF),
            one_of: f(owl::ONE_OF),
            transitive: f(owl::TRANSITIVE_PROPERTY),
            symmetric: f(owl::SYMMETRIC_PROPERTY),
            asymmetric: f(owl::ASYMMETRIC_PROPERTY),
            functional: f(owl::FUNCTIONAL_PROPERTY),
            inverse_functional: f(owl::INVERSE_FUNCTIONAL_PROPERTY),
            irreflexive: f(owl::IRREFLEXIVE_PROPERTY),
        }
    }
}

/// Extracts all recognizable OWL axioms from any graph view.
pub fn extract_axioms<G: GraphView + ?Sized>(graph: &G) -> Ontology {
    Extractor {
        g: graph,
        v: Vocab::resolve(graph),
        expr_cache: HashMap::new(),
        ont: Ontology::default(),
    }
    .run()
}

struct Extractor<'g, G: GraphView + ?Sized> {
    g: &'g G,
    v: Vocab,
    expr_cache: HashMap<TermId, Option<ClassExpr>>,
    ont: Ontology,
}

impl<'g, G: GraphView + ?Sized> Extractor<'g, G> {
    fn run(mut self) -> Ontology {
        self.extract_binary(self.v.sub_class_of, Axiom::SubClassOf);
        self.extract_binary(self.v.equivalent_class, |a, b| {
            Axiom::EquivalentClasses(a, b)
        });
        self.extract_binary(self.v.disjoint_with, Axiom::DisjointClasses);
        self.extract_prop_pairs(self.v.sub_property_of, Axiom::SubPropertyOf);
        self.extract_prop_pairs(self.v.equivalent_property, |a, b| {
            Axiom::EquivalentProperties(a, b)
        });
        self.extract_prop_pairs(self.v.inverse_of, Axiom::InverseOf);
        self.extract_prop_pairs(self.v.property_disjoint_with, |a, b| {
            Axiom::DisjointProperties(a, b)
        });
        self.extract_prop_pairs(self.v.same_as, Axiom::SameAs);
        self.extract_prop_pairs(self.v.different_from, Axiom::DifferentFrom);
        self.extract_domain_range();
        self.extract_characteristics();
        self.extract_chains();
        self.ont
    }

    /// `?a PRED ?b` where both sides are class expressions.
    fn extract_binary(
        &mut self,
        pred: Option<TermId>,
        make: impl Fn(ClassExpr, ClassExpr) -> Axiom,
    ) {
        let Some(pred) = pred else { return };
        for [s, _, o] in self.g.match_pattern(None, Some(pred), None) {
            match (self.class_expr(s), self.class_expr(o)) {
                (Some(a), Some(b)) => self.ont.axioms.push(make(a, b)),
                _ => self.warn(format!(
                    "skipping {} axiom with unparseable class expression ({} / {})",
                    self.g.term_name(pred),
                    self.g.term_name(s),
                    self.g.term_name(o)
                )),
            }
        }
    }

    /// `?a PRED ?b` where both sides are properties (plain ids).
    fn extract_prop_pairs(&mut self, pred: Option<TermId>, make: impl Fn(TermId, TermId) -> Axiom) {
        let Some(pred) = pred else { return };
        for [s, _, o] in self.g.match_pattern(None, Some(pred), None) {
            self.ont.axioms.push(make(s, o));
        }
    }

    fn extract_domain_range(&mut self) {
        if let Some(domain) = self.v.domain {
            for [p, _, c] in self.g.match_pattern(None, Some(domain), None) {
                match self.class_expr(c) {
                    Some(e) => self.ont.axioms.push(Axiom::Domain(p, e)),
                    None => self.warn(format!(
                        "skipping rdfs:domain of {} with unparseable class",
                        self.g.term_name(p)
                    )),
                }
            }
        }
        if let Some(range) = self.v.range {
            for [p, _, c] in self.g.match_pattern(None, Some(range), None) {
                match self.class_expr(c) {
                    Some(e) => self.ont.axioms.push(Axiom::Range(p, e)),
                    None => self.warn(format!(
                        "skipping rdfs:range of {} with unparseable class",
                        self.g.term_name(p)
                    )),
                }
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn extract_characteristics(&mut self) {
        let Some(ty) = self.v.rdf_type else { return };
        let kinds: [(Option<TermId>, fn(TermId) -> Axiom); 6] = [
            (self.v.transitive, Axiom::TransitiveProperty),
            (self.v.symmetric, Axiom::SymmetricProperty),
            (self.v.asymmetric, Axiom::AsymmetricProperty),
            (self.v.functional, Axiom::FunctionalProperty),
            (self.v.inverse_functional, Axiom::InverseFunctionalProperty),
            (self.v.irreflexive, Axiom::IrreflexiveProperty),
        ];
        for (class, make) in kinds {
            if let Some(class) = class {
                for p in self.g.subjects(ty, class) {
                    self.ont.axioms.push(make(p));
                }
            }
        }
    }

    fn extract_chains(&mut self) {
        let Some(chain_pred) = self.v.property_chain else {
            return;
        };
        for [p, _, head] in self.g.match_pattern(None, Some(chain_pred), None) {
            match self.g.read_list(head) {
                Some(chain) if chain.len() >= 2 => {
                    self.ont.axioms.push(Axiom::PropertyChain(chain, p));
                }
                Some(_) => self.warn(format!(
                    "property chain on {} shorter than 2 — ignored",
                    self.g.term_name(p)
                )),
                None => self.warn(format!(
                    "property chain on {} is not a well-formed list",
                    self.g.term_name(p)
                )),
            }
        }
    }

    fn warn(&mut self, msg: String) {
        self.ont.warnings.push(msg);
    }

    /// Parses the class expression rooted at `node`, memoized. IRIs are
    /// named classes; blank nodes are inspected for restriction /
    /// boolean-combination structure.
    fn class_expr(&mut self, node: TermId) -> Option<ClassExpr> {
        if let Some(cached) = self.expr_cache.get(&node) {
            return cached.clone();
        }
        // Mark in-progress to break cycles.
        self.expr_cache.insert(node, None);
        let result = self.class_expr_uncached(node);
        self.expr_cache.insert(node, result.clone());
        result
    }

    fn class_expr_uncached(&mut self, node: TermId) -> Option<ClassExpr> {
        use feo_rdf::Term;
        match self.g.term(node) {
            Term::Iri(_) => return Some(ClassExpr::Named(node)),
            Term::Literal(_) => return None,
            Term::BlankNode(_) => {}
        }

        // Boolean combinations.
        if let Some(p) = self.v.intersection_of {
            if let Some(head) = self.g.object(node, p) {
                let members = self.expr_list(head)?;
                return Some(ClassExpr::IntersectionOf(members));
            }
        }
        if let Some(p) = self.v.union_of {
            if let Some(head) = self.g.object(node, p) {
                let members = self.expr_list(head)?;
                return Some(ClassExpr::UnionOf(members));
            }
        }
        if let Some(p) = self.v.complement_of {
            if let Some(inner) = self.g.object(node, p) {
                return Some(ClassExpr::ComplementOf(Box::new(self.class_expr(inner)?)));
            }
        }
        if let Some(p) = self.v.one_of {
            if let Some(head) = self.g.object(node, p) {
                return Some(ClassExpr::OneOf(self.g.read_list(head)?));
            }
        }

        // Restrictions.
        let property = self.g.object(node, self.v.on_property?)?;
        if let Some(p) = self.v.some_values_from {
            if let Some(filler) = self.g.object(node, p) {
                return Some(ClassExpr::SomeValuesFrom {
                    property,
                    filler: Box::new(self.class_expr(filler)?),
                });
            }
        }
        if let Some(p) = self.v.all_values_from {
            if let Some(filler) = self.g.object(node, p) {
                return Some(ClassExpr::AllValuesFrom {
                    property,
                    filler: Box::new(self.class_expr(filler)?),
                });
            }
        }
        if let Some(p) = self.v.has_value {
            if let Some(value) = self.g.object(node, p) {
                return Some(ClassExpr::HasValue { property, value });
            }
        }
        None
    }

    fn expr_list(&mut self, head: TermId) -> Option<Vec<ClassExpr>> {
        let nodes = self.g.read_list(head)?;
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            out.push(self.class_expr(n)?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::Graph;

    fn graph(src: &str) -> Graph {
        let mut g = Graph::new();
        let prefixed = format!(
            "@prefix rdf: <{}> .\n@prefix rdfs: <{}> .\n@prefix owl: <{}> .\n@prefix e: <http://e/> .\n{}",
            rdf::NS,
            rdfs::NS,
            owl::NS,
            src
        );
        parse_turtle_into(&prefixed, &mut g, &Default::default()).expect("test turtle parses");
        g
    }

    #[test]
    fn extracts_subclass_and_equivalence() {
        let g = graph(
            "e:A rdfs:subClassOf e:B .\n\
             e:C owl:equivalentClass e:D .",
        );
        let ont = extract_axioms(&g);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::SubClassOf(_, _))), 1);
        assert_eq!(
            ont.count_of(|a| matches!(a, Axiom::EquivalentClasses(_, _))),
            1
        );
        assert!(ont.warnings.is_empty());
    }

    #[test]
    fn extracts_property_axioms() {
        let g = graph(
            "e:p rdfs:subPropertyOf e:q .\n\
             e:p owl:inverseOf e:r .\n\
             e:p a owl:TransitiveProperty .\n\
             e:s a owl:SymmetricProperty .\n\
             e:f a owl:FunctionalProperty .\n\
             e:p rdfs:domain e:A ; rdfs:range e:B .",
        );
        let ont = extract_axioms(&g);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::SubPropertyOf(_, _))), 1);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::InverseOf(_, _))), 1);
        assert_eq!(
            ont.count_of(|a| matches!(a, Axiom::TransitiveProperty(_))),
            1
        );
        assert_eq!(
            ont.count_of(|a| matches!(a, Axiom::SymmetricProperty(_))),
            1
        );
        assert_eq!(
            ont.count_of(|a| matches!(a, Axiom::FunctionalProperty(_))),
            1
        );
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::Domain(_, _))), 1);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::Range(_, _))), 1);
    }

    #[test]
    fn extracts_restriction_expressions() {
        let g = graph(
            "e:Fact owl:equivalentClass [\n\
               a owl:Restriction ;\n\
               owl:onProperty e:supports ;\n\
               owl:someValuesFrom e:Ecosystem\n\
             ] .",
        );
        let ont = extract_axioms(&g);
        let eq = ont
            .axioms
            .iter()
            .find_map(|a| match a {
                Axiom::EquivalentClasses(l, r) => Some((l.clone(), r.clone())),
                _ => None,
            })
            .expect("equivalence extracted");
        let restriction = match (&eq.0, &eq.1) {
            (ClassExpr::Named(_), r) => r.clone(),
            (l, ClassExpr::Named(_)) => l.clone(),
            _ => panic!("one side should be named"),
        };
        assert!(matches!(restriction, ClassExpr::SomeValuesFrom { .. }));
    }

    #[test]
    fn extracts_intersection_with_restrictions() {
        let g = graph(
            "e:C owl:equivalentClass [ owl:intersectionOf (\n\
                e:Base\n\
                [ a owl:Restriction ; owl:onProperty e:p ; owl:hasValue e:v ]\n\
             ) ] .",
        );
        let ont = extract_axioms(&g);
        assert!(ont.warnings.is_empty(), "warnings: {:?}", ont.warnings);
        let found = ont.axioms.iter().any(|a| {
            matches!(
                a,
                Axiom::EquivalentClasses(_, ClassExpr::IntersectionOf(es))
                    if es.len() == 2 && matches!(es[1], ClassExpr::HasValue { .. })
            ) || matches!(
                a,
                Axiom::EquivalentClasses(ClassExpr::IntersectionOf(es), _)
                    if es.len() == 2 && matches!(es[1], ClassExpr::HasValue { .. })
            )
        });
        assert!(found, "axioms: {:?}", ont.axioms);
    }

    #[test]
    fn extracts_property_chain() {
        let g = graph("e:uncle owl:propertyChainAxiom (e:parent e:brother) .");
        let ont = extract_axioms(&g);
        assert_eq!(
            ont.count_of(|a| matches!(a, Axiom::PropertyChain(c, _) if c.len() == 2)),
            1
        );
    }

    #[test]
    fn warns_on_malformed_restriction() {
        // Restriction missing a filler: unparseable, should warn not panic.
        let g = graph("e:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty e:p ] .");
        let ont = extract_axioms(&g);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::SubClassOf(_, _))), 0);
        assert_eq!(ont.warnings.len(), 1);
    }

    #[test]
    fn one_of_enumeration() {
        let g = graph(
            "e:Season owl:equivalentClass [ owl:oneOf (e:Spring e:Summer e:Autumn e:Winter) ] .",
        );
        let ont = extract_axioms(&g);
        assert!(ont.axioms.iter().any(|a| matches!(
            a,
            Axiom::EquivalentClasses(_, ClassExpr::OneOf(m)) | Axiom::EquivalentClasses(ClassExpr::OneOf(m), _)
                if m.len() == 4
        )));
    }
}
