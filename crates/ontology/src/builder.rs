//! A small fluent builder for writing OWL TBoxes into an RDF graph.
//!
//! Keeps the schema modules declarative: each axiom is one call, and the
//! OWL-in-RDF encoding details (restriction blank nodes, RDF lists) live
//! here once.

use feo_rdf::term::{Literal, Term};
use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphStore, TermId};

/// TBox builder over a graph.
pub struct TBox<'g> {
    pub g: &'g mut Graph,
}

impl<'g> TBox<'g> {
    pub fn new(g: &'g mut Graph) -> Self {
        TBox { g }
    }

    fn iri(&mut self, iri: &str) -> TermId {
        self.g.intern_iri(iri)
    }

    /// Declares an `owl:Class` with a label.
    pub fn class(&mut self, iri: &str, label: &str) -> &mut Self {
        self.triple_iri(iri, rdf::TYPE, owl::CLASS);
        self.annotate(iri, rdfs::LABEL, label);
        self
    }

    /// `sub rdfs:subClassOf sup` (both named).
    pub fn sub_class(&mut self, sub: &str, sup: &str) -> &mut Self {
        self.triple_iri(sub, rdfs::SUB_CLASS_OF, sup)
    }

    /// Declares an `owl:ObjectProperty`.
    pub fn object_property(&mut self, iri: &str, label: &str) -> &mut Self {
        self.triple_iri(iri, rdf::TYPE, owl::OBJECT_PROPERTY);
        self.annotate(iri, rdfs::LABEL, label);
        self
    }

    /// Declares an `owl:DatatypeProperty`.
    pub fn datatype_property(&mut self, iri: &str, label: &str) -> &mut Self {
        self.triple_iri(iri, rdf::TYPE, owl::DATATYPE_PROPERTY);
        self.annotate(iri, rdfs::LABEL, label);
        self
    }

    pub fn sub_property(&mut self, sub: &str, sup: &str) -> &mut Self {
        self.triple_iri(sub, rdfs::SUB_PROPERTY_OF, sup)
    }

    pub fn inverse(&mut self, a: &str, b: &str) -> &mut Self {
        self.triple_iri(a, owl::INVERSE_OF, b)
    }

    pub fn transitive(&mut self, p: &str) -> &mut Self {
        self.triple_iri(p, rdf::TYPE, owl::TRANSITIVE_PROPERTY)
    }

    pub fn symmetric(&mut self, p: &str) -> &mut Self {
        self.triple_iri(p, rdf::TYPE, owl::SYMMETRIC_PROPERTY)
    }

    pub fn functional(&mut self, p: &str) -> &mut Self {
        self.triple_iri(p, rdf::TYPE, owl::FUNCTIONAL_PROPERTY)
    }

    pub fn domain(&mut self, p: &str, c: &str) -> &mut Self {
        self.triple_iri(p, rdfs::DOMAIN, c)
    }

    pub fn range(&mut self, p: &str, c: &str) -> &mut Self {
        self.triple_iri(p, rdfs::RANGE, c)
    }

    pub fn disjoint(&mut self, a: &str, b: &str) -> &mut Self {
        self.triple_iri(a, owl::DISJOINT_WITH, b)
    }

    /// `owl:propertyChainAxiom`: `chain` (in order) entails `p`.
    pub fn chain(&mut self, p: &str, chain: &[&str]) -> &mut Self {
        let members: Vec<TermId> = chain.iter().map(|c| self.g.intern_iri(c)).collect();
        let head = self.g.write_list(&members);
        let p = self.iri(p);
        let pred = self.iri(owl::PROPERTY_CHAIN_AXIOM);
        self.g.insert_ids(p, pred, head);
        self
    }

    /// `rdf:type` assertion for an individual.
    pub fn individual(&mut self, iri: &str, class: &str, label: &str) -> &mut Self {
        self.triple_iri(iri, rdf::TYPE, class);
        self.annotate(iri, rdfs::LABEL, label);
        self
    }

    /// Plain object triple between IRIs.
    pub fn triple_iri(&mut self, s: &str, p: &str, o: &str) -> &mut Self {
        self.g.insert_iris(s, p, o);
        self
    }

    /// Boolean datatype assertion.
    pub fn boolean(&mut self, s: &str, p: &str, v: bool) -> &mut Self {
        let s = self.iri(s);
        let p = self.iri(p);
        let o = self.g.intern(&Term::boolean(v));
        self.g.insert_ids(s, p, o);
        self
    }

    /// String annotation (label/comment).
    pub fn annotate(&mut self, s: &str, p: &str, text: &str) -> &mut Self {
        let s = self.iri(s);
        let p = self.iri(p);
        let o = self.g.intern(&Term::Literal(Literal::simple(text)));
        self.g.insert_ids(s, p, o);
        self
    }

    /// Builds a `someValuesFrom` restriction node and returns its id.
    pub fn some_values_from(&mut self, property: &str, filler: &str) -> TermId {
        let node = self.g.fresh_bnode();
        let ty = self.iri(rdf::TYPE);
        let restriction = self.iri(owl::RESTRICTION);
        let on_prop = self.iri(owl::ON_PROPERTY);
        let svf = self.iri(owl::SOME_VALUES_FROM);
        let p = self.iri(property);
        let f = self.iri(filler);
        self.g.insert_ids(node, ty, restriction);
        self.g.insert_ids(node, on_prop, p);
        self.g.insert_ids(node, svf, f);
        node
    }

    /// Builds a `hasValue` restriction node.
    pub fn has_value(&mut self, property: &str, value: &str) -> TermId {
        let node = self.g.fresh_bnode();
        let ty = self.iri(rdf::TYPE);
        let restriction = self.iri(owl::RESTRICTION);
        let on_prop = self.iri(owl::ON_PROPERTY);
        let hv = self.iri(owl::HAS_VALUE);
        let p = self.iri(property);
        let v = self.iri(value);
        self.g.insert_ids(node, ty, restriction);
        self.g.insert_ids(node, on_prop, p);
        self.g.insert_ids(node, hv, v);
        node
    }

    /// Builds an `intersectionOf` class node from member nodes.
    pub fn intersection(&mut self, members: &[TermId]) -> TermId {
        let node = self.g.fresh_bnode();
        let head = self.g.write_list(members);
        let ty = self.iri(rdf::TYPE);
        let class = self.iri(owl::CLASS);
        let inter = self.iri(owl::INTERSECTION_OF);
        self.g.insert_ids(node, ty, class);
        self.g.insert_ids(node, inter, head);
        node
    }

    /// Builds a `unionOf` class node from member nodes.
    pub fn union(&mut self, members: &[TermId]) -> TermId {
        let node = self.g.fresh_bnode();
        let head = self.g.write_list(members);
        let ty = self.iri(rdf::TYPE);
        let class = self.iri(owl::CLASS);
        let uni = self.iri(owl::UNION_OF);
        self.g.insert_ids(node, ty, class);
        self.g.insert_ids(node, uni, head);
        node
    }

    /// `named owl:equivalentClass <expression node>`.
    pub fn equivalent_to_node(&mut self, named: &str, node: TermId) -> &mut Self {
        let n = self.iri(named);
        let eq = self.iri(owl::EQUIVALENT_CLASS);
        self.g.insert_ids(n, eq, node);
        self
    }

    /// Interns a named class reference for use inside expression builders.
    pub fn named(&mut self, iri: &str) -> TermId {
        self.iri(iri)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_owl::{extract_axioms, Axiom, ClassExpr};

    #[test]
    fn builder_emits_extractable_axioms() {
        let mut g = Graph::new();
        {
            let mut b = TBox::new(&mut g);
            b.class("http://e/A", "A")
                .class("http://e/B", "B")
                .sub_class("http://e/A", "http://e/B")
                .object_property("http://e/p", "p")
                .transitive("http://e/p")
                .inverse("http://e/p", "http://e/q");
            let some = b.some_values_from("http://e/p", "http://e/B");
            let hv = b.has_value("http://e/q", "http://e/v");
            let inter = b.intersection(&[some, hv]);
            b.equivalent_to_node("http://e/C", inter);
            b.chain("http://e/p", &["http://e/p", "http://e/q"]);
        }
        let ont = extract_axioms(&g);
        assert!(ont.warnings.is_empty(), "{:?}", ont.warnings);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::SubClassOf(_, _))), 1);
        assert_eq!(
            ont.count_of(|a| matches!(a, Axiom::TransitiveProperty(_))),
            1
        );
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::InverseOf(_, _))), 1);
        assert_eq!(ont.count_of(|a| matches!(a, Axiom::PropertyChain(_, _))), 1);
        assert!(ont.axioms.iter().any(|a| matches!(
            a,
            Axiom::EquivalentClasses(_, ClassExpr::IntersectionOf(m)) if m.len() == 2
        ) || matches!(
            a,
            Axiom::EquivalentClasses(ClassExpr::IntersectionOf(m), _) if m.len() == 2
        )));
    }

    #[test]
    fn union_expression_round_trips() {
        let mut g = Graph::new();
        {
            let mut b = TBox::new(&mut g);
            let x = b.named("http://e/X");
            let y = b.named("http://e/Y");
            let u = b.union(&[x, y]);
            b.equivalent_to_node("http://e/Z", u);
        }
        let ont = extract_axioms(&g);
        assert!(ont.axioms.iter().any(|a| matches!(
            a,
            Axiom::EquivalentClasses(_, ClassExpr::UnionOf(m))
            | Axiom::EquivalentClasses(ClassExpr::UnionOf(m), _) if m.len() == 2
        )));
    }
}
