//! OWL 2 axiom and class-expression model.
//!
//! Axioms reference terms by [`TermId`], so an axiom set is only meaningful
//! together with the [`feo_rdf::Graph`] it was extracted from. This is
//! deliberate: extraction and reasoning always operate on one graph, and
//! id-level axioms make rule application allocation-free.

use feo_rdf::TermId;

/// An OWL class expression (the fragment FEO exercises).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClassExpr {
    /// A named class (or the blank node standing for a restriction that
    /// could not be parsed — extraction never produces that; unparseable
    /// expressions are skipped with a warning entry instead).
    Named(TermId),
    /// `owl:intersectionOf` — conjunction of expressions.
    IntersectionOf(Vec<ClassExpr>),
    /// `owl:unionOf` — disjunction of expressions.
    UnionOf(Vec<ClassExpr>),
    /// `owl:complementOf`.
    ComplementOf(Box<ClassExpr>),
    /// `owl:someValuesFrom` restriction on `property`.
    SomeValuesFrom {
        property: TermId,
        filler: Box<ClassExpr>,
    },
    /// `owl:allValuesFrom` restriction on `property`.
    AllValuesFrom {
        property: TermId,
        filler: Box<ClassExpr>,
    },
    /// `owl:hasValue` restriction on `property`.
    HasValue { property: TermId, value: TermId },
    /// `owl:oneOf` enumeration of individuals.
    OneOf(Vec<TermId>),
}

impl ClassExpr {
    /// The named class id when this is a plain named class.
    pub fn as_named(&self) -> Option<TermId> {
        match self {
            ClassExpr::Named(id) => Some(*id),
            _ => None,
        }
    }

    /// Structural size: the number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        match self {
            ClassExpr::Named(_) => 1,
            ClassExpr::IntersectionOf(es) | ClassExpr::UnionOf(es) => {
                1 + es.iter().map(ClassExpr::size).sum::<usize>()
            }
            ClassExpr::ComplementOf(e) => 1 + e.size(),
            ClassExpr::SomeValuesFrom { filler, .. } | ClassExpr::AllValuesFrom { filler, .. } => {
                1 + filler.size()
            }
            ClassExpr::HasValue { .. } => 1,
            ClassExpr::OneOf(ids) => 1 + ids.len(),
        }
    }
}

/// An OWL axiom over interned terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Axiom {
    SubClassOf(ClassExpr, ClassExpr),
    EquivalentClasses(ClassExpr, ClassExpr),
    DisjointClasses(ClassExpr, ClassExpr),
    SubPropertyOf(TermId, TermId),
    EquivalentProperties(TermId, TermId),
    /// `owl:propertyChainAxiom`: the chain (in order) is a subproperty of
    /// the named property.
    PropertyChain(Vec<TermId>, TermId),
    InverseOf(TermId, TermId),
    TransitiveProperty(TermId),
    SymmetricProperty(TermId),
    AsymmetricProperty(TermId),
    FunctionalProperty(TermId),
    InverseFunctionalProperty(TermId),
    IrreflexiveProperty(TermId),
    Domain(TermId, ClassExpr),
    Range(TermId, ClassExpr),
    DisjointProperties(TermId, TermId),
    SameAs(TermId, TermId),
    DifferentFrom(TermId, TermId),
}

/// The axioms extracted from a graph, plus notes about constructs the
/// extractor recognized but could not fully parse (e.g. a malformed
/// restriction). Notes are surfaced rather than silently dropped so
/// ontology bugs show up in tests.
#[derive(Debug, Default, Clone)]
pub struct Ontology {
    pub axioms: Vec<Axiom>,
    pub warnings: Vec<String>,
}

impl Ontology {
    /// Iterate all subclass relationships including both directions of
    /// every equivalence (an equivalence is two subclass axioms).
    pub fn subclass_like(&self) -> impl Iterator<Item = (&ClassExpr, &ClassExpr)> {
        self.axioms.iter().flat_map(|a| match a {
            Axiom::SubClassOf(sub, sup) => vec![(sub, sup)],
            Axiom::EquivalentClasses(a, b) => vec![(a, b), (b, a)],
            _ => vec![],
        })
    }

    pub fn count_of(&self, pred: impl Fn(&Axiom) -> bool) -> usize {
        self.axioms.iter().filter(|a| pred(a)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> TermId {
        // TermId construction for tests: round-trip through an interner.
        let mut i = feo_rdf::Interner::new();
        let mut id = i.intern(&feo_rdf::Term::iri("http://e/0"));
        for k in 1..=n {
            id = i.intern(&feo_rdf::Term::iri(format!("http://e/{k}")));
        }
        id
    }

    #[test]
    fn class_expr_size() {
        let a = ClassExpr::Named(tid(0));
        let b = ClassExpr::SomeValuesFrom {
            property: tid(1),
            filler: Box::new(a.clone()),
        };
        let c = ClassExpr::IntersectionOf(vec![a.clone(), b.clone()]);
        assert_eq!(a.size(), 1);
        assert_eq!(b.size(), 2);
        assert_eq!(c.size(), 4);
    }

    #[test]
    fn subclass_like_expands_equivalences() {
        let a = ClassExpr::Named(tid(0));
        let b = ClassExpr::Named(tid(1));
        let ont = Ontology {
            axioms: vec![
                Axiom::SubClassOf(a.clone(), b.clone()),
                Axiom::EquivalentClasses(a.clone(), b.clone()),
            ],
            warnings: vec![],
        };
        assert_eq!(ont.subclass_like().count(), 3);
    }
}
