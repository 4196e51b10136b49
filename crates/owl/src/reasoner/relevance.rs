//! Goal-directed rule selection: the rules whose conclusions a reader
//! can see.
//!
//! Read as a Datalog program, every rule derives triples of some
//! predicates (for `rdf:type`, of some classes) from triples of others.
//! Walking backwards from what a reader reads, over the rules' heads and
//! bodies, gives the rules that can contribute to it: the relevance step
//! of query rewriting (DaRLing; Gottlob, Orsi and Pieris), used here to
//! choose rules, not to rewrite a query. A closure under the chosen
//! rules derives, on the read set, exactly what the closure under all
//! of them derives there, because every derivation of a read triple
//! uses kept rules only; a delta closure keeps that property as long as
//! its base was closed under the full rules.
//!
//! The consistency rules derive nothing, so none is kept: a closure
//! under chosen rules makes no consistency claim.

use std::collections::BTreeSet;

use feo_rdf::TermId;

use super::CompiledRules;
use crate::axiom::ClassExpr;

/// The triples a reader can see: every triple whose predicate is in
/// `predicates` (`rdf:type` there stands for every typing), and the
/// `rdf:type` triples whose class is in `classes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    pub predicates: BTreeSet<TermId>,
    pub classes: BTreeSet<TermId>,
}

/// One kind of triple a rule reads or derives: `(p, None)` every `p`
/// triple, `(rdf:type, Some(c))` the typings in `c`.
type Atom = (TermId, Option<TermId>);

impl ReadSet {
    fn sees(&self, rdf_type: TermId, (p, class): Atom) -> bool {
        self.predicates.contains(&p)
            || p == rdf_type
                && class.map_or(!self.classes.is_empty(), |c| self.classes.contains(&c))
    }

    fn add(&mut self, (p, class): Atom) {
        match class {
            Some(c) => self.classes.insert(c),
            None => self.predicates.insert(p),
        };
    }
}

/// How a class expression takes part in a rule.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Tested on an individual: every atom is read.
    Tested,
    /// Applied to an individual: the atoms it asserts.
    Asserts,
    /// Applied to an individual: the edges a universal walks.
    Walks,
}

/// The atoms `expr` reads or asserts in `role`, added to `out`.
fn atoms(rules: &CompiledRules, expr: &ClassExpr, role: Role, out: &mut Vec<Atom>) {
    let t = rules.rdf_type;
    let typed = |p: TermId, o: TermId| if p == t { (t, Some(o)) } else { (p, None) };
    match expr {
        ClassExpr::Named(c) if role != Role::Walks => out.push((t, Some(*c))),
        ClassExpr::HasValue { property, value } if role != Role::Walks => {
            out.push(typed(*property, *value))
        }
        ClassExpr::IntersectionOf(es) => es.iter().for_each(|e| atoms(rules, e, role, out)),
        ClassExpr::UnionOf(es) if role == Role::Tested => {
            es.iter().for_each(|e| atoms(rules, e, role, out))
        }
        ClassExpr::SomeValuesFrom { property, filler } if role == Role::Tested => {
            out.push((*property, None));
            atoms(rules, filler, role, out);
        }
        ClassExpr::AllValuesFrom { property, filler } if role != Role::Tested => {
            if role == Role::Walks {
                out.push((*property, None));
            }
            atoms(rules, filler, role, out);
        }
        ClassExpr::OneOf(ids) if role == Role::Asserts && ids.len() == 1 => {
            out.push((rules.same_as, None))
        }
        _ => {}
    }
}

impl CompiledRules {
    /// The rules that can derive a triple `reads` sees, compiled for a
    /// closure run like any other rule set. `owl:sameAs` is always read:
    /// eq-rep copies every triple along it.
    pub fn relevant_to(&self, reads: &ReadSet) -> CompiledRules {
        let mut relevant = reads.clone();
        relevant.predicates.insert(self.same_as);
        loop {
            let (kept, read) = self.select(&relevant);
            if read == relevant {
                return kept.indexed();
            }
            relevant = read;
        }
    }

    /// The rules with a head in `relevant`, and `relevant` grown by
    /// their bodies.
    fn select(&self, relevant: &ReadSet) -> (CompiledRules, ReadSet) {
        let t = self.rdf_type;
        let sees = |atom| relevant.sees(t, atom);
        let of = |expr: &ClassExpr, role| {
            let mut out = Vec::new();
            atoms(self, expr, role, &mut out);
            out
        };
        let mut read = relevant.clone();
        let mut kept = self.clone();
        // cax-sco, prp-spo1, prp-inv: a head per pair, the key the body.
        kept.sup_class.retain(|&c, sups| {
            sups.retain(|&sup| sees((t, Some(sup))));
            if !sups.is_empty() {
                read.add((t, Some(c)));
            }
            !sups.is_empty()
        });
        kept.sup_prop.retain(|&p, sups| {
            sups.retain(|&q| sees((q, None)));
            if !sups.is_empty() {
                read.add((p, None));
            }
            !sups.is_empty()
        });
        kept.inverses.retain(|&p, inverses| {
            inverses.retain(|&q| sees((q, None)));
            if !inverses.is_empty() {
                read.add((p, None));
            }
            !inverses.is_empty()
        });
        // prp-symp, prp-trp: the property is head and body.
        kept.symmetric.retain(|&p| sees((p, None)));
        kept.transitive.retain(|&p| sees((p, None)));
        // prp-fp, prp-ifp: owl:sameAs, always read.
        for &p in kept.functional.iter().chain(&kept.inverse_functional) {
            read.add((p, None));
        }
        // prp-dom, prp-rng: the class asserted on a subject or object.
        for table in [&mut kept.domains, &mut kept.ranges] {
            table.retain(|&p, classes| {
                classes.retain(|c| of(c, Role::Asserts).into_iter().any(sees));
                for c in classes.iter() {
                    read.add((p, None));
                    of(c, Role::Walks).into_iter().for_each(|a| read.add(a));
                }
                !classes.is_empty()
            });
        }
        // prp-spo2
        kept.chains.retain(|(chain, q)| {
            let keep = sees((*q, None));
            if keep {
                chain.iter().for_each(|&p| read.add((p, None)));
            }
            keep
        });
        // The complex axioms: `sub` is tested, `sup` applied.
        kept.complex.retain(|(sub, sup)| {
            let keep = of(sup, Role::Asserts).into_iter().any(sees);
            if keep {
                let body = of(sub, Role::Tested)
                    .into_iter()
                    .chain(of(sup, Role::Walks));
                body.for_each(|a| read.add(a));
            }
            keep
        });
        // The consistency rules derive nothing.
        kept.asymmetric.clear();
        kept.irreflexive.clear();
        kept.disjoint_classes.clear();
        kept.disjoint_properties.clear();
        kept.different_from.clear();
        (kept, read)
    }
}
