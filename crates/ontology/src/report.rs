//! Introspection helpers that regenerate the paper's schema figures from
//! the live ontology graph (rather than from hard-coded text), so the
//! rendered figures are guaranteed to match the TBox actually loaded.
//!
//! - Figure 1: the subclass tree under `feo:Characteristic`;
//! - Figure 2: the property lattice (super-properties, inverses,
//!   transitivity, chains).

use feo_rdf::vocab::{owl, rdf, rdfs};
use feo_rdf::{Graph, GraphView, TermId};

use crate::ns::feo;

/// One node of the characteristic tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassNode {
    pub iri: String,
    pub label: String,
    pub children: Vec<ClassNode>,
}

impl ClassNode {
    /// Renders the tree as indented ASCII (the Figure 1 reproduction).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label);
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// Total node count (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ClassNode::size).sum::<usize>()
    }

    /// Depth-first search for a node by label.
    pub fn find(&self, label: &str) -> Option<&ClassNode> {
        if self.label == label {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(label))
    }
}

/// Builds the subclass tree rooted at `feo:Characteristic` from *direct*
/// (asserted) subclass edges, ignoring the materialized closure so the
/// tree shape matches the authored hierarchy.
pub fn characteristic_tree(g: &Graph) -> Option<ClassNode> {
    let root = g.lookup_iri(feo::CHARACTERISTIC)?;
    let sco = g.lookup_iri(rdfs::SUB_CLASS_OF)?;
    Some(build_node(g, root, sco, &mut Vec::new()))
}

fn build_node(g: &Graph, class: TermId, sco: TermId, seen: &mut Vec<TermId>) -> ClassNode {
    seen.push(class);
    let mut children = Vec::new();
    for sub in g.subjects(sco, class) {
        if seen.contains(&sub) || !g.term(sub).is_iri() {
            continue;
        }
        // Keep only direct children: skip subs that also have an
        // intermediate superclass below `class`.
        if !is_direct_subclass(g, sub, class, sco) {
            continue;
        }
        children.push(build_node(g, sub, sco, seen));
    }
    seen.pop();
    children.sort_by(|a, b| a.label.cmp(&b.label));
    ClassNode {
        iri: match g.term(class) {
            feo_rdf::Term::Iri(i) => i.as_str().to_string(),
            other => other.to_string(),
        },
        label: g.term_name(class),
        children,
    }
}

/// True when no other named class sits strictly between sub and sup.
fn is_direct_subclass(g: &Graph, sub: TermId, sup: TermId, sco: TermId) -> bool {
    for mid in g.objects(sub, sco) {
        if mid == sub || mid == sup || !g.term(mid).is_iri() {
            continue;
        }
        if g.contains_ids(mid, sco, sup) {
            return false;
        }
    }
    true
}

/// One row of the property-lattice report (Figure 2 reproduction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyInfo {
    pub local: String,
    pub super_properties: Vec<String>,
    pub inverse_of: Vec<String>,
    pub transitive: bool,
    pub chains: Vec<Vec<String>>,
}

/// Collects every declared object property with its lattice relations,
/// sorted by name.
pub fn property_lattice(g: &Graph) -> Vec<PropertyInfo> {
    let Some(ty) = g.lookup_iri(rdf::TYPE) else {
        return Vec::new();
    };
    let Some(obj_prop) = g.lookup_iri(owl::OBJECT_PROPERTY) else {
        return Vec::new();
    };
    let spo = g.lookup_iri(rdfs::SUB_PROPERTY_OF);
    let inv = g.lookup_iri(owl::INVERSE_OF);
    let trans = g.lookup_iri(owl::TRANSITIVE_PROPERTY);
    let chain = g.lookup_iri(owl::PROPERTY_CHAIN_AXIOM);

    let mut out = Vec::new();
    for p in g.instances_of(obj_prop) {
        let mut info = PropertyInfo {
            local: g.term_name(p),
            super_properties: Vec::new(),
            inverse_of: Vec::new(),
            transitive: false,
            chains: Vec::new(),
        };
        if let Some(spo) = spo {
            for sup in g.objects(p, spo) {
                if sup != p {
                    info.super_properties.push(g.term_name(sup));
                }
            }
        }
        if let Some(inv) = inv {
            for other in g.objects(p, inv) {
                info.inverse_of.push(g.term_name(other));
            }
            for other in g.subjects(inv, p) {
                let name = g.term_name(other);
                if !info.inverse_of.contains(&name) {
                    info.inverse_of.push(name);
                }
            }
        }
        if let Some(trans) = trans {
            info.transitive = g.contains_ids(p, ty, trans);
        }
        if let Some(chain) = chain {
            for head in g.objects(p, chain) {
                if let Some(items) = g.read_list(head) {
                    info.chains
                        .push(items.into_iter().map(|i| g.term_name(i)).collect());
                }
            }
        }
        info.super_properties.sort();
        info.inverse_of.sort();
        out.push(info);
    }
    out.sort_by(|a, b| a.local.cmp(&b.local));
    out.dedup_by(|a, b| a.local == b.local);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tbox_graph;

    #[test]
    fn figure1_tree_matches_paper_hierarchy() {
        let g = tbox_graph();
        let tree = characteristic_tree(&g).expect("root exists");
        assert_eq!(tree.label, "Characteristic");
        // The three main subclasses from §III-A.
        let top: Vec<&str> = tree.children.iter().map(|c| c.label.as_str()).collect();
        assert!(top.contains(&"Parameter"));
        assert!(top.contains(&"UserCharacteristic"));
        assert!(top.contains(&"SystemCharacteristic"));
        // Season sits under System, AllergicFood under User.
        let system = tree.find("SystemCharacteristic").unwrap();
        assert!(system.find("SeasonCharacteristic").is_some());
        let user = tree.find("UserCharacteristic").unwrap();
        assert!(user.find("AllergicFoodCharacteristic").is_some());
        assert!(tree.size() >= 14);
    }

    #[test]
    fn figure1_tree_uses_direct_edges_even_after_reasoning() {
        let mut g = tbox_graph();
        feo_owl::Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let tree = characteristic_tree(&g).expect("root exists");
        // Materialized closure adds Season ⊑ Characteristic, but the tree
        // must still place Season under SystemCharacteristic, not the root.
        let direct: Vec<&str> = tree.children.iter().map(|c| c.label.as_str()).collect();
        assert!(!direct.contains(&"SeasonCharacteristic"));
        assert!(tree
            .find("SystemCharacteristic")
            .unwrap()
            .find("SeasonCharacteristic")
            .is_some());
    }

    #[test]
    fn figure2_lattice_reports_key_relations() {
        let g = tbox_graph();
        let props = property_lattice(&g);
        let get = |name: &str| props.iter().find(|p| p.local == name).unwrap();

        let has_char = get("hasCharacteristic");
        assert!(has_char.transitive);
        assert!(has_char
            .inverse_of
            .contains(&"isCharacteristicOf".to_string()));

        let forbids = get("forbids");
        assert!(forbids
            .super_properties
            .contains(&"isOpposingCharacteristicOf".to_string()));
        assert!(forbids
            .super_properties
            .contains(&"isCharacteristicOf".to_string()));
        assert!(!forbids.chains.is_empty());

        let supportive = get("isSupportiveCharacteristicOf");
        assert!(supportive
            .chains
            .iter()
            .any(|c| c.len() == 2 && c[1] == "isCharacteristicOf"));
    }

    #[test]
    fn render_is_indented() {
        let g = tbox_graph();
        let tree = characteristic_tree(&g).unwrap();
        let text = tree.render();
        assert!(text.starts_with("Characteristic\n"));
        assert!(text.contains("\n  SystemCharacteristic\n"));
        assert!(text.contains("\n    SeasonCharacteristic\n"));
    }
}
