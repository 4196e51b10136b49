//! Turtle export of the ontology stack — the analogue of the paper's
//! published `.ttl` resource files.

use feo_rdf::turtle::write_turtle;
use feo_rdf::Graph;

use crate::ns::PREFIXES;
use crate::schema;

/// Serializes an FEO-stack graph as Turtle with the standard prefixes.
pub fn to_turtle(g: &Graph) -> String {
    write_turtle(g, PREFIXES)
}

/// The full TBox stack as a Turtle document.
pub fn tboxes_turtle() -> String {
    let mut g = Graph::new();
    schema::load_tboxes(&mut g);
    to_turtle(&g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::turtle::parse_turtle_into;
    use feo_rdf::GraphView;

    #[test]
    fn turtle_export_round_trips() {
        let mut original = Graph::new();
        schema::load_tboxes(&mut original);
        let ttl = tboxes_turtle();
        let mut reparsed = Graph::new();
        parse_turtle_into(&ttl, &mut reparsed, &Default::default()).expect("export parses");
        assert_eq!(original.len(), reparsed.len());
        for t in original.iter_triples() {
            assert!(reparsed.contains(&t), "missing after round trip: {t}");
        }
    }

    #[test]
    fn export_uses_prefixes() {
        let ttl = tboxes_turtle();
        assert!(ttl.contains("@prefix feo:"));
        assert!(ttl.contains("feo:Characteristic"));
        assert!(ttl.contains("food:hasIngredient"));
    }
}
