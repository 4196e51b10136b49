//! Fact/foil classification — the paper's Figure 3 semantics.
//!
//! A characteristic of a question parameter lands in one of four cells
//! depending on its polarity (supports vs. opposes the parameter) and its
//! ecosystem status (present vs. absent):
//!
//! | | present | absent |
//! |---|---|---|
//! | **supports** | Fact | Foil |
//! | **opposes** | Foil | neither |
//!
//! The classification itself is carried out by the OWL reasoner through
//! the `eo:Fact` / `eo:Foil` equivalent-class definitions; this module
//! provides the typed read-out plus a self-contained reproduction of the
//! full 2×2 matrix, which the tests pin cell by cell.

use feo_ontology::ns::{eo, feo};
use feo_owl::Reasoner;
use feo_rdf::vocab::rdf;
use feo_rdf::{Graph, GraphStore, GraphView, TermId};

/// Where a characteristic lands in the Figure 3 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    Fact,
    Foil,
    /// The blue box of Figure 3: neither fact nor foil.
    Neither,
    /// Classified as both (possible when an individual carries several
    /// polarity relations, e.g. a liked-but-allergenic ingredient).
    Both,
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Classification::Fact => "Fact",
            Classification::Foil => "Foil",
            Classification::Neither => "neither",
            Classification::Both => "Fact+Foil",
        })
    }
}

/// Reads the reasoner's classification of an individual out of a
/// materialized graph.
pub fn classify(g: &Graph, individual: TermId) -> Classification {
    let ty = g.lookup_iri(rdf::TYPE);
    let fact = g.lookup_iri(eo::FACT);
    let foil = g.lookup_iri(eo::FOIL);
    let is_fact =
        matches!((ty, fact), (Some(ty), Some(fact)) if g.contains_ids(individual, ty, fact));
    let is_foil =
        matches!((ty, foil), (Some(ty), Some(foil)) if g.contains_ids(individual, ty, foil));
    match (is_fact, is_foil) {
        (true, true) => Classification::Both,
        (true, false) => Classification::Fact,
        (false, true) => Classification::Foil,
        (false, false) => Classification::Neither,
    }
}

/// One cell of the reproduced Figure 3 matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    pub polarity: &'static str,
    pub ecosystem: &'static str,
    pub classification: Classification,
}

/// Builds a minimal world with one characteristic per matrix cell, runs
/// the reasoner, and reads back the classifications — regenerating
/// Figure 3 from the live ontology rather than from assumptions.
pub fn figure3_matrix() -> Vec<MatrixCell> {
    let mut g = feo_ontology::schema::tbox_graph();
    let param = "https://example.org/fig3#Param";
    g.insert_iris(
        "https://example.org/fig3#q",
        feo::HAS_PRIMARY_PARAMETER,
        param,
    );

    let cases = [
        (
            "SupportsPresent",
            feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
            feo::PRESENT_IN,
            "supports",
            "present",
        ),
        (
            "SupportsAbsent",
            feo::IS_SUPPORTIVE_CHARACTERISTIC_OF,
            feo::ABSENT_FROM,
            "supports",
            "absent",
        ),
        (
            "OpposesPresent",
            feo::IS_OPPOSING_CHARACTERISTIC_OF,
            feo::PRESENT_IN,
            "opposes",
            "present",
        ),
        (
            "OpposesAbsent",
            feo::IS_OPPOSING_CHARACTERISTIC_OF,
            feo::ABSENT_FROM,
            "opposes",
            "absent",
        ),
    ];
    for (name, polarity_prop, presence_prop, _, _) in &cases {
        let iri = format!("https://example.org/fig3#{name}");
        g.insert_iris(&iri, polarity_prop, param);
        g.insert_iris(&iri, presence_prop, feo::CURRENT_ECOSYSTEM);
    }
    let _ = Reasoner::new().materialize(&mut g, &Default::default());

    cases
        .iter()
        .filter_map(|(name, _, _, polarity, ecosystem)| {
            // Every case was inserted above.
            let id = g.lookup_iri(&format!("https://example.org/fig3#{name}"))?;
            Some(MatrixCell {
                polarity,
                ecosystem,
                classification: classify(&g, id),
            })
        })
        .collect()
}

/// Renders the matrix as the Figure 3 table.
pub fn render_figure3(cells: &[MatrixCell]) -> String {
    let get = |p: &str, e: &str| {
        cells
            .iter()
            .find(|c| c.polarity == p && c.ecosystem == e)
            .map(|c| c.classification.to_string())
            .unwrap_or_default()
    };
    format!(
        "                 | present in eco | absent from eco |\n\
         is supported by | {:<14} | {:<15} |\n\
         is opposed by   | {:<14} | {:<15} |\n",
        get("supports", "present"),
        get("supports", "absent"),
        get("opposes", "present"),
        get("opposes", "absent"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_matrix_matches_paper() {
        let cells = figure3_matrix();
        let get = |p: &str, e: &str| {
            cells
                .iter()
                .find(|c| c.polarity == p && c.ecosystem == e)
                .unwrap()
                .classification
        };
        assert_eq!(
            get("supports", "present"),
            Classification::Fact,
            "green box"
        );
        assert_eq!(get("supports", "absent"), Classification::Foil, "red box 1");
        assert_eq!(get("opposes", "present"), Classification::Foil, "red box 2");
        assert_eq!(
            get("opposes", "absent"),
            Classification::Neither,
            "blue box"
        );
    }

    #[test]
    fn render_contains_all_cells() {
        let text = render_figure3(&figure3_matrix());
        assert!(text.contains("Fact"));
        assert!(text.contains("Foil"));
        assert!(text.contains("neither"));
    }

    #[test]
    fn classify_reads_both() {
        let mut g = feo_ontology::schema::tbox_graph();
        let param = "https://example.org/x#P";
        g.insert_iris("https://example.org/x#q", feo::HAS_PRIMARY_PARAMETER, param);
        let c = "https://example.org/x#c";
        g.insert_iris(c, feo::IS_SUPPORTIVE_CHARACTERISTIC_OF, param);
        g.insert_iris(c, feo::IS_OPPOSING_CHARACTERISTIC_OF, param);
        g.insert_iris(c, feo::PRESENT_IN, feo::CURRENT_ECOSYSTEM);
        Reasoner::new()
            .materialize(&mut g, &Default::default())
            .expect("materialize");
        let id = g.lookup_iri(c).unwrap();
        assert_eq!(classify(&g, id), Classification::Both);
    }
}
