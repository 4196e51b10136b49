//! The competency-question harness: runs CQ1–CQ3 against the paper's
//! scenarios and checks the results against the paper's printed tables
//! (Listings 1–3). Its unit tests and `tests/pipeline.rs` pin them.

use feo_sparql::SolutionTable;

use crate::engine::{EngineError, ExplainOptions};
use crate::scenarios::{scenario_a, scenario_b, scenario_c, Scenario};

/// Expected vs. measured outcome of one competency question.
#[derive(Debug, Clone)]
pub struct CqOutcome {
    pub scenario: Scenario,
    /// The paper's expected result rows (variable → local-name value).
    pub expected_rows: Vec<Vec<(&'static str, &'static str)>>,
    /// The produced bindings table.
    pub bindings: SolutionTable,
    /// The rendered answer.
    pub answer: String,
    /// Whether every expected row was found.
    pub expected_found: bool,
    /// Rows produced beyond the expected ones (KG-richness artifacts are
    /// reported, not hidden).
    pub extra_rows: usize,
}

fn check(
    scenario: Scenario,
    expected_rows: Vec<Vec<(&'static str, &'static str)>>,
) -> Result<CqOutcome, EngineError> {
    let base = scenario.engine()?;
    let explanation = base.explain(&scenario.question, &ExplainOptions::default())?;
    let bindings = explanation.bindings.clone();

    let expected_found = expected_rows.iter().all(|row| {
        bindings.rows.iter().enumerate().any(|(i, _)| {
            row.iter().all(|(var, value)| {
                bindings
                    .var_index(var)
                    .and_then(|col| bindings.rows[i].get(col))
                    .and_then(|c| c.as_ref())
                    .map(|t| match t {
                        feo_rdf::Term::Iri(iri) => iri.local_name() == *value,
                        feo_rdf::Term::Literal(l) => l.lexical_form() == *value,
                        feo_rdf::Term::BlankNode(_) => false,
                    })
                    .unwrap_or(false)
            })
        })
    });
    let extra_rows = bindings.len().saturating_sub(expected_rows.len());
    Ok(CqOutcome {
        scenario,
        expected_rows,
        bindings,
        answer: explanation.answer,
        expected_found,
        extra_rows,
    })
}

/// CQ1 (Listing 1): expected single row (feo:Autumn,
/// feo:SeasonCharacteristic).
pub fn cq1() -> Result<CqOutcome, EngineError> {
    check(
        scenario_a(),
        vec![vec![
            ("characteristic", "Autumn"),
            ("classes", "SeasonCharacteristic"),
        ]],
    )
}

/// CQ2 (Listing 2): expected single row (SeasonCharacteristic, Autumn,
/// AllergicFoodCharacteristic, Broccoli).
pub fn cq2() -> Result<CqOutcome, EngineError> {
    check(
        scenario_b(),
        vec![vec![
            ("factType", "SeasonCharacteristic"),
            ("factA", "Autumn"),
            ("foilType", "AllergicFoodCharacteristic"),
            ("foilB", "Broccoli"),
        ]],
    )
}

/// CQ3 (Listing 3): expected rows (recommends, Spinach, SpinachFrittata)
/// and (forbids, Sushi, —).
pub fn cq3() -> Result<CqOutcome, EngineError> {
    check(
        scenario_c(),
        vec![
            vec![
                ("property", "recommends"),
                ("baseFood", "Spinach"),
                ("inheritedFood", "SpinachFrittata"),
            ],
            vec![("property", "forbids"), ("baseFood", "Sushi")],
        ],
    )
}

/// All three competency questions in paper order.
pub fn all() -> Result<Vec<CqOutcome>, EngineError> {
    Ok(vec![cq1()?, cq2()?, cq3()?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cq1_reproduces_listing_one() {
        let o = cq1().expect("cq1 runs");
        assert!(o.expected_found, "bindings:\n{}", o.bindings);
        assert_eq!(
            o.bindings.len(),
            1,
            "paper shows exactly one row; got:\n{}",
            o.bindings
        );
        assert!(
            o.answer.contains("Cauliflower"),
            "answer should mention the carrier ingredient: {}",
            o.answer
        );
        assert!(o.answer.contains("current season"));
    }

    #[test]
    fn cq2_reproduces_listing_two() {
        let o = cq2().expect("cq2 runs");
        assert!(o.expected_found, "bindings:\n{}", o.bindings);
        assert_eq!(
            o.bindings.len(),
            1,
            "paper shows exactly one row; got:\n{}",
            o.bindings
        );
        assert!(o.answer.contains("in season"), "{}", o.answer);
        assert!(o.answer.contains("allergic"), "{}", o.answer);
    }

    #[test]
    fn cq3_reproduces_listing_three() {
        let o = cq3().expect("cq3 runs");
        assert!(o.expected_found, "bindings:\n{}", o.bindings);
        assert!(
            o.answer.contains("forbidden from eating Sushi"),
            "{}",
            o.answer
        );
        assert!(o.answer.contains("Spinach Frittata"), "{}", o.answer);
    }
}
