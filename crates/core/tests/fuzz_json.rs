//! Robustness of the one JSON module: the reader must never panic on
//! arbitrary text (it parses or returns an error), every string the
//! writer escapes must read back unchanged, and every body the writer
//! produces for explanations, outcomes and solution tables must read
//! back as the JSON it was meant to be.

use feo_core::json::{json_string, Json};
use feo_core::{
    BudgetedOutcome, DegradationReport, Explanation, ExplanationType, Hypothesis, Question, ToJson,
};
use feo_rdf::governor::{Exhausted, Resource};
use feo_rdf::{Iri, Literal, Term};
use feo_sparql::{QueryResult, SolutionTable};
use proptest::prelude::*;

/// Tokens a hostile body is made of: structure, escapes whole and cut
/// short, both halves of a surrogate pair, raw control characters and
/// non-ASCII text.
const PIECES: [&str; 32] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\uD83E", "\\uDD66", "\\uD800", "\\uDC00",
    "\\u00", "\\u+041", "\\n", "\\x", "0", "-", "1.5e3", "01", "1.", "true", "fals", "null", " ",
    "\n", "\u{1}", "\u{7f}", "é", "\u{2028}", "🥦",
];

/// Every escape the writer emits, the rest of the C0 controls, DEL,
/// the JSON line separators and characters from each UTF-8 width.
const AWKWARD: &str =
    "[\"\\\\/\u{0}-\u{1f}\u{7f}a-c é\u{2028}\u{2029}\u{fffd}\u{10000}🥦\u{10ffff}]{0,40}";

fn from_pieces(picks: &[u32]) -> String {
    picks
        .iter()
        .map(|&i| PIECES[i as usize % PIECES.len()])
        .collect()
}

/// Any scalar value: `u32`s folded into the code space, surrogates
/// dropped.
fn scalars(words: &[u32]) -> String {
    words
        .iter()
        .filter_map(|&w| char::from_u32(w % 0x11_0000))
        .collect()
}

fn term(kind: u32, text: &str) -> Term {
    match kind % 4 {
        0 => Term::iri(format!("http://e/{text}")),
        1 => Term::bnode(text),
        2 => Term::Literal(Literal::lang(text, "en")),
        _ => Term::Literal(Literal::typed(
            text,
            Iri::new("http://www.w3.org/2001/XMLSchema#string"),
        )),
    }
}

fn table(vars: usize, cells: &[(u32, String)]) -> SolutionTable {
    let vars: Vec<String> = (0..vars.max(1)).map(|i| format!("v{i}")).collect();
    let rows = cells
        .chunks(vars.len())
        .map(|row| {
            let mut row: Vec<Option<Term>> = row
                .iter()
                .map(|(kind, text)| (kind % 5 != 4).then(|| term(*kind, text)))
                .collect();
            row.resize(vars.len(), None);
            row
        })
        .collect();
    SolutionTable { vars, rows }
}

fn explanation(text: &str, statements: Vec<String>, bindings: SolutionTable) -> Explanation {
    Explanation {
        question: Question::WhatIf {
            hypothesis: Hypothesis::FollowedDiet(text.to_string()),
        },
        explanation_type: ExplanationType::Counterfactual,
        bindings,
        statements,
        answer: text.to_string(),
    }
}

fn strings(value: Option<&Json>) -> Vec<&str> {
    value
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default()
}

/// The binding a row's cell reads back as: its `value` member.
fn binding_values(doc: &Json) -> Vec<Vec<Option<String>>> {
    let vars = strings(doc.get("head").and_then(|h| h.get("vars")));
    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .unwrap_or_default();
    bindings
        .iter()
        .map(|row| {
            vars.iter()
                .map(|var| {
                    let cell = row.get(var)?;
                    cell.get("value").and_then(Json::as_str).map(str::to_string)
                })
                .collect()
        })
        .collect()
}

fn lexical(term: &Term) -> String {
    match term {
        Term::Iri(iri) => iri.as_str().to_string(),
        Term::BlankNode(b) => b.as_str().to_string(),
        Term::Literal(lit) => lit.lexical_form().to_string(),
    }
}

#[test]
fn every_prefix_of_a_valid_body_parses_or_errs() {
    let body = r#"{"questions":[{"type":"what-if","hypothesis":"diet:Dashé🥦"}],"budget":{"deadline_ms":2.5e2,"max_rounds":-0},"x":[true,false,null,"\"\\\/\b\f\n\r\t"]}"#;
    assert!(Json::parse(body).is_ok());
    for cut in (0..body.len()).filter(|&i| body.is_char_boundary(i)) {
        assert!(Json::parse(&body[..cut]).is_err(), "prefix {cut} accepted");
    }
}

#[test]
fn nesting_past_the_cap_is_an_error() {
    for depth in [32, 33, 34, 64, 10_000] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert_eq!(Json::parse(&arrays).is_ok(), depth <= 33, "{depth} arrays");
        assert_eq!(
            Json::parse(&objects).is_ok(),
            depth <= 32,
            "{depth} objects"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reader_never_panics_on_json_like_text(picks in prop::collection::vec(any::<u32>(), 0..48)) {
        let _ = Json::parse(&from_pieces(&picks));
    }

    #[test]
    fn reader_never_panics_on_arbitrary_text(input in ".{0,120}") {
        let _ = Json::parse(&input);
    }

    #[test]
    fn reader_never_panics_inside_a_string(picks in prop::collection::vec(any::<u32>(), 0..24)) {
        let _ = Json::parse(&format!("{{\"sparql\":\"{}\"}}", from_pieces(&picks)));
    }

    #[test]
    fn reader_never_panics_past_the_depth_cap(depth in 0usize..48, picks in prop::collection::vec(any::<u32>(), 0..8)) {
        let tail = from_pieces(&picks);
        let _ = Json::parse(&format!("{}{tail}{}", "[".repeat(depth), "]".repeat(depth)));
        let _ = Json::parse(&format!("{}{tail}", "{\"k\":".repeat(depth)));
    }

    #[test]
    fn awkward_strings_survive_write_then_read(s in AWKWARD) {
        let written = json_string(&s);
        prop_assert_eq!(Json::parse(&written), Ok(Json::Str(s.clone())), "{:?}", written);
    }

    #[test]
    fn any_scalar_string_survives_write_then_read(words in prop::collection::vec(any::<u32>(), 0..40)) {
        let s = scalars(&words);
        let written = json_string(&s);
        prop_assert_eq!(Json::parse(&written), Ok(Json::Str(s.clone())), "{:?}", written);
    }

    #[test]
    fn solution_tables_read_back(vars in 1usize..4, cells in prop::collection::vec((any::<u32>(), AWKWARD), 0..12)) {
        let table = table(vars, &cells);
        let doc = Json::parse(&table.to_json()).map_err(TestCaseError::fail)?;
        let expected: Vec<Vec<Option<String>>> = table
            .rows
            .iter()
            .map(|row| row.iter().map(|cell| cell.as_ref().map(lexical)).collect())
            .collect();
        prop_assert_eq!(binding_values(&doc), expected);
        prop_assert_eq!(strings(doc.get("head").and_then(|h| h.get("vars"))), table.vars.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn explanations_and_outcomes_read_back(
        text in AWKWARD,
        statements in prop::collection::vec(AWKWARD, 0..4),
        cells in prop::collection::vec((any::<u32>(), AWKWARD), 0..6),
        degraded in any::<bool>(),
        spent in any::<u64>(),
    ) {
        let explanation = explanation(&text, statements.clone(), table(2, &cells));
        let doc = Json::parse(&explanation.to_json()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(doc.get("answer").and_then(Json::as_str), Some(text.as_str()));
        prop_assert_eq!(strings(doc.get("statements")), statements.iter().map(String::as_str).collect::<Vec<_>>());

        let outcome = BudgetedOutcome {
            explanations: vec![explanation.clone(), explanation],
            degradation: degraded.then(|| DegradationReport {
                exhausted: Exhausted { resource: Resource::Rounds, spent, limit: spent / 2 },
                completed: vec![ExplanationType::Contextual],
                skipped: vec![ExplanationType::Counterfactual, ExplanationType::TraceBased],
            }),
        };
        let doc = Json::parse(&outcome.to_json()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(doc.get("complete").and_then(Json::as_bool), Some(!degraded));
        prop_assert_eq!(doc.get("explanations").and_then(Json::as_array).map(<[Json]>::len), Some(2));
        let degradation = doc.get("degradation").ok_or_else(|| TestCaseError::fail("no degradation member"))?;
        prop_assert_eq!(degradation == &Json::Null, !degraded);
        if degraded {
            prop_assert_eq!(strings(degradation.get("skipped")).len(), 2);
            prop_assert_eq!(
                degradation.get("exhausted").and_then(|e| e.get("resource")).and_then(Json::as_str),
                Some("rounds")
            );
        }

        for result in [QueryResult::Boolean(degraded), QueryResult::Plan(text.clone())] {
            prop_assert!(Json::parse(&result.to_json()).is_ok(), "{}", result.to_json());
        }
    }
}
