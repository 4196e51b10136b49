//! Property tests for the SPARQL engine: algebraic laws that must hold
//! for any graph (DISTINCT idempotence, LIMIT/OFFSET slicing, UNION
//! commutativity up to multiset equality, FILTER-true identity, path
//! closure vs. repeated join), plus regex-lite differential checks
//! against a naive reference for a restricted pattern class.

use feo_rdf::{Graph, GraphStore};
use feo_sparql::regexlite::Regex;
use feo_sparql::{query, SolutionTable};
use proptest::prelude::*;

/// Random small edge graphs over a fixed node set and two predicates.
fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u8..8, prop::bool::ANY, 0u8..8), 0..30).prop_map(|edges| {
        let mut g = Graph::new();
        for (s, p, o) in edges {
            let pred = if p { "http://t/p" } else { "http://t/q" };
            g.insert_iris(&format!("http://t/n{s}"), pred, &format!("http://t/n{o}"));
        }
        g
    })
}

fn rows_sorted(t: &SolutionTable) -> Vec<String> {
    let mut rows: Vec<String> = t
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|c| c.as_ref().map(|t| t.to_string()).unwrap_or_default())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distinct_is_idempotent_and_dedupes(g in arb_graph()) {
        let all = query(&g, "SELECT ?s ?o WHERE { ?s <http://t/p> ?o }", &Default::default())
            .unwrap().expect_solutions();
        let distinct = query(&g, "SELECT DISTINCT ?s ?o WHERE { ?s <http://t/p> ?o }", &Default::default())
            .unwrap().expect_solutions();
        // Distinct result is a set.
        let d = rows_sorted(&distinct);
        let mut dd = d.clone();
        dd.dedup();
        prop_assert_eq!(&d, &dd);
        // Same underlying set as the raw result.
        let mut a = rows_sorted(&all);
        a.dedup();
        prop_assert_eq!(a, d);
    }

    #[test]
    fn limit_offset_slice(g in arb_graph(), limit in 0usize..10, offset in 0usize..10) {
        let base = query(&g, "SELECT ?s ?o WHERE { ?s <http://t/p> ?o } ORDER BY ?s ?o", &Default::default())
            .unwrap().expect_solutions();
        let sliced = query(&g, &format!(
            "SELECT ?s ?o WHERE {{ ?s <http://t/p> ?o }} ORDER BY ?s ?o LIMIT {limit} OFFSET {offset}"
        ), &Default::default()).unwrap().expect_solutions();
        let expected: Vec<_> = base.rows.iter().skip(offset).take(limit).cloned().collect();
        prop_assert_eq!(sliced.rows, expected);
    }

    #[test]
    fn union_is_commutative_as_multiset(g in arb_graph()) {
        let ab = query(&g,
            "SELECT ?s ?o WHERE { { ?s <http://t/p> ?o } UNION { ?s <http://t/q> ?o } }",
            &Default::default())
            .unwrap().expect_solutions();
        let ba = query(&g,
            "SELECT ?s ?o WHERE { { ?s <http://t/q> ?o } UNION { ?s <http://t/p> ?o } }",
            &Default::default())
            .unwrap().expect_solutions();
        prop_assert_eq!(rows_sorted(&ab), rows_sorted(&ba));
    }

    #[test]
    fn filter_true_is_identity(g in arb_graph()) {
        let plain = query(&g, "SELECT ?s ?o WHERE { ?s <http://t/p> ?o }", &Default::default())
            .unwrap().expect_solutions();
        let filtered = query(&g, "SELECT ?s ?o WHERE { ?s <http://t/p> ?o . FILTER (1 = 1) }", &Default::default())
            .unwrap().expect_solutions();
        prop_assert_eq!(rows_sorted(&plain), rows_sorted(&filtered));
        let none = query(&g, "SELECT ?s ?o WHERE { ?s <http://t/p> ?o . FILTER (1 = 2) }", &Default::default())
            .unwrap().expect_solutions();
        prop_assert!(none.is_empty());
    }

    #[test]
    fn path_plus_equals_path_star_minus_zero_length(g in arb_graph()) {
        // p+ from a fixed start = p* minus the zero-length pair when the
        // start has no self-loop derivation.
        let plus = query(&g, "SELECT ?x WHERE { <http://t/n0> (<http://t/p>+) ?x }", &Default::default())
            .unwrap().expect_solutions();
        let star = query(&g, "SELECT ?x WHERE { <http://t/n0> (<http://t/p>*) ?x }", &Default::default())
            .unwrap().expect_solutions();
        let plus_set: std::collections::BTreeSet<_> = rows_sorted(&plus).into_iter().collect();
        let star_set: std::collections::BTreeSet<_> = rows_sorted(&star).into_iter().collect();
        // star ⊇ plus, and star \ plus ⊆ {n0}.
        prop_assert!(plus_set.is_subset(&star_set));
        for extra in star_set.difference(&plus_set) {
            prop_assert!(extra.contains("n0"), "unexpected star-only node {extra}");
        }
    }

    #[test]
    fn path_sequence_equals_join(g in arb_graph()) {
        let path = query(&g,
            "SELECT ?s ?o WHERE { ?s (<http://t/p>/<http://t/q>) ?o }",
            &Default::default())
            .unwrap().expect_solutions();
        let join = query(&g,
            "SELECT DISTINCT ?s ?o WHERE { ?s <http://t/p> ?m . ?m <http://t/q> ?o }",
            &Default::default())
            .unwrap().expect_solutions();
        prop_assert_eq!(rows_sorted(&path), rows_sorted(&join));
    }

    #[test]
    fn ask_agrees_with_select(g in arb_graph()) {
        let any = query(&g, "SELECT ?s WHERE { ?s <http://t/p> ?o } LIMIT 1", &Default::default())
            .unwrap().expect_solutions();
        let ask = query(&g, "ASK { ?s <http://t/p> ?o }", &Default::default())
            .unwrap().expect_boolean();
        prop_assert_eq!(ask, !any.is_empty());
    }

    #[test]
    fn count_matches_row_count(g in arb_graph()) {
        let rows = query(&g, "SELECT ?s ?o WHERE { ?s <http://t/p> ?o }", &Default::default())
            .unwrap().expect_solutions();
        let counted = query(&g, "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://t/p> ?o }", &Default::default())
            .unwrap().expect_solutions();
        let n: i64 = counted.get(0, "n")
            .and_then(|t| t.as_literal())
            .and_then(|l| l.as_integer())
            .unwrap_or(-1);
        prop_assert_eq!(n, rows.len() as i64);
    }
}

// ---- regex-lite differential testing -----------------------------------

/// Reference matcher for patterns made of literals, '.', and a single
/// optional '*' on a literal — simple enough to verify by brute force.
fn arb_simple_pattern() -> impl Strategy<Value = String> {
    "[abc.]{1,5}".prop_map(|s| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn regex_literal_dot_matches_contains(pat in arb_simple_pattern(), text in "[abcd]{0,10}") {
        let re = Regex::new(&pat, "").unwrap();
        // Reference: substring search where '.' matches any char.
        let p: Vec<char> = pat.chars().collect();
        let t: Vec<char> = text.chars().collect();
        let mut reference = false;
        for start in 0..=t.len().saturating_sub(p.len()) {
            if t.len() >= p.len()
                && p.iter().enumerate().all(|(i, pc)| *pc == '.' || t[start + i] == *pc)
            {
                reference = true;
                break;
            }
        }
        if p.len() > t.len() {
            reference = false;
        }
        prop_assert_eq!(re.is_match(&text), reference, "pattern {} on {}", pat, text);
    }

    #[test]
    fn regex_star_never_panics(pat in "[ab]\\*?[ab]?", text in "[ab]{0,8}") {
        if let Ok(re) = Regex::new(&pat, "") {
            let _ = re.is_match(&text);
        }
    }
}
