//! Robustness: the SPARQL lexer/parser must never panic on arbitrary
//! input, and near-valid query mutations must fail cleanly.

use feo_rdf::GraphStore;
use feo_sparql::parse_query;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        let _ = parse_query(&input);
    }

    #[test]
    fn parser_never_panics_on_sparql_like_input(
        input in "[?$<>{}()\"'a-zA-Z:#._;,*+|^!=&\\- \n0-9]{0,150}"
    ) {
        let _ = parse_query(&input);
    }

    #[test]
    fn mutated_valid_query(cut in 0usize..150, insert in ".{0,4}") {
        let valid = "PREFIX e: <http://e/>\n\
                     SELECT DISTINCT ?a (COUNT(?b) AS ?n) WHERE {\n\
                       ?a e:p/e:q+ ?b .\n\
                       OPTIONAL { ?b e:r ?c }\n\
                       FILTER (?c > 3 && REGEX(STR(?a), \"x\"))\n\
                     } GROUP BY ?a ORDER BY DESC(?n) LIMIT 5";
        let mut s: Vec<char> = valid.chars().collect();
        let pos = cut.min(s.len());
        for (i, c) in insert.chars().enumerate() {
            s.insert(pos + i, c);
        }
        let mutated: String = s.into_iter().collect();
        let _ = parse_query(&mutated);
    }

    /// Evaluation of random (valid) SELECT shells over a small graph must
    /// never panic.
    #[test]
    fn eval_never_panics_on_random_filters(n in 0i64..100, cmp in 0usize..5) {
        let ops = ["=", "!=", "<", ">", ">="];
        let mut g = feo_rdf::Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        let q = format!(
            "SELECT ?s WHERE {{ ?s <http://e/p> ?o . FILTER (STRLEN(STR(?s)) {} {n}) }}",
            ops[cmp]
        );
        let _ = feo_sparql::query(&g, &q, &Default::default());
    }
}
