//! N-Triples reader and writer.
//!
//! N-Triples is a line-oriented subset of Turtle, so the reader delegates
//! to the Turtle parser line by line (rejecting Turtle-only constructs),
//! which keeps one grammar implementation authoritative. The writer emits
//! canonical, fully-expanded triples — the interchange format used to dump
//! materialized (inferred) graphs.

use crate::graph::Graph;
use crate::term::Triple;
use crate::turtle::{parse_turtle_raw, TurtleError};
use crate::view::GraphStore;
use crate::{ParseOptions, RdfError};

/// Parses an N-Triples document.
///
/// With `opts.guard` set, the input-size cap is checked up front and
/// the deadline / cancellation flag once per line. A tripped budget
/// surfaces as [`RdfError::Exhausted`]; syntax errors keep their line
/// number via [`RdfError::Syntax`].
pub fn parse_ntriples(input: &str, opts: &ParseOptions) -> Result<Vec<Triple>, RdfError> {
    if let Some(guard) = opts.guard {
        guard.check_input(input.len())?;
    }
    let mut triples = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if let Some(guard) = opts.guard {
            guard.check_time()?;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        triples.push(parse_line(trimmed, lineno)?);
    }
    Ok(triples)
}

/// Parses one non-blank N-Triples line into exactly one triple.
fn parse_line(trimmed: &str, lineno: usize) -> Result<Triple, TurtleError> {
    if trimmed.starts_with('@') {
        return Err(TurtleError {
            message: "directives are not allowed in N-Triples".into(),
            line: lineno + 1,
            column: 1,
        });
    }
    let parsed = parse_turtle_raw(trimmed).map_err(|mut e| {
        e.line = lineno + 1;
        e
    })?;
    let count = parsed.len();
    let mut it = parsed.into_iter();
    match (it.next(), it.next()) {
        (Some(t), None) => Ok(t),
        _ => Err(TurtleError {
            message: format!("N-Triples line must contain exactly one triple, found {count}"),
            line: lineno + 1,
            column: 1,
        }),
    }
}

/// Parses N-Triples directly into a graph, returning the number of triples
/// newly added.
pub fn parse_ntriples_into(
    input: &str,
    graph: &mut Graph,
    opts: &ParseOptions,
) -> Result<usize, RdfError> {
    let triples = parse_ntriples(input, opts)?;
    let mut added = 0;
    for t in &triples {
        if graph.insert(t) {
            added += 1;
        }
    }
    Ok(added)
}

/// Serializes any graph view as N-Triples in deterministic (sorted)
/// order.
pub fn write_ntriples<G: crate::GraphView + ?Sized>(graph: &G) -> String {
    let mut lines: Vec<String> = graph.iter_triples().map(|t| t.to_string()).collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Guard;
    use crate::term::Term;
    use crate::view::GraphView;

    fn syntax(err: RdfError) -> TurtleError {
        match err {
            RdfError::Syntax(e) => e,
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn parse_basic_document() {
        let ts = parse_ntriples(
            "# comment\n\
             <http://e/a> <http://e/p> <http://e/b> .\n\
             \n\
             <http://e/a> <http://e/q> \"lit\"@en .\n",
            &ParseOptions::default(),
        )
        .unwrap();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn rejects_directives() {
        assert!(parse_ntriples("@prefix e: <http://e/> .", &ParseOptions::default()).is_err());
    }

    #[test]
    fn rejects_multi_triple_lines() {
        let err = parse_ntriples(
            "<http://e/a> <http://e/p> <http://e/b> , <http://e/c> .",
            &ParseOptions::default(),
        )
        .unwrap_err();
        assert!(syntax(err).message.contains("exactly one"));
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse_ntriples(
            "<http://e/a> <http://e/p> <http://e/b> .\n\
             <http://e/a> <http://e/p> \"broken .\n",
            &ParseOptions::default(),
        )
        .unwrap_err();
        assert_eq!(syntax(err).line, 2);
    }

    #[test]
    fn round_trip() {
        let mut g = Graph::new();
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        g.insert_terms(
            Term::iri("http://e/a"),
            Term::iri("http://e/q"),
            Term::simple("a \"quote\" and\nnewline"),
        );
        let nt = write_ntriples(&g);
        let mut g2 = Graph::new();
        parse_ntriples_into(&nt, &mut g2, &ParseOptions::default()).unwrap();
        assert_eq!(g.len(), g2.len());
        for t in g.iter_triples() {
            assert!(g2.contains(&t));
        }
    }

    #[test]
    fn guarded_parse_respects_input_cap() {
        use crate::governor::{Budget, Resource};
        let guard = Budget::new().with_max_input_bytes(8).start();
        let opts = ParseOptions {
            guard: Some(&guard),
        };
        let err = parse_ntriples("<http://e/a> <http://e/p> <http://e/b> .", &opts).unwrap_err();
        match err {
            RdfError::Exhausted(e) => assert_eq!(e.resource, Resource::InputSize),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn guarded_parse_passes_unlimited() {
        let guard = Guard::default();
        let opts = ParseOptions {
            guard: Some(&guard),
        };
        let ts = parse_ntriples("<http://e/a> <http://e/p> <http://e/b> .\n", &opts).unwrap();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn guarded_parse_keeps_syntax_errors_typed() {
        let guard = Guard::default();
        let opts = ParseOptions {
            guard: Some(&guard),
        };
        let err = parse_ntriples("not ntriples at all", &opts).unwrap_err();
        match err {
            RdfError::Syntax(e) => assert_eq!(e.line, 1),
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn writer_is_sorted_and_newline_terminated() {
        let mut g = Graph::new();
        g.insert_iris("http://e/z", "http://e/p", "http://e/b");
        g.insert_iris("http://e/a", "http://e/p", "http://e/b");
        let nt = write_ntriples(&g);
        let lines: Vec<_> = nt.lines().collect();
        assert!(lines[0].starts_with("<http://e/a>"));
        assert!(nt.ends_with('\n'));
    }
}
