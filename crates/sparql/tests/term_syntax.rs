//! The Turtle reader and the SPARQL reader scan RDF terms with the same
//! code: every spelling of a term, read as the object of one Turtle
//! triple and as the object of one SPARQL triple pattern, is accepted by
//! both or rejected by both, and read as the same `Term`.

use feo_rdf::turtle::parse_turtle;
use feo_rdf::vocab::xsd;
use feo_rdf::{Iri, Literal, Term};
use feo_sparql::ast::{GroupElement, Path, TermPattern};
use feo_sparql::parse_query;
use proptest::prelude::*;

const TURTLE_PROLOGUE: &str =
    "@prefix e: <http://e/> . @prefix : <http://d/> . @prefix a.b: <http://ab/> .\n";
const SPARQL_PROLOGUE: &str =
    "PREFIX e: <http://e/> PREFIX : <http://d/> PREFIX a.b: <http://ab/>\n";

/// The object of `<http://s> <http://p> {spelling}` read as Turtle.
fn via_turtle(spelling: &str) -> Option<Term> {
    let doc = format!("{TURTLE_PROLOGUE}<http://s> <http://p> {spelling} ; .");
    let triples = parse_turtle(&doc, &Default::default()).ok()?;
    assert_eq!(triples.len(), 1, "{doc}");
    Some(triples[0].object.clone())
}

/// The object of `<http://s> <http://p> {spelling}` read as a SPARQL
/// triple pattern.
fn via_sparql(spelling: &str) -> Option<Term> {
    let text = format!("{SPARQL_PROLOGUE}SELECT * WHERE {{ <http://s> <http://p> {spelling} ; }}");
    let q = parse_query(&text).ok()?;
    let [GroupElement::Triples(ts)] = q.where_pattern.elements.as_slice() else {
        panic!("one triple block expected from {text}: {q:?}");
    };
    assert_eq!(ts.len(), 1, "{text}");
    // A `+` that does not sign a number is the one-or-more path
    // modifier, which Turtle has no reading for: the spelling is then
    // not one term.
    if ts[0].path != Path::Iri("http://p".into()) {
        return None;
    }
    Some(match &ts[0].object {
        TermPattern::Iri(iri) => Term::iri(iri.clone()),
        // The parser keeps a query's own labels apart from the `qb`
        // labels it mints by prefixing them with `u`.
        TermPattern::Blank(label) => Term::bnode(label.strip_prefix('u').unwrap_or(label)),
        TermPattern::Literal(l) => Term::Literal(match (&l.language, &l.datatype) {
            (Some(lang), _) => Literal::lang(l.lexical.clone(), lang.clone()),
            (None, Some(dt)) => Literal::typed(l.lexical.clone(), Iri::new(dt.clone())),
            (None, None) => Literal::simple(l.lexical.clone()),
        }),
        TermPattern::Var(v) => panic!("?{v} is not a term"),
    })
}

/// Both readers' reading of `spelling`, which must be the same.
fn read(spelling: &str) -> Option<Term> {
    let turtle = via_turtle(spelling);
    assert_eq!(
        turtle,
        via_sparql(spelling),
        "readers disagree on {spelling:?}"
    );
    turtle
}

fn typed(lexical: &str, datatype: &str) -> Option<Term> {
    Some(Term::Literal(Literal::typed(lexical, Iri::new(datatype))))
}

#[test]
fn spellings_that_drifted_read_alike() {
    assert_eq!(read("e:a%20b"), Some(Term::iri("http://e/a%20b")));
    assert_eq!(read("_:a.b"), Some(Term::bnode("a.b")));
    assert_eq!(read("a.b:x"), Some(Term::iri("http://ab/x")));
    assert_eq!(read("1.e5"), typed("1.e5", xsd::DOUBLE));
    assert_eq!(read(".5"), typed(".5", xsd::DECIMAL));
    assert_eq!(read("e:a:b"), Some(Term::iri("http://e/a:b")));
    assert_eq!(read("1e"), None);
}

#[test]
fn every_terminal_reads_alike() {
    let cases = [
        (r"<http://e/A>", Some(Term::iri("http://e/A"))),
        ("<http://e/a b>", None),
        ("<http://e/a{b>", None),
        (r"e:a\/b.c-d", Some(Term::iri("http://e/a/b.c-d"))),
        ("e:1st", Some(Term::iri("http://e/1st"))),
        (":x", Some(Term::iri("http://d/x"))),
        ("nope:x", None),
        (r#""""x"y""""#, Some(Term::simple("x\"y"))),
        (
            r"'a\tb'@en-US",
            Some(Term::Literal(Literal::lang("a\tb", "en-us"))),
        ),
        (r#""\U0001F600"^^e:dt"#, typed("😀", "http://e/dt")),
        ("\"a\nb\"", None),
        ("-1.5E-3", typed("-1.5E-3", xsd::DOUBLE)),
        ("+7", typed("+7", xsd::INTEGER)),
        ("-.5", typed("-.5", xsd::DECIMAL)),
        ("true", Some(Term::boolean(true))),
        ("_:", None),
    ];
    for (spelling, expected) in cases {
        assert_eq!(read(spelling), expected, "{spelling:?}");
    }
}

/// `pieces` picked from `pool` by index and joined.
fn join(pool: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| pool[i % pool.len()]).collect()
}

/// A term spelling of the given kind, well formed or nearly so.
fn spelling(kind: usize, form: usize, picks: &[usize]) -> String {
    match kind {
        0 => {
            let body = [
                "http://e/",
                "a",
                "Z9",
                "é",
                "#f",
                ":",
                "%20",
                ".",
                "-",
                r"\u0041",
                r"\U0001F600",
                r"\u00",
                r"\n",
                " ",
                "{",
                "|",
                "^",
                "`",
                "\"",
                "<",
            ];
            let close = if form.is_multiple_of(5) { "" } else { ">" };
            format!("<{}{close}", join(&body, picks))
        }
        1 => {
            let prefix = ["e", "", "a.b", "zz"][form % 4];
            let local = [
                "a", "Z", "0", "9", "_", "-", ".", ":", "é", r"\-", r"\.", r"\/", r"\~", r"\,",
                "%20", "%aF", "%g1", r"\q",
            ];
            format!("{prefix}:{}", join(&local, picks))
        }
        2 => {
            let quote = ["\"", "'", "\"\"\"", "'''"][form % 4];
            let content = [
                "a",
                " ",
                "é",
                r"\t",
                r"\n",
                r"\r",
                r"\b",
                r"\f",
                "\\\"",
                r"\'",
                r"\\",
                r"\u00e9",
                r"\U0001F600",
                "\"",
                "'",
                "\n",
                r"\x",
                r"\u12",
            ];
            let suffix = [
                "",
                "@en",
                "@en-US",
                "@",
                "@1x",
                "^^e:dt",
                "^^<http://dt>",
                "^^",
                "^^<http://www.w3.org/2001/XMLSchema#string>",
            ][form % 9];
            format!("{quote}{}{quote}{suffix}", join(&content, picks))
        }
        3 => {
            let sign = ["", "+", "-"][form % 3];
            let digits = ["0", "1", "9", ".", "e", "E", "+", "-", "12"];
            format!("{sign}{}", join(&digits, picks))
        }
        _ => {
            let label = ["a", "0", "_", "-", ".", "é", "b"];
            format!("_:{}", join(&label, picks))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn generated_spellings_read_alike(
        kind in 0usize..5,
        form in 0usize..36,
        picks in prop::collection::vec(0usize..64, 0..6),
    ) {
        read(&spelling(kind, form, &picks));
    }
}
