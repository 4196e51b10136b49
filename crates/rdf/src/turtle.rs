//! Turtle (Terse RDF Triple Language) parser and serializer.
//!
//! The parser is a hand-written recursive-descent parser over the
//! [`Cursor`] it shares with the SPARQL lexer, covering the Turtle 1.1
//! constructs the workspace's ontologies use: prefix/base directives
//! (both `@` and SPARQL-style), predicate-object and object lists,
//! blank-node property lists, collections, `a`, `true` / `false`, prefix
//! expansion and relative IRI resolution. The terminals (IRIs, strings,
//! language tags, numbers, prefixed names, blank node labels, comments)
//! are scanned by [`crate::syntax`].

use std::collections::HashMap;
use std::fmt;

use crate::governor::{Exhausted, Guard};
use crate::graph::Graph;
use crate::syntax::{reads_back_as_local, Cursor, SyntaxError};
use crate::term::{BlankNode, Iri, Literal, Term, Triple};
use crate::view::GraphStore;
use crate::vocab::rdf;
use crate::{ParseOptions, RdfError};

/// A Turtle parse error with 1-based line/column location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    pub message: String,
    pub line: usize,
    pub column: usize,
}

impl From<SyntaxError> for TurtleError {
    fn from(e: SyntaxError) -> Self {
        TurtleError {
            message: e.message,
            line: e.line,
            column: e.column,
        }
    }
}

impl fmt::Display for TurtleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "turtle parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for TurtleError {}

/// Parses a Turtle document into a list of triples.
///
/// With `opts.guard` set, the input-size cap is checked up front and
/// the deadline / cancellation flag at every statement and object
/// boundary; a tripped budget surfaces as [`RdfError::Exhausted`].
/// Syntax errors keep their line/column via [`RdfError::Syntax`].
pub fn parse_turtle(input: &str, opts: &ParseOptions) -> Result<Vec<Triple>, RdfError> {
    let Some(guard) = opts.guard else {
        return Ok(parse_turtle_raw(input)?);
    };
    guard.check_input(input.len())?;
    let mut parser = Parser::new(input);
    parser.guard = Some(guard);
    match parser.parse_document() {
        Ok(()) => Ok(parser.triples),
        Err(e) => match parser.tripped.take() {
            Some(exhausted) => Err(RdfError::Exhausted(exhausted)),
            None => Err(RdfError::Syntax(e.into())),
        },
    }
}

/// Unguarded parse with the raw syntax-error type; also the per-line
/// workhorse of the N-Triples reader.
pub(crate) fn parse_turtle_raw(input: &str) -> Result<Vec<Triple>, TurtleError> {
    let mut parser = Parser::new(input);
    parser.parse_document()?;
    Ok(parser.triples)
}

/// Parses a Turtle document directly into a [`Graph`], returning the
/// number of triples newly added.
pub fn parse_turtle_into(
    input: &str,
    graph: &mut Graph,
    opts: &ParseOptions,
) -> Result<usize, RdfError> {
    let triples = parse_turtle(input, opts)?;
    let mut added = 0;
    for t in &triples {
        if graph.insert(t) {
            added += 1;
        }
    }
    Ok(added)
}

struct Parser<'a> {
    cur: Cursor,
    base: Option<String>,
    prefixes: HashMap<String, String>,
    triples: Vec<Triple>,
    bnode_counter: u64,
    guard: Option<&'a Guard>,
    tripped: Option<Exhausted>,
}

impl<'a> Parser<'a> {
    fn new(input: &str) -> Self {
        Parser {
            cur: Cursor::new(input),
            base: None,
            prefixes: HashMap::new(),
            triples: Vec::new(),
            bnode_counter: 0,
            guard: None,
            tripped: None,
        }
    }

    /// Hot-loop budget check. On a trip the [`Exhausted`] detail is
    /// stashed in `self.tripped` (the guarded entry point surfaces it)
    /// and a plain [`SyntaxError`] unwinds the recursive descent.
    fn check_guard(&mut self) -> Result<(), SyntaxError> {
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped = Some(exhausted);
                return self.cur.error("execution budget exhausted");
            }
        }
        Ok(())
    }

    fn expect(&mut self, c: char) -> Result<(), SyntaxError> {
        match self.cur.peek() {
            Some(x) if x == c => {
                self.cur.bump();
                Ok(())
            }
            Some(x) => self.cur.error(format!("expected '{c}', found '{x}'")),
            None => self
                .cur
                .error(format!("expected '{c}', found end of input")),
        }
    }

    /// Case-insensitive keyword match followed by a non-name char.
    fn try_keyword(&mut self, kw: &str) -> bool {
        let mut off = 0;
        for kc in kw.chars() {
            match self.cur.peek_at(off) {
                Some(c) if c.eq_ignore_ascii_case(&kc) => off += 1,
                _ => return false,
            }
        }
        match self.cur.peek_at(off) {
            Some(c) if c.is_alphanumeric() || c == '_' => false,
            _ => {
                for _ in 0..off {
                    self.cur.bump();
                }
                true
            }
        }
    }

    fn fresh_bnode(&mut self) -> Term {
        let t = Term::bnode(format!("tb{}", self.bnode_counter));
        self.bnode_counter += 1;
        t
    }

    fn parse_document(&mut self) -> Result<(), SyntaxError> {
        loop {
            self.check_guard()?;
            self.cur.skip_ws();
            if self.cur.peek().is_none() {
                return Ok(());
            }
            if self.cur.peek() == Some('@') {
                self.parse_at_directive()?;
                continue;
            }
            if self.try_keyword("PREFIX") {
                self.parse_prefix_body(false)?;
                continue;
            }
            if self.try_keyword("BASE") {
                self.parse_base_body(false)?;
                continue;
            }
            self.parse_triples_block()?;
            self.cur.skip_ws();
            self.expect('.')?;
        }
    }

    fn parse_at_directive(&mut self) -> Result<(), SyntaxError> {
        self.expect('@')?;
        if self.try_keyword("prefix") {
            self.parse_prefix_body(true)
        } else if self.try_keyword("base") {
            self.parse_base_body(true)
        } else {
            self.cur
                .error("unknown @-directive (expected @prefix or @base)")
        }
    }

    fn parse_prefix_body(&mut self, dotted: bool) -> Result<(), SyntaxError> {
        self.cur.skip_ws();
        let name = match self.cur.prefixed_name()? {
            Some((name, local)) if local.is_empty() => name,
            _ => return self.cur.error("expected a prefix name ending in ':'"),
        };
        self.cur.skip_ws();
        let iri = self.iri_ref()?;
        self.prefixes.insert(name, iri);
        if dotted {
            self.cur.skip_ws();
            self.expect('.')?;
        }
        Ok(())
    }

    fn parse_base_body(&mut self, dotted: bool) -> Result<(), SyntaxError> {
        self.cur.skip_ws();
        let iri = self.iri_ref()?;
        self.base = Some(iri);
        if dotted {
            self.cur.skip_ws();
            self.expect('.')?;
        }
        Ok(())
    }

    fn parse_triples_block(&mut self) -> Result<(), SyntaxError> {
        self.cur.skip_ws();
        // blankNodePropertyList as subject: may stand alone or take a
        // predicate-object list.
        if self.cur.peek() == Some('[') {
            let subject = self.parse_bnode_property_list()?;
            self.cur.skip_ws();
            if self.cur.peek() != Some('.') {
                self.parse_predicate_object_list(&subject)?;
            }
            return Ok(());
        }
        let subject = self.parse_subject()?;
        self.parse_predicate_object_list(&subject)
    }

    fn parse_subject(&mut self) -> Result<Term, SyntaxError> {
        self.cur.skip_ws();
        match self.cur.peek() {
            Some('<') => Ok(Term::iri(self.iri()?)),
            Some('_') => self.blank_node(),
            Some('(') => self.parse_collection(),
            Some(_) => Ok(Term::iri(self.prefixed_name()?)),
            None => self.cur.error("expected subject, found end of input"),
        }
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), SyntaxError> {
        loop {
            self.cur.skip_ws();
            let predicate = self.parse_predicate()?;
            loop {
                self.check_guard()?;
                self.cur.skip_ws();
                let object = self.parse_object()?;
                self.triples.push(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.cur.skip_ws();
                if !self.cur.eat(',') {
                    break;
                }
            }
            self.cur.skip_ws();
            if !self.cur.eat(';') {
                return Ok(());
            }
            self.cur.skip_ws();
            // Trailing ';' before '.' or ']' is legal Turtle.
            if matches!(self.cur.peek(), Some('.' | ']') | None) {
                return Ok(());
            }
        }
    }

    fn parse_predicate(&mut self) -> Result<Term, SyntaxError> {
        self.cur.skip_ws();
        if self.cur.peek() == Some('a')
            && matches!(self.cur.peek_at(1), Some(c) if c.is_whitespace() || c == '<' || c == '[' || c == '_')
        {
            self.cur.bump();
            return Ok(Term::iri(rdf::TYPE));
        }
        match self.cur.peek() {
            Some('<') => Ok(Term::iri(self.iri()?)),
            Some(_) => Ok(Term::iri(self.prefixed_name()?)),
            None => self.cur.error("expected predicate, found end of input"),
        }
    }

    fn parse_object(&mut self) -> Result<Term, SyntaxError> {
        self.cur.skip_ws();
        match self.cur.peek() {
            Some('<') => Ok(Term::iri(self.iri()?)),
            Some('_') => self.blank_node(),
            Some('[') => self.parse_bnode_property_list(),
            Some('(') => self.parse_collection(),
            Some('"' | '\'') => self.parse_rdf_literal(),
            Some(sign @ ('+' | '-')) => {
                self.cur.bump();
                match self.cur.number() {
                    Some((digits, dt)) => Ok(Term::Literal(Literal::typed(
                        format!("{sign}{digits}"),
                        Iri::new(dt),
                    ))),
                    None => self.cur.error("invalid numeric literal"),
                }
            }
            Some(_) => {
                if let Some((lexical, dt)) = self.cur.number() {
                    return Ok(Term::Literal(Literal::typed(lexical, Iri::new(dt))));
                }
                if self.try_keyword("true") {
                    return Ok(Term::boolean(true));
                }
                if self.try_keyword("false") {
                    return Ok(Term::boolean(false));
                }
                Ok(Term::iri(self.prefixed_name()?))
            }
            None => self.cur.error("expected object, found end of input"),
        }
    }

    fn blank_node(&mut self) -> Result<Term, SyntaxError> {
        Ok(Term::BlankNode(BlankNode::new(self.cur.blank_label()?)))
    }

    fn parse_bnode_property_list(&mut self) -> Result<Term, SyntaxError> {
        self.expect('[')?;
        self.cur.skip_ws();
        let node = self.fresh_bnode();
        if self.cur.eat(']') {
            return Ok(node);
        }
        self.parse_predicate_object_list(&node)?;
        self.cur.skip_ws();
        self.expect(']')?;
        Ok(node)
    }

    fn parse_collection(&mut self) -> Result<Term, SyntaxError> {
        self.expect('(')?;
        let mut items = Vec::new();
        loop {
            self.check_guard()?;
            self.cur.skip_ws();
            if self.cur.eat(')') {
                break;
            }
            if self.cur.peek().is_none() {
                return self.cur.error("unterminated collection");
            }
            items.push(self.parse_object()?);
        }
        if items.is_empty() {
            return Ok(Term::iri(rdf::NIL));
        }
        let mut head = Term::iri(rdf::NIL);
        for item in items.into_iter().rev() {
            let node = self.fresh_bnode();
            self.triples.push(Triple {
                subject: node.clone(),
                predicate: Term::iri(rdf::FIRST),
                object: item,
            });
            self.triples.push(Triple {
                subject: node.clone(),
                predicate: Term::iri(rdf::REST),
                object: head,
            });
            head = node;
        }
        Ok(head)
    }

    fn parse_rdf_literal(&mut self) -> Result<Term, SyntaxError> {
        let lexical = self.cur.string()?;
        match self.cur.peek() {
            Some('@') => Ok(Term::Literal(Literal::lang(lexical, self.cur.lang_tag()?))),
            Some('^') => {
                self.cur.bump();
                self.expect('^')?;
                self.cur.skip_ws();
                let dt = match self.cur.peek() {
                    Some('<') => self.iri()?,
                    _ => self.prefixed_name()?,
                };
                Ok(Term::Literal(Literal::typed(lexical, Iri::new(dt))))
            }
            _ => Ok(Term::simple(lexical)),
        }
    }

    /// `<...>` with escapes; the raw (possibly relative) IRI text.
    fn iri_ref(&mut self) -> Result<String, SyntaxError> {
        match self.cur.iri_ref()? {
            Some(iri) => Ok(iri),
            None => self.cur.error("expected an IRI reference"),
        }
    }

    /// `<...>` resolved against the document base.
    fn iri(&mut self) -> Result<String, SyntaxError> {
        let raw = self.iri_ref()?;
        Ok(resolve_iri(self.base.as_deref(), &raw))
    }

    /// `prefix:local` expanded against the declared prefixes.
    fn prefixed_name(&mut self) -> Result<String, SyntaxError> {
        let Some((prefix, local)) = self.cur.prefixed_name()? else {
            let found = self.cur.peek().map_or(String::from("EOF"), String::from);
            return self
                .cur
                .error(format!("expected prefixed name, found '{found}'"));
        };
        match self.prefixes.get(&prefix) {
            Some(ns) => Ok(format!("{ns}{local}")),
            None => self.cur.error(format!("undeclared prefix '{prefix}:'")),
        }
    }
}

/// Resolves `reference` against `base` per a pragmatic subset of RFC 3986:
/// absolute references pass through, fragment/query references attach to
/// the base, path references merge with the base path.
pub fn resolve_iri(base: Option<&str>, reference: &str) -> String {
    if let Some(colon) = reference.find(':') {
        let scheme = &reference[..colon];
        // Looks like an absolute IRI with a scheme.
        if !scheme.is_empty()
            && scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.')
            && colon < reference.find('/').unwrap_or(usize::MAX)
        {
            return reference.to_string();
        }
    }
    let Some(base) = base else {
        return reference.to_string();
    };
    if reference.is_empty() {
        return base.to_string();
    }
    if let Some(frag) = reference.strip_prefix('#') {
        let stem = base.split('#').next().unwrap_or(base);
        return format!("{stem}#{frag}");
    }
    if reference.starts_with("//") {
        if let Some(scheme_end) = base.find(':') {
            return format!("{}:{}", &base[..scheme_end], reference);
        }
        return reference.to_string();
    }
    if let Some(rest) = reference.strip_prefix('/') {
        // Root-relative: scheme + authority of base.
        if let Some(auth_start) = base.find("//") {
            let after = &base[auth_start + 2..];
            let auth_end = after.find('/').map_or(base.len(), |i| auth_start + 2 + i);
            return format!("{}/{}", &base[..auth_end], rest);
        }
        return format!("{base}/{rest}");
    }
    // Path-relative: replace everything after the last '/' of the base.
    let stem = match base.rfind('/') {
        Some(i) => &base[..=i],
        None => base,
    };
    format!("{stem}{reference}")
}

/// Serializes a graph view as Turtle, using the provided prefix map
/// (`prefix name → namespace IRI`) to compact IRIs. Accepts any
/// [`GraphView`](crate::GraphView) — plain graphs, overlays, and stacked ledger views
/// export alike. Output is deterministic: subjects and predicates
/// appear in sorted term order.
pub fn write_turtle<G: crate::GraphView + ?Sized>(graph: &G, prefixes: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, ns) in prefixes {
        out.push_str(&format!("@prefix {name}: <{ns}> .\n"));
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }

    let compact = |term: &Term| -> String {
        if let Term::Iri(iri) = term {
            for (name, ns) in prefixes {
                match iri.as_str().strip_prefix(ns) {
                    Some(local) if reads_back_as_local(local) => return format!("{name}:{local}"),
                    _ => {}
                }
            }
        }
        term.to_string()
    };

    // Group triples by subject to emit predicate-object lists joined by ';'.
    let mut triples: Vec<Triple> = graph.iter_triples().collect();
    triples.sort();
    let mut i = 0;
    while i < triples.len() {
        let subject = triples[i].subject.clone();
        let mut parts: Vec<String> = Vec::new();
        while i < triples.len() && triples[i].subject == subject {
            let t = &triples[i];
            let p = if t.predicate == Term::iri(rdf::TYPE) {
                "a".to_string()
            } else {
                compact(&t.predicate)
            };
            parts.push(format!("{p} {}", compact(&t.object)));
            i += 1;
        }
        out.push_str(&format!(
            "{} {} .\n",
            compact(&subject),
            parts.join(" ;\n    ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::GraphView;
    use crate::vocab::xsd;

    fn parse_ok(src: &str) -> Vec<Triple> {
        parse_turtle(src, &ParseOptions::default()).expect("parse should succeed")
    }

    fn parse_err(src: &str) -> TurtleError {
        parse_turtle_raw(src).expect_err("parse should fail")
    }

    #[test]
    fn basic_triple() {
        let ts = parse_ok("<http://e/a> <http://e/p> <http://e/b> .");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].subject, Term::iri("http://e/a"));
    }

    #[test]
    fn prefixes_and_a_keyword() {
        let ts = parse_ok(
            "@prefix ex: <http://e/> .\n\
             PREFIX feo: <http://e/feo#>\n\
             ex:apple a feo:Food .",
        );
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].predicate, Term::iri(rdf::TYPE));
        assert_eq!(ts[0].object, Term::iri("http://e/feo#Food"));
    }

    #[test]
    fn predicate_object_lists() {
        let ts = parse_ok(
            "@prefix e: <http://e/> .\n\
             e:a e:p e:b , e:c ; e:q e:d .",
        );
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().all(|t| t.subject == Term::iri("http://e/a")));
    }

    #[test]
    fn trailing_semicolon_is_legal() {
        let ts = parse_ok("@prefix e: <http://e/> . e:a e:p e:b ; .");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn literals_all_forms() {
        let ts = parse_ok(
            r#"@prefix e: <http://e/> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               e:a e:p "plain", "tagged"@en-US, "42"^^xsd:integer, 7, -3.5, 1.2e3, true, false ."#,
        );
        assert_eq!(ts.len(), 8);
        let objects: Vec<_> = ts.iter().map(|t| t.object.clone()).collect();
        assert!(objects.contains(&Term::simple("plain")));
        assert!(objects.contains(&Term::Literal(Literal::lang("tagged", "en-us"))));
        assert!(objects.contains(&Term::Literal(Literal::typed("42", Iri::new(xsd::INTEGER)))));
        assert!(objects.contains(&Term::Literal(Literal::typed("7", Iri::new(xsd::INTEGER)))));
        assert!(objects.contains(&Term::Literal(Literal::typed(
            "-3.5",
            Iri::new(xsd::DECIMAL)
        ))));
        assert!(objects.contains(&Term::Literal(Literal::typed(
            "1.2e3",
            Iri::new(xsd::DOUBLE)
        ))));
        assert!(objects.contains(&Term::boolean(true)));
        assert!(objects.contains(&Term::boolean(false)));
    }

    #[test]
    fn long_strings_and_escapes() {
        let ts = parse_ok(
            "@prefix e: <http://e/> .\n\
             e:a e:p \"\"\"line1\nline2 \"quoted\"\"\"\" .",
        );
        assert_eq!(ts[0].object, Term::simple("line1\nline2 \"quoted\""));
        let ts = parse_ok(r#"@prefix e: <http://e/> . e:a e:p "tab\there!" ."#);
        assert_eq!(ts[0].object, Term::simple("tab\there!"));
    }

    #[test]
    fn blank_nodes_and_property_lists() {
        let ts = parse_ok(
            "@prefix e: <http://e/> .\n\
             _:x e:p [ e:q e:b ; e:r e:c ] .",
        );
        assert_eq!(ts.len(), 3);
        assert!(ts.iter().any(|t| t.subject == Term::bnode("x")));
    }

    #[test]
    fn bnode_property_list_as_subject() {
        let ts = parse_ok("@prefix e: <http://e/> . [ e:p e:b ] e:q e:c .");
        assert_eq!(ts.len(), 2);
        let ts = parse_ok("@prefix e: <http://e/> . [ e:p e:b ] .");
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn collections_expand_to_lists() {
        let ts = parse_ok("@prefix e: <http://e/> . e:a e:p (e:x e:y) .");
        // 1 link triple + 2*(first,rest)
        assert_eq!(ts.len(), 5);
        assert!(ts.iter().any(|t| t.predicate == Term::iri(rdf::FIRST)));
        assert!(ts
            .iter()
            .any(|t| t.predicate == Term::iri(rdf::REST) && t.object == Term::iri(rdf::NIL)));
        let ts = parse_ok("@prefix e: <http://e/> . e:a e:p () .");
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].object, Term::iri(rdf::NIL));
    }

    #[test]
    fn comments_are_skipped() {
        let ts = parse_ok(
            "# header comment\n\
             @prefix e: <http://e/> . # trailing\n\
             e:a e:p e:b . # done",
        );
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn base_resolution() {
        let ts = parse_ok(
            "@base <http://e/dir/doc> .\n\
             <#frag> <rel> </root> .",
        );
        assert_eq!(ts[0].subject, Term::iri("http://e/dir/doc#frag"));
        assert_eq!(ts[0].predicate, Term::iri("http://e/dir/rel"));
        assert_eq!(ts[0].object, Term::iri("http://e/root"));
    }

    #[test]
    fn undeclared_prefix_errors() {
        let err = parse_err("x:a x:p x:b .");
        assert!(err.message.contains("undeclared prefix"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(parse_turtle_raw(r#"@prefix e: <http://e/> . e:a e:p "oops ."#).is_err());
    }

    #[test]
    fn error_location_is_tracked() {
        let err = parse_err("@prefix e: <http://e/> .\ne:a e:p % .");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn local_names_with_dots_and_escapes() {
        let ts = parse_ok(r"@prefix e: <http://e/> . e:a.b e:p e:c\/d .");
        assert_eq!(ts[0].subject, Term::iri("http://e/a.b"));
        assert_eq!(ts[0].object, Term::iri("http://e/c/d"));
    }

    #[test]
    fn guarded_parse_trips_on_input_cap() {
        use crate::governor::{Budget, Resource};
        let guard = Budget::new().with_max_input_bytes(4).start();
        let opts = ParseOptions {
            guard: Some(&guard),
        };
        let err = parse_turtle("<http://e/a> <http://e/p> <http://e/b> .", &opts).unwrap_err();
        match err {
            RdfError::Exhausted(e) => {
                assert_eq!(e.resource, Resource::InputSize);
                assert_eq!(e.limit, 4);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn guarded_parse_trips_on_cancellation() {
        use crate::governor::{Budget, CancelFlag, Resource};
        let flag = CancelFlag::new();
        flag.cancel();
        let guard = Budget::new().with_cancel(flag).start();
        // Enough statements that the amortized check fires.
        let doc = "<http://e/a> <http://e/p> <http://e/b> .\n".repeat(600);
        let err = parse_turtle(
            &doc,
            &ParseOptions {
                guard: Some(&guard),
            },
        )
        .unwrap_err();
        match err {
            RdfError::Exhausted(e) => assert_eq!(e.resource, Resource::Cancelled),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn guarded_parse_is_transparent_when_unlimited() {
        let guard = Guard::default();
        let ts = parse_turtle(
            "@prefix e: <http://e/> . e:a e:p e:b , e:c ; e:q (e:d e:f) .",
            &ParseOptions {
                guard: Some(&guard),
            },
        )
        .unwrap();
        assert_eq!(
            ts,
            parse_ok("@prefix e: <http://e/> . e:a e:p e:b , e:c ; e:q (e:d e:f) .")
        );
    }

    #[test]
    fn guarded_parse_keeps_syntax_location() {
        let guard = Guard::default();
        let opts = ParseOptions {
            guard: Some(&guard),
        };
        let err = parse_turtle("@prefix e: <http://e/> .\ne:a e:p % .", &opts).unwrap_err();
        match err {
            RdfError::Syntax(e) => assert_eq!(e.line, 2),
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn writer_round_trips() {
        let mut g = Graph::new();
        parse_turtle_into(
            "@prefix e: <http://e/> .\n\
             e:a a e:Food ; e:p \"v\"@en ; e:q 42 .\n\
             e:a.b e:p-q e:1st , <http://e/end.> , e:x:y , e:a%20b .",
            &mut g,
            &ParseOptions::default(),
        )
        .unwrap();
        let ttl = write_turtle(&g, &[("e", "http://e/")]);
        assert!(ttl.contains("e:a.b e:p-q e:1st"), "{ttl}");
        assert!(ttl.contains("<http://e/end.>"), "{ttl}");
        let mut g2 = Graph::new();
        parse_turtle_into(&ttl, &mut g2, &ParseOptions::default()).unwrap();
        assert_eq!(g.len(), g2.len());
        for t in g.iter_triples() {
            assert!(g2.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn resolve_iri_cases() {
        assert_eq!(resolve_iri(None, "http://a/b"), "http://a/b");
        assert_eq!(resolve_iri(Some("http://a/b"), "http://c/d"), "http://c/d");
        assert_eq!(resolve_iri(Some("http://a/b#x"), "#y"), "http://a/b#y");
        assert_eq!(resolve_iri(Some("http://a/dir/f"), "g"), "http://a/dir/g");
        assert_eq!(resolve_iri(Some("http://a/dir/f"), "/g"), "http://a/g");
        assert_eq!(resolve_iri(Some("http://a/b"), ""), "http://a/b");
        assert_eq!(resolve_iri(Some("http://a/b"), "//h/i"), "http://h/i");
    }
}
