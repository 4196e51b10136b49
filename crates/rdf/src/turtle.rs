//! Turtle (Terse RDF Triple Language) parser and serializer.
//!
//! The parser is a hand-written recursive-descent parser over a char
//! cursor, covering the Turtle 1.1 constructs the workspace's ontologies
//! use: prefix/base directives (both `@` and SPARQL-style), prefixed
//! names, IRI references with `\u`/`\U` escapes and relative resolution,
//! blank-node labels and property lists, collections, all literal forms
//! (quoted/long/numeric/boolean, language tags, datatypes), predicate-
//! object and object lists, and comments.

use std::collections::HashMap;
use std::fmt;

use crate::governor::{Exhausted, Guard};
use crate::graph::Graph;
use crate::term::{BlankNode, Iri, Literal, Term, Triple};
use crate::view::GraphStore;
use crate::vocab::{rdf, xsd};
use crate::{ParseOptions, RdfError};

/// A Turtle parse error with 1-based line/column location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    pub message: String,
    pub line: usize,
    pub column: usize,
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
            None => Err(RdfError::Syntax(e)),
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
    chars: Vec<char>,
    pos: usize,
    line: usize,
    column: usize,
    base: Option<String>,
    prefixes: HashMap<String, String>,
    triples: Vec<Triple>,
    bnode_counter: u64,
    guard: Option<&'a Guard>,
    tripped: Option<Exhausted>,
    _input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            column: 1,
            base: None,
            prefixes: HashMap::new(),
            triples: Vec::new(),
            bnode_counter: 0,
            guard: None,
            tripped: None,
            _input: input,
        }
    }

    /// Hot-loop budget check. On a trip the [`Exhausted`] detail is
    /// stashed in `self.tripped` (the guarded entry point surfaces it)
    /// and a plain [`TurtleError`] unwinds the recursive descent.
    fn check_guard(&mut self) -> Result<(), TurtleError> {
        if let Some(g) = self.guard {
            if let Err(exhausted) = g.check_time() {
                self.tripped = Some(exhausted);
                return self.error("execution budget exhausted");
            }
        }
        Ok(())
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, TurtleError> {
        Err(TurtleError {
            message: message.into(),
            line: self.line,
            column: self.column,
        })
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, c: char) -> Result<(), TurtleError> {
        match self.peek() {
            Some(x) if x == c => {
                self.bump();
                Ok(())
            }
            Some(x) => self.error(format!("expected '{c}', found '{x}'")),
            None => self.error(format!("expected '{c}', found end of input")),
        }
    }

    /// Case-insensitive keyword match followed by a non-name char.
    fn try_keyword(&mut self, kw: &str) -> bool {
        let mut off = 0;
        for kc in kw.chars() {
            match self.peek_at(off) {
                Some(c) if c.eq_ignore_ascii_case(&kc) => off += 1,
                _ => return false,
            }
        }
        match self.peek_at(off) {
            Some(c) if c.is_alphanumeric() || c == '_' => false,
            _ => {
                for _ in 0..off {
                    self.bump();
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

    fn parse_document(&mut self) -> Result<(), TurtleError> {
        loop {
            self.check_guard()?;
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(());
            }
            if self.peek() == Some('@') {
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
            self.skip_ws();
            self.expect('.')?;
        }
    }

    fn parse_at_directive(&mut self) -> Result<(), TurtleError> {
        self.expect('@')?;
        if self.try_keyword("prefix") {
            self.parse_prefix_body(true)
        } else if self.try_keyword("base") {
            self.parse_base_body(true)
        } else {
            self.error("unknown @-directive (expected @prefix or @base)")
        }
    }

    fn parse_prefix_body(&mut self, dotted: bool) -> Result<(), TurtleError> {
        self.skip_ws();
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_whitespace() {
                return self.error("prefix name may not contain whitespace");
            }
            name.push(c);
            self.bump();
        }
        self.expect(':')?;
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.prefixes.insert(name, iri);
        if dotted {
            self.skip_ws();
            self.expect('.')?;
        }
        Ok(())
    }

    fn parse_base_body(&mut self, dotted: bool) -> Result<(), TurtleError> {
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.base = Some(iri);
        if dotted {
            self.skip_ws();
            self.expect('.')?;
        }
        Ok(())
    }

    fn parse_triples_block(&mut self) -> Result<(), TurtleError> {
        self.skip_ws();
        // blankNodePropertyList as subject: may stand alone or take a
        // predicate-object list.
        if self.peek() == Some('[') {
            let subject = self.parse_bnode_property_list()?;
            self.skip_ws();
            if self.peek() != Some('.') {
                self.parse_predicate_object_list(&subject)?;
            }
            return Ok(());
        }
        let subject = self.parse_subject()?;
        self.parse_predicate_object_list(&subject)
    }

    fn parse_subject(&mut self) -> Result<Term, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(Iri::new(self.parse_iri_ref_resolved()?))),
            Some('_') => self.parse_bnode_label(),
            Some('(') => self.parse_collection(),
            Some(_) => Ok(Term::Iri(Iri::new(self.parse_prefixed_name()?))),
            None => self.error("expected subject, found end of input"),
        }
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), TurtleError> {
        loop {
            self.skip_ws();
            let predicate = self.parse_predicate()?;
            loop {
                self.check_guard()?;
                self.skip_ws();
                let object = self.parse_object()?;
                self.triples.push(Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_ws();
                if self.peek() == Some(',') {
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_ws();
            if self.peek() == Some(';') {
                self.bump();
                self.skip_ws();
                // Trailing ';' before '.' or ']' is legal Turtle.
                if matches!(self.peek(), Some('.') | Some(']')) || self.peek().is_none() {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_predicate(&mut self) -> Result<Term, TurtleError> {
        self.skip_ws();
        if self.peek() == Some('a')
            && matches!(self.peek_at(1), Some(c) if c.is_whitespace() || c == '<' || c == '[' || c == '_')
        {
            self.bump();
            return Ok(Term::iri(rdf::TYPE));
        }
        match self.peek() {
            Some('<') => Ok(Term::Iri(Iri::new(self.parse_iri_ref_resolved()?))),
            Some(_) => Ok(Term::Iri(Iri::new(self.parse_prefixed_name()?))),
            None => self.error("expected predicate, found end of input"),
        }
    }

    fn parse_object(&mut self) -> Result<Term, TurtleError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => Ok(Term::Iri(Iri::new(self.parse_iri_ref_resolved()?))),
            Some('_') => self.parse_bnode_label(),
            Some('[') => self.parse_bnode_property_list(),
            Some('(') => self.parse_collection(),
            Some('"') | Some('\'') => self.parse_rdf_literal(),
            Some(c) if c == '+' || c == '-' || c.is_ascii_digit() => self.parse_numeric_literal(),
            Some(_) => {
                if self.try_keyword("true") {
                    return Ok(Term::boolean(true));
                }
                if self.try_keyword("false") {
                    return Ok(Term::boolean(false));
                }
                Ok(Term::Iri(Iri::new(self.parse_prefixed_name()?)))
            }
            None => self.error("expected object, found end of input"),
        }
    }

    fn parse_bnode_label(&mut self) -> Result<Term, TurtleError> {
        self.expect('_')?;
        self.expect(':')?;
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                // '.' only allowed mid-label; stop if followed by non-name.
                if c == '.' {
                    match self.peek_at(1) {
                        Some(n) if n.is_alphanumeric() || n == '_' || n == '-' => {}
                        _ => break,
                    }
                }
                label.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return self.error("empty blank node label");
        }
        Ok(Term::BlankNode(BlankNode::new(label)))
    }

    fn parse_bnode_property_list(&mut self) -> Result<Term, TurtleError> {
        self.expect('[')?;
        self.skip_ws();
        let node = self.fresh_bnode();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(node);
        }
        self.parse_predicate_object_list(&node)?;
        self.skip_ws();
        self.expect(']')?;
        Ok(node)
    }

    fn parse_collection(&mut self) -> Result<Term, TurtleError> {
        self.expect('(')?;
        let mut items = Vec::new();
        loop {
            self.check_guard()?;
            self.skip_ws();
            if self.peek() == Some(')') {
                self.bump();
                break;
            }
            if self.peek().is_none() {
                return self.error("unterminated collection");
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

    fn parse_rdf_literal(&mut self) -> Result<Term, TurtleError> {
        let lexical = self.parse_string()?;
        match self.peek() {
            Some('@') => {
                self.bump();
                let mut tag = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        tag.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if tag.is_empty() {
                    return self.error("empty language tag");
                }
                Ok(Term::Literal(Literal::lang(lexical, tag)))
            }
            Some('^') => {
                self.bump();
                self.expect('^')?;
                self.skip_ws();
                let dt = match self.peek() {
                    Some('<') => self.parse_iri_ref_resolved()?,
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Term::Literal(Literal::typed(lexical, Iri::new(dt))))
            }
            _ => Ok(Term::simple(lexical)),
        }
    }

    fn parse_string(&mut self) -> Result<String, TurtleError> {
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q,
            _ => return self.error("expected string literal"),
        };
        // Long string?
        if self.peek_at(1) == Some(quote) && self.peek_at(2) == Some(quote) {
            self.bump();
            self.bump();
            self.bump();
            let mut out = String::new();
            loop {
                if self.peek() == Some(quote)
                    && self.peek_at(1) == Some(quote)
                    && self.peek_at(2) == Some(quote)
                {
                    // Quotes are greedy: in `""""""` closing a string that
                    // ends with `"`, the final three quotes terminate and
                    // any extras before them belong to the content.
                    let mut run = 3;
                    while self.peek_at(run) == Some(quote) {
                        run += 1;
                    }
                    for _ in 0..(run - 3) {
                        out.push(quote);
                        self.bump();
                    }
                    self.bump();
                    self.bump();
                    self.bump();
                    return Ok(out);
                }
                match self.bump() {
                    Some('\\') => out.push(self.parse_escape()?),
                    Some(c) => out.push(c),
                    None => return self.error("unterminated long string"),
                }
            }
        }
        self.bump();
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => return Ok(out),
                Some('\\') => out.push(self.parse_escape()?),
                Some('\n') => return self.error("newline in short string literal"),
                Some(c) => out.push(c),
                None => return self.error("unterminated string"),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, TurtleError> {
        match self.bump() {
            Some('t') => Ok('\t'),
            Some('b') => Ok('\u{8}'),
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('f') => Ok('\u{c}'),
            Some('"') => Ok('"'),
            Some('\'') => Ok('\''),
            Some('\\') => Ok('\\'),
            Some('u') => self.parse_unicode_escape(4),
            Some('U') => self.parse_unicode_escape(8),
            Some(c) => self.error(format!("invalid escape '\\{c}'")),
            None => self.error("unterminated escape"),
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, TurtleError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            match self.bump().and_then(|c| c.to_digit(16)) {
                Some(d) => v = v * 16 + d,
                None => return self.error("invalid unicode escape"),
            }
        }
        char::from_u32(v).map_or_else(|| self.error("invalid unicode code point"), Ok)
    }

    fn parse_numeric_literal(&mut self) -> Result<Term, TurtleError> {
        let mut s = String::new();
        if matches!(self.peek(), Some('+') | Some('-')) {
            s.push(self.bump().unwrap());
        }
        let mut has_dot = false;
        let mut has_exp = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.bump();
            } else if c == '.' && !has_dot && !has_exp {
                // Only consume the dot when a digit or exponent follows —
                // otherwise it terminates the statement.
                match self.peek_at(1) {
                    Some(n) if n.is_ascii_digit() => {
                        has_dot = true;
                        s.push(c);
                        self.bump();
                    }
                    Some('e') | Some('E') => {
                        has_dot = true;
                        s.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else if (c == 'e' || c == 'E') && !has_exp {
                has_exp = true;
                s.push(c);
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    s.push(self.bump().unwrap());
                }
            } else {
                break;
            }
        }
        if s.is_empty() || s == "+" || s == "-" {
            return self.error("invalid numeric literal");
        }
        let dt = if has_exp {
            xsd::DOUBLE
        } else if has_dot {
            xsd::DECIMAL
        } else {
            xsd::INTEGER
        };
        Ok(Term::Literal(Literal::typed(s, Iri::new(dt))))
    }

    /// `<...>` with escapes; returns the raw (possibly relative) IRI text.
    fn parse_iri_ref(&mut self) -> Result<String, TurtleError> {
        self.expect('<')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('u') => out.push(self.parse_unicode_escape(4)?),
                    Some('U') => out.push(self.parse_unicode_escape(8)?),
                    _ => return self.error("invalid IRI escape"),
                },
                Some(c) if c.is_whitespace() => return self.error("whitespace in IRI"),
                Some(c) => out.push(c),
                None => return self.error("unterminated IRI"),
            }
        }
    }

    /// `<...>` resolved against the document base.
    fn parse_iri_ref_resolved(&mut self) -> Result<String, TurtleError> {
        let raw = self.parse_iri_ref()?;
        Ok(resolve_iri(self.base.as_deref(), &raw))
    }

    fn parse_prefixed_name(&mut self) -> Result<String, TurtleError> {
        let mut prefix = String::new();
        while let Some(c) = self.peek() {
            if c == ':' {
                break;
            }
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                prefix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if self.peek() != Some(':') {
            return self.error(format!(
                "expected prefixed name, found '{}'",
                self.peek().map_or(String::from("EOF"), |c| c.to_string())
            ));
        }
        self.bump(); // ':'
        let ns = match self.prefixes.get(&prefix) {
            Some(ns) => ns.clone(),
            None => return self.error(format!("undeclared prefix '{prefix}:'")),
        };
        let mut local = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                local.push(c);
                self.bump();
            } else if c == '.' {
                // '.' allowed only when followed by another name char.
                match self.peek_at(1) {
                    Some(n) if n.is_alphanumeric() || n == '_' || n == '-' || n == ':' => {
                        local.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else if c == '\\' {
                // PN_LOCAL_ESC
                self.bump();
                match self.bump() {
                    Some(e) if "_~.-!$&'()*+,;=/?#@%".contains(e) => local.push(e),
                    _ => return self.error("invalid local name escape"),
                }
            } else if c == '%' {
                // percent-encoded
                self.bump();
                let h1 = self.bump();
                let h2 = self.bump();
                match (h1, h2) {
                    (Some(a), Some(b)) if a.is_ascii_hexdigit() && b.is_ascii_hexdigit() => {
                        local.push('%');
                        local.push(a);
                        local.push(b);
                    }
                    _ => return self.error("invalid percent encoding in local name"),
                }
            } else {
                break;
            }
        }
        Ok(format!("{ns}{local}"))
    }
}

/// Resolves `reference` against `base` per a pragmatic subset of RFC 3986:
/// absolute references pass through, fragment/query references attach to
/// the base, path references merge with the base path.
pub fn resolve_iri(base: Option<&str>, reference: &str) -> String {
    if reference.contains(':')
        && reference.split(':').next().is_some_and(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '-' || c == '.')
        })
    {
        // Looks like an absolute IRI with a scheme.
        if reference.find(':').unwrap() < reference.find('/').unwrap_or(usize::MAX) {
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
/// [`GraphView`] — plain graphs, overlays, and stacked ledger views
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
        match term {
            Term::Iri(iri) => {
                for (name, ns) in prefixes {
                    if let Some(local) = iri.as_str().strip_prefix(ns) {
                        if !local.is_empty()
                            && local
                                .chars()
                                .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
                            && !local.ends_with('.')
                        {
                            return format!("{name}:{local}");
                        }
                    }
                }
                term.to_string()
            }
            _ => term.to_string(),
        }
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
             e:a a e:Food ; e:p \"v\"@en ; e:q 42 .",
            &mut g,
            &ParseOptions::default(),
        )
        .unwrap();
        let ttl = write_turtle(&g, &[("e", "http://e/")]);
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
