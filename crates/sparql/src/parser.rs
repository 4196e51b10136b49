//! Recursive-descent SPARQL parser.
//!
//! Covers the SPARQL 1.1 fragment the workspace needs (and then some):
//! SELECT (with expressions, DISTINCT/REDUCED), ASK, CONSTRUCT; group
//! graph patterns with OPTIONAL / UNION / MINUS / FILTER / BIND / VALUES
//! and nested groups; property paths; blank-node property lists and
//! collections; the full expression grammar with builtins, EXISTS /
//! NOT EXISTS, IN / NOT IN and aggregates; GROUP BY / HAVING / ORDER BY /
//! LIMIT / OFFSET.

use std::collections::HashMap;

use feo_rdf::vocab::{rdf, xsd};

use crate::ast::*;
use crate::error::{Result, SparqlError};
use crate::lexer::{tokenize, Tok, Token};

/// Parses a SPARQL query string.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        prefixes: HashMap::new(),
        base: None,
        bnode_counter: 0,
    };
    let q = p.parse_query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
    base: Option<String>,
    bnode_counter: u64,
}

impl Parser {
    fn here(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let t = self.here();
        Err(SparqlError::parse(msg, t.line, t.column))
    }

    fn peek(&self) -> &Tok {
        &self.here().tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].tok.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    /// Case-insensitive keyword check without consuming.
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected '{kw}', found {:?}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected trailing input: {:?}", self.peek()))
        }
    }

    fn fresh_blank(&mut self) -> TermPattern {
        let label = format!("qb{}", self.bnode_counter);
        self.bnode_counter += 1;
        TermPattern::Blank(label)
    }

    // ---- top level ---------------------------------------------------

    fn parse_query(&mut self) -> Result<Query> {
        self.parse_prologue()?;
        if self.at_kw("SELECT") {
            self.parse_select()
        } else if self.at_kw("ASK") {
            self.bump();
            let where_pattern = self.parse_where_clause()?;
            let modifiers = self.parse_modifiers()?;
            Ok(Query {
                form: QueryForm::Ask,
                where_pattern,
                modifiers,
            })
        } else if self.at_kw("CONSTRUCT") {
            self.bump();
            self.expect(Tok::LBrace, "'{' after CONSTRUCT")?;
            let mut template = Vec::new();
            while !matches!(self.peek(), Tok::RBrace) {
                let mut triples = self.parse_triples_same_subject()?;
                // Paths are not allowed in templates.
                for t in &triples {
                    if !t.path.is_trivial() {
                        return self.err("property paths are not allowed in CONSTRUCT templates");
                    }
                }
                template.append(&mut triples);
                if !self.eat(&Tok::Dot) {
                    break;
                }
            }
            self.expect(Tok::RBrace, "'}' closing CONSTRUCT template")?;
            let where_pattern = self.parse_where_clause()?;
            let modifiers = self.parse_modifiers()?;
            Ok(Query {
                form: QueryForm::Construct { template },
                where_pattern,
                modifiers,
            })
        } else {
            self.err("expected SELECT, ASK, or CONSTRUCT")
        }
    }

    fn parse_prologue(&mut self) -> Result<()> {
        loop {
            if self.eat_kw("PREFIX") {
                let (prefix, local) = match self.bump() {
                    Tok::PName { prefix, local } => (prefix, local),
                    _ => return self.err("expected prefix name after PREFIX"),
                };
                if !local.is_empty() {
                    return self.err("prefix declaration must end with ':'");
                }
                let iri = match self.bump() {
                    Tok::IriRef(iri) => self.resolve(&iri),
                    _ => return self.err("expected IRI after prefix name"),
                };
                self.prefixes.insert(prefix, iri);
            } else if self.eat_kw("BASE") {
                let iri = match self.bump() {
                    Tok::IriRef(iri) => iri,
                    _ => return self.err("expected IRI after BASE"),
                };
                self.base = Some(iri);
            } else {
                return Ok(());
            }
        }
    }

    fn resolve(&self, raw: &str) -> String {
        feo_rdf::turtle::resolve_iri(self.base.as_deref(), raw)
    }

    fn parse_select(&mut self) -> Result<Query> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let reduced = !distinct && self.eat_kw("REDUCED");
        let projection = if self.eat(&Tok::Star) {
            Projection::All
        } else {
            let mut items = Vec::new();
            loop {
                match self.peek().clone() {
                    Tok::Var(v) => {
                        self.bump();
                        items.push(ProjectionItem::Var(v));
                    }
                    Tok::LParen => {
                        self.bump();
                        let e = self.parse_expr()?;
                        self.expect_kw("AS")?;
                        let v = match self.bump() {
                            Tok::Var(v) => v,
                            _ => return self.err("expected variable after AS"),
                        };
                        self.expect(Tok::RParen, "')' closing SELECT expression")?;
                        items.push(ProjectionItem::Expr(e, v));
                    }
                    _ => break,
                }
            }
            if items.is_empty() {
                return self.err("SELECT needs '*' or at least one variable/expression");
            }
            Projection::Items(items)
        };
        let where_pattern = self.parse_where_clause()?;
        let modifiers = self.parse_modifiers()?;
        Ok(Query {
            form: QueryForm::Select {
                distinct,
                reduced,
                projection,
            },
            where_pattern,
            modifiers,
        })
    }

    fn parse_where_clause(&mut self) -> Result<GroupPattern> {
        self.eat_kw("WHERE");
        self.parse_group_graph_pattern()
    }

    fn parse_modifiers(&mut self) -> Result<Modifiers> {
        let mut m = Modifiers::default();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                match self.peek().clone() {
                    Tok::Var(v) => {
                        self.bump();
                        m.group_by.push(GroupCondition::Var(v));
                    }
                    Tok::LParen => {
                        self.bump();
                        let e = self.parse_expr()?;
                        let alias = if self.eat_kw("AS") {
                            match self.bump() {
                                Tok::Var(v) => Some(v),
                                _ => return self.err("expected variable after AS"),
                            }
                        } else {
                            None
                        };
                        self.expect(Tok::RParen, "')' in GROUP BY")?;
                        m.group_by.push(GroupCondition::Expr(e, alias));
                    }
                    _ => break,
                }
            }
            if m.group_by.is_empty() {
                return self.err("GROUP BY needs at least one condition");
            }
        }
        if self.eat_kw("HAVING") {
            while self.at_constraint_start() {
                m.having.push(self.parse_constraint()?);
            }
            if m.having.is_empty() {
                return self.err("HAVING needs at least one constraint");
            }
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                if self.eat_kw("ASC") {
                    self.expect(Tok::LParen, "'(' after ASC")?;
                    let e = self.parse_expr()?;
                    self.expect(Tok::RParen, "')' after ASC expression")?;
                    m.order_by.push(OrderCondition {
                        expr: e,
                        descending: false,
                    });
                } else if self.eat_kw("DESC") {
                    self.expect(Tok::LParen, "'(' after DESC")?;
                    let e = self.parse_expr()?;
                    self.expect(Tok::RParen, "')' after DESC expression")?;
                    m.order_by.push(OrderCondition {
                        expr: e,
                        descending: true,
                    });
                } else if let Tok::Var(v) = self.peek().clone() {
                    self.bump();
                    m.order_by.push(OrderCondition {
                        expr: Expr::Var(v),
                        descending: false,
                    });
                } else if self.at_constraint_start() {
                    m.order_by.push(OrderCondition {
                        expr: self.parse_constraint()?,
                        descending: false,
                    });
                } else {
                    break;
                }
            }
            if m.order_by.is_empty() {
                return self.err("ORDER BY needs at least one condition");
            }
        }
        // LIMIT and OFFSET may appear in either order.
        loop {
            if self.eat_kw("LIMIT") {
                m.limit = Some(self.parse_unsigned()?);
            } else if self.eat_kw("OFFSET") {
                m.offset = Some(self.parse_unsigned()?);
            } else {
                break;
            }
        }
        Ok(m)
    }

    /// True when the next token can begin a FILTER, HAVING or ORDER BY
    /// constraint: `(`, a builtin or aggregate name, or (NOT) EXISTS.
    fn at_constraint_start(&self) -> bool {
        match self.peek() {
            Tok::LParen => true,
            Tok::Word(w) => {
                Builtin::from_name(w).is_some()
                    || AggregateKind::from_name(w).is_some()
                    || w.eq_ignore_ascii_case("EXISTS")
                    || (w.eq_ignore_ascii_case("NOT") && peek2_is_exists(self))
            }
            _ => false,
        }
    }

    fn parse_unsigned(&mut self) -> Result<usize> {
        match self.bump() {
            Tok::Number(lexical, xsd::INTEGER) => lexical
                .parse()
                .map_err(|_| SparqlError::eval("integer out of range")),
            _ => self.err("expected a non-negative integer"),
        }
    }

    // ---- group graph patterns -----------------------------------------

    fn parse_group_graph_pattern(&mut self) -> Result<GroupPattern> {
        self.expect(Tok::LBrace, "'{' opening group pattern")?;
        let mut group = GroupPattern::default();
        loop {
            match self.peek().clone() {
                Tok::RBrace => {
                    self.bump();
                    return Ok(group);
                }
                Tok::Eof => return self.err("unterminated group pattern"),
                Tok::LBrace => {
                    // Nested group, possibly a UNION chain.
                    let first = self.parse_group_graph_pattern()?;
                    if self.at_kw("UNION") {
                        let mut arms = vec![first];
                        while self.eat_kw("UNION") {
                            arms.push(self.parse_group_graph_pattern()?);
                        }
                        group.elements.push(GroupElement::Union(arms));
                    } else {
                        group.elements.push(GroupElement::Group(first));
                    }
                    self.eat(&Tok::Dot);
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.bump();
                    let inner = self.parse_group_graph_pattern()?;
                    group.elements.push(GroupElement::Optional(inner));
                    self.eat(&Tok::Dot);
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("MINUS") => {
                    self.bump();
                    let inner = self.parse_group_graph_pattern()?;
                    group.elements.push(GroupElement::Minus(inner));
                    self.eat(&Tok::Dot);
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    let e = self.parse_constraint()?;
                    group.elements.push(GroupElement::Filter(e));
                    self.eat(&Tok::Dot);
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("BIND") => {
                    self.bump();
                    self.expect(Tok::LParen, "'(' after BIND")?;
                    let e = self.parse_expr()?;
                    self.expect_kw("AS")?;
                    let v = match self.bump() {
                        Tok::Var(v) => v,
                        _ => return self.err("expected variable after AS"),
                    };
                    self.expect(Tok::RParen, "')' closing BIND")?;
                    group.elements.push(GroupElement::Bind(e, v));
                    self.eat(&Tok::Dot);
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("VALUES") => {
                    self.bump();
                    let block = self.parse_values_block()?;
                    group.elements.push(GroupElement::Values(block));
                    self.eat(&Tok::Dot);
                }
                _ => {
                    let mut triples = self.parse_triples_same_subject()?;
                    // Adjacent triple statements form ONE basic graph
                    // pattern (so join reordering sees them together).
                    if let Some(GroupElement::Triples(prev)) = group.elements.last_mut() {
                        prev.append(&mut triples);
                    } else {
                        group.elements.push(GroupElement::Triples(triples));
                    }
                    // Consume '.' separators between triple blocks.
                    while self.eat(&Tok::Dot) {}
                }
            }
        }
    }

    fn parse_values_block(&mut self) -> Result<ValuesBlock> {
        // Single-var form: VALUES ?x { v... } ; multi: VALUES (?x ?y) { (a b) ... }
        if let Tok::Var(v) = self.peek().clone() {
            self.bump();
            self.expect(Tok::LBrace, "'{' opening VALUES data")?;
            let mut rows = Vec::new();
            while !matches!(self.peek(), Tok::RBrace) {
                rows.push(vec![self.parse_data_value()?]);
            }
            self.bump();
            return Ok(ValuesBlock {
                vars: vec![v],
                rows,
            });
        }
        self.expect(Tok::LParen, "'(' opening VALUES variable list")?;
        let mut vars = Vec::new();
        while let Tok::Var(v) = self.peek().clone() {
            self.bump();
            vars.push(v);
        }
        self.expect(Tok::RParen, "')' closing VALUES variable list")?;
        self.expect(Tok::LBrace, "'{' opening VALUES data")?;
        let mut rows = Vec::new();
        while self.eat(&Tok::LParen) {
            let mut row = Vec::new();
            for _ in 0..vars.len() {
                row.push(self.parse_data_value()?);
            }
            self.expect(Tok::RParen, "')' closing VALUES row")?;
            rows.push(row);
        }
        self.expect(Tok::RBrace, "'}' closing VALUES data")?;
        Ok(ValuesBlock { vars, rows })
    }

    fn parse_data_value(&mut self) -> Result<Option<TermPattern>> {
        if self.eat_kw("UNDEF") {
            return Ok(None);
        }
        let tp = self.parse_graph_term()?;
        Ok(Some(tp))
    }

    // ---- triples ------------------------------------------------------

    /// Parses one TriplesSameSubjectPath production, expanding blank-node
    /// property lists and collections.
    fn parse_triples_same_subject(&mut self) -> Result<Vec<TriplePattern>> {
        let mut acc = Vec::new();
        let subject = match self.peek() {
            Tok::LBracket => {
                let node = self.parse_blank_node_property_list(&mut acc)?;
                // A bare `[ ... ]` may be the whole statement.
                if matches!(self.peek(), Tok::Dot | Tok::RBrace) {
                    return Ok(acc);
                }
                node
            }
            Tok::LParen => self.parse_collection(&mut acc)?,
            _ => self.parse_term_pattern()?,
        };
        self.parse_property_list(&subject, &mut acc)?;
        Ok(acc)
    }

    fn parse_property_list(
        &mut self,
        subject: &TermPattern,
        acc: &mut Vec<TriplePattern>,
    ) -> Result<()> {
        loop {
            let path = self.parse_verb()?;
            loop {
                let object = match self.peek() {
                    Tok::LBracket => self.parse_blank_node_property_list(acc)?,
                    Tok::LParen => self.parse_collection(acc)?,
                    _ => self.parse_term_pattern()?,
                };
                acc.push(TriplePattern {
                    subject: subject.clone(),
                    path: path.clone(),
                    object,
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            if self.eat(&Tok::Semicolon) {
                // Trailing ';' before '.' or '}' is legal.
                if matches!(self.peek(), Tok::Dot | Tok::RBrace | Tok::Eof) {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_blank_node_property_list(
        &mut self,
        acc: &mut Vec<TriplePattern>,
    ) -> Result<TermPattern> {
        self.expect(Tok::LBracket, "'['")?;
        let node = self.fresh_blank();
        if self.eat(&Tok::RBracket) {
            return Ok(node);
        }
        self.parse_property_list(&node, acc)?;
        self.expect(Tok::RBracket, "']' closing property list")?;
        Ok(node)
    }

    fn parse_collection(&mut self, acc: &mut Vec<TriplePattern>) -> Result<TermPattern> {
        self.expect(Tok::LParen, "'(' opening collection")?;
        let mut items = Vec::new();
        while !self.eat(&Tok::RParen) {
            if matches!(self.peek(), Tok::Eof) {
                return self.err("unterminated collection");
            }
            let item = match self.peek() {
                Tok::LBracket => self.parse_blank_node_property_list(acc)?,
                Tok::LParen => self.parse_collection(acc)?,
                _ => self.parse_term_pattern()?,
            };
            items.push(item);
        }
        if items.is_empty() {
            return Ok(TermPattern::Iri(rdf::NIL.to_string()));
        }
        let mut head = TermPattern::Iri(rdf::NIL.to_string());
        for item in items.into_iter().rev() {
            let node = self.fresh_blank();
            acc.push(TriplePattern {
                subject: node.clone(),
                path: Path::Iri(rdf::FIRST.to_string()),
                object: item,
            });
            acc.push(TriplePattern {
                subject: node.clone(),
                path: Path::Iri(rdf::REST.to_string()),
                object: head,
            });
            head = node;
        }
        Ok(head)
    }

    /// Subject/object term (no bnode property lists here).
    fn parse_term_pattern(&mut self) -> Result<TermPattern> {
        match self.peek().clone() {
            Tok::Var(v) => {
                self.bump();
                Ok(TermPattern::Var(v))
            }
            _ => self.parse_graph_term(),
        }
    }

    /// Ground term: IRI, prefixed name, literal, blank label, boolean.
    fn parse_graph_term(&mut self) -> Result<TermPattern> {
        match self.bump() {
            Tok::IriRef(iri) => Ok(TermPattern::Iri(self.resolve(&iri))),
            Tok::PName { prefix, local } => Ok(TermPattern::Iri(self.expand(&prefix, &local)?)),
            Tok::BlankLabel(l) => Ok(TermPattern::Blank(format!("u{l}"))),
            Tok::Str(s) => match self.peek().clone() {
                Tok::LangTag(tag) => {
                    self.bump();
                    Ok(TermPattern::Literal(LiteralPattern {
                        lexical: s,
                        language: Some(tag.to_ascii_lowercase()),
                        datatype: None,
                    }))
                }
                Tok::DtSep => {
                    self.bump();
                    let dt = match self.bump() {
                        Tok::IriRef(iri) => self.resolve(&iri),
                        Tok::PName { prefix, local } => self.expand(&prefix, &local)?,
                        _ => return self.err("expected datatype IRI after '^^'"),
                    };
                    Ok(TermPattern::Literal(LiteralPattern {
                        lexical: s,
                        language: None,
                        datatype: Some(dt),
                    }))
                }
                _ => Ok(TermPattern::Literal(LiteralPattern {
                    lexical: s,
                    language: None,
                    datatype: None,
                })),
            },
            Tok::Number(lexical, datatype) => Ok(TermPattern::Literal(typed(lexical, datatype))),
            sign @ (Tok::Minus | Tok::Plus) => match self.bump() {
                Tok::Number(digits, datatype) => {
                    let sign = if sign == Tok::Minus { '-' } else { '+' };
                    Ok(TermPattern::Literal(typed(
                        format!("{sign}{digits}"),
                        datatype,
                    )))
                }
                _ => self.err("expected number after sign"),
            },
            Tok::Word(w) if is_boolean(&w) => Ok(TermPattern::Literal(typed(
                w.to_ascii_lowercase(),
                xsd::BOOLEAN,
            ))),
            other => {
                // restore position for error message accuracy
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected a term, found {other:?}"))
            }
        }
    }

    fn expand(&self, prefix: &str, local: &str) -> Result<String> {
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(format!("{ns}{local}")),
            None => Err(SparqlError::eval(format!("undeclared prefix '{prefix}:'"))),
        }
    }

    // ---- property paths -------------------------------------------------

    /// Verb position: a variable, `a`, or a property path.
    fn parse_verb(&mut self) -> Result<Path> {
        if let Tok::Var(v) = self.peek().clone() {
            self.bump();
            return Ok(Path::Var(v));
        }
        self.parse_path_alternative()
    }

    fn parse_path_alternative(&mut self) -> Result<Path> {
        let mut left = self.parse_path_sequence()?;
        while self.eat(&Tok::Pipe) {
            let right = self.parse_path_sequence()?;
            left = Path::Alternative(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_sequence(&mut self) -> Result<Path> {
        let mut left = self.parse_path_elt_or_inverse()?;
        while self.eat(&Tok::Slash) {
            let right = self.parse_path_elt_or_inverse()?;
            left = Path::Sequence(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_elt_or_inverse(&mut self) -> Result<Path> {
        if self.eat(&Tok::Caret) {
            let inner = self.parse_path_elt()?;
            Ok(Path::Inverse(Box::new(inner)))
        } else {
            self.parse_path_elt()
        }
    }

    fn parse_path_elt(&mut self) -> Result<Path> {
        let primary = self.parse_path_primary()?;
        Ok(match self.peek() {
            Tok::Question => {
                self.bump();
                Path::ZeroOrOne(Box::new(primary))
            }
            Tok::Star => {
                self.bump();
                Path::ZeroOrMore(Box::new(primary))
            }
            // A `+` glued to the number after it is that number's sign,
            // as SPARQL's longest-match tokenizer and Turtle read it:
            // `<p> +7` and `<p>+7` have the object `+7`.
            Tok::Plus if !self.plus_signs_number() => {
                self.bump();
                Path::OneOrMore(Box::new(primary))
            }
            _ => primary,
        })
    }

    /// True when the `+` here is followed, in the next column, by a
    /// number.
    fn plus_signs_number(&self) -> bool {
        let (plus, next) = (
            self.here(),
            &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)],
        );
        matches!(next.tok, Tok::Number(..))
            && (next.line, next.column) == (plus.line, plus.column + 1)
    }

    fn parse_path_primary(&mut self) -> Result<Path> {
        match self.peek().clone() {
            Tok::IriRef(iri) => {
                self.bump();
                Ok(Path::Iri(self.resolve(&iri)))
            }
            Tok::PName { prefix, local } => {
                self.bump();
                Ok(Path::Iri(self.expand(&prefix, &local)?))
            }
            Tok::Word(w) if w == "a" => {
                self.bump();
                Ok(Path::Iri(rdf::TYPE.to_string()))
            }
            Tok::Bang => {
                self.bump();
                self.parse_negated_property_set()
            }
            Tok::LParen => {
                self.bump();
                let p = self.parse_path_alternative()?;
                self.expect(Tok::RParen, "')' closing path group")?;
                Ok(p)
            }
            other => self.err(format!("expected a path, found {other:?}")),
        }
    }

    fn parse_negated_property_set(&mut self) -> Result<Path> {
        let mut members = Vec::new();
        let one = |p: &mut Self| -> Result<(String, bool)> {
            let inverted = p.eat(&Tok::Caret);
            match p.bump() {
                Tok::IriRef(iri) => Ok((p.resolve(&iri), inverted)),
                Tok::PName { prefix, local } => Ok((p.expand(&prefix, &local)?, inverted)),
                Tok::Word(w) if w == "a" => Ok((rdf::TYPE.to_string(), inverted)),
                other => p.err(format!(
                    "expected IRI in negated property set, found {other:?}"
                )),
            }
        };
        if self.eat(&Tok::LParen) {
            loop {
                members.push(one(self)?);
                if !self.eat(&Tok::Pipe) {
                    break;
                }
            }
            self.expect(Tok::RParen, "')' closing negated property set")?;
        } else {
            members.push(one(self)?);
        }
        Ok(Path::Negated(members))
    }

    // ---- expressions ---------------------------------------------------

    /// FILTER, HAVING or ORDER BY constraint: parenthesized expression,
    /// builtin call, or EXISTS / NOT EXISTS.
    fn parse_constraint(&mut self) -> Result<Expr> {
        if self.at_kw("EXISTS") || (self.at_kw("NOT") && peek2_is_exists(self)) {
            return self.parse_exists();
        }
        if let Tok::Word(w) = self.peek().clone() {
            if Builtin::from_name(&w).is_some() || AggregateKind::from_name(&w).is_some() {
                return self.parse_primary_expr();
            }
        }
        self.expect(Tok::LParen, "'(' opening constraint")?;
        let e = self.parse_expr()?;
        self.expect(Tok::RParen, "')' closing constraint")?;
        Ok(e)
    }

    fn parse_exists(&mut self) -> Result<Expr> {
        let negated = self.eat_kw("NOT");
        self.expect_kw("EXISTS")?;
        let group = self.parse_group_graph_pattern()?;
        Ok(Expr::Exists(group, negated))
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat(&Tok::OrOr) {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_relational()?;
        while self.eat(&Tok::AndAnd) {
            let right = self.parse_relational()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            Tok::Eq => CompareOp::Eq,
            Tok::Ne => CompareOp::Ne,
            Tok::Lt => CompareOp::Lt,
            Tok::Le => CompareOp::Le,
            Tok::Gt => CompareOp::Gt,
            Tok::Ge => CompareOp::Ge,
            Tok::Word(w) if w.eq_ignore_ascii_case("IN") => {
                self.bump();
                let list = self.parse_expr_list()?;
                return Ok(Expr::In(Box::new(left), list, false));
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("NOT") && peek2_is_in(self) => {
                self.bump();
                self.bump();
                let list = self.parse_expr_list()?;
                return Ok(Expr::In(Box::new(left), list, true));
            }
            _ => return Ok(left),
        };
        self.bump();
        let right = self.parse_additive()?;
        Ok(Expr::Compare(op, Box::new(left), Box::new(right)))
    }

    fn parse_expr_list(&mut self) -> Result<Vec<Expr>> {
        self.expect(Tok::LParen, "'(' opening expression list")?;
        let mut out = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(out);
        }
        loop {
            out.push(self.parse_expr()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen, "')' closing expression list")?;
        Ok(out)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            if self.eat(&Tok::Plus) {
                let right = self.parse_multiplicative()?;
                left = Expr::Arith(ArithOp::Add, Box::new(left), Box::new(right));
            } else if self.eat(&Tok::Minus) {
                let right = self.parse_multiplicative()?;
                left = Expr::Arith(ArithOp::Sub, Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            if self.eat(&Tok::Star) {
                let right = self.parse_unary()?;
                left = Expr::Arith(ArithOp::Mul, Box::new(left), Box::new(right));
            } else if self.eat(&Tok::Slash) {
                let right = self.parse_unary()?;
                left = Expr::Arith(ArithOp::Div, Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Bang) {
            Ok(Expr::Not(Box::new(self.parse_unary()?)))
        } else if self.eat(&Tok::Minus) {
            Ok(Expr::UnaryMinus(Box::new(self.parse_unary()?)))
        } else if self.eat(&Tok::Plus) {
            self.parse_unary()
        } else {
            self.parse_primary_expr()
        }
    }

    fn parse_primary_expr(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(Tok::RParen, "')' closing parenthesized expression")?;
                Ok(e)
            }
            Tok::Var(v) => {
                self.bump();
                Ok(Expr::Var(v))
            }
            Tok::IriRef(iri) => {
                self.bump();
                Ok(Expr::Iri(self.resolve(&iri)))
            }
            Tok::PName { prefix, local } => {
                self.bump();
                Ok(Expr::Iri(self.expand(&prefix, &local)?))
            }
            Tok::Str(_) | Tok::Number(..) => {
                let tp = self.parse_graph_term()?;
                match tp {
                    TermPattern::Literal(l) => Ok(Expr::Literal(l)),
                    _ => self.err("expected a literal expression"),
                }
            }
            Tok::Word(w) => {
                if is_boolean(&w) {
                    self.bump();
                    return Ok(Expr::Literal(typed(w.to_ascii_lowercase(), xsd::BOOLEAN)));
                }
                if w.eq_ignore_ascii_case("EXISTS")
                    || (w.eq_ignore_ascii_case("NOT") && peek2_is_exists(self))
                {
                    return self.parse_exists();
                }
                if let Some(kind) = AggregateKind::from_name(&w) {
                    self.bump();
                    return self.parse_aggregate(kind);
                }
                if let Some(b) = Builtin::from_name(&w) {
                    self.bump();
                    let args = self.parse_expr_list()?;
                    return Ok(Expr::Call(b, args));
                }
                self.err(format!("unknown function or keyword '{w}' in expression"))
            }
            other => self.err(format!("expected an expression, found {other:?}")),
        }
    }

    fn parse_aggregate(&mut self, kind: AggregateKind) -> Result<Expr> {
        self.expect(Tok::LParen, "'(' opening aggregate")?;
        let distinct = self.eat_kw("DISTINCT");
        let expr = if matches!(kind, AggregateKind::Count) && self.eat(&Tok::Star) {
            None
        } else {
            Some(self.parse_expr()?)
        };
        let mut separator = None;
        if matches!(kind, AggregateKind::GroupConcat) && self.eat(&Tok::Semicolon) {
            self.expect_kw("SEPARATOR")?;
            self.expect(Tok::Eq, "'=' after SEPARATOR")?;
            separator = match self.bump() {
                Tok::Str(s) => Some(s),
                _ => return self.err("expected string after SEPARATOR="),
            };
        }
        self.expect(Tok::RParen, "')' closing aggregate")?;
        Ok(Expr::Aggregate(Box::new(AggregateExpr {
            kind,
            distinct,
            expr,
            separator,
        })))
    }
}

fn peek2_is_exists(p: &Parser) -> bool {
    matches!(p.peek2(), Tok::Word(w) if w.eq_ignore_ascii_case("EXISTS"))
}

fn peek2_is_in(p: &Parser) -> bool {
    matches!(p.peek2(), Tok::Word(w) if w.eq_ignore_ascii_case("IN"))
}

fn is_boolean(word: &str) -> bool {
    word.eq_ignore_ascii_case("true") || word.eq_ignore_ascii_case("false")
}

fn typed(lexical: String, datatype: &str) -> LiteralPattern {
    LiteralPattern {
        lexical,
        language: None,
        datatype: Some(datatype.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Query {
        parse_query(src).expect("query should parse")
    }

    #[test]
    fn minimal_select() {
        let q = parse("SELECT * WHERE { ?s ?p ?o }");
        assert!(matches!(
            q.form,
            QueryForm::Select {
                projection: Projection::All,
                ..
            }
        ));
        assert_eq!(q.where_pattern.elements.len(), 1);
    }

    #[test]
    fn select_distinct_with_vars() {
        let q = parse("SELECT DISTINCT ?a ?b WHERE { ?a ?p ?b }");
        match q.form {
            QueryForm::Select {
                distinct,
                projection: Projection::Items(items),
                ..
            } => {
                assert!(distinct);
                assert_eq!(items.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn prefixes_resolve() {
        let q = parse(
            "PREFIX feo: <https://purl.org/heals/feo#>\n\
             SELECT ?x WHERE { ?x a feo:Characteristic }",
        );
        match &q.where_pattern.elements[0] {
            GroupElement::Triples(ts) => {
                assert_eq!(
                    ts[0].object,
                    TermPattern::Iri("https://purl.org/heals/feo#Characteristic".into())
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn property_path_plus() {
        let q = parse(
            "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
             SELECT ?t WHERE { ?t (rdfs:subClassOf+) <http://e/C> }",
        );
        match &q.where_pattern.elements[0] {
            GroupElement::Triples(ts) => {
                assert!(matches!(ts[0].path, Path::OneOrMore(_)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn a_plus_glued_to_a_number_is_its_sign() {
        let object = |src: &str| {
            let q = parse(&format!("SELECT * WHERE {{ <http://s> {src} }}"));
            let GroupElement::Triples(ts) = &q.where_pattern.elements[0] else {
                panic!("{src}")
            };
            (ts[0].path.clone(), ts[0].object.clone())
        };
        let p = || Path::Iri("http://p".into());
        let plus_seven = TermPattern::Literal(typed("+7".into(), xsd::INTEGER));
        assert_eq!(object("<http://p> +7"), (p(), plus_seven.clone()));
        assert_eq!(object("<http://p>+7"), (p(), plus_seven));
        assert_eq!(
            object("<http://p>+ 7"),
            (
                Path::OneOrMore(Box::new(p())),
                TermPattern::Literal(typed("7".into(), xsd::INTEGER))
            )
        );
        assert_eq!(
            object("<http://p>+?o"),
            (Path::OneOrMore(Box::new(p())), TermPattern::Var("o".into()))
        );
        // In an expression a `+` stays addition, glued or not.
        let q = parse("SELECT * WHERE { ?s ?p ?o FILTER(?o +1 > 0) }");
        let GroupElement::Filter(Expr::Compare(CompareOp::Gt, sum, _)) =
            &q.where_pattern.elements[1]
        else {
            panic!("{q:?}")
        };
        assert!(matches!(**sum, Expr::Arith(ArithOp::Add, _, _)), "{sum:?}");
    }

    #[test]
    fn path_operators_parse() {
        for (src, check) in [
            ("?a <p>/<q> ?b", "seq"),
            ("?a <p>|<q> ?b", "alt"),
            ("?a ^<p> ?b", "inv"),
            ("?a <p>* ?b", "star"),
            ("?a <p>? ?b", "opt"),
            ("?a !(<p>|<q>) ?b", "neg"),
        ] {
            let q = parse(&format!("SELECT * WHERE {{ {src} }}"));
            let GroupElement::Triples(ts) = &q.where_pattern.elements[0] else {
                panic!()
            };
            match check {
                "seq" => assert!(matches!(ts[0].path, Path::Sequence(_, _))),
                "alt" => assert!(matches!(ts[0].path, Path::Alternative(_, _))),
                "inv" => assert!(matches!(ts[0].path, Path::Inverse(_))),
                "star" => assert!(matches!(ts[0].path, Path::ZeroOrMore(_))),
                "opt" => assert!(matches!(ts[0].path, Path::ZeroOrOne(_))),
                "neg" => assert!(matches!(ts[0].path, Path::Negated(_))),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn filter_not_exists() {
        let q = parse(
            "SELECT ?c WHERE { ?c a <http://e/C> . \
             FILTER NOT EXISTS { ?c <http://e/p> <http://e/x> } }",
        );
        assert!(q
            .where_pattern
            .elements
            .iter()
            .any(|e| matches!(e, GroupElement::Filter(Expr::Exists(_, true)))));
    }

    #[test]
    fn optional_and_bind() {
        let q = parse(
            "SELECT * WHERE { \
               BIND (<http://e/q1> as ?question) . \
               ?question <http://e/param> ?p . \
               OPTIONAL { ?p <http://e/x> ?y } }",
        );
        assert!(matches!(
            q.where_pattern.elements[0],
            GroupElement::Bind(_, _)
        ));
        assert!(q
            .where_pattern
            .elements
            .iter()
            .any(|e| matches!(e, GroupElement::Optional(_))));
    }

    #[test]
    fn union_chain() {
        let q = parse("SELECT * WHERE { { ?a <p> ?b } UNION { ?a <q> ?b } UNION { ?a <r> ?b } }");
        match &q.where_pattern.elements[0] {
            GroupElement::Union(arms) => assert_eq!(arms.len(), 3),
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn values_single_and_multi() {
        let q = parse("SELECT * WHERE { VALUES ?x { <http://e/a> <http://e/b> } }");
        match &q.where_pattern.elements[0] {
            GroupElement::Values(v) => {
                assert_eq!(v.vars, vec!["x"]);
                assert_eq!(v.rows.len(), 2);
            }
            _ => panic!(),
        }
        let q = parse("SELECT * WHERE { VALUES (?x ?y) { (<http://e/a> 1) (UNDEF 2) } }");
        match &q.where_pattern.elements[0] {
            GroupElement::Values(v) => {
                assert_eq!(v.vars.len(), 2);
                assert_eq!(v.rows[1][0], None);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn group_by_aggregates() {
        let q = parse(
            "SELECT ?d (COUNT(?u) AS ?n) (AVG(?age) AS ?avg) \
             WHERE { ?u <http://e/diet> ?d ; <http://e/age> ?age } \
             GROUP BY ?d HAVING (COUNT(?u) > 1) ORDER BY DESC(?n) LIMIT 10 OFFSET 2",
        );
        assert_eq!(q.modifiers.group_by.len(), 1);
        assert_eq!(q.modifiers.having.len(), 1);
        assert_eq!(q.modifiers.order_by.len(), 1);
        assert!(q.modifiers.order_by[0].descending);
        assert_eq!(q.modifiers.limit, Some(10));
        assert_eq!(q.modifiers.offset, Some(2));
    }

    #[test]
    fn order_by_takes_a_bare_builtin_call() {
        let bare = parse("SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY STR(?x) ?y");
        let asc = parse("SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY ASC(STR(?x)) ?y");
        assert_eq!(bare.modifiers.order_by, asc.modifiers.order_by);
        assert!(matches!(
            bare.modifiers.order_by[0].expr,
            Expr::Call(Builtin::Str, _)
        ));
        // A variable key still ends where LIMIT begins.
        let q = parse("SELECT ?x WHERE { ?x <http://e/p> ?y } ORDER BY ?x LIMIT 1");
        assert_eq!(
            q.modifiers.order_by,
            [OrderCondition {
                expr: Expr::Var("x".into()),
                descending: false,
            }]
        );
        assert_eq!(q.modifiers.limit, Some(1));
    }

    #[test]
    fn construct_and_ask() {
        let q = parse("CONSTRUCT { ?s <http://e/derived> ?o } WHERE { ?s <http://e/p> ?o }");
        assert!(matches!(q.form, QueryForm::Construct { .. }));
        let q = parse("ASK { <http://e/a> <http://e/p> <http://e/b> }");
        assert!(matches!(q.form, QueryForm::Ask));
    }

    #[test]
    fn expressions_full_grammar() {
        let q = parse(
            r#"SELECT ?x WHERE { ?x <http://e/v> ?v .
               FILTER (?v > 2 && ?v <= 10 || !(?v = 5))
               FILTER (CONTAINS(STR(?x), "apple"))
               FILTER (?v IN (1, 2, 3) && ?v NOT IN (9))
               FILTER (REGEX(STR(?x), "^http", "i"))
               BIND (IF(BOUND(?v), ?v * 2 - 1, 0) AS ?w) }"#,
        );
        let filters = q
            .where_pattern
            .elements
            .iter()
            .filter(|e| matches!(e, GroupElement::Filter(_)))
            .count();
        assert_eq!(filters, 4);
    }

    #[test]
    fn blank_node_property_list_in_query() {
        let q = parse("SELECT ?v WHERE { ?x <http://e/p> [ <http://e/q> ?v ] }");
        let GroupElement::Triples(ts) = &q.where_pattern.elements[0] else {
            panic!()
        };
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn paper_listing_one_shape_parses() {
        // The shape of the paper's Listing 1 (contextual explanation CQ).
        let q = parse(
            r#"PREFIX feo: <https://purl.org/heals/feo#>
               PREFIX eo: <https://purl.org/heals/eo#>
               PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
               SELECT DISTINCT ?characteristic ?classes
               WHERE {
                 BIND (feo:WhyEatCauliflowerPotatoCurry as ?question) .
                 ?question feo:hasParameter ?parameter .
                 ?parameter feo:hasCharacteristic ?characteristic .
                 ?characteristic a ?classes .
                 ?classes rdfs:subClassOf feo:SystemCharacteristic .
                 FILTER NOT EXISTS { ?classes rdfs:subClassOf eo:knowledge } .
               }"#,
        );
        assert!(matches!(q.form, QueryForm::Select { distinct: true, .. }));
    }

    #[test]
    fn paper_listing_two_shape_parses() {
        let q = parse(
            r#"PREFIX feo: <https://purl.org/heals/feo#>
               PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
               SELECT DISTINCT ?factType ?factA ?foilType ?foilB
               WHERE {
                 BIND (feo:WhyEatAOverB as ?question) .
                 ?question feo:hasPrimaryParameter ?parameterA .
                 ?question feo:hasSecondaryParameter ?parameterB .
                 ?parameterA feo:hasCharacteristic ?factA .
                 ?factA a <https://purl.org/heals/eo#Fact> .
                 ?factA a ?factType .
                 ?factType (rdfs:subClassOf+) feo:Characteristic .
                 FILTER NOT EXISTS { ?factType rdfs:subClassOf <https://purl.org/heals/eo#knowledge> } .
                 FILTER NOT EXISTS { ?s rdfs:subClassOf ?factType } .
                 ?parameterB feo:hasCharacteristic ?foilB .
                 ?foilB a <https://purl.org/heals/eo#Foil> .
                 ?foilB a ?foilType .
                 ?foilType (rdfs:subClassOf+) feo:Characteristic .
                 FILTER NOT EXISTS { ?foilType rdfs:subClassOf <https://purl.org/heals/eo#knowledge> } .
                 FILTER NOT EXISTS { ?t rdfs:subClassOf ?foilType } .
               }"#,
        );
        assert!(matches!(q.form, QueryForm::Select { distinct: true, .. }));
    }

    #[test]
    fn errors_are_located() {
        let err = parse_query("SELECT ?x WHERE { ?x <http://e/p> }").unwrap_err();
        assert!(matches!(err, SparqlError::Parse { .. }));
        let err = parse_query("SELECT").unwrap_err();
        assert!(matches!(err, SparqlError::Parse { .. }));
        let err = parse_query("FROB ?x { }").unwrap_err();
        assert!(matches!(err, SparqlError::Parse { .. }));
    }

    #[test]
    fn undeclared_prefix_is_error() {
        assert!(parse_query("SELECT * WHERE { ?x nope:p ?y }").is_err());
    }
}
