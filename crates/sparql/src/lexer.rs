//! SPARQL tokenizer.
//!
//! Produces a flat token stream with positions; the parser is a recursive
//! descent over this stream. Keywords are recognized case-insensitively at
//! parse time (they are lexed as `Word`), so variable-free prefixed names
//! like `feo:Select` never collide with keywords. IRIs, strings, language
//! tags, numbers, prefixed names and blank node labels are scanned by
//! [`feo_rdf::syntax`], the scanners the Turtle reader uses.

use feo_rdf::syntax::{Cursor, SyntaxError};

use crate::error::Result;

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    /// `<...>` IRI reference (raw text, unresolved).
    IriRef(String),
    /// `prefix:local` or `prefix:` or `:local` — kept split.
    PName {
        prefix: String,
        local: String,
    },
    /// `?name` or `$name`.
    Var(String),
    /// `_:label`.
    BlankLabel(String),
    /// String literal (escapes already processed).
    Str(String),
    /// `@lang`.
    LangTag(String),
    /// Unsigned numeric literal: lexical form and `xsd:` datatype.
    Number(String, &'static str),
    /// Bare word: keyword, `a`, `true`, `false`, function names.
    Word(String),
    /// `^^`
    DtSep,
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    Semicolon,
    Comma,
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
    AndAnd,
    OrOr,
    Bang,
    Plus,
    Minus,
    Star,
    Slash,
    /// `|` (path alternative)
    Pipe,
    /// `^` (path inverse)
    Caret,
    /// `?` used as a path modifier (only emitted when not followed by a
    /// variable name).
    Question,
    Eof,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub(crate) tok: Tok,
    pub(crate) line: usize,
    pub(crate) column: usize,
}

pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut cur = Cursor::new(input);
    let mut out = Vec::new();
    loop {
        cur.skip_ws();
        let (line, column) = cur.position();
        let Some(c) = cur.peek() else {
            out.push(Token {
                tok: Tok::Eof,
                line,
                column,
            });
            return Ok(out);
        };
        let tok = next_token(&mut cur, c)?;
        out.push(Token { tok, line, column });
    }
}

/// The token starting with `c`, the next character of `cur`.
fn next_token(cur: &mut Cursor, c: char) -> std::result::Result<Tok, SyntaxError> {
    // A character that is a token on its own.
    let single = match c {
        '{' => Some(Tok::LBrace),
        '}' => Some(Tok::RBrace),
        '(' => Some(Tok::LParen),
        ')' => Some(Tok::RParen),
        '[' => Some(Tok::LBracket),
        ']' => Some(Tok::RBracket),
        ';' => Some(Tok::Semicolon),
        ',' => Some(Tok::Comma),
        '=' => Some(Tok::Eq),
        '+' => Some(Tok::Plus),
        '-' => Some(Tok::Minus),
        '*' => Some(Tok::Star),
        '/' => Some(Tok::Slash),
        _ => None,
    };
    if let Some(tok) = single {
        cur.bump();
        return Ok(tok);
    }
    // `op` when `second` follows the first character, else `alone`.
    let pair = |cur: &mut Cursor, second: char, op: Tok, alone: Tok| {
        cur.bump();
        if cur.eat(second) {
            op
        } else {
            alone
        }
    };
    Ok(match c {
        // `<=` stays less-or-equal; a `<` no IRIREF follows is less-than.
        '<' if cur.peek_at(1) == Some('=') => pair(cur, '=', Tok::Le, Tok::Lt),
        '<' => match cur.iri_ref()? {
            Some(iri) => Tok::IriRef(iri),
            None => {
                cur.bump();
                Tok::Lt
            }
        },
        '>' => pair(cur, '=', Tok::Ge, Tok::Gt),
        '!' => pair(cur, '=', Tok::Ne, Tok::Bang),
        '^' => pair(cur, '^', Tok::DtSep, Tok::Caret),
        '|' => pair(cur, '|', Tok::OrOr, Tok::Pipe),
        '&' if cur.peek_at(1) == Some('&') => {
            cur.bump();
            cur.bump();
            Tok::AndAnd
        }
        // Variable if a name char follows, else path '?'.
        '?' | '$'
            if cur
                .peek_at(1)
                .is_some_and(|n| n.is_alphanumeric() || n == '_') =>
        {
            cur.bump();
            let mut name = String::new();
            while let Some(c) = cur.peek().filter(|c| c.is_alphanumeric() || *c == '_') {
                name.push(c);
                cur.bump();
            }
            Tok::Var(name)
        }
        '?' | '$' => {
            cur.bump();
            Tok::Question
        }
        '_' if cur.peek_at(1) == Some(':') => Tok::BlankLabel(cur.blank_label()?),
        '"' | '\'' => Tok::Str(cur.string()?),
        '@' => Tok::LangTag(cur.lang_tag()?),
        '.' | '0'..='9' => match cur.number() {
            Some((lexical, datatype)) => Tok::Number(lexical, datatype),
            None => {
                cur.bump();
                Tok::Dot
            }
        },
        c if c.is_alphabetic() || c == '_' || c == ':' => match cur.prefixed_name()? {
            Some((prefix, local)) => Tok::PName { prefix, local },
            None => {
                let mut word = String::new();
                while let Some(c) = cur
                    .peek()
                    .filter(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                {
                    word.push(c);
                    cur.bump();
                }
                Tok::Word(word)
            }
        },
        other => return cur.error(format!("unexpected character '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SparqlError;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn variables_and_question_modifier() {
        assert_eq!(
            toks("?x $y ?"),
            vec![
                Tok::Var("x".into()),
                Tok::Var("y".into()),
                Tok::Question,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn iri_vs_less_than() {
        assert_eq!(
            toks("<http://e/a> < <= ?x <> ?x<3"),
            vec![
                Tok::IriRef("http://e/a".into()),
                Tok::Lt,
                Tok::Le,
                Tok::Var("x".into()),
                Tok::IriRef("".into()),
                Tok::Var("x".into()),
                Tok::Lt,
                Tok::Number("3".into(), feo_rdf::vocab::xsd::INTEGER),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn pnames_and_words() {
        assert_eq!(
            toks("SELECT feo:Autumn rdfs:subClassOf a :x"),
            vec![
                Tok::Word("SELECT".into()),
                Tok::PName {
                    prefix: "feo".into(),
                    local: "Autumn".into()
                },
                Tok::PName {
                    prefix: "rdfs".into(),
                    local: "subClassOf".into()
                },
                Tok::Word("a".into()),
                Tok::PName {
                    prefix: "".into(),
                    local: "x".into()
                },
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("= != <= >= && || ! + - * / ^^ ^ | ."),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Bang,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::DtSep,
                Tok::Caret,
                Tok::Pipe,
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        use feo_rdf::vocab::xsd;
        assert_eq!(
            toks("42 3.5 1e3 .5 1.e5"),
            vec![
                Tok::Number("42".into(), xsd::INTEGER),
                Tok::Number("3.5".into(), xsd::DECIMAL),
                Tok::Number("1e3".into(), xsd::DOUBLE),
                Tok::Number(".5".into(), xsd::DECIMAL),
                Tok::Number("1.e5".into(), xsd::DOUBLE),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_and_tags() {
        assert_eq!(
            toks(r#""hi" 'there' "esc\"d" "v"@en "x"^^xsd:integer"#),
            vec![
                Tok::Str("hi".into()),
                Tok::Str("there".into()),
                Tok::Str("esc\"d".into()),
                Tok::Str("v".into()),
                Tok::LangTag("en".into()),
                Tok::Str("x".into()),
                Tok::DtSep,
                Tok::PName {
                    prefix: "xsd".into(),
                    local: "integer".into()
                },
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("SELECT # all of it\n *"),
            vec![Tok::Word("SELECT".into()), Tok::Star, Tok::Eof]
        );
    }

    #[test]
    fn blank_labels() {
        assert_eq!(toks("_:b0"), vec![Tok::BlankLabel("b0".into()), Tok::Eof]);
    }

    #[test]
    fn error_position() {
        let err = tokenize("?x ~").unwrap_err();
        match err {
            SparqlError::Parse { line, column, .. } => {
                assert_eq!(line, 1);
                assert_eq!(column, 4);
            }
            _ => panic!(),
        }
    }
}
