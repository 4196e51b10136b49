//! RDF term syntax shared by the Turtle and SPARQL readers.
//!
//! Turtle 1.1 §6.5 reuses SPARQL 1.1 §19.8's terminals, so both readers
//! walk the same [`Cursor`] and call the one scanner each terminal has
//! here: IRIREF (with `\u` / `\U`), the four string forms (with ECHAR and
//! UCHAR), LANGTAG, the unsigned number, the prefixed name and the blank
//! node label. Each grammar keeps its own productions on top: Turtle its
//! directives, lists and prefix expansion, SPARQL its variables,
//! operators and keywords. Name characters are alphanumerics, `_` and
//! `-`; a `.` belongs to a name only when a name character follows it
//! (in a local name also `:`, `%` or `\`).

use crate::vocab::xsd;

/// A syntax error at a 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    pub message: String,
    pub line: usize,
    pub column: usize,
}

/// Characters a `\` may escape in a prefixed name's local part.
const LOCAL_ESCAPES: &str = "_~.-!$&'()*+,;=/?#@%";

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// A char cursor over one document with 1-based line/column tracking.
pub struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    column: usize,
}

impl Cursor {
    pub fn new(input: &str) -> Self {
        Cursor {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            column: 1,
        }
    }

    /// The (line, column) of the next character.
    pub fn position(&self) -> (usize, usize) {
        (self.line, self.column)
    }

    /// An error located at the next character.
    pub fn error<T>(&self, message: impl Into<String>) -> Result<T, SyntaxError> {
        Err(SyntaxError {
            message: message.into(),
            line: self.line,
            column: self.column,
        })
    }

    pub fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    pub fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    pub fn bump(&mut self) -> Option<char> {
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

    /// Consumes `c` if it is next.
    pub fn eat(&mut self, c: char) -> bool {
        let next = self.peek() == Some(c);
        if next {
            self.bump();
        }
        next
    }

    /// Skips whitespace and `#` comments.
    pub fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while self.peek().is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Consumes the next `n` characters.
    fn take(&mut self, n: usize) -> String {
        (0..n).filter_map(|_| self.bump()).collect()
    }

    /// The offset where a run of name characters starting at `off` ends.
    fn name_end(&self, mut off: usize) -> usize {
        loop {
            match self.peek_at(off) {
                Some(c) if is_name_char(c) => off += 1,
                Some('.') if self.peek_at(off + 1).is_some_and(is_name_char) => off += 1,
                _ => return off,
            }
        }
    }

    /// The offset where a run of ASCII digits starting at `off` ends.
    fn digits_end(&self, mut off: usize) -> usize {
        while self.peek_at(off).is_some_and(|c| c.is_ascii_digit()) {
            off += 1;
        }
        off
    }

    /// The offset where an exponent (`[eE][+-]?[0-9]+`) starting at `off`
    /// ends, or `off` when there is none.
    fn exponent_end(&self, off: usize) -> usize {
        if !matches!(self.peek_at(off), Some('e' | 'E')) {
            return off;
        }
        let sign = usize::from(matches!(self.peek_at(off + 1), Some('+' | '-')));
        let end = self.digits_end(off + 1 + sign);
        if end > off + 1 + sign {
            end
        } else {
            off
        }
    }

    /// IRIREF: `<`, characters other than whitespace and `<>"{}|^``,
    /// then `>`; `\u` / `\U` escapes are decoded. Returns the raw
    /// (unresolved) text, or `None`, consuming nothing, when no IRIREF
    /// starts here.
    pub fn iri_ref(&mut self) -> Result<Option<String>, SyntaxError> {
        if self.peek() != Some('<') {
            return Ok(None);
        }
        let mut end = 1;
        loop {
            match self.peek_at(end) {
                Some('>') => break,
                Some(c) if c > ' ' && !c.is_whitespace() && !"<\"{}|^`".contains(c) => end += 1,
                _ => return Ok(None),
            }
        }
        self.bump();
        let mut out = String::with_capacity(end - 1);
        loop {
            match self.bump() {
                Some('>') => return Ok(Some(out)),
                Some('\\') => match self.bump() {
                    Some('u') => out.push(self.unicode_escape(4)?),
                    Some('U') => out.push(self.unicode_escape(8)?),
                    _ => return self.error("invalid IRI escape"),
                },
                Some(c) => out.push(c),
                None => return self.error("unterminated IRI"),
            }
        }
    }

    /// A string in any of the four quote forms (`"…"`, `'…'`, `"""…"""`,
    /// `'''…'''`), escapes decoded.
    pub fn string(&mut self) -> Result<String, SyntaxError> {
        let Some(quote @ ('"' | '\'')) = self.peek() else {
            return self.error("expected string literal");
        };
        let long = self.peek_at(1) == Some(quote) && self.peek_at(2) == Some(quote);
        self.take(if long { 3 } else { 1 });
        let mut out = String::new();
        loop {
            if long && (0..3).all(|i| self.peek_at(i) == Some(quote)) {
                // Quotes are greedy: in `""""""` closing a string that ends
                // with `"`, the final three quotes terminate and any extras
                // before them belong to the content.
                while self.peek_at(3) == Some(quote) {
                    out.push(quote);
                    self.bump();
                }
                self.take(3);
                return Ok(out);
            }
            match self.bump() {
                Some(c) if c == quote && !long => return Ok(out),
                Some('\\') => out.push(self.escape()?),
                Some('\n') if !long => return self.error("newline in string literal"),
                Some(c) => out.push(c),
                None => return self.error("unterminated string"),
            }
        }
    }

    /// ECHAR or UCHAR, after its `\`.
    fn escape(&mut self) -> Result<char, SyntaxError> {
        match self.bump() {
            Some('t') => Ok('\t'),
            Some('b') => Ok('\u{8}'),
            Some('n') => Ok('\n'),
            Some('r') => Ok('\r'),
            Some('f') => Ok('\u{c}'),
            Some('"') => Ok('"'),
            Some('\'') => Ok('\''),
            Some('\\') => Ok('\\'),
            Some('u') => self.unicode_escape(4),
            Some('U') => self.unicode_escape(8),
            Some(c) => self.error(format!("invalid escape '\\{c}'")),
            None => self.error("unterminated escape"),
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, SyntaxError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            match self.bump().and_then(|c| c.to_digit(16)) {
                Some(d) => v = v * 16 + d,
                None => return self.error("invalid unicode escape"),
            }
        }
        char::from_u32(v).map_or_else(|| self.error("invalid unicode code point"), Ok)
    }

    /// LANGTAG: `@` and the tag (ASCII alphanumerics and `-`).
    pub fn lang_tag(&mut self) -> Result<String, SyntaxError> {
        if !self.eat('@') {
            return self.error("expected language tag");
        }
        let mut end = 0;
        while self
            .peek_at(end)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '-')
        {
            end += 1;
        }
        if end == 0 {
            return self.error("empty language tag");
        }
        Ok(self.take(end))
    }

    /// An unsigned INTEGER, DECIMAL or DOUBLE: its lexical form and its
    /// `xsd:` datatype, or `None`, consuming nothing, when no number
    /// starts here. A `.` no digit or exponent follows is left unread,
    /// so it can end a statement.
    pub fn number(&mut self) -> Option<(String, &'static str)> {
        let mut end = self.digits_end(0);
        let mut datatype = xsd::INTEGER;
        if self.peek_at(end) == Some('.') {
            let fraction = self.digits_end(end + 1);
            if fraction > end + 1 || (end > 0 && self.exponent_end(end + 1) > end + 1) {
                end = fraction;
                datatype = xsd::DECIMAL;
            }
        }
        if end == 0 {
            return None;
        }
        let exponent = self.exponent_end(end);
        if exponent > end {
            end = exponent;
            datatype = xsd::DOUBLE;
        }
        Some((self.take(end), datatype))
    }

    /// A prefixed name as (prefix, local), the local's `\` escapes
    /// decoded and its `%hh` kept; `None`, consuming nothing, when no
    /// `prefix:` starts here.
    pub fn prefixed_name(&mut self) -> Result<Option<(String, String)>, SyntaxError> {
        let end = self.name_end(0);
        if self.peek_at(end) != Some(':') {
            return Ok(None);
        }
        let prefix = self.take(end);
        self.bump();
        let mut local = String::new();
        loop {
            match self.peek() {
                Some('\\') => {
                    self.bump();
                    match self.bump() {
                        Some(e) if LOCAL_ESCAPES.contains(e) => local.push(e),
                        _ => return self.error("invalid local name escape"),
                    }
                }
                Some('%') => {
                    if !(1..3).all(|i| self.peek_at(i).is_some_and(|c| c.is_ascii_hexdigit())) {
                        return self.error("invalid percent encoding in local name");
                    }
                    local.push_str(&self.take(3));
                }
                Some(c) if is_name_char(c) || c == ':' || (c == '.' && self.dot_inside_local()) => {
                    local.push(c);
                    self.bump();
                }
                _ => return Ok(Some((prefix, local))),
            }
        }
    }

    /// Whether the `.` at the cursor continues a local name: a name
    /// character, `:`, `%` or `\` follows it.
    fn dot_inside_local(&self) -> bool {
        (self.peek_at(1)).is_some_and(|n| is_name_char(n) || matches!(n, ':' | '%' | '\\'))
    }

    /// BLANK_NODE_LABEL: `_:` and the label.
    pub fn blank_label(&mut self) -> Result<String, SyntaxError> {
        if self.peek() != Some('_') || self.peek_at(1) != Some(':') {
            return self.error("expected blank node label");
        }
        self.take(2);
        let end = self.name_end(0);
        if end == 0 {
            return self.error("empty blank node label");
        }
        Ok(self.take(end))
    }
}

/// Whether `p:{local}` reads back as a prefixed name with exactly this
/// local part: the writer's test for printing an IRI compacted.
pub(crate) fn reads_back_as_local(local: &str) -> bool {
    let mut cur = Cursor::new(&format!("p:{local}"));
    matches!(cur.prefixed_name(), Ok(Some((_, l))) if l == local) && cur.peek().is_none()
}
