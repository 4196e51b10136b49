//! The wire format: one JSON writer and one JSON reader.
//!
//! The HTTP explanation service and the `feo --json` CLI flag read and
//! write JSON here and nowhere else, so the two can never drift apart
//! and neither needs a serde dependency the offline build doesn't have.
//!
//! - **Writer.** [`ToJson`] renders the engine's types —
//!   [`Explanation`], [`BudgetedOutcome`], [`DegradationReport`],
//!   [`CommitInfo`] and SPARQL [`QueryResult`]s — and [`object`] /
//!   [`Object`] write every other document (the server's status, error
//!   and `/stats` bodies, the `feo history --json` envelope). Everything
//!   is appended to one `String` through one string escaper; no member
//!   is rendered into a string of its own first.
//! - **Reader.** [`Json::parse`] accepts exactly RFC 8259 JSON, with a
//!   nesting cap, in one linear pass; the accessors make a request
//!   handler read like the schema it checks.
//!
//! SELECT results follow the W3C "SPARQL 1.1 Query Results JSON Format"
//! shape (`head.vars` + `results.bindings`, terms tagged with `type`
//! and `value`), so standard tooling can consume `/query` responses.

use std::borrow::BorrowMut;

use feo_rdf::governor::{Exhausted, Resource};
use feo_rdf::Term;
use feo_sparql::{QueryResult, SolutionTable};

use crate::cache::PlanCacheStats;
use crate::engine::{BudgetedOutcome, CommitInfo, DegradationReport};
use crate::explanation::Explanation;
use crate::question::ExplanationType;

// ---- Writer ----------------------------------------------------------

/// A type with a canonical JSON rendering.
pub trait ToJson {
    /// Appends the value's JSON to `out`.
    fn write_json(&self, out: &mut String);

    /// The value rendered as a self-contained JSON document (no
    /// trailing newline).
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Escapes `s` per RFC 8259 and wraps it in double quotes.
pub fn json_string(s: &str) -> String {
    s.to_json()
}

/// A new document holding one object: add its members, then
/// [`Object::end`] returns the text.
pub fn object() -> Object<String> {
    Object::open(String::new())
}

/// A JSON object being written into `W` (an owned document, or the
/// `&mut String` of an enclosing one): `{`, one member per call in call
/// order, and `}` at [`Object::end`].
#[must_use = "an object is closed by `end`"]
pub struct Object<W: BorrowMut<String>> {
    out: W,
    empty: bool,
}

impl<W: BorrowMut<String>> Object<W> {
    /// Opens an object at the end of `out`.
    fn open(mut out: W) -> Self {
        out.borrow_mut().push('{');
        Object { out, empty: true }
    }

    /// Adds `"key":value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        value.write_json(self.key(key));
        self
    }

    /// Adds `"key":{…}`, its members added by `members`.
    pub fn object(
        mut self,
        key: &str,
        members: impl FnOnce(Object<&mut String>) -> Object<&mut String>,
    ) -> Self {
        members(Object::open(self.key(key))).end();
        self
    }

    /// Adds `"key":` followed by whatever `value` appends.
    fn field_with(mut self, key: &str, value: impl FnOnce(&mut String)) -> Self {
        value(self.key(key));
        self
    }

    /// Closes the object and hands back the document.
    pub fn end(mut self) -> W {
        self.out.borrow_mut().push('}');
        self.out
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = self.out.borrow_mut();
        if !std::mem::replace(&mut self.empty, false) {
            out.push(',');
        }
        write_str(out, key);
        out.push(':');
        out
    }
}

/// The one string escaper: `s` quoted, with `"`, `\` and the control
/// characters escaped (`\n`, `\r`, `\t`, else `\u00XX`); everything
/// else, U+2028/2029 and astral characters included, is copied as is.
fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Only ASCII bytes are escaped, so every cut is a char boundary.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escaped);
        if escaped == "\\u00" {
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn write_array<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        (*self as u64).write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `null` when absent.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_array(out, self, |out, item| item.write_json(out));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl ToJson for Exhausted {
    fn write_json(&self, out: &mut String) {
        // Stable machine-readable names (the prose stays on `Display`).
        let resource = match self.resource {
            Resource::WallClock => "wall_clock",
            Resource::InferredTriples => "inferred_triples",
            Resource::Rounds => "rounds",
            Resource::Solutions => "solutions",
            Resource::InputSize => "input_size",
            Resource::Cancelled => "cancelled",
        };
        Object::open(out)
            .field("resource", resource)
            .field("spent", self.spent)
            .field("limit", self.limit)
            .field("message", self.to_string())
            .end();
    }
}

/// The type's label (`"Contextual Explanations"`, …).
impl ToJson for ExplanationType {
    fn write_json(&self, out: &mut String) {
        write_str(out, self.label());
    }
}

impl ToJson for DegradationReport {
    fn write_json(&self, out: &mut String) {
        Object::open(out)
            .field("exhausted", self.exhausted)
            .field("completed", &self.completed)
            .field("skipped", &self.skipped)
            .end();
    }
}

impl ToJson for Explanation {
    fn write_json(&self, out: &mut String) {
        Object::open(out)
            .field("question", self.question.text())
            .field("type", self.explanation_type)
            .field("statements", &self.statements)
            .field("answer", &self.answer)
            .end();
    }
}

impl ToJson for BudgetedOutcome {
    fn write_json(&self, out: &mut String) {
        Object::open(out)
            .field("complete", self.is_complete())
            .field("explanations", &self.explanations)
            .field("degradation", &self.degradation)
            .end();
    }
}

impl ToJson for CommitInfo {
    fn write_json(&self, out: &mut String) {
        Object::open(out)
            .field("epoch", self.epoch.0)
            .field("label", &self.label)
            .field("triples", self.triples)
            .field("terms", self.terms)
            .field("inferred", self.inferred)
            // Hex string: a u64 hash can exceed the 2^53 range JSON
            // numbers survive round-tripping through doubles.
            .field("hash", format!("{:016x}", self.hash))
            .end();
    }
}

impl ToJson for PlanCacheStats {
    fn write_json(&self, out: &mut String) {
        Object::open(out)
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("entries", self.entries)
            .end();
    }
}

/// One solution term in the W3C results-JSON shape.
impl ToJson for Term {
    fn write_json(&self, out: &mut String) {
        let term = Object::open(out);
        match self {
            Term::Iri(iri) => term.field("type", "uri").field("value", iri.as_str()),
            Term::BlankNode(b) => term.field("type", "bnode").field("value", b.as_str()),
            Term::Literal(lit) => {
                let term = term
                    .field("type", "literal")
                    .field("value", lit.lexical_form());
                match lit.language() {
                    Some(tag) => term.field("xml:lang", tag),
                    None => term.field("datatype", lit.datatype().as_str()),
                }
            }
        }
        .end();
    }
}

impl ToJson for SolutionTable {
    fn write_json(&self, out: &mut String) {
        // One object per row; unbound cells are omitted.
        let bindings = |out: &mut String| {
            write_array(out, &self.rows, |out, row| {
                let mut binding = Object::open(out);
                for (var, cell) in self.vars.iter().zip(row) {
                    if let Some(term) = cell {
                        binding = binding.field(var, term);
                    }
                }
                binding.end();
            })
        };
        Object::open(out)
            .object("head", |head| head.field("vars", &self.vars))
            .object("results", |r| r.field_with("bindings", bindings))
            .end();
    }
}

impl ToJson for QueryResult {
    fn write_json(&self, out: &mut String) {
        let result = match self {
            QueryResult::Solutions(table) => return table.write_json(out),
            QueryResult::Boolean(b) => Object::open(out)
                .object("head", |head| head)
                .field("boolean", *b),
            QueryResult::Graph(g) => {
                let turtle = feo_rdf::turtle::write_turtle(g, feo_ontology::ns::PREFIXES);
                Object::open(out).field("graph", turtle)
            }
            QueryResult::Plan(plan) => Object::open(out).field("plan", plan),
        };
        result.end();
    }
}

// ---- Reader ----------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order (duplicate keys keep the
    /// first occurrence on lookup).
    Obj(Vec<(String, Json)>),
}

/// Nesting cap — far above anything the request schema needs, low
/// enough that hostile bodies cannot blow the parse stack.
const MAX_DEPTH: usize = 32;

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut reader = Reader {
            text: input,
            pos: 0,
        };
        let value = reader.value(0)?;
        reader.skip_ws();
        if reader.pos != input.len() {
            return Err(format!("trailing bytes at offset {}", reader.pos));
        }
        Ok(value)
    }

    /// Object member lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member as an unsigned integer; rejects negatives and
    /// fractional values rather than truncating them silently.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A recursive-descent reader over a document; `pos` is a byte offset
/// and every error names one.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// An error naming `what` went wrong at `pos`.
    fn fail<T>(&self, what: impl std::fmt::Display) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |r| r.value(depth + 1).map(|item| items.push(item)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(b'}', |r| {
                    r.skip_ws();
                    if r.peek() != Some(b'"') {
                        return r.fail("expected member name");
                    }
                    let key = r.string()?;
                    r.skip_ws();
                    if !r.eat(b':') {
                        return r.fail("expected ':'");
                    }
                    r.value(depth + 1).map(|value| members.push((key, value)))
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => self.fail(format_args!("unexpected byte {:?}", c as char)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail("bad literal")
        }
    }

    /// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`. The span
    /// read is every number-like byte, so `01` or `1.` is one bad
    /// number rather than a number and trailing bytes.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // Rust's float syntax is RFC 8259's plus a leading `+`, leading
        // zeros and an empty integer or fraction part; only the last
        // three can follow a digit or `-`.
        let unsigned = text.strip_prefix('-').unwrap_or(text).as_bytes();
        let int = unsigned.iter().take_while(|b| b.is_ascii_digit()).count();
        let fraction_ok = unsigned.get(int) != Some(&b'.')
            || unsigned.get(int + 1).is_some_and(u8::is_ascii_digit);
        let rfc = (int == 1 || int > 1 && unsigned[0] != b'0') && fraction_ok;
        match text.parse::<f64>() {
            Ok(n) if rfc => Ok(Json::Num(n)),
            _ => Err(format!("bad number {text:?} at offset {start}")),
        }
    }

    /// A string, the opening quote at `pos`. Runs without escapes are
    /// copied whole, so the scan is linear in the string's length.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                    self.pos += 1;
                }
                Some(_) => return self.fail("raw control byte in string"),
            }
        }
    }

    /// The escape whose letter is at `pos`; leaves `pos` on its last byte.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                // A high surrogate must be followed by an escaped low
                // surrogate; a lone low surrogate is not a char.
                let c = if (0xD800..0xDC00).contains(&code) {
                    let low = match self.text.as_bytes().get(self.pos + 1..self.pos + 3) {
                        Some(b"\\u") => self.hex4(self.pos + 3)?,
                        _ => 0,
                    };
                    if (0xDC00..0xE000).contains(&low) {
                        self.pos += 6;
                        char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                return c.ok_or_else(|| format!("bad \\u escape near offset {}", self.pos));
            }
            _ => return self.fail("bad escape"),
        };
        Ok(c)
    }

    fn hex4(&self, at: usize) -> Result<u32, String> {
        let Some(digits) = self.text.as_bytes().get(at..at + 4) else {
            return Err(format!("truncated \\u escape at offset {at}"));
        };
        digits
            .iter()
            .try_fold(0, |code, &d| Some(code << 4 | char::from(d).to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at offset {at}"))
    }

    /// The `,`-separated items of an array or object up to `close`,
    /// each read by `item`; the opening bracket is at `pos`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if !self.eat(b',') {
                return match self.eat(close) {
                    true => Ok(()),
                    false => self.fail(format_args!("expected ',' or '{}'", close as char)),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::{EpochId, Literal};

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("\u{1f}é\u{2028}🥦"), "\"\\u001fé\u{2028}🥦\"");
    }

    #[test]
    fn objects_nest_in_call_order() {
        let doc = object()
            .field("a", 1u64)
            .object("b", |b| b.field("c", "x").field("d", None::<bool>))
            .object("e", |e| e)
            .field("f", &["g".to_string()][..])
            .end();
        assert_eq!(doc, r#"{"a":1,"b":{"c":"x","d":null},"e":{},"f":["g"]}"#);
    }

    #[test]
    fn exhausted_names_resource_stably() {
        let e = Exhausted {
            resource: Resource::WallClock,
            spent: 12,
            limit: 10,
        };
        let json = e.to_json();
        assert!(json.contains("\"resource\":\"wall_clock\""), "{json}");
        assert!(json.contains("\"spent\":12"), "{json}");
    }

    #[test]
    fn commit_hash_renders_as_hex_string() {
        let info = CommitInfo {
            epoch: EpochId(3),
            label: "session".into(),
            triples: 7,
            terms: 2,
            inferred: 1,
            hash: 0xdead_beef,
        };
        let json = info.to_json();
        assert!(json.contains("\"epoch\":3"), "{json}");
        assert!(json.contains("\"hash\":\"00000000deadbeef\""), "{json}");
    }

    #[test]
    fn solution_table_uses_w3c_shape() {
        let table = SolutionTable {
            vars: vec!["s".into(), "o".into()],
            rows: vec![vec![
                Some(Term::iri("http://e/a")),
                Some(Term::Literal(Literal::lang("hi", "en"))),
            ]],
        };
        let json = table.to_json();
        assert!(json.contains("\"vars\":[\"s\",\"o\"]"), "{json}");
        assert!(json.contains("\"type\":\"uri\""), "{json}");
        assert!(json.contains("\"xml:lang\":\"en\""), "{json}");
    }

    #[test]
    fn unbound_cells_are_omitted() {
        let table = SolutionTable {
            vars: vec!["s".into(), "o".into()],
            rows: vec![vec![None, Some(Term::integer(4))]],
        };
        let json = table.to_json();
        assert!(!json.contains("\"s\":"), "{json}");
        assert!(json.contains("\"o\":"), "{json}");
        assert!(json.contains("integer"), "typed literal datatype: {json}");
    }

    #[test]
    fn parses_request_shaped_document() {
        let doc = r#"{
            "questions": [
                {"type": "why-eat", "food": "Chicken"},
                {"type": "what-if", "hypothesis": "diet:DashDiet"}
            ],
            "budget": {"deadline_ms": 250, "max_inferred": 10000},
            "parallelism": 2
        }"#;
        let v = Json::parse(doc).expect("parses");
        let questions = v.get("questions").and_then(Json::as_array).expect("array");
        assert_eq!(questions.len(), 2);
        assert_eq!(
            questions[0].get("type").and_then(Json::as_str),
            Some("why-eat")
        );
        assert_eq!(
            v.get("budget")
                .and_then(|b| b.get("deadline_ms"))
                .and_then(Json::as_u64),
            Some(250)
        );
        assert_eq!(v.get("parallelism").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\né🥦\ud83e\udd66\/""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\né🥦🥦/"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"\\u+041\"").is_err());
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn as_u64_refuses_lossy_numbers() {
        assert_eq!(Json::parse("3").ok().and_then(|v| v.as_u64()), Some(3));
        assert_eq!(Json::parse("3.5").ok().and_then(|v| v.as_u64()), None);
        assert_eq!(Json::parse("-3").ok().and_then(|v| v.as_u64()), None);
    }

    /// A string member as large as a request body may be parses in
    /// linear time (the scan once restarted a UTF-8 check at every
    /// character: 25 s for 1 MiB, optimized).
    #[test]
    fn a_string_as_large_as_a_body_parses_in_linear_time() {
        let member = "é🥦a".repeat((1 << 20) / 7 - 4);
        let doc = format!("{{\"sparql\":\"{member}\"}}");
        assert!(doc.len() < 1 << 20);
        let started = std::time::Instant::now();
        let value = Json::parse(&doc).expect("parses");
        assert_eq!(value.get("sparql").and_then(Json::as_str), Some(&*member));
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 2.0, "took {took:?}");
    }

    #[test]
    fn a_high_surrogate_needs_an_escaped_low_surrogate() {
        for bad in [
            r#""\uD800\u0041""#,
            r#""\uD800A""#,
            r#""\uD800""#,
            r#""\uDC00""#,
            r#""\uD800\uD800""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} accepted");
        }
        let v = Json::parse(r#""\uD83E\uDD66""#).expect("a pair parses");
        assert_eq!(v.as_str(), Some("🥦"));
    }

    #[test]
    fn numbers_follow_rfc_8259() {
        for bad in [
            "01", "-01", "00.5", "1.", "1.e5", "-0.", "-", ".5", "1e", "1e+", "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} accepted");
        }
        for (good, n) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("0.5", 0.5),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("-2.5e-3", -2.5e-3),
            ("120", 120.0),
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(n)), "{good}");
        }
    }
}
