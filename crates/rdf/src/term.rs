//! RDF 1.1 term model: IRIs, blank nodes, and literals.
//!
//! The [`crate::graph::Graph`] interns terms into [`crate::intern::TermId`]s
//! for storage and joins. A term's strings are `Arc<str>`, so a clone (a
//! dictionary entry, a result cell) shares them, and the literal
//! constructors' datatype IRIs are shared statics.

use std::fmt;
use std::sync::{Arc, LazyLock};

use crate::vocab::{rdf, xsd};

/// An IRI (RDF 1.1 "IRI" — we store the full absolute form, no relative
/// resolution happens at this level; the Turtle parser resolves against the
/// document base before constructing an `Iri`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Wraps a string as an IRI. The string is trusted to be an absolute
    /// IRI; parsers validate before calling this.
    pub fn new(iri: impl Into<String>) -> Self {
        Iri(iri.into().into())
    }

    /// The shared copy of `iri` when it is `xsd:string`, `xsd:integer`,
    /// `xsd:double`, `xsd:boolean` or `rdf:langString`.
    fn shared(iri: &str) -> Option<Iri> {
        use xsd::{BOOLEAN, DOUBLE, INTEGER, STRING};
        static SHARED: LazyLock<[Iri; 5]> = LazyLock::new(|| {
            [STRING, INTEGER, DOUBLE, BOOLEAN, rdf::LANG_STRING].map(|s| Iri(s.into()))
        });
        SHARED.iter().find(|d| d.as_str() == iri).cloned()
    }

    /// [`Iri::shared`] for one of those constants.
    fn datatype(iri: &'static str) -> Iri {
        Iri::shared(iri).unwrap_or_else(|| Iri::new(iri))
    }

    /// The IRI text, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Splits the IRI into (namespace, local-name) at the last `#`, `/`,
    /// or `:`. Returns the whole IRI as local name when no separator
    /// exists.
    pub fn split_local(&self) -> (&str, &str) {
        match self.0.rfind(['#', '/', ':']) {
            Some(i) => self.0.split_at(i + 1),
            None => ("", self.as_str()),
        }
    }

    /// The local name (fragment after the last `#` or `/`).
    pub fn local_name(&self) -> &str {
        self.split_local().1
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank node, identified by its label within a single document/graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    pub fn new(label: impl Into<String>) -> Self {
        BlankNode(label.into().into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF 1.1 literal.
///
/// Per RDF 1.1 every literal has a datatype: simple literals are
/// `xsd:string`, language-tagged literals are `rdf:langString`. The
/// constructors normalize to that representation so equality and hashing
/// follow the spec ("abc" == "abc"^^xsd:string).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    datatype: Iri,
    language: Option<Arc<str>>,
}

impl Literal {
    /// A simple literal — datatype `xsd:string`.
    pub fn simple(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into().into(),
            datatype: Iri::datatype(xsd::STRING),
            language: None,
        }
    }

    /// A language-tagged string — datatype `rdf:langString`. The language
    /// tag is lower-cased, matching Turtle/SPARQL comparison semantics.
    pub fn lang(lexical: impl Into<String>, tag: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into().into(),
            datatype: Iri::datatype(rdf::LANG_STRING),
            language: Some(tag.into().to_ascii_lowercase().into()),
        }
    }

    /// A typed literal with an explicit datatype IRI (a well-known one
    /// is swapped for its shared copy).
    pub fn typed(lexical: impl Into<String>, datatype: Iri) -> Self {
        let lexical = lexical.into();
        if datatype.as_str() == xsd::STRING {
            return Literal::simple(lexical);
        }
        Literal {
            lexical: lexical.into(),
            datatype: Iri::shared(datatype.as_str()).unwrap_or(datatype),
            language: None,
        }
    }

    /// An `xsd:boolean` literal in canonical form.
    pub fn boolean(v: bool) -> Self {
        Literal::typed(
            if v { "true" } else { "false" },
            Iri::datatype(xsd::BOOLEAN),
        )
    }

    /// An `xsd:integer` literal in canonical form.
    pub fn integer(v: i64) -> Self {
        Literal::typed(v.to_string(), Iri::datatype(xsd::INTEGER))
    }

    /// An `xsd:double` literal.
    pub fn double(v: f64) -> Self {
        Literal::typed(format_double(v), Iri::datatype(xsd::DOUBLE))
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(v: f64) -> Self {
        Literal::typed(format!("{v}"), Iri::new(xsd::DECIMAL))
    }

    pub fn lexical_form(&self) -> &str {
        &self.lexical
    }

    pub fn datatype(&self) -> &Iri {
        &self.datatype
    }

    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// Parses the lexical form as `xsd:boolean` if the datatype matches.
    pub fn as_bool(&self) -> Option<bool> {
        if self.datatype.as_str() != xsd::BOOLEAN {
            return None;
        }
        match &*self.lexical {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }

    /// Parses the lexical form as an integer when the datatype is one of
    /// the XSD integer types.
    pub fn as_integer(&self) -> Option<i64> {
        if xsd::is_integer_type(self.datatype.as_str()) {
            self.lexical.parse().ok()
        } else {
            None
        }
    }

    /// Parses the lexical form as a double when the datatype is any XSD
    /// numeric type.
    pub fn as_double(&self) -> Option<f64> {
        if xsd::is_numeric_type(self.datatype.as_str()) {
            self.lexical.trim().parse().ok()
        } else {
            None
        }
    }

    /// True when this literal's datatype is numeric (integer, decimal,
    /// float, double and friends).
    pub fn is_numeric(&self) -> bool {
        xsd::is_numeric_type(self.datatype.as_str())
    }
}

fn format_double(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        // Keep a decimal point so the form is still a valid double literal.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl fmt::Display for Literal {
    /// Writes the literal in Turtle/N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")
        } else if self.datatype.as_str() != xsd::STRING {
            write!(f, "^^{}", self.datatype)
        } else {
            Ok(())
        }
    }
}

/// Escapes a literal's lexical form for Turtle/N-Triples output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Any RDF term: IRI, blank node, or literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    Iri(Iri),
    BlankNode(BlankNode),
    Literal(Literal),
}

impl Term {
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    pub fn bnode(label: impl Into<String>) -> Self {
        Term::BlankNode(BlankNode::new(label))
    }

    pub fn simple(lexical: impl Into<String>) -> Self {
        Term::Literal(Literal::simple(lexical))
    }

    pub fn boolean(v: bool) -> Self {
        Term::Literal(Literal::boolean(v))
    }

    pub fn integer(v: i64) -> Self {
        Term::Literal(Literal::integer(v))
    }

    pub fn double(v: f64) -> Self {
        Term::Literal(Literal::double(v))
    }

    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// True for IRIs and blank nodes — terms allowed in subject position.
    pub fn is_resource(&self) -> bool {
        !self.is_literal()
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::BlankNode(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(i: Iri) -> Self {
        Term::Iri(i)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::BlankNode(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

/// An un-interned RDF triple, mostly used at API boundaries (parsers,
/// serializers). Internal storage uses interned ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl Triple {
    pub fn new(
        subject: impl Into<Term>,
        predicate: impl Into<Term>,
        object: impl Into<Term>,
    ) -> Self {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_literal_is_xsd_string() {
        let a = Literal::simple("abc");
        let b = Literal::typed("abc", Iri::new(xsd::STRING));
        assert_eq!(a, b);
        assert_eq!(a.datatype().as_str(), xsd::STRING);
    }

    #[test]
    fn lang_literal_normalizes_tag_case() {
        let l = Literal::lang("hello", "EN-us");
        assert_eq!(l.language(), Some("en-us"));
        assert_eq!(l.datatype().as_str(), rdf::LANG_STRING);
    }

    #[test]
    fn boolean_parsing() {
        assert_eq!(Literal::boolean(true).as_bool(), Some(true));
        assert_eq!(
            Literal::typed("1", Iri::new(xsd::BOOLEAN)).as_bool(),
            Some(true)
        );
        assert_eq!(
            Literal::typed("0", Iri::new(xsd::BOOLEAN)).as_bool(),
            Some(false)
        );
        assert_eq!(Literal::simple("true").as_bool(), None);
    }

    #[test]
    fn numeric_parsing() {
        assert_eq!(Literal::integer(42).as_integer(), Some(42));
        assert_eq!(Literal::integer(42).as_double(), Some(42.0));
        assert_eq!(Literal::double(2.5).as_double(), Some(2.5));
        assert!(Literal::double(2.5).as_integer().is_none());
        assert!(Literal::simple("42").as_integer().is_none());
    }

    #[test]
    fn iri_local_name() {
        assert_eq!(Iri::new("http://ex.org/feo#Autumn").local_name(), "Autumn");
        assert_eq!(Iri::new("http://ex.org/feo/Autumn").local_name(), "Autumn");
        assert_eq!(Iri::new("urn:x").local_name(), "x");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://e/x").to_string(), "<http://e/x>");
        assert_eq!(Term::bnode("b0").to_string(), "_:b0");
        assert_eq!(Term::simple("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::Literal(Literal::lang("hi", "en")).to_string(),
            "\"hi\"@en"
        );
        assert_eq!(
            Term::integer(3).to_string(),
            format!("\"3\"^^<{}>", xsd::INTEGER)
        );
    }

    #[test]
    fn literal_escaping() {
        let l = Literal::simple("a\"b\\c\nd");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn constructors_allocate_no_datatype_iri() {
        let dt = |t: Term| t.as_literal().map(|l| l.datatype().as_str().as_ptr());
        let parsed = |lexical, iri| Term::Literal(Literal::typed(lexical, Iri::new(iri)));
        assert_eq!(dt(Term::simple("a")), dt(parsed("b", xsd::STRING)));
        assert_eq!(dt(Term::integer(7)), dt(parsed("8", xsd::INTEGER)));
    }

    #[test]
    fn double_formatting_keeps_decimal_point() {
        assert_eq!(Literal::double(2.0).lexical_form(), "2.0");
        assert_eq!(Literal::double(2.5).lexical_form(), "2.5");
    }
}
