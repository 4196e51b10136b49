//! Runtime values for SPARQL expression evaluation.
//!
//! Expression evaluation operates on [`Value`]: either a graph term
//! (by id, keeping identity for `sameTerm` / `DATATYPE` / projection) or a
//! computed scalar. Typed interpretation of literal terms happens lazily
//! inside the operations that need it, following the SPARQL operator
//! mapping (numeric promotion, string comparison, effective boolean
//! value).

use feo_rdf::term::{Literal, Term};
use feo_rdf::vocab::xsd;
use feo_rdf::{GraphStore, GraphView, TermId};

/// An expression value. `Term` preserves identity; the scalar variants
/// are produced by operators and builtins.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Term(TermId),
    Bool(bool),
    Int(i64),
    /// Non-integer numeric (decimal/double collapsed).
    Num(f64),
    Str {
        s: String,
        lang: Option<String>,
    },
    /// A computed IRI (from `IRI(...)`).
    IriStr(String),
}

impl Value {
    /// Converts to a concrete [`Term`], interning computed scalars into
    /// the store's writable dictionary (the scratch spill, when `g` is an
    /// overlay over a read-only view).
    pub fn into_term_id(self, g: &mut impl GraphStore) -> TermId {
        match self {
            Value::Term(id) => id,
            Value::Bool(b) => g.intern(&Term::boolean(b)),
            Value::Int(i) => g.intern(&Term::integer(i)),
            Value::Num(n) => g.intern(&Term::Literal(Literal::typed(
                format_num(n),
                feo_rdf::Iri::new(xsd::DOUBLE),
            ))),
            Value::Str { s, lang } => match lang {
                Some(l) => g.intern(&Term::Literal(Literal::lang(s, l))),
                None => g.intern(&Term::simple(s)),
            },
            Value::IriStr(iri) => g.intern(&Term::iri(iri)),
        }
    }
}

fn format_num(n: f64) -> String {
    if n == n.trunc() && n.is_finite() && n.abs() < 1e15 {
        format!("{n:.1}")
    } else {
        format!("{n}")
    }
}

/// Numeric view of a value, if any.
pub fn as_numeric<G: GraphView + ?Sized>(g: &G, v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Num(n) => Some(*n),
        Value::Bool(_) | Value::Str { .. } | Value::IriStr(_) => None,
        Value::Term(id) => match g.term(*id) {
            Term::Literal(l) => l.as_double(),
            _ => None,
        },
    }
}

/// Integer view (used where SPARQL wants integers, e.g. SUBSTR).
pub fn as_integer<G: GraphView + ?Sized>(g: &G, v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Num(n) if n.fract() == 0.0 => Some(*n as i64),
        Value::Term(id) => match g.term(*id) {
            Term::Literal(l) => l.as_integer(),
            _ => None,
        },
        _ => None,
    }
}

/// String view: lexical form plus language tag. IRIs only stringify via
/// the explicit STR() builtin, not implicitly.
pub fn as_string<G: GraphView + ?Sized>(g: &G, v: &Value) -> Option<(String, Option<String>)> {
    match v {
        Value::Str { s, lang } => Some((s.clone(), lang.clone())),
        Value::Term(id) => match g.term(*id) {
            Term::Literal(l) if l.datatype().as_str() == xsd::STRING => {
                Some((l.lexical_form().to_string(), None))
            }
            Term::Literal(l) if l.language().is_some() => Some((
                l.lexical_form().to_string(),
                l.language().map(str::to_string),
            )),
            _ => None,
        },
        _ => None,
    }
}

/// The STR() builtin view: literals yield their lexical form, IRIs their
/// text.
pub fn str_builtin<G: GraphView + ?Sized>(g: &G, v: &Value) -> Option<String> {
    match v {
        Value::Str { s, .. } => Some(s.clone()),
        Value::IriStr(i) => Some(i.clone()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Int(i) => Some(i.to_string()),
        Value::Num(n) => Some(format_num(*n)),
        Value::Term(id) => match g.term(*id) {
            Term::Iri(i) => Some(i.as_str().to_string()),
            Term::Literal(l) => Some(l.lexical_form().to_string()),
            Term::BlankNode(_) => None,
        },
    }
}

/// Boolean view, if directly boolean.
pub fn as_bool<G: GraphView + ?Sized>(g: &G, v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Term(id) => match g.term(*id) {
            Term::Literal(l) => l.as_bool(),
            _ => None,
        },
        _ => None,
    }
}

/// SPARQL effective boolean value. `None` = type error.
pub fn ebv<G: GraphView + ?Sized>(g: &G, v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        Value::Num(n) => Some(*n != 0.0 && !n.is_nan()),
        Value::Str { s, .. } => Some(!s.is_empty()),
        Value::IriStr(_) => None,
        Value::Term(id) => match g.term(*id) {
            Term::Literal(l) => {
                if let Some(b) = l.as_bool() {
                    Some(b)
                } else if l.is_numeric() {
                    l.as_double().map(|n| n != 0.0 && !n.is_nan())
                } else if l.datatype().as_str() == xsd::STRING || l.language().is_some() {
                    Some(!l.lexical_form().is_empty())
                } else {
                    None
                }
            }
            _ => None,
        },
    }
}

/// RDF-term / value equality for `=`. Returns `None` on incomparable
/// operands (propagates as an expression error).
pub fn values_equal<G: GraphView + ?Sized>(g: &G, a: &Value, b: &Value) -> Option<bool> {
    // Numeric comparison dominates when both sides are numeric.
    if let (Some(x), Some(y)) = (as_numeric(g, a), as_numeric(g, b)) {
        return Some(x == y);
    }
    if let (Some(x), Some(y)) = (as_bool(g, a), as_bool(g, b)) {
        return Some(x == y);
    }
    if let (Some((sa, la)), Some((sb, lb))) = (as_string(g, a), as_string(g, b)) {
        return Some(sa == sb && la == lb);
    }
    match (a, b) {
        (Value::Term(x), Value::Term(y)) => Some(x == y),
        (Value::IriStr(s), Value::Term(t)) | (Value::Term(t), Value::IriStr(s)) => {
            match g.term(*t) {
                Term::Iri(i) => Some(i.as_str() == s),
                _ => Some(false),
            }
        }
        (Value::IriStr(x), Value::IriStr(y)) => Some(x == y),
        _ => None,
    }
}

/// Order comparison for `<`/`>`: numeric, string (codepoint), or boolean.
pub fn values_compare<G: GraphView + ?Sized>(
    g: &G,
    a: &Value,
    b: &Value,
) -> Option<std::cmp::Ordering> {
    if let (Some(x), Some(y)) = (as_numeric(g, a), as_numeric(g, b)) {
        return x.partial_cmp(&y);
    }
    if let (Some((sa, _)), Some((sb, _))) = (as_string(g, a), as_string(g, b)) {
        return Some(sa.cmp(&sb));
    }
    if let (Some(x), Some(y)) = (as_bool(g, a), as_bool(g, b)) {
        return Some(x.cmp(&y));
    }
    None
}

/// ORDER BY key of a term, borrowed from the view's dictionary:
/// unbound < blank < IRI < literal, numeric literals first and by value
/// (NaN after every other number), then other literals by lexical form.
#[derive(Debug)]
pub(crate) enum OrderKey<'a> {
    Unbound,
    Blank(&'a str),
    Iri(&'a str),
    Number(f64),
    Text(&'a str),
}

impl OrderKey<'_> {
    /// The total order the keys sort by; equal keys tie.
    pub(crate) fn compare(&self, other: &Self) -> std::cmp::Ordering {
        use OrderKey::*;
        let kind = |k: &Self| match k {
            Unbound => 0,
            Blank(_) => 1,
            Iri(_) => 2,
            Number(_) => 3,
            Text(_) => 4,
        };
        match (self, other) {
            (Blank(a), Blank(b)) | (Iri(a), Iri(b)) | (Text(a), Text(b)) => a.cmp(b),
            (Number(a), Number(b)) => a
                .partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan())),
            _ => kind(self).cmp(&kind(other)),
        }
    }
}

/// The ORDER BY key of an optionally bound term.
pub(crate) fn order_key<G: GraphView + ?Sized>(g: &G, id: Option<TermId>) -> OrderKey<'_> {
    let Some(id) = id else {
        return OrderKey::Unbound;
    };
    match g.term(id) {
        Term::BlankNode(b) => OrderKey::Blank(b.as_str()),
        Term::Iri(i) => OrderKey::Iri(i.as_str()),
        Term::Literal(l) => match l.as_double() {
            Some(n) => OrderKey::Number(n),
            None => OrderKey::Text(l.lexical_form()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feo_rdf::Graph;

    fn setup() -> (Graph, TermId, TermId, TermId, TermId) {
        let mut g = Graph::new();
        let iri = g.intern(&Term::iri("http://e/x"));
        let int5 = g.intern(&Term::integer(5));
        let s = g.intern(&Term::simple("abc"));
        let b = g.intern(&Term::boolean(true));
        (g, iri, int5, s, b)
    }

    #[test]
    fn numeric_views() {
        let (g, _, int5, s, _) = setup();
        assert_eq!(as_numeric(&g, &Value::Term(int5)), Some(5.0));
        assert_eq!(as_numeric(&g, &Value::Num(2.5)), Some(2.5));
        assert_eq!(as_numeric(&g, &Value::Term(s)), None);
    }

    #[test]
    fn ebv_cases() {
        let (g, iri, int5, s, b) = setup();
        assert_eq!(ebv(&g, &Value::Term(b)), Some(true));
        assert_eq!(ebv(&g, &Value::Term(int5)), Some(true));
        assert_eq!(ebv(&g, &Value::Int(0)), Some(false));
        assert_eq!(
            ebv(
                &g,
                &Value::Str {
                    s: "".into(),
                    lang: None
                }
            ),
            Some(false)
        );
        assert_eq!(ebv(&g, &Value::Term(s)), Some(true));
        assert_eq!(ebv(&g, &Value::Term(iri)), None, "IRI has no EBV");
    }

    #[test]
    fn equality_mixes_term_and_computed() {
        let (g, _, int5, s, _) = setup();
        assert_eq!(
            values_equal(&g, &Value::Term(int5), &Value::Int(5)),
            Some(true)
        );
        assert_eq!(
            values_equal(&g, &Value::Term(int5), &Value::Num(5.0)),
            Some(true)
        );
        assert_eq!(
            values_equal(
                &g,
                &Value::Term(s),
                &Value::Str {
                    s: "abc".into(),
                    lang: None
                }
            ),
            Some(true)
        );
        assert_eq!(
            values_equal(&g, &Value::Term(int5), &Value::Int(6)),
            Some(false)
        );
    }

    #[test]
    fn iri_equality() {
        let (g, iri, ..) = setup();
        assert_eq!(
            values_equal(&g, &Value::Term(iri), &Value::IriStr("http://e/x".into())),
            Some(true)
        );
        assert_eq!(
            values_equal(&g, &Value::Term(iri), &Value::IriStr("http://e/y".into())),
            Some(false)
        );
    }

    #[test]
    fn comparison() {
        let (g, ..) = setup();
        use std::cmp::Ordering::*;
        assert_eq!(
            values_compare(&g, &Value::Int(1), &Value::Num(2.0)),
            Some(Less)
        );
        assert_eq!(
            values_compare(
                &g,
                &Value::Str {
                    s: "a".into(),
                    lang: None
                },
                &Value::Str {
                    s: "b".into(),
                    lang: None
                }
            ),
            Some(Less)
        );
        assert_eq!(
            values_compare(&g, &Value::Bool(false), &Value::Bool(true)),
            Some(Less)
        );
        assert_eq!(values_compare(&g, &Value::Int(1), &Value::Bool(true)), None);
    }

    #[test]
    fn order_keys_total_order() {
        let (mut g, iri, int5, s, _) = setup();
        let nan = Value::Num(f64::NAN).into_term_id(&mut g);
        let mut keys = [
            order_key(&g, Some(s)),
            order_key(&g, Some(nan)),
            order_key(&g, None),
            order_key(&g, Some(int5)),
            order_key(&g, Some(iri)),
        ];
        keys.sort_by(OrderKey::compare);
        assert!(matches!(keys[0], OrderKey::Unbound));
        assert!(matches!(keys[1], OrderKey::Iri("http://e/x")));
        assert!(matches!(keys[2], OrderKey::Number(n) if n == 5.0));
        assert!(matches!(keys[3], OrderKey::Number(n) if n.is_nan()));
        assert!(matches!(keys[4], OrderKey::Text("abc")));
        assert!(keys[3].compare(&keys[3]).is_eq(), "NaN ties with NaN");
    }

    #[test]
    fn into_term_id_round_trips() {
        let mut g = Graph::new();
        let id = Value::Int(42).into_term_id(&mut g);
        assert_eq!(g.term(id), &Term::integer(42));
        let id = Value::Str {
            s: "hi".into(),
            lang: Some("en".into()),
        }
        .into_term_id(&mut g);
        assert_eq!(g.term(id), &Term::Literal(Literal::lang("hi", "en")));
        let id = Value::IriStr("http://e/z".into()).into_term_id(&mut g);
        assert_eq!(g.term(id), &Term::iri("http://e/z"));
    }
}
