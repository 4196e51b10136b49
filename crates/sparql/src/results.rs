//! Query result representation and formatting.
//!
//! [`SolutionTable`] owns its terms, so results outlive the queried graph;
//! a cell is the dictionary's term cloned, a count bump on its shared
//! strings. `Display` renders the paper's aligned listing tables.

use std::borrow::Cow;
use std::fmt;

use feo_rdf::term::Term;

/// The result of executing a query.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// SELECT results.
    Solutions(SolutionTable),
    /// ASK result.
    Boolean(bool),
    /// CONSTRUCT result (boxed: a `Graph` with its statistics dwarfs the
    /// other variants).
    Graph(Box<feo_rdf::Graph>),
    /// Rendered query plan — returned instead of executing when
    /// [`crate::QueryOptions::explain`] is set.
    Plan(String),
}

impl QueryResult {
    /// The solution table, panicking if this is not a SELECT result.
    pub fn expect_solutions(self) -> SolutionTable {
        match self {
            QueryResult::Solutions(t) => t,
            other => panic!("expected SELECT solutions, got {other:?}"),
        }
    }

    pub fn expect_boolean(self) -> bool {
        match self {
            QueryResult::Boolean(b) => b,
            other => panic!("expected ASK boolean, got {other:?}"),
        }
    }

    pub fn expect_graph(self) -> feo_rdf::Graph {
        match self {
            QueryResult::Graph(g) => *g,
            other => panic!("expected CONSTRUCT graph, got {other:?}"),
        }
    }
}

/// A table of solutions: projected variables and one row per solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolutionTable {
    pub vars: Vec<String>,
    pub rows: Vec<Vec<Option<Term>>>,
}

impl SolutionTable {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a variable by name (without `?`).
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// The binding of `var` in row `row`, if bound.
    pub fn get(&self, row: usize, var: &str) -> Option<&Term> {
        let col = self.var_index(var)?;
        self.rows.get(row)?.get(col)?.as_ref()
    }

    /// All bindings of one variable across rows (skipping unbound).
    pub fn column(&self, var: &str) -> Vec<&Term> {
        match self.var_index(var) {
            Some(col) => self
                .rows
                .iter()
                .filter_map(|r| r.get(col).and_then(Option::as_ref))
                .collect(),
            None => Vec::new(),
        }
    }

    /// True if some row binds `var` to a term whose display form or IRI
    /// local name equals `needle`. Convenience for tests mirroring the
    /// paper's expected result tables.
    pub fn contains_local(&self, var: &str, needle: &str) -> bool {
        self.column(var).iter().any(|t| match t {
            Term::Iri(i) => i.local_name() == needle,
            Term::Literal(l) => l.lexical_form() == needle,
            Term::BlankNode(b) => b.as_str() == needle,
        })
    }

    /// The cell at `row`, `col` in the compact form the paper's result
    /// tables use (`feo:Autumn` → `Autumn`): an IRI's local name or a
    /// literal's lexical form, borrowed; `_:label` for a blank node; empty
    /// when unbound or out of range.
    pub fn local(&self, row: usize, col: usize) -> Cow<'_, str> {
        match self.rows.get(row).and_then(|r| r.get(col)) {
            Some(Some(Term::Iri(i))) => Cow::Borrowed(i.local_name()),
            Some(Some(Term::Literal(l))) => Cow::Borrowed(l.lexical_form()),
            Some(Some(Term::BlankNode(b))) => Cow::Owned(format!("_:{}", b.as_str())),
            _ => Cow::Borrowed(""),
        }
    }

    /// Every row through [`SolutionTable::local`].
    pub fn local_rows(&self) -> Vec<Vec<String>> {
        (self.rows.iter().enumerate())
            .map(|(r, cells)| (0..cells.len()).map(|c| self.local(r, c).into()).collect())
            .collect()
    }

    /// Tab-separated export (full term syntax).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .vars
                .iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join("\t"),
        );
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| c.as_ref().map(Term::to_string).unwrap_or_default())
                .collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for SolutionTable {
    /// Aligned ASCII table, terms shown with prefix-free local names —
    /// the presentation style of the paper's listing result tables.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.vars.iter().map(|v| format!("?{v}")).collect();
        let body = self.local_rows();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &body {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let rule = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        rule(f)?;
        write!(f, "|")?;
        for (h, w) in headers.iter().zip(&widths) {
            write!(f, " {h:w$} |", w = w)?;
        }
        writeln!(f)?;
        rule(f)?;
        for row in &body {
            write!(f, "|")?;
            for (c, w) in row.iter().zip(&widths) {
                write!(f, " {c:w$} |", w = w)?;
            }
            writeln!(f)?;
        }
        rule(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SolutionTable {
        SolutionTable {
            vars: vec!["characteristic".into(), "classes".into()],
            rows: vec![vec![
                Some(Term::iri("https://purl.org/heals/feo#Autumn")),
                Some(Term::iri("https://purl.org/heals/feo#SeasonCharacteristic")),
            ]],
        }
    }

    #[test]
    fn accessors() {
        let t = table();
        assert_eq!(t.len(), 1);
        assert!(t.contains_local("characteristic", "Autumn"));
        assert!(t.contains_local("classes", "SeasonCharacteristic"));
        assert!(!t.contains_local("classes", "Winter"));
        assert_eq!(t.column("characteristic").len(), 1);
        assert!(t.get(0, "classes").is_some());
        assert!(t.get(0, "missing").is_none());
        assert!(matches!(
            t.local(0, 1),
            Cow::Borrowed("SeasonCharacteristic")
        ));
        assert_eq!(t.local(0, 2), "");
        assert_eq!(t.local(1, 0), "");
    }

    #[test]
    fn display_renders_local_names() {
        let rendered = table().to_string();
        assert!(rendered.contains("?characteristic"));
        assert!(rendered.contains("Autumn"));
        assert!(rendered.contains("SeasonCharacteristic"));
        assert!(rendered.starts_with('+'));
    }

    #[test]
    fn tsv_uses_full_terms() {
        let tsv = table().to_tsv();
        assert!(tsv.contains("<https://purl.org/heals/feo#Autumn>"));
        assert!(tsv.starts_with("?characteristic\t?classes\n"));
    }

    #[test]
    fn unbound_cells_render_empty() {
        let t = SolutionTable {
            vars: vec!["a".into()],
            rows: vec![vec![None]],
        };
        assert!(t.to_string().contains("|"));
        assert_eq!(t.column("a").len(), 0);
    }
}
