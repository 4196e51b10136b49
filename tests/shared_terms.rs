//! A result cell shares the dictionary's strings.
//!
//! `Term`'s strings are reference-counted, so the `SolutionTable` a
//! SELECT returns holds count bumps on the strings its view's dictionary
//! holds, not copies: a cell's text is at the address of the dictionary
//! entry's text. Checked for each kind of dictionary a query reads: a
//! graph in memory, an mmap segment (its lazily decoded term cache) and
//! an overlay's spill (terms the base lacks).

use feo::rdf::disk::segment::{write_segment, Segment};
use feo::rdf::{Graph, GraphStore, GraphView, Literal, Overlay, Term};
use feo::sparql::{query, QueryOptions};

/// The address of a term's text.
fn text(t: &Term) -> *const u8 {
    match t {
        Term::Iri(i) => i.as_str().as_ptr(),
        Term::BlankNode(b) => b.as_str().as_ptr(),
        Term::Literal(l) => l.lexical_form().as_ptr(),
    }
}

fn world() -> Graph {
    let mut g = Graph::new();
    for i in 0..8 {
        let s = Term::iri(format!("http://t/s{i}"));
        g.insert_terms(
            s.clone(),
            Term::iri("http://t/p"),
            Term::simple(format!("v{i}")),
        );
        g.insert_terms(s, Term::iri("http://t/q"), Term::integer(i));
        g.insert_terms(
            Term::bnode(format!("b{i}")),
            Term::iri("http://t/p"),
            Term::Literal(Literal::lang("x", "en")),
        );
    }
    g
}

/// Every bound cell of `sparql`'s table on `view` points at the text of
/// the view's own entry for that term; returns the cells checked.
fn cells_share<G: GraphView + Copy>(view: G, sparql: &str) -> usize {
    let table = query(view, sparql, &QueryOptions::default())
        .expect("query runs")
        .expect_solutions();
    let mut checked = 0;
    for cell in table.rows.iter().flatten().flatten() {
        let id = view.lookup(cell).expect("a cell is in the dictionary");
        assert_eq!(cell, view.term(id));
        assert_eq!(text(cell), text(view.term(id)), "{cell} is a copy");
        checked += 1;
    }
    checked
}

const ALL: &str = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";

#[test]
fn cells_share_a_memory_graphs_strings() {
    let g = world();
    assert_eq!(cells_share(&g, ALL), 24 * 3);
}

#[test]
fn cells_share_a_segments_decoded_strings() {
    let g = world();
    let path = std::env::temp_dir().join(format!("feo-shared-terms-{}.seg", std::process::id()));
    write_segment(&path, &g, g.stats(), 0).expect("segment writes");
    let seg = Segment::open(&path, true).expect("segment opens");
    assert_eq!(cells_share(&seg, ALL), 24 * 3);
    drop(seg);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cells_share_an_overlays_spilled_strings() {
    let g = world();
    let mut overlay = Overlay::new(&g);
    overlay.insert_terms(
        Term::iri("http://t/new"),
        Term::iri("http://t/p"),
        Term::simple("spilled"),
    );
    assert!(
        g.lookup(&Term::simple("spilled")).is_none(),
        "the term is the overlay's own"
    );
    let spilled = "SELECT ?s ?o WHERE { ?s <http://t/p> ?o FILTER (?o = \"spilled\") }";
    assert_eq!(cells_share(&overlay, spilled), 2);
    assert_eq!(cells_share(&overlay, ALL), 25 * 3);
}
