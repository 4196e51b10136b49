use crate::disk::Segment;
use crate::graph::Graph;
use crate::ledger::{BaseStore, Layer, LedgerView};
use crate::term::Term;

/// A store split into the parts it keeps in order, so that writing a
/// segment is a merge of sorted inputs: a segment base, copied as it is
/// mapped; a graph base, written as a first layer on an empty one; and
/// the layers stacked on the base, oldest first.
pub type Parts<'a> = (Option<&'a Segment>, Option<&'a Graph>, &'a [&'a Layer]);

/// The terms a graph base and the layers add to a segment base's, in
/// id order.
pub fn added_terms<'a>((_, graph, layers): Parts<'a>) -> impl Iterator<Item = &'a Term> + 'a {
    let graph_terms = graph
        .into_iter()
        .flat_map(|g| g.iter_terms().map(|(_, t)| t));
    graph_terms.chain(layers.iter().flat_map(|l| l.spill_terms()))
}

/// A store a segment can be written from. Crate-internal: implemented by
/// [`Graph`], [`BaseStore`] and [`LedgerView`].
pub trait SegmentSource {
    fn parts(&self) -> Parts<'_>;
}

impl SegmentSource for Graph {
    fn parts(&self) -> Parts<'_> {
        (None, Some(self), &[])
    }
}

impl SegmentSource for BaseStore {
    fn parts(&self) -> Parts<'_> {
        (self.as_segment().map(|s| &**s), self.as_graph(), &[])
    }
}

impl SegmentSource for LedgerView<'_> {
    fn parts(&self) -> Parts<'_> {
        let (segment, graph, _) = self.base_store().parts();
        (segment, graph, self.layers())
    }
}
