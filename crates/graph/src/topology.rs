//! The topology access abstraction used by all query algorithms.
//!
//! The RNN algorithms of the paper traverse the network by repeatedly fetching
//! adjacency lists. Whether a fetch hits an in-memory CSR array or a disk page
//! behind an LRU buffer only changes *cost*, never *results*. [`Topology`]
//! captures exactly the operations the algorithms need, so the same
//! implementation runs on [`crate::Graph`] (correctness tests, small examples)
//! and on the paged graph of `rnn-storage` (cost experiments).

use crate::graph::Neighbor;
use crate::ids::NodeId;

/// Read access to the adjacency structure of an undirected weighted graph.
///
/// Implementations may have interior mutability (e.g. an LRU buffer and I/O
/// counters), which is why the visitor style method takes `&self`.
///
/// `Sync` is a supertrait because topologies are shared by reference across
/// the worker threads of batched query execution (`rnn-core`'s query engine):
/// any interior mutability must already be thread-safe.
pub trait Topology: Sync {
    /// Number of nodes `|V|` of the graph.
    fn num_nodes(&self) -> usize;

    /// Calls `visit` for every neighbor of `node`.
    ///
    /// Fetching the adjacency list of a node is the unit of I/O in the
    /// paper's cost model; paged implementations count one page access per
    /// call (plus a buffer fault when the page is not resident).
    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor));

    /// Convenience helper collecting the adjacency list of `node` into a
    /// vector. Prefer [`Topology::visit_neighbors`] in hot paths to avoid the
    /// allocation.
    fn neighbors_vec(&self, node: NodeId) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.visit_neighbors(node, &mut |n| out.push(n));
        out
    }

    /// Returns `true` if `node` is a valid node id of this graph.
    fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.num_nodes()
    }
}

impl<T: Topology + ?Sized> Topology for &T {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        (**self).visit_neighbors(node, visit)
    }

    fn neighbors_vec(&self, node: NodeId) -> Vec<Neighbor> {
        (**self).neighbors_vec(node)
    }

    fn contains_node(&self, node: NodeId) -> bool {
        (**self).contains_node(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn neighbors_vec_matches_visitor() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        let g = b.build().unwrap();

        let via_vec = g.neighbors_vec(NodeId::new(1));
        let mut via_visit = Vec::new();
        g.visit_neighbors(NodeId::new(1), &mut |n| via_visit.push(n));
        assert_eq!(via_vec, via_visit);
        assert_eq!(via_vec.len(), 2);
    }

    #[test]
    fn reference_impl_delegates() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let r: &dyn Topology = &g;
        assert_eq!(Topology::num_nodes(&r), 2);
        assert!(r.contains_node(NodeId::new(1)));
        assert!(!r.contains_node(NodeId::new(2)));
        assert_eq!(r.neighbors_vec(NodeId::new(0)).len(), 1);
    }
}
