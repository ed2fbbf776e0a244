//! Dijkstra-style network expansion.
//!
//! All query processing in the paper is built on *network expansion*: nodes
//! are visited in ascending order of their network distance from one or more
//! source locations, fetching adjacency lists on demand. [`NetworkExpansion`]
//! is that primitive, shared by the k-NN / range-NN / verification queries
//! and by the main loops of the eager and lazy algorithms.

use crate::fast_hash::{fast_map, FastMap};
use rnn_graph::{NodeId, Topology, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Label of a node during expansion.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Label {
    /// Best distance found so far; the node is still in the frontier.
    Tentative(Weight),
    /// Final (settled) distance.
    Settled(Weight),
}

/// The allocation-bearing state of a [`NetworkExpansion`]: the frontier heap
/// and the label map.
///
/// Buffers outlive individual expansions: an expansion built with
/// [`NetworkExpansion::reusing`] starts from recycled (cleared but still
/// allocated) buffers, and [`NetworkExpansion::into_buffers`] recovers them
/// afterwards — this is how the query engine's `Scratch` arena keeps
/// steady-state queries allocation-free.
#[derive(Debug, Default)]
pub struct ExpansionBuffers {
    heap: BinaryHeap<Reverse<(Weight, NodeId)>>,
    labels: FastMap<NodeId, Label>,
}

impl ExpansionBuffers {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffers, retaining their capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.labels.clear();
    }
}

/// An incremental single- or multi-source Dijkstra expansion over a
/// [`Topology`].
///
/// `next_settled` returns nodes one at a time in non-decreasing distance
/// order, so callers can stop as soon as their termination condition is met
/// (k points found, range exceeded, target reached, ...), which is exactly
/// how the paper's primitives bound their cost.
pub struct NetworkExpansion<'a, T: Topology + ?Sized> {
    topo: &'a T,
    bufs: ExpansionBuffers,
    settled_count: u64,
    pushes: u64,
}

impl<'a, T: Topology + ?Sized> NetworkExpansion<'a, T> {
    /// Starts an expansion from a single source node at distance zero.
    pub fn new(topo: &'a T, source: NodeId) -> Self {
        Self::with_sources(topo, std::iter::once((source, Weight::ZERO)))
    }

    /// Starts an expansion from several sources with given initial distances
    /// (used for continuous queries over a route and for query points lying
    /// on an edge).
    pub fn with_sources<I>(topo: &'a T, sources: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Weight)>,
    {
        Self::reusing(topo, ExpansionBuffers::new(), sources)
    }

    /// Starts an expansion on recycled buffers (cleared here), avoiding the
    /// heap/map allocations of a fresh expansion.
    pub fn reusing<I>(topo: &'a T, mut bufs: ExpansionBuffers, sources: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Weight)>,
    {
        bufs.clear();
        let mut exp = NetworkExpansion { topo, bufs, settled_count: 0, pushes: 0 };
        for (node, dist) in sources {
            exp.relax(node, dist);
        }
        exp
    }

    /// Consumes the expansion, releasing its buffers for reuse.
    pub fn into_buffers(self) -> ExpansionBuffers {
        self.bufs
    }

    /// Offers a (possibly better) tentative distance for `node`.
    fn relax(&mut self, node: NodeId, dist: Weight) {
        match self.bufs.labels.get(&node) {
            Some(Label::Settled(_)) => {}
            Some(Label::Tentative(best)) if *best <= dist => {}
            _ => {
                self.bufs.labels.insert(node, Label::Tentative(dist));
                self.bufs.heap.push(Reverse((dist, node)));
                self.pushes += 1;
            }
        }
    }

    /// Settles and returns the next node in distance order, or `None` when
    /// the reachable part of the graph is exhausted. The neighbors of the
    /// settled node are relaxed automatically.
    pub fn next_settled(&mut self) -> Option<(NodeId, Weight)> {
        let settled = self.next_settled_unexpanded();
        if let Some((node, dist)) = settled {
            self.expand_from(node, dist);
        }
        settled
    }

    /// Settles and returns the next node in distance order *without* relaxing
    /// its neighbors. The caller decides whether to continue the expansion
    /// through this node by calling [`NetworkExpansion::expand_from`] — this
    /// is how the eager algorithm applies Lemma 1 to stop the expansion at
    /// pruned nodes.
    pub fn next_settled_unexpanded(&mut self) -> Option<(NodeId, Weight)> {
        while let Some(Reverse((dist, node))) = self.bufs.heap.pop() {
            match self.bufs.labels.get(&node) {
                Some(Label::Settled(_)) => continue, // stale entry
                Some(Label::Tentative(best)) if *best < dist => continue, // superseded
                _ => {}
            }
            self.bufs.labels.insert(node, Label::Settled(dist));
            self.settled_count += 1;
            return Some((node, dist));
        }
        None
    }

    /// Relaxes the neighbors of a node previously returned by
    /// [`NetworkExpansion::next_settled_unexpanded`].
    pub fn expand_from(&mut self, node: NodeId, dist: Weight) {
        let bufs = &mut self.bufs;
        let pushes = &mut self.pushes;
        self.topo.visit_neighbors(node, &mut |nb| {
            let cand = dist + nb.weight;
            match bufs.labels.get(&nb.node) {
                Some(Label::Settled(_)) => {}
                Some(Label::Tentative(best)) if *best <= cand => {}
                _ => {
                    bufs.labels.insert(nb.node, Label::Tentative(cand));
                    bufs.heap.push(Reverse((cand, nb.node)));
                    *pushes += 1;
                }
            }
        });
    }

    /// Returns the settled distance of `node`, if it has been settled.
    pub fn settled_distance(&self, node: NodeId) -> Option<Weight> {
        match self.bufs.labels.get(&node) {
            Some(Label::Settled(d)) => Some(*d),
            _ => None,
        }
    }

    /// Number of nodes settled so far.
    pub fn settled_count(&self) -> u64 {
        self.settled_count
    }

    /// Number of heap pushes performed so far.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Runs the expansion to completion and returns the distance of every
    /// reachable node. This is the classical single-source shortest path
    /// computation, used by the naive baseline and by tests.
    pub fn run_to_completion(mut self) -> FastMap<NodeId, Weight> {
        while self.next_settled().is_some() {}
        let mut out = fast_map();
        for (node, label) in self.bufs.labels.iter() {
            if let Label::Settled(d) = label {
                out.insert(*node, *d);
            }
        }
        out
    }
}

/// Convenience helper: the network distance between two nodes, or `None` if
/// they are disconnected. Runs a full Dijkstra bounded by reaching `target`.
pub fn network_distance<T: Topology + ?Sized>(
    topo: &T,
    source: NodeId,
    target: NodeId,
) -> Option<Weight> {
    let mut exp = NetworkExpansion::new(topo, source);
    while let Some((node, dist)) = exp.next_settled() {
        if node == target {
            return Some(dist);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_graph::{Graph, GraphBuilder};

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3
        //  \         /
        //   4 ----- 2      (0-2 weight 4, 2-3 weight 1)
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(0, 2, 4.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn settles_in_distance_order_with_correct_distances() {
        let g = diamond();
        let mut exp = NetworkExpansion::new(&g, NodeId::new(0));
        let mut settled = Vec::new();
        while let Some((n, d)) = exp.next_settled() {
            settled.push((n.index(), d.value()));
        }
        assert_eq!(settled, vec![(0, 0.0), (1, 1.0), (3, 2.0), (2, 3.0)]);
        assert_eq!(exp.settled_count(), 4);
        assert!(exp.pushes() >= 4);
        assert_eq!(exp.settled_distance(NodeId::new(2)).unwrap().value(), 3.0);
        assert_eq!(exp.settled_distance(NodeId::new(9)), None);
    }

    #[test]
    fn shorter_path_through_more_hops_wins() {
        // node 2 is reachable directly (weight 4) or via 1,3 (total 3)
        let g = diamond();
        assert_eq!(network_distance(&g, NodeId::new(0), NodeId::new(2)).unwrap().value(), 3.0);
        // symmetric
        assert_eq!(network_distance(&g, NodeId::new(2), NodeId::new(0)).unwrap().value(), 3.0);
    }

    #[test]
    fn multi_source_takes_minimum_over_sources() {
        let g = diamond();
        let mut exp = NetworkExpansion::with_sources(
            &g,
            [(NodeId::new(0), Weight::new(0.5)), (NodeId::new(3), Weight::ZERO)],
        );
        let mut dist = std::collections::HashMap::new();
        while let Some((n, d)) = exp.next_settled() {
            dist.insert(n.index(), d.value());
        }
        assert_eq!(dist[&3], 0.0);
        assert_eq!(dist[&1], 1.0);
        assert_eq!(dist[&2], 1.0);
        assert_eq!(dist[&0], 0.5);
    }

    #[test]
    fn disconnected_nodes_are_unreachable() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(network_distance(&g, NodeId::new(0), NodeId::new(3)), None);
        let all = NetworkExpansion::new(&g, NodeId::new(0)).run_to_completion();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn run_to_completion_matches_incremental() {
        let g = diamond();
        let all = NetworkExpansion::new(&g, NodeId::new(1)).run_to_completion();
        assert_eq!(all[&NodeId::new(0)].value(), 1.0);
        assert_eq!(all[&NodeId::new(3)].value(), 1.0);
        assert_eq!(all[&NodeId::new(2)].value(), 2.0);
    }
}
