//! The answer oracle: RkNN sets computed from the data points' side.
//!
//! A point `p` is a reverse k-nearest neighbor of a query node `q` iff fewer
//! than `k` other points lie strictly closer to `p` than `q` does, with every
//! distance measured from `p` (the verification rule of `rnn_core::verify`).
//! One Dijkstra from each point, stopped once it has passed the `k_max`-th
//! other point, therefore yields every `(q, p)` pair for every `k <= k_max`
//! at once: a few hundred short expansions instead of one full traversal per
//! query. The expansion adds weights exactly as the library's does
//! (`dist + w`), so tie decisions agree bit for bit; a self-test checks the
//! oracle against `rnn_core::naive` on the benchmark's own graphs.

use rnn_graph::{NodeId, NodePointSet, PointId, PointsOnNodes, Topology, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reverse-neighbor entries `(query node, point, points strictly closer)`.
pub struct ZoneOracle {
    k_max: usize,
    entries: Vec<(u32, u32, u32)>,
}

impl ZoneOracle {
    /// Builds the oracle for every query node accepted by `wanted`.
    pub fn build(
        topo: &dyn Topology,
        points: &NodePointSet,
        k_max: usize,
        wanted: &dyn Fn(NodeId) -> bool,
    ) -> Self {
        let n = topo.num_nodes();
        let mut dist: Vec<Option<Weight>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut heap = BinaryHeap::new();
        let mut others: Vec<Weight> = Vec::new();
        let mut entries = Vec::new();
        for (p, source) in points.iter() {
            for &t in &touched {
                dist[t] = None;
                settled[t] = false;
            }
            touched.clear();
            heap.clear();
            others.clear();
            dist[source.index()] = Some(Weight::ZERO);
            touched.push(source.index());
            heap.push(Reverse((Weight::ZERO, source.index())));
            while let Some(Reverse((d, v))) = heap.pop() {
                if settled[v] {
                    continue;
                }
                settled[v] = true;
                let node = NodeId::new(v);
                if d > Weight::ZERO && wanted(node) {
                    let closer = others.partition_point(|&o| o < d);
                    if closer < k_max {
                        entries.push((v as u32, p.index() as u32, closer as u32));
                    }
                }
                if v != source.index() && points.point_at(node).is_some() {
                    others.push(d);
                }
                if others.len() >= k_max && d > others[k_max - 1] {
                    break;
                }
                topo.visit_neighbors(node, &mut |nb| {
                    let u = nb.node.index();
                    let cand = d + nb.weight;
                    if !settled[u] && dist[u].is_none_or(|old| cand < old) {
                        if dist[u].is_none() {
                            touched.push(u);
                        }
                        dist[u] = Some(cand);
                        heap.push(Reverse((cand, u)));
                    }
                });
            }
        }
        entries.sort_unstable();
        ZoneOracle { k_max, entries }
    }

    /// The reverse k-nearest neighbors of `query`, sorted by point id.
    pub fn rknn(&self, query: NodeId, k: usize) -> Vec<PointId> {
        assert!(k >= 1 && k <= self.k_max, "oracle built for k <= {}, asked for {k}", self.k_max);
        let q = query.index() as u32;
        let from = self.entries.partition_point(|e| e.0 < q);
        let mut out: Vec<PointId> = self.entries[from..]
            .iter()
            .take_while(|e| e.0 == q)
            .filter(|e| (e.2 as usize) < k)
            .map(|e| PointId::new(e.1 as usize))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{brite_inputs, road_inputs};
    use rnn_core::naive::naive_rknn;

    /// The oracle equals `naive` on the first `queries` data points and as
    /// many other nodes, for every k up to `k_max`.
    fn agrees_with_naive(
        topo: &rnn_graph::Graph,
        points: &NodePointSet,
        k_max: usize,
        queries: usize,
    ) {
        let oracle = ZoneOracle::build(topo, points, k_max, &|_| true);
        let step = topo.num_nodes() / queries;
        let nodes = points.nodes().iter().copied().take(queries);
        for q in nodes.chain((0..topo.num_nodes()).step_by(step).map(NodeId::new)) {
            for k in 1..=k_max {
                assert_eq!(oracle.rknn(q, k), naive_rknn(topo, points, q, k).points, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn matches_naive_on_the_road_world() {
        let (graph, points) = road_inputs();
        agrees_with_naive(&graph, &points, 2, 40);
    }

    #[test]
    fn matches_naive_on_the_brite_world() {
        let (graph, points) = brite_inputs();
        agrees_with_naive(&graph, &points, 4, 15);
    }
}
