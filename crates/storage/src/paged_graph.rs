//! The disk-page backed graph view.
//!
//! [`PagedGraph`] combines a page store, the node-id index and a striped LRU
//! buffer into a [`Topology`] implementation. Query algorithms written
//! against the `Topology` trait run unchanged on a `PagedGraph`; the only
//! difference from the in-memory [`rnn_graph::Graph`] is that every
//! adjacency fetch goes through the buffer and is accounted for in
//! [`IoStats`]. This is the component the paper's experiments measure.
//!
//! A fetch looks the node up in the [`NodeIndex`], which points at its
//! record by page and byte offset, accesses that page (or the pages of a
//! hub's multi-page span) through the buffer, and decodes the one record
//! with [`crate::Page::record_at`]. The buffer sees exactly one access per
//! page of the record, so the paper's accesses, faults and evictions do not
//! depend on how the record is found within its page. Pages are read only
//! when a fetch misses the buffer; nothing is read ahead.

use crate::buffer::{BufferPool, BufferPoolConfig, BufferPoolStats};
use crate::disk::{MemoryDisk, PageStore};
use crate::error::StorageError;
use crate::io_stats::{IoCounters, IoStats};
use crate::layout::{LayoutStrategy, PageLayout};
use crate::node_index::NodeIndex;
use crate::page::{PageEntry, PageId};
use rnn_graph::{Graph, Neighbor, NodeId, Topology};

/// A graph stored on simulated disk pages and read through a striped LRU
/// page buffer.
pub struct PagedGraph<S: PageStore = MemoryDisk> {
    buffer: BufferPool<S>,
    index: NodeIndex,
    num_nodes: usize,
}

impl PagedGraph<MemoryDisk> {
    /// Builds a paged graph from an in-memory graph using the default
    /// BFS-locality layout and the paper's 256-page single-shard buffer.
    pub fn build(graph: &Graph) -> Result<Self, StorageError> {
        Self::build_with_config(
            graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::paper_default(),
            IoCounters::new(),
        )
    }

    /// Builds a paged graph with a single-shard buffer of `buffer_pages`
    /// pages — the paper's configuration, with the exact single-LRU victim
    /// order. Use [`PagedGraph::build_with_config`] to shard the buffer for
    /// concurrent serving.
    pub fn build_with(
        graph: &Graph,
        strategy: LayoutStrategy,
        buffer_pages: usize,
        counters: IoCounters,
    ) -> Result<Self, StorageError> {
        Self::build_with_config(graph, strategy, BufferPoolConfig::new(buffer_pages), counters)
    }

    /// Builds a paged graph with full control over layout strategy, buffer
    /// capacity/sharding and the I/O counters to report into.
    pub fn build_with_config(
        graph: &Graph,
        strategy: LayoutStrategy,
        config: BufferPoolConfig,
        counters: IoCounters,
    ) -> Result<Self, StorageError> {
        let layout = PageLayout::build(graph, strategy)?;
        let disk = MemoryDisk::new(layout.pages);
        let buffer = BufferPool::with_config(disk, config, counters);
        Ok(PagedGraph { buffer, index: layout.index, num_nodes: graph.num_nodes() })
    }
}

impl<S: PageStore> PagedGraph<S> {
    /// Assembles a paged graph from pre-built parts (e.g. a [`crate::FileDisk`]
    /// store opened from an existing page file).
    pub fn from_parts(buffer: BufferPool<S>, index: NodeIndex, num_nodes: usize) -> Self {
        PagedGraph { buffer, index, num_nodes }
    }

    /// The underlying buffer pool.
    pub fn buffer(&self) -> &BufferPool<S> {
        &self.buffer
    }

    /// The shared I/O counters of the underlying buffer.
    pub fn counters(&self) -> &IoCounters {
        self.buffer.counters()
    }

    /// A snapshot of the I/O activity so far (merged over all accessing
    /// threads).
    pub fn io_stats(&self) -> IoStats {
        self.buffer.counters().snapshot()
    }

    /// The buffer pool's own per-shard counter breakdown plus merged total.
    pub fn pool_stats(&self) -> BufferPoolStats {
        self.buffer.io_stats()
    }

    /// Resets the I/O accounting — both the shared per-thread counters and
    /// the pool's per-shard breakdown, so the two views stay in agreement —
    /// while the buffer content is left untouched.
    pub fn reset_io(&self) {
        self.buffer.reset_stats();
    }

    /// Drops all buffered pages and resets both the pool's per-shard
    /// counters and the shared per-thread [`IoCounters`] in one atomic step
    /// ([`BufferPool::clear_and_reset`]), simulating a cold start. Used
    /// between workload repetitions in the experiments.
    pub fn cold_start(&self) {
        self.buffer.clear_and_reset();
    }

    /// Number of pages of the underlying store.
    pub fn num_pages(&self) -> usize {
        self.buffer.store().num_pages()
    }

    /// Buffer capacity in pages.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// The node-id index.
    pub fn node_index(&self) -> &NodeIndex {
        &self.index
    }

    /// Fetches the adjacency list of `node`, going through the buffer, and
    /// decodes it from the record the node index points at.
    ///
    /// Every record is checked before the first entry reaches `visit`, so a
    /// corrupt page yields an error and no partial adjacency list. The
    /// fetched pages are held while `visit` runs; visitors may recursively
    /// fetch other adjacency lists (e.g. nested verification expansions).
    fn fetch_neighbors(
        &self,
        node: NodeId,
        visit: &mut dyn FnMut(Neighbor),
    ) -> Result<(), StorageError> {
        let entry = self.index.entry(node);
        let as_neighbor =
            |e: PageEntry| Neighbor { node: e.neighbor, weight: e.weight, edge: e.edge };
        if entry.span == 1 {
            let page = self.buffer.fetch(entry.first_page)?;
            page.record_at(entry.first_page, entry.offset as usize, node)?
                .for_each(|e| visit(as_neighbor(e)));
            return Ok(());
        }
        // A multi-page record (high-degree hub node): fetch the whole span
        // in one batched call — one lock round per owning shard instead of
        // one per page, with identical accounting.
        let ids: Vec<PageId> = entry.pages().collect();
        let pages = self.buffer.fetch_many(&ids)?;
        let records = entry
            .records()
            .zip(&pages)
            .map(|((page_id, offset), page)| page.record_at(page_id, offset, node))
            .collect::<Result<Vec<_>, _>>()?;
        records.into_iter().flatten().for_each(|e| visit(as_neighbor(e)));
        Ok(())
    }
}

impl<S: PageStore> Topology for PagedGraph<S> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        self.fetch_neighbors(node, visit)
            .expect("pages built by PageLayout are well formed and in bounds");
    }
}

/// Introspection of a paged storage backend.
///
/// The serving layer (`rnn-server`) keeps its storage backend behind this
/// object-safe trait so it can export buffer telemetry and attach its
/// flight recorder without knowing the concrete [`PageStore`] type,
/// mirroring how query algorithms only see [`Topology`]. All methods take
/// `&self`: the handle is shared with live query traffic and every
/// operation is safe to apply while queries run.
pub trait StorageControl: Send + Sync {
    /// Per-shard counter breakdown plus merged totals of the page buffer.
    fn pool_stats(&self) -> BufferPoolStats;

    /// Buffer capacity in pages (summed over shards).
    fn buffer_capacity(&self) -> usize;

    /// Number of independently locked buffer shards.
    fn num_shards(&self) -> usize;

    /// Number of pages currently resident in the buffer.
    fn resident_pages(&self) -> usize;

    /// Attaches a flight recorder to the backend's control plane: resize
    /// and clear operations then append structured events
    /// ([`rnn_obs::EventKind::PoolResize`] and friends) so runtime tuning
    /// shows up on the serving layer's event timeline. The default
    /// implementation ignores the sink (for backends with no control-plane
    /// events to report).
    fn set_event_sink(&self, events: std::sync::Arc<rnn_obs::FlightRecorder>) {
        let _ = events;
    }
}

impl<S: PageStore + Send> StorageControl for PagedGraph<S> {
    fn pool_stats(&self) -> BufferPoolStats {
        PagedGraph::pool_stats(self)
    }

    fn buffer_capacity(&self) -> usize {
        PagedGraph::buffer_capacity(self)
    }

    fn num_shards(&self) -> usize {
        self.buffer.num_shards()
    }

    fn resident_pages(&self) -> usize {
        self.buffer.resident_pages()
    }

    fn set_event_sink(&self, events: std::sync::Arc<rnn_obs::FlightRecorder>) {
        self.buffer.set_event_sink(events);
    }
}

impl<S: PageStore> std::fmt::Debug for PagedGraph<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_pages", &self.num_pages())
            .field("buffer_capacity", &self.buffer_capacity())
            .field("io", &self.io_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileDisk;
    use rnn_graph::GraphBuilder;

    fn grid_graph(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0 + ((v % 3) as f64)).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 2.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn paged_graph_reports_same_adjacency_as_in_memory_graph() {
        let g = grid_graph(10);
        let pg = PagedGraph::build(&g).unwrap();
        assert_eq!(Topology::num_nodes(&pg), g.num_nodes());
        for v in g.node_ids() {
            let expected = g.neighbors_vec(v);
            let got = pg.neighbors_vec(v);
            assert_eq!(got, expected, "node {v}");
        }
    }

    #[test]
    fn io_is_counted_and_resettable() {
        let g = grid_graph(10);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 4, IoCounters::new()).unwrap();
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let s = pg.io_stats();
        assert_eq!(s.accesses, 100);
        assert!(s.faults >= pg.num_pages() as u64);
        pg.reset_io();
        assert_eq!(pg.io_stats(), IoStats::default());
        // reset_io keeps the two accounting views in agreement: the pool's
        // per-shard breakdown is zeroed too (pages stay resident).
        assert_eq!(pg.pool_stats().total, crate::ShardStats::default());
        assert!(pg.buffer().resident_pages() > 0, "reset_io leaves pages resident");
        pg.cold_start();
        pg.neighbors_vec(NodeId::new(0));
        assert_eq!(pg.io_stats().faults, 1);
        assert_eq!(pg.pool_stats().total.faults, 1);
    }

    #[test]
    fn bfs_layout_produces_fewer_faults_than_shuffled_on_small_buffer() {
        let g = grid_graph(24); // 576 nodes
        let run = |strategy| {
            let pg = PagedGraph::build_with(&g, strategy, 2, IoCounters::new()).unwrap();
            // A BFS-like scan around each node mimics the locality of network
            // expansion queries.
            for v in g.node_ids() {
                pg.neighbors_vec(v);
            }
            pg.io_stats().faults
        };
        let bfs = run(LayoutStrategy::BfsLocality);
        let shuffled = run(LayoutStrategy::Shuffled(3));
        assert!(
            bfs < shuffled,
            "BFS locality should fault less ({bfs}) than a shuffled layout ({shuffled})"
        );
    }

    #[test]
    fn buffer_capacity_zero_faults_every_access() {
        let g = grid_graph(6);
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::NodeOrder, 0, IoCounters::new()).unwrap();
        for _ in 0..3 {
            pg.neighbors_vec(NodeId::new(5));
        }
        let s = pg.io_stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.faults, 3);
        assert_eq!(pg.buffer_capacity(), 0);
    }

    #[test]
    fn warm_buffer_second_pass_is_fault_free() {
        // With a buffer large enough for the whole file, the second scan hits
        // on every access — the premise behind the buffer-size experiment
        // (Fig. 21): accesses keep growing, faults do not.
        let g = grid_graph(10);
        let pg = PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 1024, IoCounters::new())
            .unwrap();
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let cold = pg.io_stats();
        assert!(cold.faults > 0);
        for v in g.node_ids() {
            pg.neighbors_vec(v);
        }
        let warm = pg.io_stats();
        assert_eq!(warm.accesses, 2 * cold.accesses);
        assert_eq!(warm.faults, cold.faults, "warm pass must not fault");
        assert_eq!(warm.evictions, 0);
    }

    #[test]
    fn sharded_buffers_serve_identical_adjacency_with_per_shard_accounting() {
        let g = grid_graph(12);
        let pg = PagedGraph::build_with_config(
            &g,
            LayoutStrategy::BfsLocality,
            crate::BufferPoolConfig::new(8).with_shards(4),
            IoCounters::new(),
        )
        .unwrap();
        assert_eq!(pg.buffer().num_shards(), 4);
        for v in g.node_ids() {
            assert_eq!(pg.neighbors_vec(v), g.neighbors_vec(v), "node {v}");
        }
        let pool = pg.pool_stats();
        assert_eq!(pool.per_shard.len(), 4);
        assert_eq!(
            pool.total.as_io_stats(),
            pg.io_stats(),
            "pool-side totals match the thread-attributed counters"
        );
        pg.cold_start();
        assert_eq!(pg.io_stats(), IoStats::default());
        assert_eq!(pg.pool_stats().total, crate::ShardStats::default());
    }

    #[test]
    fn multi_page_adjacency_spans_are_fetched_batched_and_identical() {
        // A star graph: the hub's adjacency list overflows one 4 KB page, so
        // its index entry spans several pages and `fetch_neighbors` takes the
        // `fetch_many` path.
        let leaves = 700;
        let mut b = GraphBuilder::new(leaves + 1);
        for l in 0..leaves {
            b.add_edge(0, l + 1, 1.0 + (l % 7) as f64).unwrap();
        }
        let g = b.build().unwrap();
        let pg =
            PagedGraph::build_with(&g, LayoutStrategy::BfsLocality, 64, IoCounters::new()).unwrap();
        let hub = NodeId::new(0);
        assert!(
            pg.node_index().entry(hub).span > 1,
            "the hub adjacency list must span multiple pages for this test"
        );
        assert_eq!(pg.neighbors_vec(hub), g.neighbors_vec(hub));
        // The paper's cost model counts one access per page of the list,
        // batched or not.
        assert_eq!(pg.io_stats().accesses, u64::from(pg.node_index().entry(hub).span));
    }

    #[test]
    fn from_parts_with_file_disk() {
        let g = grid_graph(5);
        let layout = PageLayout::build(&g, LayoutStrategy::BfsLocality).unwrap();
        let dir = std::env::temp_dir().join(format!("rnn_paged_graph_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.pages");
        let disk = FileDisk::create(&path, &layout.pages).unwrap();
        let pool = BufferPool::new(disk, 8, IoCounters::new());
        let pg = PagedGraph::from_parts(pool, layout.index, g.num_nodes());

        for v in g.node_ids() {
            assert_eq!(pg.neighbors_vec(v), g.neighbors_vec(v));
        }
        assert!(pg.io_stats().accesses > 0);
        assert!(format!("{pg:?}").contains("PagedGraph"));
        assert_eq!(pg.node_index().num_nodes(), g.num_nodes());

        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn a_misdirected_index_entry_is_an_error_not_a_wrong_adjacency() {
        use crate::node_index::NodeIndexEntry;
        let g = grid_graph(6);
        let layout = PageLayout::build(&g, LayoutStrategy::NodeOrder).unwrap();
        let correct: Vec<NodeIndexEntry> = layout.index.iter().map(|(_, e)| e).collect();
        assert_eq!((correct[0].first_page, correct[1].first_page), (PageId(0), PageId(0)));
        let page_end = layout.pages[0].used_bytes() as u16;
        // Node 0 pointed at node 1's record on the same page, then past the
        // end of the page's used bytes.
        for offset in [correct[1].offset, page_end] {
            let mut entries = correct.clone();
            entries[0].offset = offset;
            let pool = BufferPool::new(MemoryDisk::new(layout.pages.clone()), 4, IoCounters::new());
            let pg = PagedGraph::from_parts(pool, NodeIndex::new(entries), g.num_nodes());

            let mut seen = 0;
            let err = pg.fetch_neighbors(NodeId::new(0), &mut |_| seen += 1).unwrap_err();
            assert!(matches!(err, StorageError::CorruptPage { page: PageId(0), .. }), "{err}");
            assert_eq!(seen, 0, "offset {offset}: no entry reaches the visitor");
            // The access itself is counted, exactly as a correct one.
            assert_eq!(pg.io_stats().accesses, 1);
            assert_eq!(pg.neighbors_vec(NodeId::new(1)), g.neighbors_vec(NodeId::new(1)));
        }
    }
}
