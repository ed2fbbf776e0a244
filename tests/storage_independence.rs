//! Property tests: the storage layer (page layout, buffer size, file backing)
//! affects only the cost counters, never the query results, and the I/O
//! accounting itself behaves sanely.

mod common;

use common::restricted_instance;
use proptest::prelude::*;
use rnn_core::{naive, run_rknn, Algorithm, Precomputed};
use rnn_graph::Topology;
use rnn_storage::{
    BufferPool, BufferPoolConfig, FileDisk, IoCounters, LayoutStrategy, PageLayout, PagedGraph,
};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn results_are_identical_on_paged_graphs_for_any_layout_buffer_and_sharding(
        inst in restricted_instance(),
        buffer in prop_oneof![Just(0usize), Just(2), Just(8), Just(256)],
        shards in prop_oneof![Just(1usize), Just(2), Just(8)],
        layout in prop_oneof![
            Just(LayoutStrategy::BfsLocality),
            Just(LayoutStrategy::NodeOrder),
            Just(LayoutStrategy::Shuffled(77)),
        ],
    ) {
        let reference = naive::naive_rknn(&inst.graph, &inst.points, inst.query, inst.k);
        let config = BufferPoolConfig::new(buffer).with_shards(shards);
        let paged = PagedGraph::build_with_config(&inst.graph, layout, config, IoCounters::new())
            .expect("paged graph");
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::LazyExtendedPruning, Algorithm::Naive] {
            let out = run_rknn(algo, &paged, &inst.points, Precomputed::none(), inst.query, inst.k);
            prop_assert_eq!(
                &out.points, &reference.points,
                "{} on {:?}/{} pages/{} shards", algo, layout, buffer, shards
            );
        }
        // I/O sanity: every access either hits or faults, faults never
        // exceed accesses, and the pool's per-shard accounting partitions
        // the same totals the per-thread counters see.
        let io = paged.io_stats();
        prop_assert!(io.faults <= io.accesses);
        if buffer == 0 {
            prop_assert_eq!(io.faults, io.accesses, "no buffer means every access faults");
        }
        let pool = paged.pool_stats();
        prop_assert_eq!(pool.per_shard.len(), config.effective_shards());
        prop_assert_eq!(pool.total.as_io_stats(), io);
    }

    #[test]
    fn adjacency_lists_survive_the_page_round_trip(inst in restricted_instance()) {
        let paged = PagedGraph::build(&inst.graph).expect("paged graph");
        prop_assert_eq!(Topology::num_nodes(&paged), inst.graph.num_nodes());
        for v in inst.graph.node_ids() {
            let mut expected = inst.graph.neighbors_vec(v);
            let mut got = paged.neighbors_vec(v);
            expected.sort_by_key(|n| n.node);
            got.sort_by_key(|n| n.node);
            prop_assert_eq!(got, expected, "node {}", v);
        }
    }

    #[test]
    fn smaller_buffers_never_fault_less(inst in restricted_instance()) {
        let run_with_buffer = |pages: usize| {
            let paged = PagedGraph::build_with(
                &inst.graph,
                LayoutStrategy::BfsLocality,
                pages,
                IoCounters::new(),
            )
            .expect("paged graph");
            let _ = run_rknn(Algorithm::Lazy, &paged, &inst.points, Precomputed::none(), inst.query, inst.k);
            paged.io_stats()
        };
        let tiny = run_with_buffer(1);
        let small = run_with_buffer(4);
        let large = run_with_buffer(1024);
        // identical logical access sequences...
        prop_assert_eq!(tiny.accesses, small.accesses);
        prop_assert_eq!(small.accesses, large.accesses);
        // ...with monotonically non-increasing fault counts (LRU inclusion
        // does not hold in general, but it does for these nested capacities
        // on a shared access trace; we assert the weaker end-to-end property).
        prop_assert!(large.faults <= tiny.faults);
        prop_assert!(large.faults <= small.faults);
    }
}

/// The file-backed page store serves the same adjacency data as the in-memory
/// simulated disk.
#[test]
fn file_backed_store_matches_memory_store() {
    use rnn_datagen::{grid_map, GridConfig};
    use rnn_graph::NodeId;

    let graph = grid_map(&GridConfig { rows: 12, cols: 12, ..Default::default() });
    let layout = PageLayout::build(&graph, LayoutStrategy::BfsLocality).expect("layout");

    let dir = std::env::temp_dir().join(format!("rnn_it_storage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.pages");
    let disk = FileDisk::create(&path, &layout.pages).expect("file disk");
    let pool = BufferPool::new(disk, 16, IoCounters::new());
    let paged = PagedGraph::from_parts(pool, layout.index, graph.num_nodes());

    for v in graph.node_ids() {
        assert_eq!(paged.neighbors_vec(v), graph.neighbors_vec(v), "node {v}");
    }
    assert!(paged.io_stats().accesses >= graph.num_nodes() as u64);
    assert_eq!(paged.neighbors_vec(NodeId::new(0)), graph.neighbors_vec(NodeId::new(0)));

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

/// A grid with one hub joined to every third cell: the hub's adjacency record
/// is too large for one page, so fetching it reads a multi-page span.
fn grid_with_hub(side: usize) -> rnn_graph::Graph {
    let hub = side * side;
    let mut b = rnn_graph::GraphBuilder::new(hub + 1);
    for r in 0..side {
        for c in 0..side {
            let v = r * side + c;
            let w = 1.0 + ((v * 7) % 5) as f64 * 0.1;
            if c + 1 < side {
                b.add_edge(v, v + 1, w).unwrap();
            }
            if r + 1 < side {
                b.add_edge(v, v + side, w).unwrap();
            }
            if v.is_multiple_of(3) {
                b.add_edge(v, hub, 4.0 + (v % 11) as f64 * 0.25).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The paper's cost is counted in page accesses and faults, so the fetch
/// path of `PagedGraph` must leave them exactly as they are. The expected
/// counts below were recorded when every adjacency fetch still scanned its
/// whole page for the record; a later change to the hit path that moves any
/// of them changes the paper's accounting and must fail here.
#[test]
fn paged_accounting_of_an_eager_lazy_stream_is_unchanged() {
    use rnn_datagen::{
        place_points_on_nodes, sample_node_queries, spatial_road_network, SpatialConfig,
    };
    use rnn_storage::IoStats;

    let road =
        spatial_road_network(&SpatialConfig { num_nodes: 4_000, seed: 5, ..Default::default() })
            .graph;
    let hubbed = grid_with_hub(30);
    for (name, graph, pool_pages, expected) in [
        ("road", &road, 8, IoStats { accesses: 60847, faults: 6429, evictions: 6421 }),
        ("grid+hub", &hubbed, 4, IoStats { accesses: 91148, faults: 33230, evictions: 33226 }),
    ] {
        let points = place_points_on_nodes(graph, 0.02, 7);
        let queries = sample_node_queries(&points, 40, 9);
        let paged = PagedGraph::build_with(
            graph,
            LayoutStrategy::BfsLocality,
            pool_pages,
            IoCounters::new(),
        )
        .expect("paged graph");
        for (i, &q) in queries.iter().enumerate() {
            let algo = [Algorithm::Eager, Algorithm::Lazy][i % 2];
            let out = run_rknn(algo, &paged, &points, Precomputed::none(), q, 1);
            let reference = naive::naive_rknn(graph, &points, q, 1);
            assert_eq!(out.points, reference.points, "{name}: {algo} from {q}");
        }
        assert_eq!(paged.io_stats(), expected, "{name}");
    }
}
