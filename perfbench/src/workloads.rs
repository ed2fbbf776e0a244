//! The two workloads. Each builds its world with `rnn-datagen` from fixed
//! seeds and its traffic from the run's seed, times world construction
//! (`setup_s`), computes its answer oracle outside the timed window, drives
//! a 2-worker `rnn_server::Server` from one generator thread, and checks the
//! answers. The end-to-end timings are scaled by the host-speed probe
//! (`probe`), whose slices run while the server is idle.
//!
//! A traced run (`--trace 1`) serves the same stream twice, untraced and
//! then with spans around every call, and ends with a replay pass that calls
//! `rnn-core`, `rnn-storage` and `rnn-index` directly; the per-layer metrics
//! come from the traced half and the replay.

use crate::measure::{ms, peak_rss_mib, windowed_median, windows, RunResult, Sample, SpanLog};
use crate::oracle::ZoneOracle;
use crate::probe::{LabelProbe, Probes, Speed};
use crate::serve::{closed_loop, open_loop, saturate, Job, Record, SideTasks};
use rand::seq::SliceRandom;
use rand::Rng;
use rnn_core::engine::{QueryEngine, QuerySpec};
use rnn_core::{Algorithm, QueryStats, Scratch};
use rnn_datagen::{
    brite_topology, place_points_on_nodes, spatial_road_network, BriteConfig, SpatialConfig,
};
use rnn_graph::{Graph, NodeId, NodePointSet, PointsOnNodes};
use rnn_index::HubLabelIndex;
use rnn_obs::{prometheus_text, MetricsRegistry};
use rnn_server::{PointUpdate, Server, ServerConfig, ServerStats, TelemetryConfig, World};
use rnn_storage::{BufferPool, FileDisk, IoCounters, LayoutStrategy, PageLayout, PagedGraph};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line parameters of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 2] = ["paged-road", "label-churn"];

const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 1 << 15;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
const CHURN_SETUP_REPS: usize = 5;

/// Generator seeds of the fixed worlds.
const ROAD_GRAPH_SEED: u64 = 11;
const BRITE_SEED: u64 = 13;

const ROAD_NODES: usize = 50_000;
const DENSITY: f64 = 0.01;

const PAGED_POOL_PAGES: usize = 64;
/// The first requests of a paged-road run, whose I/O counts repeat exactly.
const PAGED_COUNT_WINDOW: usize = 200;
/// Saturation bursts (count, requests each); `capacity_qps` is their median.
const PAGED_SATURATION: (usize, usize) = (12, 100);

const BRITE_NODES: usize = 20_000;
const CHURN_RATE: f64 = 5_000.0;
const CHURN_BURST: usize = 128;
const CHURN_KS: [usize; 3] = [1, 2, 4];
const CHURN_ZIPF_S: f64 = 1.0;
const CHURN_CACHE: usize = 2_048;
const CHURN_UPDATE_EVERY: Duration = Duration::from_millis(20);
const CHURN_SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// Point-set versions whose requests are checked against the oracle.
const CHURN_CHECKED_VERSIONS: usize = 40;
const CHURN_SATURATION: (usize, usize) = (25, 10_000);
const CHURN_REPLAY: usize = 4_000;

/// Runs the named workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    res.detail("workload", &args.workload);
    res.detail("seed", args.seed);
    res.detail("seconds", args.seconds);
    res.detail("trace", args.trace);
    res.detail("workers", WORKERS);
    match args.workload.as_str() {
        "paged-road" => paged_road(args, &mut res)?,
        "label-churn" => label_churn(args, &mut res),
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
    Ok(res)
}

/// The generator of one input stream of a run (`n` names the stream).
fn stream(seed: u64, n: u64) -> impl Rng {
    rnn_datagen::rng(seed.wrapping_mul(16).wrapping_add(n))
}

/// The road network and its data points. The world is the same in every
/// run (fixed generator seeds); the run's seed drives the traffic.
pub(crate) fn road_inputs() -> (Arc<Graph>, Arc<NodePointSet>) {
    let net = spatial_road_network(&SpatialConfig {
        num_nodes: ROAD_NODES,
        seed: ROAD_GRAPH_SEED,
        ..Default::default()
    });
    let points = place_points_on_nodes(&net.graph, DENSITY, ROAD_GRAPH_SEED + 1);
    (Arc::new(net.graph), Arc::new(points))
}

/// The BRITE topology and its initial data points (fixed, like the road
/// world).
pub(crate) fn brite_inputs() -> (Arc<Graph>, NodePointSet) {
    let graph = brite_topology(&BriteConfig {
        num_nodes: BRITE_NODES,
        seed: BRITE_SEED,
        ..Default::default()
    });
    let points = place_points_on_nodes(&graph, DENSITY, BRITE_SEED + 1);
    (Arc::new(graph), points)
}

/// A stream of `len` items made of blocks that each hold every item once,
/// in a seeded order: the mix is exact over every run of whole blocks.
fn blocked<T: Copy>(items: &[T], len: usize, rng: &mut impl Rng) -> Vec<T> {
    let mut out = Vec::with_capacity(len + items.len());
    while out.len() < len {
        let mut block = items.to_vec();
        block.shuffle(rng);
        out.extend(block);
    }
    out.truncate(len);
    out
}

fn config() -> ServerConfig {
    ServerConfig::default().with_workers(WORKERS).with_queue_capacity(QUEUE_CAPACITY)
}

fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).pct(50.0)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Requests per window of the end-to-end timings: each window's p99 has
/// at least 10 samples beyond it.
const WINDOW: usize = 1_000;

/// The windowed end-to-end timings of a serving phase.
#[derive(Clone, Copy, Debug)]
struct Timings {
    /// Medians over windows (see `WINDOW`) of the per-window p50, p99, mean
    /// cost and throughput.
    p50: f64,
    p99: f64,
    cost_ms: f64,
    throughput: f64,
}

/// What a serving phase measured.
struct Summary {
    latency: Sample,
    queue_wait: Sample,
    service: Sample,
    late: Sample,
    admit_us: Sample,
    residual: Sample,
    /// As measured, and scaled by the speed factor at each request's
    /// completion (see `probe`).
    raw: Timings,
    scaled: Timings,
    windows: usize,
    served: usize,
}

/// The windowed timings of `ok` (served records in send order), each
/// request's durations multiplied by `factor` at its completion.
fn timings(ok: &[&Record], factor: &dyn Fn(Instant) -> f64) -> Timings {
    let done = |r: &Record| r.done().expect("served");
    let latency: Vec<f64> = ok.iter().map(|r| ms(done(r) - r.due) * factor(done(r))).collect();
    // The paper's cost: 10 ms per page fault plus the CPU (service) time.
    let cost: Vec<f64> = ok
        .iter()
        .map(|r| {
            let service = r.result.as_ref().map_or(0.0, |s| ms(s.service));
            r.io.faults as f64 * 10.0 + service * factor(done(r))
        })
        .collect();
    // Per window: its requests over the time from its first due time to its
    // last completion, divided by the mean factor of its requests.
    let rates: Vec<f64> = windows(ok.len(), WINDOW)
        .into_iter()
        .filter_map(|w| {
            let window = &ok[w];
            let first = window.iter().map(|r| r.due).min()?;
            let last = window.iter().map(|r| done(r)).max()?;
            let mean_factor =
                window.iter().map(|r| factor(done(r))).sum::<f64>() / window.len() as f64;
            (last > first).then(|| window.len() as f64 / (last - first).as_secs_f64() / mean_factor)
        })
        .collect();
    Timings {
        p50: windowed_median(&latency, WINDOW, |s| s.pct(50.0)).0,
        p99: windowed_median(&latency, WINDOW, |s| s.pct(99.0)).0,
        cost_ms: windowed_median(&cost, WINDOW, Sample::mean).0,
        throughput: Sample::new(rates).pct(50.0),
    }
}

fn summarize(records: &[Record], speed: &Speed, reference_ms: f64) -> Summary {
    // Records come in send order, so windows are consecutive in time.
    let ok: Vec<&Record> = records.iter().filter(|r| r.result.is_ok()).collect();
    let latency: Vec<f64> = ok.iter().filter_map(|r| r.latency()).map(ms).collect();
    let served = |f: &dyn Fn(&crate::serve::Served) -> f64| {
        Sample::new(ok.iter().filter_map(|r| r.result.as_ref().ok()).map(f).collect())
    };
    Summary {
        raw: timings(&ok, &|_| 1.0),
        scaled: timings(&ok, &|t| speed.factor_at(t, reference_ms)),
        windows: windows(latency.len(), WINDOW).len(),
        latency: Sample::new(latency),
        queue_wait: served(&|s| ms(s.queue_wait)),
        service: served(&|s| ms(s.service)),
        late: Sample::new(records.iter().map(|r| ms(r.call - r.due)).collect()),
        admit_us: Sample::new(
            records.iter().map(|r| (r.ret - r.call).as_secs_f64() * 1e6).collect(),
        ),
        residual: Sample::new(
            ok.iter()
                .filter_map(|r| Some(ms(r.observed?.saturating_duration_since(r.done()?))))
                .collect(),
        ),
        served: ok.len(),
    }
}

/// Adds requests to `attempted` and the unserved ones to `failed`.
fn count(res: &mut RunResult, records: &[Record]) {
    res.attempted += records.len() as u64;
    res.failed += records.iter().filter(|r| r.result.is_err()).count() as u64;
}

/// Records the end-to-end metrics of the served phase: the timings scaled
/// by the speed factor (see `probe`), and the throughput scaled where the
/// host's speed sets it (`closed` loop), as measured where the schedule
/// does (open loop).
fn end_to_end(res: &mut RunResult, s: &Summary, records: &[Record], closed: bool) {
    count(res, records);
    res.set("latency_p50_ms", s.scaled.p50);
    res.set("latency_p99_ms", s.scaled.p99);
    res.set("throughput_qps", if closed { s.scaled.throughput } else { s.raw.throughput });
    res.set("cost_per_query_ms", s.scaled.cost_ms);
    res.detail("raw_latency_p50_ms", s.raw.p50);
    res.detail("raw_latency_p99_ms", s.raw.p99);
    res.detail("raw_throughput_qps", s.raw.throughput);
    res.detail("raw_cost_per_query_ms", s.raw.cost_ms);
    res.detail("windows", format!("{} of >= {WINDOW} requests", s.windows));
    res.detail("whole_run_latency_ms", s.latency.describe());
    res.detail("late_ms", s.late.describe());
    res.detail("queue_wait_ms", s.queue_wait.describe());
    res.detail("service_ms", s.service.describe());
    res.detail(
        "error_ratio",
        records.iter().filter(|r| r.result.is_err()).count() as f64 / records.len().max(1) as f64,
    );
    if s.latency.len() < WINDOW {
        res.detail("warning", "fewer than 1000 requests: the p99 has under 10 samples beyond it");
    }
}

/// Records the per-layer serving metrics of the traced phase, the tracing
/// overhead against the untraced phase, and the spans of every request.
fn per_layer_serving(
    res: &mut RunResult,
    untraced: &Summary,
    traced: &Summary,
    stats: &ServerStats,
    spans: &mut SpanLog,
    records: &[Record],
) {
    count(res, records);
    res.set("server.queue_wait_p99_ms", traced.queue_wait.pct(99.0));
    res.set("server.service_p50_ms", traced.service.pct(50.0));
    res.set("server.service_p99_ms", traced.service.pct(99.0));
    res.set("server.admit_us", traced.admit_us.pct(50.0));
    res.set("server.batch_fill", stats.completed as f64 / stats.micro_batches.max(1) as f64);
    res.set("bench.late_p99_ms", traced.late.pct(99.0));
    res.set("bench.residual_ms", traced.residual.pct(50.0));
    res.set("bench.trace_overhead_p50_ms", traced.raw.p50 - untraced.raw.p50);
    res.set("bench.trace_overhead_p99_ms", traced.raw.p99 - untraced.raw.p99);
    res.set("core.cache_hit_ratio", stats.cache.hit_rate());
    res.detail("traced_latency_ms", traced.latency.describe());
    res.detail("untraced_latency_ms", untraced.latency.describe());
    res.detail("queue_wait_ms", traced.queue_wait.describe());
    res.detail("service_ms", traced.service.describe());
    res.detail("residual_ms", traced.residual.describe());
    for r in records {
        let request = Some(r.job as u64);
        let Some(done) = r.done() else { continue };
        let seen = r.observed.unwrap_or(done).max(done);
        let root = spans.push("bench.request", r.due, seen, None, request);
        spans.push("bench.late", r.due, r.call, Some(root), request);
        spans.push("server.admit", r.call, r.ret, Some(root), request);
        let dequeued = done - r.result.as_ref().map_or(Duration::ZERO, |s| s.service);
        spans.push("server.queue", r.ret.min(dequeued), dequeued, Some(root), request);
        spans.push("server.service", dequeued, done, Some(root), request);
    }
}

/// Per-layer self time in ms per served request, and the span file.
fn finish_spans(res: &mut RunResult, spans: &SpanLog, served: usize, args: &Args) {
    let by_layer = spans.self_time_by_layer();
    for (layer, name) in [
        ("bench", "self.bench_ms"),
        ("server", "self.server_ms"),
        ("core", "self.core_ms"),
        ("storage", "self.storage_ms"),
        ("index", "self.index_ms"),
        ("obs", "self.obs_ms"),
    ] {
        let total = by_layer.get(layer).copied().unwrap_or_default();
        res.set(name, ms(total) / served.max(1) as f64);
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    // One file per workload, overwritten by its next traced run.
    let path = dir.join(format!("{}.jsonl", args.workload));
    match std::fs::create_dir_all(&dir).and_then(|_| spans.write(&path)) {
        Ok(()) => res.detail("spans", format!("{} spans in {}", spans.len(), path.display())),
        Err(e) => res.errors.push(format!("writing spans to {}: {e}", path.display())),
    }
}

/// The rest of an untraced run after its served phase (`closed` loop or
/// open): peak memory, then capacity as the median rate of `bursts.0`
/// saturation bursts of `bursts.1` consecutive jobs each, divided by the
/// speed factor of the probe slices run before each burst and after the
/// last, the end-to-end metrics, and the server's accounting. Returns the
/// saturation records for the answer checks.
#[allow(clippy::too_many_arguments)]
fn finish_untraced(
    res: &mut RunResult,
    server: Server,
    jobs: &[Job],
    served: &[Record],
    closed: bool,
    bursts: (usize, usize),
    version: u64,
    probe: &mut Probes,
    mut speed: Speed,
) -> Vec<Record> {
    // The probe's own inputs are not the program's memory.
    res.set("memory_mib", peak_rss_mib() - probe.footprint_mib());
    let reference_ms = probe.reference_ms();
    let mut rates = Vec::new();
    let mut records = Vec::new();
    // The slices of this phase all follow a burst; the factor over all of
    // them is steadier than the few nearest to each burst.
    let first_slice = speed.len();
    for b in 0..bursts.0 {
        speed.time(probe);
        let (rate, r) = saturate(&server, jobs, b * bursts.1, bursts.1, version);
        rates.push(rate);
        records.extend(r);
    }
    speed.time(probe);
    end_to_end(res, &summarize(served, &speed, reference_ms), served, closed);
    res.set("capacity_qps", median(&rates) / speed.factor_since(first_slice, reference_ms));
    res.detail("raw_capacity_qps", median(&rates));
    res.detail("probe_slices", speed.len());
    res.detail("probe_median_ms", speed.median_ms());
    res.detail("probe_reference_ms", reference_ms);
    count(res, &records);
    check_accounting(res, &server.shutdown(), served.len() + records.len());
    records
}

/// Sets the world up `reps` times, shutting down every server but the last,
/// so one world is alive at a time. A probe slice runs before each set-up
/// and after the last. Returns the median set-up time, each scaled by the
/// speed factor at its middle, and what the last set-up built; `build`
/// learns whether it builds the kept world.
fn set_up<T>(
    reps: usize,
    probe: &mut Probes,
    speed: &mut Speed,
    mut build: impl FnMut(bool) -> (Server, T),
) -> (f64, Server, T) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 1..=reps {
        speed.time(probe);
        let t = Instant::now();
        let (server, built) = build(rep == reps);
        times.push((secs(t), t + t.elapsed() / 2));
        if rep == reps {
            kept = Some((server, built));
        } else {
            server.shutdown();
        }
    }
    speed.time(probe);
    let scaled: Vec<f64> = times
        .iter()
        .map(|&(time, mid)| time * speed.factor_at(mid, probe.reference_ms()))
        .collect();
    let (server, built) = kept.expect("at least one set-up");
    (median(&scaled), server, built)
}

/// The traced half of a traced run: `serve` runs the phase again with spans,
/// then the server shuts down and the per-layer serving metrics are taken
/// against the untraced phase.
fn traced_phase(
    res: &mut RunResult,
    server: Server,
    untraced: &[Record],
    serve: impl FnOnce(&Server, &mut SpanLog, &mut Speed) -> Vec<Record>,
) -> (Vec<Record>, SpanLog, usize) {
    let mut spans = SpanLog::new(Instant::now());
    let mut speed = Speed::default();
    let traced = serve(&server, &mut spans, &mut speed);
    let stats = server.shutdown();
    check_accounting(res, &stats, untraced.len() + traced.len());
    res.set("bench.probe_ms", speed.median_ms());
    // Per-layer figures are as measured.
    let unscaled = Speed::default();
    let summary = summarize(&traced, &unscaled, 1.0);
    let before = summarize(untraced, &unscaled, 1.0);
    per_layer_serving(res, &before, &summary, &stats, &mut spans, &traced);
    (traced, spans, summary.served)
}

fn check_accounting(res: &mut RunResult, stats: &ServerStats, submitted: usize) {
    if stats.accounted() != stats.submitted || stats.submitted != submitted as u64 {
        res.errors.push(format!(
            "server accounted {} of {} submitted, the benchmark sent {submitted}",
            stats.accounted(),
            stats.submitted
        ));
    }
}

/// Compares served answers with the oracle. Returns the number checked;
/// mismatches are errors.
fn check_answers<'a>(
    res: &mut RunResult,
    jobs: &[Job],
    records: impl IntoIterator<Item = &'a Record>,
    oracle: &ZoneOracle,
) -> usize {
    let mut checked = 0;
    for r in records {
        let Ok(served) = &r.result else { continue };
        let job = jobs[r.job];
        checked += 1;
        if served.points != oracle.rknn(job.query, job.k) {
            res.wrong_answer(format!(
                "{} q={} k={} (request {})",
                job.algorithm.short_name(),
                job.query,
                job.k,
                r.job
            ));
        }
    }
    checked
}

fn zero_unless_set(res: &mut RunResult) {
    for &(name, _, tier) in crate::measure::METRICS {
        if tier == crate::measure::Tier::PerLayer && !res.values.contains_key(name) {
            res.set(name, 0.0);
        }
    }
}

/// Runs each replayed job through `engine` on this thread, one `core.run`
/// span per call. Returns the run times per algorithm and the summed stats.
fn replay_core(
    engine: &QueryEngine<'_>,
    jobs: &[Job],
    replayed: &[usize],
    spans: &mut SpanLog,
) -> (HashMap<Algorithm, Sample>, QueryStats) {
    let mut scratch = Scratch::new();
    let mut times: HashMap<Algorithm, Vec<f64>> = HashMap::new();
    let mut counts = QueryStats::default();
    for &i in replayed {
        let job = jobs[i];
        let spec = QuerySpec { algorithm: job.algorithm, query: job.query, k: job.k };
        let start = Instant::now();
        let outcome = black_box(engine.run(&spec, &mut scratch));
        let end = Instant::now();
        spans.push("core.run", start, end, None, Some(i as u64));
        times.entry(job.algorithm).or_default().push(ms(end - start));
        counts += &outcome.stats;
    }
    (times.into_iter().map(|(a, v)| (a, Sample::new(v))).collect(), counts)
}

fn set_core_counts(res: &mut RunResult, counts: &QueryStats, n: usize) {
    let per = |v: u64| v as f64 / n.max(1) as f64;
    res.set("core.nodes_settled", per(counts.nodes_settled));
    res.set("core.verifications", per(counts.verifications));
    res.set("core.range_nn", per(counts.range_nn_queries));
}

// ---------------------------------------------------------------------------
// paged-road
// ---------------------------------------------------------------------------

/// A directory for the page file, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

type PagedRoad = PagedGraph<FileDisk>;

fn build_paged(graph: &Graph, path: &std::path::Path) -> Result<PagedRoad, String> {
    let layout =
        PageLayout::build(graph, LayoutStrategy::BfsLocality).map_err(|e| e.to_string())?;
    let disk = FileDisk::create(path, &layout.pages).map_err(|e| e.to_string())?;
    let pool = BufferPool::new(disk, PAGED_POOL_PAGES, IoCounters::new());
    Ok(PagedGraph::from_parts(pool, layout.index, graph.num_nodes()))
}

fn paged_road(args: &Args, res: &mut RunResult) -> Result<(), String> {
    let (graph, points) = road_inputs();
    let work = WorkDir::new().map_err(|e| format!("creating the page-file directory: {e}"))?;
    res.detail("graph", format!("spatial road network, {} nodes after LCC", graph.num_nodes()));
    res.detail("points", points.num_points());
    res.detail("pool_pages", PAGED_POOL_PAGES);
    res.detail("mix", "closed loop, one client, E and L alternating, k=1");

    // E and L alternate; each walks its own seeded permutation of the data
    // points, so every run queries every point about equally often and runs
    // differ in order, not in which nodes they draw.
    let mut rng = stream(args.seed, 2);
    let orders: [Vec<NodeId>; 2] = std::array::from_fn(|_| {
        let mut order = points.nodes().to_vec();
        order.shuffle(&mut rng);
        order
    });
    // Enough jobs that the loop never cycles within a run.
    let jobs: Vec<Job> = (0..20_000)
        .map(|i| Job {
            algorithm: [Algorithm::Eager, Algorithm::Lazy][i % 2],
            query: orders[i % 2][(i / 2) % points.num_points()],
            k: 1,
        })
        .collect();

    // Built first, so its memory is held through every phase and the peak
    // less its footprint is the benchmark's and the program's.
    let mut probe = LabelProbe::probes();
    let mut speed = Speed::default();
    let mut build = Vec::new();
    let (setup, server, paged) = set_up(SETUP_REPS, &mut probe, &mut speed, |_| {
        let t = Instant::now();
        let paged = build_paged(&graph, &work.0.join("road.pages"))
            .unwrap_or_else(|e| panic!("building the page file: {e}"));
        let paged = Arc::new(paged);
        build.push(secs(t));
        let counters = paged.counters().clone();
        let world = World::new(paged.clone(), points.clone());
        (Server::start_with_io(world, config(), counters), paged)
    });
    res.set("setup_s", setup);
    res.set("storage.build_s", median(&build));
    res.detail("pages", paged.num_pages());

    let oracle = ZoneOracle::build(&*graph, &points, 1, &|n| points.contains_node(n));
    let counters = paged.counters().clone();
    let mut run = |server: &Server, speed: &mut Speed| {
        let until = Instant::now() + Duration::from_secs_f64(args.seconds);
        closed_loop(server, &jobs, until, PAGED_COUNT_WINDOW, &counters, &mut probe, speed)
    };
    let untraced = run(&server, &mut speed);
    let checked = check_answers(res, &jobs, &untraced, &oracle);
    let window = &untraced[..PAGED_COUNT_WINDOW];
    let faults: u64 = window.iter().map(|r| r.io.faults).sum();
    res.detail("window_faults_per_query", faults as f64 / window.len() as f64);
    if !args.trace {
        let sat = finish_untraced(
            res,
            server,
            &jobs,
            &untraced,
            true,
            PAGED_SATURATION,
            0,
            &mut probe,
            speed,
        );
        let checked = checked + check_answers(res, &jobs, &sat, &oracle);
        res.detail("checked_answers", checked);
        return Ok(());
    }

    let (traced, mut spans, served) =
        traced_phase(res, server, &untraced, |server, _, speed| run(server, speed));
    let checked = checked + check_answers(res, &jobs, &traced, &oracle);
    res.detail("checked_answers", checked);

    // Replay the count window from a cold pool, on the paged graph and on
    // the in-memory graph, with I/O snapshots around each paged call.
    paged.cold_start();
    let replayed: Vec<usize> = (0..PAGED_COUNT_WINDOW).collect();
    let paged_engine = QueryEngine::new(&*paged, &*points);
    let mut scratch = Scratch::new();
    let mut io_total = rnn_storage::IoStats::default();
    let mut paged_ms = Vec::new();
    for &i in &replayed {
        let job = jobs[i];
        let spec = QuerySpec { algorithm: job.algorithm, query: job.query, k: job.k };
        let before = paged.counters().snapshot();
        let start = Instant::now();
        black_box(paged_engine.run(&spec, &mut scratch));
        let end = Instant::now();
        io_total += &paged.counters().snapshot().since(&before);
        spans.push("storage.paged_run", start, end, None, Some(i as u64));
        paged_ms.push(ms(end - start));
    }
    let memory_engine = QueryEngine::new(&*graph, &*points);
    let (per_algo, counts) = replay_core(&memory_engine, &jobs, &replayed, &mut spans);
    let n = replayed.len() as f64;
    res.set("storage.accesses_per_query", io_total.accesses as f64 / n);
    res.set("storage.faults_per_query", io_total.faults as f64 / n);
    res.set("storage.hit_ratio", io_total.hit_ratio());
    let memory_mean = per_algo.values().map(|s| s.mean() * s.len() as f64).sum::<f64>() / n;
    res.set("storage.paged_overhead_ms", Sample::new(paged_ms).mean() - memory_mean);
    res.set("core.run_ms.E", per_algo.get(&Algorithm::Eager).map_or(0.0, Sample::mean));
    res.set("core.run_ms.L", per_algo.get(&Algorithm::Lazy).map_or(0.0, Sample::mean));
    set_core_counts(res, &counts, replayed.len());
    finish_spans(res, &spans, served, args);
    zero_unless_set(res);
    Ok(())
}

// ---------------------------------------------------------------------------
// label-churn
// ---------------------------------------------------------------------------

/// The generator's side work on label-churn: a one-out/one-in point update
/// every 20 ms and a metrics scrape every 100 ms.
struct Churn<'a> {
    num_nodes: usize,
    updates: &'a [(NodeId, NodeId)],
    current: BTreeSet<NodeId>,
    registry: &'a MetricsRegistry,
    next_update: Instant,
    next_scrape: Instant,
    end: Instant,
    /// When the swap to version `v` began, at index `v - 1`.
    swap_started: Vec<Instant>,
    update_latency: Vec<f64>,
    swap_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
}

impl Churn<'_> {
    fn begin_phase(&mut self, start: Instant, seconds: f64) {
        self.next_update = start + CHURN_UPDATE_EVERY;
        self.next_scrape = start + CHURN_SCRAPE_EVERY;
        self.end = start + Duration::from_secs_f64(seconds);
    }
}

impl SideTasks for Churn<'_> {
    fn next_due(&self) -> Option<Instant> {
        let next = self.next_update.min(self.next_scrape);
        (next < self.end).then_some(next)
    }

    fn run_next(&mut self, server: &Server, spans: Option<&mut SpanLog>) {
        if self.next_scrape < self.next_update {
            let due = self.next_scrape;
            let start = Instant::now();
            let text = prometheus_text(&self.registry.snapshot());
            black_box(text.len());
            let end = Instant::now();
            self.scrape_ms.push(ms(end - start));
            if let Some(spans) = spans {
                spans.push("obs.scrape", start, end, None, None);
            }
            self.next_scrape = due + CHURN_SCRAPE_EVERY;
            return;
        }
        let due = self.next_update;
        let (out, into) = self.updates[self.swap_started.len()];
        self.swap_started.push(Instant::now());
        self.current.remove(&out);
        self.current.insert(into);
        let points =
            Arc::new(NodePointSet::from_nodes(self.num_nodes, self.current.iter().copied()));
        let call = Instant::now();
        let delta = server.swap_points_delta(
            points,
            None,
            &[PointUpdate::Remove(out), PointUpdate::Insert(into)],
        );
        assert!(delta, "the world keeps its concrete hub-label index");
        let end = Instant::now();
        self.update_latency.push(ms(end - due));
        self.swap_ms.push(ms(end - call));
        if let Some(spans) = spans {
            let root = spans.push("bench.update", due, end, None, None);
            spans.push("server.swap", call, end, Some(root), None);
        }
        self.next_update = due + CHURN_UPDATE_EVERY;
    }

    fn version(&self) -> u64 {
        self.swap_started.len() as u64
    }
}

/// The sequence of one-out/one-in updates: each removes a uniformly chosen
/// current point and adds one on a uniformly chosen free node.
fn churn_updates(
    initial: &NodePointSet,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<(NodeId, NodeId)> {
    let n = initial.num_graph_nodes();
    let mut current: Vec<NodeId> = initial.nodes().to_vec();
    let mut occupied: BTreeSet<NodeId> = current.iter().copied().collect();
    (0..count)
        .map(|_| {
            let slot = rng.gen_range(0..current.len());
            let out = current[slot];
            let into = loop {
                let c = NodeId::new(rng.gen_range(0..n));
                if !occupied.contains(&c) {
                    break c;
                }
            };
            occupied.remove(&out);
            occupied.insert(into);
            current[slot] = into;
            (out, into)
        })
        .collect()
}

/// Zipf(s) over a seeded permutation of the nodes: rank r has weight
/// `1 / r^s`.
fn zipf_queries(num_nodes: usize, count: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    let mut order: Vec<usize> = (0..num_nodes).collect();
    order.shuffle(rng);
    let mut cdf = Vec::with_capacity(num_nodes);
    let mut total = 0.0;
    for r in 1..=num_nodes {
        total += 1.0 / (r as f64).powf(CHURN_ZIPF_S);
        cdf.push(total);
    }
    (0..count)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            NodeId::new(order[cdf.partition_point(|&c| c < u).min(num_nodes - 1)])
        })
        .collect()
}

/// The point set after the first `version` updates.
fn points_at(initial: &NodePointSet, updates: &[(NodeId, NodeId)], version: usize) -> NodePointSet {
    let mut nodes: BTreeSet<NodeId> = initial.nodes().iter().copied().collect();
    for &(out, into) in &updates[..version] {
        nodes.remove(&out);
        nodes.insert(into);
    }
    NodePointSet::from_nodes(initial.num_graph_nodes(), nodes)
}

/// Checks the requests sent while a sampled version was live. A request may
/// have been served by any version from the one live at its send to the
/// last one whose swap began before it completed; it passes if it matches
/// the oracle of one of them.
#[allow(clippy::too_many_arguments)]
fn check_churn_sample(
    res: &mut RunResult,
    graph: &Graph,
    initial: &NodePointSet,
    updates: &[(NodeId, NodeId)],
    swap_started: &[Instant],
    jobs: &[Job],
    records: &[&Record],
    sampled: &BTreeSet<u64>,
) -> usize {
    let range = |r: &Record| -> (u64, u64) {
        let done = r.done().expect("served");
        let hi = swap_started.partition_point(|&t| t < done) as u64;
        (r.version, hi.max(r.version))
    };
    let chosen: Vec<&Record> = records
        .iter()
        .copied()
        .filter(|r| r.result.is_ok() && sampled.contains(&r.version))
        .collect();
    let mut wanted: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
    for r in &chosen {
        let (lo, hi) = range(r);
        for v in lo..=hi {
            wanted.entry(v).or_default().insert(jobs[r.job].query);
        }
    }
    let k_max = *CHURN_KS.iter().max().expect("non-empty");
    let oracles: HashMap<u64, ZoneOracle> = wanted
        .iter()
        .map(|(&v, queries)| {
            let points = points_at(initial, updates, v as usize);
            (v, ZoneOracle::build(graph, &points, k_max, &|n| queries.contains(&n)))
        })
        .collect();
    for r in &chosen {
        let job = jobs[r.job];
        let (lo, hi) = range(r);
        let answer = &r.result.as_ref().expect("served").points;
        if !(lo..=hi).any(|v| oracles[&v].rknn(job.query, job.k) == *answer) {
            res.wrong_answer(format!(
                "HL q={} k={} (request {}, versions {lo}..={hi})",
                job.query, job.k, r.job
            ));
        }
    }
    chosen.len()
}

fn label_churn(args: &Args, res: &mut RunResult) {
    let (graph, initial) = brite_inputs();
    res.detail("graph", format!("BRITE, {} nodes", graph.num_nodes()));
    res.detail("points", initial.num_points());
    res.detail("rate_qps", CHURN_RATE);
    res.detail(
        "mix",
        format!("HL only, Zipf(1.0) query nodes, k in {{1,2,4}}, bursts of {CHURN_BURST}"),
    );

    let phases = if args.trace { 2.0 } else { 1.0 };
    let count = (CHURN_RATE * args.seconds).ceil() as usize;
    let updates_per_phase = (args.seconds / CHURN_UPDATE_EVERY.as_secs_f64()).ceil() as usize + 1;
    let mut rng = stream(args.seed, 3);
    let updates = churn_updates(&initial, updates_per_phase * phases as usize, &mut rng);
    let total = count.max(CHURN_SATURATION.0 * CHURN_SATURATION.1);
    let ks = blocked(&CHURN_KS, total, &mut rng);
    let jobs: Vec<Job> = zipf_queries(graph.num_nodes(), total, &mut rng)
        .into_iter()
        .zip(ks)
        .map(|(query, k)| Job { algorithm: Algorithm::HubLabel, query, k })
        .collect();

    // Built first, so its memory is held through every phase and the peak
    // less its footprint is the program's.
    let mut probe = LabelProbe::probes();
    let mut speed = Speed::default();
    let points = Arc::new(initial.clone());
    let mut build = Vec::new();
    let (setup, server, (registry, replay_index, label_mib)) =
        set_up(CHURN_SETUP_REPS, &mut probe, &mut speed, |last| {
            let t = Instant::now();
            let index = HubLabelIndex::build_with_threads(&*graph, &*points, WORKERS);
            build.push(secs(t));
            let registry = MetricsRegistry::new();
            index.register_metrics(&registry);
            let label_mib = index.labeling().stats().label_bytes() as f64 / (1024.0 * 1024.0);
            // A traced run replays on its own copy; it reports no `setup_s`.
            let replay_index = (args.trace && last).then(|| index.clone());
            let world =
                World::new(graph.clone(), points.clone()).with_hub_label_index(Arc::new(index));
            let server = Server::start_with_telemetry(
                world,
                config()
                    .with_result_cache(CHURN_CACHE, 0)
                    .with_slow_query_log(16, 64, 64, args.seed),
                TelemetryConfig::new().with_tick_micro_batches(64),
                None,
                &registry,
            );
            (server, (registry, replay_index, label_mib))
        });
    res.set("setup_s", setup);
    res.set("index.build_s", median(&build));
    res.set("index.label_mib", label_mib);

    let mut churn = Churn {
        num_nodes: graph.num_nodes(),
        updates: &updates,
        current: initial.nodes().iter().copied().collect(),
        registry: &registry,
        next_update: Instant::now(),
        next_scrape: Instant::now(),
        end: Instant::now(),
        swap_started: Vec::new(),
        update_latency: Vec::new(),
        swap_ms: Vec::new(),
        scrape_ms: Vec::new(),
    };
    let serve = &jobs[..count];
    let start = Instant::now();
    churn.begin_phase(start, args.seconds);
    let untraced = open_loop(
        &server,
        serve,
        CHURN_RATE,
        CHURN_BURST,
        start,
        &mut churn,
        &mut probe,
        &mut speed,
        None,
    );

    let versions = updates.len() as u64 + 1;
    let mut sampled: BTreeSet<u64> =
        (0..CHURN_CHECKED_VERSIONS).map(|_| rng.gen_range(0..versions)).collect();
    if !args.trace {
        let version = churn.version();
        let sat = finish_untraced(
            res,
            server,
            &jobs,
            &untraced,
            false,
            CHURN_SATURATION,
            version,
            &mut probe,
            speed,
        );
        res.detail("update_ms", Sample::new(churn.update_latency.clone()).describe());
        // The saturation bursts ran on the final version: check a slice of
        // them there, plus every request sent while a sampled version was
        // live.
        sampled.insert(version);
        let all: Vec<&Record> = untraced.iter().chain(sat.iter().step_by(16)).collect();
        let checked = check_churn_sample(
            res,
            &graph,
            &initial,
            &updates,
            &churn.swap_started,
            &jobs,
            &all,
            &sampled,
        );
        res.detail("checked_answers", checked);
        return;
    }

    let (traced, mut spans, served) =
        traced_phase(res, server, &untraced, |server, spans, speed| {
            let start = Instant::now();
            churn.begin_phase(start, args.seconds);
            let (side, probe) = (&mut churn, &mut probe);
            open_loop(
                server,
                serve,
                CHURN_RATE,
                CHURN_BURST,
                start,
                side,
                probe,
                speed,
                Some(spans),
            )
        });
    let all: Vec<&Record> = untraced.iter().chain(&traced).collect();
    let checked = check_churn_sample(
        res,
        &graph,
        &initial,
        &updates,
        &churn.swap_started,
        &jobs,
        &all,
        &sampled,
    );
    res.detail("checked_answers", checked);
    let update = Sample::new(churn.update_latency.clone());
    res.set("update.p50_ms", update.pct(50.0));
    res.set("update.p99_ms", update.pct(99.0));
    res.detail("update_ms", update.describe());
    res.set("server.swap_ms", Sample::new(churn.swap_ms.clone()).pct(50.0));
    res.set("obs.scrape_ms", Sample::new(churn.scrape_ms.clone()).pct(50.0));

    // Replay: the same updates on the benchmark's own copy of the index,
    // then a slice of the traced requests against the final version.
    let mut index = replay_index.expect("traced runs keep a replay index");
    let mut delta_us = Vec::new();
    for &(out, into) in &updates[..churn.swap_started.len()] {
        let start = Instant::now();
        index.remove_point(out);
        index.insert_point(into);
        let end = Instant::now();
        spans.push("index.delta_update", start, end, None, None);
        delta_us.push((end - start).as_secs_f64() * 1e6 / 2.0);
    }
    res.set("index.delta_update_us", Sample::new(delta_us).mean());
    let step = (traced.len() / CHURN_REPLAY).max(1);
    let mut scratch = Scratch::new();
    let mut counts = QueryStats::default();
    let mut rknn_us = Vec::new();
    let mut replayed = 0;
    for r in traced.iter().step_by(step) {
        let job = jobs[r.job];
        let start = Instant::now();
        let outcome = black_box(index.rknn_in(job.query, job.k, &mut scratch));
        let end = Instant::now();
        spans.push("index.rknn_in", start, end, None, Some(r.job as u64));
        rknn_us.push((end - start).as_secs_f64() * 1e6);
        counts += &outcome.stats;
        replayed += 1;
    }
    let per = |v: u64| v as f64 / replayed.max(1) as f64;
    res.set("index.rknn_us", Sample::new(rknn_us).mean());
    res.set("index.label_scans", per(counts.label_scans));
    res.set("index.bucket_scans", per(counts.bucket_scans));
    res.set("index.candidates", per(counts.candidates));
    set_core_counts(res, &counts, replayed);
    finish_spans(res, &spans, served, args);
    zero_unless_set(res);
}
