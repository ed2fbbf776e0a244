//! The host-speed probe: a fixed piece of work, written in the benchmark
//! alone, timed in short slices between the requests of a run.
//!
//! The machine this benchmark runs on is a few virtual CPUs of a shared
//! host, and the same deterministic work runs up to 1.6× slower or faster
//! from one ten-minute stretch to the next. The probe does work of the kind
//! the program does (a hub-label RkNN fold over a 21 MB working set) with
//! the standard library only, on inputs it generates itself, so no change
//! to the program changes its time: only the host does. A slice runs one
//! copy of the probe on each virtual CPU at once, while the server is idle,
//! and the speed factor at an instant is the reference slice time over the
//! median time of the slices nearest to it. The end-to-end timings are
//! reported multiplied by the factor at each request (rates divided):
//! milliseconds of a host that runs the probe in its reference time. The
//! raw figures are in the details line.

use crate::measure::Sample;
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// About the label probe's median slice time on an idle 2-vCPU Xeon
/// (Sapphire Rapids) virtual machine. It fixes the scale of the reported
/// figures only.
const LABEL_PROBE_REFERENCE_MS: f64 = 1.0;

/// Slices nearest to an instant whose median sets the speed factor there:
/// about a quarter second of either workload.
const NEAREST: usize = 9;

/// One copy of the label probe per virtual CPU, each on a thread of its
/// own that lives as long as this value, so a slice starts no thread and
/// every copy keeps its allocations.
pub struct Probes {
    threads: Vec<ProbeThread>,
    footprint_mib: f64,
}

struct ProbeThread {
    start: mpsc::Sender<()>,
    took_ms: mpsc::Receiver<f64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProbeThread {
    fn spawn(mut probe: LabelProbe) -> Self {
        let (start, starts) = mpsc::channel::<()>();
        let (took, took_ms) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            for () in starts {
                let begin = Instant::now();
                probe.work();
                if took.send(begin.elapsed().as_secs_f64() * 1e3).is_err() {
                    return;
                }
            }
        });
        ProbeThread { start, took_ms, handle: Some(handle) }
    }
}

impl Drop for Probes {
    /// Closes every thread's channel and waits for the thread to end.
    fn drop(&mut self) {
        for mut thread in self.threads.drain(..) {
            drop(thread.start);
            if let Some(handle) = thread.handle.take() {
                handle.join().expect("probe thread");
            }
        }
    }
}

impl Probes {
    /// The median slice time of a quiet host, in ms: the time the reported
    /// figures are scaled to.
    pub fn reference_ms(&self) -> f64 {
        LABEL_PROBE_REFERENCE_MS
    }

    /// The memory the probe's inputs hold, in MiB; the benchmark leaves it
    /// out of the program's `memory_mib`.
    pub fn footprint_mib(&self) -> f64 {
        self.footprint_mib
    }

    /// Runs every copy once, all at the same time, and returns the mean of
    /// their times in ms.
    fn slice(&mut self) -> f64 {
        for thread in &self.threads {
            thread.start.send(()).expect("probe thread alive");
        }
        let total: f64 =
            self.threads.iter().map(|t| t.took_ms.recv().expect("probe thread alive")).sum();
        total / self.threads.len() as f64
    }
}

/// The probe slices of one run: when each ran and how long it took.
#[derive(Debug, Default)]
pub struct Speed {
    slices: Vec<(Instant, f64)>,
}

impl Speed {
    /// Runs and times one slice of `probes`.
    pub fn time(&mut self, probes: &mut Probes) {
        let start = Instant::now();
        let ms = probes.slice();
        self.slices.push((start + start.elapsed() / 2, ms));
    }

    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// The median slice time over the run, in ms (0 with no slices).
    pub fn median_ms(&self) -> f64 {
        Sample::new(self.slices.iter().map(|s| s.1).collect()).pct(50.0)
    }

    /// The speed factor at `t`: `reference_ms` over the median of the
    /// [`NEAREST`] slices closest to `t`; below 1 while the host is slower
    /// than the reference. Durations are multiplied by it, rates divided.
    /// 1 when nothing was probed.
    pub fn factor_at(&self, t: Instant, reference_ms: f64) -> f64 {
        if self.slices.is_empty() {
            return 1.0;
        }
        let at = self.slices.partition_point(|s| s.0 < t);
        let from = at.saturating_sub(NEAREST / 2).min(self.slices.len().saturating_sub(NEAREST));
        let near = &self.slices[from..(from + NEAREST).min(self.slices.len())];
        reference_ms / Sample::new(near.iter().map(|s| s.1).collect()).pct(50.0)
    }

    /// The speed factor over every slice from the `first`th on (1 when there
    /// are none).
    pub fn factor_since(&self, first: usize, reference_ms: f64) -> f64 {
        match &self.slices[first.min(self.slices.len())..] {
            [] => 1.0,
            since => reference_ms / Sample::new(since.iter().map(|s| s.1).collect()).pct(50.0),
        }
    }
}

/// xorshift64*: the probe's own generator, fixed forever.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const LABEL_NODES: usize = 20_000;
const LABEL_MAX: usize = 126;
const LABEL_POINTS_EVERY: usize = 100;
const LABEL_PROBE_QUERIES: usize = 16;

/// The synthetic labels and point buckets the probe's copies share.
struct Labels {
    offsets: Vec<usize>,
    hubs: Vec<u32>,
    dists: Vec<f64>,
    bucket_offsets: Vec<usize>,
    bucket_dists: Vec<f64>,
    bucket_nodes: Vec<u32>,
    queries: Vec<u32>,
}

impl Labels {
    /// The bytes the vectors hold.
    fn bytes(&self) -> usize {
        fn size<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        size(&self.offsets)
            + size(&self.hubs)
            + size(&self.dists)
            + size(&self.bucket_offsets)
            + size(&self.bucket_dists)
            + size(&self.bucket_nodes)
            + size(&self.queries)
    }
}

/// The label probe: the two phases of a hub-label RkNN query over synthetic
/// labels of the BRITE world's size (20,000 labels of 60 to 126 entries,
/// 21 MB, and 200 points): the query label's hubs joined with per-hub
/// buckets of points into a hash map, then for each candidate a scan of its
/// own label and bucket prefixes, counting distinct points closer than the
/// query up to k.
pub struct LabelProbe {
    labels: Arc<Labels>,
    map: HashMap<u32, f64>,
    seen: HashSet<u32>,
    next_query: usize,
}

impl LabelProbe {
    /// Builds the labels and returns one copy of the probe per virtual CPU,
    /// all sharing them.
    pub fn probes() -> Probes {
        let mut g = Gen(0xD1B5_4A32_D192_ED03);
        // Sized up front and built without per-label allocations, so the
        // probe leaves no freed memory behind for the program to reuse and
        // its footprint is what it holds.
        let mut offsets = Vec::with_capacity(LABEL_NODES + 1);
        let mut hubs = Vec::with_capacity(LABEL_NODES * LABEL_MAX);
        let mut dists = Vec::with_capacity(LABEL_NODES * LABEL_MAX);
        let mut label = Vec::with_capacity(LABEL_MAX);
        offsets.push(0);
        for _ in 0..LABEL_NODES {
            let len = 60 + g.below(LABEL_MAX - 59);
            // Hubs skew to low ranks, as in a hub labeling.
            label.clear();
            label.extend((0..len).map(|_| (g.unit().powi(3) * LABEL_NODES as f64) as u32));
            label.sort_unstable();
            label.dedup();
            for &h in &label {
                hubs.push(h);
                dists.push(1.0 + 50.0 * g.unit());
            }
            offsets.push(hubs.len());
        }
        let mut buckets: Vec<Vec<(f64, u32)>> = vec![Vec::new(); LABEL_NODES];
        for p in (0..LABEL_NODES).step_by(LABEL_POINTS_EVERY) {
            for e in offsets[p]..offsets[p + 1] {
                buckets[hubs[e] as usize].push((dists[e], p as u32));
            }
        }
        let mut bucket_offsets = vec![0];
        let mut bucket_dists = Vec::new();
        let mut bucket_nodes = Vec::new();
        for mut bucket in buckets {
            bucket.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (d, p) in bucket {
                bucket_dists.push(d);
                bucket_nodes.push(p);
            }
            bucket_offsets.push(bucket_dists.len());
        }
        let queries = (0..256).map(|_| g.below(LABEL_NODES) as u32).collect();
        let labels =
            Labels { offsets, hubs, dists, bucket_offsets, bucket_dists, bucket_nodes, queries };
        let footprint_mib = labels.bytes() as f64 / (1024.0 * 1024.0);
        let labels = Arc::new(labels);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|i| {
                ProbeThread::spawn(LabelProbe {
                    labels: labels.clone(),
                    map: HashMap::new(),
                    seen: HashSet::new(),
                    next_query: i * 128,
                })
            })
            .collect();
        Probes { threads, footprint_mib }
    }

    /// One slice of work: 16 queries, the same amount every time.
    fn work(&mut self) {
        let mut check = 0;
        for _ in 0..LABEL_PROBE_QUERIES {
            let q = self.labels.queries[self.next_query % self.labels.queries.len()] as usize;
            self.next_query += 1;
            check += self.query(q, [1, 2, 4][self.next_query % 3]);
        }
        std::hint::black_box(check);
    }

    fn query(&mut self, q: usize, k: usize) -> usize {
        let l = &*self.labels;
        self.map.clear();
        for e in l.offsets[q]..l.offsets[q + 1] {
            let (h, dh) = (l.hubs[e] as usize, l.dists[e]);
            for j in l.bucket_offsets[h]..l.bucket_offsets[h + 1] {
                let cand = dh + l.bucket_dists[j];
                let best = self.map.entry(l.bucket_nodes[j]).or_insert(f64::INFINITY);
                if cand < *best {
                    *best = cand;
                }
            }
        }
        let mut reverse = 0;
        for (&c, &bound) in &self.map {
            self.seen.clear();
            'hubs: for e in l.offsets[c as usize]..l.offsets[c as usize + 1] {
                let (h, dh) = (l.hubs[e] as usize, l.dists[e]);
                if dh >= bound {
                    continue;
                }
                for j in l.bucket_offsets[h]..l.bucket_offsets[h + 1] {
                    if dh + l.bucket_dists[j] >= bound {
                        break;
                    }
                    let other = l.bucket_nodes[j];
                    if other != c && self.seen.insert(other) && self.seen.len() >= k {
                        break 'hubs;
                    }
                }
            }
            reverse += usize::from(self.seen.len() < k);
        }
        reverse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn factor_is_reference_over_the_median_of_the_nearest_slices() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut speed = Speed::default();
        assert_eq!(speed.factor_at(t0, 1.0), 1.0, "no slices: unscaled");
        // 20 slices 10 ms apart: 1 ms each for the first ten, 2 ms after.
        for i in 0..20 {
            speed.slices.push((at(10 * i), if i < 10 { 1.0 } else { 2.0 }));
        }
        assert_eq!(speed.factor_at(at(0), 1.0), 1.0);
        assert_eq!(speed.factor_at(at(190), 1.0), 0.5);
        assert_eq!(speed.factor_at(at(10_000), 4.0), 2.0);
        // Slices 3..=11 around 70 ms: seven at 1 ms, two at 2 ms.
        assert_eq!(speed.factor_at(at(70), 1.0), 1.0);
        assert_eq!(speed.median_ms(), 1.0, "nearest rank: the 10th of 20");
        assert_eq!(speed.factor_since(10, 1.0), 0.5);
        assert_eq!(speed.factor_since(20, 1.0), 1.0, "no slices since: unscaled");
    }

    #[test]
    fn slices_run_on_one_thread_per_cpu_that_ends_with_the_probes() {
        let mut probes = LabelProbe::probes();
        assert!(probes.footprint_mib() > 15.0, "{}", probes.footprint_mib());
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(probes.threads.len(), cpus);
        let mut speed = Speed::default();
        for _ in 0..3 {
            speed.time(&mut probes);
        }
        assert_eq!(speed.len(), 3);
        assert!(speed.median_ms() > 0.0);
        let running = probes.threads.iter().filter(|t| t.handle.is_some()).count();
        assert_eq!(running, cpus);
        drop(probes);
    }
}
