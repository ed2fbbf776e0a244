//! Load generators: the open loop (requests sent on a schedule), the closed
//! loop (one client, next request after the previous answer), and the
//! saturation burst that measures capacity. Each returns one record per
//! request with the benchmark's own timestamps beside the server's
//! `queue_wait` / `service_time`.

use crate::measure::SpanLog;
use crate::probe::{Probes, Speed};
use rnn_core::Algorithm;
use rnn_graph::{NodeId, PointId};
use rnn_server::{Request, ServeError, ServeResult, Server, Ticket};
use rnn_storage::{IoCounters, IoStats};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One request of a workload's stream.
#[derive(Copy, Clone, Debug)]
pub struct Job {
    pub algorithm: Algorithm,
    pub query: NodeId,
    pub k: usize,
}

impl Job {
    fn request(&self, submit: Instant) -> Request {
        let mut r = Request::new(self.algorithm, self.query, self.k);
        r.submit_instant = submit;
        r
    }
}

/// What happened to one request.
#[derive(Debug)]
pub struct Record {
    /// Index into the job stream.
    pub job: usize,
    /// When the request was due (the call instant in a closed loop).
    pub due: Instant,
    /// When the submit call began (the request's `submit_instant`).
    pub call: Instant,
    /// When the submit call returned.
    pub ret: Instant,
    /// The served answer, or why there is none.
    pub result: Result<Served, ServeError>,
    /// When the client saw the answer: closed loop, and the traced open loop
    /// when the collector was already waiting for this request.
    pub observed: Option<Instant>,
    /// The point-set version live when the request was sent.
    pub version: u64,
    /// Storage I/O of this request (closed loop only: one request in flight).
    pub io: IoStats,
}

/// A served answer: the points only, so a record's size does not depend on
/// the algorithm's counters and `memory_mib` moves little with how many
/// requests a run served.
#[derive(Debug)]
pub struct Served {
    pub points: Vec<PointId>,
    pub queue_wait: Duration,
    pub service: Duration,
}

impl Record {
    /// Worker-side completion instant: the submit instant plus the queue
    /// wait and service time the server measured.
    pub fn done(&self) -> Option<Instant> {
        self.result.as_ref().ok().map(|s| self.call + s.queue_wait + s.service)
    }

    /// Due time to completion.
    pub fn latency(&self) -> Option<Duration> {
        self.done().map(|d| d - self.due)
    }
}

fn split(result: ServeResult) -> Result<Served, ServeError> {
    result.map(|s| Served {
        points: s.outcome.points,
        queue_wait: s.queue_wait,
        service: s.service_time,
    })
}

/// Work the generator thread does between bursts (point updates, metric
/// scrapes), on its own schedule.
pub trait SideTasks {
    /// When the next task is due, if any.
    fn next_due(&self) -> Option<Instant>;
    /// Runs the task that is due.
    fn run_next(&mut self, server: &Server, spans: Option<&mut SpanLog>);
    /// The point-set version currently installed.
    fn version(&self) -> u64;
}

/// Sleeps until shortly before `t`, then spins: a sleeping thread wakes
/// about 0.1 ms late on a virtual machine, and that lateness would be
/// charged to the server as latency.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(400);
    if let Some(wait) = t.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Open loop: burst `b` (jobs `b*burst..`) is due at `start + b*burst/rate`,
/// sent whether or not earlier requests have finished. Side tasks run at
/// their own due times in between, and a probe slice runs half an interval
/// before each burst after the first, when the previous burst has normally
/// been served. With `spans`, a collector thread waits on the tickets as
/// they resolve, so each record carries the instant the client saw its
/// answer; without, the tickets are collected afterwards.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &Server,
    jobs: &[Job],
    rate: f64,
    burst: usize,
    start: Instant,
    side: &mut dyn SideTasks,
    probe: &mut Probes,
    speed: &mut Speed,
    mut spans: Option<&mut SpanLog>,
) -> Vec<Record> {
    let interval = Duration::from_secs_f64(burst as f64 / rate);
    let mut sent: Vec<(usize, Instant, Instant, Instant, u64)> = Vec::with_capacity(jobs.len());
    // `None`: the ticket went to the collector thread.
    let mut tickets: Vec<Option<Result<Ticket, ServeError>>> = Vec::with_capacity(jobs.len());
    let mut observed: Vec<(usize, ServeResult, Option<Instant>)> = Vec::new();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
        let collector = spans.is_some().then(|| {
            scope.spawn(move || {
                let mut seen = Vec::new();
                for (i, ticket) in rx {
                    // Tickets are waited in send order; an answer that was
                    // already in when its turn came was not seen live, so it
                    // gets no observation instant.
                    let witnessed = !ticket.is_done();
                    let result = ticket.wait();
                    seen.push((i, result, witnessed.then(Instant::now)));
                }
                seen
            })
        });
        let tx = collector.is_some().then_some(tx);
        let mut burst_requests = Vec::with_capacity(burst);
        for (b, chunk) in jobs.chunks(burst).enumerate() {
            let due = start + interval * b as u32;
            let mut run_side = |until: Instant, mut spans: Option<&mut SpanLog>| {
                while let Some(side_due) = side.next_due().filter(|&d| d <= until) {
                    wait_until(side_due);
                    side.run_next(server, spans.as_deref_mut());
                }
            };
            if b > 0 {
                let probe_at = due - interval / 2;
                run_side(probe_at, spans.as_deref_mut());
                wait_until(probe_at);
                speed.time(probe);
            }
            run_side(due, spans.as_deref_mut());
            wait_until(due);
            let version = side.version();
            let call = Instant::now();
            burst_requests.clear();
            burst_requests.extend(chunk.iter().map(|j| j.request(call)));
            let results = if burst == 1 {
                vec![server.submit(burst_requests[0])]
            } else {
                server.submit_all(&burst_requests)
            };
            let ret = Instant::now();
            for (j, result) in results.into_iter().enumerate() {
                let i = b * burst + j;
                sent.push((i, due, call, ret, version));
                match (result, &tx) {
                    (Ok(ticket), Some(tx)) => {
                        tx.send((i, ticket)).expect("collector alive");
                        tickets.push(None);
                    }
                    (result, _) => tickets.push(Some(result)),
                }
            }
        }
        drop(tx);
        if let Some(collector) = collector {
            observed = collector.join().expect("collector thread");
        }
    });
    let mut results: Vec<Option<(ServeResult, Option<Instant>)>> =
        tickets.into_iter().map(|t| t.map(|t| (t.and_then(Ticket::wait), None))).collect();
    for (i, result, at) in observed {
        results[i] = Some((result, at));
    }
    sent.into_iter()
        .zip(results)
        .map(|((job, due, call, ret, version), result)| {
            let (result, observed) = result.unwrap_or((Err(ServeError::Lost), None));
            Record {
                job,
                due,
                call,
                ret,
                result: split(result),
                observed,
                version,
                io: IoStats::default(),
            }
        })
        .collect()
}

/// Requests between two probe slices in the closed loop.
const PROBE_EVERY: usize = 8;

/// Closed loop with one client: request `i + 1` is sent when the answer to
/// `i` arrives, cycling through `jobs`, until `until` has passed and at
/// least `min_jobs` requests were answered. `io` is snapshotted around each
/// request; with one request in flight the difference is that request's
/// I/O exactly. A probe slice runs before every [`PROBE_EVERY`]th request,
/// while the server is idle.
pub fn closed_loop(
    server: &Server,
    jobs: &[Job],
    until: Instant,
    min_jobs: usize,
    io: &IoCounters,
    probe: &mut Probes,
    speed: &mut Speed,
) -> Vec<Record> {
    let mut records = Vec::with_capacity(jobs.len());
    let mut i = 0;
    while i < min_jobs || Instant::now() < until {
        if i % PROBE_EVERY == 0 {
            speed.time(probe);
        }
        let job = jobs[i % jobs.len()];
        let before = io.snapshot();
        let call = Instant::now();
        let submitted = server.submit(job.request(call));
        let ret = Instant::now();
        let result = submitted.and_then(Ticket::wait);
        let observed = Instant::now();
        records.push(Record {
            job: i % jobs.len(),
            due: call,
            call,
            ret,
            result: split(result),
            observed: Some(observed),
            version: 0,
            io: io.snapshot().since(&before),
        });
        i += 1;
    }
    records
}

/// Saturation: `jobs[first..first + count]` in one `submit_all`, timed
/// from the call until the last request completes. Returns the requests per
/// second and the records.
pub fn saturate(
    server: &Server,
    jobs: &[Job],
    first: usize,
    count: usize,
    version: u64,
) -> (f64, Vec<Record>) {
    let call = Instant::now();
    let requests: Vec<Request> =
        jobs[first..first + count].iter().map(|j| j.request(call)).collect();
    let results = server.submit_all(&requests);
    let ret = Instant::now();
    let records: Vec<Record> = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| Record {
            job: first + i,
            due: call,
            call,
            ret,
            result: split(r.and_then(Ticket::wait)),
            observed: None,
            version,
            io: IoStats::default(),
        })
        .collect();
    let last = records.iter().filter_map(Record::done).max().unwrap_or(ret);
    let seconds = (last - call).as_secs_f64().max(1e-9);
    (count as f64 / seconds, records)
}
