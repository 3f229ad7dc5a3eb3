//! Load generation: paced and Poisson request streams, optionally mixed
//! over several tables, for latency-throughput sweeps (the serving-side
//! analogue of the paper's Fig. 13 SLA curves).

use crate::client::Client;
use crate::protocol::ServerMsg;
use crate::request::RejectReason;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::stats::LatencySummary;
use secemb_telemetry::{Stage, StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How request send times are spaced on each connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Fixed inter-request interval (deterministic, zero burstiness) —
    /// a lower bound on queueing pressure at a given offered rate.
    #[default]
    Paced,
    /// Exponential inter-arrival times (an open-loop Poisson process per
    /// connection) — the memoryless arrivals real front-ends see, with
    /// bursts that stress admission control at the same mean rate.
    Poisson,
}

impl Schedule {
    /// Short CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Paced => "paced",
            Schedule::Poisson => "poisson",
        }
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paced" => Ok(Schedule::Paced),
            "poisson" => Ok(Schedule::Poisson),
            other => Err(format!("unknown schedule '{other}' (paced|poisson)")),
        }
    }
}

/// One load run's parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server (or router) addresses. Connections are assigned
    /// round-robin across the list, so a multi-entry list spreads the
    /// offered load over a fleet of equivalent front-ends; the table
    /// inventory is probed from the first entry.
    pub addrs: Vec<SocketAddr>,
    /// Concurrent connections (each a closed loop of scheduled requests).
    pub connections: usize,
    /// Extra connections held open but idle for the whole run. Each
    /// performs one inventory round trip at startup (so the server has
    /// fully admitted it) and then sits silent until the run ends —
    /// modeling the mostly-idle connection fleets long-lived front-ends
    /// keep, which a reactor server holds at O(1) threads.
    pub idle_connections: usize,
    /// Tables to query; each request picks one uniformly at random, so a
    /// multi-entry list produces mixed traffic across shards.
    pub tables: Vec<usize>,
    /// Indices per request.
    pub batch: usize,
    /// Offered load, requests/second across all connections.
    pub offered_rps: f64,
    /// Inter-arrival schedule.
    pub schedule: Schedule,
    /// Measurement length.
    pub duration: Duration,
    /// Per-request deadline sent to the server, if any.
    pub deadline: Option<Duration>,
    /// Requests in flight per connection. 1 is the classic closed loop
    /// (each request waits for its response); a depth `K > 1` pipelines
    /// up to `K` id-matched requests on each connection, the way a
    /// batching front-end multiplexes one upstream socket.
    pub pipeline_depth: usize,
    /// Fraction of requests sent as oblivious updates (read-modify-write
    /// with random small delta rows) instead of plain reads, in `[0, 1]`.
    /// 0.0 is the classic read-only workload; against a table without a
    /// write path the updates come back `UpdateUnsupported` and count as
    /// rejections.
    pub write_frac: f64,
    /// RNG seed for index/table selection and Poisson arrivals.
    pub seed: u64,
    /// When true, the report carries one [`RequestRecord`] per answered
    /// request (completed or rejected) for per-request JSONL export.
    pub record_requests: bool,
    /// When true, every request carries a distributed-trace context with
    /// a sequential public trace id (shared counter across connections),
    /// so a server running `--trace-sample N` records spans for every
    /// N-th request. The trace id never encodes tables or indices.
    pub trace: bool,
    /// Bucket response outcomes into fixed windows measured from run
    /// start (`None` disables). Feeds [`LoadReport::timeline`] — the
    /// view that makes a mid-run backend kill legible as a bounded dip
    /// rather than an averaged-away blip.
    pub timeline_bucket: Option<Duration>,
    /// Separately tally outcomes landing in the final window of the run
    /// (`None` disables). Feeds [`LoadReport::tail`] — "had the tier
    /// recovered by the end?", the assertion a failover smoke test
    /// needs after killing and restarting a backend.
    pub tail_window: Option<Duration>,
}

/// Response outcomes over one window: completions, ordinary rejections,
/// and `Internal` rejections broken out on their own because they are
/// the client-visible signature of an unhealthy backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests answered with embeddings.
    pub ok: u64,
    /// Requests rejected for any reason other than `Internal`
    /// (admission control, deadlines, shutdown — expected behavior).
    pub rejected: u64,
    /// Requests rejected with [`RejectReason::Internal`] — the failure
    /// mode replica failover exists to bound.
    pub internal: u64,
}

impl OutcomeCounts {
    fn note(&mut self, rejected: Option<RejectReason>) {
        match rejected {
            None => self.ok += 1,
            Some(RejectReason::Internal) => self.internal += 1,
            Some(_) => self.rejected += 1,
        }
    }

    fn merge(&mut self, other: &OutcomeCounts) {
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.internal += other.internal;
    }

    /// Grep-able key=value rendering (`ok=12 rejected=0 internal=0`).
    pub fn render(&self) -> String {
        format!(
            "ok={} rejected={} internal={}",
            self.ok, self.rejected, self.internal
        )
    }
}

/// One answered request, as the client observed it. Only present in a
/// [`LoadReport`] when [`LoadConfig::record_requests`] was set.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Which load connection issued the request.
    pub conn: usize,
    /// Table the request targeted.
    pub table: usize,
    /// Client-observed round-trip latency, nanoseconds.
    pub latency_ns: u64,
    /// Server-attributed per-stage breakdown; `None` for rejections.
    pub stages: Option<StageBreakdown>,
    /// Whether the round trip met the configured deadline (vacuously true
    /// without one). Meaningless for rejections.
    pub sla_ok: bool,
    /// The server's explicit rejection, if the request was refused.
    pub rejected: Option<RejectReason>,
}

impl RequestRecord {
    /// SLA verdict label: `ok`, `sla_violation` or `rejected`.
    pub fn verdict(&self) -> &'static str {
        if self.rejected.is_some() {
            "rejected"
        } else if self.sla_ok {
            "ok"
        } else {
            "sla_violation"
        }
    }

    /// One compact JSON object (a JSONL line without the newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"conn\":{},\"table\":{},\"latency_ns\":{},\"verdict\":\"{}\",\"reject_reason\":",
            self.conn,
            self.table,
            self.latency_ns,
            self.verdict()
        );
        match self.rejected {
            Some(reason) => out.push_str(&format!("\"{reason}\"")),
            None => out.push_str("null"),
        }
        out.push_str(",\"stages\":");
        match &self.stages {
            Some(stages) => {
                out.push('{');
                for (i, stage) in Stage::ALL.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", stage.label(), stages.get(*stage)));
                }
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Aggregated result of one load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Offered load (echoed from the config).
    pub offered_rps: f64,
    /// Successfully answered requests per second.
    pub achieved_rps: f64,
    /// Requests answered with embeddings.
    pub completed: u64,
    /// Completed requests whose client-observed round trip still exceeded
    /// the deadline — answered, but in SLA violation. Always 0 when no
    /// deadline was set.
    pub deadline_violations: u64,
    /// Requests explicitly rejected, per reason index
    /// ([`RejectReason::ALL`] order).
    pub rejected: [u64; RejectReason::ALL.len()],
    /// Client-observed round-trip latency of completed requests.
    pub latency: LatencySummary,
    /// Per-request records, in no particular order; empty unless
    /// [`LoadConfig::record_requests`] was set.
    pub records: Vec<RequestRecord>,
    /// Outcome counts per [`LoadConfig::timeline_bucket`] window from
    /// run start; empty when bucketing was disabled. The last bucket
    /// also absorbs responses drained after the offered window closed.
    pub timeline: Vec<OutcomeCounts>,
    /// Outcomes landing in the final [`LoadConfig::tail_window`] of the
    /// run (including the post-run drain); `None` when disabled.
    pub tail: Option<OutcomeCounts>,
}

impl LoadReport {
    /// Total rejections across reasons.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Fraction of requests rejected.
    pub fn rejected_fraction(&self) -> f64 {
        let total = self.completed + self.total_rejected();
        if total == 0 {
            return 0.0;
        }
        self.total_rejected() as f64 / total as f64
    }

    /// Fraction of requests that missed their SLA: rejected outright or
    /// completed past the deadline. The quantity the adaptive controller
    /// is judged on.
    pub fn sla_miss_fraction(&self) -> f64 {
        let total = self.completed + self.total_rejected();
        if total == 0 {
            return 0.0;
        }
        (self.deadline_violations + self.total_rejected()) as f64 / total as f64
    }
}

/// Runs one load test against a running server.
///
/// Each connection issues requests on its schedule with up to
/// `pipeline_depth` in flight (depth 1 is a classic closed loop), so
/// total concurrency is `connections * pipeline_depth`. Connections
/// round-robin over [`LoadConfig::addrs`], so the same run drives one
/// server or a fleet of interchangeable front-ends. A dedicated
/// receiver thread per connection collects responses in completion
/// order, matching them to send times by request id, so latency is
/// client-observed round trip even when responses return out of order.
/// Under [`Schedule::Paced`] sends are `connections / offered_rps`
/// apart; under [`Schedule::Poisson`] the gaps are exponential with that
/// mean. Either way, if the server (or an exhausted pipeline window) is
/// slower than the schedule the pacing debt is dropped (the generator
/// does not retroactively burst), so `achieved_rps` saturates at server
/// capacity.
///
/// # Errors
///
/// Returns connection errors. Rejections are reported, not errors.
///
/// # Panics
///
/// Panics if `connections`, `batch`, `tables`, `addrs`, `offered_rps`
/// or `pipeline_depth` is zero/empty/negative, or if a requested table
/// does not exist on the server.
pub fn run_load(config: &LoadConfig) -> io::Result<LoadReport> {
    assert!(config.connections > 0, "run_load: zero connections");
    assert!(config.batch > 0, "run_load: zero batch");
    assert!(!config.tables.is_empty(), "run_load: no tables");
    assert!(config.offered_rps > 0.0, "run_load: non-positive rate");
    assert!(config.pipeline_depth > 0, "run_load: zero pipeline depth");
    assert!(!config.addrs.is_empty(), "run_load: no addresses");
    assert!(
        (0.0..=1.0).contains(&config.write_frac),
        "run_load: write_frac outside [0, 1]"
    );
    // shapes[i] = (index domain, dim) of config.tables[i].
    let shapes: Vec<(u64, usize)> = {
        let mut probe = Client::connect(config.addrs[0])?;
        let served = probe.tables()?;
        config
            .tables
            .iter()
            .map(|&id| match served.get(id) {
                Some(t) => Ok((t.rows, t.dim)),
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("server has no table {id} (it serves {})", served.len()),
                )),
            })
            .collect::<io::Result<_>>()?
    };
    // Open the idle fleet before offering load so its admission cost
    // (accept + handshake) is not attributed to measured requests.
    let mut idle: Vec<Client> = Vec::with_capacity(config.idle_connections);
    for i in 0..config.idle_connections {
        let mut client = Client::connect(config.addrs[i % config.addrs.len()])?;
        client.tables()?;
        idle.push(client);
    }
    let mean_interval = Duration::from_secs_f64(config.connections as f64 / config.offered_rps);
    let run_start = Instant::now();
    let run_end = run_start + config.duration;

    struct ThreadResult {
        latencies_ns: Vec<f64>,
        deadline_violations: u64,
        rejected: [u64; RejectReason::ALL.len()],
        records: Vec<RequestRecord>,
        timeline: Vec<OutcomeCounts>,
        tail: OutcomeCounts,
        io_error: Option<io::Error>,
    }

    /// The receiver thread's share of a connection's tallies.
    #[derive(Default)]
    struct RecvResult {
        latencies_ns: Vec<f64>,
        deadline_violations: u64,
        rejected: [u64; RejectReason::ALL.len()],
        records: Vec<RequestRecord>,
        timeline: Vec<OutcomeCounts>,
        tail: OutcomeCounts,
        io_error: Option<io::Error>,
    }

    /// Files one response outcome into the timeline bucket and tail
    /// window tallies (no-ops when both knobs are off). Responses
    /// drained after the offered window land in the last bucket.
    fn tally_windows(
        config: &LoadConfig,
        run_start: Instant,
        run_end: Instant,
        timeline: &mut Vec<OutcomeCounts>,
        tail: &mut OutcomeCounts,
        rejected: Option<RejectReason>,
    ) {
        let now = Instant::now();
        if let Some(bucket) = config.timeline_bucket.filter(|b| !b.is_zero()) {
            let cap = (config.duration.as_nanos() / bucket.as_nanos()).max(1) as usize;
            let idx =
                (now.saturating_duration_since(run_start).as_nanos() / bucket.as_nanos()) as usize;
            let idx = idx.min(cap - 1);
            if timeline.len() <= idx {
                timeline.resize(idx + 1, OutcomeCounts::default());
            }
            timeline[idx].note(rejected);
        }
        if let Some(window) = config.tail_window {
            let in_tail = run_end
                .checked_sub(window)
                .is_none_or(|tail_start| now >= tail_start);
            if in_tail {
                tail.note(rejected);
            }
        }
    }

    // Sequential public trace ids, shared across every connection; the
    // server head-samples on `trace_id % N`, so sequential ids sample
    // uniformly over the run regardless of which connection sent what.
    let next_trace = AtomicU64::new(1);
    let next_trace = &next_trace;
    let shapes = &shapes;
    let results: Vec<ThreadResult> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..config.connections)
            .map(|conn_id| {
                s.spawn(move |s| {
                    let mut result = ThreadResult {
                        latencies_ns: Vec::new(),
                        deadline_violations: 0,
                        rejected: [0; RejectReason::ALL.len()],
                        records: Vec::new(),
                        timeline: Vec::new(),
                        tail: OutcomeCounts::default(),
                        io_error: None,
                    };
                    let client = match Client::connect(config.addrs[conn_id % config.addrs.len()]) {
                        Ok(c) => c,
                        Err(e) => {
                            result.io_error = Some(e);
                            return result;
                        }
                    };
                    let (mut sender, mut receiver) = client.into_split();
                    let depth = config.pipeline_depth;
                    // Depth semaphore: the sender takes a permit per send
                    // and the receiver returns one per response, capping
                    // requests in flight at `depth`.
                    let (permit_tx, permit_rx) = mpsc::channel::<()>();
                    for _ in 0..depth {
                        permit_tx.send(()).expect("receiver end held locally");
                    }
                    // Send-time metadata, in send order; the receiver
                    // drains it on demand to match ids to their target
                    // table and start time.
                    let (meta_tx, meta_rx) = mpsc::channel::<(u64, usize, Instant)>();
                    // Distinguishes a deliberate teardown (sender closed
                    // the socket after the run) from a mid-run failure.
                    let done = Arc::new(AtomicBool::new(false));
                    let rx_done = Arc::clone(&done);
                    let rx_handle = s.spawn(move |_| {
                        let mut rx = RecvResult::default();
                        let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
                        loop {
                            let (id, msg) = match receiver.recv() {
                                Ok(reply) => reply,
                                Err(e) => {
                                    if !rx_done.load(Ordering::Relaxed) {
                                        rx.io_error = Some(e);
                                    }
                                    break;
                                }
                            };
                            // The meta for this id was sent right after
                            // the frame, so at most a few recv()s away.
                            let meta = loop {
                                if let Some(meta) = inflight.remove(&id) {
                                    break Some(meta);
                                }
                                match meta_rx.recv() {
                                    Ok((sent_id, table, t0)) => {
                                        inflight.insert(sent_id, (table, t0));
                                    }
                                    Err(_) => break None, // sender died mid-request
                                }
                            };
                            let Some((table, t0)) = meta else { break };
                            match msg {
                                ServerMsg::Embeddings(_, stages) => {
                                    let elapsed = t0.elapsed();
                                    let sla_ok = config.deadline.is_none_or(|d| elapsed <= d);
                                    if !sla_ok {
                                        rx.deadline_violations += 1;
                                    }
                                    tally_windows(
                                        config,
                                        run_start,
                                        run_end,
                                        &mut rx.timeline,
                                        &mut rx.tail,
                                        None,
                                    );
                                    rx.latencies_ns.push(elapsed.as_nanos() as f64);
                                    if config.record_requests {
                                        rx.records.push(RequestRecord {
                                            conn: conn_id,
                                            table,
                                            latency_ns: elapsed.as_nanos() as u64,
                                            stages: Some(stages),
                                            sla_ok,
                                            rejected: None,
                                        });
                                    }
                                }
                                ServerMsg::Rejected(reason) => {
                                    rx.rejected[reason.index()] += 1;
                                    tally_windows(
                                        config,
                                        run_start,
                                        run_end,
                                        &mut rx.timeline,
                                        &mut rx.tail,
                                        Some(reason),
                                    );
                                    if config.record_requests {
                                        rx.records.push(RequestRecord {
                                            conn: conn_id,
                                            table,
                                            latency_ns: t0.elapsed().as_nanos() as u64,
                                            stages: None,
                                            sla_ok: false,
                                            rejected: Some(reason),
                                        });
                                    }
                                }
                                _ => {
                                    rx.io_error = Some(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        "unexpected reply to a generate request",
                                    ));
                                    break;
                                }
                            }
                            if permit_tx.send(()).is_err() {
                                break; // sender finished and reclaimed
                            }
                        }
                        rx
                    });
                    let mut rng =
                        StdRng::seed_from_u64(config.seed ^ (conn_id as u64).wrapping_mul(0x9E37));
                    let end = run_end;
                    // Stagger connection start times across one interval.
                    let mut next_send = Instant::now()
                        + mean_interval.mul_f64(conn_id as f64 / config.connections as f64);
                    while next_send < end {
                        let now = Instant::now();
                        if now < next_send {
                            std::thread::sleep(next_send - now);
                        }
                        // The pipeline window is the backpressure point: a
                        // full window blocks here, and the pacing debt it
                        // causes is dropped below like any other.
                        if permit_rx.recv().is_err() {
                            break; // receiver died; its error is collected at join
                        }
                        let slot = rng.gen_range(0..config.tables.len());
                        let table = config.tables[slot];
                        let (rows, dim) = shapes[slot];
                        let indices: Vec<u64> =
                            (0..config.batch).map(|_| rng.gen_range(0..rows)).collect();
                        let is_write =
                            config.write_frac > 0.0 && rng.gen::<f64>() < config.write_frac;
                        let trace = config
                            .trace
                            .then(|| TraceCtx::new(next_trace.fetch_add(1, Ordering::Relaxed)));
                        let t0 = Instant::now();
                        let sent = match (is_write, trace) {
                            (true, trace) => {
                                // Gradient-sized deltas: small, zero-mean.
                                let deltas = Matrix::from_fn(indices.len(), dim, |_, _| {
                                    (rng.gen::<f32>() - 0.5) * 1e-3
                                });
                                match trace {
                                    Some(t) => sender.send_update_traced(
                                        table,
                                        &indices,
                                        &deltas,
                                        config.deadline,
                                        t,
                                    ),
                                    None => sender.send_update(
                                        table,
                                        &indices,
                                        &deltas,
                                        config.deadline,
                                    ),
                                }
                            }
                            (false, Some(t)) => {
                                sender.send_generate_traced(table, &indices, config.deadline, t)
                            }
                            (false, None) => sender.send_generate(table, &indices, config.deadline),
                        };
                        match sent {
                            Ok(id) => {
                                if meta_tx.send((id, table, t0)).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                result.io_error = Some(e);
                                break;
                            }
                        }
                        let gap = match config.schedule {
                            Schedule::Paced => mean_interval,
                            // Inverse-CDF sample of Exp(1/mean): the gap
                            // is -ln(1-U) * mean, U uniform in [0,1).
                            Schedule::Poisson => {
                                let u: f64 = rng.gen();
                                mean_interval.mul_f64(-(1.0 - u).ln())
                            }
                        };
                        // Schedule from the previous slot; drop debt if we
                        // fell behind rather than bursting later.
                        next_send = (next_send + gap).max(Instant::now());
                    }
                    // Drain: when all `depth` permits are back, every
                    // outstanding response has been processed.
                    if result.io_error.is_none() {
                        for _ in 0..depth {
                            if permit_rx.recv().is_err() {
                                break;
                            }
                        }
                    }
                    done.store(true, Ordering::Relaxed);
                    sender.shutdown(); // unblock a receiver parked in recv()
                    drop(meta_tx);
                    if let Ok(rx) = rx_handle.join() {
                        result.latencies_ns.extend(rx.latencies_ns);
                        result.deadline_violations += rx.deadline_violations;
                        result.records.extend(rx.records);
                        for (total, n) in result.rejected.iter_mut().zip(rx.rejected) {
                            *total += n;
                        }
                        if result.timeline.len() < rx.timeline.len() {
                            result
                                .timeline
                                .resize(rx.timeline.len(), OutcomeCounts::default());
                        }
                        for (total, b) in result.timeline.iter_mut().zip(&rx.timeline) {
                            total.merge(b);
                        }
                        result.tail.merge(&rx.tail);
                        if result.io_error.is_none() {
                            result.io_error = rx.io_error;
                        }
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // A panicked connection thread becomes an I/O error on the
                // report instead of tearing down the whole run.
                Err(_) => ThreadResult {
                    latencies_ns: Vec::new(),
                    deadline_violations: 0,
                    rejected: [0; RejectReason::ALL.len()],
                    records: Vec::new(),
                    timeline: Vec::new(),
                    tail: OutcomeCounts::default(),
                    io_error: Some(io::Error::other("load connection thread panicked")),
                },
            })
            .collect()
    })
    .expect("load scope teardown");

    drop(idle); // held across the whole measured window

    let mut latencies = Vec::new();
    let mut deadline_violations = 0;
    let mut rejected = [0u64; RejectReason::ALL.len()];
    let mut records = Vec::new();
    let mut timeline: Vec<OutcomeCounts> = Vec::new();
    let mut tail = OutcomeCounts::default();
    for mut r in results {
        if let Some(e) = r.io_error.take() {
            return Err(e);
        }
        latencies.extend(r.latencies_ns);
        deadline_violations += r.deadline_violations;
        records.extend(r.records);
        for (total, n) in rejected.iter_mut().zip(r.rejected) {
            *total += n;
        }
        if timeline.len() < r.timeline.len() {
            timeline.resize(r.timeline.len(), OutcomeCounts::default());
        }
        for (total, b) in timeline.iter_mut().zip(&r.timeline) {
            total.merge(b);
        }
        tail.merge(&r.tail);
    }
    // Pad to the full run so an all-dead trailing window still shows up
    // as explicit zero buckets rather than a shorter vector.
    if let Some(bucket) = config.timeline_bucket.filter(|b| !b.is_zero()) {
        let cap = (config.duration.as_nanos() / bucket.as_nanos()).max(1) as usize;
        if timeline.len() < cap {
            timeline.resize(cap, OutcomeCounts::default());
        }
    }
    let completed = latencies.len() as u64;
    Ok(LoadReport {
        offered_rps: config.offered_rps,
        achieved_rps: completed as f64 / config.duration.as_secs_f64(),
        completed,
        deadline_violations,
        rejected,
        latency: LatencySummary::from_ns(&latencies),
        records,
        timeline,
        tail: config.tail_window.map(|_| tail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parses_and_labels() {
        assert_eq!("paced".parse::<Schedule>().unwrap(), Schedule::Paced);
        assert_eq!("poisson".parse::<Schedule>().unwrap(), Schedule::Poisson);
        assert!("burst".parse::<Schedule>().is_err());
        assert_eq!(Schedule::Poisson.label(), "poisson");
        assert_eq!(Schedule::default(), Schedule::Paced);
    }

    #[test]
    fn report_fractions() {
        let mut report = LoadReport {
            offered_rps: 100.0,
            achieved_rps: 90.0,
            completed: 90,
            deadline_violations: 6,
            rejected: [4, 0, 0, 0, 0, 0, 0],
            latency: LatencySummary::from_ns(&[]),
            records: Vec::new(),
            timeline: Vec::new(),
            tail: None,
        };
        report.rejected[1] = 6;
        assert_eq!(report.total_rejected(), 10);
        assert!((report.rejected_fraction() - 0.1).abs() < 1e-12);
        assert!((report.sla_miss_fraction() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn empty_report_fractions_are_zero() {
        let report = LoadReport {
            offered_rps: 1.0,
            achieved_rps: 0.0,
            completed: 0,
            deadline_violations: 0,
            rejected: [0; RejectReason::ALL.len()],
            latency: LatencySummary::from_ns(&[]),
            records: Vec::new(),
            timeline: Vec::new(),
            tail: None,
        };
        assert_eq!(report.rejected_fraction(), 0.0);
        assert_eq!(report.sla_miss_fraction(), 0.0);
    }

    #[test]
    fn outcome_counts_classify_and_render() {
        let mut counts = OutcomeCounts::default();
        counts.note(None);
        counts.note(None);
        counts.note(Some(RejectReason::QueueFull));
        counts.note(Some(RejectReason::Internal));
        assert_eq!(
            counts,
            OutcomeCounts {
                ok: 2,
                rejected: 1,
                internal: 1
            }
        );
        let mut merged = OutcomeCounts::default();
        merged.merge(&counts);
        merged.merge(&counts);
        assert_eq!(merged.ok, 4);
        assert_eq!(merged.internal, 2);
        assert_eq!(counts.render(), "ok=2 rejected=1 internal=1");
    }

    #[test]
    fn request_record_verdicts_and_json() {
        let mut stages = StageBreakdown::default();
        stages.set(Stage::Queue, 10);
        stages.set(Stage::Generate, 90);
        let ok = RequestRecord {
            conn: 2,
            table: 1,
            latency_ns: 123,
            stages: Some(stages),
            sla_ok: true,
            rejected: None,
        };
        assert_eq!(ok.verdict(), "ok");
        let json = ok.to_json();
        assert!(json.contains("\"conn\":2"));
        assert!(json.contains("\"latency_ns\":123"));
        assert!(json.contains("\"reject_reason\":null"));
        assert!(json.contains("\"queue\":10"));
        assert!(json.contains("\"generate\":90"));

        let late = RequestRecord {
            sla_ok: false,
            ..ok.clone()
        };
        assert_eq!(late.verdict(), "sla_violation");

        let no = RequestRecord {
            conn: 0,
            table: 0,
            latency_ns: 55,
            stages: None,
            sla_ok: false,
            rejected: Some(RejectReason::QueueFull),
        };
        assert_eq!(no.verdict(), "rejected");
        let json = no.to_json();
        assert!(json.contains("\"verdict\":\"rejected\""));
        assert!(json.contains("\"reject_reason\":\"queue_full\""));
        assert!(json.contains("\"stages\":null"));
    }
}
