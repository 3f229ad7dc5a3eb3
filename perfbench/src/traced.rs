//! The traced run: per-layer costs, the layer ladder, and span
//! self-times under load. End-to-end numbers are not taken here; this
//! run only explains them.

use crate::check::{Digest, Reference};
use crate::layers::{self, ScanShape};
use crate::run::{plan, Ledger, Summary};
use crate::sampler::rng;
use crate::stack::{call_on, table_seed, timed_start, Stack};
use crate::stats::{iqr, median};
use crate::workload::{Op, Requests, Workload, CONNS, SLA};
use crate::{Metric, Report};
use secemb::EmbeddingGenerator;
use secemb_serve::{Client, Engine, Request, StatsSnapshot};
use secemb_tensor::Matrix;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SALT_FIRST: u64 = 101;
const SALT_WARMUP: u64 = 102;
const SALT_UNTRACED: u64 = 103;
const SALT_TRACED: u64 = 104;
const SALT_LADDER: u64 = 110;

/// Requests replayed on every rung of the layer ladder.
const LADDER_SAMPLE: usize = 32;

/// Server span names whose self-times are reported (the root
/// `server:request` is fully covered by its stage children, and
/// `worker:batch` spans the same instants as `server:generate`).
pub const SPAN_METRICS: [(&str, &str); 5] = [
    ("server:admit", "trace.server_admit_self_us"),
    ("server:queue", "trace.server_queue_self_us"),
    ("server:batch", "trace.server_batch_self_us"),
    ("server:generate", "trace.server_generate_self_us"),
    ("server:reply", "trace.server_reply_self_us"),
];

/// Engine counters summed over every backend.
#[derive(Clone, Copy, Debug, Default)]
struct EngineCounts {
    accepted: u64,
    rejected: u64,
    lookups: u64,
    batches: u64,
}

impl EngineCounts {
    fn of(engines: &[Arc<Engine>]) -> (EngineCounts, BTreeMap<&'static str, u64>) {
        let mut c = EngineCounts::default();
        let mut reasons = BTreeMap::new();
        for e in engines {
            let s: StatsSnapshot = e.stats().snapshot();
            c.accepted += s.accepted;
            c.rejected += s.total_rejected();
            c.lookups += s.queries_by_technique.iter().map(|&(_, q)| q).sum::<u64>();
            c.batches += s.worker_batches.iter().map(|w| w.batches).sum::<u64>();
            for (r, n) in s.rejected {
                *reasons.entry(r.label()).or_insert(0) += n;
            }
        }
        (c, reasons)
    }

    fn minus(self, o: EngineCounts) -> EngineCounts {
        EngineCounts {
            accepted: self.accepted - o.accepted,
            rejected: self.rejected - o.rejected,
            lookups: self.lookups - o.lookups,
            batches: self.batches - o.batches,
        }
    }
}

/// The workload's tables, built in-process for the generator rung.
struct Generators(Vec<Box<dyn EmbeddingGenerator + Send>>);

impl Generators {
    fn build(w: &Workload, seed: u64) -> Generators {
        Generators(
            w.tables
                .iter()
                .enumerate()
                .map(|(t, s)| s.build(table_seed(seed, t)))
                .collect(),
        )
    }

    /// Serves `op` generator-only, parts in order.
    fn serve(&mut self, op: &Op) -> Matrix {
        let mut data = Vec::new();
        let mut cols = 0;
        for (table, indices, deltas) in op.parts() {
            let updates: Vec<Option<&[f32]>> = match deltas {
                Some(d) => d.iter_rows().map(Some).collect(),
                None => vec![None; indices.len()],
            };
            let m = self.0[table].generate_window(indices, &updates);
            cols = m.cols();
            data.extend_from_slice(m.as_slice());
        }
        Matrix::from_vec(op.rows(), cols, data)
    }
}

/// Serves `op` through the in-process engine: one submission per part,
/// all in flight together, with the SLA as deadline.
fn engine_call(engine: &Engine, op: &Op) -> Option<Matrix> {
    let tickets: Vec<_> = op
        .parts()
        .into_iter()
        .map(|(table, indices, deltas)| {
            let mut r = Request::new(table, indices.to_vec()).with_deadline(SLA);
            if let Some(d) = deltas {
                r = r.with_update(d.clone());
            }
            engine.submit(r)
        })
        .collect();
    let mut data = Vec::new();
    let mut cols = 0;
    let mut ok = true;
    for t in tickets {
        match t.wait().embeddings() {
            Some(m) => {
                cols = m.cols();
                data.extend_from_slice(m.as_slice());
            }
            None => ok = false,
        }
    }
    ok.then(|| Matrix::from_vec(op.rows(), cols, data))
}

/// Rung timings of the layer ladder, microseconds per request.
#[derive(Default)]
struct Rungs {
    gen: Vec<f64>,
    engine: Vec<f64>,
    server: Vec<f64>,
    router: Vec<f64>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Replays `sample` one request at a time on each rung — generator,
/// engine, server, router — rung after rung, for about `budget`. Every
/// reply is logged for the correctness check; generator-rung replies go
/// to `gen_log` (their tables are private to the rung). Entry `i` of
/// every rung's timings is the same request of the same round.
fn ladder(
    stack: &Stack,
    router_addr: std::net::SocketAddr,
    gens: &mut Generators,
    sample: &[Op],
    budget: Duration,
    ledger: &mut Ledger,
    gen_log: &mut Vec<(Op, Digest)>,
) -> io::Result<Rungs> {
    let engine = &stack.engines[0];
    let mut server = Client::connect(stack.server_addr())?;
    let mut router = Client::connect(router_addr)?;
    let mut r = Rungs::default();
    let t0 = Instant::now();
    while t0.elapsed() < budget || r.gen.len() < 2 * sample.len() {
        for op in sample {
            let t = Instant::now();
            let m = gens.serve(op);
            r.gen.push(us(t));
            gen_log.push((op.clone(), Digest::of(op, &m)));
        }
        for op in sample {
            let t = Instant::now();
            let m = engine_call(engine, op);
            r.engine.push(us(t));
            ledger.single(op.clone(), m.map(|m| Digest::of(op, &m)));
        }
        for (client, times) in [(&mut server, &mut r.server), (&mut router, &mut r.router)] {
            for op in sample {
                let t = Instant::now();
                let reply = call_on(client, op)?;
                times.push(us(t));
                ledger.single(op.clone(), Digest::of_msg(op, &reply));
            }
        }
    }
    Ok(r)
}

/// Median exclusive (self) time per span label, microseconds, over every
/// joined timeline drained from `addr`.
fn span_self_times(addr: std::net::SocketAddr) -> io::Result<(BTreeMap<String, f64>, usize)> {
    let jsonl = Client::connect(addr)?.traces_jsonl()?;
    let parsed = secemb_tracecat::parse_jsonl(&jsonl);
    let dropped: u64 = parsed.metas.iter().map(|m| m.dropped).sum();
    if dropped > 0 {
        println!("spans: {dropped} dropped by full collectors");
    }
    let timelines = secemb_tracecat::join(parsed.spans);
    let mut by_label: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for tl in &timelines {
        for (i, span) in tl.spans.iter().enumerate() {
            by_label
                .entry(span.label())
                .or_default()
                .push(tl.exclusive_ns(i) as f64 / 1e3);
        }
    }
    Ok((
        by_label
            .iter()
            .map(|(k, v)| (k.clone(), median(v)))
            .collect(),
        timelines.len(),
    ))
}

/// One hop of the layer ladder: the median over paired requests of the
/// upper rung's time minus the lower rung's. Prints it with the rungs'
/// medians and flags a hop larger than the spread (IQR) of the paired
/// differences.
fn hop(name: &str, upper: &[f64], lower: &[f64]) -> f64 {
    let diffs: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
    let (h, spread) = (median(&diffs), iqr(&diffs));
    println!(
        "ladder {name:<7} {:>10.1} us over {:>10.1} us: hop {:>9.1} us (spread {:.1} us){}",
        median(upper),
        median(lower),
        h,
        spread,
        if h.abs() > spread {
            "  gap beyond spread"
        } else {
            ""
        }
    );
    h
}

/// The traced run of `w`.
///
/// # Errors
///
/// Returns start-up and transport errors.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> io::Result<Report> {
    let s = |share: f64| Duration::from_secs_f64(seconds * share);
    let shape = ScanShape::of(w);
    let (gate, obliv) = layers::security_gate(w, seed, s(0.03));
    let requests = Requests::new(w);
    let first = requests.draw_read(&mut rng(seed, SALT_FIRST), 0);
    let mut ledger = Ledger::default();
    let (stack, _, reply) = timed_start(w, seed, Some(w.trace_sample), &first)?;
    ledger.single(first.clone(), Digest::of_msg(&first, &reply));
    let entry = stack.entry();
    ledger.drive(
        entry,
        w.nominal,
        plan(&requests, seed, SALT_WARMUP, w.nominal, 1.0, None),
    )?;

    // Untraced and traced windows at the nominal rate, alternating so
    // drift hits both alike.
    for e in &stack.engines {
        for t in 0..w.tables.len() {
            e.drain_samples(t);
        }
    }
    let (before, _) = EngineCounts::of(&stack.engines);
    let secs = seconds * 0.125;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for k in 0..2u64 {
        let p = plan(
            &requests,
            seed,
            SALT_UNTRACED + 2 * k,
            w.nominal,
            secs,
            None,
        );
        untraced.push(ledger.drive(entry, w.nominal, p)?);
        let base = 1 + k * (1 << 32);
        let p = plan(
            &requests,
            seed,
            SALT_TRACED + 2 * k,
            w.nominal,
            secs,
            Some(base),
        );
        traced.push(ledger.drive(entry, w.nominal, p)?);
    }
    let (after, reasons) = EngineCounts::of(&stack.engines);
    let counts = after.minus(before);
    // Admission's per-query estimate against the served per-query cost,
    // summed over the tables the workload touches.
    let mut costs: Vec<(usize, f64, f64)> = Vec::new();
    for e in &stack.engines {
        for (t, info) in e.tables().iter().enumerate() {
            let served = e.drain_samples(t);
            if !served.is_empty() {
                costs.push((t, info.per_query_ns / 1e3, median(&served) / 1e3));
            }
        }
    }
    let probe: f64 = costs.iter().map(|c| c.1).sum();
    let actual: f64 = costs.iter().map(|c| c.2).sum();
    costs.sort_by(|a, b| b.2.total_cmp(&a.2));
    let listed: Vec<String> = costs
        .iter()
        .take(5)
        .map(|(t, p, a)| format!("table {t} {p:.1}/{a:.1}"))
        .collect();
    println!(
        "admission cost / served cost per query (us), costliest tables: {}",
        listed.join(", ")
    );
    let (spans, timelines) = span_self_times(entry)?;

    // Layer costs on an idle stack.
    let gen = layers::gen(shape, seed, s(0.04));
    let oram = layers::oram(seed, s(0.04));
    let laoram = layers::laoram(seed, s(0.04));
    let mut lr = rng(seed, SALT_LADDER);
    let sample: Vec<Op> = (0..LADDER_SAMPLE)
        .map(|i| requests.draw(&mut lr, i % CONNS))
        .collect();
    let mut gens = Generators::build(w, seed);
    let replies: Vec<Matrix> = sample.iter().map(|op| gens.serve(op)).collect();
    let mut gen_log: Vec<(Op, Digest)> = sample
        .iter()
        .zip(&replies)
        .map(|(op, m)| (op.clone(), Digest::of(op, m)))
        .collect();
    let codec = layers::codec(&sample, &replies, s(0.02));
    let extra_router = if stack.is_routed() {
        None
    } else {
        Some(stack.extra_router()?)
    };
    let router_addr = extra_router.as_ref().map_or(entry, |r| r.addr());
    let rungs = ladder(
        &stack,
        router_addr,
        &mut gens,
        &sample,
        s(0.15),
        &mut ledger,
        &mut gen_log,
    )?;
    if let Some(r) = extra_router {
        r.shutdown();
    }
    let peak_rss = crate::peak_rss_mb();
    stack.shutdown();

    // Correctness: the stack's replies against one reference, the
    // generator rung's against another (its tables are its own).
    let wrong = ledger.check(w, seed);
    let seeds: Vec<u64> = (0..w.tables.len()).map(|t| table_seed(seed, t)).collect();
    let gen_wrong = Reference::new(&w.tables, &seeds)
        .check(
            &gen_log.iter().map(|(o, d)| (o, d)).collect::<Vec<_>>(),
            CONNS,
        )
        .iter()
        .filter(|ok| !**ok)
        .count();
    println!("checked every reply: {wrong} wrong on the stack, {gen_wrong} on the generator rung");

    let pooled =
        |entries: &[usize]| Summary::pooled(entries.iter().map(|&e| Summary::of(ledger.window(e))));
    let (u, t) = (pooled(&untraced), pooled(&traced));
    println!("untraced {}", u.line());
    println!("traced   {}", t.line());
    let refused: Vec<String> = reasons
        .iter()
        .filter(|(_, &n)| n > 0)
        .map(|(r, n)| format!("{r}={n}"))
        .collect();
    println!(
        "engine refusals by reason (whole run): {}",
        if refused.is_empty() {
            "none".to_string()
        } else {
            refused.join(" ")
        }
    );
    println!("spans joined into {timelines} timelines; median self-time per span:");
    for (label, v) in &spans {
        println!("  {label:<18} {v:>10.2} us");
    }
    let scan_predicted = obliv.scan_ns_per_byte * shape.batch as f64 * shape.bytes() / 1e3;
    let scan_gap = gen.scan_us_per_batch - scan_predicted;
    println!(
        "closure: gen.scan_us_per_batch {:.1} us vs obliv.scan_ns_per_byte x {} B x {} = {:.1} us (gap {:.1} us, spread {:.1} us){}",
        gen.scan_us_per_batch,
        shape.bytes(),
        shape.batch,
        scan_predicted,
        scan_gap,
        gen.scan_spread_us,
        if scan_gap.abs() > gen.scan_spread_us { "  gap beyond spread" } else { "" }
    );
    let engine_hop = hop("engine", &rungs.engine, &rungs.gen);
    let server_hop = hop("server", &rungs.server, &rungs.engine);
    let router_hop = hop("router", &rungs.router, &rungs.server);

    let sent = u.sent + t.sent;
    let mut lag = u.lag_ms.clone();
    lag.extend_from_slice(&t.lag_ms);
    let mut metrics = vec![
        Metric::new(
            "load.lag_p99_ms",
            crate::stats::percentile(&lag, 99.0),
            "ms",
        ),
        Metric::new("load.sent", sent as f64, "count"),
        Metric::new("obliv.scan_ns_per_byte", obliv.scan_ns_per_byte, "ns/B"),
        Metric::new(
            "obliv.read_floor_ns_per_byte",
            obliv.read_floor_ns_per_byte,
            "ns/B",
        ),
        Metric::new("obliv.blend_ns_per_byte", obliv.blend_ns_per_byte, "ns/B"),
        Metric::new("gen.scan_us_per_batch", gen.scan_us_per_batch, "us"),
        Metric::new("gen.dhe_us_per_batch", gen.dhe_us_per_batch, "us"),
        Metric::new("gen.dhe_ns_per_flop", gen.dhe_ns_per_flop, "ns/flop"),
        Metric::new("gen.request_us", median(&rungs.gen), "us"),
        Metric::new(
            "oram.circuit_us_per_access",
            oram.circuit_us_per_access,
            "us",
        ),
        Metric::new("oram.buckets_per_access", oram.buckets_per_access, "count"),
        Metric::new("oram.stash_peak_blocks", oram.stash_peak_blocks, "count"),
        Metric::new("laoram.read_us_per_access", laoram.read_us_per_access, "us"),
        Metric::new(
            "laoram.write_us_per_access",
            laoram.write_us_per_access,
            "us",
        ),
        Metric::new("laoram.hit_rate", laoram.hit_rate, "ratio"),
        Metric::new("engine.call_p50_us", median(&rungs.engine), "us"),
        Metric::new("engine.overhead_us", engine_hop, "us"),
        Metric::new(
            "engine.batch_mean",
            counts.lookups as f64 / counts.batches.max(1) as f64,
            "count",
        ),
        Metric::new(
            "engine.refused_frac",
            counts.rejected as f64 / (counts.accepted + counts.rejected).max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "engine.probe_over_actual",
            if actual > 0.0 { probe / actual } else { 0.0 },
            "ratio",
        ),
        Metric::new("wire.codec_ns_per_byte", codec, "ns/B"),
        Metric::new("server.rtt_p50_us", median(&rungs.server), "us"),
        Metric::new("server.hop_us", server_hop, "us"),
        Metric::new("router.rtt_p50_us", median(&rungs.router), "us"),
        Metric::new("router.hop_us", router_hop, "us"),
        Metric::new(
            "trace.overhead_frac",
            t.p50_ms() / u.p50_ms() - 1.0,
            "ratio",
        ),
    ];
    for (label, name) in SPAN_METRICS {
        metrics.push(Metric::new(
            name,
            spans.get(label).copied().unwrap_or(0.0),
            "us",
        ));
    }
    Ok(Report {
        printed: vec![
            Metric::new("failed_frac", u.failed_frac(), "ratio"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
        ],
        correct: gate && wrong == 0 && gen_wrong == 0,
        attempted: sent,
        failed: u.broken() + t.broken(),
        metrics,
    })
}
