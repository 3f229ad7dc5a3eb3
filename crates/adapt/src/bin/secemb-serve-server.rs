//! The `secemb-serve-server` binary: a TCP embedding server, optionally
//! under adaptive control.
//!
//! ```text
//! secemb-serve-server [--listen ADDR] [--table SPEC]... [--max-batch N]
//!                     [--max-wait-us N] [--queue N] [--seed N]
//!                     [--replicas N] [--telemetry-out FILE]
//!                     [--stats-interval S] [--no-telemetry]
//!                     [--adaptive] [--adapt-profile FILE]
//!                     [--adapt-dwell-ms N] [--adapt-cooldown-ms N]
//!                     [--run-secs N] [--conn-idle-ms N]
//!                     [--trace-sample N] [--trace-host NAME]
//!                     [--trace-out FILE]
//! ```
//!
//! `SPEC` is `TECH:ROWSxDIM` (`lookup|scan|path|circuit|dhe`) or
//! `hybrid:ROWSxDIM:THRESHOLD`; repeat `--table` for multiple shards.
//! Defaults serve a scan+DHE hybrid pair resembling a small DLRM.
//! `--telemetry-out FILE` appends a JSONL registry snapshot every
//! `--stats-interval` seconds; `--no-telemetry` disables the metrics
//! registry entirely (responses still carry stage breakdowns).
//!
//! `--adaptive` runs a background [`AdaptiveController`] over the
//! engine: live drift detection, dwell/hysteresis-damped re-profiling,
//! and hot three-way reallocation, with the controller gauges
//! (`adapt_last_outcome`, `adapt_threshold_rows`, `adapt_oram_to_rows`,
//! per-table detector state) exported in the same registry the
//! `METRICS` frame renders. `--adapt-profile FILE` persists re-profiled
//! crossovers there after each reallocation and loads them back on
//! startup, so a restart resumes from what the previous process learned
//! instead of re-learning. `--run-secs N` serves for N seconds, then
//! tears the controller and server down and exits 0 — the CI smoke-test
//! mode; without it the server runs until killed.
//!
//! Connections are served from one epoll reactor thread (nonblocking
//! sockets, per-connection state machines) — O(1) threads regardless of
//! connection count. `--conn-idle-ms N` reaps connections idle for N ms
//! (default: never).
//!
//! `--trace-sample N` collects distributed-tracing spans for every N-th
//! traced request (head-sampled on the public trace id alone; 0, the
//! default, disables collection); `--trace-host NAME` sets the host
//! label spans carry (default `server`). Spans drain through the wire
//! `TRACES` frame (`secemb-tracecat --scrape`), or — with `--trace-out
//! FILE` — append to a JSONL file every `--stats-interval` (the two
//! drains split the same buffer; pick one per process).

use secemb::GeneratorSpec;
use secemb_adapt::{AdaptConfig, AdaptiveController, Crossovers, ProfileArtifact};
use secemb_serve::{
    BatchPolicy, Engine, EngineConfig, Server, ServerOptions, TableConfig, TraceSettings,
};
use secemb_telemetry::JsonlExporter;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    listen: String,
    specs: Vec<GeneratorSpec>,
    max_batch: usize,
    max_wait: Duration,
    queue: usize,
    seed: u64,
    replicas: usize,
    telemetry_out: Option<PathBuf>,
    stats_interval: Duration,
    telemetry: bool,
    adaptive: bool,
    adapt_profile: Option<PathBuf>,
    adapt_dwell: Duration,
    adapt_cooldown: Duration,
    run_secs: Option<Duration>,
    conn_idle: Option<Duration>,
    trace_sample: u64,
    trace_host: String,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: secemb-serve-server [--listen ADDR] [--table SPEC]... \
         [--max-batch N] [--max-wait-us N] [--queue N] [--seed N] [--replicas N] \
         [--telemetry-out FILE] [--stats-interval S] [--no-telemetry] \
         [--adaptive] [--adapt-profile FILE] [--adapt-dwell-ms N] \
         [--adapt-cooldown-ms N] [--run-secs N] [--conn-idle-ms N] \
         [--trace-sample N] [--trace-host NAME] [--trace-out FILE]\n\
         SPEC: lookup|scan|path|circuit|dhe:ROWSxDIM, or hybrid:ROWSxDIM:THRESHOLD"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7878".to_string(),
        specs: Vec::new(),
        max_batch: 64,
        max_wait: Duration::from_micros(500),
        queue: 1024,
        seed: 42,
        replicas: 1,
        telemetry_out: None,
        stats_interval: Duration::from_secs(10),
        telemetry: true,
        adaptive: false,
        adapt_profile: None,
        adapt_dwell: Duration::from_millis(500),
        adapt_cooldown: Duration::from_secs(2),
        run_secs: None,
        conn_idle: None,
        trace_sample: 0,
        trace_host: "server".to_string(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--listen" => args.listen = value(),
            "--table" => match value().parse() {
                Ok(spec) => args.specs.push(spec),
                Err(e) => {
                    eprintln!("{e}");
                    usage();
                }
            },
            "--max-batch" => args.max_batch = value().parse().unwrap_or_else(|_| usage()),
            "--max-wait-us" => {
                args.max_wait = Duration::from_micros(value().parse().unwrap_or_else(|_| usage()))
            }
            "--queue" => args.queue = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--replicas" => {
                args.replicas = value().parse().unwrap_or_else(|_| usage());
                if args.replicas == 0 {
                    usage();
                }
            }
            "--telemetry-out" => args.telemetry_out = Some(PathBuf::from(value())),
            "--stats-interval" => {
                let secs: f64 = value().parse().unwrap_or_else(|_| usage());
                if secs <= 0.0 {
                    usage();
                }
                args.stats_interval = Duration::from_secs_f64(secs);
            }
            "--no-telemetry" => args.telemetry = false,
            "--adaptive" => args.adaptive = true,
            "--adapt-profile" => args.adapt_profile = Some(PathBuf::from(value())),
            "--adapt-dwell-ms" => {
                args.adapt_dwell =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()))
            }
            "--adapt-cooldown-ms" => {
                args.adapt_cooldown =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()))
            }
            "--run-secs" => {
                let secs: f64 = value().parse().unwrap_or_else(|_| usage());
                if secs <= 0.0 {
                    usage();
                }
                args.run_secs = Some(Duration::from_secs_f64(secs));
            }
            "--conn-idle-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.conn_idle = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--trace-sample" => args.trace_sample = value().parse().unwrap_or_else(|_| usage()),
            "--trace-host" => args.trace_host = value(),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    if args.specs.is_empty() {
        // A small hybrid deployment: one scan-served table below the
        // crossover, one DHE-served table above it.
        args.specs = vec![
            GeneratorSpec::Hybrid {
                rows: 4_096,
                dim: 64,
                threshold: 100_000,
            },
            GeneratorSpec::Hybrid {
                rows: 1_000_000,
                dim: 64,
                threshold: 100_000,
            },
        ];
    }
    args
}

/// The crossovers the controller starts from: the persisted artifact if
/// one loads cleanly for this execution shape, else the offline
/// threshold baked into the table specs (the first `hybrid` spec's, or
/// a conservative default). Also returns the plan version to resume
/// from, so a restarted controller numbers its plans above the previous
/// process's.
fn initial_crossovers(args: &Args, dim: usize, batch: usize) -> (Crossovers, u64) {
    let offline = args
        .specs
        .iter()
        .find_map(|spec| match *spec {
            GeneratorSpec::Hybrid { threshold, .. } => Some(threshold),
            _ => None,
        })
        .unwrap_or(100_000);
    let fallback = (Crossovers::two_way(offline), 0);
    let Some(path) = &args.adapt_profile else {
        return fallback;
    };
    match ProfileArtifact::load(path) {
        Ok(artifact) => {
            if artifact.dim == dim && artifact.batch == batch {
                eprintln!(
                    "resuming crossovers from {}: scan_to {}, oram_to {} (plan v{})",
                    path.display(),
                    artifact.crossovers.scan_to,
                    artifact.crossovers.oram_to,
                    artifact.plan_version
                );
                (artifact.crossovers, artifact.plan_version)
            } else {
                eprintln!(
                    "ignoring {}: profiled for dim {} batch {}, serving dim {dim} batch {batch}",
                    path.display(),
                    artifact.dim,
                    artifact.batch
                );
                fallback
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => fallback,
        Err(e) => {
            eprintln!("ignoring {}: {e}", path.display());
            fallback
        }
    }
}

fn main() {
    let args = parse_args();
    let tables = args
        .specs
        .iter()
        .map(|&spec| TableConfig {
            spec,
            seed: args.seed,
            queue_capacity: args.queue,
            cost_override_ns: None,
        })
        .collect();
    let mut config = EngineConfig::new(tables);
    config.policy = BatchPolicy {
        max_batch: args.max_batch,
        max_wait: args.max_wait,
    };
    config.shard.replicas = args.replicas;
    config.telemetry = args.telemetry;
    config.tracing =
        (args.trace_sample > 0).then(|| TraceSettings::new(&args.trace_host, args.trace_sample));

    eprintln!(
        "building {} table(s) x {} replica(s) and probing costs...",
        args.specs.len(),
        args.replicas
    );
    let engine = Arc::new(Engine::start(config));
    for (id, info) in engine.tables().iter().enumerate() {
        eprintln!(
            "  table {id}: {} rows x {} dim, {} ({:.0} ns/query)",
            info.rows, info.dim, info.technique, info.per_query_ns
        );
    }

    // The adaptive controller, when asked for: background drift
    // detection and damped three-way reallocation over this engine, its
    // gauges landing in the registry the METRICS frame serves.
    let controller_handle = if args.adaptive {
        let dim = engine.tables().first().map_or(64, |t| t.dim);
        let batch = args.max_batch.clamp(1, 8);
        let (crossovers, last_version) = initial_crossovers(&args, dim, batch);
        let mut adapt = AdaptConfig::new(dim);
        adapt.dwell = args.adapt_dwell;
        adapt.cooldown = args.adapt_cooldown;
        adapt.batch = batch;
        adapt.persist_path = args.adapt_profile.clone();
        eprintln!(
            "adaptive control: dwell {:?}, cooldown {:?}, crossovers {}..{}",
            adapt.dwell, adapt.cooldown, crossovers.scan_to, crossovers.oram_to
        );
        let controller =
            AdaptiveController::with_crossovers(Arc::clone(&engine), crossovers, adapt)
                .resuming_from_version(last_version);
        Some(controller.start())
    } else {
        None
    };

    let options = ServerOptions {
        conn_idle: args.conn_idle,
    };
    let server = match Server::start_opts(Arc::clone(&engine), &args.listen, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    eprintln!("listening on {}", server.addr());

    // Periodic JSONL registry snapshots, if requested. The exporter runs
    // its own thread; holding the handle keeps it alive for the server's
    // lifetime.
    let _exporter = args.telemetry_out.as_ref().map(|path| {
        match JsonlExporter::start(engine.metrics(), path, args.stats_interval) {
            Ok(exporter) => {
                eprintln!(
                    "telemetry -> {} every {:?}",
                    path.display(),
                    args.stats_interval
                );
                exporter
            }
            Err(e) => {
                eprintln!("telemetry out {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    });

    // Periodic span drain to a JSONL file, if requested. Sharing the
    // stats cadence keeps this loop the only clock in the binary.
    let mut trace_out = args.trace_out.as_ref().map(|path| {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(file) => {
                eprintln!(
                    "spans -> {} every {:?}",
                    path.display(),
                    args.stats_interval
                );
                file
            }
            Err(e) => {
                eprintln!("trace out {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    });
    let drain_spans = |file: &mut std::fs::File, with_meta: bool| {
        use std::io::Write;
        let spans = engine.spans();
        let text = if with_meta {
            // The final drain: remaining spans plus the emit/drop
            // trailer, so the joiner can report holes.
            spans.drain_jsonl()
        } else {
            let mut text = String::new();
            for span in spans.drain() {
                text.push_str(&spans.span_to_json(&span));
                text.push('\n');
            }
            text
        };
        if !text.is_empty() {
            if let Err(e) = file.write_all(text.as_bytes()) {
                eprintln!("write spans: {e}");
            }
        }
    };

    // Serve until killed (or --run-secs elapses), printing a stats line
    // per interval of activity.
    let deadline = args.run_secs.map(|d| Instant::now() + d);
    let mut last_completed = 0;
    loop {
        let sleep = match deadline {
            Some(at) => {
                let left = at.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                left.min(args.stats_interval)
            }
            None => args.stats_interval,
        };
        std::thread::sleep(sleep);
        if let Some(file) = trace_out.as_mut() {
            drain_spans(file, false);
        }
        let snap = engine.stats().snapshot();
        if snap.completed != last_completed {
            last_completed = snap.completed;
            eprintln!("{snap}");
        }
    }
    if let Some(file) = trace_out.as_mut() {
        drain_spans(file, true);
    }

    // --run-secs teardown: stop the controller, close every connection,
    // and exit 0 so CI can assert a clean lifecycle.
    if let Some(handle) = controller_handle {
        let controller = handle.stop();
        eprintln!(
            "controller: {} reallocation(s), final crossovers {}..{}",
            controller.reallocations(),
            controller.crossovers().scan_to,
            controller.crossovers().oram_to
        );
    }
    server.shutdown();
    eprintln!("{}", engine.stats().snapshot());
}
