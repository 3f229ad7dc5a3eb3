//! Layered serving benchmark for the SecEmb stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dlrm-kaggle --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Starts the serving stack in-process (engines, TCP servers and, for
//! routed workloads, a router), offers it a seeded open-loop Poisson
//! load over a rate ladder, checks every reply bit for bit against an
//! in-process reference, and prints one metric per line followed by a
//! JSON summary as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` makes a separate run that reports
//! the per-layer costs and span self-times. Exits 1 when a correctness
//! or security gate fails, 2 on bad arguments or a failed start-up.

mod check;
mod layers;
mod load;
mod run;
mod sampler;
mod stack;
mod stats;
mod traced;
mod workload;

use check::Digest;
use run::{ladder_sla, plan, Ledger, Summary};
use sampler::rng;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Requests, Workload, NAMES};

/// Stack start-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Passes over the rate ladder per run.
const ROUNDS: usize = 5;

/// Unmeasured load at the nominal rate before the first timed window,
/// so caches fill and lazy set-up finishes.
const WARMUP_SECS: f64 = 1.0;

/// Salts of the run's seeded streams.
const SALT_FIRST: u64 = 1;
const SALT_WARMUP: u64 = 2;
const SALT_STEP: u64 = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports.
pub struct Report {
    /// The metrics of the JSON summary.
    pub metrics: Vec<Metric>,
    /// Further metrics that are printed but kept out of the summary.
    pub printed: Vec<Metric>,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}  host: {} cores, {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
    );
    let result = if args.trace {
        traced::run(&args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args.workload, args.seed, args.seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    for m in report.metrics.iter().chain(&report.printed) {
        println!("{:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", to_json(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end run: repeated timed start-ups, a warm-up, then the
/// rate ladder; every reply is checked after the last window.
fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> std::io::Result<Report> {
    let (gate, _) = layers::security_gate(w, seed, Duration::from_millis(300));
    let requests = Requests::new(w);
    let first = requests.draw_read(&mut rng(seed, SALT_FIRST), 0);
    let mut ledger = Ledger::default();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = stack.take() {
            stack::Stack::shutdown(s);
        }
        let (s, secs, reply) = stack::timed_start(w, seed, None, &first)?;
        ledger.single(first.clone(), Digest::of_msg(&first, &reply));
        setup.push(secs);
        stack = Some(s);
    }
    let stack = stack.expect("at least one start-up");
    let entry = stack.entry();
    ledger.drive(
        entry,
        w.nominal,
        plan(&requests, seed, SALT_WARMUP, w.nominal, WARMUP_SECS, None),
    )?;
    // The ladder runs in rounds, every step once per round, so slow
    // drift in the host's speed reaches every step alike.
    let mut windows: Vec<Vec<usize>> = vec![Vec::new(); w.ladder.len()];
    for round in 0..ROUNDS {
        for (k, (&rate, &share)) in w.ladder.iter().zip(&w.step_share).enumerate() {
            let salt = SALT_STEP + (round * w.ladder.len() + k) as u64;
            let p = plan(
                &requests,
                seed,
                salt,
                rate,
                seconds * share / ROUNDS as f64,
                None,
            );
            windows[k].push(ledger.drive(entry, rate, p)?);
        }
    }
    // Read before the check, whose reference state is not the stack's.
    let peak_rss = peak_rss_mb();
    stack.shutdown();
    let t = Instant::now();
    let wrong = ledger.check(w, seed);
    println!(
        "checked every reply in {:.2} s: {wrong} wrong",
        t.elapsed().as_secs_f64()
    );
    let summaries: Vec<Summary> = windows
        .iter()
        .map(|ws| Summary::pooled(ws.iter().map(|&e| Summary::of(ledger.window(e)))))
        .collect();
    for s in &summaries {
        println!("{}", s.line());
    }
    let nominal = summaries
        .iter()
        .find(|s| s.rate == w.nominal)
        .expect("nominal rate is a ladder step");
    let beyond = nominal.completed - (nominal.completed as f64 * 0.99).ceil() as usize;
    println!(
        "p99 at {}/s rests on {} samples ({beyond} beyond it)",
        w.nominal, nominal.completed
    );
    let setup_s = stats::median(&setup);
    println!("setup_s samples: {setup:.4?}");
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("p50_ms", nominal.p50_ms(), "ms"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok(Report {
        // Tail and threshold metrics: printed, but kept out of the
        // summary. At the 1% level they follow the host's scheduling
        // stalls more than the stack, so they do not repeat from run to
        // run; `failed_frac` is often exactly zero.
        printed: vec![
            Metric::new("p99_ms", nominal.p99_ms(), "ms"),
            Metric::new("sla_rps", ladder_sla(&summaries), "req/s"),
            Metric::new("failed_frac", nominal.failed_frac(), "ratio"),
        ],
        correct: wrong == 0 && gate,
        attempted: summaries.iter().map(|s| s.sent).sum(),
        failed: summaries.iter().map(Summary::broken).sum(),
        metrics,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string())
}

fn to_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit `f64` carries (non-finite values,
/// which JSON cannot hold, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload oram-rw --seed 7 --seconds 24 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("oram-rw", 7, 24.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload scan-large --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload scan-large --seed 1 --seconds 5").is_err());
    }

    #[test]
    fn json_summary_has_the_contract_keys() {
        let r = Report {
            metrics: vec![Metric::new("p50_ms", 1.25, "ms")],
            printed: vec![Metric::new("failed_frac", 0.0, "ratio")],
            correct: true,
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            to_json(&r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
