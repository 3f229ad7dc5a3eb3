//! Load windows and their summaries: plans a window from the seed,
//! drives it, logs every answered request for the correctness check,
//! and reduces the outcomes to the end-to-end metrics.

use crate::check::{Digest, Reference};
use crate::load::{drive, Outcome, Planned, Reply};
use crate::sampler::{poisson_arrivals, rng};
use crate::stack::table_seed;
use crate::stats::{percentile, sla_rps};
use crate::workload::{Op, Requests, Workload, CONNS, MAX_MISS, SLA};
use secemb_serve::RejectReason;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// How long a window waits after its last send for stragglers. Every
/// request carries a 20 ms deadline and admission control bounds the
/// queues, so a reply later than this is lost, not late.
const DRAIN: Duration = Duration::from_secs(2);

/// One driven window.
pub struct Window {
    pub rate: f64,
    pub plan: Vec<Planned>,
    pub outcomes: Vec<Outcome>,
    /// Correctness verdict per planned request (set by [`Ledger::check`]).
    pub correct: Vec<bool>,
}

/// Plans a Poisson window at `rate` over `secs`, drawn from stream
/// `salt` of the run's seed; requests alternate over the connections.
/// `trace_base` stamps trace ids `trace_base + i` on every request.
pub fn plan(
    requests: &Requests,
    seed: u64,
    salt: u64,
    rate: f64,
    secs: f64,
    trace_base: Option<u64>,
) -> Vec<Planned> {
    let mut r = rng(seed, salt);
    poisson_arrivals(&mut r, rate, Duration::from_secs_f64(secs))
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let conn = i % CONNS;
            Planned {
                due,
                conn,
                op: requests.draw(&mut r, conn),
                trace: trace_base.map(|b| b + i as u64),
            }
        })
        .collect()
}

/// Something a run sent: a load window, or one request sent on its own
/// (a start-up probe, a layer-ladder replay).
pub enum Entry {
    Window(Window),
    Single {
        op: Op,
        reply: Option<Digest>,
        correct: bool,
    },
}

/// Every request a run sent, in send order, kept until the timed part is
/// over and then checked against the reference in one pass.
#[derive(Default)]
pub struct Ledger {
    pub entries: Vec<Entry>,
}

impl Ledger {
    /// Drives `plan` against `addr` and records the window; returns its
    /// entry index.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn drive(&mut self, addr: SocketAddr, rate: f64, plan: Vec<Planned>) -> io::Result<usize> {
        let outcomes = drive(addr, &plan, DRAIN)?;
        self.entries.push(Entry::Window(Window {
            rate,
            correct: vec![true; plan.len()],
            plan,
            outcomes,
        }));
        Ok(self.entries.len() - 1)
    }

    /// Records a request sent on its own, with its embeddings' digest if
    /// it got any.
    pub fn single(&mut self, op: Op, reply: Option<Digest>) {
        self.entries.push(Entry::Single {
            op,
            reply,
            correct: true,
        });
    }

    /// The window recorded at entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if entry `i` is not a window.
    pub fn window(&self, i: usize) -> &Window {
        match &self.entries[i] {
            Entry::Window(w) => w,
            Entry::Single { .. } => panic!("entry {i} is not a window"),
        }
    }

    /// Checks every answered request against a fresh reference of `w`
    /// and returns the number of wrong replies.
    ///
    /// Entries are replayed in send order and, inside a window,
    /// connection by connection in send order: on a writing workload
    /// each row is only ever addressed by one connection, so this is the
    /// order the server applied each row's updates in. Refused requests
    /// changed nothing and are skipped.
    pub fn check(&mut self, w: &Workload, seed: u64) -> usize {
        let seeds: Vec<u64> = (0..w.tables.len()).map(|t| table_seed(seed, t)).collect();
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut log: Vec<(&Op, &Digest)> = Vec::new();
        for (e, entry) in self.entries.iter().enumerate() {
            match entry {
                Entry::Single {
                    op, reply: Some(m), ..
                } => {
                    keys.push((e, 0));
                    log.push((op, m));
                }
                Entry::Single { reply: None, .. } => {}
                Entry::Window(win) => {
                    for conn in 0..CONNS {
                        for (i, (p, o)) in win.plan.iter().zip(&win.outcomes).enumerate() {
                            if let (true, Some(Reply::Rows(m))) = (p.conn == conn, &o.reply) {
                                keys.push((e, i));
                                log.push((&p.op, m));
                            }
                        }
                    }
                }
            }
        }
        let verdicts = Reference::new(&w.tables, &seeds).check(&log, CONNS);
        let mut wrong = 0;
        for ((e, i), ok) in keys.into_iter().zip(verdicts) {
            if ok {
                continue;
            }
            wrong += 1;
            match &mut self.entries[e] {
                Entry::Window(win) => win.correct[i] = false,
                Entry::Single { correct, .. } => *correct = false,
            }
        }
        wrong
    }
}

/// A window reduced to what the metrics need.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub rate: f64,
    pub sent: usize,
    pub ok_in_sla: usize,
    /// Completed with embeddings (right or wrong).
    pub completed: usize,
    /// Refused by admission control (queue full, deadline).
    pub shed: usize,
    /// Refused for any other reason.
    pub refused_other: usize,
    pub wrong: usize,
    /// Send failures, garbled replies, and requests never answered.
    pub lost: usize,
    /// Latency (ms, from the due instant) of every completed request.
    pub latency_ms: Vec<f64>,
    /// Send lateness (ms) of every sent request, in send order.
    pub lag_ms: Vec<f64>,
}

impl Summary {
    pub fn of(win: &Window) -> Summary {
        let mut s = Summary {
            rate: win.rate,
            sent: win.plan.len(),
            ..Summary::default()
        };
        for (o, &right) in win.outcomes.iter().zip(&win.correct) {
            if let Some(lag) = o.lag {
                s.lag_ms.push(lag.as_secs_f64() * 1e3);
            }
            match (&o.reply, o.latency) {
                (Some(Reply::Rows(_)), Some(lat)) => {
                    s.completed += 1;
                    s.latency_ms.push(lat.as_secs_f64() * 1e3);
                    if !right {
                        s.wrong += 1;
                    } else if lat <= SLA {
                        s.ok_in_sla += 1;
                    }
                }
                (Some(Reply::Refused(r)), _) if is_shed(*r) => s.shed += 1,
                (Some(Reply::Refused(_)), _) => s.refused_other += 1,
                _ => s.lost += 1,
            }
        }
        s
    }

    /// Several windows at one rate as one.
    pub fn pooled(parts: impl IntoIterator<Item = Summary>) -> Summary {
        let mut all = Summary::default();
        for s in parts {
            all.rate = s.rate;
            all.sent += s.sent;
            all.ok_in_sla += s.ok_in_sla;
            all.completed += s.completed;
            all.shed += s.shed;
            all.refused_other += s.refused_other;
            all.wrong += s.wrong;
            all.lost += s.lost;
            all.latency_ms.extend(s.latency_ms);
            all.lag_ms.extend(s.lag_ms);
        }
        all
    }

    /// Share of sent requests that did not come back correct within
    /// the SLA.
    pub fn miss_share(&self) -> f64 {
        (self.sent - self.ok_in_sla) as f64 / self.sent.max(1) as f64
    }

    /// Share of sent requests refused, lost or wrong.
    pub fn failed_frac(&self) -> f64 {
        (self.shed + self.refused_other + self.wrong + self.lost) as f64 / self.sent.max(1) as f64
    }

    /// Requests that failed outright: wrong, lost, or refused for a
    /// reason other than load shedding.
    pub fn broken(&self) -> usize {
        self.refused_other + self.wrong + self.lost
    }

    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latency_ms, 50.0)
    }

    pub fn p99_ms(&self) -> f64 {
        percentile(&self.latency_ms, 99.0)
    }

    pub fn lag_p99_ms(&self) -> f64 {
        percentile(&self.lag_ms, 99.0)
    }

    /// Whether the sender fell further behind over the window: the last
    /// quarter's median lateness exceeds the first quarter's by more
    /// than a millisecond.
    pub fn lag_grows(&self) -> bool {
        let q = self.lag_ms.len() / 4;
        q >= 10
            && percentile(&self.lag_ms[self.lag_ms.len() - q..], 50.0)
                > percentile(&self.lag_ms[..q], 50.0) + 1.0
    }

    pub fn line(&self) -> String {
        format!(
            "rate {:>5.0}/s  sent {:>5}  ok {:>5}  miss {:>6.2}%  shed {:>4}  other-refused {}  wrong {}  lost {}  p50 {:>7.3} ms  p99 {:>7.3} ms ({} completed)  lag p99 {:.3} ms{}",
            self.rate,
            self.sent,
            self.ok_in_sla,
            100.0 * self.miss_share(),
            self.shed,
            self.refused_other,
            self.wrong,
            self.lost,
            self.p50_ms(),
            self.p99_ms(),
            self.completed,
            self.lag_p99_ms(),
            if self.lag_grows() { "  LATENESS GROWS" } else { "" },
        )
    }
}

/// Admission-control refusals: the server's explicit answer to load it
/// cannot serve within the deadline.
pub fn is_shed(r: RejectReason) -> bool {
    matches!(
        r,
        RejectReason::QueueFull | RejectReason::DeadlineUnmeetable | RejectReason::DeadlineExceeded
    )
}

/// `sla_rps` over a ladder's summaries (ascending rate).
pub fn ladder_sla(steps: &[Summary]) -> f64 {
    let points: Vec<(f64, f64)> = steps.iter().map(|s| (s.rate, s.miss_share())).collect();
    sla_rps(&points, MAX_MISS)
}
