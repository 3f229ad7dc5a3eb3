//! The benchmark's workloads: which tables are served, in what topology,
//! what one request looks like, and the rate ladder it is offered at.

use crate::sampler::{Indices, Zipf};
use rand::rngs::StdRng;
use rand::Rng;
use secemb::GeneratorSpec;
use secemb_data::criteo::KAGGLE_CARDINALITIES;
use secemb_serve::protocol::{encode_generate_multi, encode_generate_traced, encode_update_traced};
use secemb_serve::TraceCtx;
use secemb_tensor::Matrix;
use std::time::Duration;

/// Every request carries this deadline, so admission control is part of
/// what is measured.
pub const SLA: Duration = Duration::from_millis(20);

/// A ladder step passes when at most this share of sent requests miss.
pub const MAX_MISS: f64 = 0.01;

/// Client connections (and load-generator threads): the core count of
/// the host the rates were sized on. Fixed, so a seed gives the same
/// per-connection streams on every host.
pub const CONNS: usize = 2;

/// Share of `oram-rw` requests that read the Circuit ORAM table; the
/// rest go to the look-ahead table. Two thirds on the slower look-ahead
/// table keep the median latency inside one table's latency mode rather
/// than in the gap between the two, where it swings with each seed's mix.
const CIRCUIT_SHARE: f64 = 1.0 / 3.0;

/// Share of look-ahead-table requests on `oram-rw` that are `Update`s.
const WRITE_SHARE: f64 = 0.3;

/// Rows at and above which a Kaggle table is served by DHE instead of
/// scan (the Varied-DHE threshold of the paper's Table VII).
const KAGGLE_THRESHOLD: u64 = 512;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    DlrmKaggle,
    ScanLarge,
    OramRw,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Tables every backend serves, in table-id order.
    pub tables: Vec<GeneratorSpec>,
    /// Backend servers; all of them serve every table.
    pub backends: usize,
    /// Whether clients reach the backends through a router.
    pub routed: bool,
    /// Offered rates (requests/s), ascending.
    pub ladder: [f64; 4],
    /// The ladder rate at which latency and failures are reported.
    pub nominal: f64,
    /// Share of `--seconds` each ladder step runs for.
    pub step_share: [f64; 4],
    /// Head-sampling rate of the traced run (1 in N traced requests).
    pub trace_sample: u64,
    kind: Kind,
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["dlrm-kaggle", "scan-large", "oram-rw"];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            "dlrm-kaggle" => Workload {
                name: "dlrm-kaggle",
                tables: KAGGLE_CARDINALITIES
                    .iter()
                    .map(|&rows| GeneratorSpec::Hybrid {
                        rows,
                        dim: 16,
                        threshold: KAGGLE_THRESHOLD,
                    })
                    .collect(),
                backends: 2,
                routed: true,
                ladder: [200.0, 400.0, 550.0, 700.0],
                nominal: 200.0,
                step_share: [0.45, 0.15, 0.3, 0.1],
                trace_sample: 16,
                kind: Kind::DlrmKaggle,
            },
            "scan-large" => Workload {
                name: "scan-large",
                tables: vec![GeneratorSpec::Scan {
                    rows: 32_768,
                    dim: 64,
                }],
                backends: 1,
                routed: false,
                ladder: [25.0, 50.0, 150.0, 200.0],
                nominal: 50.0,
                step_share: [0.1, 0.74, 0.12, 0.04],
                trace_sample: 2,
                kind: Kind::ScanLarge,
            },
            "oram-rw" => Workload {
                name: "oram-rw",
                tables: vec![
                    GeneratorSpec::CircuitOram {
                        rows: 50_257,
                        dim: 64,
                    },
                    GeneratorSpec::LaOram {
                        rows: 65_536,
                        dim: 64,
                    },
                ],
                backends: 1,
                routed: false,
                ladder: [50.0, 100.0, 150.0, 400.0],
                nominal: 100.0,
                step_share: [0.08, 0.37, 0.35, 0.2],
                trace_sample: 4,
                kind: Kind::OramRw,
            },
            _ => return None,
        };
        Some(w)
    }

    /// Indices a request sends to each table it touches.
    pub fn batch(&self) -> usize {
        match self.kind {
            Kind::DlrmKaggle => 4,
            Kind::ScanLarge | Kind::OramRw => 8,
        }
    }
}

/// One request as the load generator sends it.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// One `GenerateMulti` frame: `(table, indices)` per part; the reply
    /// concatenates the parts' rows in order.
    Multi(Vec<(usize, Vec<u64>)>),
    /// One `Generate` frame.
    Read { table: usize, indices: Vec<u64> },
    /// One `Update` frame: adds `deltas` row by row, replies with the
    /// post-update rows.
    Update {
        table: usize,
        indices: Vec<u64>,
        deltas: Matrix,
    },
}

impl Op {
    /// `(table, indices, deltas)` per part, in reply-row order.
    pub fn parts(&self) -> Vec<(usize, &[u64], Option<&Matrix>)> {
        match self {
            Op::Multi(parts) => parts.iter().map(|(t, ix)| (*t, &ix[..], None)).collect(),
            Op::Read { table, indices } => vec![(*table, &indices[..], None)],
            Op::Update {
                table,
                indices,
                deltas,
            } => vec![(*table, &indices[..], Some(deltas))],
        }
    }

    /// Embedding rows the reply carries.
    pub fn rows(&self) -> usize {
        self.parts().iter().map(|(_, ix, _)| ix.len()).sum()
    }

    /// The request's wire payload, with the SLA as its deadline.
    pub fn encode(&self, id: u64, trace: Option<TraceCtx>) -> Vec<u8> {
        match self {
            Op::Multi(parts) => encode_generate_multi(id, parts, Some(SLA), trace),
            Op::Read { table, indices } => {
                encode_generate_traced(id, *table, indices, Some(SLA), trace)
            }
            Op::Update {
                table,
                indices,
                deltas,
            } => encode_update_traced(id, *table, indices, deltas, Some(SLA), trace),
        }
    }
}

/// Draws a workload's requests.
///
/// On `oram-rw`, connection `c` only ever addresses rows `r` with
/// `r % CONNS == c`, so every operation on a row comes from one
/// connection and the reference can replay each connection's updates
/// in send order.
pub struct Requests {
    kind: Kind,
    batch: usize,
    rows: Vec<u64>,
    dims: Vec<usize>,
    /// Per-table index distribution over each connection's share of
    /// the rows (oram-rw) or over all rows.
    indices: Vec<Indices>,
}

impl Requests {
    pub fn new(w: &Workload) -> Requests {
        let rows: Vec<u64> = w.tables.iter().map(GeneratorSpec::rows).collect();
        let indices = rows
            .iter()
            .map(|&n| match w.kind {
                Kind::OramRw => Indices::Zipf(Zipf::new(n / CONNS as u64, 1.0)),
                _ => Indices::Uniform,
            })
            .collect();
        Requests {
            kind: w.kind,
            batch: w.batch(),
            dims: w.tables.iter().map(GeneratorSpec::dim).collect(),
            rows,
            indices,
        }
    }

    fn draw_indices(&self, rng: &mut StdRng, table: usize, conn: usize) -> Vec<u64> {
        let ix = &self.indices[table];
        match self.kind {
            Kind::OramRw => {
                let share = self.rows[table] / CONNS as u64;
                (0..self.batch)
                    .map(|_| ix.draw(rng, share) * CONNS as u64 + conn as u64)
                    .collect()
            }
            _ => (0..self.batch)
                .map(|_| ix.draw(rng, self.rows[table]))
                .collect(),
        }
    }

    /// The next read-only request for connection `conn` (start-up
    /// probes must not change table state).
    pub fn draw_read(&self, rng: &mut StdRng, conn: usize) -> Op {
        loop {
            let op = self.draw(rng, conn);
            if !matches!(op, Op::Update { .. }) {
                return op;
            }
        }
    }

    /// The next request for connection `conn`.
    pub fn draw(&self, rng: &mut StdRng, conn: usize) -> Op {
        match self.kind {
            Kind::DlrmKaggle => Op::Multi(
                (0..self.rows.len())
                    .map(|t| (t, self.draw_indices(rng, t, conn)))
                    .collect(),
            ),
            Kind::ScanLarge => Op::Read {
                table: 0,
                indices: self.draw_indices(rng, 0, conn),
            },
            Kind::OramRw => {
                let table = usize::from(rng.gen::<f64>() >= CIRCUIT_SHARE);
                let indices = self.draw_indices(rng, table, conn);
                if table == 1 && rng.gen::<f64>() < WRITE_SHARE {
                    let dim = self.dims[table];
                    let deltas =
                        Matrix::from_fn(indices.len(), dim, |_, _| rng.gen_range(-0.01f32..0.01));
                    Op::Update {
                        table,
                        indices,
                        deltas,
                    }
                } else {
                    Op::Read { table, indices }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::rng;

    #[test]
    fn oram_rw_connections_address_disjoint_rows() {
        let w = Workload::named("oram-rw").expect("known workload");
        let req = Requests::new(&w);
        let mut r = rng(1, 1);
        let mut writes = 0;
        for i in 0..2000 {
            let conn = i % CONNS;
            let op = req.draw(&mut r, conn);
            writes += usize::from(matches!(op, Op::Update { .. }));
            for (table, ix, _) in op.parts() {
                assert!(ix.iter().all(|&k| k < w.tables[table].rows()));
                assert!(ix.iter().all(|&k| k as usize % CONNS == conn));
            }
        }
        // Two thirds of requests hit the look-ahead table, 30% of those
        // write: 400 of 2000 expected.
        assert!((300..500).contains(&writes), "{writes} writes");
    }

    #[test]
    fn kaggle_requests_cover_every_table() {
        let w = Workload::named("dlrm-kaggle").expect("known workload");
        let op = Requests::new(&w).draw(&mut rng(2, 2), 0);
        assert_eq!(op.rows(), 104);
        assert_eq!(op.parts().len(), 26);
        let scan = w
            .tables
            .iter()
            .filter(|s| s.technique() == secemb::Technique::LinearScan)
            .count();
        assert_eq!(scan, 9);
    }
}
