//! Per-layer costs, each timed from outside around calls into that
//! layer's public functions.

use crate::sampler::{rng, Zipf};
use crate::stats::{iqr, median};
use crate::workload::{Op, Workload};
use rand::Rng;
use secemb::{DheConfig, GeneratorSpec, Technique};
use secemb_obliv::{scan, select, Choice};
use secemb_serve::protocol::{decode_client, decode_server, encode_response};
use secemb_serve::{Response, StageBreakdown};
use secemb_tensor::Matrix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shape of the scan the obliv and scan-generator layers are timed on:
/// the workload's largest scan-served table at its batch size, or the
/// `scan-large` table when the workload serves none.
#[derive(Clone, Copy, Debug)]
pub struct ScanShape {
    pub rows: usize,
    pub dim: usize,
    pub batch: usize,
}

impl ScanShape {
    pub fn of(w: &Workload) -> ScanShape {
        w.tables
            .iter()
            .filter(|s| s.technique() == Technique::LinearScan)
            .max_by_key(|s| s.rows())
            .map_or(
                ScanShape {
                    rows: 32_768,
                    dim: 64,
                    batch: 8,
                },
                |s| ScanShape {
                    rows: s.rows() as usize,
                    dim: s.dim(),
                    batch: w.batch(),
                },
            )
    }

    pub fn bytes(&self) -> f64 {
        (self.rows * self.dim * 4) as f64
    }
}

/// Oblivious-primitive costs on one buffer.
#[derive(Clone, Copy, Debug)]
pub struct Obliv {
    /// `scan_copy_rows`, per byte of table scanned.
    pub scan_ns_per_byte: f64,
    /// A plain streaming read of the same buffer, per byte.
    pub read_floor_ns_per_byte: f64,
    /// `select::assign_slice_f32` of every row into one output row, per
    /// byte.
    pub blend_ns_per_byte: f64,
}

/// Sums the buffer's bits with independent lanes: the fastest way to
/// touch every byte once, which no oblivious scan may beat.
fn stream_read(table: &[f32]) -> u32 {
    let mut lanes = [0u32; 16];
    let chunks = table.chunks_exact(16);
    let tail = chunks.remainder().iter().fold(0u32, |a, x| a ^ x.to_bits());
    for c in chunks {
        for (l, x) in lanes.iter_mut().zip(c) {
            *l = l.wrapping_add(x.to_bits());
        }
    }
    lanes.iter().fold(tail, |a, l| a ^ l)
}

/// Times the three obliv kernels on `shape`, interleaved, for about
/// `budget`, and returns each one's median.
pub fn obliv(shape: ScanShape, seed: u64, budget: Duration) -> Obliv {
    let mut r = rng(seed, 0x0B11);
    let data: Vec<f32> = (0..shape.rows * shape.dim)
        .map(|_| r.gen_range(-1.0f32..1.0))
        .collect();
    let indices: Vec<u64> = (0..shape.batch)
        .map(|_| r.gen_range(0..shape.rows as u64))
        .collect();
    let mut out = vec![0.0f32; shape.batch * shape.dim];
    // Repeat short passes so each timed sample lasts well above the
    // clock's resolution.
    let passes = ((1 << 21) as f64 / shape.bytes()).ceil().max(1.0) as usize;
    let (mut scan_s, mut floor_s, mut blend_s) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed() < budget || scan_s.len() < 3 {
        let t = Instant::now();
        for _ in 0..passes.div_ceil(shape.batch) {
            scan::scan_copy_rows(black_box(&data), shape.dim, black_box(&indices), &mut out);
        }
        black_box(&out);
        let bytes = (passes.div_ceil(shape.batch) * shape.batch) as f64 * shape.bytes();
        scan_s.push(t.elapsed().as_nanos() as f64 / bytes);

        let t = Instant::now();
        let mut acc = 0u32;
        for _ in 0..passes {
            acc ^= stream_read(black_box(&data));
        }
        black_box(acc);
        floor_s.push(t.elapsed().as_nanos() as f64 / (passes as f64 * shape.bytes()));

        let t = Instant::now();
        let take = Choice::from_bool(black_box(false));
        for _ in 0..passes {
            for row in black_box(&data).chunks_exact(shape.dim) {
                select::assign_slice_f32(take, &mut out[..shape.dim], row);
            }
        }
        black_box(&out);
        blend_s.push(t.elapsed().as_nanos() as f64 / (passes as f64 * shape.bytes()));
    }
    Obliv {
        scan_ns_per_byte: median(&scan_s),
        read_floor_ns_per_byte: median(&floor_s),
        blend_ns_per_byte: median(&blend_s),
    }
}

/// The machine-level obliviousness gate: an oblivious scan that runs
/// faster than a plain read of the same bytes cannot have read every
/// row, so the compiled binary leaks. Returns whether the gate passes.
pub fn security_gate(w: &Workload, seed: u64, budget: Duration) -> (bool, Obliv) {
    let shape = ScanShape::of(w);
    let o = obliv(shape, seed, budget);
    let pass = o.scan_ns_per_byte >= o.read_floor_ns_per_byte;
    println!(
        "security gate ({}x{} batch {}): scan {:.4} ns/B vs read floor {:.4} ns/B: {}",
        shape.rows,
        shape.dim,
        shape.batch,
        o.scan_ns_per_byte,
        o.read_floor_ns_per_byte,
        if pass {
            "pass"
        } else {
            "FAIL (scan beat a plain read)"
        }
    );
    (pass, o)
}

/// Runs `f` repeatedly for about `budget` (at least `min` times) and
/// returns each run's wall time in microseconds.
pub fn time_runs(budget: Duration, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || out.len() < min {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out
}

/// Protected-generator costs.
#[derive(Clone, Copy, Debug)]
pub struct Gen {
    /// One scan-table batch of the workload's scan shape.
    pub scan_us_per_batch: f64,
    /// Spread (IQR) of the scan batch samples.
    pub scan_spread_us: f64,
    /// One batch of 4 on the Varied DHE of the largest Kaggle table.
    pub dhe_us_per_batch: f64,
    /// The same, per multiply-add FLOP of the decoder MLP.
    pub dhe_ns_per_flop: f64,
}

/// Rows of the largest Criteo Kaggle table, whose Varied DHE is the most
/// expensive generator the `dlrm-kaggle` workload serves.
const LARGEST_KAGGLE_TABLE: u64 = 10_131_227;

/// Times the scan and DHE generators for about `budget` each.
pub fn gen(shape: ScanShape, seed: u64, budget: Duration) -> Gen {
    let mut r = rng(seed, 0x6E11);
    let mut scan_g = GeneratorSpec::Scan {
        rows: shape.rows as u64,
        dim: shape.dim,
    }
    .build(seed);
    let ix: Vec<u64> = (0..shape.batch)
        .map(|_| r.gen_range(0..shape.rows as u64))
        .collect();
    let scan_t = time_runs(budget, 5, || {
        black_box(scan_g.generate_batch(black_box(&ix)));
    });
    let dhe_spec = GeneratorSpec::Dhe {
        rows: LARGEST_KAGGLE_TABLE,
        dim: 16,
    };
    let mut dhe_g = dhe_spec.build(seed);
    let ix: Vec<u64> = (0..4)
        .map(|_| r.gen_range(0..LARGEST_KAGGLE_TABLE))
        .collect();
    black_box(dhe_g.generate_batch(&ix));
    let dhe_t = time_runs(budget, 5, || {
        black_box(dhe_g.generate_batch(black_box(&ix)));
    });
    let dhe_us = median(&dhe_t);
    let flops = 2.0 * DheConfig::varied(16, LARGEST_KAGGLE_TABLE).param_count() as f64 * 4.0;
    Gen {
        scan_us_per_batch: median(&scan_t),
        scan_spread_us: iqr(&scan_t),
        dhe_us_per_batch: dhe_us,
        dhe_ns_per_flop: dhe_us * 1e3 / flops,
    }
}

/// Draws `n` batches of `batch` Zipf(1.0) indices over `rows`.
fn zipf_batches(seed: u64, salt: u64, rows: u64, batch: usize, n: usize) -> Vec<Vec<u64>> {
    let z = Zipf::new(rows, 1.0);
    let mut r = rng(seed, salt);
    (0..n)
        .map(|_| (0..batch).map(|_| z.sample(&mut r)).collect())
        .collect()
}

/// Circuit ORAM costs on the `oram-rw` read-only table shape.
#[derive(Clone, Copy, Debug)]
pub struct OramCost {
    pub circuit_us_per_access: f64,
    pub buckets_per_access: f64,
    pub stash_peak_blocks: f64,
}

/// Shape of the ORAM tables every workload's ORAM layers are timed on.
pub const CIRCUIT_SPEC: GeneratorSpec = GeneratorSpec::CircuitOram {
    rows: 50_257,
    dim: 64,
};
pub const LAORAM_SPEC: GeneratorSpec = GeneratorSpec::LaOram {
    rows: 65_536,
    dim: 64,
};

/// Times Circuit ORAM batches of 8 Zipf(1.0) reads for about `budget`.
pub fn oram(seed: u64, budget: Duration) -> OramCost {
    let mut g = CIRCUIT_SPEC.build(seed);
    let batches = zipf_batches(seed, 0x0EA4, CIRCUIT_SPEC.rows(), 8, 64);
    black_box(g.generate_batch(&batches[0]));
    let before = g.access_stats().unwrap_or_default();
    let mut stash_peak = 0usize;
    let mut k = 0;
    let t = time_runs(budget, 5, || {
        black_box(g.generate_batch(&batches[k % batches.len()]));
        stash_peak = stash_peak.max(g.stash_occupancy().unwrap_or(0));
        k += 1;
    });
    let after = g.access_stats().unwrap_or_default();
    let accesses = after.accesses.saturating_sub(before.accesses).max(1) as f64;
    let buckets = (after.bucket_reads + after.bucket_writes)
        .saturating_sub(before.bucket_reads + before.bucket_writes) as f64;
    OramCost {
        circuit_us_per_access: median(&t) / 8.0,
        buckets_per_access: buckets / accesses,
        stash_peak_blocks: stash_peak as f64,
    }
}

/// Look-ahead ORAM costs on the `oram-rw` writable table shape.
#[derive(Clone, Copy, Debug)]
pub struct LaoramCost {
    pub read_us_per_access: f64,
    pub write_us_per_access: f64,
    /// Window slots served by an earlier fetch of the same window.
    pub hit_rate: f64,
}

/// Times look-ahead windows of 8 Zipf(1.0) indices, alternating
/// read-only windows and all-update windows, for about `budget`.
pub fn laoram(seed: u64, budget: Duration) -> LaoramCost {
    let mut g = LAORAM_SPEC.build(seed);
    let batches = zipf_batches(seed, 0x1A04, LAORAM_SPEC.rows(), 8, 64);
    let deltas: Vec<f32> = vec![1e-3; LAORAM_SPEC.dim()];
    let reads = vec![None; 8];
    let writes: Vec<Option<&[f32]>> = vec![Some(&deltas[..]); 8];
    black_box(g.generate_window(&batches[0], &reads));
    let before = g.lookahead_stats().unwrap_or_default();
    let (mut read_t, mut write_t) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut k = 0;
    while t0.elapsed() < budget || read_t.len() < 5 {
        let b = &batches[k % batches.len()];
        let t = Instant::now();
        black_box(g.generate_window(b, &reads));
        read_t.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        black_box(g.generate_window(b, &writes));
        write_t.push(t.elapsed().as_nanos() as f64 / 1e3);
        k += 1;
    }
    let after = g.lookahead_stats().unwrap_or_default();
    let ops = after.ops.saturating_sub(before.ops).max(1) as f64;
    LaoramCost {
        read_us_per_access: median(&read_t) / 8.0,
        write_us_per_access: median(&write_t) / 8.0,
        hit_rate: after.prefetch_hits.saturating_sub(before.prefetch_hits) as f64 / ops,
    }
}

/// Encodes and decodes the frames of `ops` and their `replies` (request
/// encode, server-side request decode, response encode, client-side
/// response decode) for about `budget`; returns nanoseconds per byte of
/// request and response payload.
pub fn codec(ops: &[Op], replies: &[Matrix], budget: Duration) -> f64 {
    let responses: Vec<Response> = replies
        .iter()
        .map(|m| Response::Embeddings(m.clone(), StageBreakdown::default()))
        .collect();
    let bytes: usize = ops
        .iter()
        .zip(&responses)
        .enumerate()
        .map(|(id, (op, resp))| {
            op.encode(id as u64, None).len() + encode_response(id as u64, resp).len()
        })
        .sum();
    let t = time_runs(budget, 3, || {
        for (id, (op, resp)) in ops.iter().zip(&responses).enumerate() {
            let req = op.encode(id as u64, None);
            black_box(decode_client(black_box(&req)).is_ok());
            let out = encode_response(id as u64, resp);
            black_box(decode_server(black_box(&out)).is_ok());
        }
    });
    median(&t) * 1e3 / bytes.max(1) as f64
}
