//! The single generator contract: every technique is built behind
//! [`EmbeddingGenerator`], and the provided and overridden trait methods
//! agree with the concrete generators they stand for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::{
    table_generator, Dhe, DheConfig, EmbeddingGenerator, GeneratorSpec, IndexLookup, LaOramTable,
    LinearScan, OramTable, Technique,
};
use secemb_tensor::Matrix;
use secemb_trace::tracer::record_trace;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every spec variant (the hybrid on both sides of its threshold),
/// plus a hand-built scan and DHE: `generate_batch_threaded` through
/// the trait object is bit-identical to `generate_batch`.
#[test]
fn threaded_batches_match_single_threaded_through_the_trait() {
    let (rows, dim) = (32, 4);
    let hybrid = |threshold| GeneratorSpec::Hybrid {
        rows,
        dim,
        threshold,
    };
    let mut generators: Vec<Box<dyn EmbeddingGenerator + Send>> = Technique::ALL
        .into_iter()
        .map(|t| GeneratorSpec::with_technique(rows, dim, t))
        .chain([hybrid(rows + 1), hybrid(rows)])
        .map(|spec| spec.build(5))
        .collect();
    generators.push(Box::new(LinearScan::new(Matrix::from_fn(32, 4, |r, c| {
        (r * 10 + c) as f32
    }))));
    generators.push(Box::new(Dhe::new(
        DheConfig::new(4, 16, vec![12, 8]),
        &mut StdRng::seed_from_u64(0),
    )));
    let indices: Vec<u64> = (0..17).map(|i| (i * 7) % rows).collect();
    for g in &mut generators {
        let g: &mut dyn EmbeddingGenerator = g.as_mut();
        let single = bits(&g.generate_batch(&indices));
        for threads in [1, 2, 3, 8] {
            let multi = bits(&g.generate_batch_threaded(&indices, threads));
            assert_eq!(single, multi, "{}, threads = {threads}", g.technique());
        }
    }
}

/// `build(seed)` equals the concrete generator built by hand from the
/// same `StdRng` stream — the synthetic table's draws first, then the
/// ORAM's — in outputs and in the recorded access trace (which pins
/// the ORAM paths). The serve, router and benchmark references all
/// compare against `spec.build(seed)`.
#[test]
fn build_matches_hand_built_generators_on_one_rng_stream() {
    let (rows, dim, seed) = (40u64, 4usize, 11u64);
    let by_hand = |technique| -> Box<dyn EmbeddingGenerator + Send> {
        let mut rng = StdRng::seed_from_u64(seed);
        if technique == Technique::Dhe {
            return Box::new(Dhe::new(DheConfig::varied(dim, rows), &mut rng));
        }
        let table = Matrix::from_fn(rows as usize, dim, |_, _| rng.gen_range(-1.0f32..1.0));
        match technique {
            Technique::IndexLookup => Box::new(IndexLookup::new(table)),
            Technique::LinearScan => Box::new(LinearScan::new(table)),
            Technique::PathOram => Box::new(OramTable::path(&table, rng)),
            Technique::CircuitOram => Box::new(OramTable::circuit(&table, rng)),
            Technique::LaOram => Box::new(LaOramTable::new(&table, rng)),
            Technique::Dhe => unreachable!(),
        }
    };
    let hybrid = |threshold| GeneratorSpec::Hybrid {
        rows,
        dim,
        threshold,
    };
    let specs = Technique::ALL
        .into_iter()
        .map(|t| GeneratorSpec::with_technique(rows, dim, t))
        .chain([hybrid(rows + 1), hybrid(rows)]);
    for spec in specs {
        let mut built = spec.build(seed);
        let mut reference = by_hand(spec.technique());
        for batch in [[0u64, 39, 7, 7], [22, 1, 39, 0]] {
            let (got, got_trace) = record_trace(|| built.generate_batch(&batch));
            let (want, want_trace) = record_trace(|| reference.generate_batch(&batch));
            assert_eq!(bits(&got), bits(&want), "{spec}");
            assert_eq!(got_trace, want_trace, "{spec}: access trace");
        }
    }
}

#[test]
#[should_panic(expected = "DHE has no table form")]
fn table_generator_rejects_dhe() {
    table_generator(
        Technique::Dhe,
        Matrix::zeros(4, 2),
        StdRng::seed_from_u64(0),
    );
}
