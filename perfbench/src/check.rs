//! The correctness gate: every returned embedding is compared bit for bit
//! with a reference generator built in-process from the same spec and
//! seed.
//!
//! Storage-backed specs (scan, the ORAMs) all materialise the same
//! synthetic table from a seed, so their reference is the plain lookup
//! over that table; compute-backed specs (DHE) are their own reference.
//! Updates are replayed on top of the reference in log order.

use crate::workload::Op;
use secemb::{EmbeddingGenerator, GeneratorSpec, Technique};
use secemb_serve::protocol::ServerMsg;
use secemb_tensor::Matrix;
use std::collections::{BTreeSet, HashMap};

/// Reference indices are generated in chunks of this many rows, which
/// bounds the reference's working memory.
const CHUNK: usize = 512;

/// FNV-1a over 32-bit words. Each step is a bijection of the state, so
/// two inputs that differ in any single word always digest differently.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn digest_rows<'a>(rows: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    fnv(rows.into_iter().flatten().map(|x| x.to_bits()))
}

/// What is kept of a reply until the check: its shape and a digest of
/// each part's rows, so a run's replies need not all stay resident.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub cols: usize,
    /// One digest per part of the request, in part order (empty when
    /// the reply's row count does not match the request).
    pub parts: Vec<u64>,
}

impl Digest {
    /// The digest of a server reply to `op`, if it carried embeddings.
    pub fn of_msg(op: &Op, reply: &ServerMsg) -> Option<Digest> {
        match reply {
            ServerMsg::Embeddings(m, _) => Some(Digest::of(op, m)),
            _ => None,
        }
    }

    /// Digests `reply` part by part along `op`'s parts.
    pub fn of(op: &Op, reply: &Matrix) -> Digest {
        let mut parts = Vec::new();
        if reply.rows() == op.rows() {
            let mut at = 0;
            for (_, indices, _) in op.parts() {
                parts.push(digest_rows((at..at + indices.len()).map(|r| reply.row(r))));
                at += indices.len();
            }
        }
        Digest {
            rows: reply.rows(),
            cols: reply.cols(),
            parts,
        }
    }
}

/// The generator a served table is checked against.
pub fn reference_spec(spec: GeneratorSpec) -> GeneratorSpec {
    match spec.technique() {
        Technique::Dhe => spec,
        _ => GeneratorSpec::Lookup {
            rows: spec.rows(),
            dim: spec.dim(),
        },
    }
}

struct RefTable {
    generator: Box<dyn EmbeddingGenerator + Send>,
    /// Current value of every row an update has touched.
    written: HashMap<u64, Vec<f32>>,
}

/// In-process reference state of every table of a workload.
pub struct Reference {
    tables: Vec<RefTable>,
}

/// One part of a logged reply, as seen by one table.
struct PartRef<'a> {
    entry: usize,
    digest: u64,
    indices: &'a [u64],
    deltas: Option<&'a Matrix>,
}

impl Reference {
    /// Builds the reference of `specs[t]` with seed `seeds[t]`.
    pub fn new(specs: &[GeneratorSpec], seeds: &[u64]) -> Reference {
        Reference {
            tables: specs
                .iter()
                .zip(seeds)
                .map(|(spec, &seed)| RefTable {
                    generator: reference_spec(*spec).build(seed),
                    written: HashMap::new(),
                })
                .collect(),
        }
    }

    /// Checks answered requests in `log` order, applying each update
    /// before comparing its reply; returns one verdict per entry.
    ///
    /// The log must list each row's operations in the order the server
    /// applied them (per connection, in send order). Tables are checked
    /// on up to `threads` threads.
    pub fn check(&mut self, log: &[(&Op, &Digest)], threads: usize) -> Vec<bool> {
        let mut by_table: Vec<Vec<PartRef<'_>>> = self.tables.iter().map(|_| Vec::new()).collect();
        let mut ok = vec![true; log.len()];
        for (entry, (op, reply)) in log.iter().enumerate() {
            let parts = op.parts();
            let dims_match = parts.iter().all(|(t, _, _)| {
                *t < self.tables.len() && self.tables[*t].generator.dim() == reply.cols
            });
            if reply.rows != op.rows() || reply.parts.len() != parts.len() || !dims_match {
                ok[entry] = false;
                continue;
            }
            for ((table, indices, deltas), &digest) in parts.into_iter().zip(&reply.parts) {
                by_table[table].push(PartRef {
                    entry,
                    digest,
                    indices,
                    deltas,
                });
            }
        }
        // Balance the tables over the threads by row count, largest first.
        let mut work: Vec<(&mut RefTable, Vec<PartRef<'_>>)> =
            self.tables.iter_mut().zip(by_table).collect();
        work.sort_by_key(|(t, _)| std::cmp::Reverse(t.generator.num_embeddings()));
        let mut lanes: Vec<Vec<(&mut RefTable, Vec<PartRef<'_>>)>> =
            (0..threads.max(1)).map(|_| Vec::new()).collect();
        let mut load = vec![0u64; lanes.len()];
        for item in work {
            let lane = (0..load.len()).min_by_key(|&i| load[i]).unwrap_or(0);
            load[lane] += item.0.generator.num_embeddings();
            lanes[lane].push(item);
        }
        let bad: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| {
                    s.spawn(move || {
                        lane.into_iter()
                            .flat_map(|(table, parts)| table.check_parts(&parts))
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference check thread panicked"))
                .collect()
        });
        for entry in bad {
            ok[entry] = false;
        }
        ok
    }
}

impl RefTable {
    /// Checks this table's parts in log order; returns the entries whose
    /// rows differ.
    fn check_parts(&mut self, parts: &[PartRef<'_>]) -> Vec<usize> {
        let unique: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.indices.iter().copied())
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .filter(|i| !self.written.contains_key(i))
            .collect();
        let mut base: HashMap<u64, Vec<f32>> = HashMap::with_capacity(unique.len());
        for chunk in unique.chunks(CHUNK) {
            let rows = self.generator.generate_batch(chunk);
            for (i, row) in chunk.iter().zip(rows.iter_rows()) {
                base.insert(*i, row.to_vec());
            }
        }
        let mut bad = Vec::new();
        let mut expected: Vec<f32> = Vec::new();
        for p in parts {
            expected.clear();
            for (k, &index) in p.indices.iter().enumerate() {
                let current = match self.written.get_mut(&index) {
                    Some(row) => row,
                    None => base.get_mut(&index).expect("base row generated above"),
                };
                if let Some(deltas) = p.deltas {
                    for (v, d) in current.iter_mut().zip(deltas.row(k)) {
                        *v += d;
                    }
                }
                expected.extend_from_slice(current);
                if p.deltas.is_some() {
                    let row = current.clone();
                    self.written.insert(index, row);
                }
            }
            if digest_rows([&expected[..]]) != p.digest {
                bad.push(p.entry);
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(spec: GeneratorSpec, seed: u64, ops: &[Op]) -> Vec<Matrix> {
        let mut g = spec.build(seed);
        ops.iter()
            .map(|op| match op {
                Op::Read { indices, .. } => g.generate_batch(indices),
                Op::Update {
                    indices, deltas, ..
                } => {
                    let ups: Vec<Option<&[f32]>> = deltas.iter_rows().map(Some).collect();
                    g.generate_window(indices, &ups)
                }
                Op::Multi(_) => unreachable!("single-table ops only"),
            })
            .collect()
    }

    fn verdicts(spec: GeneratorSpec, seed: u64, ops: &[Op], replies: &[Matrix]) -> Vec<bool> {
        let digests: Vec<Digest> = ops
            .iter()
            .zip(replies)
            .map(|(o, m)| Digest::of(o, m))
            .collect();
        let log: Vec<(&Op, &Digest)> = ops.iter().zip(&digests).collect();
        Reference::new(&[spec], &[seed]).check(&log, 2)
    }

    fn ops() -> Vec<Op> {
        let delta = |v: f32| Matrix::from_fn(3, 8, |r, c| v * (r + c) as f32);
        vec![
            Op::Read {
                table: 0,
                indices: vec![1, 5, 5],
            },
            Op::Update {
                table: 0,
                indices: vec![5, 9, 5],
                deltas: delta(0.25),
            },
            Op::Read {
                table: 0,
                indices: vec![5, 9, 63],
            },
            Op::Update {
                table: 0,
                indices: vec![9, 1, 2],
                deltas: delta(-0.125),
            },
        ]
    }

    #[test]
    fn served_updates_match_the_replayed_reference() {
        let spec = GeneratorSpec::LaOram { rows: 64, dim: 8 };
        let ops = ops();
        let replies = served(spec, 11, &ops);
        assert_eq!(verdicts(spec, 11, &ops, &replies), vec![true; 4]);
    }

    #[test]
    fn a_single_flipped_bit_fails_only_its_reply() {
        for spec in [
            GeneratorSpec::LaOram { rows: 64, dim: 8 },
            GeneratorSpec::Scan { rows: 64, dim: 8 },
            GeneratorSpec::Dhe { rows: 64, dim: 8 },
        ] {
            let mut ops = ops();
            if spec.technique() != Technique::LaOram {
                ops.retain(|op| matches!(op, Op::Read { .. }));
            }
            let mut replies = served(spec, 3, &ops);
            let last = replies.len() - 1;
            for bit in [0, 17, 31] {
                let mut flipped = replies.clone();
                let v = flipped[last].get(1, 7).to_bits() ^ (1 << bit);
                flipped[last].set(1, 7, f32::from_bits(v));
                let mut want = vec![true; ops.len()];
                want[last] = false;
                assert_eq!(verdicts(spec, 3, &ops, &flipped), want, "{spec} bit {bit}");
            }
            replies[0] = Matrix::zeros(1, 8);
            assert!(!verdicts(spec, 3, &ops, &replies)[0], "{spec} short reply");
        }
    }

    #[test]
    fn a_reference_of_another_seed_fails() {
        let spec = GeneratorSpec::CircuitOram { rows: 64, dim: 8 };
        let ops = vec![Op::Read {
            table: 0,
            indices: vec![3, 4],
        }];
        let replies = served(spec, 1, &ops);
        assert_eq!(verdicts(spec, 1, &ops, &replies), vec![true]);
        assert_eq!(verdicts(spec, 2, &ops, &replies), vec![false]);
    }
}
