//! Live-reallocation integration tests: the plan swap is atomic,
//! versioned, epoch-tagged, and loses no requests under concurrent load.

use secemb::hybrid::{AllocationPlan, PlannedTable};
use secemb::{GeneratorSpec, Technique};
use secemb_serve::{Client, Engine, EngineConfig, Request, Server, TableConfig};
use secemb_tensor::Matrix;
use secemb_wire::json;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const DIM: usize = 8;
const ROWS: [u64; 2] = [48, 96];
const SEEDS: [u64; 2] = [7, 9];

fn two_table_engine_with_replicas(replicas: usize) -> Arc<Engine> {
    let tables = ROWS
        .iter()
        .zip(SEEDS)
        .map(|(&rows, seed)| TableConfig {
            spec: GeneratorSpec::Scan { rows, dim: DIM },
            seed,
            queue_capacity: 256,
            cost_override_ns: Some(1_000.0),
        })
        .collect();
    let mut config = EngineConfig::new(tables);
    config.shard.replicas = replicas;
    Arc::new(Engine::start(config))
}

fn two_table_engine() -> Arc<Engine> {
    two_table_engine_with_replicas(1)
}

fn dhe_flip_plan(version: u64) -> AllocationPlan {
    AllocationPlan {
        version,
        dim: DIM,
        batch: 8,
        threads: 1,
        threshold: 1, // every table is at/above it: all-DHE
        oram_to: 1,   // empty ORAM band
        tables: ROWS
            .iter()
            .map(|&rows| PlannedTable {
                rows,
                technique: Technique::Dhe,
                per_query_ns: 2_000.0,
            })
            .collect(),
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Reference output of `table` under `technique`, for the submitter
/// thread's fixed index set.
fn reference(table: usize, technique: Technique, indices: &[u64]) -> Vec<u32> {
    let spec = GeneratorSpec::with_technique(ROWS[table], DIM, technique);
    bits(&spec.build(SEEDS[table]).generate_batch(indices))
}

#[test]
fn concurrent_requests_see_old_or_new_plan_never_mixed() {
    let engine = two_table_engine();
    // 2 submitter threads per table, each with a fixed index set whose
    // scan and DHE outputs provably differ.
    let submitters: Vec<(usize, Vec<u64>)> = (0..4)
        .map(|t| {
            let table = t % 2;
            let indices = vec![t as u64, (t as u64 + 11) % ROWS[table], 3];
            (table, indices)
        })
        .collect();
    for (table, indices) in &submitters {
        assert_ne!(
            reference(*table, Technique::LinearScan, indices),
            reference(*table, Technique::Dhe, indices),
            "test needs distinguishable outputs"
        );
    }

    let new_seen_target = 20;
    let deadline = Instant::now() + Duration::from_secs(30);
    let engine_ref = &engine;
    let transitions: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = submitters
            .iter()
            .map(|(table, indices)| {
                s.spawn(move || {
                    let old = reference(*table, Technique::LinearScan, indices);
                    let new = reference(*table, Technique::Dhe, indices);
                    let (mut old_seen, mut new_seen) = (0u64, 0u64);
                    while new_seen < new_seen_target && Instant::now() < deadline {
                        let response = engine_ref.call(Request::new(*table, indices.clone()));
                        let out = response.embeddings().expect("no request may be dropped");
                        let got = bits(out);
                        if got == old {
                            assert_eq!(
                                new_seen, 0,
                                "old-plan output after a new-plan output: epochs interleaved"
                            );
                            old_seen += 1;
                        } else if got == new {
                            new_seen += 1;
                        } else {
                            panic!("output matches neither epoch's generator: torn swap");
                        }
                    }
                    (old_seen, new_seen)
                })
            })
            .collect();
        // Let the submitters run on the startup plan first, then swap.
        std::thread::sleep(Duration::from_millis(30));
        let epoch = engine.apply_plan(&dhe_flip_plan(1)).expect("valid plan");
        assert_eq!(epoch, 1);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one epoch bump, visible everywhere.
    assert_eq!(engine.epoch(), 1);
    assert_eq!(engine.plan_version(), 1);
    for info in engine.tables() {
        assert_eq!(info.technique, Technique::Dhe);
        assert_eq!(info.per_query_ns, 2_000.0);
    }
    let snapshot = engine.stats().snapshot();
    assert_eq!(snapshot.epoch, 1);
    assert_eq!(snapshot.plan_version, 1);
    assert_eq!(snapshot.swaps_applied, ROWS.len() as u64);
    // Every submitter crossed the epoch exactly once and saw both sides.
    for (old_seen, new_seen) in transitions {
        assert!(old_seen > 0, "submitter never observed the startup plan");
        assert_eq!(new_seen, new_seen_target, "submitter starved post-swap");
    }
    // Accounting: accepted == completed, nothing lost in the swap.
    assert_eq!(snapshot.accepted, snapshot.completed);
    assert_eq!(snapshot.total_rejected(), 0);
    assert_eq!(engine.queue_depth(), 0);
}

/// With `replicas > 1`, a live swap must be atomic **across the
/// replicas of each shard**: every submitter issues requests serially,
/// and any replica may serve each of them, so one old-epoch output after
/// a new-epoch output would mean a straggler replica kept serving the
/// old generator while a sibling already served the new one. The
/// per-shard swap barrier forbids exactly that.
#[test]
fn replicated_swap_never_mixes_epochs_across_replicas() {
    const REPLICAS: usize = 2;
    let engine = two_table_engine_with_replicas(REPLICAS);
    let submitters: Vec<(usize, Vec<u64>)> = (0..4)
        .map(|t| {
            let table = t % 2;
            let indices = vec![t as u64, (t as u64 + 11) % ROWS[table], 3];
            (table, indices)
        })
        .collect();
    for (table, indices) in &submitters {
        assert_ne!(
            reference(*table, Technique::LinearScan, indices),
            reference(*table, Technique::Dhe, indices),
            "test needs distinguishable outputs"
        );
    }

    let new_seen_target = 20;
    let deadline = Instant::now() + Duration::from_secs(30);
    let engine_ref = &engine;
    // Each submitter signals once it has seen its first old-epoch
    // output; the plan is applied only after every one has, so each is
    // guaranteed to observe the startup plan however threads schedule.
    let (seen_old_tx, seen_old_rx) = mpsc::channel::<()>();
    let transitions: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = submitters
            .iter()
            .map(|(table, indices)| {
                let seen_old_tx = seen_old_tx.clone();
                s.spawn(move || {
                    let old = reference(*table, Technique::LinearScan, indices);
                    let new = reference(*table, Technique::Dhe, indices);
                    let (mut old_seen, mut new_seen) = (0u64, 0u64);
                    while new_seen < new_seen_target && Instant::now() < deadline {
                        let response = engine_ref.call(Request::new(*table, indices.clone()));
                        let out = response.embeddings().expect("no request may be dropped");
                        let got = bits(out);
                        if got == old {
                            assert_eq!(
                                new_seen, 0,
                                "old-epoch output after a new-epoch output: \
                                 a replica swapped late"
                            );
                            old_seen += 1;
                            if old_seen == 1 {
                                let _ = seen_old_tx.send(());
                            }
                        } else if got == new {
                            new_seen += 1;
                        } else {
                            panic!("output matches neither epoch's generator: torn swap");
                        }
                    }
                    (old_seen, new_seen)
                })
            })
            .collect();
        drop(seen_old_tx);
        // A submitter that dies before signalling drops its sender, so
        // this never blocks past the threads' own deadline; the join
        // below then reports the panic.
        for _ in 0..submitters.len() {
            if seen_old_rx.recv().is_err() {
                break;
            }
        }
        let epoch = engine.apply_plan(&dhe_flip_plan(1)).expect("valid plan");
        assert_eq!(epoch, 1);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let snapshot = engine.stats().snapshot();
    // Every replica of every shard picked up its swap before apply_plan
    // returned (the epoch is published only after all acks).
    assert_eq!(snapshot.swaps_applied, (ROWS.len() * REPLICAS) as u64);
    assert_eq!(snapshot.replicas, REPLICAS as u64);
    assert_eq!(snapshot.worker_batches.len(), ROWS.len() * REPLICAS);
    for (old_seen, new_seen) in transitions {
        assert!(old_seen > 0, "submitter never observed the startup plan");
        assert_eq!(new_seen, new_seen_target, "submitter starved post-swap");
    }
    assert_eq!(snapshot.accepted, snapshot.completed);
    assert_eq!(snapshot.total_rejected(), 0);
    assert_eq!(engine.queue_depth(), 0);
}

/// A three-way plan (non-empty ORAM band) applied to a replicated
/// engine: every replica of every shard must land on its planned
/// technique and serve bit-identically to an independent build of that
/// generator — across the full scan → Circuit ORAM → DHE walk and back.
#[test]
fn three_way_swaps_serve_identically_across_replicas() {
    const REPLICAS: usize = 2;
    let engine = two_table_engine_with_replicas(REPLICAS);
    let indices: [Vec<u64>; 2] = [vec![0, 5, 47], vec![1, 50, 95]];

    // Each step: (plan boundaries, expected technique per table).
    let steps: [(u64, u64, [Technique; 2]); 3] = [
        // Band covers both tables: everything Circuit ORAM.
        (1, u64::MAX, [Technique::CircuitOram; 2]),
        // Split band: table 0 (48 rows) scans, table 1 (96 rows) is DHE.
        (60, 90, [Technique::LinearScan, Technique::Dhe]),
        // Collapsed band: the paper's two-way split, all-DHE.
        (1, 1, [Technique::Dhe; 2]),
    ];
    for (version, &(threshold, oram_to, expected)) in (1u64..).zip(&steps) {
        let plan = AllocationPlan {
            version,
            dim: DIM,
            batch: 8,
            threads: 1,
            threshold,
            oram_to,
            tables: ROWS
                .iter()
                .zip(expected)
                .map(|(&rows, technique)| PlannedTable {
                    rows,
                    technique,
                    per_query_ns: 2_000.0,
                })
                .collect(),
        };
        let epoch = engine.apply_plan(&plan).expect("valid plan");
        assert_eq!(epoch, version);
        for (table, technique) in expected.iter().enumerate() {
            assert_eq!(engine.tables()[table].technique, *technique);
            let want = reference(table, *technique, &indices[table]);
            // Serial calls land on arbitrary replicas; enough of them
            // exercises both. Every one must match the reference build.
            for _ in 0..8 {
                let response = engine.call(Request::new(table, indices[table].clone()));
                let got = bits(response.embeddings().expect("served"));
                assert_eq!(
                    got, want,
                    "table {table} diverged from its {technique} reference \
                     at epoch {epoch}"
                );
            }
        }
    }
    // Every replica of every shard acked every swap.
    let snapshot = engine.stats().snapshot();
    assert_eq!(
        snapshot.swaps_applied,
        (steps.len() * ROWS.len() * REPLICAS) as u64
    );
}

#[test]
fn repeated_swaps_keep_epochs_totally_ordered() {
    let engine = two_table_engine();
    for version in 1..=5 {
        let mut plan = dhe_flip_plan(version);
        if version % 2 == 0 {
            // Flip back to scan on even versions.
            plan.threshold = u64::MAX;
            for t in &mut plan.tables {
                t.technique = Technique::LinearScan;
            }
        }
        let epoch = engine.apply_plan(&plan).expect("valid plan");
        assert_eq!(epoch, version);
    }
    assert_eq!(engine.epoch(), 5);
    assert_eq!(engine.plan_version(), 5);
    // Still serving correctly after 5 swaps (final plan: DHE).
    let out = engine
        .call(Request::new(0, vec![1, 2]))
        .embeddings()
        .expect("served")
        .clone();
    assert_eq!(bits(&out), reference(0, Technique::Dhe, &[1, 2]));
}

#[test]
fn stats_report_plan_version_and_epoch_over_the_wire() {
    let engine = two_table_engine();
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let doc = json::parse(&client.stats_json().expect("stats")).expect("valid JSON");
    let plan = doc.get("plan").expect("plan object");
    assert_eq!(plan.get("version").unwrap().as_u64(), Some(0));
    assert_eq!(plan.get("epoch").unwrap().as_u64(), Some(0));

    engine.apply_plan(&dhe_flip_plan(9)).expect("valid plan");
    let doc = json::parse(&client.stats_json().expect("stats")).expect("valid JSON");
    let plan = doc.get("plan").expect("plan object");
    assert_eq!(plan.get("version").unwrap().as_u64(), Some(9));
    assert_eq!(plan.get("epoch").unwrap().as_u64(), Some(1));
}
