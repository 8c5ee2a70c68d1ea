//! Integration suite for the scenario spec subsystem: corpus hygiene
//! (every checked-in file validates and re-serializes byte-stably),
//! parse/serialize round-trip identity over generated specs, digest
//! equivalence between the generic spec runner and direct engine and
//! `run_scheme` calls, that every field of a Table 1 spec
//! reaches the measured cell, and seed-determinism of the fuzz generator's
//! spec stream.

use proptest::prelude::*;

use wakeup_bench::artifacts::ArtifactCache;
use wakeup_bench::{run_cell, RowPoint};
use wakeup_core::advice::{run_scheme, BfsTreeScheme, CenScheme, SpannerScheme, ThresholdScheme};
use wakeup_core::dfs_rank::DfsRank;
use wakeup_core::fast_wakeup::FastWakeUp;
use wakeup_core::flooding::FloodAsync;
use wakeup_graph::{generators, NodeId};
use wakeup_scenario::gen::SpecGen;
use wakeup_scenario::{
    conformance, corpus, run, DelaySpec, GraphSpec, ProtocolSpec, ScenarioSpec, WakeSpec,
};
use wakeup_sim::adversary::WakeSchedule;
use wakeup_sim::{AsyncConfig, AsyncEngine, Network, RunDigest, SyncConfig, SyncEngine};

#[test]
fn corpus_files_validate_and_reserialize_byte_stably() {
    let all = corpus::all().expect("every corpus file parses and validates");
    assert!(
        all.len() >= 21,
        "expected the full checked-in corpus, got {} files",
        all.len()
    );
    for (path, spec) in &all {
        let on_disk = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            on_disk,
            spec.to_canonical_json(),
            "{} is not in canonical form — regenerate with \
             `cargo run -p wakeup-scenario --example regen_corpus`",
            path.display()
        );
    }
}

#[test]
fn table1_corpus_covers_every_row_in_order() {
    let rows = corpus::table1().unwrap();
    let labels: Vec<String> = rows
        .iter()
        .map(|(_, s)| s.report.clone().expect("table1 specs carry reports").label)
        .collect();
    assert_eq!(
        labels,
        [
            "flooding (baseline)",
            "Theorem 3 (DfsRank)",
            "Theorem 4 (FastWakeUp)",
            "[FIP06], Cor. 1",
            "Theorem 5(A)",
            "Theorem 5(B) (CEN)",
            "Theorem 6 (k=2)",
            "Theorem 6 (k=3)",
            "Corollary 2",
        ]
    );
}

/// Re-runs a Table 1 spec through direct engine calls (and `run_scheme`
/// for the advising schemes), and returns the digest. Deliberately does
/// not share code with `wakeup_scenario::run` — the point is a
/// differential check of the generic runner.
fn reference_digest(spec: &ScenarioSpec) -> RunDigest {
    let seed = spec.engine.seed;
    let graph = match spec.graph {
        GraphSpec::Sparse { n, seed } => {
            generators::erdos_renyi_connected(n, 8.0 / n as f64, seed).unwrap()
        }
        GraphSpec::Complete { n } => generators::complete(n).unwrap(),
        ref other => panic!("unexpected table1 graph {other:?}"),
    };
    let n = graph.n();
    let schedule = match spec.wake {
        WakeSpec::Single { node } => WakeSchedule::single(NodeId::new(node)),
        WakeSpec::All => {
            let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            WakeSchedule::all_at_zero(&all)
        }
        WakeSpec::Staggered { gap } => {
            let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            WakeSchedule::staggered(&all, gap)
        }
        ref other => panic!("unexpected table1 wake {other:?}"),
    };
    let async_config = AsyncConfig {
        seed,
        ..AsyncConfig::default()
    };
    let sync_config = SyncConfig {
        seed,
        ..SyncConfig::default()
    };
    let report = match spec.protocol {
        ProtocolSpec::Flooding => {
            AsyncEngine::<FloodAsync>::new(&Network::kt0(graph, seed), async_config).run(&schedule)
        }
        ProtocolSpec::DfsRank => {
            AsyncEngine::<DfsRank>::new(&Network::kt1(graph, seed), async_config).run(&schedule)
        }
        ProtocolSpec::FastWakeUp => {
            SyncEngine::<FastWakeUp>::new(&Network::kt1(graph, seed), sync_config).run(&schedule)
        }
        ProtocolSpec::Cor1 => {
            run_scheme(
                &BfsTreeScheme::new(),
                &Network::kt0(graph, seed),
                &schedule,
                seed,
            )
            .report
        }
        ProtocolSpec::Thm5a => {
            run_scheme(
                &ThresholdScheme::new(),
                &Network::kt0(graph, seed),
                &schedule,
                seed,
            )
            .report
        }
        ProtocolSpec::Thm5b => {
            run_scheme(
                &CenScheme::new(),
                &Network::kt0(graph, seed),
                &schedule,
                seed,
            )
            .report
        }
        ProtocolSpec::Thm6 { k } => {
            run_scheme(
                &SpannerScheme::new(k),
                &Network::kt0(graph, seed),
                &schedule,
                seed,
            )
            .report
        }
        ProtocolSpec::Cor2 => {
            run_scheme(
                &SpannerScheme::log_instantiation(n),
                &Network::kt0(graph, seed),
                &schedule,
                seed,
            )
            .report
        }
        ref other => panic!("unexpected table1 protocol {other:?}"),
    };
    RunDigest::of(&report)
}

#[test]
fn table1_rows_run_to_the_reference_digests() {
    for (path, spec) in corpus::table1().unwrap() {
        let generic = RunDigest::of(&run::run_spec(&spec).report);
        let reference = reference_digest(&spec);
        let diffs = generic.diff(&reference);
        assert!(
            diffs.is_empty(),
            "{}: spec runner diverges from the direct engine run: {diffs:?}",
            path.display()
        );
    }
}

/// Every measured quantity of a cell, floats by bit pattern, obs JSON
/// included.
fn fingerprint(p: &RowPoint) -> String {
    format!(
        "n={} messages={} time={:x} adv_max={} adv_avg={:x} shape={:x} obs={}",
        p.n,
        p.messages,
        p.time.to_bits(),
        p.advice_max_bits,
        p.advice_avg_bits.to_bits(),
        p.shape.to_bits(),
        p.snapshot.to_json()
    )
}

/// A named edit of one spec field.
type Mutation<'a> = (&'a str, &'a dyn Fn(&mut ScenarioSpec));

/// The spec is the only description of a Table 1 workload: at each row's
/// smallest size, changing any workload field either changes the measured
/// cell or is rejected by validation, while the shard count (an execution
/// detail) leaves the cell byte-identical.
#[test]
fn every_table1_spec_field_reaches_the_measurement() {
    let cache = ArtifactCache::new();
    let rows: Vec<ScenarioSpec> = corpus::table1()
        .unwrap()
        .into_iter()
        .map(|(_, spec)| spec)
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let n = row.report.as_ref().unwrap().sizes[0];
        let cell = row.at_size(n).unwrap();
        let base = fingerprint(&run_cell(&cache, &cell));

        let next_protocol = rows[(i + 1) % rows.len()].protocol;
        let mutations: [Mutation; 6] = [
            ("graph seed or family", &|s| {
                s.graph = match s.graph {
                    GraphSpec::Sparse { n, seed } => GraphSpec::Sparse { n, seed: seed + 1 },
                    GraphSpec::Complete { n } => GraphSpec::Sparse {
                        n,
                        seed: s.engine.seed,
                    },
                    ref other => panic!("unexpected table1 graph {other:?}"),
                }
            }),
            ("graph family", &|s| {
                s.graph = GraphSpec::PowerLaw {
                    n,
                    attach: 3,
                    seed: 1,
                }
            }),
            ("wake", &|s| {
                s.wake = match s.wake {
                    WakeSpec::Single { .. } => WakeSpec::Single { node: n - 1 },
                    WakeSpec::Staggered { gap } => WakeSpec::Staggered { gap: gap + 5.0 },
                    WakeSpec::All => WakeSpec::Single { node: 0 },
                    ref other => panic!("unexpected table1 wake {other:?}"),
                }
            }),
            ("delays", &|s| s.delays = DelaySpec::Random { seed: 3 }),
            // Flooding ignores port numbering and ids, so the engine seed
            // alone cannot move its cell; on `sparse` the seed pair moves
            // together, the corpus convention that keys the cached network.
            ("engine seed", &|s| {
                s.engine.seed += 1;
                if let GraphSpec::Sparse { seed, .. } = &mut s.graph {
                    *seed += 1;
                }
            }),
            ("protocol", &|s| s.protocol = next_protocol),
        ];
        for (field, edit) in mutations {
            let mut spec = cell.clone();
            edit(&mut spec);
            if spec.validate().is_err() {
                continue;
            }
            assert_ne!(
                fingerprint(&run_cell(&cache, &spec)),
                base,
                "{}: changing the {field} left the measured cell unchanged",
                row.name
            );
        }

        let mut sharded = cell.clone();
        sharded.engine.shards = 4;
        assert_eq!(
            fingerprint(&run_cell(&cache, &sharded)),
            base,
            "{}: 4 shards changed the measured cell",
            row.name
        );
    }
}

/// The leader-election corpus spec, and variants of it under every delay
/// strategy and wake kind, pass the whole conformance battery: invariant
/// audit, batched vs per-message, reset vs fresh, and two shards vs one.
#[test]
fn leader_specs_pass_the_battery() {
    let path = corpus::dir().join("audit/08-leader.json");
    let base = corpus::load_file(&path).unwrap();
    assert_eq!(base.protocol, ProtocolSpec::Leader);
    let names: Vec<String> = conformance::run_battery(&base)
        .into_iter()
        .map(|c| {
            assert!(c.passed, "{}: {}: {}", base.name, c.name, c.detail);
            c.name
        })
        .collect();
    assert_eq!(
        names,
        [
            "invariants",
            "batch-vs-per-message",
            "reset-vs-fresh",
            "sharded-vs-serial"
        ]
    );

    let delays = [
        DelaySpec::Unit,
        DelaySpec::Random { seed: 3 },
        DelaySpec::Adversarial { salt: 9 },
        DelaySpec::FifoWorst,
        DelaySpec::Capped {
            inner: Box::new(DelaySpec::Random { seed: 5 }),
            tau_ticks: 16,
        },
    ];
    let wakes = [
        WakeSpec::Single { node: 7 },
        WakeSpec::All,
        WakeSpec::Staggered { gap: 0.75 },
    ];
    for (graph, seed) in [
        (GraphSpec::Sparse { n: 24, seed: 3 }, 3),
        (GraphSpec::Complete { n: 12 }, 8),
        (GraphSpec::Torus { rows: 4, cols: 5 }, 1),
    ] {
        for delays in &delays {
            for wake in &wakes {
                let mut spec = base.clone();
                spec.graph = graph.clone();
                spec.delays = delays.clone();
                spec.wake = wake.clone();
                spec.engine.seed = seed;
                spec.validate().unwrap();
                let checks = conformance::run_battery(&spec);
                for check in &checks {
                    assert!(
                        check.passed,
                        "{graph:?}/{delays:?}/{wake:?}: {}: {}",
                        check.name, check.detail
                    );
                }
                assert!(
                    checks.iter().any(|c| c.name == "sharded-vs-serial"),
                    "{graph:?}/{delays:?}/{wake:?}: no sharded-vs-serial check"
                );
            }
        }
    }
}

#[test]
fn fuzz_spec_stream_is_seed_deterministic() {
    let first = SpecGen::new(1).take(50);
    let second = SpecGen::new(1).take(50);
    assert_eq!(first, second, "same seed must yield the same spec stream");
    for spec in &first {
        spec.validate().expect("generated specs are always valid");
    }
    let other = SpecGen::new(2).take(50);
    assert_ne!(first, other, "different seeds should diverge");
}

proptest! {
    // Parse → canonicalize → parse is the identity on generated specs, and
    // canonical output is a fixed point of re-serialization.
    #[test]
    fn generated_specs_round_trip_losslessly(seed in 0u64..1024, index in 0u64..64) {
        let spec = SpecGen::new(seed).spec(index);
        prop_assert!(spec.validate().is_ok());
        let canon = spec.to_canonical_json();
        let reparsed = ScenarioSpec::parse(&canon).expect("canonical form parses");
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_canonical_json(), canon);
    }
}
