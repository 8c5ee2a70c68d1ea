//! Property-based tests (proptest) on the core invariants: arbitrary
//! connected topologies, wake schedules, and seeds must never break
//! correctness, conservation laws, or the model's accounting.

use proptest::prelude::*;

use wakeup::core::advice::{run_scheme, BfsTreeScheme, CenScheme};
use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::flooding::FloodAsync;
use wakeup::graph::{algo, generators, Graph, NodeId};
use wakeup::sim::adversary::{RandomDelay, WakeSchedule};
use wakeup::sim::{AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine};

fn async_seed(seed: u64) -> AsyncConfig {
    AsyncConfig {
        seed,
        ..AsyncConfig::default()
    }
}

/// Audits one single-wake run of each engine on `g` with the standard
/// invariant set: `DfsRank` and `FloodAsync` under random delays seeded
/// `delay_seed`, and `FloodSync`. Truncated runs skip the end-of-log checks.
fn assert_runs_audit_clean(g: Graph, seed: u64, delay_seed: u64) {
    use wakeup::core::flooding::FloodSync;
    use wakeup::sim::audit::{AuditScope, Auditor};
    use wakeup::sim::{AsyncConfig, AsyncEngine, RunReport, SyncConfig, SyncEngine};
    let net = Network::kt1(g, seed);
    let wake = WakeSchedule::single(NodeId::new(seed as usize % net.n()));
    let check = |engine: &str, report: RunReport| {
        let log = report.audit_log.as_ref().expect("auditing enabled");
        let scope = AuditScope::new(&net).with_completed(!report.truncated);
        let violations = Auditor::standard(scope).run(log);
        assert!(
            violations.is_empty(),
            "{engine} seed {seed}: {violations:?}"
        );
    };
    let config = AsyncConfig {
        seed,
        audit_capacity: Some(1 << 20),
        ..AsyncConfig::default()
    };
    let delays = RandomDelay::new(delay_seed);
    let engine = AsyncEngine::<DfsRank>::new(&net, config.clone());
    check("dfs-rank", engine.run_with(&wake, &delays));
    let delays = RandomDelay::new(delay_seed);
    let engine = AsyncEngine::<FloodAsync>::new(&net, config);
    check("flood-async", engine.run_with(&wake, &delays));
    let config = SyncConfig {
        seed,
        audit_capacity: Some(1 << 20),
        ..SyncConfig::default()
    };
    check(
        "flood-sync",
        SyncEngine::<FloodSync>::new(&net, config).run(&wake),
    );
}

/// The five fixed random-delay seeds on a 30-node random graph, as fixed
/// inputs alongside the generated ones above.
#[test]
fn fixed_random_delay_runs_audit_clean() {
    for seed in 0..5 {
        let g = generators::erdos_renyi_connected(30, 0.2, 3).unwrap();
        assert_runs_audit_clean(g, seed, seed);
    }
}

/// Strategy: a connected graph with 2..=40 nodes.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0u64..1000, 0u8..4).prop_map(|(n, seed, kind)| match kind {
        0 => generators::random_tree(n, seed).unwrap(),
        1 => generators::erdos_renyi_connected(n, 0.3, seed).unwrap(),
        2 => generators::path(n).unwrap(),
        _ => {
            if n >= 3 {
                generators::cycle(n).unwrap()
            } else {
                generators::path(n).unwrap()
            }
        }
    })
}

/// Strategy: a connected graph with 1..=200 nodes, so the 64-source batches
/// of `algo::center` end on and off word boundaries.
fn batched_graph() -> impl Strategy<Value = Graph> {
    (1usize..200, 0u64..1000, 0u8..3).prop_map(|(n, seed, kind)| match kind {
        0 => generators::random_tree(n, seed).unwrap(),
        1 => generators::erdos_renyi_connected(n, 0.04, seed).unwrap(),
        _ => generators::path(n).unwrap(),
    })
}

/// Strategy: a nonempty awake set for a graph of size `n`.
fn awake_set(n: usize) -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::btree_set(0..n, 1..=n.min(6))
        .prop_map(|s| s.into_iter().map(NodeId::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flooding_always_wakes_everyone_and_counts_2m(
        g in connected_graph(),
        seed in 0u64..500,
    ) {
        let m = g.m() as u64;
        let net = Network::kt0(g, seed);
        let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(seed)).run(&WakeSchedule::single(NodeId::new(0)));
        prop_assert!(report.all_awake);
        prop_assert_eq!(report.messages(), 2 * m);
        // Conservation: every sent message is received.
        let sent: u64 = report.metrics.sent_by.iter().sum();
        let received: u64 = report.metrics.received_by.iter().sum();
        prop_assert_eq!(sent, received);
        prop_assert_eq!(sent, report.messages());
    }

    #[test]
    fn flooding_time_never_exceeds_awake_distance(
        g in connected_graph(),
        seed in 0u64..500,
    ) {
        let n = g.n();
        let net = Network::kt0(g, seed);
        let awake: Vec<NodeId> = vec![NodeId::new(seed as usize % n)];
        let rho = algo::awake_distance(net.graph(), &awake).unwrap() as f64;
        let delays = RandomDelay::new(seed);
        let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(seed))
            .run_with(&WakeSchedule::all_at_zero(&awake), &delays);
        prop_assert!(report.metrics.wakeup_time_units().unwrap() <= rho + 1e-9);
    }

    #[test]
    fn dfs_rank_las_vegas(
        g in connected_graph(),
        seed in 0u64..500,
    ) {
        let n = g.n();
        let net = Network::kt1(g, seed);
        let report = AsyncEngine::<DfsRank>::new(&net, async_seed(seed)).run(&WakeSchedule::single(NodeId::new((seed as usize) % n)));
        prop_assert!(report.all_awake);
        prop_assert!(!report.truncated);
    }

    #[test]
    fn dfs_rank_multi_source_las_vegas(
        g in connected_graph(),
        seed in 0u64..200,
    ) {
        let n = g.n();
        let net = Network::kt1(g, seed);
        let awake: Vec<NodeId> = (0..n).step_by(3).map(NodeId::new).collect();
        let report = AsyncEngine::<DfsRank>::new(&net, async_seed(seed)).run(&WakeSchedule::staggered(&awake, (seed % 10) as f64));
        prop_assert!(report.all_awake);
    }

    #[test]
    fn bfs_tree_scheme_correct_and_tree_bounded(
        g in connected_graph(),
        awake_seed in 0u64..100,
    ) {
        let n = g.n();
        let net = Network::kt0(g, awake_seed);
        let awake = vec![NodeId::new(awake_seed as usize % n)];
        let run = run_scheme(
            &BfsTreeScheme::new(),
            &net,
            &WakeSchedule::all_at_zero(&awake),
            awake_seed,
        );
        prop_assert!(run.report.all_awake);
        prop_assert!(run.report.messages() <= 2 * (n as u64).saturating_sub(1).max(1));
    }

    #[test]
    fn cen_scheme_correct_with_arbitrary_awake_sets(
        (g, awake) in connected_graph().prop_flat_map(|g| {
            let n = g.n();
            (Just(g), awake_set(n))
        }),
        seed in 0u64..200,
    ) {
        let net = Network::kt0(g, seed);
        let run = run_scheme(
            &CenScheme::new(),
            &net,
            &WakeSchedule::all_at_zero(&awake),
            seed,
        );
        prop_assert!(run.report.all_awake);
        prop_assert_eq!(run.report.metrics.congest_violations, 0);
    }

    #[test]
    fn runs_are_deterministic_in_all_seeds(
        g in connected_graph(),
        seed in 0u64..200,
    ) {
        let net = Network::kt1(g, seed);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let a = AsyncEngine::<DfsRank>::new(&net, async_seed(seed)).run(&schedule);
        let b = AsyncEngine::<DfsRank>::new(&net, async_seed(seed)).run(&schedule);
        prop_assert_eq!(a.messages(), b.messages());
        prop_assert_eq!(a.metrics.last_receipt_tick, b.metrics.last_receipt_tick);
    }

    #[test]
    fn async_unit_delay_matches_sync_rounds_for_flooding(
        g in connected_graph(),
        seed in 0u64..200,
    ) {
        // Under τ-uniform delays the async engine behaves like a
        // synchronizer: flooding wake times agree with the sync engine's
        // rounds on every node.
        use wakeup::core::flooding::FloodSync;
        use wakeup::sim::TICKS_PER_UNIT;
        let n = g.n();
        let source = NodeId::new(seed as usize % n);
        let net0 = Network::kt0(g.clone(), seed);
        let async_run = AsyncEngine::<FloodAsync>::new(&net0, async_seed(seed)).run(&WakeSchedule::single(source));
        let net1 = Network::kt1(g, seed);
        let sync_config = SyncConfig {
            seed,
            ..SyncConfig::default()
        };
        let sync_run = SyncEngine::<FloodSync>::new(&net1, sync_config).run(&WakeSchedule::single(source));
        for v in 0..n {
            let a = async_run.metrics.wake_tick[v].unwrap();
            let s = sync_run.metrics.wake_tick[v].unwrap() / TICKS_PER_UNIT;
            prop_assert_eq!(a / TICKS_PER_UNIT, s, "node {} wake mismatch", v);
        }
    }

    #[test]
    fn traced_runs_satisfy_standard_invariants(
        g in connected_graph(),
        seed in 0u64..100,
    ) {
        assert_runs_audit_clean(g, seed, seed ^ 0xF00D);
    }

    #[test]
    fn corrupted_advice_never_panics_tree_schemes(
        g in connected_graph(),
        seed in 0u64..200,
        garbage in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 0..64), 1..40),
    ) {
        // Failure injection at the advice layer: feed every tree-scheme
        // protocol arbitrary bit strings instead of oracle output. Decoding
        // must degrade gracefully (possibly failing to wake everyone — the
        // oracle is part of the scheme's contract — but never panicking or
        // violating CONGEST accounting).
        use wakeup::core::advice::bfs_tree::TreeWake;
        use wakeup::core::advice::cen::CenWake;
        use wakeup::sim::{AsyncConfig, AsyncEngine, BitStr};
        let n = g.n();
        let advice: Vec<BitStr> = (0..n)
            .map(|v| {
                let mut s = BitStr::new();
                for &b in &garbage[v % garbage.len()] {
                    s.push_bool(b);
                }
                s
            })
            .collect();
        let net = Network::kt0(g, seed);
        let schedule = WakeSchedule::single(NodeId::new(seed as usize % n));
        let config = AsyncConfig {
            seed,
            advice: Some(std::sync::Arc::new(advice.clone())),
            record_congest_violations: true,
            // Fail fast (instead of hanging) if a regression reintroduces a
            // corrupted-advice message loop.
            max_events: 200_000,
            ..AsyncConfig::default()
        };
        let report = AsyncEngine::<TreeWake>::new(&net, config.clone()).run(&schedule);
        prop_assert!(!report.truncated);
        let report = AsyncEngine::<CenWake>::new(&net, config).run(&schedule);
        prop_assert!(!report.truncated);
    }

    #[test]
    fn corrupted_advice_never_panics_spanner_scheme(
        g in connected_graph(),
        seed in 0u64..100,
        garbage in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        use wakeup::core::advice::spanner::SpannerWake;
        use wakeup::sim::{AsyncConfig, AsyncEngine, BitStr};
        let n = g.n();
        let advice: Vec<BitStr> = (0..n)
            .map(|v| {
                let mut s = BitStr::new();
                s.push_bits(garbage[v % garbage.len()], 64);
                s
            })
            .collect();
        let net = Network::kt0(g, seed);
        let config = AsyncConfig {
            seed,
            advice: Some(std::sync::Arc::new(advice)),
            record_congest_violations: true,
            max_events: 200_000,
            ..AsyncConfig::default()
        };
        let report = AsyncEngine::<SpannerWake>::new(&net, config)
            .run(&WakeSchedule::single(NodeId::new(0)));
        prop_assert!(!report.truncated);
    }

    #[test]
    fn async_engine_reuse_matches_fresh_engines(
        g in connected_graph(),
        seed in 0u64..200,
    ) {
        // Reset-then-run trial loops must be indistinguishable from fresh
        // engine construction: N back-to-back trials on one engine produce
        // the same executions as N one-shot engines, trial by trial.
        use wakeup::sim::adversary::UnitDelay;
        use wakeup::sim::{AsyncConfig, AsyncEngine};
        let n = g.n();
        let net = Network::kt1(g, seed);
        let schedule = WakeSchedule::single(NodeId::new(seed as usize % n));
        let config = AsyncConfig { seed, ..AsyncConfig::default() };
        let mut reused = AsyncEngine::<DfsRank>::new(&net, config.clone());
        for trial in 0..3u64 {
            let trial_seed = seed ^ (trial << 32) ^ trial;
            reused.reset(trial_seed);
            let a = reused.run_mut(&schedule, &UnitDelay);
            let fresh_config = AsyncConfig { seed: trial_seed, ..config.clone() };
            let b = AsyncEngine::<DfsRank>::new(&net, fresh_config).run(&schedule);
            prop_assert_eq!(a.all_awake, b.all_awake, "trial {}", trial);
            prop_assert_eq!(a.messages(), b.messages(), "trial {}", trial);
            prop_assert_eq!(&a.metrics.wake_tick, &b.metrics.wake_tick, "trial {}", trial);
            prop_assert_eq!(&a.metrics.sent_by, &b.metrics.sent_by, "trial {}", trial);
            prop_assert_eq!(&a.metrics.received_by, &b.metrics.received_by, "trial {}", trial);
            prop_assert_eq!(
                a.metrics.last_receipt_tick,
                b.metrics.last_receipt_tick,
                "trial {}", trial
            );
        }
    }

    #[test]
    fn sync_engine_reuse_matches_fresh_engines(
        g in connected_graph(),
        seed in 0u64..200,
    ) {
        use wakeup::core::flooding::FloodSync;
        use wakeup::sim::{SyncConfig, SyncEngine};
        let n = g.n();
        let net = Network::kt1(g, seed);
        let schedule = WakeSchedule::single(NodeId::new(seed as usize % n));
        let config = SyncConfig { seed, ..SyncConfig::default() };
        let mut reused = SyncEngine::<FloodSync>::new(&net, config.clone());
        for trial in 0..3u64 {
            let trial_seed = seed ^ (trial << 32) ^ trial;
            reused.reset(trial_seed);
            let a = reused.run_mut(&schedule);
            let fresh_config = SyncConfig { seed: trial_seed, ..config.clone() };
            let b = SyncEngine::<FloodSync>::new(&net, fresh_config).run(&schedule);
            prop_assert_eq!(a.all_awake, b.all_awake, "trial {}", trial);
            prop_assert_eq!(a.messages(), b.messages(), "trial {}", trial);
            prop_assert_eq!(&a.metrics.wake_tick, &b.metrics.wake_tick, "trial {}", trial);
            prop_assert_eq!(&a.metrics.sent_by, &b.metrics.sent_by, "trial {}", trial);
            prop_assert_eq!(&a.metrics.received_by, &b.metrics.received_by, "trial {}", trial);
            prop_assert_eq!(
                a.metrics.last_receipt_tick,
                b.metrics.last_receipt_tick,
                "trial {}", trial
            );
        }
    }

    #[test]
    fn center_attains_the_least_eccentricity(g in batched_graph()) {
        let (radius, c) = algo::center(&g).expect("connected");
        let least = g.nodes().map(|v| algo::eccentricity(&g, v).unwrap()).min();
        prop_assert_eq!(Some(radius), least);
        prop_assert_eq!(algo::eccentricity(&g, c), Some(radius));
    }

    #[test]
    fn wake_times_respect_hop_distance_lower_bound(
        g in connected_graph(),
        seed in 0u64..200,
    ) {
        // No algorithm can wake a node faster than its hop distance allows
        // (each hop costs at least one tick). Check on flooding.
        let n = g.n();
        let source = NodeId::new(seed as usize % n);
        let dist = algo::bfs_distances(&g, source);
        let net = Network::kt0(g, seed);
        let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(seed)).run(&WakeSchedule::single(source));
        for (v, &d) in dist.iter().enumerate().take(n) {
            let woke = report.metrics.wake_tick[v].unwrap();
            // At least one tick per hop (TICKS_PER_UNIT under unit delays).
            prop_assert!(woke >= d as u64, "node {v} woke impossibly early");
        }
    }
}
