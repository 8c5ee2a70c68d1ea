//! Cross-crate integration tests: every algorithm against every workload
//! class, all through the umbrella crate's public API.

use wakeup::core::advice::{
    run_scheme, AdvisingScheme, BfsTreeScheme, CenScheme, SpannerScheme, ThresholdScheme,
};
use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::{FloodAsync, FloodSync};
use wakeup::core::gossip::SetGossip;
use wakeup::graph::{algo, generators, Graph, NodeId};
use wakeup::sim::adversary::{AdversarialDelay, RandomDelay, WakeSchedule};
use wakeup::sim::{AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine};

fn async_seed(seed: u64) -> AsyncConfig {
    AsyncConfig {
        seed,
        ..AsyncConfig::default()
    }
}

fn sync_seed(seed: u64) -> SyncConfig {
    SyncConfig {
        seed,
        ..SyncConfig::default()
    }
}

fn workloads() -> Vec<(String, Graph)> {
    vec![
        ("path".into(), generators::path(40).unwrap()),
        ("cycle".into(), generators::cycle(40).unwrap()),
        ("star".into(), generators::star(40).unwrap()),
        ("grid".into(), generators::grid(6, 7).unwrap()),
        ("hypercube".into(), generators::hypercube(5).unwrap()),
        ("tree".into(), generators::random_tree(40, 3).unwrap()),
        (
            "gnp".into(),
            generators::erdos_renyi_connected(40, 0.12, 4).unwrap(),
        ),
        ("barbell".into(), generators::barbell(12, 4).unwrap()),
        ("lollipop".into(), generators::lollipop(20, 6).unwrap()),
        ("complete".into(), generators::complete(30).unwrap()),
    ]
}

fn schedules(g: &Graph, seed: usize) -> Vec<(String, WakeSchedule)> {
    let n = g.n();
    let spread: Vec<NodeId> = (0..n).step_by(7).map(NodeId::new).collect();
    vec![
        ("single".into(), WakeSchedule::single(NodeId::new(seed % n))),
        ("spread".into(), WakeSchedule::all_at_zero(&spread)),
        ("staggered".into(), WakeSchedule::staggered(&spread, 3.0)),
    ]
}

#[test]
fn flooding_wakes_everything_everywhere() {
    for (gname, g) in workloads() {
        for (sname, schedule) in schedules(&g, 1) {
            let net = Network::kt0(g.clone(), 1);
            let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(1)).run(&schedule);
            assert!(report.all_awake, "{gname}/{sname}");
            let net = Network::kt1(g.clone(), 1);
            let report = SyncEngine::<FloodSync>::new(&net, sync_seed(1)).run(&schedule);
            assert!(report.all_awake, "{gname}/{sname} sync");
        }
    }
}

#[test]
fn dfs_rank_wakes_everything_everywhere() {
    for (gname, g) in workloads() {
        for (sname, schedule) in schedules(&g, 2) {
            let net = Network::kt1(g.clone(), 2);
            let report = AsyncEngine::<DfsRank>::new(&net, async_seed(2)).run(&schedule);
            assert!(report.all_awake, "{gname}/{sname}");
        }
    }
}

#[test]
fn fast_wakeup_wakes_everything_within_ten_rho() {
    for (gname, g) in workloads() {
        for (sname, schedule) in schedules(&g, 3) {
            let rho = algo::awake_distance(&g, &schedule.initially_awake());
            let net = Network::kt1(g.clone(), 3);
            let report = SyncEngine::<FastWakeUp>::new(&net, sync_seed(3)).run(&schedule);
            assert!(report.all_awake, "{gname}/{sname}");
            if sname == "single" || sname == "spread" {
                let rho = rho.unwrap() as u64;
                let rounds = report.metrics.all_awake_tick.unwrap() / wakeup::sim::TICKS_PER_UNIT;
                assert!(
                    rounds <= 10 * rho.max(1),
                    "{gname}/{sname}: {rounds} rounds > 10ρ = {}",
                    10 * rho.max(1)
                );
            }
        }
    }
}

#[test]
fn gossip_wakes_everything_everywhere() {
    for (gname, g) in workloads() {
        let net = Network::kt1(g.clone(), 4);
        let report = SyncEngine::<SetGossip>::new(&net, sync_seed(4))
            .run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.all_awake, "{gname}");
    }
}

fn check_scheme<S: AdvisingScheme>(scheme: &S, name: &str) {
    for (gname, g) in workloads() {
        for (sname, schedule) in schedules(&g, 5) {
            let net = Network::kt0(g.clone(), 5);
            let run = run_scheme(scheme, &net, &schedule, 5);
            assert!(run.report.all_awake, "{name} on {gname}/{sname}");
            assert_eq!(
                run.report.metrics.congest_violations, 0,
                "{name} on {gname}/{sname}: CONGEST violated"
            );
        }
    }
}

#[test]
fn bfs_tree_scheme_everywhere() {
    check_scheme(&BfsTreeScheme::new(), "Cor1");
}

#[test]
fn threshold_scheme_everywhere() {
    check_scheme(&ThresholdScheme::new(), "Thm5A");
}

#[test]
fn cen_scheme_everywhere() {
    check_scheme(&CenScheme::new(), "Thm5B");
}

#[test]
fn spanner_scheme_everywhere() {
    check_scheme(&SpannerScheme::new(2), "Thm6(k=2)");
    check_scheme(&SpannerScheme::new(3), "Thm6(k=3)");
}

#[test]
fn cor2_log_instantiation_everywhere() {
    check_scheme(&SpannerScheme::log_instantiation(40), "Cor2");
}

#[test]
fn random_and_adversarial_delays_never_break_correctness() {
    let g = generators::erdos_renyi_connected(50, 0.1, 6).unwrap();
    let net = Network::kt1(g, 6);
    let schedule = WakeSchedule::staggered(
        &(0..50).step_by(11).map(NodeId::new).collect::<Vec<_>>(),
        7.0,
    );
    for seed in 0..6 {
        let random = RandomDelay::new(seed);
        let report =
            AsyncEngine::<DfsRank>::new(&net, async_seed(seed)).run_with(&schedule, &random);
        assert!(report.all_awake, "random delay seed {seed}");
        let skew = AdversarialDelay::new(seed);
        let report = AsyncEngine::<DfsRank>::new(&net, async_seed(seed)).run_with(&schedule, &skew);
        assert!(report.all_awake, "skew delay seed {seed}");
    }
}

#[test]
fn message_efficiency_ordering_holds_on_dense_graphs() {
    // On a dense graph with a single wake-up: flooding >> threshold >> tree
    // schemes, matching Table 1's message column.
    let g = generators::erdos_renyi_connected(80, 0.5, 7).unwrap();
    let schedule = WakeSchedule::single(NodeId::new(0));
    let net0 = Network::kt0(g.clone(), 7);
    let flood = AsyncEngine::<FloodAsync>::new(&net0, async_seed(7)).run(&schedule);
    let thresh = run_scheme(&ThresholdScheme::new(), &net0, &schedule, 7);
    let tree = run_scheme(&BfsTreeScheme::new(), &net0, &schedule, 7);
    let cen = run_scheme(&CenScheme::new(), &net0, &schedule, 7);
    assert!(flood.messages() > thresh.report.messages());
    assert!(thresh.report.messages() >= tree.report.messages());
    // CEN pays a constant factor over the plain tree scheme but stays O(n).
    assert!(cen.report.messages() <= 3 * (g.n() as u64));
}

#[test]
fn advice_length_ordering_matches_table1() {
    let g = generators::erdos_renyi_connected(120, 0.3, 8).unwrap();
    let net = Network::kt0(g, 8);
    let tree = BfsTreeScheme::new().advise(&net);
    let thresh = ThresholdScheme::new().advise(&net);
    let cen = CenScheme::new().advise(&net);
    let max = |a: &Vec<wakeup::sim::BitStr>| a.iter().map(|s| s.len()).max().unwrap();
    // Table 1 advice column: Cor1 O(n) >= Thm5A O(√n log n) >= Thm5B O(log n).
    assert!(
        max(&thresh) <= max(&tree) * 2,
        "threshold should not exceed tree-scheme order"
    );
    assert!(max(&cen) <= max(&thresh), "CEN has the smallest max advice");
}
