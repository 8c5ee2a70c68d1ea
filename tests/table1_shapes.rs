//! Scaling-shape checks for every row of Table 1: as n grows, the measured
//! quantity divided by the claimed asymptotic form must stay bounded (and
//! not trend upward), while dividing by a *smaller* form must blow up for
//! rows where that distinction matters.
//!
//! These are the cheap, always-on versions of the full benchmark sweeps in
//! `wakeup-bench` (see EXPERIMENTS.md for the measured tables).

use wakeup::core::advice::{run_scheme, BfsTreeScheme, CenScheme, SpannerScheme, ThresholdScheme};
use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::graph::{generators, NodeId};
use wakeup::lb::{thm1, thm2};
use wakeup::sim::{
    adversary::WakeSchedule, AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine,
};

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

const SIZES: [usize; 3] = [40, 80, 160];

fn ratios_bounded(ratios: &[f64], cap: f64) {
    for (i, &r) in ratios.iter().enumerate() {
        assert!(r <= cap, "ratio[{i}] = {r} exceeds {cap}: {ratios:?}");
    }
    // No strong upward trend: the last ratio must not dwarf the first.
    assert!(
        ratios.last().unwrap() <= &(ratios.first().unwrap() * 3.0),
        "upward trend suggests a wrong asymptotic: {ratios:?}"
    );
}

#[test]
fn row_thm3_dfs_rank_messages_n_log_n() {
    let mut ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, n as u64).unwrap();
        let net = Network::kt1(g, n as u64);
        let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 2.0 * n as f64);
        let report = AsyncEngine::<DfsRank>::new(&net, async_seed(17)).run(&schedule);
        assert!(report.all_awake);
        ratios.push(report.messages() as f64 / (n as f64 * (n as f64).ln()));
    }
    ratios_bounded(&ratios, 6.0);
}

#[test]
fn row_thm4_fast_wakeup_messages_n_three_halves() {
    let mut ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::complete(n).unwrap();
        let net = Network::kt1(g, n as u64);
        let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let report = SyncEngine::<FastWakeUp>::new(&net, sync_seed(23))
            .run(&WakeSchedule::all_at_zero(&all));
        assert!(report.all_awake);
        let shape = (n as f64).powf(1.5) * (n as f64).ln().sqrt();
        ratios.push(report.messages() as f64 / shape);
    }
    ratios_bounded(&ratios, 16.0);
}

#[test]
fn row_cor1_bfs_tree_messages_linear_time_diameter() {
    let mut ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 3 + n as u64).unwrap();
        let net = Network::kt0(g, 3);
        let run = run_scheme(
            &BfsTreeScheme::new(),
            &net,
            &WakeSchedule::single(NodeId::new(0)),
            3,
        );
        assert!(run.report.all_awake);
        ratios.push(run.report.messages() as f64 / n as f64);
        // Advice: avg O(log n).
        assert!(run.advice.avg_bits <= 6.0 * (n as f64).log2());
    }
    ratios_bounded(&ratios, 2.0);
}

#[test]
fn row_thm5a_threshold_advice_sqrt_n_log_n() {
    let mut ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::star(n).unwrap();
        let net = Network::kt0(g, 4);
        let run = run_scheme(
            &ThresholdScheme::new(),
            &net,
            &WakeSchedule::single(NodeId::new(1)),
            4,
        );
        assert!(run.report.all_awake);
        let shape = (n as f64).sqrt() * (n as f64).log2();
        ratios.push(run.advice.max_bits as f64 / shape);
    }
    ratios_bounded(&ratios, 4.0);
}

#[test]
fn row_thm5b_cen_advice_log_n_messages_linear() {
    let mut msg_ratios = Vec::new();
    let mut adv_ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 5 + n as u64).unwrap();
        let net = Network::kt0(g, 5);
        let run = run_scheme(
            &CenScheme::new(),
            &net,
            &WakeSchedule::single(NodeId::new(0)),
            5,
        );
        assert!(run.report.all_awake);
        msg_ratios.push(run.report.messages() as f64 / n as f64);
        adv_ratios.push(run.advice.max_bits as f64 / (n as f64).log2());
    }
    ratios_bounded(&msg_ratios, 3.0);
    ratios_bounded(&adv_ratios, 8.0);
}

#[test]
fn row_thm6_spanner_tradeoff() {
    // With k = 2 on dense graphs: messages ~ n^{3/2}-ish (spanner edges),
    // advice max ~ n^{1/2} log^2 n, time ~ k·ρ·log n.
    let mut adv_ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::complete(n).unwrap();
        let net = Network::kt0(g, 6);
        let run = run_scheme(
            &SpannerScheme::new(2),
            &net,
            &WakeSchedule::single(NodeId::new(0)),
            6,
        );
        assert!(run.report.all_awake);
        let shape = (n as f64).sqrt() * (n as f64).log2().powi(2);
        adv_ratios.push(run.advice.max_bits as f64 / shape);
    }
    ratios_bounded(&adv_ratios, 2.0);
}

#[test]
fn row_cor2_log_instantiation_near_linear_messages() {
    let mut ratios = Vec::new();
    for &n in &SIZES {
        let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 7 + n as u64).unwrap();
        let net = Network::kt0(g, 7);
        let run = run_scheme(
            &SpannerScheme::log_instantiation(n),
            &net,
            &WakeSchedule::single(NodeId::new(0)),
            7,
        );
        assert!(run.report.all_awake);
        let shape = n as f64 * (n as f64).log2().powi(2);
        ratios.push(run.report.messages() as f64 / shape);
        // Advice max O(log^2 n).
        assert!(
            run.advice.max_bits as f64 <= 10.0 * (n as f64).log2().powi(2),
            "n={n}: advice {}",
            run.advice.max_bits
        );
    }
    ratios_bounded(&ratios, 2.0);
}

#[test]
fn row_thm1_lower_bound_shape() {
    // messages(β) / (n²/2^β) stays ~constant across β.
    let n = 40usize;
    let points = thm1::sweep_beta(n, &[0, 1, 2, 3], 31);
    let ratios: Vec<f64> = points
        .iter()
        .map(|p| {
            assert!(p.all_found);
            p.messages as f64 / p.predicted_shape
        })
        .collect();
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(hi / lo < 3.0, "β-sweep ratios too spread: {ratios:?}");
}

#[test]
fn row_thm2_lower_bound_shape() {
    // Time-restricted flooding tracks n^{1+1/k}; DFS-rank undercuts it on
    // messages at larger n but pays linear time.
    let p_small = thm2::run_point(3, 3, 3); // n = 27
    let p_big = thm2::run_point(3, 5, 3); // n = 125
    for p in [&p_small, &p_big] {
        let ratio = p.flood_messages as f64 / p.predicted_shape;
        assert!((0.3..8.0).contains(&ratio), "flood ratio {ratio}");
    }
    assert!(p_big.dfs_messages < p_big.flood_messages);
    assert!(p_big.dfs_time_units > p_big.flood_rounds as f64);
}

/// Acceptance check for the observability layer: on every Table 1 workload
/// at n = 256, the causal critical path (the longest chain of
/// wake-triggering deliveries the engine traced) must span at most the
/// measured `time_units()` — the chain is a *witness* for the measured
/// time, so a violation means the tracing or the time accounting is wrong.
#[test]
fn critical_path_tau_bounds_measured_time_at_n_256() {
    use wakeup::core::flooding::FloodAsync;

    let n = 256usize;
    let check = |label: &str, report: &wakeup::sim::RunReport| {
        assert!(report.all_awake, "{label}: not all awake");
        let cp = report.critical_path();
        let time = report.time_units();
        assert!(
            cp.tau <= time + 1e-9,
            "{label}: critical path τ {} exceeds measured time {time}",
            cp.tau
        );
        assert!((cp.hops as usize) < n, "{label}: chain longer than n");
    };

    let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 7).unwrap();
    let single = WakeSchedule::single(NodeId::new(0));

    let net0 = Network::kt0(g.clone(), 7);
    let flood = AsyncEngine::<FloodAsync>::new(&net0, async_seed(7)).run(&single);
    check("flooding", &flood);

    let net1 = Network::kt1(g.clone(), 7);
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let dfs =
        AsyncEngine::<DfsRank>::new(&net1, async_seed(7)).run(&WakeSchedule::staggered(&all, 2.0));
    check("thm3 dfs_rank", &dfs);

    let complete = generators::complete(n).unwrap();
    let netc = Network::kt1(complete, 7);
    let fast = SyncEngine::<FastWakeUp>::new(&netc, sync_seed(7)).run(&single);
    check("thm4 fast_wakeup", &fast);

    let cor1 = run_scheme(&BfsTreeScheme::new(), &net0, &single, 7);
    check("cor1 bfs_tree", &cor1.report);
    let thm5a = run_scheme(&ThresholdScheme::new(), &net0, &single, 7);
    check("thm5a threshold", &thm5a.report);
    let thm5b = run_scheme(&CenScheme::new(), &net0, &single, 7);
    check("thm5b cen", &thm5b.report);
    let thm6 = run_scheme(&SpannerScheme::new(2), &net0, &single, 7);
    check("thm6 spanner k=2", &thm6.report);
    let cor2 = run_scheme(&SpannerScheme::log_instantiation(n), &net0, &single, 7);
    check("cor2 spanner log", &cor2.report);
}
