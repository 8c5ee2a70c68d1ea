//! The adversarial conformance battery: every algorithm × every delay
//! strategy × the nastiest wake schedules we can construct obliviously.
//! Correctness (everyone wakes, nothing truncates, CONGEST holds where
//! claimed) must survive all of it.

use wakeup::core::advice::{run_scheme, BfsTreeScheme, CenScheme, SpannerScheme};
use wakeup::core::dfs_congest::DfsCongest;
use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::FloodAsync;
use wakeup::core::gossip::SetGossip;
use wakeup::core::leader::LeaderElect;
use wakeup::graph::{generators, Graph, NodeId};
use wakeup::sim::adversary::{
    AdversarialDelay, BurstDelay, CappedDelay, DelayStrategy, FifoWorstDelay, RandomDelay,
    TargetedDelay, UnitDelay, WakeSchedule,
};
use wakeup::sim::audit::{AuditScope, Auditor};
use wakeup::sim::{
    AsyncConfig, AsyncEngine, AsyncProtocol, Network, SyncConfig, SyncEngine, TICKS_PER_UNIT,
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

fn battleground() -> Graph {
    generators::watts_strogatz(60, 2, 0.15, 77).unwrap()
}

fn schedules(g: &Graph) -> Vec<(&'static str, WakeSchedule)> {
    vec![
        ("single", WakeSchedule::single(NodeId::new(0))),
        ("random-5", WakeSchedule::random(g.n(), 5, 3)),
        (
            "farthest-first",
            WakeSchedule::farthest_first(g, NodeId::new(0), 6, 2.0),
        ),
        (
            "burst-late",
            WakeSchedule::from_pairs(&[
                (NodeId::new(0), 0.0),
                (NodeId::new(30), 17.0),
                (NodeId::new(31), 17.0),
                (NodeId::new(59), 90.0),
            ]),
        ),
    ]
}

fn delay_strategies(victims: &[NodeId]) -> Vec<(&'static str, Box<dyn DelayStrategy>)> {
    vec![
        ("unit", Box::new(UnitDelay)),
        ("random", Box::new(RandomDelay::new(5))),
        ("skewed", Box::new(AdversarialDelay::new(9))),
        (
            "targeted",
            Box::new(TargetedDelay::new(victims.iter().copied(), 1)),
        ),
        ("bursty", Box::new(BurstDelay::new(3, 0.5))),
        ("fifo-worst", Box::new(FifoWorstDelay::default())),
    ]
}

fn run_async_battery<P: AsyncProtocol>(name: &str, net: &Network) {
    let g = net.graph();
    let victims: Vec<NodeId> = (0..g.n()).step_by(9).map(NodeId::new).collect();
    for (sname, schedule) in schedules(g) {
        for (dname, delays) in delay_strategies(&victims) {
            let report =
                AsyncEngine::<P>::new(net, async_seed(11)).run_with(&schedule, delays.as_ref());
            assert!(
                report.all_awake,
                "{name} failed under schedule {sname} + delays {dname}"
            );
            assert!(!report.truncated, "{name}/{sname}/{dname} truncated");
        }
    }
}

#[test]
fn flooding_survives_the_battery() {
    let net = Network::kt0(battleground(), 1);
    run_async_battery::<FloodAsync>("flooding", &net);
}

#[test]
fn dfs_rank_survives_the_battery() {
    let net = Network::kt1(battleground(), 2);
    run_async_battery::<DfsRank>("dfs-rank", &net);
}

#[test]
fn dfs_congest_survives_the_battery() {
    let net = Network::kt1(battleground(), 3);
    run_async_battery::<DfsCongest>("dfs-congest", &net);
}

#[test]
fn leader_elect_survives_the_battery_with_agreement() {
    let g = battleground();
    let net = Network::kt1(g.clone(), 4);
    let victims: Vec<NodeId> = (0..g.n()).step_by(9).map(NodeId::new).collect();
    for (sname, schedule) in schedules(&g) {
        for (dname, delays) in delay_strategies(&victims) {
            let report = AsyncEngine::<LeaderElect>::new(&net, async_seed(11))
                .run_with(&schedule, delays.as_ref());
            assert!(report.all_awake, "{sname}/{dname}");
            let first = report.outputs[0].expect("everyone elects");
            assert!(
                report.outputs.iter().all(|&o| o == Some(first)),
                "disagreement under {sname}/{dname}"
            );
        }
    }
}

#[test]
fn advice_schemes_survive_the_battery() {
    let g = battleground();
    let net = Network::kt0(g.clone(), 5);
    for (sname, schedule) in schedules(&g) {
        let tree = run_scheme(&BfsTreeScheme::new(), &net, &schedule, 6);
        assert!(tree.report.all_awake, "cor1/{sname}");
        let cen = run_scheme(&CenScheme::new(), &net, &schedule, 6);
        assert!(cen.report.all_awake, "thm5b/{sname}");
        assert_eq!(cen.report.metrics.congest_violations, 0);
        let spanner = run_scheme(&SpannerScheme::new(3), &net, &schedule, 6);
        assert!(spanner.report.all_awake, "thm6/{sname}");
        assert_eq!(spanner.report.metrics.congest_violations, 0);
    }
}

#[test]
fn sync_algorithms_survive_the_schedules() {
    let g = battleground();
    let net = Network::kt1(g.clone(), 7);
    for (sname, schedule) in schedules(&g) {
        let fast = SyncEngine::<FastWakeUp>::new(&net, sync_seed(8)).run(&schedule);
        assert!(fast.all_awake, "fast-wakeup/{sname}");
        assert!(!fast.truncated);
        let gossip = SyncEngine::<SetGossip>::new(&net, sync_seed(8)).run(&schedule);
        assert!(gossip.all_awake, "gossip/{sname}");
        // Gossip invariant: one message per node per round.
        assert!(gossip.messages() <= g.n() as u64 * gossip.rounds);
    }
}

/// Runs flooding under `delays`, with the audit log enabled, and asserts
/// the standard invariant pipeline (FIFO per channel, delay ∈ (0, τ_cap],
/// CONGEST budgets, monotone clocks, payload lifecycle, wake causality, and
/// every delivery tick recomputed from `delays`) finds nothing.
fn assert_clean_audit(
    net: &Network,
    schedule: &WakeSchedule,
    delays: &dyn DelayStrategy,
    max_delay_ticks: u64,
    label: &str,
) {
    let config = AsyncConfig {
        seed: 11,
        audit_capacity: Some(1 << 20),
        ..AsyncConfig::default()
    };
    let report = AsyncEngine::<FloodAsync>::new(net, config).run_with(schedule, delays);
    assert!(report.all_awake && !report.truncated, "{label}");
    let log = report.audit_log.as_ref().expect("audit enabled");
    assert!(!log.truncated, "{label}: audit log truncated");
    let scope = AuditScope::new(net)
        .with_max_delay_ticks(max_delay_ticks)
        .with_delays(delays);
    let violations = Auditor::standard(scope).run(log);
    assert!(
        violations.is_empty(),
        "{label}: {} violation(s), first: {:?}",
        violations.len(),
        violations[0]
    );
}

#[test]
fn every_delay_strategy_passes_the_auditor() {
    let net = Network::kt0(battleground(), 1);
    let victims: Vec<NodeId> = (0..net.n()).step_by(9).map(NodeId::new).collect();
    let schedule = WakeSchedule::random(net.n(), 4, 13);
    for (dname, delays) in delay_strategies(&victims) {
        assert_clean_audit(
            &net,
            &schedule,
            delays.as_ref(),
            TICKS_PER_UNIT,
            &format!("uncapped/{dname}"),
        );
    }
}

#[test]
fn every_delay_strategy_passes_the_auditor_under_tau_caps() {
    // τ ∈ {1, 3, 16} ticks: cap every strategy and tell the auditor about
    // the tighter bound, so the delay-bound invariant actually bites.
    let net = Network::kt0(battleground(), 1);
    let victims: Vec<NodeId> = (0..net.n()).step_by(9).map(NodeId::new).collect();
    let schedule = WakeSchedule::random(net.n(), 4, 13);
    for tau in [1u64, 3, 16] {
        for (dname, delays) in delay_strategies(&victims) {
            let capped = CappedDelay::new(delays, tau);
            assert_clean_audit(&net, &schedule, &capped, tau, &format!("τ={tau}/{dname}"));
        }
    }
}

#[test]
fn farthest_first_is_the_worst_schedule_for_fast_wakeup_time() {
    // Sanity: the ρ-maximizing schedule should not *reduce* wake-up rounds
    // relative to a clustered wake of the same size.
    let g = generators::grid(8, 8).unwrap();
    let net = Network::kt1(g.clone(), 9);
    let clustered: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let far = WakeSchedule::farthest_first(&g, NodeId::new(0), 4, 0.0);
    let t_clustered = SyncEngine::<FastWakeUp>::new(&net, sync_seed(3))
        .run(&WakeSchedule::all_at_zero(&clustered));
    let t_far = SyncEngine::<FastWakeUp>::new(&net, sync_seed(3)).run(&far);
    assert!(t_clustered.all_awake && t_far.all_awake);
    let rho_clustered = wakeup::graph::algo::awake_distance(&g, &clustered).unwrap();
    let rho_far = wakeup::graph::algo::awake_distance(&g, &far.initially_awake()).unwrap();
    assert!(rho_far <= rho_clustered, "spreading wakes reduces ρ_awk");
}
