//! White-box checks of the paper's internal claims, via the engines'
//! `run_into_parts` (final protocol states) and audit logs.

use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::FloodAsync;
use wakeup::graph::{generators, NodeId};
use wakeup::sim::adversary::{UnitDelay, WakeSchedule};
use wakeup::sim::audit::AuditEvent;
use wakeup::sim::{AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine, WakeCause};

/// Claim 4 (Section 3.1.1): each node forwards O(log n) distinct tokens
/// w.h.p. — checked directly on the final protocol states.
#[test]
fn claim4_tokens_forwarded_per_node_logarithmic() {
    let n = 120usize;
    let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 31).unwrap();
    let net = Network::kt1(g, 31);
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    // The overlapping-wake adversary maximizes token churn.
    let schedule = WakeSchedule::staggered(&all, 2.0);
    for seed in 0..5 {
        let config = AsyncConfig {
            seed,
            ..AsyncConfig::default()
        };
        let (report, protocols) =
            AsyncEngine::<DfsRank>::new(&net, config).run_into_parts(&schedule, &UnitDelay);
        assert!(report.all_awake);
        let max_forwarded = protocols.iter().map(|p| p.tokens_forwarded).max().unwrap();
        // Claim 4's bound with a generous constant: the count per node is a
        // "least element list" of expected length H_n ≈ ln n.
        let bound = (8.0 * (n as f64).ln()) as u64;
        assert!(
            max_forwarded <= bound,
            "seed {seed}: node forwarded {max_forwarded} tokens > {bound}"
        );
    }
}

/// FastWakeUp's sampling: the number of roots concentrates around
/// n·√(ln n / n) = √(n ln n).
#[test]
fn fast_wakeup_root_count_concentrates() {
    let n = 150usize;
    let g = generators::complete(n).unwrap();
    let net = Network::kt1(g, 17);
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let schedule = WakeSchedule::all_at_zero(&all);
    let expected = (n as f64 * (n as f64).ln()).sqrt();
    let mut total = 0usize;
    let trials = 6;
    for seed in 0..trials {
        let config = SyncConfig {
            seed,
            ..SyncConfig::default()
        };
        let (report, protocols) =
            SyncEngine::<FastWakeUp>::new(&net, config).run_into_parts(&schedule);
        assert!(report.all_awake);
        total += protocols.iter().filter(|p| p.is_root).count();
    }
    let mean = total as f64 / trials as f64;
    assert!(
        mean > expected / 3.0 && mean < expected * 3.0,
        "mean roots {mean} far from expected {expected}"
    );
}

/// Audit logs record the full causal story: wake causes, sends, deliveries.
#[test]
fn trace_captures_wake_causality() {
    let g = generators::path(6).unwrap();
    let net = Network::kt0(g, 5);
    let config = AsyncConfig {
        audit_capacity: Some(10_000),
        ..AsyncConfig::default()
    };
    let report =
        AsyncEngine::<FloodAsync>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
    let trace = report.audit_log.as_ref().expect("auditing enabled");
    let front = trace.wake_front();
    assert_eq!(front.len(), 6, "every node appears in the wake front");
    assert_eq!(front[0].1, NodeId::new(0));
    assert_eq!(front[0].2, WakeCause::Adversary);
    for &(_, _, cause) in &front[1..] {
        assert_eq!(cause, WakeCause::Message);
    }
    // Wake front is monotone along the path.
    for w in front.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
    // Message conservation visible in the log.
    let sends = trace
        .events()
        .iter()
        .filter(|e| matches!(e, AuditEvent::Send { .. }))
        .count();
    let delivers = trace
        .events()
        .iter()
        .filter(|e| matches!(e, AuditEvent::Deliver { .. }))
        .count();
    assert_eq!(sends as u64, report.metrics.messages_sent);
    assert_eq!(sends, delivers);
    // The rendered timeline mentions all three event kinds.
    let text = trace.render_timeline(1_000);
    assert!(text.contains("WAKE") && text.contains("SEND") && text.contains("DELIVER"));
}

/// Sync-engine audit logs work too, with round-aligned ticks.
#[test]
fn sync_trace_round_aligned() {
    use wakeup::core::flooding::FloodSync;
    let g = generators::path(4).unwrap();
    let net = Network::kt1(g, 2);
    let config = SyncConfig {
        audit_capacity: Some(1_000),
        ..SyncConfig::default()
    };
    let report =
        SyncEngine::<FloodSync>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
    let trace = report.audit_log.expect("auditing enabled");
    assert!(!trace.is_empty());
    for e in trace.events() {
        assert_eq!(e.tick() % wakeup::sim::TICKS_PER_UNIT, 0, "round-aligned");
    }
    assert!(!trace.truncated);
}

/// The recorded trace's capacity (`audit_capacity`) truly bounds memory
/// and flags truncation.
#[test]
fn trace_capacity_bounds_memory() {
    let g = generators::complete(20).unwrap();
    let net = Network::kt0(g, 9);
    let config = AsyncConfig {
        audit_capacity: Some(10),
        ..AsyncConfig::default()
    };
    let report =
        AsyncEngine::<FloodAsync>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
    let trace = report.audit_log.expect("auditing enabled");
    assert_eq!(trace.events().len(), 10);
    assert!(trace.truncated);
}

/// The DFS token's channel usage: under a single wake, no channel carries
/// more than 2 messages (each DFS-tree edge is crossed at most twice).
#[test]
fn dfs_channel_load_bounded_by_two() {
    let g = generators::erdos_renyi_connected(30, 0.2, 13).unwrap();
    let net = Network::kt1(g.clone(), 13);
    let config = AsyncConfig {
        audit_capacity: Some(100_000),
        ..AsyncConfig::default()
    };
    let report =
        AsyncEngine::<DfsRank>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
    let trace = report.audit_log.expect("auditing enabled");
    for &(u, v) in g.edges() {
        assert!(trace.channel_load(u, v) + trace.channel_load(v, u) <= 2);
    }
}
