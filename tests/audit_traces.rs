//! Golden audit-trace fixtures and trace-determinism tests.
//!
//! The JSONL serialization of the audit log is part of the repository's
//! compatibility surface (external tooling may parse it), so two fixed
//! workloads are pinned byte for byte in `tests/fixtures/`. A failure here
//! means the engines' event ordering, the arena's slot assignment, or the
//! trace schema changed — re-pin deliberately by rerunning with
//! `WAKEUP_REGEN_GOLDENS=1` and explaining the change in the commit.

use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::{FloodAsync, FloodSync};
use wakeup::graph::{generators, NodeId};
use wakeup::sim::adversary::{RandomDelay, WakeSchedule};
use wakeup::sim::audit::{AuditEvent, AuditLog, AuditScope, Auditor, PayloadLifecycle, Violation};
use wakeup::sim::{
    AsyncConfig, AsyncEngine, Network, RunReport, SyncConfig, SyncEngine, WakeCause,
};

const FLOOD_GOLDEN: &str = include_str!("fixtures/audit_flood_n16.jsonl");
const FAST_WAKEUP_GOLDEN: &str = include_str!("fixtures/audit_fast_wakeup_n16.jsonl");

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// The pinned flooding workload: n=16 sparse graph, one initial waker,
/// seeded random delays.
fn flood_trace() -> String {
    let net = Network::kt0(generators::erdos_renyi_connected(16, 0.5, 7).unwrap(), 7);
    let config = AsyncConfig {
        seed: 7,
        audit_capacity: Some(1 << 20),
        ..AsyncConfig::default()
    };
    let report = AsyncEngine::<FloodAsync>::new(&net, config).run_with(
        &WakeSchedule::single(NodeId::new(0)),
        &mut RandomDelay::new(5),
    );
    assert!(report.all_awake && !report.truncated);
    report.audit_log.expect("audit enabled").to_jsonl()
}

/// The pinned FastWakeUp workload: n=16 sparse KT1 graph, two wakers.
fn fast_wakeup_trace() -> String {
    let net = Network::kt1(generators::erdos_renyi_connected(16, 0.5, 7).unwrap(), 7);
    let config = SyncConfig {
        seed: 7,
        audit_capacity: Some(1 << 20),
        ..SyncConfig::default()
    };
    let schedule = WakeSchedule::all_at_zero(&[NodeId::new(0), NodeId::new(8)]);
    let report = SyncEngine::<FastWakeUp>::new(&net, config).run(&schedule);
    assert!(report.all_awake && !report.truncated);
    report.audit_log.expect("audit enabled").to_jsonl()
}

fn check_golden(name: &str, golden: &str, got: &str) {
    if std::env::var_os("WAKEUP_REGEN_GOLDENS").is_some() {
        std::fs::write(fixture_path(name), got).expect("regenerate fixture");
        return;
    }
    assert_eq!(
        got, golden,
        "{name} drifted; rerun with WAKEUP_REGEN_GOLDENS=1 to re-pin"
    );
}

#[test]
fn flood_trace_matches_golden() {
    check_golden("audit_flood_n16.jsonl", FLOOD_GOLDEN, &flood_trace());
}

#[test]
fn fast_wakeup_trace_matches_golden() {
    check_golden(
        "audit_fast_wakeup_n16.jsonl",
        FAST_WAKEUP_GOLDEN,
        &fast_wakeup_trace(),
    );
}

#[test]
fn goldens_parse_and_round_trip() {
    for golden in [FLOOD_GOLDEN, FAST_WAKEUP_GOLDEN] {
        let log = AuditLog::from_jsonl(golden).expect("golden parses");
        assert!(!log.is_empty());
        assert_eq!(log.to_jsonl(), golden, "round trip is lossless");
    }
}

#[test]
fn traces_are_identical_across_thread_counts() {
    // `WAKEUP_THREADS` parallelizes the node-table build; it must never
    // leak into execution order. The network is rebuilt under each setting
    // because the variable is read at table-build time.
    let mut traces = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("WAKEUP_THREADS", threads);
        traces.push((flood_trace(), fast_wakeup_trace()));
    }
    std::env::remove_var("WAKEUP_THREADS");
    assert_eq!(traces[0], traces[1], "trace bytes depend on WAKEUP_THREADS");
}

#[test]
fn auditor_flags_stale_payload_ref() {
    // A hand-built log where slot 0 is recycled (generation bumped to 1)
    // and the old generation-0 reference is then delivered again: the
    // payload-lifecycle invariant must call out the use-after-free rather
    // than let the stale reference pass silently.
    let net = Network::kt0(generators::path(2).unwrap(), 1);
    let mut log = AuditLog::default();
    log.record(AuditEvent::Wake {
        tick: 0,
        node: 0,
        cause: WakeCause::Adversary,
    });
    log.record(AuditEvent::Send {
        tick: 0,
        from: 0,
        to: 1,
        bits: 8,
        slot: 0,
        gen: 0,
    });
    log.record(AuditEvent::Deliver {
        tick: 512,
        from: 0,
        to: 1,
        slot: 0,
        gen: 0,
    });
    log.record(AuditEvent::Wake {
        tick: 512,
        node: 1,
        cause: WakeCause::Message,
    });
    // Slot 0 is recycled for a fresh payload (generation 1)...
    log.record(AuditEvent::Send {
        tick: 512,
        from: 1,
        to: 0,
        bits: 8,
        slot: 0,
        gen: 1,
    });
    // ...but the stale generation-0 reference is delivered once more.
    log.record(AuditEvent::Deliver {
        tick: 700,
        from: 0,
        to: 1,
        slot: 0,
        gen: 0,
    });
    let scope = AuditScope::new(&net).with_completed(false);
    let violations = Auditor::empty(scope)
        .with_invariant(Box::new(PayloadLifecycle::default()))
        .run(&log);
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "payload-lifecycle" && v.detail.contains("use-after-free")),
        "stale PayloadRef not flagged: {violations:?}"
    );
}

/// The network and schedule of the truncation tests: node 0 has several
/// neighbours, so a cut after its first delivery leaves messages in flight.
fn truncation_workload() -> (Network, WakeSchedule) {
    let net = Network::kt1(generators::erdos_renyi_connected(24, 0.3, 11).unwrap(), 11);
    assert!(net.graph().degree(NodeId::new(0)) >= 2);
    (net, WakeSchedule::single(NodeId::new(0)))
}

/// A run of flooding on the truncation workload, on either engine, with
/// the given event cap (async) or round cap (sync) and audit capacity.
fn flood_run(sync: bool, cap: u64, audit_capacity: usize) -> RunReport {
    let (net, schedule) = truncation_workload();
    if sync {
        let config = SyncConfig {
            max_rounds: cap,
            audit_capacity: Some(audit_capacity),
            ..SyncConfig::default()
        };
        SyncEngine::<FloodSync>::new(&net, config).run(&schedule)
    } else {
        let config = AsyncConfig {
            max_events: cap,
            audit_capacity: Some(audit_capacity),
            ..AsyncConfig::default()
        };
        AsyncEngine::<FloodAsync>::new(&net, config).run_with(&schedule, &mut RandomDelay::new(3))
    }
}

/// The standard battery over `log`, with the run marked complete or not.
fn audit(log: &AuditLog, completed: bool) -> Vec<Violation> {
    let (net, _) = truncation_workload();
    Auditor::standard(AuditScope::new(&net).with_completed(completed)).run(log)
}

/// Which end-of-log checks fired: FIFO "lost", payload "leaked", and
/// wake-causality "never woke".
fn end_of_log_checks(violations: &[Violation]) -> [bool; 3] {
    let fired = |invariant: &str, needle: &str| {
        violations
            .iter()
            .any(|v| v.invariant == invariant && v.seq.is_none() && v.detail.contains(needle))
    };
    [
        fired("fifo-order", "lost"),
        fired("payload-lifecycle", "leaked"),
        fired("wake-causality", "never woke"),
    ]
}

/// A run cut short by the engine's event or round cap audits clean when
/// scoped as incomplete. Forcing `completed` on its full log makes the
/// messages still in flight show up as lost and leaked. The cap cuts
/// between windows, so every logged delivery has its wake and "never woke"
/// stays quiet.
#[test]
fn runs_cut_by_the_event_cap_audit_clean() {
    for sync in [false, true] {
        let report = flood_run(sync, if sync { 2 } else { 40 }, 1 << 20);
        assert!(report.truncated, "sync={sync}");
        let log = report.audit_log.as_ref().expect("audit enabled");
        assert!(!log.truncated, "sync={sync}");
        let violations = audit(log, !report.truncated);
        assert!(violations.is_empty(), "sync={sync}: {violations:?}");
        let forced = audit(log, true);
        assert_eq!(
            end_of_log_checks(&forced),
            [true, true, false],
            "sync={sync}"
        );
    }
}

/// A run whose audit log hits its capacity audits clean as it stands: the
/// log's own `truncated` flag skips the end-of-log checks. The capped log is
/// exactly a prefix of the full log of the same run; replayed as a complete
/// log, that prefix fires all three end-of-log checks.
#[test]
fn runs_cut_by_the_audit_capacity_audit_clean() {
    for sync in [false, true] {
        let full = flood_run(sync, u64::MAX, 1 << 20).audit_log.unwrap();
        // Cut right after the first delivery, before the wake it causes.
        let cut = 1 + full
            .events()
            .iter()
            .position(|e| matches!(e, AuditEvent::Deliver { .. }))
            .unwrap();
        let report = flood_run(sync, u64::MAX, cut);
        assert!(!report.truncated, "sync={sync}");
        let log = report.audit_log.as_ref().expect("audit enabled");
        assert!(log.truncated, "sync={sync}");
        assert_eq!(log.events(), &full.events()[..cut], "sync={sync}");
        let violations = audit(log, !report.truncated);
        assert!(violations.is_empty(), "sync={sync}: {violations:?}");
        let mut prefix = AuditLog::with_capacity(cut);
        for &event in log.events() {
            prefix.record(event);
        }
        let forced = audit(&prefix, true);
        assert_eq!(
            end_of_log_checks(&forced),
            [true, true, true],
            "sync={sync}"
        );
    }
}
