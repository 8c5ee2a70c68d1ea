//! Golden regression tests: exact message/time values for fixed seeds.
//!
//! The simulator promises bit-for-bit reproducibility; these goldens turn
//! that promise into a tripwire. A failure here does not necessarily mean a
//! bug — any intentional change to an algorithm, the engines' ordering, or
//! the RNG will shift the numbers — but it must be *noticed* and the values
//! re-pinned deliberately (update the constants and say why in the commit).

use wakeup::core::advice::{run_scheme, BfsTreeScheme, CenScheme, SpannerScheme};
use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::{FloodAsync, FloodSync};
use wakeup::graph::{generators, NodeId};
use wakeup::lb::{thm1, thm2};
use wakeup::sim::adversary::{RandomDelay, WakeSchedule};
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

#[test]
fn golden_flooding() {
    let net = Network::kt0(generators::erdos_renyi_connected(60, 0.1, 42).unwrap(), 42);
    let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(42))
        .run(&WakeSchedule::single(NodeId::new(0)));
    assert!(report.all_awake);
    assert_eq!(report.messages(), 342);
    assert_eq!(report.time_units(), 5.0);
}

#[test]
fn golden_dfs_rank() {
    let net = Network::kt1(generators::erdos_renyi_connected(60, 0.1, 42).unwrap(), 42);
    let all: Vec<NodeId> = (0..60).map(NodeId::new).collect();
    let report =
        AsyncEngine::<DfsRank>::new(&net, async_seed(42)).run(&WakeSchedule::staggered(&all, 2.0));
    assert!(report.all_awake);
    // Re-pinned (142 → 143) when tick delivery moved to canonical
    // receiver-ascending batches: the new within-tick delivery order shifts
    // this seed's message count by one.
    assert_eq!(report.messages(), 143);
}

#[test]
fn golden_fast_wakeup() {
    let net = Network::kt1(generators::complete(48).unwrap(), 42);
    let all: Vec<NodeId> = (0..48).map(NodeId::new).collect();
    let report =
        SyncEngine::<FastWakeUp>::new(&net, sync_seed(42)).run(&WakeSchedule::all_at_zero(&all));
    assert!(report.all_awake);
    assert_eq!(report.messages(), 1316);
}

#[test]
fn golden_advice_schemes() {
    let g = generators::erdos_renyi_connected(80, 0.08, 42).unwrap();
    let net = Network::kt0(g, 42);
    let schedule = WakeSchedule::single(NodeId::new(3));
    let tree = run_scheme(&BfsTreeScheme::new(), &net, &schedule, 42);
    assert_eq!(tree.report.messages(), 158);
    assert_eq!(tree.advice.max_bits, 13);
    let cen = run_scheme(&CenScheme::new(), &net, &schedule, 42);
    assert_eq!(cen.report.messages(), 237);
    assert_eq!(cen.advice.max_bits, 28);
    let spanner = run_scheme(&SpannerScheme::new(2), &net, &schedule, 42);
    assert_eq!(spanner.report.messages(), 522);
}

/// Engine-internals tripwire: pins the *tick-level* trajectory of one async
/// run under adversarial random delays (exercising the FIFO clamp and the
/// event queue's tie-breaking) and one sync run. The async ticks were
/// re-pinned (last receipt 2262 → 2126, all awake 1477 → 1279) when
/// `RandomDelay` became a hash of `(seed, from, to, seq)` instead of one
/// sequential stream drawn in send order. Any reordering inside the
/// engines — however the queue or channel bookkeeping is implemented — moves
/// these numbers.
#[test]
fn golden_engine_regression_async() {
    let net = Network::kt0(generators::erdos_renyi_connected(70, 0.08, 9).unwrap(), 9);
    let all: Vec<NodeId> = (0..70).map(NodeId::new).collect();
    let schedule = WakeSchedule::staggered(&all, 1.5);
    let delays = RandomDelay::new(1234);
    let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(9)).run_with(&schedule, &delays);
    assert!(report.all_awake);
    assert_eq!(report.messages(), 398);
    assert_eq!(report.metrics.first_wake_tick, Some(0));
    assert_eq!(report.metrics.last_receipt_tick, Some(2126));
    assert_eq!(report.metrics.all_awake_tick, Some(1279));
}

#[test]
fn golden_engine_regression_sync() {
    let net = Network::kt1(generators::erdos_renyi_connected(70, 0.08, 9).unwrap(), 9);
    let schedule = WakeSchedule::single(NodeId::new(5));
    let report = SyncEngine::<FloodSync>::new(&net, sync_seed(9)).run(&schedule);
    assert!(report.all_awake);
    assert_eq!(report.messages(), 398);
    assert_eq!(report.rounds, 5);
    assert_eq!(report.metrics.last_receipt_tick, Some(4096));
    assert_eq!(report.metrics.all_awake_tick, Some(3072));
}

#[test]
fn golden_lower_bounds() {
    let p1 = thm1::run_point(32, 2, 42);
    assert!(p1.all_found);
    assert_eq!(p1.messages, 282);
    let p2 = thm2::run_point(3, 3, 42);
    assert_eq!(p2.flood_messages, 212);
    assert_eq!(p2.flood_rounds, 1);
}
