//! The storage a run grows (timer-wheel slots, grouping and outbox buffers)
//! is kept by the network and lent to the next run on it. These tests pin
//! that the reuse cannot be seen in any output: every run on a network that
//! earlier runs used equals the same run on a freshly built network — its
//! [`RunDigest`] and its schema-4 JSON and Prometheus exports — whatever
//! the earlier runs were (truncated, another delay strategy, another shard
//! count, another message type, the other engine). Only the diagnostic
//! `runtime.run_buffers_reused` tells the two apart.

use std::sync::Arc;

use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::FloodAsync;
use wakeup::graph::{generators, NodeId};
use wakeup::sim::adversary::{AdversarialDelay, RandomDelay, UnitDelay, WakeSchedule};
use wakeup::sim::{
    AsyncConfig, AsyncEngine, Network, RunDigest, RunReport, SyncConfig, SyncEngine,
};

/// A KT1 network, so the ID-based protocols (DFS-rank, FastWakeUp) run
/// on it too; built afresh on every call.
fn network(relabel: bool) -> Network {
    let net = Network::kt1(generators::erdos_renyi_connected(60, 0.12, 5).unwrap(), 5);
    if relabel {
        net.force_relabel();
    }
    net
}

fn staggered() -> WakeSchedule {
    let wakers: Vec<NodeId> = (0..60).step_by(9).map(NodeId::new).collect();
    WakeSchedule::staggered(&wakers, 0.7)
}

fn async_config(shards: usize) -> AsyncConfig {
    AsyncConfig {
        seed: 3,
        shards,
        ..AsyncConfig::default()
    }
}

/// One run of the sequence, over whichever network it is given.
type Run = Box<dyn Fn(&Network) -> RunReport>;

/// The sequence: a flood; a run cut short by its event cap, which hands
/// back a wheel still holding entries; random delays (one shard, whatever
/// the request); four shards, then one; a protocol with another message
/// type; and the sync engine at two shards.
fn sequence() -> Vec<(&'static str, Run)> {
    vec![
        (
            "flood",
            Box::new(|net: &Network| {
                AsyncEngine::<FloodAsync>::new(net, async_config(1))
                    .run(&WakeSchedule::single(NodeId::new(0)))
            }),
        ),
        (
            "truncated",
            Box::new(|net: &Network| {
                let config = AsyncConfig {
                    max_events: 40,
                    ..async_config(1)
                };
                let report = AsyncEngine::<FloodAsync>::new(net, config).run(&staggered());
                assert!(report.truncated, "the cap must cut the flood short");
                let delivered: u64 = report.metrics.received_by.iter().sum();
                assert!(
                    delivered < report.metrics.messages_sent,
                    "nothing left in flight"
                );
                report
            }),
        ),
        (
            "random delays",
            Box::new(|net: &Network| {
                AsyncEngine::<FloodAsync>::new(net, async_config(4))
                    .run_with(&staggered(), &RandomDelay::new(11))
            }),
        ),
        (
            "four shards",
            Box::new(|net: &Network| {
                let report = AsyncEngine::<FloodAsync>::new(net, async_config(4))
                    .run_with(&staggered(), &AdversarialDelay::new(7));
                assert_eq!(report.obs.runtime.shards, 4);
                report
            }),
        ),
        (
            "one shard",
            Box::new(|net: &Network| {
                AsyncEngine::<FloodAsync>::new(net, async_config(1))
                    .run_with(&staggered(), &AdversarialDelay::new(7))
            }),
        ),
        (
            "dfs-rank",
            Box::new(|net: &Network| {
                AsyncEngine::<DfsRank>::new(net, async_config(1))
                    .run_with(&staggered(), &AdversarialDelay::new(2))
            }),
        ),
        (
            "sync fast-wakeup",
            Box::new(|net: &Network| {
                let config = SyncConfig {
                    seed: 3,
                    shards: 2,
                    ..SyncConfig::default()
                };
                SyncEngine::<FastWakeUp>::new(net, config).run(&staggered())
            }),
        ),
    ]
}

/// Everything a run shows outside its diagnostics.
fn outputs(report: &RunReport) -> (RunDigest, String, String) {
    let snapshot = report.obs_snapshot();
    (
        RunDigest::of(report),
        snapshot.to_json(),
        snapshot.to_prometheus(),
    )
}

#[test]
fn reused_run_buffers_are_invisible_in_every_output() {
    for relabel in [false, true] {
        let shared = network(relabel);
        for (i, (label, run)) in sequence().iter().enumerate() {
            let fresh = run(&network(relabel));
            let reused = run(&shared);
            assert_eq!(
                outputs(&reused),
                outputs(&fresh),
                "{label} (relabel {relabel})"
            );
            assert!(!fresh.obs.runtime.run_buffers_reused, "{label}");
            assert_eq!(reused.obs.runtime.run_buffers_reused, i > 0, "{label}");
        }
    }
}

#[test]
fn reset_loops_borrow_the_same_buffers() {
    let net = network(false);
    let schedule = WakeSchedule::single(NodeId::new(4));
    let mut engine = AsyncEngine::<FloodAsync>::new(&net, async_config(1));
    let first = engine.run_mut(&schedule, &UnitDelay);
    engine.reset(9);
    let second = engine.run_mut(&schedule, &UnitDelay);
    assert!(!first.obs.runtime.run_buffers_reused);
    assert!(second.obs.runtime.run_buffers_reused);
    // A new engine on the same network takes over the same buffers.
    let third = AsyncEngine::<FloodAsync>::new(&net, async_config(1)).run(&schedule);
    assert!(third.obs.runtime.run_buffers_reused);
    assert_eq!(outputs(&first), outputs(&third));
}

#[test]
fn concurrent_engines_on_one_network_match_their_serial_runs() {
    let flood = |net: Arc<Network>| {
        AsyncEngine::<FloodAsync>::new_shared(net, async_config(1))
            .run_with(&staggered(), &AdversarialDelay::new(7))
    };
    let dfs = |net: Arc<Network>| {
        AsyncEngine::<DfsRank>::new_shared(net, async_config(1))
            .run_with(&staggered(), &AdversarialDelay::new(2))
    };
    let serial = (
        outputs(&flood(Arc::new(network(false)))),
        outputs(&dfs(Arc::new(network(false)))),
    );
    for _ in 0..4 {
        let net = Arc::new(network(false));
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| flood(Arc::clone(&net)));
            let b = scope.spawn(|| dfs(Arc::clone(&net)));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(outputs(&a), serial.0);
        assert_eq!(outputs(&b), serial.1);
        // The slot starts empty, so whichever run took it first grew its
        // own storage.
        let reused = [&a, &b].map(|r| r.obs.runtime.run_buffers_reused);
        assert!(reused.contains(&false), "{reused:?}");
        // Whichever run finished last left its buffers for the next one.
        assert!(flood(net).obs.runtime.run_buffers_reused);
    }
}

#[test]
fn a_network_clone_starts_without_buffers() {
    let net = network(false);
    let schedule = WakeSchedule::single(NodeId::new(0));
    let run = |net: &Network| AsyncEngine::<FloodAsync>::new(net, async_config(1)).run(&schedule);
    assert!(!run(&net).obs.runtime.run_buffers_reused);
    let clone = net.clone();
    let on_clone = run(&clone);
    assert!(!on_clone.obs.runtime.run_buffers_reused);
    let on_original = run(&net);
    assert!(on_original.obs.runtime.run_buffers_reused);
    assert!(run(&clone).obs.runtime.run_buffers_reused);
    assert_eq!(outputs(&on_clone), outputs(&on_original));
}
