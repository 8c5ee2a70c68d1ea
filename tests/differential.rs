//! Property-based differential tests: the engines' batched delivery fast
//! path (`on_messages_batch`) must be observationally identical to
//! per-message delivery for every protocol that overrides the batch hook.
//!
//! [`PerMessage`] / [`PerRound`] force the default per-message (per-round)
//! semantics on the wrapped protocol; equality of [`RunDigest`]s then says
//! the final node tables agree bit for bit — outputs, wake ticks, message
//! and bit counts, per-node send/receive tallies.
//!
//! The `*_sharded_equals_serial` properties additionally pin the shard
//! exchange: each engine has one executor, and for every protocol family
//! its runs at 2–4 shards must reproduce the one-shard (inline) digest
//! *and* the byte-exact observability exports (schema-4 JSON and
//! Prometheus text).

use std::sync::Arc;

use proptest::prelude::*;

use wakeup::core::advice::spanner::SpannerWake;
use wakeup::core::advice::{AdvisingScheme, SpannerScheme};
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::FloodAsync;
use wakeup::core::nih::Nih;
use wakeup::graph::families::ClassG;
use wakeup::graph::{generators, Graph, NodeId};
use wakeup::sim::adversary::{
    AdversarialDelay, DelayStrategy, RandomDelay, UnitDelay, WakeSchedule,
};
use wakeup::sim::{
    AsyncConfig, AsyncEngine, AsyncProtocol, Network, ObsSnapshot, PerMessage, PerRound, RunDigest,
    SyncConfig, SyncEngine, SyncProtocol,
};

/// Strategy: a connected graph with 2..=40 nodes (mirrors `properties.rs`).
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

/// Strategy: a nonempty awake set for a graph of size `n`.
fn awake_set(n: usize) -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::btree_set(0..n, 1..=n.min(6))
        .prop_map(|s| s.into_iter().map(NodeId::new).collect())
}

/// Folds a generated awake set into `0..n` (the set was drawn for an
/// independent size) and dedups; always nonempty because the input is.
fn clamp_wakers(wakers: Vec<NodeId>, n: usize) -> Vec<NodeId> {
    let set: std::collections::BTreeSet<usize> = wakers.iter().map(|v| v.index() % n).collect();
    set.into_iter().map(NodeId::new).collect()
}

/// Runs `P` batched and per-message over the same seeds and asserts the
/// digests agree; also returns both trace serializations for callers that
/// additionally require byte-identical event streams.
fn async_pair<P: AsyncProtocol>(
    net: &Network,
    schedule: &WakeSchedule,
    config: AsyncConfig,
    delay_seed: u64,
) -> (Vec<String>, String, String) {
    let random = RandomDelay::new(delay_seed);
    let delays: &dyn DelayStrategy = if delay_seed == 0 { &UnitDelay } else { &random };
    let a = AsyncEngine::<P>::new(net, config.clone()).run_with(schedule, delays);
    let b = AsyncEngine::<PerMessage<P>>::new(net, config).run_with(schedule, delays);
    let diffs = RunDigest::of(&a).diff(&RunDigest::of(&b));
    let ta = a
        .audit_log
        .as_ref()
        .map(|l| l.to_jsonl())
        .unwrap_or_default();
    let tb = b
        .audit_log
        .as_ref()
        .map(|l| l.to_jsonl())
        .unwrap_or_default();
    (diffs, ta, tb)
}

fn audited(seed: u64) -> AsyncConfig {
    AsyncConfig {
        seed,
        audit_capacity: Some(1 << 20),
        ..AsyncConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flood_batch_equals_per_message(
        g in connected_graph(),
        wakers in (2usize..40).prop_flat_map(awake_set),
        seed in 0u64..500,
        delay_seed in 0u64..100,
    ) {
        let wakers = clamp_wakers(wakers, g.n());
        let net = Network::kt0(g, seed);
        let schedule = WakeSchedule::all_at_zero(&wakers);
        let (diffs, ta, tb) = async_pair::<FloodAsync>(&net, &schedule, audited(seed), delay_seed);
        prop_assert!(diffs.is_empty(), "digest diffs: {:?}", diffs);
        // Flooding's batch override discards the inbox wholesale; even so
        // the engine-level event stream must be identical byte for byte.
        prop_assert_eq!(ta, tb);
    }

    #[test]
    fn nih_batch_equals_per_message(
        k in 4usize..12,
        seed in 0u64..200,
        delay_seed in 0u64..50,
    ) {
        let fam = ClassG::new(k).unwrap();
        let net = Network::kt0(fam.graph().clone(), seed);
        let schedule = WakeSchedule::all_at_zero(&fam.centers());
        let (diffs, ta, tb) =
            async_pair::<Nih<FloodAsync>>(&net, &schedule, audited(seed), delay_seed);
        prop_assert!(diffs.is_empty(), "digest diffs: {:?}", diffs);
        prop_assert_eq!(ta, tb);
    }

    #[test]
    fn spanner_wake_batch_equals_per_message(
        g in connected_graph(),
        k in 2usize..4,
        seed in 0u64..200,
    ) {
        let n = g.n();
        let net = Network::kt0(g, seed);
        let scheme = SpannerScheme::new(k);
        let advice = Arc::new(scheme.advise(&net));
        let config = AsyncConfig {
            channel: scheme.channel(n),
            advice: Some(advice),
            ..audited(seed)
        };
        let schedule = WakeSchedule::single(NodeId::new(0));
        let (diffs, ta, tb) = async_pair::<SpannerWake>(&net, &schedule, config, 0);
        prop_assert!(diffs.is_empty(), "digest diffs: {:?}", diffs);
        prop_assert_eq!(ta, tb);
    }

    #[test]
    fn fast_wakeup_batch_equals_per_round(
        g in connected_graph(),
        wakers in (2usize..40).prop_flat_map(awake_set),
        seed in 0u64..200,
    ) {
        let wakers = clamp_wakers(wakers, g.n());
        let net = Network::kt1(g, seed);
        let schedule = WakeSchedule::all_at_zero(&wakers);
        let config = SyncConfig { seed, audit_capacity: Some(1 << 20), ..SyncConfig::default() };
        let a = run_sync::<FastWakeUp>(&net, config.clone(), &schedule);
        let b = run_sync::<PerRound<FastWakeUp>>(&net, config, &schedule);
        let diffs = RunDigest::of(&a).diff(&RunDigest::of(&b));
        prop_assert!(diffs.is_empty(), "digest diffs: {:?}", diffs);
        let ta = a.audit_log.as_ref().map(|l| l.to_jsonl());
        let tb = b.audit_log.as_ref().map(|l| l.to_jsonl());
        prop_assert_eq!(ta, tb);
    }
}

fn run_sync<P: SyncProtocol>(
    net: &Network,
    config: SyncConfig,
    schedule: &WakeSchedule,
) -> wakeup::sim::RunReport {
    SyncEngine::<P>::new(net, config).run(schedule)
}

/// Runs `P` at one shard and at `shards` worker shards over the same seeds
/// (plain, non-audited configs — audit recording forces one shard), under
/// skewed and under random delays, and asserts that the exchange really
/// ran, digest equality, and byte-identity of both observability
/// serializations.
fn assert_async_sharded_matches_serial<P: AsyncProtocol>(
    net: &Network,
    schedule: &WakeSchedule,
    config: AsyncConfig,
    delay_seed: u64,
    shards: usize,
) {
    let skewed = AdversarialDelay::new(delay_seed);
    let random = RandomDelay::new(delay_seed);
    for (label, delays) in [
        ("skewed", &skewed as &dyn DelayStrategy),
        ("random", &random),
    ] {
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                ..config.clone()
            };
            AsyncEngine::<P>::new(net, config).run_with(schedule, delays)
        };
        let serial = run(1);
        let sharded = run(shards);
        prop_assert_eq!(sharded.obs.runtime.shards as usize, shards.min(net.n()));
        let diffs = RunDigest::of(&serial).diff(&RunDigest::of(&sharded));
        prop_assert!(
            diffs.is_empty(),
            "{label}: digest diffs at {shards} shards: {diffs:?}"
        );
        let a = ObsSnapshot::of(&serial);
        let b = ObsSnapshot::of(&sharded);
        prop_assert_eq!(
            a.to_json(),
            b.to_json(),
            "{}: obs json diverged at {} shards",
            label,
            shards
        );
        prop_assert_eq!(
            a.to_prometheus(),
            b.to_prometheus(),
            "{}: prometheus text diverged at {} shards",
            label,
            shards
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded async flood vs one shard: metrics, outputs, and the full
    /// observability export must agree byte for byte at 2 and 4 shards.
    #[test]
    fn flood_sharded_equals_serial(
        g in connected_graph(),
        wakers in (2usize..40).prop_flat_map(awake_set),
        seed in 0u64..500,
        delay_seed in 1u64..100,
        shards in 2usize..5,
    ) {
        let wakers = clamp_wakers(wakers, g.n());
        let net = Network::kt0(g, seed);
        let schedule = WakeSchedule::all_at_zero(&wakers);
        let config = AsyncConfig { seed, ..AsyncConfig::default() };
        assert_async_sharded_matches_serial::<FloodAsync>(
            &net, &schedule, config, delay_seed, shards,
        );
    }

    #[test]
    fn nih_sharded_equals_serial(
        k in 4usize..12,
        seed in 0u64..200,
        delay_seed in 1u64..50,
        shards in 2usize..5,
    ) {
        let fam = ClassG::new(k).unwrap();
        let net = Network::kt0(fam.graph().clone(), seed);
        let schedule = WakeSchedule::all_at_zero(&fam.centers());
        let config = AsyncConfig { seed, ..AsyncConfig::default() };
        assert_async_sharded_matches_serial::<Nih<FloodAsync>>(
            &net, &schedule, config, delay_seed, shards,
        );
    }

    /// SpannerWake under CONGEST with oracle advice — the most stateful
    /// async protocol in the tree — sharded vs one shard.
    #[test]
    fn spanner_wake_sharded_equals_serial(
        g in connected_graph(),
        k in 2usize..4,
        seed in 0u64..200,
        shards in 2usize..5,
    ) {
        let n = g.n();
        let net = Network::kt0(g, seed);
        let scheme = SpannerScheme::new(k);
        let advice = Arc::new(scheme.advise(&net));
        let config = AsyncConfig {
            seed,
            channel: scheme.channel(n),
            advice: Some(advice),
            ..AsyncConfig::default()
        };
        let schedule = WakeSchedule::single(NodeId::new(0));
        assert_async_sharded_matches_serial::<SpannerWake>(&net, &schedule, config, 9, shards);
    }

    /// Sharded sync FastWakeUp vs one shard, including both obs exports.
    #[test]
    fn fast_wakeup_sharded_equals_serial(
        g in connected_graph(),
        wakers in (2usize..40).prop_flat_map(awake_set),
        seed in 0u64..200,
        shards in 2usize..5,
    ) {
        let wakers = clamp_wakers(wakers, g.n());
        let net = Network::kt1(g, seed);
        let schedule = WakeSchedule::all_at_zero(&wakers);
        let run = |shards: usize| {
            let config = SyncConfig { seed, shards, ..SyncConfig::default() };
            run_sync::<FastWakeUp>(&net, config, &schedule)
        };
        let serial = run(1);
        let sharded = run(shards);
        let diffs = RunDigest::of(&serial).diff(&RunDigest::of(&sharded));
        prop_assert!(diffs.is_empty(), "digest diffs at {shards} shards: {diffs:?}");
        let a = ObsSnapshot::of(&serial);
        let b = ObsSnapshot::of(&sharded);
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    /// `reset()` + rerun must stay exact under sharding: a dirty sharded
    /// engine reset to a seed reproduces a fresh engine at that seed.
    #[test]
    fn sharded_reset_vs_fresh(
        g in connected_graph(),
        seed in 0u64..200,
        dirty_seed in 0u64..200,
    ) {
        let n = g.n();
        let net = Network::kt0(g, seed);
        let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.25);
        let config = AsyncConfig { seed, shards: 3, ..AsyncConfig::default() };
        let fresh = AsyncEngine::<FloodAsync>::new(&net, config.clone())
            .run_with(&schedule, &AdversarialDelay::new(5));
        let mut engine = AsyncEngine::<FloodAsync>::new(&net, config);
        engine.reset(dirty_seed);
        let _ = engine.run_mut(&schedule, &AdversarialDelay::new(dirty_seed.wrapping_add(1)));
        engine.reset(seed);
        let reused = engine.run_mut(&schedule, &AdversarialDelay::new(5));
        let diffs = RunDigest::of(&fresh).diff(&RunDigest::of(&reused));
        prop_assert!(diffs.is_empty(), "digest diffs: {diffs:?}");
        let a = ObsSnapshot::of(&fresh);
        let b = ObsSnapshot::of(&reused);
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
