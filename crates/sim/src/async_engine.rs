//! The asynchronous discrete-event engine.
//!
//! # Event-queue design
//!
//! Delays are clamped to `[1, τ]` ticks at the single dispatch site, and the
//! per-channel FIFO horizon is bounded by induction (each clamp target was
//! itself scheduled ≤ τ ticks past an earlier, hence no later, send tick), so
//! **every delivery lands in `(now, now + τ]`** where `now` is the engine's
//! monotone tick cursor. That invariant lets a fixed-size bucketed timer
//! wheel of `≥ τ + 1` slots replace a binary heap: O(1) insert, O(1)
//! amortized pop, no per-event comparisons. Adversary wake-ups are the only
//! events that may lie arbitrarily far in the future; they are known upfront
//! and handled by a cursor over a stably tick-sorted list.
//!
//! Processing order within a tick is **canonical** — a pure function of the
//! simulated execution, independent of schedule entry order and of the shard
//! count: schedule wakes run first in ascending node-id order, then the
//! tick's deliveries as one batch per receiving node, receivers ascending,
//! each receiver's batch in channel send order (bucket insertion order is
//! send order, and the grouping below is stable). The engine has
//! one executor, the shard worker: at one shard (see [`AsyncConfig::shards`]
//! and the `shard` module) it runs inline on the calling thread and pushes
//! sends straight into its wheel; at `k > 1` the canonical order is what
//! lets the exchange reproduce the one-shard output byte for byte —
//! shard-owned node ranges are contiguous and ascending, so draining
//! cross-shard mailboxes phase-major/source-shard-major replays exactly
//! this order.
//!
//! Message payloads live out-of-line in a [`PayloadArena`] (a refcounted
//! slab with a free list): the handle created when a context enqueues a send
//! is the very handle delivered later, so a unicast payload is written once
//! and moved out once, and a broadcast is stored once and shared across
//! deg(v) wheel entries. Per-channel FIFO horizons and sequence counters are
//! flat arrays indexed by the dense directed-edge slots of [`NodeTables`].
//!
//! # Delivery grouping
//!
//! Every delivery of a tick addressed to the same receiver is handed to the
//! protocol as one batch (`on_messages_batch`), which preserves delivery
//! order exactly while amortizing per-delivery dispatch. The tick's bucket
//! is grouped by a stable counting sort into one flat buffer (the wheel's
//! spare bucket storage): count entries per receiver in a per-node `u32`
//! array while listing first-time receivers, sort that list, turn the
//! counts into offsets, and scatter. Each receiver's batch is then one
//! contiguous slice; no per-receiver list is allocated or kept.
//!
//! The wheel, the grouping's buffers and the outbox handles hold no
//! payloads, so they are the network's
//! [`RunBuffers`](crate::shard::RunBuffers), lent to each run and kept
//! between runs. The engine keeps the message-typed arena and batch
//! buffers and the per-channel arrays, which it sizes and zeroes at each
//! run start.

use std::sync::Arc;

use wakeup_graph::NodeId;

use crate::adversary::{DelayStrategy, UnitDelay, WakeSchedule};
use crate::arena::{PayloadArena, PayloadRef};
use crate::audit::AuditLog;
use crate::bits::BitStr;
use crate::knowledge::Port;
use crate::message::ChannelModel;
use crate::metrics::{RunReport, TICKS_PER_UNIT};
use crate::network::{Network, NodeTables};
use crate::protocol::{AsyncProtocol, Context, Inbox, Incoming, WakeCause};
use crate::shard::{
    split_lengths, CrossPayload, DeliverEntry, NodeSlices, RunArrays, RunPlan, RunTally,
    ShardFallback, ShardMetrics, Worker, WorkerOut,
};

/// Configuration of an [`AsyncEngine`] run.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Bandwidth regime; oversize messages in CONGEST mode panic unless
    /// `record_congest_violations` is set.
    pub channel: ChannelModel,
    /// Master seed for the nodes' private randomness.
    pub seed: u64,
    /// Seed of the shared random tape.
    pub shared_seed: u64,
    /// Per-node advice strings from an oracle (None = no advice). Shared via
    /// `Arc` so cached advice is handed to many engines without copying.
    pub advice: Option<Arc<Vec<BitStr>>>,
    /// Safety cap on processed events; exceeding it sets
    /// [`RunReport::truncated`].
    pub max_events: u64,
    /// Track the set of distinct ports each node communicates over (needed
    /// by the lower-bound experiments; costs memory, off by default).
    pub track_ports: bool,
    /// Observability recording level (default [`crate::obs::ObsLevel::Full`]
    /// — always on; `Counters` is the overhead-bench baseline).
    pub obs: crate::obs::ObsLevel,
    /// Timeline window spacing for the obs v4 windowed series (default
    /// log2; ignored at [`crate::obs::ObsLevel::Counters`], which records
    /// no timeline at all).
    pub obs_windows: crate::obs::WindowCfg,
    /// Count CONGEST violations in metrics instead of panicking.
    pub record_congest_violations: bool,
    /// Record a model-conformance [`AuditLog`] with the given event
    /// capacity (`None` = off).
    pub audit_capacity: Option<usize>,
    /// Number of intra-run worker shards (default 1: the one worker runs
    /// inline on the calling thread). With `K > 1` the nodes are
    /// partitioned into `K` contiguous ranges advanced in lockstep tick
    /// windows by `K` threads; output is byte-identical at any shard count.
    /// Runs that record audit logs, or use a delay strategy
    /// without a deterministic [`DelayStrategy::fork`], use one shard and
    /// record why in [`crate::RuntimeCounters::shard_fallback`].
    pub shards: usize,
}

impl Default for AsyncConfig {
    fn default() -> AsyncConfig {
        AsyncConfig {
            channel: ChannelModel::Local,
            seed: 0xDEFA17,
            shared_seed: 0x5EED,
            advice: None,
            max_events: 50_000_000,
            track_ports: false,
            obs: crate::obs::ObsLevel::Full,
            obs_windows: crate::obs::WindowCfg::Log2,
            record_congest_violations: false,
            audit_capacity: None,
            shards: 1,
        }
    }
}

/// Ring size: the smallest power of two covering the `τ + 1`-tick delivery
/// horizon (power of two so the modulo is a mask).
const WHEEL_SIZE: usize = (TICKS_PER_UNIT as usize + 1).next_power_of_two();
const WHEEL_MASK: u64 = (WHEEL_SIZE - 1) as u64;
const WHEEL_WORDS: usize = WHEEL_SIZE / 64;

/// Bucketed timer wheel over the delivery horizon, with a word-packed
/// occupancy bitmap for skipping empty ticks. Payloads live in the engine's
/// [`PayloadArena`]; the wheel holds only handles, so it is part of the
/// network's [`RunBuffers`](crate::shard::RunBuffers) and keeps its slot
/// capacity from run to run.
struct TimerWheel {
    buckets: Vec<Vec<DeliverEntry>>,
    occupied: [u64; WHEEL_WORDS],
    len: usize,
    /// Drained-bucket storage, lent out with each taken bucket as the
    /// destination of its per-receiver grouping (see [`group_by_receiver`]).
    spare: Vec<DeliverEntry>,
}

impl Default for TimerWheel {
    fn default() -> TimerWheel {
        TimerWheel {
            buckets: (0..WHEEL_SIZE).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            len: 0,
            spare: Vec::new(),
        }
    }
}

impl TimerWheel {
    /// Schedules `entry` for `deliver`, which must lie in the horizon
    /// `(now, now + τ]` — the FIFO-clamp induction guarantees it, and the
    /// assert keeps the wheel honest against future delay strategies.
    fn push(&mut self, now: u64, deliver: u64, entry: DeliverEntry) {
        assert!(
            deliver > now && deliver - now <= TICKS_PER_UNIT,
            "delivery tick {deliver} outside wheel horizon ({now}, {now} + τ]"
        );
        let b = (deliver & WHEEL_MASK) as usize;
        if self.buckets[b].is_empty() {
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        self.buckets[b].push(entry);
        self.len += 1;
    }

    /// Removes and returns the bucket for `tick`, together with the (empty)
    /// spare storage. While the caller works on them, pushes can only target
    /// *other* buckets (deliveries always land strictly later, and the
    /// horizon is narrower than the ring), so the bucket's slot stays empty
    /// until [`TimerWheel::restore_bucket`] hands both back.
    fn take_bucket(&mut self, tick: u64) -> (Vec<DeliverEntry>, Vec<DeliverEntry>) {
        let b = (tick & WHEEL_MASK) as usize;
        self.occupied[b / 64] &= !(1 << (b % 64));
        let bucket = std::mem::take(&mut self.buckets[b]);
        self.len -= bucket.len();
        (bucket, std::mem::take(&mut self.spare))
    }

    /// Returns the storage lent by [`TimerWheel::take_bucket`]: the bucket
    /// to its slot, the spare to the wheel.
    fn restore_bucket(
        &mut self,
        tick: u64,
        mut bucket: Vec<DeliverEntry>,
        mut spare: Vec<DeliverEntry>,
    ) {
        let b = (tick & WHEEL_MASK) as usize;
        debug_assert!(self.buckets[b].is_empty());
        bucket.clear();
        spare.clear();
        self.buckets[b] = bucket;
        self.spare = spare;
    }

    /// Empties the wheel (any undelivered entries left by a truncated run
    /// are dropped; their payloads died with that run's arena, or with its
    /// `clear`) while keeping bucket capacity for reuse.
    fn clear(&mut self) {
        if self.len > 0 {
            for b in &mut self.buckets {
                b.clear();
            }
            self.occupied = [0; WHEEL_WORDS];
            self.len = 0;
        }
    }

    /// The earliest tick strictly after `now` holding a delivery, if any.
    fn next_occupied_after(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let start = ((now + 1) & WHEEL_MASK) as usize;
        let pos = self
            .scan_from(start)
            .expect("non-empty wheel has an occupied bucket");
        let dist = (pos + WHEEL_SIZE - start) & (WHEEL_SIZE - 1);
        Some(now + 1 + dist as u64)
    }

    /// First occupied ring position at or cyclically after `start`.
    fn scan_from(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            return Some(sw * 64 + first.trailing_zeros() as usize);
        }
        for i in 1..=WHEEL_WORDS {
            let idx = (sw + i) % WHEEL_WORDS;
            let word = if idx == sw {
                // Wrapped all the way around: only the bits below `start`.
                self.occupied[idx] & !(!0u64 << sb)
            } else {
                self.occupied[idx]
            };
            if word != 0 {
                return Some(idx * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Groups one tick's wheel bucket by receiver: a stable counting sort of
/// `bucket` into `out`, which must be empty.
///
/// On return `touched` lists the bucket's receivers ascending (it must be
/// empty on entry), `out` holds the entries receiver-major with each
/// receiver's entries in bucket order (= send order), and
/// `counts[to − lo]` is the exclusive end in `out` of receiver `to`'s run;
/// the run starts where the previous receiver's ends (0 for the first).
/// Every entry of `counts` must be zero on entry; the caller zeroes the
/// touched ones again as it walks the runs.
fn group_by_receiver(
    bucket: &[DeliverEntry],
    lo: usize,
    counts: &mut [u32],
    touched: &mut Vec<u32>,
    out: &mut Vec<DeliverEntry>,
) {
    debug_assert!(touched.is_empty() && out.is_empty());
    assert!(
        u32::try_from(bucket.len()).is_ok(),
        "tick bucket overflows u32 offsets"
    );
    for e in bucket {
        let c = &mut counts[e.to as usize - lo];
        if *c == 0 {
            touched.push(e.to);
        }
        *c += 1;
    }
    touched.sort_unstable();
    let mut offset = 0;
    for &to in touched.iter() {
        let c = &mut counts[to as usize - lo];
        let count = *c;
        *c = offset;
        offset += count;
    }
    // Scatter over a copy: every position is overwritten exactly once.
    out.extend_from_slice(bucket);
    for &e in bucket {
        let c = &mut counts[e.to as usize - lo];
        out[*c as usize] = e;
        *c += 1;
    }
}

/// Discrete-event simulator for the asynchronous model.
///
/// See the crate-level example. Delays come from a [`DelayStrategy`] (default
/// [`UnitDelay`]); FIFO order per channel is enforced regardless of the
/// strategy's choices, matching the paper's channel model.
pub struct AsyncEngine<'n, P: AsyncProtocol> {
    net: crate::network::NetHandle<'n>,
    /// Run-space tables when `space` is set, the original-id tables
    /// otherwise.
    tables: Arc<NodeTables>,
    /// The network's locality-ordered run space, when this engine may use
    /// it (chosen at construction: audit recording pins the engine to
    /// identity execution). Individual runs additionally require a
    /// forkable — i.e. history-free — delay strategy and fall back to
    /// identity space otherwise.
    space: Option<Arc<crate::network::RunSpace>>,
    config: AsyncConfig,
    protocols: Vec<P>,
    scratch: AsyncScratch<P::Msg>,
}

/// The engine's own run buffers: the flat per-channel arrays, sized exactly
/// and zeroed at each run start, and one [`ShardScratch`] per worker.
/// Everything a run grows that does not depend on the message type lives
/// in the network's [`RunBuffers`](crate::shard::RunBuffers) instead.
struct AsyncScratch<M> {
    channel_next: Vec<u64>,
    channel_seq: Vec<u64>,
    /// Per-worker state, rebuilt only when the shard count changes.
    shards: Vec<ShardScratch<M>>,
}

/// One worker's message-typed buffers: the payload arena, the batch buffer
/// lent to handlers, and the stage buffers the exchange uses at `k > 1`.
struct ShardScratch<M> {
    arena: PayloadArena<M>,
    batch_buf: Vec<(Incoming, M)>,
    /// Staged outbound messages, one buffer per `(destination shard, phase)`.
    stage: Vec<Vec<CrossMsg<M>>>,
}

impl<M> ShardScratch<M> {
    fn new(k: usize) -> ShardScratch<M> {
        ShardScratch {
            arena: PayloadArena::default(),
            batch_buf: Vec::new(),
            stage: (0..k * crate::shard::PHASES).map(|_| Vec::new()).collect(),
        }
    }
}

/// One async worker's share of the network's
/// [`RunBuffers`](crate::shard::RunBuffers): the wheel (with the spare
/// storage the grouping scatters into), the grouping's per-node counts and
/// receiver list, and the outbox handles lent to handlers.
#[derive(Default)]
pub(crate) struct AsyncBuffers {
    wheel: TimerWheel,
    /// Per owned node: the delivery grouping's count, then offset, of the
    /// node's entries in the current tick (see [`group_by_receiver`]);
    /// all zero between ticks.
    counts: Vec<u32>,
    /// The current tick's receivers, ascending.
    touched: Vec<u32>,
    entries_buf: Vec<(Port, PayloadRef)>,
}

/// A message staged for a window boundary crossing between shards.
struct CrossMsg<M> {
    deliver: u64,
    to: u32,
    from: u32,
    rport: u32,
    payload: CrossPayload<M>,
}

/// A worker's progress since its last summary.
#[derive(Clone, Copy)]
struct AsyncProgress {
    /// Earliest future event this shard knows about (its own pending wakes,
    /// its wheel, and the sends it just staged); `u64::MAX` when none.
    next_event: u64,
    /// Events processed since the last summary (for the global cap).
    new_events: u64,
}

impl<'n, P: AsyncProtocol> AsyncEngine<'n, P> {
    /// Initializes every node's protocol state over the given network.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new(net: &'n Network, config: AsyncConfig) -> AsyncEngine<'n, P> {
        Self::with_handle(crate::network::NetHandle::Borrowed(net), config)
    }

    /// As [`AsyncEngine::new`], but co-owning a shared network — the entry
    /// point for artifact caches that hand out `Arc<Network>`s, freeing the
    /// engine from the caller's borrow lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new_shared(net: Arc<Network>, config: AsyncConfig) -> AsyncEngine<'static, P> {
        AsyncEngine::with_handle(crate::network::NetHandle::Shared(net), config)
    }

    fn with_handle(net: crate::network::NetHandle<'n>, config: AsyncConfig) -> AsyncEngine<'n, P> {
        // Audit logs expose per-event ordering, which relabeled execution
        // permutes within ticks — those runs stay in identity space for
        // their whole lifetime.
        let space = if config.audit_capacity.is_some() {
            None
        } else {
            net.run_space().cloned()
        };
        let tables = match &space {
            Some(s) => Arc::clone(&s.tables),
            None => Arc::clone(net.tables()),
        };
        let mut protocols = Vec::with_capacity(net.n());
        crate::protocol::for_each_node_init(
            &net,
            &tables,
            space.as_ref().map(|s| &*s.rel),
            config.seed,
            config.shared_seed,
            config.advice.as_deref().map(Vec::as_slice),
            |_, init| protocols.push(P::init(init)),
        );
        AsyncEngine {
            net,
            tables,
            space,
            config,
            protocols,
            scratch: AsyncScratch {
                channel_next: Vec::new(),
                channel_seq: Vec::new(),
                shards: Vec::new(),
            },
        }
    }

    /// Re-derives every node's state for a fresh trial under a new master
    /// seed, keeping the engine's allocations (tables, arena, channel
    /// arrays, and — via [`AsyncProtocol::reinit`] — per-node containers).
    /// The wheel and the grouping buffers are kept by the network for every
    /// run on it.
    pub fn reset(&mut self, seed: u64) {
        self.config.seed = seed;
        let protocols = &mut self.protocols;
        crate::protocol::for_each_node_init(
            &self.net,
            &self.tables,
            self.space.as_ref().map(|s| &*s.rel),
            seed,
            self.config.shared_seed,
            self.config.advice.as_deref().map(Vec::as_slice),
            |v, init| protocols[v].reinit(init),
        );
    }

    /// Runs with per-message delay τ (the [`UnitDelay`] strategy).
    pub fn run(mut self, schedule: &WakeSchedule) -> RunReport {
        self.run_mut(schedule, &mut UnitDelay)
    }

    /// Runs with an explicit delay strategy.
    pub fn run_with(
        mut self,
        schedule: &WakeSchedule,
        delays: &mut dyn DelayStrategy,
    ) -> RunReport {
        self.run_mut(schedule, delays)
    }

    /// As [`AsyncEngine::run_with`], but also returns the final per-node
    /// protocol states for post-hoc inspection (e.g. checking Claim 4's
    /// per-node token-forwarding bound on `DfsRank`).
    pub fn run_into_parts(
        mut self,
        schedule: &WakeSchedule,
        delays: &mut dyn DelayStrategy,
    ) -> (RunReport, Vec<P>) {
        let report = self.run_mut(schedule, delays);
        (report, self.protocols)
    }

    /// Executes one run without consuming the engine, so a trial loop can
    /// [`AsyncEngine::reset`] and go again over the same topology. The
    /// protocol states afterwards are the run's final states (read them via
    /// [`AsyncEngine::protocols`]).
    pub fn run_mut(
        &mut self,
        schedule: &WakeSchedule,
        delays: &mut dyn DelayStrategy,
    ) -> RunReport {
        // Recording runs and runs whose delay strategy has no deterministic
        // `fork` use one shard: a sharded run calls one fork per shard, and a
        // relabeled run calls the strategy in a different within-tick
        // interleaving, so hidden sequential state would change the delays.
        // Non-forkable runs also execute in identity space over the original
        // tables; the output is byte-identical either way.
        let forkable = delays.fork().is_some();
        let mut audit = self.config.audit_capacity.map(AuditLog::with_capacity);
        let forced = audit
            .as_ref()
            .map(|_| ShardFallback::Audit)
            .or((!forkable).then_some(ShardFallback::UnforkableDelays));
        let (rel, tables) = match &self.space {
            Some(s) if forkable => (Some(&*s.rel), &*self.tables),
            _ => (None, &**self.net.tables()),
        };
        let plan = RunPlan::new(self.net.n(), self.config.shards, forced, rel, tables);
        let net = &*self.net;
        let config = &self.config;
        let k = plan.shards.k;
        if self.scratch.shards.len() != k {
            self.scratch.shards = (0..k).map(|_| ShardScratch::new(k)).collect();
        }
        let (mut bufs, reused) = net.run_buffers.take();
        bufs.async_workers.resize_with(k, AsyncBuffers::default);
        // Sized and zeroed here, once per run (a fresh engine allocates
        // them empty).
        for channel in [
            &mut self.scratch.channel_next,
            &mut self.scratch.channel_seq,
        ] {
            channel.clear();
            channel.resize(tables.directed_edges(), 0);
        }
        if let Some(rel) = rel {
            rel.permute_to_run(&mut self.protocols);
        }
        let slots = |s: usize| {
            let (lo, hi) = plan.shards.range(s);
            tables.edge_offset[hi] - tables.edge_offset[lo]
        };
        let channels = split_lengths(&mut self.scratch.channel_next, (0..k).map(slots)).zip(
            split_lengths(&mut self.scratch.channel_seq, (0..k).map(slots)),
        );
        let mut arrays = RunArrays::new(net.n());
        let per_shard = self
            .scratch
            .shards
            .iter_mut()
            .zip(&mut bufs.async_workers)
            .zip(arrays.split(&mut self.protocols, &plan.shards))
            .zip(plan.wakes(schedule, 1))
            .zip(channels);
        let mut workers: Vec<AsyncShard<'_, P>> = Vec::with_capacity(k);
        for (s, ((((sc, bufs), nodes), wakes), (channel_next, channel_seq))) in
            per_shard.enumerate()
        {
            let (lo, hi) = plan.shards.range(s);
            sc.arena.clear();
            // A truncated run leaves entries in the wheel it hands back.
            bufs.wheel.clear();
            bufs.counts.clear();
            bufs.counts.resize(hi - lo, 0);
            workers.push(AsyncShard {
                me: s,
                lo,
                edge_base: tables.edge_offset[lo],
                plan: plan.shards,
                net,
                tables,
                config,
                nodes,
                channel_next,
                channel_seq,
                sm: ShardMetrics::new(config.track_ports, slots(s)),
                obs: crate::obs::ShardObs::new(hi - lo, config.obs, config.obs_windows),
                audit: audit.take(),
                send_run: crate::obs::PairRun::new(),
                batch_run: crate::obs::ValueRun::new(),
                sc,
                bufs,
                wakes,
                cursor: 0,
                fork: None,
                rel,
                from_mask: plan.sender_mask(),
                phase: 0,
                staged_min: u64::MAX,
                new_events: 0,
                prev_tick: 0,
            });
        }
        // The next tick is the globally earliest pending event — the safe
        // horizon under τ-lookahead. The event cap is checked at window
        // boundaries only, so a truncation point never depends on
        // within-tick processing order or on the shard count.
        let mut tally = RunTally::default();
        let mut primed = false;
        let mut next = |p: AsyncProgress| {
            tally.events += p.new_events;
            // Runtime diag: a window in which no shard processed anything
            // is a pure horizon-advance stall (the priming summary precedes
            // any processing by construction).
            if p.new_events == 0 && primed && p.next_event != u64::MAX {
                tally.stall_rounds += 1;
            }
            primed = true;
            if tally.events > config.max_events {
                tally.truncated = true;
                return u64::MAX;
            }
            p.next_event
        };
        if let [w] = workers.as_mut_slice() {
            // One shard: the worker runs inline, pushing sends straight
            // into its wheel — no thread, barrier, or mailbox.
            loop {
                let now = next(w.progress());
                if now == u64::MAX {
                    break;
                }
                w.process_tick(now, delays);
            }
            w.finish();
        } else {
            for w in &mut workers {
                w.fork = delays.fork();
            }
            crate::shard::exchange(&mut workers, |ps| {
                next(AsyncProgress {
                    next_event: ps.iter().map(|p| p.next_event).min().unwrap_or(u64::MAX),
                    new_events: ps.iter().map(|p| p.new_events).sum(),
                })
            });
        }
        // Consume the workers first: that ends their borrows of `arrays`
        // and of the run buffers.
        let outs = workers.into_iter().map(AsyncShard::into_out).collect();
        net.run_buffers.put(bufs);
        let mut report = plan.report(arrays, outs, tally, config.obs, config.track_ports);
        report.obs.runtime.run_buffers_reused = reused;
        if let Some(rel) = rel {
            rel.permute_to_orig(&mut self.protocols);
        }
        report
    }

    /// The per-node protocol states (final states after a run).
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }
}

/// The async engine's executor: one worker per shard, owning a contiguous
/// node range (slices of the run-global arrays). At `k = 1` it runs inline
/// and owns every node; at `k > 1` the [`crate::shard::exchange`] drives
/// it. Local node index = global id − `lo`; local edge slot = global slot −
/// `edge_base`.
struct AsyncShard<'e, P: AsyncProtocol> {
    me: usize,
    lo: usize,
    edge_base: usize,
    plan: crate::shard::ShardPlan,
    net: &'e Network,
    tables: &'e NodeTables,
    config: &'e AsyncConfig,
    nodes: NodeSlices<'e, P>,
    /// Per directed-edge slot: latest delivery tick scheduled on the channel
    /// (the FIFO horizon).
    channel_next: &'e mut [u64],
    /// Per directed-edge slot: messages sent so far on the channel.
    channel_seq: &'e mut [u64],
    sm: ShardMetrics,
    obs: crate::obs::ShardObs,
    audit: Option<AuditLog>,
    /// Packed (payload bits, delivery delay) run accumulator for the two
    /// send histograms; flushed once at the end, so the common
    /// all-sends-identical case costs one compare per message.
    send_run: crate::obs::PairRun,
    batch_run: crate::obs::ValueRun,
    sc: &'e mut ShardScratch<P::Msg>,
    bufs: &'e mut AsyncBuffers,
    /// This shard's schedule wakes, `(tick, id)`-sorted (run ids when
    /// relabeled — the shard ranges partition run-id space).
    wakes: Vec<(u64, NodeId)>,
    cursor: usize,
    /// This shard's fork of the delay strategy (`k > 1`; a lone inline
    /// worker borrows the caller's strategy instead).
    fork: Option<Box<dyn DelayStrategy + Send>>,
    /// `Some` iff this run executes in the locality-ordered run space: node
    /// indices are run ids, and entry `from` fields carry packed sort keys.
    rel: Option<&'e wakeup_graph::Relabeling>,
    /// Sender-index extraction mask (see [`DeliverEntry::from`]).
    from_mask: u32,
    /// Current within-tick phase: 0 = schedule wakes, 1 = deliveries.
    phase: u8,
    /// Earliest delivery staged since the last progress summary.
    staged_min: u64,
    /// Events processed since the last progress summary.
    new_events: u64,
    /// The tick last processed (the wheel's cursor).
    prev_tick: u64,
}

impl<P: AsyncProtocol> crate::shard::Worker for AsyncShard<'_, P> {
    type Cross = CrossMsg<P::Msg>;
    type Progress = AsyncProgress;

    fn progress(&mut self) -> AsyncProgress {
        let next_wake = self.wakes.get(self.cursor).map_or(u64::MAX, |&(t, _)| t);
        let wheel_next = self
            .bufs
            .wheel
            .next_occupied_after(self.prev_tick)
            .unwrap_or(u64::MAX);
        if wheel_next != u64::MAX {
            // Runtime diag: deepest wheel forward scan, once per window.
            self.obs.note_wheel_scan(wheel_next - self.prev_tick);
        }
        self.obs.events += self.new_events;
        let p = AsyncProgress {
            next_event: self.staged_min.min(wheel_next).min(next_wake),
            new_events: self.new_events,
        };
        self.staged_min = u64::MAX;
        self.new_events = 0;
        p
    }

    fn stage(&mut self) -> &mut [Vec<CrossMsg<P::Msg>>] {
        &mut self.sc.stage
    }

    fn ingest(&mut self, batch: &mut Vec<CrossMsg<P::Msg>>) {
        for m in batch.drain(..) {
            let entry = DeliverEntry {
                to: m.to,
                from: m.from,
                rport: m.rport,
                msg: m.payload.into_ref(&mut self.sc.arena),
            };
            self.bufs.wheel.push(self.prev_tick, m.deliver, entry);
        }
    }

    fn window(&mut self, now: u64) {
        let mut delays = self.fork.take().expect("k > 1 workers own a fork");
        self.process_tick(now, &mut *delays);
        self.fork = Some(delays);
    }

    fn finish(&mut self) {
        self.batch_run.flush(&mut self.obs.batch_sizes);
        self.send_run
            .flush(&mut self.obs.message_bits, &mut self.obs.delay_ticks);
        self.obs.timeline.finish();
        self.obs.arena_high_water = self.sc.arena.high_water() as u64;
        if self.rel.is_some() {
            // Relabeled runs skip `stamp_new_spans` (run-order stamping
            // would capture the wrong first actor); install the tracked
            // canonical (tick, phase, orig actor) minima instead so the span
            // merge reproduces the identity label order.
            self.obs.adopt_tracked_keys();
        }
    }
}

impl<P: AsyncProtocol> AsyncShard<'_, P> {
    fn into_out(self) -> WorkerOut {
        WorkerOut {
            sm: self.sm,
            obs: self.obs,
            audit: self.audit,
        }
    }

    /// One tick over this shard's nodes in the canonical order: schedule
    /// wakes ascending, then one delivery batch per receiver ascending,
    /// each in channel send order.
    fn process_tick(&mut self, now: u64, delays: &mut dyn DelayStrategy) {
        let (sends0, bits0) = (self.obs.sends, self.sm.bits_sent);
        self.phase = 0;
        while self.cursor < self.wakes.len() && self.wakes[self.cursor].0 == now {
            let v = self.wakes[self.cursor].1;
            self.cursor += 1;
            self.new_events += 1;
            if !self.nodes.awake[v.index() - self.lo] {
                self.wake_node(v, WakeCause::Adversary, now, delays);
            }
        }
        self.phase = 1;
        let (bucket, mut grouped) = self.bufs.wheel.take_bucket(now);
        let delivered = bucket.len() as u64;
        self.new_events += delivered;
        let mut touched = std::mem::take(&mut self.bufs.touched);
        group_by_receiver(
            &bucket,
            self.lo,
            &mut self.bufs.counts,
            &mut touched,
            &mut grouped,
        );
        let obs_full = self.obs.level == crate::obs::ObsLevel::Full;
        let relabeled = self.rel.is_some();
        // Batch sizes accumulate in a local across the tick (one spill per
        // size change) rather than one histogram read-modify-write per
        // batch — see `ValueRun`.
        let mut batch_run = self.batch_run;
        let mut start = 0;
        for (i, &to) in touched.iter().enumerate() {
            // Warm the next receiver's protocol state while this batch's
            // handler runs; run-space ids make `touched` nearly contiguous,
            // so the lines are usually still resident when used.
            if let Some(&nx) = touched.get(i + 1) {
                crate::prefetch::prefetch_index(self.nodes.protocols, nx as usize - self.lo);
            }
            let end = std::mem::take(&mut self.bufs.counts[to as usize - self.lo]) as usize;
            let batch = &mut grouped[start..end];
            start = end;
            if relabeled && batch.len() > 1 {
                // Stable sort by packed key restores the identity-space
                // batch order (see `DeliverEntry::from`).
                batch.sort_by_key(|e| e.from);
            }
            if obs_full {
                batch_run.note(&mut self.obs.batch_sizes, batch.len() as u64);
            }
            self.deliver_batch(batch, now, delays);
        }
        self.batch_run = batch_run;
        touched.clear();
        self.bufs.touched = touched;
        self.bufs.wheel.restore_bucket(now, bucket, grouped);
        self.prev_tick = now;
        let (sends, bits) = (self.obs.sends - sends0, self.sm.bits_sent - bits0);
        self.obs.tl_traffic(now, delivered, sends, bits);
    }

    fn wake_node(
        &mut self,
        v: NodeId,
        cause: WakeCause,
        tick: u64,
        delays: &mut dyn DelayStrategy,
    ) {
        let li = v.index() - self.lo;
        // `v` is a run id when relabeled; everything the outside world can
        // see (the audit log, the protocol's Context) gets the original id.
        let ov = self
            .rel
            .map_or(v, |rel| NodeId::new(rel.to_orig(v.index())));
        if let Some(log) = self.audit.as_mut() {
            log.record_wake(tick, ov, cause, self.config.advice.as_deref());
        }
        self.nodes.awake[li] = true;
        self.sm.awake_count += 1;
        self.obs.tl_wakes(tick, 1);
        self.nodes.wake_tick[li] = Some(tick);
        self.sm.first_wake_tick = Some(self.sm.first_wake_tick.map_or(tick, |t| t.min(tick)));
        if self.rel.is_some() {
            self.obs
                .phases
                .set_handler(tick, self.phase, ov.index() as u32);
        }
        let mut entries = std::mem::take(&mut self.bufs.entries_buf);
        let mut ctx = Context::new(
            ov,
            self.net.graph().degree(ov),
            self.net.mode(),
            self.tables.id_to_port(v.index()),
            &mut entries,
            &mut self.sc.arena,
            self.config.channel,
            self.config.record_congest_violations,
            &mut self.sm.congest_violations,
            &mut self.nodes.outputs[li],
            &mut self.obs.phases,
            tick,
        );
        self.nodes.protocols[li].on_wake(&mut ctx, cause);
        if self.rel.is_none() {
            self.obs.stamp_new_spans(tick, self.phase, v.index() as u32);
        }
        self.dispatch_outbox(&mut entries, v, tick, delays);
        self.bufs.entries_buf = entries;
    }

    /// Delivers one receiver's entries of the tick, in send order: metrics
    /// and the audit log per entry, wake-on-message once, one batch handler
    /// call, one dispatch. Equivalent to delivering the entries one by one
    /// — the handler's sends land in strictly later ticks either way, so
    /// nothing this batch does can affect the rest of the current bucket.
    fn deliver_batch(
        &mut self,
        entries: &[DeliverEntry],
        tick: u64,
        delays: &mut dyn DelayStrategy,
    ) {
        let to = NodeId::new(entries[0].to as usize);
        let li = to.index() - self.lo;
        let ot = self
            .rel
            .map_or(to, |rel| NodeId::new(rel.to_orig(to.index())));
        self.nodes.received_by[li] += entries.len() as u64;
        self.sm.last_receipt_tick = Some(self.sm.last_receipt_tick.map_or(tick, |t| t.max(tick)));
        // Deliveries are recorded before the wake they may cause (below), so
        // the wake-causality invariant can stream the log in order.
        if let Some(log) = self.audit.as_mut() {
            for e in entries {
                log.record_deliver(tick, e.from & self.from_mask, ot, e.msg);
            }
        }
        if self.config.track_ports {
            for e in entries {
                let slot = self.tables.slot(to, Port::new(e.rport as usize));
                self.sm.ports.set(slot - self.edge_base);
            }
        }
        if !self.nodes.awake[li] {
            // The batch's first entry is the delivery that wakes `to`: its
            // sender becomes `to`'s predecessor in the causal wake forest.
            self.obs
                .note_wake_pred(li, entries[0].from & self.from_mask);
            self.wake_node(to, WakeCause::Message, tick, delays);
        }
        let kt1 = self.net.mode() == crate::knowledge::KnowledgeMode::Kt1;
        let mut batch = std::mem::take(&mut self.sc.batch_buf);
        debug_assert!(batch.is_empty());
        for e in entries {
            let sender_id = kt1.then(|| {
                self.net
                    .ids()
                    .id(NodeId::new((e.from & self.from_mask) as usize))
            });
            batch.push((
                Incoming {
                    port: Port::new(e.rport as usize),
                    sender_id,
                },
                self.sc.arena.take(e.msg),
            ));
        }
        let mut inbox = Inbox::new(&mut batch);
        if self.rel.is_some() {
            self.obs
                .phases
                .set_handler(tick, self.phase, ot.index() as u32);
        }
        let mut out_entries = std::mem::take(&mut self.bufs.entries_buf);
        let mut ctx = Context::new(
            ot,
            self.net.graph().degree(ot),
            self.net.mode(),
            self.tables.id_to_port(to.index()),
            &mut out_entries,
            &mut self.sc.arena,
            self.config.channel,
            self.config.record_congest_violations,
            &mut self.sm.congest_violations,
            &mut self.nodes.outputs[li],
            &mut self.obs.phases,
            tick,
        );
        self.nodes.protocols[li].on_messages_batch(&mut ctx, &mut inbox);
        drop(inbox);
        if self.rel.is_none() {
            self.obs
                .stamp_new_spans(tick, self.phase, to.index() as u32);
        }
        self.dispatch_outbox(&mut out_entries, to, tick, delays);
        self.bufs.entries_buf = out_entries;
        self.sc.batch_buf = batch;
    }

    /// Accounts, delays, and queues one handler's outbox. A lone worker
    /// pushes straight into its wheel; at `k > 1` sends are staged per
    /// `(destination shard, phase)` for the exchange — same-shard sends
    /// keep their arena handle, cross-shard sends carry the payload itself.
    fn dispatch_outbox(
        &mut self,
        entries: &mut Vec<(Port, PayloadRef)>,
        from: NodeId,
        tick: u64,
        delays: &mut dyn DelayStrategy,
    ) {
        // Most handler invocations send nothing (e.g. an already-awake flood
        // node ignoring a duplicate) — skip everything for an empty outbox.
        if entries.is_empty() {
            return;
        }
        let obs_full = self.obs.level == crate::obs::ObsLevel::Full;
        let (inline, relabeled) = (self.plan.k == 1, self.rel.is_some());
        // Counts, bit sums, and the send-histogram run stay in registers
        // across the outbox (every entry shares the sender and the dispatch
        // `tick`); one update per outbox keeps struct-field
        // read-modify-writes off the loop-carried path.
        let sent = entries.len() as u64;
        let (mut sum_bits, mut max_bits) = (0u64, 0usize);
        let mut send_run = self.send_run;
        let of = self
            .rel
            .map_or(from, |rel| NodeId::new(rel.to_orig(from.index())));
        for (port, r) in entries.drain(..) {
            let slot = self.tables.slot(from, port);
            let hot = self.tables.edge_hot[slot];
            let to = hot.to as usize;
            // The delay strategy is part of the oblivious adversary: it
            // must see original ids regardless of the execution space.
            let ot = self
                .rel
                .map_or(NodeId::new(to), |rel| NodeId::new(rel.to_orig(to)));
            let bits = self.sc.arena.bits(r);
            if let Some(log) = self.audit.as_mut() {
                log.record_send(tick, of, ot, bits, r);
            }
            sum_bits += bits as u64;
            max_bits = max_bits.max(bits);
            let ls = slot - self.edge_base;
            if self.config.track_ports {
                self.sm.ports.set(ls);
            }
            let seq = self.channel_seq[ls];
            let delay = delays
                .delay_ticks(of, ot, tick, seq)
                .clamp(1, TICKS_PER_UNIT);
            self.channel_seq[ls] = seq + 1;
            // FIFO per channel: never deliver before an earlier message on
            // the same channel; equal ticks keep send order because bucket
            // insertion order is send order.
            let deliver = (tick + delay).max(self.channel_next[ls]);
            self.channel_next[ls] = deliver;
            // One packed compare per message covers both send histograms;
            // per-message `record` calls would put six memory
            // read-modify-writes on the loop-carried path and blow the
            // obs_overhead budget.
            if obs_full {
                send_run.note(
                    &mut self.obs.message_bits,
                    &mut self.obs.delay_ticks,
                    bits as u64,
                    deliver - tick,
                );
            }
            // The receiver-side port is the paper's port_to(to, from),
            // precomputed per directed edge.
            let key = if relabeled {
                crate::network::pack_entry_key(deliver - tick, self.phase, of.index() as u32)
            } else {
                from.index() as u32
            };
            if inline {
                // The enqueue-time payload handle rides the wheel untouched.
                let entry = DeliverEntry {
                    to: hot.to,
                    from: key,
                    rport: hot.rport,
                    msg: r,
                };
                self.bufs.wheel.push(tick, deliver, entry);
                continue;
            }
            let dst = self.plan.shard_of(to);
            let payload = CrossPayload::stage(r, dst == self.me, &mut self.sc.arena);
            self.staged_min = self.staged_min.min(deliver);
            self.sc.stage[dst * crate::shard::PHASES + self.phase as usize].push(CrossMsg {
                deliver,
                to: hot.to,
                from: key,
                rport: hot.rport,
                payload,
            });
        }
        self.send_run = send_run;
        self.sm.messages_sent += sent;
        self.sm.bits_sent += sum_bits;
        self.sm.max_message_bits = self.sm.max_message_bits.max(max_bits);
        self.nodes.sent_by[from.index() - self.lo] += sent;
        self.obs.sends += sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversarialDelay, RandomDelay};
    use crate::message::Payload;
    use crate::protocol::NodeInit;
    use wakeup_graph::generators;

    #[derive(Debug, Clone)]
    struct Token(u32);
    impl Payload for Token {
        fn size_bits(&self) -> usize {
            32
        }
    }

    /// Floods a token once.
    struct Flood {
        relayed: bool,
    }
    impl AsyncProtocol for Flood {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            Flood { relayed: false }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, _cause: WakeCause) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Token(7));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Token>, _from: Incoming, _msg: Token) {}
    }

    #[test]
    fn flood_wakes_everyone() {
        let net = Network::kt0(generators::path(10).unwrap(), 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&schedule);
        assert!(report.all_awake);
        // Path: every node broadcasts once => sum of degrees = 2m = 18.
        assert_eq!(report.metrics.messages_sent, 18);
        assert!(!report.truncated);
    }

    #[test]
    fn flood_time_matches_awake_distance_under_unit_delay() {
        let net = Network::kt0(generators::path(9).unwrap(), 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&schedule);
        // Wake-up completes after 8 unit hops; last receipt is one more hop
        // (the endpoint's own broadcast echo back).
        assert_eq!(report.metrics.wakeup_time_units(), Some(8.0));
        assert_eq!(report.time_units(), 9.0);
    }

    #[test]
    fn random_delays_still_wake_everyone_and_respect_tau() {
        let net = Network::kt0(generators::erdos_renyi_connected(30, 0.2, 9).unwrap(), 4);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let mut delays = RandomDelay::new(5);
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
            .run_with(&schedule, &mut delays);
        assert!(report.all_awake);
        let rho = wakeup_graph::algo::awake_distance(net.graph(), &[NodeId::new(0)]).unwrap();
        // Flooding under any (0, τ] delays completes within ρ_awk units.
        assert!(report.metrics.wakeup_time_units().unwrap() <= rho as f64 + 1e-9);
    }

    #[test]
    fn adversarial_delays_deterministic() {
        let net = Network::kt0(generators::cycle(12).unwrap(), 4);
        let schedule = WakeSchedule::single(NodeId::new(3));
        let run = |salt| {
            let mut delays = AdversarialDelay::new(salt);
            AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
                .run_with(&schedule, &mut delays)
                .metrics
                .last_receipt_tick
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn congest_violation_panics_by_default() {
        #[derive(Debug, Clone)]
        struct Big;
        impl Payload for Big {
            fn size_bits(&self) -> usize {
                1_000_000
            }
        }
        struct Shout;
        impl AsyncProtocol for Shout {
            type Msg = Big;
            fn init(_: &NodeInit<'_>) -> Self {
                Shout
            }
            fn on_wake(&mut self, ctx: &mut Context<'_, Big>, _cause: WakeCause) {
                ctx.broadcast(Big);
            }
            fn on_message(&mut self, _: &mut Context<'_, Big>, _: Incoming, _: Big) {}
        }
        let net = Network::kt0(generators::path(3).unwrap(), 0);
        let config = AsyncConfig {
            channel: ChannelModel::congest_for(3),
            ..AsyncConfig::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            AsyncEngine::<Shout>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn congest_violation_recordable() {
        #[derive(Debug, Clone)]
        struct Big;
        impl Payload for Big {
            fn size_bits(&self) -> usize {
                1_000_000
            }
        }
        struct Shout;
        impl AsyncProtocol for Shout {
            type Msg = Big;
            fn init(_: &NodeInit<'_>) -> Self {
                Shout
            }
            fn on_wake(&mut self, ctx: &mut Context<'_, Big>, _cause: WakeCause) {
                ctx.broadcast(Big);
            }
            fn on_message(&mut self, _: &mut Context<'_, Big>, _: Incoming, _: Big) {}
        }
        let net = Network::kt0(generators::path(3).unwrap(), 0);
        let config = AsyncConfig {
            channel: ChannelModel::congest_for(3),
            record_congest_violations: true,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Shout>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.metrics.congest_violations > 0);
    }

    #[test]
    fn empty_schedule_nobody_wakes() {
        let net = Network::kt0(generators::path(5).unwrap(), 0);
        let report =
            AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&WakeSchedule::default());
        assert!(!report.all_awake);
        assert_eq!(report.metrics.awake_count(), 0);
        assert_eq!(report.metrics.messages_sent, 0);
    }

    #[test]
    fn port_tracking_counts_distinct_ports() {
        let net = Network::kt0(generators::star(6).unwrap(), 2);
        let config = AsyncConfig {
            track_ports: true,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        // The hub broadcasts on all 5 ports and receives back on all 5.
        let ports = report.metrics.ports_used.as_ref().expect("tracking was on");
        assert_eq!(ports[0], 5);
        for &leaf_ports in &ports[1..6] {
            assert_eq!(leaf_ports, 1);
        }
    }

    #[test]
    fn port_tracking_off_reports_untracked() {
        let net = Network::kt0(generators::star(6).unwrap(), 2);
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        assert_eq!(report.metrics.ports_used, None);
    }

    #[test]
    fn obs_records_histograms_and_critical_path_on_a_path_flood() {
        // Flood down a path: the causal wake chain is exactly the path, so
        // the critical path has n-1 hops and spans wakeup_time_units() τ.
        let net = Network::kt0(generators::path(10).unwrap(), 3);
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        let cp = report.critical_path();
        assert_eq!(cp.hops, 9);
        assert_eq!(cp.tau, report.metrics.wakeup_time_units().unwrap());
        assert_eq!(cp.root, Some(NodeId::new(0)));
        assert_eq!(cp.end, Some(NodeId::new(9)));
        assert!(cp.tau <= report.time_units() + 1e-9);
        // Every send was recorded in the histograms.
        assert_eq!(
            report.obs.message_bits.count(),
            report.metrics.messages_sent
        );
        assert_eq!(report.obs.delay_ticks.count(), report.metrics.messages_sent);
        // Unit delays: every delay is exactly τ ticks.
        assert_eq!(report.obs.delay_ticks.max_value(), TICKS_PER_UNIT);
        assert_eq!(
            report.obs.delay_ticks.sum(),
            report.metrics.messages_sent * TICKS_PER_UNIT
        );
        // Every node woke, so the wake-latency histogram has n entries.
        assert_eq!(report.obs.wake_latency(&report.metrics).count(), 10);
        // Events = 1 schedule wake + every delivery (message wakes ride
        // their waking delivery's event).
        assert_eq!(report.obs.events, 1 + report.metrics.messages_sent);
        // Chain reconstruction returns the whole path, in order.
        let chain = report.obs.critical_chain(&report.metrics);
        assert_eq!(chain, (0..10).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn obs_counters_level_skips_distributions() {
        let net = Network::kt0(generators::path(6).unwrap(), 3);
        let config = AsyncConfig {
            obs: crate::obs::ObsLevel::Counters,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.all_awake);
        assert!(report.obs.delay_ticks.is_empty());
        assert!(report.obs.wake_latency(&report.metrics).is_empty());
        assert_eq!(report.critical_path().hops, 0);
    }

    /// Echoes grow without bound; exercises the event cap.
    struct PingPong;
    impl AsyncProtocol for PingPong {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            PingPong
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, _cause: WakeCause) {
            ctx.broadcast(Token(0));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Token>, from: Incoming, msg: Token) {
            ctx.send(from.port, Token(msg.0 + 1));
        }
    }

    #[test]
    fn event_cap_truncates_runaway_protocols() {
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let config = AsyncConfig {
            max_events: 100,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<PingPong>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.truncated);
    }

    /// Sends two messages along one channel and records arrival order.
    #[derive(Debug, Clone)]
    struct Seq(u32);
    impl Payload for Seq {
        fn size_bits(&self) -> usize {
            32
        }
    }
    struct FifoProbe {
        got: Vec<u32>,
        is_sender: bool,
    }
    impl AsyncProtocol for FifoProbe {
        type Msg = Seq;
        fn init(init: &NodeInit<'_>) -> Self {
            FifoProbe {
                got: Vec::new(),
                is_sender: init.id == 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Seq>, _cause: WakeCause) {
            if self.is_sender {
                for i in 0..20 {
                    ctx.send(Port::new(1), Seq(i));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Seq>, _: Incoming, msg: Seq) {
            self.got.push(msg.0);
            if msg.0 == 19 {
                // Report a checksum of the arrival order: it is only 19*20/2
                // positions-correct if FIFO held; encode first inversion.
                let ordered = self.got.windows(2).all(|w| w[0] < w[1]);
                ctx.output(u64::from(ordered));
            }
        }
    }

    #[test]
    fn fifo_holds_under_random_delays() {
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        for seed in 0..10 {
            let mut delays = RandomDelay::new(seed);
            let report = AsyncEngine::<FifoProbe>::new(&net, AsyncConfig::default())
                .run_with(&WakeSchedule::single(NodeId::new(0)), &mut delays);
            assert_eq!(report.outputs[1], Some(1), "FIFO violated for seed {seed}");
        }
    }

    /// Picks strictly decreasing per-channel delays, so without the FIFO
    /// clamp every later message would overtake the first, and the clamp
    /// collapses all of them onto one delivery tick — the worst case for
    /// same-tick ordering.
    struct DecreasingDelay;
    impl DelayStrategy for DecreasingDelay {
        fn delay_ticks(&mut self, _: NodeId, _: NodeId, _: u64, seq: u64) -> u64 {
            TICKS_PER_UNIT.saturating_sub(seq * 100)
        }
    }

    #[test]
    fn fifo_clamp_keeps_send_order_on_same_tick_ties() {
        // All 20 sends clamp to the first message's delivery tick: they land
        // in a single wheel bucket — one batched delivery — and must come
        // out in send order.
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let report = AsyncEngine::<FifoProbe>::new(&net, AsyncConfig::default())
            .run_with(&WakeSchedule::single(NodeId::new(0)), &mut DecreasingDelay);
        assert_eq!(
            report.outputs[1],
            Some(1),
            "same-tick ties broke send order"
        );
        // The clamp really did collapse the ticks: every delivery landed on
        // the first message's tick (wake tick 0 + τ).
        assert_eq!(report.metrics.last_receipt_tick, Some(TICKS_PER_UNIT));
    }

    /// A protocol that overrides the async batch hook, recording how many
    /// messages each handler call saw.
    struct BatchProbe {
        batches: Vec<usize>,
        is_sender: bool,
    }
    impl AsyncProtocol for BatchProbe {
        type Msg = Seq;
        fn init(init: &NodeInit<'_>) -> Self {
            BatchProbe {
                batches: Vec::new(),
                is_sender: init.id == 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Seq>, _cause: WakeCause) {
            if self.is_sender {
                for i in 0..6 {
                    ctx.send(Port::new(1), Seq(i));
                }
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Seq>, _: Incoming, _: Seq) {
            unreachable!("the engine must call on_messages_batch, not on_message");
        }
        fn on_messages_batch(&mut self, ctx: &mut Context<'_, Seq>, inbox: &mut Inbox<'_, Seq>) {
            self.batches.push(inbox.len());
            let mut last = None;
            while let Some((_, msg)) = inbox.next() {
                last = Some(msg.0);
            }
            if last == Some(5) {
                ctx.output(self.batches.iter().map(|&b| b as u64).sum());
            }
        }
    }

    /// Byte-identity of the exchange: `k > 1` runs against the one-shard
    /// run, across shard counts that divide the nodes evenly, raggedly, and
    /// with empty trailing shards.
    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let net = Network::kt0(generators::erdos_renyi_connected(37, 0.15, 11).unwrap(), 11);
        let all: Vec<NodeId> = (0..37).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.5);
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                ..AsyncConfig::default()
            };
            let mut delays = AdversarialDelay::new(7);
            AsyncEngine::<Flood>::new(&net, config).run_with(&schedule, &mut delays)
        };
        let serial = run(1);
        for shards in [2, 3, 4, 64] {
            let sharded = run(shards);
            assert_eq!(sharded.obs.runtime.shards as usize, shards.min(37));
            assert_eq!(serial.metrics, sharded.metrics, "shards={shards}");
            assert_eq!(serial.all_awake, sharded.all_awake);
            assert_eq!(serial.outputs, sharded.outputs);
            assert_eq!(serial.truncated, sharded.truncated);
            let a = crate::obs::ObsSnapshot::of(&serial);
            let b = crate::obs::ObsSnapshot::of(&sharded);
            assert_eq!(a.to_json(), b.to_json(), "shards={shards}");
            assert_eq!(a.to_prometheus(), b.to_prometheus(), "shards={shards}");
        }
    }

    /// An unforkable (history-dependent) delay strategy runs on one shard
    /// whatever the request, records why, and gives the same output.
    #[test]
    fn random_delays_run_on_one_shard_under_sharding() {
        let net = Network::kt0(generators::erdos_renyi_connected(20, 0.2, 3).unwrap(), 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                ..AsyncConfig::default()
            };
            let mut delays = RandomDelay::new(99);
            AsyncEngine::<Flood>::new(&net, config).run_with(&schedule, &mut delays)
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.metrics, four.metrics);
        let a = crate::obs::ObsSnapshot::of(&one);
        let b = crate::obs::ObsSnapshot::of(&four);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(
            (one.obs.runtime.shards, one.obs.runtime.shard_fallback),
            (1, None)
        );
        let rt = &four.obs.runtime;
        assert_eq!(rt.shards, 1);
        assert_eq!(rt.shards_requested, 4);
        assert_eq!(rt.shard_fallback, Some(ShardFallback::UnforkableDelays));
    }

    /// Audit recording keeps a run on one shard and records the reason: a
    /// run asked for 4 shards produces the exact audit log bytes of a
    /// one-shard run.
    #[test]
    fn audit_log_is_identical_at_one_and_four_shards() {
        let net = Network::kt0(generators::erdos_renyi_connected(30, 0.15, 5).unwrap(), 5);
        let all: Vec<NodeId> = (0..30).step_by(7).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 0.5);
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                audit_capacity: Some(1 << 14),
                ..AsyncConfig::default()
            };
            let mut delays = AdversarialDelay::new(3);
            AsyncEngine::<Flood>::new(&net, config).run_with(&schedule, &mut delays)
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(four.obs.runtime.shard_fallback, Some(ShardFallback::Audit));
        let (a, b) = (one.audit_log.unwrap(), four.audit_log.unwrap());
        assert!(!a.events().is_empty());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    /// Recording a run's events falls back to one shard: a single-source
    /// flood asked for 4 shards runs on 1 and records the same events.
    #[test]
    fn trace_recording_runs_on_one_shard() {
        let net = Network::kt0(generators::erdos_renyi_connected(20, 0.2, 3).unwrap(), 3);
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                audit_capacity: Some(1 << 12),
                ..AsyncConfig::default()
            };
            AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        };
        let (one, four) = (run(1), run(4));
        let rt = &four.obs.runtime;
        assert_eq!((rt.shards, rt.shards_requested), (1, 4));
        assert_eq!(rt.shard_fallback, Some(ShardFallback::Audit));
        let (a, b) = (one.audit_log.unwrap(), four.audit_log.unwrap());
        assert!(!a.events().is_empty());
        assert_eq!(a.events(), b.events());
    }

    /// Port tracking is shard-local: shards 1 and 3 count the same ports,
    /// and tracking no longer forces one shard.
    #[test]
    fn port_tracking_is_shard_invariant() {
        let net = Network::kt0(generators::erdos_renyi_connected(37, 0.15, 11).unwrap(), 11);
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                track_ports: true,
                ..AsyncConfig::default()
            };
            let mut delays = AdversarialDelay::new(7);
            AsyncEngine::<Flood>::new(&net, config)
                .run_with(&WakeSchedule::single(NodeId::new(5)), &mut delays)
        };
        let (one, three) = (run(1), run(3));
        assert_eq!(three.obs.runtime.shards, 3);
        assert!(one.metrics.ports_used.is_some());
        assert_eq!(one.metrics.ports_used, three.metrics.ports_used);
        assert_eq!(one.metrics, three.metrics);
        // No edges, no slots to mark: tracking still reports zero ports.
        let net = Network::kt0(wakeup_graph::Graph::empty(4), 1);
        let config = AsyncConfig {
            shards: 2,
            track_ports: true,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert_eq!(report.metrics.ports_used, Some(vec![0; 4]));
    }

    /// The event cap truncates at the same boundary at any shard count.
    #[test]
    fn event_cap_truncation_is_shard_invariant() {
        let net = Network::kt0(generators::path(4).unwrap(), 0);
        let run = |shards: usize| {
            let config = AsyncConfig {
                max_events: 100,
                shards,
                ..AsyncConfig::default()
            };
            AsyncEngine::<PingPong>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        };
        let (serial, sharded) = (run(1), run(2));
        assert!(serial.truncated && sharded.truncated);
        assert_eq!(serial.metrics, sharded.metrics);
        assert_eq!(serial.obs.events, sharded.obs.events);
    }

    /// Exercises every output surface the relabeled engine must translate
    /// back to original ids: outputs keyed by node, phase labels (span
    /// keys!), wake causality, and per-node traffic counters.
    struct PhasedFlood {
        relayed: bool,
        seen: u64,
    }
    impl AsyncProtocol for PhasedFlood {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            PhasedFlood {
                relayed: false,
                seen: 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, _cause: WakeCause) {
            ctx.phase("wake");
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Token(ctx.node().index() as u32));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: Incoming, msg: Token) {
            ctx.phase("relay");
            self.seen += u64::from(msg.0) + 1;
            ctx.output(self.seen * 1000 + ctx.node().index() as u64);
        }
    }

    /// The tentpole contract: a relabeled run (the default for eligible
    /// networks) is byte-identical to an identity-space run of the same
    /// workload — metrics, outputs, and both observability serializations —
    /// at one shard and at three. The delay adversary is oblivious (keyed on
    /// original ids), so its choices cannot depend on the internal order.
    #[test]
    fn relabeled_run_is_byte_identical_to_identity_run() {
        let g = generators::erdos_renyi_connected(41, 0.12, 13).unwrap();
        let relabeled = Network::kt0(g.clone(), 5);
        relabeled.force_relabel();
        assert!(
            relabeled.run_space().is_some(),
            "fixture must actually relabel"
        );
        let identity = Network::kt0(g, 5);
        identity.disable_relabel();
        let all: Vec<NodeId> = (0..41).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.7);
        let run = |net: &Network, shards: usize| {
            let config = AsyncConfig {
                shards,
                ..AsyncConfig::default()
            };
            let mut delays = AdversarialDelay::new(23);
            AsyncEngine::<PhasedFlood>::new(net, config).run_with(&schedule, &mut delays)
        };
        for shards in [1, 3] {
            let a = run(&relabeled, shards);
            let b = run(&identity, shards);
            assert_eq!(a.metrics, b.metrics, "shards={shards}");
            assert_eq!(a.outputs, b.outputs, "shards={shards}");
            assert_eq!(a.all_awake, b.all_awake);
            assert_eq!(a.truncated, b.truncated);
            let sa = crate::obs::ObsSnapshot::of(&a);
            let sb = crate::obs::ObsSnapshot::of(&b);
            assert_eq!(sa.to_json(), sb.to_json(), "shards={shards}");
            assert_eq!(sa.to_prometheus(), sb.to_prometheus(), "shards={shards}");
        }
    }

    #[test]
    fn same_tick_same_receiver_deliveries_arrive_as_one_batch() {
        // Unit delay: all 6 sends from the wake handler share one send tick
        // and one channel, so the FIFO clamp collapses them onto consecutive
        // ticks... with UnitDelay all get delay τ from the same tick, hence
        // the same delivery tick and one bucket run: a single batch of 6.
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let (report, states) = AsyncEngine::<BatchProbe>::new(&net, AsyncConfig::default())
            .run_into_parts(&WakeSchedule::single(NodeId::new(0)), &mut UnitDelay);
        assert_eq!(report.outputs[1], Some(6));
        assert_eq!(states[1].batches, vec![6]);
    }

    /// Checks `group_by_receiver` against the reference stable sort by
    /// receiver on random buckets (shard offset `lo`, receivers drawn with
    /// repeats from `[lo, lo + nodes)`), then the relabeled
    /// per-receiver re-sort against the reference `(to, from)` sort with
    /// packed keys. Each entry's `rport` is its bucket position, so the
    /// comparison sees stability, not just membership.
    #[test]
    fn grouping_matches_a_stable_sort_by_receiver() {
        let msg = PayloadArena::<()>::default().insert_with_bits((), 0);
        let mut rng = wakeup_graph::rng::Xoshiro256::seed_from(17);
        let mut below = |k: u64| rng.next_u64() % k;
        let (mut counts, mut touched, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for case in 0..200u64 {
            let lo = below(50) as usize;
            let nodes = 1 + below(if case % 2 == 0 { 8 } else { 300 }) as usize;
            let len = below(400) as usize;
            let bucket: Vec<DeliverEntry> = (0..len)
                .map(|i| DeliverEntry {
                    to: (lo + below(nodes as u64) as usize) as u32,
                    from: crate::network::pack_entry_key(
                        1 + below(TICKS_PER_UNIT),
                        below(2) as u8,
                        below(1 << 20) as u32,
                    ),
                    rport: i as u32,
                    msg,
                })
                .collect();
            counts.clear();
            counts.resize(nodes, 0u32);
            group_by_receiver(&bucket, lo, &mut counts, &mut touched, &mut out);
            let fields = |es: &[DeliverEntry]| -> Vec<(u32, u32, u32)> {
                es.iter().map(|e| (e.to, e.from, e.rport)).collect()
            };
            let mut reference = bucket.clone();
            reference.sort_by_key(|e| e.to);
            assert_eq!(fields(&out), fields(&reference), "case {case}");
            let mut receivers: Vec<u32> = bucket.iter().map(|e| e.to).collect();
            receivers.sort_unstable();
            receivers.dedup();
            assert_eq!(touched, receivers, "case {case}");
            // Walk the runs as the engine does, re-sorting each by packed key.
            let mut start = 0;
            for &to in &touched {
                let end = std::mem::take(&mut counts[to as usize - lo]) as usize;
                assert!(start < end && out[start..end].iter().all(|e| e.to == to));
                out[start..end].sort_by_key(|e| e.from);
                start = end;
            }
            assert_eq!(start, len);
            assert!(counts.iter().all(|&c| c == 0), "case {case}");
            reference.sort_by_key(|e| (e.to, e.from));
            assert_eq!(fields(&out), fields(&reference), "case {case}");
            touched.clear();
            out.clear();
        }
    }

    /// Records each delivery batch as its sender list, and the receivers in
    /// handler-call order (per test thread; the one-shard engine runs
    /// inline). Adversary-woken nodes broadcast their own index once.
    struct GroupProbe {
        batches: Vec<Vec<u32>>,
    }
    thread_local! {
        static BATCH_CALLS: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    impl AsyncProtocol for GroupProbe {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            GroupProbe {
                batches: Vec::new(),
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, cause: WakeCause) {
            if cause == WakeCause::Adversary {
                ctx.broadcast(Token(ctx.node().index() as u32));
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Token>, _: Incoming, _: Token) {
            unreachable!("the engine must call on_messages_batch, not on_message");
        }
        fn on_messages_batch(
            &mut self,
            ctx: &mut Context<'_, Token>,
            inbox: &mut Inbox<'_, Token>,
        ) {
            BATCH_CALLS.with(|c| c.borrow_mut().push(ctx.node().index() as u32));
            let mut senders = Vec::new();
            while let Some((_, Token(s))) = inbox.next() {
                senders.push(s);
            }
            self.batches.push(senders);
        }
    }

    /// Runs `GroupProbe` and returns the final states and the receivers in
    /// batch-call order.
    fn group_probe(
        net: &Network,
        schedule: &WakeSchedule,
    ) -> (RunReport, Vec<GroupProbe>, Vec<u32>) {
        BATCH_CALLS.with(|c| c.borrow_mut().clear());
        let (report, states) = AsyncEngine::<GroupProbe>::new(net, AsyncConfig::default())
            .run_into_parts(schedule, &mut UnitDelay);
        (report, states, BATCH_CALLS.with(|c| c.take()))
    }

    /// One tick whose bucket interleaves receivers — A→x, B→y, C→x, in
    /// send order — delivers one batch `[A, C]` to x, then one batch `[B]`
    /// to y.
    #[test]
    fn interleaved_bucket_delivers_one_batch_per_receiver() {
        let (a, b, c, x, y) = (0, 1, 2, 3, 4);
        let g = wakeup_graph::Graph::from_edges(5, &[(a, x), (b, y), (c, x)]).unwrap();
        let net = Network::kt0(g, 1);
        let senders: Vec<NodeId> = [a, b, c].map(NodeId::new).to_vec();
        let (report, states, calls) = group_probe(&net, &WakeSchedule::all_at_zero(&senders));
        assert!(report.all_awake);
        assert_eq!(states[x].batches, vec![vec![a as u32, c as u32]]);
        assert_eq!(states[y].batches, vec![vec![b as u32]]);
        assert_eq!(calls, vec![x as u32, y as u32]);
    }

    /// A tick holding only an adversary wake has an empty bucket: it
    /// delivers nothing, and the deliveries before and after it are
    /// unaffected.
    #[test]
    fn wake_only_tick_delivers_nothing() {
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let half = TICKS_PER_UNIT / 2;
        let schedule = WakeSchedule::from_pairs(&[(NodeId::new(0), 0.0), (NodeId::new(1), 0.5)]);
        let (report, states, calls) = group_probe(&net, &schedule);
        assert_eq!(report.metrics.wake_tick, vec![Some(0), Some(half)]);
        assert_eq!(report.metrics.messages_sent, 2);
        // Two schedule wakes and two deliveries, at ticks τ and τ + τ/2.
        assert_eq!(report.obs.events, 4);
        assert_eq!(
            report.metrics.last_receipt_tick,
            Some(TICKS_PER_UNIT + half)
        );
        assert_eq!(states[1].batches, vec![vec![0]]);
        assert_eq!(states[0].batches, vec![vec![1]]);
        assert_eq!(calls, vec![1, 0]);
    }
}
