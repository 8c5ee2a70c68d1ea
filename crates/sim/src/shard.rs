//! The shard worker infrastructure shared by both engines.
//!
//! Each engine has one executor, its shard worker (`AsyncShard`,
//! `SyncShard`), which advances a **contiguous node range** one window at a
//! time (a tick for the async engine, a round for the sync engine). A run
//! with `k = 1` drives its single worker inline on the calling thread:
//! sends go straight into the worker's own queue, and there is no thread,
//! barrier, or mailbox. A run with `k > 1` adds the exchange layer below.
//!
//! The paper's τ-normalized delay bound gives the simulator a *conservative
//! lookahead*: no message enqueued at tick `t` can be delivered before
//! `t + 1`, so once every shard agrees on the next event tick, each shard
//! can process that whole tick against its own state without observing the
//! others mid-tick. The exchange is a bulk-synchronous loop:
//!
//! 1. each worker processes the current window over its owned nodes,
//!    staging every send into per-`(destination shard, phase)` buffers;
//! 2. workers swap their staged batches into the `Cells` mailboxes and
//!    publish their local progress, then meet the coordinator at a barrier;
//! 3. the coordinator reads the publications, picks the next window (or
//!    stops), and releases the workers through a second barrier;
//! 4. workers drain the mailboxes — phase-major, then source-shard-major —
//!    and go to 1.
//!
//! **Determinism.** Shards own contiguous ascending node ranges, and each
//! worker processes its actors in ascending id order within each phase, so
//! the drain order `(phase, source shard, staging order)` reproduces the
//! `k = 1` worker's `(phase, actor id, send order)` sequence exactly. Every
//! merged artifact (histograms, the causal wake forest, phase spans,
//! metrics) is therefore byte-identical at any shard count — enforced by
//! the `k = 1` vs `k > 1` differential tests and the CI 1-vs-4-shard
//! snapshot diffs.

use std::sync::Mutex;

use wakeup_graph::{NodeId, Relabeling};

use crate::adversary::WakeSchedule;
use crate::arena::{PayloadArena, PayloadRef};
use crate::audit::AuditLog;
use crate::bits::DenseBits;
use crate::metrics::{Metrics, RunReport};
use crate::network::NodeTables;
use crate::obs::{ObsLevel, ShardObs};

/// Largest shard count a run uses. The exchange keeps `k × k × PHASES`
/// mailboxes plus `k × PHASES` stage buffers per worker, so the request is
/// clamped here (`ShardPlan`) and rejected beyond it by the scenario
/// parser, instead of letting an oversized request allocate ~k² mutexes.
pub const MAX_SHARDS: usize = 256;

/// Why a run used fewer shards than its config requested. Recorded in
/// [`crate::RuntimeCounters::shard_fallback`]; the output is the same at any
/// shard count, so each of these only costs parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFallback {
    /// Audit recording: the audit log is one chronological event stream.
    Audit,
    /// The network has fewer nodes than the requested shard count.
    NBelowK,
    /// The request exceeds [`MAX_SHARDS`].
    MaxShards,
}

impl ShardFallback {
    /// The reason's stable name in the diagnostic export.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardFallback::Audit => "audit",
            ShardFallback::NBelowK => "n_below_k",
            ShardFallback::MaxShards => "max_shards",
        }
    }
}

/// Engine phases per window whose sends must stay ordered relative to each
/// other: wake handlers (0) and delivery/step handlers (1).
pub(crate) const PHASES: usize = 2;

/// Deterministic partition of `n` nodes into `k` contiguous ascending
/// ranges of `chunk = ceil(n / k)` nodes (trailing shards may be short or
/// empty — harmless, their workers idle at the barriers).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardPlan {
    /// Number of shards (clamped into `[1, min(n, MAX_SHARDS)]`).
    pub(crate) k: usize,
    chunk: usize,
    n: usize,
}

impl ShardPlan {
    /// Plans `shards` shards over `n` nodes, clamping to at most one shard
    /// per node and at most [`MAX_SHARDS`] shards.
    pub(crate) fn new(n: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, n.clamp(1, MAX_SHARDS));
        ShardPlan {
            k,
            chunk: n.div_ceil(k).max(1),
            n,
        }
    }

    /// The half-open node range `[lo, hi)` owned by shard `s`.
    pub(crate) fn range(&self, s: usize) -> (usize, usize) {
        let lo = (s * self.chunk).min(self.n);
        let hi = ((s + 1) * self.chunk).min(self.n);
        (lo, hi)
    }

    /// Each shard's node count, ascending shard order.
    pub(crate) fn node_lens(self) -> impl Iterator<Item = usize> + Clone {
        (0..self.k).map(move |s| {
            let (lo, hi) = self.range(s);
            hi - lo
        })
    }

    /// The shard owning node `v`.
    #[inline]
    pub(crate) fn shard_of(&self, v: usize) -> usize {
        v / self.chunk
    }
}

/// The storage a run *grows*, per worker: the async wheel's slots and
/// spare grouping buffer, the grouping's counts and receiver list, the sync
/// in-flight queue and wake lists, and the outbox handles lent to handlers.
/// None of it depends on the protocol's message type, so one value serves
/// every engine over a network: the [`crate::Network`] keeps it in a
/// [`RunBuffersSlot`], each run takes it at start and puts it back at end,
/// and the next engine starts from that capacity instead of growing the
/// storage again (and faulting it back in after the allocator returned it
/// to the OS).
///
/// Arrays sized exactly at run start and zeroed every run are not kept
/// here: the channel arrays and sync wake flags stay in the engine (a
/// fresh engine allocates them once, a `reset` loop re-zeroes them), and
/// [`RunArrays`] moves into each run's report. Keeping the channel arrays
/// on the network would hold large blocks across engines, which the
/// allocator's dynamic thresholds otherwise account for.
#[derive(Default)]
pub(crate) struct RunBuffers {
    /// One per async worker; grown or cut to the run's shard count.
    pub(crate) async_workers: Vec<crate::async_engine::AsyncBuffers>,
    /// One per sync worker; grown or cut to the run's shard count.
    pub(crate) sync_workers: Vec<crate::sync_engine::SyncBuffers>,
}

/// A network's kept [`RunBuffers`]: empty until a run puts its buffers
/// back. A run that finds it empty (the network's first run, or one that
/// overlaps another run on the same network) starts from
/// [`RunBuffers::default`]. A clone starts empty, so two network values
/// never share storage.
#[derive(Default)]
pub(crate) struct RunBuffersSlot(Mutex<Option<RunBuffers>>);

impl RunBuffersSlot {
    /// Takes the kept buffers, or default ones when the slot is empty (no
    /// run has finished yet, or another run holds them), and whether they
    /// were kept ones (reported as
    /// [`crate::RuntimeCounters::run_buffers_reused`]).
    pub(crate) fn take(&self) -> (RunBuffers, bool) {
        let kept = self.lock().take();
        let reused = kept.is_some();
        (kept.unwrap_or_default(), reused)
    }

    /// Keeps `bufs` for the next run, dropping whatever another run put
    /// back in the meantime.
    pub(crate) fn put(&self, bufs: RunBuffers) {
        let replaced = self.lock().replace(bufs);
        // Freed outside the lock.
        drop(replaced);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<RunBuffers>> {
        // Nothing panics while the lock is held; a poisoned lock still
        // guards a whole value.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Clone for RunBuffersSlot {
    fn clone(&self) -> RunBuffersSlot {
        RunBuffersSlot::default()
    }
}

impl std::fmt::Debug for RunBuffersSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RunBuffersSlot")
    }
}

/// A message queued for delivery to one of a worker's nodes: a small
/// `Copy` struct, payload behind a handle into the worker's arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliverEntry {
    pub(crate) to: u32,
    /// Identity runs: the sender's node index. Relabeled runs: a packed
    /// sort key (async: `(τ − delay, phase, orig sender)` from
    /// [`crate::network::pack_entry_key`]; sync: `(phase, orig sender)`) —
    /// a stable ascending sort of a receiver's batch by this key restores
    /// the identity-space order, and masking with
    /// [`crate::network::FROM_IDX_MASK`] recovers the original sender
    /// index. Identity runs mask with `u32::MAX`, so one masked load serves
    /// both.
    pub(crate) from: u32,
    /// Receiver-side port (the paper's `port_to(to, from)`, 1-based),
    /// resolved from the directed-edge index at send time.
    pub(crate) rport: u32,
    pub(crate) msg: PayloadRef,
}

/// A staged cross-window message payload: a handle into the shard's own
/// arena when sender and receiver share a shard (no payload traffic at
/// all), or the materialized payload plus its precomputed bit size when it
/// crosses shards (the receiver re-inserts it into its own arena).
pub(crate) enum CrossPayload<M> {
    /// Same-shard: the enqueue-time arena handle rides through unchanged.
    Local(PayloadRef),
    /// Cross-shard: the payload itself, with its `size_bits()`.
    Remote(M, usize),
}

impl<M: Clone> CrossPayload<M> {
    /// Stages handle `r` from the sending shard's `arena`: the handle itself
    /// when the receiver shares the shard, else the payload taken out.
    pub(crate) fn stage(r: PayloadRef, same_shard: bool, arena: &mut PayloadArena<M>) -> Self {
        if same_shard {
            CrossPayload::Local(r)
        } else {
            let bits = arena.bits(r);
            CrossPayload::Remote(arena.take(r), bits)
        }
    }

    /// The handle to deliver from, in the receiving shard's `arena`.
    pub(crate) fn into_ref(self, arena: &mut PayloadArena<M>) -> PayloadRef {
        match self {
            CrossPayload::Local(r) => r,
            CrossPayload::Remote(msg, bits) => arena.insert_with_bits(msg, bits),
        }
    }
}

/// The `k × k × PHASES` mailboxes; a shard's sends to itself pass through
/// its own diagonal cells. Cell `(src, dst, phase)` is written by exactly
/// one producer (shard `src` swaps its staged batch in at publish time)
/// and drained by exactly one consumer (shard `dst`, at the start of the
/// next window), with the two accesses separated by a barrier — the mutexes are never contended and exist to keep the crate
/// `forbid(unsafe_code)`-clean. Swapping whole vectors in both directions
/// circulates capacity between producer and consumer, so steady-state
/// windows allocate nothing.
pub(crate) struct Cells<T> {
    cells: Vec<Mutex<Vec<T>>>,
    k: usize,
}

impl<T> Cells<T> {
    /// Fresh empty mailboxes for `k` shards.
    pub(crate) fn new(k: usize) -> Cells<T> {
        Cells {
            cells: (0..k * k * PHASES)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            k,
        }
    }

    #[inline]
    fn idx(&self, src: usize, dst: usize, phase: usize) -> usize {
        (src * self.k + dst) * PHASES + phase
    }

    /// Swaps `buf` (the producer's staged batch) into the cell, handing the
    /// cell's previous — drained, empty but capacity-bearing — vector back.
    pub(crate) fn publish(&self, src: usize, dst: usize, phase: usize, buf: &mut Vec<T>) {
        let mut cell = self.cells[self.idx(src, dst, phase)].lock().unwrap();
        debug_assert!(cell.is_empty(), "cross-shard cell published before drain");
        std::mem::swap(&mut *cell, buf);
    }

    /// Swaps the cell's content into `into` (the consumer's empty scratch),
    /// leaving the consumer's capacity behind for the next publish.
    pub(crate) fn drain(&self, src: usize, dst: usize, phase: usize, into: &mut Vec<T>) {
        debug_assert!(into.is_empty(), "drain target must start empty");
        let mut cell = self.cells[self.idx(src, dst, phase)].lock().unwrap();
        std::mem::swap(&mut *cell, into);
    }
}

/// Shard-local scalar metrics and port marks, merged into the run's
/// [`Metrics`] after the workers finish (the per-node vectors need no
/// merging at all — each worker writes its owned slice of the real arrays
/// in place).
#[derive(Default)]
pub(crate) struct ShardMetrics {
    pub(crate) messages_sent: u64,
    pub(crate) bits_sent: u64,
    pub(crate) max_message_bits: usize,
    pub(crate) congest_violations: u64,
    pub(crate) first_wake_tick: Option<u64>,
    pub(crate) last_receipt_tick: Option<u64>,
    pub(crate) awake_count: usize,
    /// Directed-edge slots a message was sent or received over, indexed by
    /// slot − the shard's first slot; empty unless ports are tracked. A
    /// send marks the sender's slot and a delivery the receiver's, and both
    /// lie in the owning shard's contiguous slot range.
    pub(crate) ports: DenseBits,
}

impl ShardMetrics {
    /// Fresh metrics for a shard owning `slots` directed-edge slots.
    pub(crate) fn new(track_ports: bool, slots: usize) -> ShardMetrics {
        ShardMetrics {
            ports: if track_ports {
                DenseBits::new(slots)
            } else {
                DenseBits::default()
            },
            ..ShardMetrics::default()
        }
    }

    /// Folds this shard's scalars into the run-global metrics.
    pub(crate) fn merge_into(&self, metrics: &mut Metrics) {
        metrics.messages_sent += self.messages_sent;
        metrics.bits_sent += self.bits_sent;
        metrics.max_message_bits = metrics.max_message_bits.max(self.max_message_bits);
        metrics.congest_violations += self.congest_violations;
        if let Some(t) = self.first_wake_tick {
            metrics.first_wake_tick = Some(metrics.first_wake_tick.map_or(t, |m| m.min(t)));
        }
        if let Some(t) = self.last_receipt_tick {
            metrics.last_receipt_tick = Some(metrics.last_receipt_tick.map_or(t, |m| m.max(t)));
        }
    }
}

/// The run-global per-node arrays the workers write in place through
/// disjoint per-shard slices.
pub(crate) struct RunArrays {
    metrics: Metrics,
    outputs: Vec<Option<u64>>,
    awake: Vec<bool>,
}

/// One shard's slices of [`RunArrays`] and of the protocol states.
pub(crate) struct NodeSlices<'a, P> {
    pub(crate) protocols: &'a mut [P],
    pub(crate) outputs: &'a mut [Option<u64>],
    pub(crate) awake: &'a mut [bool],
    pub(crate) wake_tick: &'a mut [Option<u64>],
    pub(crate) sent_by: &'a mut [u64],
    pub(crate) received_by: &'a mut [u64],
}

impl RunArrays {
    pub(crate) fn new(n: usize) -> RunArrays {
        RunArrays {
            metrics: Metrics::new(n),
            outputs: vec![None; n],
            awake: vec![false; n],
        }
    }

    /// Splits the arrays and `protocols` along the plan's node ranges.
    pub(crate) fn split<'a, P>(
        &'a mut self,
        protocols: &'a mut [P],
        plan: &ShardPlan,
    ) -> impl Iterator<Item = NodeSlices<'a, P>> {
        let lens = plan.node_lens();
        let m = &mut self.metrics;
        split_lengths(protocols, lens.clone())
            .zip(split_lengths(&mut self.outputs, lens.clone()))
            .zip(split_lengths(&mut self.awake, lens.clone()))
            .zip(split_lengths(&mut m.wake_tick, lens.clone()))
            .zip(split_lengths(&mut m.sent_by, lens.clone()))
            .zip(split_lengths(&mut m.received_by, lens))
            .map(
                |(((((protocols, outputs), awake), wake_tick), sent_by), received_by)| NodeSlices {
                    protocols,
                    outputs,
                    awake,
                    wake_tick,
                    sent_by,
                    received_by,
                },
            )
    }
}

/// Everything one worker hands back when its run ends.
pub(crate) struct WorkerOut {
    pub(crate) sm: ShardMetrics,
    pub(crate) obs: ShardObs,
    /// The audit log, which forces `k = 1` ([`ShardFallback::Audit`]), so
    /// only a lone worker ever carries one.
    pub(crate) audit: Option<AuditLog>,
}

/// Run-level totals tallied across windows by the inline loop or the
/// exchange coordinator.
#[derive(Default)]
pub(crate) struct RunTally {
    pub(crate) events: u64,
    pub(crate) rounds: u64,
    pub(crate) truncated: bool,
    pub(crate) stall_rounds: u64,
}

/// One run's executor decision and the id space it runs in.
pub(crate) struct RunPlan<'a> {
    pub(crate) shards: ShardPlan,
    requested: usize,
    fallback: Option<ShardFallback>,
    /// `Some` iff the run executes in the locality-ordered run space.
    pub(crate) rel: Option<&'a Relabeling>,
    /// The tables of the run's id space.
    pub(crate) tables: &'a NodeTables,
}

impl<'a> RunPlan<'a> {
    /// Plans a run over `n` nodes: `requested` shards unless `forced`
    /// names a reason the run must use one, clamped by [`ShardPlan::new`].
    pub(crate) fn new(
        n: usize,
        requested: usize,
        forced: Option<ShardFallback>,
        rel: Option<&'a Relabeling>,
        tables: &'a NodeTables,
    ) -> RunPlan<'a> {
        let (shards, fallback) = match forced {
            Some(reason) if requested > 1 => (ShardPlan::new(n, 1), Some(reason)),
            _ => {
                let plan = ShardPlan::new(n, requested);
                let fallback = match plan.k {
                    k if k >= requested => None,
                    k if k == n.max(1) => Some(ShardFallback::NBelowK),
                    _ => Some(ShardFallback::MaxShards),
                };
                (plan, fallback)
            }
        };
        RunPlan {
            shards,
            requested,
            fallback,
            rel,
            tables,
        }
    }

    /// Extracts the original sender index from a queued message's `from`
    /// field: relabeled runs store a packed sort key there, identity runs
    /// the plain index (one masked load serves both).
    pub(crate) fn sender_mask(&self) -> u32 {
        if self.rel.is_some() {
            crate::network::FROM_IDX_MASK
        } else {
            u32::MAX
        }
    }

    /// The schedule's wakes in canonical `(tick / unit, node id)` order —
    /// run ids when relabeled — split into each shard's own list.
    pub(crate) fn wakes(&self, schedule: &WakeSchedule, unit: u64) -> Vec<Vec<(u64, NodeId)>> {
        let mut all: Vec<(u64, NodeId)> = schedule
            .entries()
            .iter()
            .map(|&(tick, v)| {
                let v = self.rel.map_or(v, |rel| NodeId::new(rel.to_run(v.index())));
                (tick / unit, v)
            })
            .collect();
        all.sort_unstable();
        if self.shards.k == 1 {
            return vec![all];
        }
        let mut per = vec![Vec::new(); self.shards.k];
        for w in all {
            per[self.shards.shard_of(w.1.index())].push(w);
        }
        per
    }

    /// Assembles the run's report: folds the workers' scalars and port
    /// marks into `arrays`, merges their observers, records the executor
    /// decision, and maps run ids back to original ids.
    pub(crate) fn report(
        &self,
        arrays: RunArrays,
        outs: Vec<WorkerOut>,
        tally: RunTally,
        level: ObsLevel,
        track_ports: bool,
    ) -> RunReport {
        let RunArrays {
            mut metrics,
            outputs,
            awake: _,
        } = arrays;
        let n = outputs.len();
        let mut awake_total = 0usize;
        let mut obs_shards = Vec::with_capacity(outs.len());
        let mut audit_log = None;
        let mut ports = Vec::with_capacity(if track_ports { n } else { 0 });
        for (s, out) in outs.into_iter().enumerate() {
            out.sm.merge_into(&mut metrics);
            awake_total += out.sm.awake_count;
            if track_ports {
                let (lo, hi) = self.shards.range(s);
                let offs = &self.tables.edge_offset;
                ports.extend((lo..hi).map(|v| {
                    let (a, b) = (offs[v] - offs[lo], offs[v + 1] - offs[lo]);
                    out.sm.ports.count_range(a, b) as u32
                }));
            }
            obs_shards.push(out.obs);
            if s == 0 {
                audit_log = out.audit;
            }
        }
        if track_ports {
            metrics.ports_used = Some(ports);
        }
        let all_awake = awake_total == n;
        if all_awake {
            // The last wake is the all-awake moment.
            metrics.all_awake_tick = metrics.wake_tick.iter().filter_map(|&t| t).max();
        }
        let mut obs = crate::obs::merge_shard_obs(n, level, obs_shards);
        obs.events = tally.events;
        obs.runtime.shards_requested = self.requested as u32;
        obs.runtime.shard_fallback = self.fallback;
        obs.runtime.stall_rounds = tally.stall_rounds;
        obs.runtime.prefetch_batches = obs.batch_sizes.count();
        obs.runtime.relabel_applied = self.rel.is_some();
        crate::obs::add_global_events(tally.events);
        let mut report = RunReport {
            all_awake,
            rounds: tally.rounds,
            outputs,
            truncated: tally.truncated,
            metrics,
            obs,
            audit_log,
        };
        if let Some(rel) = self.rel {
            crate::network::unpermute_report(rel, &mut report);
        }
        report
    }
}

/// A shard worker as the exchange drives it at `k > 1`.
pub(crate) trait Worker: Send {
    /// A message staged for another shard (or this one) across a window.
    type Cross: Send;
    /// The progress summary the coordinator folds each window.
    type Progress: Copy + Send;
    /// Summarizes progress since the last call.
    fn progress(&mut self) -> Self::Progress;
    /// The `k × PHASES` stage buffers, `(destination shard, phase)`-major.
    fn stage(&mut self) -> &mut [Vec<Self::Cross>];
    /// Takes in (and empties) one drained batch of staged messages.
    fn ingest(&mut self, batch: &mut Vec<Self::Cross>);
    /// Processes window `w` (a tick or a round).
    fn window(&mut self, w: u64);
    /// Flushes run-end accumulators.
    fn finish(&mut self);
}

/// Drives `workers` on scoped threads through the two-barrier window loop
/// (see the module docs). `decide` folds one window's progress summaries,
/// in shard order, into the next window — `u64::MAX` stops the run.
///
/// Each window: workers meet the coordinator (its read of the previous
/// publications happens between the two waits), drain the mailboxes filled
/// last window, learn the decided window, process it, and stage + publish.
/// Publications and mailbox swaps are always separated from their readers
/// by a barrier, so every access is race-free.
pub(crate) fn exchange<W: Worker>(
    workers: &mut [W],
    mut decide: impl FnMut(&[W::Progress]) -> u64,
) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let k = workers.len();
    let cells: Cells<W::Cross> = Cells::new(k);
    let slots: Vec<Mutex<Option<W::Progress>>> = (0..k).map(|_| Mutex::new(None)).collect();
    let barrier = std::sync::Barrier::new(k + 1);
    let decision = AtomicU64::new(0);
    let (cells, slots, barrier, decision) = (&cells, &slots, &barrier, &decision);
    std::thread::scope(|scope| {
        for (me, w) in workers.iter_mut().enumerate() {
            scope.spawn(move || {
                let mut drained = Vec::new();
                *slots[me].lock().expect("no worker panicked") = Some(w.progress());
                loop {
                    barrier.wait();
                    // Phase-major, then source-shard-major: the `k = 1`
                    // worker's send order (see the module docs).
                    for phase in 0..PHASES {
                        for src in 0..k {
                            cells.drain(src, me, phase, &mut drained);
                            w.ingest(&mut drained);
                        }
                    }
                    barrier.wait();
                    let now = decision.load(Ordering::Relaxed);
                    if now == u64::MAX {
                        break;
                    }
                    w.window(now);
                    for (i, buf) in w.stage().iter_mut().enumerate() {
                        if !buf.is_empty() {
                            cells.publish(me, i / PHASES, i % PHASES, buf);
                        }
                    }
                    *slots[me].lock().expect("no worker panicked") = Some(w.progress());
                }
                w.finish();
            });
        }
        let mut progress = Vec::with_capacity(k);
        loop {
            barrier.wait();
            progress.clear();
            progress.extend(slots.iter().map(|s| {
                s.lock()
                    .expect("no worker panicked")
                    .expect("every worker publishes before the first barrier")
            }));
            let next = decide(&progress);
            decision.store(next, Ordering::Relaxed);
            barrier.wait();
            if next == u64::MAX {
                break;
            }
        }
    });
}

/// Splits `rest` into consecutive chunks of the given lengths (the unsized
/// tail is dropped). The standard `split_at_mut` fold — safe disjoint
/// ownership of per-shard slices, mirroring `NodeTables`' parallel build.
pub(crate) fn split_lengths<T>(
    mut rest: &mut [T],
    lengths: impl IntoIterator<Item = usize>,
) -> impl Iterator<Item = &mut [T]> {
    lengths.into_iter().map(move |len| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_clamped_to_max_shards() {
        let n = 4 * MAX_SHARDS;
        assert_eq!(ShardPlan::new(n, MAX_SHARDS).k, MAX_SHARDS);
        assert_eq!(ShardPlan::new(n, MAX_SHARDS + 1).k, MAX_SHARDS);
        // The fallback names whichever bound clamped the request.
        let net = crate::Network::kt0(wakeup_graph::generators::path(n).unwrap(), 0);
        let plan = |n: usize, requested: usize| {
            let p = RunPlan::new(n, requested, None, None, net.tables());
            (p.shards.k, p.fallback)
        };
        assert_eq!(plan(n, MAX_SHARDS), (MAX_SHARDS, None));
        assert_eq!(
            plan(n, MAX_SHARDS + 1),
            (MAX_SHARDS, Some(ShardFallback::MaxShards))
        );
        assert_eq!(plan(3, 4), (3, Some(ShardFallback::NBelowK)));
        let forced = RunPlan::new(n, 4, Some(ShardFallback::Audit), None, net.tables());
        assert_eq!(
            (forced.shards.k, forced.fallback),
            (1, Some(ShardFallback::Audit))
        );
    }

    #[test]
    fn plan_covers_all_nodes_contiguously() {
        for n in [1usize, 2, 5, 7, 64, 1000] {
            for k in [1usize, 2, 3, 4, 9, 2000] {
                let plan = ShardPlan::new(n, k);
                assert!(plan.k >= 1 && plan.k <= n.max(1));
                let mut next = 0usize;
                for s in 0..plan.k {
                    let (lo, hi) = plan.range(s);
                    assert_eq!(lo, next.min(lo.max(next)));
                    assert!(lo <= hi);
                    next = hi;
                    for v in lo..hi {
                        assert_eq!(plan.shard_of(v), s, "n={n} k={k} v={v}");
                    }
                }
                assert_eq!(next, n, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn cells_swap_capacity_both_ways() {
        let cells: Cells<u32> = Cells::new(2);
        let mut buf = vec![1, 2, 3];
        cells.publish(0, 1, 0, &mut buf);
        assert!(buf.is_empty());
        let mut got = Vec::new();
        cells.drain(0, 1, 0, &mut got);
        assert_eq!(got, vec![1, 2, 3]);
        // The untouched cell drains empty.
        let mut empty = Vec::new();
        cells.drain(1, 0, 1, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn split_lengths_partitions() {
        let mut data = [0u8; 10];
        let lens: Vec<usize> = split_lengths(&mut data, [3, 0, 7])
            .map(|p| p.len())
            .collect();
        assert_eq!(lens, [3, 0, 7]);
    }
}
