//! Always-on, low-overhead observability: counters, log2-bucketed
//! histograms, protocol phase spans, and causal wake-up tracing.
//!
//! Unlike the opt-in [`crate::audit::AuditLog`] (per-event
//! model-conformance log), the obs layer is enabled by default: every
//! [`crate::RunReport`] carries an [`Obs`] with distribution-level data the
//! end-of-run totals in [`crate::Metrics`] cannot express — where the delay
//! mass sits, how large delivery batches get, how long each node slept past
//! the first wake, and *which causal chain of deliveries* made the run as
//! long as it was.
//!
//! # Hot-path discipline
//!
//! Everything recorded per event is O(1), branch-light, and allocation-free:
//! histograms are fixed 65-bucket arrays indexed by `64 - leading_zeros`,
//! wake predecessors are one store into a pre-sized vector, and phase spans
//! only ever grow by the number of *distinct* labels (a handful). The async
//! engine's innermost loops don't even touch the histograms per message:
//! `ValueRun` and `PairRun` accumulate runs of identical values in two
//! locals and spill a whole run at once, and the wake-latency histogram is
//! derived on demand from [`crate::Metrics::wake_tick`] rather than recorded
//! during the run. The only per-run allocations are the same order as
//! [`crate::Metrics`]'s own vectors. `bench/src/bin/obs_overhead.rs` enforces
//! a <3% events/s budget for [`ObsLevel::Full`] versus the
//! [`ObsLevel::Counters`] baseline, and `alloc_smoke` covers the obs paths.
//!
//! # Causal critical path
//!
//! When a sleeping node is woken by a message, the engines record the sender
//! of the delivery that did it as the node's wake predecessor (the waking
//! tick is already the node's own [`crate::Metrics::wake_tick`]). Adversary
//! wakes have no predecessor and form the roots of the **wake-up causal
//! forest**.
//! Because a message is always sent strictly before it is delivered, every
//! predecessor woke strictly earlier than its successor, so the relation is
//! acyclic and [`Obs::critical_path`] can reconstruct the longest root-to-leaf
//! chain in one pass over nodes in wake order. The chain's length in hops and
//! its elapsed time in τ units are an empirical witness for the paper's
//! time-complexity accounting; by construction the τ length never exceeds
//! [`crate::Metrics::time_units`] (tested property).

use wakeup_graph::NodeId;

use crate::metrics::{Metrics, TICKS_PER_UNIT};

mod snapshot;
mod timeline;

pub use snapshot::{
    HistSnapshot, InternalsSnapshot, ObsSnapshot, PhaseSnapshot, TimelineSnapshot, WindowRow,
};
pub use timeline::{Timeline, WindowCfg, WindowDelta, MAX_LINEAR_WINDOWS};

/// How much the engines record into [`Obs`] during a run.
///
/// The default is [`ObsLevel::Full`] — observability is always on.
/// [`ObsLevel::Counters`] exists as the baseline for the overhead bench: it
/// skips the per-event histogram updates and causal predecessor stores, so
/// the measured difference *is* the cost of full observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// Plain [`Metrics`] counters only; histograms and wake predecessors
    /// stay empty.
    Counters,
    /// Histograms, phase spans, and causal wake tracing (the default).
    #[default]
    Full,
}

/// A log2-bucketed histogram over `u64` values with O(1), allocation-free
/// recording.
///
/// Bucket convention: bucket 0 counts exact zeros; bucket `i ≥ 1` counts
/// values `v` with `ilog2(v) == i - 1`, i.e. the half-open range
/// `[2^(i-1), 2^i)`. The bucket index of `v` is `64 - v.leading_zeros()`,
/// one subtraction on the hot path.
#[derive(Clone)]
pub struct Hist64 {
    buckets: [u64; 65],
    sum: u64,
    max: u64,
}

impl Default for Hist64 {
    fn default() -> Hist64 {
        Hist64 {
            buckets: [0; 65],
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Hist64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist64")
            .field("count", &self.count())
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("nonempty_buckets", &self.iter_nonempty().count())
            .finish()
    }
}

impl Hist64 {
    /// Records one value. Deliberately minimal — a bucket increment, a
    /// wrapping sum, and a branchless max — because the sync engine calls
    /// this per message and `obs_overhead` holds the total to <3% (the async
    /// hot path goes further and batches runs via `ValueRun`/`PairRun`).
    /// The total count is derived from the buckets at read time, and the sum
    /// wraps rather than saturates (indistinguishable below 2^54 events;
    /// never aborts either way in release builds).
    #[inline(always)]
    pub fn record(&mut self, value: u64) {
        let b = (64 - value.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values (derived: the buckets partition all inputs).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 if empty).
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&c| c == 0)
    }

    /// Records `count` occurrences of the same `value` at once — exactly
    /// equivalent to `count` [`Hist64::record`] calls (no-op when
    /// `count == 0`, so a never-advanced run accumulator flushes for free).
    #[inline]
    pub(crate) fn add_run(&mut self, value: u64, count: u64) {
        if count > 0 {
            let b = (64 - value.leading_zeros()) as usize;
            self.buckets[b] += count;
            self.sum = self.sum.wrapping_add(value.wrapping_mul(count));
            self.max = self.max.max(value);
        }
    }

    /// Folds another histogram into this one — exactly equivalent to having
    /// recorded the other histogram's inputs here (bucket-wise addition, a
    /// wrapping sum, a max). Because a `Hist64` is a pure function of the
    /// *multiset* of recorded values, merging per-shard histograms in any
    /// order reproduces the one-shard histogram byte for byte.
    pub(crate) fn merge(&mut self, other: &Hist64) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Count in bucket `i` (see the type-level bucket convention).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Inclusive lower bound of bucket `i`'s value range.
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Inclusive upper bound of bucket `i`'s value range.
    pub fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Renders the non-empty buckets as right-aligned ASCII bars, one line
    /// per bucket — the display examples and the CLI use.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, c) in self.iter_nonempty() {
            let bar = (c as u128 * width as u128).div_ceil(peak as u128) as usize;
            let range = if i == 0 {
                "0".to_string()
            } else {
                format!("{}..{}", Self::bucket_lo(i), Self::bucket_hi(i))
            };
            out.push_str(&format!(
                "  {range:>22} | {:<width$} {c}\n",
                "#".repeat(bar.min(width)),
            ));
        }
        out
    }
}

/// Register-resident run-length accumulator for one [`Hist64`], used by the
/// engines' innermost loops.
///
/// Calling [`Hist64::record`] per observation costs three memory
/// read-modify-writes whose loop-carried dependency chains dominate the
/// observability overhead (`obs_overhead` holds it to <3%). `ValueRun`
/// instead counts the current *run* of identical values in two plain locals
/// the compiler keeps in registers, spilling to the histogram (via
/// [`Hist64::add_run`], which is exact — a run holds one repeated value)
/// only when the value changes and once at [`ValueRun::flush`]. Consecutive
/// repeats — the overwhelmingly common case for batch sizes and clamped
/// delays — cost one compare and one register increment, no memory traffic.
#[derive(Clone, Copy)]
pub(crate) struct ValueRun {
    value: u64,
    run: u64,
}

impl ValueRun {
    pub(crate) fn new() -> ValueRun {
        ValueRun { value: 0, run: 0 }
    }

    /// Accumulates one value, spilling the previous run to `h` if `value`
    /// starts a new one.
    #[inline(always)]
    pub(crate) fn note(&mut self, h: &mut Hist64, value: u64) {
        if value != self.value {
            h.add_run(self.value, self.run);
            self.value = value;
            self.run = 0;
        }
        self.run += 1;
    }

    /// Spills the pending run into `h`.
    #[inline]
    pub(crate) fn flush(self, h: &mut Hist64) {
        h.add_run(self.value, self.run);
    }
}

/// As [`ValueRun`], but tracking a *pair* of values feeding two histograms
/// with a single packed comparison — the async send path records (payload
/// bits, delivery delay) per message, and both repeat together (same-format
/// payloads under a constant or clamped delay), so one compare covers both.
///
/// The pair is packed as `hi << 11 | lo`; `lo` must stay below 2^11 (the
/// engine's delay clamp guarantees `delay ∈ [1, τ = 1024]`) and `hi` below
/// 2^53 (debug-asserted; a payload that large is unrepresentable anyway).
#[derive(Clone, Copy)]
pub(crate) struct PairRun {
    key: u64,
    run: u64,
}

const PAIR_LO_BITS: u32 = 11;
const PAIR_LO_MASK: u64 = (1 << PAIR_LO_BITS) - 1;

impl PairRun {
    pub(crate) fn new() -> PairRun {
        PairRun { key: 0, run: 0 }
    }

    /// Accumulates one `(hi, lo)` pair, spilling the previous run if the
    /// pair changed.
    #[inline(always)]
    pub(crate) fn note(&mut self, hi_hist: &mut Hist64, lo_hist: &mut Hist64, hi: u64, lo: u64) {
        debug_assert!(lo <= PAIR_LO_MASK && hi < (1 << (64 - PAIR_LO_BITS)));
        let key = (hi << PAIR_LO_BITS) | lo;
        if key != self.key {
            self.spill(hi_hist, lo_hist);
            self.key = key;
        }
        self.run += 1;
    }

    #[inline]
    fn spill(&mut self, hi_hist: &mut Hist64, lo_hist: &mut Hist64) {
        hi_hist.add_run(self.key >> PAIR_LO_BITS, self.run);
        lo_hist.add_run(self.key & PAIR_LO_MASK, self.run);
        self.run = 0;
    }

    /// Spills the pending run into both histograms.
    #[inline]
    pub(crate) fn flush(mut self, hi_hist: &mut Hist64, lo_hist: &mut Hist64) {
        self.spill(hi_hist, lo_hist);
    }
}

/// One named protocol phase: how many times it was entered and the tick span
/// it covered.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase label (static so recording never allocates).
    pub label: &'static str,
    /// Number of [`crate::Context::phase`] calls with this label.
    pub enters: u64,
    /// Tick of the first enter.
    pub first_tick: u64,
    /// Tick of the last enter.
    pub last_tick: u64,
}

/// Phase span accumulator: a tiny label-keyed table (linear scan — the label
/// set is a handful of `&'static str`s, so a map would be slower).
///
/// In relabeled runs (see `network::RunSpace`) handlers execute in *run*
/// order, which permutes actors within a `(tick, phase)` segment, so the
/// first-entered order of labels can differ from the identity run's. The
/// engines then enable canonical-key tracking: before each handler they call
/// `PhaseSpans::set_handler` with the **original** actor id, `enter` keeps
/// the minimal `SpanKey` per label, and `PhaseSpans::finish_key_order`
/// re-sorts the table into the identity run's first-entered order.
#[derive(Debug, Clone, Default)]
pub struct PhaseSpans {
    spans: Vec<PhaseSpan>,
    /// Canonical minimal first-enter key per span (parallel to `spans`);
    /// populated only while key tracking is active.
    keys: Vec<SpanKey>,
    /// Current handler's `(tick, engine phase, original actor)` while key
    /// tracking is active; `None` (the default) disables tracking entirely.
    cur: Option<(u64, u8, u32)>,
    /// Monotone tie-breaker ordering labels first entered by one handler.
    seq: u32,
}

impl PhaseSpans {
    /// Records an entry into the phase `label` at `tick`.
    #[inline]
    pub fn enter(&mut self, label: &'static str, tick: u64) {
        for (i, s) in self.spans.iter_mut().enumerate() {
            if std::ptr::eq(s.label, label) || s.label == label {
                s.enters += 1;
                s.last_tick = tick;
                if let Some((t, p, a)) = self.cur {
                    if let Some(k) = self.keys.get_mut(i) {
                        if (t, p, a) < (k.0, k.1, k.2) {
                            *k = (t, p, a, self.seq);
                            self.seq += 1;
                        }
                    }
                }
                return;
            }
        }
        self.spans.push(PhaseSpan {
            label,
            enters: 1,
            first_tick: tick,
            last_tick: tick,
        });
        if let Some((t, p, a)) = self.cur {
            self.keys.push((t, p, a, self.seq));
            self.seq += 1;
        }
    }

    /// Marks the handler about to run (relabeled runs only): subsequent
    /// `enter` calls are attributed to `(tick, phase, actor)` with `actor`
    /// the **original** node index. The first call also switches canonical
    /// key tracking on for the whole run.
    #[inline(always)]
    pub(crate) fn set_handler(&mut self, tick: u64, phase: u8, actor: u32) {
        self.cur = Some((tick, phase, actor));
    }

    /// Ends key tracking and re-sorts the spans into the identity run's
    /// first-entered order (ascending canonical key). No-op if tracking was
    /// never switched on.
    pub(crate) fn finish_key_order(&mut self) {
        if self.cur.take().is_none() {
            return;
        }
        let keys = std::mem::take(&mut self.keys);
        debug_assert_eq!(keys.len(), self.spans.len());
        let mut pairs: Vec<(SpanKey, PhaseSpan)> =
            keys.into_iter().zip(self.spans.drain(..)).collect();
        pairs.sort_by_key(|&(k, _)| k);
        self.spans = pairs.into_iter().map(|(_, s)| s).collect();
    }

    /// Hands out the tracked canonical keys (relabeled sharded runs adopt
    /// them as the shard's [`SpanKey`]s in place of tail-stamping) and ends
    /// tracking.
    pub(crate) fn take_keys(&mut self) -> Vec<SpanKey> {
        self.cur = None;
        std::mem::take(&mut self.keys)
    }

    /// The recorded spans, in first-entered order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Whether no phase was ever entered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Sentinel for "no wake predecessor recorded" in [`Obs::wake_pred`]'s flat
/// array. A `u32` per node (rather than an `Option` of a struct) keeps the
/// hot-path store to one word; the waking delivery's tick is *not* stored —
/// it is by definition the node's own [`Metrics::wake_tick`].
const NO_PRED: u32 = u32::MAX;

/// The longest root-to-leaf chain of the wake-up causal forest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CriticalPath {
    /// Number of waking deliveries on the chain (0 = the run's longest chain
    /// is a lone adversary wake, or nobody woke at all).
    pub hops: u64,
    /// Elapsed time along the chain in τ units: from the root's (adversary)
    /// wake to the leaf's message wake.
    pub tau: f64,
    /// The chain's leaf — the last node on the critical path.
    pub end: Option<NodeId>,
    /// The chain's root — the adversary-woken node it started from.
    pub root: Option<NodeId>,
}

/// Machine- and configuration-dependent engine internals recorded alongside
/// a run: shard progress/imbalance, timer-wheel scan depth, payload-arena
/// high-water, prefetch batching, relabel usage, and whether the run's
/// grown storage was kept from an earlier run.
///
/// These are *diagnostics*, deliberately excluded from the deterministic
/// schema-4 [`ObsSnapshot::to_json`]/[`ObsSnapshot::to_prometheus`]
/// renderings (which CI byte-diffs across `WAKEUP_THREADS` and shard
/// counts): a 4-shard run legitimately has four arenas and four
/// wheels, so these values depend on the executor layout. They are exported
/// only by [`ObsSnapshot::to_json_diag`], and `wakeup obs diff` treats them
/// as tolerance-class fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Executor shards the run actually used (1 = the worker ran inline).
    pub shards: u32,
    /// Events processed per shard, ascending shard index.
    pub shard_events: Vec<u64>,
    /// Messages dispatched per shard, ascending shard index.
    pub shard_sends: Vec<u64>,
    /// Largest timer-wheel forward scan (ticks skipped in one
    /// `next_occupied_after` advance), max across shards.
    pub wheel_max_scan: u64,
    /// Payload-arena high-water mark in slots, summed across shards.
    pub arena_high_water: u64,
    /// Delivery batches handed to prefetched handler runs.
    pub prefetch_batches: u64,
    /// Windows in which no shard processed any event (pure
    /// horizon-advance stalls; sync runs count rounds entered without
    /// traffic).
    pub stall_rounds: u64,
    /// Whether a bake-time locality relabeling was active for this run.
    pub relabel_applied: bool,
    /// Shards the run's config requested.
    pub shards_requested: u32,
    /// Why the run used fewer shards than requested (`None` when it used
    /// as many as requested).
    pub shard_fallback: Option<crate::shard::ShardFallback>,
    /// Whether the run started from the storage an earlier run on the same
    /// network kept (timer-wheel slots, grouping and outbox buffers), rather
    /// than growing its own: `false` for a network's first run, for runs
    /// on a clone, and for a run that overlaps another on the same network.
    pub run_buffers_reused: bool,
}

/// Per-run observability data carried by every [`crate::RunReport`].
#[derive(Debug, Clone)]
pub struct Obs {
    level: ObsLevel,
    /// Scheduled delivery latencies (delivery tick − send tick), per message.
    pub delay_ticks: Hist64,
    /// Sizes of per-node delivery batches (async: one wheel-bucket run; sync:
    /// one round inbox).
    pub batch_sizes: Hist64,
    /// Payload sizes in bits, per message.
    pub message_bits: Hist64,
    /// Protocol phase spans recorded via [`crate::Context::phase`].
    pub phases: PhaseSpans,
    /// Events the engine processed this run (wakes + deliveries for the
    /// async engine; deliveries + wakes for the sync engine).
    pub events: u64,
    /// Deterministic windowed time series (empty at [`ObsLevel::Counters`]).
    pub timeline: Timeline,
    /// Machine/config-dependent internals (diag export only).
    pub runtime: RuntimeCounters,
    /// For each node woken by a message: the sender of the delivery that did
    /// it ([`NO_PRED`] for adversary-woken or never-woken nodes). The waking
    /// delivery's tick is the node's own [`Metrics::wake_tick`].
    wake_pred: Vec<u32>,
}

impl Obs {
    /// Fresh per-run accumulator over `n` nodes with default (log2) windows.
    pub fn new(n: usize, level: ObsLevel) -> Obs {
        Obs::with_windows(n, level, WindowCfg::default())
    }

    /// Fresh per-run accumulator with an explicit timeline window spacing.
    pub fn with_windows(n: usize, level: ObsLevel, windows: WindowCfg) -> Obs {
        Obs {
            level,
            delay_ticks: Hist64::default(),
            batch_sizes: Hist64::default(),
            message_bits: Hist64::default(),
            phases: PhaseSpans::default(),
            events: 0,
            timeline: Timeline::new(windows),
            runtime: RuntimeCounters::default(),
            wake_pred: vec![NO_PRED; n],
        }
    }

    /// The recording level this accumulator was created with.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Takes the raw predecessor array out (relabeled runs index it by *run*
    /// id during execution and inverse-permute it back to original ids at
    /// the run boundary; the stored *values* are always original ids).
    pub(crate) fn take_wake_pred(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.wake_pred)
    }

    /// Restores a predecessor array taken by [`Obs::take_wake_pred`].
    pub(crate) fn set_wake_pred(&mut self, v: Vec<u32>) {
        self.wake_pred = v;
    }

    /// Per-node wake latency (ticks past the first adversary wake), built on
    /// demand from [`Metrics::wake_tick`] — pure post-processing of data the
    /// engine already records, so the timed event loop pays nothing for it.
    /// Empty at [`ObsLevel::Counters`] or if nobody woke.
    pub fn wake_latency(&self, metrics: &Metrics) -> Hist64 {
        let mut h = Hist64::default();
        if self.level == ObsLevel::Full {
            if let Some(first) = metrics.first_wake_tick {
                for t in metrics.wake_tick.iter().flatten() {
                    h.record(t - first);
                }
            }
        }
        h
    }

    /// The node that sent the delivery which woke `v`; `None` for
    /// adversary-woken (or never-woken) nodes. The waking delivery's tick is
    /// `v`'s own [`Metrics::wake_tick`].
    pub fn wake_pred(&self, v: NodeId) -> Option<NodeId> {
        match self.wake_pred[v.index()] {
            NO_PRED => None,
            p => Some(NodeId::new(p as usize)),
        }
    }

    /// Reconstructs the wake-up causal forest and returns its longest chain.
    ///
    /// Nodes are processed in wake-tick order; every recorded predecessor
    /// woke strictly earlier (its send preceded the waking delivery), so one
    /// pass computes each node's depth and root. Ties on hop count break
    /// toward the larger τ span.
    pub fn critical_path(&self, metrics: &Metrics) -> CriticalPath {
        let n = self.wake_pred.len();
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&v| metrics.wake_tick[v as usize].is_some())
            .collect();
        order.sort_by_key(|&v| metrics.wake_tick[v as usize]);
        let mut depth = vec![0u32; n];
        let mut root = vec![u32::MAX; n];
        let mut best = CriticalPath::default();
        for &v in &order {
            let (d, r) = match self.wake_pred[v as usize] {
                NO_PRED => (0, v),
                p => {
                    debug_assert!(metrics.wake_tick[p as usize] < metrics.wake_tick[v as usize]);
                    (depth[p as usize] + 1, root[p as usize])
                }
            };
            depth[v as usize] = d;
            root[v as usize] = r;
            let span =
                metrics.wake_tick[v as usize].unwrap() - metrics.wake_tick[r as usize].unwrap();
            let tau = span as f64 / TICKS_PER_UNIT as f64;
            if best.end.is_none()
                || u64::from(d) > best.hops
                || (u64::from(d) == best.hops && tau > best.tau)
            {
                best = CriticalPath {
                    hops: u64::from(d),
                    tau,
                    end: Some(NodeId::new(v as usize)),
                    root: Some(NodeId::new(r as usize)),
                };
            }
        }
        best
    }

    /// The full node sequence of the critical path, root first (empty if
    /// nobody woke).
    pub fn critical_chain(&self, metrics: &Metrics) -> Vec<NodeId> {
        let best = self.critical_path(metrics);
        let Some(end) = best.end else {
            return Vec::new();
        };
        let mut chain = vec![end];
        let mut cur = end;
        while let Some(p) = self.wake_pred(cur) {
            cur = p;
            chain.push(cur);
        }
        chain.reverse();
        chain
    }
}

/// Canonical position of a phase label's first enter inside a sharded run:
/// `(tick, engine phase, actor, shard-local span index)`. Shard-local
/// processing order is exactly `(tick, phase, actor)`-ascending over owned
/// actors, so sorting merged labels by this key reconstructs the one-shard
/// engine's first-entered order (the trailing index breaks ties between
/// several labels first entered by the *same* handler invocation).
pub(crate) type SpanKey = (u64, u8, u32, u32);

/// The engines' observability recorder, one per shard worker: the three
/// recorded histograms, phase spans with their canonical [`SpanKey`]s, the
/// windowed timeline, and the shard-owned slice of the wake-predecessor
/// array. Merged into the run's [`Obs`] by [`merge_shard_obs`].
pub(crate) struct ShardObs {
    pub(crate) level: ObsLevel,
    pub(crate) delay_ticks: Hist64,
    pub(crate) batch_sizes: Hist64,
    pub(crate) message_bits: Hist64,
    pub(crate) phases: PhaseSpans,
    /// Shard-local windowed timeline; merged additively at the run tail.
    pub(crate) timeline: Timeline,
    /// Events this shard processed (runtime diag; merged into
    /// [`RuntimeCounters::shard_events`]).
    pub(crate) events: u64,
    /// Messages this shard dispatched (runtime diag).
    pub(crate) sends: u64,
    /// Largest timer-wheel forward scan this shard performed (runtime diag).
    pub(crate) wheel_max_scan: u64,
    /// Shard payload-arena high-water mark in slots (runtime diag).
    pub(crate) arena_high_water: u64,
    span_keys: Vec<SpanKey>,
    wake_pred: Vec<u32>,
}

impl ShardObs {
    /// Fresh accumulator for a shard owning `local_n` nodes.
    pub(crate) fn new(local_n: usize, level: ObsLevel, windows: WindowCfg) -> ShardObs {
        ShardObs {
            level,
            delay_ticks: Hist64::default(),
            batch_sizes: Hist64::default(),
            message_bits: Hist64::default(),
            phases: PhaseSpans::default(),
            timeline: Timeline::new(windows),
            events: 0,
            sends: 0,
            wheel_max_scan: 0,
            arena_high_water: 0,
            span_keys: Vec::new(),
            wake_pred: vec![NO_PRED; local_n],
        }
    }

    /// Notes the delivery that may wake shard-local node `local` (first
    /// writer wins; ignored once a predecessor is set or at
    /// [`ObsLevel::Counters`]). The waking tick is not taken — it is the
    /// node's [`Metrics::wake_tick`].
    #[inline]
    pub(crate) fn note_wake_pred(&mut self, local: usize, pred: u32) {
        if self.level == ObsLevel::Full && self.wake_pred[local] == NO_PRED {
            self.wake_pred[local] = pred;
        }
    }

    /// Clears a provisional predecessor — the sync engine notes candidates
    /// while draining traffic, then erases them for nodes the adversary
    /// woke in the same round (adversary wakes take precedence).
    #[inline]
    pub(crate) fn clear_wake_pred(&mut self, local: usize) {
        self.wake_pred[local] = NO_PRED;
    }

    /// One delivery batch of `len` messages handed to a node.
    #[inline]
    pub(crate) fn on_batch(&mut self, len: usize) {
        if self.level == ObsLevel::Full {
            self.batch_sizes.record(len as u64);
        }
    }

    /// Timeline: `count` nodes woke at `tick` (level-gated).
    #[inline(always)]
    pub(crate) fn tl_wakes(&mut self, tick: u64, count: u64) {
        if self.level == ObsLevel::Full {
            self.timeline.note_wakes(tick, count);
        }
    }

    /// Timeline: one tick's (async) or round's (sync) deliveries and sends
    /// with their payload bits (level-gated). All of a window's traffic
    /// happens at its own `tick` — sends at their origin's dispatch tick —
    /// so the engines note the totals once per window, not per message.
    #[inline]
    pub(crate) fn tl_traffic(&mut self, tick: u64, delivered: u64, sends: u64, bits: u64) {
        if self.level == ObsLevel::Full {
            self.timeline.note_delivered(tick, delivered);
            if sends > 0 {
                self.timeline.note_sends(tick, sends, bits);
            }
        }
    }

    /// Notes one timer-wheel forward scan of `scan` ticks (runtime diag;
    /// branchless max).
    #[inline(always)]
    pub(crate) fn note_wheel_scan(&mut self, scan: u64) {
        self.wheel_max_scan = self.wheel_max_scan.max(scan);
    }

    /// Stamps a [`SpanKey`] onto every span the last handler invocation
    /// (`actor` at `tick`, in engine `phase`) entered for the first time.
    /// Call after each handler; spans are append-only, so new spans are
    /// exactly the unstamped tail.
    #[inline]
    pub(crate) fn stamp_new_spans(&mut self, tick: u64, phase: u8, actor: u32) {
        while self.span_keys.len() < self.phases.spans().len() {
            let idx = self.span_keys.len() as u32;
            self.span_keys.push((tick, phase, actor, idx));
        }
    }

    /// Relabeled sharded runs: replaces the tail-stamped keys with the
    /// canonical per-label minimal keys tracked inside [`PhaseSpans`]
    /// (stamped with **original** actor ids via `set_handler`), so the
    /// merge re-sorts labels into the identity run's first-entered order.
    pub(crate) fn adopt_tracked_keys(&mut self) {
        self.span_keys = self.phases.take_keys();
    }
}

/// Merges per-shard observers (ascending shard order, covering node ranges
/// `[0, n)` contiguously) into one [`Obs`] — the same bytes at any shard
/// count. Histograms merge bucket-wise; wake predecessors concatenate;
/// phase spans merge per label and are re-ordered by their canonical
/// minimal [`SpanKey`], recovering the `k = 1` first-entered order.
pub(crate) fn merge_shard_obs(n: usize, level: ObsLevel, mut shards: Vec<ShardObs>) -> Obs {
    let windows = shards.first().map(|s| s.timeline.cfg()).unwrap_or_default();
    let mut obs = Obs::with_windows(0, level, windows);
    obs.runtime.shards = shards.len() as u32;
    // The first shard's predecessor slice becomes the run's array, so a
    // one-shard run moves it instead of copying.
    obs.wake_pred = shards
        .first_mut()
        .map(|s| std::mem::take(&mut s.wake_pred))
        .unwrap_or_default();
    obs.wake_pred.reserve(n - obs.wake_pred.len());
    let mut merged: Vec<(SpanKey, PhaseSpan)> = Vec::new();
    for sh in &shards {
        obs.delay_ticks.merge(&sh.delay_ticks);
        obs.batch_sizes.merge(&sh.batch_sizes);
        obs.message_bits.merge(&sh.message_bits);
        obs.timeline.merge(&sh.timeline);
        obs.runtime.shard_events.push(sh.events);
        obs.runtime.shard_sends.push(sh.sends);
        obs.runtime.wheel_max_scan = obs.runtime.wheel_max_scan.max(sh.wheel_max_scan);
        obs.runtime.arena_high_water += sh.arena_high_water;
        obs.wake_pred.extend_from_slice(&sh.wake_pred);
        for (i, s) in sh.phases.spans().iter().enumerate() {
            let key = sh.span_keys[i];
            match merged
                .iter_mut()
                .find(|(_, m)| std::ptr::eq(m.label, s.label) || m.label == s.label)
            {
                Some((k, m)) => {
                    if key < *k {
                        *k = key;
                    }
                    m.enters += s.enters;
                    m.first_tick = m.first_tick.min(s.first_tick);
                    m.last_tick = m.last_tick.max(s.last_tick);
                }
                None => merged.push((key, s.clone())),
            }
        }
    }
    debug_assert_eq!(
        obs.wake_pred.len(),
        n,
        "shard observers must cover all nodes"
    );
    merged.sort_by_key(|&(k, _)| k);
    obs.phases = PhaseSpans {
        spans: merged.into_iter().map(|(_, s)| s).collect(),
        ..PhaseSpans::default()
    };
    obs
}

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of engine events, fed once per run by both engines.
/// The sweep harness reads it for live events/s progress lines.
static GLOBAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Adds a finished run's event count to the process-wide tally (one relaxed
/// atomic add per run — nothing per event).
pub(crate) fn add_global_events(n: u64) {
    GLOBAL_EVENTS.fetch_add(n, Ordering::Relaxed);
}

/// Total engine events processed by this process so far, across all threads.
pub fn global_events() -> u64 {
    GLOBAL_EVENTS.load(Ordering::Relaxed)
}

/// Most recent timeline window id any recorder in this process rolled into.
/// Fed by [`Timeline`] on window changes — at most ~64 stores per log2 run,
/// nothing per event — and read by the sweep harness's progress lines.
static GLOBAL_WINDOW: AtomicU64 = AtomicU64::new(0);

/// Records a window roll (relaxed store; see [`GLOBAL_WINDOW`]).
pub(crate) fn note_global_window(w: u32) {
    GLOBAL_WINDOW.store(u64::from(w), Ordering::Relaxed);
}

/// The most recent timeline window id rolled into by any run in this
/// process (0 before any window change).
pub fn current_window() -> u64 {
    GLOBAL_WINDOW.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_bucket_convention() {
        let mut h = Hist64::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 2); // 4..7
        assert_eq!(h.bucket(4), 1); // 8..15
        assert_eq!(h.bucket(10), 1); // 512..1023
        assert_eq!(h.bucket(11), 1); // 1024..2047
        assert_eq!(h.bucket(64), 1); // 2^63..
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_value(), u64::MAX);
        assert!(!h.is_empty());
    }

    #[test]
    fn hist_bounds_cover_every_bucket() {
        for i in 0..=64 {
            assert!(Hist64::bucket_lo(i) <= Hist64::bucket_hi(i));
            if (1..64).contains(&i) {
                assert_eq!(Hist64::bucket_hi(i) + 1, Hist64::bucket_lo(i + 1));
            }
        }
        // A value in each bucket's range really maps to that bucket.
        for i in 0..=64usize {
            let mut h = Hist64::default();
            h.record(Hist64::bucket_lo(i));
            assert_eq!(h.bucket(i), 1, "lo bound of bucket {i}");
            let mut h = Hist64::default();
            h.record(Hist64::bucket_hi(i));
            assert_eq!(h.bucket(i), 1, "hi bound of bucket {i}");
        }
    }

    #[test]
    fn phase_spans_accumulate() {
        let mut p = PhaseSpans::default();
        p.enter("sample", 5);
        p.enter("build", 10);
        p.enter("sample", 20);
        assert_eq!(p.spans().len(), 2);
        let s = &p.spans()[0];
        assert_eq!(
            (s.label, s.enters, s.first_tick, s.last_tick),
            ("sample", 2, 5, 20)
        );
    }

    #[test]
    fn critical_path_on_a_hand_built_chain() {
        // 0 --wakes--> 1 --wakes--> 2; node 3 woken by the adversary late.
        let mut m = Metrics::new(4);
        m.wake_tick = vec![
            Some(0),
            Some(TICKS_PER_UNIT),
            Some(2 * TICKS_PER_UNIT),
            Some(5 * TICKS_PER_UNIT),
        ];
        m.first_wake_tick = Some(0);
        let mut sh = ShardObs::new(4, ObsLevel::Full, WindowCfg::default());
        sh.note_wake_pred(1, 0);
        sh.note_wake_pred(2, 1);
        sh.stamp_new_spans(0, 0, 0);
        let obs = merge_shard_obs(4, ObsLevel::Full, vec![sh]);
        let cp = obs.critical_path(&m);
        assert_eq!(cp.hops, 2);
        assert_eq!(cp.tau, 2.0);
        assert_eq!(cp.end, Some(NodeId::new(2)));
        assert_eq!(cp.root, Some(NodeId::new(0)));
        assert_eq!(
            obs.critical_chain(&m),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn counters_level_skips_recording() {
        let mut sh = ShardObs::new(2, ObsLevel::Counters, WindowCfg::default());
        sh.tl_wakes(0, 1);
        sh.tl_traffic(0, 1, 1, 32);
        sh.on_batch(3);
        sh.note_wake_pred(1, 0);
        let obs = merge_shard_obs(2, ObsLevel::Counters, vec![sh]);
        assert!(obs.timeline.is_empty());
        assert!(obs.delay_ticks.is_empty());
        assert!(obs.batch_sizes.is_empty());
        assert!(obs.message_bits.is_empty());
        assert_eq!(obs.wake_pred(NodeId::new(1)), None);
    }

    #[test]
    fn first_wake_pred_wins() {
        let mut sh = ShardObs::new(3, ObsLevel::Full, WindowCfg::default());
        sh.note_wake_pred(1, 0);
        sh.note_wake_pred(1, 2);
        let obs = merge_shard_obs(3, ObsLevel::Full, vec![sh]);
        assert_eq!(obs.wake_pred(NodeId::new(1)), Some(NodeId::new(0)));
        let mut sh = ShardObs::new(3, ObsLevel::Full, WindowCfg::default());
        sh.note_wake_pred(1, 0);
        sh.clear_wake_pred(1);
        let obs = merge_shard_obs(3, ObsLevel::Full, vec![sh]);
        assert_eq!(obs.wake_pred(NodeId::new(1)), None);
    }

    #[test]
    fn render_is_nonempty_for_nonempty_hist() {
        let mut h = Hist64::default();
        h.record(3);
        h.record(1000);
        let s = h.render(30);
        assert!(s.contains("2..3"));
        assert!(s.contains("512..1023"));
    }
}
