//! The synchronous lock-step engine.

use std::sync::Arc;

use wakeup_graph::NodeId;

use crate::adversary::WakeSchedule;
use crate::arena::{PayloadArena, PayloadRef};
use crate::audit::AuditLog;
use crate::bits::BitStr;
use crate::knowledge::Port;
use crate::message::ChannelModel;
use crate::metrics::{RunReport, TICKS_PER_UNIT};
use crate::network::{Network, NodeTables};
use crate::protocol::{Context, Inbox, Incoming, SyncProtocol, WakeCause};
use crate::shard::{
    split_lengths, CrossPayload, DeliverEntry, NodeSlices, RunArrays, RunPlan, RunTally,
    ShardFallback, ShardMetrics, Worker, WorkerOut,
};

/// Configuration of a [`SyncEngine`] run.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Bandwidth regime.
    pub channel: ChannelModel,
    /// Master seed for the nodes' private randomness.
    pub seed: u64,
    /// Seed of the shared random tape.
    pub shared_seed: u64,
    /// Per-node advice strings from an oracle (None = no advice). Shared via
    /// `Arc` so cached advice is handed to many engines without copying.
    pub advice: Option<Arc<Vec<BitStr>>>,
    /// Safety cap on rounds; exceeding it sets [`RunReport::truncated`].
    pub max_rounds: u64,
    /// Track distinct ports used per node.
    pub track_ports: bool,
    /// Observability recording level (default [`crate::obs::ObsLevel::Full`]
    /// — always on; `Counters` is the overhead-bench baseline).
    pub obs: crate::obs::ObsLevel,
    /// Window spacing of the obs timeline (default log-spaced; ignored at
    /// [`crate::obs::ObsLevel::Counters`], which records no timeline).
    pub obs_windows: crate::obs::WindowCfg,
    /// Count CONGEST violations instead of panicking.
    pub record_congest_violations: bool,
    /// Record a model-conformance [`AuditLog`] with the given event
    /// capacity (`None` = off).
    pub audit_capacity: Option<usize>,
    /// Number of intra-run worker shards (default 1: the one worker runs
    /// inline on the calling thread). With `K > 1` the per-round
    /// deliver/step loop is parallelized over `K` contiguous node ranges
    /// under the round barrier; output is byte-identical at any shard
    /// count. Runs that record audit logs use one shard and
    /// record why in [`crate::RuntimeCounters::shard_fallback`].
    pub shards: usize,
}

impl Default for SyncConfig {
    fn default() -> SyncConfig {
        SyncConfig {
            channel: ChannelModel::Local,
            seed: 0xDEFA17,
            shared_seed: 0x5EED,
            advice: None,
            max_rounds: 1_000_000,
            track_ports: false,
            obs: crate::obs::ObsLevel::Full,
            obs_windows: crate::obs::WindowCfg::default(),
            record_congest_violations: false,
            audit_capacity: None,
            shards: 1,
        }
    }
}

/// Lock-step round simulator for the synchronous model.
///
/// Round semantics match Section 3.2 of the paper: at the start of round `r`
/// every node receives the messages sent to it in round `r − 1` (receipt of a
/// message wakes a sleeping node), the adversary wakes its scheduled nodes,
/// and every awake node takes one compute-and-send step. Nodes do not know
/// the global round number.
pub struct SyncEngine<'n, P: SyncProtocol> {
    net: crate::network::NetHandle<'n>,
    tables: Arc<NodeTables>,
    /// `Some` iff this engine executes in the locality-ordered run space
    /// (the network has a non-identity [`wakeup_graph::Relabeling`] and the
    /// config records no audit log, whose stream is defined in
    /// chronological identity order). The sync model has no
    /// delay strategy, so unlike the async engine there is no per-run
    /// fallback: `Some` here means every run relabels.
    space: Option<Arc<crate::network::RunSpace>>,
    config: SyncConfig,
    protocols: Vec<P>,
    scratch: SyncScratch<P::Msg>,
}

/// Run-to-run reusable buffers: receiver inboxes and the wake-dedup
/// flags (per node, split across shards each run), and one
/// [`SyncShardScratch`] per worker.
struct SyncScratch<M> {
    /// Per node: this round's delivered messages, already materialized
    /// (capacity persists across rounds and runs).
    inboxes: Vec<Vec<(Incoming, M)>>,
    wake_queued: Vec<bool>,
    /// Per-worker state, rebuilt only when the shard count changes.
    shards: Vec<SyncShardScratch<M>>,
}

/// One worker's run-to-run reusable buffers.
struct SyncShardScratch<M> {
    /// Payloads of queued and in-flight messages; entries everywhere else
    /// are small [`PayloadRef`] handles into this arena.
    arena: PayloadArena<M>,
    /// Messages pending delivery to this shard's inboxes next round. A lone
    /// worker's sends go straight in; at `k > 1` the exchange collects them
    /// at the round boundary.
    inflight: Vec<DeliverEntry>,
    touched: Vec<usize>,
    newly_awake: Vec<(NodeId, WakeCause)>,
    entries_buf: Vec<(Port, PayloadRef)>,
    /// Staged outbound messages, one buffer per `(destination shard, phase)`.
    stage: Vec<Vec<SyncCross<M>>>,
}

impl<M> SyncShardScratch<M> {
    fn new(k: usize) -> SyncShardScratch<M> {
        SyncShardScratch {
            arena: PayloadArena::default(),
            inflight: Vec::new(),
            touched: Vec::new(),
            newly_awake: Vec::new(),
            entries_buf: Vec::new(),
            stage: (0..k * crate::shard::PHASES).map(|_| Vec::new()).collect(),
        }
    }
}

/// A message staged for next-round delivery across the window boundary.
struct SyncCross<M> {
    to: u32,
    from: u32,
    rport: u32,
    payload: CrossPayload<M>,
}

/// A worker's round-boundary summary for the quiescence/cap decision.
#[derive(Clone, Copy, Default)]
struct SyncProgress {
    /// Whether the round just finished sent anything.
    traffic: bool,
    /// Whether any awake owned node wants another round.
    wants: bool,
    /// Whether this shard still holds unapplied schedule wakes.
    wakes_pending: bool,
}

impl<'n, P: SyncProtocol> SyncEngine<'n, P> {
    /// Initializes every node's protocol state over the given network.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new(net: &'n Network, config: SyncConfig) -> SyncEngine<'n, P> {
        Self::with_handle(crate::network::NetHandle::Borrowed(net), config)
    }

    /// As [`SyncEngine::new`], but co-owning a shared network — the entry
    /// point for artifact caches that hand out `Arc<Network>`s, freeing the
    /// engine from the caller's borrow lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new_shared(net: Arc<Network>, config: SyncConfig) -> SyncEngine<'static, P> {
        SyncEngine::with_handle(crate::network::NetHandle::Shared(net), config)
    }

    fn with_handle(net: crate::network::NetHandle<'n>, config: SyncConfig) -> SyncEngine<'n, P> {
        // Audit logs are defined in chronological identity order, so
        // recording runs stay in the original space.
        let space = if config.audit_capacity.is_some() {
            None
        } else {
            net.run_space().cloned()
        };
        let tables = match &space {
            Some(s) => Arc::clone(&s.tables),
            None => Arc::clone(net.tables()),
        };
        let n = net.n();
        let mut protocols = Vec::with_capacity(n);
        crate::protocol::for_each_node_init(
            &net,
            &tables,
            space.as_ref().map(|s| &*s.rel),
            config.seed,
            config.shared_seed,
            config.advice.as_deref().map(Vec::as_slice),
            |_, init| protocols.push(P::init(init)),
        );
        SyncEngine {
            net,
            tables,
            space,
            config,
            protocols,
            scratch: SyncScratch {
                inboxes: (0..n).map(|_| Vec::new()).collect(),
                wake_queued: vec![false; n],
                shards: Vec::new(),
            },
        }
    }

    /// Re-derives every node's state for a fresh trial under a new master
    /// seed, keeping the engine's allocations (tables, round buffers, and —
    /// via [`SyncProtocol::reinit`] — per-node containers).
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

    /// Runs rounds until quiescence (no traffic in flight, no pending
    /// adversary wakes, and no awake node wants another round) or the round
    /// cap.
    ///
    /// Wake schedule ticks are interpreted as rounds
    /// (`tick / TICKS_PER_UNIT`), so unit-based schedules carry over.
    pub fn run(mut self, schedule: &WakeSchedule) -> RunReport {
        self.run_mut(schedule)
    }

    /// As [`SyncEngine::run`], but also returns the final per-node protocol
    /// states for post-hoc inspection (e.g. which FastWakeUp nodes sampled
    /// themselves as roots).
    pub fn run_into_parts(mut self, schedule: &WakeSchedule) -> (RunReport, Vec<P>) {
        let report = self.run_mut(schedule);
        (report, self.protocols)
    }

    /// Executes one run without consuming the engine, so a trial loop can
    /// [`SyncEngine::reset`] and go again over the same topology. Recording
    /// runs use one shard (see [`crate::shard::ShardFallback`]).
    pub fn run_mut(&mut self, schedule: &WakeSchedule) -> RunReport {
        let n = self.net.n();
        let net = &*self.net;
        let config = &self.config;
        let mut audit = config.audit_capacity.map(AuditLog::with_capacity);
        let forced = audit.as_ref().map(|_| ShardFallback::Audit);
        let rel = self.space.as_deref().map(|s| &*s.rel);
        let plan = RunPlan::new(n, config.shards, forced, rel, &self.tables);
        let k = plan.shards.k;
        if self.scratch.shards.len() != k {
            self.scratch.shards = (0..k).map(|_| SyncShardScratch::new(k)).collect();
        }
        if let Some(rel) = rel {
            rel.permute_to_run(&mut self.protocols);
        }
        let lens = plan.shards.node_lens();
        let rows = split_lengths(&mut self.scratch.wake_queued, lens.clone())
            .zip(split_lengths(&mut self.scratch.inboxes, lens));
        let mut arrays = RunArrays::new(n);
        let per_shard = self
            .scratch
            .shards
            .iter_mut()
            .zip(arrays.split(&mut self.protocols, &plan.shards))
            .zip(plan.wakes(schedule, TICKS_PER_UNIT))
            .zip(rows);
        let mut workers: Vec<SyncShard<'_, P>> = Vec::with_capacity(k);
        for (s, (((sc, nodes), wakes), (wake_queued, inboxes))) in per_shard.enumerate() {
            let (lo, hi) = plan.shards.range(s);
            // A truncated previous run may have left residue.
            sc.arena.clear();
            sc.inflight.clear();
            sc.touched.clear();
            sc.newly_awake.clear();
            wake_queued.fill(false);
            inboxes.iter_mut().for_each(Vec::clear);
            let edge_base = plan.tables.edge_offset[lo];
            let slots = plan.tables.edge_offset[hi] - edge_base;
            workers.push(SyncShard {
                me: s,
                lo,
                edge_base,
                plan: plan.shards,
                net,
                tables: plan.tables,
                config,
                nodes,
                wake_queued,
                inboxes,
                sm: ShardMetrics::new(config.track_ports, slots),
                obs: crate::obs::ShardObs::new(hi - lo, config.obs, config.obs_windows),
                audit: audit.take(),
                sc,
                wakes,
                cursor: 0,
                rel,
                from_mask: plan.sender_mask(),
                staged: 0,
                events: 0,
            });
        }
        // Cap first, then quiescence: a quiescent run sitting on the cap
        // still truncates.
        let mut tally = RunTally::default();
        let mut next = |p: SyncProgress| {
            if tally.rounds >= config.max_rounds {
                tally.truncated = true;
                return u64::MAX;
            }
            if !p.traffic && !p.wakes_pending && !p.wants {
                return u64::MAX;
            }
            // A round entered with no traffic (only pending wakes or
            // timer-driven nodes) delivers nothing — the sync analog of the
            // async executor's horizon stall.
            if !p.traffic {
                tally.stall_rounds += 1;
            }
            tally.rounds += 1;
            tally.rounds - 1
        };
        if let [w] = workers.as_mut_slice() {
            // One shard: the worker runs inline, queueing sends straight
            // into its in-flight list — no thread, barrier, or mailbox.
            loop {
                let round = next(w.progress());
                if round == u64::MAX {
                    break;
                }
                w.process_round(round);
            }
            w.finish();
        } else {
            crate::shard::exchange(&mut workers, |ps| {
                next(
                    ps.iter()
                        .fold(SyncProgress::default(), |a, p| SyncProgress {
                            traffic: a.traffic || p.traffic,
                            wants: a.wants || p.wants,
                            wakes_pending: a.wakes_pending || p.wakes_pending,
                        }),
                )
            });
        }
        tally.events = workers.iter().map(|w| w.events).sum();
        // Consume the workers first: that ends their borrows of `arrays`.
        let outs = workers.into_iter().map(SyncShard::into_out).collect();
        let report = plan.report(arrays, outs, tally, config.obs, config.track_ports);
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

/// The sync engine's executor: one worker per shard, owning a contiguous
/// node range. At `k = 1` it runs inline and owns every node; at `k > 1`
/// the [`crate::shard::exchange`] drives it. Local node index = global id
/// − `lo`.
struct SyncShard<'e, P: SyncProtocol> {
    me: usize,
    lo: usize,
    edge_base: usize,
    plan: crate::shard::ShardPlan,
    net: &'e Network,
    tables: &'e NodeTables,
    config: &'e SyncConfig,
    nodes: NodeSlices<'e, P>,
    wake_queued: &'e mut [bool],
    inboxes: &'e mut [Vec<(Incoming, P::Msg)>],
    sm: ShardMetrics,
    obs: crate::obs::ShardObs,
    audit: Option<AuditLog>,
    sc: &'e mut SyncShardScratch<P::Msg>,
    /// This shard's schedule wakes, `(round, id)`-sorted (run ids when
    /// relabeled — the shard ranges partition run-id space).
    wakes: Vec<(u64, NodeId)>,
    cursor: usize,
    /// `Some` iff this run executes in the locality-ordered run space.
    rel: Option<&'e wakeup_graph::Relabeling>,
    /// Sender-index extraction mask (see [`DeliverEntry::from`]).
    from_mask: u32,
    /// Messages queued since the last progress summary.
    staged: u64,
    /// Locally processed events (deliveries + wakes).
    events: u64,
}

impl<P: SyncProtocol> crate::shard::Worker for SyncShard<'_, P> {
    type Cross = SyncCross<P::Msg>;
    type Progress = SyncProgress;

    fn progress(&mut self) -> SyncProgress {
        let wants = self
            .nodes
            .awake
            .iter()
            .zip(self.nodes.protocols.iter())
            .any(|(&a, p)| a && p.wants_round());
        let p = SyncProgress {
            traffic: self.staged > 0,
            wants,
            wakes_pending: self.cursor < self.wakes.len(),
        };
        self.staged = 0;
        p
    }

    fn stage(&mut self) -> &mut [Vec<SyncCross<P::Msg>>] {
        &mut self.sc.stage
    }

    /// Messages are only *collected* at the boundary and delivered inside
    /// the round body, so a run stopped by the cap leaves them undelivered
    /// and unaccounted, exactly like a lone worker's in-flight list.
    fn ingest(&mut self, batch: &mut Vec<SyncCross<P::Msg>>) {
        for m in batch.drain(..) {
            self.sc.inflight.push(DeliverEntry {
                to: m.to,
                from: m.from,
                rport: m.rport,
                msg: m.payload.into_ref(&mut self.sc.arena),
            });
        }
    }

    fn window(&mut self, round: u64) {
        self.process_round(round);
    }

    fn finish(&mut self) {
        self.obs.timeline.finish();
        self.obs.events = self.events;
        self.obs.arena_high_water = self.sc.arena.high_water() as u64;
        if self.rel.is_some() {
            // Relabeled runs skip `stamp_new_spans`; install the tracked
            // canonical (tick, phase, orig actor) minima instead so the span
            // merge reproduces the identity label order.
            self.obs.adopt_tracked_keys();
        }
    }
}

impl<P: SyncProtocol> SyncShard<'_, P> {
    fn into_out(self) -> WorkerOut {
        WorkerOut {
            sm: self.sm,
            obs: self.obs,
            audit: self.audit,
        }
    }

    /// One round over this shard's nodes (Section 3.2 of the paper):
    /// deliver last round's traffic, queue wakes (adversary beats message),
    /// run wake handlers ascending, then the compute-and-send step
    /// ascending.
    fn process_round(&mut self, round: u64) {
        let tick = round * TICKS_PER_UNIT;
        let mut inflight = std::mem::take(&mut self.sc.inflight);
        // All deliveries of a round share one tick, so the last-receipt
        // watermark moves once per round, not once per message.
        if !inflight.is_empty() {
            self.sm.last_receipt_tick =
                Some(self.sm.last_receipt_tick.map_or(tick, |t| t.max(tick)));
        }
        self.events += inflight.len() as u64;
        let (delivered, sends0, bits0) = (inflight.len() as u64, self.obs.sends, self.sm.bits_sent);
        if self.rel.is_some() {
            // Stable sort by (receiver, packed key) restores each receiver's
            // identity-space delivery order (see `DeliverEntry::from`).
            inflight.sort_by_key(|m| (m.to, m.from));
        }
        for m in inflight.drain(..) {
            let li = m.to as usize - self.lo;
            let to = NodeId::new(m.to as usize);
            self.nodes.received_by[li] += 1;
            // Recorded before any wake of this round, so wake causality
            // streams in order (the whole in-flight queue drains first).
            if let Some(log) = self.audit.as_mut() {
                log.record_deliver(tick, m.from & self.from_mask, to, m.msg);
            }
            if self.config.track_ports {
                let slot = self.tables.slot(to, Port::new(m.rport as usize));
                self.sm.ports.set(slot - self.edge_base);
            }
            let sender_id = match self.net.mode() {
                crate::knowledge::KnowledgeMode::Kt1 => Some(
                    self.net
                        .ids()
                        .id(NodeId::new((m.from & self.from_mask) as usize)),
                ),
                crate::knowledge::KnowledgeMode::Kt0 => None,
            };
            if self.inboxes[li].is_empty() {
                self.sc.touched.push(li);
            }
            if !self.nodes.awake[li] {
                // Provisional causal predecessor: the round's first delivery
                // to a sleeping node (erased below if the adversary wakes it
                // this round instead).
                self.obs.note_wake_pred(li, m.from & self.from_mask);
            }
            self.inboxes[li].push((
                Incoming {
                    port: Port::new(m.rport as usize),
                    sender_id,
                },
                self.sc.arena.take(m.msg),
            ));
        }
        self.sc.inflight = inflight;
        // Round-r adversary wakes take precedence over message wakes.
        while self.cursor < self.wakes.len() && self.wakes[self.cursor].0 <= round {
            let v = self.wakes[self.cursor].1;
            self.cursor += 1;
            let li = v.index() - self.lo;
            if !self.nodes.awake[li] && !self.wake_queued[li] {
                self.wake_queued[li] = true;
                self.sc.newly_awake.push((v, WakeCause::Adversary));
            }
        }
        // Message receipt wakes.
        for &li in &self.sc.touched {
            if !self.nodes.awake[li] && !self.wake_queued[li] {
                self.wake_queued[li] = true;
                self.sc
                    .newly_awake
                    .push((NodeId::new(li + self.lo), WakeCause::Message));
            }
        }
        self.sc.touched.clear();
        let mut newly = std::mem::take(&mut self.sc.newly_awake);
        newly.sort_unstable_by_key(|&(v, _)| v);
        self.events += newly.len() as u64;
        self.obs.tl_wakes(tick, newly.len() as u64);
        for &(v, cause) in newly.iter() {
            let li = v.index() - self.lo;
            if cause == WakeCause::Adversary {
                // The node is a root of the causal forest, not a successor.
                self.obs.clear_wake_pred(li);
            }
            let ov = self
                .rel
                .map_or(v, |rel| NodeId::new(rel.to_orig(v.index())));
            if let Some(log) = self.audit.as_mut() {
                log.record_wake(tick, ov, cause, self.config.advice.as_deref());
            }
            self.nodes.awake[li] = true;
            self.sm.awake_count += 1;
            self.nodes.wake_tick[li] = Some(tick);
            self.sm.first_wake_tick = Some(self.sm.first_wake_tick.map_or(tick, |t| t.min(tick)));
            self.step(v, 0, tick, |p, ctx, _| p.on_wake(ctx, cause));
        }
        for &(v, _) in newly.iter() {
            self.wake_queued[v.index() - self.lo] = false;
        }
        newly.clear();
        self.sc.newly_awake = newly;
        // Compute-and-send step for every awake node. The inbox is a
        // draining view over the node's persistent buffer; handler sends go
        // straight into the arena via the context.
        for li in 0..self.nodes.awake.len() {
            if !self.nodes.awake[li] {
                continue;
            }
            // Warm the next node's protocol state and inbox row while this
            // handler runs.
            crate::prefetch::prefetch_index(self.nodes.protocols, li + 1);
            crate::prefetch::prefetch_index(self.inboxes, li + 1);
            if !self.inboxes[li].is_empty() {
                self.obs.on_batch(self.inboxes[li].len());
            }
            let v = NodeId::new(li + self.lo);
            self.step(v, 1, tick, |p, ctx, inbox| {
                p.on_messages_batch(ctx, &mut Inbox::new(inbox))
            });
        }
        if let Some(log) = self.audit.as_mut() {
            // Sends are logged once the round's handlers have all run, in
            // queue order — the in-flight list holds exactly this round's
            // sends, since recording runs use one shard.
            for m in &self.sc.inflight {
                let (from, to) = (NodeId::new(m.from as usize), NodeId::new(m.to as usize));
                log.record_send(tick, from, to, self.sc.arena.bits(m.msg), m.msg);
            }
        }
        let (sends, bits) = (self.obs.sends - sends0, self.sm.bits_sent - bits0);
        self.obs.tl_traffic(tick, delivered, sends, bits);
    }

    /// Runs one handler of node `v` in engine phase `phase` (0 = wake,
    /// 1 = step) with a context over its inbox row, then routes its outbox.
    fn step(
        &mut self,
        v: NodeId,
        phase: usize,
        tick: u64,
        handler: impl FnOnce(&mut P, &mut Context<'_, P::Msg>, &mut Vec<(Incoming, P::Msg)>),
    ) {
        let li = v.index() - self.lo;
        let ov = self
            .rel
            .map_or(v, |rel| NodeId::new(rel.to_orig(v.index())));
        if self.rel.is_some() {
            self.obs
                .phases
                .set_handler(tick, phase as u8, ov.index() as u32);
        }
        let mut ctx = Context::new(
            ov,
            self.net.graph().degree(ov),
            self.net.mode(),
            self.tables.id_to_port(v.index()),
            &mut self.sc.entries_buf,
            &mut self.sc.arena,
            self.config.channel,
            self.config.record_congest_violations,
            &mut self.sm.congest_violations,
            &mut self.nodes.outputs[li],
            &mut self.obs.phases,
            tick,
        );
        handler(
            &mut self.nodes.protocols[li],
            &mut ctx,
            &mut self.inboxes[li],
        );
        if self.rel.is_none() {
            self.obs
                .stamp_new_spans(tick, phase as u8, v.index() as u32);
        }
        // Most step handlers send nothing (every awake node runs each
        // round), so the silent case stays a length check.
        if !self.sc.entries_buf.is_empty() {
            let mut entries = std::mem::take(&mut self.sc.entries_buf);
            self.route_outbox(&mut entries, v, phase);
            self.sc.entries_buf = entries;
        }
    }

    /// Accounts and queues one handler's outbox for next-round delivery
    /// (CONGEST was enforced at enqueue time by the context). A lone worker
    /// queues straight into its in-flight list; at `k > 1` sends are staged
    /// per `(destination shard, phase)` for the exchange.
    fn route_outbox(&mut self, entries: &mut Vec<(Port, PayloadRef)>, from: NodeId, phase: usize) {
        let obs_full = self.obs.level == crate::obs::ObsLevel::Full;
        let inline = self.plan.k == 1;
        let key = match self.rel {
            Some(rel) => {
                ((phase as u32) << crate::network::FROM_IDX_BITS) | rel.to_orig(from.index()) as u32
            }
            None => from.index() as u32,
        };
        // Counts and bit sums stay in registers across the outbox (every
        // entry shares the sender and the round); one update per outbox
        // keeps struct-field read-modify-writes off the loop-carried path.
        let sent = entries.len() as u64;
        let (mut sum_bits, mut max_bits) = (0u64, 0usize);
        for (port, r) in entries.drain(..) {
            let slot = self.tables.slot(from, port);
            let hot = self.tables.edge_hot[slot];
            let bits = self.sc.arena.bits(r);
            sum_bits += bits as u64;
            max_bits = max_bits.max(bits);
            if obs_full {
                self.obs.message_bits.record(bits as u64);
            }
            if self.config.track_ports {
                self.sm.ports.set(slot - self.edge_base);
            }
            if inline {
                self.sc.inflight.push(DeliverEntry {
                    to: hot.to,
                    from: key,
                    rport: hot.rport,
                    msg: r,
                });
                continue;
            }
            let dst = self.plan.shard_of(hot.to as usize);
            let payload = CrossPayload::stage(r, dst == self.me, &mut self.sc.arena);
            self.sc.stage[dst * crate::shard::PHASES + phase].push(SyncCross {
                to: hot.to,
                from: key,
                rport: hot.rport,
                payload,
            });
        }
        self.sm.messages_sent += sent;
        self.sm.bits_sent += sum_bits;
        self.sm.max_message_bits = self.sm.max_message_bits.max(max_bits);
        self.nodes.sent_by[from.index() - self.lo] += sent;
        self.staged += sent;
        self.obs.sends += sent;
        if obs_full {
            // Sync deliveries always take one round: τ ticks of latency.
            self.obs.delay_ticks.add_run(TICKS_PER_UNIT, sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::protocol::NodeInit;
    use wakeup_graph::generators;

    #[derive(Debug, Clone)]
    struct Ping;
    impl Payload for Ping {
        fn size_bits(&self) -> usize {
            1
        }
    }

    /// Broadcasts once upon waking.
    struct Flood {
        sent: bool,
    }
    impl SyncProtocol for Flood {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            Flood { sent: false }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
            self.sent = true;
            ctx.broadcast(Ping);
        }
        fn on_round(&mut self, _: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {}
    }

    #[test]
    fn sync_flood_wakes_in_awake_distance_rounds() {
        let g = generators::path(9).unwrap();
        let net = Network::kt1(g, 1);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.all_awake);
        // ρ_awk = 8: node 8 wakes in round 8.
        assert_eq!(report.metrics.wake_tick[8], Some(8 * TICKS_PER_UNIT));
        assert_eq!(report.metrics.messages_sent, 16);
    }

    #[test]
    fn sync_obs_critical_path_follows_the_flood() {
        let g = generators::path(9).unwrap();
        let net = Network::kt1(g, 1);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        let cp = report.critical_path();
        assert_eq!(cp.hops, 8);
        assert_eq!(cp.tau, 8.0);
        assert_eq!(cp.root, Some(NodeId::new(0)));
        assert_eq!(cp.end, Some(NodeId::new(8)));
        assert!(cp.tau <= report.time_units() + 1e-9);
        assert_eq!(
            report.obs.message_bits.count(),
            report.metrics.messages_sent
        );
        // One round of latency per message.
        assert_eq!(
            report.obs.delay_ticks.sum(),
            report.metrics.messages_sent * TICKS_PER_UNIT
        );
        assert_eq!(report.obs.wake_latency(&report.metrics).count(), 9);
    }

    #[test]
    fn sync_adversary_wake_beats_message_pred_in_same_round() {
        // Node 1 both receives node 0's flood in round 1 and is
        // adversary-woken in round 1: it must be a causal root.
        let g = generators::path(3).unwrap();
        let net = Network::kt1(g, 1);
        let schedule = WakeSchedule::from_pairs(&[(NodeId::new(0), 0.0), (NodeId::new(1), 1.0)]);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&schedule);
        assert_eq!(report.obs.wake_pred(NodeId::new(1)), None);
        // Node 2 was woken by node 1's broadcast.
        assert_eq!(report.obs.wake_pred(NodeId::new(2)), Some(NodeId::new(1)));
    }

    #[test]
    fn sync_flood_multi_source() {
        let g = generators::path(9).unwrap();
        let net = Network::kt1(g, 1);
        let schedule = WakeSchedule::all_at_zero(&[NodeId::new(0), NodeId::new(8)]);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&schedule);
        assert!(report.all_awake);
        assert_eq!(report.metrics.wake_tick[4], Some(4 * TICKS_PER_UNIT));
    }

    /// Stays silent but requests 5 rounds after waking, then sends one ping.
    struct TimerNode {
        rounds_awake: u32,
    }
    impl SyncProtocol for TimerNode {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            TimerNode { rounds_awake: 0 }
        }
        fn on_wake(&mut self, _: &mut Context<'_, Ping>, _cause: WakeCause) {}
        fn on_round(&mut self, ctx: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {
            self.rounds_awake += 1;
            if self.rounds_awake == 5 && ctx.degree() > 0 {
                ctx.send(Port::new(1), Ping);
            }
        }
        fn wants_round(&self) -> bool {
            self.rounds_awake < 5
        }
    }

    #[test]
    fn wants_round_keeps_clock_running() {
        let g = generators::path(2).unwrap();
        let net = Network::kt1(g, 1);
        let report = SyncEngine::<TimerNode>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        // Node 0 waits 5 silent rounds, sends in round 4 (0-indexed: its 5th
        // round), waking node 1, which itself runs 5 rounds.
        assert!(report.all_awake);
        assert_eq!(report.metrics.messages_sent, 2);
        assert!(report.rounds >= 10);
    }

    #[test]
    fn round_cap_truncates() {
        struct Forever;
        impl SyncProtocol for Forever {
            type Msg = Ping;
            fn init(_: &NodeInit<'_>) -> Self {
                Forever
            }
            fn on_wake(&mut self, _: &mut Context<'_, Ping>, _cause: WakeCause) {}
            fn on_round(&mut self, _: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {}
            fn wants_round(&self) -> bool {
                true
            }
        }
        let net = Network::kt1(generators::path(2).unwrap(), 1);
        let config = SyncConfig {
            max_rounds: 50,
            ..SyncConfig::default()
        };
        let report =
            SyncEngine::<Forever>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.truncated);
        assert_eq!(report.rounds, 50);
    }

    #[test]
    fn staggered_adversary_wakes_apply_in_their_round() {
        let g = generators::path(5).unwrap();
        let net = Network::kt1(g, 1);
        // Wake node 4 at round 2; node 0 at round 0.
        let schedule = WakeSchedule::from_pairs(&[(NodeId::new(0), 0.0), (NodeId::new(4), 2.0)]);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&schedule);
        assert_eq!(report.metrics.wake_tick[4], Some(2 * TICKS_PER_UNIT));
        // Node 3 is woken by node 4's broadcast in round 3, beating the flood
        // from node 0 (which would arrive in round 3 as well — tie).
        assert_eq!(report.metrics.wake_tick[3], Some(3 * TICKS_PER_UNIT));
    }

    #[test]
    fn quiescence_without_any_wake() {
        let net = Network::kt1(generators::path(4).unwrap(), 1);
        let report =
            SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&WakeSchedule::default());
        assert_eq!(report.rounds, 0);
        assert!(!report.all_awake);
    }

    /// A protocol that consumes its inbox through the batch hook without
    /// collecting it, counting arrivals — exercises the borrowed-inbox path
    /// end to end (delivery order, drain-on-drop, empty-inbox rounds).
    struct BatchCounter {
        seen: u64,
        relayed: bool,
    }
    impl SyncProtocol for BatchCounter {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            BatchCounter {
                seen: 0,
                relayed: false,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Ping);
            }
        }
        fn on_round(&mut self, _: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {
            unreachable!("the engine must call on_messages_batch, not on_round");
        }
        fn on_messages_batch(&mut self, ctx: &mut Context<'_, Ping>, inbox: &mut Inbox<'_, Ping>) {
            self.seen += inbox.len() as u64;
            while inbox.next().is_some() {}
            ctx.output(self.seen);
        }
    }

    #[test]
    fn batch_hook_sees_whole_round_inbox() {
        let g = generators::star(6).unwrap();
        let net = Network::kt1(g, 1);
        let schedule = WakeSchedule::all_at_zero(&[NodeId::new(0)]);
        let report = SyncEngine::<BatchCounter>::new(&net, SyncConfig::default()).run(&schedule);
        assert!(report.all_awake);
        // The hub broadcast wakes all 5 leaves; each leaf broadcasts back,
        // so the hub's batch hook eventually sees 5 messages in one round.
        assert_eq!(report.outputs[0], Some(5));
    }

    /// Sharded sync runs reproduce the one-shard run byte-for-byte:
    /// metrics, outputs, and both observability serializations — at any
    /// shard count, including more shards than nodes.
    #[test]
    fn sync_sharded_run_is_byte_identical_to_serial() {
        let net = Network::kt1(generators::erdos_renyi_connected(37, 0.15, 11).unwrap(), 11);
        let all: Vec<NodeId> = (0..37).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.5);
        let run = |shards: usize| {
            let config = SyncConfig {
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<BatchCounter>::new(&net, config).run(&schedule)
        };
        let serial = run(1);
        for shards in [2, 3, 4, 64] {
            let sharded = run(shards);
            assert_eq!(sharded.obs.runtime.shards as usize, shards.min(37));
            assert_eq!(serial.metrics, sharded.metrics, "shards={shards}");
            assert_eq!(serial.all_awake, sharded.all_awake);
            assert_eq!(serial.rounds, sharded.rounds, "shards={shards}");
            assert_eq!(serial.outputs, sharded.outputs);
            assert_eq!(serial.truncated, sharded.truncated);
            let a = crate::obs::ObsSnapshot::of(&serial);
            let b = crate::obs::ObsSnapshot::of(&sharded);
            assert_eq!(a.to_json(), b.to_json(), "shards={shards}");
            assert_eq!(a.to_prometheus(), b.to_prometheus(), "shards={shards}");
        }
    }

    /// Phase-labeling flood over both sync handler surfaces — the sync
    /// sibling of the async engine's `PhasedFlood` differential fixture.
    struct PhasedSyncFlood {
        relayed: bool,
        seen: u64,
    }
    impl SyncProtocol for PhasedSyncFlood {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            PhasedSyncFlood {
                relayed: false,
                seen: 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
            ctx.phase("wake");
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Ping);
            }
        }
        fn on_round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Vec<(Incoming, Ping)>) {
            if !inbox.is_empty() {
                ctx.phase("relay");
                self.seen += inbox.len() as u64;
                ctx.output(self.seen * 1000 + ctx.node().index() as u64);
            }
        }
    }

    /// The tentpole contract on the sync engine: relabeled runs reproduce
    /// identity-space runs byte for byte, at one shard and at three.
    #[test]
    fn sync_relabeled_run_is_byte_identical_to_identity_run() {
        let g = generators::erdos_renyi_connected(41, 0.12, 13).unwrap();
        let relabeled = Network::kt1(g.clone(), 5);
        relabeled.force_relabel();
        assert!(
            relabeled.run_space().is_some(),
            "fixture must actually relabel"
        );
        let identity = Network::kt1(g, 5);
        identity.disable_relabel();
        let all: Vec<NodeId> = (0..41).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.7);
        let run = |net: &Network, shards: usize| {
            let config = SyncConfig {
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<PhasedSyncFlood>::new(net, config).run(&schedule)
        };
        for shards in [1, 3] {
            let a = run(&relabeled, shards);
            let b = run(&identity, shards);
            assert_eq!(a.metrics, b.metrics, "shards={shards}");
            assert_eq!(a.outputs, b.outputs, "shards={shards}");
            assert_eq!(a.rounds, b.rounds, "shards={shards}");
            assert_eq!(a.all_awake, b.all_awake);
            assert_eq!(a.truncated, b.truncated);
            let sa = crate::obs::ObsSnapshot::of(&a);
            let sb = crate::obs::ObsSnapshot::of(&b);
            assert_eq!(sa.to_json(), sb.to_json(), "shards={shards}");
            assert_eq!(sa.to_prometheus(), sb.to_prometheus(), "shards={shards}");
        }
    }

    /// `wants_round` keeps the sharded clock running exactly as long as the
    /// one-shard one: silent-timer protocols terminate with identical rounds.
    #[test]
    fn sync_sharded_wants_round_matches_serial() {
        let net = Network::kt1(generators::path(7).unwrap(), 1);
        let run = |shards: usize| {
            let config = SyncConfig {
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<TimerNode>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        };
        let (serial, sharded) = (run(1), run(3));
        assert_eq!(serial.metrics, sharded.metrics);
        assert_eq!(serial.rounds, sharded.rounds);
        assert_eq!(serial.all_awake, sharded.all_awake);
    }

    /// The round cap truncates at the same boundary at any shard count, and
    /// a truncated sharded engine resets cleanly for the next run.
    #[test]
    fn sync_sharded_round_cap_is_shard_invariant() {
        struct Chatter;
        impl SyncProtocol for Chatter {
            type Msg = Ping;
            fn init(_: &NodeInit<'_>) -> Self {
                Chatter
            }
            fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
                ctx.broadcast(Ping);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Vec<(Incoming, Ping)>) {
                if !inbox.is_empty() {
                    ctx.broadcast(Ping);
                }
            }
        }
        let net = Network::kt1(generators::cycle(8).unwrap(), 1);
        let config = SyncConfig {
            max_rounds: 9,
            shards: 4,
            ..SyncConfig::default()
        };
        let serial_config = SyncConfig {
            max_rounds: 9,
            ..SyncConfig::default()
        };
        let schedule = WakeSchedule::single(NodeId::new(0));
        let serial = SyncEngine::<Chatter>::new(&net, serial_config).run(&schedule);
        let mut engine = SyncEngine::<Chatter>::new(&net, config);
        let sharded = engine.run_mut(&schedule);
        assert!(serial.truncated && sharded.truncated);
        assert_eq!(serial.metrics, sharded.metrics);
        assert_eq!(serial.rounds, sharded.rounds);
        assert_eq!(serial.obs.events, sharded.obs.events);
        // Rerun on the same engine: leftover collected-but-undelivered
        // messages from the truncated run must not leak into the next one.
        let again = engine.run_mut(&schedule);
        assert_eq!(again.metrics, sharded.metrics);
    }
}
