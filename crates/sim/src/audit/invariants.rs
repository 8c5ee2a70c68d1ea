//! The pluggable invariant checkers and the [`Auditor`] driving them.
//!
//! Each checker is a small streaming state machine: it sees every event once
//! (in logical-timestamp order) via [`Invariant::observe`] and emits its
//! verdicts from [`Invariant::finish`]. Checkers are independent — the
//! standard set deliberately overlaps (payload lifecycle and per-channel
//! conservation both catch a lost message, from different angles) because a
//! model bug rarely trips exactly one lens.

use std::collections::HashMap;

use super::{AuditEvent, AuditLog, AuditScope};
use crate::metrics::TICKS_PER_UNIT;
use crate::protocol::WakeCause;
use wakeup_graph::NodeId;

/// One invariant violation: which checker, where in the log, and what broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the checker that fired ([`Invariant::name`]).
    pub invariant: &'static str,
    /// Logical timestamp of the offending event (`None` for end-of-log
    /// verdicts like conservation).
    pub seq: Option<u64>,
    /// Human-readable description of the breakage.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seq {
            Some(seq) => write!(f, "[{}] seq {}: {}", self.invariant, seq, self.detail),
            None => write!(f, "[{}] end of log: {}", self.invariant, self.detail),
        }
    }
}

/// A streaming conformance checker over an [`AuditLog`].
///
/// Implementations observe events in logical-timestamp order and report all
/// violations from `finish`; the [`Auditor`] owns the driving loop. Custom
/// checkers plug in via [`Auditor::with_invariant`].
pub trait Invariant {
    /// Short stable name, used in [`Violation::invariant`].
    fn name(&self) -> &'static str;
    /// Feeds one event; `seq` is its logical timestamp (log index).
    fn observe(&mut self, scope: &AuditScope<'_>, seq: u64, event: &AuditEvent);
    /// Ends the stream and returns every violation found. `complete` is true
    /// when the log covers the whole run (scope says completed AND the log
    /// was not truncated), enabling end-of-log accounting checks.
    fn finish(&mut self, scope: &AuditScope<'_>, complete: bool) -> Vec<Violation>;
}

/// Runs a set of [`Invariant`] checkers over a log in one pass.
pub struct Auditor<'a> {
    scope: AuditScope<'a>,
    invariants: Vec<Box<dyn Invariant>>,
}

impl<'a> Auditor<'a> {
    /// An auditor with no checkers; add them via [`Auditor::with_invariant`].
    pub fn empty(scope: AuditScope<'a>) -> Auditor<'a> {
        Auditor {
            scope,
            invariants: Vec::new(),
        }
    }

    /// The full standard battery: edge validity, FIFO order, the `(0, τ]`
    /// delay bound, CONGEST budgets, monotone clocks, payload lifecycle,
    /// wake causality, advice accounting, and — when the scope names the
    /// run's delay strategy — the strategy's exact delivery ticks.
    pub fn standard(scope: AuditScope<'a>) -> Auditor<'a> {
        Auditor::empty(scope)
            .with_invariant(Box::new(EdgeValidity::default()))
            .with_invariant(Box::new(FifoOrder::default()))
            .with_invariant(Box::new(DelayBound::default()))
            .with_invariant(Box::new(CongestBudget::default()))
            .with_invariant(Box::new(MonotoneClock::default()))
            .with_invariant(Box::new(PayloadLifecycle::default()))
            .with_invariant(Box::new(WakeCausality::default()))
            .with_invariant(Box::new(AdviceAccounting::default()))
            .with_invariant(Box::new(ObliviousDelays::default()))
    }

    /// Adds a checker to the pipeline.
    pub fn with_invariant(mut self, inv: Box<dyn Invariant>) -> Self {
        self.invariants.push(inv);
        self
    }

    /// Streams `log` through every checker and collects all violations,
    /// ordered by checker then by discovery.
    pub fn run(mut self, log: &AuditLog) -> Vec<Violation> {
        for (seq, event) in log.events().iter().enumerate() {
            for inv in &mut self.invariants {
                inv.observe(&self.scope, seq as u64, event);
            }
        }
        let complete = self.scope.completed && !log.truncated;
        let mut out = Vec::new();
        for inv in &mut self.invariants {
            out.extend(inv.finish(&self.scope, complete));
        }
        out
    }
}

/// Every send and delivery must travel a directed channel of the network —
/// i.e. an edge of the graph — between in-range node indices.
#[derive(Default)]
pub struct EdgeValidity {
    violations: Vec<Violation>,
}

impl EdgeValidity {
    fn check_channel(&mut self, scope: &AuditScope<'_>, seq: u64, kind: &str, from: u32, to: u32) {
        let n = scope.net.n() as u32;
        if from >= n || to >= n {
            self.violations.push(Violation {
                invariant: "edge-validity",
                seq: Some(seq),
                detail: format!("{kind} {from} -> {to} references a node >= n = {n}"),
            });
            return;
        }
        // Channels exist exactly over the graph's edges, in both directions.
        if !scope
            .net
            .graph()
            .has_edge(NodeId::new(from as usize), NodeId::new(to as usize))
        {
            self.violations.push(Violation {
                invariant: "edge-validity",
                seq: Some(seq),
                detail: format!("{kind} {from} -> {to} travels a non-edge"),
            });
        }
    }
}

impl Invariant for EdgeValidity {
    fn name(&self) -> &'static str {
        "edge-validity"
    }

    fn observe(&mut self, scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        match *event {
            AuditEvent::Send { from, to, .. } => self.check_channel(scope, seq, "send", from, to),
            AuditEvent::Deliver { from, to, .. } => {
                self.check_channel(scope, seq, "deliver", from, to)
            }
            AuditEvent::Wake { node, .. } | AuditEvent::AdviceRead { node, .. } => {
                if node >= scope.net.n() as u32 {
                    self.violations.push(Violation {
                        invariant: "edge-validity",
                        seq: Some(seq),
                        detail: format!("event references node {node} >= n"),
                    });
                }
            }
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, _complete: bool) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// Per-channel send ledger shared by the FIFO and delay-bound checkers: the
/// queue of not-yet-delivered sends on one directed channel, in send order.
#[derive(Default)]
struct ChannelLedger {
    /// (send tick, slot, gen) of pending sends, front = oldest.
    pending: std::collections::VecDeque<(u64, u32, u32)>,
    /// Delivery tick of the channel's most recent delivery.
    last_delivery: Option<u64>,
}

/// Messages on one directed channel are delivered in send order, matched by
/// payload identity (arena slot + generation), and never created from thin
/// air; on complete logs, never lost either.
#[derive(Default)]
pub struct FifoOrder {
    channels: HashMap<(u32, u32), ChannelLedger>,
    violations: Vec<Violation>,
}

impl Invariant for FifoOrder {
    fn name(&self) -> &'static str {
        "fifo-order"
    }

    fn observe(&mut self, _scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        match *event {
            AuditEvent::Send {
                tick,
                from,
                to,
                slot,
                gen,
                ..
            } => {
                self.channels
                    .entry((from, to))
                    .or_default()
                    .pending
                    .push_back((tick, slot, gen));
            }
            AuditEvent::Deliver {
                tick,
                from,
                to,
                slot,
                gen,
            } => {
                let ledger = self.channels.entry((from, to)).or_default();
                match ledger.pending.pop_front() {
                    None => self.violations.push(Violation {
                        invariant: "fifo-order",
                        seq: Some(seq),
                        detail: format!(
                            "delivery on {from} -> {to} with no pending send (phantom message)"
                        ),
                    }),
                    Some((_, sent_slot, sent_gen)) => {
                        // The k-th delivery must carry the k-th send's
                        // payload handle; a mismatch means the channel
                        // reordered (or substituted) messages.
                        if (sent_slot, sent_gen) != (slot, gen) {
                            self.violations.push(Violation {
                                invariant: "fifo-order",
                                seq: Some(seq),
                                detail: format!(
                                    "channel {from} -> {to} delivered payload \
                                     {slot}@{gen} but the oldest pending send was \
                                     {sent_slot}@{sent_gen} (out of send order)"
                                ),
                            });
                        }
                    }
                }
                if let Some(prev) = ledger.last_delivery {
                    if tick < prev {
                        self.violations.push(Violation {
                            invariant: "fifo-order",
                            seq: Some(seq),
                            detail: format!(
                                "channel {from} -> {to} delivered at tick {tick} \
                                 after a delivery at tick {prev} (ticks regressed)"
                            ),
                        });
                    }
                }
                ledger.last_delivery = Some(ledger.last_delivery.map_or(tick, |p| p.max(tick)));
            }
            _ => {}
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, complete: bool) -> Vec<Violation> {
        let mut out = std::mem::take(&mut self.violations);
        if complete {
            for (&(from, to), ledger) in &self.channels {
                if !ledger.pending.is_empty() {
                    out.push(Violation {
                        invariant: "fifo-order",
                        seq: None,
                        detail: format!(
                            "channel {from} -> {to} lost {} message(s): sent but \
                             never delivered in a completed run",
                            ledger.pending.len()
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Every delivery happens strictly after its send and at most
/// [`AuditScope::max_delay_ticks`] past the channel's dispatch point — the
/// send tick, or the channel's previous delivery when the FIFO clamp had to
/// hold the message back behind an earlier, slower one.
#[derive(Default)]
pub struct DelayBound {
    channels: HashMap<(u32, u32), ChannelLedger>,
    violations: Vec<Violation>,
}

impl Invariant for DelayBound {
    fn name(&self) -> &'static str {
        "delay-bound"
    }

    fn observe(&mut self, scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        match *event {
            AuditEvent::Send {
                tick,
                from,
                to,
                slot,
                gen,
                ..
            } => {
                self.channels
                    .entry((from, to))
                    .or_default()
                    .pending
                    .push_back((tick, slot, gen));
            }
            AuditEvent::Deliver { tick, from, to, .. } => {
                let ledger = self.channels.entry((from, to)).or_default();
                // Phantom deliveries are FifoOrder's finding; here we only
                // bound the latency of matched pairs.
                if let Some((sent, _, _)) = ledger.pending.pop_front() {
                    if tick <= sent {
                        self.violations.push(Violation {
                            invariant: "delay-bound",
                            seq: Some(seq),
                            detail: format!(
                                "channel {from} -> {to}: delivery at tick {tick} \
                                 not strictly after its send at tick {sent} \
                                 (delay must be > 0)"
                            ),
                        });
                    }
                    // FIFO dispatch semantics: a message can only be held
                    // past send + τ by the channel's previous delivery.
                    let dispatch = ledger.last_delivery.map_or(sent, |p| p.max(sent));
                    if tick > dispatch + scope.max_delay_ticks {
                        self.violations.push(Violation {
                            invariant: "delay-bound",
                            seq: Some(seq),
                            detail: format!(
                                "channel {from} -> {to}: delivery at tick {tick} \
                                 exceeds dispatch tick {dispatch} + τ = {} \
                                 (delay must be ≤ τ)",
                                scope.max_delay_ticks
                            ),
                        });
                    }
                }
                ledger.last_delivery = Some(ledger.last_delivery.map_or(tick, |p| p.max(tick)));
            }
            _ => {}
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, _complete: bool) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// Every delivery lands on exactly the tick the oblivious adversary fixed
/// for it: the `seq`-th send on a channel, at tick `t`, is delivered at
/// `max(t + d, the channel's previous scheduled delivery)`, where `d` is
/// [`AuditScope::delays`]' `delay_ticks(from, to, t, seq)` clamped into
/// `[1, τ]` as the engine clamps it. Where [`DelayBound`] and [`FifoOrder`]
/// accept any legal schedule, this one accepts only the strategy's; it
/// checks nothing when the scope names no strategy.
#[derive(Default)]
pub struct ObliviousDelays {
    channels: HashMap<(u32, u32), ScheduledChannel>,
    violations: Vec<Violation>,
}

/// One directed channel as the strategy schedules it.
#[derive(Default)]
struct ScheduledChannel {
    /// Sends so far (the next send's `seq`).
    sends: u64,
    /// Latest delivery tick scheduled (the FIFO horizon).
    horizon: u64,
    /// Scheduled ticks of the not-yet-delivered sends, front = oldest.
    pending: std::collections::VecDeque<u64>,
}

impl Invariant for ObliviousDelays {
    fn name(&self) -> &'static str {
        "oblivious-delays"
    }

    fn observe(&mut self, scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        let Some(delays) = scope.delays else {
            return;
        };
        match *event {
            AuditEvent::Send { tick, from, to, .. } => {
                let ch = self.channels.entry((from, to)).or_default();
                let (u, v) = (NodeId::new(from as usize), NodeId::new(to as usize));
                let delay = delays
                    .delay_ticks(u, v, tick, ch.sends)
                    .clamp(1, TICKS_PER_UNIT);
                ch.sends += 1;
                ch.horizon = (tick + delay).max(ch.horizon);
                ch.pending.push_back(ch.horizon);
            }
            AuditEvent::Deliver { tick, from, to, .. } => {
                // Phantom deliveries are FifoOrder's finding.
                let ch = self.channels.entry((from, to)).or_default();
                if let Some(scheduled) = ch.pending.pop_front() {
                    if tick != scheduled {
                        self.violations.push(Violation {
                            invariant: "oblivious-delays",
                            seq: Some(seq),
                            detail: format!(
                                "channel {from} -> {to}: delivery at tick {tick}, \
                                 but the delay strategy scheduled it for tick {scheduled}"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, _complete: bool) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// Every sent message fits the configured bandwidth model, as charged at
/// enqueue time (the tick the `send` event carries).
#[derive(Default)]
pub struct CongestBudget {
    violations: Vec<Violation>,
}

impl Invariant for CongestBudget {
    fn name(&self) -> &'static str {
        "congest-budget"
    }

    fn observe(&mut self, scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        if let AuditEvent::Send { from, to, bits, .. } = *event {
            if !scope.channel.permits(bits as usize) {
                self.violations.push(Violation {
                    invariant: "congest-budget",
                    seq: Some(seq),
                    detail: format!(
                        "send {from} -> {to} of {bits} bits exceeds the \
                         {:?} budget",
                        scope.channel
                    ),
                });
            }
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, _complete: bool) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// Event ticks never regress: engines process work in tick order, so the
/// log's tick column must be non-decreasing along logical time.
#[derive(Default)]
pub struct MonotoneClock {
    last: Option<u64>,
    violations: Vec<Violation>,
}

impl Invariant for MonotoneClock {
    fn name(&self) -> &'static str {
        "monotone-clock"
    }

    fn observe(&mut self, _scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        let tick = event.tick();
        if let Some(last) = self.last {
            if tick < last {
                self.violations.push(Violation {
                    invariant: "monotone-clock",
                    seq: Some(seq),
                    detail: format!("tick regressed from {last} to {tick}"),
                });
            }
        }
        self.last = Some(self.last.map_or(tick, |l| l.max(tick)));
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, _complete: bool) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// Payload-arena lifecycle: a delivery must consume an outstanding reference
/// of exactly the (slot, generation) the matching send created — catching
/// use-after-free (a delivery with a stale generation), double delivery, and
/// (on complete logs) leaked payloads.
#[derive(Default)]
pub struct PayloadLifecycle {
    /// Outstanding references per (slot, gen).
    outstanding: HashMap<(u32, u32), u32>,
    /// Highest generation seen per slot — a delivery referencing an older
    /// generation than the slot has reached is a use-after-free.
    latest_gen: HashMap<u32, u32>,
    violations: Vec<Violation>,
}

impl Invariant for PayloadLifecycle {
    fn name(&self) -> &'static str {
        "payload-lifecycle"
    }

    fn observe(&mut self, _scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        match *event {
            AuditEvent::Send { slot, gen, .. } => {
                *self.outstanding.entry((slot, gen)).or_insert(0) += 1;
                let latest = self.latest_gen.entry(slot).or_insert(gen);
                *latest = (*latest).max(gen);
            }
            AuditEvent::Deliver { slot, gen, .. } => match self.outstanding.get_mut(&(slot, gen)) {
                Some(refs) if *refs > 0 => *refs -= 1,
                _ => {
                    let stale = self
                        .latest_gen
                        .get(&slot)
                        .is_some_and(|&latest| latest > gen);
                    self.violations.push(Violation {
                        invariant: "payload-lifecycle",
                        seq: Some(seq),
                        detail: if stale {
                            format!(
                                "delivery of payload {slot}@{gen} after the slot \
                                     was recycled to a newer generation \
                                     (use-after-free)"
                            )
                        } else {
                            format!(
                                "delivery of payload {slot}@{gen} with no \
                                     outstanding reference (double delivery or \
                                     phantom message)"
                            )
                        },
                    });
                }
            },
            _ => {}
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, complete: bool) -> Vec<Violation> {
        let mut out = std::mem::take(&mut self.violations);
        if complete {
            let mut leaked: Vec<_> = self
                .outstanding
                .iter()
                .filter(|&(_, &refs)| refs > 0)
                .map(|(&(slot, gen), &refs)| (slot, gen, refs))
                .collect();
            leaked.sort_unstable();
            for (slot, gen, refs) in leaked {
                out.push(Violation {
                    invariant: "payload-lifecycle",
                    seq: None,
                    detail: format!(
                        "payload {slot}@{gen} leaked {refs} reference(s): sent but \
                         never delivered in a completed run"
                    ),
                });
            }
        }
        out
    }
}

/// Wake causality: each node wakes at most once; a message-caused wake has a
/// same-tick delivery to that node earlier in the log (engines record the
/// triggering delivery before the wake); nodes neither send before waking
/// nor receive without ever waking.
#[derive(Default)]
pub struct WakeCausality {
    /// node -> wake tick.
    woken: HashMap<u32, u64>,
    /// (node, tick) pairs with at least one delivery.
    delivered_at: std::collections::HashSet<(u32, u64)>,
    /// Receivers of at least one delivery (checked awake at finish).
    received: HashMap<u32, u64>,
    violations: Vec<Violation>,
}

impl Invariant for WakeCausality {
    fn name(&self) -> &'static str {
        "wake-causality"
    }

    fn observe(&mut self, _scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        match *event {
            AuditEvent::Wake { tick, node, cause } => {
                if let Some(prev) = self.woken.insert(node, tick) {
                    self.violations.push(Violation {
                        invariant: "wake-causality",
                        seq: Some(seq),
                        detail: format!(
                            "node {node} woke twice (first at tick {prev}, again at \
                             tick {tick})"
                        ),
                    });
                }
                if cause == WakeCause::Message && !self.delivered_at.contains(&(node, tick)) {
                    self.violations.push(Violation {
                        invariant: "wake-causality",
                        seq: Some(seq),
                        detail: format!(
                            "node {node} reported a message wake at tick {tick} \
                             with no delivery to it at that tick"
                        ),
                    });
                }
            }
            AuditEvent::Send { tick, from, .. } => match self.woken.get(&from) {
                None => self.violations.push(Violation {
                    invariant: "wake-causality",
                    seq: Some(seq),
                    detail: format!("node {from} sent at tick {tick} before waking"),
                }),
                Some(&wake) if tick < wake => self.violations.push(Violation {
                    invariant: "wake-causality",
                    seq: Some(seq),
                    detail: format!(
                        "node {from} sent at tick {tick}, before its wake at \
                         tick {wake}"
                    ),
                }),
                _ => {}
            },
            AuditEvent::Deliver { tick, to, .. } => {
                self.delivered_at.insert((to, tick));
                self.received.entry(to).or_insert(tick);
            }
            _ => {}
        }
    }

    fn finish(&mut self, _scope: &AuditScope<'_>, complete: bool) -> Vec<Violation> {
        let mut out = std::mem::take(&mut self.violations);
        if complete {
            let mut silent: Vec<_> = self
                .received
                .iter()
                .filter(|(node, _)| !self.woken.contains_key(node))
                .collect();
            silent.sort_unstable();
            for (&node, &tick) in silent {
                out.push(Violation {
                    invariant: "wake-causality",
                    seq: None,
                    detail: format!(
                        "node {node} received a message (first at tick {tick}) but \
                         never woke"
                    ),
                });
            }
        }
        out
    }
}

/// Advice accounting: advice is read exactly once per woken node, at its
/// wake tick, and with exactly the bit length the oracle assigned — and
/// never read at all when no oracle was configured.
#[derive(Default)]
pub struct AdviceAccounting {
    reads: HashMap<u32, (u64, u32)>,
    wakes: HashMap<u32, u64>,
    violations: Vec<Violation>,
}

impl Invariant for AdviceAccounting {
    fn name(&self) -> &'static str {
        "advice-accounting"
    }

    fn observe(&mut self, scope: &AuditScope<'_>, seq: u64, event: &AuditEvent) {
        match *event {
            AuditEvent::AdviceRead { tick, node, bits } => {
                match scope.advice_bits.as_deref() {
                    None => self.violations.push(Violation {
                        invariant: "advice-accounting",
                        seq: Some(seq),
                        detail: format!(
                            "node {node} read {bits} advice bits but no oracle was \
                             configured"
                        ),
                    }),
                    Some(lens) => {
                        let expected = lens.get(node as usize).copied();
                        if expected != Some(bits) {
                            self.violations.push(Violation {
                                invariant: "advice-accounting",
                                seq: Some(seq),
                                detail: format!(
                                    "node {node} read {bits} advice bits but the \
                                     oracle assigned {expected:?}"
                                ),
                            });
                        }
                    }
                }
                if let Some(&(prev_tick, _)) = self.reads.get(&node) {
                    self.violations.push(Violation {
                        invariant: "advice-accounting",
                        seq: Some(seq),
                        detail: format!(
                            "node {node} read its advice twice (first at tick \
                             {prev_tick}, again at tick {tick})"
                        ),
                    });
                }
                self.reads.insert(node, (tick, bits));
            }
            AuditEvent::Wake { tick, node, .. } => {
                self.wakes.insert(node, tick);
            }
            _ => {}
        }
    }

    fn finish(&mut self, scope: &AuditScope<'_>, complete: bool) -> Vec<Violation> {
        let mut out = std::mem::take(&mut self.violations);
        if scope.advice_bits.is_some() {
            for (&node, &(read_tick, _)) in &self.reads {
                match self.wakes.get(&node) {
                    Some(&wake_tick) if wake_tick == read_tick => {}
                    Some(&wake_tick) => out.push(Violation {
                        invariant: "advice-accounting",
                        seq: None,
                        detail: format!(
                            "node {node} read advice at tick {read_tick}, not at \
                             its wake tick {wake_tick}"
                        ),
                    }),
                    None => out.push(Violation {
                        invariant: "advice-accounting",
                        seq: None,
                        detail: format!("node {node} read advice without waking"),
                    }),
                }
            }
            if complete {
                let mut unread: Vec<u32> = self
                    .wakes
                    .keys()
                    .filter(|node| !self.reads.contains_key(node))
                    .copied()
                    .collect();
                unread.sort_unstable();
                for node in unread {
                    out.push(Violation {
                        invariant: "advice-accounting",
                        seq: None,
                        detail: format!("node {node} woke without reading its advice"),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ChannelModel;
    use crate::network::Network;
    use wakeup_graph::generators;

    fn path_net(n: usize) -> Network {
        Network::kt0(generators::path(n).unwrap(), 0)
    }

    fn send(tick: u64, from: u32, to: u32, slot: u32, gen: u32) -> AuditEvent {
        AuditEvent::Send {
            tick,
            from,
            to,
            bits: 8,
            slot,
            gen,
        }
    }

    fn deliver(tick: u64, from: u32, to: u32, slot: u32, gen: u32) -> AuditEvent {
        AuditEvent::Deliver {
            tick,
            from,
            to,
            slot,
            gen,
        }
    }

    fn wake(tick: u64, node: u32) -> AuditEvent {
        AuditEvent::Wake {
            tick,
            node,
            cause: WakeCause::Adversary,
        }
    }

    fn log_of(events: &[AuditEvent]) -> AuditLog {
        let mut log = AuditLog::with_capacity(1 << 10);
        for &e in events {
            log.record(e);
        }
        log
    }

    fn run_standard(net: &Network, events: &[AuditEvent]) -> Vec<Violation> {
        Auditor::standard(AuditScope::new(net)).run(&log_of(events))
    }

    #[test]
    fn clean_unicast_log_passes() {
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                send(0, 0, 1, 0, 0),
                deliver(5, 0, 1, 0, 0),
                AuditEvent::Wake {
                    tick: 5,
                    node: 1,
                    cause: WakeCause::Message,
                },
            ],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reordered_channel_flags_fifo() {
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                send(0, 0, 1, 0, 0),
                send(0, 0, 1, 1, 0),
                deliver(3, 0, 1, 1, 0), // second send delivered first
                AuditEvent::Wake {
                    tick: 3,
                    node: 1,
                    cause: WakeCause::Message,
                },
                deliver(4, 0, 1, 0, 0),
            ],
        );
        assert!(v.iter().any(|v| v.invariant == "fifo-order"), "{v:?}");
    }

    #[test]
    fn late_delivery_flags_delay_bound() {
        let net = path_net(2);
        let tau = crate::metrics::TICKS_PER_UNIT;
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                send(0, 0, 1, 0, 0),
                deliver(tau + 1, 0, 1, 0, 0),
                AuditEvent::Wake {
                    tick: tau + 1,
                    node: 1,
                    cause: WakeCause::Message,
                },
            ],
        );
        assert!(v.iter().any(|v| v.invariant == "delay-bound"), "{v:?}");
    }

    #[test]
    fn zero_delay_flags_delay_bound() {
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                send(0, 0, 1, 0, 0),
                deliver(0, 0, 1, 0, 0),
                AuditEvent::Wake {
                    tick: 0,
                    node: 1,
                    cause: WakeCause::Message,
                },
            ],
        );
        assert!(v.iter().any(|v| v.invariant == "delay-bound"), "{v:?}");
    }

    #[test]
    fn fifo_clamp_backlog_is_legal() {
        // Second message sent at tick 0 but held behind the first delivery
        // at tick τ + 3? No — within bound: first delivers at 900, second at
        // 1000 despite 1000 > 0 + τ being false here; use explicit clamp
        // case: first delivery late at tick 1000, second sent at tick 2,
        // delivered at 1900 (> 2 + 1024 but ≤ 1000 + 1024).
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                send(0, 0, 1, 0, 0),
                send(2, 0, 1, 1, 0),
                deliver(1000, 0, 1, 0, 0),
                AuditEvent::Wake {
                    tick: 1000,
                    node: 1,
                    cause: WakeCause::Message,
                },
                deliver(1900, 0, 1, 1, 0),
            ],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn congest_oversize_flagged() {
        let net = path_net(2);
        let mut log = log_of(&[wake(0, 0)]);
        log.record(AuditEvent::Send {
            tick: 0,
            from: 0,
            to: 1,
            bits: 1_000_000,
            slot: 0,
            gen: 0,
        });
        log.record(deliver(5, 0, 1, 0, 0));
        log.record(AuditEvent::Wake {
            tick: 5,
            node: 1,
            cause: WakeCause::Message,
        });
        let scope = AuditScope::new(&net).with_channel(ChannelModel::congest_for(2));
        let v = Auditor::standard(scope).run(&log);
        assert!(v.iter().any(|v| v.invariant == "congest-budget"), "{v:?}");
    }

    #[test]
    fn clock_regression_flagged() {
        let net = path_net(2);
        let v = run_standard(&net, &[wake(7, 0), wake(3, 1)]);
        assert!(v.iter().any(|v| v.invariant == "monotone-clock"), "{v:?}");
    }

    #[test]
    fn stale_generation_delivery_flagged_as_use_after_free() {
        let net = path_net(3);
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                wake(0, 1),
                send(0, 0, 1, 0, 0),
                deliver(4, 0, 1, 0, 0),
                send(5, 1, 2, 0, 1),    // slot recycled at generation 1
                deliver(6, 0, 1, 0, 0), // stale handle re-delivered
                deliver(9, 1, 2, 0, 1),
                AuditEvent::Wake {
                    tick: 9,
                    node: 2,
                    cause: WakeCause::Message,
                },
            ],
        );
        assert!(
            v.iter()
                .any(|v| v.invariant == "payload-lifecycle" && v.detail.contains("use-after-free")),
            "{v:?}"
        );
    }

    #[test]
    fn lost_message_flagged_on_complete_log() {
        let net = path_net(2);
        let v = run_standard(&net, &[wake(0, 0), send(0, 0, 1, 0, 0)]);
        assert!(
            v.iter()
                .any(|v| v.invariant == "fifo-order" && v.detail.contains("lost")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|v| v.invariant == "payload-lifecycle" && v.detail.contains("leaked")),
            "{v:?}"
        );
        // ...but not on incomplete logs.
        let scope = AuditScope::new(&net).with_completed(false);
        let v = Auditor::standard(scope).run(&log_of(&[wake(0, 0), send(0, 0, 1, 0, 0)]));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn send_before_wake_flagged() {
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[
                send(0, 0, 1, 0, 0),
                wake(1, 0),
                deliver(5, 0, 1, 0, 0),
                AuditEvent::Wake {
                    tick: 5,
                    node: 1,
                    cause: WakeCause::Message,
                },
            ],
        );
        assert!(
            v.iter()
                .any(|v| v.invariant == "wake-causality" && v.detail.contains("before waking")),
            "{v:?}"
        );
    }

    #[test]
    fn message_wake_without_delivery_flagged() {
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[AuditEvent::Wake {
                tick: 3,
                node: 1,
                cause: WakeCause::Message,
            }],
        );
        assert!(v.iter().any(|v| v.invariant == "wake-causality"), "{v:?}");
    }

    #[test]
    fn non_edge_traffic_flagged() {
        let net = path_net(3); // 0-1-2: no 0-2 edge
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                send(0, 0, 2, 0, 0),
                deliver(5, 0, 2, 0, 0),
                AuditEvent::Wake {
                    tick: 5,
                    node: 2,
                    cause: WakeCause::Message,
                },
            ],
        );
        assert!(v.iter().any(|v| v.invariant == "edge-validity"), "{v:?}");
    }

    #[test]
    fn advice_accounting_checks_lengths_and_multiplicity() {
        let net = path_net(2);
        let mut scope = AuditScope::new(&net);
        scope.advice_bits = Some(vec![4, 9]);
        let log = log_of(&[
            wake(0, 0),
            AuditEvent::AdviceRead {
                tick: 0,
                node: 0,
                bits: 4,
            },
            wake(0, 1),
            AuditEvent::AdviceRead {
                tick: 0,
                node: 1,
                bits: 7, // oracle assigned 9
            },
        ]);
        let v = Auditor::standard(scope).run(&log);
        assert!(
            v.iter()
                .any(|v| v.invariant == "advice-accounting" && v.detail.contains("assigned")),
            "{v:?}"
        );
        // A node that wakes without reading is flagged on complete logs.
        let net2 = path_net(2);
        let mut scope2 = AuditScope::new(&net2);
        scope2.advice_bits = Some(vec![4, 9]);
        let v = Auditor::standard(scope2).run(&log_of(&[wake(0, 0)]));
        assert!(
            v.iter()
                .any(|v| v.invariant == "advice-accounting" && v.detail.contains("without reading")),
            "{v:?}"
        );
    }

    #[test]
    fn advice_read_without_oracle_flagged() {
        let net = path_net(2);
        let v = run_standard(
            &net,
            &[
                wake(0, 0),
                AuditEvent::AdviceRead {
                    tick: 0,
                    node: 0,
                    bits: 3,
                },
            ],
        );
        assert!(
            v.iter()
                .any(|v| v.invariant == "advice-accounting" && v.detail.contains("no oracle")),
            "{v:?}"
        );
    }

    #[test]
    fn violation_display_formats() {
        let v = Violation {
            invariant: "fifo-order",
            seq: Some(3),
            detail: "boom".into(),
        };
        assert_eq!(v.to_string(), "[fifo-order] seq 3: boom");
        let v = Violation {
            invariant: "fifo-order",
            seq: None,
            detail: "boom".into(),
        };
        assert_eq!(v.to_string(), "[fifo-order] end of log: boom");
    }
}
