//! Model-conformance auditing: the engines' one event recorder.
//!
//! The paper's claims are *model-relative* (FIFO channels, delays in
//! `(0, τ]`, CONGEST's `O(log n)`-bit messages, oblivious adversaries), so
//! this module is the machinery that proves the simulator implements the
//! model after every optimization of its hot paths:
//!
//! * **[`AuditLog`]** — the structured event recorder both engines feed when
//!   [`crate::AsyncConfig::audit_capacity`] /
//!   [`crate::SyncConfig::audit_capacity`] is set. Events carry logical
//!   timestamps (the global event sequence), payload-arena slot
//!   **generations**, and advice-read accounting — enough to re-derive every
//!   model guarantee post hoc. [`AuditLog::wake_front`],
//!   [`AuditLog::channel_load`] and [`AuditLog::render_timeline`] answer the
//!   debugging questions ("who woke whom, when?") directly on the log.
//! * **[`Invariant`]** — a pluggable checker interface; the standard set
//!   ([`Auditor::standard`]) validates edge validity, per-edge FIFO order,
//!   the `(0, τ]` delay bound, CONGEST budgets as charged at enqueue,
//!   monotone clocks, payload lifecycle (no use-after-free, no double
//!   delivery, no loss), wake causality, and advice-length accounting.
//! * **JSONL** — [`AuditLog::to_jsonl`] / [`AuditLog::from_jsonl`] give a
//!   stable line-per-event interchange format, so a failing execution can be
//!   committed as a fixture, attached to CI artifacts, and replayed through
//!   the checkers without re-running the engine.
//!
//! The recorder is always compiled; a run that sets no capacity pays one
//! predictable `Option` branch per handler.
//!
//! # Example
//!
//! ```
//! use wakeup_graph::{generators, NodeId};
//! use wakeup_sim::adversary::WakeSchedule;
//! use wakeup_sim::audit::{AuditScope, Auditor};
//! use wakeup_sim::{AsyncConfig, AsyncEngine, AsyncProtocol, Context, Incoming, NodeInit,
//!     Network, Payload, WakeCause};
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Payload for Ping {
//!     fn size_bits(&self) -> usize { 1 }
//! }
//! struct Flood(bool);
//! impl AsyncProtocol for Flood {
//!     type Msg = Ping;
//!     fn init(_: &NodeInit<'_>) -> Self { Flood(false) }
//!     fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _: WakeCause) {
//!         if !self.0 { self.0 = true; ctx.broadcast(Ping); }
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, Ping>, _: Incoming, _: Ping) {}
//! }
//!
//! let net = Network::kt0(generators::cycle(8)?, 1);
//! let config = AsyncConfig { audit_capacity: Some(1 << 16), ..AsyncConfig::default() };
//! let report = AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
//! let log = report.audit_log.as_ref().unwrap();
//! let violations = Auditor::standard(AuditScope::new(&net)).run(log);
//! assert!(violations.is_empty(), "{violations:?}");
//! # Ok::<(), wakeup_graph::GraphError>(())
//! ```

mod invariants;
mod jsonl;

pub use invariants::{
    AdviceAccounting, Auditor, CongestBudget, DelayBound, EdgeValidity, FifoOrder, Invariant,
    MonotoneClock, PayloadLifecycle, Violation, WakeCausality,
};

use wakeup_graph::NodeId;

use crate::arena::PayloadRef;
use crate::bits::BitStr;
use crate::message::ChannelModel;
use crate::metrics::TICKS_PER_UNIT;
use crate::network::Network;
use crate::protocol::WakeCause;

/// One recorded engine event, the unit of the conformance audit.
///
/// The *logical timestamp* of an event is its index in the [`AuditLog`]
/// (serialized explicitly as `seq` in JSONL): engines record events in the
/// exact order they act, so the index is a total order refining the tick
/// order — what Fidge/Mattern-style causal analyses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// A node woke up (adversary schedule or first message receipt).
    Wake {
        /// Engine tick of the wake.
        tick: u64,
        /// Dense index of the node.
        node: u32,
        /// What woke it.
        cause: WakeCause,
    },
    /// A node read its oracle-assigned advice string on wake-up.
    AdviceRead {
        /// Engine tick of the read (= the node's wake tick).
        tick: u64,
        /// Dense index of the node.
        node: u32,
        /// Length of the advice string read, in bits.
        bits: u32,
    },
    /// A message was handed to a channel (CONGEST is charged here).
    Send {
        /// Engine tick of the send.
        tick: u64,
        /// Dense index of the sender.
        from: u32,
        /// Dense index of the receiver.
        to: u32,
        /// Payload size in bits, as charged at enqueue time.
        bits: u32,
        /// Payload-arena slot holding the payload.
        slot: u32,
        /// Generation of that slot when the handle was issued.
        gen: u32,
    },
    /// A message was delivered to its receiver.
    Deliver {
        /// Engine tick of the delivery.
        tick: u64,
        /// Dense index of the sender.
        from: u32,
        /// Dense index of the receiver.
        to: u32,
        /// Payload-arena slot the delivered handle pointed at.
        slot: u32,
        /// Generation of that slot as carried by the delivered handle.
        gen: u32,
    },
}

impl AuditEvent {
    /// The engine tick at which this event happened.
    pub fn tick(&self) -> u64 {
        match *self {
            AuditEvent::Wake { tick, .. }
            | AuditEvent::AdviceRead { tick, .. }
            | AuditEvent::Send { tick, .. }
            | AuditEvent::Deliver { tick, .. } => tick,
        }
    }
}

/// A bounded, ordered audit event log recorded by an engine run.
///
/// The capacity cap drops the *newest* events and sets
/// [`AuditLog::truncated`], so a runaway protocol cannot exhaust memory;
/// end-of-run invariants (conservation, payload leaks) are skipped for
/// truncated logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
    capacity: usize,
    /// True if events were dropped because the capacity was reached.
    pub truncated: bool,
}

impl Default for AuditLog {
    fn default() -> AuditLog {
        AuditLog::with_capacity(1 << 22)
    }
}

impl AuditLog {
    /// Creates a log holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> AuditLog {
        AuditLog {
            events: Vec::new(),
            capacity,
            truncated: false,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event (public so tests and replay tooling can build logs
    /// by hand; the engines are the normal writers).
    pub fn record(&mut self, event: AuditEvent) {
        if self.events.len() >= self.capacity {
            self.truncated = true;
            return;
        }
        self.events.push(event);
    }

    /// All recorded events; the slice index is the logical timestamp.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the log as JSONL, one event per line (see the module docs
    /// for the schema). The output is byte-deterministic: equal logs
    /// serialize identically.
    pub fn to_jsonl(&self) -> String {
        jsonl::to_jsonl(self)
    }

    /// Parses a log back from [`AuditLog::to_jsonl`] output. Lines must be
    /// complete and in `seq` order — a hole means the file was truncated or
    /// hand-edited, and replaying it would silently audit a different
    /// execution.
    pub fn from_jsonl(text: &str) -> Result<AuditLog, String> {
        jsonl::from_jsonl(text)
    }

    /// The wake-up front: `(time-in-units, node, cause)` sorted by time —
    /// how the awake set grew over the execution.
    pub fn wake_front(&self) -> Vec<(f64, NodeId, WakeCause)> {
        let mut front: Vec<(f64, NodeId, WakeCause)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                AuditEvent::Wake { tick, node, cause } => Some((
                    tick as f64 / TICKS_PER_UNIT as f64,
                    NodeId::new(node as usize),
                    cause,
                )),
                _ => None,
            })
            .collect();
        front.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        front
    }

    /// Messages sent on the directed channel `from → to`.
    pub fn channel_load(&self, from: NodeId, to: NodeId) -> usize {
        let (from, to) = (from.index() as u32, to.index() as u32);
        self.events
            .iter()
            .filter(
                |e| matches!(**e, AuditEvent::Send { from: f, to: t, .. } if f == from && t == to),
            )
            .count()
    }

    /// A compact human-readable timeline, one line per event, capped at
    /// `max_lines` lines.
    pub fn render_timeline(&self, max_lines: usize) -> String {
        let mut out = String::new();
        let v = |i: u32| NodeId::new(i as usize);
        for e in self.events.iter().take(max_lines) {
            let t = e.tick() as f64 / TICKS_PER_UNIT as f64;
            let line = match *e {
                AuditEvent::Wake { node, cause, .. } => {
                    format!("{t:9.3}  WAKE    {} ({cause:?})\n", v(node))
                }
                AuditEvent::AdviceRead { node, bits, .. } => {
                    format!("{t:9.3}  ADVICE  {} ({bits}b)\n", v(node))
                }
                AuditEvent::Send { from, to, bits, .. } => {
                    format!("{t:9.3}  SEND    {} -> {} ({bits}b)\n", v(from), v(to))
                }
                AuditEvent::Deliver { from, to, .. } => {
                    format!("{t:9.3}  DELIVER {} -> {}\n", v(from), v(to))
                }
            };
            out.push_str(&line);
        }
        if self.events.len() > max_lines {
            out.push_str(&format!(
                "… {} more events\n",
                self.events.len() - max_lines
            ));
        }
        out
    }

    /// Records that `node` woke at `tick`. A node consults its advice exactly
    /// when it wakes, so its advice length (when an oracle assigned
    /// `advice`) is logged here for the advice-accounting invariant.
    pub(crate) fn record_wake(
        &mut self,
        tick: u64,
        node: NodeId,
        cause: WakeCause,
        advice: Option<&Vec<BitStr>>,
    ) {
        let node = node.index() as u32;
        self.record(AuditEvent::Wake { tick, node, cause });
        if let Some(advice) = advice {
            let bits = advice[node as usize].len() as u32;
            self.record(AuditEvent::AdviceRead { tick, node, bits });
        }
    }

    /// Records that `msg` from original sender index `from` was delivered
    /// to `to`.
    pub(crate) fn record_deliver(&mut self, tick: u64, from: u32, to: NodeId, msg: PayloadRef) {
        self.record(AuditEvent::Deliver {
            tick,
            from,
            to: to.index() as u32,
            slot: msg.slot(),
            gen: msg.generation(),
        });
    }

    /// Records that `msg` of `bits` bits was sent from `from` to `to`.
    pub(crate) fn record_send(
        &mut self,
        tick: u64,
        from: NodeId,
        to: NodeId,
        bits: usize,
        msg: PayloadRef,
    ) {
        self.record(AuditEvent::Send {
            tick,
            from: from.index() as u32,
            to: to.index() as u32,
            bits: bits as u32,
            slot: msg.slot(),
            gen: msg.generation(),
        });
    }
}

/// Everything the invariant checkers need to know about the run besides the
/// event log itself: the network, the bandwidth model the engine enforced,
/// the delay bound, whether the run completed (truncated runs skip
/// end-of-log conservation checks), and the oracle's advice lengths.
#[derive(Debug, Clone)]
pub struct AuditScope<'a> {
    /// The network the execution ran over.
    pub net: &'a Network,
    /// Bandwidth model the engine was configured with.
    pub channel: ChannelModel,
    /// Maximum permitted delivery delay in ticks (the model's τ; tighten it
    /// when the delay strategy was capped below `TICKS_PER_UNIT`).
    pub max_delay_ticks: u64,
    /// Whether the engine ran to quiescence (enables conservation checks).
    pub completed: bool,
    /// Per-node advice lengths in bits, when an oracle was configured.
    pub advice_bits: Option<Vec<u32>>,
}

impl<'a> AuditScope<'a> {
    /// A scope with the defaults of [`crate::AsyncConfig`]: LOCAL bandwidth,
    /// the full τ delay bound, a completed run, and no advice oracle.
    pub fn new(net: &'a Network) -> AuditScope<'a> {
        AuditScope {
            net,
            channel: ChannelModel::Local,
            max_delay_ticks: TICKS_PER_UNIT,
            completed: true,
            advice_bits: None,
        }
    }

    /// Sets the bandwidth model the engine enforced.
    pub fn with_channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Tightens the delay bound to `ticks` (for capped delay strategies).
    pub fn with_max_delay_ticks(mut self, ticks: u64) -> Self {
        self.max_delay_ticks = ticks;
        self
    }

    /// Marks the run as truncated/incomplete, disabling conservation checks.
    pub fn with_completed(mut self, completed: bool) -> Self {
        self.completed = completed;
        self
    }

    /// Supplies the oracle's advice strings for advice-length accounting.
    pub fn with_advice(mut self, advice: &[BitStr]) -> Self {
        self.advice_bits = Some(advice.iter().map(|a| a.len() as u32).collect());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::generators;

    #[test]
    fn log_caps_and_marks_truncation() {
        let mut log = AuditLog::with_capacity(2);
        for i in 0..4 {
            log.record(AuditEvent::Wake {
                tick: i,
                node: 0,
                cause: WakeCause::Adversary,
            });
        }
        assert_eq!(log.len(), 2);
        assert!(log.truncated);
    }

    #[test]
    fn scope_builders_compose() {
        let net = Network::kt0(generators::path(4).unwrap(), 0);
        let advice = vec![BitStr::new(), BitStr::new(), BitStr::new(), BitStr::new()];
        let scope = AuditScope::new(&net)
            .with_channel(ChannelModel::congest_for(4))
            .with_max_delay_ticks(16)
            .with_completed(false)
            .with_advice(&advice);
        assert_eq!(scope.max_delay_ticks, 16);
        assert!(!scope.completed);
        assert_eq!(scope.advice_bits.as_deref(), Some(&[0u32, 0, 0, 0][..]));
        assert!(matches!(scope.channel, ChannelModel::Congest { .. }));
    }

    fn send(tick: u64, from: u32, to: u32) -> AuditEvent {
        AuditEvent::Send {
            tick,
            from,
            to,
            bits: 1,
            slot: 0,
            gen: 0,
        }
    }

    #[test]
    fn wake_front_sorted() {
        let mut log = AuditLog::default();
        log.record(AuditEvent::Wake {
            tick: 2048,
            node: 1,
            cause: WakeCause::Message,
        });
        log.record(AuditEvent::Wake {
            tick: 0,
            node: 0,
            cause: WakeCause::Adversary,
        });
        let front = log.wake_front();
        assert_eq!(front.len(), 2);
        assert_eq!(front[0].1, NodeId::new(0));
        assert_eq!(front[1].0, 2.0);
    }

    #[test]
    fn channel_load_counts_directed() {
        let mut log = AuditLog::default();
        for event in [send(0, 0, 1), send(1, 0, 1), send(2, 1, 0)] {
            log.record(event);
        }
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(log.channel_load(a, b), 2);
        assert_eq!(log.channel_load(b, a), 1);
    }

    #[test]
    fn timeline_renders_and_caps() {
        let mut log = AuditLog::default();
        for i in 0..5 {
            log.record(AuditEvent::Deliver {
                tick: i,
                from: 0,
                to: 1,
                slot: 0,
                gen: 0,
            });
        }
        log.record(send(6, 1, 0));
        log.record(AuditEvent::AdviceRead {
            tick: 6,
            node: 1,
            bits: 3,
        });
        let s = log.render_timeline(3);
        assert!(s.contains("DELIVER v0 -> v1"));
        assert!(s.contains("4 more events"));
        let full = log.render_timeline(100);
        assert!(full.contains("SEND    v1 -> v0 (1b)"));
        assert!(full.contains("ADVICE  v1 (3b)"));
        assert!(!full.contains("more events"));
    }

    #[test]
    fn event_tick_accessor() {
        let e = AuditEvent::Send {
            tick: 9,
            from: 0,
            to: 1,
            bits: 3,
            slot: 0,
            gen: 0,
        };
        assert_eq!(e.tick(), 9);
        let w = AuditEvent::AdviceRead {
            tick: 4,
            node: 2,
            bits: 7,
        };
        assert_eq!(w.tick(), 4);
    }
}
