//! Discrete-event simulation runtime implementing the paper's network model.
//!
//! The runtime simulates an undirected message-passing network under the
//! exact conventions of Robinson & Tan (PODC 2025):
//!
//! * **Asynchrony** ([`AsyncEngine`]): every message suffers an adversarial
//!   but finite delay in `(0, τ]`; channels are error-free FIFO; time
//!   complexity is normalized by τ and measured from the first wake-up to the
//!   last message receipt.
//! * **Synchrony** ([`SyncEngine`]): lock-step rounds, messages sent in round
//!   `r` arrive at the start of round `r + 1`; nodes have no global clock,
//!   only local round counters since their own wake-up.
//! * **Knowledge** ([`knowledge`]): `KT0` (port numbers only, adversarially
//!   permuted) or `KT1` (each node knows its neighbors' IDs from the start).
//! * **Bandwidth** ([`ChannelModel`]): `LOCAL` (unbounded messages) or
//!   `CONGEST` (`O(log n)`-bit messages, enforced at send time).
//! * **Adversary** ([`adversary`]): chooses the topology, IDs, port mappings,
//!   wake-up schedule, and message delays — all fixed before the execution
//!   (oblivious), never observing node randomness.
//! * **Advice** ([`advice`]): oracles that see the whole network (but not the
//!   awake set) and assign each node a bit string before the execution.
//!
//! # Example
//!
//! A two-line protocol that floods a wake-up signal:
//!
//! ```
//! use wakeup_graph::generators;
//! use wakeup_sim::{
//!     adversary::WakeSchedule, AsyncConfig, AsyncEngine, AsyncProtocol, Context, Incoming,
//!     Network, NodeInit, Payload, WakeCause,
//! };
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Payload for Ping {
//!     fn size_bits(&self) -> usize { 1 }
//! }
//!
//! struct Flood;
//! impl AsyncProtocol for Flood {
//!     type Msg = Ping;
//!     fn init(_: &NodeInit<'_>) -> Self { Flood }
//!     fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
//!         ctx.broadcast(Ping);
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, Ping>, _: Incoming, _: Ping) {}
//! }
//!
//! let net = Network::kt0(generators::cycle(10)?, 42);
//! let schedule = WakeSchedule::single(wakeup_graph::NodeId::new(0));
//! let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&schedule);
//! assert!(report.all_awake);
//! assert_eq!(report.metrics.messages_sent, 20); // every node broadcasts once
//! # Ok::<(), wakeup_graph::GraphError>(())
//! ```

// `deny` rather than `forbid`: the sanctioned exceptions are the
// `SectionElem` marker impls for `PortEntry` in `knowledge.rs` and
// `EdgeHot` in `network.rs` (no unsafe *code*, just layout assertions the
// store's zero-copy views rely on), and the non-faulting `_mm_prefetch`
// hint in `prefetch.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod advice;
mod arena;
mod async_engine;
pub mod audit;
pub mod bits;
pub mod differential;
pub mod knowledge;
mod lockstep;
mod message;
mod metrics;
mod network;
pub mod obs;
pub mod persist;
mod prefetch;
mod proptests;
mod protocol;
pub mod shard;
mod sync_engine;
pub mod viz;

pub use async_engine::{AsyncConfig, AsyncEngine};
pub use bits::{BitReader, BitStr, DenseBits};
pub use differential::{PerMessage, PerRound, RunDigest};
pub use knowledge::{IdAssignment, KnowledgeMode, Port, PortAssignment};
pub use lockstep::Lockstep;
pub use message::{ChannelModel, Payload};
pub use metrics::{Metrics, RunReport, TICKS_PER_UNIT};
pub use network::Network;
pub use obs::{
    current_window, global_events, CriticalPath, Hist64, Obs, ObsLevel, ObsSnapshot,
    RuntimeCounters, TimelineSnapshot, WindowCfg, WindowRow,
};
pub use protocol::{
    AsyncProtocol, Context, Inbox, Incoming, NodeInit, ScopedBuf, SyncProtocol, WakeCause,
};
pub use sync_engine::{SyncConfig, SyncEngine};
