//! Umbrella crate for the adversarial wake-up reproduction.
//!
//! Re-exports the full public API of the workspace so downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — topologies, generators, graph algorithms, the lower-bound
//!   families 𝒢 and 𝒢ₖ ([`wakeup_graph`]).
//! * [`sim`] — the asynchronous/synchronous simulation runtime, knowledge
//!   models, adversaries, and advice oracles ([`wakeup_sim`]).
//! * [`core`] — the paper's algorithms and advising schemes
//!   ([`wakeup_core`]).
//! * [`lb`] — the lower-bound experiments ([`wakeup_lb`]).
//! * [`store`] — the persistent artifact store: versioned, checksummed
//!   container files reloaded via zero-copy mmap ([`wakeup_store`]); the
//!   network/advice encodings live in [`sim::persist`].
//!
//! # Example
//!
//! ```
//! use wakeup::core::flooding::FloodAsync;
//! use wakeup::graph::{generators, NodeId};
//! use wakeup::sim::{adversary::WakeSchedule, AsyncConfig, AsyncEngine, Network};
//!
//! let net = Network::kt0(generators::cycle(8)?, 1);
//! let config = AsyncConfig { seed: 1, ..AsyncConfig::default() };
//! let report = AsyncEngine::<FloodAsync>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
//! assert!(report.all_awake);
//! # Ok::<(), wakeup::graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wakeup_core as core;
pub use wakeup_graph as graph;
pub use wakeup_lb as lb;
pub use wakeup_sim as sim;
pub use wakeup_store as store;
