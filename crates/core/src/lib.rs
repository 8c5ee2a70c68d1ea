//! The wake-up algorithms of Robinson & Tan, *"Rise and Shine Efficiently!
//! The Complexity of Adversarial Wake-up in Asynchronous Networks"*
//! (PODC 2025), implemented over the [`wakeup_sim`] runtime.
//!
//! # Algorithm inventory
//!
//! | Module | Paper result | Model | Guarantees |
//! |---|---|---|---|
//! | [`flooding`] | baseline (Sec. 1.2) | any | ρ_awk time, Θ(m) messages |
//! | [`dfs_rank`] | Theorem 3 | async KT1 LOCAL | O(n log n) time & messages w.h.p. |
//! | [`dfs_congest`] | why Thm 3 needs LOCAL | async KT1 CONGEST | correct, but Θ(m) messages (bounce overhead) |
//! | [`fast_wakeup`] | Theorem 4 | sync KT1 LOCAL | 10·ρ_awk rounds, O(n^{3/2}√log n) messages w.h.p. |
//! | [`advice::bfs_tree`] | Corollary 1 | async KT0 CONGEST | O(D) time, O(n) msgs, max advice O(n), avg O(log n) |
//! | [`advice::threshold`] | Theorem 5(A) | async KT0 CONGEST | O(D) time, O(n^{3/2}) msgs, max advice O(√n log n) |
//! | [`advice::cen`] | Theorem 5(B) | async KT0 CONGEST | O(D log n) time, O(n) msgs, max advice O(log n) |
//! | [`advice::spanner`] | Theorem 6 / Corollary 2 | async KT0 CONGEST | O(k·ρ_awk·log n) time, O(k·n^{1+1/k} log n) msgs, max advice O(n^{1/k} log² n) |
//! | [`gossip`] | Appendix D (simplified) | sync KT1 LOCAL | polylog phases on 𝒢ₖ (measured, see DESIGN.md) |
//! | [`nih`] | Lemma 1 (generic adapter) | async, KT0/KT1 | wake-up → needles-in-haystack at +n messages, +1 time |
//! | [`leader`] | extension (Sec. 1.3 motivation) | async KT1 LOCAL | leader election under adversarial wake-up |
//!
//! # Quick start
//!
//! ```
//! use wakeup_core::dfs_rank::DfsRank;
//! use wakeup_graph::{generators, NodeId};
//! use wakeup_sim::{adversary::WakeSchedule, AsyncConfig, AsyncEngine, Network};
//!
//! let net = Network::kt1(generators::erdos_renyi_connected(50, 0.1, 7)?, 7);
//! let config = AsyncConfig { seed: 1, ..AsyncConfig::default() };
//! let report = AsyncEngine::<DfsRank>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
//! assert!(report.all_awake);
//! # Ok::<(), wakeup_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod dfs_congest;
pub mod dfs_rank;
pub mod energy;
pub mod fast_wakeup;
pub mod flooding;
pub mod gossip;
pub mod leader;
pub mod nih;
