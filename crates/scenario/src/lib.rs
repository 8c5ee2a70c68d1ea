//! Declarative workload specs for the adversarial wake-up harness.
//!
//! A **scenario** is one JSON document pinning everything an execution
//! depends on: the graph family and its parameters, the protocol under
//! test, the adversary's wake schedule and delay strategy (with its τ
//! cap), and the engine options (seed, shard count, audit eligibility).
//! This crate owns:
//!
//! * [`spec`] — the versioned schema, strict lossless parsing (unknown
//!   fields rejected, every range validated with a typed [`SpecError`]),
//!   and byte-stable canonical serialization;
//! * [`corpus`] — the checked-in `scenarios/` corpus loader (every Table 1
//!   row lives there as a spec file);
//! * [`run`] — the generic spec runner: build the graph, dispatch on the
//!   protocol, return a [`wakeup_sim::RunDigest`]-able report;
//! * [`gen`] — a seeded-deterministic generator of random *valid* specs;
//! * [`conformance`] — the differential battery that
//!   `wakeup fuzz` feeds each spec through: invariant audits,
//!   batched-vs-per-message, reset-vs-fresh, sharded-vs-serial, and
//!   lockstep-vs-sync where eligible, plus greedy spec minimization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod corpus;
pub mod gen;
pub mod json;
pub mod run;
pub mod spec;

pub use spec::{
    DelaySpec, EngineSpec, GraphSpec, ObsWindowSpec, ProtocolSpec, ReportSpec, ScenarioSpec,
    SpecError, WakeSpec, MAX_SEED, SPEC_VERSION,
};
