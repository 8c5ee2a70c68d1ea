//! The per-spec conformance battery behind `wakeup fuzz`.
//!
//! Every scenario — corpus file or generated — runs through the same
//! differential checks the fixed `audit` harness applies to its hardcoded
//! workloads:
//!
//! 1. **invariants** — the audited run through [`Auditor::standard`], with
//!    the scope tightened to the spec's τ cap, naming its delay strategy
//!    (async) and, for advising schemes, its CONGEST channel and advice
//!    lengths;
//! 2. **batch-vs-per-message** — [`PerMessage`] (async) / [`PerRound`]
//!    (sync) must reproduce the batched fast path byte-for-byte, digests
//!    and audit-trace bytes both;
//! 3. **reset-vs-fresh** — a dirtied engine after `reset()` must match a
//!    freshly constructed one exactly;
//! 4. **sharded-vs-serial** — the engine's one executor at shard count 2
//!    must agree with its inline one-shard run on the digest and the
//!    byte-exact observability snapshot;
//! 5. **lockstep-vs-sync** — a unit-delay flooding spec with round-aligned
//!    wake times is a synchronous execution and must agree with the sync
//!    engine under [`Lockstep`] (digests; the engines schedule internal
//!    events differently, so traces are not byte-comparable).
//!
//! A failing spec is shrunk by [`minimize`]: greedy descent over graph
//! size, delay strategy, wake schedule, and options, keeping each
//! candidate only while the battery still fails.

use std::sync::Arc;

use crate::run::{
    async_config, build_delays, build_network, build_schedule, dispatch_async, dispatch_sync,
    sync_config, AsyncDispatch, SyncDispatch,
};
use crate::spec::{DelaySpec, GraphSpec, ProtocolSpec, ScenarioSpec, WakeSpec};
use wakeup_core::flooding::FloodAsync;
use wakeup_sim::adversary::{RandomDelay, WakeSchedule};
use wakeup_sim::audit::{AuditLog, AuditScope, Auditor};
use wakeup_sim::{
    AsyncConfig, AsyncEngine, AsyncProtocol, BitStr, ChannelModel, Lockstep, Network, PerMessage,
    PerRound, RunDigest, RunReport, SyncConfig, SyncEngine, SyncProtocol,
};

/// Audit-log event capacity for every audited run — far above what the
/// fuzz-scale workloads produce, so logs never truncate.
pub const AUDIT_CAP: usize = 1 << 20;

/// Outcome of one conformance check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Check name (`invariants`, `batch-vs-per-message`, …).
    pub name: String,
    /// Whether the check passed.
    pub passed: bool,
    /// Failure detail (empty on pass).
    pub detail: String,
    /// Audit-trace artifacts to dump on failure, as `(tag, jsonl)` pairs.
    pub artifacts: Vec<(String, String)>,
}

impl CheckReport {
    fn pass(name: &str) -> CheckReport {
        CheckReport {
            name: name.to_string(),
            passed: true,
            detail: String::new(),
            artifacts: Vec::new(),
        }
    }

    fn fail(name: &str, detail: String, artifacts: Vec<(String, String)>) -> CheckReport {
        CheckReport {
            name: name.to_string(),
            passed: false,
            detail,
            artifacts,
        }
    }
}

fn log(report: &RunReport) -> &AuditLog {
    report
        .audit_log
        .as_ref()
        .expect("engine was configured with audit_capacity")
}

fn equivalent(name: &str, left: &RunReport, right: &RunReport, traces_too: bool) -> CheckReport {
    let diffs = RunDigest::of(left).diff(&RunDigest::of(right));
    if !diffs.is_empty() {
        return CheckReport::fail(
            name,
            format!(
                "{} digest field(s) differ; first: {}",
                diffs.len(),
                diffs[0]
            ),
            vec![
                ("left".into(), log(left).to_jsonl()),
                ("right".into(), log(right).to_jsonl()),
            ],
        );
    }
    if traces_too {
        let (la, lb) = (log(left), log(right));
        if la.to_jsonl() != lb.to_jsonl() {
            return CheckReport::fail(
                name,
                format!(
                    "digests agree but traces differ ({} vs {} events)",
                    la.len(),
                    lb.len()
                ),
                vec![
                    ("left".into(), la.to_jsonl()),
                    ("right".into(), lb.to_jsonl()),
                ],
            );
        }
    }
    CheckReport::pass(name)
}

fn equivalent_snapshots(name: &str, left: &RunReport, right: &RunReport) -> CheckReport {
    let diffs = RunDigest::of(left).diff(&RunDigest::of(right));
    if !diffs.is_empty() {
        return CheckReport::fail(
            name,
            format!(
                "{} digest field(s) differ; first: {}",
                diffs.len(),
                diffs[0]
            ),
            Vec::new(),
        );
    }
    if left.obs_snapshot().to_json() != right.obs_snapshot().to_json() {
        return CheckReport::fail(
            name,
            "digests agree but ObsSnapshot JSON differs".into(),
            Vec::new(),
        );
    }
    CheckReport::pass(name)
}

/// Whether the spec's wake schedule lands on whole-τ boundaries only (the
/// lockstep eligibility condition).
fn round_aligned(wake: &WakeSpec) -> bool {
    match wake {
        WakeSpec::Single { .. } | WakeSpec::All | WakeSpec::Centers => true,
        WakeSpec::Staggered { gap } => gap.fract() == 0.0,
        WakeSpec::Pairs { pairs } => pairs.iter().all(|&(_, t)| t.fract() == 0.0),
    }
}

struct AsyncBattery<'s> {
    spec: &'s ScenarioSpec,
    schedule: &'s WakeSchedule,
}

impl AsyncDispatch for AsyncBattery<'_> {
    type Out = Vec<CheckReport>;

    fn call<P: AsyncProtocol>(
        self,
        net: &Network,
        channel: ChannelModel,
        advice: Option<Arc<Vec<BitStr>>>,
    ) -> Vec<CheckReport> {
        let spec = self.spec;
        let schedule = self.schedule;
        let mut checks = Vec::new();
        let cfg = || AsyncConfig {
            audit_capacity: Some(AUDIT_CAP),
            ..async_config(spec, channel, advice.clone())
        };
        // One strategy serves every run: delays are pure functions.
        let delays = build_delays(&spec.delays);
        let run =
            |config: AsyncConfig| AsyncEngine::<P>::new(net, config).run_with(schedule, &delays);

        let base = run(cfg());

        // 1. Invariant battery over the audited trace, each delivery tick
        // recomputed from the spec's delay strategy.
        if spec.engine.audit {
            let mut scope = AuditScope::new(net)
                .with_channel(channel)
                .with_max_delay_ticks(spec.delays.max_delay_ticks())
                .with_delays(&delays)
                .with_completed(!base.truncated);
            if let Some(advice) = &advice {
                scope = scope.with_advice(advice);
            }
            let violations = Auditor::standard(scope).run(log(&base));
            checks.push(if violations.is_empty() {
                CheckReport::pass("invariants")
            } else {
                let first = &violations[0];
                CheckReport::fail(
                    "invariants",
                    format!(
                        "{} violation(s); first: [{}] {}",
                        violations.len(),
                        first.invariant,
                        first.detail
                    ),
                    vec![("violating".into(), log(&base).to_jsonl())],
                )
            });
        }

        // 2. Batched vs per-message delivery.
        let per_message = AsyncEngine::<PerMessage<P>>::new(net, cfg()).run_with(schedule, &delays);
        checks.push(equivalent(
            "batch-vs-per-message",
            &base,
            &per_message,
            true,
        ));

        // 3. reset() + rerun vs the fresh engine.
        let reused = {
            let mut engine = AsyncEngine::<P>::new(net, cfg());
            // Dirty every scratch structure with a different-seed run.
            engine.reset(spec.engine.seed ^ 0x5A5A);
            let _ = engine.run_mut(schedule, &RandomDelay::new(23));
            engine.reset(spec.engine.seed);
            engine.run_mut(schedule, &delays)
        };
        checks.push(equivalent("reset-vs-fresh", &base, &reused, true));

        // 4. Two shards vs one (audit recording forces one shard, so this
        // pairing uses plain configs).
        let plain = |shards: usize| AsyncConfig {
            shards,
            ..async_config(spec, channel, advice.clone())
        };
        let serial = run(plain(1));
        let sharded = run(plain(2));
        checks.push(equivalent_snapshots("sharded-vs-serial", &serial, &sharded));

        // 5. Async under the lockstep adversary vs the sync engine.
        if spec.protocol == ProtocolSpec::Flooding
            && spec.delays == DelaySpec::Unit
            && round_aligned(&spec.wake)
        {
            let sync = SyncEngine::<Lockstep<FloodAsync>>::new(
                net,
                SyncConfig {
                    audit_capacity: Some(AUDIT_CAP),
                    ..sync_config(spec)
                },
            )
            .run(schedule);
            checks.push(equivalent("async-vs-lockstep", &base, &sync, false));
        }

        checks
    }
}

struct SyncBattery<'s> {
    spec: &'s ScenarioSpec,
    schedule: &'s WakeSchedule,
}

impl SyncDispatch for SyncBattery<'_> {
    type Out = Vec<CheckReport>;

    fn call<P: SyncProtocol>(self, net: &Network) -> Vec<CheckReport> {
        let spec = self.spec;
        let schedule = self.schedule;
        let mut checks = Vec::new();
        let cfg = || SyncConfig {
            audit_capacity: Some(AUDIT_CAP),
            ..sync_config(spec)
        };

        let base = SyncEngine::<P>::new(net, cfg()).run(schedule);

        if spec.engine.audit {
            let scope = AuditScope::new(net).with_completed(!base.truncated);
            let violations = Auditor::standard(scope).run(log(&base));
            checks.push(if violations.is_empty() {
                CheckReport::pass("invariants")
            } else {
                let first = &violations[0];
                CheckReport::fail(
                    "invariants",
                    format!(
                        "{} violation(s); first: [{}] {}",
                        violations.len(),
                        first.invariant,
                        first.detail
                    ),
                    vec![("violating".into(), log(&base).to_jsonl())],
                )
            });
        }

        let per_round = SyncEngine::<PerRound<P>>::new(net, cfg()).run(schedule);
        checks.push(equivalent("batch-vs-per-round", &base, &per_round, true));

        let reused = {
            let mut engine = SyncEngine::<P>::new(net, cfg());
            engine.reset(spec.engine.seed ^ 0x5A5A);
            let _ = engine.run_mut(schedule);
            engine.reset(spec.engine.seed);
            engine.run_mut(schedule)
        };
        checks.push(equivalent("reset-vs-fresh", &base, &reused, true));

        let plain = |shards: usize| SyncConfig {
            shards,
            ..sync_config(spec)
        };
        let serial = SyncEngine::<P>::new(net, plain(1)).run(schedule);
        let sharded = SyncEngine::<P>::new(net, plain(2)).run(schedule);
        checks.push(equivalent_snapshots("sharded-vs-serial", &serial, &sharded));

        checks
    }
}

/// Runs the full conformance battery over one validated spec.
pub fn run_battery(spec: &ScenarioSpec) -> Vec<CheckReport> {
    let net = build_network(spec);
    run_battery_on(spec, &net)
}

/// As [`run_battery`], with a caller-provided network.
pub fn run_battery_on(spec: &ScenarioSpec, net: &Network) -> Vec<CheckReport> {
    let schedule = build_schedule(spec);
    if spec.protocol.is_sync() {
        dispatch_sync(
            spec,
            net,
            SyncBattery {
                spec,
                schedule: &schedule,
            },
        )
        .expect("sync protocol")
    } else {
        dispatch_async(
            spec,
            net,
            AsyncBattery {
                spec,
                schedule: &schedule,
            },
        )
        .expect("async protocol")
        .0
    }
}

/// Whether every check in the battery passes.
pub fn battery_passes(spec: &ScenarioSpec) -> bool {
    run_battery(spec).iter().all(|c| c.passed)
}

fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    let mut push = |candidate: ScenarioSpec| {
        if candidate != *spec && candidate.validate().is_ok() {
            out.push(candidate);
        }
    };

    // Smaller graph, same family where possible.
    let shrunk_graph = match spec.graph {
        GraphSpec::Sparse { n, seed } if n > 8 => Some(GraphSpec::Sparse {
            n: (n / 2).max(8),
            seed,
        }),
        GraphSpec::Complete { n } if n > 2 => Some(GraphSpec::Complete { n: (n / 2).max(2) }),
        // Halving n can starve the connected sampler; fall back to sparse.
        GraphSpec::Gnp { n, seed, .. } => Some(GraphSpec::Sparse {
            n: (n / 2).max(8),
            seed,
        }),
        GraphSpec::Grid { rows, cols } if rows > 2 || cols > 2 => Some(GraphSpec::Grid {
            rows: rows.saturating_sub(1).max(2),
            cols: cols.saturating_sub(1).max(2),
        }),
        GraphSpec::Torus { rows, cols } if rows > 3 || cols > 3 => Some(GraphSpec::Torus {
            rows: rows.saturating_sub(1).max(3),
            cols: cols.saturating_sub(1).max(3),
        }),
        GraphSpec::PowerLaw { n, attach, seed } if n > attach + 2 => Some(GraphSpec::PowerLaw {
            n: (n / 2).max(attach + 2),
            attach,
            seed,
        }),
        GraphSpec::ClassG { parameter } if parameter > 1 => Some(GraphSpec::ClassG {
            parameter: parameter / 2,
        }),
        _ => None,
    };
    if let Some(graph) = shrunk_graph {
        let mut candidate = spec.clone();
        candidate.graph = graph;
        // A shrunk graph can orphan an out-of-range wake node.
        if let WakeSpec::Single { node } = &mut candidate.wake {
            *node = (*node).min(candidate.graph.node_count() - 1);
        }
        if let WakeSpec::Pairs { pairs } = &mut candidate.wake {
            let n = candidate.graph.node_count();
            pairs.retain(|&(node, _)| node < n);
            if pairs.is_empty() {
                pairs.push((0, 0.0));
            }
        }
        push(candidate);
    }

    // Simpler delays.
    match &spec.delays {
        DelaySpec::Unit => {}
        DelaySpec::Capped { inner, .. } => {
            let mut candidate = spec.clone();
            candidate.delays = (**inner).clone();
            push(candidate);
        }
        _ => {
            let mut candidate = spec.clone();
            candidate.delays = DelaySpec::Unit;
            push(candidate);
        }
    }

    // Simpler wake schedule.
    if spec.wake != (WakeSpec::Single { node: 0 }) {
        let mut candidate = spec.clone();
        candidate.wake = WakeSpec::Single { node: 0 };
        push(candidate);
    }

    // Fewer knobs.
    if spec.engine.shards != 1 {
        let mut candidate = spec.clone();
        candidate.engine.shards = 1;
        push(candidate);
    }
    if spec.report.is_some() {
        let mut candidate = spec.clone();
        candidate.report = None;
        push(candidate);
    }

    out
}

/// Greedily minimizes a battery-failing spec: repeatedly adopts the first
/// shrink candidate that still fails, until no candidate does. Returns the
/// spec unchanged if it does not fail in the first place.
pub fn minimize(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut current = spec.clone();
    if battery_passes(&current) {
        return current;
    }
    // The candidate set strictly shrinks the workload, so descent is
    // bounded; the iteration cap is a belt on top of those suspenders.
    for _ in 0..64 {
        let Some(next) = shrink_candidates(&current)
            .into_iter()
            .find(|c| !battery_passes(c))
        else {
            break;
        };
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SpecGen;
    use crate::spec::EngineSpec;

    #[test]
    fn battery_passes_on_representative_specs() {
        // One per dispatch regime: plain async, scheme, sync, class-g Nih.
        for (i, spec) in [
            ScenarioSpec {
                name: "battery-flood".into(),
                graph: GraphSpec::Sparse { n: 16, seed: 7 },
                protocol: ProtocolSpec::Flooding,
                wake: WakeSpec::Pairs {
                    pairs: vec![(0, 0.0), (5, 1.25), (11, 2.5)],
                },
                delays: DelaySpec::Random { seed: 17 },
                engine: EngineSpec {
                    seed: 5,
                    shards: 1,
                    audit: true,
                },
                report: None,
            },
            ScenarioSpec {
                name: "battery-spanner".into(),
                graph: GraphSpec::Sparse { n: 32, seed: 7 },
                protocol: ProtocolSpec::Thm6 { k: 2 },
                wake: WakeSpec::Single { node: 0 },
                delays: DelaySpec::Unit,
                engine: EngineSpec {
                    seed: 4,
                    shards: 1,
                    audit: true,
                },
                report: None,
            },
            ScenarioSpec {
                name: "battery-fast-wakeup".into(),
                graph: GraphSpec::Complete { n: 12 },
                protocol: ProtocolSpec::FastWakeUp,
                wake: WakeSpec::All,
                delays: DelaySpec::Unit,
                engine: EngineSpec {
                    seed: 6,
                    shards: 1,
                    audit: true,
                },
                report: None,
            },
            ScenarioSpec {
                name: "battery-nih".into(),
                graph: GraphSpec::ClassG { parameter: 6 },
                protocol: ProtocolSpec::Nih,
                wake: WakeSpec::Centers,
                delays: DelaySpec::Unit,
                engine: EngineSpec {
                    seed: 2,
                    shards: 1,
                    audit: true,
                },
                report: None,
            },
        ]
        .into_iter()
        .enumerate()
        {
            spec.validate().unwrap();
            let checks = run_battery(&spec);
            assert!(!checks.is_empty(), "case {i} ran no checks");
            for check in &checks {
                assert!(
                    check.passed,
                    "case {i} ({}) failed {}: {}",
                    spec.name, check.name, check.detail
                );
            }
        }
    }

    #[test]
    fn lockstep_check_fires_for_eligible_specs() {
        let spec = ScenarioSpec {
            name: "battery-lockstep".into(),
            graph: GraphSpec::Torus { rows: 3, cols: 4 },
            protocol: ProtocolSpec::Flooding,
            wake: WakeSpec::Staggered { gap: 2.0 },
            delays: DelaySpec::Unit,
            engine: EngineSpec {
                seed: 3,
                shards: 1,
                audit: true,
            },
            report: None,
        };
        spec.validate().unwrap();
        let checks = run_battery(&spec);
        let lockstep = checks
            .iter()
            .find(|c| c.name == "async-vs-lockstep")
            .expect("unit-delay round-aligned flooding is lockstep-eligible");
        assert!(lockstep.passed, "{}", lockstep.detail);
        // A fractional-gap spec must skip the check.
        let mut frac = spec.clone();
        frac.wake = WakeSpec::Staggered { gap: 1.25 };
        assert!(run_battery(&frac)
            .iter()
            .all(|c| c.name != "async-vs-lockstep"));
    }

    #[test]
    fn generated_specs_pass_a_battery_slice() {
        // A fast slice of what `wakeup fuzz --seed 1` covers; the CI fuzz
        // job runs the full 50.
        let gen = SpecGen::new(1);
        for i in 0..6 {
            let spec = gen.spec(i);
            for check in run_battery(&spec) {
                assert!(
                    check.passed,
                    "spec {i} ({}) failed {}: {}",
                    spec.name, check.name, check.detail
                );
            }
        }
    }

    #[test]
    fn minimize_is_identity_on_passing_specs() {
        let spec = SpecGen::new(3).spec(0);
        assert_eq!(minimize(&spec), spec);
    }

    #[test]
    fn shrink_candidates_are_valid_and_smaller() {
        let gen = SpecGen::new(9);
        for i in 0..40 {
            let spec = gen.spec(i);
            for candidate in shrink_candidates(&spec) {
                candidate.validate().unwrap();
                assert!(
                    candidate.graph.node_count() <= spec.graph.node_count(),
                    "shrinking must not grow the graph"
                );
            }
        }
    }
}
