//! Differential model-conformance harness for the simulation engines.
//!
//! Replays identical seeds through paired engine configurations and diffs
//! the final node tables ([`RunDigest`]) and audit traces:
//!
//! * the scenario conformance batteries: every spec under `scenarios/audit/`
//!   runs the full `wakeup_scenario::conformance` battery — invariant
//!   audits, batched vs per-message/per-round delivery, `reset()` + rerun
//!   vs fresh, two shards vs one (`sharded-vs-serial`), and lockstep vs
//!   the sync engine where eligible (the same battery `wakeup fuzz`
//!   applies to generated specs);
//! * cached advice artifacts vs freshly built advice.
//!
//! An engine × delay-strategy matrix additionally exercises the invariant
//! checkers under every [`DelayStrategy`] at τ caps {1, 3, 16} ticks and
//! the full τ.
//!
//! On any invariant violation or pairing mismatch the offending traces are
//! written as JSONL artifacts to `--out-dir` (default `target/audit`) and
//! the process exits nonzero — this is the CI `audit` job's entry point.
//!
//! ```text
//! cargo run --release -p wakeup-bench --bin audit -- [--out-dir DIR]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use wakeup_bench::artifacts::{self, AdviceKey, GraphFamily, NetworkKey, SchemeId};
use wakeup_core::advice::spanner::SpannerWake;
use wakeup_core::advice::{AdvisingScheme, SpannerScheme};
use wakeup_core::fast_wakeup::FastWakeUp;
use wakeup_core::flooding::{FloodAsync, FloodSync};
use wakeup_graph::NodeId;
use wakeup_sim::adversary::{
    AdversarialDelay, BurstDelay, CappedDelay, DelayStrategy, FifoWorstDelay, RandomDelay,
    TargetedDelay, UnitDelay, WakeSchedule,
};
use wakeup_sim::audit::{AuditLog, AuditScope, Auditor};
use wakeup_sim::{
    AsyncConfig, AsyncEngine, AsyncProtocol, KnowledgeMode, Network, RunDigest, RunReport,
    SyncConfig, SyncEngine, SyncProtocol, TICKS_PER_UNIT,
};

/// Event capacity for every audited run — far above what the small-n
/// workloads here produce, so logs never truncate.
const AUDIT_CAP: usize = 1 << 20;

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from("target/audit");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--out-dir needs a value");
                    std::process::exit(2);
                });
                out_dir = PathBuf::from(value);
            }
            "--help" | "-h" => {
                println!("usage: audit [--out-dir DIR]");
                println!("Runs the differential engine harness; writes failing traces to DIR.");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut h = Harness {
        out_dir,
        checks: 0,
        failures: Vec::new(),
    };
    delay_matrix(&mut h);
    cached_vs_cold(&mut h);
    scenario_batteries(&mut h);
    h.finish()
}

/// Collects check outcomes and writes failing traces as JSONL artifacts.
struct Harness {
    out_dir: PathBuf,
    checks: usize,
    failures: Vec<String>,
}

impl Harness {
    fn pass(&mut self, name: &str) {
        self.checks += 1;
        println!("ok   {name}");
    }

    fn fail(&mut self, name: &str, detail: String) {
        self.checks += 1;
        println!("FAIL {name}: {detail}");
        self.failures.push(format!("{name}: {detail}"));
    }

    fn log(report: &RunReport) -> &AuditLog {
        report
            .audit_log
            .as_ref()
            .expect("engine was configured with audit_capacity")
    }

    fn dump(&self, name: &str, tag: &str, log: &AuditLog) -> PathBuf {
        self.dump_str(name, tag, &log.to_jsonl())
    }

    fn dump_str(&self, name: &str, tag: &str, jsonl: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create audit out dir");
        let path = self.out_dir.join(format!("{name}.{tag}.jsonl"));
        std::fs::write(&path, jsonl).expect("write failing trace");
        path
    }

    /// Runs the standard invariant pipeline over `report`'s audit log.
    fn audit(&mut self, name: &str, scope: AuditScope<'_>, report: &RunReport) {
        let scope = scope.with_completed(!report.truncated);
        let log = Self::log(report);
        let violations = Auditor::standard(scope).run(log);
        if violations.is_empty() {
            self.pass(name);
        } else {
            let path = self.dump(name, "violating", log);
            let first = &violations[0];
            self.fail(
                name,
                format!(
                    "{} invariant violation(s); first: [{}] {} (trace: {})",
                    violations.len(),
                    first.invariant,
                    first.detail,
                    path.display()
                ),
            );
        }
    }

    /// Asserts two paired runs agree on their final node tables, and — when
    /// the pairing promises identical executions, not just identical
    /// outcomes — on the exact audit trace bytes.
    fn equivalent(&mut self, name: &str, left: &RunReport, right: &RunReport, traces_too: bool) {
        let diffs = RunDigest::of(left).diff(&RunDigest::of(right));
        if !diffs.is_empty() {
            let lp = self.dump(name, "left", Self::log(left));
            let rp = self.dump(name, "right", Self::log(right));
            self.fail(
                name,
                format!(
                    "{} digest field(s) differ; first: {} (traces: {}, {})",
                    diffs.len(),
                    diffs[0],
                    lp.display(),
                    rp.display()
                ),
            );
            return;
        }
        if traces_too {
            let (la, lb) = (Self::log(left), Self::log(right));
            if la.to_jsonl() != lb.to_jsonl() {
                let lp = self.dump(name, "left", la);
                let rp = self.dump(name, "right", lb);
                self.fail(
                    name,
                    format!(
                        "digests agree but traces differ ({} vs {} events; traces: {}, {})",
                        la.len(),
                        lb.len(),
                        lp.display(),
                        rp.display()
                    ),
                );
                return;
            }
        }
        self.pass(name);
    }

    fn finish(self) -> ExitCode {
        println!();
        if self.failures.is_empty() {
            println!("audit: all {} checks passed", self.checks);
            ExitCode::SUCCESS
        } else {
            println!(
                "audit: {}/{} checks FAILED:",
                self.failures.len(),
                self.checks
            );
            for f in &self.failures {
                println!("  - {f}");
            }
            ExitCode::FAILURE
        }
    }
}

fn sparse_net(n: usize, mode: KnowledgeMode) -> Arc<Network> {
    artifacts::global().network(NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode,
    })
}

fn staggered_schedule() -> WakeSchedule {
    WakeSchedule::from_pairs(&[
        (NodeId::new(0), 0.0),
        (NodeId::new(5), 1.25),
        (NodeId::new(11), 2.5),
    ])
}

fn async_cfg(seed: u64) -> AsyncConfig {
    AsyncConfig {
        seed,
        audit_capacity: Some(AUDIT_CAP),
        ..AsyncConfig::default()
    }
}

fn sync_cfg(seed: u64) -> SyncConfig {
    SyncConfig {
        seed,
        audit_capacity: Some(AUDIT_CAP),
        ..SyncConfig::default()
    }
}

fn run_async<P: AsyncProtocol>(
    net: &Network,
    config: AsyncConfig,
    schedule: &WakeSchedule,
    delays: &mut dyn DelayStrategy,
) -> RunReport {
    AsyncEngine::<P>::new(net, config).run_with(schedule, delays)
}

fn run_sync<P: SyncProtocol>(
    net: &Network,
    config: SyncConfig,
    schedule: &WakeSchedule,
) -> RunReport {
    SyncEngine::<P>::new(net, config).run(schedule)
}

/// Engine × delay-strategy invariant matrix: flooding under every
/// [`DelayStrategy`], including τ caps of 1, 3, and 16 ticks, plus both
/// sync-engine protocols — all through [`Auditor::standard`].
fn delay_matrix(h: &mut Harness) {
    println!("== invariant matrix: engine x delay strategy ==");
    let schedule = staggered_schedule();
    for &n in &[16usize, 40] {
        let net = sparse_net(n, KnowledgeMode::Kt0);
        let mut cases: Vec<(String, Box<dyn DelayStrategy>, u64)> = vec![
            ("unit".into(), Box::new(UnitDelay), TICKS_PER_UNIT),
            (
                "random".into(),
                Box::new(RandomDelay::new(3)),
                TICKS_PER_UNIT,
            ),
            (
                "adversarial".into(),
                Box::new(AdversarialDelay::new(9)),
                TICKS_PER_UNIT,
            ),
            (
                "fifo-worst".into(),
                Box::new(FifoWorstDelay::default()),
                TICKS_PER_UNIT,
            ),
            (
                "targeted".into(),
                Box::new(TargetedDelay::new([NodeId::new(2)], 1)),
                TICKS_PER_UNIT,
            ),
            (
                "burst".into(),
                Box::new(BurstDelay::new(2, 0.5)),
                TICKS_PER_UNIT,
            ),
        ];
        for &tau in &[1u64, 3, 16] {
            cases.push((
                format!("random-capped-{tau}"),
                Box::new(CappedDelay::new(RandomDelay::new(5), tau)),
                tau,
            ));
            cases.push((
                format!("fifo-worst-capped-{tau}"),
                Box::new(CappedDelay::new(FifoWorstDelay::default(), tau)),
                tau,
            ));
            cases.push((
                format!("adversarial-capped-{tau}"),
                Box::new(CappedDelay::new(AdversarialDelay::new(13), tau)),
                tau,
            ));
        }
        for (label, mut delays, max_ticks) in cases {
            let report = run_async::<FloodAsync>(&net, async_cfg(1), &schedule, delays.as_mut());
            let scope = AuditScope::new(&net).with_max_delay_ticks(max_ticks);
            h.audit(&format!("matrix-async-flood-n{n}-{label}"), scope, &report);
        }

        let report = run_sync::<FloodSync>(&net, sync_cfg(1), &schedule);
        h.audit(
            &format!("matrix-sync-flood-n{n}"),
            AuditScope::new(&net),
            &report,
        );

        let kt1 = sparse_net(n, KnowledgeMode::Kt1);
        let report = run_sync::<FastWakeUp>(&kt1, sync_cfg(1), &schedule);
        h.audit(
            &format!("matrix-sync-fast-wakeup-n{n}"),
            AuditScope::new(&kt1),
            &report,
        );
    }
}

/// Replaying cached artifacts (networks, advice) must be indistinguishable
/// from building them cold.
fn cached_vs_cold(h: &mut Harness) {
    println!("== cached vs cold artifacts ==");
    let schedule = staggered_schedule();

    // Network artifact: the cache's sparse family is erdos_renyi_connected
    // with edge probability 8/n; rebuild it cold and compare runs.
    let n = 32;
    let cached_net = sparse_net(n, KnowledgeMode::Kt0);
    let cold_graph = wakeup_graph::generators::erdos_renyi_connected(n, 8.0 / n as f64, 7)
        .expect("sparse workload graph");
    let cold_net = Network::kt0(cold_graph, 7);
    let a = run_async::<FloodAsync>(&cached_net, async_cfg(3), &schedule, &mut UnitDelay);
    let b = run_async::<FloodAsync>(&cold_net, async_cfg(3), &schedule, &mut UnitDelay);
    h.equivalent("cached-vs-cold-network", &a, &b, true);

    // Advice artifact: cache the spanner oracle's output, then recompute it
    // cold and replay the same seed through both.
    let key = NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt0,
    };
    let scheme = SpannerScheme::new(2);
    let cached_advice = artifacts::global().advice(
        AdviceKey {
            net: key,
            scheme: SchemeId::Spanner(2),
        },
        || scheme.advise(&cached_net),
    );
    let cold_advice = Arc::new(scheme.advise(&cached_net));
    let scfg = |advice: Arc<Vec<wakeup_sim::BitStr>>| AsyncConfig {
        channel: scheme.channel(n),
        advice: Some(advice),
        ..async_cfg(9)
    };
    let a = run_async::<SpannerWake>(
        &cached_net,
        scfg(cached_advice.clone()),
        &schedule,
        &mut UnitDelay,
    );
    let b = run_async::<SpannerWake>(&cached_net, scfg(cold_advice), &schedule, &mut UnitDelay);
    h.equivalent("cached-vs-cold-spanner-advice", &a, &b, true);
    h.audit(
        "cached-vs-cold-spanner-advice-audit",
        AuditScope::new(&cached_net)
            .with_channel(scheme.channel(n))
            .with_advice(&cached_advice),
        &a,
    );
}

/// Runs the full `wakeup_scenario::conformance` battery over every spec in
/// `scenarios/audit/` — batched vs per-message/per-round, reset vs fresh,
/// two shards vs one, lockstep where eligible, and the invariant audit,
/// exactly the checks `wakeup fuzz` applies to generated specs. The corpus
/// files replace the formerly hardcoded pairings: editing or adding a JSON
/// spec changes the harness's coverage without touching this binary.
fn scenario_batteries(h: &mut Harness) {
    println!("== scenario conformance batteries (scenarios/audit) ==");
    let specs = wakeup_scenario::corpus::audit().expect("load scenarios/audit corpus");
    assert!(!specs.is_empty(), "scenarios/audit corpus is empty");
    for (_, spec) in &specs {
        for check in wakeup_scenario::conformance::run_battery(spec) {
            let name = format!("scenario-{}-{}", spec.name, check.name);
            if check.passed {
                h.pass(&name);
            } else {
                let mut detail = check.detail.clone();
                for (tag, jsonl) in &check.artifacts {
                    let path = h.dump_str(&name, tag, jsonl);
                    detail.push_str(&format!(" (trace: {})", path.display()));
                }
                h.fail(&name, detail);
            }
        }
    }
}
