//! Specification parsing and execution for the `wakeup` command-line tool.
//!
//! The CLI accepts compact colon-separated specs:
//!
//! * graphs — `file:PATH` (edge-list format, see [`wakeup_graph::io`]),
//!   `path:64`, `cycle:64`, `star:100`, `complete:32`, `grid:8:12`,
//!   `hypercube:6`, `tree:100:SEED`, `gnp:200:0.05:SEED`, `ba:200:3:SEED`,
//!   `ws:100:3:0.2:SEED`, `ring:6:8`, `caterpillar:10:5`, `barbell:10:4`,
//!   `lollipop:12:6`, `classg:32`, `classgk:3:4:SEED`;
//! * wake schedules — `single:0`, `all`, `spread:7`, `stagger:7:2.5`,
//!   `at:0@0,5@2.5`;
//! * algorithms — `flooding`, `dfs-rank`, `fast-wakeup`, `gossip`, `leader`,
//!   `cor1`, `thm5a`, `thm5b`, `thm6:K`, `cor2`.
//!
//! Parsing is separated from execution so the formats are unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bake;
pub mod fuzz;
pub mod obs;

pub use bake::cmd_bake;
pub use fuzz::{cmd_fuzz, cmd_run_scenario};
pub use obs::cmd_obs;

use std::fmt;

use wakeup_graph::families::{ClassG, ClassGk};
use wakeup_graph::{algo, generators, Graph, NodeId};
use wakeup_scenario::run::{self as scenario_run, SpecRun};
use wakeup_scenario::{DelaySpec, EngineSpec, ProtocolSpec};
use wakeup_sim::adversary::WakeSchedule;
use wakeup_sim::{Network, WindowCfg};

/// A CLI usage error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Checks that every flag in `given` is one `cmd` takes: a flag the
/// command would ignore is an error naming it (the first in sorted order),
/// not a setting that silently has no effect.
///
/// # Errors
///
/// Returns a [`CliError`] naming the first flag outside `accepted`, and
/// the flags `cmd` does take.
///
/// # Example
///
/// ```
/// let given = ["count", "bogus"].map(String::from);
/// let e = wakeup_cli::only_flags("trials", &given, &["algo", "count"]).unwrap_err();
/// assert!(e.0.contains("--bogus"));
/// assert!(wakeup_cli::only_flags("trials", &given[..1], &["algo", "count"]).is_ok());
/// ```
pub fn only_flags<'a>(
    cmd: &str,
    given: impl IntoIterator<Item = &'a String>,
    accepted: &[&str],
) -> Result<(), CliError> {
    let mut unknown: Vec<&String> = given
        .into_iter()
        .filter(|k| !accepted.contains(&k.as_str()))
        .collect();
    unknown.sort();
    match unknown.first() {
        None => Ok(()),
        Some(key) => {
            let takes: Vec<String> = accepted.iter().map(|f| format!("--{f}")).collect();
            let takes = if takes.is_empty() {
                "no flags".to_string()
            } else {
                takes.join(", ")
            };
            Err(err(format!(
                "wakeup {cmd} does not take --{key} (it takes {takes})"
            )))
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| err(format!("invalid {what}: {s:?}")))
}

/// Parses a graph specification.
///
/// # Errors
///
/// Returns a [`CliError`] describing the malformed spec.
///
/// # Example
///
/// ```
/// let g = wakeup_cli::parse_graph("grid:3:4").unwrap();
/// assert_eq!(g.n(), 12);
/// assert!(wakeup_cli::parse_graph("grid:3").is_err());
/// ```
pub fn parse_graph(spec: &str) -> Result<Graph, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let wrap = |r: Result<Graph, wakeup_graph::GraphError>| {
        r.map_err(|e| err(format!("graph spec {spec:?}: {e}")))
    };
    let arity = |want: usize| -> Result<(), CliError> {
        if parts.len() == want + 1 {
            Ok(())
        } else {
            Err(err(format!(
                "graph spec {spec:?}: expected {want} parameter(s) after {:?}",
                parts[0]
            )))
        }
    };
    match parts[0] {
        "file" => {
            if parts.len() < 2 {
                return Err(err("file spec needs a path: file:PATH"));
            }
            // Paths may contain colons; rejoin the remainder.
            let path = parts[1..].join(":");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
            wakeup_graph::io::parse_edge_list(&text)
                .map_err(|e| err(format!("graph file {path:?}: {e}")))
        }
        "path" => {
            arity(1)?;
            wrap(generators::path(parse_num(parts[1], "size")?))
        }
        "cycle" => {
            arity(1)?;
            wrap(generators::cycle(parse_num(parts[1], "size")?))
        }
        "star" => {
            arity(1)?;
            wrap(generators::star(parse_num(parts[1], "size")?))
        }
        "complete" => {
            arity(1)?;
            wrap(generators::complete(parse_num(parts[1], "size")?))
        }
        "hypercube" => {
            arity(1)?;
            wrap(generators::hypercube(parse_num(parts[1], "dimension")?))
        }
        "grid" => {
            arity(2)?;
            wrap(generators::grid(
                parse_num(parts[1], "rows")?,
                parse_num(parts[2], "cols")?,
            ))
        }
        "tree" => {
            arity(2)?;
            wrap(generators::random_tree(
                parse_num(parts[1], "size")?,
                parse_num(parts[2], "seed")?,
            ))
        }
        "gnp" => {
            arity(3)?;
            wrap(generators::erdos_renyi_connected(
                parse_num(parts[1], "size")?,
                parse_num(parts[2], "probability")?,
                parse_num(parts[3], "seed")?,
            ))
        }
        "ba" => {
            arity(3)?;
            wrap(generators::preferential_attachment(
                parse_num(parts[1], "size")?,
                parse_num(parts[2], "attachment count")?,
                parse_num(parts[3], "seed")?,
            ))
        }
        "ws" => {
            arity(4)?;
            wrap(generators::watts_strogatz(
                parse_num(parts[1], "size")?,
                parse_num(parts[2], "lattice degree")?,
                parse_num(parts[3], "rewiring probability")?,
                parse_num(parts[4], "seed")?,
            ))
        }
        "ring" => {
            arity(2)?;
            wrap(generators::ring_of_cliques(
                parse_num(parts[1], "clique count")?,
                parse_num(parts[2], "clique size")?,
            ))
        }
        "caterpillar" => {
            arity(2)?;
            wrap(generators::caterpillar(
                parse_num(parts[1], "spine")?,
                parse_num(parts[2], "legs")?,
            ))
        }
        "barbell" => {
            arity(2)?;
            wrap(generators::barbell(
                parse_num(parts[1], "clique size")?,
                parse_num(parts[2], "bridge")?,
            ))
        }
        "lollipop" => {
            arity(2)?;
            wrap(generators::lollipop(
                parse_num(parts[1], "clique size")?,
                parse_num(parts[2], "tail")?,
            ))
        }
        "classg" => {
            arity(1)?;
            let fam = ClassG::new(parse_num(parts[1], "parameter")?)
                .map_err(|e| err(format!("graph spec {spec:?}: {e}")))?;
            Ok(fam.graph().clone())
        }
        "classgk" => {
            arity(3)?;
            let fam = ClassGk::new(
                parse_num(parts[1], "k")?,
                parse_num(parts[2], "q")?,
                parse_num(parts[3], "seed")?,
            )
            .map_err(|e| err(format!("graph spec {spec:?}: {e}")))?;
            Ok(fam.graph().clone())
        }
        other => Err(err(format!(
            "unknown graph family {other:?} (try path, cycle, star, complete, hypercube, grid, \
             tree, gnp, ba, ws, ring, caterpillar, barbell, lollipop, classg, classgk, file)"
        ))),
    }
}

/// Parses a wake-schedule specification against a graph of `n` nodes.
///
/// # Errors
///
/// Returns a [`CliError`] for malformed specs or out-of-range nodes.
///
/// # Example
///
/// ```
/// let s = wakeup_cli::parse_schedule("stagger:5:2.0", 20).unwrap();
/// assert_eq!(s.entries().len(), 4);
/// ```
pub fn parse_schedule(spec: &str, n: usize) -> Result<WakeSchedule, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let check_node = |v: usize| -> Result<NodeId, CliError> {
        if v < n {
            Ok(NodeId::new(v))
        } else {
            Err(err(format!(
                "wake spec {spec:?}: node {v} out of range (n = {n})"
            )))
        }
    };
    match parts[0] {
        "single" => {
            if parts.len() != 2 {
                return Err(err(format!("wake spec {spec:?}: expected single:<node>")));
            }
            Ok(WakeSchedule::single(check_node(parse_num(
                parts[1], "node",
            )?)?))
        }
        "all" => {
            let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            Ok(WakeSchedule::all_at_zero(&nodes))
        }
        "spread" => {
            if parts.len() != 2 {
                return Err(err(format!("wake spec {spec:?}: expected spread:<step>")));
            }
            let step: usize = parse_num(parts[1], "step")?;
            if step == 0 {
                return Err(err("spread step must be positive"));
            }
            let nodes: Vec<NodeId> = (0..n).step_by(step).map(NodeId::new).collect();
            Ok(WakeSchedule::all_at_zero(&nodes))
        }
        "stagger" => {
            if parts.len() != 3 {
                return Err(err(format!(
                    "wake spec {spec:?}: expected stagger:<step>:<gap>"
                )));
            }
            let step: usize = parse_num(parts[1], "step")?;
            if step == 0 {
                return Err(err("stagger step must be positive"));
            }
            let gap: f64 = parse_num(parts[2], "gap")?;
            let nodes: Vec<NodeId> = (0..n).step_by(step).map(NodeId::new).collect();
            Ok(WakeSchedule::staggered(&nodes, gap))
        }
        "at" => {
            if parts.len() != 2 {
                return Err(err(format!(
                    "wake spec {spec:?}: expected at:<v@t,v@t,...>"
                )));
            }
            let mut pairs = Vec::new();
            for item in parts[1].split(',') {
                let (v, t) = item
                    .split_once('@')
                    .ok_or_else(|| err(format!("wake spec item {item:?}: expected v@t")))?;
                pairs.push((
                    check_node(parse_num(v, "node")?)?,
                    parse_num::<f64>(t, "time")?,
                ));
            }
            Ok(WakeSchedule::from_pairs(&pairs))
        }
        other => Err(err(format!(
            "unknown wake schedule {other:?} (try single, all, spread, stagger, at)"
        ))),
    }
}

/// Parses a delay-strategy specification (`unit`, `random:SEED`,
/// `skewed:SALT`) into the [`DelaySpec`] it names.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown strategies.
pub fn parse_delays(spec: &str) -> Result<DelaySpec, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let param = |what: &str| parts.get(1).map_or(Ok(0), |p| parse_num(p, what));
    match parts[0] {
        "unit" => Ok(DelaySpec::Unit),
        "random" => Ok(DelaySpec::Random {
            seed: param("seed")?,
        }),
        "skewed" => Ok(DelaySpec::Adversarial {
            salt: param("salt")?,
        }),
        other => Err(err(format!(
            "unknown delay strategy {other:?} (try unit, random:SEED, skewed:SALT)"
        ))),
    }
}

/// Parses an algorithm name into the protocol it runs.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown names and a missing or zero `thm6`
/// stretch parameter.
///
/// # Example
///
/// ```
/// use wakeup_scenario::ProtocolSpec;
/// assert_eq!(wakeup_cli::parse_algo("thm6:3").unwrap(), ProtocolSpec::Thm6 { k: 3 });
/// assert!(wakeup_cli::parse_algo("thm6").is_err());
/// ```
pub fn parse_algo(spec: &str) -> Result<ProtocolSpec, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts[0] {
        "flooding" => Ok(ProtocolSpec::Flooding),
        "dfs-rank" => Ok(ProtocolSpec::DfsRank),
        "fast-wakeup" => Ok(ProtocolSpec::FastWakeUp),
        "gossip" => Ok(ProtocolSpec::Gossip),
        "leader" => Ok(ProtocolSpec::Leader),
        "cor1" => Ok(ProtocolSpec::Cor1),
        "thm5a" => Ok(ProtocolSpec::Thm5a),
        "thm5b" => Ok(ProtocolSpec::Thm5b),
        "thm6" => {
            if parts.len() != 2 {
                return Err(err("thm6 needs a stretch parameter: thm6:K"));
            }
            let k = parse_num(parts[1], "k")?;
            if k == 0 {
                return Err(err("thm6 stretch parameter must be positive"));
            }
            Ok(ProtocolSpec::Thm6 { k })
        }
        "cor2" => Ok(ProtocolSpec::Cor2),
        other => Err(err(format!(
            "unknown algorithm {other:?} (try flooding, dfs-rank, fast-wakeup, gossip, \
             leader, cor1, thm5a, thm5b, thm6:K, cor2)"
        ))),
    }
}

/// The algorithm name of a protocol, the inverse of [`parse_algo`]: its
/// spec `kind` tag, with `thm6`'s stretch parameter appended.
pub(crate) fn algo_name(protocol: &ProtocolSpec) -> String {
    match protocol {
        ProtocolSpec::Thm6 { k } => format!("thm6:{k}"),
        p => p.kind_tag().to_string(),
    }
}

/// A rendered execution summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Algorithm name as `--algo` spells it (`thm6:K` for Theorem 6).
    pub algorithm: String,
    /// Nodes.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Whether everyone woke.
    pub all_awake: bool,
    /// Message complexity.
    pub messages: u64,
    /// Time in τ units (async) or rounds until every node is awake (sync);
    /// see [`wakeup_scenario::run::run_time`].
    pub time: f64,
    /// Awake distance of the schedule.
    pub rho_awk: Option<usize>,
    /// Advice stats (advice schemes only): (max bits, avg bits).
    pub advice: Option<(usize, f64)>,
    /// Elected leader ID (leader election only).
    pub leader: Option<u64>,
    /// Sparkline of the awake-set growth over time.
    pub wake_front: String,
    /// One-line observability summary (causal critical path, batch/delay
    /// means) from the run's [`wakeup_sim::ObsSnapshot`].
    pub obs: String,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "algorithm : {}", self.algorithm)?;
        writeln!(f, "graph     : n = {}, m = {}", self.n, self.m)?;
        writeln!(
            f,
            "awake dist: {}",
            self.rho_awk.map_or("-".into(), |r| r.to_string())
        )?;
        writeln!(f, "all awake : {}", self.all_awake)?;
        writeln!(f, "messages  : {}", self.messages)?;
        writeln!(f, "time      : {:.2}", self.time)?;
        if let Some((max, avg)) = self.advice {
            writeln!(f, "advice    : max {max} bits, avg {avg:.2} bits")?;
        }
        if let Some(leader) = self.leader {
            writeln!(f, "leader    : id {leader}")?;
        }
        writeln!(f, "front     : {}", self.wake_front)?;
        writeln!(f, "obs       : {}", self.obs)?;
        Ok(())
    }
}

impl Summary {
    /// Summarizes a finished run of `protocol` on `net` under `schedule`.
    pub(crate) fn new(
        protocol: ProtocolSpec,
        net: &Network,
        schedule: &WakeSchedule,
        run: &SpecRun,
    ) -> Summary {
        let report = &run.report;
        Summary {
            algorithm: algo_name(&protocol),
            n: net.n(),
            m: net.graph().m(),
            all_awake: report.all_awake,
            messages: report.messages(),
            time: scenario_run::run_time(protocol, report),
            rho_awk: algo::awake_distance(net.graph(), &schedule.initially_awake()),
            advice: run.advice.as_ref().map(|a| (a.max_bits, a.avg_bits)),
            leader: if protocol == ProtocolSpec::Leader {
                report.outputs.first().copied().flatten()
            } else {
                None
            },
            wake_front: wakeup_sim::viz::wake_front_sparkline(&report.metrics.wake_tick, 40),
            obs: report.obs_snapshot().summary_line(),
        }
    }
}

/// Runs an algorithm on a graph under a schedule and returns the summary.
///
/// The network takes the knowledge mode the algorithm is defined for, and
/// the run goes through the scenario runner
/// ([`wakeup_scenario::run::run_protocol`]) on one shard, under `delays`
/// for every async algorithm (sync ones ignore it).
///
/// # Errors
///
/// Returns a [`CliError`] for an unknown algorithm name.
pub fn execute(
    algo_spec: &str,
    graph: Graph,
    schedule: &WakeSchedule,
    seed: u64,
    delays: &DelaySpec,
) -> Result<Summary, CliError> {
    let protocol = parse_algo(algo_spec)?;
    let net = scenario_run::network_for(protocol, graph, seed);
    let engine = EngineSpec {
        seed,
        shards: 1,
        audit: false,
    };
    let run = scenario_run::run_protocol(
        protocol,
        &net,
        schedule,
        delays,
        &engine,
        WindowCfg::Log2,
        None,
    );
    Ok(Summary::new(protocol, &net, schedule, &run))
}

/// Runs a size sweep of one algorithm over a graph family, returning one
/// summary per size.
///
/// Families: `gnp` (average degree ≈ 8), `complete`, `tree`.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown families or invalid runs.
pub fn sweep(
    algo_spec: &str,
    family: &str,
    sizes: &[usize],
    seed: u64,
) -> Result<Vec<Summary>, CliError> {
    let mut out = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let spec = match family {
            "gnp" => format!("gnp:{n}:{}:{seed}", (8.0 / n as f64).min(1.0)),
            "complete" => format!("complete:{n}"),
            "tree" => format!("tree:{n}:{seed}"),
            other => {
                return Err(err(format!(
                    "unknown sweep family {other:?} (try gnp, complete, tree)"
                )))
            }
        };
        let graph = parse_graph(&spec)?;
        let schedule = parse_schedule("single:0", graph.n())?;
        out.push(execute(
            algo_spec,
            graph,
            &schedule,
            seed,
            &DelaySpec::Unit,
        )?);
    }
    Ok(out)
}

/// Statistics over repeated randomized trials (the `trials` subcommand).
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Trials run.
    pub trials: usize,
    /// Trials that woke every node.
    pub successes: usize,
    /// Mean messages.
    pub mean_messages: f64,
    /// Worst-case (max) messages — what the paper's w.h.p. bounds govern.
    pub max_messages: u64,
    /// Worst-case time.
    pub max_time: f64,
}

/// Runs `trials` seeds of an algorithm and aggregates.
///
/// # Errors
///
/// Returns a [`CliError`] on invalid specs or zero trials.
pub fn run_trials(
    algo_spec: &str,
    graph: Graph,
    schedule: &WakeSchedule,
    base_seed: u64,
    trials: usize,
) -> Result<TrialSummary, CliError> {
    if trials == 0 {
        return Err(err("need at least one trial"));
    }
    let mut successes = 0usize;
    let mut messages = Vec::with_capacity(trials);
    let mut times: Vec<f64> = Vec::with_capacity(trials);
    for i in 0..trials {
        let s = execute(
            algo_spec,
            graph.clone(),
            schedule,
            base_seed + i as u64,
            &DelaySpec::Unit,
        )?;
        successes += usize::from(s.all_awake);
        messages.push(s.messages);
        times.push(s.time);
    }
    Ok(TrialSummary {
        trials,
        successes,
        mean_messages: messages.iter().sum::<u64>() as f64 / trials as f64,
        max_messages: messages.iter().copied().max().unwrap_or(0),
        max_time: times.iter().copied().fold(0.0, f64::max),
    })
}

/// Prints graph statistics (the `info` subcommand).
pub fn graph_info(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("nodes     : {}\n", graph.n()));
    out.push_str(&format!("edges     : {}\n", graph.m()));
    out.push_str(&format!(
        "degrees   : min {}, avg {:.2}, max {}\n",
        graph.min_degree(),
        graph.average_degree(),
        graph.max_degree()
    ));
    out.push_str(&format!("connected : {}\n", algo::is_connected(graph)));
    out.push_str(&format!(
        "diameter  : {}\n",
        algo::diameter(graph).map_or("∞".into(), |d| d.to_string())
    ));
    out.push_str(&format!(
        "girth     : {}\n",
        algo::girth(graph).map_or("∞ (forest)".into(), |g| g.to_string())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::scenario_summary;
    use wakeup_scenario::{GraphSpec, ScenarioSpec, WakeSpec};

    #[test]
    fn graph_specs_parse() {
        assert_eq!(parse_graph("path:10").unwrap().n(), 10);
        assert_eq!(parse_graph("grid:3:4").unwrap().n(), 12);
        assert_eq!(parse_graph("gnp:30:0.2:7").unwrap().n(), 30);
        assert_eq!(parse_graph("classg:8").unwrap().n(), 24);
        assert_eq!(parse_graph("classgk:3:2:1").unwrap().n(), 24);
        assert_eq!(parse_graph("ba:50:2:3").unwrap().n(), 50);
        assert_eq!(parse_graph("ws:30:2:0.1:4").unwrap().n(), 30);
        assert_eq!(parse_graph("ring:3:4").unwrap().n(), 12);
        assert_eq!(parse_graph("caterpillar:4:2").unwrap().n(), 12);
    }

    #[test]
    fn graph_spec_errors_are_descriptive() {
        let e = parse_graph("nope:3").unwrap_err();
        assert!(e.0.contains("unknown graph family"));
        let e = parse_graph("grid:3").unwrap_err();
        assert!(e.0.contains("expected 2 parameter"));
        let e = parse_graph("path:xyz").unwrap_err();
        assert!(e.0.contains("invalid size"));
        let e = parse_graph("cycle:2").unwrap_err();
        assert!(e.0.contains("at least three"));
    }

    #[test]
    fn schedule_specs_parse() {
        assert_eq!(parse_schedule("single:3", 10).unwrap().entries().len(), 1);
        assert_eq!(parse_schedule("all", 10).unwrap().entries().len(), 10);
        assert_eq!(parse_schedule("spread:3", 10).unwrap().entries().len(), 4);
        let s = parse_schedule("at:0@0,5@2.5", 10).unwrap();
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.wake_time(NodeId::new(5)), Some(2.5));
    }

    #[test]
    fn schedule_spec_errors() {
        assert!(parse_schedule("single:99", 10).is_err());
        assert!(parse_schedule("spread:0", 10).is_err());
        assert!(parse_schedule("at:5", 10).is_err());
        assert!(parse_schedule("bogus", 10).is_err());
    }

    #[test]
    fn delay_specs_parse() {
        assert_eq!(parse_delays("unit").unwrap(), DelaySpec::Unit);
        assert_eq!(
            parse_delays("random:5").unwrap(),
            DelaySpec::Random { seed: 5 }
        );
        assert_eq!(
            parse_delays("skewed").unwrap(),
            DelaySpec::Adversarial { salt: 0 }
        );
        assert!(parse_delays("random:x").is_err());
        assert!(parse_delays("warp").is_err());
    }

    #[test]
    fn algorithm_specs_parse() {
        assert_eq!(parse_algo("dfs-rank").unwrap(), ProtocolSpec::DfsRank);
        assert_eq!(parse_algo("thm6:3").unwrap(), ProtocolSpec::Thm6 { k: 3 });
        assert_eq!(
            parse_algo("thm6").unwrap_err().0,
            "thm6 needs a stretch parameter: thm6:K"
        );
        assert_eq!(
            parse_algo("thm6:0").unwrap_err().0,
            "thm6 stretch parameter must be positive"
        );
        assert!(parse_algo("magic")
            .unwrap_err()
            .0
            .starts_with("unknown algorithm \"magic\""));
        assert!(parse_algo("nih").is_err());
        assert_eq!(
            parse_algo("fast-wakeup").unwrap().knowledge_mode(),
            wakeup_sim::KnowledgeMode::Kt1
        );
        assert_eq!(
            parse_algo("cor1").unwrap().knowledge_mode(),
            wakeup_sim::KnowledgeMode::Kt0
        );
        for name in [
            "flooding",
            "dfs-rank",
            "fast-wakeup",
            "gossip",
            "leader",
            "cor1",
            "thm5a",
            "thm5b",
            "thm6:2",
            "cor2",
        ] {
            assert_eq!(algo_name(&parse_algo(name).unwrap()), name);
        }
    }

    #[test]
    fn execute_every_algorithm_end_to_end() {
        for spec in [
            "flooding",
            "dfs-rank",
            "fast-wakeup",
            "gossip",
            "leader",
            "cor1",
            "thm5a",
            "thm5b",
            "thm6:2",
            "cor2",
        ] {
            let g = parse_graph("gnp:30:0.2:5").unwrap();
            let schedule = parse_schedule("single:0", 30).unwrap();
            let summary = execute(spec, g, &schedule, 7, &DelaySpec::Unit).unwrap();
            assert!(summary.all_awake, "{spec}");
            assert!(summary.messages > 0, "{spec}");
            let text = summary.to_string();
            assert!(text.contains("messages"), "{spec}");
        }
    }

    #[test]
    fn leader_summary_reports_winner() {
        let g = parse_graph("cycle:12").unwrap();
        let schedule = parse_schedule("single:4", 12).unwrap();
        let summary = execute("leader", g, &schedule, 3, &DelaySpec::Unit).unwrap();
        assert!(summary.leader.is_some());
        assert!(summary.to_string().contains("leader"));
    }

    /// The `--graph`, `--wake` and `--delays` values that describe a spec's
    /// workload, or `None` when the flags cannot express it.
    fn cli_flags(spec: &ScenarioSpec) -> Option<(String, String, String)> {
        let expressible = spec.engine.shards == 1
            && spec.report.as_ref().is_none_or(|r| r.obs.is_none())
            && parse_algo(&algo_name(&spec.protocol)).is_ok();
        if !expressible {
            return None;
        }
        let graph = match spec.graph {
            GraphSpec::Sparse { n, seed } => format!("gnp:{n}:{}:{seed}", 8.0 / n as f64),
            GraphSpec::Complete { n } => format!("complete:{n}"),
            GraphSpec::Gnp { n, p, seed } => format!("gnp:{n}:{p}:{seed}"),
            GraphSpec::Grid { rows, cols } => format!("grid:{rows}:{cols}"),
            GraphSpec::ClassG { parameter } => format!("classg:{parameter}"),
            GraphSpec::Torus { .. } | GraphSpec::PowerLaw { .. } => return None,
        };
        let wake = match &spec.wake {
            WakeSpec::Single { node } => format!("single:{node}"),
            WakeSpec::All => "all".to_string(),
            WakeSpec::Staggered { gap } => format!("stagger:1:{gap}"),
            WakeSpec::Pairs { pairs } => {
                let pairs: Vec<String> = pairs.iter().map(|(v, t)| format!("{v}@{t}")).collect();
                format!("at:{}", pairs.join(","))
            }
            WakeSpec::Centers => return None,
        };
        let delays = match spec.delays {
            DelaySpec::Unit => "unit".to_string(),
            DelaySpec::Random { seed } => format!("random:{seed}"),
            DelaySpec::Adversarial { salt } => format!("skewed:{salt}"),
            DelaySpec::FifoWorst | DelaySpec::Capped { .. } => return None,
        };
        Some((graph, wake, delays))
    }

    /// `run --algo` and `run --scenario` print the same summary for every
    /// corpus spec the flags can express.
    #[test]
    fn algo_and_scenario_summaries_agree() {
        let mut compared = Vec::new();
        for (path, spec) in wakeup_scenario::corpus::all().unwrap() {
            let Some((graph, wake, delays)) = cli_flags(&spec) else {
                continue;
            };
            let graph = parse_graph(&graph).unwrap();
            let schedule = parse_schedule(&wake, graph.n()).unwrap();
            let delays = parse_delays(&delays).unwrap();
            let algo = algo_name(&spec.protocol);
            let flags = execute(&algo, graph, &schedule, spec.engine.seed, &delays).unwrap();
            assert_eq!(
                flags.to_string(),
                scenario_summary(&spec).to_string(),
                "{}",
                path.display()
            );
            compared.push(path.file_name().unwrap().to_string_lossy().into_owned());
        }
        assert!(compared.iter().any(|f| f == "03-thm4.json"), "{compared:?}");
        assert!(compared.len() >= 15, "{compared:?}");
    }

    /// Advising schemes run under the `--delays` strategy like every other
    /// async algorithm, and agree with `run --scenario` on the same spec.
    #[test]
    fn advising_schemes_honour_delays() {
        let run = |delays: &DelaySpec| {
            let graph = parse_graph("gnp:64:0.125:3").unwrap();
            let schedule = parse_schedule("single:0", 64).unwrap();
            execute("cor1", graph, &schedule, 7, delays)
                .unwrap()
                .to_string()
        };
        let random = DelaySpec::Random { seed: 5 };
        let (unit, flags) = (run(&DelaySpec::Unit), run(&random));
        assert_ne!(unit, flags);
        let spec = ScenarioSpec {
            name: "cor1-random".into(),
            graph: GraphSpec::Gnp {
                n: 64,
                p: 0.125,
                seed: 3,
            },
            protocol: ProtocolSpec::Cor1,
            wake: WakeSpec::Single { node: 0 },
            delays: random,
            engine: EngineSpec {
                seed: 7,
                shards: 1,
                audit: false,
            },
            report: None,
        };
        assert_eq!(flags, scenario_summary(&spec).to_string());
    }

    #[test]
    fn sweep_produces_one_summary_per_size() {
        let summaries = sweep("thm5b", "gnp", &[30, 60], 3).unwrap();
        assert_eq!(summaries.len(), 2);
        assert!(summaries.iter().all(|s| s.all_awake));
        assert!(summaries[0].n < summaries[1].n);
        assert!(sweep("thm5b", "torus", &[30], 3).is_err());
    }

    #[test]
    fn trials_aggregate() {
        let g = parse_graph("gnp:25:0.25:4").unwrap();
        let schedule = parse_schedule("single:0", 25).unwrap();
        let t = run_trials("dfs-rank", g, &schedule, 5, 6).unwrap();
        assert_eq!(t.trials, 6);
        assert_eq!(t.successes, 6);
        assert!(t.max_messages as f64 >= t.mean_messages);
        assert!(run_trials(
            "dfs-rank",
            parse_graph("path:3").unwrap(),
            &parse_schedule("all", 3).unwrap(),
            1,
            0
        )
        .is_err());
    }

    #[test]
    fn graph_info_renders() {
        let g = parse_graph("cycle:8").unwrap();
        let info = graph_info(&g);
        assert!(info.contains("nodes     : 8"));
        assert!(info.contains("girth     : 8"));
        let t = parse_graph("tree:10:2").unwrap();
        assert!(graph_info(&t).contains("forest"));
    }
}
