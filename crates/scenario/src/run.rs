//! The one runner: build the graph, network, schedule, and delay strategy
//! a [`ScenarioSpec`] describes, dispatch on the protocol, and run.
//!
//! Every workload runs through [`run_protocol`]: specs through
//! [`run_spec`] and [`run_spec_advised`], and callers with a graph no
//! [`GraphSpec`] family describes (the CLI's `file:` and `ws:` graphs)
//! with a network and schedule they built themselves. The report binaries and benches measure each Table 1 cell
//! with `wakeup_bench::run_cell`, which supplies a cached network and
//! cached oracle advice to [`run_spec_advised`]. The `scenarios`
//! integration tests pin every Table 1 row to the same
//! [`wakeup_sim::RunDigest`] as a direct engine call.

use std::sync::Arc;

use crate::spec::{
    DelaySpec, EngineSpec, GraphSpec, ObsWindowSpec, ProtocolSpec, ScenarioSpec, WakeSpec,
};
use wakeup_core::advice::{
    AdvisingScheme, BfsTreeScheme, CenScheme, SpannerScheme, ThresholdScheme,
};
use wakeup_core::dfs_rank::DfsRank;
use wakeup_core::fast_wakeup::FastWakeUp;
use wakeup_core::flooding::FloodAsync;
use wakeup_core::gossip::SetGossip;
use wakeup_core::leader::LeaderElect;
use wakeup_core::nih::Nih;
use wakeup_graph::families::{ClassG, PowerLaw, Torus};
use wakeup_graph::{generators, Graph, NodeId};
use wakeup_sim::adversary::{
    AdversarialDelay, CappedDelay, DelayStrategy, FifoWorstDelay, RandomDelay, UnitDelay,
    WakeSchedule,
};
use wakeup_sim::advice::AdviceStats;
use wakeup_sim::{
    AsyncConfig, AsyncEngine, AsyncProtocol, BitStr, ChannelModel, KnowledgeMode, Network,
    RunReport, SyncConfig, SyncEngine, SyncProtocol, WindowCfg, TICKS_PER_UNIT,
};

/// Builds the graph a validated spec describes.
///
/// # Panics
///
/// Panics if the spec was not validated ([`ScenarioSpec::validate`] accepts
/// exactly the parameter ranges the generators accept).
pub fn build_graph(graph: &GraphSpec) -> Graph {
    match *graph {
        GraphSpec::Sparse { n, seed } => {
            generators::erdos_renyi_connected(n, 8.0 / n as f64, seed).expect("validated spec")
        }
        GraphSpec::Complete { n } => generators::complete(n).expect("validated spec"),
        GraphSpec::Gnp { n, p, seed } => {
            generators::erdos_renyi_connected(n, p, seed).expect("validated spec")
        }
        GraphSpec::Grid { rows, cols } => generators::grid(rows, cols).expect("validated spec"),
        GraphSpec::Torus { rows, cols } => Torus::new(rows, cols)
            .expect("validated spec")
            .graph()
            .clone(),
        GraphSpec::PowerLaw { n, attach, seed } => PowerLaw::new(n, attach, seed)
            .expect("validated spec")
            .graph()
            .clone(),
        GraphSpec::ClassG { parameter } => ClassG::new(parameter)
            .expect("validated spec")
            .graph()
            .clone(),
    }
}

/// Builds the network: the spec's graph under the knowledge mode the
/// protocol is defined for, seeded with the engine seed (the corpus
/// convention; for `sparse` rows the graph seed equals the engine seed,
/// matching the benchmark artifact keys).
pub fn build_network(spec: &ScenarioSpec) -> Network {
    network_for(spec.protocol, build_graph(&spec.graph), spec.engine.seed)
}

/// Builds the network `protocol` runs on: `graph` under the knowledge mode
/// the protocol is defined for, ports and IDs seeded with `seed`.
pub fn network_for(protocol: ProtocolSpec, graph: Graph, seed: u64) -> Network {
    match protocol.knowledge_mode() {
        KnowledgeMode::Kt0 => Network::kt0(graph, seed),
        KnowledgeMode::Kt1 => Network::kt1(graph, seed),
    }
}

/// Builds the wake schedule over `n` nodes.
pub fn build_schedule(spec: &ScenarioSpec) -> WakeSchedule {
    let n = spec.graph.node_count();
    match &spec.wake {
        WakeSpec::Single { node } => WakeSchedule::single(NodeId::new(*node)),
        WakeSpec::All => {
            let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            WakeSchedule::all_at_zero(&all)
        }
        WakeSpec::Staggered { gap } => {
            let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
            WakeSchedule::staggered(&all, *gap)
        }
        WakeSpec::Pairs { pairs } => {
            let pairs: Vec<(NodeId, f64)> = pairs
                .iter()
                .map(|&(node, time)| (NodeId::new(node), time))
                .collect();
            WakeSchedule::from_pairs(&pairs)
        }
        WakeSpec::Centers => {
            let GraphSpec::ClassG { parameter } = spec.graph else {
                unreachable!("validation pins centers to class-g");
            };
            let centers: Vec<NodeId> = (parameter..2 * parameter).map(NodeId::new).collect();
            WakeSchedule::all_at_zero(&centers)
        }
    }
}

/// Builds the delay strategy as a boxed trait object.
pub fn build_delays(delays: &DelaySpec) -> Box<dyn DelayStrategy + Send> {
    match delays {
        DelaySpec::Unit => Box::new(UnitDelay),
        DelaySpec::Random { seed } => Box::new(RandomDelay::new(*seed)),
        DelaySpec::Adversarial { salt } => Box::new(AdversarialDelay::new(*salt)),
        DelaySpec::FifoWorst => Box::new(FifoWorstDelay::default()),
        DelaySpec::Capped { inner, tau_ticks } => {
            Box::new(CappedDelay::new(build_delays(inner), *tau_ticks))
        }
    }
}

/// The outcome of running a spec.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// The engine report.
    pub report: RunReport,
    /// Advice-length statistics for scheme protocols (None otherwise).
    pub advice: Option<AdviceStats>,
}

/// A visitor over the concrete async protocol type a spec resolves to.
///
/// The spec's protocol is data; the engines and differential wrappers are
/// generic over a protocol *type*. This trait is the bridge: implement it
/// with whatever generic logic a caller needs (a plain run, a
/// batched-vs-per-message comparison, a lockstep check) and hand it to
/// [`dispatch_async`], which performs the enum-to-type dispatch once.
pub trait AsyncDispatch {
    /// The result of the visit.
    type Out;

    /// Called with the resolved protocol type and the scheme context
    /// (CONGEST channel + oracle advice for advising schemes, `Local` and
    /// `None` otherwise).
    fn call<P: AsyncProtocol>(
        self,
        net: &Network,
        channel: ChannelModel,
        advice: Option<Arc<Vec<BitStr>>>,
    ) -> Self::Out;
}

/// Resolves the spec's async protocol and invokes the visitor; `None` for
/// synchronous protocols.
pub fn dispatch_async<V: AsyncDispatch>(
    spec: &ScenarioSpec,
    net: &Network,
    visitor: V,
) -> Option<(V::Out, Option<AdviceStats>)> {
    dispatch_async_advised(spec.protocol, net, None, visitor)
}

/// [`dispatch_async`] on a bare protocol, with an advising scheme's oracle
/// advice supplied by the caller; `None` runs the scheme's oracle on `net`.
fn dispatch_async_advised<V: AsyncDispatch>(
    protocol: ProtocolSpec,
    net: &Network,
    advice: Option<Arc<Vec<BitStr>>>,
    visitor: V,
) -> Option<(V::Out, Option<AdviceStats>)> {
    fn scheme<V: AsyncDispatch, S: AdvisingScheme>(
        scheme: &S,
        net: &Network,
        advice: Option<Arc<Vec<BitStr>>>,
        visitor: V,
    ) -> Option<(V::Out, Option<AdviceStats>)> {
        let advice = advice.unwrap_or_else(|| Arc::new(scheme.advise(net)));
        let stats = AdviceStats::measure(&advice);
        let channel = scheme.channel(net.n());
        Some((
            visitor.call::<S::Protocol>(net, channel, Some(advice)),
            Some(stats),
        ))
    }
    let plain = |out| Some((out, None));
    match protocol {
        ProtocolSpec::Flooding => plain(visitor.call::<FloodAsync>(net, ChannelModel::Local, None)),
        ProtocolSpec::DfsRank => plain(visitor.call::<DfsRank>(net, ChannelModel::Local, None)),
        ProtocolSpec::Nih => plain(visitor.call::<Nih<FloodAsync>>(net, ChannelModel::Local, None)),
        ProtocolSpec::Leader => plain(visitor.call::<LeaderElect>(net, ChannelModel::Local, None)),
        ProtocolSpec::Cor1 => scheme(&BfsTreeScheme::new(), net, advice, visitor),
        ProtocolSpec::Thm5a => scheme(&ThresholdScheme::new(), net, advice, visitor),
        ProtocolSpec::Thm5b => scheme(&CenScheme::new(), net, advice, visitor),
        ProtocolSpec::Thm6 { k } => scheme(&SpannerScheme::new(k), net, advice, visitor),
        ProtocolSpec::Cor2 => scheme(
            &SpannerScheme::log_instantiation(net.n()),
            net,
            advice,
            visitor,
        ),
        ProtocolSpec::FastWakeUp | ProtocolSpec::Gossip => None,
    }
}

/// The synchronous counterpart of [`AsyncDispatch`].
pub trait SyncDispatch {
    /// The result of the visit.
    type Out;

    /// Called with the resolved protocol type.
    fn call<P: SyncProtocol>(self, net: &Network) -> Self::Out;
}

/// Resolves the spec's sync protocol and invokes the visitor; `None` for
/// asynchronous protocols.
pub fn dispatch_sync<V: SyncDispatch>(
    spec: &ScenarioSpec,
    net: &Network,
    visitor: V,
) -> Option<V::Out> {
    dispatch_sync_protocol(spec.protocol, net, visitor)
}

fn dispatch_sync_protocol<V: SyncDispatch>(
    protocol: ProtocolSpec,
    net: &Network,
    visitor: V,
) -> Option<V::Out> {
    match protocol {
        ProtocolSpec::FastWakeUp => Some(visitor.call::<FastWakeUp>(net)),
        ProtocolSpec::Gossip => Some(visitor.call::<SetGossip>(net)),
        _ => None,
    }
}

/// Maps the spec's optional `report.obs` window config onto the engines'
/// timeline window layout (the default log2 spacing when absent).
fn obs_windows(spec: &ScenarioSpec) -> WindowCfg {
    match spec.report.as_ref().and_then(|r| r.obs) {
        Some(ObsWindowSpec::Linear { width }) => WindowCfg::Linear { width },
        Some(ObsWindowSpec::Log2) | None => WindowCfg::Log2,
    }
}

/// The async engine configuration a spec pins (advice is filled in by the
/// dispatcher, channel by the scheme).
pub fn async_config(
    spec: &ScenarioSpec,
    channel: ChannelModel,
    advice: Option<Arc<Vec<BitStr>>>,
) -> AsyncConfig {
    engine_async_config(&spec.engine, obs_windows(spec), channel, advice)
}

fn engine_async_config(
    engine: &EngineSpec,
    obs_windows: WindowCfg,
    channel: ChannelModel,
    advice: Option<Arc<Vec<BitStr>>>,
) -> AsyncConfig {
    AsyncConfig {
        channel,
        seed: engine.seed,
        advice,
        shards: engine.shards,
        obs_windows,
        ..AsyncConfig::default()
    }
}

/// The sync engine configuration a spec pins.
pub fn sync_config(spec: &ScenarioSpec) -> SyncConfig {
    engine_sync_config(&spec.engine, obs_windows(spec))
}

fn engine_sync_config(engine: &EngineSpec, obs_windows: WindowCfg) -> SyncConfig {
    SyncConfig {
        seed: engine.seed,
        shards: engine.shards,
        obs_windows,
        ..SyncConfig::default()
    }
}

struct PlainRun<'s> {
    engine: &'s EngineSpec,
    obs_windows: WindowCfg,
    delays: &'s DelaySpec,
    schedule: &'s WakeSchedule,
}

impl AsyncDispatch for PlainRun<'_> {
    type Out = RunReport;

    fn call<P: AsyncProtocol>(
        self,
        net: &Network,
        channel: ChannelModel,
        advice: Option<Arc<Vec<BitStr>>>,
    ) -> RunReport {
        let config = engine_async_config(self.engine, self.obs_windows, channel, advice);
        let delays = build_delays(self.delays);
        AsyncEngine::<P>::new(net, config).run_with(self.schedule, &delays)
    }
}

impl SyncDispatch for PlainRun<'_> {
    type Out = RunReport;

    fn call<P: SyncProtocol>(self, net: &Network) -> RunReport {
        let config = engine_sync_config(self.engine, self.obs_windows);
        SyncEngine::<P>::new(net, config).run(self.schedule)
    }
}

/// Runs a validated spec end to end.
pub fn run_spec(spec: &ScenarioSpec) -> SpecRun {
    let net = build_network(spec);
    run_spec_on(spec, &net)
}

/// As [`run_spec`], with a caller-provided network (so repeated runs —
/// conformance checks, trials — reuse one table build).
pub fn run_spec_on(spec: &ScenarioSpec, net: &Network) -> SpecRun {
    run_spec_advised(spec, net, None)
}

/// As [`run_spec_on`], with an advising scheme's oracle advice supplied by
/// the caller — a cached or baked copy of what the scheme's oracle computes
/// on `net`. `None` runs the oracle.
///
/// # Panics
///
/// Panics if advice is supplied for a protocol that takes none.
pub fn run_spec_advised(
    spec: &ScenarioSpec,
    net: &Network,
    advice: Option<Arc<Vec<BitStr>>>,
) -> SpecRun {
    run_protocol(
        spec.protocol,
        net,
        &build_schedule(spec),
        &spec.delays,
        &spec.engine,
        obs_windows(spec),
        advice,
    )
}

/// Runs `protocol` on a caller-built network and wake schedule, under the
/// delay strategy (async protocols only) and the engine seed and shard
/// count the specs give; `advice` as in [`run_spec_advised`]. This is the
/// entry every run goes through; it is public for graphs no [`GraphSpec`]
/// family describes.
///
/// # Panics
///
/// Panics if advice is supplied for a protocol that takes none.
pub fn run_protocol(
    protocol: ProtocolSpec,
    net: &Network,
    schedule: &WakeSchedule,
    delays: &DelaySpec,
    engine: &EngineSpec,
    obs_windows: WindowCfg,
    advice: Option<Arc<Vec<BitStr>>>,
) -> SpecRun {
    assert!(
        advice.is_none() || protocol.is_scheme(),
        "protocol {protocol:?} takes no advice"
    );
    let visitor = PlainRun {
        engine,
        obs_windows,
        delays,
        schedule,
    };
    if protocol.is_sync() {
        let report = dispatch_sync_protocol(protocol, net, visitor).expect("sync protocol");
        SpecRun {
            report,
            advice: None,
        }
    } else {
        let (report, advice) =
            dispatch_async_advised(protocol, net, advice, visitor).expect("async protocol");
        SpecRun { report, advice }
    }
}

/// A run's time, the one definition every printed time uses: τ units for
/// async protocols; for sync protocols the rounds until every node is
/// awake, or every round run when a node stays asleep.
pub fn run_time(protocol: ProtocolSpec, report: &RunReport) -> f64 {
    if protocol.is_sync() {
        report
            .metrics
            .all_awake_tick
            .map_or(report.rounds as f64, |t| (t / TICKS_PER_UNIT) as f64)
    } else {
        report.time_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EngineSpec, ScenarioSpec};

    fn spec(
        graph: GraphSpec,
        protocol: ProtocolSpec,
        wake: WakeSpec,
        delays: DelaySpec,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: "runner-test".into(),
            graph,
            protocol,
            wake,
            delays,
            engine: EngineSpec {
                seed: 7,
                shards: 1,
                audit: true,
            },
            report: None,
        }
    }

    #[test]
    fn flooding_spec_matches_harness_run() {
        let s = spec(
            GraphSpec::Sparse { n: 32, seed: 7 },
            ProtocolSpec::Flooding,
            WakeSpec::Single { node: 0 },
            DelaySpec::Unit,
        );
        s.validate().unwrap();
        let run = run_spec(&s);
        assert!(run.report.all_awake);
        let net = Network::kt0(build_graph(&s.graph), 7);
        let config = AsyncConfig {
            seed: 7,
            ..AsyncConfig::default()
        };
        let reference = AsyncEngine::<FloodAsync>::new(&net, config).run(&build_schedule(&s));
        assert_eq!(run.report.messages(), reference.messages());
        assert_eq!(
            run.report.time_units().to_bits(),
            reference.time_units().to_bits()
        );
    }

    #[test]
    fn scheme_spec_matches_run_scheme() {
        let s = spec(
            GraphSpec::Sparse { n: 48, seed: 7 },
            ProtocolSpec::Thm5b,
            WakeSpec::Single { node: 0 },
            DelaySpec::Unit,
        );
        s.validate().unwrap();
        let run = run_spec(&s);
        assert!(run.report.all_awake);
        let advice = run.advice.expect("scheme run reports advice");
        let net = Network::kt0(build_graph(&s.graph), 7);
        let reference = wakeup_core::advice::run_scheme(
            &CenScheme::new(),
            &net,
            &WakeSchedule::single(NodeId::new(0)),
            7,
        );
        assert_eq!(run.report.messages(), reference.report.messages());
        assert_eq!(advice.max_bits, reference.advice.max_bits);
        assert_eq!(
            advice.avg_bits.to_bits(),
            reference.advice.avg_bits.to_bits()
        );
    }

    #[test]
    fn sync_and_family_specs_run() {
        let fast = spec(
            GraphSpec::Complete { n: 16 },
            ProtocolSpec::FastWakeUp,
            WakeSpec::All,
            DelaySpec::Unit,
        );
        fast.validate().unwrap();
        assert!(run_spec(&fast).report.all_awake);

        let torus = spec(
            GraphSpec::Torus { rows: 4, cols: 5 },
            ProtocolSpec::Flooding,
            WakeSpec::Staggered { gap: 0.5 },
            DelaySpec::Random { seed: 3 },
        );
        torus.validate().unwrap();
        assert!(run_spec(&torus).report.all_awake);

        let nih = spec(
            GraphSpec::ClassG { parameter: 6 },
            ProtocolSpec::Nih,
            WakeSpec::Centers,
            DelaySpec::Capped {
                inner: Box::new(DelaySpec::Adversarial { salt: 9 }),
                tau_ticks: 16,
            },
        );
        nih.validate().unwrap();
        assert!(run_spec(&nih).report.all_awake);
    }

    #[test]
    fn shard_count_comes_from_the_spec() {
        let mut s = spec(
            GraphSpec::PowerLaw {
                n: 40,
                attach: 2,
                seed: 5,
            },
            ProtocolSpec::Flooding,
            WakeSpec::Single { node: 3 },
            DelaySpec::Unit,
        );
        s.validate().unwrap();
        let serial = run_spec(&s);
        s.engine.shards = 4;
        s.validate().unwrap();
        let sharded = run_spec(&s);
        assert_eq!(serial.report.messages(), sharded.report.messages());
        assert_eq!(
            serial.report.obs_snapshot().to_json(),
            sharded.report.obs_snapshot().to_json()
        );
    }

    /// A leader spec runs on KT1 through the async engine and matches a
    /// direct `LeaderElect` run, elected leader included.
    #[test]
    fn leader_spec_matches_engine_run() {
        let s = spec(
            GraphSpec::Sparse { n: 40, seed: 7 },
            ProtocolSpec::Leader,
            WakeSpec::Staggered { gap: 0.5 },
            DelaySpec::Random { seed: 3 },
        );
        s.validate().unwrap();
        let run = run_spec(&s);
        assert!(run.report.all_awake);
        assert!(run.advice.is_none());
        let net = Network::kt1(build_graph(&s.graph), 7);
        let config = AsyncConfig {
            seed: 7,
            ..AsyncConfig::default()
        };
        let reference = AsyncEngine::<LeaderElect>::new(&net, config)
            .run_with(&build_schedule(&s), &RandomDelay::new(3));
        assert_eq!(
            wakeup_sim::RunDigest::of(&run.report).diff(&wakeup_sim::RunDigest::of(&reference)),
            Vec::<String>::new()
        );
        assert!(run.report.outputs[0].is_some(), "node 0 learns the leader");
        assert_eq!(run.report.outputs, reference.outputs);
    }

    /// Sync time is the rounds until every node is awake (0 when all start
    /// awake), falling back to every round run when a node stays asleep.
    #[test]
    fn run_time_counts_rounds_until_all_awake() {
        let mut fast = spec(
            GraphSpec::Complete { n: 16 },
            ProtocolSpec::FastWakeUp,
            WakeSpec::All,
            DelaySpec::Unit,
        );
        let report = run_spec(&fast).report;
        assert!(report.rounds > 0);
        assert_eq!(run_time(fast.protocol, &report), 0.0);

        fast.wake = WakeSpec::Single { node: 0 };
        let report = run_spec(&fast).report;
        let all = report.metrics.all_awake_tick.unwrap() / TICKS_PER_UNIT;
        assert_eq!(run_time(fast.protocol, &report), all as f64);

        let mut asleep = report.clone();
        asleep.metrics.all_awake_tick = None;
        assert_eq!(run_time(fast.protocol, &asleep), asleep.rounds as f64);

        let flood = spec(
            GraphSpec::Sparse { n: 32, seed: 7 },
            ProtocolSpec::Flooding,
            WakeSpec::Single { node: 0 },
            DelaySpec::Unit,
        );
        let report = run_spec(&flood).report;
        assert_eq!(
            run_time(flood.protocol, &report).to_bits(),
            report.time_units().to_bits()
        );
    }
}
