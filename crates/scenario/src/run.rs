//! The generic spec runner: build the graph, network, schedule, and delay
//! strategy a [`ScenarioSpec`] describes, dispatch on the protocol, and run.
//!
//! This is the one path a Table 1 cell runs through: the report binaries
//! and benches measure each cell with `wakeup_bench::run_cell`, which
//! supplies a cached network and cached oracle advice to
//! [`run_spec_advised`]. The `scenarios` integration tests pin every
//! corpus row to the same [`wakeup_sim::RunDigest`] as the
//! `wakeup_core::harness` entry points.

use std::sync::Arc;

use crate::spec::{DelaySpec, GraphSpec, ObsWindowSpec, ProtocolSpec, ScenarioSpec, WakeSpec};
use wakeup_core::advice::{
    AdvisingScheme, BfsTreeScheme, CenScheme, SpannerScheme, ThresholdScheme,
};
use wakeup_core::dfs_rank::DfsRank;
use wakeup_core::fast_wakeup::FastWakeUp;
use wakeup_core::flooding::FloodAsync;
use wakeup_core::gossip::SetGossip;
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
    RunReport, SyncConfig, SyncEngine, SyncProtocol, WindowCfg,
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
    let graph = build_graph(&spec.graph);
    match spec.protocol.knowledge_mode() {
        KnowledgeMode::Kt0 => Network::kt0(graph, spec.engine.seed),
        KnowledgeMode::Kt1 => Network::kt1(graph, spec.engine.seed),
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
    dispatch_async_advised(spec, net, None, visitor)
}

/// [`dispatch_async`] with an advising scheme's oracle advice supplied by
/// the caller; `None` runs the scheme's oracle on `net`.
fn dispatch_async_advised<V: AsyncDispatch>(
    spec: &ScenarioSpec,
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
    match spec.protocol {
        ProtocolSpec::Flooding => plain(visitor.call::<FloodAsync>(net, ChannelModel::Local, None)),
        ProtocolSpec::DfsRank => plain(visitor.call::<DfsRank>(net, ChannelModel::Local, None)),
        ProtocolSpec::Nih => plain(visitor.call::<Nih<FloodAsync>>(net, ChannelModel::Local, None)),
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
    match spec.protocol {
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
    AsyncConfig {
        channel,
        seed: spec.engine.seed,
        advice,
        shards: spec.engine.shards,
        obs_windows: obs_windows(spec),
        ..AsyncConfig::default()
    }
}

/// The sync engine configuration a spec pins.
pub fn sync_config(spec: &ScenarioSpec) -> SyncConfig {
    SyncConfig {
        seed: spec.engine.seed,
        shards: spec.engine.shards,
        obs_windows: obs_windows(spec),
        ..SyncConfig::default()
    }
}

struct PlainRun<'s> {
    spec: &'s ScenarioSpec,
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
        let config = async_config(self.spec, channel, advice);
        let mut delays = build_delays(&self.spec.delays);
        AsyncEngine::<P>::new(net, config).run_with(self.schedule, &mut delays)
    }
}

impl SyncDispatch for PlainRun<'_> {
    type Out = RunReport;

    fn call<P: SyncProtocol>(self, net: &Network) -> RunReport {
        SyncEngine::<P>::new(net, sync_config(self.spec)).run(self.schedule)
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
    assert!(
        advice.is_none() || spec.protocol.is_scheme(),
        "protocol {:?} takes no advice",
        spec.protocol
    );
    let schedule = build_schedule(spec);
    let visitor = PlainRun {
        spec,
        schedule: &schedule,
    };
    if spec.protocol.is_sync() {
        let report = dispatch_sync(spec, net, visitor).expect("sync protocol");
        SpecRun {
            report,
            advice: None,
        }
    } else {
        let (report, advice) =
            dispatch_async_advised(spec, net, advice, visitor).expect("async protocol");
        SpecRun { report, advice }
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
        let reference = wakeup_core::harness::run_async::<FloodAsync>(&net, &build_schedule(&s), 7);
        assert_eq!(run.report.messages(), reference.report.messages());
        assert_eq!(
            run.report.time_units().to_bits(),
            reference.report.time_units().to_bits()
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
}
