//! The two workloads and the traced-only legs. Each workload turns the
//! workload seed into scenario-spec text, feeds only that text to the
//! program's public functions, checks every output, and repeats its unit of
//! work until the run's time is up.
//!
//! In a traced run, repetitions alternate untraced and traced over the same
//! input, so the tracing overhead is measured inside one process. The
//! traced path calls the same public functions, split at the layer
//! boundaries (`build_graph` + `Network::kt0/kt1` in place of
//! `build_network`, `dispatch_async`/`dispatch_sync` with a timing visitor in
//! place of `run_spec_on`). Work a traced repetition does only to attribute
//! time — a second, warm engine construction that separates the table build
//! from protocol init, and the obs export of a `flood` run — sits under
//! `trace.attribution` spans and is left out of the traced unit's wall
//! time.

use std::sync::Arc;
use std::time::Instant;

use wakeup_core::flooding::FloodAsync;
use wakeup_graph::{algo, NodeId};
use wakeup_scenario::conformance::{run_battery_on, CheckReport};
use wakeup_scenario::run::{
    async_config, build_delays, build_graph, build_network, build_schedule, dispatch_async,
    dispatch_sync, run_spec_on, sync_config, AsyncDispatch, SyncDispatch,
};
use wakeup_scenario::{ScenarioSpec, WakeSpec};
use wakeup_sim::adversary::WakeSchedule;
use wakeup_sim::advice::AdviceStats;
use wakeup_sim::{
    AsyncEngine, AsyncProtocol, BitStr, ChannelModel, KnowledgeMode, Network, RunDigest, RunReport,
    SyncEngine, SyncProtocol,
};

use crate::checks::{self, FloodExpect};
use crate::inputs;
use crate::machine;
use crate::spans::Tracer;

/// Fewest units a run makes, whatever `--seconds` says, so the tail
/// percentile always has samples beyond it.
const MIN_REPS: usize = 24;

/// `flood` interleaves one cold set-up every this many units, so set-up
/// samples are spread over the run's speed phases rather than bunched at
/// its start.
const FLOOD_SETUP_EVERY: usize = 16;

/// Repetitions of each traced-only leg (shard, store, conformance).
const LEG_REPS: usize = 9;

/// Work counts from the program's own reports. Taken over a fixed input
/// set per seed, so they repeat exactly.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub specs: u64,
    pub edges: u64,
    pub mem_setup_mb: f64,
    pub advice_bits: u64,
    pub advice_max_bits: u64,
    pub events: u64,
    pub messages: u64,
    pub bits: u64,
    pub batch_sum: u64,
    pub batch_count: u64,
    pub wheel_max_scan: u64,
    pub arena_high_water: u64,
    pub prefetch_batches: u64,
    pub json_bytes: u64,
    pub checks: u64,
    pub checks_failed: u64,
    pub shard_stall_rounds: u64,
    pub shard_imbalance: f64,
    pub store_bytes: u64,
}

impl Counts {
    fn add_report(&mut self, r: &RunReport) {
        self.events += r.obs.events;
        self.messages += r.metrics.messages_sent;
        self.bits += r.metrics.bits_sent;
        self.batch_sum += r.obs.batch_sizes.sum();
        self.batch_count += r.obs.batch_sizes.count();
        let rt = &r.obs.runtime;
        self.wheel_max_scan = self.wheel_max_scan.max(rt.wheel_max_scan);
        self.arena_high_water = self.arena_high_water.max(rt.arena_high_water);
        self.prefetch_batches += rt.prefetch_batches;
    }

    fn add_advice(&mut self, a: &AdviceStats) {
        self.advice_bits += a.total_bits as u64;
        self.advice_max_bits = self.advice_max_bits.max(a.max_bits as u64);
    }
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each untraced unit.
    pub wall: Vec<f64>,
    /// Wall time of each traced unit, less its attribution-only work.
    pub traced_wall: Vec<f64>,
    /// Engine events per second of each untraced unit.
    pub events_per_s: Vec<f64>,
    /// Cold set-up times.
    pub setup: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
    /// Digest of the generated spec text and how many specs it covers.
    pub input_digest: u64,
    pub input_specs: usize,
    /// Traced-only leg timings: (serial run, 2-shard run) pairs, store
    /// writes and reads.
    pub shard_serial: Vec<f64>,
    pub shard_run: Vec<f64>,
    pub store_write: Vec<f64>,
    pub store_read: Vec<f64>,
}

impl Outcome {
    /// Files a unit's wall time with the untraced or the traced samples.
    fn push_wall(&mut self, rep: &Rep, wall: f64) {
        if rep.traced {
            self.traced_wall.push(wall);
        } else {
            self.wall.push(wall);
        }
    }

    fn record(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: output check failed: {e}");
            }
        }
    }
}

/// Decides when a run stops and which repetitions are traced.
struct Reps {
    start: Instant,
    seconds: f64,
    min_reps: usize,
    trace: bool,
    next: usize,
}

/// One repetition: its index and whether it is traced (a traced run pairs
/// each untraced rep with a traced one).
struct Rep {
    index: usize,
    traced: bool,
}

impl Reps {
    fn new(seconds: f64, min_reps: usize, trace: bool) -> Reps {
        Reps {
            start: Instant::now(),
            seconds,
            min_reps: if trace { 2 * min_reps } else { min_reps },
            trace,
            next: 0,
        }
    }

    fn next(&mut self, tracer: &mut Tracer) -> Option<Rep> {
        let index = self.next;
        let done = self.start.elapsed().as_secs_f64() >= self.seconds && index >= self.min_reps;
        // A traced run ends on a complete (untraced, traced) pair.
        if done && (!self.trace || index.is_multiple_of(2)) {
            return None;
        }
        self.next += 1;
        let traced = self.trace && index % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_rep(index as u32, "unit");
        Some(Rep { index, traced })
    }
}

/// Runs one unit under a `bench.unit` span and returns its wall time, less
/// the unit's attribution-only work when traced.
fn time_unit<T>(tracer: &mut Tracer, rep: &Rep, unit: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    let first_span = tracer.spans().len();
    let t0 = Instant::now();
    let value = tracer.span("bench.unit", unit);
    let mut wall = t0.elapsed().as_secs_f64();
    if rep.traced {
        let attribution: u64 = tracer.spans()[first_span..]
            .iter()
            .filter(|s| s.name == "trace.attribution")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        wall -= attribution as f64 * 1e-9;
    }
    (value, wall)
}

fn parse(tracer: &mut Tracer, text: &str) -> ScenarioSpec {
    tracer
        .span("scenario.parse", |_| ScenarioSpec::parse(text))
        .expect("generated spec text is valid")
}

/// `build_network`, split at the graph/network boundary when traced.
fn network(tracer: &mut Tracer, spec: &ScenarioSpec) -> Network {
    if !tracer.enabled() {
        return build_network(spec);
    }
    let graph = tracer.span("graph.build", |_| build_graph(&spec.graph));
    tracer.span("network.build", |_| match spec.protocol.knowledge_mode() {
        KnowledgeMode::Kt0 => Network::kt0(graph, spec.engine.seed),
        KnowledgeMode::Kt1 => Network::kt1(graph, spec.engine.seed),
    })
}

/// The traced counterpart of `run_spec_on`'s plain run: times advice
/// (dispatch to visitor entry), engine construction, and the run.
struct TracedRun<'a> {
    spec: &'a ScenarioSpec,
    schedule: &'a WakeSchedule,
    tracer: &'a mut Tracer,
    dispatched_ns: u64,
    /// Whether the construction is the network's first (and so builds
    /// the lazy tables); a warm construction is then timed beside it.
    cold: bool,
}

impl TracedRun<'_> {
    fn warm_twin(&mut self, build: impl FnOnce()) {
        if self.cold {
            self.tracer.span("trace.attribution", |t| {
                t.span("trace.engine_new_warm", |_| build())
            });
        }
    }
}

impl AsyncDispatch for TracedRun<'_> {
    type Out = RunReport;

    fn call<P: AsyncProtocol>(
        mut self,
        net: &Network,
        channel: ChannelModel,
        advice: Option<Arc<Vec<BitStr>>>,
    ) -> RunReport {
        let entry = self.tracer.now_ns();
        self.tracer.record("advice.busy", self.dispatched_ns, entry);
        let config = async_config(self.spec, channel, advice);
        let engine = self
            .tracer
            .span("engine.new", |_| AsyncEngine::<P>::new(net, config.clone()));
        self.warm_twin(|| drop(AsyncEngine::<P>::new(net, config)));
        let mut delays = build_delays(&self.spec.delays);
        let schedule = self.schedule;
        self.tracer.span("engine.async_run", |_| {
            engine.run_with(schedule, &mut delays)
        })
    }
}

impl SyncDispatch for TracedRun<'_> {
    type Out = RunReport;

    fn call<P: SyncProtocol>(mut self, net: &Network) -> RunReport {
        let entry = self.tracer.now_ns();
        self.tracer.record("advice.busy", self.dispatched_ns, entry);
        let config = sync_config(self.spec);
        let engine = self
            .tracer
            .span("engine.new", |_| SyncEngine::<P>::new(net, config.clone()));
        self.warm_twin(|| drop(SyncEngine::<P>::new(net, config)));
        let schedule = self.schedule;
        self.tracer
            .span("engine.sync_run", |_| engine.run(schedule))
    }
}

/// `run_spec_on`, or its traced counterpart.
fn run_spec(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    net: &Network,
    cold: bool,
) -> (RunReport, Option<AdviceStats>) {
    if !tracer.enabled() {
        let run = run_spec_on(spec, net);
        return (run.report, run.advice);
    }
    tracer.span("scenario.dispatch", |tracer| {
        let schedule = build_schedule(spec);
        let visitor = TracedRun {
            spec,
            schedule: &schedule,
            dispatched_ns: tracer.now_ns(),
            tracer,
            cold,
        };
        if spec.protocol.is_sync() {
            (
                dispatch_sync(spec, net, visitor).expect("sync protocol"),
                None,
            )
        } else {
            dispatch_async(spec, net, visitor).expect("async protocol")
        }
    })
}

/// Exports the run's schema-4 obs snapshot as JSON, as `table1 --obs-json`
/// does; returns the JSON's length and FNV digest.
fn export(tracer: &mut Tracer, report: &RunReport) -> (u64, u64) {
    let snapshot = tracer.span("obs.snapshot", |_| report.obs_snapshot());
    let json = tracer.span("obs.export", |_| snapshot.to_json());
    (json.len() as u64, inputs::digest([json.as_str()]))
}

/// `flood`: one `run_spec_on` of the flood spec plus its output check per
/// unit, on a network built once; cold set-ups interleaved.
pub fn flood(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let trace = tracer.enabled();
    let text = inputs::flood_spec(seed, 1);
    let mut out = Outcome {
        input_digest: inputs::digest([text.as_str()]),
        input_specs: 1,
        ..Outcome::default()
    };

    // One cold set-up: parse, build the network, and construct the first
    // engine (which builds the lazy tables). Returns the network and the
    // set-up's wall time.
    let setup = |tracer: &mut Tracer, index: usize| -> (ScenarioSpec, Network, f64) {
        tracer.set_enabled(trace);
        tracer.set_rep(index as u32, "setup");
        tracer.span("bench.setup", |tracer| {
            let t0 = Instant::now();
            let spec = parse(tracer, &text);
            let net = network(tracer, &spec);
            let config = async_config(&spec, ChannelModel::Local, None);
            let engine = tracer.span("engine.new", |_| {
                AsyncEngine::<FloodAsync>::new(&net, config.clone())
            });
            let secs = t0.elapsed().as_secs_f64();
            drop(engine);
            if tracer.enabled() {
                tracer.span("trace.attribution", |t| {
                    t.span("trace.engine_new_warm", |_| {
                        drop(AsyncEngine::<FloodAsync>::new(&net, config))
                    })
                });
            }
            (spec, net, secs)
        })
    };

    let rss_before = machine::rss_mb();
    let (spec, net, secs) = setup(tracer, 0);
    out.counts.mem_setup_mb = machine::rss_mb() - rss_before;
    out.setup.push(secs);
    let WakeSpec::Single { node } = spec.wake else {
        unreachable!("the flood spec wakes one node")
    };
    let graph = net.graph();
    let expect = FloodExpect {
        n: graph.n(),
        messages: 2 * graph.m() as u64,
        wake_time_units: algo::awake_distance(graph, &[NodeId::new(node)])
            .expect("sparse graphs are connected") as f64,
    };
    out.counts.specs = 1;
    out.counts.edges = graph.m() as u64;

    let mut reference: Option<RunDigest> = None;
    let mut reps = Reps::new(seconds, MIN_REPS, trace);
    let mut setups = 1;
    while let Some(rep) = reps.next(tracer) {
        if rep.index > 0 && rep.index % FLOOD_SETUP_EVERY == 0 {
            let (_, _, secs) = setup(tracer, setups);
            out.setup.push(secs);
            setups += 1;
            // A set-up evicts the unit's working set and churns the
            // allocator; one untimed unit restores the steady state, so the
            // set-ups do not leak into the units' tail.
            tracer.set_enabled(false);
            let report = run_spec_on(&spec, &net).report;
            out.record(checks::check_flood(&report, &expect));
            tracer.set_enabled(rep.traced);
            tracer.set_rep(rep.index as u32, "unit");
        }
        let ((report, ok), wall) = time_unit(tracer, &rep, |tracer| {
            let (report, _) = run_spec(tracer, &spec, &net, false);
            let ok = tracer.span("bench.check", |_| checks::check_flood(&report, &expect));
            (report, ok)
        });
        out.push_wall(&rep, wall);
        out.record(ok);
        if !rep.traced {
            out.events_per_s.push(report.obs.events as f64 / wall);
        }
        let digest = RunDigest::of(&report);
        match &reference {
            None => {
                out.counts.add_report(&report);
                reference = Some(digest);
            }
            Some(first) => out.record(agree(first, &digest)),
        }
        if rep.traced {
            tracer.span("trace.attribution", |t| {
                out.counts.json_bytes = export(t, &report).0;
            });
        }
    }
    if trace {
        legs(seed, tracer, &mut out);
    }
    out
}

fn agree(first: &RunDigest, now: &RunDigest) -> Result<(), String> {
    match first.diff(now).first() {
        Some(d) => Err(format!("repetition disagrees with the first: {d}")),
        None => Ok(()),
    }
}

/// The per-cell record two passes must agree on.
#[derive(Debug, Clone, PartialEq)]
struct CellDigest {
    run: RunDigest,
    advice: Option<(usize, usize)>,
    json: u64,
}

/// `table1`: one unit is one cold pass over all 36 cells — parse, build,
/// advise, run, and export each, as the `table1` binary does.
pub fn table1(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let trace = tracer.enabled();
    let cells = inputs::table1_specs(seed)?;
    let mut out = Outcome {
        input_digest: inputs::digest(cells.iter().map(String::as_str)),
        input_specs: cells.len(),
        ..Outcome::default()
    };
    out.counts.specs = cells.len() as u64;
    let mut reference: Vec<CellDigest> = Vec::new();
    let mut reps = Reps::new(seconds, MIN_REPS, trace);
    let rss_before = machine::rss_mb();
    while let Some(rep) = reps.next(tracer) {
        let mut setup = 0.0;
        let mut events = 0;
        let mut results = Vec::with_capacity(cells.len());
        let (_, wall) = time_unit(tracer, &rep, |tracer| {
            for text in &cells {
                let t0 = Instant::now();
                let spec = parse(tracer, text);
                let net = network(tracer, &spec);
                setup += t0.elapsed().as_secs_f64();
                let (report, advice) = run_spec(tracer, &spec, &net, true);
                let (json_len, json) = export(tracer, &report);
                let ok = tracer.span("bench.check", |_| {
                    checks::check_cell(&report, net.n(), spec.protocol.is_scheme(), advice.as_ref())
                });
                events += report.obs.events;
                results.push((report, advice, json_len, json, net.graph().m(), ok));
            }
        });
        out.push_wall(&rep, wall);
        if rep.index == 0 {
            out.counts.mem_setup_mb = machine::rss_mb() - rss_before;
        }
        if !rep.traced {
            out.setup.push(setup);
            out.events_per_s.push(events as f64 / wall);
        }
        let first_pass = reference.is_empty();
        for (i, (report, advice, json_len, json, edges, ok)) in results.into_iter().enumerate() {
            out.record(ok);
            if first_pass {
                let c = &mut out.counts;
                c.add_report(&report);
                c.edges += edges as u64;
                c.json_bytes += json_len;
                if let Some(a) = &advice {
                    c.add_advice(a);
                }
            }
            let digest = CellDigest {
                run: RunDigest::of(&report),
                advice: advice.map(|a| (a.max_bits, a.total_bits)),
                json,
            };
            if first_pass {
                reference.push(digest);
            } else if digest != reference[i] {
                out.record(Err(format!("cell {i} disagrees with the first pass")));
            }
        }
    }
    if trace {
        legs(seed, tracer, &mut out);
    }
    Ok(out)
}

/// The traced-only legs, run after every workload's traced loop: on that
/// seed's flood spec, the same run serial and at `engine.shards = 2`
/// (`sim::shard`) and a `write_network`/`read_network` round trip of its
/// network through the store (`store` + `sim::persist`); and a fixed batch
/// of `SpecGen` specs through the conformance battery
/// (`scenario::conformance` + `sim::audit`, and the sharded executor's
/// 2-shard checks).
fn legs(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let serial = ScenarioSpec::parse(&inputs::flood_spec(seed, 1)).expect("valid flood spec");
    let sharded = ScenarioSpec::parse(&inputs::flood_spec(seed, 2)).expect("valid flood spec");
    let net = build_network(&serial);
    let base = run_spec_on(&serial, &net).report;
    let base_digest = RunDigest::of(&base);
    let dir = std::path::Path::new(crate::SCRATCH_DIR).join("store");
    std::fs::create_dir_all(&dir).expect("create the store scratch directory");
    let path = dir.join("flood.wakeup");
    let key = format!("perfbench-flood-{seed}");
    let battery: Vec<(ScenarioSpec, Network)> = inputs::conformance_specs(seed)
        .iter()
        .map(|text| {
            let spec = ScenarioSpec::parse(text).expect("generated spec text is valid");
            let net = build_network(&spec);
            (spec, net)
        })
        .collect();
    let mut first_outcomes: Option<Vec<Vec<(String, bool)>>> = None;
    for i in 0..LEG_REPS {
        tracer.set_rep(i as u32, "leg");
        let timed = |tracer: &mut Tracer, name: &'static str, spec: &ScenarioSpec| {
            let t0 = Instant::now();
            let report = tracer.span(name, |_| run_spec_on(spec, &net).report);
            (report, t0.elapsed().as_secs_f64())
        };
        let (report, secs) = timed(tracer, "shard.serial_run", &serial);
        out.shard_serial.push(secs);
        out.record(agree(&base_digest, &RunDigest::of(&report)));
        let (report, secs) = timed(tracer, "shard.run", &sharded);
        out.shard_run.push(secs);
        out.record(agree(&base_digest, &RunDigest::of(&report)));
        let rt = &report.obs.runtime;
        out.counts.shard_stall_rounds = rt.stall_rounds;
        let max = rt.shard_events.iter().copied().max().unwrap_or(0) as f64;
        let mean = rt.shard_events.iter().sum::<u64>() as f64 / rt.shard_events.len().max(1) as f64;
        out.counts.shard_imbalance = if mean > 0.0 { max / mean } else { 0.0 };
        if rt.shards != 2 {
            out.record(Err(format!("2-shard run used {} shard(s)", rt.shards)));
        }

        let t0 = Instant::now();
        let written = tracer.span("store.write", |_| {
            wakeup_sim::persist::write_network(&path, &key, &net)
        });
        out.store_write.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let read = tracer.span("store.read", |_| {
            wakeup_sim::persist::read_network(&path, &key)
        });
        out.store_read.push(t0.elapsed().as_secs_f64());
        let round_trip = match (written, read) {
            (Ok(bytes), Ok(back)) if back.graph().edges() == net.graph().edges() => {
                out.counts.store_bytes = bytes;
                Ok(())
            }
            (Ok(_), Ok(_)) => Err("store round trip changed the graph".into()),
            (Err(e), _) | (_, Err(e)) => Err(format!("store round trip failed: {e}")),
        };
        out.record(round_trip);

        let checks: Vec<Vec<CheckReport>> = tracer.span("conformance.battery", |_| {
            battery
                .iter()
                .map(|(spec, net)| run_battery_on(spec, net))
                .collect()
        });
        for spec_checks in &checks {
            out.record(checks::check_battery(spec_checks));
        }
        let outcomes: Vec<Vec<(String, bool)>> = checks
            .iter()
            .map(|c| c.iter().map(|c| (c.name.clone(), c.passed)).collect())
            .collect();
        match &first_outcomes {
            None => {
                let c = &mut out.counts;
                c.checks = checks.iter().map(|c| c.len() as u64).sum();
                c.checks_failed = checks.iter().flatten().filter(|c| !c.passed).count() as u64;
                first_outcomes = Some(outcomes);
            }
            Some(first) if *first != outcomes => {
                out.record(Err("conformance leg repetitions disagree".into()))
            }
            Some(_) => {}
        }
    }
    // Ignoring a failed removal is safe: the next run overwrites the file.
    let _ = std::fs::remove_file(&path);
}
