//! Table 1 measurement for the report binaries (`src/bin/table1.rs`,
//! `src/bin/experiments.rs`) and the criterion benches (`benches/`).
//!
//! A Table 1 cell is a scenario spec: one `scenarios/table1/` row resized
//! to a sweep size with [`ScenarioSpec::at_size`]. [`run_cell`] measures
//! it through the scenario runner, with the network and oracle advice
//! drawn from an [`artifacts::ArtifactCache`], and returns a [`RowPoint`]
//! with the paper's three complexity measures. [`par_sweep`] runs a batch
//! of cells on a thread pool with output in input order.

pub mod artifacts;
pub mod stats;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use artifacts::{build_advice, AdviceKey, ArtifactCache, GraphFamily, NetworkKey, SchemeId};
use wakeup_scenario::{run, ScenarioSpec};
use wakeup_sim::{ObsSnapshot, TICKS_PER_UNIT};

/// One measured point of a Table 1 row.
#[derive(Debug, Clone)]
pub struct RowPoint {
    /// Number of nodes.
    pub n: usize,
    /// Measured message complexity.
    pub messages: u64,
    /// Measured time (τ units for async rows, rounds for sync rows).
    pub time: f64,
    /// Maximum advice bits per node (0 for advice-free rows).
    pub advice_max_bits: usize,
    /// Average advice bits per node (0 for advice-free rows).
    pub advice_avg_bits: f64,
    /// The row's predicted asymptotic shape evaluated at `n` (for ratio
    /// columns in the reports).
    pub shape: f64,
    /// Deterministic observability snapshot of the measured run (tick
    /// histograms, phase spans, causal critical path).
    pub snapshot: ObsSnapshot,
}

impl RowPoint {
    /// Measured / predicted ratio — flat ratios across an n-sweep confirm
    /// the claimed asymptotics.
    pub fn ratio(&self) -> f64 {
        self.messages as f64 / self.shape
    }
}

/// Measures one Table 1 cell: runs `spec` through the scenario runner and
/// reads off the row's measures.
///
/// The network and, for advising schemes, the oracle advice come from
/// `cache` under the keys [`spec_artifact_keys`] derives, so a sweep pays
/// for each artifact once and a baked store serves it from disk. Caching
/// skips only preprocessing the oracle would redo identically; the
/// measured run is untouched (see "Setup vs. run accounting" in
/// docs/MODEL.md). Families without a store encoding, and `sparse` specs
/// whose graph seed differs from the engine seed, build their network
/// with [`run::build_network`] instead.
///
/// Time is τ units for async protocols and rounds until every node is
/// awake for sync ones; the shape is
/// [`wakeup_scenario::ProtocolSpec::table1_shape`].
///
/// # Panics
///
/// Panics if the spec is invalid, its protocol has no Table 1 row
/// (`nih`, `gossip`), a node stays asleep, or a CONGEST budget is broken.
pub fn run_cell(cache: &ArtifactCache, spec: &ScenarioSpec) -> RowPoint {
    if let Err(e) = spec.validate() {
        panic!("{}: {e}", spec.name);
    }
    let (net, advice) = match spec_artifact_keys(spec) {
        Ok((net_key, advice_key)) => {
            let net = cache.network(net_key);
            let advice = advice_key.map(|key| cache.advice(key, || build_advice(key.scheme, &net)));
            (net, advice)
        }
        Err(_) => (Arc::new(run::build_network(spec)), None),
    };
    let run = run::run_spec_advised(spec, &net, advice);
    let report = &run.report;
    assert!(report.all_awake, "{}: not every node woke", spec.name);
    assert_eq!(report.metrics.congest_violations, 0, "{}", spec.name);
    let time = if spec.protocol.is_sync() {
        (report.metrics.all_awake_tick.unwrap_or(0) / TICKS_PER_UNIT) as f64
    } else {
        report.time_units()
    };
    let shape = spec
        .protocol
        .table1_shape(net.n(), net.graph().m())
        .unwrap_or_else(|| panic!("protocol {:?} has no Table 1 row", spec.protocol));
    RowPoint {
        n: net.n(),
        messages: report.messages(),
        time,
        advice_max_bits: run.advice.as_ref().map_or(0, |a| a.max_bits),
        advice_avg_bits: run.advice.as_ref().map_or(0.0, |a| a.avg_bits),
        shape,
        snapshot: report.obs_snapshot(),
    }
}

/// Derives the persistent-store artifact keys a scenario spec's workload
/// touches: the network key, plus the advice key for advising schemes.
///
/// This is the *single* spec-to-key derivation — `wakeup bake --scenario`
/// bakes exactly these keys, and [`run_cell`] loads the same ones through
/// its cache (key-equality is unit-tested). Only the `sparse` and
/// `complete` families have store encodings; for `sparse` the graph seed
/// must equal the engine seed, because a [`NetworkKey`] carries one seed
/// for both the generator and the port/ID assignment.
pub fn spec_artifact_keys(spec: &ScenarioSpec) -> Result<(NetworkKey, Option<AdviceKey>), String> {
    use wakeup_scenario::{GraphSpec, ProtocolSpec};
    let (family, n) = match spec.graph {
        GraphSpec::Sparse { n, seed } => {
            if seed != spec.engine.seed {
                return Err(format!(
                    "sparse graph seed {seed} != engine seed {} — artifact keys carry one seed",
                    spec.engine.seed
                ));
            }
            (GraphFamily::Sparse, n)
        }
        GraphSpec::Complete { n } => (GraphFamily::Complete, n),
        ref other => {
            return Err(format!(
                "graph family {other:?} has no persistent-store encoding"
            ))
        }
    };
    let net = NetworkKey {
        family,
        n,
        seed: spec.engine.seed,
        mode: spec.protocol.knowledge_mode(),
    };
    let scheme = match spec.protocol {
        ProtocolSpec::Cor1 => Some(SchemeId::BfsTree),
        ProtocolSpec::Thm5a => Some(SchemeId::Threshold),
        ProtocolSpec::Thm5b => Some(SchemeId::Cen),
        ProtocolSpec::Thm6 { k } => Some(SchemeId::Spanner(k)),
        ProtocolSpec::Cor2 => Some(SchemeId::SpannerLog),
        _ => None,
    };
    Ok((net, scheme.map(|scheme| AdviceKey { net, scheme })))
}

/// Number of worker threads the sweep harness uses: the `WAKEUP_THREADS`
/// environment variable if set (`WAKEUP_THREADS=1` recovers the fully
/// sequential path), otherwise the machine's available parallelism.
pub fn sweep_threads() -> usize {
    match std::env::var("WAKEUP_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if t >= 1 => t,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Runs `job` over every item on a pool of scoped `std::thread` workers and
/// returns the results **in input order**, independent of thread count and
/// scheduling.
///
/// The thread count comes from [`sweep_threads`]. Work is handed out through
/// a shared atomic cursor so workers load-balance across jobs of uneven
/// cost; finished results are reassembled by input index, which makes the
/// returned vector — and therefore every table printed from it —
/// byte-identical to a sequential run. Each job is itself a full,
/// independent simulation (its randomness is derived from explicit seeds,
/// never from shared state), so parallel execution cannot perturb measured
/// values.
pub fn par_sweep<I, T>(items: &[I], job: impl Fn(&I) -> T + Sync) -> Vec<T>
where
    I: Sync,
    T: Send,
{
    par_sweep_with(sweep_threads(), items, job)
}

/// Minimum spacing between sweep progress lines, in milliseconds. Trials
/// finishing inside the window are folded into the next line instead of
/// flooding stderr on fast sweeps.
const PROGRESS_INTERVAL_MS: u64 = 200;

/// Live sweep progress, printed to **stderr** only (stdout stays
/// byte-identical for CI diffs) and gated by the `WAKEUP_PROGRESS`
/// environment variable — set it to any non-empty value other than `0`.
/// Lines flush on a [`PROGRESS_INTERVAL_MS`] interval (plus always the
/// final trial) and carry: rows done, sustained engine events/s (from the
/// process-wide [`wakeup_sim::obs::global_events`] counter), the most
/// recent timeline window any recorder rolled into
/// ([`wakeup_sim::obs::current_window`]), and the linear-extrapolation ETA
/// for the rest of the sweep.
struct SweepProgress {
    total: usize,
    done: AtomicUsize,
    start: Instant,
    events_at_start: u64,
    /// Milliseconds since `start` of the last printed line.
    last_print_ms: AtomicU64,
}

impl SweepProgress {
    /// `None` when progress reporting is disabled (the zero-overhead path).
    fn new(total: usize) -> Option<SweepProgress> {
        let on = std::env::var("WAKEUP_PROGRESS").is_ok_and(|v| !v.is_empty() && v != "0");
        on.then(|| SweepProgress {
            total,
            done: AtomicUsize::new(0),
            start: Instant::now(),
            events_at_start: wakeup_sim::obs::global_events(),
            last_print_ms: AtomicU64::new(0),
        })
    }

    /// Records one finished trial and prints a progress line if the flush
    /// interval elapsed (the final trial always prints).
    fn finish_one(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.start.elapsed();
        if done < self.total {
            let now_ms = elapsed.as_millis() as u64;
            let last = self.last_print_ms.load(Ordering::Relaxed);
            // One worker wins the CAS per interval; the rest fold their
            // trial into whoever prints next.
            if now_ms.saturating_sub(last) < PROGRESS_INTERVAL_MS
                || self
                    .last_print_ms
                    .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
        }
        let secs = elapsed.as_secs_f64().max(1e-9);
        let events = wakeup_sim::obs::global_events().wrapping_sub(self.events_at_start);
        let rate = events as f64 / secs;
        let eta = secs / done as f64 * (self.total - done) as f64;
        let window = wakeup_sim::obs::current_window();
        eprintln!(
            "[sweep] {done}/{} rows done, {rate:.0} events/s, window {window}, ETA {eta:.1}s",
            self.total
        );
    }
}

/// [`par_sweep`] with an explicit thread count (exposed so determinism tests
/// can compare thread counts directly; `threads <= 1` runs inline on the
/// calling thread).
pub fn par_sweep_with<I, T>(threads: usize, items: &[I], job: impl Fn(&I) -> T + Sync) -> Vec<T>
where
    I: Sync,
    T: Send,
{
    let progress = SweepProgress::new(items.len());
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .map(|item| {
                let result = job(item);
                if let Some(p) = &progress {
                    p.finish_one();
                }
                result
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = job(item);
                done.lock()
                    .expect("a sweep worker panicked")
                    .push((i, result));
                if let Some(p) = &progress {
                    p.finish_one();
                }
            });
        }
    });
    let mut done = done.into_inner().expect("a sweep worker panicked");
    assert_eq!(
        done.len(),
        items.len(),
        "every sweep job must report a result"
    );
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use wakeup_scenario::{corpus, GraphSpec, ProtocolSpec};

    fn table1_row(protocol: ProtocolSpec) -> ScenarioSpec {
        corpus::table1()
            .expect("load scenarios/table1 corpus")
            .into_iter()
            .map(|(_, spec)| spec)
            .find(|spec| spec.protocol == protocol)
            .expect("every Table 1 protocol has a corpus row")
    }

    /// Asserts two points are equal bit for bit, obs JSON included.
    fn assert_same_point(a: &RowPoint, b: &RowPoint) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.time.to_bits(), b.time.to_bits());
        assert_eq!(a.advice_max_bits, b.advice_max_bits);
        assert_eq!(a.advice_avg_bits.to_bits(), b.advice_avg_bits.to_bits());
        assert_eq!(a.shape.to_bits(), b.shape.to_bits());
        // CI diffs these exact bytes across thread counts, shard counts
        // and store tiers.
        assert_eq!(a.snapshot.to_json(), b.snapshot.to_json());
    }

    #[test]
    fn all_rows_measure_cleanly_at_small_n() {
        let cache = ArtifactCache::new();
        for (_, row) in corpus::table1().unwrap() {
            let n = if row.protocol.is_sync() { 32 } else { 48 };
            let point = run_cell(&cache, &row.at_size(n).unwrap());
            assert_eq!(point.n, n);
            assert!(point.messages > 0);
            assert!(point.ratio().is_finite());
            // The causal critical path is a lower bound witness for the
            // measured wake-up time.
            assert!(
                point.snapshot.crit_tau <= point.time + 1e-9,
                "{}: crit_tau {} exceeds measured time {}",
                row.name,
                point.snapshot.crit_tau,
                point.time
            );
            if row.protocol == ProtocolSpec::FastWakeUp {
                // Every node is adversary-woken at round 0, so no wake is
                // caused by a message and the causal forest is all roots.
                assert_eq!(point.snapshot.crit_hops, 0);
                assert_eq!(point.snapshot.messages, point.messages);
            }
        }
    }

    /// A cache hit must be indistinguishable from a cold build: the cached
    /// cell (shared network + replayed oracle advice) has to reproduce the
    /// from-scratch `run_scheme` numbers bit-for-bit.
    #[test]
    fn cached_scheme_measure_matches_cold_run() {
        let (n, seed) = (48usize, 7u64);
        let spec = table1_row(ProtocolSpec::Thm5b).at_size(n).unwrap();
        assert_eq!(spec.graph, GraphSpec::Sparse { n, seed });
        // Cold: build everything from scratch, advise inline.
        let cold_net = wakeup_sim::Network::kt0(run::build_graph(&spec.graph), seed);
        let cold = wakeup_core::advice::run_scheme(
            &wakeup_core::advice::CenScheme::new(),
            &cold_net,
            &run::build_schedule(&spec),
            seed,
        );
        // Cached: twice, so the second call replays memoized artifacts.
        let cache = ArtifactCache::new();
        let a = run_cell(&cache, &spec);
        let b = run_cell(&cache, &spec);
        assert_eq!(cache.build_counts().advice, 1, "second cell replays advice");
        for p in [&a, &b] {
            assert_eq!(p.messages, cold.report.messages());
            assert_eq!(p.time.to_bits(), cold.report.time_units().to_bits());
            assert_eq!(p.advice_max_bits, cold.advice.max_bits);
            assert_eq!(p.advice_avg_bits.to_bits(), cold.advice.avg_bits.to_bits());
        }
        assert_same_point(&a, &b);
    }

    /// The store tier really serves Table 1: cells run on a cache backed by
    /// a baked store load their network and advice from disk, never run
    /// the oracle, and equal the cold cell bit for bit.
    #[test]
    fn baked_store_serves_table1_cells() {
        let dir = std::env::temp_dir().join("wakeup-bench-test-baked-cells");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cells = [ProtocolSpec::Cor2, ProtocolSpec::FastWakeUp]
            .map(|protocol| table1_row(protocol).at_size(64).unwrap());
        let baker = ArtifactCache::with_store(&dir);
        for cell in &cells {
            let (net_key, advice_key) = spec_artifact_keys(cell).unwrap();
            baker.bake_network(net_key).unwrap();
            if let Some(key) = advice_key {
                let net = baker.network(key.net);
                baker
                    .bake_advice(key, || build_advice(key.scheme, &net))
                    .unwrap();
            }
        }
        let cold = ArtifactCache::new();
        let baked = ArtifactCache::with_store(&dir);
        for cell in &cells {
            assert_same_point(&run_cell(&cold, cell), &run_cell(&baked, cell));
        }
        let counts = baked.store_counts();
        assert_eq!(counts.hits, 3, "two networks and one advice vector");
        assert_eq!((counts.misses, counts.errors), (0, 0));
        let builds = baked.build_counts();
        assert_eq!(
            (builds.graphs, builds.networks, builds.advice),
            (0, 0, 0),
            "no cold build and no oracle run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sweep harness must be a pure reordering of work: identical
    /// results (bit-for-bit, including floats) in input order at every
    /// thread count, even with more workers than jobs.
    #[test]
    fn par_sweep_matches_sequential_bit_for_bit() {
        let sizes = [24usize, 32, 48, 64];
        let flooding = table1_row(ProtocolSpec::Flooding);
        let cache = ArtifactCache::new();
        let cell = |&n: &usize| run_cell(&cache, &flooding.at_size(n).unwrap());
        let seq = par_sweep_with(1, &sizes, cell);
        for threads in [2, 3, 16] {
            let par = par_sweep_with(threads, &sizes, cell);
            assert_eq!(par.len(), seq.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_same_point(a, b);
            }
        }
    }

    #[test]
    fn par_sweep_preserves_input_order_under_uneven_cost() {
        // Later jobs finish first (earlier ones spin longer); order must
        // still follow the input.
        let items: Vec<usize> = (0..32).collect();
        let out = par_sweep_with(8, &items, |&i| {
            let mut x = 1u64;
            for _ in 0..(32 - i) * 10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn sweep_threads_env_override() {
        // `WAKEUP_THREADS` is read per call; exercise the parse paths via a
        // scoped set/remove. Tests in this binary run in one process, so
        // restore the prior state.
        let prior = std::env::var("WAKEUP_THREADS").ok();
        std::env::set_var("WAKEUP_THREADS", "3");
        assert_eq!(sweep_threads(), 3);
        std::env::set_var("WAKEUP_THREADS", "not-a-number");
        assert_eq!(sweep_threads(), 1);
        std::env::set_var("WAKEUP_THREADS", "0");
        assert_eq!(sweep_threads(), 1);
        match prior {
            Some(v) => std::env::set_var("WAKEUP_THREADS", v),
            None => std::env::remove_var("WAKEUP_THREADS"),
        }
        assert!(sweep_threads() >= 1);
    }
}
