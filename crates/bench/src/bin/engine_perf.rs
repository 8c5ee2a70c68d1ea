//! Engine-throughput baseline emitter.
//!
//! ```text
//! cargo run --release -p wakeup-bench --bin engine_perf [out.json] \
//!     [--filter <substring>] [--n <comma-separated list>] \
//!     [--shards <K>] [--obs-json <path>]
//! ```
//!
//! Times the discrete-event engines on fixed workloads and writes
//! `BENCH_engine.json` (or the given path). Future engine PRs compare
//! against the committed numbers to show a trajectory.
//!
//! `--filter` keeps only the workloads whose name contains the given
//! substring (e.g. `--filter flood`, `--filter table1_cor2_cold`), and
//! `--n` overrides each selected workload's default problem sizes — so a
//! single hot workload can be re-measured (or scaled to n = 10⁶ smoke runs)
//! without paying for the whole suite. Filtered runs print the table but
//! skip writing the *default* JSON baseline — the committed file always
//! reflects the full default suite. An explicitly given output path is
//! always written, filtered or not; CI's perf-regression gate relies on
//! this to compare a `--filter flood` run against `BENCH_baseline.json`.
//!
//! `--shards <K>` sets the intra-run shard count used by the `*_sharded`
//! workloads (default 4).
//! Sharded execution is byte-identical to serial — CI diffs the `--obs-json`
//! export across shard counts exactly as it does across `WAKEUP_THREADS`.
//!
//! `--obs-json <path>` additionally writes one [`ObsSnapshot`] per entry —
//! the byte-deterministic observability export (snapshot schema 4: tick
//! histograms, phase spans, causal critical path, windowed timeline,
//! derived internals). CI diffs this file across `WAKEUP_THREADS` and
//! `--shards` settings and parses it as the schema check; `wakeup obs
//! inspect/diff/timeline` read the same file.
//!
//! Schema 4 splits setup into its cold and steady-state components (the old
//! single `setup_ms` conflated them, making the first workload at each size
//! an outlier — the n = 10⁴ flood row paid the whole artifact-cache build),
//! and tags every entry with its shard count:
//!
//! * `setup_cold_ms` — first-call artifact construction: graph generation,
//!   network assembly (ports, IDs, node tables), oracle advice. Paid once
//!   per key; every later trial, criterion iteration, or sweep worker hits
//!   the artifact cache instead.
//! * `setup_ms` — warm (cache-hit) setup: engine allocation plus artifact
//!   lookups. This is what a measurement loop actually pays to stand a run
//!   up after the first one.
//! * `run_ms` — the median per-trial simulation cost: what a measurement
//!   loop actually pays per iteration after warm setup.
//! * `shards` — the intra-run shard count the entry ran with (1 = serial).
//!
//! Schema 5 adds the persistent-store tier:
//!
//! * `setup_mmap_ms` — wall time for a *fresh* process-state artifact cache
//!   to stand up the entry's network (and advice, where the workload uses
//!   one) from the baked on-disk store via zero-copy mmap views
//!   (structurally validated at open; see the `wakeup-store` crate docs).
//!   Compare against `setup_cold_ms`: the gap is what `wakeup bake` saves
//!   every first-touch of a key. The store directory is `WAKEUP_STORE` when
//!   set, else a per-process temp directory baked on the fly; a store-status
//!   line (hits/misses/bytes) is printed to stderr after the table.
//! * `crit_hops` / `crit_tau` — the longest causal wake chain (waking
//!   deliveries, and its elapsed τ) reconstructed from the run's wake
//!   predecessors; a logical quantity, identical across machines.
//!
//! Schema 6 bumps the embedded observability snapshots from schema 3 to
//! schema 4 (windowed timeline + derived internals blocks); the timing
//! fields are unchanged.
//!
//! "Events" are engine-level units of work: processed wake + deliver events
//! for the async engine, delivered messages + node wakes for the sync one.
//! `events_per_sec` is computed over `run_ms` — it measures the engine's
//! steady-state throughput, not workload construction.

use std::time::Instant;

use wakeup_sim::{ObsSnapshot, RunReport};

use wakeup_bench::artifacts::{self, AdviceKey, ArtifactCache, GraphFamily, NetworkKey, SchemeId};
use wakeup_core::advice::{run_scheme, run_scheme_with_advice, AdvisingScheme, SpannerScheme};
use wakeup_core::dfs_rank::DfsRank;
use wakeup_core::fast_wakeup::FastWakeUp;
use wakeup_core::flooding::{FloodAsync, FloodSync};
use wakeup_graph::NodeId;
use wakeup_sim::adversary::{UnitDelay, WakeSchedule};
use wakeup_sim::{persist, AsyncConfig, AsyncEngine, KnowledgeMode, SyncConfig, SyncEngine};

struct Entry {
    protocol: &'static str,
    n: usize,
    shards: usize,
    events: u64,
    setup_cold_ms: f64,
    setup_ms: f64,
    /// Filled in by `measure_mmap_setups` once all entries exist: the
    /// fresh-cache load time of this entry's artifacts from the baked store.
    setup_mmap_ms: f64,
    run_ms: f64,
    /// The network the workload ran on — the key the store loads back.
    net_key: NetworkKey,
    /// The advice artifact the workload replays, if any.
    advice_scheme: Option<SchemeId>,
    snapshot: ObsSnapshot,
}

impl Entry {
    fn events_per_sec(&self) -> f64 {
        if self.run_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.run_ms / 1e3)
        }
    }
}

/// Times `setup` twice — cold (first call, which builds any missing
/// artifact-cache entries) and warm (cache hits only) — then reports the
/// median wall time over `reps` calls of `run` (which reports its event
/// count and the finished run's report) on the warm state. Splitting the
/// two setup costs keeps the first workload at each size from looking like
/// an outlier: the cold artifact build lands in `setup_cold_ms` instead of
/// polluting the steady-state `setup_ms`. The observability snapshot is
/// built from the last trial's report *after* the timed region, so `run_ms`
/// stays a pure engine metric.
fn time_split<T>(
    reps: usize,
    setup: impl Fn() -> T,
    mut run: impl FnMut(&mut T) -> (u64, RunReport),
) -> (u64, ObsSnapshot, f64, f64, f64) {
    let start = Instant::now();
    drop(setup());
    let setup_cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut state = setup();
    let setup_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut walls: Vec<f64> = Vec::with_capacity(reps);
    let mut events = 0;
    let mut last: Option<RunReport> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (e, report) = run(&mut state);
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        events = e;
        last = Some(report);
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    let snapshot = last.expect("reps >= 1").obs_snapshot();
    (
        events,
        snapshot,
        setup_cold_ms,
        setup_ms,
        walls[walls.len() / 2],
    )
}

/// Trial counts shrink as n grows: the large-n rows exist to pin scaling,
/// not to nail the median, and a 10^6-node flood is a smoke run.
fn reps_for(n: usize) -> usize {
    match n {
        0..=99_999 => 5,
        100_000..=999_999 => 3,
        _ => 1,
    }
}

fn flood_async_with(n: usize, shards: usize, protocol: &'static str) -> Entry {
    let schedule = WakeSchedule::single(NodeId::new(0));
    let net_key = NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt0,
    };
    let (events, snapshot, setup_cold_ms, setup_ms, run_ms) = time_split(
        reps_for(n),
        || {
            let net = artifacts::global().network(net_key);
            let config = AsyncConfig {
                seed: 7,
                shards,
                ..AsyncConfig::default()
            };
            AsyncEngine::<FloodAsync>::new_shared(net, config)
        },
        |engine| {
            engine.reset(7);
            let report = engine.run_mut(&schedule, &UnitDelay);
            assert!(report.all_awake);
            // Every delivery is one event, plus one wake event per node.
            (report.messages() + n as u64, report)
        },
    );
    Entry {
        protocol,
        n,
        shards,
        events,
        setup_cold_ms,
        setup_ms,
        setup_mmap_ms: 0.0,
        run_ms,
        net_key,
        advice_scheme: None,
        snapshot,
    }
}

fn flood_async(n: usize, _shards: usize) -> Entry {
    flood_async_with(n, 1, "flood_async")
}

/// The sharded flood rows: the same workload as `flood_async`, executed
/// with `--shards` worker shards. Byte-identical output (CI diffs it), so
/// the only number that may move is wall time.
fn flood_async_sharded(n: usize, shards: usize) -> Entry {
    flood_async_with(n, shards, "flood_async_sharded")
}

fn dfs_async(n: usize, _shards: usize) -> Entry {
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let schedule = WakeSchedule::staggered(&all, 2.0);
    let net_key = NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt1,
    };
    let (events, snapshot, setup_cold_ms, setup_ms, run_ms) = time_split(
        3,
        || {
            let net = artifacts::global().network(net_key);
            let config = AsyncConfig {
                seed: 7,
                ..AsyncConfig::default()
            };
            AsyncEngine::<DfsRank>::new_shared(net, config)
        },
        |engine| {
            engine.reset(7);
            let report = engine.run_mut(&schedule, &UnitDelay);
            assert!(report.all_awake);
            (report.messages() + n as u64, report)
        },
    );
    Entry {
        protocol: "dfs_rank_async",
        n,
        shards: 1,
        events,
        setup_cold_ms,
        setup_ms,
        setup_mmap_ms: 0.0,
        run_ms,
        net_key,
        advice_scheme: None,
        snapshot,
    }
}

fn flood_sync_with(n: usize, shards: usize, protocol: &'static str) -> Entry {
    let schedule = WakeSchedule::single(NodeId::new(0));
    let net_key = NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt1,
    };
    let (events, snapshot, setup_cold_ms, setup_ms, run_ms) = time_split(
        reps_for(n),
        || {
            let net = artifacts::global().network(net_key);
            let config = SyncConfig {
                seed: 7,
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<FloodSync>::new_shared(net, config)
        },
        |engine| {
            engine.reset(7);
            let report = engine.run_mut(&schedule);
            assert!(report.all_awake);
            (report.messages() + n as u64, report)
        },
    );
    Entry {
        protocol,
        n,
        shards,
        events,
        setup_cold_ms,
        setup_ms,
        setup_mmap_ms: 0.0,
        run_ms,
        net_key,
        advice_scheme: None,
        snapshot,
    }
}

fn flood_sync(n: usize, _shards: usize) -> Entry {
    flood_sync_with(n, 1, "flood_sync")
}

fn flood_sync_sharded(n: usize, shards: usize) -> Entry {
    flood_sync_with(n, shards, "flood_sync_sharded")
}

fn fast_wakeup_sync(n: usize, _shards: usize) -> Entry {
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let schedule = WakeSchedule::all_at_zero(&all);
    let net_key = NetworkKey {
        family: GraphFamily::Complete,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt1,
    };
    let (events, snapshot, setup_cold_ms, setup_ms, run_ms) = time_split(
        3,
        || {
            let net = artifacts::global().network(net_key);
            let config = SyncConfig {
                seed: 7,
                ..SyncConfig::default()
            };
            SyncEngine::<FastWakeUp>::new_shared(net, config)
        },
        |engine| {
            engine.reset(7);
            let report = engine.run_mut(&schedule);
            assert!(report.all_awake);
            (report.messages() + n as u64, report)
        },
    );
    Entry {
        protocol: "fast_wakeup_sync",
        n,
        shards: 1,
        events,
        setup_cold_ms,
        setup_ms,
        setup_mmap_ms: 0.0,
        run_ms,
        net_key,
        advice_scheme: None,
        snapshot,
    }
}

/// The cached-vs-cold pair: the same Corollary 2 (spanner, `k = ⌈log₂ n⌉`)
/// table-1 cell, measured with the oracle re-run every trial ("cold" — the
/// pre-cache behavior) and with the advice replayed from the artifact cache
/// ("cached"). The gap between the two `run_ms` values is what the cache
/// saves every criterion iteration and sweep trial at the largest n.
fn table1_cor2(n: usize, cached: bool) -> Entry {
    let schedule = WakeSchedule::single(NodeId::new(0));
    let scheme = SpannerScheme::log_instantiation(n);
    let key = NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt0,
    };
    let (events, snapshot, setup_cold_ms, setup_ms, run_ms) = time_split(
        3,
        || {
            let net = artifacts::global().network(key);
            let advice = cached.then(|| {
                artifacts::global().advice(
                    AdviceKey {
                        net: key,
                        scheme: SchemeId::SpannerLog,
                    },
                    || scheme.advise(&net),
                )
            });
            (net, advice)
        },
        |(net, advice)| {
            let run = match advice {
                Some(advice) => run_scheme_with_advice(&scheme, net, advice.clone(), &schedule, 7),
                None => run_scheme(&scheme, net, &schedule, 7),
            };
            assert!(run.report.all_awake);
            (run.report.messages() + n as u64, run.report)
        },
    );
    Entry {
        protocol: if cached {
            "table1_cor2_cached"
        } else {
            "table1_cor2_cold"
        },
        n,
        shards: 1,
        events,
        setup_cold_ms,
        setup_ms,
        setup_mmap_ms: 0.0,
        run_ms,
        net_key: key,
        advice_scheme: cached.then_some(SchemeId::SpannerLog),
        snapshot,
    }
}

fn table1_cor2_cold(n: usize, _shards: usize) -> Entry {
    table1_cor2(n, false)
}

fn table1_cor2_cached(n: usize, _shards: usize) -> Entry {
    table1_cor2(n, true)
}

/// Bakes every entry's artifacts into the store directory (`WAKEUP_STORE`
/// when set, else a per-process temp directory) and fills in
/// `setup_mmap_ms`: the wall time for a *fresh* artifact cache — no
/// process-state Arc tier — to stand the entry's network (and advice, where
/// the workload replays one) up from disk through zero-copy mmap
/// views. Baking goes through the already-warm global cache, so nothing is
/// cold-built a second time; each measurement gets its own loader cache so
/// the Arc tier cannot shadow the disk tier.
fn measure_mmap_setups(entries: &mut [Entry]) {
    let explicit_dir = std::env::var_os("WAKEUP_STORE").map(std::path::PathBuf::from);
    let store_dir = explicit_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("wakeup-engine-perf-store-{}", std::process::id()))
    });
    std::fs::create_dir_all(&store_dir).expect("create store directory");
    let mut loads = 0u64;
    let mut bytes_loaded = 0u64;
    let mut mmap_loads = 0u64;
    for e in entries.iter_mut() {
        let net = artifacts::global().network(e.net_key);
        let net_path = store_dir.join(e.net_key.store_file_name());
        if !net_path.exists() {
            persist::write_network(&net_path, &e.net_key.store_key(), &net).expect("bake network");
        }
        let adv_key = e.advice_scheme.map(|scheme| AdviceKey {
            net: e.net_key,
            scheme,
        });
        if let Some(key) = adv_key {
            let advice =
                artifacts::global().advice(key, || artifacts::build_advice(key.scheme, &net));
            let path = store_dir.join(key.store_file_name());
            if !path.exists() {
                persist::write_advice(&path, &key.store_key(), &advice).expect("bake advice");
            }
        }
        let loader = ArtifactCache::with_store(&store_dir);
        let start = Instant::now();
        let _net = loader.network(e.net_key);
        if let Some(key) = adv_key {
            let _advice = loader.advice(key, || unreachable!("advice must load from the store"));
        }
        e.setup_mmap_ms = start.elapsed().as_secs_f64() * 1e3;
        let counts = loader.store_counts();
        let expected = 1 + u64::from(adv_key.is_some());
        assert_eq!(
            counts.hits, expected,
            "{} n={}: store load must hit, not fall back",
            e.protocol, e.n
        );
        loads += counts.hits;
        bytes_loaded += counts.bytes_loaded;
        mmap_loads += counts.mmap_loads;
    }
    eprintln!(
        "store: dir={} loads={loads} bytes_loaded={bytes_loaded} mmap_loads={mmap_loads}",
        store_dir.display()
    );
    // A temp-dir store is scratch: drop it so repeated perf runs don't
    // accumulate multi-MB bake files under /tmp. An explicit WAKEUP_STORE
    // is the user's cache and stays.
    if explicit_dir.is_none() {
        std::fs::remove_dir_all(&store_dir).ok();
    }
}

/// A named workload with its committed default problem sizes. The function
/// receives the suite's shard count; serial workloads ignore it.
type Workload = (&'static str, &'static [usize], fn(usize, usize) -> Entry);

/// The default suite: each workload with the problem sizes the committed
/// baseline pins. `--filter` / `--n` cut this table down for spot checks.
/// The `*_sharded` rows rerun the flood workloads through the intra-run
/// sharded engines — same bytes out, different wall clock — including the
/// n = 10⁶ scaling row.
const WORKLOADS: &[Workload] = &[
    ("flood_async", &[1_000, 10_000, 100_000], flood_async),
    (
        "flood_async_sharded",
        &[10_000, 100_000, 1_000_000],
        flood_async_sharded,
    ),
    ("dfs_rank_async", &[1_000], dfs_async),
    ("flood_sync", &[1_000, 10_000, 100_000], flood_sync),
    ("flood_sync_sharded", &[100_000], flood_sync_sharded),
    ("fast_wakeup_sync", &[128], fast_wakeup_sync),
    ("table1_cor2_cold", &[512], table1_cor2_cold),
    ("table1_cor2_cached", &[512], table1_cor2_cached),
];

fn main() {
    let mut out_path: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut ns: Option<Vec<usize>> = None;
    let mut obs_json: Option<String> = None;
    // Shard count for the `*_sharded` workloads: `--shards`, else the
    // committed default of 4 (the baseline file pins 4-shard rows so the
    // numbers are comparable across machines).
    let mut shards = 4;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--filter" => {
                filter = Some(args.next().expect("--filter needs a substring"));
            }
            "--shards" => {
                shards = args
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards needs an integer");
                assert!(shards >= 1, "--shards must be at least 1");
            }
            "--obs-json" => {
                obs_json = Some(args.next().expect("--obs-json needs a path"));
            }
            "--n" => {
                let list = args.next().expect("--n needs a comma-separated list");
                ns = Some(
                    list.split(',')
                        .map(|t| {
                            t.trim()
                                .replace('_', "")
                                .parse()
                                .unwrap_or_else(|_| panic!("bad --n entry {t:?}"))
                        })
                        .collect(),
                );
            }
            other if !other.starts_with("--") => out_path = Some(other.to_string()),
            other => panic!("unknown flag {other:?}"),
        }
    }

    let mut entries: Vec<Entry> = Vec::new();
    for &(name, default_ns, workload) in WORKLOADS {
        if let Some(f) = &filter {
            if !name.contains(f.as_str()) {
                continue;
            }
        }
        let sizes: &[usize] = ns.as_deref().unwrap_or(default_ns);
        for &n in sizes {
            entries.push(workload(n, shards));
        }
    }
    assert!(!entries.is_empty(), "filter matched no workloads");
    measure_mmap_setups(&mut entries);

    let mut json = String::from("{\n  \"schema\": 6,\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"n\": {}, \"shards\": {}, \"events\": {}, \"setup_cold_ms\": {:.3}, \"setup_ms\": {:.3}, \"setup_mmap_ms\": {:.3}, \"run_ms\": {:.3}, \"events_per_sec\": {:.0}, \"crit_hops\": {}, \"crit_tau\": {:.6}}}{}\n",
            e.protocol,
            e.n,
            e.shards,
            e.events,
            e.setup_cold_ms,
            e.setup_ms,
            e.setup_mmap_ms,
            e.run_ms,
            e.events_per_sec(),
            e.snapshot.crit_hops,
            e.snapshot.crit_tau,
            if i + 1 < entries.len() { "," } else { "" }
        ));
        println!(
            "{:<20} n={:<7} s={:<2} events={:<9} cold={:>9.3} ms  setup={:>8.3} ms  mmap={:>8.3} ms  run={:>9.3} ms  {:>12.0} events/s  crit {}h/{:.3}τ",
            e.protocol,
            e.n,
            e.shards,
            e.events,
            e.setup_cold_ms,
            e.setup_ms,
            e.setup_mmap_ms,
            e.run_ms,
            e.events_per_sec(),
            e.snapshot.crit_hops,
            e.snapshot.crit_tau
        );
    }
    json.push_str("  ]\n}\n");
    // The default baseline file only ever holds the full suite, but an
    // explicit output path is honored even for filtered runs (the CI perf
    // gate writes a `--filter flood` subset and compares it to the
    // committed baseline).
    let explicit = out_path.is_some();
    let out_path = out_path.unwrap_or_else(|| "BENCH_engine.json".to_string());
    if explicit || (filter.is_none() && ns.is_none()) {
        std::fs::write(&out_path, json).expect("write benchmark baseline");
        eprintln!("wrote {out_path}");
    }
    // The observability export is written whenever requested (filtered runs
    // included — the path is explicit) and contains only logical
    // quantities, so its bytes are identical across machines and
    // WAKEUP_THREADS settings.
    if let Some(path) = obs_json {
        let mut out = String::from("[\n");
        for (i, e) in entries.iter().enumerate() {
            // No shard count here: CI diffs these bytes across --shards
            // settings, and the snapshot is a logical artifact.
            out.push_str(&format!(
                "  {{\"protocol\":\"{}\",\"n\":{},\"snapshot\":{}}}{}\n",
                e.protocol,
                e.n,
                e.snapshot.to_json(),
                if i + 1 < entries.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(&path, out).expect("write observability snapshots");
        eprintln!("wrote {path}");
    }
}
