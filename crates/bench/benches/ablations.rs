//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ranks`: random DFS ranks vs ID-derived ranks under the ordered-wake
//!   adversary (why Theorem 3 needs randomness);
//! * `sampling`: FastWakeUp's root probability at 25% / 100% / 400% of the
//!   paper's √(ln n / n) (why the sampling rate is where it is);
//! * `cen_layout`: balanced binary sibling trees vs linear chains in the
//!   child-encoding scheme (why Theorem 5(B)'s log-factor is a tree depth);
//! * `congest_dfs`: the CONGEST token (bounce overhead, Θ(m) messages) vs
//!   the LOCAL visited-list token (why Theorem 3 is a LOCAL result).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use wakeup_core::advice::{run_scheme, CenScheme};
use wakeup_core::dfs_congest::DfsCongest;
use wakeup_core::dfs_rank::{DfsIdRank, DfsRank};
use wakeup_core::fast_wakeup::FastWakeUpScaled;
use wakeup_graph::{generators, NodeId};
use wakeup_sim::adversary::WakeSchedule;
use wakeup_sim::{AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine};

fn async_seed(seed: u64) -> AsyncConfig {
    AsyncConfig {
        seed,
        ..AsyncConfig::default()
    }
}

fn bench_ranks(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ranks");
    let n = 100usize;
    let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 3).unwrap();
    let net = Network::with_parts(
        g.clone(),
        wakeup_sim::PortAssignment::canonical(&g),
        wakeup_sim::IdAssignment::identity(n),
        wakeup_sim::KnowledgeMode::Kt1,
    );
    let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    // Overlapping tokens: the separating regime for the rank ablation.
    let schedule = WakeSchedule::staggered(&nodes, 2.0);
    let random = AsyncEngine::<DfsRank>::new(&net, async_seed(5)).run(&schedule);
    let id_rank = AsyncEngine::<DfsIdRank>::new(&net, async_seed(5)).run(&schedule);
    eprintln!(
        "ablation_ranks n={n}: random-rank msgs={} | id-rank msgs={} (ordered-wake adversary)",
        random.messages(),
        id_rank.messages()
    );
    group.bench_function(BenchmarkId::from_parameter("random"), |b| {
        b.iter(|| AsyncEngine::<DfsRank>::new(&net, async_seed(5)).run(&schedule))
    });
    group.bench_function(BenchmarkId::from_parameter("id"), |b| {
        b.iter(|| AsyncEngine::<DfsIdRank>::new(&net, async_seed(5)).run(&schedule))
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sampling");
    let n = 96usize;
    let g = generators::complete(n).unwrap();
    let net = Network::kt1(g, 4);
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let schedule = WakeSchedule::all_at_zero(&all);
    let config = SyncConfig {
        seed: 6,
        ..SyncConfig::default()
    };
    macro_rules! probe {
        ($pct:literal) => {{
            type P = FastWakeUpScaled<$pct>;
            let report = SyncEngine::<P>::new(&net, config.clone()).run(&schedule);
            assert!(report.all_awake);
            eprintln!("ablation_sampling pct={}: msgs={}", $pct, report.messages());
            group.bench_function(BenchmarkId::from_parameter($pct), |b| {
                b.iter(|| SyncEngine::<P>::new(&net, config.clone()).run(&schedule))
            });
        }};
    }
    probe!(25);
    probe!(100);
    probe!(400);
    group.finish();
}

fn bench_cen_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cen");
    let n = 300usize;
    let g = generators::star(n).unwrap();
    let net = Network::kt0(g, 7);
    let schedule = WakeSchedule::single(NodeId::new(0));
    let balanced = run_scheme(&CenScheme::rooted_at(NodeId::new(0)), &net, &schedule, 7);
    let chain = run_scheme(
        &CenScheme::rooted_at(NodeId::new(0)).with_chain_siblings(),
        &net,
        &schedule,
        7,
    );
    eprintln!(
        "ablation_cen n={n}: balanced time={:.1} | chain time={:.1} (same {} msgs)",
        balanced.report.metrics.wakeup_time_units().unwrap(),
        chain.report.metrics.wakeup_time_units().unwrap(),
        balanced.report.messages()
    );
    group.bench_function(BenchmarkId::from_parameter("balanced"), |b| {
        b.iter(|| run_scheme(&CenScheme::rooted_at(NodeId::new(0)), &net, &schedule, 7))
    });
    group.bench_function(BenchmarkId::from_parameter("chain"), |b| {
        b.iter(|| {
            run_scheme(
                &CenScheme::rooted_at(NodeId::new(0)).with_chain_siblings(),
                &net,
                &schedule,
                7,
            )
        })
    });
    group.finish();
}

fn bench_congest_dfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_congest");
    let n = 80usize;
    let g = generators::complete(n).unwrap();
    let m = g.m() as u64;
    let net = Network::kt1(g, 9);
    let schedule = WakeSchedule::single(NodeId::new(0));
    let local = AsyncEngine::<DfsRank>::new(&net, async_seed(8)).run(&schedule);
    let congest = AsyncEngine::<DfsCongest>::new(&net, async_seed(8)).run(&schedule);
    eprintln!(
        "ablation_congest K_{n} (m={m}): LOCAL token msgs={} | CONGEST token msgs={}",
        local.messages(),
        congest.messages()
    );
    group.bench_function(BenchmarkId::from_parameter("local"), |b| {
        b.iter(|| AsyncEngine::<DfsRank>::new(&net, async_seed(8)).run(&schedule))
    });
    group.bench_function(BenchmarkId::from_parameter("congest"), |b| {
        b.iter(|| AsyncEngine::<DfsCongest>::new(&net, async_seed(8)).run(&schedule))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    targets = bench_ranks, bench_sampling, bench_cen_layout, bench_congest_dfs
}
criterion_main!(benches);
