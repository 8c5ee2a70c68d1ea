//! Set-up as every scenario pays it, on the connected sparse family at
//! n = 2¹⁴ (G(n, 8/n) plus its component patches, the `flood` workload's
//! graph) and the complete graph on 192 nodes (the largest KT1 Table 1
//! cell):
//!
//! * `graph_build`: the graph alone; both generators feed `GraphBuilder`
//!   their edges in canonical order. `sparse/512` (the largest sparse
//!   Table 1 size) times the per-pair Bernoulli sampler, `sparse/16384`
//!   the geometric skip sampler;
//! * `network_build`: `Network::kt0`/`Network::kt1` on a built graph plus
//!   the first engine construction, which derives the engine tables cold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;
use wakeup_core::flooding::FloodAsync;
use wakeup_graph::{generators, Graph};
use wakeup_scenario::{run::build_graph, GraphSpec};
use wakeup_sim::{AsyncConfig, AsyncEngine, Network};

/// Builds the network and its first engine, so the engine tables are
/// derived from scratch.
fn network_cold(graph: &Graph, kt1: bool) -> AsyncEngine<'static, FloodAsync> {
    let net = if kt1 {
        Network::kt1(graph.clone(), 7)
    } else {
        Network::kt0(graph.clone(), 7)
    };
    AsyncEngine::new_shared(Arc::new(net), AsyncConfig::default())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    let sparse = GraphSpec::Sparse {
        n: 1 << 14,
        seed: 7,
    };
    let g = build_graph(&sparse);
    eprintln!("graph_build sparse n={}: m={}", g.n(), g.m());
    let table1_sparse = GraphSpec::Sparse { n: 512, seed: 7 };
    group.bench_function("sparse/512", |b| b.iter(|| build_graph(&table1_sparse)));
    group.bench_function("sparse/16384", |b| b.iter(|| build_graph(&sparse)));
    group.bench_function("complete/192", |b| {
        b.iter(|| generators::complete(192).expect("complete(192) is valid"))
    });
    group.finish();

    let mut group = c.benchmark_group("network_build");
    let complete = generators::complete(192).expect("complete(192) is valid");
    group.bench_function("kt0/sparse/16384", |b| b.iter(|| network_cold(&g, false)));
    group.bench_function("kt1/sparse/16384", |b| b.iter(|| network_cold(&g, true)));
    group.bench_function("kt1/complete/192", |b| {
        b.iter(|| network_cold(&complete, true))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
