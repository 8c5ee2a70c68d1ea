//! Graph construction as every scenario pays it: the connected sparse
//! family at n = 2¹⁴ (G(n, 8/n) plus its component patches, the `flood`
//! workload's graph) and the complete graph on 192 nodes, both of which
//! feed `GraphBuilder` their edges in canonical order.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use wakeup_graph::generators;
use wakeup_scenario::{run::build_graph, GraphSpec};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    let sparse = GraphSpec::Sparse {
        n: 1 << 14,
        seed: 7,
    };
    let g = build_graph(&sparse);
    eprintln!("graph_build sparse n={}: m={}", g.n(), g.m());
    group.bench_function("sparse/16384", |b| b.iter(|| build_graph(&sparse)));
    group.bench_function("complete/192", |b| {
        b.iter(|| generators::complete(192).expect("complete(192) is valid"))
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
