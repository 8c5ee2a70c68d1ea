//! `graph::algo::center` and `graph::algo::diameter` on the sparse family
//! (avg degree ≈ 8, seed 7): the bit-parallel sweep the advice oracles use
//! to root their BFS trees, timed at n = 512, 2048 and 8192.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use wakeup_graph::algo;
use wakeup_scenario::{run::build_graph, GraphSpec};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_center");
    for &n in &[512usize, 2048, 8192] {
        let g = build_graph(&GraphSpec::Sparse { n, seed: 7 });
        let (radius, center) = algo::center(&g).expect("sparse family is connected");
        let diameter = algo::diameter(&g).expect("sparse family is connected");
        eprintln!("graph_center n={n:>4}: radius={radius} center={center} diameter={diameter}");
        group.bench_with_input(BenchmarkId::new("center", n), &g, |b, g| {
            b.iter(|| algo::center(g))
        });
        group.bench_with_input(BenchmarkId::new("diameter", n), &g, |b, g| {
            b.iter(|| algo::diameter(g))
        });
    }
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
