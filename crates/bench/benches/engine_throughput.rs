//! Engine micro-benchmarks: raw events/sec of the discrete-event engines on
//! fixed workloads, bypassing the `harness` decorations (diameter
//! computation etc.) so the numbers isolate queue + dispatch cost.
//!
//! The same workloads back the `engine_perf` binary, which writes the
//! committed `BENCH_engine.json` trajectory file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use wakeup_core::flooding::{FloodAsync, FloodSync};
use wakeup_graph::NodeId;
use wakeup_scenario::run::build_graph;
use wakeup_scenario::GraphSpec;
use wakeup_sim::adversary::WakeSchedule;
use wakeup_sim::{AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    for &n in &[1_000usize, 10_000] {
        let g = build_graph(&GraphSpec::Sparse { n, seed: 7 });
        let net = Network::kt0(g.clone(), 7);
        let schedule = WakeSchedule::single(NodeId::new(0));
        // One flood processes ~2m deliveries + n wakes; report it once so
        // ns/iter converts to events/sec.
        let events = {
            let config = AsyncConfig {
                seed: 7,
                ..AsyncConfig::default()
            };
            let report = AsyncEngine::<FloodAsync>::new(&net, config).run(&schedule);
            assert!(report.all_awake);
            report.messages() + n as u64
        };
        eprintln!("flood_async n={n}: {events} events per run");
        group.bench_with_input(BenchmarkId::new("flood_async", n), &n, |b, _| {
            b.iter(|| {
                let config = AsyncConfig {
                    seed: 7,
                    ..AsyncConfig::default()
                };
                AsyncEngine::<FloodAsync>::new(&net, config).run(&schedule)
            })
        });

        let net1 = Network::kt1(g, 7);
        group.bench_with_input(BenchmarkId::new("flood_sync", n), &n, |b, _| {
            b.iter(|| {
                let config = SyncConfig {
                    seed: 7,
                    ..SyncConfig::default()
                };
                SyncEngine::<FloodSync>::new(&net1, config).run(&schedule)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
