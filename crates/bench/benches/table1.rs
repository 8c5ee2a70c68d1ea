//! Table 1 cells: every `scenarios/table1/` row at each of its
//! `report.sizes`, measured by [`wakeup_bench::run_cell`] exactly as the
//! `table1` binary measures them. Criterion times the full cell (artifacts
//! come from the shared cache after the first call); the measured
//! complexity values print once per cell.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use wakeup_bench::{artifacts, run_cell};
use wakeup_scenario::corpus;

fn bench(c: &mut Criterion) {
    let cache = artifacts::global();
    for (_, row) in corpus::table1().expect("load scenarios/table1 corpus") {
        let report = row.report.clone().expect("table1 specs carry reports");
        let mut group = c.benchmark_group(row.name.clone());
        for &n in &report.sizes {
            let cell = row.at_size(n).expect("resize table1 row");
            let point = run_cell(cache, &cell);
            eprintln!(
                "{} n={n:>4}: messages={:>8} time={:>8.1} advice(max/avg)={}/{:.1} ratio={:.3}",
                row.name,
                point.messages,
                point.time,
                point.advice_max_bits,
                point.advice_avg_bits,
                point.ratio()
            );
            group.bench_with_input(BenchmarkId::from_parameter(n), &cell, |b, cell| {
                b.iter(|| run_cell(cache, cell))
            });
        }
        group.finish();
    }
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
