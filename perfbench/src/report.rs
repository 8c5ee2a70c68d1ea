//! Turns a workload's samples and spans into the printed metrics.

use std::collections::BTreeMap;

use crate::spans::{self_times_ns, Span};
use crate::stats::{median, tail};
use crate::workloads::Outcome;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The end-to-end metrics of an untraced run.
///
/// Unit times are reported as the run's fastest unit: on a shared host
/// that runs in slow phases lasting minutes, a unit's time only ever
/// grows with the neighbours' load, and the fastest of many units moved
/// least between runs of the same code (see `perfbench/README.md`).
pub fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let fastest = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let peak = |samples: &[f64]| samples.iter().copied().fold(0.0, f64::max);
    vec![
        metric("wall_min_s", fastest(&out.wall), "s"),
        metric("peak_events_per_s", peak(&out.events_per_s), "events/s"),
        metric("setup_s", median(&out.setup), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The line printed before an untraced result: the median and tail of the
/// same unit times and the median events per second, with their units, the
/// tail's percentile and the rep counts. They move with the host's load as
/// much as with the program, so they are printed but not gated.
pub fn distribution_json(out: &Outcome) -> String {
    let tail = tail(&out.wall).expect("every run makes more units than the tail needs");
    let value = |v: f64, unit: &str| format!("{{\"value\":{},\"unit\":\"{unit}\"}}", number(v));
    format!(
        "{{\"distribution\":{{\"reps\":{},\"percentile\":{},\"beyond\":{},\"wall_s\":{},\
         \"wall_tail_s\":{},\"events_per_s\":{}}}}}",
        tail.samples,
        tail.percentile,
        tail.beyond,
        value(median(&out.wall), "s"),
        value(tail.value, "s"),
        value(median(&out.events_per_s), "events/s")
    )
}

/// The spread of a run's unit and set-up times, for reading a run's
/// steadiness by eye: sample count and the 10th, 50th and 90th percentiles.
pub fn spread_line(out: &Outcome) -> String {
    let describe = |samples: &[f64]| {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize] * 1e3;
        format!(
            "n={} p10={:.3}ms p50={:.3}ms p90={:.3}ms",
            s.len(),
            at(0.1),
            at(0.5),
            at(0.9)
        )
    };
    format!(
        "perfbench: units {}; set-ups {}",
        describe(&out.wall),
        describe(&out.setup)
    )
}

/// Per repetition (kind, id): the summed self time of each span name.
type RepTimes = BTreeMap<(&'static str, u32), BTreeMap<&'static str, u64>>;

fn rep_times(spans: &[Span]) -> RepTimes {
    let mut reps = RepTimes::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *reps
            .entry((s.kind, s.rep))
            .or_default()
            .entry(s.name)
            .or_default() += self_ns;
    }
    reps
}

/// Median over the repetitions containing `name` of its summed self time,
/// in seconds.
fn span_s(reps: &RepTimes, name: &str) -> f64 {
    let samples: Vec<f64> = reps
        .values()
        .filter_map(|names| names.get(name))
        .map(|&ns| ns as f64 * 1e-9)
        .collect();
    median_or_zero(&samples)
}

/// Warm engine construction and table-build time. A repetition that timed
/// a warm twin beside its first (cold) construction yields both: the twin
/// is the construction, the difference is the lazy table build. Elsewhere
/// every construction is warm.
fn engine_and_tables_s(reps: &RepTimes) -> (f64, f64) {
    let (mut build, mut tables) = (Vec::new(), Vec::new());
    for names in reps.values() {
        let Some(&new) = names.get("engine.new") else {
            continue;
        };
        match names.get("trace.engine_new_warm") {
            Some(&warm) => {
                build.push(warm as f64 * 1e-9);
                tables.push((new as f64 - warm as f64) * 1e-9);
            }
            None => build.push(new as f64 * 1e-9),
        }
    }
    (median_or_zero(&build), median_or_zero(&tables))
}

/// The per-layer metrics of a traced run.
pub fn per_layer(out: &Outcome, spans: &[Span]) -> Vec<Metric> {
    let reps = rep_times(spans);
    let c = &out.counts;
    let (engine_build, tables) = engine_and_tables_s(&reps);
    let serial = median_or_zero(&out.shard_serial);
    let sharded = median_or_zero(&out.shard_run);
    let mean_batch = if c.batch_count > 0 {
        c.batch_sum as f64 / c.batch_count as f64
    } else {
        0.0
    };
    vec![
        metric("scenario.parse_s", span_s(&reps, "scenario.parse"), "s"),
        metric("scenario.specs", c.specs as f64, "count"),
        metric("graph.build_s", span_s(&reps, "graph.build"), "s"),
        metric("graph.edges", c.edges as f64, "count"),
        metric("network.build_s", span_s(&reps, "network.build"), "s"),
        metric("network.tables_s", tables, "s"),
        metric("mem.setup_mb", c.mem_setup_mb, "MiB"),
        metric("advice.busy_s", span_s(&reps, "advice.busy"), "s"),
        metric("advice.bits", c.advice_bits as f64, "bits"),
        metric("advice.max_bits", c.advice_max_bits as f64, "bits"),
        metric("engine.build_s", engine_build, "s"),
        metric("engine.async_run_s", span_s(&reps, "engine.async_run"), "s"),
        metric("engine.sync_run_s", span_s(&reps, "engine.sync_run"), "s"),
        metric("engine.events", c.events as f64, "count"),
        metric("engine.messages", c.messages as f64, "count"),
        metric("engine.bits", c.bits as f64, "bits"),
        metric("engine.mean_batch", mean_batch, "msgs/batch"),
        metric("engine.wheel_max_scan", c.wheel_max_scan as f64, "ticks"),
        metric(
            "engine.arena_high_water",
            c.arena_high_water as f64,
            "slots",
        ),
        metric(
            "engine.prefetch_batches",
            c.prefetch_batches as f64,
            "count",
        ),
        metric("obs.snapshot_s", span_s(&reps, "obs.snapshot"), "s"),
        metric("obs.export_s", span_s(&reps, "obs.export"), "s"),
        metric("obs.json_bytes", c.json_bytes as f64, "bytes"),
        metric(
            "conformance.battery_s",
            span_s(&reps, "conformance.battery"),
            "s",
        ),
        metric("conformance.checks", c.checks as f64, "count"),
        metric("conformance.checks_failed", c.checks_failed as f64, "count"),
        metric("shard.run_s", sharded, "s"),
        metric(
            "shard.speedup",
            if sharded > 0.0 { serial / sharded } else { 0.0 },
            "x",
        ),
        metric("shard.stall_rounds", c.shard_stall_rounds as f64, "count"),
        metric("shard.imbalance", c.shard_imbalance, "ratio"),
        metric("store.write_s", median_or_zero(&out.store_write), "s"),
        metric("store.read_s", median_or_zero(&out.store_read), "s"),
        metric("store.bytes", c.store_bytes as f64, "bytes"),
        metric(
            "trace.overhead_s",
            median_or_zero(&out.traced_wall) - median_or_zero(&out.wall),
            "s",
        ),
    ]
}

/// Each layer's self time per repetition of one kind (median over those
/// repetitions of the layer's summed self time), in seconds.
pub fn layer_self_times(spans: &[Span], kind: &str) -> Vec<(&'static str, f64)> {
    let mut per_rep: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if s.kind == kind {
            *per_rep
                .entry(s.rep)
                .or_default()
                .entry(s.layer())
                .or_default() += self_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for names in per_rep.values() {
        for (&layer, &ns) in names {
            layers.entry(layer).or_default().push(ns as f64 * 1e-9);
        }
    }
    layers
        .into_iter()
        .map(|(layer, samples)| (layer, median(&samples)))
        .collect()
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        out.attempted,
        out.failed,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        rep: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
            kind: "unit",
        }
    }

    #[test]
    fn layer_self_time_is_the_median_over_reps() {
        let spans = vec![
            span("bench.unit", 0, 100, None, 0),
            span("engine.async_run", 10, 70, Some(0), 0),
            span("bench.unit", 100, 200, None, 1),
            span("engine.async_run", 110, 190, Some(2), 1),
            span("bench.unit", 200, 300, None, 2),
            span("engine.async_run", 200, 250, Some(4), 2),
        ];
        let layers: Vec<(&str, u64)> = layer_self_times(&spans, "unit")
            .into_iter()
            .map(|(layer, secs)| (layer, (secs * 1e9).round() as u64))
            .collect();
        // bench self: 40, 20, 50 → 40; engine: 60, 80, 50 → 60.
        assert_eq!(layers, vec![("bench", 40), ("engine", 60)]);
    }

    #[test]
    fn warm_twin_splits_tables_from_construction() {
        let spans = vec![
            span("bench.unit", 0, 100, None, 0),
            span("engine.new", 0, 30, Some(0), 0),
            span("trace.attribution", 30, 40, Some(0), 0),
            span("trace.engine_new_warm", 30, 40, Some(2), 0),
            span("bench.unit", 100, 200, None, 1),
            span("engine.new", 100, 112, Some(4), 1),
        ];
        let reps = rep_times(&spans);
        let (build, tables) = engine_and_tables_s(&reps);
        // Rep 0: warm twin 10 → build 10, tables 30 − 10; rep 1: warm 12.
        assert!((build - 11e-9).abs() < 1e-15);
        assert!((tables - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn end_to_end_reports_the_fastest_rep_and_the_median_set_up() {
        let out = Outcome {
            wall: vec![0.3, 0.1, 0.2],
            events_per_s: vec![10.0, 30.0, 15.0],
            setup: vec![5.0, 1.0, 2.0, 4.0],
            ..Outcome::default()
        };
        let values: Vec<(&str, f64)> = end_to_end(&out, 12.5)
            .iter()
            .map(|m| (m.name, m.value))
            .collect();
        assert_eq!(
            values,
            vec![
                ("wall_min_s", 0.1),
                ("peak_events_per_s", 30.0),
                ("setup_s", 3.0),
                ("peak_rss_mb", 12.5)
            ]
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_json(&out, &[metric("wall_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        out.failed = 1;
        assert!(result_json(&out, &[]).starts_with("{\"correct\":false"));
    }
}
