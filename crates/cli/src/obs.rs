//! The `wakeup obs` subcommand: inspect, diff, and export schema-4
//! observability snapshots.
//!
//! Snapshot files come in three shapes, all accepted by every subcommand:
//!
//! * a bare [`wakeup_sim::ObsSnapshot`] JSON object (`{"schema":4,...}`),
//!   as written by `ObsSnapshot::to_json()` / `to_json_diag()`;
//! * the `table1 --obs-json` array (`[{"row":...,"n":...,"snapshot":{...}}]`);
//! * the `engine_perf --obs-json` array
//!   (`[{"workload":...,"n":...,"snapshot":{...}}]`).
//!
//! `inspect` pretty-prints each snapshot (counters, histograms, critical
//! path, an ASCII timeline sparkline). `diff` compares two files
//! field-by-field: every flattened path must match byte-for-byte except
//! tolerance-class paths (`runtime.*` always, plus `--tolerance` prefixes),
//! and any exact mismatch makes the exit code nonzero. `timeline` dumps the
//! windowed series as CSV or JSONL.

use std::collections::BTreeMap;

use wakeup_scenario::json::{self, Value};

use crate::{err, CliError};

/// Entry point for `wakeup obs <inspect|diff|timeline> ...`.
///
/// # Errors
///
/// Returns a [`CliError`] on usage errors, unreadable/unparseable files, and
/// — for `diff` — on any exact-field mismatch (the CI contract: a nonzero
/// exit is a determinism violation).
pub fn cmd_obs(args: &[String]) -> Result<(), CliError> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| err("obs needs a subcommand: inspect | diff | timeline"))?;
    let (paths, flags) = split_args(rest)?;
    match sub.as_str() {
        "inspect" => {
            crate::only_flags("obs inspect", flags.keys(), &[])?;
            let [path] = paths.as_slice() else {
                return Err(err("usage: wakeup obs inspect <FILE>"));
            };
            print!("{}", render_inspect(&load_snapshots(path)?));
            Ok(())
        }
        "diff" => {
            crate::only_flags("obs diff", flags.keys(), &["tolerance"])?;
            let [a, b] = paths.as_slice() else {
                return Err(err(
                    "usage: wakeup obs diff <A> <B> [--tolerance PATH,PATH]",
                ));
            };
            let tolerance: Vec<String> = flags
                .get("tolerance")
                .map(|t| t.split(',').map(str::to_string).collect())
                .unwrap_or_default();
            let report = diff_values(&load_doc(a)?, &load_doc(b)?, &tolerance);
            print!("{}", report.text);
            if report.exact_mismatches > 0 {
                return Err(err(format!(
                    "{} exact mismatch(es) between {a} and {b}",
                    report.exact_mismatches
                )));
            }
            Ok(())
        }
        "timeline" => {
            crate::only_flags("obs timeline", flags.keys(), &["format"])?;
            let [path] = paths.as_slice() else {
                return Err(err(
                    "usage: wakeup obs timeline <FILE> [--format csv|jsonl]",
                ));
            };
            let format = flags.get("format").map_or("csv", String::as_str);
            if format != "csv" && format != "jsonl" {
                return Err(err(format!(
                    "unknown timeline format {format:?} (try csv or jsonl)"
                )));
            }
            print!("{}", render_timeline(&load_snapshots(path)?, format));
            Ok(())
        }
        other => Err(err(format!(
            "unknown obs subcommand {other:?} (try inspect, diff, timeline)"
        ))),
    }
}

/// Splits raw args into positional paths and `--key value` flags.
fn split_args(args: &[String]) -> Result<(Vec<String>, BTreeMap<String, String>), CliError> {
    let mut paths = Vec::new();
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| err(format!("flag --{key} needs a value")))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    Ok((paths, flags))
}

/// One labeled snapshot extracted from a file.
struct Labeled {
    label: String,
    snapshot: Value,
}

fn load_doc(path: &str) -> Result<Value, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
    json::parse(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Extracts `(label, snapshot)` pairs from any accepted file shape.
fn load_snapshots(path: &str) -> Result<Vec<Labeled>, CliError> {
    let doc = load_doc(path)?;
    match &doc {
        Value::Obj(_) if doc.get("schema").is_some() => Ok(vec![Labeled {
            label: "snapshot".to_string(),
            snapshot: doc,
        }]),
        Value::Arr(entries) => {
            let mut out = Vec::with_capacity(entries.len());
            for (i, entry) in entries.iter().enumerate() {
                let snapshot = entry
                    .get("snapshot")
                    .ok_or_else(|| err(format!("{path}: entry {i} has no \"snapshot\" field")))?;
                let name = ["row", "workload", "protocol"]
                    .iter()
                    .find_map(|k| match entry.get(k) {
                        Some(Value::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| format!("entry {i}"));
                let label = match entry.get("n") {
                    Some(Value::Num(n)) => format!("{name} n={n}"),
                    _ => name,
                };
                out.push(Labeled {
                    label,
                    snapshot: snapshot.clone(),
                });
            }
            Ok(out)
        }
        _ => Err(err(format!(
            "{path}: expected a snapshot object or an array of {{.., \"snapshot\": ..}} entries"
        ))),
    }
}

fn unum(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::Num(x)) => *x as u64,
        _ => 0,
    }
}

fn fnum(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Num(x)) => *x,
        _ => 0.0,
    }
}

/// Renders one scalar the way the canonical writer would, without the
/// trailing newline — the byte form `diff` compares.
fn scalar_text(v: &Value) -> String {
    let mut s = json::canonical(v);
    s.truncate(s.trim_end().len());
    s
}

// ---------------------------------------------------------------- inspect

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Log-scaled sparkline over one value per timeline window.
fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if v == 0 {
                SPARK[0]
            } else {
                // Log scale so the flood peak doesn't flatten the tail.
                let hi = (max as f64).ln().max(1e-9);
                let idx = ((v as f64).ln() / hi * 7.0).round() as usize;
                SPARK[idx.min(7)]
            }
        })
        .collect()
}

fn render_hist(out: &mut String, name: &str, h: &Value) {
    let count = unum(h.get("count"));
    let sum = unum(h.get("sum"));
    let max = unum(h.get("max"));
    let mean = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    };
    out.push_str(&format!(
        "  {name:<13} count {count:>8}  mean {mean:>10.2}  max {max}\n"
    ));
    let Some(Value::Arr(buckets)) = h.get("buckets") else {
        return;
    };
    let peak = buckets
        .iter()
        .map(|b| match b {
            Value::Arr(p) if p.len() == 2 => unum(Some(&p[1])),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
        .max(1);
    for b in buckets {
        let Value::Arr(pair) = b else { continue };
        let (i, c) = (unum(pair.first()), unum(pair.get(1)));
        let bar = "#".repeat(((c as f64 / peak as f64) * 32.0).ceil() as usize);
        out.push_str(&format!(
            "    ≤{:<12} {c:>8} {bar}\n",
            wakeup_sim::Hist64::bucket_hi(i as usize)
        ));
    }
}

fn render_inspect(snapshots: &[Labeled]) -> String {
    let mut out = String::new();
    for l in snapshots {
        let s = &l.snapshot;
        out.push_str(&format!(
            "=== {} (schema {})\n",
            l.label,
            unum(s.get("schema"))
        ));
        out.push_str(&format!(
            "  n {} | messages {} | bits {} | events {} | time {:.3} τ | all awake: {}\n",
            unum(s.get("n")),
            unum(s.get("messages")),
            unum(s.get("bits")),
            unum(s.get("events")),
            fnum(s.get("time_units")),
            matches!(s.get("all_awake"), Some(Value::Bool(true))),
        ));
        out.push_str(&format!(
            "  critical path: {} hops over {:.3} τ\n",
            unum(s.get("crit_hops")),
            fnum(s.get("crit_tau"))
        ));
        for name in ["delay_ticks", "batch_sizes", "wake_latency", "message_bits"] {
            if let Some(h) = s.get(name) {
                render_hist(&mut out, name, h);
            }
        }
        if let Some(tl) = s.get("timeline") {
            let rows = timeline_rows(tl);
            if rows.is_empty() {
                out.push_str("  timeline: (empty)\n");
            } else {
                let events: Vec<u64> = rows.iter().map(|r| r.events).collect();
                let frontier: Vec<u64> = rows.iter().map(|r| r.frontier).collect();
                let in_flight: Vec<u64> = rows.iter().map(|r| r.in_flight).collect();
                out.push_str(&format!(
                    "  timeline ({} mode, {} windows, last window {}):\n",
                    match tl.get("mode") {
                        Some(Value::Str(m)) => m.clone(),
                        _ => "?".to_string(),
                    },
                    rows.len(),
                    rows.last().map_or(0, |r| r.window),
                ));
                out.push_str(&format!("    events    {}\n", sparkline(&events)));
                out.push_str(&format!("    frontier  {}\n", sparkline(&frontier)));
                out.push_str(&format!("    in-flight {}\n", sparkline(&in_flight)));
            }
        }
        if let Some(i) = s.get("internals") {
            out.push_str(&format!(
                "  internals: peak frontier {} | peak in-flight {} | total wakes {}\n",
                unum(i.get("peak_frontier")),
                unum(i.get("peak_in_flight")),
                unum(i.get("total_wakes"))
            ));
        }
        if let Some(r) = s.get("runtime") {
            let fallback = match r.get("shard_fallback") {
                Some(Value::Str(why)) => format!(" ({why})"),
                _ => String::new(),
            };
            out.push_str(&format!(
                "  runtime (diag): shards {} of {} requested{} | wheel max scan {} | \
                 arena high water {} | prefetch batches {} | stall rounds {} | relabeled {} | \
                 run buffers {}\n",
                unum(r.get("shards")),
                unum(r.get("shards_requested")),
                fallback,
                unum(r.get("wheel_max_scan")),
                unum(r.get("arena_high_water")),
                unum(r.get("prefetch_batches")),
                unum(r.get("stall_rounds")),
                matches!(r.get("relabel_applied"), Some(Value::Bool(true))),
                match r.get("run_buffers") {
                    Some(Value::Str(origin)) => origin.as_str(),
                    _ => "?",
                },
            ));
        }
    }
    out
}

// --------------------------------------------------------------- timeline

/// One parsed timeline row (the schema-4 column order).
struct TlRow {
    window: u64,
    start_tick: u64,
    events: u64,
    sends: u64,
    bits: u64,
    delivered: u64,
    wakes: u64,
    frontier: u64,
    in_flight: u64,
}

fn timeline_rows(tl: &Value) -> Vec<TlRow> {
    let Some(Value::Arr(windows)) = tl.get("windows") else {
        return Vec::new();
    };
    windows
        .iter()
        .filter_map(|w| match w {
            Value::Arr(c) if c.len() == 9 => Some(TlRow {
                window: unum(c.first()),
                start_tick: unum(c.get(1)),
                events: unum(c.get(2)),
                sends: unum(c.get(3)),
                bits: unum(c.get(4)),
                delivered: unum(c.get(5)),
                wakes: unum(c.get(6)),
                frontier: unum(c.get(7)),
                in_flight: unum(c.get(8)),
            }),
            _ => None,
        })
        .collect()
}

fn render_timeline(snapshots: &[Labeled], format: &str) -> String {
    let mut out = String::new();
    if format == "csv" {
        out.push_str(
            "label,window,start_tick,events,sends,bits,delivered,wakes,frontier,in_flight\n",
        );
    }
    for l in snapshots {
        let Some(tl) = l.snapshot.get("timeline") else {
            continue;
        };
        for r in timeline_rows(tl) {
            if format == "csv" {
                // Labels are free-form ("row" strings); quote per RFC 4180.
                out.push_str(&format!(
                    "\"{}\",{},{},{},{},{},{},{},{},{}\n",
                    l.label.replace('"', "\"\""),
                    r.window,
                    r.start_tick,
                    r.events,
                    r.sends,
                    r.bits,
                    r.delivered,
                    r.wakes,
                    r.frontier,
                    r.in_flight
                ));
            } else {
                out.push_str(&format!(
                    "{{\"label\":{},\"window\":{},\"start_tick\":{},\"events\":{},\"sends\":{},\
                     \"bits\":{},\"delivered\":{},\"wakes\":{},\"frontier\":{},\"in_flight\":{}}}\n",
                    scalar_text(&Value::Str(l.label.clone())),
                    r.window,
                    r.start_tick,
                    r.events,
                    r.sends,
                    r.bits,
                    r.delivered,
                    r.wakes,
                    r.frontier,
                    r.in_flight
                ));
            }
        }
    }
    out
}

// ------------------------------------------------------------------- diff

/// The outcome of a structural diff.
struct DiffReport {
    text: String,
    exact_mismatches: usize,
    /// Differences absorbed by `--tolerance` / the built-in `runtime.*`
    /// class; already folded into `text`, read directly only by tests.
    #[cfg_attr(not(test), allow(dead_code))]
    tolerated: usize,
}

/// Flattens a document into `path → canonical scalar` entries. Array
/// elements become `path[i]`, object members `path.key`.
fn flatten(v: &Value, path: &str, out: &mut BTreeMap<String, String>) {
    match v {
        Value::Obj(fields) => {
            for (k, x) in fields {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten(x, &p, out);
            }
        }
        Value::Arr(items) => {
            // Record the length so added/removed elements always surface
            // even when the surviving prefix matches.
            out.insert(format!("{path}.#len"), items.len().to_string());
            for (i, x) in items.iter().enumerate() {
                flatten(x, &format!("{path}[{i}]"), out);
            }
        }
        scalar => {
            out.insert(path.to_string(), scalar_text(scalar));
        }
    }
}

/// Whether `path` falls in the tolerance class: `runtime` blocks always do
/// (machine/config-dependent by design), plus any user-supplied prefix
/// matched against the flattened dotted path.
fn is_tolerated(path: &str, tolerance: &[String]) -> bool {
    let in_runtime =
        path.starts_with("runtime.") || path.contains(".runtime.") || path == "runtime";
    in_runtime || tolerance.iter().any(|t| !t.is_empty() && path.contains(t))
}

/// Field-by-field comparison of two parsed documents.
fn diff_values(a: &Value, b: &Value, tolerance: &[String]) -> DiffReport {
    let (mut fa, mut fb) = (BTreeMap::new(), BTreeMap::new());
    flatten(a, "", &mut fa);
    flatten(b, "", &mut fb);
    let mut text = String::new();
    let (mut exact, mut tolerated) = (0usize, 0usize);
    let mut keys: Vec<&String> = fa.keys().collect();
    keys.extend(fb.keys().filter(|k| !fa.contains_key(*k)));
    keys.sort();
    for key in keys {
        let (va, vb) = (fa.get(key), fb.get(key));
        if va == vb {
            continue;
        }
        let class = if is_tolerated(key, tolerance) {
            tolerated += 1;
            "tolerated"
        } else {
            exact += 1;
            "MISMATCH"
        };
        let show = |v: Option<&String>| v.map_or("<absent>".to_string(), Clone::clone);
        text.push_str(&format!("{class:<9} {key}: {} != {}\n", show(va), show(vb)));
    }
    text.push_str(&format!(
        "{exact} exact mismatch(es), {tolerated} tolerated difference(s)\n"
    ));
    DiffReport {
        text,
        exact_mismatches: exact,
        tolerated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        json::parse(s).unwrap()
    }

    #[test]
    fn diff_is_clean_on_identical_documents() {
        let v = parse(r#"{"schema":4,"n":2,"timeline":{"windows":[[0,0,1,1,8,0,0,0,1]]}}"#);
        let r = diff_values(&v, &v, &[]);
        assert_eq!(r.exact_mismatches, 0);
        assert_eq!(r.tolerated, 0);
    }

    #[test]
    fn diff_flags_exact_mismatches_but_tolerates_runtime() {
        let a = parse(r#"{"schema":4,"events":5,"runtime":{"shards":1,"wheel_max_scan":0}}"#);
        let b = parse(r#"{"schema":4,"events":6,"runtime":{"shards":4,"wheel_max_scan":9}}"#);
        let r = diff_values(&a, &b, &[]);
        assert_eq!(r.exact_mismatches, 1, "{}", r.text);
        assert_eq!(r.tolerated, 2, "{}", r.text);
        assert!(r.text.contains("MISMATCH  events: 5 != 6"));
    }

    #[test]
    fn diff_surfaces_added_and_missing_fields() {
        let a = parse(r#"{"schema":4,"phases":[{"label":"a"}]}"#);
        let b = parse(r#"{"schema":4,"phases":[{"label":"a"},{"label":"b"}],"extra":1}"#);
        let r = diff_values(&a, &b, &[]);
        assert!(r.exact_mismatches >= 3, "{}", r.text);
        assert!(r.text.contains("phases.#len: 1 != 2"));
        assert!(r.text.contains("extra: <absent> != 1"));
    }

    #[test]
    fn user_tolerance_prefixes_downgrade_mismatches() {
        let a = parse(r#"{"time_units":1.5,"events":5}"#);
        let b = parse(r#"{"time_units":2.5,"events":5}"#);
        let strict = diff_values(&a, &b, &[]);
        assert_eq!(strict.exact_mismatches, 1);
        let lax = diff_values(&a, &b, &["time_units".to_string()]);
        assert_eq!(lax.exact_mismatches, 0);
        assert_eq!(lax.tolerated, 1);
    }

    #[test]
    fn snapshot_array_entries_get_labels() {
        let doc = r#"[{"row":"flooding","n":64,"snapshot":{"schema":4}}]"#;
        std::fs::write("/tmp/wakeup_obs_cli_test.json", doc).unwrap();
        let snaps = load_snapshots("/tmp/wakeup_obs_cli_test.json").unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].label, "flooding n=64");
        assert_eq!(unum(snaps[0].snapshot.get("schema")), 4);
    }

    #[test]
    fn timeline_renders_csv_and_jsonl() {
        let snaps = vec![Labeled {
            label: "x".to_string(),
            snapshot: parse(
                r#"{"schema":4,"timeline":{"mode":"log2","width":0,
                    "windows":[[0,0,2,1,8,1,1,1,0],[3,7,4,0,0,4,0,1,0]]}}"#,
            ),
        }];
        let csv = render_timeline(&snaps, "csv");
        assert!(csv.starts_with("label,window,start_tick"));
        assert!(csv.contains("\"x\",0,0,2,1,8,1,1,1,0\n"));
        assert!(csv.contains("\"x\",3,7,4,0,0,4,0,1,0\n"));
        let jsonl = render_timeline(&snaps, "jsonl");
        assert!(jsonl.contains("{\"label\":\"x\",\"window\":3,\"start_tick\":7,\"events\":4,"));
    }

    #[test]
    fn inspect_renders_sparkline_and_internals() {
        let snaps = vec![Labeled {
            label: "flood".to_string(),
            snapshot: parse(
                r#"{"schema":4,"n":8,"messages":14,"bits":14,"events":22,
                    "time_units":7.0,"all_awake":true,"crit_hops":7,"crit_tau":7.0,
                    "delay_ticks":{"count":14,"sum":14336,"max":1024,"buckets":[[11,14]]},
                    "timeline":{"mode":"log2","width":0,
                      "windows":[[0,0,1,2,2,0,1,1,2],[10,1023,21,12,12,14,7,8,0]]},
                    "internals":{"windows":2,"last_window":10,"peak_frontier":8,
                      "peak_in_flight":2,"total_wakes":8}}"#,
            ),
        }];
        let text = render_inspect(&snaps);
        assert!(text.contains("=== flood (schema 4)"));
        assert!(text.contains("critical path: 7 hops over 7.000 τ"));
        assert!(text.contains("timeline (log2 mode, 2 windows, last window 10)"));
        assert!(text.contains("peak frontier 8"));
        // Two windows → two sparkline cells per series.
        for series in ["events", "frontier", "in-flight"] {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(series))
                .unwrap();
            assert_eq!(line.chars().filter(|c| SPARK.contains(c)).count(), 2);
        }
    }

    #[test]
    fn inspect_prints_the_executor_decision() {
        let snaps = vec![Labeled {
            label: "audited".to_string(),
            snapshot: parse(
                r#"{"schema":4,"events":5,"runtime":{"shards":1,"shard_events":[5],
                    "shard_sends":[4],"wheel_max_scan":1024,"arena_high_water":3,
                    "prefetch_batches":4,"stall_rounds":0,"relabel_applied":false,
                    "shards_requested":4,"shard_fallback":"audit"}}"#,
            ),
        }];
        let text = render_inspect(&snaps);
        assert!(text.contains("runtime (diag): shards 1 of 4 requested (audit) |"));
    }

    #[test]
    fn subcommands_reject_flags_they_do_not_take() {
        let args =
            |line: &str| -> Vec<String> { line.split_whitespace().map(String::from).collect() };
        for (line, flag) in [
            ("inspect a.json --format csv", "--format"),
            ("diff a.json b.json --format csv", "--format"),
            ("timeline a.json --tolerance runtime", "--tolerance"),
        ] {
            let e = cmd_obs(&args(line)).unwrap_err().0;
            assert!(e.contains(&format!("does not take {flag}")), "{line}: {e}");
        }
    }

    #[test]
    fn inspect_prints_the_run_storage_decision() {
        let snaps = vec![Labeled {
            label: "second run".to_string(),
            snapshot: parse(
                r#"{"schema":4,"events":5,"runtime":{"shards":1,"shard_events":[5],
                    "shard_sends":[4],"wheel_max_scan":1024,"arena_high_water":3,
                    "prefetch_batches":4,"stall_rounds":0,"relabel_applied":false,
                    "run_buffers":"reused","shards_requested":1,"shard_fallback":null}}"#,
            ),
        }];
        let text = render_inspect(&snaps);
        assert!(text.contains("| relabeled false | run buffers reused\n"));
    }

    #[test]
    fn sparkline_is_log_scaled_and_total_on_empty() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[1, 10, 100, 1000]);
        let cells: Vec<char> = s.chars().collect();
        assert_eq!(cells.len(), 4);
        assert_eq!(*cells.last().unwrap(), SPARK[7]);
        assert!(cells.windows(2).all(|w| w[0] <= w[1]));
    }
}
