//! Prints the measured counterpart of the paper's Table 1.
//!
//! ```text
//! cargo run --release -p wakeup-bench --bin table1 \
//!     [--obs-json <path>] [--obs-prom <path>] [--shards <K>]
//! ```
//!
//! The rows come from the checked-in scenario corpus: every file under
//! `scenarios/table1/` is one row, its `report` block carrying the printed
//! label, the paper's claimed bounds, and the n-sweep sizes. Each cell is
//! the row's spec resized to one sweep size, measured by
//! [`wakeup_bench::run_cell`] — so the spec's graph, protocol, wake
//! schedule, delays and engine block are what runs.
//!
//! Each row reports, for the largest sweep size, the measured time, message
//! count, and advice lengths, next to the paper's claimed bounds; the ratio
//! column (measured messages / claimed shape) should stay roughly flat
//! across the sweep — printed per size below the table.
//!
//! `--obs-json <path>` writes the schema-4 observability snapshot of every
//! measured cell (tick histograms, phase spans, causal critical path,
//! windowed timeline) as a JSON array; the bytes are deterministic for the
//! fixed seeds, at any `WAKEUP_THREADS` setting. `--obs-prom <path>` writes
//! the same snapshots in the Prometheus text exposition format, one block
//! per cell labeled `row`/`n` — equally byte-deterministic (CI diffs it
//! across thread counts).
//!
//! `--shards <K>` sets every cell's `engine.shards` to K intra-run shards.
//! Sharded execution is byte-identical to serial, so the printed table and
//! the `--obs-json` bytes must not change — CI diffs 1 vs 4 shards exactly
//! as it diffs 1 vs 4 sweep threads.

use wakeup_bench::{artifacts, par_sweep, run_cell};
use wakeup_scenario::{corpus, ScenarioSpec, SpecError};

struct Row {
    label: String,
    claim: String,
    sizes: Vec<usize>,
    spec: ScenarioSpec,
}

fn main() {
    let mut obs_json: Option<String> = None;
    let mut obs_prom: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs-json" => {
                obs_json = Some(args.next().expect("--obs-json needs a path"));
            }
            "--obs-prom" => {
                obs_prom = Some(args.next().expect("--obs-prom needs a path"));
            }
            "--shards" => {
                let k = args.next().expect("--shards needs a count");
                shards = Some(k.parse().expect("--shards needs an integer"));
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let rows: Vec<Row> = corpus::table1()
        .expect("load scenarios/table1 corpus")
        .into_iter()
        .map(|(_, mut spec)| {
            if let Some(k) = shards {
                spec.engine.shards = k;
            }
            let report = spec.report.clone().expect("table1 specs carry reports");
            Row {
                label: report.label,
                claim: report.claim,
                sizes: report.sizes,
                spec,
            }
        })
        .collect();

    // Measure every (row, n) cell as one flat parallel batch — par_sweep
    // returns results in input (row-major) order, so the printed table is
    // byte-identical to the sequential run at any WAKEUP_THREADS.
    let cells: Vec<(usize, ScenarioSpec)> = rows
        .iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.sizes
                .iter()
                .map(move |&n| Ok((i, row.spec.at_size(n)?)))
        })
        .collect::<Result<_, SpecError>>()
        .expect("resize table1 rows to their sweep sizes");
    let points = par_sweep(&cells, |(_, cell)| run_cell(artifacts::global(), cell));

    println!("# Measured Table 1 (sparse G(n,p), avg degree ≈ 8; seeds fixed)\n");
    println!(
        "| {:<22} | {:>5} | {:>9} | {:>9} | {:>8} | {:>8} | {:>6} |",
        "row", "n", "messages", "time", "adv max", "adv avg", "ratio"
    );
    println!(
        "|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(24),
        "-".repeat(7),
        "-".repeat(11),
        "-".repeat(11),
        "-".repeat(10),
        "-".repeat(10),
        "-".repeat(8)
    );
    for (&(i, _), p) in cells.iter().zip(&points) {
        println!(
            "| {:<22} | {:>5} | {:>9} | {:>9.1} | {:>8} | {:>8.1} | {:>6.3} |",
            rows[i].label,
            p.n,
            p.messages,
            p.time,
            p.advice_max_bits,
            p.advice_avg_bits,
            p.ratio()
        );
    }
    println!("\nClaimed bounds per row:");
    for row in &rows {
        println!("  {:<22} {}", row.label, row.claim);
    }
    println!("\nratio = measured messages / claimed shape; flat ratios across n confirm the asymptotics.");

    if let Some(path) = obs_json {
        let mut out = String::from("[\n");
        for (k, (&(i, _), p)) in cells.iter().zip(&points).enumerate() {
            out.push_str(&format!(
                "  {{\"row\":\"{}\",\"n\":{},\"snapshot\":{}}}{}\n",
                rows[i].label,
                p.n,
                p.snapshot.to_json(),
                if k + 1 < cells.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(&path, out).expect("write observability snapshots");
        eprintln!("wrote {path}");
    }

    if let Some(path) = obs_prom {
        // One exposition block per cell, separated by `# cell` comment
        // headers (Prometheus scrapers ignore comments; the golden-file
        // diff in CI compares the full bytes).
        let mut out = String::new();
        for (&(i, _), p) in cells.iter().zip(&points) {
            out.push_str(&format!(
                "# cell row={:?} n={}\n{}",
                rows[i].label,
                p.n,
                p.snapshot.to_prometheus()
            ));
        }
        std::fs::write(&path, out).expect("write Prometheus snapshots");
        eprintln!("wrote {path}");
    }
}
