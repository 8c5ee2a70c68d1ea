//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flood|table1> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it record the build and machine, the
//! digest of the generated input, and the median and tail of the unit
//! times. A traced run
//! also writes its spans as JSON lines under `.bench_build/perfbench/`.
//! See `perfbench/README.md` for the workloads, metrics and bounds.

mod checks;
mod inputs;
mod machine;
mod report;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

/// Scratch directory for the traced run's span file and the store leg,
/// relative to the repository root the benchmark runs from.
pub const SCRATCH_DIR: &str = ".bench_build/perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(path: &std::path::Path, tracer: &spans::Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(SCRATCH_DIR)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(&mut file)?;
    file.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let refused = machine::refused_env(|v| std::env::var_os(v).map(|s| s.to_string_lossy().into()));
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the library reads it deep inside and it \
             changes what is measured",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }

    let mut tracer = spans::Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "flood" => Ok(workloads::flood(args.seed, args.seconds, &mut tracer)),
        "table1" => workloads::table1(args.seed, args.seconds, &mut tracer),
        other => Err(format!("unknown workload {other} (flood, table1)")),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let peak_rss_mb = machine::peak_rss_mb();

    println!("{{\"meta\":{}}}", machine::meta_json());
    println!(
        "{{\"input\":{{\"workload\":\"{}\",\"seed\":{},\"specs\":{},\"digest\":\"{:016x}\"}}}}",
        args.workload, args.seed, out.input_specs, out.input_digest
    );
    let metrics = if args.trace {
        let spans = tracer.spans();
        let path = std::path::Path::new(SCRATCH_DIR)
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match write_spans(&path, &tracer) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        for kind in ["setup", "unit", "leg"] {
            let layers = report::layer_self_times(spans, kind);
            if !layers.is_empty() {
                eprintln!("self time per {kind} (median over traced {kind}s):");
                for (layer, secs) in layers {
                    eprintln!("  {layer:<12} {:>12.6} ms", secs * 1e3);
                }
            }
        }
        report::per_layer(&out, spans)
    } else {
        eprintln!("{}", report::spread_line(&out));
        println!("{}", report::distribution_json(&out));
        report::end_to_end(&out, peak_rss_mb)
    };
    println!("{}", report::result_json(&out, &metrics));
    ExitCode::SUCCESS
}
