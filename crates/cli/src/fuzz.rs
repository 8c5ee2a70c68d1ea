//! The `wakeup fuzz` and `wakeup run --scenario` subcommands.
//!
//! ```text
//! wakeup fuzz [--seed N] [--count K] [--out-dir DIR]
//! wakeup run --scenario scenarios/table1/01-flooding.json
//! ```
//!
//! `fuzz` draws `K` random valid scenario specs from the
//! seeded-deterministic generator ([`wakeup_scenario::gen::SpecGen`] — the
//! same seed always yields the same spec stream) and feeds each through the
//! full conformance battery: invariant audits, batched-vs-per-message,
//! reset-vs-fresh, sharded-vs-serial, and lockstep-vs-sync where eligible.
//! A failing spec is greedily minimized and written to `--out-dir` along
//! with the original spec and every differential trace the failing checks
//! produced, then the command exits nonzero.
//!
//! `run --scenario` executes one checked-in (or fuzz-emitted) spec file and
//! prints the usual run summary.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use wakeup_scenario::conformance::{self, CheckReport};
use wakeup_scenario::gen::SpecGen;
use wakeup_scenario::{corpus, run as scenario_run, ScenarioSpec};

use crate::{CliError, Summary};

fn write_artifact(path: &Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError(format!("write {}: {e}", path.display())))
}

/// Runs `wakeup fuzz`: `--count` generated specs from `--seed`, each
/// through the conformance battery, minimized failing specs dumped under
/// `--out-dir`.
///
/// # Errors
///
/// Returns a [`CliError`] for malformed flags, artifact-write failures, or
/// (after writing the artifacts) when any spec fails its battery.
pub fn cmd_fuzz(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let seed: u64 = flags.get("seed").map_or(Ok(1), |s| {
        s.parse()
            .map_err(|_| CliError(format!("invalid seed {s:?}")))
    })?;
    let count: u64 = flags.get("count").map_or(Ok(50), |s| {
        s.parse()
            .map_err(|_| CliError(format!("invalid count {s:?}")))
    })?;
    let out_dir: PathBuf = flags
        .get("out-dir")
        .map_or_else(|| PathBuf::from("target/fuzz"), PathBuf::from);

    let gen = SpecGen::new(seed);
    let mut failing = 0u64;
    for i in 0..count {
        let spec = gen.spec(i);
        let reports = conformance::run_battery(&spec);
        let failed: Vec<&CheckReport> = reports.iter().filter(|r| !r.passed).collect();
        if failed.is_empty() {
            println!("ok   {i:>4}  {}  ({} checks)", spec.name, reports.len());
            continue;
        }
        failing += 1;
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| CliError(format!("create {}: {e}", out_dir.display())))?;
        let orig = out_dir.join(format!("fail-{i}.json"));
        write_artifact(&orig, &spec.to_canonical_json())?;
        let minimized = conformance::minimize(&spec);
        let min_path = out_dir.join(format!("fail-{i}.min.json"));
        write_artifact(&min_path, &minimized.to_canonical_json())?;
        for check in &failed {
            eprintln!(
                "FAIL {i:>4}  {}  {}: {}",
                spec.name, check.name, check.detail
            );
            for (tag, jsonl) in &check.artifacts {
                let trace = out_dir.join(format!("fail-{i}.{}.{tag}.jsonl", check.name));
                write_artifact(&trace, jsonl)?;
                eprintln!("           trace: {}", trace.display());
            }
        }
        eprintln!(
            "           spec: {}  minimized: {}",
            orig.display(),
            min_path.display()
        );
    }
    println!("fuzz: seed {seed}, {count} specs, {failing} failing");
    if failing > 0 {
        Err(CliError(format!(
            "{failing} of {count} fuzzed specs failed conformance (artifacts in {})",
            out_dir.display()
        )))
    } else {
        Ok(())
    }
}

/// Runs `wakeup run --scenario <file>`: loads and validates the spec,
/// executes it, and prints the standard run summary.
///
/// # Errors
///
/// Returns a [`CliError`] if the file does not parse or validate.
pub fn cmd_run_scenario(path: &str) -> Result<(), CliError> {
    let spec = corpus::load_file(Path::new(path))
        .map_err(|e| CliError(format!("scenario {path:?}: {e}")))?;
    println!("scenario  : {} ({path})", spec.name);
    print!("{}", scenario_summary(&spec));
    Ok(())
}

/// Runs a validated spec and summarizes it exactly as `wakeup run --algo`
/// summarizes its runs.
pub(crate) fn scenario_summary(spec: &ScenarioSpec) -> Summary {
    let net = scenario_run::build_network(spec);
    let run = scenario_run::run_spec_on(spec, &net);
    Summary::new(
        spec.protocol,
        &net,
        &scenario_run::build_schedule(spec),
        &run,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn fuzz_smoke_passes_and_leaves_no_artifacts() {
        let dir = std::env::temp_dir().join("wakeup-cli-fuzz-smoke");
        std::fs::remove_dir_all(&dir).ok();
        cmd_fuzz(&flags(&[
            ("seed", "1"),
            ("count", "3"),
            ("out-dir", dir.to_str().unwrap()),
        ]))
        .unwrap();
        // No failures → the out dir is never created.
        assert!(!dir.exists());
    }

    #[test]
    fn fuzz_rejects_bad_flags() {
        assert!(cmd_fuzz(&flags(&[("seed", "bog")])).is_err());
        assert!(cmd_fuzz(&flags(&[("count", "-3")])).is_err());
    }

    #[test]
    fn run_scenario_executes_a_corpus_file() {
        let path = wakeup_scenario::corpus::dir().join("table1/01-flooding.json");
        cmd_run_scenario(path.to_str().unwrap()).unwrap();
        assert!(cmd_run_scenario("/nonexistent/spec.json").is_err());
    }
}
