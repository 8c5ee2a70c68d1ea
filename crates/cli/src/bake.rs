//! The `wakeup bake` subcommand: pre-build the benchmark artifact corpus
//! into a persistent on-disk store.
//!
//! ```text
//! wakeup bake [--dir DIR] [--n 512,20000] [--seed N] [--verify] [--stats]
//! wakeup bake [--dir DIR] --scenario scenarios/table1/04-cor1.json [--verify]
//! ```
//!
//! For every requested size the corpus covers each network the Table 1
//! cells and `engine_perf` load — `Sparse/KT0`, `Sparse/KT1`, and
//! `Complete/KT1` up to `MAX_COMPLETE_BAKE_N` (192) nodes — plus the advice
//! bitstrings of the Table 1 oracle schemes (BFS tree, threshold, CEN,
//! spanner `k ∈ {2, 3}`, spanner `k = ⌈log₂ n⌉`), all computed on the
//! Sparse/KT0 network exactly as `wakeup_bench::run_cell` does.
//! Baking is idempotent: a checksum-clean file for the same key is left
//! untouched, so re-running `bake` after a format or parameter change
//! rewrites only the stale artifacts.
//!
//! `--scenario FILE` bakes exactly the artifacts one scenario spec needs —
//! its network and, for advice-scheme protocols, its oracle advice — using
//! the same key derivation ([`wakeup_bench::spec_artifact_keys`])
//! [`wakeup_bench::run_cell`] resolves at run time, so a baked store is hit
//! (never silently missed) by the spec that requested it.
//!
//! `--verify` additionally re-reads every baked file and compares it
//! byte-for-byte (header, section table, checksums, payloads) against a
//! from-scratch cold rebuild, then prints the store-status line.
//! `--stats` prints each network's mean neighbor-id distance under the
//! adversary's labels and under the baked RCM relabeling — the engines'
//! cache-locality win at a glance.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use wakeup_bench::artifacts::{
    build_advice, AdviceKey, ArtifactCache, GraphFamily, NetworkKey, SchemeId,
};
use wakeup_sim::KnowledgeMode;

use crate::CliError;

/// Largest node count at which the corpus bakes the complete family: the
/// largest complete graph a committed workload loads (Table 1's Theorem 4
/// row sweeps to 192; `engine_perf`'s `fast_wakeup_sync` uses 128).
/// `complete(n)` has n(n−1)/2 edges, so at the sparse sizes (n = 20 000)
/// it would take about 16 GB to build.
const MAX_COMPLETE_BAKE_N: usize = 192;

/// The network keys and advice keys baked for one `(n, seed)` cell.
fn corpus(n: usize, seed: u64) -> (Vec<NetworkKey>, Vec<AdviceKey>) {
    let sparse_kt0 = NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed,
        mode: KnowledgeMode::Kt0,
    };
    let mut networks = vec![
        sparse_kt0,
        NetworkKey {
            mode: KnowledgeMode::Kt1,
            ..sparse_kt0
        },
    ];
    if n <= MAX_COMPLETE_BAKE_N {
        networks.push(NetworkKey {
            family: GraphFamily::Complete,
            mode: KnowledgeMode::Kt1,
            ..sparse_kt0
        });
    }
    let advice = [
        SchemeId::BfsTree,
        SchemeId::Threshold,
        SchemeId::Cen,
        SchemeId::Spanner(2),
        SchemeId::Spanner(3),
        SchemeId::SpannerLog,
    ]
    .into_iter()
    .map(|scheme| AdviceKey {
        net: sparse_kt0,
        scheme,
    })
    .collect();
    (networks, advice)
}

fn parse_sizes(spec: &str) -> Result<Vec<usize>, CliError> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .replace('_', "")
                .parse()
                .map_err(|_| CliError(format!("invalid size {s:?}")))
        })
        .collect()
}

/// Runs `wakeup bake`. `verify` and `stats` are the pre-extracted
/// valueless flags (the shared flag parser only understands `--key value`
/// pairs): `--verify` re-reads and byte-compares every baked file,
/// `--stats` prints each network's mean neighbor-id distance before and
/// after the bake-time locality relabeling.
pub fn cmd_bake(
    flags: &HashMap<String, String>,
    verify: bool,
    stats: bool,
) -> Result<(), CliError> {
    let dir: PathBuf = match flags.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::var_os("WAKEUP_STORE")
            .map(PathBuf::from)
            .ok_or_else(|| CliError("bake needs --dir or the WAKEUP_STORE variable".into()))?,
    };
    let sizes = parse_sizes(flags.get("n").map_or("512", String::as_str))?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| {
        s.parse()
            .map_err(|_| CliError(format!("invalid seed {s:?}")))
    })?;
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError(format!("create {}: {e}", dir.display())))?;

    let cache = ArtifactCache::with_store(&dir);

    if let Some(path) = flags.get("scenario") {
        return bake_scenario(&cache, &dir, path, verify);
    }

    let mut written = 0u64;
    let mut kept = 0u64;
    let mut total_bytes = 0u64;
    let mut report = |label: &str, outcome: wakeup_bench::artifacts::BakeOutcome| {
        println!(
            "{:<10} {:>12} B  {}",
            if outcome.written {
                "baked"
            } else {
                "up-to-date"
            },
            outcome.bytes,
            label
        );
        if outcome.written {
            written += 1;
        } else {
            kept += 1;
        }
        total_bytes += outcome.bytes;
    };
    for &n in &sizes {
        let (networks, advice) = corpus(n, seed);
        for key in networks {
            let outcome = cache
                .bake_network(key)
                .map_err(|e| CliError(format!("bake {}: {e}", key.store_file_name())))?;
            report(&key.store_file_name(), outcome);
        }
        for key in advice {
            let net = cache.network(key.net);
            let outcome = cache
                .bake_advice(key, || build_advice(key.scheme, &net))
                .map_err(|e| CliError(format!("bake {}: {e}", key.store_file_name())))?;
            report(&key.store_file_name(), outcome);
        }
    }
    println!(
        "{written} baked, {kept} up-to-date, {total_bytes} bytes in {}",
        dir.display()
    );

    if stats {
        // Locality figures for the baked networks: the mean |label(u) −
        // label(v)| over directed edges, under the adversary's original
        // labels and under the RCM run-space labels the engines execute
        // in. The ratio is the bake's cache-locality win.
        for &n in &sizes {
            let (networks, _) = corpus(n, seed);
            for key in networks {
                let net = cache.network(key);
                let g = net.graph();
                let before = wakeup_graph::relabel::avg_neighbor_distance(g);
                let rel = wakeup_graph::Relabeling::locality(g);
                let after = wakeup_graph::relabel::avg_neighbor_distance_relabeled(g, &rel);
                println!(
                    "stats      avg nbr dist {before:>12.2} -> {after:>9.2}  ({}x)  {}",
                    if after > 0.0 {
                        format!("{:.1}", before / after)
                    } else {
                        "inf".into()
                    },
                    key.store_file_name()
                );
            }
        }
    }

    if verify {
        // Verification is deliberately paranoid: beyond re-deriving every
        // checksum, each file is compared byte-for-byte against a
        // from-scratch cold rebuild of its artifact.
        for &n in &sizes {
            let (networks, advice) = corpus(n, seed);
            for key in networks {
                let bytes = cache.verify_network(key).map_err(CliError)?;
                println!("verified   {:>12} B  {}", bytes, key.store_file_name());
            }
            for key in advice {
                let bytes = cache
                    .verify_advice(key, |net| build_advice(key.scheme, net))
                    .map_err(CliError)?;
                println!("verified   {:>12} B  {}", bytes, key.store_file_name());
            }
        }
    }
    eprintln!("{}", cache.store_status_line());
    Ok(())
}

/// Bakes exactly the artifacts one scenario spec resolves to at run time:
/// its network key and (for advice-scheme protocols) its advice key, both
/// derived by [`wakeup_bench::spec_artifact_keys`] — the same derivation
/// [`wakeup_bench::run_cell`] uses, so bake-time and run-time keys cannot
/// drift apart.
fn bake_scenario(
    cache: &ArtifactCache,
    dir: &Path,
    path: &str,
    verify: bool,
) -> Result<(), CliError> {
    let spec = wakeup_scenario::corpus::load_file(Path::new(path))
        .map_err(|e| CliError(format!("scenario {path:?}: {e}")))?;
    let (net_key, advice_key) = wakeup_bench::spec_artifact_keys(&spec)
        .map_err(|e| CliError(format!("scenario {path:?}: {e}")))?;
    let mut total_bytes = 0u64;
    let outcome = cache
        .bake_network(net_key)
        .map_err(|e| CliError(format!("bake {}: {e}", net_key.store_file_name())))?;
    println!(
        "{:<10} {:>12} B  {}",
        if outcome.written {
            "baked"
        } else {
            "up-to-date"
        },
        outcome.bytes,
        net_key.store_file_name()
    );
    total_bytes += outcome.bytes;
    if let Some(key) = advice_key {
        let net = cache.network(key.net);
        let outcome = cache
            .bake_advice(key, || build_advice(key.scheme, &net))
            .map_err(|e| CliError(format!("bake {}: {e}", key.store_file_name())))?;
        println!(
            "{:<10} {:>12} B  {}",
            if outcome.written {
                "baked"
            } else {
                "up-to-date"
            },
            outcome.bytes,
            key.store_file_name()
        );
        total_bytes += outcome.bytes;
    }
    println!(
        "scenario {}: {total_bytes} bytes in {}",
        spec.name,
        dir.display()
    );
    if verify {
        let bytes = cache.verify_network(net_key).map_err(CliError)?;
        println!("verified   {:>12} B  {}", bytes, net_key.store_file_name());
        if let Some(key) = advice_key {
            let bytes = cache
                .verify_advice(key, |net| build_advice(key.scheme, net))
                .map_err(CliError)?;
            println!("verified   {:>12} B  {}", bytes, key.store_file_name());
        }
    }
    eprintln!("{}", cache.store_status_line());
    Ok(())
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
    fn bake_then_verify_round_trips() {
        let dir = std::env::temp_dir().join("wakeup-cli-bake-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap();
        cmd_bake(&flags(&[("dir", dir_s), ("n", "48")]), false, false).unwrap();
        // 3 networks + 6 advice files for one size.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 9);
        // Second bake keeps everything; verify passes.
        cmd_bake(
            &flags(&[("dir", dir_s), ("n", "48"), ("seed", "7")]),
            true,
            true,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The complete family is baked up to its cap and not beyond; the
    /// sparse networks and the advice are baked at every size.
    #[test]
    fn corpus_caps_the_complete_family() {
        let (networks, advice) = corpus(MAX_COMPLETE_BAKE_N, 7);
        assert_eq!(networks.len(), 3);
        assert_eq!(
            networks[2],
            NetworkKey {
                family: GraphFamily::Complete,
                n: 192,
                seed: 7,
                mode: KnowledgeMode::Kt1,
            }
        );
        assert_eq!(advice.len(), 6);
        for n in [MAX_COMPLETE_BAKE_N + 1, 20_000] {
            let (networks, advice) = corpus(n, 7);
            assert_eq!(networks.len(), 2, "n = {n}");
            assert!(networks.iter().all(|k| k.family == GraphFamily::Sparse));
            assert_eq!(advice.len(), 6, "n = {n}");
        }
    }

    #[test]
    fn corrupted_file_fails_verify_and_is_rebaked() {
        let dir = std::env::temp_dir().join("wakeup-cli-bake-corrupt-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap();
        cmd_bake(&flags(&[("dir", dir_s), ("n", "40")]), false, false).unwrap();
        // Flip a byte inside the section table (offset 64 starts the first
        // 32-byte entry) — covered by the table hash, so the file is
        // detectably stale.
        let victim = dir.join("net-sparse-n40-s7-kt0.wkb");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[68] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        // Direct verification flags the divergence from a cold rebuild...
        let cache = ArtifactCache::with_store(&dir);
        let key = NetworkKey {
            family: GraphFamily::Sparse,
            n: 40,
            seed: 7,
            mode: KnowledgeMode::Kt0,
        };
        let err = cache.verify_network(key).unwrap_err();
        assert!(err.contains("diverges"), "unexpected error: {err}");
        // ...and a re-bake with --verify rewrites the stale file and passes.
        cmd_bake(&flags(&[("dir", dir_s), ("n", "40")]), true, false).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_keys_match_bake_corpus_derivation() {
        use wakeup_bench::spec_artifact_keys;
        use wakeup_scenario::{
            DelaySpec, EngineSpec, GraphSpec, ProtocolSpec, ScenarioSpec, WakeSpec,
        };
        let spec = |graph, protocol| ScenarioSpec {
            name: "key-equality".into(),
            graph,
            protocol,
            wake: WakeSpec::Single { node: 0 },
            delays: DelaySpec::Unit,
            engine: EngineSpec {
                seed: 7,
                shards: 1,
                audit: true,
            },
            report: None,
        };
        let sparse = GraphSpec::Sparse { n: 48, seed: 7 };
        let (networks, advice) = corpus(48, 7);
        // Plain protocols resolve to the three corpus networks, no advice.
        let keys = spec_artifact_keys(&spec(sparse.clone(), ProtocolSpec::Flooding)).unwrap();
        assert_eq!(keys, (networks[0], None));
        let keys = spec_artifact_keys(&spec(sparse.clone(), ProtocolSpec::DfsRank)).unwrap();
        assert_eq!(keys, (networks[1], None));
        let keys = spec_artifact_keys(&spec(
            GraphSpec::Complete { n: 48 },
            ProtocolSpec::FastWakeUp,
        ))
        .unwrap();
        assert_eq!(keys, (networks[2], None));
        // Every advice-scheme protocol resolves to exactly the corpus
        // advice key `bake` would write for it — one shared derivation.
        let schemes = [
            (ProtocolSpec::Cor1, 0),
            (ProtocolSpec::Thm5a, 1),
            (ProtocolSpec::Thm5b, 2),
            (ProtocolSpec::Thm6 { k: 2 }, 3),
            (ProtocolSpec::Thm6 { k: 3 }, 4),
            (ProtocolSpec::Cor2, 5),
        ];
        for (protocol, idx) in schemes {
            let (net, adv) = spec_artifact_keys(&spec(sparse.clone(), protocol)).unwrap();
            assert_eq!(net, networks[0]);
            assert_eq!(adv, Some(advice[idx]));
        }
        // A sparse spec whose graph seed disagrees with the engine seed has
        // no single-seed artifact encoding.
        let mismatched = GraphSpec::Sparse { n: 48, seed: 8 };
        assert!(spec_artifact_keys(&spec(mismatched, ProtocolSpec::Flooding)).is_err());
    }

    #[test]
    fn bake_scenario_writes_and_verifies_spec_artifacts() {
        let dir = std::env::temp_dir().join("wakeup-cli-bake-scenario-test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_str().unwrap().to_string();
        let spec_path = wakeup_scenario::corpus::dir().join("table1/04-cor1.json");
        cmd_bake(
            &flags(&[
                ("dir", dir_s.as_str()),
                ("scenario", spec_path.to_str().unwrap()),
            ]),
            true,
            false,
        )
        .unwrap();
        // One network file plus one advice file for the cor1 scheme.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bake_without_dir_or_env_errors() {
        // `--dir` absent and WAKEUP_STORE deliberately not consulted via a
        // set variable in tests: the error message must point at both knobs.
        if std::env::var_os("WAKEUP_STORE").is_some() {
            return; // environment already configures a store; skip
        }
        let err = cmd_bake(&HashMap::new(), false, false).unwrap_err();
        assert!(err.0.contains("WAKEUP_STORE"));
    }
}
