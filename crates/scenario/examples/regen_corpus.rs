//! Regenerates the checked-in `scenarios/` corpus in canonical form.
//!
//! ```text
//! cargo run -p wakeup-scenario --example regen_corpus [DIR]
//! ```
//!
//! The constructed specs here are the corpus's source of truth: every file
//! is written as [`ScenarioSpec::to_canonical_json`] bytes, so a fresh run
//! over an up-to-date checkout is a no-op (the `scenarios` integration
//! tests pin byte-stability). Run it after a schema change, then review the
//! diff.

use std::path::{Path, PathBuf};

use wakeup_scenario::{
    DelaySpec, EngineSpec, GraphSpec, ObsWindowSpec, ProtocolSpec, ReportSpec, ScenarioSpec,
    WakeSpec,
};

const SWEEP: &[usize] = &[64, 128, 256, 512];

fn engine(seed: u64) -> EngineSpec {
    EngineSpec {
        seed,
        shards: 1,
        audit: true,
    }
}

/// One Table 1 row: the spec's own graph is the smallest sweep cell (what
/// `run_spec`-based tests execute); `report.sizes` drives the full sweep in
/// the `table1` and `experiments` binaries.
#[allow(clippy::too_many_arguments)]
fn table1_row(
    name: &str,
    graph: GraphSpec,
    protocol: ProtocolSpec,
    wake: WakeSpec,
    label: &str,
    claim: &str,
    experiments_title: &str,
    experiments_claim: &str,
    sizes: &[usize],
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        graph,
        protocol,
        wake,
        delays: DelaySpec::Unit,
        engine: engine(7),
        report: Some(ReportSpec {
            label: label.to_string(),
            claim: claim.to_string(),
            experiments_title: experiments_title.to_string(),
            experiments_claim: experiments_claim.to_string(),
            sizes: sizes.to_vec(),
            obs: None,
        }),
    }
}

fn table1() -> Vec<(&'static str, ScenarioSpec)> {
    let sparse = |n: usize| GraphSpec::Sparse { n, seed: 7 };
    vec![
        (
            "01-flooding.json",
            table1_row(
                "table1-flooding",
                sparse(64),
                ProtocolSpec::Flooding,
                WakeSpec::Single { node: 0 },
                "flooding (baseline)",
                "time ρ_awk, msgs Θ(m)",
                "Baseline: flooding",
                "time = ρ_awk, messages = 2m (Section 1.2)",
                SWEEP,
            ),
        ),
        (
            "02-thm3.json",
            table1_row(
                "table1-thm3",
                sparse(64),
                ProtocolSpec::DfsRank,
                WakeSpec::Staggered { gap: 2.0 },
                "Theorem 3 (DfsRank)",
                "time & msgs O(n log n)",
                "T1.thm3 — DfsRank (async KT1 LOCAL), staggered adversary",
                "O(n log n) time and messages w.h.p.; shape column = n·ln n",
                SWEEP,
            ),
        ),
        (
            "03-thm4.json",
            table1_row(
                "table1-thm4",
                GraphSpec::Complete { n: 32 },
                ProtocolSpec::FastWakeUp,
                WakeSpec::All,
                "Theorem 4 (FastWakeUp)",
                "10ρ_awk rounds, msgs O(n^1.5 √log n)",
                "T1.thm4 — FastWakeUp (sync KT1 LOCAL), all awake on K_n",
                "10·ρ_awk rounds, O(n^{3/2}√log n) messages; shape = n^{1.5}·√ln n",
                &[32, 64, 128, 192],
            ),
        ),
        (
            "04-cor1.json",
            table1_row(
                "table1-cor1",
                sparse(64),
                ProtocolSpec::Cor1,
                WakeSpec::Single { node: 0 },
                "[FIP06], Cor. 1",
                "O(D) time, O(n) msgs, advice max O(n)/avg O(log n)",
                "T1.cor1 — BFS-tree advice ([FIP06], Cor. 1)",
                "O(D) time, O(n) messages, advice max O(n) / avg O(log n); shape = n",
                SWEEP,
            ),
        ),
        (
            "05-thm5a.json",
            table1_row(
                "table1-thm5a",
                sparse(64),
                ProtocolSpec::Thm5a,
                WakeSpec::Single { node: 0 },
                "Theorem 5(A)",
                "O(D) time, O(n^1.5) msgs, advice max O(√n log n)",
                "T1.thm5a — threshold advice (Thm 5A)",
                "O(D) time, O(n^{3/2}) messages, advice max O(√n log n); shape = n^{1.5}",
                SWEEP,
            ),
        ),
        (
            "06-thm5b.json",
            table1_row(
                "table1-thm5b",
                sparse(64),
                ProtocolSpec::Thm5b,
                WakeSpec::Single { node: 0 },
                "Theorem 5(B) (CEN)",
                "O(D log n) time, O(n) msgs, advice max O(log n)",
                "T1.thm5b — child-encoding advice (Thm 5B)",
                "O(D log n) time, O(n) messages, advice max O(log n); shape = n",
                SWEEP,
            ),
        ),
        (
            "07-thm6-k2.json",
            table1_row(
                "table1-thm6-k2",
                sparse(64),
                ProtocolSpec::Thm6 { k: 2 },
                WakeSpec::Single { node: 0 },
                "Theorem 6 (k=2)",
                "O(kρ log n) time, O(k n^{1+1/k} log n) msgs, advice O(n^{1/k} log² n)",
                "T1.thm6 — spanner advice, k = 2",
                "O(kρ log n) time, O(k n^{1+1/k} log n) messages, advice O(n^{1/k} log² n)",
                SWEEP,
            ),
        ),
        (
            "08-thm6-k3.json",
            table1_row(
                "table1-thm6-k3",
                sparse(64),
                ProtocolSpec::Thm6 { k: 3 },
                WakeSpec::Single { node: 0 },
                "Theorem 6 (k=3)",
                "as above with k=3",
                "T1.thm6 — spanner advice, k = 3",
                "same bounds at k = 3",
                SWEEP,
            ),
        ),
        (
            "09-cor2.json",
            table1_row(
                "table1-cor2",
                sparse(64),
                ProtocolSpec::Cor2,
                WakeSpec::Single { node: 0 },
                "Corollary 2",
                "O(ρ log² n) time, O(n log² n) msgs, advice O(log² n)",
                "T1.cor2 — spanner advice, k = ⌈log₂ n⌉ (Cor. 2)",
                "O(ρ log² n) time, O(n log² n) messages, advice O(log² n); shape = n·log² n",
                SWEEP,
            ),
        ),
    ]
}

/// The audit-harness base specs: each one drives the full conformance
/// battery, together covering every pairing the fixed harness used to
/// hardcode (per-message/per-round, reset, sharded, lockstep, scheme
/// advice, Nih on class 𝒢).
fn audit() -> Vec<(&'static str, ScenarioSpec)> {
    let staggered_pairs = WakeSpec::Pairs {
        pairs: vec![(0, 0.0), (5, 1.25), (11, 2.5)],
    };
    let base = |name: &str, graph, protocol, wake, delays, seed| ScenarioSpec {
        name: name.to_string(),
        graph,
        protocol,
        wake,
        delays,
        engine: engine(seed),
        report: None,
    };
    vec![
        (
            "01-flood-unit.json",
            base(
                "audit-flood-unit",
                GraphSpec::Sparse { n: 40, seed: 7 },
                ProtocolSpec::Flooding,
                staggered_pairs.clone(),
                DelaySpec::Unit,
                5,
            ),
        ),
        (
            "02-flood-random.json",
            base(
                "audit-flood-random",
                GraphSpec::Sparse { n: 40, seed: 7 },
                ProtocolSpec::Flooding,
                staggered_pairs.clone(),
                DelaySpec::Random { seed: 17 },
                5,
            ),
        ),
        (
            "03-flood-adversarial.json",
            base(
                "audit-flood-adversarial",
                GraphSpec::Sparse { n: 40, seed: 7 },
                ProtocolSpec::Flooding,
                staggered_pairs.clone(),
                DelaySpec::Adversarial { salt: 9 },
                3,
            ),
        ),
        (
            "04-flood-lockstep.json",
            base(
                "audit-flood-lockstep",
                GraphSpec::Sparse { n: 16, seed: 7 },
                ProtocolSpec::Flooding,
                WakeSpec::Pairs {
                    pairs: vec![(0, 0.0), (7, 2.0)],
                },
                DelaySpec::Unit,
                3,
            ),
        ),
        (
            "05-nih-class-g.json",
            base(
                "audit-nih-class-g",
                GraphSpec::ClassG { parameter: 8 },
                ProtocolSpec::Nih,
                WakeSpec::Centers,
                DelaySpec::Unit,
                2,
            ),
        ),
        (
            "06-spanner-k2.json",
            base(
                "audit-spanner-k2",
                GraphSpec::Sparse { n: 32, seed: 7 },
                ProtocolSpec::Thm6 { k: 2 },
                staggered_pairs.clone(),
                DelaySpec::Unit,
                4,
            ),
        ),
        (
            "07-fast-wakeup.json",
            base(
                "audit-fast-wakeup",
                GraphSpec::Sparse { n: 24, seed: 7 },
                ProtocolSpec::FastWakeUp,
                staggered_pairs.clone(),
                DelaySpec::Unit,
                6,
            ),
        ),
        (
            "08-leader.json",
            base(
                "audit-leader",
                GraphSpec::Sparse { n: 40, seed: 7 },
                ProtocolSpec::Leader,
                staggered_pairs,
                DelaySpec::Adversarial { salt: 9 },
                4,
            ),
        ),
    ]
}

/// Worked examples of the non-Table-1 graph families.
fn families() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "torus.json",
            ScenarioSpec {
                name: "families-torus".to_string(),
                graph: GraphSpec::Torus { rows: 6, cols: 8 },
                protocol: ProtocolSpec::Flooding,
                wake: WakeSpec::Staggered { gap: 1.0 },
                delays: DelaySpec::FifoWorst,
                engine: engine(9),
                report: None,
            },
        ),
        (
            "power-law.json",
            ScenarioSpec {
                name: "families-power-law".to_string(),
                graph: GraphSpec::PowerLaw {
                    n: 40,
                    attach: 2,
                    seed: 5,
                },
                protocol: ProtocolSpec::DfsRank,
                wake: WakeSpec::Single { node: 0 },
                delays: DelaySpec::Adversarial { salt: 9 },
                engine: engine(9),
                report: None,
            },
        ),
        (
            "grid.json",
            ScenarioSpec {
                name: "families-grid".to_string(),
                graph: GraphSpec::Grid { rows: 10, cols: 15 },
                protocol: ProtocolSpec::Thm5b,
                wake: WakeSpec::Single { node: 0 },
                delays: DelaySpec::Unit,
                engine: engine(9),
                report: None,
            },
        ),
        // Worked example of the opt-in `report.obs` window config: fixed
        // 64-tick windows instead of the default log2 spacing.
        (
            "obs-windows.json",
            ScenarioSpec {
                name: "families-obs-windows".to_string(),
                graph: GraphSpec::Sparse { n: 48, seed: 7 },
                protocol: ProtocolSpec::Flooding,
                wake: WakeSpec::Staggered { gap: 1.0 },
                delays: DelaySpec::Unit,
                engine: engine(9),
                report: Some(ReportSpec {
                    label: "flooding (linear obs windows)".to_string(),
                    claim: "timeline bucketed into fixed 64-tick windows".to_string(),
                    experiments_title: "Obs: linear timeline windows".to_string(),
                    experiments_claim: "report.obs selects the recorder's window \
                                        spacing; runs stay byte-deterministic"
                        .to_string(),
                    sizes: vec![48, 96],
                    obs: Some(ObsWindowSpec::Linear { width: 64 }),
                }),
            },
        ),
    ]
}

fn write_all(dir: &Path, specs: Vec<(&'static str, ScenarioSpec)>) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    for (file, spec) in specs {
        spec.validate().expect("corpus specs must validate");
        let canonical = spec.to_canonical_json();
        // Canonical form must survive its own round trip before it is
        // allowed into the corpus.
        let reparsed = ScenarioSpec::parse(&canonical).expect("canonical parses");
        assert_eq!(reparsed, spec, "{file}: canonical round trip");
        let path = dir.join(file);
        std::fs::write(&path, canonical).expect("write spec file");
        println!("wrote {}", path.display());
    }
}

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios")));
    write_all(&root.join("table1"), table1());
    write_all(&root.join("audit"), audit());
    write_all(&root.join("families"), families());
}
