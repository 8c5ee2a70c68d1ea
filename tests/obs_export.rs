//! Golden observability-export fixtures.
//!
//! The schema-4 [`ObsSnapshot`] renderings — single-line JSON and the
//! Prometheus text exposition — are part of the repository's compatibility
//! surface (CI byte-diffs them across thread counts, shard counts, and the
//! persistent store, and `wakeup obs` parses them back). One fixed workload
//! is pinned byte for byte in `tests/fixtures/`. A failure here means the
//! export schema, the timeline windowing, or the engines' event ordering
//! changed — re-pin deliberately by rerunning with
//! `WAKEUP_REGEN_GOLDENS=1` and explaining the change in the commit.

use wakeup::core::flooding::FloodAsync;
use wakeup::graph::{generators, NodeId};
use wakeup::sim::adversary::{RandomDelay, WakeSchedule};
use wakeup::sim::{AsyncConfig, AsyncEngine, Network, ObsSnapshot};

const JSON_GOLDEN: &str = include_str!("fixtures/obs_flood_n16.json");
const PROM_GOLDEN: &str = include_str!("fixtures/obs_flood_n16.prom");

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn check_golden(name: &str, golden: &str, got: &str) {
    if std::env::var_os("WAKEUP_REGEN_GOLDENS").is_some() {
        std::fs::write(fixture_path(name), got).expect("regenerate fixture");
        return;
    }
    assert_eq!(
        got, golden,
        "{name} drifted; rerun with WAKEUP_REGEN_GOLDENS=1 to re-pin"
    );
}

/// The pinned workload: the same n=16 flood the audit-trace goldens use,
/// so a drift in one fixture family points at the same engine change.
fn snapshot() -> ObsSnapshot {
    let net = Network::kt0(generators::erdos_renyi_connected(16, 0.5, 7).unwrap(), 7);
    let config = AsyncConfig {
        seed: 7,
        ..AsyncConfig::default()
    };
    let report = AsyncEngine::<FloodAsync>::new(&net, config)
        .run_with(&WakeSchedule::single(NodeId::new(0)), &RandomDelay::new(5));
    assert!(report.all_awake);
    report.obs_snapshot()
}

#[test]
fn json_export_matches_golden() {
    let mut json = snapshot().to_json();
    json.push('\n');
    check_golden("obs_flood_n16.json", JSON_GOLDEN, &json);
}

#[test]
fn prometheus_export_matches_golden() {
    check_golden(
        "obs_flood_n16.prom",
        PROM_GOLDEN,
        &snapshot().to_prometheus(),
    );
}

#[test]
fn goldens_carry_the_schema_4_blocks() {
    // Cheap structural checks on the committed bytes themselves, so a
    // hand-edited fixture can't silently drop the new blocks.
    assert!(JSON_GOLDEN.contains("\"schema\":4"));
    assert!(JSON_GOLDEN.contains("\"timeline\":"));
    assert!(JSON_GOLDEN.contains("\"internals\":"));
    // The deterministic export never carries the machine-dependent
    // runtime diagnostics (those are `to_json_diag` only).
    assert!(!JSON_GOLDEN.contains("\"runtime\":"));
    assert!(PROM_GOLDEN.contains("wakeup_timeline_events"));
    assert!(PROM_GOLDEN.contains("wakeup_peak_frontier"));
}
