//! Integration tests for the persistent artifact store, exercised through
//! the `wakeup` facade: bake → reload round trips, mmap/eager equivalence,
//! and the corruption taxonomy at the container level.

use wakeup::graph::generators;
use wakeup::sim::persist::{read_network, write_network};
use wakeup::sim::{KnowledgeMode, Network};
use wakeup::store::{MapMode, StoreFile};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("wakeup-persistence-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn sample_network(mode: KnowledgeMode) -> Network {
    let graph = generators::erdos_renyi_connected(200, 0.04, 11).unwrap();
    match mode {
        KnowledgeMode::Kt0 => Network::kt0(graph, 11),
        KnowledgeMode::Kt1 => Network::kt1(graph, 11),
    }
}

/// A baked network reloads into an equal `Network` — including the
/// engine-facing node tables — under both knowledge modes.
#[test]
fn facade_bake_reload_round_trip() {
    for (mode, label) in [(KnowledgeMode::Kt0, "kt0"), (KnowledgeMode::Kt1, "kt1")] {
        let net = sample_network(mode);
        let path = tmp(&format!("facade-{label}.wkb"));
        write_network(&path, "it:facade", &net).unwrap();
        let reloaded = read_network(&path, "it:facade").unwrap();
        assert_eq!(net, reloaded, "{label}");
        std::fs::remove_file(&path).ok();
    }
}

/// The mmap fast path and the eager fallback expose byte-identical views:
/// a network decoded from a mapped file equals one decoded from an eagerly
/// read file, and the engines produce identical runs on both.
#[test]
fn mmap_and_eager_views_agree() {
    use wakeup::core::flooding::FloodAsync;
    use wakeup::graph::NodeId;
    use wakeup::sim::adversary::WakeSchedule;
    use wakeup::sim::{AsyncConfig, AsyncEngine};

    let net = sample_network(KnowledgeMode::Kt1);
    let path = tmp("mmap-vs-eager.wkb");
    write_network(&path, "it:mapmode", &net).unwrap();

    let kind = wakeup::sim::persist::kind::NETWORK;
    let mapped = StoreFile::open_with(&path, kind, "it:mapmode", MapMode::Auto).unwrap();
    let eager = StoreFile::open_with(&path, kind, "it:mapmode", MapMode::Eager).unwrap();
    assert!(!eager.is_mapped());
    let from_mapped = wakeup::sim::persist::decode_network(&mapped).unwrap();
    let from_eager = wakeup::sim::persist::decode_network(&eager).unwrap();
    assert_eq!(from_mapped, from_eager);

    let schedule = WakeSchedule::single(NodeId::new(0));
    let config = AsyncConfig {
        seed: 3,
        ..AsyncConfig::default()
    };
    let a = AsyncEngine::<FloodAsync>::new(&from_mapped, config.clone()).run(&schedule);
    let b = AsyncEngine::<FloodAsync>::new(&from_eager, config).run(&schedule);
    assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
    assert_eq!(a.all_awake, b.all_awake);
    std::fs::remove_file(&path).ok();
}

/// Round trips are byte-stable: re-encoding a reloaded network reproduces
/// the original file image exactly.
#[test]
fn reencode_is_byte_identical() {
    let net = sample_network(KnowledgeMode::Kt0);
    let path = tmp("byte-stable.wkb");
    write_network(&path, "it:bytes", &net).unwrap();
    let original = std::fs::read(&path).unwrap();
    let reloaded = read_network(&path, "it:bytes").unwrap();
    let reencoded = wakeup::sim::persist::network_file_bytes("it:bytes", &reloaded);
    assert_eq!(original, reencoded);
    std::fs::remove_file(&path).ok();
}

/// Opening with the wrong key string is a typed fingerprint error, not a
/// silent wrong-artifact load.
#[test]
fn wrong_key_is_rejected() {
    let net = sample_network(KnowledgeMode::Kt0);
    let path = tmp("wrong-key.wkb");
    write_network(&path, "it:right-key", &net).unwrap();
    let err = read_network(&path, "it:wrong-key").unwrap_err();
    assert!(
        matches!(err, wakeup::store::StoreError::KeyMismatch),
        "unexpected error: {err:?}"
    );
    std::fs::remove_file(&path).ok();
}
