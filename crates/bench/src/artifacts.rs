//! Thread-safe workload artifact cache with single-flight construction.
//!
//! Every measurement entry point ([`crate::run_cell`], through which the
//! `table1`/`experiments` binaries and the criterion benches measure Table 1
//! cells, and `engine_perf`) needs the same expensive setup artifacts: a
//! generated graph, a `Network` with its port/ID assignments and cached
//! node tables, and — for the advising schemes — the oracle's advice
//! bitstrings. Before this cache, every trial regenerated all of them; a
//! criterion bench at `n = 512` would re-run the spanner oracle hundreds of
//! times for identical output.
//!
//! The cache memoizes all three artifact kinds behind `Arc`s, keyed by the
//! exact construction parameters (`family`, `n`, `seed`, knowledge mode, and
//! the scheme's identity + parameters for advice). Construction is
//! **single-flight**: when several `par_sweep` workers or criterion
//! iterations request the same key concurrently, exactly one of them builds
//! the artifact while the rest block on the same [`OnceLock`] and then share
//! the result. The per-key lock means a slow build (say, the `n = 512`
//! spanner oracle) never holds up construction of *other* keys — the outer
//! map mutex is only held long enough to clone an `Arc`.
//!
//! Caching is safe for determinism because every artifact is a pure function
//! of its key: generators, port/ID assignments, and oracles are all
//! seed-deterministic, so a cache hit returns bit-for-bit what a cold build
//! would. The `WAKEUP_THREADS=1` vs `=4` CI diff and the cold-vs-cached
//! tests below pin that equivalence.
//!
//! # The on-disk tier
//!
//! With a store directory configured (explicitly via
//! [`ArtifactCache::with_store`], or through the `WAKEUP_STORE` environment
//! variable for the [`global`] cache), lookups become **two-tier**: the
//! in-process `Arc` tier first, then the persistent `wakeup-store`
//! container on disk (mmap-reloaded, checksum-verified), and only then a
//! cold build. Single-flight is preserved — the disk probe happens inside
//! the per-key `OnceLock`, so concurrent requesters still share one load.
//! Disk outcomes are counted ([`StoreCounts`]: hits / misses / errors /
//! bytes loaded) and every store error short of a plain missing file fails
//! closed into a cold build — a corrupted or stale file can degrade
//! performance, never correctness. Baked files are byte-identical to what
//! a cold build would re-bake (`wakeup bake --verify` and the round-trip
//! tests enforce it), so a disk hit is bit-for-bit a cold build.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use wakeup_graph::Graph;
use wakeup_scenario::run::build_graph;
use wakeup_scenario::GraphSpec;
use wakeup_sim::persist;
use wakeup_sim::{BitStr, KnowledgeMode, Network};
use wakeup_store::{StoreError, StoreFile};

/// The graph families the measurement workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphFamily {
    /// The scenario spec's `sparse` family — the standard sparse workload.
    Sparse,
    /// `complete(n)` (the seed is ignored by the generator but still part of
    /// the key, since it seeds the network's port/ID assignments).
    Complete,
}

/// Cache key for a [`Network`]: the full set of construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkKey {
    /// Generator family.
    pub family: GraphFamily,
    /// Number of nodes.
    pub n: usize,
    /// Seed for the generator and the port/ID assignments.
    pub seed: u64,
    /// KT0 or KT1.
    pub mode: KnowledgeMode,
}

/// Identity + parameters of an advising scheme, for advice cache keys.
///
/// Two keys compare equal exactly when `AdvisingScheme::advise` is
/// guaranteed to return the same bitstrings on the same network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// `BfsTreeScheme::new()` (Corollary 1).
    BfsTree,
    /// `ThresholdScheme::new()` (Theorem 5A).
    Threshold,
    /// `CenScheme::new()` (Theorem 5B).
    Cen,
    /// `SpannerScheme::new(k)` (Theorem 6).
    Spanner(usize),
    /// `SpannerScheme::log_instantiation(n)` (Corollary 2; `n` is in the
    /// network key).
    SpannerLog,
}

/// Cache key for an advice vector: the network it was computed for plus the
/// scheme that computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdviceKey {
    /// The network the oracle ran on.
    pub net: NetworkKey,
    /// The oracle's identity and parameters.
    pub scheme: SchemeId,
}

impl GraphFamily {
    fn token(self) -> &'static str {
        match self {
            GraphFamily::Sparse => "sparse",
            GraphFamily::Complete => "complete",
        }
    }
}

fn mode_token(mode: KnowledgeMode) -> &'static str {
    match mode {
        KnowledgeMode::Kt0 => "kt0",
        KnowledgeMode::Kt1 => "kt1",
    }
}

impl SchemeId {
    fn token(self) -> String {
        match self {
            SchemeId::BfsTree => "bfs_tree".into(),
            SchemeId::Threshold => "threshold".into(),
            SchemeId::Cen => "cen".into(),
            SchemeId::Spanner(k) => format!("spanner{k}"),
            SchemeId::SpannerLog => "spanner_log".into(),
        }
    }
}

impl NetworkKey {
    /// Canonical key string baked into the store file header; any drift in
    /// construction parameters changes this string and therefore fails the
    /// reader's fingerprint check instead of silently reusing a stale file.
    pub fn store_key(&self) -> String {
        format!(
            "net:family={},n={},seed={},mode={}",
            self.family.token(),
            self.n,
            self.seed,
            mode_token(self.mode)
        )
    }

    /// File name of this artifact inside a store directory.
    pub fn store_file_name(&self) -> String {
        format!(
            "net-{}-n{}-s{}-{}.wkb",
            self.family.token(),
            self.n,
            self.seed,
            mode_token(self.mode)
        )
    }
}

impl AdviceKey {
    /// Canonical key string baked into the store file header.
    pub fn store_key(&self) -> String {
        format!(
            "adv:{},scheme={}",
            &self.net.store_key()[4..],
            self.scheme.token()
        )
    }

    /// File name of this artifact inside a store directory.
    pub fn store_file_name(&self) -> String {
        format!(
            "adv-{}-n{}-s{}-{}-{}.wkb",
            self.net.family.token(),
            self.net.n,
            self.net.seed,
            mode_token(self.net.mode),
            self.scheme.token()
        )
    }
}

/// One memoization table: per-key `OnceLock` cells giving single-flight
/// builds without serializing distinct keys behind one lock.
struct Shard<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    builds: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
        }
    }

    /// The artifact for `key`: `load` (the disk tier) is tried first, and
    /// only if it yields nothing does `build` run and count as a build.
    fn get_or_build(
        &self,
        key: &K,
        load: impl FnOnce() -> Option<V>,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        let cell = {
            let mut map = self.map.lock().expect("artifact cache poisoned");
            Arc::clone(map.entry(key.clone()).or_default())
        };
        // The map lock is released; concurrent requests for this key now
        // race on the cell, and `OnceLock` guarantees exactly one
        // load-or-build runs while the others block until it finishes.
        Arc::clone(cell.get_or_init(|| {
            Arc::new(load().unwrap_or_else(|| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                build()
            }))
        }))
    }
}

/// Cold-build counts per artifact kind (store hits are not builds) —
/// observability for the single-flight guarantee (tests assert "exactly
/// one build per key").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCounts {
    /// Graphs generated.
    pub graphs: u64,
    /// Networks constructed.
    pub networks: u64,
    /// Advice vectors computed by oracles.
    pub advice: u64,
}

/// Disk-tier counters: how the persistent store behaved for this cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounts {
    /// Artifacts successfully reloaded from disk.
    pub hits: u64,
    /// Probes that found no file (cold build followed).
    pub misses: u64,
    /// Probes that found a file but failed validation/decoding — each one
    /// fell back to a cold build.
    pub errors: u64,
    /// Total bytes of store files consumed by hits.
    pub bytes_loaded: u64,
    /// How many hits were served via mmap (vs the eager-read fallback).
    pub mmap_loads: u64,
}

/// The configured on-disk tier plus its counters.
struct DiskStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    bytes_loaded: AtomicU64,
    mmap_loads: AtomicU64,
}

impl DiskStore {
    fn new(dir: PathBuf) -> Self {
        DiskStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_loaded: AtomicU64::new(0),
            mmap_loads: AtomicU64::new(0),
        }
    }

    /// Opens + decodes one artifact, classifying the outcome into the
    /// counters. `Ok(None)` means "not available, build cold" (missing file
    /// or any fail-closed validation error).
    fn load<T>(
        &self,
        file_name: &str,
        kind: u32,
        key: &str,
        decode: impl FnOnce(&StoreFile) -> Result<T, StoreError>,
    ) -> Option<T> {
        let path = self.dir.join(file_name);
        let attempt = (|| {
            let f = StoreFile::open(&path, kind, key)?;
            let value = decode(&f)?;
            Ok::<_, StoreError>((value, f.byte_len(), f.is_mapped()))
        })();
        match attempt {
            Ok((value, bytes, mapped)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_loaded.fetch_add(bytes, Ordering::Relaxed);
                if mapped {
                    self.mmap_loads.fetch_add(1, Ordering::Relaxed);
                }
                Some(value)
            }
            Err(e) if e.is_not_found() => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[store] {}: {e}; falling back to cold build",
                    path.display()
                );
                None
            }
        }
    }
}

/// The artifact cache. Use [`global`] for the shared process-wide instance;
/// tests construct private instances to observe build counts in isolation.
pub struct ArtifactCache {
    graphs: Shard<(GraphFamily, usize, u64), Graph>,
    networks: Shard<NetworkKey, Network>,
    advice: Shard<AdviceKey, Vec<BitStr>>,
    store: Option<DiskStore>,
}

impl ArtifactCache {
    /// An empty cache with no on-disk tier.
    pub fn new() -> Self {
        ArtifactCache {
            graphs: Shard::new(),
            networks: Shard::new(),
            advice: Shard::new(),
            store: None,
        }
    }

    /// An empty cache backed by the persistent store at `dir`.
    pub fn with_store(dir: impl Into<PathBuf>) -> Self {
        ArtifactCache {
            store: Some(DiskStore::new(dir.into())),
            ..Self::new()
        }
    }

    /// A cache honouring `WAKEUP_STORE` (two-tier when set and non-empty,
    /// purely in-process otherwise) — what [`global`] uses.
    pub fn from_env() -> Self {
        match std::env::var("WAKEUP_STORE") {
            Ok(dir) if !dir.trim().is_empty() => Self::with_store(dir.trim()),
            _ => Self::new(),
        }
    }

    /// The configured store directory, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir.as_path())
    }

    /// The generated graph for `(family, n, seed)`, built at most once by
    /// the scenario runner's [`build_graph`], so a cached network equals
    /// `run::build_network` of the matching spec.
    pub fn graph(&self, family: GraphFamily, n: usize, seed: u64) -> Arc<Graph> {
        self.graphs.get_or_build(
            &(family, n, seed),
            || None,
            || {
                build_graph(&match family {
                    GraphFamily::Sparse => GraphSpec::Sparse { n, seed },
                    GraphFamily::Complete => GraphSpec::Complete { n },
                })
            },
        )
    }

    /// The network for `key`, resolved through the tiers: in-process Arc →
    /// persistent store (when configured) → cold build. Either way the
    /// result is built/loaded at most once per process, and a store hit
    /// arrives with pre-populated node tables — engines constructed from it
    /// skip the table derivation entirely.
    pub fn network(&self, key: NetworkKey) -> Arc<Network> {
        self.networks.get_or_build(
            &key,
            || {
                self.store.as_ref()?.load(
                    &key.store_file_name(),
                    persist::kind::NETWORK,
                    &key.store_key(),
                    persist::decode_network,
                )
            },
            || self.cold_network(key),
        )
    }

    /// Builds the network for `key` from scratch, bypassing both cache
    /// tiers (the graph still comes from the in-process graph cache).
    fn cold_network(&self, key: NetworkKey) -> Network {
        let g = self.graph(key.family, key.n, key.seed);
        match key.mode {
            KnowledgeMode::Kt0 => Network::kt0((*g).clone(), key.seed),
            KnowledgeMode::Kt1 => Network::kt1((*g).clone(), key.seed),
        }
    }

    /// The advice vector for `key`, resolved through the tiers: in-process
    /// Arc → persistent store (when configured) → `build`.
    ///
    /// The caller is responsible for `build` matching `key.scheme`;
    /// [`build_advice`] dispatches on the `SchemeId` directly.
    pub fn advice(&self, key: AdviceKey, build: impl FnOnce() -> Vec<BitStr>) -> Arc<Vec<BitStr>> {
        self.advice.get_or_build(
            &key,
            || {
                self.store.as_ref()?.load(
                    &key.store_file_name(),
                    persist::kind::ADVICE,
                    &key.store_key(),
                    persist::decode_advice,
                )
            },
            build,
        )
    }

    /// Snapshot of how many artifacts of each kind were actually built.
    pub fn build_counts(&self) -> BuildCounts {
        BuildCounts {
            graphs: self.graphs.builds.load(Ordering::Relaxed),
            networks: self.networks.builds.load(Ordering::Relaxed),
            advice: self.advice.builds.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the disk-tier counters (all zero when no store is
    /// configured).
    pub fn store_counts(&self) -> StoreCounts {
        match &self.store {
            None => StoreCounts::default(),
            Some(s) => StoreCounts {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                errors: s.errors.load(Ordering::Relaxed),
                bytes_loaded: s.bytes_loaded.load(Ordering::Relaxed),
                mmap_loads: s.mmap_loads.load(Ordering::Relaxed),
            },
        }
    }

    /// One-line, stable-format rendering of the disk-tier counters for
    /// stderr status output (`engine_perf`, `wakeup bake --verify`).
    pub fn store_status_line(&self) -> String {
        let c = self.store_counts();
        match self.store_dir() {
            None => "store: disabled".to_owned(),
            Some(dir) => format!(
                "store: dir={} hits={} misses={} errors={} bytes_loaded={} mmap_loads={}",
                dir.display(),
                c.hits,
                c.misses,
                c.errors,
                c.bytes_loaded,
                c.mmap_loads
            ),
        }
    }

    /// Bakes the network for `key` into the configured store directory.
    /// The artifact is resolved through the normal tiers first (so an
    /// already-loaded network is re-encoded, which is byte-identical to a
    /// cold encode); the write is skipped when an up-to-date file already
    /// exists.
    ///
    /// # Errors
    ///
    /// `Err` when no store is configured or the write fails.
    pub fn bake_network(&self, key: NetworkKey) -> Result<BakeOutcome, StoreError> {
        let store = self.store.as_ref().ok_or_else(no_store)?;
        let path = store.dir.join(key.store_file_name());
        let store_key = key.store_key();
        if let Ok(existing) = StoreFile::open(&path, persist::kind::NETWORK, &store_key) {
            if existing.verify_all().is_ok() {
                return Ok(BakeOutcome {
                    path,
                    bytes: existing.byte_len(),
                    written: false,
                });
            }
        }
        let net = self.network(key);
        let bytes = persist::write_network(&path, &store_key, &net)?;
        Ok(BakeOutcome {
            path,
            bytes,
            written: true,
        })
    }

    /// Bakes the advice for `key` (computing it via `build` if not cached)
    /// into the configured store directory.
    ///
    /// # Errors
    ///
    /// `Err` when no store is configured or the write fails.
    pub fn bake_advice(
        &self,
        key: AdviceKey,
        build: impl FnOnce() -> Vec<BitStr>,
    ) -> Result<BakeOutcome, StoreError> {
        let store = self.store.as_ref().ok_or_else(no_store)?;
        let path = store.dir.join(key.store_file_name());
        let store_key = key.store_key();
        if let Ok(existing) = StoreFile::open(&path, persist::kind::ADVICE, &store_key) {
            if existing.verify_all().is_ok() {
                return Ok(BakeOutcome {
                    path,
                    bytes: existing.byte_len(),
                    written: false,
                });
            }
        }
        let advice = self.advice(key, build);
        let bytes = persist::write_advice(&path, &store_key, &advice)?;
        Ok(BakeOutcome {
            path,
            bytes,
            written: true,
        })
    }

    /// Verifies the baked network for `key` against a from-scratch cold
    /// build: re-derives the exact file image (including every checksum)
    /// and compares it byte-for-byte with the on-disk file.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first divergence.
    pub fn verify_network(&self, key: NetworkKey) -> Result<u64, String> {
        let store = self.store.as_ref().ok_or("no store directory configured")?;
        let path = store.dir.join(key.store_file_name());
        let disk = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let cold = self.cold_network(key);
        let expect = persist::network_file_bytes(&key.store_key(), &cold);
        verify_bytes(&path, &disk, &expect)
    }

    /// Verifies the baked advice for `key` against a from-scratch oracle
    /// run on a cold-built network, byte-for-byte.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first divergence.
    pub fn verify_advice(
        &self,
        key: AdviceKey,
        build: impl FnOnce(&Network) -> Vec<BitStr>,
    ) -> Result<u64, String> {
        let store = self.store.as_ref().ok_or("no store directory configured")?;
        let path = store.dir.join(key.store_file_name());
        let disk = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let cold_net = self.cold_network(key.net);
        let advice = build(&cold_net);
        let expect = persist::advice_file_bytes(&key.store_key(), &advice);
        verify_bytes(&path, &disk, &expect)
    }
}

fn no_store() -> StoreError {
    StoreError::Io(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        "no store directory configured (pass --dir or set WAKEUP_STORE)",
    ))
}

fn verify_bytes(path: &Path, disk: &[u8], expect: &[u8]) -> Result<u64, String> {
    if disk == expect {
        return Ok(disk.len() as u64);
    }
    let first_diff = disk
        .iter()
        .zip(expect)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| disk.len().min(expect.len()));
    Err(format!(
        "{}: baked file diverges from cold rebuild (disk {} bytes, expected {}, first difference at byte {first_diff})",
        path.display(),
        disk.len(),
        expect.len(),
    ))
}

/// Outcome of baking one artifact.
#[derive(Debug, Clone)]
pub struct BakeOutcome {
    /// Where the artifact lives.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// `true` when the file was (re)written, `false` when a valid,
    /// checksum-clean file for the same key was already present.
    pub written: bool,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide cache shared by all measurement entry points. Honours
/// `WAKEUP_STORE` (read once, at first use): when set, every measurement
/// binary transparently reloads baked artifacts instead of rebuilding them.
pub fn global() -> &'static ArtifactCache {
    static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
    GLOBAL.get_or_init(ArtifactCache::from_env)
}

/// Runs the advising scheme identified by `id` on `net` — the canonical
/// `SchemeId → AdvisingScheme` dispatch, shared by `wakeup bake` and
/// [`crate::run_cell`] so baked advice provably comes from the same oracle
/// as cold advice.
pub fn build_advice(id: SchemeId, net: &Network) -> Vec<BitStr> {
    use wakeup_core::advice::{
        AdvisingScheme, BfsTreeScheme, CenScheme, SpannerScheme, ThresholdScheme,
    };
    match id {
        SchemeId::BfsTree => BfsTreeScheme::new().advise(net),
        SchemeId::Threshold => ThresholdScheme::new().advise(net),
        SchemeId::Cen => CenScheme::new().advise(net),
        SchemeId::Spanner(k) => SpannerScheme::new(k).advise(net),
        SchemeId::SpannerLog => SpannerScheme::log_instantiation(net.n()).advise(net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use wakeup_graph::generators;

    #[test]
    fn graph_and_network_are_memoized() {
        let cache = ArtifactCache::new();
        let key = NetworkKey {
            family: GraphFamily::Sparse,
            n: 48,
            seed: 7,
            mode: KnowledgeMode::Kt1,
        };
        let a = cache.network(key);
        let b = cache.network(key);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one network");
        assert_eq!(
            cache.build_counts(),
            BuildCounts {
                graphs: 1,
                networks: 1,
                advice: 0
            }
        );
        // Same graph, different mode: graph cache hit, new network.
        cache.network(NetworkKey {
            mode: KnowledgeMode::Kt0,
            ..key
        });
        assert_eq!(
            cache.build_counts(),
            BuildCounts {
                graphs: 1,
                networks: 2,
                advice: 0
            }
        );
    }

    #[test]
    fn cached_network_matches_cold_construction() {
        let cache = ArtifactCache::new();
        let cached = cache.network(NetworkKey {
            family: GraphFamily::Sparse,
            n: 40,
            seed: 3,
            mode: KnowledgeMode::Kt0,
        });
        let cold = Network::kt0(
            generators::erdos_renyi_connected(40, 8.0 / 40.0, 3).unwrap(),
            3,
        );
        assert_eq!(cached.n(), cold.n());
        assert_eq!(cached.graph().m(), cold.graph().m());
        assert_eq!(cached.mode(), cold.mode());
    }

    fn tmp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wakeup-artifacts-test-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_key() -> NetworkKey {
        NetworkKey {
            family: GraphFamily::Sparse,
            n: 52,
            seed: 5,
            mode: KnowledgeMode::Kt1,
        }
    }

    /// Bake with one cache, reload with a fresh one: the store hit must
    /// skip the cold build entirely and produce an equal network with
    /// byte-identical engine tables.
    #[test]
    fn store_hit_skips_cold_build_and_matches() {
        let dir = tmp_store("hit");
        let key = small_key();
        let baker = ArtifactCache::with_store(&dir);
        let outcome = baker.bake_network(key).unwrap();
        assert!(outcome.written);
        let cold = baker.network(key);

        let loader = ArtifactCache::with_store(&dir);
        let loaded = loader.network(key);
        assert_eq!(*loaded, *cold);
        let counts = loader.store_counts();
        assert_eq!(counts.hits, 1, "network must come from disk");
        assert_eq!(counts.errors, 0);
        assert!(counts.bytes_loaded >= outcome.bytes);
        // No cold build of the graph or the network on the loader.
        assert_eq!(loader.build_counts().graphs, 0);
        assert_eq!(loader.build_counts().networks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A second bake of the same key finds the valid file and rewrites
    /// nothing; verification against a cold rebuild passes byte-for-byte.
    #[test]
    fn bake_is_idempotent_and_verifies() {
        let dir = tmp_store("idem");
        let key = small_key();
        let cache = ArtifactCache::with_store(&dir);
        let first = cache.bake_network(key).unwrap();
        let second = cache.bake_network(key).unwrap();
        assert!(first.written);
        assert!(!second.written);
        assert_eq!(first.bytes, second.bytes);
        let verified = cache.verify_network(key).unwrap();
        assert_eq!(verified, first.bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every corruption mode fails closed into a cold build: the cache
    /// still returns a correct artifact and counts the error.
    #[test]
    fn corrupted_store_files_fall_back_to_cold_build() {
        let key = small_key();
        let reference = ArtifactCache::new().network(key).as_ref().clone();
        type Corruption = (&'static str, Box<dyn Fn(&mut Vec<u8>)>);
        let corruptions: [Corruption; 4] = [
            (
                "truncated",
                Box::new(|b: &mut Vec<u8>| b.truncate(b.len() / 2)),
            ),
            // Flip a byte of the first section's stored checksum: the
            // section-table hash breaks, so even the mmap fast path (which
            // skips payload hashing) refuses the file at open.
            (
                "checksum-flip",
                Box::new(|b: &mut Vec<u8>| b[64 + 24] ^= 0x20),
            ),
            ("wrong-version", Box::new(|b: &mut Vec<u8>| b[8] = 0xEE)),
            // Valid file, but for a different key: fingerprint mismatch.
            ("wrong-key", Box::new(|_| {})),
        ];
        for (label, corrupt) in corruptions {
            let dir = tmp_store(&format!("corrupt-{label}"));
            let baker = ArtifactCache::with_store(&dir);
            let baked_key = if label == "wrong-key" {
                NetworkKey {
                    seed: key.seed + 1,
                    ..key
                }
            } else {
                key
            };
            let outcome = baker.bake_network(baked_key).unwrap();
            let mut bytes = std::fs::read(&outcome.path).unwrap();
            corrupt(&mut bytes);
            std::fs::write(dir.join(key.store_file_name()), &bytes).unwrap();

            let loader = ArtifactCache::with_store(&dir);
            let net = loader.network(key);
            assert_eq!(*net, reference, "{label}: fallback must be correct");
            let counts = loader.store_counts();
            assert_eq!(counts.errors, 1, "{label}: corruption must be counted");
            assert_eq!(counts.hits, 0, "{label}: corrupted file must not hit");
            assert_eq!(
                loader.build_counts().networks,
                1,
                "{label}: cold build must have run"
            );
            // Verification must also flag the divergence.
            assert!(loader.verify_network(key).is_err(), "{label}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Advice round-trips through the disk tier bit-for-bit.
    #[test]
    fn advice_store_round_trip() {
        let dir = tmp_store("advice");
        let key = AdviceKey {
            net: NetworkKey {
                family: GraphFamily::Sparse,
                n: 48,
                seed: 7,
                mode: KnowledgeMode::Kt0,
            },
            scheme: SchemeId::BfsTree,
        };
        let baker = ArtifactCache::with_store(&dir);
        let net = baker.network(key.net);
        let cold = baker.advice(key, || build_advice(key.scheme, &net));
        baker
            .bake_advice(key, || unreachable!("advice already cached"))
            .unwrap();

        let loader = ArtifactCache::with_store(&dir);
        let loaded = loader.advice(key, || unreachable!("must load from store"));
        assert_eq!(*loaded, *cold);
        assert_eq!(loader.store_counts().hits, 1);
        loader
            .verify_advice(key, |n| build_advice(key.scheme, n))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The single-flight guarantee under contention: 8 threads hammering a
    /// small set of overlapping keys must (a) not deadlock, (b) build each
    /// artifact exactly once, and (c) all observe the same `Arc`.
    #[test]
    fn concurrent_requests_build_each_key_exactly_once() {
        let cache = ArtifactCache::new();
        let slow_builds = AtomicUsize::new(0);
        let keys: Vec<AdviceKey> = (0..3)
            .map(|i| AdviceKey {
                net: NetworkKey {
                    family: GraphFamily::Sparse,
                    n: 32 + 8 * i,
                    seed: 7,
                    mode: KnowledgeMode::Kt0,
                },
                scheme: SchemeId::BfsTree,
            })
            .collect();
        let results: Mutex<Vec<(usize, Arc<Vec<BitStr>>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let keys = &keys;
                let slow_builds = &slow_builds;
                let results = &results;
                scope.spawn(move || {
                    // Each thread touches every key, in different orders.
                    for j in 0..keys.len() {
                        let ki = (t + j) % keys.len();
                        let advice = cache.advice(keys[ki], || {
                            slow_builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so losers really do
                            // arrive while the winner is mid-build.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            vec![BitStr::default(); keys[ki].net.n]
                        });
                        results.lock().unwrap().push((ki, advice));
                    }
                });
            }
        });
        assert_eq!(
            slow_builds.load(Ordering::SeqCst),
            keys.len(),
            "every key must be built exactly once"
        );
        assert_eq!(cache.build_counts().advice, keys.len() as u64);
        let results = results.into_inner().unwrap();
        assert_eq!(results.len(), 8 * keys.len());
        for (ki, advice) in &results {
            assert!(
                Arc::ptr_eq(
                    advice,
                    &cache.advice(keys[*ki], || unreachable!("already built"))
                ),
                "all requesters share the single built artifact"
            );
        }
    }
}
