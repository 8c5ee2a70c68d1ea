//! Artifact ⇄ store codec: serializes [`Network`]s and advice bitstrings
//! into `wakeup-store` containers and reconstructs them on reload.
//!
//! Every buffer the simulator needs is already flat and CSR-indexed
//! ([`Graph`]'s offsets/adjacency, the flattened [`PortAssignment`], the
//! engine [`NodeTables`]), so encoding is a straight dump of those buffers
//! into little-endian sections, and decoding serves every large section as
//! a zero-copy [`wakeup_store::Buf`] view straight out of the mmap — no
//! per-node walking, no re-derivation, and no bulk copies on the reload
//! hot path. The degree prefix sums are shared by the graph, the port
//! assignment, and the edge-slot tables, so they are stored exactly once
//! ([`tag::OFFSETS`]) and the *same* mapping window backs all three on
//! reload (a `Buf` clone is an `Arc` clone).
//!
//! The reverse port table is written as one interleaved `u32` section
//! (`id, port, id, port, …`) and viewed as `Buf<PortEntry>` — a `repr(C)`
//! pair of `u32` newtypes whose layout is pinned by its
//! [`wakeup_store::SectionElem`] impl. The engines' hot per-slot pair
//! `(to, rport)` is stored the same way ([`tag::TBL_EDGE_HOT`], viewed as
//! `Buf<EdgeHot>`). The small KT1 `(id, port)` lookup pairing keeps split
//! primitive sections and is copied on reload: a Rust tuple has no
//! guaranteed layout, and at 12 bytes per directed edge only under KT1 it
//! is nowhere near the reload budget.
//!
//! Networks with a locality run space bake their table sections in *run*
//! space alongside the [`tag::PERM`] permutation and the run-space prefix
//! sums ([`tag::TBL_OFFSETS`] — permuted degrees cannot share
//! [`tag::OFFSETS`]); reload presets the run space directly, so the RCM
//! relabeling is never recomputed on the artifact hot path.
//!
//! This module contains no `unsafe` (the crate denies it outside the one
//! `PortEntry` layout marker); all zero-copy machinery lives behind safe
//! buffers returned by `wakeup-store`. Integrity on the mmap path is the
//! store's *structural* contract (header, key, section table checksum,
//! bounds); eagerly-loaded files (`WAKEUP_STORE_NO_MMAP=1`) additionally
//! re-derive every payload checksum in [`read_network`]/[`read_advice`].

use std::path::Path;

use wakeup_graph::{Graph, NodeId};
use wakeup_store::{StoreError, StoreFile, StoreWriter};

use crate::bits::BitStr;
use crate::knowledge::{IdAssignment, KnowledgeMode, Port, PortAssignment, PortEntry};
use crate::network::{EdgeHot, Network, NodeTables};

/// Artifact-kind discriminants (the store header's `artifact_kind` field).
pub mod kind {
    /// A [`super::Network`]: graph + ports + IDs + engine tables.
    pub const NETWORK: u32 = 1;
    /// Per-node advice bitstrings produced by an advising scheme.
    pub const ADVICE: u32 = 2;
}

/// Section tags used by the network and advice encodings.
mod tag {
    /// u64 `[n, m, mode, 0]` (network) or `[n, total_words, 0, 0]` (advice).
    pub const META: u32 = 1;
    /// u64 degree prefix sums, `n + 1` entries — shared by the graph CSR,
    /// the port assignment, and the engine tables.
    pub const OFFSETS: u32 = 2;
    /// u32 graph adjacency (sorted per node).
    pub const ADJ: u32 = 3;
    /// u32 canonical edge list, flattened `(u, v)` pairs.
    pub const EDGES: u32 = 4;
    /// u32 port → neighbor table (`PortAssignment::to_neighbor`).
    pub const PORT_TO: u32 = 5;
    /// u32 reverse port table, interleaved `(neighbor, port)` pairs —
    /// viewed on reload as `Buf<PortEntry>`. (Tag 7 once held the split-out
    /// port half and is retired.)
    pub const PORT_FROM: u32 = 6;
    /// u64 node IDs (`IdAssignment`).
    pub const IDS: u32 = 8;
    /// u32 `NodeTables::edge_hot`, interleaved `(to, rport)` pairs — viewed
    /// on reload as `Buf<EdgeHot>`. (Tags 9/10 once held the split
    /// `edge_to`/`rev_port` halves in format 2 and are retired.)
    pub const TBL_EDGE_HOT: u32 = 9;
    /// u64 flat sorted neighbor IDs (empty under KT0).
    pub const TBL_NEIGHBOR_IDS: u32 = 11;
    /// u64 ID half of the flat `(id, port)` tables (empty under KT0).
    pub const TBL_I2P_ID: u32 = 12;
    /// u32 port half of the flat `(id, port)` tables (empty under KT0).
    pub const TBL_I2P_PORT: u32 = 13;
    /// u32 run→orig locality relabeling (`Relabeling::to_orig`). Empty when
    /// the network has no run space (identity RCM order, too many nodes for
    /// the packed sort keys, or `WAKEUP_RELABEL=0` at bake time); when
    /// non-empty, every table section is stored in run space.
    pub const PERM: u32 = 14;
    /// u64 run-space degree prefix sums, `n + 1` entries — present exactly
    /// when [`PERM`] is non-empty (run-space tables index by relabeled
    /// degrees, so they cannot share [`OFFSETS`]).
    pub const TBL_OFFSETS: u32 = 15;
    /// u64 per-node advice bit lengths, `n` entries.
    pub const ADV_LENS: u32 = 20;
    /// u64 packed advice bits, each node starting on a word boundary.
    pub const ADV_WORDS: u32 = 21;
}

fn mode_code(mode: KnowledgeMode) -> u64 {
    match mode {
        KnowledgeMode::Kt0 => 0,
        KnowledgeMode::Kt1 => 1,
    }
}

fn malformed(why: &'static str) -> StoreError {
    StoreError::Malformed(why)
}

/// Encodes a network (including its derived engine tables and, when
/// eligible, its locality run space — both built now if not already) into a
/// store writer keyed by `key`. Networks with a run space store the
/// run-space table set plus the [`tag::PERM`] permutation; reload then
/// presets the run space and rebuilds identity tables lazily only if an
/// identity-bound engine (audit recording) asks for them.
pub fn encode_network(key: &str, net: &Network) -> StoreWriter {
    let space = net.run_space();
    let tables = match space {
        Some(s) => s.tables.clone(),
        None => net.tables().clone(),
    };
    let (goff, adjacency, edges) = net.graph().csr_parts();
    let (poff, port_to, port_from) = net.ports().raw_parts();
    debug_assert_eq!(goff, poff, "graph and port offsets must agree");
    debug_assert!(
        space.is_some() || goff == &tables.edge_offset[..],
        "graph and identity table offsets must agree"
    );

    let mut w = StoreWriter::new(kind::NETWORK, key);
    w.put_u64s(
        tag::META,
        &[
            net.n() as u64,
            net.graph().m() as u64,
            mode_code(net.mode()),
            0,
        ],
    );
    let offsets: Vec<u64> = goff.iter().map(|&o| o as u64).collect();
    w.put_u64s(tag::OFFSETS, &offsets);
    let adj: Vec<u32> = adjacency.iter().map(|v| v.as_u32()).collect();
    w.put_u32s(tag::ADJ, &adj);
    let edge_flat: Vec<u32> = edges
        .iter()
        .flat_map(|&(u, v)| [u.as_u32(), v.as_u32()])
        .collect();
    w.put_u32s(tag::EDGES, &edge_flat);
    let to: Vec<u32> = port_to.iter().map(|v| v.as_u32()).collect();
    w.put_u32s(tag::PORT_TO, &to);
    let from_flat: Vec<u32> = port_from
        .iter()
        .flat_map(|e| [e.id.as_u32(), e.port.number() as u32])
        .collect();
    w.put_u32s(tag::PORT_FROM, &from_flat);
    w.put_u64s(tag::IDS, net.ids().as_slice());
    match space {
        Some(s) => {
            w.put_u32s(tag::PERM, s.rel.to_orig_slice());
            let toff: Vec<u64> = tables.edge_offset.iter().map(|&o| o as u64).collect();
            w.put_u64s(tag::TBL_OFFSETS, &toff);
        }
        None => {
            w.put_u32s(tag::PERM, &[]);
            w.put_u64s(tag::TBL_OFFSETS, &[]);
        }
    }
    let hot_flat: Vec<u32> = tables
        .edge_hot
        .iter()
        .flat_map(|e| [e.to, e.rport])
        .collect();
    w.put_u32s(tag::TBL_EDGE_HOT, &hot_flat);
    let (nb_ids, i2p) = tables.raw_id_tables();
    w.put_u64s(tag::TBL_NEIGHBOR_IDS, nb_ids);
    let i2p_id: Vec<u64> = i2p.iter().map(|&(id, _)| id).collect();
    w.put_u64s(tag::TBL_I2P_ID, &i2p_id);
    let i2p_port: Vec<u32> = i2p.iter().map(|&(_, p)| p.number() as u32).collect();
    w.put_u32s(tag::TBL_I2P_PORT, &i2p_port);
    w
}

/// Decodes a network (with pre-populated engine tables) from an opened,
/// validated store file. Every large section stays a zero-copy view of the
/// underlying mapping; only the 32-byte meta section and the small KT1
/// `(id, port)` pairing are copied (and those copies are
/// checksum-verified). Cheap structural cross-checks (lengths, CSR
/// monotonicity, port-number non-zero scans) still run in full.
///
/// # Errors
///
/// Any [`StoreError`] from section access, plus `Malformed` when the
/// sections are structurally inconsistent with each other.
pub fn decode_network(f: &StoreFile) -> Result<Network, StoreError> {
    let meta = f.u64s(tag::META)?;
    if meta.len() != 4 || meta[3] != 0 {
        return Err(malformed("network meta section malformed"));
    }
    let n = usize::try_from(meta[0]).map_err(|_| malformed("n exceeds usize"))?;
    let m = usize::try_from(meta[1]).map_err(|_| malformed("m exceeds usize"))?;
    let mode = match meta[2] {
        0 => KnowledgeMode::Kt0,
        1 => KnowledgeMode::Kt1,
        _ => return Err(malformed("unknown knowledge mode")),
    };

    let offsets = f.view_usizes(tag::OFFSETS)?;
    if offsets.len() != n + 1 {
        return Err(malformed("offsets length does not match n"));
    }
    let dir_edges = *offsets.last().unwrap();
    if dir_edges != 2 * m {
        return Err(malformed("offsets do not sum to 2m"));
    }

    let adjacency = f.view::<NodeId>(tag::ADJ)?;
    let edges_raw = f.view::<NodeId>(tag::EDGES)?;
    if adjacency.len() != dir_edges || edges_raw.len() != 2 * m {
        return Err(malformed("adjacency/edge section length mismatch"));
    }
    let graph = Graph::from_csr_sections(offsets.clone(), adjacency, edges_raw)
        .map_err(|_| malformed("graph csr parts inconsistent"))?;

    let to_neighbor = f.view::<NodeId>(tag::PORT_TO)?;
    let from_neighbor = f.view::<PortEntry>(tag::PORT_FROM)?;
    if to_neighbor.len() != dir_edges || from_neighbor.len() != dir_edges {
        return Err(malformed("port section length mismatch"));
    }
    if from_neighbor.iter().any(|e| e.port.number() == 0) {
        return Err(malformed("zero port number in reverse port table"));
    }
    let ports = PortAssignment::from_raw_parts(offsets.clone(), to_neighbor, from_neighbor);

    let ids_buf = f.view::<u64>(tag::IDS)?;
    if ids_buf.len() != n {
        return Err(malformed("id section length mismatch"));
    }
    let ids = IdAssignment::from_buf_trusted(ids_buf);

    let edge_hot = f.view::<EdgeHot>(tag::TBL_EDGE_HOT)?;
    let nb_ids = f.view::<u64>(tag::TBL_NEIGHBOR_IDS)?;
    let i2p_id = f.u64s(tag::TBL_I2P_ID)?;
    let i2p_port = f.u32s(tag::TBL_I2P_PORT)?;
    if edge_hot.len() != dir_edges {
        return Err(malformed("table section length mismatch"));
    }
    let id_slots = match mode {
        KnowledgeMode::Kt0 => 0,
        KnowledgeMode::Kt1 => dir_edges,
    };
    if nb_ids.len() != id_slots || i2p_id.len() != id_slots || i2p_port.len() != id_slots {
        return Err(malformed("id-table section length mismatch"));
    }
    if i2p_port.contains(&0) {
        return Err(malformed("zero port number in id-to-port table"));
    }
    let id_to_port: Vec<(u64, Port)> = i2p_id
        .iter()
        .zip(i2p_port)
        .map(|(&id, &p)| (id, Port::new(p as usize)))
        .collect();

    let perm = f.u32s(tag::PERM)?;
    let tbl_offsets = f.view_usizes(tag::TBL_OFFSETS)?;

    let net = Network::with_parts(graph, ports, ids, mode);
    if perm.is_empty() {
        if !tbl_offsets.is_empty() {
            return Err(malformed("run-space offsets present without a permutation"));
        }
        net.preset_tables(NodeTables::from_raw_parts(
            offsets, edge_hot, nb_ids, id_to_port,
        ));
    } else if crate::network::relabel_disabled_by_env() {
        // The artifact was baked in run space but relabeled execution is
        // disabled for this process: skip both presets so the identity
        // tables rebuild lazily on first use (and the run-space cell, if
        // asked, re-evaluates the env gate and stays empty).
    } else {
        if perm.len() != n {
            return Err(malformed("permutation length does not match n"));
        }
        // `Relabeling::from_to_orig` panics on a non-permutation, and
        // mmap-path payloads are not checksummed — validate first so a
        // corrupt file fails closed instead.
        let mut seen = vec![0u64; n.div_ceil(64)];
        for &o in perm {
            let o = o as usize;
            if o >= n || seen[o / 64] >> (o % 64) & 1 == 1 {
                return Err(malformed("stored relabeling is not a permutation"));
            }
            seen[o / 64] |= 1 << (o % 64);
        }
        if tbl_offsets.len() != n + 1
            || *tbl_offsets.last().unwrap() != dir_edges
            || tbl_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(malformed("run-space offsets malformed"));
        }
        let rel = wakeup_graph::Relabeling::from_to_orig(perm.to_vec());
        net.preset_run_space(
            rel,
            NodeTables::from_raw_parts(tbl_offsets, edge_hot, nb_ids, id_to_port),
        );
    }
    Ok(net)
}

/// Encodes per-node advice bitstrings into a store writer keyed by `key`.
/// Bits are packed MSB-first into `u64` words, each node starting on a
/// word boundary, with an explicit per-node bit-length table — so the
/// reload is exact for every length, including zero-bit advice.
pub fn encode_advice(key: &str, advice: &[BitStr]) -> StoreWriter {
    let mut w = StoreWriter::new(kind::ADVICE, key);
    let lens: Vec<u64> = advice.iter().map(|a| a.len() as u64).collect();
    let total_words: usize = advice.iter().map(|a| a.len().div_ceil(64)).sum();
    let mut words = Vec::with_capacity(total_words);
    for a in advice {
        let bits = a.as_slice();
        for chunk in bits.chunks(64) {
            let mut word = 0u64;
            for (i, &bit) in chunk.iter().enumerate() {
                if bit {
                    word |= 1 << (63 - i);
                }
            }
            words.push(word);
        }
    }
    w.put_u64s(tag::META, &[advice.len() as u64, words.len() as u64, 0, 0]);
    w.put_u64s(tag::ADV_LENS, &lens);
    w.put_u64s(tag::ADV_WORDS, &words);
    w
}

/// Decodes per-node advice bitstrings from an opened, validated store file.
///
/// # Errors
///
/// Any [`StoreError`] from section access, plus `Malformed` on
/// inconsistent lengths.
pub fn decode_advice(f: &StoreFile) -> Result<Vec<BitStr>, StoreError> {
    let meta = f.u64s(tag::META)?;
    if meta.len() != 4 || meta[2] != 0 || meta[3] != 0 {
        return Err(malformed("advice meta section malformed"));
    }
    let n = usize::try_from(meta[0]).map_err(|_| malformed("n exceeds usize"))?;
    let lens = f.u64s(tag::ADV_LENS)?;
    let words = f.u64s(tag::ADV_WORDS)?;
    if lens.len() != n {
        return Err(malformed("advice length table does not match n"));
    }
    let total_words: u64 = lens.iter().map(|&l| l.div_ceil(64)).sum();
    if meta[1] != total_words || words.len() as u64 != total_words {
        return Err(malformed("advice word count mismatch"));
    }
    let mut out = Vec::with_capacity(n);
    let mut word_base = 0usize;
    for &len in lens {
        let len = usize::try_from(len).map_err(|_| malformed("advice length exceeds usize"))?;
        let nwords = len.div_ceil(64);
        let node_words = &words[word_base..word_base + nwords];
        let mut s = BitStr::new();
        for i in 0..len {
            let bit = node_words[i / 64] >> (63 - (i % 64)) & 1 == 1;
            s.push_bool(bit);
        }
        out.push(s);
        word_base += nwords;
    }
    Ok(out)
}

/// The exact file image a bake of `net` under `key` produces — used by
/// byte-identity verification (`wakeup bake --verify` re-derives this from
/// a cold build and compares it with the on-disk bytes).
#[must_use]
pub fn network_file_bytes(key: &str, net: &Network) -> Vec<u8> {
    encode_network(key, net).to_bytes()
}

/// The exact file image a bake of `advice` under `key` produces.
#[must_use]
pub fn advice_file_bytes(key: &str, advice: &[BitStr]) -> Vec<u8> {
    encode_advice(key, advice).to_bytes()
}

/// Bakes `net` to `path` atomically. Returns the bytes written.
///
/// # Errors
///
/// Propagates filesystem errors from the atomic write.
pub fn write_network(path: &Path, key: &str, net: &Network) -> Result<u64, StoreError> {
    encode_network(key, net).write_atomic(path)
}

/// Opens, validates, and decodes a baked network. All header, key, and
/// structural checks fail closed with a typed error. When the file could
/// not be mmapped (or `WAKEUP_STORE_NO_MMAP=1` forces the eager path),
/// every payload checksum is additionally re-derived — the eager path is
/// the fully-paranoid one, since it pays the whole-file read anyway.
///
/// # Errors
///
/// See [`StoreFile::open`] and [`decode_network`].
pub fn read_network(path: &Path, key: &str) -> Result<Network, StoreError> {
    let f = StoreFile::open(path, kind::NETWORK, key)?;
    if !f.is_mapped() {
        f.verify_all()?;
    }
    decode_network(&f)
}

/// Bakes advice bitstrings to `path` atomically. Returns the bytes written.
///
/// # Errors
///
/// Propagates filesystem errors from the atomic write.
pub fn write_advice(path: &Path, key: &str, advice: &[BitStr]) -> Result<u64, StoreError> {
    encode_advice(key, advice).write_atomic(path)
}

/// Opens, validates, and decodes baked advice. As with [`read_network`],
/// eagerly-loaded files get a full payload-checksum pass on top of the
/// structural open checks.
///
/// # Errors
///
/// See [`StoreFile::open`] and [`decode_advice`].
pub fn read_advice(path: &Path, key: &str) -> Result<Vec<BitStr>, StoreError> {
    let f = StoreFile::open(path, kind::ADVICE, key)?;
    if !f.is_mapped() {
        f.verify_all()?;
    }
    decode_advice(&f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wakeup-persist-test-{name}.wkb"))
    }

    fn nets() -> Vec<(&'static str, Network)> {
        let g = generators::erdos_renyi_connected(60, 0.12, 9).unwrap();
        vec![
            ("kt0", Network::kt0(g.clone(), 7)),
            ("kt1", Network::kt1(g, 7)),
            (
                "complete-kt1",
                Network::kt1(generators::complete(24).unwrap(), 3),
            ),
        ]
    }

    #[test]
    fn network_round_trip_equality_and_tables() {
        for (label, net) in nets() {
            let path = tmp(&format!("net-{label}"));
            write_network(&path, label, &net).unwrap();
            let back = read_network(&path, label).unwrap();
            assert_eq!(back, net, "{label}");
            // The reloaded tables must be byte-identical to a cold build.
            assert_eq!(
                **back.tables(),
                **net.tables(),
                "{label}: reloaded tables differ from cold build"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn relabeled_network_round_trips_with_run_space_preset() {
        let g = generators::erdos_renyi_connected(70, 0.1, 13).unwrap();
        let net = Network::kt1(g, 7);
        net.force_relabel();
        assert!(
            net.run_space().is_some(),
            "fixture must have a non-trivial relabeling"
        );
        let path = tmp("net-relabeled");
        write_network(&path, "rel", &net).unwrap();
        let back = read_network(&path, "rel").unwrap();
        assert_eq!(back, net);
        // The run space comes straight from the file — same permutation,
        // byte-identical run-space tables — not from an RCM recompute.
        let a = net.run_space().unwrap();
        let b = back.run_space().unwrap();
        assert_eq!(a.rel, b.rel);
        assert_eq!(*a.tables, *b.tables);
        // Identity tables still lazily rebuild to the same bytes on both.
        assert_eq!(**back.tables(), **net.tables());
        // Re-baking the reloaded network reproduces the file image — the
        // `--verify` cold-rebuild contract holds for relabeled bakes.
        assert_eq!(
            network_file_bytes("rel", &net),
            network_file_bytes("rel", &back)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn relabeled_bake_loads_identically_on_mmap_and_eager_paths() {
        let g = generators::erdos_renyi_connected(70, 0.1, 13).unwrap();
        let net = Network::kt1(g, 7);
        net.force_relabel();
        assert!(net.run_space().is_some());
        let path = tmp("net-relabeled-eager");
        write_network(&path, "rel", &net).unwrap();
        let mapped = read_network(&path, "rel").unwrap();
        // The eager path (`WAKEUP_STORE_NO_MMAP=1` semantics) re-derives
        // every payload checksum and must produce the same network, run
        // space included.
        let f = StoreFile::open_with(&path, kind::NETWORK, "rel", wakeup_store::MapMode::Eager)
            .unwrap();
        assert!(!f.is_mapped());
        f.verify_all().unwrap();
        let eager = decode_network(&f).unwrap();
        assert_eq!(mapped, eager);
        assert_eq!(
            *mapped.run_space().unwrap().tables,
            *eager.run_space().unwrap().tables
        );
        assert_eq!(
            mapped.run_space().unwrap().rel,
            eager.run_space().unwrap().rel
        );
        assert_eq!(
            network_file_bytes("rel", &mapped),
            network_file_bytes("rel", &eager)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn network_bake_is_byte_stable() {
        for (label, net) in nets() {
            let a = network_file_bytes(label, &net);
            let b = network_file_bytes(label, &net);
            assert_eq!(a, b, "{label}");
        }
    }

    #[test]
    fn advice_round_trip_all_lengths() {
        // Lengths straddling word boundaries, plus empty advice.
        let mut advice = Vec::new();
        for (i, len) in [0usize, 1, 63, 64, 65, 128, 130, 7].into_iter().enumerate() {
            let mut s = BitStr::new();
            for j in 0..len {
                s.push_bool((i + j) % 3 == 0);
            }
            advice.push(s);
        }
        let path = tmp("advice");
        write_advice(&path, "adv:test", &advice).unwrap();
        let back = read_advice(&path, "adv:test").unwrap();
        assert_eq!(back.len(), advice.len());
        for (a, b) in advice.iter().zip(&back) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_kind_fails_closed() {
        let (_, net) = nets().remove(0);
        let path = tmp("kindmix");
        write_network(&path, "k", &net).unwrap();
        let err = read_advice(&path, "k").unwrap_err();
        assert!(matches!(err, StoreError::WrongKind { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_section_table_fails_closed_at_open() {
        // A flipped byte inside the section table (here: the first section
        // entry's stored checksum, right after the 64-byte header) breaks
        // the table hash, so even the mmap fast path refuses at open.
        let (_, net) = nets().remove(0);
        let path = tmp("corrupt-table");
        write_network(&path, "k", &net).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[64 + 16] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_network(&path, "k").unwrap_err();
        assert!(matches!(err, StoreError::TableChecksum { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_network_payload_fails_closed_on_eager_path() {
        // Payload flips leave the section table intact, so the structural
        // open succeeds; the eager (non-mmap) path re-derives every payload
        // checksum and must catch the flip.
        let (_, net) = nets().remove(0);
        let path = tmp("corrupt-payload");
        write_network(&path, "k", &net).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 128; // inside some payload section
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let f = StoreFile::open_with(&path, kind::NETWORK, "k", wakeup_store::MapMode::Eager)
            .expect("structural open succeeds — the section table is intact");
        assert!(!f.is_mapped());
        let err = f.verify_all().unwrap_err();
        assert!(matches!(err, StoreError::SectionChecksum { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Baking under a parallel table build must produce the same bytes as
    /// a serial bake: the tables are byte-identical at any thread count
    /// (pinned separately), so the file image is too.
    #[test]
    fn bake_is_thread_count_invariant() {
        let g = generators::erdos_renyi_connected(80, 0.1, 4).unwrap();
        let net = Network::kt1(g, 4);
        let serial = {
            let fresh = net.clone();
            fresh.preset_tables(crate::network::NodeTables::build_with_threads(&fresh, 1));
            network_file_bytes("threads", &fresh)
        };
        let parallel = {
            let fresh = net.clone();
            fresh.preset_tables(crate::network::NodeTables::build_with_threads(&fresh, 4));
            network_file_bytes("threads", &fresh)
        };
        assert_eq!(serial, parallel);
    }
}
