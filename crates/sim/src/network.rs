//! The [`Network`]: a topology bundled with the adversary's static choices.

use std::sync::{Arc, OnceLock};

use wakeup_graph::rng::Xoshiro256;
use wakeup_graph::{Graph, NodeId, Relabeling};

use wakeup_store::{Buf, SectionElem};

use crate::knowledge::{IdAssignment, KnowledgeMode, Port, PortAssignment};

/// A network instance: graph topology plus the adversary's ID assignment and
/// port mappings, under a fixed knowledge mode.
///
/// Everything here is decided *before* the execution starts (the paper's
/// oblivious adversary): the engines never mutate a `Network`.
#[derive(Debug, Clone)]
pub struct Network {
    graph: Graph,
    ports: PortAssignment,
    ids: IdAssignment,
    mode: KnowledgeMode,
    /// Engine lookup tables, derived lazily on first engine construction and
    /// shared (via `Arc`) by every subsequent engine over this network —
    /// including clones, since cloning a populated cell clones the `Arc`.
    tables: OnceLock<Arc<NodeTables>>,
    /// Locality-ordered run space (RCM relabeling + run-space tables),
    /// derived lazily like `tables`. `None` once computed means relabeled
    /// execution is off for this network: the RCM order came out as the
    /// identity, the node count fell outside the eligible range, or
    /// `WAKEUP_RELABEL=0` disabled it.
    run_space: OnceLock<Option<Arc<RunSpace>>>,
    /// Set by [`Network::force_relabel`] to bypass the [`MIN_RELABEL_N`]
    /// size heuristic. Shared by clones, like the lazy cells above — the
    /// run space is a pure function of the network plus this opt-in.
    relabel_forced: Arc<std::sync::atomic::AtomicBool>,
}

impl Network {
    /// A KT0 network with uniformly random, mutually independent port
    /// mappings (the distribution used by the Theorem 1 lower bound) and
    /// identity IDs.
    pub fn kt0(graph: Graph, seed: u64) -> Network {
        let mut rng = Xoshiro256::seed_from(seed);
        let ports = PortAssignment::random(&graph, &mut rng);
        let ids = IdAssignment::identity(graph.n());
        Network {
            graph,
            ports,
            ids,
            mode: KnowledgeMode::Kt0,
            tables: OnceLock::new(),
            run_space: OnceLock::new(),
            relabel_forced: Arc::default(),
        }
    }

    /// A KT1 network with random IDs (a permutation of `0..n`, matching the
    /// Theorem 2 distribution) and canonical ports (ports are invisible to
    /// KT1 algorithms anyway).
    pub fn kt1(graph: Graph, seed: u64) -> Network {
        let mut rng = Xoshiro256::seed_from(seed);
        let n = graph.n();
        let ports = PortAssignment::canonical(&graph);
        let ids = IdAssignment::random_permutation(n, &mut rng);
        Network {
            graph,
            ports,
            ids,
            mode: KnowledgeMode::Kt1,
            tables: OnceLock::new(),
            run_space: OnceLock::new(),
            relabel_forced: Arc::default(),
        }
    }

    /// Full control over every adversarial choice.
    pub fn with_parts(
        graph: Graph,
        ports: PortAssignment,
        ids: IdAssignment,
        mode: KnowledgeMode,
    ) -> Network {
        assert_eq!(ids.len(), graph.n(), "ID assignment must cover all nodes");
        Network {
            graph,
            ports,
            ids,
            mode,
            tables: OnceLock::new(),
            run_space: OnceLock::new(),
            relabel_forced: Arc::default(),
        }
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The port mappings.
    pub fn ports(&self) -> &PortAssignment {
        &self.ports
    }

    /// The ID assignment.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The knowledge mode.
    pub fn mode(&self) -> KnowledgeMode {
        self.mode
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Looks up the node with the given network ID (linear scan; intended
    /// for tests and report post-processing, not hot paths).
    pub fn node_with_id(&self, id: u64) -> Option<NodeId> {
        (0..self.n())
            .map(NodeId::new)
            .find(|&v| self.ids.id(v) == id)
    }

    /// The engine lookup tables, built on first use and cached. Concurrent
    /// first calls may race to build, but every caller observes the same
    /// winning `Arc` and the tables are a pure function of the network, so
    /// duplicates are merely discarded work.
    pub(crate) fn tables(&self) -> &Arc<NodeTables> {
        self.tables
            .get_or_init(|| Arc::new(NodeTables::build(self)))
    }

    /// Installs tables reloaded from the persistent artifact store, so the
    /// first engine over a baked network skips the derivation entirely. A
    /// no-op if the cell is already populated (the tables are a pure
    /// function of the network either way).
    pub(crate) fn preset_tables(&self, tables: NodeTables) {
        let _ = self.tables.set(Arc::new(tables));
    }

    /// The locality-ordered run space (RCM relabeling plus run-space
    /// tables), built on first use and cached exactly like
    /// [`Network::tables`]. Returns `None` when relabeled execution is a
    /// no-op or unavailable for this network: the RCM order is the
    /// identity, `n` exceeds [`MAX_RELABEL_N`] (the engines' packed
    /// sort-key budget), `n` is below [`MIN_RELABEL_N`] without a force
    /// ([`Network::force_relabel`] or `WAKEUP_RELABEL=1`), or
    /// `WAKEUP_RELABEL=0` is set.
    pub(crate) fn run_space(&self) -> Option<&Arc<RunSpace>> {
        self.run_space
            .get_or_init(|| {
                if self.n() < 2 || self.n() > MAX_RELABEL_N || relabel_disabled_by_env() {
                    return None;
                }
                let forced = self
                    .relabel_forced
                    .load(std::sync::atomic::Ordering::Relaxed)
                    || relabel_forced_by_env();
                if self.n() < MIN_RELABEL_N && !forced {
                    return None;
                }
                let rel = Relabeling::locality(&self.graph);
                if rel.is_identity() {
                    return None;
                }
                let rel = Arc::new(rel);
                let tables = Arc::new(NodeTables::build_relabeled(self, &rel));
                Some(Arc::new(RunSpace { rel, tables }))
            })
            .as_ref()
    }

    /// Installs a run space reloaded from the persistent artifact store
    /// (the counterpart of [`Network::preset_tables`] for relabeled bakes).
    pub(crate) fn preset_run_space(&self, rel: Relabeling, tables: NodeTables) {
        let _ = self.run_space.set(Some(Arc::new(RunSpace {
            rel: Arc::new(rel),
            tables: Arc::new(tables),
        })));
    }

    /// Forces identity execution on this network by pre-empting the lazy
    /// run-space cell with `None`. Only effective before the first engine
    /// touches the network; used by the relabeled-vs-identity differential
    /// tests (and harmless to call later — the cell just keeps whatever it
    /// already holds).
    pub fn disable_relabel(&self) {
        let _ = self.run_space.set(None);
    }

    /// Opts this network into relabeled execution regardless of the
    /// [`MIN_RELABEL_N`] size heuristic (the `n`-range and env gates still
    /// apply). Only effective before the first engine touches the network;
    /// used by the relabeled-vs-identity differential tests and the
    /// relabeled-bake round-trip tests, which need run spaces on networks
    /// far too small to clear the default threshold.
    pub fn force_relabel(&self) {
        self.relabel_forced
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Bits of a relabeled run's packed entry key that hold the original
/// sender index (the low field; see [`pack_entry_key`]).
pub(crate) const FROM_IDX_BITS: u32 = 20;

/// Mask extracting the original sender index from a packed entry key.
/// Identity runs store the plain sender index in the same field and use a
/// mask of `u32::MAX`, so one masked load serves both paths.
pub(crate) const FROM_IDX_MASK: u32 = (1 << FROM_IDX_BITS) - 1;

/// Largest node count eligible for relabeled execution: the engines
/// canonicalize per-receiver delivery order with a packed `u32` sort key
/// that reserves [`FROM_IDX_BITS`] bits for the original sender index.
pub(crate) const MAX_RELABEL_N: usize = 1 << FROM_IDX_BITS;

/// Smallest node count where relabeled execution is on by default.
///
/// Relabeling trades a per-delivery cost (packing/sorting the entry keys
/// that restore identity delivery order, plus the boundary translation)
/// for cache locality in the table walks. Below this threshold the hot
/// tables of a sparse network fit comfortably in cache, so there is no
/// locality win to buy and the overhead shows up as a straight throughput
/// loss; above it the win dominates (the 10⁶-node flood runs ~1.5× faster
/// relabeled). `WAKEUP_RELABEL=1` or [`Network::force_relabel`] overrides
/// the heuristic for differential tests and experiments.
pub(crate) const MIN_RELABEL_N: usize = 1 << 18;

/// The packed `from` field of a relabeled run's pending-delivery entry.
///
/// Identity engines process a tick's deliveries as one batch per receiver
/// in bucket-insertion (= chronological send) order, which is
/// `(send tick, engine phase, original actor, outbox position)`-ascending.
/// A relabeled run inserts in *run* order, so each per-receiver batch is
/// stable-sorted by this key before delivery, restoring exactly that
/// order: for a fixed delivery tick, ascending `τ − Δ` (Δ = delivery −
/// send ∈ [1, τ], guaranteed by the wheel-horizon invariant) is ascending
/// send tick; then the phase bit; then the original sender index. Entries
/// with equal keys come from one handler invocation and stable sorting
/// keeps their outbox order.
#[inline]
pub(crate) fn pack_entry_key(delta_ticks: u64, phase: u8, orig_from: u32) -> u32 {
    debug_assert!((1..=crate::metrics::TICKS_PER_UNIT).contains(&delta_ticks));
    debug_assert!(orig_from <= FROM_IDX_MASK && phase <= 1);
    (((crate::metrics::TICKS_PER_UNIT - delta_ticks) as u32) << (FROM_IDX_BITS + 1))
        | (u32::from(phase) << FROM_IDX_BITS)
        | orig_from
}

/// Translates a relabeled run's report back into original-id space at the
/// run boundary: one inverse-permute pass over every per-node array plus
/// the canonical re-sort of the phase-span table. Scalar metrics and
/// histograms are order/space-invariant and need no translation.
pub(crate) fn unpermute_report(rel: &Relabeling, report: &mut crate::metrics::RunReport) {
    rel.permute_to_orig(&mut report.outputs);
    rel.permute_to_orig(&mut report.metrics.wake_tick);
    rel.permute_to_orig(&mut report.metrics.sent_by);
    rel.permute_to_orig(&mut report.metrics.received_by);
    if let Some(ports) = report.metrics.ports_used.as_mut() {
        rel.permute_to_orig(ports);
    }
    let mut wake_pred = report.obs.take_wake_pred();
    rel.permute_to_orig(&mut wake_pred);
    report.obs.set_wake_pred(wake_pred);
    report.obs.phases.finish_key_order();
}

pub(crate) fn relabel_disabled_by_env() -> bool {
    std::env::var("WAKEUP_RELABEL").is_ok_and(|v| v.trim() == "0")
}

/// `WAKEUP_RELABEL=1` forces relabeled execution on every eligible network
/// regardless of the [`MIN_RELABEL_N`] size heuristic.
pub(crate) fn relabel_forced_by_env() -> bool {
    std::env::var("WAKEUP_RELABEL").is_ok_and(|v| v.trim() == "1")
}

/// A network's locality-ordered execution space: the RCM [`Relabeling`]
/// and the [`NodeTables`] rebuilt over run-space ids. Engines that pass
/// the relabel-eligibility gate run entirely in this space and translate
/// back to original ids at the metrics/obs boundary.
#[derive(Debug)]
pub(crate) struct RunSpace {
    pub rel: Arc<Relabeling>,
    pub tables: Arc<NodeTables>,
}

/// Two networks are equal when all adversarial choices agree: topology,
/// port mappings, ID assignment, and knowledge mode. The derived engine
/// tables are a pure function of those parts and are deliberately excluded
/// (a baked reload with pre-populated tables equals its cold-built twin).
impl PartialEq for Network {
    fn eq(&self, other: &Network) -> bool {
        self.graph == other.graph
            && self.ports == other.ports
            && self.ids == other.ids
            && self.mode == other.mode
    }
}

/// Borrowed-or-shared handle to a [`Network`], so the engines accept either
/// a plain reference (the classic entry points) or an `Arc` from an artifact
/// cache without cloning the topology in either case.
#[derive(Debug)]
pub(crate) enum NetHandle<'n> {
    /// Borrows a caller-owned network.
    Borrowed(&'n Network),
    /// Co-owns a cache-shared network (the `'static` case).
    Shared(Arc<Network>),
}

impl std::ops::Deref for NetHandle<'_> {
    type Target = Network;

    fn deref(&self) -> &Network {
        match self {
            NetHandle::Borrowed(net) => net,
            NetHandle::Shared(net) => net,
        }
    }
}

/// Engine-side lookup tables derived from a network (shared by both engines).
///
/// Besides the KT1 ID tables, this holds a *dense directed-edge index*: every
/// (node, port) pair gets a contiguous slot `edge_offset[v] + port - 1`, so
/// per-channel state (FIFO horizons, channel sequence numbers, port-usage
/// bits) lives in flat arrays instead of hash maps, and the receiver-side
/// port of every channel is precomputed instead of binary-searched per
/// delivery.
/// All buffers are flat and CSR-indexed by `edge_offset` — no per-node
/// `Vec`s. That keeps construction at a handful of allocations total
/// (the KT1 build used to pay ~2 heap allocations per node), and it is
/// what lets the persistent artifact store serve the large buffers as
/// zero-copy mmap views on reload (only the small KT1 `id_to_port`
/// pairing is copied, because a tuple has no store-viewable layout).
///
/// The fields are split hot/cold by access pattern: `edge_offset` and
/// `edge_hot` are touched once per *message* (every dispatch resolves
/// `(sender, port)` to the receiver and its reverse port), while
/// `neighbor_ids`/`id_to_port` are setup- and wake-time-only (KT1 node
/// initialization and ID-addressed sends). Interleaving the per-send pair
/// into [`EdgeHot`] means one cache line serves both lookups that used to
/// straddle two parallel arrays.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeTables {
    /// Degree prefix sums: node `v`'s directed-edge slots are
    /// `edge_offset[v] .. edge_offset[v + 1]` (length `n + 1`).
    pub edge_offset: Buf<usize>,
    /// `edge_hot[slot(v, p)]` = the per-send hot pair: the dense index of
    /// the neighbor reached from `v` via port `p` (the flat form of
    /// [`PortAssignment::neighbor`]) and the 1-based port at the
    /// *receiving* endpoint over which that neighbor sees `v` (the flat
    /// form of [`PortAssignment::port_to`]).
    pub edge_hot: Buf<EdgeHot>,
    /// Node `v`'s sorted neighbor IDs at `edge_offset[v]..edge_offset[v+1]`
    /// (fully empty under KT0); read via [`Self::neighbor_ids`].
    neighbor_ids: Buf<u64>,
    /// Node `v`'s sorted `(neighbor id, port)` pairs in the same ranges
    /// (fully empty under KT0 — KT0 contexts refuse ID addressing anyway);
    /// read via [`Self::id_to_port`].
    id_to_port: Vec<(u64, Port)>,
}

/// The per-directed-edge fields every message dispatch touches, interleaved
/// so one cache-line fetch resolves both. Stored by the artifact store as
/// one interleaved `u32` section (`to, rport, to, rport, …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct EdgeHot {
    /// Dense index of the neighbor reached over this slot's port.
    pub to: u32,
    /// 1-based port at the receiving endpoint (the paper's `port_to`).
    pub rport: u32,
}

// Compile-time witnesses for the SectionElem layout contract below.
const _: () = assert!(std::mem::size_of::<EdgeHot>() == 8);
const _: () = assert!(std::mem::align_of::<EdgeHot>() == 4);

// SAFETY: `EdgeHot` is `repr(C)` over two `u32`s — 8 bytes, align 4, no
// padding or niches, and its in-memory little-endian representation is
// exactly the two interleaved `u32`s the store writes (asserted above).
#[allow(unsafe_code)]
unsafe impl SectionElem for EdgeHot {
    const WIDTH: u32 = 4;
    const ELEMS: usize = 2;
}

/// Node count below which table builds stay sequential: spawning threads
/// costs more than the fill saves.
const PARALLEL_BUILD_MIN_N: usize = 50_000;

/// Worker threads for a table build over `n` nodes: one below
/// [`PARALLEL_BUILD_MIN_N`], otherwise the machine's available parallelism.
/// The tables are byte-identical at any count, so this only moves speed.
fn build_threads(n: usize) -> usize {
    if n < PARALLEL_BUILD_MIN_N {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }
}

impl NodeTables {
    pub(crate) fn build(net: &Network) -> NodeTables {
        Self::build_in_space(net, build_threads(net.n()), None)
    }

    /// Run-space tables: row `r` describes original node `rel.to_orig(r)`,
    /// with every neighbor index translated into run space. Content that
    /// engines expose verbatim (neighbor IDs, reverse ports, `id_to_port`)
    /// is per-node-invariant and carried over untranslated.
    pub(crate) fn build_relabeled(net: &Network, rel: &Relabeling) -> NodeTables {
        Self::build_in_space(net, build_threads(net.n()), Some(rel))
    }

    /// Builds the tables in `O(n + m)` time and `O(n)` words of scratch,
    /// from the port assignment's reverse rows (`v`'s neighbors in
    /// increasing order, each with the port at `v` that leads there). Each
    /// table takes one sequential sweep that ranks every directed edge with
    /// one counter per node, parking the rank in the edge's own slot of an
    /// output buffer, then a gather over rows (parallel over `threads`)
    /// that turns the ranks into the final entries:
    ///
    /// * `edge_hot`: sweeping `u = 0, 1, …`, the number of times a
    ///   neighbor `w` has been seen is `u`'s position in `w`'s sorted
    ///   reverse row, which holds the port at `w` leading back to `u` — no
    ///   binary search.
    /// * KT1 `id_to_port`/`neighbor_ids`: sweeping `u` in ID order, the
    ///   number of times `w` has been seen is `u`'s position in `w`'s
    ///   ID-sorted row — no per-node sort. IDs are arbitrary distinct
    ///   `u64`s, so the nodes are sorted by ID once.
    ///
    /// The tables are byte-identical at any `threads` (see [`fill_rows`]).
    pub(crate) fn build_in_space(
        net: &Network,
        threads: usize,
        rel: Option<&Relabeling>,
    ) -> NodeTables {
        let n = net.n();
        let run = |v: usize| rel.map_or(v, |rel| rel.to_run(v));
        let orig = |r: usize| rel.map_or(r, |rel| rel.to_orig(r));
        let (port_offsets, _, reverse) = net.ports().raw_parts();
        let mut edge_offset = Vec::with_capacity(n + 1);
        edge_offset.push(0usize);
        for r in 0..n {
            let v = orig(r);
            edge_offset.push(edge_offset[r] + port_offsets[v + 1] - port_offsets[v]);
        }
        let dir_edges = edge_offset[n];
        let node_u32 = |v: usize| u32::try_from(v).expect("node index fits u32");

        // Slot (u, p) parks `{ to: w, rport: u's position in w's row }`.
        let mut edge_hot = vec![EdgeHot { to: 0, rport: 0 }; dir_edges];
        let mut seen = vec![0u32; n];
        for u in 0..n {
            let row = edge_offset[run(u)];
            for e in &reverse[port_offsets[u]..port_offsets[u + 1]] {
                let w = e.id.index();
                edge_hot[row + e.port.index()] = EdgeHot {
                    to: node_u32(w),
                    rport: seen[w],
                };
                seen[w] += 1;
            }
        }
        fill_rows(threads, &edge_offset, &mut edge_hot, |rows, hot| {
            let first = edge_offset[rows.start];
            for r in rows {
                for e in &mut hot[edge_offset[r] - first..edge_offset[r + 1] - first] {
                    let w = e.to as usize;
                    let back = reverse[port_offsets[w] + e.rport as usize];
                    debug_assert_eq!(back.id.index(), orig(r), "port maps are symmetric");
                    *e = EdgeHot {
                        to: node_u32(run(w)),
                        rport: back.port.number() as u32,
                    };
                }
            }
        });

        let mut neighbor_ids = Vec::new();
        let mut id_to_port = Vec::new();
        if net.mode() == KnowledgeMode::Kt1 {
            let ids = net.ids().as_slice();
            let mut by_id: Vec<u32> = (0..node_u32(n)).collect();
            by_id.sort_unstable_by_key(|&v| ids[v as usize]);
            // Slot (u, p) parks u's position in the ID-sorted row of the
            // neighbor behind p (`neighbor_ids` is overwritten below).
            neighbor_ids = vec![0u64; dir_edges];
            let mut ranked = vec![0u32; n];
            for &u in &by_id {
                let ru = run(u as usize);
                for slot in edge_offset[ru]..edge_offset[ru + 1] {
                    let r = edge_hot[slot].to as usize;
                    neighbor_ids[slot] = u64::from(ranked[r]);
                    ranked[r] += 1;
                }
            }
            id_to_port = vec![(0u64, Port::new(1)); dir_edges];
            fill_rows(threads, &edge_offset, &mut id_to_port, |rows, pairs| {
                let first = edge_offset[rows.start];
                for r in rows {
                    let row = edge_offset[r];
                    for (i, e) in edge_hot[row..edge_offset[r + 1]].iter().enumerate() {
                        let u = e.to as usize;
                        let rank = neighbor_ids[edge_offset[u] + e.rport as usize - 1];
                        pairs[row - first + rank as usize] = (ids[orig(u)], Port::new(i + 1));
                    }
                }
            });
            for (id, &(pair_id, _)) in neighbor_ids.iter_mut().zip(&id_to_port) {
                *id = pair_id;
            }
        }
        NodeTables {
            edge_offset: edge_offset.into(),
            edge_hot: edge_hot.into(),
            neighbor_ids: neighbor_ids.into(),
            id_to_port,
        }
    }

    /// The directed-edge slot of `(v, port)`.
    #[inline]
    pub(crate) fn slot(&self, v: NodeId, port: Port) -> usize {
        self.edge_offset[v.index()] + port.index()
    }

    /// Total number of directed edges (= sum of degrees = 2m).
    pub(crate) fn directed_edges(&self) -> usize {
        *self.edge_offset.last().expect("offsets are non-empty")
    }

    /// Sorted neighbor IDs of node `v` (empty under KT0).
    #[inline]
    pub(crate) fn neighbor_ids(&self, v: usize) -> &[u64] {
        if self.neighbor_ids.is_empty() {
            return &[];
        }
        &self.neighbor_ids[self.edge_offset[v]..self.edge_offset[v + 1]]
    }

    /// Sorted `(neighbor id, port)` pairs of node `v` (empty under KT0).
    #[inline]
    pub(crate) fn id_to_port(&self, v: usize) -> &[(u64, Port)] {
        if self.id_to_port.is_empty() {
            return &[];
        }
        &self.id_to_port[self.edge_offset[v]..self.edge_offset[v + 1]]
    }

    /// The flat KT1 buffers `(neighbor_ids, id_to_port)`, consumed by the
    /// persistent artifact store (both empty under KT0).
    pub(crate) fn raw_id_tables(&self) -> (&[u64], &[(u64, Port)]) {
        (&self.neighbor_ids, &self.id_to_port)
    }

    /// Reassembles tables from store-loaded flat buffers (owned or
    /// zero-copy views). Structural consistency is debug-asserted; deeper
    /// invariants held when the artifact was baked from a valid build.
    pub(crate) fn from_raw_parts(
        edge_offset: Buf<usize>,
        edge_hot: Buf<EdgeHot>,
        neighbor_ids: Buf<u64>,
        id_to_port: Vec<(u64, Port)>,
    ) -> NodeTables {
        debug_assert!(!edge_offset.is_empty());
        let dir_edges = *edge_offset.last().unwrap();
        debug_assert_eq!(edge_hot.len(), dir_edges);
        debug_assert!(neighbor_ids.len() == dir_edges || neighbor_ids.is_empty());
        debug_assert_eq!(neighbor_ids.len(), id_to_port.len());
        NodeTables {
            edge_offset,
            edge_hot,
            neighbor_ids,
            id_to_port,
        }
    }
}

/// Runs `fill(rows, part)` over contiguous chunks of the row range
/// `0..offsets.len() - 1`, one scoped worker per chunk, where `part` is the
/// slice of `buf` holding those rows' slots (`offsets[rows.start] ..
/// offsets[rows.end]`). A row's bytes depend only on shared read-only
/// inputs, never on the chunking, so the output is the same at any thread
/// count.
fn fill_rows<T: Send>(
    threads: usize,
    offsets: &[usize],
    buf: &mut [T],
    fill: impl Fn(std::ops::Range<usize>, &mut [T]) + Sync,
) {
    let n = offsets.len() - 1;
    if threads <= 1 || n < 2 {
        fill(0..n, buf);
        return;
    }
    let chunk = n.div_ceil(threads.min(n));
    let fill = &fill;
    std::thread::scope(|scope| {
        let mut rest = buf;
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let (part, tail) = rest.split_at_mut(offsets[hi] - offsets[lo]);
            scope.spawn(move || fill(lo..hi, part));
            rest = tail;
            lo = hi;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::generators;

    #[test]
    fn kt0_network_parts() {
        let net = Network::kt0(generators::cycle(6).unwrap(), 1);
        assert_eq!(net.mode(), KnowledgeMode::Kt0);
        assert_eq!(net.n(), 6);
        assert_eq!(net.ids().id(NodeId::new(2)), 2);
    }

    #[test]
    fn kt1_ids_are_permuted() {
        let net = Network::kt1(generators::path(40).unwrap(), 5);
        assert_eq!(net.mode(), KnowledgeMode::Kt1);
        let identity = (0..40).all(|v| net.ids().id(NodeId::new(v)) == v as u64);
        assert!(
            !identity,
            "a random permutation of 40 IDs should not be the identity"
        );
    }

    #[test]
    fn node_with_id_roundtrip() {
        let net = Network::kt1(generators::star(10).unwrap(), 3);
        for v in net.graph().nodes() {
            let id = net.ids().id(v);
            assert_eq!(net.node_with_id(id), Some(v));
        }
        assert_eq!(net.node_with_id(999), None);
    }

    /// A KT1 network with random ports and IDs that are not `0..n`
    /// (`1000·v + 7`, shuffled): the ID-order sweep must sort real keys,
    /// not assume a permutation.
    fn sparse_ids_network(g: Graph, seed: u64) -> Network {
        let mut rng = Xoshiro256::seed_from(seed);
        let ports = PortAssignment::random(&g, &mut rng);
        let mut ids: Vec<u64> = (0..g.n() as u64).map(|v| 1000 * v + 7).collect();
        rng.shuffle(&mut ids);
        Network::with_parts(g, ports, IdAssignment::from_vec(ids), KnowledgeMode::Kt1)
    }

    #[test]
    fn parallel_table_build_is_byte_identical() {
        // The parallel fill must be indistinguishable from the sequential
        // one at every thread count, including counts that don't divide n,
        // in original and in run space.
        let g = generators::erdos_renyi_connected(97, 0.1, 11).unwrap();
        let nets = [
            Network::kt0(g.clone(), 11),
            Network::kt1(g.clone(), 11),
            sparse_ids_network(g, 11),
        ];
        for net in nets {
            let mode = net.mode();
            let rel = Relabeling::locality(net.graph());
            assert!(!rel.is_identity(), "fixture must relabel");
            for space in [None, Some(&rel)] {
                let seq = NodeTables::build_in_space(&net, 1, space);
                for threads in [2usize, 3, 7, 128] {
                    let par = NodeTables::build_in_space(&net, threads, space);
                    assert_eq!(seq, par, "{mode:?} {threads} {}", space.is_some());
                }
            }
        }
    }

    #[test]
    fn parallel_table_build_is_byte_identical_for_new_families() {
        // Same guarantee over the scenario corpus's structured families:
        // the 4-regular torus (uniform degrees — even work split) and the
        // power-law family (hub nodes — maximally skewed work split).
        use wakeup_graph::families::{PowerLaw, Torus};
        let graphs = [
            Torus::new(6, 8).unwrap().graph().clone(),
            PowerLaw::new(80, 3, 5).unwrap().graph().clone(),
        ];
        for g in graphs {
            for kt1 in [false, true] {
                let net = if kt1 {
                    Network::kt1(g.clone(), 9)
                } else {
                    Network::kt0(g.clone(), 9)
                };
                let mode = net.mode();
                let seq = NodeTables::build_in_space(&net, 1, None);
                for threads in [2usize, 3, 7, 128] {
                    let par = NodeTables::build_in_space(&net, threads, None);
                    assert_eq!(seq, par, "{mode:?} {threads}");
                }
            }
        }
    }

    /// Checks `tables` (run space when `rel` is set) against the port
    /// maps walked port by port: each slot's neighbor and `port_to`, and
    /// each KT1 row gathered and sorted per node.
    fn assert_tables_match_ports(net: &Network, tables: &NodeTables, rel: Option<&Relabeling>) {
        let run = |v: NodeId| rel.map_or(v.index(), |rel| rel.to_run(v.index()));
        assert_eq!(tables.edge_offset.len(), net.n() + 1);
        let m2: usize = net.graph().nodes().map(|v| net.graph().degree(v)).sum();
        assert_eq!(tables.directed_edges(), m2);
        assert_eq!(tables.edge_hot.len(), m2);
        for v in net.graph().nodes() {
            let r = run(v);
            let deg = net.graph().degree(v);
            assert_eq!(tables.edge_offset[r + 1] - tables.edge_offset[r], deg);
            let mut row = Vec::new();
            for p in 1..=deg {
                let port = Port::new(p);
                let slot = tables.slot(NodeId::new(r), port);
                let w = net.ports().neighbor(v, port);
                assert_eq!(tables.edge_hot[slot].to as usize, run(w));
                let back = net.ports().port_to(w, v).unwrap();
                assert_eq!(tables.edge_hot[slot].rport as usize, back.number());
                // The reverse slot maps back: following rport from w
                // must reach v again.
                let back_slot = tables.slot(NodeId::new(run(w)), back);
                assert_eq!(tables.edge_hot[back_slot].to as usize, r);
                row.push((net.ids().id(w), port));
            }
            if net.mode() == KnowledgeMode::Kt0 {
                row.clear();
            }
            row.sort_unstable_by_key(|&(id, _)| id);
            let ids: Vec<u64> = row.iter().map(|&(id, _)| id).collect();
            assert_eq!(tables.id_to_port(r), &row[..], "{v:?}");
            assert_eq!(tables.neighbor_ids(r), &ids[..], "{v:?}");
        }
    }

    #[test]
    fn edge_index_matches_port_assignment() {
        // Random KT0 ports are the adversarial case: slots must agree with
        // the (permuted) port maps, not with neighbor order. KT1 rows are
        // checked too, with canonical and with random ports; the smallest
        // networks and a dense one cover the edges of the sweeps.
        let mut nets = Vec::new();
        for seed in 0..4 {
            let g = generators::erdos_renyi_connected(24, 0.25, seed).unwrap();
            nets.push(Network::kt0(g.clone(), seed));
            nets.push(Network::kt1(g.clone(), seed));
            nets.push(sparse_ids_network(g, seed));
        }
        for g in [
            generators::path(1).unwrap(),
            generators::path(2).unwrap(),
            generators::complete(192).unwrap(),
        ] {
            nets.push(Network::kt0(g.clone(), 5));
            nets.push(Network::kt1(g, 5));
        }
        let mut relabeled = 0;
        for net in &nets {
            assert_tables_match_ports(net, &NodeTables::build(net), None);
            let rel = Relabeling::locality(net.graph());
            if !rel.is_identity() {
                relabeled += 1;
                let tables = NodeTables::build_relabeled(net, &rel);
                assert_tables_match_ports(net, &tables, Some(&rel));
            }
        }
        assert!(relabeled >= 12, "run space covered on {relabeled} networks");
    }

    #[test]
    fn edge_index_slots_are_dense_and_disjoint() {
        let net = Network::kt1(generators::star(7).unwrap(), 2);
        let tables = NodeTables::build(&net);
        // Star: hub degree 6, leaves degree 1 => slots 0..6 hub, then one each.
        assert_eq!(&tables.edge_offset[..], &[0, 6, 7, 8, 9, 10, 11, 12]);
        let mut seen = std::collections::HashSet::new();
        for v in net.graph().nodes() {
            for p in 1..=net.graph().degree(v) {
                assert!(seen.insert(tables.slot(v, Port::new(p))));
            }
        }
        assert_eq!(seen.len(), tables.directed_edges());
    }

    #[test]
    #[should_panic(expected = "cover all nodes")]
    fn mismatched_ids_rejected() {
        let g = generators::path(3).unwrap();
        let ports = PortAssignment::canonical(&g);
        let ids = IdAssignment::identity(2);
        Network::with_parts(g, ports, ids, KnowledgeMode::Kt0);
    }
}
