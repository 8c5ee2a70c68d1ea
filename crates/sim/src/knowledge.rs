//! Initial-knowledge models: KT0 port mappings and KT1 neighbor IDs.

use std::fmt;

use wakeup_graph::rng::Xoshiro256;
use wakeup_graph::{Graph, NodeId};
use wakeup_store::{Buf, SectionElem};

/// A port number at some node, in `1..=deg(v)` (the paper numbers ports from
/// 1; we follow that convention in the public API).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Port(u32);

impl Port {
    /// Creates a port from a 1-based number.
    ///
    /// # Panics
    ///
    /// Panics for `number == 0`.
    pub fn new(number: usize) -> Port {
        assert!(number >= 1, "ports are numbered from 1");
        Port(u32::try_from(number).expect("port number exceeds u32"))
    }

    /// The 1-based port number.
    pub fn number(self) -> usize {
        self.0 as usize
    }

    /// 0-based index into a node's port table.
    pub fn index(self) -> usize {
        self.0 as usize - 1
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One entry of the reverse port table: neighbor `id` is reached back via
/// `port`. Stored `#[repr(C)]` as two little-endian `u32`s so the persistent
/// store can serve the whole table as a zero-copy view of one interleaved
/// `u32` section (a `(NodeId, Port)` tuple has no guaranteed layout, so it
/// cannot be viewed directly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct PortEntry {
    pub(crate) id: NodeId,
    pub(crate) port: Port,
}

const _: () = assert!(std::mem::size_of::<PortEntry>() == 8);
const _: () = assert!(std::mem::align_of::<PortEntry>() == 4);

// SAFETY: `PortEntry` is `repr(C)` over two `repr(transparent)` `u32`
// newtypes — 8 bytes, align 4, no padding or niches, and its in-memory
// little-endian representation is exactly the two interleaved `u32`s the
// store writes (asserted above).
#[allow(unsafe_code)]
unsafe impl SectionElem for PortEntry {
    const WIDTH: u32 = 4;
    const ELEMS: usize = 2;
}

/// Which initial-knowledge assumption the network runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnowledgeMode {
    /// Port numbering only; nodes do not know who their ports lead to.
    Kt0,
    /// Every node knows its neighbors' IDs from the start.
    Kt1,
}

/// The adversary's port mapping for every node: a bijection
/// `port_v : [deg(v)] → N(v)` per node `v` (Section 1.1 of the paper).
///
/// Stored flat in CSR form (one `offsets` prefix-sum plus two dense
/// per-port buffers) rather than as `Vec<Vec<…>>`: the layout is two
/// allocations instead of `2n`, the slot arithmetic matches the engines'
/// edge-indexed state, and the persistent artifact store can serialize and
/// reload the buffers without any per-node walking.
#[derive(Debug, Clone, PartialEq)]
pub struct PortAssignment {
    // Node v's ports occupy slots offsets[v]..offsets[v + 1] (the graph's
    // degree prefix sums).
    offsets: Buf<usize>,
    // to_neighbor[offsets[v] + p - 1] = neighbor reached via port p at v.
    to_neighbor: Buf<NodeId>,
    // Node v's range is its sorted neighbor list, each neighbor with the
    // port leading to it: O(log deg) reverse lookup, and the sorted CSR the
    // engine tables are swept from in linear time.
    from_neighbor: Buf<PortEntry>,
}

impl PortAssignment {
    /// The canonical mapping: port `i` at `v` leads to `v`'s `i`-th smallest
    /// neighbor. Useful for deterministic tests.
    pub fn canonical(graph: &Graph) -> PortAssignment {
        Self::from_permutations(graph, |_, _| {})
    }

    /// A uniformly random mapping per node, mutually independent across
    /// nodes — the sampling step of the lower-bound distribution 𝒢.
    pub fn random(graph: &Graph, rng: &mut Xoshiro256) -> PortAssignment {
        Self::from_permutations(graph, |rng_slot, perm| {
            // Each node's permutation is drawn from a forked stream so the
            // mapping is independent of iteration order.
            rng.fork(rng_slot as u64 ^ 0x9E37_79B9).shuffle(perm);
        })
    }

    /// Builds the mapping in one pass over the sorted CSR: `shuffle(v,
    /// perm)` permutes `perm = 0..deg(v)` in place (one buffer reused for
    /// every node), and port `i + 1` at `v` then leads to `v`'s
    /// `perm[i]`-th smallest neighbor. Because the graph's neighbor lists
    /// are sorted, the reverse row comes out sorted by writing entry `i`
    /// at position `perm[i]` — no per-node sort.
    fn from_permutations(
        graph: &Graph,
        mut shuffle: impl FnMut(usize, &mut [usize]),
    ) -> PortAssignment {
        let (graph_offsets, adjacency, _) = graph.csr_parts();
        let total = adjacency.len();
        let mut to_neighbor = Vec::with_capacity(total);
        let mut from_neighbor = vec![
            PortEntry {
                id: NodeId::new(0),
                port: Port(1),
            };
            total
        ];
        let mut perm = Vec::new();
        for (v, bounds) in graph_offsets.windows(2).enumerate() {
            let (base, nbrs) = (bounds[0], &adjacency[bounds[0]..bounds[1]]);
            perm.clear();
            perm.extend(0..nbrs.len());
            shuffle(v, &mut perm);
            for (i, &j) in perm.iter().enumerate() {
                to_neighbor.push(nbrs[j]);
                from_neighbor[base + j] = PortEntry {
                    id: nbrs[j],
                    port: Port::new(i + 1),
                };
            }
        }
        PortAssignment {
            offsets: graph_offsets.to_vec().into(),
            to_neighbor: to_neighbor.into(),
            from_neighbor: from_neighbor.into(),
        }
    }

    /// Number of ports at `v` (= its degree).
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The neighbor reached from `v` via `port` — the paper's `port_v(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the port number exceeds `deg(v)`.
    pub fn neighbor(&self, v: NodeId, port: Port) -> NodeId {
        let range = &self.to_neighbor[self.offsets[v.index()]..self.offsets[v.index() + 1]];
        range[port.index()]
    }

    /// The port at `v` leading to neighbor `w` — the paper's `port_v⁻¹(w)`.
    ///
    /// Returns `None` if `w` is not a neighbor of `v`.
    pub fn port_to(&self, v: NodeId, w: NodeId) -> Option<Port> {
        let table = &self.from_neighbor[self.offsets[v.index()]..self.offsets[v.index() + 1]];
        table
            .binary_search_by_key(&w, |e| e.id)
            .ok()
            .map(|i| table[i].port)
    }

    /// Flat CSR parts `(offsets, to_neighbor, from_neighbor)`, consumed by
    /// the persistent artifact store.
    pub(crate) fn raw_parts(&self) -> (&[usize], &[NodeId], &[PortEntry]) {
        (&self.offsets, &self.to_neighbor, &self.from_neighbor)
    }

    /// Rebuilds the assignment from store-loaded CSR sections (owned or
    /// zero-copy views). The store layer guarantees structural integrity at
    /// open; the buffers were produced by a valid `PortAssignment` at bake
    /// time, so per-node bijectivity is only debug-asserted here.
    pub(crate) fn from_raw_parts(
        offsets: Buf<usize>,
        to_neighbor: Buf<NodeId>,
        from_neighbor: Buf<PortEntry>,
    ) -> PortAssignment {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), to_neighbor.len());
        debug_assert_eq!(to_neighbor.len(), from_neighbor.len());
        PortAssignment {
            offsets,
            to_neighbor,
            from_neighbor,
        }
    }
}

/// The adversary's assignment of network IDs (the paper's `id(u)`, unique
/// integers from a range polynomial in n).
#[derive(Debug, Clone, PartialEq)]
pub struct IdAssignment {
    id_of: Buf<u64>,
}

impl IdAssignment {
    /// Identity assignment: node `v` has ID `v`.
    pub fn identity(n: usize) -> IdAssignment {
        IdAssignment {
            id_of: (0..n as u64).collect::<Vec<_>>().into(),
        }
    }

    /// A random permutation of `0..n` as IDs.
    pub fn random_permutation(n: usize, rng: &mut Xoshiro256) -> IdAssignment {
        IdAssignment {
            id_of: rng
                .permutation(n)
                .into_iter()
                .map(|x| x as u64)
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Builds from an explicit vector (`ids[v]` = ID of node `v`).
    ///
    /// # Panics
    ///
    /// Panics if IDs are not pairwise distinct.
    pub fn from_vec(ids: Vec<u64>) -> IdAssignment {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "node IDs must be distinct");
        IdAssignment { id_of: ids.into() }
    }

    /// Builds from a store-loaded buffer (owned or zero-copy view) whose
    /// distinctness was already established when the artifact was baked,
    /// skipping the `O(n log n)` duplicate scan of [`Self::from_vec`] on the
    /// reload hot path.
    pub(crate) fn from_buf_trusted(ids: Buf<u64>) -> IdAssignment {
        IdAssignment { id_of: ids }
    }

    /// The full `node index → ID` table, consumed by the persistent
    /// artifact store.
    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.id_of
    }

    /// The ID of node `v`.
    pub fn id(&self, v: NodeId) -> u64 {
        self.id_of[v.index()]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.id_of.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.id_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::generators;

    #[test]
    fn port_one_based() {
        let p = Port::new(1);
        assert_eq!(p.number(), 1);
        assert_eq!(p.index(), 0);
        assert_eq!(format!("{p}"), "p1");
    }

    #[test]
    #[should_panic(expected = "numbered from 1")]
    fn port_zero_panics() {
        Port::new(0);
    }

    #[test]
    fn canonical_ports_sorted() {
        let g = generators::star(5).unwrap();
        let pa = PortAssignment::canonical(&g);
        let hub = NodeId::new(0);
        for i in 1..5 {
            assert_eq!(pa.neighbor(hub, Port::new(i)), NodeId::new(i));
        }
    }

    #[test]
    fn ports_are_bijections() {
        let g = generators::erdos_renyi_connected(25, 0.3, 3).unwrap();
        let mut rng = Xoshiro256::seed_from(9);
        let pa = PortAssignment::random(&g, &mut rng);
        for v in g.nodes() {
            let d = g.degree(v);
            assert_eq!(pa.degree(v), d);
            let mut seen = std::collections::HashSet::new();
            for p in 1..=d {
                let w = pa.neighbor(v, Port::new(p));
                assert!(g.has_edge(v, w));
                assert!(seen.insert(w), "port map must be injective");
            }
        }
    }

    #[test]
    fn reverse_lookup_consistent() {
        let g = generators::erdos_renyi_connected(20, 0.4, 5).unwrap();
        let mut rng = Xoshiro256::seed_from(1);
        let pa = PortAssignment::random(&g, &mut rng);
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                let p = pa.port_to(v, w).expect("neighbor has a port");
                assert_eq!(pa.neighbor(v, p), w);
            }
            // Non-neighbors have no port.
            for x in g.nodes() {
                if x != v && !g.has_edge(v, x) {
                    assert_eq!(pa.port_to(v, x), None);
                }
            }
        }
    }

    #[test]
    fn random_ports_reproducible_and_seed_sensitive() {
        let g = generators::complete(8).unwrap();
        let a = PortAssignment::random(&g, &mut Xoshiro256::seed_from(7));
        let b = PortAssignment::random(&g, &mut Xoshiro256::seed_from(7));
        let c = PortAssignment::random(&g, &mut Xoshiro256::seed_from(8));
        let key = |pa: &PortAssignment| {
            g.nodes()
                .flat_map(|v| (1..=g.degree(v)).map(move |p| (v, p)))
                .map(|(v, p)| pa.neighbor(v, Port::new(p)))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
    }

    #[test]
    fn id_assignment_identity() {
        let ids = IdAssignment::identity(5);
        assert_eq!(ids.id(NodeId::new(3)), 3);
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn id_assignment_permutation_is_bijection() {
        let mut rng = Xoshiro256::seed_from(2);
        let ids = IdAssignment::random_permutation(50, &mut rng);
        let mut seen: Vec<u64> = (0..50).map(|v| ids.id(NodeId::new(v))).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_ids_rejected() {
        IdAssignment::from_vec(vec![1, 2, 2]);
    }
}
