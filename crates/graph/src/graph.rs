//! Immutable compressed-sparse-row graph representation.
//!
//! Graphs in this workspace are simple (no self-loops, no multi-edges),
//! undirected, and unweighted, matching the paper's network model. Nodes are
//! identified by dense indices `0..n`; the simulator layers arbitrary
//! polynomial-range IDs on top (the paper's `id(u)`), so topology code never
//! needs to care about ID assignments.

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

use wakeup_store::{Buf, SectionElem};

/// Dense index of a node in a [`Graph`], in `0..n`.
///
/// `NodeId` is a topological index, not the paper's node *ID*: the simulator
/// assigns (possibly adversarial) integer IDs separately. Keeping the two
/// notions in distinct types prevents an entire class of lower-bound-graph
/// bugs where an ID permutation is accidentally used as an index.
///
/// # Example
///
/// ```
/// use wakeup_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(format!("{v}"), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct NodeId(u32);

// Compile-time witnesses for the SectionElem layout contract below.
const _: () = assert!(std::mem::size_of::<NodeId>() == 4);
const _: () = assert!(std::mem::align_of::<NodeId>() == 4);

// SAFETY: `NodeId` is `repr(transparent)` over `u32` (asserted above), so
// it is padding-free with every bit pattern valid, and its little-endian
// in-memory form equals the store's on-disk `u32` encoding. This is the
// crate's only `unsafe` item; it contains no code.
#[allow(unsafe_code)]
unsafe impl SectionElem for NodeId {
    const WIDTH: u32 = 4;
    const ELEMS: usize = 1;
}

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32 range"))
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from its raw `u32` representation (the inverse of
    /// [`Self::as_u32`]). Used by the persistent artifact store to rebuild
    /// id buffers from on-disk `u32` sections without widening round trips.
    #[inline]
    pub const fn from_u32(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Raw `u32` representation of this node id.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// Errors produced while constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint index.
        node: usize,
        /// Number of nodes in the graph under construction.
        n: usize,
    },
    /// A self-loop `{v, v}` was added.
    SelfLoop {
        /// The node with the attempted self-loop.
        node: usize,
    },
    /// The same undirected edge was added twice.
    DuplicateEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// An edge endpoint does not fit the `u32` node id ([`NodeId`] stores
    /// indices up to `u32::MAX`).
    NodeIdOverflow {
        /// The offending endpoint index.
        node: usize,
    },
    /// A generator was asked for an impossible size (for example a cycle on
    /// fewer than three nodes).
    InvalidSize {
        /// Human-readable description of the constraint that failed.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node index {node} out of range for graph with {n} nodes")
            }
            GraphError::NodeIdOverflow { node } => {
                write!(f, "node index {node} exceeds the u32 node id range")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::InvalidSize { reason } => write!(f, "invalid size: {reason}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable simple undirected graph in CSR form.
///
/// Construct one through [`GraphBuilder`] or [`Graph::from_edges`]. Neighbor
/// lists are sorted, enabling `O(log deg)` adjacency tests.
///
/// # Example
///
/// ```
/// use wakeup_graph::{Graph, NodeId};
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
/// # Ok::<(), wakeup_graph::GraphError>(())
/// ```
#[derive(Clone)]
pub struct Graph {
    offsets: Buf<usize>,
    adjacency: Buf<NodeId>,
    edges: EdgeList,
}

/// The canonical `u < v` edge list, in one of two states:
///
/// * **materialized** — built graphs fill `pairs` eagerly (the builder
///   produces them anyway);
/// * **raw** — store-reloaded graphs keep the interleaved on-disk
///   `(u, v, u, v, …)` window and materialize `pairs` lazily on the first
///   [`Graph::edges`] call, keeping the multi-megabyte copy off the
///   mmap-reload hot path (the engines never touch the edge list).
///
/// The lazy copy reproduces the baked order exactly, so equality and
/// re-encoded bytes are unaffected by which state a graph is in.
#[derive(Clone)]
struct EdgeList {
    raw: Buf<NodeId>,
    pairs: OnceLock<Vec<(NodeId, NodeId)>>,
}

impl EdgeList {
    fn materialized(pairs: Vec<(NodeId, NodeId)>) -> EdgeList {
        EdgeList {
            raw: Buf::default(),
            pairs: OnceLock::from(pairs),
        }
    }

    fn from_raw(raw: Buf<NodeId>) -> EdgeList {
        EdgeList {
            raw,
            pairs: OnceLock::new(),
        }
    }

    fn len(&self) -> usize {
        match self.pairs.get() {
            Some(pairs) => pairs.len(),
            None => self.raw.len() / 2,
        }
    }

    fn pairs(&self) -> &[(NodeId, NodeId)] {
        self.pairs
            .get_or_init(|| self.raw.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }
}

/// Graphs compare by structure; the edge list is materialized on demand
/// (comparisons are test/verify paths, never the reload hot path).
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.offsets == other.offsets
            && self.adjacency == other.adjacency
            && self.edges.pairs() == other.edges.pairs()
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints, self-loops, or duplicate
    /// edges (in either orientation).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Returns an edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Graph {
        GraphBuilder::new(n).build()
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Iterates the `(u, v)` pairs of `self.edges()` without forcing a
    /// store-reloaded edge list to materialize.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let (raw, pairs) = match self.edges.pairs.get() {
            Some(p) => (&[][..], &p[..]),
            None => (&self.edges.raw[..], &[][..]),
        };
        raw.chunks_exact(2)
            .map(|c| (c[0], c[1]))
            .chain(pairs.iter().copied())
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Sorted slice of the neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Canonical edge list; every edge appears once with `u < v`.
    ///
    /// For store-reloaded graphs the pair vector is materialized (copied
    /// out of the mapping) on first call; prefer [`Self::edge_pairs`] on
    /// paths that only iterate.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        self.edges.pairs()
    }

    /// Raw CSR parts: `(offsets, adjacency, edges)`.
    ///
    /// `offsets` has `n + 1` entries; the sorted neighbors of node `v` are
    /// `adjacency[offsets[v]..offsets[v + 1]]`; `edges` is the canonical
    /// `u < v` edge list. Exposed for the persistent artifact store, which
    /// serializes these buffers verbatim.
    pub fn csr_parts(&self) -> (&[usize], &[NodeId], &[(NodeId, NodeId)]) {
        (&self.offsets, &self.adjacency, self.edges.pairs())
    }

    /// Rebuilds a graph from CSR parts previously obtained via
    /// [`Self::csr_parts`] (for example, reloaded from the persistent
    /// artifact store).
    ///
    /// Performs light structural validation — offset monotonicity and
    /// bounds, adjacency/edge length consistency — but trusts the caller
    /// for deeper invariants (sortedness, symmetry, canonical edge order),
    /// which the store layer already guarantees via checksums over buffers
    /// produced by a valid `Graph`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] when the parts are structurally
    /// inconsistent.
    pub fn from_csr_parts(
        offsets: Vec<usize>,
        adjacency: Vec<NodeId>,
        edges: Vec<(NodeId, NodeId)>,
    ) -> Result<Graph, GraphError> {
        validate_csr(&offsets, &adjacency, edges.len())?;
        Ok(Graph {
            offsets: offsets.into(),
            adjacency: adjacency.into(),
            edges: EdgeList::materialized(edges),
        })
    }

    /// As [`Self::from_csr_parts`], but over store-reloaded [`Buf`]
    /// windows — the zero-copy reload entry point. `edges_raw` is the
    /// interleaved `(u, v, u, v, …)` canonical edge list; it stays a raw
    /// window until [`Self::edges`] first materializes it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] when the parts are structurally
    /// inconsistent (same checks as [`Self::from_csr_parts`]).
    pub fn from_csr_sections(
        offsets: Buf<usize>,
        adjacency: Buf<NodeId>,
        edges_raw: Buf<NodeId>,
    ) -> Result<Graph, GraphError> {
        if !edges_raw.len().is_multiple_of(2) {
            return Err(GraphError::InvalidSize {
                reason: "interleaved edge list must have even length".to_owned(),
            });
        }
        validate_csr(&offsets, &adjacency, edges_raw.len() / 2)?;
        Ok(Graph {
            offsets,
            adjacency,
            edges: EdgeList::from_raw(edges_raw),
        })
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n()).map(NodeId::new)
    }

    /// Maximum degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree `2m / n`, or 0.0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Returns the induced subgraph on the same node set containing exactly
    /// the edges for which `keep` returns true.
    pub fn filter_edges(&self, mut keep: impl FnMut(NodeId, NodeId) -> bool) -> Graph {
        let mut builder = GraphBuilder::new(self.n());
        for (u, v) in self.edge_pairs() {
            if keep(u, v) {
                builder
                    .add_edge(u.index(), v.index())
                    .expect("edges of a valid graph remain valid");
            }
        }
        builder.build()
    }

    /// The subgraph induced by `nodes`, with nodes renumbered `0..k` in the
    /// given order; returns the graph and the old-to-new index map.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.n()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(
                map[old.index()].is_none(),
                "duplicate node {old} in selection"
            );
            map[old.index()] = Some(NodeId::new(new));
        }
        let mut builder = GraphBuilder::new(nodes.len());
        for (u, v) in self.edge_pairs() {
            if let (Some(nu), Some(nv)) = (map[u.index()], map[v.index()]) {
                builder
                    .add_edge(nu.index(), nv.index())
                    .expect("induced edges stay valid");
            }
        }
        (builder.build(), map)
    }

    /// The complement graph (same nodes, exactly the missing edges).
    pub fn complement(&self) -> Graph {
        let mut builder = GraphBuilder::new(self.n());
        for u in 0..self.n() {
            for v in (u + 1)..self.n() {
                if !self.has_edge(NodeId::new(u), NodeId::new(v)) {
                    builder.add_edge(u, v).expect("complement edges valid");
                }
            }
        }
        builder.build()
    }
}

/// Structural CSR validation shared by [`Graph::from_csr_parts`] and
/// [`Graph::from_csr_sections`]: offset monotonicity and bounds,
/// adjacency/edge length consistency. Deeper invariants (sortedness,
/// symmetry, canonical edge order) are trusted from the caller — for the
/// store path they are covered by checksums over buffers produced by a
/// valid `Graph`.
fn validate_csr(
    offsets: &[usize],
    adjacency: &[NodeId],
    edge_count: usize,
) -> Result<(), GraphError> {
    let invalid = |reason: &str| GraphError::InvalidSize {
        reason: reason.to_owned(),
    };
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(invalid("csr offsets must start with 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid("csr offsets must be non-decreasing"));
    }
    if *offsets.last().unwrap() != adjacency.len() {
        return Err(invalid("csr offsets must end at adjacency length"));
    }
    if adjacency.len() != edge_count * 2 {
        return Err(invalid("adjacency length must be twice the edge count"));
    }
    let n = offsets.len() - 1;
    if adjacency.iter().any(|v| v.index() >= n) {
        return Err(invalid("adjacency entry out of range"));
    }
    Ok(())
}

/// Incremental, validating builder for [`Graph`].
///
/// Duplicate detection follows the order edges arrive in. While each
/// edge's canonical `(min, max)` key is greater than the one before — as
/// from the `G(n, p)` samplers, `complete`, `complete_bipartite` or
/// [`Graph::from_edges`] on a sorted list — no edge can repeat an earlier
/// one, so [`Self::add_edge`] only validates and pushes, and
/// [`Self::has_edge`] binary-searches the sorted edges. The first key that
/// is not greater than its predecessor fills a hash set from the edges so
/// far, and every later edge is checked against it. In both states a
/// duplicate is reported at once, in either orientation, and the built
/// graph depends only on the edge set.
///
/// # Example
///
/// ```
/// use wakeup_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// assert!(b.add_edge(1, 0).is_err()); // duplicate, either orientation
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// # Ok::<(), wakeup_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
    /// `None` while `edges` is strictly increasing; afterwards its edge set.
    seen: Option<HashSet<(u32, u32)>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: None,
        }
    }

    /// Number of nodes the resulting graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Edges added in increasing canonical order cost a comparison and a
    /// push; after the first one out of order, duplicate detection is
    /// `O(1)` amortized through a hash set, keeping unordered input (random
    /// pairings, the lower-bound families, edge-list files) linear in `m`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`], [`GraphError::NodeIdOverflow`],
    /// [`GraphError::SelfLoop`], or [`GraphError::DuplicateEdge`] as
    /// appropriate.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        let (a, b) = (self.endpoint(u)?, self.endpoint(v)?);
        if a == b {
            return Err(GraphError::SelfLoop { node: u });
        }
        let key = (a.min(b), a.max(b));
        let fresh = match &mut self.seen {
            Some(seen) => seen.insert(key),
            None if self.edges.last().is_none_or(|&last| last < key) => true,
            None => {
                let mut seen: HashSet<(u32, u32)> = self.edges.iter().copied().collect();
                let fresh = seen.insert(key);
                self.seen = Some(seen);
                fresh
            }
        };
        if !fresh {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.edges.push(key);
        Ok(())
    }

    fn endpoint(&self, node: usize) -> Result<u32, GraphError> {
        if node >= self.n {
            return Err(GraphError::NodeOutOfRange { node, n: self.n });
        }
        u32::try_from(node).map_err(|_| GraphError::NodeIdOverflow { node })
    }

    /// Adds `{u, v}` unless it is already present; self-loops are still
    /// rejected.
    ///
    /// Returns `true` if the edge was inserted.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`], [`GraphError::NodeIdOverflow`]
    /// or [`GraphError::SelfLoop`].
    pub fn add_edge_if_absent(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Whether `{u, v}` has been added (in either orientation).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (Ok(a), Ok(b)) = (u32::try_from(u), u32::try_from(v)) else {
            return false;
        };
        let key = (a.min(b), a.max(b));
        match &self.seen {
            Some(seen) => seen.contains(&key),
            None => self.edges.binary_search(&key).is_ok(),
        }
    }

    /// Finalizes the builder into an immutable CSR graph.
    pub fn build(mut self) -> Graph {
        if self.seen.is_some() {
            self.edges.sort_unstable();
        }
        debug_assert!(self.edges.windows(2).all(|w| w[0] < w[1]));
        let n = self.n;
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // Scattering the edges in sorted `(min, max)` order fills each
        // node's slice with its lower neighbours (it is the max endpoint,
        // min increasing) before its higher ones (it is the min endpoint,
        // max increasing), so every slice comes out sorted.
        let mut cursor = offsets.clone();
        let mut adjacency = vec![NodeId::default(); acc];
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize]] = NodeId(v);
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = NodeId(u);
            cursor[v as usize] += 1;
        }
        debug_assert!(offsets
            .windows(2)
            .all(|w| adjacency[w[0]..w[1]].is_sorted()));
        let edges = self
            .edges
            .into_iter()
            .map(|(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        Graph {
            offsets: offsets.into(),
            adjacency: adjacency.into(),
            edges: EdgeList::materialized(edges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(
            b.add_edge(7, 0),
            Err(GraphError::NodeOutOfRange { node: 7, n: 3 })
        );
    }

    /// A duplicate is rejected in either orientation both while the
    /// builder is still in canonical order (the duplicate is then the
    /// first key out of order) and after an earlier out-of-order edge;
    /// a rejected edge leaves the builder unchanged.
    #[test]
    fn builder_rejects_duplicates_in_both_orientations() {
        let canonical = || {
            let mut b = GraphBuilder::new(4);
            b.add_edge(0, 1).unwrap();
            b.add_edge(1, 2).unwrap();
            b
        };
        for (u, v) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let mut b = canonical();
            assert_eq!(b.add_edge(u, v), Err(GraphError::DuplicateEdge { u, v }));
            assert_eq!(b.m(), 2);
        }
        let mut b = canonical();
        b.add_edge(0, 3).unwrap(); // out of order: (0, 3) < (1, 2)
        for (u, v) in [(0, 1), (1, 0), (2, 1), (0, 3), (3, 0)] {
            assert_eq!(b.add_edge(u, v), Err(GraphError::DuplicateEdge { u, v }));
        }
        b.add_edge(2, 3).unwrap();
        assert_eq!(b.m(), 4);
        assert_eq!(
            b.build(),
            Graph::from_edges(4, &[(0, 1), (0, 3), (1, 2), (2, 3)]).unwrap()
        );
    }

    /// `has_edge` and `add_edge_if_absent` agree, in both orientations,
    /// while edges arrive in canonical order and after they stop doing so.
    #[test]
    fn add_edge_if_absent_reports_insertion() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge_if_absent(0, 1).unwrap());
        assert!(!b.add_edge_if_absent(1, 0).unwrap());
        assert!(b.add_edge_if_absent(1, 2).unwrap());
        assert_eq!(b.build().m(), 2);

        // Canonical run first, then out of order, with repeats throughout.
        let stream = [
            (0, 2),
            (0, 3),
            (3, 0),
            (1, 4),
            (4, 5),
            (5, 4),
            (0, 1),
            (2, 0),
            (4, 1),
            (2, 3),
            (3, 2),
        ];
        let mut b = GraphBuilder::new(6);
        for (u, v) in stream {
            let present = b.has_edge(u, v);
            assert_eq!(b.has_edge(v, u), present, "{{{u}, {v}}}");
            assert_eq!(b.add_edge_if_absent(u, v), Ok(!present), "{{{u}, {v}}}");
            assert!(b.has_edge(u, v) && b.has_edge(v, u));
        }
        assert_eq!(b.m(), 6);
        assert!(!b.has_edge(1, 5));
        assert_eq!(
            b.add_edge_if_absent(2, 2),
            Err(GraphError::SelfLoop { node: 2 })
        );
    }

    /// One edge set, inserted in canonical, reversed and shuffled order
    /// (with random orientations), builds one graph.
    #[test]
    fn insertion_order_does_not_change_the_graph() {
        let n = 40;
        let mut sorted = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if (u * 7 + v * 3) % 5 == 0 || v == u + 1 {
                    sorted.push((u, v));
                }
            }
        }
        let reversed: Vec<_> = sorted.iter().rev().copied().collect();
        let mut rng = crate::rng::Xoshiro256::seed_from(3);
        let mut shuffled = sorted.clone();
        rng.shuffle(&mut shuffled);
        for e in &mut shuffled {
            if rng.bernoulli(0.5) {
                *e = (e.1, e.0);
            }
        }
        let g = Graph::from_edges(n, &sorted).unwrap();
        assert_eq!(g.m(), sorted.len());
        assert_eq!(Graph::from_edges(n, &reversed).unwrap(), g);
        assert_eq!(Graph::from_edges(n, &shuffled).unwrap(), g);
        let canonical: Vec<_> = g
            .edges()
            .iter()
            .map(|&(u, v)| (u.index(), v.index()))
            .collect();
        assert_eq!(canonical, sorted);
    }

    /// Endpoints must fit the `u32` node id: `u32::MAX` is accepted, one
    /// past it is a typed error instead of a truncated id. Only `add_edge`
    /// and `has_edge` run, so nothing of size `n` is allocated.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn builder_rejects_ids_past_u32() {
        let limit = u32::MAX as usize;
        let mut b = GraphBuilder::new(limit + 2);
        assert_eq!(b.add_edge(limit, 0), Ok(()));
        assert!(b.has_edge(0, limit));
        assert_eq!(
            b.add_edge(limit + 1, 0),
            Err(GraphError::NodeIdOverflow { node: limit + 1 })
        );
        assert_eq!(
            b.add_edge(1, limit + 1),
            Err(GraphError::NodeIdOverflow { node: limit + 1 })
        );
        assert!(!b.has_edge(limit + 1, 0));
        assert_eq!(b.m(), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(3, 0), (3, 4), (3, 1), (3, 2)]).unwrap();
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(3))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 1, 2, 4]);
    }

    #[test]
    fn degrees_and_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.edges().len(), 4);
        for &(u, v) in g.edges() {
            assert!(u < v, "canonical orientation");
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn filter_edges_keeps_subset() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let sub = g.filter_edges(|u, _| u.index() != 1);
        assert_eq!(sub.m(), 2);
        assert!(sub.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!sub.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let (sub, map) = g.induced_subgraph(&[NodeId::new(1), NodeId::new(2), NodeId::new(4)]);
        assert_eq!(sub.n(), 3);
        // Kept edges: {1,2} only ({4,0} and {3,4} lose an endpoint).
        assert_eq!(sub.m(), 1);
        assert_eq!(map[1], Some(NodeId::new(0)));
        assert_eq!(map[3], None);
        assert!(sub.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_subgraph_rejects_duplicates() {
        let g = Graph::empty(3);
        g.induced_subgraph(&[NodeId::new(1), NodeId::new(1)]);
    }

    #[test]
    fn complement_involution() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let c = g.complement();
        assert_eq!(c.m(), 10 - 2);
        assert!(!c.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(c.has_edge(NodeId::new(0), NodeId::new(2)));
        assert_eq!(c.complement(), g);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let v = NodeId::new(2);
        assert_eq!(format!("{v}"), "v2");
        assert_eq!(format!("{v:?}"), "v2");
        let g = Graph::empty(1);
        assert!(format!("{g:?}").contains("Graph"));
    }
}
