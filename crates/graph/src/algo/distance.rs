//! Distance-based measures: eccentricity, diameter, and the paper's awake
//! distance ρ_awk (Section 1.2, equation (1)).

use super::bfs::{bfs_distances, multi_source_distances, UNREACHABLE};
use crate::{Graph, NodeId};

/// Eccentricity of `v`: the maximum hop distance from `v` to any node, or
/// `None` if some node is unreachable from `v`.
pub fn eccentricity(graph: &Graph, v: NodeId) -> Option<usize> {
    let d = bfs_distances(graph, v);
    let mut ecc = 0usize;
    for &x in &d {
        if x == UNREACHABLE {
            return None;
        }
        ecc = ecc.max(x);
    }
    Some(ecc)
}

/// Exact diameter: the largest eccentricity; `None` if disconnected.
///
/// Sweeps the sources 64 at a time through one bit-parallel BFS per batch,
/// so it costs `O(⌈n/64⌉·(n+m))` per BFS level swept.
///
/// # Example
///
/// ```
/// use wakeup_graph::{generators, algo};
/// let g = generators::star(10)?;
/// assert_eq!(algo::diameter(&g), Some(2));
/// # Ok::<(), wakeup_graph::GraphError>(())
/// ```
pub fn diameter(graph: &Graph) -> Option<usize> {
    let mut sweep = Sweep::new(graph.n());
    let mut best = 0usize;
    for base in (0..graph.n()).step_by(LANES) {
        best = sweep
            .eccentricities(graph, base, None)?
            .into_iter()
            .fold(best, usize::max);
    }
    Some(best)
}

/// Double-sweep lower bound on the diameter: BFS from `start`, then BFS from
/// the farthest node found. Exact on trees; a lower bound in general.
pub fn double_sweep_lower_bound(graph: &Graph, start: NodeId) -> Option<usize> {
    let d1 = bfs_distances(graph, start);
    if d1.contains(&UNREACHABLE) {
        return None;
    }
    let far = d1
        .iter()
        .enumerate()
        .max_by_key(|&(_, d)| *d)
        .map(|(i, _)| NodeId::new(i))?;
    eccentricity(graph, far)
}

/// The radius (minimum eccentricity) and a center node attaining it, or
/// `None` for disconnected graphs. Ties go to the lowest node id.
///
/// Rooting a BFS tree at a center halves the worst-case tree height compared
/// to an arbitrary root, which is why the advising schemes default to it.
///
/// Sweeps the sources 64 at a time in id order through one bit-parallel BFS
/// per batch, so it costs `O(⌈n/64⌉·(n+m))` per BFS level swept. Every batch
/// after the first stops at the best radius so far, since a source still
/// spreading there can no longer win.
///
/// # Example
///
/// ```
/// use wakeup_graph::{generators, algo, NodeId};
/// let g = generators::path(9)?;
/// let (radius, center) = algo::center(&g).expect("connected");
/// assert_eq!(radius, 4);
/// assert_eq!(center, NodeId::new(4));
/// # Ok::<(), wakeup_graph::GraphError>(())
/// ```
pub fn center(graph: &Graph) -> Option<(usize, NodeId)> {
    let mut sweep = Sweep::new(graph.n());
    let mut best: Option<(usize, NodeId)> = None;
    for base in (0..graph.n()).step_by(LANES) {
        // The first batch runs to the end, which also checks connectivity.
        let ecc = sweep.eccentricities(graph, base, best.map(|(radius, _)| radius))?;
        for (i, e) in ecc.into_iter().enumerate() {
            if best.is_none_or(|(radius, _)| e < radius) {
                best = Some((e, NodeId::new(base + i)));
            }
        }
    }
    best
}

/// Sources per batch: one bit of a `u64` word each.
const LANES: usize = 64;

/// Scratch words of a bit-parallel multi-source BFS (Then et al., "The More
/// the Merrier", VLDB 2015): bit `i` of a node's word belongs to source
/// `base + i`.
struct Sweep {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl Sweep {
    fn new(n: usize) -> Sweep {
        Sweep {
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }

    /// Eccentricities of the sources `base..min(base + 64, n)`, in id order.
    ///
    /// With a `cutoff` the sweep stops after that many levels, and each
    /// value is `min(eccentricity, cutoff)`. Without one it runs to the end
    /// and returns `None` if some source does not reach every node.
    fn eccentricities(
        &mut self,
        graph: &Graph,
        base: usize,
        cutoff: Option<usize>,
    ) -> Option<Vec<usize>> {
        let width = LANES.min(graph.n() - base);
        let all = u64::MAX >> (LANES - width);
        self.seen.fill(0);
        self.frontier.fill(0);
        for i in 0..width {
            self.seen[base + i] = 1 << i;
            self.frontier[base + i] = 1 << i;
        }
        let mut ecc = vec![0usize; width];
        let mut level = 0usize;
        while cutoff.is_none_or(|c| level < c) {
            let mut spreading = 0u64;
            for (v, (seen, next)) in self.seen.iter_mut().zip(&mut self.next).enumerate() {
                let mut reached = 0u64;
                if *seen != all {
                    for u in graph.neighbors(NodeId::new(v)) {
                        reached |= self.frontier[u.index()];
                    }
                    reached &= !*seen;
                    *seen |= reached;
                }
                *next = reached;
                spreading |= reached;
            }
            if spreading == 0 {
                break;
            }
            level += 1;
            while spreading != 0 {
                ecc[spreading.trailing_zeros() as usize] = level;
                spreading &= spreading - 1;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        if cutoff.is_none() && self.seen.iter().any(|&w| w != all) {
            return None;
        }
        Some(ecc)
    }
}

/// The awake distance ρ_awk(G, A₀): the maximum over nodes `u` of the hop
/// distance from `u` to the nearest initially-awake node (paper eq. (1)).
///
/// Returns `None` if `awake` is empty or some node is unreachable from every
/// awake node (in which case no wake-up algorithm can succeed).
///
/// # Example
///
/// ```
/// use wakeup_graph::{generators, algo, NodeId};
/// let g = generators::path(7)?;
/// // Waking both endpoints halves the distance compared to the diameter.
/// let rho = algo::awake_distance(&g, &[NodeId::new(0), NodeId::new(6)]);
/// assert_eq!(rho, Some(3));
/// # Ok::<(), wakeup_graph::GraphError>(())
/// ```
pub fn awake_distance(graph: &Graph, awake: &[NodeId]) -> Option<usize> {
    if awake.is_empty() {
        return None;
    }
    let d = multi_source_distances(graph, awake);
    let mut rho = 0usize;
    for &x in &d {
        if x == UNREACHABLE {
            return None;
        }
        rho = rho.max(x);
    }
    Some(rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_diameter() {
        let g = generators::path(9).unwrap();
        assert_eq!(diameter(&g), Some(8));
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter(&generators::cycle(10).unwrap()), Some(5));
        assert_eq!(diameter(&generators::cycle(11).unwrap()), Some(5));
    }

    #[test]
    fn complete_diameter_one() {
        assert_eq!(diameter(&generators::complete(7).unwrap()), Some(1));
    }

    #[test]
    fn disconnected_diameter_none() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, NodeId::new(0)), None);
    }

    #[test]
    fn double_sweep_exact_on_path() {
        let g = generators::path(12).unwrap();
        assert_eq!(double_sweep_lower_bound(&g, NodeId::new(5)), Some(11));
    }

    #[test]
    fn double_sweep_is_lower_bound() {
        let g = generators::erdos_renyi_connected(40, 0.1, 3).unwrap();
        let exact = diameter(&g).unwrap();
        let lb = double_sweep_lower_bound(&g, NodeId::new(0)).unwrap();
        assert!(lb <= exact);
    }

    #[test]
    fn awake_distance_upper_bounded_by_diameter() {
        let g = generators::erdos_renyi_connected(30, 0.15, 5).unwrap();
        let d = diameter(&g).unwrap();
        for a in 0..g.n() {
            let rho = awake_distance(&g, &[NodeId::new(a)]).unwrap();
            assert!(rho <= d);
        }
    }

    #[test]
    fn awake_distance_all_awake_is_zero() {
        let g = generators::cycle(8).unwrap();
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(awake_distance(&g, &all), Some(0));
    }

    #[test]
    fn awake_distance_empty_set_none() {
        let g = generators::cycle(8).unwrap();
        assert_eq!(awake_distance(&g, &[]), None);
    }

    #[test]
    fn center_of_star_is_hub() {
        let g = generators::star(9).unwrap();
        assert_eq!(center(&g), Some((1, NodeId::new(0))));
    }

    #[test]
    fn center_radius_relation() {
        let g = generators::erdos_renyi_connected(35, 0.12, 9).unwrap();
        let (radius, c) = center(&g).unwrap();
        let d = diameter(&g).unwrap();
        assert!(
            radius <= d && d <= 2 * radius,
            "radius {radius}, diameter {d}"
        );
        assert_eq!(eccentricity(&g, c), Some(radius));
    }

    #[test]
    fn center_disconnected_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(center(&g), None);
    }

    /// The definition, one BFS per node: the lowest-id node of least
    /// eccentricity, or `None` if some node misses another.
    fn reference_center(graph: &Graph) -> Option<(usize, NodeId)> {
        let mut best: Option<(usize, NodeId)> = None;
        for v in graph.nodes() {
            let ecc = eccentricity(graph, v)?;
            if best.is_none_or(|(b, _)| ecc < b) {
                best = Some((ecc, v));
            }
        }
        best
    }

    /// The definition, one BFS per node: the largest eccentricity.
    fn reference_diameter(graph: &Graph) -> Option<usize> {
        graph
            .nodes()
            .try_fold(0, |d, v| Some(d.max(eccentricity(graph, v)?)))
    }

    fn assert_matches_reference(graph: &Graph, what: &str) {
        assert_eq!(center(graph), reference_center(graph), "center of {what}");
        assert_eq!(
            diameter(graph),
            reference_diameter(graph),
            "diameter of {what}"
        );
    }

    /// Sizes on both sides of every 64-source word boundary up to 513.
    const WORD_EDGES: [usize; 9] = [1, 2, 63, 64, 65, 127, 128, 129, 513];

    #[test]
    fn sweeps_match_reference_on_paths_cycles_and_stars() {
        for n in WORD_EDGES {
            assert_matches_reference(&generators::path(n).unwrap(), &format!("path {n}"));
            assert_matches_reference(&generators::star(n).unwrap(), &format!("star {n}"));
            if n >= 3 {
                assert_matches_reference(&generators::cycle(n).unwrap(), &format!("cycle {n}"));
            }
        }
    }

    #[test]
    fn sweeps_match_reference_on_random_graphs() {
        for n in WORD_EDGES {
            for p in [0.01, 0.05, 0.3] {
                for seed in [1, 7, 42] {
                    let g = generators::erdos_renyi_connected(n, p, seed).unwrap();
                    assert_matches_reference(&g, &format!("G({n}, {p}) seed {seed}"));
                }
            }
        }
    }

    #[test]
    fn center_tie_goes_to_lowest_id_across_batches() {
        // Nodes 63 and 64 of a 128-node path both have eccentricity 64 and
        // sit in different batches; the later one must not displace 63.
        let g = generators::path(128).unwrap();
        assert_eq!(center(&g), Some((64, NodeId::new(63))));
        assert_matches_reference(&g, "path 128");
        // A strictly better center in a later batch does replace the best.
        let g = generators::path(201).unwrap();
        assert_eq!(center(&g), Some((100, NodeId::new(100))));
        // All nodes of a cycle tie: node 0 wins.
        let g = generators::cycle(150).unwrap();
        assert_eq!(center(&g), Some((75, NodeId::new(0))));
    }

    #[test]
    fn sweeps_detect_a_component_past_the_first_batch() {
        // A path on 0..100 and another on 100..130: the first batch's
        // sources never reach the second component.
        let edges: Vec<(usize, usize)> =
            (1..130).filter(|&i| i != 100).map(|i| (i - 1, i)).collect();
        let g = Graph::from_edges(130, &edges).unwrap();
        assert_eq!(center(&g), None);
        assert_eq!(diameter(&g), None);
        assert_matches_reference(&g, "two paths");
        // One isolated node at the very end.
        let edges: Vec<(usize, usize)> = (1..129).map(|i| (i - 1, i)).collect();
        let g = Graph::from_edges(130, &edges).unwrap();
        assert_eq!(center(&g), None);
        assert_eq!(diameter(&g), None);
    }

    #[test]
    fn sweeps_on_the_empty_graph() {
        let g = Graph::empty(0);
        assert_eq!(center(&g), None);
        assert_eq!(diameter(&g), Some(0));
        assert_matches_reference(&g, "empty graph");
    }

    use crate::Graph;
}
