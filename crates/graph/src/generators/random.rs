//! Seeded random generators.

use crate::rng::Xoshiro256;
use crate::{Graph, GraphBuilder, GraphError};

fn invalid(reason: impl Into<String>) -> GraphError {
    GraphError::InvalidSize {
        reason: reason.into(),
    }
}

/// Node count above which [`erdos_renyi`] switches from per-pair Bernoulli
/// draws to geometric skip sampling. Every committed artifact (test graphs,
/// execution goldens, benchmark rows) lives below this size, so their
/// bit-exact streams are preserved; everything at or above it pays the
/// `O(n + m)` (and equally seeded-deterministic) sampling path.
///
/// History: the skip sampler originally engaged only at `n > 20_000`, which
/// left the benchmark's `n = 10⁴` sparse rows on the `O(n²)` Bernoulli path
/// — 272 ms of cold build versus 172 ms for `n = 10⁵` in schema-4
/// BENCH_engine.json, a visible inversion. The per-pair loop draws
/// `n(n-1)/2` variates regardless of density, so for the sparse `p = 8/n`
/// family the crossover belongs far lower: at `n = 1024` the Bernoulli path
/// already burns ~524k draws to place ~4k edges, while skip sampling pays
/// one draw per edge. 1024 keeps every committed small-n artifact
/// (goldens ≤ 97 nodes, bench sweeps ≤ 512, audit traces at 16) on its
/// original bit-exact stream.
///
/// Each regime runs in its own non-inlined function ([`bernoulli_pairs`],
/// [`skip_pairs`]). Inlined together under `target-cpu=native`, the
/// Bernoulli loop spilled the generator state to the stack on every draw:
/// `erdos_renyi_connected(n, 8/n, 7)` took 0.73 ms at n = 512 and about
/// 3 ms at n = 1023. Split, with the integer threshold, they take 0.24 ms
/// and 0.8 ms, against 0.2 ms (n = 1024) and 0.34 ms (n = 2048) on the
/// skip path, which the split left where it was (fastest of 400 builds,
/// Intel Xeon, 2 vCPUs).
const GEOMETRIC_SKIP_MIN_N: usize = 1_024;

/// Erdős–Rényi graph `G(n, p)` with the given seed.
///
/// For `n < 1024` every pair is tested with an independent Bernoulli
/// draw, in canonical pair order. From `n = 1024` up, the generator draws
/// geometric skip lengths between successive edges instead — `O(n + m)`
/// rather than `O(n²)`, which is what makes `n = 10⁴`–`10⁶` sweep rows
/// feasible. Both regimes are deterministic in `(n, p, seed)` and sample
/// the same `G(n, p)` distribution, but they consume the RNG stream
/// differently, so the same seed yields different (equally valid) graphs
/// on either side of the threshold.
///
/// # Errors
///
/// Fails for `n == 0` or `p` outside `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::new(n);
    sample_gnp(n, p, seed, |i, j| b.add_edge(i, j))?;
    Ok(b.build())
}

/// Draws the edges of [`erdos_renyi`]`(n, p, seed)` and hands each to
/// `emit` as `(i, j)` with `i < j`, in increasing canonical order (so a
/// [`GraphBuilder`] fed from it never hashes).
fn sample_gnp(
    n: usize,
    p: f64,
    seed: u64,
    emit: impl FnMut(usize, usize) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    if n == 0 {
        return Err(invalid("G(n,p) requires at least one node"));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid(format!("edge probability {p} outside [0, 1]")));
    }
    let rng = Xoshiro256::seed_from(seed);
    if n < GEOMETRIC_SKIP_MIN_N {
        bernoulli_pairs(n, p, rng, emit)
    } else if p > 0.0 {
        skip_pairs(n, p, rng, emit)
    } else {
        Ok(())
    }
}

// Each regime owns its generator in a non-inlined frame: inlined into a
// caller, the xoshiro state goes through the stack on every draw.

/// The `n < GEOMETRIC_SKIP_MIN_N` regime: one draw per pair, in canonical
/// order, kept when its top 53 bits fall below
/// [`Xoshiro256::bernoulli_threshold`] (the same decision as
/// [`Xoshiro256::bernoulli`]).
#[inline(never)]
fn bernoulli_pairs(
    n: usize,
    p: f64,
    mut rng: Xoshiro256,
    mut emit: impl FnMut(usize, usize) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let k = Xoshiro256::bernoulli_threshold(p);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.next_u64() >> 11 < k {
                emit(i, j)?;
            }
        }
    }
    Ok(())
}

/// The `n ≥ GEOMETRIC_SKIP_MIN_N` regime (`0 < p`): the gap before the next
/// present pair in canonical order is geometric with success probability
/// p, sampled by inversion as floor(ln(1 − U) / ln(1 − p)). For p = 1 the
/// log is −∞ and every skip is 0, i.e. the complete graph, as required.
#[inline(never)]
fn skip_pairs(
    n: usize,
    p: f64,
    mut rng: Xoshiro256,
    mut emit: impl FnMut(usize, usize) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let ln_q = (1.0 - p).ln();
    let (mut i, mut j) = (0usize, 1usize);
    while i + 1 < n {
        let u = rng.unit_f64();
        let mut skip = ((1.0 - u).ln() / ln_q) as u64;
        // Advance the (i, j) cursor over `skip` absent pairs.
        while skip > 0 && i + 1 < n {
            let row_left = (n - j) as u64;
            if skip < row_left {
                j += skip as usize;
                skip = 0;
            } else {
                skip -= row_left;
                i += 1;
                j = i + 1;
            }
        }
        if i + 1 < n {
            emit(i, j)?;
            j += 1;
            if j == n {
                i += 1;
                j = i + 1;
            }
        }
    }
    Ok(())
}

/// Connected Erdős–Rényi graph: samples `G(n, p)` and, if disconnected, adds
/// one random edge between consecutive components (a minimal connectivity
/// patch that preserves the degree distribution up to +1 per component).
///
/// Components are numbered in increasing order of their smallest node, as
/// [`crate::algo::connected_components`] numbers them. Patch `c` joins a
/// node drawn from component `c − 1` to one drawn from component `c`, from
/// the `seed ^ 0xC0FF_EE00` stream. The graph is built once: the patches
/// join distinct components, so none repeats a sampled edge or another
/// patch, and merged into the sorted sample they reach the builder in
/// canonical order.
///
/// # Errors
///
/// Same conditions as [`erdos_renyi`].
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    let mut edges = Vec::new();
    sample_gnp(n, p, seed, |i, j| {
        edges.push((i, j));
        Ok(())
    })?;
    let (labels, k) = component_labels(n, &edges);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (v, &l) in labels.iter().enumerate() {
        members[l].push(v);
    }
    let mut rng = Xoshiro256::seed_from(seed ^ 0xC0FF_EE00);
    for c in 1..k {
        let u = members[c - 1][rng.index(members[c - 1].len())];
        let v = members[c][rng.index(members[c].len())];
        edges.push((u.min(v), u.max(v)));
    }
    // A sorted sample plus a short tail of patches: the run-merging
    // stable sort restores canonical order in linear time.
    edges.sort();
    Graph::from_edges(n, &edges)
}

/// Component label of every node of the graph on `n` nodes with the given
/// edges, and the component count. Labels go in increasing order of each
/// component's smallest node, as in [`crate::algo::connected_components`].
fn component_labels(n: usize, edges: &[(usize, usize)]) -> (Vec<usize>, usize) {
    // Union–find that always hangs the larger root under the smaller, so
    // each root is its component's smallest node.
    fn root(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for &(u, v) in edges {
        let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
        parent[ru.max(rv)] = ru.min(rv);
    }
    let mut labels = vec![0usize; n];
    let mut k = 0;
    for v in 0..n {
        let r = root(&mut parent, v);
        if r == v {
            labels[v] = k;
            k += 1;
        } else {
            labels[v] = labels[r];
        }
    }
    (labels, k)
}

/// Uniform random labelled tree on `n` nodes via a Prüfer-style attachment
/// process (each node `i >= 1` attaches to a uniformly random earlier node,
/// then labels are shuffled — a random recursive tree with relabelling).
///
/// # Errors
///
/// Fails for `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(invalid("tree requires at least one node"));
    }
    let mut rng = Xoshiro256::seed_from(seed);
    let relabel = rng.permutation(n);
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        let j = rng.index(i);
        b.add_edge(relabel[i], relabel[j])?;
    }
    Ok(b.build())
}

/// Random `d`-regular graph via the pairing model with restarts.
///
/// # Errors
///
/// Fails if `n·d` is odd, `d >= n`, or a simple pairing cannot be found in a
/// reasonable number of restarts (only plausible for adversarial parameters).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    if d >= n {
        return Err(invalid(format!("degree {d} must be below n = {n}")));
    }
    if !(n * d).is_multiple_of(2) {
        return Err(invalid("n * d must be even for a d-regular graph"));
    }
    if d == 0 {
        return Ok(Graph::empty(n));
    }
    let mut rng = Xoshiro256::seed_from(seed);
    'restart: for _attempt in 0..200 {
        let mut stubs: Vec<usize> = (0..n * d).map(|s| s / d).collect();
        rng.shuffle(&mut stubs);
        let mut b = GraphBuilder::new(n);
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue 'restart;
            }
            match b.add_edge_if_absent(u, v) {
                Ok(true) => {}
                Ok(false) => continue 'restart,
                Err(e) => return Err(e),
            }
        }
        return Ok(b.build());
    }
    Err(invalid(format!(
        "no simple {d}-regular pairing found for n = {n} after 200 restarts"
    )))
}

/// Random bipartite `d`-regular graph between sides `0..side` and
/// `side..2·side`, with an optional girth floor.
///
/// When `min_girth` is `Some(g)`, edges that would close a cycle shorter than
/// `g` are rejected (Erdős–Sachs-style greedy); the generator then aims for
/// `d`-regularity but may leave a small deficit at the densest feasibility
/// boundary, reported via [`BipartiteRegular::deficit`]. This is the
/// substitution for the Lazebnik–Ustimenko graphs used by the 𝒢ₖ family
/// (see DESIGN.md).
///
/// # Errors
///
/// Fails for `side == 0` or `d > side`.
pub fn random_bipartite_regular(
    side: usize,
    d: usize,
    min_girth: Option<usize>,
    seed: u64,
) -> Result<BipartiteRegular, GraphError> {
    if side == 0 {
        return Err(invalid("bipartite sides must be nonempty"));
    }
    if d > side {
        return Err(invalid(format!("degree {d} exceeds side size {side}")));
    }
    let n = 2 * side;
    let mut rng = Xoshiro256::seed_from(seed);
    let mut b = GraphBuilder::new(n);
    let mut deg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Round-robin over left nodes, picking random right partners; with a
    // girth floor we reject partners that close short cycles. A bounded
    // number of sweeps keeps termination unconditional.
    let girth_floor = min_girth.unwrap_or(0);
    let max_sweeps = 12 * d.max(1);
    let mut dist = vec![usize::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    for _sweep in 0..max_sweeps {
        let mut progress = false;
        for u in 0..side {
            if deg[u] >= d {
                continue;
            }
            // Collect candidate right nodes with remaining capacity.
            let mut candidates: Vec<usize> = (side..n)
                .filter(|&v| deg[v] < d && !b.has_edge(u, v))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            rng.shuffle(&mut candidates);
            for v in candidates {
                if girth_floor > 4
                    && closes_short_cycle(&adj, u, v, girth_floor, &mut dist, &mut touched)
                {
                    continue;
                }
                b.add_edge(u, v)?;
                deg[u] += 1;
                deg[v] += 1;
                adj[u].push(v);
                adj[v].push(u);
                progress = true;
                break;
            }
        }
        if !progress {
            break;
        }
        if (0..side).all(|u| deg[u] >= d) {
            break;
        }
    }
    let deficit = (0..n).map(|v| d.saturating_sub(deg[v])).sum();
    Ok(BipartiteRegular {
        graph: b.build(),
        target_degree: d,
        deficit,
    })
}

/// Result of [`random_bipartite_regular`].
#[derive(Debug, Clone)]
pub struct BipartiteRegular {
    /// The generated bipartite graph.
    pub graph: Graph,
    /// Requested per-node degree.
    pub target_degree: usize,
    /// Total missing degree across all nodes (0 for exact regularity).
    pub deficit: usize,
}

/// Checks whether adding `{u, v}` would create a cycle shorter than
/// `girth_floor`, by a bounded-depth BFS from `u` toward `v` in the current
/// partial graph. A cycle through the new edge has length `dist(u, v) + 1`,
/// so the edge is rejected iff `dist(u, v) <= girth_floor - 2`.
///
/// `dist`/`touched` are caller-provided scratch buffers (reset on exit) so
/// the hot generator loop performs no allocation.
fn closes_short_cycle(
    adj: &[Vec<usize>],
    u: usize,
    v: usize,
    girth_floor: usize,
    dist: &mut [usize],
    touched: &mut Vec<usize>,
) -> bool {
    let limit = girth_floor - 2;
    dist[u] = 0;
    touched.push(u);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(u);
    let mut found = false;
    'bfs: while let Some(x) = queue.pop_front() {
        let dx = dist[x];
        if dx >= limit {
            continue;
        }
        for &y in &adj[x] {
            if dist[y] == usize::MAX {
                dist[y] = dx + 1;
                touched.push(y);
                if y == v {
                    found = true;
                    break 'bfs;
                }
                queue.push_back(y);
            }
        }
    }
    for &t in touched.iter() {
        dist[t] = usize::MAX;
    }
    touched.clear();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn erdos_renyi_reproducible() {
        let a = erdos_renyi(30, 0.2, 5).unwrap();
        let b = erdos_renyi(30, 0.2, 5).unwrap();
        assert_eq!(a.edges(), b.edges());
        let c = erdos_renyi(30, 0.2, 6).unwrap();
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, 1).unwrap().m(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).unwrap().m(), 45);
        assert!(erdos_renyi(10, 1.5, 1).is_err());
        assert!(erdos_renyi(0, 0.5, 1).is_err());
    }

    #[test]
    fn erdos_renyi_skip_sampling_edge_count() {
        // Above the skip-sampling threshold: m ~ Binomial(n(n-1)/2, p) with
        // mean ≈ 4n for p = 8/n; allow a generous multi-sigma band.
        let n = 30_000usize;
        let g = erdos_renyi(n, 8.0 / n as f64, 17).unwrap();
        let expect = 4 * n;
        assert!(
            (g.m() as f64 - expect as f64).abs() < 0.05 * expect as f64,
            "m = {}, expected ≈ {expect}",
            g.m()
        );
    }

    #[test]
    fn erdos_renyi_skip_sampling_reproducible() {
        let n = 25_000usize;
        let a = erdos_renyi(n, 8.0 / n as f64, 5).unwrap();
        let b = erdos_renyi(n, 8.0 / n as f64, 5).unwrap();
        assert_eq!(a.edges(), b.edges());
        let c = erdos_renyi(n, 8.0 / n as f64, 6).unwrap();
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn erdos_renyi_skip_sampling_zero_p() {
        assert_eq!(erdos_renyi(25_000, 0.0, 1).unwrap().m(), 0);
    }

    /// The regime boundary sits exactly at `GEOMETRIC_SKIP_MIN_N`: both the
    /// last Bernoulli size and the first skip-sampled size are
    /// deterministic with a plausible edge count. The Bernoulli stream
    /// itself is pinned by value in `bernoulli_regime_streams_are_pinned`.
    #[test]
    fn crossover_boundary_regimes() {
        let below = GEOMETRIC_SKIP_MIN_N - 1; // 1023: per-pair Bernoulli
        let at = GEOMETRIC_SKIP_MIN_N; // 1024: geometric skip
        let p = 8.0 / below as f64;
        let a = erdos_renyi(below, p, 11).unwrap();
        let b = erdos_renyi(below, p, 11).unwrap();
        assert_eq!(a.edges(), b.edges());
        let c = erdos_renyi(at, 8.0 / at as f64, 11).unwrap();
        let d = erdos_renyi(at, 8.0 / at as f64, 11).unwrap();
        assert_eq!(c.edges(), d.edges());
        for g in [&a, &c] {
            let expect = 4.0 * g.n() as f64;
            assert!(
                (g.m() as f64 - expect).abs() < 0.15 * expect,
                "n = {}, m = {}, expected ≈ {expect}",
                g.n(),
                g.m()
            );
        }
    }

    /// FNV-1a over the edge list, each endpoint as 8 little-endian bytes.
    fn edge_digest(g: &Graph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(u, v) in g.edges() {
            for x in [u.index() as u64, v.index() as u64] {
                for byte in x.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The per-pair Bernoulli stream below `GEOMETRIC_SKIP_MIN_N`, pinned by
    /// edge count and edge-list digest: `erdos_renyi(n, p, 11)` across the
    /// regime's sizes and densities, and the connected sparse graphs of
    /// Table 1 (`erdos_renyi_connected(n, 8/n, 7)`). Every small-n golden,
    /// audit trace and Table 1 number rests on these streams.
    #[test]
    fn bernoulli_regime_streams_are_pinned() {
        let gnp: [(usize, [(usize, u64); 4]); 4] = [
            (
                16,
                [
                    (0, 0xcbf2_9ce4_8422_2325),
                    (61, 0xa57a_7bec_19c8_c26a),
                    (61, 0xa57a_7bec_19c8_c26a),
                    (120, 0x5b6e_adb4_b0d1_3e25),
                ],
            ),
            (
                64,
                [
                    (0, 0xcbf2_9ce4_8422_2325),
                    (277, 0x7713_e5f8_a57b_dadb),
                    (1000, 0x1a98_f1d0_bc8e_9e70),
                    (2016, 0x3176_debe_ec44_af25),
                ],
            ),
            (
                512,
                [
                    (0, 0xcbf2_9ce4_8422_2325),
                    (2098, 0x2877_0ad0_84d7_1271),
                    (65561, 0x4627_085b_8ae7_eecc),
                    (130816, 0x7f5e_7927_c851_9c25),
                ],
            ),
            (
                1023,
                [
                    (0, 0xcbf2_9ce4_8422_2325),
                    (4107, 0x25a8_062f_d2e4_8aac),
                    (261415, 0x3779_a4f1_c486_6276),
                    (522753, 0xffce_f3e3_1462_ad51),
                ],
            ),
        ];
        for (n, pins) in gnp {
            for (p, (m, digest)) in [0.0, 8.0 / n as f64, 0.5, 1.0].into_iter().zip(pins) {
                let g = erdos_renyi(n, p, 11).unwrap();
                assert_eq!((g.m(), edge_digest(&g)), (m, digest), "n={n} p={p}");
            }
        }
        let connected = [
            (64, 257, 0x9184_2bf8_7628_ac72),
            (128, 518, 0x6151_40ca_5a0c_f567),
            (256, 1006, 0xd4d7_df3d_7297_9ad3),
            (512, 2054, 0x1019_540e_a1f5_276e),
        ];
        for (n, m, digest) in connected {
            let g = erdos_renyi_connected(n, 8.0 / n as f64, 7).unwrap();
            assert_eq!((g.m(), edge_digest(&g)), (m, digest), "n={n}");
        }
    }

    /// The two-pass `erdos_renyi_connected` this module used to ship: label
    /// the built sample's components, then rebuild the sample plus the
    /// patch edges through a fresh builder.
    fn two_pass_connected(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
        let g = erdos_renyi(n, p, seed)?;
        let (labels, k) = algo::connected_components(&g);
        if k <= 1 {
            return Ok(g);
        }
        let mut rng = Xoshiro256::seed_from(seed ^ 0xC0FF_EE00);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (v, &l) in labels.iter().enumerate() {
            members[l].push(v);
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v) in g.edges() {
            b.add_edge(u.index(), v.index())?;
        }
        for c in 1..k {
            let u = members[c - 1][rng.index(members[c - 1].len())];
            let v = members[c][rng.index(members[c].len())];
            b.add_edge_if_absent(u, v)?;
        }
        Ok(b.build())
    }

    /// The one-pass connected sampler gives the two-pass graph (or error)
    /// on both sides of the skip-sampling threshold, from one component to
    /// hundreds (p = 1.5/n).
    #[test]
    fn connected_variant_matches_two_pass_reference() {
        for n in [2usize, 16, 97, 512, 1023, 1024, 3000, 16384] {
            for p in [8.0 / n as f64, 1.5 / n as f64, 0.03] {
                for seed in [0, 1, 7, 42] {
                    let got = erdos_renyi_connected(n, p, seed);
                    assert_eq!(
                        got,
                        two_pass_connected(n, p, seed),
                        "n={n} p={p} seed={seed}"
                    );
                    if let Ok(g) = got {
                        assert!(algo::is_connected(&g), "n={n} p={p} seed={seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn connected_variant_connects_large() {
        let n = 30_000usize;
        let g = erdos_renyi_connected(n, 8.0 / n as f64, 3).unwrap();
        assert!(algo::is_connected(&g));
    }

    #[test]
    fn connected_variant_connects() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(40, 0.03, seed).unwrap();
            assert!(algo::is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(25, seed).unwrap();
            assert_eq!(g.m(), 24);
            assert!(algo::is_connected(&g));
            assert_eq!(algo::girth(&g), None);
        }
    }

    #[test]
    fn random_regular_degrees() {
        let g = random_regular(24, 4, 9).unwrap();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(random_regular(5, 3, 0).is_err(), "odd n*d");
        assert!(random_regular(4, 4, 0).is_err(), "d >= n");
        assert_eq!(random_regular(6, 0, 0).unwrap().m(), 0);
    }

    #[test]
    fn bipartite_regular_no_girth_floor() {
        let r = random_bipartite_regular(16, 3, None, 2).unwrap();
        assert_eq!(r.deficit, 0);
        let g = &r.graph;
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        // Bipartite: no odd cycles.
        if let Some(girth) = algo::girth(g) {
            assert_eq!(girth % 2, 0);
        }
    }

    #[test]
    fn bipartite_regular_respects_girth_floor() {
        let r = random_bipartite_regular(64, 3, Some(8), 3).unwrap();
        if let Some(girth) = algo::girth(&r.graph) {
            assert!(girth >= 8, "girth {girth} below floor");
        }
        // Some deficit is allowed, but the graph should be near-regular.
        assert!(
            r.deficit <= r.graph.n(),
            "unexpectedly large deficit {}",
            r.deficit
        );
    }

    #[test]
    fn bipartite_sides_respected() {
        let side = 10;
        let r = random_bipartite_regular(side, 2, None, 4).unwrap();
        for &(u, v) in r.graph.edges() {
            let left = u.index() < side;
            let right = v.index() >= side;
            assert!(left && right, "edge {u}-{v} not across the bipartition");
        }
    }
}
