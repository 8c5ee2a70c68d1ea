//! Theorem 3: asynchronous KT1 LOCAL wake-up via random-rank DFS tokens.
//!
//! Every node woken *by the adversary* draws a random rank from `[n^c]` and
//! launches a depth-first traversal token carrying its rank, its ID, and the
//! full list of IDs visited so far (legal in the LOCAL model). A node keeps
//! the largest `(rank, id)` pair it has seen and discards tokens that compare
//! strictly smaller. The token with the globally maximum pair is never
//! discarded, so it completes a DFS of the whole network, waking everyone:
//! the algorithm is Las Vegas. With high probability both time and message
//! complexity are `O(n log n)` (the adversary must wake geometrically growing
//! node sets to keep beating the current maximum rank — Section 3.1).

use wakeup_graph::rng::Xoshiro256;
use wakeup_sim::{AsyncProtocol, Context, Incoming, NodeInit, Payload, WakeCause};

/// A DFS traversal token (unbounded size — LOCAL model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfsToken {
    /// The random rank drawn by the originating node.
    pub rank: u64,
    /// ID of the originating node (lexicographic tiebreak).
    pub origin: u64,
    /// IDs visited so far, in first-visit order.
    pub visited: Vec<u64>,
    /// The current DFS stack; the last entry is the token's holder.
    pub path: Vec<u64>,
    /// O(1)-membership mirror of `visited`, maintained at the two append
    /// sites. Purely derived data riding along for simulation speed: it is
    /// *not* part of the wire format and contributes nothing to
    /// [`Payload::size_bits`] (a receiver could rebuild it from `visited`).
    visited_set: IdSet,
}

impl DfsToken {
    /// A fresh token launched by `origin` (which is its own first visit).
    fn launch(rank: u64, origin: u64) -> DfsToken {
        let mut token = DfsToken {
            rank,
            origin,
            visited: Vec::new(),
            path: vec![origin],
            visited_set: IdSet::default(),
        };
        token.record_visit(origin);
        token
    }

    /// Appends `id` to the visited list, keeping the membership mirror in
    /// sync (the only way `visited` ever grows).
    fn record_visit(&mut self, id: u64) {
        self.visited.push(id);
        self.visited_set.insert(id);
    }

    /// Whether `id` is in the visited list.
    fn has_visited(&self, id: u64) -> bool {
        self.visited_set.contains(id)
    }
}

impl Payload for DfsToken {
    fn size_bits(&self) -> usize {
        // rank + origin + two length-prefixed id lists. The membership
        // mirror is redundant with `visited` and therefore free.
        64 * (2 + self.visited.len() + self.path.len()) + 2 * 32
    }
}

/// A grow-on-demand bitset over node IDs. IDs are drawn from a range of
/// size polynomial in `n` (see `docs/MODEL.md`), so indexing words by
/// `id / 64` stays linear in the network size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    fn insert(&mut self, id: u64) {
        let w = (id / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id % 64);
    }

    fn contains(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|&word| word >> (id % 64) & 1 == 1)
    }
}

/// The Theorem 3 protocol. Requires a KT1 network.
///
/// # Hot-path membership tracking
///
/// The naive implementation scans `token.visited` once per neighbor per
/// arrival (O(deg · n) per hop, O(n²·deg) per traversal). The token instead
/// carries an O(1)-membership mirror of its visited list (`IdSet`,
/// maintained at the two append sites), and each node keeps a cursor to the
/// first possibly-unvisited neighbor in ascending-ID order for the one token
/// key it is tracking. Because each `(rank, origin)` key names a *single
/// physical token* whose visited list only ever grows, the cursor only moves
/// forward, so the total per-node work for a key is O(deg) — no node ever
/// rescans the visited list. The selected neighbor — first unvisited in
/// ascending ID order — is identical to the naive scan's, so message
/// sequences are byte-for-byte unchanged.
#[derive(Debug)]
pub struct DfsRank {
    id: u64,
    neighbors: Vec<u64>,
    rng: Xoshiro256,
    rank_bound: u64,
    /// Ablation switch: derive the rank from the node ID instead of drawing
    /// it at random (see [`DfsIdRank`]).
    deterministic_ranks: bool,
    /// Largest (rank, id) seen; tokens strictly below this are discarded.
    best: Option<(u64, u64)>,
    /// Key of the token the cursor below describes.
    scratch_key: Option<(u64, u64)>,
    /// First neighbor index not yet known to be visited by the tracked
    /// token.
    cursor: usize,
    /// Diagnostics: number of distinct tokens this node forwarded.
    pub tokens_forwarded: u64,
}

/// Ablation variant of [`DfsRank`] with ranks equal to node IDs.
///
/// Random ranks are what defeats the adaptive wake schedule in Theorem 3's
/// analysis: with deterministic ranks an (ID-aware) adversary can wake nodes
/// in increasing rank order, displacing the leading token every time and
/// driving the message complexity toward Θ(n²). The `ablation_ranks` bench
/// measures the gap.
#[derive(Debug)]
pub struct DfsIdRank {
    inner: DfsRank,
}

impl AsyncProtocol for DfsIdRank {
    type Msg = DfsToken;

    fn init(init: &NodeInit<'_>) -> Self {
        let mut inner = DfsRank::init(init);
        inner.deterministic_ranks = true;
        DfsIdRank { inner }
    }

    fn reinit(&mut self, init: &NodeInit<'_>) {
        self.inner.reinit(init);
        self.inner.deterministic_ranks = true;
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, DfsToken>, cause: WakeCause) {
        self.inner.on_wake(ctx, cause);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DfsToken>, from: Incoming, msg: DfsToken) {
        self.inner.on_message(ctx, from, msg);
    }
}

impl DfsRank {
    /// Points the cursor at `key`, resetting it if it currently describes a
    /// different token. A mismatch implies this node has never processed
    /// `key`'s token (visited entries are appended only by the node they
    /// name, and any previously-tracked key below `key` can never pass the
    /// `best` filter again), so a reset cursor is accurate.
    fn track(&mut self, key: (u64, u64)) {
        if self.scratch_key != Some(key) {
            self.scratch_key = Some(key);
            self.cursor = 0;
        }
    }

    /// Continues the DFS from this node, which must be the top of the
    /// token's path. Callers must have `track`ed the token's key.
    fn advance(&mut self, ctx: &mut Context<'_, DfsToken>, mut token: DfsToken) {
        debug_assert_eq!(token.path.last(), Some(&self.id));
        debug_assert_eq!(self.scratch_key, Some((token.rank, token.origin)));
        // Next unvisited neighbor in ascending ID order (deterministic) —
        // the cursor only moves forward because visited only grows.
        while self.cursor < self.neighbors.len() && token.has_visited(self.neighbors[self.cursor]) {
            self.cursor += 1;
        }
        debug_assert_eq!(
            self.neighbors.get(self.cursor).copied(),
            self.neighbors
                .iter()
                .copied()
                .find(|w| !token.visited.contains(w)),
            "cursor must agree with a direct visited scan"
        );
        match self.neighbors.get(self.cursor) {
            Some(&w) => {
                ctx.phase("dfs:descend");
                self.tokens_forwarded += 1;
                ctx.send_to_id(w, token);
            }
            None => {
                // Backtrack: pop self; forward to the DFS parent if any.
                token.path.pop();
                if let Some(&parent) = token.path.last() {
                    ctx.phase("dfs:backtrack");
                    self.tokens_forwarded += 1;
                    ctx.send_to_id(parent, token);
                }
                // An empty path means the traversal is complete.
            }
        }
    }
}

impl AsyncProtocol for DfsRank {
    type Msg = DfsToken;

    fn init(init: &NodeInit<'_>) -> Self {
        let n = init.n_hint.max(2) as u64;
        let neighbors = init
            .neighbor_ids
            .expect("DfsRank requires the KT1 knowledge mode")
            .to_vec();
        DfsRank {
            id: init.id,
            neighbors,
            rng: Xoshiro256::seed_from(init.private_seed),
            // The paper's [n^c] rank range with c = 3: collisions happen with
            // probability <= n^2 / n^3 = 1/n.
            rank_bound: n.saturating_mul(n).saturating_mul(n),
            deterministic_ranks: false,
            best: None,
            scratch_key: None,
            cursor: 0,
            tokens_forwarded: 0,
        }
    }

    fn reinit(&mut self, init: &NodeInit<'_>) {
        debug_assert_eq!(self.id, init.id, "reinit must target the same node");
        self.rng = Xoshiro256::seed_from(init.private_seed);
        self.best = None;
        self.scratch_key = None;
        self.cursor = 0;
        self.tokens_forwarded = 0;
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, DfsToken>, cause: WakeCause) {
        // Nodes woken by a message neither draw a rank nor launch a token.
        if cause != WakeCause::Adversary {
            return;
        }
        let rank = if self.deterministic_ranks {
            self.id + 1
        } else {
            1 + self.rng.next_below(self.rank_bound)
        };
        ctx.phase("dfs:launch");
        self.best = Some((rank, self.id));
        let token = DfsToken::launch(rank, self.id);
        self.track((rank, self.id));
        self.advance(ctx, token);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DfsToken>, _from: Incoming, mut msg: DfsToken) {
        let key = (msg.rank, msg.origin);
        if let Some(best) = self.best {
            if key < best {
                return; // case (b): discard
            }
        }
        self.best = Some(key);
        self.track(key);
        if !msg.has_visited(self.id) {
            // First visit: join the traversal.
            msg.record_visit(self.id);
            msg.path.push(self.id);
        }
        debug_assert_eq!(
            msg.path.last(),
            Some(&self.id),
            "a token always arrives at the top of its own path"
        );
        self.advance(ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::{generators, NodeId};
    use wakeup_sim::adversary::{AdversarialDelay, RandomDelay, WakeSchedule};
    use wakeup_sim::{AsyncConfig, AsyncEngine, Network};

    fn run(net: &Network, schedule: &WakeSchedule, seed: u64) -> wakeup_sim::RunReport {
        let config = AsyncConfig {
            seed,
            ..AsyncConfig::default()
        };
        AsyncEngine::<DfsRank>::new(net, config).run(schedule)
    }

    #[test]
    fn single_source_uses_dfs_tree_messages() {
        let g = generators::erdos_renyi_connected(40, 0.2, 1).unwrap();
        let net = Network::kt1(g, 1);
        let report = run(&net, &WakeSchedule::single(NodeId::new(0)), 9);
        assert!(report.all_awake);
        // A single token traverses a DFS tree, crossing each tree edge at
        // most twice: <= 2(n-1) messages.
        assert!(
            report.metrics.messages_sent <= 2 * (net.n() as u64 - 1),
            "messages = {}",
            report.metrics.messages_sent
        );
    }

    #[test]
    fn las_vegas_on_many_seeds_and_schedules() {
        let g = generators::erdos_renyi_connected(30, 0.15, 2).unwrap();
        let nodes: Vec<NodeId> = (0..30).step_by(3).map(NodeId::new).collect();
        let net = Network::kt1(g, 2);
        for seed in 0..8 {
            let report = run(&net, &WakeSchedule::all_at_zero(&nodes), seed);
            assert!(report.all_awake, "seed {seed}");
        }
    }

    #[test]
    fn all_awake_under_adversarial_delays() {
        let g = generators::cycle(25).unwrap();
        let net = Network::kt1(g, 3);
        let schedule = WakeSchedule::all_at_zero(&[NodeId::new(0), NodeId::new(12)]);
        let delays = AdversarialDelay::new(77);
        let config = AsyncConfig::default();
        let report = AsyncEngine::<DfsRank>::new(&net, config).run_with(&schedule, &delays);
        assert!(report.all_awake);
    }

    #[test]
    fn staggered_adversary_keeps_messages_near_n_log_n() {
        // The adversary wakes a new node every 2n time units — the schedule
        // the Theorem 3 analysis is about. Messages should stay well below
        // the naive n per token x n tokens = n^2.
        let n = 60usize;
        let g = generators::erdos_renyi_connected(n, 0.1, 4).unwrap();
        let net = Network::kt1(g, 4);
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&nodes, 2.0 * n as f64);
        let mut worst = 0u64;
        for seed in 0..5 {
            let report = run(&net, &schedule, seed);
            assert!(report.all_awake);
            worst = worst.max(report.metrics.messages_sent);
        }
        let bound = (10.0 * n as f64 * (n as f64).ln()) as u64;
        assert!(
            worst <= bound,
            "messages {worst} above O(n ln n) envelope {bound}"
        );
    }

    #[test]
    fn all_at_zero_messages_bounded() {
        let n = 50usize;
        let g = generators::erdos_renyi_connected(n, 0.15, 5).unwrap();
        let net = Network::kt1(g, 5);
        let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let delays = RandomDelay::new(3);
        let report = AsyncEngine::<DfsRank>::new(&net, AsyncConfig::default())
            .run_with(&WakeSchedule::all_at_zero(&all), &delays);
        assert!(report.all_awake);
        let bound = (12.0 * n as f64 * (n as f64).ln()) as u64;
        assert!(
            report.metrics.messages_sent <= bound,
            "messages {} above {bound}",
            report.metrics.messages_sent
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let g = generators::erdos_renyi_connected(25, 0.2, 6).unwrap();
        let net = Network::kt1(g, 6);
        let schedule = WakeSchedule::all_at_zero(&[NodeId::new(1), NodeId::new(7)]);
        let a = run(&net, &schedule, 42).metrics.messages_sent;
        let b = run(&net, &schedule, 42).metrics.messages_sent;
        assert_eq!(a, b);
    }

    #[test]
    fn works_on_trees_and_stars() {
        for g in [
            generators::star(30).unwrap(),
            generators::random_tree(30, 8).unwrap(),
        ] {
            let net = Network::kt1(g, 7);
            let report = run(&net, &WakeSchedule::single(NodeId::new(5)), 11);
            assert!(report.all_awake);
        }
    }

    #[test]
    #[should_panic(expected = "KT1")]
    fn requires_kt1() {
        let net = Network::kt0(generators::path(4).unwrap(), 0);
        let _ = run(&net, &WakeSchedule::single(NodeId::new(0)), 0);
    }

    #[test]
    fn id_ranks_lose_to_random_ranks_under_ordered_wakes() {
        // An adversary waking nodes in increasing ID order displaces the
        // leading token every time under deterministic ranks; random ranks
        // shrug it off (Theorem 3's whole point).
        let n = 60usize;
        let g = generators::erdos_renyi_connected(n, 0.1, 21).unwrap();
        // Identity IDs so "ordered by id" is meaningful from the outside.
        let net = Network::with_parts(
            g.clone(),
            wakeup_sim::PortAssignment::canonical(&g),
            wakeup_sim::IdAssignment::identity(n),
            wakeup_sim::KnowledgeMode::Kt1,
        );
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        // A short gap keeps tokens overlapping: each ordered wake displaces
        // the deterministic-rank leader mid-traversal.
        let schedule = WakeSchedule::staggered(&nodes, 2.0);
        let config = AsyncConfig {
            seed: 5,
            ..AsyncConfig::default()
        };
        let det = AsyncEngine::<super::DfsIdRank>::new(&net, config.clone()).run(&schedule);
        let rnd = AsyncEngine::<DfsRank>::new(&net, config).run(&schedule);
        assert!(det.all_awake && rnd.all_awake);
        assert!(
            det.metrics.messages_sent > 2 * rnd.metrics.messages_sent,
            "deterministic ranks {} should cost far more than random {}",
            det.metrics.messages_sent,
            rnd.metrics.messages_sent
        );
    }

    #[test]
    fn token_sizes_reported_honestly() {
        let mut t = DfsToken::launch(1, 1);
        t.record_visit(2);
        t.record_visit(3);
        // visited = [1, 2, 3], path = [1]: the membership mirror is free.
        assert_eq!(t.size_bits(), 64 * 6 + 64);
    }
}
