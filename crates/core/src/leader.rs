//! Leader election under adversarial wake-up — the extension the paper's
//! related-work section motivates (Section 1.3 discusses leader election
//! with adversarially awoken nodes under KT0; here we build it on top of the
//! Theorem 3 machinery under KT1).
//!
//! The construction: run [`crate::dfs_rank::DfsRank`]'s token protocol; a
//! token that returns to its origin with an empty path was never discarded,
//! hence visited *every* node — its origin announces itself as a leader
//! candidate by flooding an announcement. Multiple candidates are possible
//! (a low-rank token can finish before ever meeting a higher trail), so
//! nodes adopt the lexicographically largest announced `(rank, id)`;
//! announcements for smaller candidates are not forwarded past a node that
//! knows a larger one, so every node converges to the same leader and the
//! announcement overhead stays O(n) per surviving candidate.
//!
//! Every node records the final leader's ID as its output, which makes
//! agreement checkable from the run report.

use wakeup_graph::rng::Xoshiro256;
use wakeup_sim::{AsyncProtocol, Context, Incoming, NodeInit, Payload, WakeCause};

/// Messages of the leader-election protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectMsg {
    /// A DFS token (same semantics as [`crate::dfs_rank::DfsToken`]).
    Token {
        /// The originator's random rank.
        rank: u64,
        /// The originator's ID.
        origin: u64,
        /// IDs visited so far.
        visited: Vec<u64>,
        /// Current DFS stack.
        path: Vec<u64>,
    },
    /// A completed traversal's victory announcement.
    Announce {
        /// The candidate's rank.
        rank: u64,
        /// The candidate's ID.
        leader: u64,
    },
}

impl Payload for ElectMsg {
    fn size_bits(&self) -> usize {
        match self {
            ElectMsg::Token { visited, path, .. } => 64 * (2 + visited.len() + path.len()) + 64,
            ElectMsg::Announce { .. } => 128 + 2,
        }
    }
}

/// Leader election via random-rank DFS plus announcement flooding.
#[derive(Debug)]
pub struct LeaderElect {
    id: u64,
    neighbors: Vec<u64>,
    rng: Xoshiro256,
    rank_bound: u64,
    best_token: Option<(u64, u64)>,
    /// The best announced leader this node has adopted.
    adopted: Option<(u64, u64)>,
}

impl LeaderElect {
    fn advance(
        &mut self,
        ctx: &mut Context<'_, ElectMsg>,
        rank: u64,
        origin: u64,
        mut visited: Vec<u64>,
        mut path: Vec<u64>,
    ) {
        debug_assert_eq!(path.last(), Some(&self.id));
        let next = self
            .neighbors
            .iter()
            .copied()
            .find(|w| !visited.contains(w));
        match next {
            Some(w) => {
                ctx.send_to_id(
                    w,
                    ElectMsg::Token {
                        rank,
                        origin,
                        visited,
                        path,
                    },
                );
            }
            None => {
                path.pop();
                if let Some(&parent) = path.last() {
                    ctx.send_to_id(
                        parent,
                        ElectMsg::Token {
                            rank,
                            origin,
                            visited,
                            path,
                        },
                    );
                } else if origin == self.id {
                    // The token came home without ever being discarded: it
                    // visited everyone. Announce.
                    visited.clear();
                    self.adopt(ctx, rank, self.id);
                }
            }
        }
    }

    /// Adopts a candidate if it beats the current one and floods it onward.
    fn adopt(&mut self, ctx: &mut Context<'_, ElectMsg>, rank: u64, leader: u64) {
        let candidate = (rank, leader);
        if self.adopted.is_none_or(|cur| candidate > cur) {
            self.adopted = Some(candidate);
            ctx.output(leader);
            for &w in &self.neighbors.clone() {
                ctx.send_to_id(w, ElectMsg::Announce { rank, leader });
            }
        }
    }
}

impl AsyncProtocol for LeaderElect {
    type Msg = ElectMsg;

    fn init(init: &NodeInit<'_>) -> Self {
        let n = init.n_hint.max(2) as u64;
        LeaderElect {
            id: init.id,
            neighbors: init
                .neighbor_ids
                .expect("LeaderElect requires the KT1 knowledge mode")
                .to_vec(),
            rng: Xoshiro256::seed_from(init.private_seed),
            rank_bound: n.saturating_mul(n).saturating_mul(n),
            best_token: None,
            adopted: None,
        }
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, ElectMsg>, cause: WakeCause) {
        if cause != WakeCause::Adversary {
            return;
        }
        let rank = 1 + self.rng.next_below(self.rank_bound);
        self.best_token = Some((rank, self.id));
        if self.neighbors.is_empty() {
            // Isolated node: its own token trivially "completes".
            self.adopt(ctx, rank, self.id);
            return;
        }
        self.advance(ctx, rank, self.id, vec![self.id], vec![self.id]);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ElectMsg>, _from: Incoming, msg: ElectMsg) {
        match msg {
            ElectMsg::Token {
                rank,
                origin,
                mut visited,
                mut path,
            } => {
                let key = (rank, origin);
                if let Some(best) = self.best_token {
                    if key < best {
                        return;
                    }
                }
                self.best_token = Some(key);
                if !visited.contains(&self.id) {
                    visited.push(self.id);
                    path.push(self.id);
                }
                self.advance(ctx, rank, origin, visited, path);
            }
            ElectMsg::Announce { rank, leader } => {
                self.adopt(ctx, rank, leader);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::{generators, NodeId};
    use wakeup_sim::adversary::{RandomDelay, WakeSchedule};
    use wakeup_sim::{AsyncConfig, AsyncEngine, Network};

    fn run(net: &Network, schedule: &WakeSchedule, seed: u64) -> wakeup_sim::RunReport {
        let config = AsyncConfig {
            seed,
            ..AsyncConfig::default()
        };
        AsyncEngine::<LeaderElect>::new(net, config).run(schedule)
    }

    fn agreed_leader(report: &wakeup_sim::RunReport) -> u64 {
        let first = report.outputs[0].expect("node 0 elected someone");
        for (v, out) in report.outputs.iter().enumerate() {
            assert_eq!(
                out.expect("every node elects"),
                first,
                "disagreement at node {v}"
            );
        }
        first
    }

    #[test]
    fn single_source_elects_itself() {
        let g = generators::erdos_renyi_connected(30, 0.2, 1).unwrap();
        let net = Network::kt1(g, 1);
        let report = run(&net, &WakeSchedule::single(NodeId::new(4)), 2);
        assert!(report.all_awake);
        let leader = agreed_leader(&report);
        assert_eq!(leader, net.ids().id(NodeId::new(4)));
    }

    #[test]
    fn multi_source_agreement_across_seeds() {
        let g = generators::erdos_renyi_connected(40, 0.12, 2).unwrap();
        let awake: Vec<NodeId> = (0..40).step_by(5).map(NodeId::new).collect();
        let net = Network::kt1(g, 2);
        for seed in 0..6 {
            let report = run(&net, &WakeSchedule::all_at_zero(&awake), seed);
            assert!(report.all_awake, "seed {seed}");
            let leader = agreed_leader(&report);
            // The leader must be one of the adversary-woken nodes.
            assert!(
                awake.iter().any(|&v| net.ids().id(v) == leader),
                "seed {seed}: leader {leader} was never woken by the adversary"
            );
        }
    }

    #[test]
    fn agreement_under_random_delays_and_staggered_wakes() {
        let g = generators::grid(5, 6).unwrap();
        let net = Network::kt1(g, 3);
        let awake: Vec<NodeId> = vec![NodeId::new(0), NodeId::new(29), NodeId::new(14)];
        let schedule = WakeSchedule::staggered(&awake, 11.0);
        for seed in 0..5 {
            let delays = RandomDelay::new(seed);
            let config = AsyncConfig {
                seed,
                ..AsyncConfig::default()
            };
            let report = AsyncEngine::<LeaderElect>::new(&net, config).run_with(&schedule, &delays);
            assert!(report.all_awake);
            agreed_leader(&report);
        }
    }

    #[test]
    fn message_overhead_linear_over_dfs() {
        let n = 50usize;
        let g = generators::erdos_renyi_connected(n, 0.15, 4).unwrap();
        let net = Network::kt1(g, 4);
        let report = run(&net, &WakeSchedule::single(NodeId::new(0)), 5);
        // One token DFS (≤ 2(n−1)) plus one announcement flood (2m would be
        // the worst case, but each node forwards the winning announcement
        // once: ≤ sum of degrees).
        let m = net.graph().m() as u64;
        assert!(
            report.metrics.messages_sent <= 2 * (n as u64) + 2 * m,
            "messages {}",
            report.metrics.messages_sent
        );
    }

    #[test]
    fn works_on_trees() {
        let g = generators::random_tree(35, 9).unwrap();
        let net = Network::kt1(g, 9);
        let awake: Vec<NodeId> = vec![NodeId::new(1), NodeId::new(20)];
        let report = run(&net, &WakeSchedule::all_at_zero(&awake), 6);
        assert!(report.all_awake);
        agreed_leader(&report);
    }
}
