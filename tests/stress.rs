//! Large-scale stress tests, ignored by default (debug builds would crawl).
//!
//! ```text
//! cargo test --release -p wakeup --test stress -- --ignored
//! ```

use wakeup::core::advice::{run_scheme, CenScheme};
use wakeup::core::dfs_rank::DfsRank;
use wakeup::core::flooding::FloodAsync;
use wakeup::graph::{generators, NodeId};
use wakeup::sim::adversary::WakeSchedule;
use wakeup::sim::{AsyncConfig, AsyncEngine, Network};

fn async_seed(seed: u64) -> AsyncConfig {
    AsyncConfig {
        seed,
        ..AsyncConfig::default()
    }
}

#[test]
#[ignore = "large-scale; run in release with -- --ignored"]
fn flooding_at_twenty_thousand_nodes() {
    let n = 20_000usize;
    let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 1).unwrap();
    let m = g.m() as u64;
    let net = Network::kt0(g, 1);
    let report = AsyncEngine::<FloodAsync>::new(&net, async_seed(1))
        .run(&WakeSchedule::single(NodeId::new(0)));
    assert!(report.all_awake);
    assert_eq!(report.messages(), 2 * m);
}

#[test]
#[ignore = "large-scale; run in release with -- --ignored"]
fn dfs_rank_at_five_thousand_nodes_staggered() {
    let n = 5_000usize;
    let g = generators::erdos_renyi_connected(n, 8.0 / n as f64, 2).unwrap();
    let net = Network::kt1(g, 2);
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let report =
        AsyncEngine::<DfsRank>::new(&net, async_seed(2)).run(&WakeSchedule::staggered(&all, 2.0));
    assert!(report.all_awake);
    let bound = (8.0 * n as f64 * (n as f64).ln()) as u64;
    assert!(report.messages() <= bound);
}

#[test]
#[ignore = "large-scale; run in release with -- --ignored"]
fn cen_at_ten_thousand_nodes() {
    let n = 10_000usize;
    let g = generators::random_tree(n, 3).unwrap();
    let net = Network::kt0(g, 3);
    let run = run_scheme(
        &CenScheme::new(),
        &net,
        &WakeSchedule::single(NodeId::new(7)),
        3,
    );
    assert!(run.report.all_awake);
    assert!(run.report.messages() <= 3 * n as u64);
    assert!(run.advice.max_bits <= 80, "O(log n) advice at scale");
}
