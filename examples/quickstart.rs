//! Quickstart: wake a sleeping network three ways and compare the paper's
//! complexity measures.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use wakeup::graph::{algo, NodeId};
use wakeup_scenario::{
    run, DelaySpec, EngineSpec, GraphSpec, ProtocolSpec, ScenarioSpec, WakeSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 200-node sparse random network; the adversary wakes one node. A
    // scenario spec pins the whole workload; only the protocol varies.
    let n = 200;
    let spec = |protocol| ScenarioSpec {
        name: "quickstart".into(),
        graph: GraphSpec::Gnp {
            n,
            p: 0.03,
            seed: 42,
        },
        protocol,
        wake: WakeSpec::Single { node: 0 },
        delays: DelaySpec::Unit,
        engine: EngineSpec {
            seed: 42,
            shards: 1,
            audit: false,
        },
        report: None,
    };
    let g = run::build_graph(&spec(ProtocolSpec::Flooding).graph);
    let diameter = algo::diameter(&g).expect("connected");
    let rho_awk = algo::awake_distance(&g, &[NodeId::new(0)]).expect("connected");
    println!("network: n = {n}, m = {}, diameter = {diameter}", g.m());
    println!("adversary wakes node 0; everyone else sleeps\n");

    // 1. Flooding: optimal time, Θ(m) messages.
    let flood = run::run_spec(&spec(ProtocolSpec::Flooding));
    println!(
        "flooding        : {:>6} messages, {:>6.1} time units (ρ_awk = {rho_awk})",
        flood.report.messages(),
        flood.report.time_units(),
    );

    // 2. DFS-rank (Theorem 3): O(n log n) messages under KT1.
    let dfs = run::run_spec(&spec(ProtocolSpec::DfsRank));
    println!(
        "DFS-rank (Thm 3): {:>6} messages, {:>6.1} time units",
        dfs.report.messages(),
        dfs.report.time_units()
    );

    // 3. Child-encoding advice (Theorem 5B): O(n) messages with O(log n)-bit
    //    advice per node, back in KT0 CONGEST.
    let cen = run::run_spec(&spec(ProtocolSpec::Thm5b));
    let advice = cen.advice.expect("advising scheme");
    println!(
        "CEN advice (5B) : {:>6} messages, {:>6.1} time units, advice max {} bits / avg {:.1} bits",
        cen.report.messages(),
        cen.report.time_units(),
        advice.max_bits,
        advice.avg_bits
    );

    for (name, ok) in [
        ("flooding", flood.report.all_awake),
        ("dfs-rank", dfs.report.all_awake),
        ("cen", cen.report.all_awake),
    ] {
        assert!(ok, "{name} failed to wake everyone");
    }
    println!("\nall three algorithms woke every node ✓");
    Ok(())
}
