//! Wake-on-LAN at data-center scale — the paper's motivating scenario.
//!
//! A fat-tree-ish topology (racks of servers under aggregation switches)
//! sleeps to save power; a burst of traffic wakes a handful of ingress
//! nodes, which must wake the whole fleet. We compare the naive broadcast
//! (every NIC spams "magic packets" on every link) against the paper's
//! message-efficient algorithms.
//!
//! ```text
//! cargo run --example datacenter_wakeup
//! ```

use wakeup::core::advice::{run_scheme, SpannerScheme};
use wakeup::core::fast_wakeup::FastWakeUp;
use wakeup::core::flooding::FloodSync;
use wakeup::graph::{algo, Graph, GraphBuilder, NodeId};
use wakeup::sim::{adversary::WakeSchedule, Network, SyncConfig, SyncEngine, TICKS_PER_UNIT};

/// Builds a two-level "data center": `spines` core switches (a clique),
/// each connected to every aggregation switch; `racks` aggregation switches
/// each serving `servers` leaf nodes.
fn datacenter(spines: usize, racks: usize, servers: usize) -> Graph {
    let n = spines + racks + racks * servers;
    let mut b = GraphBuilder::new(n);
    for s1 in 0..spines {
        for s2 in (s1 + 1)..spines {
            b.add_edge(s1, s2).unwrap();
        }
    }
    for r in 0..racks {
        let agg = spines + r;
        for s in 0..spines {
            b.add_edge(s, agg).unwrap();
        }
        for j in 0..servers {
            b.add_edge(agg, spines + racks + r * servers + j).unwrap();
        }
    }
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = datacenter(4, 20, 24);
    let n = g.n();
    println!(
        "data center: {} nodes, {} links, diameter {}",
        n,
        g.m(),
        algo::diameter(&g).unwrap()
    );

    // Ingress traffic wakes the four spine switches.
    let ingress: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let schedule = WakeSchedule::all_at_zero(&ingress);
    let rho = algo::awake_distance(&g, &ingress).unwrap();
    println!(
        "ingress wakes the {} spines; ρ_awk = {rho}\n",
        ingress.len()
    );

    // The fabric is a custom topology, so the engines run it directly.
    let seeded = |seed| SyncConfig {
        seed,
        ..SyncConfig::default()
    };

    // Naive broadcast flooding.
    let net = Network::kt1(g.clone(), 7);
    let flood = SyncEngine::<FloodSync>::new(&net, seeded(1)).run(&schedule);
    println!(
        "flooding         : {:>7} magic packets, {:>3} rounds",
        flood.messages(),
        flood.metrics.all_awake_tick.unwrap() / TICKS_PER_UNIT
    );

    // FastWakeUp (Theorem 4): ρ_awk-proportional time, subquadratic packets.
    let fast = SyncEngine::<FastWakeUp>::new(&net, seeded(2)).run(&schedule);
    println!(
        "FastWakeUp (Thm4): {:>7} magic packets, {:>3} rounds (bound: {} = 10·ρ_awk)",
        fast.messages(),
        fast.metrics.all_awake_tick.unwrap() / TICKS_PER_UNIT,
        10 * rho
    );

    // Spanner advice (Theorem 6): the management plane (oracle) preinstalls
    // tiny routing hints in each NIC's EEPROM.
    let net0 = Network::kt0(g, 7);
    let spanner = run_scheme(&SpannerScheme::new(2), &net0, &schedule, 3);
    println!(
        "spanner advice(6): {:>7} magic packets, {:>5.1} time units, {} bits max per NIC",
        spanner.report.messages(),
        spanner.report.time_units(),
        spanner.advice.max_bits
    );

    assert!(flood.all_awake && fast.all_awake && spanner.report.all_awake);
    println!("\nfleet fully awake under all three strategies ✓");

    // Telemetry view: when did the racks actually come up, and what was the
    // unavoidable serial part? The wake-latency histogram buckets each NIC's
    // sleep time (ticks past the first ingress wake); the critical path is
    // the longest chain of wake-triggering packets — the floor on wall-clock
    // wake-up no matter how wide the fabric is.
    for (name, report) in [
        ("flooding", &flood),
        ("FastWakeUp", &fast),
        ("spanner advice", &spanner.report),
    ] {
        println!(
            "\n{name}: {}\n  wake latency (ticks past first wake):",
            report.obs_snapshot().summary_line()
        );
        print!("{}", report.obs.wake_latency(&report.metrics).render(30));
    }
    Ok(())
}
