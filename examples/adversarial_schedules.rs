//! How adversarial can the adversary get? Stress DFS-rank (Theorem 3) with
//! wake-up schedules designed to prolong the execution, and watch the
//! O(n log n) guarantee hold anyway.
//!
//! The Theorem 3 analysis shows the adversary must wake geometrically
//! growing sets of nodes to keep displacing the maximum-rank token; this
//! example plays that adversary: it wakes one fresh node every ~2n time
//! units, right when the current token could be finishing.
//!
//! ```text
//! cargo run --example adversarial_schedules
//! ```

use wakeup_scenario::{
    run, DelaySpec, EngineSpec, GraphSpec, ProtocolSpec, ScenarioSpec, WakeSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 150usize;
    let spec = |wake, delays| ScenarioSpec {
        name: "adversarial-schedules".into(),
        graph: GraphSpec::Gnp {
            n,
            p: 0.04,
            seed: 9,
        },
        protocol: ProtocolSpec::DfsRank,
        wake,
        delays,
        engine: EngineSpec {
            seed: 21,
            shards: 1,
            audit: false,
        },
        report: None,
    };
    let envelope = |c: f64| c * n as f64 * (n as f64).ln();

    println!(
        "DFS-rank on n = {n}; O(n ln n) envelope ≈ {:.0} messages\n",
        envelope(4.0)
    );
    println!("{:<28} {:>9} {:>12}", "schedule", "messages", "time units");

    let schedules: Vec<(&str, WakeSpec)> = vec![
        ("single node", WakeSpec::Single { node: 0 }),
        ("all at time 0", WakeSpec::All),
        (
            "staggered, gap 2n",
            WakeSpec::Staggered {
                gap: 2.0 * n as f64,
            },
        ),
        (
            "staggered, gap n/4 (bursty)",
            WakeSpec::Staggered {
                gap: n as f64 / 4.0,
            },
        ),
    ];

    for (name, wake) in &schedules {
        let run = run::run_spec(&spec(wake.clone(), DelaySpec::Unit));
        assert!(run.report.all_awake, "{name}: not everyone woke");
        println!(
            "{:<28} {:>9} {:>12.1}",
            name,
            run.report.messages(),
            run.report.time_units()
        );
        assert!(
            (run.report.messages() as f64) < envelope(6.0),
            "{name}: messages above the w.h.p. envelope"
        );
    }

    // Same adversary, now also controlling per-channel delays.
    let skewed = spec(
        schedules[2].1.clone(),
        DelaySpec::Adversarial { salt: 1234 },
    );
    let run = run::run_spec(&skewed);
    assert!(run.report.all_awake);
    println!(
        "{:<28} {:>9} {:>12.1}",
        "staggered + skewed delays",
        run.report.messages(),
        run.report.time_units()
    );

    println!("\nevery schedule stayed within the O(n log n) envelope ✓");
    Ok(())
}
