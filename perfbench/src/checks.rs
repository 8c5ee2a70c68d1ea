//! Output checks. Each one tests a property every legal execution has (a
//! model invariant), never pinned output bytes, so re-pinning the
//! repository's goldens does not touch the benchmark.

use wakeup_scenario::conformance::CheckReport;
use wakeup_sim::advice::AdviceStats;
use wakeup_sim::RunReport;

/// What every `flood` run must report, derived once from the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodExpect {
    pub n: usize,
    /// Flooding sends one message over each edge in each direction.
    pub messages: u64,
    /// Under unit delays, the wake-up time is the wake node's eccentricity
    /// (`graph::algo::awake_distance`), in τ units.
    pub wake_time_units: f64,
}

fn awake(report: &RunReport, n: usize) -> Result<(), String> {
    if report.truncated {
        return Err("run truncated at the engine's event cap".into());
    }
    let awake = report.metrics.awake_count();
    if !report.all_awake || awake != n {
        return Err(format!("{awake} of {n} nodes awake"));
    }
    Ok(())
}

pub fn check_flood(report: &RunReport, expect: &FloodExpect) -> Result<(), String> {
    awake(report, expect.n)?;
    if report.audit_log.is_some() {
        return Err("a measured run recorded an audit log".into());
    }
    if report.messages() != expect.messages {
        return Err(format!(
            "{} messages, flooding sends exactly 2m = {}",
            report.messages(),
            expect.messages
        ));
    }
    match report.metrics.wakeup_time_units() {
        Some(t) if t == expect.wake_time_units => Ok(()),
        other => Err(format!(
            "wake-up time {other:?}, expected the awake distance {}",
            expect.wake_time_units
        )),
    }
}

/// A `table1` cell: everyone awake, not truncated, and advice statistics
/// present exactly for the advising-scheme rows.
pub fn check_cell(
    report: &RunReport,
    n: usize,
    scheme: bool,
    advice: Option<&AdviceStats>,
) -> Result<(), String> {
    awake(report, n)?;
    match (scheme, advice) {
        (true, Some(a)) if a.max_bits > 0 => Ok(()),
        (true, _) => Err("scheme row reported no advice".into()),
        (false, Some(_)) => Err("non-scheme row reported advice".into()),
        (false, None) => Ok(()),
    }
}

/// A conformance battery: every check must pass.
pub fn check_battery(checks: &[CheckReport]) -> Result<(), String> {
    if checks.is_empty() {
        return Err("battery ran no checks".into());
    }
    match checks.iter().find(|c| !c.passed) {
        Some(c) => Err(format!("check {} failed: {}", c.name, c.detail)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::{algo, NodeId};
    use wakeup_scenario::run::{build_network, run_spec_on};
    use wakeup_scenario::ScenarioSpec;

    fn flood() -> (RunReport, FloodExpect) {
        let spec = ScenarioSpec::parse(&crate::inputs::flood_spec(3, 1)).unwrap();
        let spec = ScenarioSpec {
            graph: wakeup_scenario::GraphSpec::Sparse { n: 256, seed: 3 },
            ..spec
        };
        let net = build_network(&spec);
        let wake = match spec.wake {
            wakeup_scenario::WakeSpec::Single { node } => node % 256,
            _ => unreachable!(),
        };
        let spec = ScenarioSpec {
            wake: wakeup_scenario::WakeSpec::Single { node: wake },
            ..spec
        };
        let rho = algo::awake_distance(net.graph(), &[NodeId::new(wake)]).unwrap();
        let expect = FloodExpect {
            n: 256,
            messages: 2 * net.graph().m() as u64,
            wake_time_units: rho as f64,
        };
        (run_spec_on(&spec, &net).report, expect)
    }

    #[test]
    fn flood_check_accepts_a_real_run() {
        let (report, expect) = flood();
        check_flood(&report, &expect).unwrap();
    }

    #[test]
    fn flood_check_rejects_a_sleeping_node() {
        let (mut report, expect) = flood();
        report.metrics.wake_tick[17] = None;
        assert!(check_flood(&report, &expect).is_err());
        let (mut report, _) = flood();
        report.all_awake = false;
        assert!(check_flood(&report, &expect).is_err());
    }

    #[test]
    fn flood_check_rejects_a_missing_message() {
        let (mut report, expect) = flood();
        report.metrics.messages_sent -= 1;
        assert!(check_flood(&report, &expect).is_err());
    }

    #[test]
    fn flood_check_rejects_wrong_time_and_truncation() {
        let (mut report, expect) = flood();
        *report.metrics.all_awake_tick.as_mut().unwrap() += 1;
        assert!(check_flood(&report, &expect).is_err());
        let (mut report, _) = flood();
        report.truncated = true;
        assert!(check_flood(&report, &expect).is_err());
    }

    #[test]
    fn cell_check_requires_advice_on_scheme_rows() {
        let (report, _) = flood();
        check_cell(&report, 256, false, None).unwrap();
        assert!(check_cell(&report, 256, true, None).is_err());
        let stats = AdviceStats {
            max_bits: 3,
            total_bits: 9,
            avg_bits: 9.0 / 256.0,
        };
        check_cell(&report, 256, true, Some(&stats)).unwrap();
        assert!(check_cell(&report, 256, false, Some(&stats)).is_err());
        assert!(check_cell(&report, 257, false, None).is_err());
    }

    #[test]
    fn battery_check_rejects_a_failed_check() {
        let spec = wakeup_scenario::gen::SpecGen::new(5).spec(0);
        let mut checks = wakeup_scenario::conformance::run_battery(&spec);
        check_battery(&checks).unwrap();
        checks[0].passed = false;
        assert!(check_battery(&checks).is_err());
        assert!(check_battery(&[]).is_err());
    }
}
