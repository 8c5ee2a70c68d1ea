//! Per-node energy accounting — the paper's motivation made measurable.
//!
//! The introduction motivates wake-up with Wake-on-LAN and data-center
//! energy budgets; what a NIC pays for is *handling messages* (sends and
//! receipts). This module turns a run's metrics into an energy profile:
//! total load, the worst node's load, and a Gini coefficient of the load
//! distribution. Two algorithms with the same message complexity can load
//! the network very differently (DFS concentrates traffic on the token's
//! path; flooding spreads it by degree), and the `energy_audit` example
//! compares them.

use wakeup_sim::Metrics;

/// Energy profile of an execution (1 unit = one message handled).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Per-node load: messages sent + received.
    pub load: Vec<u64>,
    /// Sum of loads (= 2 × messages sent).
    pub total: u64,
    /// The most-loaded node's load.
    pub max: u64,
    /// Mean load.
    pub mean: f64,
    /// Gini coefficient of the load distribution (0 = perfectly even,
    /// → 1 = one node does everything).
    pub gini: f64,
}

impl EnergyReport {
    /// Computes the profile from a run's metrics.
    ///
    /// # Panics
    ///
    /// Panics for zero-node metrics.
    pub fn from_metrics(metrics: &Metrics) -> EnergyReport {
        let n = metrics.sent_by.len();
        assert!(n > 0, "energy profile needs at least one node");
        let load: Vec<u64> = metrics
            .sent_by
            .iter()
            .zip(&metrics.received_by)
            .map(|(&s, &r)| s + r)
            .collect();
        let total: u64 = load.iter().sum();
        let max = load.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / n as f64;
        EnergyReport {
            gini: gini(&load),
            load,
            total,
            max,
            mean,
        }
    }

    /// Ratio of the worst node's load to the mean (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        if self.mean > 0.0 {
            self.max as f64 / self.mean
        } else {
            1.0
        }
    }
}

/// Gini coefficient of a nonnegative sample (0 for empty/all-zero samples).
pub fn gini(values: &[u64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    // G = (2 * sum_i i*x_(i) ) / (n * sum x) - (n + 1) / n, i from 1.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs_rank::DfsRank;
    use crate::flooding::FloodAsync;
    use wakeup_graph::{generators, NodeId};
    use wakeup_sim::adversary::WakeSchedule;
    use wakeup_sim::{AsyncConfig, AsyncEngine, AsyncProtocol, Network, RunReport};

    fn run<P: AsyncProtocol>(net: &Network, schedule: &WakeSchedule, seed: u64) -> RunReport {
        let config = AsyncConfig {
            seed,
            ..AsyncConfig::default()
        };
        AsyncEngine::<P>::new(net, config).run(schedule)
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12, "even loads have Gini 0");
        // One node does everything among many: Gini → 1 - 1/n.
        let g = gini(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 100]);
        assert!(g > 0.85, "{g}");
    }

    #[test]
    fn profile_conserves_totals() {
        let g = generators::erdos_renyi_connected(40, 0.15, 1).unwrap();
        let net = Network::kt0(g, 1);
        let report = run::<FloodAsync>(&net, &WakeSchedule::single(NodeId::new(0)), 1);
        let profile = EnergyReport::from_metrics(&report.metrics);
        assert_eq!(profile.total, 2 * report.messages());
        assert!(profile.max >= profile.mean as u64);
        assert!((0.0..=1.0).contains(&profile.gini));
    }

    #[test]
    fn flooding_load_tracks_degree() {
        // Under flooding each node sends deg and receives deg: load = 2·deg.
        let g = generators::star(20).unwrap();
        let net = Network::kt0(g, 2);
        let report = run::<FloodAsync>(&net, &WakeSchedule::single(NodeId::new(0)), 2);
        let profile = EnergyReport::from_metrics(&report.metrics);
        assert_eq!(profile.load[0], 2 * 19, "hub handles 2·deg");
        assert_eq!(profile.load[5], 2, "leaves handle 2");
    }

    #[test]
    fn dfs_spends_less_total_but_not_necessarily_balanced() {
        let g = generators::complete(30).unwrap();
        let net0 = Network::kt0(g.clone(), 3);
        let net1 = Network::kt1(g, 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let flood = run::<FloodAsync>(&net0, &schedule, 3);
        let dfs = run::<DfsRank>(&net1, &schedule, 3);
        let ef = EnergyReport::from_metrics(&flood.metrics);
        let ed = EnergyReport::from_metrics(&dfs.metrics);
        assert!(
            ed.total < ef.total,
            "DFS total energy below flooding on K_n"
        );
    }
}
