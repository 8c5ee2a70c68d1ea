//! The flooding baseline.
//!
//! "Note that ρ_awk is equivalent to the time complexity of the
//! (message-inefficient) standard flooding algorithm" (Section 1.2). Every
//! node broadcasts a one-bit wake-up signal on all ports the moment it wakes;
//! time is optimal (ρ_awk) and message complexity is Θ(m) — the yardstick
//! every message-efficient algorithm in the paper is measured against.

use wakeup_sim::{
    AsyncProtocol, Context, Inbox, Incoming, NodeInit, Payload, SyncProtocol, WakeCause,
};

/// The one-bit wake-up signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeSignal;

impl Payload for WakeSignal {
    fn size_bits(&self) -> usize {
        1
    }
}

/// Flooding in the asynchronous model (KT0 or KT1; uses ports only).
///
/// # Example
///
/// ```
/// use wakeup_core::flooding::FloodAsync;
/// use wakeup_graph::{generators, NodeId};
/// use wakeup_sim::{adversary::WakeSchedule, AsyncConfig, AsyncEngine, Network};
///
/// let net = Network::kt0(generators::grid(4, 4)?, 0);
/// let report = AsyncEngine::<FloodAsync>::new(&net, AsyncConfig::default())
///     .run(&WakeSchedule::single(NodeId::new(0)));
/// assert!(report.all_awake);
/// assert_eq!(report.metrics.messages_sent, 2 * net.graph().m() as u64);
/// # Ok::<(), wakeup_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct FloodAsync {
    broadcasted: bool,
}

impl AsyncProtocol for FloodAsync {
    type Msg = WakeSignal;

    fn init(_: &NodeInit<'_>) -> Self {
        FloodAsync { broadcasted: false }
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, WakeSignal>, _cause: WakeCause) {
        if !self.broadcasted {
            self.broadcasted = true;
            ctx.broadcast(WakeSignal);
        }
    }

    fn on_message(&mut self, _: &mut Context<'_, WakeSignal>, _: Incoming, _: WakeSignal) {}

    fn on_messages_batch(
        &mut self,
        _: &mut Context<'_, WakeSignal>,
        _: &mut Inbox<'_, WakeSignal>,
    ) {
        // Received signals carry no information beyond the wake-up the
        // engine already performed; dropping the whole batch at once skips
        // the default hook's per-message dispatch.
    }
}

/// Flooding in the synchronous model.
#[derive(Debug)]
pub struct FloodSync {
    broadcasted: bool,
}

impl SyncProtocol for FloodSync {
    type Msg = WakeSignal;

    fn init(_: &NodeInit<'_>) -> Self {
        FloodSync { broadcasted: false }
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, WakeSignal>, _cause: WakeCause) {
        if !self.broadcasted {
            self.broadcasted = true;
            ctx.broadcast(WakeSignal);
        }
    }

    fn on_round(&mut self, _: &mut Context<'_, WakeSignal>, _: Vec<(Incoming, WakeSignal)>) {}

    fn on_messages_batch(
        &mut self,
        _: &mut Context<'_, WakeSignal>,
        _: &mut Inbox<'_, WakeSignal>,
    ) {
        // As `on_round`: nothing to do — the `Inbox` drops its messages in
        // one drain, with no intermediate `Vec` materialization.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::{algo, generators, NodeId};
    use wakeup_sim::adversary::{RandomDelay, WakeSchedule};
    use wakeup_sim::{AsyncConfig, AsyncEngine, Network, SyncConfig, SyncEngine, TICKS_PER_UNIT};

    #[test]
    fn async_messages_exactly_2m() {
        for (g, seed) in [
            (generators::cycle(20).unwrap(), 1u64),
            (generators::complete(12).unwrap(), 2),
            (generators::erdos_renyi_connected(40, 0.15, 3).unwrap(), 3),
        ] {
            let m = g.m() as u64;
            let net = Network::kt0(g, seed);
            let report = AsyncEngine::<FloodAsync>::new(&net, AsyncConfig::default())
                .run(&WakeSchedule::single(NodeId::new(0)));
            assert!(report.all_awake);
            assert_eq!(report.metrics.messages_sent, 2 * m);
        }
    }

    #[test]
    fn sync_wakeup_time_equals_awake_distance() {
        let g = generators::grid(5, 6).unwrap();
        let awake = [NodeId::new(0), NodeId::new(29)];
        let rho = algo::awake_distance(&g, &awake).unwrap() as u64;
        let net = Network::kt1(g, 4);
        let report = SyncEngine::<FloodSync>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::all_at_zero(&awake));
        assert!(report.all_awake);
        assert_eq!(
            report.metrics.all_awake_tick,
            Some(rho * TICKS_PER_UNIT),
            "flooding wakes everyone in exactly ρ_awk rounds"
        );
    }

    #[test]
    fn async_wakeup_within_awake_distance_under_any_delay() {
        let g = generators::erdos_renyi_connected(50, 0.08, 5).unwrap();
        let awake: Vec<NodeId> = vec![NodeId::new(3), NodeId::new(40)];
        let rho = algo::awake_distance(&g, &awake).unwrap() as f64;
        let net = Network::kt0(g, 5);
        for seed in 0..5 {
            let delays = RandomDelay::new(seed);
            let report = AsyncEngine::<FloodAsync>::new(&net, AsyncConfig::default())
                .run_with(&WakeSchedule::all_at_zero(&awake), &delays);
            assert!(report.metrics.wakeup_time_units().unwrap() <= rho + 1e-9);
        }
    }

    #[test]
    fn staggered_wakes_still_flood() {
        let g = generators::path(12).unwrap();
        let nodes: Vec<NodeId> = (0..12).step_by(4).map(NodeId::new).collect();
        let net = Network::kt0(g, 7);
        let report = AsyncEngine::<FloodAsync>::new(&net, AsyncConfig::default())
            .run(&WakeSchedule::staggered(&nodes, 3.0));
        assert!(report.all_awake);
    }
}
