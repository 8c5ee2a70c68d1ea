//! Message-delay strategies for the asynchronous engine.

use wakeup_graph::rng::Xoshiro256;
use wakeup_graph::NodeId;

use crate::metrics::TICKS_PER_UNIT;

/// Chooses the delay of each message, in ticks within `[1, TICKS_PER_UNIT]`
/// (i.e. within `(0, τ]` time units, the paper's normalization).
///
/// Strategies are deterministic functions of the message's static description
/// (sender, receiver, send tick, per-channel sequence number): this is what
/// makes the adversary *oblivious* — it cannot react to node randomness,
/// because it never sees any execution state beyond what it scheduled itself.
pub trait DelayStrategy {
    /// Delay in ticks for the `seq`-th message on the directed channel
    /// `from → to`, sent at `send_tick`. Must lie in `[1, TICKS_PER_UNIT]`;
    /// the engine clamps out-of-range values and FIFO order is restored by
    /// the engine regardless.
    fn delay_ticks(&mut self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64;

    /// A per-shard clone for the engines' intra-run sharded runs, or `None`
    /// if the strategy cannot be split (the engines then run on one shard,
    /// which is byte-identical anyway, and record
    /// [`crate::shard::ShardFallback::UnforkableDelays`]).
    ///
    /// A strategy may return `Some` **only if** it is a pure function of the
    /// `delay_ticks` arguments — each shard calls its fork for the shard's
    /// own senders only, so call *order and interleaving* differ from the
    /// one-shard run, and any hidden sequential state (e.g. [`RandomDelay`]'s
    /// RNG) would produce different delays. The default is `None`.
    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        None
    }
}

impl<D: DelayStrategy + ?Sized> DelayStrategy for Box<D> {
    fn delay_ticks(&mut self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64 {
        (**self).delay_ticks(from, to, send_tick, seq)
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        (**self).fork()
    }
}

impl<D: DelayStrategy + ?Sized> DelayStrategy for &mut D {
    fn delay_ticks(&mut self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64 {
        (**self).delay_ticks(from, to, send_tick, seq)
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        (**self).fork()
    }
}

/// Every message takes exactly τ (the worst uniform delay).
///
/// Under `UnitDelay` the async engine behaves like a synchronizer, which
/// makes analytical predictions easy to check in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitDelay;

impl DelayStrategy for UnitDelay {
    fn delay_ticks(&mut self, _: NodeId, _: NodeId, _: u64, _: u64) -> u64 {
        TICKS_PER_UNIT
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        Some(Box::new(*self))
    }
}

/// Independent uniform delays in `(0, τ]`, keyed by a seed.
#[derive(Debug, Clone)]
pub struct RandomDelay {
    rng: Xoshiro256,
}

impl RandomDelay {
    /// Creates the strategy from a seed.
    pub fn new(seed: u64) -> RandomDelay {
        RandomDelay {
            rng: Xoshiro256::seed_from(seed),
        }
    }
}

impl DelayStrategy for RandomDelay {
    fn delay_ticks(&mut self, _: NodeId, _: NodeId, _: u64, _: u64) -> u64 {
        1 + self.rng.next_below(TICKS_PER_UNIT)
    }
}

/// A skew-maximizing adversary: some directed channels are consistently fast
/// (1 tick) and others consistently slow (τ), decided by a hash of the
/// channel — the classic construction for separating asynchronous executions
/// from synchronous ones and stressing FIFO/ordering assumptions.
#[derive(Debug, Clone)]
pub struct AdversarialDelay {
    salt: u64,
}

impl AdversarialDelay {
    /// Creates the strategy; `salt` picks which channels are slow.
    pub fn new(salt: u64) -> AdversarialDelay {
        AdversarialDelay { salt }
    }

    fn channel_hash(&self, from: NodeId, to: NodeId) -> u64 {
        let mut x = self.salt
            ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }
}

impl DelayStrategy for AdversarialDelay {
    fn delay_ticks(&mut self, from: NodeId, to: NodeId, _send_tick: u64, _seq: u64) -> u64 {
        if self.channel_hash(from, to) & 1 == 0 {
            1
        } else {
            TICKS_PER_UNIT
        }
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Targets a victim set: every channel touching a victim runs at the full τ
/// delay while the rest of the network is fast — models a congested switch
/// or a deliberately throttled segment.
#[derive(Debug, Clone)]
pub struct TargetedDelay {
    victims: std::collections::HashSet<NodeId>,
    fast_ticks: u64,
}

impl TargetedDelay {
    /// Creates the strategy; `fast_ticks` is the delay on unaffected
    /// channels (clamped into `[1, TICKS_PER_UNIT]` by the engine).
    pub fn new(victims: impl IntoIterator<Item = NodeId>, fast_ticks: u64) -> TargetedDelay {
        TargetedDelay {
            victims: victims.into_iter().collect(),
            fast_ticks: fast_ticks.clamp(1, TICKS_PER_UNIT),
        }
    }
}

impl DelayStrategy for TargetedDelay {
    fn delay_ticks(&mut self, from: NodeId, to: NodeId, _: u64, _: u64) -> u64 {
        if self.victims.contains(&from) || self.victims.contains(&to) {
            TICKS_PER_UNIT
        } else {
            self.fast_ticks
        }
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Alternating fast/slow time windows network-wide — bursty congestion.
/// During a slow window every message takes τ; otherwise 1 tick.
#[derive(Debug, Clone)]
pub struct BurstDelay {
    period_ticks: u64,
    slow_fraction: f64,
}

impl BurstDelay {
    /// Creates the strategy with the window length in τ units and the
    /// fraction of each window that is slow.
    ///
    /// # Panics
    ///
    /// Panics if `period_units == 0` or `slow_fraction` is outside `[0, 1]`.
    pub fn new(period_units: u64, slow_fraction: f64) -> BurstDelay {
        assert!(period_units > 0, "burst period must be positive");
        assert!(
            (0.0..=1.0).contains(&slow_fraction),
            "slow fraction must be within [0, 1]"
        );
        BurstDelay {
            period_ticks: period_units * TICKS_PER_UNIT,
            slow_fraction,
        }
    }
}

impl DelayStrategy for BurstDelay {
    fn delay_ticks(&mut self, _: NodeId, _: NodeId, send_tick: u64, _: u64) -> u64 {
        let phase = (send_tick % self.period_ticks) as f64 / self.period_ticks as f64;
        if phase < self.slow_fraction {
            TICKS_PER_UNIT
        } else {
            1
        }
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Caps another strategy's delays at `max_ticks` — modelling a network whose
/// effective τ is tighter than the engine constant [`TICKS_PER_UNIT`].
///
/// The conformance audits run every strategy under caps of a few ticks
/// (τ ∈ {1, 3, 16}) to stress tick-level orderings that the full τ never
/// exercises; pair with `AuditScope::with_max_delay_ticks(max_ticks)` so the
/// delay-bound invariant checks the tightened bound.
#[derive(Debug, Clone)]
pub struct CappedDelay<D> {
    inner: D,
    max_ticks: u64,
}

impl<D> CappedDelay<D> {
    /// Wraps `inner`, clamping its delays into `[1, max_ticks]`
    /// (`max_ticks` itself is clamped into `[1, TICKS_PER_UNIT]`).
    pub fn new(inner: D, max_ticks: u64) -> CappedDelay<D> {
        CappedDelay {
            inner,
            max_ticks: max_ticks.clamp(1, TICKS_PER_UNIT),
        }
    }

    /// The effective delay bound in ticks.
    pub fn max_ticks(&self) -> u64 {
        self.max_ticks
    }
}

impl<D: DelayStrategy> DelayStrategy for CappedDelay<D> {
    fn delay_ticks(&mut self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64 {
        self.inner
            .delay_ticks(from, to, send_tick, seq)
            .clamp(1, self.max_ticks)
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        self.inner.fork().map(|inner| {
            Box::new(CappedDelay {
                inner,
                max_ticks: self.max_ticks,
            }) as Box<dyn DelayStrategy + Send>
        })
    }
}

/// The FIFO worst case: per-channel delays strictly decrease with the
/// sequence number, so *every* later message would overtake every earlier
/// one if the engine's FIFO clamp were broken — the most hostile schedule
/// for channel-order bookkeeping (deliveries collapse onto shared ticks and
/// must still come out in send order).
#[derive(Debug, Clone)]
pub struct FifoWorstDelay {
    max_ticks: u64,
}

impl FifoWorstDelay {
    /// Creates the strategy with delays starting at `max_ticks` (clamped
    /// into `[1, TICKS_PER_UNIT]`) and decreasing per channel message.
    pub fn new(max_ticks: u64) -> FifoWorstDelay {
        FifoWorstDelay {
            max_ticks: max_ticks.clamp(1, TICKS_PER_UNIT),
        }
    }
}

impl Default for FifoWorstDelay {
    /// Starts from the full τ.
    fn default() -> FifoWorstDelay {
        FifoWorstDelay::new(TICKS_PER_UNIT)
    }
}

impl DelayStrategy for FifoWorstDelay {
    fn delay_ticks(&mut self, _: NodeId, _: NodeId, _: u64, seq: u64) -> u64 {
        // Strictly decreasing until the floor of 1 tick; later messages on a
        // long channel all race at top speed, which keeps the pressure on.
        self.max_ticks.saturating_sub(seq).max(1)
    }

    fn fork(&self) -> Option<Box<dyn DelayStrategy + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_delay_is_tau() {
        let mut d = UnitDelay;
        assert_eq!(
            d.delay_ticks(NodeId::new(0), NodeId::new(1), 0, 0),
            TICKS_PER_UNIT
        );
    }

    #[test]
    fn random_delay_in_range_and_reproducible() {
        let mut a = RandomDelay::new(4);
        let mut b = RandomDelay::new(4);
        for i in 0..200 {
            let x = a.delay_ticks(NodeId::new(0), NodeId::new(1), i, i);
            let y = b.delay_ticks(NodeId::new(0), NodeId::new(1), i, i);
            assert_eq!(x, y);
            assert!((1..=TICKS_PER_UNIT).contains(&x));
        }
    }

    #[test]
    fn adversarial_delay_is_per_channel_constant() {
        let mut d = AdversarialDelay::new(11);
        let first = d.delay_ticks(NodeId::new(3), NodeId::new(7), 0, 0);
        for i in 1..50 {
            assert_eq!(d.delay_ticks(NodeId::new(3), NodeId::new(7), i, i), first);
        }
    }

    #[test]
    fn targeted_delay_punishes_victims_only() {
        let mut d = TargetedDelay::new([NodeId::new(3)], 1);
        assert_eq!(
            d.delay_ticks(NodeId::new(3), NodeId::new(1), 0, 0),
            TICKS_PER_UNIT
        );
        assert_eq!(
            d.delay_ticks(NodeId::new(1), NodeId::new(3), 0, 0),
            TICKS_PER_UNIT
        );
        assert_eq!(d.delay_ticks(NodeId::new(1), NodeId::new(2), 0, 0), 1);
    }

    #[test]
    fn burst_delay_alternates() {
        let mut d = BurstDelay::new(4, 0.5);
        assert_eq!(
            d.delay_ticks(NodeId::new(0), NodeId::new(1), 0, 0),
            TICKS_PER_UNIT
        );
        assert_eq!(
            d.delay_ticks(NodeId::new(0), NodeId::new(1), 3 * TICKS_PER_UNIT, 0),
            1
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn burst_zero_period_rejected() {
        BurstDelay::new(0, 0.5);
    }

    #[test]
    fn capped_delay_clamps_inner_strategy() {
        let mut d = CappedDelay::new(UnitDelay, 3);
        assert_eq!(d.max_ticks(), 3);
        assert_eq!(d.delay_ticks(NodeId::new(0), NodeId::new(1), 0, 0), 3);
        // An inner 1-tick delay is left alone.
        let mut d = CappedDelay::new(AdversarialDelay::new(11), 16);
        let mut seen_fast = false;
        for u in 0..10 {
            let delay = d.delay_ticks(NodeId::new(u), NodeId::new(u + 1), 0, 0);
            assert!((1..=16).contains(&delay));
            seen_fast |= delay == 1;
        }
        assert!(seen_fast);
        // The cap itself is clamped into the engine's range.
        assert_eq!(CappedDelay::new(UnitDelay, 0).max_ticks(), 1);
        assert_eq!(
            CappedDelay::new(UnitDelay, u64::MAX).max_ticks(),
            TICKS_PER_UNIT
        );
    }

    #[test]
    fn fifo_worst_decreases_to_floor() {
        let mut d = FifoWorstDelay::new(4);
        let delays: Vec<u64> = (0..6)
            .map(|seq| d.delay_ticks(NodeId::new(0), NodeId::new(1), 0, seq))
            .collect();
        assert_eq!(delays, vec![4, 3, 2, 1, 1, 1]);
        assert_eq!(
            FifoWorstDelay::default().delay_ticks(NodeId::new(0), NodeId::new(1), 0, 0),
            TICKS_PER_UNIT
        );
    }

    #[test]
    fn adversarial_delay_mixes_fast_and_slow() {
        let mut d = AdversarialDelay::new(11);
        let mut fast = 0;
        let mut slow = 0;
        for u in 0..20 {
            for v in 0..20 {
                if u == v {
                    continue;
                }
                match d.delay_ticks(NodeId::new(u), NodeId::new(v), 0, 0) {
                    1 => fast += 1,
                    x if x == TICKS_PER_UNIT => slow += 1,
                    other => panic!("unexpected delay {other}"),
                }
            }
        }
        assert!(fast > 50 && slow > 50, "fast={fast} slow={slow}");
    }
}
