//! Message-delay strategies for the asynchronous engine.

use wakeup_graph::NodeId;

use crate::metrics::TICKS_PER_UNIT;

/// Chooses the delay of each message, in ticks within `[1, TICKS_PER_UNIT]`
/// (i.e. within `(0, τ]` time units, the paper's normalization).
///
/// A strategy is a pure function of the message's static description
/// (sender, receiver, send tick, per-channel sequence number): this is what
/// makes the adversary *oblivious* — it fixes every delay before the
/// execution starts and cannot react to node randomness. Purity is the
/// contract: a sharded run shares one `&self` across its worker threads
/// (hence `Sync`) and queries it in a different order than a one-shard run,
/// and [`crate::audit::ObliviousDelays`] recomputes every delivery tick
/// from the strategy after the fact.
pub trait DelayStrategy: Sync {
    /// Delay in ticks for the `seq`-th message on the directed channel
    /// `from → to`, sent at `send_tick`. Must lie in `[1, TICKS_PER_UNIT]`;
    /// the engine clamps out-of-range values and FIFO order is restored by
    /// the engine regardless.
    fn delay_ticks(&self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64;
}

impl<D: DelayStrategy + ?Sized> DelayStrategy for Box<D> {
    fn delay_ticks(&self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64 {
        (**self).delay_ticks(from, to, send_tick, seq)
    }
}

/// The SplitMix-style finaliser both hashed strategies mix with (the first
/// half of MurmurHash3's `fmix64`): a bijection on `u64`.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// A salted hash of the directed channel `from → to`.
fn channel_hash(salt: u64, from: NodeId, to: NodeId) -> u64 {
    mix64(
        salt ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Every message takes exactly τ (the worst uniform delay).
///
/// Under `UnitDelay` the async engine behaves like a synchronizer, which
/// makes analytical predictions easy to check in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitDelay;

impl DelayStrategy for UnitDelay {
    fn delay_ticks(&self, _: NodeId, _: NodeId, _: u64, _: u64) -> u64 {
        TICKS_PER_UNIT
    }
}

/// Independent uniform delays in `(0, τ]`, keyed by a seed.
///
/// Counter-based (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
/// 3", SC 2011): the `seq`-th message on a channel takes the delay hashed
/// from `(seed, from, to, seq)`, so no draw depends on the global send
/// order.
#[derive(Debug, Clone, Copy)]
pub struct RandomDelay {
    seed: u64,
}

impl RandomDelay {
    /// Creates the strategy from a seed.
    pub fn new(seed: u64) -> RandomDelay {
        RandomDelay { seed }
    }
}

impl DelayStrategy for RandomDelay {
    fn delay_ticks(&self, from: NodeId, to: NodeId, _: u64, seq: u64) -> u64 {
        // The channel's key stepped `seq` times along a Weyl sequence, then
        // mixed twice; a multiply-high maps the hash onto `[0, τ)`.
        let x =
            channel_hash(self.seed, from, to).wrapping_add(seq.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let h = mix64(mix64(x));
        1 + ((u128::from(h) * u128::from(TICKS_PER_UNIT)) >> 64) as u64
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
}

impl DelayStrategy for AdversarialDelay {
    fn delay_ticks(&self, from: NodeId, to: NodeId, _send_tick: u64, _seq: u64) -> u64 {
        if channel_hash(self.salt, from, to) & 1 == 0 {
            1
        } else {
            TICKS_PER_UNIT
        }
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
    fn delay_ticks(&self, from: NodeId, to: NodeId, _: u64, _: u64) -> u64 {
        if self.victims.contains(&from) || self.victims.contains(&to) {
            TICKS_PER_UNIT
        } else {
            self.fast_ticks
        }
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
    fn delay_ticks(&self, _: NodeId, _: NodeId, send_tick: u64, _: u64) -> u64 {
        let phase = (send_tick % self.period_ticks) as f64 / self.period_ticks as f64;
        if phase < self.slow_fraction {
            TICKS_PER_UNIT
        } else {
            1
        }
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
    fn delay_ticks(&self, from: NodeId, to: NodeId, send_tick: u64, seq: u64) -> u64 {
        self.inner
            .delay_ticks(from, to, send_tick, seq)
            .clamp(1, self.max_ticks)
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
    fn delay_ticks(&self, _: NodeId, _: NodeId, _: u64, seq: u64) -> u64 {
        // Strictly decreasing until the floor of 1 tick; later messages on a
        // long channel all race at top speed, which keeps the pressure on.
        self.max_ticks.saturating_sub(seq).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::rng::Xoshiro256;

    type Query = (NodeId, NodeId, u64, u64);

    /// Every built-in strategy, capped-random standing in for the wrapper.
    fn builtins() -> Vec<(&'static str, Box<dyn DelayStrategy>)> {
        vec![
            ("unit", Box::new(UnitDelay)),
            ("random", Box::new(RandomDelay::new(7))),
            ("adversarial", Box::new(AdversarialDelay::new(11))),
            (
                "targeted",
                Box::new(TargetedDelay::new((0..1000).step_by(7).map(NodeId::new), 3)),
            ),
            ("burst", Box::new(BurstDelay::new(4, 0.5))),
            ("fifo-worst", Box::new(FifoWorstDelay::default())),
            (
                "capped-random",
                Box::new(CappedDelay::new(RandomDelay::new(7), 16)),
            ),
        ]
    }

    /// `count` random `(from, to, send_tick, seq)` tuples; small node ids
    /// and sequence numbers so victims and the FIFO-worst ramp are hit.
    fn queries(count: usize, seed: u64) -> Vec<Query> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..count)
            .map(|_| {
                (
                    NodeId::new(rng.next_below(1000) as usize),
                    NodeId::new(rng.next_below(1000) as usize),
                    rng.next_below(1 << 40),
                    rng.next_below(2 * TICKS_PER_UNIT),
                )
            })
            .collect()
    }

    fn answer(d: &dyn DelayStrategy, q: &[Query]) -> Vec<u64> {
        q.iter()
            .map(|&(from, to, tick, seq)| d.delay_ticks(from, to, tick, seq))
            .collect()
    }

    /// Purity: the same tuple gets the same delay whatever was asked before
    /// it — forward, in reverse, or from two threads sharing `&strategy`.
    #[test]
    fn builtin_strategies_are_pure_functions() {
        let q = queries(10_000, 1);
        let rev: Vec<Query> = q.iter().rev().copied().collect();
        for (name, d) in builtins() {
            let d = &*d;
            let forward = answer(d, &q);
            let mut backward = answer(d, &rev);
            backward.reverse();
            assert_eq!(forward, backward, "{name}: reverse order");
            let (a, mut b) = std::thread::scope(|s| {
                let a = s.spawn(|| answer(d, &q));
                let b = s.spawn(|| answer(d, &rev));
                (a.join().unwrap(), b.join().unwrap())
            });
            b.reverse();
            assert!(a == forward && b == forward, "{name}: two threads");
            assert!(
                forward.iter().all(|t| (1..=TICKS_PER_UNIT).contains(t)),
                "{name}: delay outside [1, τ]"
            );
        }
    }

    #[test]
    fn random_delay_is_uniform_over_one_to_tau() {
        let q = queries(100_000, 2);
        let delays = answer(&RandomDelay::new(3), &q);
        assert!(delays.contains(&1) && delays.contains(&TICKS_PER_UNIT));
        let mean = delays.iter().sum::<u64>() as f64 / delays.len() as f64;
        let expect = (TICKS_PER_UNIT + 1) as f64 / 2.0;
        assert!(
            (mean / expect - 1.0).abs() < 0.01,
            "mean {mean} vs {expect}"
        );
        assert_ne!(delays, answer(&RandomDelay::new(4), &q), "seeds agree");
    }

    #[test]
    fn unit_delay_is_tau() {
        let d = UnitDelay;
        assert_eq!(
            d.delay_ticks(NodeId::new(0), NodeId::new(1), 0, 0),
            TICKS_PER_UNIT
        );
    }

    #[test]
    fn random_delay_in_range_and_reproducible() {
        let a = RandomDelay::new(4);
        let b = RandomDelay::new(4);
        for i in 0..200 {
            let x = a.delay_ticks(NodeId::new(0), NodeId::new(1), i, i);
            let y = b.delay_ticks(NodeId::new(0), NodeId::new(1), i, i);
            assert_eq!(x, y);
            assert!((1..=TICKS_PER_UNIT).contains(&x));
        }
    }

    #[test]
    fn adversarial_delay_is_per_channel_constant() {
        let d = AdversarialDelay::new(11);
        let first = d.delay_ticks(NodeId::new(3), NodeId::new(7), 0, 0);
        for i in 1..50 {
            assert_eq!(d.delay_ticks(NodeId::new(3), NodeId::new(7), i, i), first);
        }
    }

    #[test]
    fn targeted_delay_punishes_victims_only() {
        let d = TargetedDelay::new([NodeId::new(3)], 1);
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
        let d = BurstDelay::new(4, 0.5);
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
        let d = CappedDelay::new(UnitDelay, 3);
        assert_eq!(d.max_ticks(), 3);
        assert_eq!(d.delay_ticks(NodeId::new(0), NodeId::new(1), 0, 0), 3);
        // An inner 1-tick delay is left alone.
        let d = CappedDelay::new(AdversarialDelay::new(11), 16);
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
        let d = FifoWorstDelay::new(4);
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
        let d = AdversarialDelay::new(11);
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
