//! Deterministic windowed time-series recording for the obs v4 layer.
//!
//! A [`Timeline`] buckets a run's engine activity — sends, payload bits,
//! deliveries, and node wakes — into tick windows chosen by a pure
//! [`WindowCfg::window_of`] function of the *logical* tick. Because window
//! assignment depends only on ticks (never on wall clock, thread, or shard),
//! per-shard timelines merge by elementwise addition into exactly the
//! one-shard run's timeline, and the schema-4 snapshot bytes survive the CI
//! 1-vs-4-shard and 1-vs-4-thread diffs like every other obs field.
//!
//! # Hot-path discipline
//!
//! The engines advance ticks monotonically, so the recorder keeps the
//! current window's four deltas in plain integer registers and spills them
//! to the dense per-window table only when the window id changes — the same
//! run-length-accumulator trick as [`super::ValueRun`]/[`super::PairRun`].
//! Within a window (the overwhelmingly common case, since log2 spacing gives
//! at most ~64 windows per run) a note costs one `leading_zeros`, one
//! compare, and register adds. [`super::ObsLevel::Counters`] runs never call
//! into the recorder at all, so the `obs_overhead` baseline is untouched.

/// Tick-window spacing for the timeline recorder.
///
/// The default is log-spaced: window `w` covers ticks
/// `[2^w - 1, 2^(w+1) - 1)`, so window 0 is tick 0 alone, window 1 covers
/// ticks 1–2, and a run of any length fits in at most 64 windows — an
/// n = 10⁶ flood stays bounded without configuration. Linear spacing gives
/// uniform `width`-tick windows for plotting steady-state behavior; its
/// window count is capped at [`MAX_LINEAR_WINDOWS`], with everything past
/// the cap clamped into the last window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowCfg {
    /// Log-spaced windows: `window_of(t) = ilog2(t + 1)` (the default).
    #[default]
    Log2,
    /// Uniform windows of `width` ticks: `window_of(t) = t / width`, clamped
    /// to [`MAX_LINEAR_WINDOWS`] windows.
    Linear {
        /// Window width in ticks (≥ 1; 0 is treated as 1).
        width: u64,
    },
}

/// Hard cap on the number of linear windows (log2 spacing needs none — it
/// is bounded by 64 by construction).
pub const MAX_LINEAR_WINDOWS: u32 = 4096;

impl WindowCfg {
    /// The window a logical tick falls in — a pure function of the tick, so
    /// attribution is identical across threads, shards, and relabelings.
    #[inline(always)]
    pub fn window_of(self, tick: u64) -> u32 {
        match self {
            WindowCfg::Log2 => tick.saturating_add(1).ilog2(),
            WindowCfg::Linear { width } => {
                (tick / width.max(1)).min(u64::from(MAX_LINEAR_WINDOWS) - 1) as u32
            }
        }
    }

    /// First tick of window `w` (the clamp means the last linear window's
    /// nominal start; log2 window `w` starts at `2^w - 1`).
    pub fn window_start(self, w: u32) -> u64 {
        match self {
            WindowCfg::Log2 => (1u64 << w.min(63)) - 1,
            WindowCfg::Linear { width } => u64::from(w) * width.max(1),
        }
    }

    /// The JSON `mode` tag (`"log2"` / `"linear"`).
    pub fn mode_tag(self) -> &'static str {
        match self {
            WindowCfg::Log2 => "log2",
            WindowCfg::Linear { .. } => "linear",
        }
    }

    /// The linear window width (0 for log2 spacing — the JSON carries it as
    /// a plain scalar).
    pub fn width(self) -> u64 {
        match self {
            WindowCfg::Log2 => 0,
            WindowCfg::Linear { width } => width.max(1),
        }
    }
}

/// One window's recorded deltas (what happened *inside* the window; the
/// snapshot derives cumulative series — frontier, in-flight — from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowDelta {
    /// Messages dispatched (counted once, at the origin's dispatch tick).
    pub sends: u64,
    /// Payload bits of those sends.
    pub bits: u64,
    /// Messages delivered (at their delivery tick).
    pub delivered: u64,
    /// Nodes that woke (adversary or message wakes, at their wake tick).
    pub wakes: u64,
}

impl WindowDelta {
    /// Whether nothing happened in this window.
    pub fn is_zero(&self) -> bool {
        *self == WindowDelta::default()
    }
}

/// The windowed recorder (see the module docs). One per shard worker;
/// merged by `Timeline::merge`.
#[derive(Debug, Clone)]
pub struct Timeline {
    cfg: WindowCfg,
    /// Window the register deltas below belong to.
    cur: u32,
    sends: u64,
    bits: u64,
    delivered: u64,
    wakes: u64,
    /// Dense per-window table, indexed by window id. Trailing and interior
    /// all-zero windows are skipped at snapshot time.
    rows: Vec<WindowDelta>,
}

impl Timeline {
    /// Fresh, empty recorder.
    pub fn new(cfg: WindowCfg) -> Timeline {
        Timeline {
            cfg,
            cur: 0,
            sends: 0,
            bits: 0,
            delivered: 0,
            wakes: 0,
            rows: Vec::new(),
        }
    }

    /// The window spacing this recorder was created with.
    pub fn cfg(&self) -> WindowCfg {
        self.cfg
    }

    /// Moves the register deltas to the window covering `tick`. Engines
    /// advance ticks monotonically, so this fires only on a window change.
    #[inline(always)]
    fn roll_to(&mut self, tick: u64) {
        let w = self.cfg.window_of(tick);
        if w != self.cur {
            self.spill(w);
        }
    }

    /// Spills the pending registers into `rows[cur]` and switches to `w`.
    #[cold]
    fn spill(&mut self, w: u32) {
        let cur = self.cur as usize;
        if self.rows.len() <= cur {
            self.rows.resize(cur + 1, WindowDelta::default());
        }
        let row = &mut self.rows[cur];
        row.sends += self.sends;
        row.bits += self.bits;
        row.delivered += self.delivered;
        row.wakes += self.wakes;
        self.sends = 0;
        self.bits = 0;
        self.delivered = 0;
        self.wakes = 0;
        self.cur = w;
        super::note_global_window(w);
    }

    /// `count` messages totalling `bits` payload bits, all dispatched at
    /// `tick`. Sends are attributed at the **origin's** dispatch tick only —
    /// ingest of a cross-shard message must not call this. The engines'
    /// outbox loops accumulate both sums in registers
    /// and call this once per outbox — two struct-field read-modify-writes
    /// per *message* on the loop-carried path is what blew the
    /// `obs_overhead` budget.
    #[inline(always)]
    pub(crate) fn note_sends(&mut self, tick: u64, count: u64, bits: u64) {
        self.roll_to(tick);
        self.sends += count;
        self.bits += bits;
    }

    /// `count` messages delivered at `tick`.
    #[inline(always)]
    pub(crate) fn note_delivered(&mut self, tick: u64, count: u64) {
        if count > 0 {
            self.roll_to(tick);
            self.delivered += count;
        }
    }

    /// `count` nodes woke at `tick`.
    #[inline(always)]
    pub(crate) fn note_wakes(&mut self, tick: u64, count: u64) {
        if count > 0 {
            self.roll_to(tick);
            self.wakes += count;
        }
    }

    /// Spills the pending registers (call once at the end of a run or shard;
    /// a second call is a no-op because the registers are zeroed).
    pub(crate) fn finish(&mut self) {
        if self.sends | self.bits | self.delivered | self.wakes != 0 {
            let keep = self.cur;
            self.spill(keep);
        }
    }

    /// Folds another *finished* timeline into this one — elementwise window
    /// addition, which reproduces a one-shard recorder byte for byte because
    /// window attribution is a pure function of the tick.
    pub(crate) fn merge(&mut self, other: &Timeline) {
        debug_assert_eq!(
            self.cfg, other.cfg,
            "cannot merge differently-spaced timelines"
        );
        debug_assert_eq!(
            other.sends | other.bits | other.delivered | other.wakes,
            0,
            "merge requires a finished timeline"
        );
        if other.rows.len() > self.rows.len() {
            self.rows.resize(other.rows.len(), WindowDelta::default());
        }
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows.iter()) {
            mine.sends += theirs.sends;
            mine.bits += theirs.bits;
            mine.delivered += theirs.delivered;
            mine.wakes += theirs.wakes;
        }
    }

    /// The dense per-window deltas recorded so far (valid after
    /// `Timeline::finish`; index = window id).
    pub fn rows(&self) -> &[WindowDelta] {
        &self.rows
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(WindowDelta::is_zero)
            && self.sends | self.bits | self.delivered | self.wakes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_window_convention() {
        let cfg = WindowCfg::Log2;
        assert_eq!(cfg.window_of(0), 0);
        assert_eq!(cfg.window_of(1), 1);
        assert_eq!(cfg.window_of(2), 1);
        assert_eq!(cfg.window_of(3), 2);
        assert_eq!(cfg.window_of(6), 2);
        assert_eq!(cfg.window_of(7), 3);
        // Window w starts exactly where window w-1 ends.
        for w in 0..20 {
            let start = cfg.window_start(w);
            assert_eq!(cfg.window_of(start), w);
            if start > 0 {
                assert_eq!(cfg.window_of(start - 1), w - 1);
            }
        }
        assert_eq!(cfg.window_of(u64::MAX), 63);
    }

    #[test]
    fn linear_windows_clamp_at_the_cap() {
        let cfg = WindowCfg::Linear { width: 10 };
        assert_eq!(cfg.window_of(0), 0);
        assert_eq!(cfg.window_of(9), 0);
        assert_eq!(cfg.window_of(10), 1);
        assert_eq!(cfg.window_of(u64::MAX), MAX_LINEAR_WINDOWS - 1);
        assert_eq!(cfg.window_start(3), 30);
        // Width 0 never divides by zero.
        assert_eq!(WindowCfg::Linear { width: 0 }.window_of(5), 5);
    }

    #[test]
    fn recorder_spills_on_window_change_and_finish() {
        let mut t = Timeline::new(WindowCfg::Log2);
        t.note_wakes(0, 1); // window 0
        t.note_sends(0, 1, 32);
        t.note_delivered(2, 1); // window 1
        t.note_sends(2, 1, 64);
        t.note_delivered(5, 2); // window 2
        t.finish();
        let rows = t.rows();
        assert_eq!(
            rows[0],
            WindowDelta {
                sends: 1,
                bits: 32,
                delivered: 0,
                wakes: 1
            }
        );
        assert_eq!(
            rows[1],
            WindowDelta {
                sends: 1,
                bits: 64,
                delivered: 1,
                wakes: 0
            }
        );
        assert_eq!(
            rows[2],
            WindowDelta {
                sends: 0,
                bits: 0,
                delivered: 2,
                wakes: 0
            }
        );
        // finish is idempotent.
        t.finish();
        assert_eq!(t.rows().len(), 3);
    }

    #[test]
    fn shard_merge_reproduces_the_serial_timeline() {
        // Serial: all events in one recorder.
        let mut serial = Timeline::new(WindowCfg::Log2);
        // Shards: the same events split arbitrarily between two recorders.
        let mut a = Timeline::new(WindowCfg::Log2);
        let mut b = Timeline::new(WindowCfg::Log2);
        let events: &[(u64, u64)] = &[(0, 16), (1, 16), (3, 32), (3, 32), (9, 8)];
        for (i, &(tick, bits)) in events.iter().enumerate() {
            serial.note_sends(tick, 1, bits);
            serial.note_delivered(tick, 1);
            let shard = if i % 2 == 0 { &mut a } else { &mut b };
            shard.note_sends(tick, 1, bits);
            shard.note_delivered(tick, 1);
        }
        serial.finish();
        a.finish();
        b.finish();
        let mut merged = Timeline::new(WindowCfg::Log2);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.rows(), serial.rows());
    }

    #[test]
    fn empty_timeline_reports_empty() {
        let mut t = Timeline::new(WindowCfg::Log2);
        assert!(t.is_empty());
        t.finish();
        assert!(t.rows().is_empty());
        t.note_wakes(4, 1);
        assert!(!t.is_empty());
    }
}
