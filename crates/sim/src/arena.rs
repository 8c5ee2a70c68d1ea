//! Pooled, copy-on-write payload storage shared by both engines.
//!
//! Sending a message used to mean cloning the payload into an engine queue —
//! a broadcast to deg(v) neighbors did deg(v) heap clones even though every
//! copy was identical. The [`PayloadArena`] replaces that with reference
//! counting: the payload is stored once at enqueue time (together with its
//! [`crate::message::Payload::size_bits`], computed exactly once), handed
//! around as a small
//! `Copy` [`PayloadRef`], and only materialized per receiver at delivery
//! time — where the *last* outstanding reference is moved out instead of
//! cloned, so a unicast never touches the payload again and a broadcast does
//! deg(v) − 1 clones instead of deg(v).
//!
//! Slots are recycled through a free list, so steady-state traffic allocates
//! nothing; [`PayloadArena::clear`] drops all payloads while keeping slot
//! capacity, which is what the engines' `reset()` paths rely on to reuse one
//! arena across trials. Every slot carries a generation counter and refs
//! are validated against it, catching use-after-free of a recycled slot.

/// Handle to a payload stored in a [`PayloadArena`].
///
/// Index + generation, so a stale handle (kept across a `take` that freed
/// the slot) panics instead of silently aliasing whatever payload was
/// recycled into the slot. The audit recorder stamps both halves into its
/// `send` and `deliver` events, which is what lets the payload-lifecycle
/// invariant prove the absence of silent reuse post hoc.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PayloadRef {
    idx: u32,
    gen: u32,
}

impl PayloadRef {
    /// The slot index (stable identity of the stored payload while live).
    pub(crate) fn slot(self) -> u32 {
        self.idx
    }

    /// The slot generation this handle was issued against.
    pub(crate) fn generation(self) -> u32 {
        self.gen
    }
}

#[derive(Debug)]
struct Slot<M> {
    msg: Option<M>,
    /// Outstanding references; the slot is freed when the last one is taken.
    refs: u32,
    /// `size_bits()` of the payload, computed once at insert time.
    bits: usize,
    gen: u32,
}

/// The arena: a slab of reference-counted payload slots with a free list.
#[derive(Debug)]
pub(crate) struct PayloadArena<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
}

impl<M> Default for PayloadArena<M> {
    fn default() -> Self {
        PayloadArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> PayloadArena<M> {
    #[inline]
    fn check_gen(&self, r: PayloadRef) {
        assert_eq!(
            self.slots[r.idx as usize].gen, r.gen,
            "stale payload ref: slot was freed and recycled"
        );
    }

    /// Stores `msg` with its precomputed bit size, reusing a freed slot when
    /// one exists. The returned handle carries one reference.
    pub(crate) fn insert_with_bits(&mut self, msg: M, bits: usize) -> PayloadRef {
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.msg.is_none(), "free list holds a live slot");
                slot.msg = Some(msg);
                slot.refs = 1;
                slot.bits = bits;
                PayloadRef { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena handle fits u32");
                self.slots.push(Slot {
                    msg: Some(msg),
                    refs: 1,
                    bits,
                    gen: 0,
                });
                PayloadRef { idx, gen: 0 }
            }
        }
    }

    /// Adds one reference to the payload behind `r` (a broadcast fan-out is
    /// one `insert_with_bits` plus deg − 1 shares — zero clones).
    pub(crate) fn share(&mut self, r: PayloadRef) -> PayloadRef {
        self.check_gen(r);
        self.slots[r.idx as usize].refs += 1;
        r
    }

    /// The `size_bits()` recorded for the payload behind `r`.
    #[inline]
    pub(crate) fn bits(&self, r: PayloadRef) -> usize {
        self.check_gen(r);
        self.slots[r.idx as usize].bits
    }

    /// Number of live (inserted, not yet fully taken) payloads.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of slots ever allocated (high-water mark of `live`).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// High-water mark of live payloads this run: slots are only appended
    /// when the free list is empty, so the slot count *is* the peak
    /// occupancy since the last `clear`. Read once per run into the obs
    /// runtime counters.
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Drops every stored payload and resets the free list, keeping the slot
    /// vector's capacity for the next run. Any handle that survives a
    /// `clear` is invalid.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

impl<M: Clone> PayloadArena<M> {
    /// Consumes one reference and returns the payload: a move when `r` holds
    /// the last reference (freeing the slot), a clone otherwise.
    pub(crate) fn take(&mut self, r: PayloadRef) -> M {
        self.check_gen(r);
        let slot = &mut self.slots[r.idx as usize];
        if slot.refs <= 1 {
            let msg = slot.msg.take().expect("payload taken twice");
            slot.refs = 0;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(r.idx);
            msg
        } else {
            slot.refs -= 1;
            slot.msg.clone().expect("payload taken twice")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_reuses_freed_slots() {
        let mut arena: PayloadArena<String> = PayloadArena::default();
        let a = arena.insert_with_bits("a".into(), 8);
        let b = arena.insert_with_bits("b".into(), 8);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.take(a), "a");
        assert_eq!(arena.live(), 1);
        // The freed slot is recycled: no new capacity allocated.
        let c = arena.insert_with_bits("c".into(), 8);
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.take(b), "b");
        assert_eq!(arena.take(c), "c");
        assert_eq!(arena.live(), 0);
        // Steady-state churn never grows past the high-water mark.
        for i in 0..100 {
            let h = arena.insert_with_bits(format!("x{i}"), 8);
            arena.take(h);
        }
        assert_eq!(arena.capacity(), 2);
    }

    #[test]
    fn shared_payload_clones_then_moves() {
        let mut arena: PayloadArena<String> = PayloadArena::default();
        let a = arena.insert_with_bits("hello".into(), 40);
        let b = arena.share(a);
        let c = arena.share(a);
        assert_eq!(arena.bits(c), 40);
        // Two takes clone, the last take moves and frees the slot.
        assert_eq!(arena.take(a), "hello");
        assert_eq!(arena.take(b), "hello");
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.take(c), "hello");
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.capacity(), 1);
    }

    #[test]
    #[should_panic]
    fn double_take_panics() {
        let mut arena: PayloadArena<String> = PayloadArena::default();
        let a = arena.insert_with_bits("x".into(), 8);
        arena.take(a);
        arena.take(a);
    }

    /// A handle kept across the `take` that freed its slot must be rejected
    /// when the slot has been recycled for a new payload — the silent-reuse
    /// failure mode the generation counter exists to catch.
    #[test]
    #[should_panic(expected = "stale payload ref")]
    fn stale_ref_into_recycled_slot_is_rejected() {
        let mut arena: PayloadArena<String> = PayloadArena::default();
        let stale = arena.insert_with_bits("old".into(), 8);
        assert_eq!(arena.take(stale), "old"); // frees the slot
        let fresh = arena.insert_with_bits("new".into(), 8);
        // Same slot, new generation: the recycled payload must NOT be
        // visible through the stale handle.
        assert_eq!(fresh.idx, stale.idx);
        let _ = arena.take(stale);
    }

    /// `share` and `bits` validate generations too, not just `take`.
    #[test]
    #[should_panic(expected = "stale payload ref")]
    fn stale_ref_bits_lookup_is_rejected() {
        let mut arena: PayloadArena<u32> = PayloadArena::default();
        let stale = arena.insert_with_bits(1, 8);
        arena.take(stale);
        arena.insert_with_bits(2, 16);
        let _ = arena.bits(stale);
    }

    #[test]
    fn clear_keeps_slot_capacity() {
        let mut arena: PayloadArena<u32> = PayloadArena::default();
        for i in 0..10 {
            arena.insert_with_bits(i, 32);
        }
        assert_eq!(arena.live(), 10);
        arena.clear();
        assert_eq!(arena.live(), 0);
        let r = arena.insert_with_bits(7, 32);
        assert_eq!(arena.take(r), 7);
    }
}
