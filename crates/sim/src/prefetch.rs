//! Software prefetch hints for the engines' delivery loops.
//!
//! The per-tick delivery phase walks a sorted list of touched receivers;
//! each receiver's protocol state lives in a run-id-indexed array, while
//! its batch is the next slice of the tick's grouped buffer (read
//! sequentially, so it needs no hint). Issuing a prefetch for receiver
//! `i + 1`'s protocol state while receiver `i` is being handled (distance
//! 1, i.e. one delivery batch ahead) hides most of the remaining DRAM
//! latency once the RCM relabeling has made consecutive receivers adjacent
//! in memory.

/// Hints the CPU to pull the cache line containing `p` into all cache
/// levels. A no-op on non-x86_64 targets. Always safe to call with any
/// pointer — prefetch instructions do not fault and never dereference.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure hint: it performs no memory access
    // visible to the program and cannot fault, regardless of the address.
    // This is one of the crate's sanctioned `unsafe` markers (see lib.rs).
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches the element `slice[i]` if `i` is in bounds — the common
/// "look one batch ahead" pattern in the delivery loops.
#[inline(always)]
pub(crate) fn prefetch_index<T>(slice: &[T], i: usize) {
    if let Some(x) = slice.get(i) {
        prefetch_read(x);
    }
}
