//! Allocation-regression smoke: runs the `fast_wakeup_sync` engine_perf
//! workload under a counting global allocator and fails if the steady-state
//! allocation rate per event exceeds a pinned budget.
//!
//! ```text
//! cargo run --release -p wakeup-bench --bin alloc_smoke
//! ```
//!
//! The reusable-engine design (payload arena, run-to-run scratch, batch
//! buffers) makes reset-then-run trial loops allocation-free up to protocol
//! reinitialization; this smoke pins that property in CI so a stray
//! per-message `Vec` or `clone` in the hot path shows up as a budget
//! violation rather than a silent throughput regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wakeup_bench::artifacts::{self, GraphFamily, NetworkKey};
use wakeup_core::fast_wakeup::FastWakeUp;
use wakeup_core::flooding::FloodAsync;
use wakeup_graph::NodeId;
use wakeup_sim::adversary::{UnitDelay, WakeSchedule};
use wakeup_sim::{AsyncConfig, AsyncEngine, KnowledgeMode, SyncConfig, SyncEngine};

/// Steady-state budget: allocations per engine event, after warmup. The
/// engine itself recycles every buffer (wheel, arena, round queues, batch
/// scratch) and protocol reinit keeps its containers; what remains is
/// FastWakeUp's own message payloads (invite/merge ID lists are `Vec`s by
/// design), measured at ≈ 0.036 allocs/event. A hot-path regression that
/// clones or boxes per delivered message lands at ≥ 1 alloc/event, so a
/// budget of 0.08 trips on any such change while tolerating protocol-level
/// variation across seeds.
const MAX_ALLOCS_PER_EVENT: f64 = 0.08;

/// Budget for the async flood leg, which exercises every always-on
/// observability hot path (histogram records, batch sizes, causal wake
/// predecessors). The histograms are inline arrays and the predecessor
/// table is one `Vec` per run, so the per-event rate stays dominated by the
/// per-run report assembly (metrics vectors, outputs) amortized over ~2m
/// deliveries — ≈ 0.003 allocs/event measured. An accidental per-record
/// allocation in the obs layer would land at ≥ 1 alloc/event.
const MAX_ALLOCS_PER_EVENT_FLOOD: f64 = 0.02;

/// Budget for the sharded flood leg. A sharded run pays a per-run (not
/// per-event) overhead the serial path doesn't: worker thread spawns, the
/// cross-shard mailbox grid, publication slots, and shard-local report
/// assembly. The steady-state message path stays allocation-free (stage
/// buffers, mailbox cells, and scratch vectors all circulate capacity), so
/// amortized over a 10⁴-node flood the rate is ≈ 0.004 allocs/event; a
/// per-message clone or box on the cross-shard path lands at ≥ 0.5.
const MAX_ALLOCS_PER_EVENT_SHARDED: f64 = 0.05;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let n = 128usize;
    let trials = 5u64;
    let all: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let schedule = WakeSchedule::all_at_zero(&all);
    let net = artifacts::global().network(NetworkKey {
        family: GraphFamily::Complete,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt1,
    });
    let config = SyncConfig {
        seed: 7,
        ..SyncConfig::default()
    };
    let mut engine = SyncEngine::<FastWakeUp>::new_shared(net, config);
    // Warmup: lets every reusable buffer (arena slots, round queues,
    // protocol containers) reach steady-state capacity.
    engine.reset(7);
    let warm = engine.run_mut(&schedule);
    assert!(warm.all_awake);

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let mut events = 0u64;
    for t in 0..trials {
        engine.reset(7 + t);
        let report = engine.run_mut(&schedule);
        assert!(report.all_awake);
        events += report.messages() + n as u64;
    }
    ENABLED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let per_event = allocs as f64 / events as f64;
    println!(
        "fast_wakeup_sync n={n}: {allocs} allocations / {events} events \
         over {trials} warm trials = {per_event:.5} allocs/event \
         (budget {MAX_ALLOCS_PER_EVENT})"
    );
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "allocation regression: {per_event:.5} allocs/event exceeds the \
         pinned budget {MAX_ALLOCS_PER_EVENT}"
    );

    // Second leg: the async flood drives the observability layer's hot
    // paths (delay/bit histograms per send, batch-size records per
    // delivery, wake-predecessor stores per first wake) at full level —
    // the production default — and must stay allocation-free per event.
    let n = 1_000usize;
    let schedule = WakeSchedule::single(NodeId::new(0));
    let net = artifacts::global().network(NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt0,
    });
    let config = AsyncConfig {
        seed: 7,
        ..AsyncConfig::default()
    };
    let mut engine = AsyncEngine::<FloodAsync>::new_shared(net, config);
    engine.reset(7);
    let warm = engine.run_mut(&schedule, &UnitDelay);
    assert!(warm.all_awake);

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let mut events = 0u64;
    for t in 0..trials {
        engine.reset(7 + t);
        let report = engine.run_mut(&schedule, &UnitDelay);
        assert!(report.all_awake);
        events += report.messages() + 1;
    }
    ENABLED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let per_event = allocs as f64 / events as f64;
    println!(
        "flood_async n={n}: {allocs} allocations / {events} events \
         over {trials} warm trials = {per_event:.5} allocs/event \
         (budget {MAX_ALLOCS_PER_EVENT_FLOOD})"
    );
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT_FLOOD,
        "allocation regression on the observability hot path: \
         {per_event:.5} allocs/event exceeds the pinned budget \
         {MAX_ALLOCS_PER_EVENT_FLOOD}"
    );

    // Third leg: the intra-run sharded flood. Steady state must recycle the
    // shard scratch (wheels, arenas, stage buffers, mailbox cells) exactly
    // like the serial engine; what remains is the bounded per-run cost of
    // standing up the worker pool.
    let n = 10_000usize;
    let shards = 4usize;
    let schedule = WakeSchedule::single(NodeId::new(0));
    let net = artifacts::global().network(NetworkKey {
        family: GraphFamily::Sparse,
        n,
        seed: 7,
        mode: KnowledgeMode::Kt0,
    });
    let config = AsyncConfig {
        seed: 7,
        shards,
        ..AsyncConfig::default()
    };
    let mut engine = AsyncEngine::<FloodAsync>::new_shared(net, config);
    engine.reset(7);
    let warm = engine.run_mut(&schedule, &UnitDelay);
    assert!(warm.all_awake);

    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let mut events = 0u64;
    for t in 0..trials {
        engine.reset(7 + t);
        let report = engine.run_mut(&schedule, &UnitDelay);
        assert!(report.all_awake);
        events += report.messages() + 1;
    }
    ENABLED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let per_event = allocs as f64 / events as f64;
    println!(
        "flood_async_sharded n={n} shards={shards}: {allocs} allocations / \
         {events} events over {trials} warm trials = {per_event:.5} \
         allocs/event (budget {MAX_ALLOCS_PER_EVENT_SHARDED})"
    );
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT_SHARDED,
        "allocation regression on the sharded path: {per_event:.5} \
         allocs/event exceeds the pinned budget {MAX_ALLOCS_PER_EVENT_SHARDED}"
    );
}
