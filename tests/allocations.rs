//! Steady-state allocation counts of the two hot paths that promise
//! none: the pooled SOME/IP frame path (encode, assemble in place,
//! decode as a view) and the reactor runtime's reaction loop with
//! tracing and telemetry off.
//!
//! A counting global allocator counts per thread, so libtest's parallel
//! test threads cannot pollute each other's counts. Both workloads run
//! entirely on the test's own thread (the runtime's default executor is
//! sequential).

use dear::observe::{Lane, Observe};
use dear::reactor::{ProgramBuilder, Runtime};
use dear::sim::FramePool;
use dear::someip::{MessageId, PayloadWriter, SomeIpMessage, WireTag};
use dear::time::{Duration, Instant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates, so the allocator below may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: allocations during thread teardown are simply not
    // counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure delegation to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One pooled encode + decode of a 64 B tagged notification: serialize
/// through a headroom writer, assemble the wire frame in place, decode
/// the payload as a view and read a byte through it.
fn pooled_roundtrip(pool: &FramePool, round: u64) -> u8 {
    let mut w = PayloadWriter::pooled(pool);
    w.write_u64(round).write_bytes(&[0xAB; 52]); // 8 + 4 + 52 = 64 B
    let msg = SomeIpMessage::notification(MessageId::new(0x60, 0x8001), w.into_frame())
        .with_tag(WireTag::new(round, 0));
    let frame = msg.into_frame(pool);
    let decoded = SomeIpMessage::decode_frame(&frame).expect("decodes");
    decoded.payload[63]
}

#[test]
fn pooled_someip_frame_path_allocates_nothing_per_message() {
    let pool = FramePool::new();
    // Warm-up: let the pool reach its steady-state working set.
    for round in 0..64 {
        black_box(pooled_roundtrip(&pool, round));
    }
    let created = pool.stats().created;
    let allocs = allocations_during(|| {
        for round in 0..4096 {
            black_box(pooled_roundtrip(&pool, round));
        }
    });
    assert_eq!(
        allocs, 0,
        "pooled encode + decode allocated in steady state"
    );
    assert_eq!(
        pool.stats().created,
        created,
        "steady state must not grow the pool"
    );
}

#[test]
fn reaction_loop_allocates_nothing_with_tracing_and_telemetry_off() {
    // 32 independent reactors on 1 ms timers with pure arithmetic
    // bodies: no ports, no actions, the minimal steady-state hot loop.
    let mut b = ProgramBuilder::new();
    for i in 0..32u64 {
        let mut r = b.reactor(&format!("w{i}"), 0u64);
        let t = r.timer("t", Duration::ZERO, Some(Duration::from_millis(1)));
        r.reaction("work")
            .triggered_by(t)
            .body(move |acc: &mut u64, _ctx| {
                *acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407 + i);
            });
        r.finish();
    }
    let mut rt = Runtime::new(b.build().expect("fan-out builds"));
    rt.set_observe(Observe::disabled(), Lane::Sim);
    rt.start(Instant::EPOCH);
    // Warm-up: every buffer (event heap, free list, ready levels,
    // scratch) reaches its steady-state capacity.
    rt.run_fast(256);
    let before = rt.stats().executed_reactions;
    let allocs = allocations_during(|| {
        rt.run_fast(2048);
    });
    assert_eq!(rt.stats().executed_reactions - before, 2048 * 32);
    assert_eq!(allocs, 0, "the reaction loop allocated in steady state");
}
