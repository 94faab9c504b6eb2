//! Heap accounting of the two hot paths that promise no allocations
//! and of every simulated world that promises to free itself.
//!
//! * Steady-state allocation counts: the pooled SOME/IP frame path
//!   (encode, assemble in place, decode as a view) and the reactor
//!   runtime's reaction loop with tracing and telemetry off.
//! * Live bytes: each scenario — `run_det` under every coordination
//!   mode, failover and crash recovery, the stock pipeline, the
//!   calculator trials and a hierarchical fleet dropped with no teardown
//!   call — must leave the heap exactly as it found it.
//!
//! A counting global allocator counts per thread, so libtest's parallel
//! test threads cannot pollute each other's counts. Every workload runs
//! entirely on the test's own thread (the runtime's default executor is
//! sequential).

use dear::apd::calculator::{run_trial, CalculatorConfig};
use dear::apd::det_calculator::run_det_trial;
use dear::apd::{run_det, run_nondet, DetParams, NondetParams, RecoveryParams, RedundancyParams};
use dear::federation::{CoordinatedPlatform, Coordination, EventLog, HierarchicalRti, ZoneId};
use dear::observe::{Lane, Observe};
use dear::reactor::{ProgramBuilder, Runtime};
use dear::sim::{FramePool, LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear::someip::{Binding, MessageId, PayloadWriter, SdRegistry, SomeIpMessage, WireTag};
use dear::time::{Duration, Instant};
use dear::transactors::Outbox;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // `const`-initialised and without a destructor: reading them never
    // allocates, so the allocator below may touch them.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

/// Books one allocation of `grown` bytes (negative: bytes freed).
/// `try_with`: heap traffic during thread teardown is simply not
/// counted.
fn count(allocations: u64, grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("allocation size fits i64")
}

// SAFETY: pure delegation to `System`; the counters have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is forwarded unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(1, size(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -size(layout.size()));
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(1, size(new_size) - size(layout.size()));
        }
        new
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

/// Heap bytes this thread allocated and has not freed yet.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Runs `scenario` twice — once to warm up, once measured — and
/// returns the live bytes the measured run left behind: zero when the
/// world it built, with everything registered on its fabric, was freed
/// as its owner dropped it.
fn leaked_bytes(scenario: impl Fn()) -> i64 {
    scenario();
    let before = live_bytes();
    scenario();
    live_bytes() - before
}

/// Asserts that no named scenario leaked, listing every one that did.
fn assert_no_leaks(leaks: impl IntoIterator<Item = (&'static str, i64)>) {
    let leaks: Vec<_> = leaks.into_iter().filter(|&(_, bytes)| bytes != 0).collect();
    assert!(
        leaks.is_empty(),
        "bytes still live after the run: {leaks:?}"
    );
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

/// Short brake-assistant runs: long enough for every mid-run event (the
/// primary's death, the CV crash and rejoin) to happen.
const FRAMES: u64 = 40;

fn brake(params: DetParams) -> DetParams {
    DetParams {
        frames: FRAMES,
        ..params
    }
}

fn rti() -> DetParams {
    DetParams {
        coordination: Coordination::Centralized,
        ..DetParams::default()
    }
}

#[test]
fn det_worlds_free_themselves() {
    let scenarios = [
        ("PTIDES", brake(DetParams::default())),
        ("flat RTI", brake(rti())),
        (
            "flat RTI + diet + telemetry",
            brake(DetParams {
                control_diet: true,
                observability: true,
                ..rti()
            }),
        ),
        (
            "redundancy + heartbeat watchdog",
            brake(DetParams {
                redundancy: Some(RedundancyParams {
                    primary_dies_after: FRAMES / 2,
                    heartbeat_timeout: Some(Duration::from_millis(150)),
                    ..RedundancyParams::default()
                }),
                ..DetParams::default()
            }),
        ),
        (
            "crash recovery",
            brake(DetParams {
                recovery: Some(RecoveryParams {
                    crash_after_frame: FRAMES / 2,
                    ..RecoveryParams::default()
                }),
                ..rti()
            }),
        ),
    ];
    assert_no_leaks(
        scenarios
            .iter()
            .map(|(name, params)| (*name, leaked_bytes(|| drop(black_box(run_det(7, params)))))),
    );
}

#[test]
fn stock_and_calculator_worlds_free_themselves() {
    let nondet = NondetParams {
        frames: FRAMES,
        ..NondetParams::default()
    };
    let config = CalculatorConfig::default();
    assert_no_leaks([
        (
            "run_nondet",
            leaked_bytes(|| drop(black_box(run_nondet(7, &nondet)))),
        ),
        (
            "calculator run_trial",
            leaked_bytes(|| {
                black_box(run_trial(7, &config));
            }),
        ),
        (
            "run_det_trial",
            leaked_bytes(|| {
                black_box(run_det_trial(7, Duration::from_millis(5)));
            }),
        ),
    ]);
}

/// A 2-zone × 3-federate hierarchical fleet with a durable log on one
/// federate, built from the public API, run for 100 ms and dropped with
/// no teardown call.
fn hierarchical_fleet() {
    const ZONES: u16 = 2;
    const MEMBERS: u16 = 3;
    let mut sim = Simulation::new(3);
    sim.enable_observability();
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();
    let rti = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
    for z in 0..ZONES {
        rti.add_zone(&mut sim, &net, &sd, NodeId(1 + z));
    }
    rti.enable_control_diet();
    let mut platforms = Vec::new();
    for i in 0..ZONES * MEMBERS {
        let name = format!("fed{i}");
        let mut b = ProgramBuilder::new();
        let mut r = b.reactor(&name, 0u64);
        let t = r.timer("tick", Duration::ZERO, Some(Duration::from_millis(10)));
        r.reaction("tick")
            .triggered_by(t)
            .body(|n: &mut u64, _| *n += 1);
        r.finish();
        let node = NodeId(1 + ZONES + i);
        let platform = CoordinatedPlatform::new_in_zone(
            &name,
            Runtime::new(b.build().expect("fleet member builds")),
            VirtualClock::ideal(),
            Outbox::new(),
            sim.fork_rng(&name),
            &rti,
            ZoneId(i / MEMBERS),
            &Binding::new(&net, &sd, node, 0x1000 + i),
            false,
        )
        .expect("federate registers");
        if i == MEMBERS {
            platform.attach_durable(EventLog::in_memory());
            platform.set_snapshot_every(4);
        }
        platforms.push(platform);
    }
    for pair in platforms.windows(2) {
        rti.connect(
            pair[0].federate_id(),
            pair[1].federate_id(),
            Duration::from_millis(1),
        );
    }
    for platform in &platforms {
        platform.start(&mut sim);
    }
    sim.run_until(Instant::from_millis(100));
    assert!(platforms.iter().all(|p| p.stats().processed_tags >= 10));
}

#[test]
fn hierarchical_fleet_frees_itself_on_drop() {
    assert_no_leaks([(
        "2-zone x 3-federate fleet",
        leaked_bytes(hierarchical_fleet),
    )]);
}
