//! Behavioural tests of the coordination control-plane diet (PR 9):
//! DNET sink suppression, same-head NET dedup, grant-ahead windows and
//! the periodic fast path must change *only* how many control frames
//! cross the wire — never the logical outcome. Diet-on and diet-off
//! runs of the same seeded scenario must produce byte-identical
//! per-consumer `(tag, value)` traces under both the flat RTI and the
//! two-level hierarchy, and a suppressed federate dying must not wedge
//! the LBTS fixpoint for survivors (its DNET state is invalidated on
//! death).

use dear_core::{ProgramBuilder, Runtime, Tag};
use dear_federation::{CoordinatedPlatform, HierarchicalRti, Rti, RtiStats, ZoneId};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, SimRng, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, DearConfig, EventSpec, Outbox, ServerEventTransactor,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SERVICE_PING: u16 = 0x0100;
const SERVICE_PONG: u16 = 0x0200;
const INSTANCE: u16 = 1;
const EVENTGROUP: u16 = 1;
const EVENT: u16 = 0x8001;
const EVENTS: usize = 5;

fn spec(service: u16) -> EventSpec {
    EventSpec {
        service,
        instance: INSTANCE,
        eventgroup: EVENTGROUP,
        event: EVENT,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Coordinator {
    Flat,
    TwoZones,
}

/// FNV-1a over arbitrary little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The observable outcome of one data-plane pipeline run.
struct PipelineReport {
    /// One lane per consumer, in registration order.
    traces: Vec<Vec<(Tag, u8)>>,
    bound_breaches: u64,
    stp_violations: u64,
    nets_suppressed: u64,
    rti: RtiStats,
}

impl PipelineReport {
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for lane in &self.traces {
            h.eat(u64::MAX); // lane separator
            for (tag, v) in lane {
                h.eat(tag.time.as_nanos());
                h.eat(u64::from(tag.microstep));
                h.eat(u64::from(*v));
            }
        }
        h.0
    }
}

/// Runs the five-federate, two-service pipeline from `tests/hierarchy.rs`
/// (two timer producers, three transactor consumers, intra- and
/// cross-zone edges) under either coordinator, with the control diet on
/// or off. Producers carry a 10 ms periodic lattice; consumers are pure
/// sinks, so the flat diet classifies them via DNET and suppresses
/// their reports entirely.
fn run_pipeline(seed: u64, coordinator: Coordinator, diet: bool) -> PipelineReport {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let edge_delay = deadline + cfg.stp_offset();

    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    // Node plan: 0 = root/RTI, 1..=2 = zone coordinators, 3.. = federates.
    // The diet must be switched on before any platform is built — each
    // platform queries the coordinator's mode once, at construction.
    let (flat, hier) = match coordinator {
        Coordinator::Flat => {
            let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
            if diet {
                rti.enable_control_diet();
            }
            (Some(rti), None)
        }
        Coordinator::TwoZones => {
            let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            h.add_zone(&mut sim, &net, &sd, NodeId(1));
            h.add_zone(&mut sim, &net, &sd, NodeId(2));
            if diet {
                h.enable_control_diet();
            }
            (None, Some(h))
        }
    };
    let platform = |sim: &mut Simulation,
                    name: &str,
                    zone: ZoneId,
                    runtime: Runtime,
                    outbox: Outbox,
                    binding: &Binding| {
        let rng = sim.fork_rng(name);
        match (&flat, &hier) {
            (Some(rti), None) => CoordinatedPlatform::new(
                name,
                runtime,
                VirtualClock::ideal(),
                outbox,
                rng,
                rti,
                binding,
                false,
            ),
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                name,
                runtime,
                VirtualClock::ideal(),
                outbox,
                rng,
                h,
                zone,
                binding,
                false,
            )
            .unwrap(),
            _ => unreachable!(),
        }
    };
    let connect = |up: &CoordinatedPlatform, down: &CoordinatedPlatform| match (&flat, &hier) {
        (Some(rti), None) => rti.connect(up.federate_id(), down.federate_id(), edge_delay),
        (None, Some(h)) => h.connect(up.federate_id(), down.federate_id(), edge_delay),
        _ => unreachable!(),
    };

    // Seed-derived payloads, identical across coordinators and diets.
    let mut payload_rng = SimRng::seed_from_u64(seed ^ 0xfeed);
    let mut payloads =
        || -> Vec<u8> { (0..EVENTS).map(|_| payload_rng.next_u64() as u8).collect() };

    let producer =
        |sim: &mut Simulation, name: &'static str, zone, node, service, data: Vec<u8>| {
            let outbox = Outbox::new();
            let mut b = ProgramBuilder::new();
            let publish = ServerEventTransactor::declare(&mut b, &outbox, name, deadline);
            {
                let mut logic = b.reactor(name, 0usize);
                let out = logic.output::<dear_someip::FrameBuf>("out");
                let t = logic.timer(
                    "emit",
                    Duration::from_millis(10),
                    Some(Duration::from_millis(10)),
                );
                logic.reaction("emit").triggered_by(t).effects(out).body(
                    move |n: &mut usize, ctx| {
                        if *n < data.len() {
                            ctx.set(out, vec![data[*n]].into());
                        }
                        *n += 1;
                    },
                );
                logic.finish();
                b.connect(out, publish.event).unwrap();
            }
            let binding = Binding::new(&net, &sd, node, 0x10 + node.0);
            binding.offer(
                sim,
                ServiceInstance::new(service, INSTANCE),
                Duration::from_secs(1 << 20),
            );
            let p = platform(
                sim,
                name,
                zone,
                Runtime::new(b.build().unwrap()),
                outbox,
                &binding,
            );
            publish.bind(&p, &binding, spec(service));
            p
        };
    let consumer = |sim: &mut Simulation, name: &'static str, zone, node, service| {
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let input = ClientEventTransactor::declare(&mut b, name);
        let seen: Arc<Mutex<Vec<(Tag, u8)>>> = Arc::new(Mutex::new(Vec::new()));
        let collect_rid;
        {
            let mut logic = b.reactor(name, ());
            let sink = seen.clone();
            collect_rid =
                logic
                    .reaction("collect")
                    .triggered_by(input.event)
                    .body(move |_, ctx| {
                        let v = ctx.get(input.event).unwrap()[0];
                        sink.lock().unwrap().push((ctx.tag(), v));
                    });
            logic.finish();
        }
        let binding = Binding::new(&net, &sd, node, 0x10 + node.0);
        let p = platform(
            sim,
            name,
            zone,
            Runtime::new(b.build().unwrap()),
            outbox,
            &binding,
        );
        let stats = input.bind(&p, &binding, spec(service), cfg);
        // A seeded compute cost shifts physical (never logical) times.
        let cost =
            dear_sim::LatencyModel::uniform(Duration::from_micros(10), Duration::from_micros(200));
        p.set_reaction_cost(collect_rid, cost);
        (p, seen, stats)
    };

    let p0 = producer(
        &mut sim,
        "p0",
        ZoneId(0),
        NodeId(3),
        SERVICE_PING,
        payloads(),
    );
    let p1 = producer(
        &mut sim,
        "p1",
        ZoneId(1),
        NodeId(4),
        SERVICE_PONG,
        payloads(),
    );
    let (c0, seen0, stats0) = consumer(&mut sim, "c0", ZoneId(0), NodeId(5), SERVICE_PING);
    let (c1, seen1, stats1) = consumer(&mut sim, "c1", ZoneId(1), NodeId(6), SERVICE_PING);
    let (c2, seen2, stats2) = consumer(&mut sim, "c2", ZoneId(0), NodeId(7), SERVICE_PONG);

    connect(&p0, &c0); // intra-zone (zone 0)
    connect(&p0, &c1); // cross-zone 0 -> 1
    connect(&p1, &c2); // cross-zone 1 -> 0

    for p in [&p0, &p1, &c0, &c1, &c2] {
        p.start(&mut sim);
    }
    sim.run_until(Instant::from_millis(200));

    let lane = |seen: &Arc<Mutex<Vec<(Tag, u8)>>>| seen.lock().unwrap().clone();
    let mut report = PipelineReport {
        traces: vec![lane(&seen0), lane(&seen1), lane(&seen2)],
        bound_breaches: 0,
        stp_violations: 0,
        nets_suppressed: 0,
        rti: match (&flat, &hier) {
            (Some(rti), None) => rti.stats(),
            (None, Some(h)) => h.stats(),
            _ => unreachable!(),
        },
    };
    for s in [&stats0, &stats1, &stats2] {
        report.stp_violations += s.stp_violations();
    }
    for p in [&p0, &p1, &c0, &c1, &c2] {
        let cs = p.coordination_stats();
        report.bound_breaches += cs.bound_breaches();
        report.nets_suppressed += cs.nets_suppressed();
    }
    report
}

/// Switching the diet on changes no logical trace on the data-plane
/// pipeline — flat or hierarchical — while the flat diet provably
/// suppresses the sink consumers' reports via DNET.
#[test]
fn diet_preserves_pipeline_traces_across_seeds() {
    for seed in [0u64, 3, 42] {
        let flat_off = run_pipeline(seed, Coordinator::Flat, false);
        let flat_on = run_pipeline(seed, Coordinator::Flat, true);
        let hier_off = run_pipeline(seed, Coordinator::TwoZones, false);
        let hier_on = run_pipeline(seed, Coordinator::TwoZones, true);

        assert_eq!(
            flat_off.traces, flat_on.traces,
            "seed {seed}: the flat diet changed a logical trace"
        );
        assert_eq!(
            hier_off.traces, hier_on.traces,
            "seed {seed}: the hierarchical diet changed a logical trace"
        );
        assert_eq!(
            flat_on.traces, hier_on.traces,
            "seed {seed}: coordinators diverged with the diet on"
        );
        assert_eq!(flat_off.fingerprint(), flat_on.fingerprint(), "seed {seed}");
        assert_eq!(hier_off.fingerprint(), hier_on.fingerprint(), "seed {seed}");

        for (label, r) in [
            ("flat/off", &flat_off),
            ("flat/on", &flat_on),
            ("hier/off", &hier_off),
            ("hier/on", &hier_on),
        ] {
            for (lane, trace) in r.traces.iter().enumerate() {
                assert_eq!(trace.len(), EVENTS, "seed {seed} {label}: consumer {lane}");
            }
            assert_eq!(r.bound_breaches, 0, "seed {seed} {label}");
            assert_eq!(r.stp_violations, 0, "seed {seed} {label}");
        }

        // The flat diet genuinely engaged: the three sink consumers were
        // DNET-classified and their reports suppressed, so strictly
        // fewer control frames reached the RTI.
        assert!(
            flat_on.rti.dnets_sent > 0,
            "seed {seed}: the flat RTI pushed no DNET frames"
        );
        assert!(
            flat_on.nets_suppressed > 0,
            "seed {seed}: no report was suppressed under the flat diet"
        );
        assert!(
            flat_on.rti.nets_received + flat_on.rti.ltcs_received
                < flat_off.rti.nets_received + flat_off.rti.ltcs_received,
            "seed {seed}: the diet did not reduce inbound control frames \
             (on: {} nets + {} ltcs, off: {} nets + {} ltcs)",
            flat_on.rti.nets_received,
            flat_on.rti.ltcs_received,
            flat_off.rti.nets_received,
            flat_off.rti.ltcs_received,
        );
        // Diet off is the PR 8 wire protocol, bit for bit: no DNETs, no
        // windowed tags.
        for (label, r) in [("flat", &flat_off), ("hier", &hier_off)] {
            assert_eq!(r.rti.dnets_sent, 0, "seed {seed} {label}");
            assert_eq!(r.rti.window_tags, 0, "seed {seed} {label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the equivalence claim: *any* seed yields
    /// identical traces with the diet on and off, flat and hierarchical.
    #[test]
    fn diet_preserves_pipeline_traces_on_any_seed(seed in any::<u64>()) {
        let flat_off = run_pipeline(seed, Coordinator::Flat, false);
        let flat_on = run_pipeline(seed, Coordinator::Flat, true);
        let hier_off = run_pipeline(seed, Coordinator::TwoZones, false);
        let hier_on = run_pipeline(seed, Coordinator::TwoZones, true);
        prop_assert_eq!(&flat_off.traces, &flat_on.traces);
        prop_assert_eq!(&hier_off.traces, &hier_on.traces);
        prop_assert_eq!(&flat_on.traces, &hier_on.traces);
        prop_assert_eq!(
            flat_off.bound_breaches + flat_on.bound_breaches
                + hier_off.bound_breaches + hier_on.bound_breaches,
            0
        );
    }
}

/// The outcome of one timer-only chain run (the fleet-scale shape where
/// grant-ahead windows actually fire: lattice-declared federates with
/// lattice-declared upstreams).
struct ChainReport {
    fingerprint: u64,
    processed: u64,
    windowed_grants: u64,
    nets_suppressed: u64,
    rti: RtiStats,
    observe_snapshot: String,
}

impl ChainReport {
    /// Control frames through the coordinator (NET and LTC reports in,
    /// TAG, PTAG and DNET frames out) per granted tag, where a windowed
    /// grant counts every tag it covers.
    fn frames_per_granted_tag(&self) -> f64 {
        let s = &self.rti;
        let frames =
            s.nets_received + s.ltcs_received + s.tags_issued + s.ptags_issued + s.dnets_sent;
        frames as f64 / (s.tags_issued + s.window_tags) as f64
    }
}

const CHAIN_ZONES: usize = 3;
const CHAIN_MEMBERS: usize = 4;

/// Twelve timer-only federates in one global chain `m0 → … → m11`
/// (crossing both zone boundaries when hierarchical), 10 ms timers, 1 ms
/// edges. No data plane — coordination alone gates the tags, exactly the
/// `fleet_scale` regime. The horizon deliberately avoids a lattice point
/// so the last processable tag (90 ms) lands well inside it under both
/// diets.
fn run_chain(seed: u64, coordinator: Coordinator, diet: bool) -> ChainReport {
    let n = CHAIN_ZONES * CHAIN_MEMBERS;
    let edge_delay = Duration::from_millis(1);
    let mut sim = Simulation::new(seed);
    let observe = sim.enable_observability();
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(50)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    let (flat, hier) = match coordinator {
        Coordinator::Flat => {
            let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
            if diet {
                rti.enable_control_diet();
            }
            (Some(rti), None)
        }
        Coordinator::TwoZones => {
            let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            for z in 0..CHAIN_ZONES {
                h.add_zone(&mut sim, &net, &sd, NodeId(1 + z as u16));
            }
            if diet {
                h.enable_control_diet();
            }
            (None, Some(h))
        }
    };

    let mut platforms = Vec::with_capacity(n);
    for i in 0..n {
        let name = format!("m{i}");
        let binding = Binding::new(
            &net,
            &sd,
            NodeId((1 + CHAIN_ZONES + i) as u16),
            0x1000 + i as u16,
        );
        let mut b = ProgramBuilder::new();
        {
            let mut r = b.reactor(&name, 0u64);
            let t = r.timer(
                "tick",
                Duration::from_millis(10),
                Some(Duration::from_millis(10)),
            );
            r.reaction("tick")
                .triggered_by(t)
                .body(|ticks: &mut u64, _| *ticks += 1);
            r.finish();
        }
        let runtime = Runtime::new(b.build().unwrap());
        let rng = sim.fork_rng(&name);
        let p = match (&flat, &hier) {
            (Some(rti), None) => CoordinatedPlatform::new(
                &name,
                runtime,
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                rti,
                &binding,
                false,
            ),
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                &name,
                runtime,
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                h,
                ZoneId((i / CHAIN_MEMBERS) as u16),
                &binding,
                false,
            )
            .unwrap(),
            _ => unreachable!(),
        };
        platforms.push(p);
    }
    for w in platforms.windows(2) {
        let (u, d) = (w[0].federate_id(), w[1].federate_id());
        match (&flat, &hier) {
            (Some(rti), None) => rti.connect(u, d, edge_delay),
            (None, Some(h)) => h.connect(u, d, edge_delay),
            _ => unreachable!(),
        }
    }

    for p in &platforms {
        p.start(&mut sim);
    }
    sim.run_until(Instant::from_millis(95));

    let mut h = Fnv::new();
    let mut processed = 0;
    let mut windowed_grants = 0;
    let mut nets_suppressed = 0;
    for p in &platforms {
        let cs = p.coordination_stats();
        assert_eq!(cs.bound_breaches(), 0, "{} breached its bound", p.name());
        windowed_grants += cs.windowed_grants();
        nets_suppressed += cs.nets_suppressed();
        let tags = p.stats().processed_tags;
        processed += tags;
        let max = p.max_processed_tag().unwrap_or(Tag::ORIGIN);
        h.eat(tags);
        h.eat(max.time.as_nanos());
        h.eat(u64::from(max.microstep));
    }
    ChainReport {
        fingerprint: h.0,
        processed,
        windowed_grants,
        nets_suppressed,
        rti: match (&flat, &hier) {
            (Some(rti), None) => rti.stats(),
            (None, Some(h)) => h.stats(),
            _ => unreachable!(),
        },
        observe_snapshot: observe.snapshot(),
    }
}

/// On the chain fleet the diet's grant-ahead windows and DNET
/// suppression fire for real, cut the control-frame volume, and leave
/// every federate's processed-tag trace untouched.
#[test]
fn diet_preserves_chain_tags_and_cuts_control_frames() {
    for seed in [7u64, 42] {
        let flat_off = run_chain(seed, Coordinator::Flat, false);
        let flat_on = run_chain(seed, Coordinator::Flat, true);
        let hier_off = run_chain(seed, Coordinator::TwoZones, false);
        let hier_on = run_chain(seed, Coordinator::TwoZones, true);

        // Equivalence: same processed tags, same per-federate extents,
        // flat == 2-level == diet, and every run replays exactly.
        assert_eq!(flat_off.fingerprint, flat_on.fingerprint, "seed {seed}");
        assert_eq!(hier_off.fingerprint, hier_on.fingerprint, "seed {seed}");
        assert_eq!(flat_off.fingerprint, hier_off.fingerprint, "seed {seed}");
        assert_eq!(flat_on.processed, hier_on.processed, "seed {seed}");
        assert!(flat_on.processed > 0, "seed {seed}: nothing processed");
        for diet in [false, true] {
            let again = run_chain(seed, Coordinator::TwoZones, diet);
            let first = if diet { &hier_on } else { &hier_off };
            assert_eq!(
                again.fingerprint, first.fingerprint,
                "seed {seed} diet={diet}"
            );
        }

        // Only the hierarchy speaks the batched zone protocol.
        assert_eq!(flat_off.rti.batches_sent, 0, "seed {seed}");
        assert!(hier_off.rti.batches_sent > 0, "seed {seed}: no batches");

        // Engagement: windows covered runs of future tags in one frame,
        // DNETs were pushed, reports were suppressed.
        for (label, r) in [("flat", &flat_on), ("hier", &hier_on)] {
            assert!(
                r.rti.window_tags > 0,
                "seed {seed} {label}: no windowed tags ({})",
                r.rti
            );
            assert!(
                r.windowed_grants > 0,
                "seed {seed} {label}: no platform saw a windowed grant"
            );
            assert!(r.rti.dnets_sent > 0, "seed {seed} {label}: no DNETs");
        }
        assert!(
            flat_on.nets_suppressed > 0,
            "seed {seed}: the chain tail was not suppressed"
        );

        // The point of the diet: fewer control frames per granted tag.
        // Windowed grants collapse runs of TAG frames and sink reports
        // vanish, so both directions shrink. (The processed-tag
        // fingerprints above prove the *coverage* did not shrink.)
        for (label, on, off) in [("flat", &flat_on, &flat_off), ("hier", &hier_on, &hier_off)] {
            assert_eq!(
                off.rti.window_tags, 0,
                "seed {seed} {label}: diet-off windows"
            );
            assert_eq!(off.rti.dnets_sent, 0, "seed {seed} {label}: diet-off DNETs");
            assert!(
                on.frames_per_granted_tag() < off.frames_per_granted_tag(),
                "seed {seed} {label}: frames per granted tag did not fall \
                 (on: {:.2}, off: {:.2})",
                on.frames_per_granted_tag(),
                off.frames_per_granted_tag(),
            );
            assert!(
                on.rti.tags_issued < off.rti.tags_issued,
                "seed {seed} {label}: windows did not reduce TAG frames \
                 (on: {}, off: {})",
                on.rti.tags_issued,
                off.rti.tags_issued,
            );
            assert!(
                on.rti.nets_received + on.rti.ltcs_received
                    <= off.rti.nets_received + off.rti.ltcs_received,
                "seed {seed} {label}: inbound control frames grew under the diet"
            );
        }

        // The diet's telemetry reaches the shared registry (and with it
        // the ObservabilityReport footer and the Chrome trace export).
        for key in [
            "coord/nets_suppressed",
            "coord/window_len",
            "coord/dnet_horizon_ns",
        ] {
            assert!(
                flat_on.observe_snapshot.contains(key),
                "seed {seed}: {key} missing from the metrics snapshot:\n{}",
                flat_on.observe_snapshot
            );
        }
    }
}

/// Federate death under the diet: the dying producer is lattice-declared
/// (its DNET/period state lives at the RTI) and the surviving consumer
/// is a DNET-suppressed sink, yet liveness still declares the death and
/// releases the floor — the survivor drains the full data plane. Without
/// liveness it stalls, exactly as diet-off. A suppressed federate dying
/// must not wedge the LBTS fixpoint.
#[test]
fn dead_lattice_federate_releases_lbts_under_the_diet() {
    fn run(enable_liveness: bool) -> (u64, usize, u64, u64) {
        let deadline = Duration::from_millis(2);
        let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
        let edge_delay = deadline + cfg.stp_offset();

        let mut sim = Simulation::new(17);
        sim.enable_tracing();
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
        rti.enable_control_diet();
        if enable_liveness {
            rti.enable_liveness(Duration::from_millis(50));
        }

        // Producer: emits 5 payloads on a 10 ms timer; timer-only, so it
        // declares a 10 ms periodic lattice at registration.
        let producer =
            {
                let outbox = Outbox::new();
                let mut b = ProgramBuilder::new();
                let publish = ServerEventTransactor::declare(&mut b, &outbox, "ping", deadline);
                {
                    let mut logic = b.reactor("producer", 0u8);
                    let out = logic.output::<dear_someip::FrameBuf>("out");
                    let t = logic.timer(
                        "emit",
                        Duration::from_millis(10),
                        Some(Duration::from_millis(10)),
                    );
                    logic.reaction("emit").triggered_by(t).effects(out).body(
                        move |n: &mut u8, ctx| {
                            *n += 1;
                            if *n <= 5 {
                                ctx.set(out, vec![*n].into());
                            }
                        },
                    );
                    logic.finish();
                    b.connect(out, publish.event).unwrap();
                }
                let binding = Binding::new(&net, &sd, NodeId(1), 0x11);
                binding.offer(
                    &mut sim,
                    ServiceInstance::new(SERVICE_PING, INSTANCE),
                    Duration::from_secs(1 << 20),
                );
                let platform = CoordinatedPlatform::new(
                    "producer",
                    Runtime::new(b.build().unwrap()),
                    VirtualClock::ideal(),
                    Outbox::clone(&outbox),
                    sim.fork_rng("producer-costs"),
                    &rti,
                    &binding,
                    false,
                );
                publish.bind(&platform, &binding, spec(SERVICE_PING));
                platform
            };

        // Consumer: a pure sink, DNET-classified and suppressed.
        let seen: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let consumer = {
            let outbox = Outbox::new();
            let mut b = ProgramBuilder::new();
            let input = ClientEventTransactor::declare(&mut b, "ping");
            {
                let mut logic = b.reactor("consumer", ());
                let sink = seen.clone();
                logic
                    .reaction("collect")
                    .triggered_by(input.event)
                    .body(move |_, ctx| {
                        sink.lock().unwrap().push(ctx.get(input.event).unwrap()[0]);
                    });
                logic.finish();
            }
            let binding = Binding::new(&net, &sd, NodeId(2), 0x22);
            let platform = CoordinatedPlatform::new(
                "consumer",
                Runtime::new(b.build().unwrap()),
                VirtualClock::ideal(),
                Outbox::clone(&outbox),
                sim.fork_rng("consumer-costs"),
                &rti,
                &binding,
                false,
            );
            input.bind(&platform, &binding, spec(SERVICE_PING), cfg);
            platform
        };
        rti.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

        producer.start(&mut sim);
        consumer.start(&mut sim);
        // Heartbeats bypass the diet's suppression by design: a
        // suppressed-but-alive sink must stay distinguishable from a
        // dead one.
        producer.enable_heartbeat(&mut sim, Duration::from_millis(10));
        consumer.enable_heartbeat(&mut sim, Duration::from_millis(10));

        // Sever the producer's control uplink after its third event; the
        // data plane (producer node -> consumer node) keeps flowing.
        let mut faults = dear_sim::FaultPlan::new();
        faults.kill_link(Instant::from_millis(35), NodeId(1), NodeId(0));
        faults.apply(&mut sim, &net);

        sim.run_until(Instant::from_secs(1));

        let deaths = rti.stats().deaths;
        let suppressed = consumer.coordination_stats().nets_suppressed();
        let seen = seen.lock().unwrap().len();
        (
            deaths,
            seen,
            suppressed,
            consumer.coordination_stats().bound_breaches(),
        )
    }

    let (deaths, seen, suppressed, breaches) = run(true);
    assert_eq!(deaths, 1, "the silent lattice producer is declared dead");
    assert!(
        suppressed > 0,
        "the surviving consumer was never suppressed — the diet did not engage"
    );
    assert_eq!(breaches, 0);
    assert_eq!(
        seen, 5,
        "the suppressed survivor drains fully once the dead producer's \
         DNET/lattice state is invalidated and its floor released"
    );

    let (deaths, seen, _, _) = run(false);
    assert_eq!(deaths, 0);
    assert!(
        seen < 5,
        "without liveness the consumer stalls on the dead producer's bound (saw {seen})"
    );
}
