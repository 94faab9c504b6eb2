//! Behavioural tests of the two-level coordinator: a hierarchical
//! federation (zones + root) must be *observably identical* to the flat
//! RTI on the same topology — byte-identical per-consumer event traces
//! across seeds — while actually speaking the batched zone protocol; and
//! its liveness must be scoped per shard, so a silent zone is released
//! at the root while sibling zones keep advancing.

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

/// Which coordinator drives the run: the flat RTI, or two zones under a
/// root. Everything else about the scenario is bit-identical.
#[derive(Clone, Copy, PartialEq)]
enum Coordinator {
    Flat,
    TwoZones,
}

/// The observable outcome of one run: per-consumer `(tag, value)` event
/// traces plus the invariants both coordinators must uphold.
struct RunReport {
    /// One lane per consumer, in registration order.
    traces: Vec<Vec<(Tag, u8)>>,
    bound_breaches: u64,
    stp_violations: u64,
    batches_sent: u64,
    batches_received: u64,
}

impl RunReport {
    /// FNV-1a over the full trace content (tags and values, in order).
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for lane in &self.traces {
            eat(0xfe); // lane separator
            for (tag, v) in lane {
                tag.time
                    .as_nanos()
                    .to_le_bytes()
                    .into_iter()
                    .for_each(&mut eat);
                tag.microstep.to_le_bytes().into_iter().for_each(&mut eat);
                eat(*v);
            }
        }
        h
    }
}

/// Runs a five-federate, two-service pipeline under either coordinator:
///
/// ```text
///   zone 0: p0 ──intra──► c0          zone 1: p1
///           p0 ──cross-zone─────────────────► c1
///           c2 ◄────────────────cross-zone─── p1
/// ```
///
/// Producer payloads are drawn from the seed, and every consumer carries
/// a seeded compute-cost model, so physical release times genuinely vary
/// per seed while the logical traces must not vary per coordinator.
fn run_fleet(seed: u64, coordinator: Coordinator) -> RunReport {
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
    let (flat, hier) = match coordinator {
        Coordinator::Flat => (Some(Rti::new(&mut sim, &net, &sd, NodeId(0))), None),
        Coordinator::TwoZones => {
            let h = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
            h.add_zone(&mut sim, &net, &sd, NodeId(1));
            h.add_zone(&mut sim, &net, &sd, NodeId(2));
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

    // Seed-derived payloads, identical across coordinators.
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
    let mut report = RunReport {
        traces: vec![lane(&seen0), lane(&seen1), lane(&seen2)],
        bound_breaches: 0,
        stp_violations: 0,
        batches_sent: 0,
        batches_received: 0,
    };
    for s in [&stats0, &stats1, &stats2] {
        report.stp_violations += s.stp_violations();
    }
    for p in [&p0, &p1, &c0, &c1, &c2] {
        let cs = p.coordination_stats();
        report.bound_breaches += cs.bound_breaches();
        report.batches_sent += cs.coord_batches_sent();
        report.batches_received += cs.coord_batches_received();
    }
    if let Some(h) = &hier {
        // The hierarchy was genuinely exercised: both zones granted,
        // floors crossed the root, every hop was batched.
        assert_eq!(h.zone_count(), 2);
        assert_eq!(h.federate_count(), 5);
        for z in [ZoneId(0), ZoneId(1)] {
            let zs = h.zone_stats(z);
            assert!(zs.tags_issued > 0, "{z} issued no grants: {zs}");
            assert!(zs.batches_sent > 0, "{z} sent no batches: {zs}");
        }
        let rs = h.root_stats();
        assert!(rs.floor_records > 0, "no floors crossed the root: {rs}");
        assert!(rs.batches_sent > 0, "root relays must be batched: {rs}");
    }
    report
}

/// The flat and hierarchical coordinators produce byte-identical logical
/// event traces on the same seeded scenario — the tentpole equivalence
/// claim, checked over fixed seeds.
#[test]
fn hierarchical_traces_match_flat_rti_across_seeds() {
    for seed in [0u64, 1, 2, 7, 42] {
        let flat = run_fleet(seed, Coordinator::Flat);
        let hier = run_fleet(seed, Coordinator::TwoZones);

        assert_eq!(
            flat.traces, hier.traces,
            "seed {seed}: traces diverged between coordinators"
        );
        assert_eq!(flat.fingerprint(), hier.fingerprint(), "seed {seed}");

        // Every lane drained fully, and both runs stayed clean.
        for (lane, trace) in flat.traces.iter().enumerate() {
            assert_eq!(trace.len(), EVENTS, "seed {seed}: consumer {lane}");
        }
        for (label, r) in [("flat", &flat), ("hierarchical", &hier)] {
            assert_eq!(r.bound_breaches, 0, "seed {seed} {label}");
            assert_eq!(r.stp_violations, 0, "seed {seed} {label}");
        }

        // The protocols differ exactly as advertised: only the
        // hierarchical run speaks batched coordination frames.
        assert_eq!(flat.batches_sent, 0);
        assert_eq!(flat.batches_received, 0);
        assert!(hier.batches_sent > 0, "seed {seed}: no step batches");
        assert!(hier.batches_received > 0, "seed {seed}: no grant batches");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the equivalence claim: *any* seed yields
    /// identical traces, not just the hand-picked ones.
    #[test]
    fn hierarchical_traces_match_flat_rti_on_any_seed(seed in any::<u64>()) {
        let flat = run_fleet(seed, Coordinator::Flat);
        let hier = run_fleet(seed, Coordinator::TwoZones);
        prop_assert_eq!(&flat.traces, &hier.traces);
        prop_assert_eq!(flat.fingerprint(), hier.fingerprint());
        prop_assert_eq!(flat.bound_breaches + hier.bound_breaches, 0);
    }
}

/// Partition tolerance, scoped per shard: severing one zone's uplink
/// kills only that zone's floor at the root. The root declares the zone
/// dead after the liveness deadline, releases its bound, and consumers
/// in sibling zones drain the still-flowing data plane; without liveness
/// they stall forever. Member-level watchdogs inside the silent zone see
/// heartbeats throughout and declare nobody dead.
#[test]
fn dead_zone_releases_floor_for_sibling_zones() {
    fn run(enable_liveness: bool) -> (u64, u64, usize, usize) {
        let deadline = Duration::from_millis(2);
        let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
        let edge_delay = deadline + cfg.stp_offset();

        let mut sim = Simulation::new(13);
        sim.enable_tracing();
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let hier = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
        let zone0 = hier.add_zone(&mut sim, &net, &sd, NodeId(1));
        let zone1 = hier.add_zone(&mut sim, &net, &sd, NodeId(2));
        if enable_liveness {
            hier.enable_liveness(&mut sim, Duration::from_millis(50));
        }

        // Producer in zone 1: emits 5 payloads on a 10ms timer.
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
                let binding = Binding::new(&net, &sd, NodeId(3), 0x13);
                binding.offer(
                    &mut sim,
                    ServiceInstance::new(SERVICE_PING, INSTANCE),
                    Duration::from_secs(1 << 20),
                );
                let platform = CoordinatedPlatform::new_in_zone(
                    "producer",
                    Runtime::new(b.build().unwrap()),
                    VirtualClock::ideal(),
                    Outbox::clone(&outbox),
                    sim.fork_rng("producer-costs"),
                    &hier,
                    zone1,
                    &binding,
                    false,
                )
                .unwrap();
                publish.bind(&platform, &binding, spec(SERVICE_PING));
                platform
            };

        // Consumer in zone 0, fed across the zone boundary.
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
            let binding = Binding::new(&net, &sd, NodeId(4), 0x14);
            let platform = CoordinatedPlatform::new_in_zone(
                "consumer",
                Runtime::new(b.build().unwrap()),
                VirtualClock::ideal(),
                Outbox::clone(&outbox),
                sim.fork_rng("consumer-costs"),
                &hier,
                zone0,
                &binding,
                false,
            )
            .unwrap();
            input.bind(&platform, &binding, spec(SERVICE_PING), cfg);
            platform
        };
        hier.connect(producer.federate_id(), consumer.federate_id(), edge_delay);

        producer.start(&mut sim);
        consumer.start(&mut sim);
        producer.enable_heartbeat(&mut sim, Duration::from_millis(10));
        consumer.enable_heartbeat(&mut sim, Duration::from_millis(10));

        // Sever zone 1's uplink to the root after the third event. The
        // zone itself stays healthy — its members keep heartbeating and
        // being granted — but its floor stops reaching the root, so the
        // consumer's proxy for zone 1 freezes.
        let mut faults = dear_sim::FaultPlan::new();
        faults.kill_link(Instant::from_millis(35), NodeId(2), NodeId(0));
        faults.apply(&mut sim, &net);

        sim.run_until(Instant::from_secs(1));

        let zone_deaths = hier.root_stats().deaths;
        let member_deaths = hier.zone_stats(zone0).deaths + hier.zone_stats(zone1).deaths;
        let seen = seen.lock().unwrap().len();
        let traces = sim.trace_log().events_in("rti").count();
        (zone_deaths, member_deaths, seen, traces)
    }

    let (zone_deaths, member_deaths, seen, traces) = run(true);
    assert_eq!(
        zone_deaths, 1,
        "the silent zone is declared dead at the root"
    );
    assert_eq!(
        member_deaths, 0,
        "liveness is scoped per shard: no member watchdog fires"
    );
    assert_eq!(traces, 1, "the zone death lands in the trace");
    assert_eq!(
        seen, 5,
        "sibling zones keep advancing once the dead zone's floor is released"
    );

    let (zone_deaths, member_deaths, seen, _) = run(false);
    assert_eq!(zone_deaths, 0);
    assert_eq!(member_deaths, 0);
    assert!(
        seen < 5,
        "without liveness the sibling stalls on the dead zone's frozen floor (saw {seen})"
    );
}

/// A federation built step by step, for tests whose point is the order
/// of zone creation, registration and topology declarations.
struct World {
    sim: Simulation,
    net: NetworkHandle,
    sd: SdRegistry,
    flat: Option<Rti>,
    hier: Option<HierarchicalRti>,
}

/// A consumer's `(tag, value)` log and its transactor counters.
type Seen = (
    Arc<Mutex<Vec<(Tag, u8)>>>,
    dear_transactors::TransactorStats,
);

impl World {
    /// Node 0 hosts the flat RTI or the root; zones are added by the test.
    fn new(seed: u64, coordinator: Coordinator) -> Self {
        let mut sim = Simulation::new(seed);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let (flat, hier) = match coordinator {
            Coordinator::Flat => (Some(Rti::new(&mut sim, &net, &sd, NodeId(0))), None),
            Coordinator::TwoZones => (
                None,
                Some(HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0))),
            ),
        };
        World {
            sim,
            net,
            sd,
            flat,
            hier,
        }
    }

    fn add_zone(&mut self, node: NodeId) -> ZoneId {
        let hier = self.hier.as_ref().expect("zones need the hierarchy");
        hier.add_zone(&mut self.sim, &self.net, &self.sd, node)
    }

    fn platform(
        &mut self,
        name: &str,
        zone: ZoneId,
        runtime: Runtime,
        outbox: Outbox,
        binding: &Binding,
    ) -> CoordinatedPlatform {
        let rng = self.sim.fork_rng(name);
        let clock = VirtualClock::ideal();
        match (&self.flat, &self.hier) {
            (Some(rti), None) => {
                CoordinatedPlatform::new(name, runtime, clock, outbox, rng, rti, binding, false)
            }
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                name, runtime, clock, outbox, rng, h, zone, binding, false,
            )
            .unwrap(),
            _ => unreachable!(),
        }
    }

    /// A timer federate publishing `data` on `service`, one byte every
    /// 10 ms, then ticking on without output.
    fn producer(
        &mut self,
        name: &'static str,
        zone: ZoneId,
        node: NodeId,
        service: u16,
        data: Vec<u8>,
    ) -> CoordinatedPlatform {
        let deadline = Duration::from_millis(2);
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let publish = ServerEventTransactor::declare(&mut b, &outbox, name, deadline);
        {
            let mut logic = b.reactor(name, 0usize);
            let out = logic.output::<dear_someip::FrameBuf>("out");
            let period = Duration::from_millis(10);
            let t = logic.timer("emit", period, Some(period));
            logic
                .reaction("emit")
                .triggered_by(t)
                .effects(out)
                .body(move |n: &mut usize, ctx| {
                    if *n < data.len() {
                        ctx.set(out, vec![data[*n]].into());
                    }
                    *n += 1;
                });
            logic.finish();
            b.connect(out, publish.event).unwrap();
        }
        let binding = Binding::new(&self.net, &self.sd, node, 0x10 + node.0);
        binding.offer(
            &mut self.sim,
            ServiceInstance::new(service, INSTANCE),
            Duration::from_secs(1 << 20),
        );
        let runtime = Runtime::new(b.build().unwrap());
        let p = self.platform(name, zone, runtime, outbox, &binding);
        publish.bind(&p, &binding, spec(service));
        p
    }

    /// A transactor consumer of `service` with a seeded compute cost.
    fn consumer(
        &mut self,
        name: &'static str,
        zone: ZoneId,
        node: NodeId,
        service: u16,
    ) -> (CoordinatedPlatform, Seen) {
        let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
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
        let binding = Binding::new(&self.net, &self.sd, node, 0x10 + node.0);
        let runtime = Runtime::new(b.build().unwrap());
        let p = self.platform(name, zone, runtime, Outbox::new(), &binding);
        let stats = input.bind(&p, &binding, spec(service), cfg);
        let cost =
            dear_sim::LatencyModel::uniform(Duration::from_micros(10), Duration::from_micros(200));
        p.set_reaction_cost(collect_rid, cost);
        (p, (seen, stats))
    }

    /// Declares the transactor edge `up -> down` (`D + L + E` = 3 ms).
    fn connect(&self, up: &CoordinatedPlatform, down: &CoordinatedPlatform) {
        let edge_delay = Duration::from_millis(3);
        match (&self.flat, &self.hier) {
            (Some(rti), None) => rti.connect(up.federate_id(), down.federate_id(), edge_delay),
            (None, Some(h)) => h.connect(up.federate_id(), down.federate_id(), edge_delay),
            _ => unreachable!(),
        }
    }
}

/// Members registered *after* a cross-zone edge already gave their zone
/// a proxy for the upstream zone: both zones end up with a member, then
/// a proxy, then another member in registration order. The logical
/// traces must still match the flat RTI's, seed for seed.
#[test]
fn members_registered_after_a_proxy_match_flat_rti() {
    fn run(seed: u64, coordinator: Coordinator) -> (Vec<Vec<(Tag, u8)>>, u64) {
        let mut w = World::new(seed, coordinator);
        let (zone0, zone1) = match coordinator {
            Coordinator::Flat => (ZoneId(0), ZoneId(0)),
            Coordinator::TwoZones => (w.add_zone(NodeId(1)), w.add_zone(NodeId(2))),
        };
        let mut payload_rng = SimRng::seed_from_u64(seed ^ 0xfeed);
        let mut payloads =
            || -> Vec<u8> { (0..EVENTS).map(|_| payload_rng.next_u64() as u8).collect() };
        let p0 = w.producer("p0", zone0, NodeId(3), SERVICE_PING, payloads());
        let p1 = w.producer("p1", zone1, NodeId(4), SERVICE_PONG, payloads());
        // Cross-zone edges first: each zone gets its proxy here.
        let (c1, seen1) = w.consumer("c1", zone1, NodeId(5), SERVICE_PING);
        w.connect(&p0, &c1);
        let (c2, seen2) = w.consumer("c2", zone0, NodeId(6), SERVICE_PONG);
        w.connect(&p1, &c2);
        // Then one more member per zone, behind the proxies.
        let (c0, seen0) = w.consumer("c0", zone0, NodeId(7), SERVICE_PING);
        w.connect(&p0, &c0);
        let (c3, seen3) = w.consumer("c3", zone1, NodeId(8), SERVICE_PONG);
        w.connect(&p1, &c3);

        let platforms = [&p0, &p1, &c1, &c2, &c0, &c3];
        for p in platforms {
            p.start(&mut w.sim);
        }
        w.sim.run_until(Instant::from_millis(200));
        let seen = [seen0, seen1, seen2, seen3];
        let traces = seen
            .iter()
            .map(|(s, _)| s.lock().unwrap().clone())
            .collect();
        let violations: u64 = seen.iter().map(|(_, s)| s.stp_violations()).sum();
        let breaches: u64 = platforms
            .iter()
            .map(|p| p.coordination_stats().bound_breaches())
            .sum();
        (traces, violations + breaches)
    }

    for seed in [0u64, 1, 7] {
        let (flat, flat_faults) = run(seed, Coordinator::Flat);
        let (hier, hier_faults) = run(seed, Coordinator::TwoZones);
        assert_eq!(flat, hier, "seed {seed}: traces diverged");
        for (lane, trace) in flat.iter().enumerate() {
            assert_eq!(trace.len(), EVENTS, "seed {seed}: consumer {lane}");
        }
        assert_eq!(flat_faults + hier_faults, 0, "seed {seed}");
    }
}

/// Liveness is zone configuration that a zone added *later* inherits:
/// zone 1 joins after `enable_liveness`, one of its members crashes, and
/// zone 1's own watchdog declares that member dead, so the zone floor
/// rises past it. The root keeps hearing zone 1 and releases nothing,
/// so the zone-0 consumer of zone 1's live producer sees every payload
/// in order. Enabling liveness a second time changes no counter.
#[test]
fn zone_added_after_enable_liveness_watches_its_members() {
    fn run(enables: usize) -> [RtiStats; 3] {
        let mut w = World::new(5, Coordinator::TwoZones);
        let zone0 = w.add_zone(NodeId(1));
        let hier = w.hier.clone().unwrap();
        for _ in 0..enables {
            hier.enable_liveness(&mut w.sim, Duration::from_millis(50));
        }
        let zone1 = w.add_zone(NodeId(2));

        let payloads = vec![1, 2, 3, 4, 5];
        let producer = w.producer("producer", zone1, NodeId(3), SERVICE_PING, payloads);
        let victim = w.producer("victim", zone1, NodeId(4), SERVICE_PONG, Vec::new());
        let (consumer, (seen, stats)) = w.consumer("consumer", zone0, NodeId(5), SERVICE_PING);
        w.connect(&producer, &consumer);
        for p in [&producer, &victim, &consumer] {
            p.start(&mut w.sim);
            p.enable_heartbeat(&mut w.sim, Duration::from_millis(10));
        }
        w.sim.run_until(Instant::from_millis(25));
        victim.crash(&w.sim);
        w.sim.run_until(Instant::from_secs(1));

        let (root, zone0, zone1) = (
            hier.root_stats(),
            hier.zone_stats(zone0),
            hier.zone_stats(zone1),
        );
        assert_eq!(zone1.deaths, 1, "zone 1 declares its member dead");
        assert_eq!(zone0.deaths, 0);
        assert_eq!(root.deaths, 0, "the root never loses zone 1");
        let values: Vec<u8> = seen.lock().unwrap().iter().map(|&(_, v)| v).collect();
        assert_eq!(values, [1, 2, 3, 4, 5]);
        assert_eq!(stats.stp_violations(), 0);
        [root, zone0, zone1]
    }

    assert_eq!(run(1), run(2), "enable_liveness is idempotent");
}
