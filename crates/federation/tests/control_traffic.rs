//! Exact control traffic of the coordinators, pinned at fixed seeds.
//!
//! The other federation tests check logical outcomes (traces, grants,
//! deaths) and "more or fewer frames" comparisons. This file pins the
//! *exact* counters: every coordinator's [`RtiStats`] and every
//! platform's batched-frame counts on the five-federate, two-zone
//! pipeline of `tests/hierarchy.rs`, under the flat RTI and the
//! hierarchy, with the control diet off and on, and with liveness plus
//! heartbeats. A change that reorders, adds or drops a single control
//! record fails here. Only a change that deliberately alters the control
//! protocol may update these numbers.

use dear_core::{ProgramBuilder, Runtime};
use dear_federation::{CoordinatedPlatform, HierarchicalRti, Rti, ZoneId};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, SimRng, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, DearConfig, EventSpec, Outbox, ServerEventTransactor,
};

const SERVICE_PING: u16 = 0x0100;
const SERVICE_PONG: u16 = 0x0200;
const EVENTS: usize = 5;

fn spec(service: u16) -> EventSpec {
    EventSpec {
        service,
        instance: 1,
        eventgroup: 1,
        event: 0x8001,
    }
}

#[derive(Clone, Copy)]
enum Coordinator {
    Flat,
    TwoZones,
}

/// Which control-plane features are on.
#[derive(Clone, Copy)]
enum Mode {
    Plain,
    Diet,
    /// Diet plus the liveness watchdog (50 ms) and 10 ms platform
    /// heartbeats, so watchdog arming and the zones' uplink heartbeats
    /// are pinned too.
    DietLiveness,
}

/// The exact control traffic of one run: one `RtiStats` display line per
/// coordinator (the flat RTI; or the root, then zone 0 and zone 1), and
/// `(coord_batches_sent, coord_batches_received)` per platform in the
/// order p0, p1, c0, c1, c2.
#[derive(Debug, PartialEq)]
struct Traffic {
    coordinators: Vec<String>,
    platforms: Vec<(u64, u64)>,
}

/// The pipeline of `tests/hierarchy.rs`:
///
/// ```text
///   zone 0: p0 ──intra──► c0          zone 1: p1
///           p0 ──cross-zone─────────────────► c1
///           c2 ◄────────────────cross-zone─── p1
/// ```
fn run(seed: u64, coordinator: Coordinator, mode: Mode) -> Traffic {
    let deadline = Duration::from_millis(2);
    let cfg = DearConfig::new(Duration::from_millis(1), Duration::ZERO);
    let edge_delay = deadline + cfg.stp_offset();
    let diet = !matches!(mode, Mode::Plain);
    let liveness = matches!(mode, Mode::DietLiveness);

    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(
        LinkConfig::ideal(Duration::from_micros(100)),
        sim.fork_rng("net"),
    );
    let sd = SdRegistry::new();

    let (flat, hier) = match coordinator {
        Coordinator::Flat => {
            let rti = Rti::new(&mut sim, &net, &sd, NodeId(0));
            if diet {
                rti.enable_control_diet();
            }
            if liveness {
                rti.enable_liveness(Duration::from_millis(50));
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
            if liveness {
                h.enable_liveness(&mut sim, Duration::from_millis(50));
            }
            (None, Some(h))
        }
    };
    let platform = |sim: &mut Simulation, name: &str, zone, runtime, outbox, binding: &Binding| {
        let rng = sim.fork_rng(name);
        let clock = VirtualClock::ideal();
        match (&flat, &hier) {
            (Some(rti), None) => {
                CoordinatedPlatform::new(name, runtime, clock, outbox, rng, rti, binding, false)
            }
            (None, Some(h)) => CoordinatedPlatform::new_in_zone(
                name, runtime, clock, outbox, rng, h, zone, binding, false,
            )
            .unwrap(),
            _ => unreachable!(),
        }
    };

    let mut payload_rng = SimRng::seed_from_u64(seed ^ 0xfeed);
    let mut payloads =
        || -> Vec<u8> { (0..EVENTS).map(|_| payload_rng.next_u64() as u8).collect() };

    let producer =
        |sim: &mut Simulation, name: &'static str, zone, node: NodeId, service, data| {
            let outbox = Outbox::new();
            let mut b = ProgramBuilder::new();
            let publish = ServerEventTransactor::declare(&mut b, &outbox, name, deadline);
            {
                let mut logic = b.reactor(name, 0usize);
                let out = logic.output::<dear_someip::FrameBuf>("out");
                let period = Duration::from_millis(10);
                let t = logic.timer("emit", period, Some(period));
                logic.reaction("emit").triggered_by(t).effects(out).body(
                    move |n: &mut usize, ctx| {
                        let data: &Vec<u8> = &data;
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
                ServiceInstance::new(service, 1),
                Duration::from_secs(1 << 20),
            );
            let runtime = Runtime::new(b.build().unwrap());
            let p = platform(sim, name, zone, runtime, outbox, &binding);
            publish.bind(&p, &binding, spec(service));
            p
        };
    let consumer = |sim: &mut Simulation, name: &'static str, zone, node: NodeId, service| {
        let mut b = ProgramBuilder::new();
        let input = ClientEventTransactor::declare(&mut b, name);
        let collect_rid;
        {
            let mut logic = b.reactor(name, ());
            collect_rid = logic
                .reaction("collect")
                .triggered_by(input.event)
                .body(|_, _| {});
            logic.finish();
        }
        let binding = Binding::new(&net, &sd, node, 0x10 + node.0);
        let runtime = Runtime::new(b.build().unwrap());
        let p = platform(sim, name, zone, runtime, Outbox::new(), &binding);
        input.bind(&p, &binding, spec(service), cfg);
        let cost =
            dear_sim::LatencyModel::uniform(Duration::from_micros(10), Duration::from_micros(200));
        p.set_reaction_cost(collect_rid, cost);
        p
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
    let c0 = consumer(&mut sim, "c0", ZoneId(0), NodeId(5), SERVICE_PING);
    let c1 = consumer(&mut sim, "c1", ZoneId(1), NodeId(6), SERVICE_PING);
    let c2 = consumer(&mut sim, "c2", ZoneId(0), NodeId(7), SERVICE_PONG);
    let connect = |up: &CoordinatedPlatform, down: &CoordinatedPlatform| match (&flat, &hier) {
        (Some(rti), None) => rti.connect(up.federate_id(), down.federate_id(), edge_delay),
        (None, Some(h)) => h.connect(up.federate_id(), down.federate_id(), edge_delay),
        _ => unreachable!(),
    };
    connect(&p0, &c0);
    connect(&p0, &c1);
    connect(&p1, &c2);

    let platforms = [&p0, &p1, &c0, &c1, &c2];
    for p in platforms {
        p.start(&mut sim);
        if liveness {
            p.enable_heartbeat(&mut sim, Duration::from_millis(10));
        }
    }
    sim.run_until(Instant::from_millis(200));

    let coordinators = match (&flat, &hier) {
        (Some(rti), None) => vec![rti.stats()],
        (None, Some(h)) => vec![
            h.root_stats(),
            h.zone_stats(ZoneId(0)),
            h.zone_stats(ZoneId(1)),
        ],
        _ => unreachable!(),
    };
    Traffic {
        coordinators: coordinators.iter().map(ToString::to_string).collect(),
        platforms: platforms
            .iter()
            .map(|p| {
                let cs = p.coordination_stats();
                (cs.coord_batches_sent(), cs.coord_batches_received())
            })
            .collect(),
    }
}

/// One mode's expected traffic: the coordinators' `RtiStats` lines and
/// the platforms' `(coord_batches_sent, coord_batches_received)`.
type Expected<'a> = (Mode, &'a [&'a str], [(u64, u64); 5]);

/// Asserts the exact traffic of every mode at two seeds. The links are
/// ideal, so the counts do not depend on the seed; two seeds guard that.
fn check(coordinator: Coordinator, expected: [Expected; 3]) {
    for seed in [1, 7] {
        for (mode, coordinators, platforms) in expected {
            let expected = Traffic {
                coordinators: coordinators.iter().map(ToString::to_string).collect(),
                platforms: platforms.to_vec(),
            };
            assert_eq!(run(seed, coordinator, mode), expected, "seed {seed}");
        }
    }
}

/// The flat RTI sends single-record frames only: no platform sends or
/// receives a batch.
#[test]
fn flat_rti_control_traffic_is_exact() {
    check(
        Coordinator::Flat,
        [
            (
                Mode::Plain,
                &[
                    "federates=5 nets=73 ltcs=53 tags=122 ptags=0 deaths=0 floors=0 batches=0 \
                   windows=0 dnets=0 rejoins=0",
                ],
                [(0, 0); 5],
            ),
            (
                Mode::Diet,
                &[
                    "federates=5 nets=43 ltcs=38 tags=65 ptags=0 deaths=0 floors=0 batches=0 \
                   windows=0 dnets=5 rejoins=0",
                ],
                [(0, 0); 5],
            ),
            (
                Mode::DietLiveness,
                &[
                    "federates=5 nets=138 ltcs=38 tags=65 ptags=0 deaths=0 floors=0 batches=0 \
                   windows=0 dnets=5 rejoins=0",
                ],
                [(0, 0); 5],
            ),
        ],
    );
}

/// The root, then zone 0 and zone 1; every hop below the root batches.
#[test]
fn hierarchy_control_traffic_is_exact() {
    check(
        Coordinator::TwoZones,
        [
            (
                Mode::Plain,
                &[
                    "federates=5 nets=0 ltcs=0 tags=0 ptags=0 deaths=0 floors=324 batches=162 \
                     windows=0 dnets=0 rejoins=0",
                    "federates=3 nets=42 ltcs=29 tags=103 ptags=0 deaths=0 floors=161 \
                     batches=184 windows=0 dnets=0 rejoins=0",
                    "federates=2 nets=31 ltcs=24 tags=82 ptags=0 deaths=0 floors=161 \
                     batches=163 windows=0 dnets=0 rejoins=0",
                ],
                [(20, 103), (20, 82), (5, 103), (5, 82), (5, 103)],
            ),
            (
                Mode::Diet,
                &[
                    "federates=5 nets=0 ltcs=0 tags=0 ptags=0 deaths=0 floors=324 batches=162 \
                     windows=0 dnets=0 rejoins=0",
                    "federates=3 nets=42 ltcs=29 tags=103 ptags=0 deaths=0 floors=161 \
                     batches=185 windows=0 dnets=1 rejoins=0",
                    "federates=2 nets=31 ltcs=24 tags=82 ptags=0 deaths=0 floors=161 \
                     batches=164 windows=0 dnets=1 rejoins=0",
                ],
                [(20, 104), (20, 83), (5, 104), (5, 83), (5, 104)],
            ),
            (
                Mode::DietLiveness,
                &[
                    "federates=5 nets=0 ltcs=0 tags=0 ptags=0 deaths=0 floors=338 batches=162 \
                     windows=0 dnets=0 rejoins=0",
                    "federates=3 nets=99 ltcs=29 tags=103 ptags=0 deaths=0 floors=169 \
                     batches=193 windows=0 dnets=1 rejoins=0",
                    "federates=2 nets=69 ltcs=24 tags=82 ptags=0 deaths=0 floors=169 \
                     batches=172 windows=0 dnets=1 rejoins=0",
                ],
                [(20, 104), (20, 83), (5, 104), (5, 83), (5, 104)],
            ),
        ],
    );
}
