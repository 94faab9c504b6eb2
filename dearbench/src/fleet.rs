//! `fleet_1000`: the `fleet_scale` star of chains — 100 zones of 10
//! timer-only federates, 10 ms timers, 1 ms edges — under the
//! hierarchical RTI with the control diet on. Coordination does nearly
//! all the work; the data plane is idle.
//!
//! One zone's ten federates carry durable logs. After every timed sample
//! but the last, the benchmark crashes one of them (in rotation), lets
//! one tick pass, and calls [`CoordinatedPlatform::recover`] itself, so
//! recovery from a growing log is timed directly and apart from the
//! ticks.
//!
//! A run is a sequence of rounds. Each round builds a fresh world,
//! starts it and runs [`WARMUP_TICKS`] untimed ticks (the start-up
//! transient: the first tick costs several times a steady one, and the
//! control frames per granted tag only settle after ~500 ms of virtual
//! time), then [`WINDOWS`] timed samples of [`WINDOW_TICKS`] ticks.
//! Rounds have a fixed horizon, so the logs recovery replays are the
//! same length however fast the coordinator is.

use crate::calibrate;
use crate::trace::Tracer;
use dear_core::{ProgramBuilder, Runtime};
use dear_federation::{
    CoordinatedPlatform, EventLog, HierarchicalRti, LogStorage, MemStorage, ZoneId,
};
use dear_sim::{LinkConfig, NetworkHandle, NodeId, Simulation, VirtualClock};
use dear_someip::{Binding, SdRegistry};
use dear_time::{Duration, Instant};
use dear_transactors::Outbox;
use std::cell::Cell;
use std::rc::Rc;

/// Zones in the fleet.
pub const ZONES: usize = 100;
/// Chained federates per zone.
pub const MEMBERS: usize = 10;
/// Federates in the fleet.
pub const FEDERATES: usize = ZONES * MEMBERS;
/// Timer period of every federate: one tick of the fleet.
pub const PERIOD: Duration = Duration::from_millis(10);
/// Untimed start-up ticks per round.
pub const WARMUP_TICKS: u64 = 48;
/// Ticks per timed sample: the control diet's grant-ahead window, so
/// every sample holds exactly one window refresh (a tick about twice as
/// costly as the rest), one crash and one recovery.
pub const WINDOW_TICKS: u64 = 8;
/// Timed samples per round.
pub const WINDOWS: u64 = 32;
/// Durable-log snapshot cadence of the logged federates.
pub const SNAPSHOT_EVERY: u64 = 16;

/// One timer-driven federate: no data plane, just tags to be granted.
/// Timer-only, so under the diet it declares a 10 ms periodic lattice.
#[must_use]
pub fn fleet_member(name: &str) -> Runtime {
    let mut b = ProgramBuilder::new();
    let mut r = b.reactor(name, 0u64);
    let t = r.timer("tick", PERIOD, Some(PERIOD));
    r.reaction("tick")
        .triggered_by(t)
        .body(|n: &mut u64, _| *n += 1);
    r.finish();
    Runtime::new(b.build().expect("fleet member builds"))
}

/// In-memory log storage that counts the bytes appended to it.
struct CountingStorage {
    inner: MemStorage,
    bytes: Rc<Cell<u64>>,
}

impl LogStorage for CountingStorage {
    fn append(&mut self, bytes: &[u8]) {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        self.inner.append(bytes);
    }
    fn rotate(&mut self) {
        self.inner.rotate();
    }
    fn segment_count(&self) -> usize {
        self.inner.segment_count()
    }
    fn segment(&self, i: usize) -> Vec<u8> {
        self.inner.segment(i)
    }
}

/// Cumulative counts of one world, read from the layers' public stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Granted tags: TAG frames plus tags covered by grant-ahead windows.
    pub granted: u64,
    /// Control frames: reports in, grants and DNETs out.
    pub ctrl_frames: u64,
    /// Coordination batches sent plus received by the federates.
    pub batches: u64,
    /// DNET pushes.
    pub dnets: u64,
    /// Tags covered by grant-ahead windows.
    pub window_tags: u64,
    /// Grants received by the federates.
    pub grants_received: u64,
    /// Virtual time the federates spent blocked on grants (ns).
    pub grant_wait_ns: u64,
    /// Reactions executed.
    pub reactions: u64,
    /// Tags processed.
    pub tags: u64,
    /// Simulation events executed.
    pub events: u64,
    /// Frames put on the simulated network.
    pub net_frames: u64,
    /// Durable records appended.
    pub log_records: u64,
    /// Durable bytes appended.
    pub log_bytes: u64,
    /// Tags processed by the logged federates.
    pub logged_tags: u64,
    /// Zone-level LBTS fixpoints (telemetry only).
    pub fixpoints_zone: u64,
    /// Root-level LBTS fixpoints (telemetry only).
    pub fixpoints_root: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        Counts {
            granted: self.granted - o.granted,
            ctrl_frames: self.ctrl_frames - o.ctrl_frames,
            batches: self.batches - o.batches,
            dnets: self.dnets - o.dnets,
            window_tags: self.window_tags - o.window_tags,
            grants_received: self.grants_received - o.grants_received,
            grant_wait_ns: self.grant_wait_ns - o.grant_wait_ns,
            reactions: self.reactions - o.reactions,
            tags: self.tags - o.tags,
            events: self.events - o.events,
            net_frames: self.net_frames - o.net_frames,
            log_records: self.log_records - o.log_records,
            log_bytes: self.log_bytes - o.log_bytes,
            logged_tags: self.logged_tags - o.logged_tags,
            fixpoints_zone: self.fixpoints_zone - o.fixpoints_zone,
            fixpoints_root: self.fixpoints_root - o.fixpoints_root,
        }
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.granted += o.granted;
        self.ctrl_frames += o.ctrl_frames;
        self.batches += o.batches;
        self.dnets += o.dnets;
        self.window_tags += o.window_tags;
        self.grants_received += o.grants_received;
        self.grant_wait_ns += o.grant_wait_ns;
        self.reactions += o.reactions;
        self.tags += o.tags;
        self.events += o.events;
        self.net_frames += o.net_frames;
        self.log_records += o.log_records;
        self.log_bytes += o.log_bytes;
        self.logged_tags += o.logged_tags;
        self.fixpoints_zone += o.fixpoints_zone;
        self.fixpoints_root += o.fixpoints_root;
    }
}

/// One fleet: simulation, network, hierarchical RTI and its federates.
pub struct World {
    sim: Simulation,
    net: NetworkHandle,
    rti: HierarchicalRti,
    platforms: Vec<CoordinatedPlatform>,
    /// Federate indices carrying a durable log, in crash-rotation order.
    logged: Vec<usize>,
    log_bytes: Vec<Rc<Cell<u64>>>,
    ticks: u64,
}

fn fed_node(i: usize) -> NodeId {
    NodeId(u16::try_from(1 + ZONES + i).expect("node id fits"))
}

impl World {
    /// Builds the fleet. `seed` seeds the simulation and picks the
    /// logged zone (never zone 0, whose chain tail leads every other
    /// zone) and where the crash rotation starts. `telemetry` turns the
    /// program's own metrics and spans on.
    #[must_use]
    pub fn build(seed: u64, telemetry: bool) -> World {
        let mut sim = Simulation::new(seed);
        if telemetry {
            sim.enable_observability();
        }
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(50)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        // Node plan: 0 = root, 1..=ZONES = zone coordinators, then one
        // node per federate. The diet must be on before any platform is
        // built: platforms sample the mode once.
        let rti = HierarchicalRti::new(&mut sim, &net, &sd, NodeId(0));
        for z in 0..ZONES {
            rti.add_zone(
                &mut sim,
                &net,
                &sd,
                NodeId(u16::try_from(1 + z).expect("zone node")),
            );
        }
        rti.enable_control_diet();

        let logged_zone = 1 + usize::try_from(seed % (ZONES as u64 - 1)).expect("zone");
        let rotation = usize::try_from((seed / ZONES as u64) % MEMBERS as u64).expect("member");
        let logged: Vec<usize> = (0..MEMBERS)
            .map(|k| logged_zone * MEMBERS + (rotation + k) % MEMBERS)
            .collect();

        let mut platforms = Vec::with_capacity(FEDERATES);
        let mut log_bytes = Vec::new();
        for i in 0..FEDERATES {
            let name = format!("fed{i}");
            let binding = Binding::new(
                &net,
                &sd,
                fed_node(i),
                0x1000 + u16::try_from(i).expect("service id"),
            );
            let rng = sim.fork_rng(&name);
            let p = CoordinatedPlatform::new_in_zone(
                &name,
                fleet_member(&name),
                VirtualClock::ideal(),
                Outbox::new(),
                rng,
                &rti,
                ZoneId(u16::try_from(i / MEMBERS).expect("zone id")),
                &binding,
                false,
            )
            .expect("federate registers");
            if i / MEMBERS == logged_zone {
                let bytes = Rc::new(Cell::new(0));
                p.attach_durable(EventLog::with_storage(Box::new(CountingStorage {
                    inner: MemStorage::new(),
                    bytes: bytes.clone(),
                })));
                p.set_snapshot_every(SNAPSHOT_EVERY);
                log_bytes.push(bytes);
            }
            platforms.push(p);
        }

        let edge = Duration::from_millis(1);
        for z in 0..ZONES {
            let base = z * MEMBERS;
            for m in 0..MEMBERS - 1 {
                let (u, d) = (&platforms[base + m], &platforms[base + m + 1]);
                rti.connect(u.federate_id(), d.federate_id(), edge);
            }
            if z > 0 {
                // Zone 0's chain tail leads every other zone's chain head.
                let (u, d) = (&platforms[MEMBERS - 1], &platforms[base]);
                rti.connect(u.federate_id(), d.federate_id(), edge);
            }
        }

        World {
            sim,
            net,
            rti,
            platforms,
            logged,
            log_bytes,
            ticks: 0,
        }
    }

    /// Starts every federate.
    pub fn start(&mut self) {
        for p in &self.platforms {
            p.start(&mut self.sim);
        }
    }

    /// Advances the fleet by one period: runs the simulation to the
    /// middle of the next period, by which every federate has processed
    /// the tag at its start.
    pub fn tick(&mut self) {
        self.ticks += 1;
        let ticks = i64::try_from(self.ticks).expect("tick count");
        self.sim
            .run_until(Instant::EPOCH + PERIOD * ticks + PERIOD / 2);
    }

    /// The `k`-th federate of the crash rotation.
    #[must_use]
    pub fn victim(&self, k: u64) -> usize {
        self.logged[usize::try_from(k % self.logged.len() as u64).expect("index")]
    }

    /// Kills federate `fed`: its node stops sending and the platform
    /// abandons its volatile state.
    pub fn crash(&mut self, fed: usize) {
        self.net.set_node_up(&mut self.sim, fed_node(fed), false);
        self.platforms[fed].crash(&self.sim);
    }

    /// The durable log of federate `fed`.
    #[must_use]
    pub fn log(&self, fed: usize) -> EventLog {
        self.platforms[fed]
            .durable_log()
            .expect("victims carry a durable log")
    }

    /// Brings federate `fed`'s node back and returns the platform and a
    /// freshly built runtime for it, ready for the timed
    /// [`CoordinatedPlatform::recover`] call.
    pub fn prepare_recover(&mut self, fed: usize) -> (CoordinatedPlatform, Runtime) {
        self.net.set_node_up(&mut self.sim, fed_node(fed), true);
        let p = self.platforms[fed].clone();
        let fresh = fleet_member(&p.name());
        (p, fresh)
    }

    /// The simulation, for the recover call.
    pub fn sim(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Cumulative counts across every layer.
    #[must_use]
    pub fn counts(&self) -> Counts {
        let stats = self.rti.stats();
        let mut c = Counts {
            granted: stats.tags_issued + stats.window_tags,
            ctrl_frames: stats.nets_received
                + stats.ltcs_received
                + stats.tags_issued
                + stats.ptags_issued
                + stats.dnets_sent,
            dnets: stats.dnets_sent,
            window_tags: stats.window_tags,
            events: self.sim.stats().executed_events,
            net_frames: self.net.stats().sent,
            log_bytes: self.log_bytes.iter().map(|b| b.get()).sum(),
            ..Counts::default()
        };
        for p in &self.platforms {
            let cs = p.coordination_stats();
            c.batches += cs.coord_batches_sent() + cs.coord_batches_received();
            c.grants_received += cs.grants_received();
            c.grant_wait_ns += cs.grant_wait().as_nanos().unsigned_abs();
            let rt = p.stats();
            c.reactions += rt.executed_reactions;
            c.tags += rt.processed_tags;
        }
        for &f in &self.logged {
            let p = &self.platforms[f];
            c.log_records += p.durable_log().map_or(0, |l| l.stats().appended);
            c.logged_tags += p.stats().processed_tags;
        }
        let observe = self.sim.observe();
        c.fixpoints_zone = observe.counter_value("coord/fixpoint/zone").unwrap_or(0);
        c.fixpoints_root = observe.counter_value("coord/fixpoint/root").unwrap_or(0);
        c
    }

    /// Checks the round's outcome: every federate processed exactly one
    /// tag per tick, crashes included, and none ran past its grant.
    /// Returns one message per failed federate.
    #[must_use]
    pub fn verify(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for p in &self.platforms {
            let processed = p.stats().processed_tags;
            let breaches = p.coordination_stats().bound_breaches();
            if processed != self.ticks || breaches != 0 || p.is_crashed() {
                failures.push(format!(
                    "{}: processed {processed} tags in {} ticks, {breaches} bound breaches{}",
                    p.name(),
                    self.ticks,
                    if p.is_crashed() { ", still down" } else { "" },
                ));
            }
        }
        failures
    }
}

/// What one phase of fleet rounds measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each steady-state tick (ms).
    pub tick_ms: Vec<f64>,
    /// Wall time of each timed sample of [`WINDOW_TICKS`] ticks — the
    /// sum of its ticks, crash and recovery calls excluded — calibrated
    /// to the nominal machine speed (ms).
    pub window_cal_ms: Vec<f64>,
    /// The reference's wall time before each window and set-up (ms).
    pub reference_ms: Vec<f64>,
    /// Wall time of each `recover()` call (ms).
    pub recover_ms: Vec<f64>,
    /// Wall time of each `EventLog::replay()` on a victim's log, per
    /// record (ns); traced phases only.
    pub replay_ns_per_record: Vec<f64>,
    /// Wall time of each round's set-up: build, start, warm-up (s).
    pub setup_s: Vec<f64>,
    /// The same, calibrated (s).
    pub setup_cal_s: Vec<f64>,
    /// Counts over the steady-state ticks of every round.
    pub counts: Counts,
    /// Allocations during the steady-state ticks.
    pub allocs: u64,
    /// Checked operations: one per federate per round, one per recovery.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// Failure messages (the first few).
    pub failures: Vec<String>,
    /// Rounds run.
    pub rounds: u64,
}

/// Seed of round `round` of a run seeded `seed`.
#[must_use]
pub fn round_seed(seed: u64, round: u64) -> u64 {
    crate::mix(seed ^ crate::mix(round.wrapping_add(0x5eed)))
}

/// Runs `rounds` rounds, numbered from `first_round`, timing the
/// calibration reference before each round's set-up and each window.
/// With an enabled tracer the program's telemetry is on, spans are
/// recorded, and each victim's log is replayed once (timed) before its
/// recovery.
pub fn run_phase(seed: u64, first_round: u64, rounds: u64, tracer: &mut Tracer) -> Phase {
    let traced = tracer.enabled();
    let mut phase = Phase::default();
    for round in first_round..first_round + rounds {
        tracer.open("round");
        let reference = tracer.span("reference", calibrate::reference_ms);
        phase.reference_ms.push(reference);
        let setup = std::time::Instant::now();
        let mut world = tracer.span("world", || World::build(round_seed(seed, round), traced));
        tracer.span("start", || world.start());
        for _ in 0..WARMUP_TICKS {
            tracer.span("tick", || world.tick());
        }
        let wall = setup.elapsed().as_secs_f64();
        phase.setup_s.push(wall);
        phase
            .setup_cal_s
            .push(calibrate::calibrated(wall, reference));

        let before = world.counts();
        let mut crashes = 0u64;
        let mut down: Option<usize> = None;
        let (mut reference, mut window_ms) = (0.0, 0.0);
        for k in 1..=WINDOWS * WINDOW_TICKS {
            if k % WINDOW_TICKS == 1 {
                reference = tracer.span("reference", calibrate::reference_ms);
                phase.reference_ms.push(reference);
            }
            let allocs = crate::alloc::allocations();
            let t = std::time::Instant::now();
            tracer.span("tick", || world.tick());
            let tick_ms = t.elapsed().as_secs_f64() * 1e3;
            phase.allocs += crate::alloc::allocations() - allocs;
            phase.tick_ms.push(tick_ms);
            window_ms += tick_ms;
            if k % WINDOW_TICKS == 0 {
                phase
                    .window_cal_ms
                    .push(calibrate::calibrated(window_ms, reference));
                window_ms = 0.0;
            }

            if let Some(fed) = down.take() {
                if traced {
                    let log = world.log(fed);
                    let t = std::time::Instant::now();
                    let records = tracer.span("replay", || log.replay());
                    let ns = t.elapsed().as_secs_f64() * 1e9;
                    phase
                        .replay_ns_per_record
                        .push(ns / records.len().max(1) as f64);
                }
                let (platform, fresh) = world.prepare_recover(fed);
                let sim = world.sim();
                let t = std::time::Instant::now();
                let report = tracer.span("recover", || platform.recover(sim, fresh));
                phase.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
                phase.attempted += 1;
                if report.replay_mismatches != 0 || report.replayed_tags == 0 {
                    phase.failed += 1;
                    phase.failures.push(format!(
                        "recovery of fed{fed}: {} replay mismatches, {} replayed tags",
                        report.replay_mismatches, report.replayed_tags
                    ));
                }
            } else if k % WINDOW_TICKS == 0 && k < WINDOWS * WINDOW_TICKS {
                let fed = world.victim(crashes);
                crashes += 1;
                tracer.span("crash", || world.crash(fed));
                down = Some(fed);
            }
        }
        phase.counts += world.counts() - before;

        let failures = tracer.span("verify", || world.verify());
        phase.attempted += FEDERATES as u64;
        phase.failed += failures.len() as u64;
        phase.failures.extend(failures);
        tracer.span("teardown", || drop(world));
        tracer.close();
        phase.rounds += 1;
    }
    phase.failures.truncate(8);
    phase
}
