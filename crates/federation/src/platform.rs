//! The coordinated platform driver: the decentralized driver's
//! scheduling core plus RTI-granted tag advances.
//!
//! A [`CoordinatedPlatform`] embeds the same [`PlatformCore`] as
//! `FederatedPlatform` — one wake policy, one step-and-charge, one route
//! dispatch — and adds only the grant gate. It processes a tag when
//! **both** hold:
//!
//! 1. the platform's local physical clock has passed the tag (the core's
//!    rule, shared with the decentralized driver — this keeps deadline
//!    behaviour and therefore event traces bit-identical), and
//! 2. the tag lies strictly below the bound granted by the [`Rti`]
//!    (inclusively below for a provisional PTAG).
//!
//! After every processed tag the platform reports LTC, and whenever its
//! queue head or physical fence changes it reports NET; grants arrive as
//! coordination-service notifications and widen the runtime's tag bound.
//! All coordination counters land in the shared
//! [`TransactorStats`], so centralized and decentralized runs report
//! comparable numbers.

use crate::coordinator::{
    for_each_record, zone_instance, FederateId, FederationError, HierarchicalRti, Rti, ZoneId,
    ZONE_MEMBER_EVENTGROUP,
};
use crate::solver::{tag_succ, TAG_MAX};
use dear_core::{PhysicalAction, ReactionId, Runtime, RuntimeStats, StepOutcome, Tag};
use dear_durable::{EventLog, Record};
use dear_observe::{Lane, Observe};
use dear_sim::{LatencyModel, SimRng, Simulation, VirtualClock};
use dear_someip::{
    coord_eventgroup, Binding, CoordBatch, CoordKind, CoordMsg, ServiceInstance, WireTag,
    COORD_EVENT, COORD_INSTANCE, COORD_METHOD, COORD_SERVICE, DNET_SINK, TAG_NEVER,
};
use dear_time::Instant;
use dear_transactors::{
    tag_to_wire, wire_to_tag, OutboundMsg, Outbox, PlatformCore, PlatformDriver, TransactorStats,
    Wake,
};
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

type EncodeFn = Rc<dyn Fn(&dyn Any) -> Option<Vec<u8>>>;
type ReplayFn = Rc<dyn Fn(&mut Runtime, Tag, &[u8]) -> bool>;

/// Per-action serialization pair for durable input logging: `encode`
/// turns a live payload into log bytes at injection time, `replay`
/// rebuilds and re-schedules it from those bytes during recovery.
struct InputCodec {
    encode: EncodeFn,
    replay: ReplayFn,
}

/// How many processed tags elapse between durable-log checkpoints by
/// default. Each checkpoint rotates the log segment, so this bounds both
/// replay length and segment size.
const DEFAULT_SNAPSHOT_EVERY: u64 = 32;

/// The outcome of one [`CoordinatedPlatform::recover`] call: where the
/// incarnation died, what replay rebuilt, and what went back on the wire.
#[derive(Clone, Debug)]
pub struct PlatformRecovery {
    /// True time at which [`CoordinatedPlatform::crash`] took the
    /// federate down.
    pub crashed_at: Instant,
    /// True time at which the `Rejoin` frame went out and the platform
    /// resumed live operation.
    pub rejoined_at: Instant,
    /// Logged tags re-processed from the log.
    pub replayed_tags: u64,
    /// Logged physical-action payloads re-scheduled from the log.
    pub replayed_inputs: u64,
    /// Outbound messages swallowed during replay because the previous
    /// incarnation had already drained them to the wire.
    pub suppressed_sends: u64,
    /// Outbound messages the previous incarnation produced but never
    /// drained, re-sent after replay completed.
    pub resent_sends: u64,
    /// Greatest tag the replay re-processed (`None`: crashed before
    /// completing any tag).
    pub last_processed: Option<Tag>,
    /// Granted bound restored from the log's high-water mark.
    pub restored_bound: Option<Tag>,
    /// The new incarnation number carried by the `Rejoin` frame.
    pub incarnation: u32,
    /// Replay steps whose outcome disagreed with the log (0 on any
    /// healthy recovery — nonzero means the log and program diverged).
    pub replay_mismatches: u64,
}

impl fmt::Display for PlatformRecovery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rejoin #{}: replayed {} tags / {} inputs, suppressed {} resent {} sends, outage {}ns",
            self.incarnation,
            self.replayed_tags,
            self.replayed_inputs,
            self.suppressed_sends,
            self.resent_sends,
            (self.rejoined_at - self.crashed_at).as_nanos(),
        )
    }
}

struct PlatformInner {
    core: PlatformCore,
    resigned: bool,
    federate: FederateId,
    binding: Binding,
    /// SOME/IP instance of the coordinator this platform reports to:
    /// `COORD_INSTANCE` under a flat RTI, the zone's instance under a
    /// hierarchical one.
    coord_instance: u16,
    /// Whether to speak the batched protocol (hierarchical zones): LTC +
    /// NET packed into one frame per step, grants arriving as batches on
    /// the shared member eventgroup.
    batched: bool,
    stats: TransactorStats,
    /// Telemetry handle, captured from the simulation at `start` (a
    /// disabled handle until then — every record call is one branch).
    observe: Observe,
    /// Last (head, fence) pair reported to the RTI, to suppress repeats.
    last_net: Option<(WireTag, WireTag)>,
    /// True time of the most recent NET actually sent, for the NET→TAG
    /// round-trip histogram (taken by the first grant that answers it).
    last_net_sent_at: Option<Instant>,
    /// True time at which the current grant wait began, if blocked.
    blocked_since: Option<Instant>,
    /// Greatest tag processed so far (for the never-beyond-bound check).
    max_processed: Option<Tag>,
    /// Whether the federate was registered with physical inputs from
    /// outside the federation. External federates always report fence
    /// advances; only pure federates are eligible for same-head NET
    /// dedup (their fence is never consulted by the solver).
    external: bool,
    /// The program's periodic event lattice, declared to the coordinator
    /// at start. `Some` only when the coordinator's control diet was on
    /// at build time and the program is statically periodic (timers
    /// only — see [`dear_core::Program::periodic_lattice`]).
    lattice: Option<dear_time::Duration>,
    /// The DNET suppression flag word most recently pushed by the
    /// coordinator (zero until the first push): which of this federate's
    /// reports provably cannot move any downstream LBTS.
    dnet_flags: u32,
    /// Durable event log, when crash recovery is enabled. Every granted
    /// bound, processed tag, injected input and drained outbox batch is
    /// appended so a fresh incarnation can replay to the exact crash
    /// point.
    log: Option<EventLog>,
    /// Input codecs keyed by physical-action id, for durable input
    /// logging and replay.
    codecs: BTreeMap<u32, InputCodec>,
    /// Processed tags between durable checkpoints.
    snapshot_every: u64,
    /// Processed tags since the last checkpoint.
    processed_since_snapshot: u64,
    /// Whether the federate is currently down ([`CoordinatedPlatform::crash`]).
    crashed: bool,
    /// True time of the crash, reported by the next recovery.
    crashed_at: Option<Instant>,
    /// Incarnation number: 0 for the original process, bumped by every
    /// recovery and carried in the `Rejoin` frame's fence microstep so
    /// the coordinator can drop stale-incarnation control echoes.
    incarnation: u32,
    /// Bumped on every crash. Scheduled outbox drains capture the epoch
    /// at scheduling time and no-op on mismatch — the core's wake-up
    /// generation cannot guard them because every re-arm bumps it.
    epoch: u64,
    /// Report of the most recent recovery, if any.
    last_recovery: Option<PlatformRecovery>,
}

impl PlatformInner {
    /// The NET report (queue head + physical fence) due at true time
    /// `now`, recorded as sent; `None` while the platform is not live or
    /// when the report repeats the last one or is suppressed. A
    /// `heartbeat` is sent unconditionally: liveness needs traffic.
    fn net_report(&mut self, now: Instant, heartbeat: bool) -> Option<CoordMsg> {
        if !self.core.started() || self.resigned || self.crashed {
            return None;
        }
        let head = self.core.runtime.next_tag().map_or(TAG_NEVER, tag_to_wire);
        let fence = tag_to_wire(Tag::at(self.core.local_time(now)));
        if !heartbeat && (self.last_net == Some((head, fence)) || self.suppress_net(head)) {
            return None;
        }
        self.last_net = Some((head, fence));
        self.last_net_sent_at = Some(now);
        self.stats.record_net_sent();
        self.observe.count("coord/sent/net", 1);
        Some(CoordMsg::net(self.federate.0, head, fence))
    }

    /// Whether the NET report with queue head `head` may be skipped,
    /// counting it when so. Two rules, both fixpoint-neutral: a
    /// DNET-flagged sink constrains nobody downstream, and a pure
    /// federate whose head is unchanged since its last report adds no
    /// information (its fence is never consulted by the solver). The
    /// heartbeat path bypasses this on purpose — liveness needs traffic.
    fn suppress_net(&mut self, head: WireTag) -> bool {
        let sink = self.dnet_flags & DNET_SINK != 0;
        let same_head = !self.external && self.last_net.is_some_and(|(h, _)| h == head);
        if sink || same_head {
            self.stats.record_net_suppressed();
            self.observe.count("coord/nets_suppressed", 1);
            true
        } else {
            false
        }
    }

    /// The durable log and the log bytes of an input for physical action
    /// `key`, when a log is attached and the action has a codec. Encoded
    /// before scheduling: the payload then moves into the queue.
    fn encode_input(&self, key: u32, value: &dyn Any) -> Option<(EventLog, Vec<u8>)> {
        let log = self.log.clone()?;
        let bytes = (self.codecs.get(&key)?.encode)(value)?;
        Some((log, bytes))
    }
}

/// The exclusive tag bound a TAG or PTAG record grants (`None` for other
/// kinds): a TAG whose fence lies beyond its tag opens a grant-ahead
/// window to that horizon, and a provisional PTAG lets its own tag
/// through.
fn grant_bound(msg: &CoordMsg) -> Option<Tag> {
    match msg.kind {
        CoordKind::Tag => Some(wire_to_tag(msg.tag).max(wire_to_tag(msg.fence))),
        CoordKind::Ptag => Some(tag_succ(wire_to_tag(msg.tag))),
        _ => None,
    }
}

/// A platform participating in a centrally coordinated federation.
///
/// Cheap to clone; clones share the platform.
#[derive(Clone)]
pub struct CoordinatedPlatform(Rc<RefCell<PlatformInner>>);

impl fmt::Debug for CoordinatedPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.0.borrow();
        f.debug_struct("CoordinatedPlatform")
            .field("name", &inner.core.name())
            .field("federate", &inner.federate)
            .field("started", &inner.core.started())
            .field("granted", &inner.core.runtime.tag_bound())
            .finish()
    }
}

impl CoordinatedPlatform {
    /// Creates a platform around a built runtime and registers it with
    /// the RTI as a federate hosted on `binding`'s node.
    ///
    /// `external` declares physical inputs from outside the federation
    /// (see [`Rti::register`]). The binding is also used to exchange
    /// coordination messages with the RTI, alongside its data traffic.
    ///
    /// # Panics
    ///
    /// Panics if the RTI's federate table is full; use
    /// [`CoordinatedPlatform::try_new`] to handle that as an error.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        rti: &Rti,
        binding: &Binding,
        external: bool,
    ) -> Self {
        Self::try_new(
            name, runtime, clock, outbox, cost_rng, rti, binding, external,
        )
        .expect("federate registration failed")
    }

    /// Fallible [`CoordinatedPlatform::new`]: registration reports
    /// coordinator capacity exhaustion instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates [`Rti::register`] errors.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        rti: &Rti,
        binding: &Binding,
        external: bool,
    ) -> Result<Self, FederationError> {
        let federate = rti.register(name, external)?;
        Ok(Self::build(
            name,
            runtime,
            clock,
            outbox,
            cost_rng,
            federate,
            binding,
            COORD_INSTANCE,
            coord_eventgroup(federate.0),
            false,
            external,
            rti.control_diet_enabled(),
        ))
    }

    /// Creates a platform registered with zone `zone` of a hierarchical
    /// federation. The platform reports NET/LTC to its zone coordinator
    /// — batched, one control frame per step — and receives grants from
    /// the zone's shared member eventgroup, filtering the batch by its
    /// own (global) federate id.
    ///
    /// # Errors
    ///
    /// Propagates [`HierarchicalRti::register`] errors (unknown zone,
    /// capacity exhausted).
    #[allow(clippy::too_many_arguments)]
    pub fn new_in_zone(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        hierarchy: &HierarchicalRti,
        zone: ZoneId,
        binding: &Binding,
        external: bool,
    ) -> Result<Self, FederationError> {
        let federate = hierarchy.register(zone, name, external)?;
        Ok(Self::build(
            name,
            runtime,
            clock,
            outbox,
            cost_rng,
            federate,
            binding,
            zone_instance(zone),
            ZONE_MEMBER_EVENTGROUP,
            true,
            external,
            hierarchy.control_diet_enabled(),
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
        federate: FederateId,
        binding: &Binding,
        coord_instance: u16,
        grant_eventgroup: u16,
        batched: bool,
        external: bool,
        diet: bool,
    ) -> Self {
        // The periodic lattice is declared only under the control diet:
        // without it the platform sends no `Period` record and the
        // coordinator's calendar — and every trace — stays unchanged.
        let lattice = if diet {
            runtime.program().periodic_lattice()
        } else {
            None
        };
        let platform = CoordinatedPlatform(Rc::new(RefCell::new(PlatformInner {
            core: PlatformCore::new(name, runtime, clock, outbox, cost_rng),
            resigned: false,
            federate,
            binding: binding.clone(),
            coord_instance,
            batched,
            stats: TransactorStats::new(),
            observe: Observe::disabled(),
            last_net: None,
            last_net_sent_at: None,
            blocked_since: None,
            max_processed: None,
            external,
            lattice,
            dnet_flags: 0,
            log: None,
            codecs: BTreeMap::new(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            processed_since_snapshot: 0,
            crashed: false,
            crashed_at: None,
            incarnation: 0,
            epoch: 0,
            last_recovery: None,
        })));
        binding.subscribe(
            ServiceInstance::new(COORD_SERVICE, coord_instance),
            grant_eventgroup,
        );
        let hook = platform.clone();
        binding.on_event(COORD_SERVICE, COORD_EVENT, move |sim, msg| {
            hook.on_grant_frame(sim, &msg.payload);
        });
        platform
    }

    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> String {
        self.driver_name()
    }

    /// The federate id assigned by the RTI (for topology declarations).
    #[must_use]
    pub fn federate_id(&self) -> FederateId {
        self.0.borrow().federate
    }

    /// The coordination counters (shared handle).
    #[must_use]
    pub fn coordination_stats(&self) -> TransactorStats {
        self.0.borrow().stats.clone()
    }

    /// The greatest tag processed so far.
    #[must_use]
    pub fn max_processed_tag(&self) -> Option<Tag> {
        self.0.borrow().max_processed
    }

    /// The currently granted exclusive tag bound.
    #[must_use]
    pub fn granted_bound(&self) -> Option<Tag> {
        self.0.borrow().core.runtime.tag_bound()
    }

    /// Attaches a modelled compute cost to a reaction.
    pub fn set_reaction_cost(&self, reaction: ReactionId, model: LatencyModel) {
        PlatformDriver::set_reaction_cost(self, reaction, model);
    }

    /// Runs a closure with mutable access to the runtime.
    pub fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        PlatformDriver::with_runtime(self, f)
    }

    /// Runtime statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.runtime_stats()
    }

    /// Attaches a durable event log. From `start` on, every granted
    /// bound, processed tag, registered input and outbox drain is
    /// appended, enabling [`CoordinatedPlatform::crash`] /
    /// [`CoordinatedPlatform::recover`].
    ///
    /// # Panics
    ///
    /// Panics if the platform already started — the log must see the
    /// `Started` anchor record first.
    pub fn attach_durable(&self, log: EventLog) {
        let mut inner = self.0.borrow_mut();
        assert!(!inner.core.started(), "attach the durable log before start");
        inner.log = Some(log);
    }

    /// The attached durable log, if any.
    #[must_use]
    pub fn durable_log(&self) -> Option<EventLog> {
        self.0.borrow().log.clone()
    }

    /// Sets how many processed tags elapse between durable checkpoints
    /// (default 32).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn set_snapshot_every(&self, every: u64) {
        assert!(every > 0, "snapshot interval must be positive");
        self.0.borrow_mut().snapshot_every = every;
    }

    /// Registers a serialization codec for a physical action, so
    /// payloads injected through [`PlatformDriver::inject_at`] /
    /// [`PlatformDriver::inject_now`] are durably logged and can be
    /// rebuilt during recovery replay.
    pub fn register_durable_input<T: Send + Sync + 'static>(
        &self,
        action: PhysicalAction<T>,
        encode: impl Fn(&T) -> Vec<u8> + 'static,
        decode: impl Fn(&[u8]) -> Option<T> + 'static,
    ) {
        let key = action.id().index() as u32;
        let encode: EncodeFn = Rc::new(move |value| value.downcast_ref::<T>().map(&encode));
        let replay: ReplayFn = Rc::new(move |runtime, tag, bytes| {
            decode(bytes)
                .map(|value| runtime.schedule_physical_at(&action, value, tag).is_ok())
                .unwrap_or(false)
        });
        self.0
            .borrow_mut()
            .codecs
            .insert(key, InputCodec { encode, replay });
    }

    /// Whether the federate is currently down.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.0.borrow().crashed
    }

    /// Report of the most recent recovery, if any.
    #[must_use]
    pub fn last_recovery(&self) -> Option<PlatformRecovery> {
        self.0.borrow().last_recovery.clone()
    }

    /// Kills the federate process: all armed wake-ups and scheduled
    /// outbox drains are stranded, undrained outputs are lost, and the
    /// control plane goes silent (the liveness watchdog will eventually
    /// declare the federate dead). Frames addressed to the federate keep
    /// landing in its durable log — the durable-inbox property recovery
    /// replay depends on. Idempotent while down.
    ///
    /// # Panics
    ///
    /// Panics if the platform has not started.
    pub fn crash(&self, sim: &Simulation) {
        let mut inner = self.0.borrow_mut();
        assert!(inner.core.started(), "crash before start");
        if inner.crashed {
            return;
        }
        inner.crashed = true;
        inner.crashed_at = Some(sim.now());
        // Strand every armed wake-up. In-flight outputs die with the
        // process; replay decides which of them the wire actually saw.
        inner.core.strand();
        inner.epoch += 1; // strand every scheduled outbox drain
        inner.blocked_since = None;
        inner.last_net = None;
        inner.last_net_sent_at = None;
        inner.observe.count("recovery/crashes", 1);
    }

    /// Restarts a crashed federate from its durable log: replays every
    /// logged input and processed tag into `fresh` (a newly built
    /// runtime for the *same* program), suppressing outbound messages
    /// the previous incarnation already drained, re-sending the ones it
    /// did not, restoring the granted bound, and announcing the new
    /// incarnation to the coordinator with a `Rejoin` frame.
    ///
    /// Replay steps run at the clock readings the log recorded, so
    /// deadline misses — and anything a reaction read off the physical
    /// clock — come out exactly as the first incarnation saw them.
    ///
    /// # Panics
    ///
    /// Panics if the platform is not crashed or has no attached log.
    pub fn recover(&self, sim: &mut Simulation, fresh: Runtime) -> PlatformRecovery {
        let (mut report, resend, rejoin) = {
            let mut inner = self.0.borrow_mut();
            assert!(inner.crashed, "recover on a live platform");
            let log = inner
                .log
                .clone()
                .expect("recover requires an attached durable log");
            let records = log.replay();
            // Outbound watermark: everything at or below this tag was on
            // the wire before the crash and must not be sent twice.
            let watermark = records
                .iter()
                .filter_map(|r| match r {
                    Record::Drained { tag } => Some(*tag),
                    _ => None,
                })
                .max();
            inner.core.restart(fresh);
            let lane = Lane::Federate(inner.federate.0);
            let observe = inner.observe.clone();
            inner.core.runtime.set_observe(observe, lane);
            inner.incarnation += 1;
            inner.dnet_flags = 0;
            inner.last_net = None;
            inner.last_net_sent_at = None;
            inner.blocked_since = None;
            inner.max_processed = None;
            inner.processed_since_snapshot = 0;
            let crashed_at = inner.crashed_at.take().unwrap_or_else(|| sim.now());
            let mut report = PlatformRecovery {
                crashed_at,
                rejoined_at: sim.now(),
                replayed_tags: 0,
                replayed_inputs: 0,
                suppressed_sends: 0,
                resent_sends: 0,
                last_processed: None,
                restored_bound: None,
                incarnation: inner.incarnation,
                replay_mismatches: 0,
            };
            let mut resend: Vec<OutboundMsg> = Vec::new();
            let mut max_granted: Option<Tag> = None;
            let inner = &mut *inner;
            for record in &records {
                match record {
                    Record::Started { anchor } => {
                        inner.core.runtime.start(Instant::from_nanos(*anchor));
                    }
                    Record::Input { key, tag, bytes } => {
                        let ok = inner
                            .codecs
                            .get(key)
                            .is_some_and(|c| (c.replay)(&mut inner.core.runtime, *tag, bytes));
                        if ok {
                            report.replayed_inputs += 1;
                        } else {
                            report.replay_mismatches += 1;
                        }
                    }
                    Record::Granted { bound } => {
                        max_granted = Some(max_granted.map_or(*bound, |m| m.max(*bound)));
                    }
                    Record::Processed { tag, local } => {
                        inner.core.runtime.set_tag_bound(tag_succ(*tag));
                        match inner.core.runtime.step(Instant::from_nanos(*local)) {
                            StepOutcome::Processed(summary) if summary.tag == *tag => {
                                report.replayed_tags += 1;
                                inner.max_processed = Some(
                                    inner
                                        .max_processed
                                        .map_or(summary.tag, |m| m.max(summary.tag)),
                                );
                            }
                            _ => report.replay_mismatches += 1,
                        }
                        // Outbound effects of the replayed step: swallow
                        // what the wire already saw, hold the rest for a
                        // post-replay re-send.
                        for msg in inner.core.take_outputs() {
                            if watermark.is_some_and(|w| wire_to_tag(msg.tag) <= w) {
                                inner.stats.record_replay_suppressed();
                                report.suppressed_sends += 1;
                            } else {
                                resend.push(msg);
                            }
                        }
                    }
                    Record::Drained { .. } | Record::Snapshot { .. } => {}
                }
            }
            if let Some(bound) = max_granted {
                inner.core.runtime.set_tag_bound(bound);
                report.restored_bound = Some(bound);
            }
            report.last_processed = inner.max_processed;
            report.resent_sends = resend.len() as u64;
            inner.crashed = false;
            // The Rejoin frame: tag = last replayed tag (TAG_NEVER when
            // the federate died before completing any), fence microstep
            // = the new incarnation, which must strictly exceed the one
            // the coordinator last saw.
            let rejoin = CoordMsg {
                kind: CoordKind::Rejoin,
                federate: inner.federate.0,
                tag: inner.max_processed.map_or(TAG_NEVER, tag_to_wire),
                fence: WireTag::new(0, inner.incarnation),
            };
            inner.observe.count("recovery/rejoins", 1);
            inner
                .observe
                .record_value("recovery/replayed_tags", report.replayed_tags);
            inner
                .observe
                .record_value("recovery/replayed_inputs", report.replayed_inputs);
            inner
                .observe
                .record_value("recovery/suppressed_sends", report.suppressed_sends);
            inner
                .observe
                .record_duration("recovery/outage_ns", sim.now() - crashed_at);
            inner.observe.span(lane, "rejoin", crashed_at, sim.now());
            (report, resend, rejoin)
        };
        // Outputs the previous incarnation produced but never drained go
        // on the wire now — exactly once, after the suppression pass.
        self.dispatch(sim, resend);
        self.send_to_rti(sim, rejoin);
        self.report_status(sim);
        self.arm(sim);
        report.rejoined_at = sim.now();
        self.0.borrow_mut().last_recovery = Some(report.clone());
        report
    }

    /// Starts the runtime, announces the federate to the RTI and arms the
    /// first wake-up.
    pub fn start(&self, sim: &mut Simulation) {
        PlatformDriver::start(self, sim);
    }

    /// Starts a periodic control-plane heartbeat: every `interval` the
    /// platform re-reports its NET (queue head + fence) to the RTI
    /// *unconditionally*, bypassing the change-suppression of the normal
    /// reporting path.
    ///
    /// This is what the RTI's liveness watchdog
    /// ([`Rti::enable_liveness`]) listens for: a federate blocked on a
    /// grant is silent on the normal path — it has nothing new to report
    /// — and without a heartbeat it would be indistinguishable from a
    /// dead one. The heartbeat keeps ticking until the federate resigns,
    /// so drive such simulations with `run_until`, not
    /// `run_to_completion`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn enable_heartbeat(&self, sim: &mut Simulation, interval: dear_time::Duration) {
        assert!(
            interval > dear_time::Duration::ZERO,
            "interval must be positive"
        );
        let platform = self.clone();
        sim.schedule_in(interval, move |sim| platform.heartbeat_tick(sim, interval));
    }

    fn heartbeat_tick(&self, sim: &mut Simulation, interval: dear_time::Duration) {
        let msg = {
            let mut inner = self.0.borrow_mut();
            if inner.resigned {
                return; // resignation ends the heartbeat
            }
            // A crashed process sends nothing — its silence is what the
            // liveness watchdog detects — but the tick keeps rescheduling
            // so the heartbeat resumes the moment recovery completes.
            inner.net_report(sim.now(), true)
        };
        if let Some(msg) = msg {
            self.send_to_rti(sim, msg);
        }
        let platform = self.clone();
        sim.schedule_in(interval, move |sim| platform.heartbeat_tick(sim, interval));
    }

    /// Requests runtime shutdown at the given local time.
    pub fn stop_at_local(&self, sim: &mut Simulation, local: Instant) {
        let _ = self.0.borrow_mut().core.runtime.stop_at(local);
        self.report_status(sim);
        self.arm(sim);
    }

    fn send_to_rti(&self, sim: &mut Simulation, msg: CoordMsg) {
        let (binding, instance) = {
            let inner = self.0.borrow();
            (inner.binding.clone(), inner.coord_instance)
        };
        // Control messages ride recycled pool frames like all data-plane
        // traffic: encode once into a headroom buffer, wire-assemble in
        // place, zero steady-state allocations.
        let payload = msg.encode_into(&binding.pool());
        binding
            .call_no_return(sim, COORD_SERVICE, instance, COORD_METHOD, payload)
            .expect("coordination service not offered — construct the coordinator first");
    }

    /// Batched-protocol step report: the LTC plus (when it changed) the
    /// NET packed into a single control frame, so the zone recomputes
    /// once instead of twice and the wire carries one header.
    fn send_step_batch(&self, sim: &mut Simulation, ltc: CoordMsg) {
        let (binding, instance, net) = {
            let mut inner = self.0.borrow_mut();
            let net = inner.net_report(sim.now(), false);
            inner.stats.record_coord_batch_sent();
            (inner.binding.clone(), inner.coord_instance, net)
        };
        let mut batch = CoordBatch::pooled(&binding.pool());
        batch.push(&ltc);
        if let Some(net) = net {
            batch.push(&net);
        }
        self.0
            .borrow()
            .observe
            .record_value("coord/step_batch_size", batch.len() as u64);
        binding
            .call_no_return(sim, COORD_SERVICE, instance, COORD_METHOD, batch.freeze())
            .expect("coordination service not offered — construct the coordinator first");
    }

    /// Reports NET (queue head + physical fence) when it changed.
    fn report_status(&self, sim: &mut Simulation) {
        let msg = self.0.borrow_mut().net_report(sim.now(), false);
        if let Some(msg) = msg {
            self.send_to_rti(sim, msg);
        }
    }

    /// Dispatches one grant notification frame: either a flat-protocol
    /// single record or a zone batch, from which the platform applies
    /// the records addressed to its own federate id (in frame order —
    /// the same order a flat RTI would have delivered them in).
    fn on_grant_frame(&self, sim: &mut Simulation, payload: &[u8]) {
        let now = sim.now();
        let mut applied = false;
        let batch = for_each_record(payload, |msg| applied |= self.apply_grant(msg, now));
        if let Some(len) = batch {
            let inner = self.0.borrow();
            inner.stats.record_coord_batch_received();
            inner
                .observe
                .record_value("coord/grant_batch_size", len as u64);
        }
        if applied {
            self.arm(sim);
        }
    }

    /// Applies one grant record if it is addressed to this federate.
    fn apply_grant(&self, msg: &CoordMsg, now: Instant) -> bool {
        let mut inner = self.0.borrow_mut();
        if msg.federate != inner.federate.0 {
            return false;
        }
        let bound = grant_bound(msg);
        if let (Some(bound), Some(log)) = (bound, &inner.log) {
            log.append(&Record::Granted { bound });
        }
        if inner.crashed {
            // Durable inbox for the control plane: grants addressed to a
            // downed federate land in its log so recovery can restore
            // the bound, but nothing moves until then.
            return false;
        }
        let Some(bound) = bound else {
            if msg.kind == CoordKind::Dnet {
                // Suppression-state push: remember which of our reports
                // the coordinator has proven irrelevant downstream.
                inner.dnet_flags = msg.fence.microstep;
                inner
                    .observe
                    .record_value("coord/dnet_horizon_ns", msg.tag.nanos.min(i64::MAX as u64));
            }
            return false; // no bound change, nothing to re-arm
        };
        inner.core.runtime.set_tag_bound(bound);
        let tag = wire_to_tag(msg.tag);
        if msg.kind == CoordKind::Tag && bound > tag {
            // Grant-ahead window: free-run to the horizon with no
            // per-tag round-trips. The clock gate still paces every tag
            // to its physical time.
            inner.stats.record_windowed_grant();
            let len = u64::try_from((bound.time - tag.time).as_nanos()).unwrap_or(0);
            inner.observe.record_value("coord/window_len", len);
        }
        inner
            .stats
            .record_grant_received(msg.kind == CoordKind::Ptag);
        inner.observe.count("coord/grants_received", 1);
        // The NET→TAG round trip: report out, fixpoint at the coordinator,
        // grant back. The first grant answering the outstanding NET takes
        // the measurement.
        if let Some(sent) = inner.last_net_sent_at.take() {
            inner
                .observe
                .record_duration("coord/net_tag_rtt_ns", now - sent);
        }
        true
    }

    /// Schedules the next wake-up for the earliest *granted* pending tag.
    fn arm(&self, sim: &mut Simulation) {
        let (wake_at, generation) = {
            let mut inner = self.0.borrow_mut();
            if inner.crashed {
                return;
            }
            let now = sim.now();
            match inner.core.arm(now) {
                Wake::At(at, generation) => {
                    if let Some(since) = inner.blocked_since.take() {
                        inner.stats.add_grant_wait(now - since);
                        inner
                            .observe
                            .record_duration("coord/grant_wait_ns", now - since);
                        inner.observe.span(
                            Lane::Federate(inner.federate.0),
                            "grant-wait",
                            since,
                            now,
                        );
                    }
                    (at, generation)
                }
                Wake::Blocked => {
                    // Head lies beyond the granted bound: wait for the
                    // RTI. The grant handler re-arms.
                    inner.blocked_since.get_or_insert(now);
                    return;
                }
                Wake::Idle => return,
            }
        };
        let platform = self.clone();
        sim.schedule_at(wake_at, move |sim| platform.on_wake(sim, generation));
    }

    fn on_wake(&self, sim: &mut Simulation, generation: u64) {
        let (step, ltc) = {
            let mut inner = self.0.borrow_mut();
            if !inner.core.take_wake(generation) {
                return;
            }
            let step = inner.core.step(sim.now());
            let mut ltc = None;
            if let StepOutcome::Processed(summary) = step.outcome {
                // The acceptance invariant: a processed tag must lie
                // within the granted bound (exclusive).
                if inner
                    .core
                    .runtime
                    .tag_bound()
                    .is_some_and(|b| summary.tag >= b)
                {
                    inner.stats.record_bound_breach();
                }
                inner.max_processed = Some(
                    inner
                        .max_processed
                        .map_or(summary.tag, |m| m.max(summary.tag)),
                );
                if let Some(log) = inner.log.clone() {
                    // The logged clock reading is what replay feeds back
                    // into `step` — deadline classification depends on it.
                    log.append(&Record::Processed {
                        tag: summary.tag,
                        local: step.local.as_nanos(),
                    });
                    inner.processed_since_snapshot += 1;
                    if inner.processed_since_snapshot >= inner.snapshot_every {
                        log.append(&Record::Snapshot {
                            seq: 0,
                            last_processed: inner.max_processed,
                            granted: inner.core.runtime.tag_bound(),
                        });
                        inner.processed_since_snapshot = 0;
                    }
                }
                if step.busy_until > step.busy_from {
                    inner.observe.span_tagged(
                        Lane::Federate(inner.federate.0),
                        "compute",
                        step.busy_from,
                        step.busy_until,
                        summary.tag.as_logical(),
                    );
                }
                if inner.observe.is_enabled() {
                    let occupancy = inner.binding.pool().stats().occupancy();
                    inner.observe.gauge(
                        "frame/occupancy",
                        i64::try_from(occupancy).unwrap_or(i64::MAX),
                    );
                    inner
                        .observe
                        .record_value("frame/occupancy_hist", occupancy);
                }
                if inner.dnet_flags & DNET_SINK != 0 {
                    // DNET sink: no downstream LBTS can move on this LTC,
                    // so the report (and the recompute it would trigger)
                    // is pure overhead. Our own grants ride upstream
                    // reports, which the coordinator still receives.
                    inner.stats.record_net_suppressed();
                    inner.observe.count("coord/nets_suppressed", 1);
                } else {
                    ltc = Some(CoordMsg::new(
                        CoordKind::Ltc,
                        inner.federate.0,
                        tag_to_wire(summary.tag),
                    ));
                    inner.stats.record_ltc_sent();
                    inner.observe.count("coord/sent/ltc", 1);
                }
            }
            (step, ltc)
        };
        if let Some(msg) = ltc {
            if self.0.borrow().batched {
                // Zone protocol: LTC + NET in one frame. The later
                // report_status call sees an up-to-date `last_net` and
                // suppresses the duplicate.
                self.send_step_batch(sim, msg);
            } else {
                self.send_to_rti(sim, msg);
            }
        }
        match step.outcome {
            StepOutcome::Processed(_) => {
                if step.busy_until > sim.now() {
                    let platform = self.clone();
                    // The epoch guard strands this drain if the federate
                    // crashes first: recovery replay then decides whether
                    // the batch goes on the wire.
                    let epoch = self.0.borrow().epoch;
                    sim.schedule_at(step.busy_until, move |sim| {
                        if platform.0.borrow().epoch == epoch {
                            platform.drain_outbox(sim);
                        }
                    });
                } else {
                    self.drain_outbox(sim);
                }
            }
            StepOutcome::Stopped => {
                self.resign(sim);
                return;
            }
            StepOutcome::Idle => {}
        }
        self.report_status(sim);
        self.arm(sim);
    }

    fn resign(&self, sim: &mut Simulation) {
        let msg = {
            let mut inner = self.0.borrow_mut();
            if inner.resigned {
                None
            } else {
                inner.resigned = true;
                Some(CoordMsg::new(
                    CoordKind::Resign,
                    inner.federate.0,
                    TAG_NEVER,
                ))
            }
        };
        if let Some(msg) = msg {
            self.send_to_rti(sim, msg);
        }
    }

    fn drain_outbox(&self, sim: &mut Simulation) {
        let msgs = self.0.borrow().core.take_outputs();
        if msgs.is_empty() {
            return;
        }
        // Watermark record: every message at or below this tag is now on
        // the wire, so recovery replay must not send it again. Tags only
        // grow between drains, which makes the batch maximum a prefix
        // watermark.
        if let Some(log) = self.0.borrow().log.clone() {
            if let Some(max) = msgs.iter().map(|m| wire_to_tag(m.tag)).max() {
                log.append(&Record::Drained { tag: max });
            }
        }
        self.dispatch(sim, msgs);
    }
}

impl PlatformDriver for CoordinatedPlatform {
    fn with_core<R>(&self, f: impl FnOnce(&mut PlatformCore) -> R) -> R {
        f(&mut self.0.borrow_mut().core)
    }

    fn start(&self, sim: &mut Simulation) {
        let (federate, lattice) = {
            let mut inner = self.0.borrow_mut();
            // Capture the simulation's telemetry handle: the platform's
            // own coordination metrics and the runtime's per-tag spans
            // both land on this federate's lane.
            inner.observe = sim.observe().clone();
            let lane = Lane::Federate(inner.federate.0);
            inner.observe.set_lane_name(lane, inner.core.name());
            let observe = inner.observe.clone();
            inner.core.runtime.set_observe(observe, lane);
            let local_now = inner.core.start(sim.now());
            if let Some(log) = &inner.log {
                // Anchor record: replay restarts the fresh runtime at the
                // same local clock reading.
                log.append(&Record::Started {
                    anchor: local_now.as_nanos(),
                });
            }
            (inner.federate, inner.lattice)
        };
        self.send_to_rti(sim, CoordMsg::new(CoordKind::Join, federate.0, TAG_NEVER));
        // Declare the periodic lattice (control diet only): the solver
        // may then leap this federate's stale head whole periods, and
        // grant-ahead windows become eligible.
        if let Some(g) = lattice {
            if let Ok(nanos) = u64::try_from(g.as_nanos()) {
                if nanos > 0 {
                    self.send_to_rti(
                        sim,
                        CoordMsg::new(CoordKind::Period, federate.0, WireTag::new(nanos, 0)),
                    );
                }
            }
        }
        self.report_status(sim);
        self.arm(sim);
    }

    fn inject_at<T: Send + Sync + 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), dear_core::RuntimeError> {
        let result = {
            let mut inner = self.0.borrow_mut();
            let key = action.id().index() as u32;
            let logged = inner.encode_input(key, &value);
            if inner.crashed {
                // Durable inbox: the frame reached a downed federate. It
                // cannot be processed now, but logging it lets recovery
                // replay rebuild the event at this exact tag.
                let (log, bytes) = logged.ok_or(dear_core::RuntimeError::NotRunning)?;
                log.append(&Record::Input { key, tag, bytes });
                return Ok(());
            }
            let result = inner.core.runtime.schedule_physical_at(action, value, tag);
            if let (Ok(()), Some((log, bytes))) = (&result, logged) {
                log.append(&Record::Input { key, tag, bytes });
            }
            result
        };
        if result.is_ok() {
            self.report_status(sim);
            self.arm(sim);
        }
        result
    }

    fn inject_now<T: Send + Sync + 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
    ) -> Result<Tag, dear_core::RuntimeError> {
        let result = {
            let mut inner = self.0.borrow_mut();
            if inner.crashed {
                // Arrival-time tagging needs a live local clock; there is
                // no exact tag to log, so the injection is refused rather
                // than replayed at a made-up time.
                return Err(dear_core::RuntimeError::NotRunning);
            }
            let key = action.id().index() as u32;
            let logged = inner.encode_input(key, &value);
            let local_now = inner.core.local_time(sim.now());
            let result = inner
                .core
                .runtime
                .schedule_physical(action, value, local_now);
            if let (Ok(tag), Some((log, bytes))) = (&result, logged) {
                log.append(&Record::Input {
                    key,
                    tag: *tag,
                    bytes,
                });
            }
            result
        };
        if result.is_ok() {
            self.report_status(sim);
            self.arm(sim);
        }
        result
    }
}

/// The unconstrained sentinel a source federate receives as its first
/// grant round-trips to [`TAG_MAX`].
#[allow(dead_code)]
const _ASSERT_SENTINEL: () = {
    // Compile-time reminder that TAG_NEVER and TAG_MAX are twins.
    assert!(TAG_NEVER.nanos == u64::MAX);
    assert!(TAG_MAX.microstep == u32::MAX);
};
