//! The deterministic brake assistant — the DEAR port of §IV.B.
//!
//! Topology and logic are identical to the nondeterministic build
//! ([`crate::nondet`]); only the coordination changes:
//!
//! * each pipeline SWC becomes a reactor program in its own process
//!   (a [`FederatedPlatform`]), bound to the same SOME/IP service
//!   interfaces through DEAR transactors;
//! * the Video Adapter is "a sensor that inserts frames into the reactor
//!   network with a tag equal to the physical time of message reception"
//!   (the untagged camera frames use [`UntaggedPolicy::PhysicalTime`]);
//! * every inter-SWC message carries a tag, and receivers release it
//!   PTIDES-style at `t + D + L + E`;
//! * Computer Vision "expects to receive two events with the same tag at
//!   both inputs. If only one input is received, this is considered an
//!   error";
//! * deadlines are the paper's: 5 ms (adapter), 25 ms (preprocessing),
//!   25 ms (computer vision), 5 ms (EBA); maximum communication latency
//!   L = 5 ms; clock error E = 0 (single platform).
//!
//! [`UntaggedPolicy::PhysicalTime`]: dear_transactors::UntaggedPolicy::PhysicalTime

use crate::logic::{detect_vehicles, eba_decide, StageTimings};
use crate::nondet::{nodes, services};
use crate::types::{BrakeDecision, Frame, LaneBox, VehicleList};
use dear_core::{Port, ProgramBuilder, Reaction, ReactionCtx, ReactionId, Reactor, Runtime};
use dear_federation::{CoordinatedPlatform, EventLog, PlatformRecovery, Rti};
use dear_sim::{
    FaultPlan, LatencyModel, LinkConfig, NetworkHandle, NodeId, SimRng, Simulation, VirtualClock,
};
use dear_someip::{Binding, FrameBuf, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use dear_transactors::{
    ClientEventTransactor, Coordination, DearConfig, EventSpec, FailoverEventSpec,
    FederatedPlatform, Outbox, PlatformDriver, ServerEventTransactor, TransactorStats,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Per-stage sender deadlines (the paper's §IV.B values by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDeadlines {
    /// Video Adapter forwarding deadline.
    pub adapter: Duration,
    /// Preprocessing deadline.
    pub preprocessing: Duration,
    /// Computer Vision deadline.
    pub computer_vision: Duration,
    /// EBA reaction deadline.
    pub eba: Duration,
}

impl Default for StageDeadlines {
    fn default() -> Self {
        StageDeadlines {
            adapter: Duration::from_millis(5),
            preprocessing: Duration::from_millis(25),
            computer_vision: Duration::from_millis(25),
            eba: Duration::from_millis(5),
        }
    }
}

/// How a redundant-provider failover scenario kills its primary.
///
/// The Video Provider runs twice: the primary on
/// [`nodes::PROVIDER`] offers `(VIDEO, INSTANCE)` at priority 0, a warm
/// standby on [`nodes::PROVIDER_BACKUP`] offers
/// `(VIDEO, BACKUP_INSTANCE)` at priority 1 and replicates the primary's
/// frame stream by subscribing to it. The primary crashes right after
/// sending frame [`primary_dies_after`](Self::primary_dies_after); the
/// standby resumes at the next frame id, and the adapter's
/// [`FailoverBinding`] re-binds to it — via StopOffer (graceful), TTL
/// lapse (crash), or heartbeat silence, whichever fires first.
///
/// [`nodes::PROVIDER`]: crate::nondet::nodes::PROVIDER
/// [`nodes::PROVIDER_BACKUP`]: crate::nondet::nodes::PROVIDER_BACKUP
/// [`FailoverBinding`]: dear_transactors::FailoverBinding
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyParams {
    /// The primary dies immediately after sending this frame id.
    pub primary_dies_after: u64,
    /// `true`: the dying primary sends a StopOffer (graceful shutdown,
    /// failover at the StopOffer tag). `false`: it goes silent and its
    /// offer lapses (failover at the TTL expiry tag, or earlier via the
    /// heartbeat watchdog).
    pub graceful: bool,
    /// Offer TTL — the SOME/IP-SD heartbeat deadline.
    pub offer_ttl: Duration,
    /// Offer renewal period (must be below `offer_ttl`, or healthy
    /// providers expire between renewals).
    pub reoffer_period: Duration,
    /// Event-silence watchdog on the adapter's failover binding and the
    /// standby's replication listener; `None` relies on SD alone. Must
    /// exceed one frame period plus jitter and `L`, or a healthy primary
    /// is suspected spuriously.
    pub heartbeat_timeout: Option<Duration>,
}

impl Default for RedundancyParams {
    /// Crash (non-graceful) of the primary after frame 249, 400 ms TTL
    /// renewed every 150 ms, no heartbeat watchdog.
    fn default() -> Self {
        RedundancyParams {
            primary_dies_after: 249,
            graceful: false,
            offer_ttl: Duration::from_millis(400),
            reoffer_period: Duration::from_millis(150),
            heartbeat_timeout: None,
        }
    }
}

/// What one failover scenario observed (all tags, so byte-comparable
/// across replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailoverReport {
    /// Tag of the primary's last frame (its death instant).
    pub primary_died_at: Instant,
    /// Tag at which the adapter re-bound to the backup.
    pub rebound_at: Option<Instant>,
    /// Adapter tag of the first frame received from the backup.
    pub first_backup_frame_at: Option<Instant>,
    /// Primary death → first backup frame at the adapter (the failover
    /// latency `tests/scenarios.rs` pins for every detection path).
    pub failover_latency: Option<Duration>,
    /// Re-bindings performed by the adapter's failover binding.
    pub failovers: u64,
}

/// How a crash-recovery scenario kills and restarts a pipeline stage.
///
/// The Computer Vision federate runs with a durable event log attached
/// ([`dear_federation::EventLog`]): every started tag, granted bound and
/// injected input is appended before it takes effect, with periodic
/// snapshot records. Mid-run the CV node is killed
/// ([`dear_sim::FaultPlan::crash_node`]); while it is down, inbound
/// frames and grants keep landing in the log. After
/// [`dead_for`](Self::dead_for) the recovery driver rebuilds the
/// identical reactor program (action and reaction ids are structural),
/// replays the log — suppressing outbound messages the previous
/// incarnation already drained, re-sending the ones it never did — and
/// rejoins the RTI with a `Rejoin` frame. Because grants only ever
/// *delay* processing, the post-rejoin decision sequence is
/// byte-identical to a never-crashed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryParams {
    /// The CV federate is killed a quarter frame period after the
    /// nominal send time of this frame id (mid-cycle, with pipeline
    /// traffic in flight).
    pub crash_after_frame: u64,
    /// How long the node stays dead before the recovery driver restarts
    /// it; the restart must fall before the run's horizon (see
    /// [`run_det`]). An outage within the CV deadline plus `L` (25 + 5 ms
    /// by default) is invisible: the stage traces equal a never-crashed
    /// run's. A longer one can make the replacement catch up so late
    /// that some reactions miss their deadlines, and then the stage
    /// traces diverge. The release tags stay logical, though: no
    /// safe-to-process violation, and the same decisions at the same
    /// logical end-to-end latency.
    pub dead_for: Duration,
    /// Snapshot cadence of the durable log (processed tags between
    /// snapshot records).
    pub snapshot_every: u64,
}

impl Default for RecoveryParams {
    /// Kill after frame 250 (mirroring [`RedundancyParams`]'s mid-run
    /// primary death), 10 ms outage, snapshot every 32 tags.
    fn default() -> Self {
        RecoveryParams {
            crash_after_frame: 250,
            dead_for: Duration::from_millis(10),
            snapshot_every: 32,
        }
    }
}

/// What one crash-recovery scenario observed (tags and counters, so
/// byte-comparable across replays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// True time at which the CV federate was killed.
    pub crashed_at: Instant,
    /// True time at which replay completed and the `Rejoin` frame went
    /// out.
    pub rejoined_at: Instant,
    /// Outage duration (`rejoined_at - crashed_at`): the replay/rejoin
    /// latency, equal to `dead_for` (see `tests/recovery.rs`).
    pub outage: Duration,
    /// Logged tags re-processed from the durable log.
    pub replayed_tags: u64,
    /// Logged input payloads re-scheduled from the durable log.
    pub replayed_inputs: u64,
    /// Outbound messages swallowed during replay (already on the wire
    /// before the crash).
    pub suppressed_sends: u64,
    /// Outbound messages the dead incarnation produced but never
    /// drained, re-sent after replay.
    pub resent_sends: u64,
    /// Replay steps disagreeing with the log (must be zero).
    pub replay_mismatches: u64,
    /// Incarnation number carried by the `Rejoin` frame.
    pub incarnation: u32,
}

/// Parameters of one deterministic-build instance.
#[derive(Debug, Clone)]
pub struct DetParams {
    /// Number of frames the provider sends.
    pub frames: u64,
    /// Frame period (50 ms).
    pub period: Duration,
    /// Provider period jitter.
    pub provider_jitter: Duration,
    /// Stage compute-time models.
    pub timings: StageTimings,
    /// Stage deadlines (paper: 5/25/25/5 ms).
    pub deadlines: StageDeadlines,
    /// Assumed maximum communication latency `L` (paper: 5 ms).
    pub latency_bound: Duration,
    /// Assumed maximum clock error `E` (paper: 0, same platform).
    pub clock_error: Duration,
    /// Provider → adapter link.
    pub ethernet: LinkConfig,
    /// Links between processes on platform 2.
    pub loopback: LinkConfig,
    /// Coordination strategy (the pipeline logic is identical under
    /// both; see `tests/federation_equivalence.rs`).
    pub coordination: Coordination,
    /// Link model of the dedicated coordination network (RTI traffic
    /// only, so control messages never perturb data-plane latencies).
    /// Must deliver in order (the default; see [`Rti::new`]).
    pub coord_link: LinkConfig,
    /// Enable the RTI's control-plane diet (DNET suppression, grant-ahead
    /// windows, periodic fast path) under centralized coordination. Off
    /// by default; ignored under decentralized coordination. Turning it
    /// on must not change any observable trace — only the control-frame
    /// counters in [`DetReport::coordination`].
    pub control_diet: bool,
    /// Record per-stage runtime event traces and report their
    /// fingerprints in [`DetReport::stage_traces`]. Off by default: the
    /// figure examples and the benchmark call `run_det` in long or timed
    /// loops, and tracing costs O(events) time and memory.
    pub record_traces: bool,
    /// Run the pipeline with a redundant Video Provider and kill the
    /// primary mid-run. `None` (the default) is the plain single-provider
    /// scenario, bit-identical to the pre-failover builds.
    pub redundancy: Option<RedundancyParams>,
    /// Attach a durable event log to the Computer Vision federate and
    /// kill + restart it mid-run ([`RecoveryParams`]). `None` (the
    /// default) is the plain scenario. Requires
    /// [`Coordination::Centralized`] — crash-recovery is a property of
    /// the coordinated driver.
    pub recovery: Option<RecoveryParams>,
    /// Enable the full telemetry spine (metrics + spans) for the run and
    /// report the final snapshot in [`DetReport::metrics_snapshot`]. Off
    /// by default for the same reason as [`DetParams::record_traces`];
    /// turning it on must not change any observable behaviour — the
    /// `observability` integration test holds fingerprints to that.
    pub observability: bool,
}

impl Default for DetParams {
    fn default() -> Self {
        let nd = crate::nondet::NondetParams::default();
        DetParams {
            frames: nd.frames,
            period: nd.period,
            provider_jitter: nd.provider_jitter,
            timings: nd.timings,
            deadlines: StageDeadlines::default(),
            latency_bound: Duration::from_millis(5),
            clock_error: Duration::ZERO,
            ethernet: nd.ethernet,
            loopback: nd.loopback,
            coordination: Coordination::Decentralized,
            coord_link: LinkConfig::ideal(Duration::from_micros(10)),
            control_diet: false,
            record_traces: false,
            redundancy: None,
            recovery: None,
            observability: false,
        }
    }
}

/// The outcome of one deterministic-build instance.
#[derive(Debug, Clone, Default)]
pub struct DetReport {
    /// Frames the provider sent.
    pub frames_sent: u64,
    /// Brake decisions in emission order.
    pub decisions: Vec<BrakeDecision>,
    /// Logical end-to-end latency per decision (EBA tag − adapter tag).
    pub end_to_end: Vec<Duration>,
    /// CV tag-alignment errors (must be zero).
    pub mismatches_cv: u64,
    /// Safe-to-process violations (must be zero when bounds hold).
    pub stp_violations: u64,
    /// Deadline misses across all platforms.
    pub deadline_misses: u64,
    /// Untagged messages dropped on strict paths (must be zero).
    pub untagged_dropped: u64,
    /// Decisions disagreeing with the reference logic (must be zero).
    pub wrong_decisions: u64,
    /// Per-stage runtime trace fingerprints, in pipeline order (empty
    /// unless [`DetParams::record_traces`] is set). Two runs are
    /// observably identical iff these match.
    pub stage_traces: Vec<(String, u64)>,
    /// Coordination-layer counters (all zero under decentralized
    /// coordination).
    pub coordination: CoordReport,
    /// Failover observations (`Some` iff [`DetParams::redundancy`] was
    /// set).
    pub failover: Option<FailoverReport>,
    /// Crash-recovery observations (`Some` iff [`DetParams::recovery`]
    /// was set).
    pub recovery: Option<RecoveryReport>,
    /// The run's deterministic metrics snapshot (empty unless
    /// [`DetParams::observability`] was set).
    pub metrics_snapshot: String,
}

/// Aggregated coordination-message counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordReport {
    /// NET reports sent by all stages.
    pub nets_sent: u64,
    /// LTC reports sent by all stages.
    pub ltcs_sent: u64,
    /// Grants received by all stages.
    pub grants_received: u64,
    /// Provisional (PTAG) grants among them.
    pub ptags_received: u64,
    /// Tags processed beyond a granted bound (must stay zero).
    pub bound_breaches: u64,
    /// Total time stages spent blocked waiting for grants.
    pub grant_wait: Duration,
    /// Reports suppressed before hitting the wire (control diet only:
    /// same-head NET dedup plus DNET sink suppression).
    pub nets_suppressed: u64,
    /// Windowed TAG grants received (control diet only).
    pub windowed_grants: u64,
    /// Whether every stage's greatest processed tag stayed strictly
    /// below its final granted bound (vacuously true when no bounds are
    /// in play).
    pub within_bound: bool,
}

impl DetReport {
    /// FNV fingerprint of the decision sequence.
    #[must_use]
    pub fn decision_fingerprint(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for d in &self.decisions {
            for b in d.frame_id.to_le_bytes().iter().chain(&[u8::from(d.brake)]) {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }
}

struct Stage<D> {
    platform: D,
    stats: Vec<TransactorStats>,
}

/// Video Adapter logic: "a sensor that inserts frames into the reactor
/// network with a tag equal to the physical time of message reception" —
/// each forwarded frame is stamped with the reception tag.
#[derive(Reactor)]
struct AdapterLogic {
    #[output]
    frame: Port<FrameBuf>,
    #[external]
    camera: Port<FrameBuf>,
    #[reaction(triggers(camera), effects(frame))]
    adapt: Reaction,
}

impl AdapterLogic {
    fn adapt(_: &mut (), this: &Self, ctx: &mut ReactionCtx<'_>) {
        let mut frame =
            Frame::from_payload(ctx.get(this.camera).unwrap()).expect("camera frame payload");
        // The sensor stamp: the tag equals the physical reception time
        // of the frame.
        frame.adapter_nanos = ctx.tag().time.as_nanos();
        ctx.set(this.frame, frame.to_payload());
    }
}

/// Preprocessing logic: lane detection plus a same-tag forward of the
/// raw frame for Computer Vision's alignment check.
#[derive(Reactor)]
struct PreprocessingLogic {
    #[output]
    lane: Port<FrameBuf>,
    #[output]
    frame: Port<FrameBuf>,
    #[external]
    frames: Port<FrameBuf>,
    #[reaction(triggers(frames), effects(lane, frame))]
    preprocess: Reaction,
}

impl PreprocessingLogic {
    fn preprocess(_: &mut (), this: &Self, ctx: &mut ReactionCtx<'_>) {
        let frame = Frame::from_payload(ctx.get(this.frames).unwrap()).expect("frame payload");
        let lane = crate::logic::preprocess(&frame);
        ctx.set(this.lane, lane.to_payload());
        ctx.set(this.frame, frame.to_payload());
    }
}

/// Computer Vision logic: "expects to receive two events with the same
/// tag at both inputs. If only one input is received, this is considered
/// an error" — the state counts those tag-alignment errors.
#[derive(Reactor)]
#[reactor(state = Arc<Mutex<u64>>)]
struct ComputerVisionLogic {
    #[output]
    vehicles: Port<FrameBuf>,
    #[external]
    lane: Port<FrameBuf>,
    #[external]
    frame: Port<FrameBuf>,
    #[reaction(triggers(lane, frame), effects(vehicles))]
    detect: Reaction,
}

impl ComputerVisionLogic {
    fn detect(mismatches: &mut Arc<Mutex<u64>>, this: &Self, ctx: &mut ReactionCtx<'_>) {
        let lane = ctx
            .get(this.lane)
            .map(|p| LaneBox::from_payload(p).expect("lane payload"));
        let frame = ctx
            .get(this.frame)
            .map(|p| Frame::from_payload(p).expect("frame payload"));
        match (lane, frame) {
            (Some(lane), Some(frame)) if lane.frame_id == frame.id => {
                let vehicles = detect_vehicles(&frame, &lane);
                ctx.set(this.vehicles, vehicles.to_payload());
            }
            // "If only one input is received, this is considered an
            // error."
            _ => *mismatches.lock().expect("mismatch counter") += 1,
        }
    }
}

/// Decisions collected from the EBA stage: `(decision, eba_tag_nanos,
/// adapter_tag_nanos)` in emission order.
type DecisionSink = Arc<Mutex<Vec<(BrakeDecision, u64, u64)>>>;

/// EBA logic: brake decisions under the paper's 5 ms reaction deadline.
/// The deadline is a run parameter, so it arrives as an `#[external]`
/// value rather than a literal in the attribute.
#[derive(Reactor)]
#[reactor(state = DecisionSink)]
struct EbaLogic {
    #[external]
    vehicles: Port<FrameBuf>,
    #[external]
    deadline: Duration,
    #[reaction(triggers(vehicles), deadline = this.deadline, on_deadline = decide_late)]
    decide: Reaction,
}

impl EbaLogic {
    fn decide(sink: &mut DecisionSink, this: &Self, ctx: &mut ReactionCtx<'_>) {
        let vehicles =
            VehicleList::from_payload(ctx.get(this.vehicles).unwrap()).expect("vehicles payload");
        let brake = eba_decide(&vehicles);
        sink.lock().expect("decisions").push((
            BrakeDecision {
                frame_id: vehicles.frame_id,
                brake,
            },
            ctx.tag().time.as_nanos(),
            vehicles.adapter_nanos,
        ));
    }

    fn decide_late(sink: &mut DecisionSink, this: &Self, ctx: &mut ReactionCtx<'_>) {
        // Deadline miss: the decision is still produced (and the miss is
        // counted by the runtime) — late but observable, never silently
        // lost.
        Self::decide(sink, this, ctx);
    }
}

/// What the stage logic reports back to the run: Computer Vision's
/// tag-alignment errors and the EBA's decisions.
#[derive(Clone, Default)]
struct Sinks {
    mismatches: Arc<Mutex<u64>>,
    decisions: DecisionSink,
}

/// Declares a stage's logic reactor between its input and output
/// transactors (given the stage deadline) and returns the path of its
/// reaction.
type DeclareLogic = fn(
    &mut ProgramBuilder,
    &Sinks,
    &[ClientEventTransactor],
    &[ServerEventTransactor],
    Duration,
) -> &'static str;

/// One pipeline stage: a reactor program in its own process, with a
/// client event transactor per input, a server event transactor per
/// output, and one logic reactor between them.
struct StageSpec {
    name: &'static str,
    node: NodeId,
    /// SOME/IP client id of the stage's data binding.
    client_id: u16,
    /// Label of the stage's reaction-cost RNG stream.
    cost_rng: &'static str,
    /// The service every output publishes on (`None` for a sink).
    offers: Option<u16>,
    /// `(transactor, subscribed service, event)` per input.
    inputs: &'static [(&'static str, u16, u16)],
    /// `(transactor, event)` per output.
    outputs: &'static [(&'static str, u16)],
    /// The outputs' sender deadline (a sink's: its reaction deadline).
    deadline: fn(&StageDeadlines) -> Duration,
    /// Compute-cost model of the logic reaction.
    timing: fn(&StageTimings) -> LatencyModel,
    logic: DeclareLogic,
}

/// Whether `service` comes from outside the federation (no stage offers
/// it): its frames arrive untagged and are tagged at reception.
fn external(service: u16) -> bool {
    STAGES.iter().all(|s| s.offers != Some(service))
}

impl StageSpec {
    /// Whether `down` subscribes to this stage's service.
    fn feeds(&self, down: &StageSpec) -> bool {
        down.inputs.iter().any(|&(_, s, _)| self.offers == Some(s))
    }
}

/// The stage a crash-recovery scenario kills and restarts (Computer
/// Vision).
const RECOVERED: usize = 2;

/// The pipeline of Fig. 4, in construction order. The RTI topology,
/// the external (sensor) stage and the recovery rebuild all derive from
/// this table.
static STAGES: [StageSpec; 4] = [
    StageSpec {
        name: "adapter",
        node: nodes::ADAPTER,
        client_id: 0x20,
        cost_rng: "adapter-costs",
        offers: Some(services::ADAPTER),
        inputs: &[("camera", services::VIDEO, services::EVENT_MAIN)],
        outputs: &[("frames", services::EVENT_MAIN)],
        deadline: |d| d.adapter,
        timing: |t| t.adapter.clone(),
        logic: |b, _, inputs, outputs, _| {
            let ext = AdapterLogicExternals {
                camera: inputs[0].event,
            };
            let logic: AdapterLogic = b.declare_ext("adapter_logic", (), ext);
            b.connect(logic.frame, outputs[0].event).unwrap();
            "adapter_logic.adapt"
        },
    },
    StageSpec {
        name: "preprocessing",
        node: nodes::PREPROCESSING,
        client_id: 0x30,
        cost_rng: "preproc-costs",
        offers: Some(services::PREPROCESSING),
        inputs: &[("frames", services::ADAPTER, services::EVENT_MAIN)],
        outputs: &[
            ("lane", services::EVENT_MAIN),
            ("frame_fwd", services::EVENT_AUX),
        ],
        deadline: |d| d.preprocessing,
        timing: |t| t.preprocessing.clone(),
        logic: |b, _, inputs, outputs, _| {
            let ext = PreprocessingLogicExternals {
                frames: inputs[0].event,
            };
            let logic: PreprocessingLogic = b.declare_ext("preprocessing_logic", (), ext);
            b.connect(logic.lane, outputs[0].event).unwrap();
            b.connect(logic.frame, outputs[1].event).unwrap();
            "preprocessing_logic.preprocess"
        },
    },
    StageSpec {
        name: "computer_vision",
        node: nodes::COMPUTER_VISION,
        client_id: 0x40,
        cost_rng: "cv-costs",
        offers: Some(services::COMPUTER_VISION),
        inputs: &[
            ("lane", services::PREPROCESSING, services::EVENT_MAIN),
            ("frame_fwd", services::PREPROCESSING, services::EVENT_AUX),
        ],
        outputs: &[("vehicles", services::EVENT_MAIN)],
        deadline: |d| d.computer_vision,
        timing: |t| t.computer_vision.clone(),
        logic: |b, sinks, inputs, outputs, _| {
            let ext = ComputerVisionLogicExternals {
                lane: inputs[0].event,
                frame: inputs[1].event,
            };
            let logic: ComputerVisionLogic =
                b.declare_ext("computer_vision_logic", sinks.mismatches.clone(), ext);
            b.connect(logic.vehicles, outputs[0].event).unwrap();
            "computer_vision_logic.detect"
        },
    },
    StageSpec {
        name: "eba",
        node: nodes::EBA,
        client_id: 0x50,
        cost_rng: "eba-costs",
        offers: None,
        inputs: &[("vehicles", services::COMPUTER_VISION, services::EVENT_MAIN)],
        outputs: &[],
        deadline: |d| d.eba,
        timing: |t| t.eba.clone(),
        logic: |b, sinks, inputs, _, deadline| {
            let ext = EbaLogicExternals {
                vehicles: inputs[0].event,
                deadline,
            };
            let _: EbaLogic = b.declare_ext("eba_logic", sinks.decisions.clone(), ext);
            "eba_logic.decide"
        },
    },
];

/// A stage's reactor program, built from its [`STAGES`] entry.
struct StageProgram {
    runtime: Runtime,
    inputs: Vec<ClientEventTransactor>,
    outputs: Vec<ServerEventTransactor>,
    /// The logic reaction, the one with a compute-cost model.
    reaction: ReactionId,
}

/// Builds `stage`'s program: its input transactors, its output
/// transactors, then its logic. A crash-recovery restart rebuilds the
/// replacement incarnation with the same call: action and reaction ids
/// are structural, so the dead incarnation's input codecs, route
/// handlers and cost models apply unchanged to the rebuilt program.
fn build_program(
    stage: &StageSpec,
    outbox: &Outbox,
    deadline: Duration,
    sinks: &Sinks,
) -> StageProgram {
    let mut b = ProgramBuilder::new();
    let inputs: Vec<_> = stage
        .inputs
        .iter()
        .map(|&(name, _, _)| ClientEventTransactor::declare(&mut b, name))
        .collect();
    let outputs: Vec<_> = stage
        .outputs
        .iter()
        .map(|&(name, _)| ServerEventTransactor::declare(&mut b, outbox, name, deadline))
        .collect();
    let reaction = (stage.logic)(&mut b, sinks, &inputs, &outputs, deadline);
    let program = b.build().expect("stage program");
    StageProgram {
        reaction: program.find_reaction(reaction).expect("logic reaction"),
        runtime: Runtime::new(program),
        inputs,
        outputs,
    }
}

/// One coordination strategy's way of constructing stage drivers.
trait DriverFactory {
    type Driver: PlatformDriver;

    /// Builds the driver for one pipeline stage.
    fn make(
        &mut self,
        stage: &StageSpec,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
    ) -> Self::Driver;

    /// Called after every stage exists (topology declarations).
    fn finish(&self) {}

    /// Coordination-layer report at the end of the run.
    fn report(&self) -> CoordReport {
        CoordReport {
            within_bound: true,
            ..CoordReport::default()
        }
    }

    /// The coordinated platform built for `STAGES[stage]`, when the
    /// strategy builds [`CoordinatedPlatform`]s (crash-recovery needs
    /// the concrete driver; decentralized platforms have no grant state
    /// to rejoin).
    fn coordinated(&self, _stage: usize) -> Option<CoordinatedPlatform> {
        None
    }
}

/// Decentralized coordination: plain `FederatedPlatform`s, no control
/// traffic.
struct DecentralizedFactory;

impl DriverFactory for DecentralizedFactory {
    type Driver = FederatedPlatform;

    fn make(
        &mut self,
        stage: &StageSpec,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
    ) -> FederatedPlatform {
        FederatedPlatform::new(stage.name, runtime, clock, outbox, cost_rng)
    }
}

/// Centralized coordination: an RTI on a dedicated coordination network
/// grants every stage its tag advances. The data plane is untouched, so
/// traces stay bit-identical to the decentralized build.
struct CentralizedFactory {
    deadlines: StageDeadlines,
    /// `L + E`, added to the upstream deadline on every RTI edge.
    stp: Duration,
    coord_net: NetworkHandle,
    coord_sd: SdRegistry,
    rti: Rti,
    /// The stages built so far, in [`STAGES`] order.
    platforms: Vec<CoordinatedPlatform>,
}

impl CentralizedFactory {
    fn new(sim: &mut Simulation, params: &DetParams) -> Self {
        let coord_net = NetworkHandle::new(params.coord_link.clone(), sim.fork_rng("coord-net"));
        let coord_sd = SdRegistry::new();
        let rti = Rti::new(sim, &coord_net, &coord_sd, nodes::RTI);
        // Before any platform is built: each platform samples the diet
        // mode once, at construction.
        if params.control_diet {
            rti.enable_control_diet();
        }
        CentralizedFactory {
            deadlines: params.deadlines,
            stp: params.latency_bound + params.clock_error,
            coord_net,
            coord_sd,
            rti,
            platforms: Vec::new(),
        }
    }
}

impl DriverFactory for CentralizedFactory {
    type Driver = CoordinatedPlatform;

    fn make(
        &mut self,
        stage: &StageSpec,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
    ) -> CoordinatedPlatform {
        let coord_binding = Binding::new(
            &self.coord_net,
            &self.coord_sd,
            stage.node,
            0x70 + u16::try_from(self.platforms.len()).expect("stage count"),
        );
        let platform = CoordinatedPlatform::new(
            stage.name,
            runtime,
            clock,
            outbox,
            cost_rng,
            &self.rti,
            &coord_binding,
            stage
                .inputs
                .iter()
                .any(|&(_, service, _)| external(service)),
        );
        self.platforms.push(platform.clone());
        platform
    }

    /// One RTI edge per stage feeding another, delayed by the upstream
    /// deadline plus `L + E`.
    fn finish(&self) {
        for (up, upstream) in STAGES.iter().enumerate() {
            let delay = (upstream.deadline)(&self.deadlines) + self.stp;
            for (down, _) in STAGES.iter().enumerate().filter(|(_, d)| upstream.feeds(d)) {
                self.rti.connect(
                    self.platforms[up].federate_id(),
                    self.platforms[down].federate_id(),
                    delay,
                );
            }
        }
    }

    fn coordinated(&self, stage: usize) -> Option<CoordinatedPlatform> {
        self.platforms.get(stage).cloned()
    }

    fn report(&self) -> CoordReport {
        let mut report = CoordReport {
            within_bound: true,
            ..CoordReport::default()
        };
        for p in &self.platforms {
            let cs = p.coordination_stats();
            report.nets_sent += cs.nets_sent();
            report.ltcs_sent += cs.ltcs_sent();
            report.grants_received += cs.grants_received();
            report.ptags_received += cs.ptags_received();
            report.bound_breaches += cs.bound_breaches();
            report.grant_wait += cs.grant_wait();
            report.nets_suppressed += cs.nets_suppressed();
            report.windowed_grants += cs.windowed_grants();
            if let (Some(max), Some(bound)) = (p.max_processed_tag(), p.granted_bound()) {
                report.within_bound &= max < bound;
            }
        }
        report
    }
}

impl DetParams {
    /// End of the simulated run: every frame period plus one second for
    /// the pipeline to drain.
    fn horizon(&self) -> Instant {
        Instant::EPOCH
            + self.period * i64::try_from(self.frames).expect("frame count")
            + Duration::from_secs(1)
    }
}

impl RecoveryParams {
    /// When the CV federate dies: a quarter period after the nominal send
    /// time of frame `crash_after_frame`.
    fn crash_at(&self, period: Duration) -> Instant {
        Instant::EPOCH
            + period * i64::try_from(self.crash_after_frame).expect("frame id")
            + Duration::from_nanos(period.as_nanos() / 4)
    }
}

/// Runs one seeded instance of the deterministic brake assistant under
/// the configured coordination strategy.
///
/// # Panics
///
/// Checks the scenario before building anything, and panics if:
///
/// * [`DetParams::recovery`] is set with `crash_after_frame >= frames`
///   (the CV federate must die within the run);
/// * [`DetParams::recovery`] is set under
///   [`Coordination::Decentralized`] (crash-recovery replays granted
///   bounds, a property only the centralized driver has);
/// * [`DetParams::recovery`] restarts the CV federate at or after the
///   horizon (`frames` periods plus 1 s), so it would never rejoin;
/// * [`DetParams::redundancy`] is set with `primary_dies_after >= frames`
///   (the primary must die within the run).
#[must_use]
pub fn run_det(seed: u64, params: &DetParams) -> DetReport {
    if let Some(rec) = params.recovery {
        assert!(
            rec.crash_after_frame < params.frames,
            "a recovery scenario must kill the CV federate within the run"
        );
        assert!(
            params.coordination == Coordination::Centralized,
            "DetParams::recovery requires Coordination::Centralized"
        );
        let restart = rec.crash_at(params.period) + rec.dead_for;
        assert!(
            restart < params.horizon(),
            "recovery requires the CV federate to restart within the horizon: \
             restart at {restart} but horizon {}",
            params.horizon()
        );
    }
    if let Some(red) = params.redundancy {
        assert!(
            red.primary_dies_after < params.frames,
            "redundancy requires the primary to die within the run: \
             primary_dies_after = {} but frames = {}",
            red.primary_dies_after,
            params.frames
        );
    }
    match params.coordination {
        Coordination::Decentralized => run_det_with(seed, params, |_| DecentralizedFactory),
        Coordination::Centralized => {
            run_det_with(seed, params, |sim| CentralizedFactory::new(sim, params))
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_det_with<F: DriverFactory>(
    seed: u64,
    params: &DetParams,
    factory: impl FnOnce(&mut Simulation) -> F,
) -> DetReport {
    use services::{BACKUP_INSTANCE, EVENTGROUP, EVENT_MAIN, INSTANCE, VIDEO};

    let mut sim = Simulation::new(seed);
    if params.observability {
        sim.enable_observability();
    }
    let net = NetworkHandle::new(params.loopback.clone(), sim.fork_rng("net"));
    net.configure_link(nodes::PROVIDER, nodes::ADAPTER, params.ethernet.clone());
    let sd = SdRegistry::new();
    let mut factory = factory(&mut sim);
    let offer_ttl = Duration::from_secs(1 << 30);
    let cfg = DearConfig::new(params.latency_bound, params.clock_error);
    let spec = |service: u16, event: u16| EventSpec {
        service,
        instance: INSTANCE,
        eventgroup: EVENTGROUP,
        event,
    };

    // --- Pipeline stages ---------------------------------------------------
    let sinks = Sinks::default();
    let recovered: Rc<RefCell<Option<PlatformRecovery>>> = Rc::default();
    let mut camera_failover = None;
    let mut stages = Vec::with_capacity(STAGES.len());
    for (index, stage) in STAGES.iter().enumerate() {
        let outbox = Outbox::new();
        let deadline = (stage.deadline)(&params.deadlines);
        let program = build_program(stage, &outbox, deadline, &sinks);
        let binding = Binding::new(&net, &sd, stage.node, stage.client_id);
        let cost_rng = sim.fork_rng(stage.cost_rng);
        let platform = factory.make(
            stage,
            program.runtime,
            VirtualClock::ideal(),
            outbox.clone(),
            cost_rng,
        );
        platform.set_reaction_cost(program.reaction, (stage.timing)(&params.timings));
        if let Some(service) = stage.offers {
            binding.offer(&mut sim, ServiceInstance::new(service, INSTANCE), offer_ttl);
        }
        let mut stats = Vec::with_capacity(stage.inputs.len());
        for (input, &(_, service, event)) in program.inputs.iter().zip(stage.inputs) {
            let is_external = external(service);
            let cfg = if is_external {
                cfg.accept_untagged()
            } else {
                cfg
            };
            // A redundant provider group binds through a FailoverBinding
            // tracking the best offer.
            if let Some(red) = params.redundancy.filter(|_| is_external) {
                let (s, failover) = input.bind_failover(
                    &mut sim,
                    &platform,
                    &binding,
                    FailoverEventSpec {
                        service,
                        eventgroup: EVENTGROUP,
                        event,
                    },
                    cfg,
                );
                if let Some(timeout) = red.heartbeat_timeout {
                    failover.enable_heartbeat(&mut sim, timeout);
                }
                stats.push(s);
                camera_failover = Some(failover);
            } else {
                stats.push(input.bind(&platform, &binding, spec(service, event), cfg));
            }
        }
        for (output, &(_, event)) in program.outputs.iter().zip(stage.outputs) {
            let service = stage.offers.expect("a stage with outputs offers a service");
            output.bind(&platform, &binding, spec(service, event));
        }

        // Crash recovery: a durable log on the stage's federate, a crash
        // and restore of its node, and a rebuild plus log replay on
        // restore.
        if let Some(rec) = params.recovery.filter(|_| index == RECOVERED) {
            let platform = factory.coordinated(index).expect("validated: centralized");
            platform.attach_durable(EventLog::in_memory());
            platform.set_snapshot_every(rec.snapshot_every);
            // Every inbox carries raw SOME/IP payloads; the codec is the
            // identity. The action ids are structural, so the rebuilt
            // incarnation replays into the same inboxes.
            for input in &program.inputs {
                platform.register_durable_input(
                    input.action(),
                    |frame: &FrameBuf| frame.to_vec(),
                    |bytes| Some(bytes.to_vec().into()),
                );
            }
            let crash_at = rec.crash_at(params.period);
            let mut plan = FaultPlan::new();
            plan.crash_node(crash_at, stage.node)
                .restore_node(crash_at + rec.dead_for, stage.node);
            plan.apply(&mut sim, &net);
            let slot = recovered.clone();
            let sinks = sinks.clone();
            let record_traces = params.record_traces;
            net.on_node_event(move |sim, node, up| {
                if node != stage.node {
                    return;
                }
                if up {
                    // The replacement incarnation: reset the outbox so the
                    // rebuilt transactors re-claim the same route ids,
                    // rebuild the identical program, and replay the log.
                    outbox.reset();
                    let mut runtime = build_program(stage, &outbox, deadline, &sinks).runtime;
                    if record_traces {
                        runtime.enable_tracing();
                    }
                    *slot.borrow_mut() = Some(platform.recover(sim, runtime));
                } else {
                    platform.crash(sim);
                }
            });
        }
        stages.push(Stage { platform, stats });
    }

    // --- Video Provider (plain, untagged AP component). A redundancy
    // scenario adds a warm standby and kills the primary mid-run. --------
    let primary = ServiceInstance::new(VIDEO, INSTANCE);
    let provider_binding = Binding::new(&net, &sd, nodes::PROVIDER, 0x10);
    let death_at: Rc<Cell<Option<Instant>>> = Rc::default();
    let death = if let Some(red) = params.redundancy {
        let backup = ServiceInstance::new(VIDEO, BACKUP_INSTANCE);
        // The standby sits next to the primary on platform 1: both reach
        // the adapter over the Ethernet link, and the replication feed
        // (primary → standby) crosses the same switch.
        for (src, dst) in [
            (nodes::PROVIDER_BACKUP, nodes::ADAPTER),
            (nodes::PROVIDER, nodes::PROVIDER_BACKUP),
        ] {
            net.configure_link(src, dst, params.ethernet.clone());
        }
        let backup_binding = Binding::new(&net, &sd, nodes::PROVIDER_BACKUP, 0x11);

        // Offer order matters for the adapter's very first bind: the
        // primary first, so the failover binding never transits through
        // the standby. The standby never dies.
        let alive = Rc::new(Cell::new(true));
        let renewal = |instance, node, priority, alive| OfferRenewal {
            sd: sd.clone(),
            instance,
            node,
            ttl: red.offer_ttl,
            period: red.reoffer_period,
            priority,
            alive,
        };
        let renewals = [
            renewal(primary, nodes::PROVIDER, 0, alive.clone()),
            renewal(backup, nodes::PROVIDER_BACKUP, 1, Rc::new(Cell::new(true))),
        ];
        for r in &renewals {
            r.offer(&mut sim);
        }
        for r in renewals {
            r.arm(&mut sim);
        }

        // The standby replicates the primary's frame stream by subscribing
        // to it, and takes over when SD drops the primary or (with a
        // heartbeat watchdog) when the stream goes silent.
        let last_seen = Rc::new(Cell::new(None));
        let mut frames = FrameLoop::new(&sim, &backup_binding, backup, "provider-backup", params);
        frames.replicated = Some(last_seen.clone());
        let standby = Rc::new(BackupProvider {
            active: Cell::new(false),
            last_seen,
            frames: RefCell::new(Some(frames)),
            watchdog_gen: Cell::new(0),
            timeout: red.heartbeat_timeout,
        });
        sd.subscribe(primary, EVENTGROUP, nodes::PROVIDER_BACKUP);
        let on_frame = standby.clone();
        backup_binding.on_event(VIDEO, EVENT_MAIN, move |sim, msg| {
            if let Ok(frame) = Frame::from_payload(&msg.payload) {
                on_frame.on_replicated(sim, frame.id);
            }
        });
        let on_offer = standby.clone();
        sd.watch(
            &mut sim,
            VIDEO,
            dear_someip::ANY_INSTANCE,
            move |sim, best| {
                if best.map(|o| o.instance) == Some(backup) {
                    on_offer.activate(sim);
                }
            },
        );
        standby.arm_watchdog(&mut sim);
        Some(Death {
            after: red.primary_dies_after,
            graceful: red.graceful,
            sd: sd.clone(),
            alive,
            at: death_at.clone(),
        })
    } else {
        provider_binding.offer(&mut sim, primary, offer_ttl);
        None
    };
    let mut provider = FrameLoop::new(&sim, &provider_binding, primary, "provider", params);
    provider.death = death;
    sim.schedule_at(Instant::EPOCH, move |sim| provider.send(sim));

    // --- Run ---------------------------------------------------------------
    factory.finish();
    for stage in &stages {
        if params.record_traces {
            stage.platform.with_runtime(|rt| rt.enable_tracing());
        }
        stage.platform.start(&mut sim);
    }
    sim.run_until(params.horizon());

    // --- Collect -----------------------------------------------------------
    let mut stp = 0;
    let mut misses = 0;
    let mut untagged = 0;
    for stage in &stages {
        let rt = stage.platform.runtime_stats();
        stp += rt.stp_violations;
        misses += rt.deadline_misses;
        for s in &stage.stats {
            stp += s.stp_violations();
            untagged += s.untagged_dropped();
        }
    }

    let stage_traces: Vec<(String, u64)> = if params.record_traces {
        stages
            .iter()
            .map(|stage| {
                let fingerprint = stage
                    .platform
                    .with_runtime(|rt| rt.take_trace())
                    .fingerprint();
                (stage.platform.driver_name(), fingerprint)
            })
            .collect()
    } else {
        Vec::new()
    };
    let coordination = factory.report();

    let mismatches_cv = *sinks.mismatches.lock().expect("mismatch counter");
    let collected = std::mem::take(&mut *sinks.decisions.lock().expect("decisions"));

    let failover = params.redundancy.map(|red| {
        let primary_died_at = death_at
            .get()
            .expect("redundancy scenarios kill the primary within the horizon");
        let failover_binding = camera_failover
            .as_ref()
            .expect("redundancy scenarios bind the camera through a FailoverBinding");
        let first_backup_frame_at = collected
            .iter()
            .find(|(d, _, _)| d.frame_id > red.primary_dies_after)
            .map(|&(_, _, adapter_nanos)| Instant::from_nanos(adapter_nanos));
        FailoverReport {
            primary_died_at,
            rebound_at: failover_binding.last_failover_at(),
            first_backup_frame_at,
            failover_latency: first_backup_frame_at.map(|at| at - primary_died_at),
            failovers: failover_binding.failovers(),
        }
    });

    let recovery = params.recovery.map(|_| {
        let r = recovered
            .borrow_mut()
            .take()
            .expect("recovery scenarios restart the CV federate within the horizon");
        RecoveryReport {
            crashed_at: r.crashed_at,
            rejoined_at: r.rejoined_at,
            outage: r.rejoined_at - r.crashed_at,
            replayed_tags: r.replayed_tags,
            replayed_inputs: r.replayed_inputs,
            suppressed_sends: r.suppressed_sends,
            resent_sends: r.resent_sends,
            replay_mismatches: r.replay_mismatches,
            incarnation: r.incarnation,
        }
    });

    let mut wrong = 0;
    let mut out_decisions = Vec::with_capacity(collected.len());
    let mut end_to_end = Vec::with_capacity(collected.len());
    for (d, eba_nanos, adapter_nanos) in collected {
        if d.brake != crate::logic::reference_decision(d.frame_id) {
            wrong += 1;
        }
        end_to_end.push(Duration::from_nanos(
            i64::try_from(eba_nanos - adapter_nanos).expect("latency fits"),
        ));
        out_decisions.push(d);
    }

    DetReport {
        frames_sent: params.frames,
        decisions: out_decisions,
        end_to_end,
        mismatches_cv,
        stp_violations: stp,
        deadline_misses: misses,
        untagged_dropped: untagged,
        wrong_decisions: wrong,
        stage_traces,
        coordination,
        failover,
        recovery,
        metrics_snapshot: sim.observe().snapshot(),
    }
}

/// A provider's periodic offer renewal (the SOME/IP-SD heartbeat); stops
/// when the provider dies.
struct OfferRenewal {
    sd: SdRegistry,
    instance: ServiceInstance,
    node: NodeId,
    ttl: Duration,
    period: Duration,
    priority: u8,
    alive: Rc<Cell<bool>>,
}

impl OfferRenewal {
    fn arm(self, sim: &mut Simulation) {
        let period = self.period;
        sim.schedule_in(period, move |sim| self.tick(sim));
    }

    fn offer(&self, sim: &mut Simulation) {
        self.sd
            .offer_prioritized(sim, self.instance, self.node, self.ttl, self.priority);
    }

    fn tick(self, sim: &mut Simulation) {
        if !self.alive.get() {
            return;
        }
        self.offer(sim);
        self.arm(sim);
    }
}

/// How the primary Video Provider of a redundancy scenario dies.
struct Death {
    /// The primary dies right after sending this frame id.
    after: u64,
    /// StopOffer at the death tag (graceful) or silence (crash).
    graceful: bool,
    sd: SdRegistry,
    /// Keeps the primary's offer renewals going while set.
    alive: Rc<Cell<bool>>,
    /// The death instant, for the [`FailoverReport`].
    at: Rc<Cell<Option<Instant>>>,
}

/// A Video Provider's frame loop: one frame per jittered period until
/// `total` frames. The plain provider is a primary with no death; a
/// standby resumes after the stream it replicated.
struct FrameLoop {
    binding: Binding,
    instance: ServiceInstance,
    rng: SimRng,
    period: Duration,
    jitter: Duration,
    total: u64,
    /// The next frame id this loop itself sends.
    next_id: u64,
    /// A standby's highest frame id replicated from the primary.
    replicated: Option<Rc<Cell<Option<u64>>>>,
    death: Option<Death>,
}

impl FrameLoop {
    fn new(
        sim: &Simulation,
        binding: &Binding,
        instance: ServiceInstance,
        rng: &str,
        params: &DetParams,
    ) -> Self {
        FrameLoop {
            binding: binding.clone(),
            instance,
            rng: sim.fork_rng(rng),
            period: params.period,
            jitter: params.provider_jitter,
            total: params.frames,
            next_id: 0,
            replicated: None,
            death: None,
        }
    }

    fn send(mut self, sim: &mut Simulation) {
        // Resume strictly after everything replicated so far and
        // everything this loop already sent itself.
        let replicated = self.replicated.as_ref().and_then(|seen| seen.get());
        let id = self.next_id.max(replicated.map_or(0, |s| s + 1));
        if id >= self.total {
            return;
        }
        let frame = Frame::new(id, sim.now().as_nanos());
        self.binding.notify(
            sim,
            self.instance,
            services::EVENTGROUP,
            services::EVENT_MAIN,
            frame.to_payload(),
        );
        self.next_id = id + 1;
        if let Some(death) = self.death.as_ref().filter(|d| id >= d.after) {
            // The crash: no further frames, no further renewals; a
            // graceful death also withdraws the offer at this very tag.
            death.alive.set(false);
            death.at.set(Some(sim.now()));
            sim.trace_with("failover", || {
                format!("primary provider dies after frame {id}")
            });
            if death.graceful {
                death.sd.stop_offer(sim, self.instance);
            }
            return;
        }
        let next = if self.jitter.is_zero() {
            self.period
        } else {
            self.period + self.rng.uniform_duration(-self.jitter, self.jitter)
        };
        sim.schedule_in(next, move |sim| self.send(sim));
    }
}

/// The warm-standby Video Provider: replicates the primary's stream by
/// subscription, resumes it at the next frame id once activated.
struct BackupProvider {
    active: Cell<bool>,
    /// Highest frame id observed from the primary.
    last_seen: Rc<Cell<Option<u64>>>,
    /// The standby's own frame loop, started on activation.
    frames: RefCell<Option<FrameLoop>>,
    watchdog_gen: Cell<u64>,
    timeout: Option<Duration>,
}

impl BackupProvider {
    fn on_replicated(self: &Rc<Self>, sim: &mut Simulation, id: u64) {
        let seen = self.last_seen.get().map_or(id, |s| s.max(id));
        self.last_seen.set(Some(seen));
        self.arm_watchdog(sim);
    }

    /// (Re-)arms the stream-silence watchdog; superseded by later frames.
    fn arm_watchdog(self: &Rc<Self>, sim: &mut Simulation) {
        let Some(timeout) = self.timeout else { return };
        if self.active.get() {
            return;
        }
        self.watchdog_gen.set(self.watchdog_gen.get() + 1);
        let generation = self.watchdog_gen.get();
        let this = self.clone();
        sim.schedule_in(timeout, move |sim| {
            if this.watchdog_gen.get() == generation && !this.active.get() {
                this.activate(sim);
            }
        });
    }

    fn activate(&self, sim: &mut Simulation) {
        if self.active.replace(true) {
            return;
        }
        sim.trace_with("failover", || {
            let seen = self.last_seen.get();
            format!("standby provider takes over (last replicated frame: {seen:?})")
        });
        // The first frame goes out one period after takeover; the id is
        // decided *then*, so replicated frames still in flight at this
        // tag are never re-sent.
        let frames = self.frames.take().expect("the standby activates once");
        sim.schedule_in(frames.period, move |sim| frames.send(sim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> DetParams {
        DetParams {
            frames: 100,
            ..DetParams::default()
        }
    }

    #[test]
    fn deterministic_build_is_error_free() {
        let report = run_det(1, &small_params());
        assert_eq!(report.decisions.len(), 100, "every frame decided");
        assert_eq!(report.mismatches_cv, 0);
        assert_eq!(report.stp_violations, 0);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.untagged_dropped, 0);
        assert_eq!(report.wrong_decisions, 0);
        // Frames arrive in order, none dropped.
        let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn end_to_end_latency_is_the_constant_deadline_sum() {
        let params = small_params();
        let report = run_det(3, &params);
        // (Da + L) + (Dp + L) + (Dcv + L) = 10 + 30 + 30 = 70 ms.
        let expected = Duration::from_millis(70);
        for (i, &l) in report.end_to_end.iter().enumerate() {
            assert_eq!(l, expected, "decision {i}");
        }
    }

    #[test]
    fn decisions_identical_across_seeds() {
        let params = small_params();
        let fp: Vec<u64> = (0..5)
            .map(|s| run_det(s, &params).decision_fingerprint())
            .collect();
        for f in &fp[1..] {
            assert_eq!(*f, fp[0], "decision sequence must not depend on seed");
        }
    }

    #[test]
    fn centralized_coordination_is_observably_identical() {
        let mut params = small_params();
        params.frames = 50;
        params.record_traces = true;
        let dec = run_det(2, &params);
        params.coordination = Coordination::Centralized;
        let cen = run_det(2, &params);
        assert_eq!(dec.stage_traces, cen.stage_traces, "event traces");
        assert_eq!(dec.decision_fingerprint(), cen.decision_fingerprint());
        assert_eq!(cen.stp_violations, 0);
        // The grant machinery ran and was never outrun.
        assert!(cen.coordination.grants_received > 0);
        assert!(cen.coordination.within_bound);
        assert_eq!(cen.coordination.bound_breaches, 0);
        // Decentralized runs carry no coordination traffic at all.
        assert_eq!(dec.coordination.grants_received, 0);
    }

    fn failover_params(graceful: bool, heartbeat: Option<Duration>) -> DetParams {
        DetParams {
            frames: 120,
            redundancy: Some(RedundancyParams {
                primary_dies_after: 49,
                graceful,
                offer_ttl: Duration::from_millis(400),
                reoffer_period: Duration::from_millis(150),
                heartbeat_timeout: heartbeat,
            }),
            ..DetParams::default()
        }
    }

    #[test]
    fn graceful_failover_delivers_every_frame_exactly_once() {
        let report = run_det(1, &failover_params(true, None));
        let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
        assert_eq!(
            ids,
            (0..120).collect::<Vec<u64>>(),
            "no frame lost, none duplicated across the handover"
        );
        assert_eq!(report.mismatches_cv, 0);
        assert_eq!(report.stp_violations, 0);
        assert_eq!(report.wrong_decisions, 0);
        let fo = report.failover.expect("failover report");
        assert_eq!(fo.failovers, 1, "exactly one re-binding");
        // Graceful: the StopOffer triggers the re-binding at the very
        // tag the primary died.
        assert_eq!(fo.rebound_at, Some(fo.primary_died_at));
        let latency = fo.failover_latency.expect("backup delivered");
        assert!(
            latency > Duration::ZERO && latency < Duration::from_millis(100),
            "graceful handover costs about one frame period, got {latency}"
        );
    }

    #[test]
    fn crash_failover_rebinds_at_the_ttl_expiry_tag() {
        let params = failover_params(false, None);
        let red = params.redundancy.unwrap();
        let report = run_det(2, &params);
        let ids: Vec<u64> = report.decisions.iter().map(|d| d.frame_id).collect();
        assert_eq!(ids, (0..120).collect::<Vec<u64>>());
        let fo = report.failover.expect("failover report");
        assert_eq!(fo.failovers, 1);
        // Silent crash: the offer of the dead primary lapses exactly one
        // nanosecond after its last renewal's TTL ran out.
        let died = fo.primary_died_at;
        let renewals =
            i64::try_from(died.as_nanos()).expect("tag fits") / red.reoffer_period.as_nanos();
        let last_renewal = Instant::EPOCH + red.reoffer_period * renewals;
        assert_eq!(
            fo.rebound_at,
            Some(last_renewal + red.offer_ttl + Duration::from_nanos(1)),
            "died at {died}"
        );
        assert!(fo.failover_latency.unwrap() > red.offer_ttl / 2);
    }

    #[test]
    fn heartbeat_watchdog_beats_ttl_expiry() {
        let slow = run_det(3, &failover_params(false, None));
        let fast = run_det(3, &failover_params(false, Some(Duration::from_millis(150))));
        for r in [&slow, &fast] {
            assert_eq!(r.decisions.len(), 120);
            assert_eq!(r.failover.unwrap().failovers, 1);
        }
        let slow_latency = slow.failover.unwrap().failover_latency.unwrap();
        let fast_latency = fast.failover.unwrap().failover_latency.unwrap();
        assert!(
            fast_latency < slow_latency,
            "silence detection ({fast_latency}) must beat TTL expiry ({slow_latency})"
        );
    }

    #[test]
    fn failover_decisions_identical_across_seeds() {
        for params in [
            failover_params(true, None),
            failover_params(false, None),
            failover_params(false, Some(Duration::from_millis(150))),
        ] {
            let fp: Vec<u64> = (0..4)
                .map(|s| run_det(s, &params).decision_fingerprint())
                .collect();
            for f in &fp[1..] {
                assert_eq!(*f, fp[0], "decision sequence must not depend on seed");
            }
        }
    }

    #[test]
    fn failover_replay_is_byte_identical() {
        // The determinism claim under faults: the same seed replays the
        // whole run — including the crash, the SD churn and the
        // re-binding — with byte-identical per-stage event traces.
        let mut params = failover_params(false, Some(Duration::from_millis(150)));
        params.record_traces = true;
        let a = run_det(7, &params);
        let b = run_det(7, &params);
        assert_eq!(a.stage_traces, b.stage_traces);
        assert_eq!(a.failover, b.failover);
        assert_eq!(a.decision_fingerprint(), b.decision_fingerprint());
        assert!(!a.stage_traces.is_empty());
    }

    #[test]
    fn aggressive_deadlines_cause_observable_errors() {
        // "For certain applications it is acceptable to deliberately
        // introduce the possibility of sporadic errors by setting
        // deadlines to values lower than the actual WCET" (§IV.B). With
        // deadlines far below the stage compute time, events release
        // logically before the stage output physically arrives, so the
        // faults surface as observable errors — tag misalignment at CV,
        // safe-to-process violations, or deadline misses — never as
        // silent reordering.
        let mut params = small_params();
        params.frames = 50;
        params.deadlines.preprocessing = Duration::from_millis(2);
        params.deadlines.computer_vision = Duration::from_millis(2);
        let report = run_det(1, &params);
        let observable = report.mismatches_cv + report.stp_violations + report.deadline_misses;
        assert!(
            observable > 0,
            "deadlines far below stage compute must produce observable errors: {report:?}"
        );
        // But determinism of the decision *content* still holds.
        assert_eq!(report.wrong_decisions, 0);
    }
}
