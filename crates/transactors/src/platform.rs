//! The federated platform driver: one reactor runtime per platform,
//! coordinated through the discrete-event simulation.
//!
//! A [`FederatedPlatform`] owns a [`Runtime`] and the platform's
//! [`VirtualClock`]. It enforces the reactor rule that no event is
//! processed before the *local physical clock* passes the event's tag:
//! for the earliest pending tag `g`, it schedules a simulation wake-up at
//! the true time at which the local clock reads `g.time` (or later, if
//! the platform is still busy with modelled compute). Combined with the
//! transactors' `t + D + L + E` tag arithmetic this yields the
//! decentralized PTIDES-style coordination of the paper's §III.A —
//! deterministic distributed execution without a central coordinator.
//!
//! The scheduling rule itself lives in [`PlatformCore`], which
//! `dear-federation`'s `CoordinatedPlatform` embeds too: both drivers
//! wake, step, charge compute and dispatch outputs through the same code,
//! and the coordinated one only adds the grant gate on top.

use crate::driver::PlatformDriver;
use crate::outbox::{OutboundMsg, Outbox};
use dear_core::{PhysicalAction, ReactionId, Runtime, RuntimeStats, StepOutcome, Tag};
use dear_sim::{LatencyModel, SimRng, Simulation, VirtualClock};
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::{Rc, Weak};

type RouteHandler = Rc<dyn Fn(&mut Simulation, OutboundMsg)>;

/// The scheduling state and rule every platform driver shares: the
/// runtime, its clock and outbox, the route and compute-cost tables, and
/// the wake-up bookkeeping that paces tags to the local clock.
pub struct PlatformCore {
    name: String,
    /// The platform's reactor runtime.
    pub runtime: Runtime,
    clock: VirtualClock,
    outbox: Outbox,
    // BTreeMaps so that no observable behaviour can ever depend on hasher
    // state (the route table is only keyed lookups today, but this is a
    // determinism repo — iteration order must be boring by construction).
    routes: BTreeMap<u32, RouteHandler>,
    costs: BTreeMap<ReactionId, LatencyModel>,
    cost_rng: SimRng,
    /// True time until which the platform's processor is busy.
    busy_until: Instant,
    generation: u64,
    /// True time of the currently armed wake-up, if one is pending.
    ///
    /// Re-arms that would not change the wake time are suppressed so
    /// that grant arrivals never reshuffle same-instant event order —
    /// that is what keeps centralized traces bit-identical to
    /// decentralized ones.
    armed_wake: Option<Instant>,
    started: bool,
}

/// What [`PlatformCore::arm`] asks its driver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Schedule a wake-up at this true time, handing the generation back
    /// to [`PlatformCore::take_wake`] when it fires.
    At(Instant, u64),
    /// The earliest pending tag lies beyond the granted bound.
    Blocked,
    /// Nothing to schedule: the runtime is not running, nothing is
    /// pending, or a wake-up for this instant is already pending.
    Idle,
}

/// One [`PlatformCore::step`]: the runtime's outcome and the modelled
/// compute it was charged.
#[derive(Debug, Clone, Copy)]
pub struct CoreStep {
    /// What the runtime did.
    pub outcome: StepOutcome,
    /// The local clock reading the step ran at.
    pub local: Instant,
    /// True time at which a processed tag's modelled compute began.
    pub busy_from: Instant,
    /// True time at which it ends: the tag's outputs leave the platform
    /// then (the skeleton promise resolves), not when the tag starts.
    pub busy_until: Instant,
}

impl PlatformCore {
    /// Creates a core around a built runtime.
    ///
    /// `outbox` must be the same outbox the platform's transactors were
    /// declared with; `cost_rng` drives the compute-time models.
    #[must_use]
    pub fn new(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
    ) -> Self {
        PlatformCore {
            name: name.into(),
            runtime,
            clock,
            outbox,
            routes: BTreeMap::new(),
            costs: BTreeMap::new(),
            cost_rng,
            busy_until: Instant::EPOCH,
            generation: 0,
            armed_wake: None,
            started: false,
        }
    }

    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether [`PlatformCore::start`] ran.
    #[must_use]
    pub fn started(&self) -> bool {
        self.started
    }

    /// The local clock reading at true time `now`.
    #[must_use]
    pub fn local_time(&self, now: Instant) -> Instant {
        self.clock.local_time(now)
    }

    /// Takes the outputs the runtime's transactors queued since the last
    /// call, in production order.
    #[must_use]
    pub fn take_outputs(&self) -> Vec<OutboundMsg> {
        self.outbox.drain()
    }

    pub(crate) fn register_route(&mut self, route: u32, handler: RouteHandler) {
        self.routes.insert(route, handler);
    }

    pub(crate) fn set_reaction_cost(&mut self, reaction: ReactionId, model: LatencyModel) {
        self.costs.insert(reaction, model);
    }

    /// The handler registered for `route`.
    ///
    /// # Panics
    ///
    /// Panics if no handler is registered: an output nobody interprets
    /// is a wiring bug, not a droppable message.
    pub(crate) fn route(&self, route: u32) -> RouteHandler {
        match self.routes.get(&route) {
            Some(h) => h.clone(),
            None => panic!(
                "outbox message for unregistered route {route} on platform {}",
                self.name
            ),
        }
    }

    /// Starts the runtime anchored at the local clock reading for true
    /// time `now`, and returns that anchor.
    ///
    /// # Panics
    ///
    /// Panics if the core already started.
    pub fn start(&mut self, now: Instant) -> Instant {
        assert!(!self.started, "platform already started");
        self.started = true;
        let local_now = self.clock.local_time(now);
        self.runtime.start(local_now);
        local_now
    }

    /// The wake-up due for the earliest *releasable* tag at true time
    /// `now`: when the local clock reaches the tag, the processor is free
    /// and the simulation is there. A pending wake-up for the same
    /// instant is kept; any other pending one is superseded.
    pub fn arm(&mut self, now: Instant) -> Wake {
        if !self.started || !self.runtime.is_running() || self.runtime.next_tag().is_none() {
            return Wake::Idle;
        }
        let Some(tag) = self.runtime.next_releasable_tag() else {
            self.armed_wake = None;
            return Wake::Blocked;
        };
        let tag_true = self.clock.true_time_at_local(tag.time);
        let wake = tag_true.max(self.busy_until).max(now);
        if self.armed_wake == Some(wake) {
            return Wake::Idle;
        }
        self.armed_wake = Some(wake);
        self.generation += 1;
        Wake::At(wake, self.generation)
    }

    /// Claims a firing wake-up: `false` when a later arm superseded it
    /// (or [`PlatformCore::strand`] stranded it) and it must no-op.
    pub fn take_wake(&mut self, generation: u64) -> bool {
        let current = generation == self.generation;
        if current {
            self.armed_wake = None;
        }
        current
    }

    /// Processes one tag at true time `now` and charges the modelled
    /// compute cost of the reactions it ran to the processor.
    pub fn step(&mut self, now: Instant) -> CoreStep {
        let local = self.clock.local_time(now);
        let outcome = self.runtime.step(local);
        let mut busy_from = now;
        if let StepOutcome::Processed(_) = outcome {
            let mut total = Duration::ZERO;
            for rid in self.runtime.executed_at_last_tag() {
                if let Some(model) = self.costs.get(rid) {
                    total += model.sample(&mut self.cost_rng);
                }
            }
            busy_from = self.busy_until.max(now);
            self.busy_until = busy_from + total;
        }
        CoreStep {
            outcome,
            local,
            busy_from,
            busy_until: self.busy_until,
        }
    }

    /// Strands every pending wake-up and drops undrained outputs (a
    /// process crash).
    pub fn strand(&mut self) {
        self.generation += 1;
        self.armed_wake = None;
        let _ = self.outbox.drain();
    }

    /// Swaps in a fresh runtime with an idle processor (a process
    /// restart).
    pub fn restart(&mut self, fresh: Runtime) {
        self.runtime = fresh;
        self.busy_until = Instant::EPOCH;
        self.armed_wake = None;
    }
}

/// A platform participating in a federated DEAR deployment.
///
/// Cheap to clone; clones share the platform.
#[derive(Clone)]
pub struct FederatedPlatform(Rc<RefCell<PlatformCore>>);

impl fmt::Debug for FederatedPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.0.borrow();
        f.debug_struct("FederatedPlatform")
            .field("name", &core.name)
            .field("started", &core.started)
            .field("busy_until", &core.busy_until)
            .finish()
    }
}

impl FederatedPlatform {
    /// Creates a platform around a built runtime.
    ///
    /// `outbox` must be the same outbox the platform's transactors were
    /// declared with; `cost_rng` drives the compute-time models.
    #[must_use]
    pub fn new(
        name: &str,
        runtime: Runtime,
        clock: VirtualClock,
        outbox: Outbox,
        cost_rng: SimRng,
    ) -> Self {
        let core = PlatformCore::new(name, runtime, clock, outbox, cost_rng);
        FederatedPlatform(Rc::new(RefCell::new(core)))
    }

    /// Runs a closure with mutable access to the runtime (tracing,
    /// workers, statistics).
    pub fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        PlatformDriver::with_runtime(self, f)
    }

    /// Runtime statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.runtime_stats()
    }

    /// Starts the runtime (anchored at the platform's local clock) and
    /// arms the first wake-up.
    pub fn start(&self, sim: &mut Simulation) {
        PlatformDriver::start(self, sim);
    }

    /// Requests runtime shutdown at the given local time.
    pub fn stop_at_local(&self, sim: &mut Simulation, local: Instant) {
        let _ = self.0.borrow_mut().runtime.stop_at(local);
        self.arm(sim);
    }

    /// Schedules the next wake-up for the earliest pending tag.
    fn arm(&self, sim: &mut Simulation) {
        let wake = self.0.borrow_mut().arm(sim.now());
        if let Wake::At(at, generation) = wake {
            let platform = self.clone();
            sim.schedule_at(at, move |sim| platform.on_wake(sim, generation));
        }
    }

    fn on_wake(&self, sim: &mut Simulation, generation: u64) {
        // Process one tag, attribute its compute cost, drain the outbox,
        // then re-arm. Superseded wake-ups (a newer arm happened) no-op.
        let step = {
            let mut core = self.0.borrow_mut();
            if !core.take_wake(generation) {
                return;
            }
            core.step(sim.now())
        };
        if let StepOutcome::Processed(_) = step.outcome {
            if step.busy_until > sim.now() {
                let platform = self.clone();
                sim.schedule_at(step.busy_until, move |sim| platform.drain_outbox(sim));
            } else {
                self.drain_outbox(sim);
            }
        }
        self.arm(sim);
    }

    fn drain_outbox(&self, sim: &mut Simulation) {
        let msgs = self.0.borrow().take_outputs();
        self.dispatch(sim, msgs);
    }
}

impl PlatformDriver for FederatedPlatform {
    type Weak = Weak<RefCell<PlatformCore>>;

    fn downgrade(&self) -> Self::Weak {
        Rc::downgrade(&self.0)
    }

    fn upgrade(weak: &Self::Weak) -> Option<Self> {
        weak.upgrade().map(FederatedPlatform)
    }

    fn with_core<R>(&self, f: impl FnOnce(&mut PlatformCore) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    fn start(&self, sim: &mut Simulation) {
        {
            let mut core = self.0.borrow_mut();
            let observe = sim.observe().clone();
            if observe.is_enabled() {
                let lane = observe.register_federate_lane(&core.name);
                core.runtime.set_observe(observe, lane);
            }
            core.start(sim.now());
        }
        self.arm(sim);
    }

    /// STP violations are counted in the runtime statistics and reported
    /// to the caller; the event is dropped (observable error, paper
    /// §IV.B).
    fn inject_at<T: Send + Sync + 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), dear_core::RuntimeError> {
        let result = self
            .0
            .borrow_mut()
            .runtime
            .schedule_physical_at(action, value, tag);
        if result.is_ok() {
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
            let mut core = self.0.borrow_mut();
            let local_now = core.local_time(sim.now());
            core.runtime.schedule_physical(action, value, local_now)
        };
        if result.is_ok() {
            self.arm(sim);
        }
        result
    }
}
