//! The reactor runtime: event queue, tag processing, and level-parallel
//! reaction execution.
//!
//! [`Runtime`] consumes a validated [`Program`] and processes tags in
//! strictly increasing order. At each tag, triggered reactions execute in
//! APG level order; reactions sharing a level are independent by
//! construction and may run on parallel worker threads without affecting
//! observable behaviour (verified by the `parallel_matches_sequential`
//! tests and property tests).
//!
//! The runtime is *poll-driven*: a driver decides **when** to call
//! [`Runtime::step`], passing the physical clock reading it observed. This
//! one design choice lets the identical runtime run under
//!
//! * a real-time executor (wait until the wall clock passes the next tag —
//!   see [`RealTimeExecutor`](crate::RealTimeExecutor)),
//! * the discrete-event platform simulator (the federated driver in
//!   `dear-transactors` schedules `step` calls at the simulated instant at
//!   which the platform's local clock passes the tag), and
//! * "fast mode" for tests ([`Runtime::step_fast`], no waiting at all).

use crate::context::{ReactionCtx, ReactionOutcome};
use crate::error::RuntimeError;
use crate::handles::{ActionId, PhysicalAction, PortId, ReactionId, ReactorId};
use crate::pool::WorkerPool;
use crate::program::{ActionKind, Program, Value};
use crate::queue::{Event, EventQueue};
use crate::tag::Tag;
use dear_arena::TypedArena;
use dear_observe::{EventKind, Lane, Observe};
use dear_sim::Trace;
use dear_time::{Duration, Instant};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;

/// Counters describing a runtime's activity so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Tags fully processed.
    pub processed_tags: u64,
    /// Reaction bodies (or deadline handlers) executed.
    pub executed_reactions: u64,
    /// Deadline violations observed.
    pub deadline_misses: u64,
    /// Safe-to-process violations rejected at injection.
    pub stp_violations: u64,
    /// Steps deferred because the earliest pending tag lay at or beyond
    /// the externally granted tag bound (centralized coordination).
    pub bound_deferrals: u64,
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tags={} reactions={} deadline_misses={} stp_violations={} bound_deferrals={}",
            self.processed_tags,
            self.executed_reactions,
            self.deadline_misses,
            self.stp_violations,
            self.bound_deferrals
        )
    }
}

/// Result of one [`Runtime::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A tag was processed.
    Processed(TagSummary),
    /// No pending events; the runtime is alive and waiting.
    Idle,
    /// The runtime has shut down.
    Stopped,
}

/// Summary of one processed tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagSummary {
    /// The processed tag.
    pub tag: Tag,
    /// Reactions executed at this tag.
    pub reactions: u32,
    /// Deadline misses at this tag.
    pub deadline_misses: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Created,
    Running,
    Stopped,
}

/// The reactor runtime.
///
/// # Examples
///
/// ```
/// use dear_core::{ProgramBuilder, Runtime, Startup};
/// use dear_time::Instant;
///
/// let mut b = ProgramBuilder::new();
/// let mut r = b.reactor("hello", 0u32);
/// r.reaction("greet")
///     .triggered_by(Startup)
///     .body(|count: &mut u32, _ctx| *count += 1);
/// r.finish();
///
/// let mut rt = Runtime::new(b.build()?);
/// rt.start(Instant::EPOCH);
/// rt.run_fast(u64::MAX);
/// assert_eq!(rt.stats().executed_reactions, 1);
/// # Ok::<(), dear_core::AssemblyError>(())
/// ```
pub struct Runtime {
    program: Arc<Program>,
    states: TypedArena<ReactorId, Option<Box<dyn Any + Send>>>,
    port_values: TypedArena<PortId, Option<Value>>,
    action_pending: TypedArena<ActionId, BTreeMap<Tag, Value>>,
    action_current: TypedArena<ActionId, Option<Value>>,
    queue: EventQueue,
    tag_bound: Option<Tag>,
    last_processed: Option<Tag>,
    phase: Phase,
    pool: Option<WorkerPool>,
    trace: Trace,
    /// Telemetry handle (disabled by default: every record is one branch).
    observe: Observe,
    /// The timeline lane this runtime's spans are drawn on.
    lane: Lane,
    /// Interned reaction names for typed trace records; built once when
    /// tracing is enabled so the traced hot path clones an `Arc` instead
    /// of formatting a `String` per event.
    reaction_names: TypedArena<ReactionId, Arc<str>>,
    stats: RuntimeStats,
    executed_log: Vec<ReactionId>,
    /// Reactions ready at the current tag, bucketed by APG level. Cleared
    /// (capacity retained) every tag, so triggering is allocation-free in
    /// steady state.
    ready_levels: Vec<Vec<ReactionId>>,
    /// Scratch buffer for the current same-level batch (reused).
    scratch_batch: Vec<ReactionId>,
    /// Scratch buffer for batch results (reused).
    scratch_results: Vec<(ReactionId, ReactionOutcome, bool)>,
    /// Scratch list of ports written at the current tag (reused).
    written: Vec<PortId>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("phase", &self.phase)
            .field("last_processed", &self.last_processed)
            .field("pending_events", &self.queue.pending_events())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime for the given program (sequential execution).
    #[must_use]
    pub fn new(program: Program) -> Self {
        let states =
            std::mem::take(&mut *program.states.lock().expect("program states poisoned")).map(Some);
        let port_values = TypedArena::from_fn(program.ports.len(), |_| None);
        let action_pending = TypedArena::from_fn(program.actions.len(), |_| BTreeMap::new());
        let action_current = TypedArena::from_fn(program.actions.len(), |_| None);
        let num_levels = program
            .reactions
            .iter()
            .map(|r| r.level as usize + 1)
            .max()
            .unwrap_or(0);
        Runtime {
            program: Arc::new(program),
            states,
            port_values,
            action_pending,
            action_current,
            queue: EventQueue::default(),
            tag_bound: None,
            last_processed: None,
            phase: Phase::Created,
            pool: None,
            trace: Trace::disabled(),
            observe: Observe::disabled(),
            lane: Lane::Sim,
            reaction_names: TypedArena::new(),
            stats: RuntimeStats::default(),
            executed_log: Vec::new(),
            ready_levels: (0..num_levels).map(|_| Vec::new()).collect(),
            scratch_batch: Vec::new(),
            scratch_results: Vec::new(),
            written: Vec::new(),
        }
    }

    /// The reactions executed at the most recently processed tag, in
    /// execution order. Drivers use this to attribute modelled compute
    /// cost to the platform (see `dear-transactors`).
    #[must_use]
    pub fn executed_at_last_tag(&self) -> &[ReactionId] {
        &self.executed_log
    }

    /// Sets the number of worker threads used for same-level reactions.
    ///
    /// `1` (the default) executes sequentially. Any higher value enables
    /// the level-parallel executor backed by a **persistent worker pool**:
    /// the pool's threads are spawned here, once, and reused across all
    /// batches, levels, and tags until the runtime is dropped (or the
    /// worker count changes). Observable behaviour is identical to
    /// sequential execution.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn set_workers(&mut self, workers: usize) {
        assert!(workers > 0, "need at least one worker");
        match &self.pool {
            _ if workers == 1 => self.pool = None,
            Some(pool) if pool.threads() == workers => {}
            _ => self.pool = Some(WorkerPool::new(workers)),
        }
    }

    /// Enables trace recording of reaction executions, deadline misses and
    /// STP violations (for determinism fingerprinting).
    pub fn enable_tracing(&mut self) {
        self.trace.set_enabled(true);
        self.intern_names();
    }

    /// Interns reaction names as `Arc<str>` so traced records share them.
    fn intern_names(&mut self) {
        if self.reaction_names.is_empty() {
            self.reaction_names = self
                .program
                .reactions
                .iter()
                .map(|r| Arc::from(r.name.as_str()))
                .collect();
        }
    }

    /// Attaches a telemetry handle and assigns this runtime's span lane.
    ///
    /// With an enabled handle the runtime counts tags / reactions /
    /// deadline misses into the `runtime/` metric scope, records the
    /// physical-vs-logical lag histogram under `coord/tag_lag_ns`, and
    /// draws one span per processed tag on `lane`. A disabled handle (the
    /// default) keeps the hot path zero-alloc, as the workspace's
    /// `tests/allocations.rs` asserts.
    pub fn set_observe(&mut self, observe: Observe, lane: Lane) {
        self.observe = observe;
        self.lane = lane;
    }

    /// The attached telemetry handle.
    #[must_use]
    pub fn observe(&self) -> &Observe {
        &self.observe
    }

    /// The recorded trace.
    #[must_use]
    pub fn trace_log(&self) -> &Trace {
        &self.trace
    }

    /// Takes the recorded trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        let enabled = self.trace.is_enabled();
        let replacement = if enabled {
            Trace::new()
        } else {
            Trace::disabled()
        };
        std::mem::replace(&mut self.trace, replacement)
    }

    /// Runtime statistics.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The program this runtime executes.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Starts the runtime: logical time is anchored at `now` (the platform
    /// clock reading), startup reactions are enqueued at tag `(now, 0)`,
    /// and timers at their offsets relative to `now`.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was already started.
    pub fn start(&mut self, now: Instant) {
        assert_eq!(self.phase, Phase::Created, "runtime already started");
        self.phase = Phase::Running;
        let start_tag = Tag::at(now);
        if !self.program.startup.is_empty() {
            self.queue.push(start_tag, Event::Startup);
        }
        for (tid, timer) in self.program.timers.iter_enumerated() {
            let tag = Tag::at(now + timer.offset);
            self.queue.push(tag, Event::Timer(tid));
        }
    }

    /// Returns `true` while the runtime can still process tags.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// The earliest pending tag, if any.
    #[must_use]
    pub fn next_tag(&self) -> Option<Tag> {
        self.queue.peek_tag()
    }

    /// The most recently processed tag.
    #[must_use]
    pub fn current_tag(&self) -> Option<Tag> {
        self.last_processed
    }

    /// Grants an *exclusive* upper bound on tag processing: [`step`] only
    /// processes tags strictly before `bound`.
    ///
    /// This is the hook through which a centralized coordinator (an RTI)
    /// gates the runtime. Bounds are monotone — a grant below the current
    /// bound is ignored, so out-of-order grant delivery is harmless. A
    /// runtime without a bound (the default, and every decentralized
    /// driver) is unrestricted.
    ///
    /// [`step`]: Runtime::step
    pub fn set_tag_bound(&mut self, bound: Tag) {
        match self.tag_bound {
            Some(current) if bound <= current => {}
            _ => self.tag_bound = Some(bound),
        }
    }

    /// The currently granted exclusive tag bound, if any.
    #[must_use]
    pub fn tag_bound(&self) -> Option<Tag> {
        self.tag_bound
    }

    /// The earliest pending tag that lies within the granted bound, if any.
    ///
    /// Equals [`next_tag`](Runtime::next_tag) when no bound is set.
    #[must_use]
    pub fn next_releasable_tag(&self) -> Option<Tag> {
        let head = self.next_tag()?;
        match self.tag_bound {
            Some(bound) if head >= bound => None,
            _ => Some(head),
        }
    }

    /// Schedules a shutdown at the given time.
    ///
    /// The shutdown tag is final: shutdown reactions run at it, and any
    /// events with later tags are discarded.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotRunning`] if the runtime is not running,
    /// or an STP violation if `time` is not after the current tag.
    pub fn stop_at(&mut self, time: Instant) -> Result<(), RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        let tag = Tag::at(time);
        if let Some(last) = self.last_processed {
            if tag <= last {
                return Err(RuntimeError::StpViolation {
                    requested: tag,
                    current: last,
                });
            }
        }
        self.queue.push(tag, Event::Shutdown);
        Ok(())
    }

    /// Injects a physical action event with a tag derived from the given
    /// physical clock reading: `(now + min_delay, 0)`, bumped to the next
    /// microstep after the current tag if that lies in the logical past,
    /// then to the first microstep this action has no pending event at —
    /// so no two injections ever collide (a collision would silently
    /// overwrite the earlier value, the class of silent corruption §IV.B
    /// requires to be impossible).
    ///
    /// Returns the tag actually assigned.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotRunning`] outside the running phase.
    pub fn schedule_physical<T: Send + Sync + 'static>(
        &mut self,
        action: &PhysicalAction<T>,
        value: T,
        now: Instant,
    ) -> Result<Tag, RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        let tag = self.next_physical_tag(action.id, now);
        self.insert_action_event(action.id, tag, Box::new(value));
        Ok(tag)
    }

    /// Injects a physical action event at an exact tag, as the PTIDES-style
    /// transactors do with `t + D + L + E` (paper §III.B).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::StpViolation`] — and counts it — if `tag` is
    /// not strictly after the current tag: the configured bounds were
    /// violated, and instead of silently corrupting event order the fault
    /// becomes observable ("the reactor semantics ... translates any
    /// violation of one of the assumptions directly into observable
    /// errors", §IV.B).
    pub fn schedule_physical_at<T: Send + Sync + 'static>(
        &mut self,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        debug_assert_eq!(
            self.program.actions[action.id].kind,
            ActionKind::Physical,
            "schedule_physical_at requires a physical action"
        );
        if let Some(last) = self.last_processed {
            if tag <= last {
                self.stats.stp_violations += 1;
                self.observe.count("runtime/stp_violations", 1);
                let name = &self.program.actions[action.id].name;
                self.trace
                    .record_event(tag.time, "stp-violation", || EventKind::StpViolation {
                        name: Arc::from(name.as_str()),
                        requested: tag.as_logical(),
                        current: last.as_logical(),
                    });
                return Err(RuntimeError::StpViolation {
                    requested: tag,
                    current: last,
                });
            }
        }
        self.insert_action_event(action.id, tag, Box::new(value));
        Ok(())
    }

    /// Type-erased physical injection used by executors that carry values
    /// through channels (see [`RealTimeExecutor`](crate::RealTimeExecutor)).
    ///
    /// Semantics are identical to [`Runtime::schedule_physical`].
    pub(crate) fn schedule_physical_raw(
        &mut self,
        action: ActionId,
        value: Value,
        now: Instant,
    ) -> Result<Tag, RuntimeError> {
        if self.phase != Phase::Running {
            return Err(RuntimeError::NotRunning);
        }
        let tag = self.next_physical_tag(action, now);
        self.insert_action_event(action, tag, value);
        Ok(tag)
    }

    /// Computes the tag for a physical injection observed at `now`:
    /// `(now + min_delay, 0)`, bumped strictly past the current tag and
    /// then to the first microstep not already occupied by a pending
    /// event of this action.
    ///
    /// The occupancy scan is the lost-event guard: `action_pending` is
    /// keyed by tag, so two injections landing between two steps — which
    /// both used to bump to `(last, m+1)` — would have the second silently
    /// overwrite the first. Skipping exactly the occupied microsteps keeps
    /// every injection observable once *without* re-tagging it behind an
    /// unrelated event already pending at a later time (e.g. a tagged
    /// message released via [`schedule_physical_at`] in the future).
    ///
    /// [`schedule_physical_at`]: Runtime::schedule_physical_at
    fn next_physical_tag(&self, action: ActionId, now: Instant) -> Tag {
        let min_delay = self.program.actions[action].min_delay;
        let mut tag = Tag::at(now + min_delay);
        if let Some(last) = self.last_processed {
            if tag <= last {
                tag = last.delay(Duration::ZERO);
            }
        }
        let pending = &self.action_pending[action];
        while pending.contains_key(&tag) {
            tag = tag.delay(Duration::ZERO);
        }
        tag
    }

    fn insert_action_event(&mut self, action: ActionId, tag: Tag, value: Value) {
        self.action_pending[action].insert(tag, value);
        self.queue.push(tag, Event::Action(action));
    }

    /// Processes the earliest pending tag.
    ///
    /// `physical_now` is the driver's physical clock reading; it is used
    /// for deadline checks and exposed to reactions via
    /// [`ReactionCtx::physical_time`]. The runtime itself never waits —
    /// callers enforce the "no event is handled before physical time
    /// exceeds its tag" rule appropriate to their environment.
    pub fn step(&mut self, physical_now: Instant) -> StepOutcome {
        match self.phase {
            Phase::Created => panic!("Runtime::start must be called before step"),
            Phase::Stopped => return StepOutcome::Stopped,
            Phase::Running => {}
        }
        if let (Some(head), Some(bound)) = (self.next_tag(), self.tag_bound) {
            if head >= bound {
                self.stats.bound_deferrals += 1;
                self.observe.count("runtime/bound_deferrals", 1);
                return StepOutcome::Idle;
            }
        }
        let Some((tag, mut entry)) = self.queue.pop_tag() else {
            return StepOutcome::Idle;
        };
        debug_assert!(
            self.last_processed.is_none_or(|last| tag > last),
            "tags must be processed in increasing order"
        );
        self.last_processed = Some(tag);
        self.executed_log.clear();
        let stopping = entry.shutdown;

        // Collect triggered reactions into the per-level ready buckets
        // (reused across tags — no allocation in steady state).
        debug_assert!(self.ready_levels.iter().all(Vec::is_empty));
        entry.actions.sort_unstable();
        entry.actions.dedup();
        for &a in &entry.actions {
            if let Some(v) = self.action_pending[a].remove(&tag) {
                self.action_current[a] = Some(v);
            }
            for &r in &self.program.actions[a].triggered {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
        }
        for &t in &entry.timers {
            for &r in &self.program.timers[t].triggered {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
            if let Some(period) = self.program.timers[t].period {
                let next = Tag::at(tag.time + period);
                self.queue.push(next, Event::Timer(t));
            }
        }
        if entry.startup {
            for &r in &self.program.startup {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
        }
        if stopping {
            for &r in &self.program.shutdown {
                self.ready_levels[self.program.reactions[r].level as usize].push(r);
            }
        }

        // Execute in level order; same-level batches may run in parallel.
        // Reactions can only ever enqueue work at *higher* levels (the APG
        // is acyclic), so one ascending sweep visits everything.
        let mut reactions_run = 0u32;
        let mut misses = 0u32;
        let mut shutdown_requested = false;
        for level in 0..self.ready_levels.len() {
            if self.ready_levels[level].is_empty() {
                continue;
            }
            let mut batch = std::mem::take(&mut self.scratch_batch);
            batch.append(&mut self.ready_levels[level]);
            batch.sort_unstable();
            batch.dedup();
            let mut outcomes = std::mem::take(&mut self.scratch_results);
            self.execute_batch(tag, physical_now, &batch, &mut outcomes);
            for (rid, outcome, missed) in outcomes.drain(..) {
                reactions_run += 1;
                self.stats.executed_reactions += 1;
                self.executed_log.push(rid);
                let names = &self.reaction_names;
                if missed {
                    misses += 1;
                    self.stats.deadline_misses += 1;
                    self.trace.record_event(tag.time, "deadline-miss", || {
                        EventKind::DeadlineMiss {
                            name: names[rid].clone(),
                            tag: tag.as_logical(),
                        }
                    });
                } else {
                    self.trace
                        .record_event(tag.time, "reaction", || EventKind::Reaction {
                            name: names[rid].clone(),
                            tag: tag.as_logical(),
                        });
                }
                shutdown_requested |= outcome.shutdown;
                for (port, value) in outcome.writes {
                    if self.port_values[port].is_none() {
                        self.written.push(port);
                    }
                    self.port_values[port] = Some(value);
                    for &r in &self.program.ports[port].sinks_trigger {
                        let sink_level = self.program.reactions[r].level as usize;
                        debug_assert!(sink_level > level);
                        self.ready_levels[sink_level].push(r);
                    }
                }
                for (action, atag, value) in outcome.schedules {
                    debug_assert!(atag > tag);
                    self.insert_action_event(action, atag, value);
                }
            }
            batch.clear();
            self.scratch_batch = batch;
            self.scratch_results = outcomes;
        }

        // Post-tag cleanup (scratch buffers keep their capacity; the tag
        // entry's buffers go back to the queue's free list).
        for p in self.written.drain(..) {
            self.port_values[p] = None;
        }
        for &a in &entry.actions {
            self.action_current[a] = None;
        }
        if stopping {
            self.phase = Phase::Stopped;
            self.queue.clear();
        } else if shutdown_requested {
            self.queue.push(tag.delay(Duration::ZERO), Event::Shutdown);
        }
        self.queue.recycle(entry);
        self.stats.processed_tags += 1;
        if self.observe.is_enabled() {
            self.observe.count("runtime/tags", 1);
            self.observe
                .count("runtime/reactions", u64::from(reactions_run));
            if misses > 0 {
                self.observe
                    .count("runtime/deadline_misses", u64::from(misses));
            }
            // The span covers the tag's logical instant up to the physical
            // clock reading the driver processed it at: its length *is*
            // the processing lag a coordinator imposed on this tag.
            self.observe
                .record_duration("coord/tag_lag_ns", physical_now - tag.time);
            self.observe.span_tagged(
                self.lane,
                "tag",
                tag.time,
                physical_now.max(tag.time),
                tag.as_logical(),
            );
        }
        StepOutcome::Processed(TagSummary {
            tag,
            reactions: reactions_run,
            deadline_misses: misses,
        })
    }

    /// Processes the next tag with zero physical lag ("fast mode": the
    /// physical clock is assumed to read exactly the tag's time).
    ///
    /// With an empty queue this returns [`StepOutcome::Idle`] (or
    /// [`StepOutcome::Stopped`]) directly instead of fabricating a
    /// physical-clock reading: handing [`step`](Runtime::step) an epoch
    /// reading could lie before previously observed physical time, and a
    /// runtime must never see the clock run backwards.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was never started, like `step`.
    pub fn step_fast(&mut self) -> StepOutcome {
        match self.next_tag() {
            Some(tag) => self.step(tag.time),
            None => match self.phase {
                Phase::Created => panic!("Runtime::start must be called before step"),
                Phase::Stopped => StepOutcome::Stopped,
                Phase::Running => StepOutcome::Idle,
            },
        }
    }

    /// Runs in fast mode until idle, stopped, or `max_tags` processed.
    ///
    /// Returns the number of tags processed.
    pub fn run_fast(&mut self, max_tags: u64) -> u64 {
        let mut n = 0;
        while n < max_tags {
            match self.step_fast() {
                StepOutcome::Processed(_) => n += 1,
                StepOutcome::Idle | StepOutcome::Stopped => break,
            }
        }
        n
    }

    fn execute_batch(
        &mut self,
        tag: Tag,
        physical: Instant,
        batch: &[ReactionId],
        out: &mut Vec<(ReactionId, ReactionOutcome, bool)>,
    ) {
        match &self.pool {
            Some(pool) if batch.len() > 1 => {
                // Partition the batch into at most `threads` contiguous
                // chunks and hand them to the persistent pool. The
                // port/action value arenas move behind `Arc`s for the
                // duration of the batch and are reclaimed exclusively once
                // every worker has reported back. The result channel is
                // deliberately per-batch: every job holds a sender clone,
                // so if a reaction panics on a worker the senders drop and
                // `recv` fails fast — a persistent channel would deadlock
                // the runtime thread instead of surfacing the panic.
                let workers = pool.threads().min(batch.len());
                let chunk_size = batch.len().div_ceil(workers);
                let ports = Arc::new(std::mem::take(&mut self.port_values));
                let actions = Arc::new(std::mem::take(&mut self.action_current));
                let (tx, rx) = mpsc::channel();
                let mut jobs = 0usize;
                for chunk_ids in batch.chunks(chunk_size) {
                    // Take each involved reactor's state out of the arena.
                    // Two reactions of the same reactor can never share a
                    // level (they are ordered by priority), so every take
                    // succeeds.
                    let chunk: Vec<(ReactionId, Box<dyn Any + Send>)> = chunk_ids
                        .iter()
                        .map(|&rid| {
                            let reactor = self.program.reactions[rid].reactor;
                            let state = self.states[reactor]
                                .take()
                                .expect("reactor state aliased within a level");
                            (rid, state)
                        })
                        .collect();
                    let program = Arc::clone(&self.program);
                    let ports = Arc::clone(&ports);
                    let actions = Arc::clone(&actions);
                    let tx = tx.clone();
                    pool.submit(Box::new(move || {
                        let results: Vec<_> = chunk
                            .into_iter()
                            .map(|(rid, mut state)| {
                                let (outcome, missed) = run_reaction(
                                    &program,
                                    rid,
                                    state.as_mut(),
                                    tag,
                                    physical,
                                    &ports,
                                    &actions,
                                );
                                (rid, state, outcome, missed)
                            })
                            .collect();
                        // Release the arena borrows *before* reporting
                        // completion: the send happens-before the main
                        // thread's recv, so once every result has arrived
                        // the main thread holds the only Arc.
                        drop(ports);
                        drop(actions);
                        tx.send(results).expect("runtime thread waiting");
                    }));
                    jobs += 1;
                }
                drop(tx);
                let mut results = Vec::with_capacity(batch.len());
                for _ in 0..jobs {
                    results.extend(rx.recv().expect("reaction panicked on a pool worker"));
                }
                self.port_values = Arc::try_unwrap(ports)
                    .map_err(|_| "port arena still shared")
                    .expect("workers released the port arena");
                self.action_current = Arc::try_unwrap(actions)
                    .map_err(|_| "action arena still shared")
                    .expect("workers released the action arena");
                for (rid, state, outcome, missed) in results {
                    let reactor = self.program.reactions[rid].reactor;
                    self.states[reactor] = Some(state);
                    out.push((rid, outcome, missed));
                }
                // Pool results arrive in completion order; apply outcomes
                // in deterministic reaction-id order.
                out.sort_by_key(|(rid, _, _)| *rid);
            }
            _ => {
                // Sequential fast path: no intermediate collections — in
                // steady state this executes a whole batch with zero heap
                // allocations. `batch` is already sorted (and reactions
                // run in order), so `out` needs no sort.
                for &rid in batch {
                    let reactor = self.program.reactions[rid].reactor;
                    let mut state = self.states[reactor]
                        .take()
                        .expect("reactor state aliased within a level");
                    let (outcome, missed) = run_reaction(
                        &self.program,
                        rid,
                        state.as_mut(),
                        tag,
                        physical,
                        &self.port_values,
                        &self.action_current,
                    );
                    self.states[reactor] = Some(state);
                    out.push((rid, outcome, missed));
                }
            }
        }
    }
}

fn run_reaction(
    program: &Program,
    rid: ReactionId,
    state: &mut (dyn Any + Send),
    tag: Tag,
    physical: Instant,
    ports: &TypedArena<PortId, Option<Value>>,
    actions: &TypedArena<ActionId, Option<Value>>,
) -> (ReactionOutcome, bool) {
    let meta = &program.reactions[rid];
    let missed = meta.deadline.is_some_and(|d| physical > tag.time + d);
    let mut ctx = ReactionCtx {
        tag,
        physical,
        program,
        reaction: rid,
        ports,
        actions,
        outcome: ReactionOutcome::default(),
    };
    if missed {
        let handler = meta
            .deadline_handler
            .as_ref()
            .expect("deadline implies handler");
        (handler.lock().expect("deadline handler poisoned"))(state, &mut ctx);
    } else {
        (meta.body.lock().expect("reaction body poisoned"))(state, &mut ctx);
    }
    (ctx.outcome, missed)
}
