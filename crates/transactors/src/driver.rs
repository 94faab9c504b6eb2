//! The pluggable coordination layer: a platform-driver abstraction that
//! lets the same transactors and scenarios run under either of DEAR's two
//! coordination strategies.
//!
//! * **Decentralized** (paper §III.A): each platform locally gates tags
//!   against its physical clock; safety comes from the `t + D + L + E`
//!   safe-to-process offset. Implemented by [`FederatedPlatform`].
//! * **Centralized**: a run-time infrastructure (RTI) tracks every
//!   federate's next-event tag and explicitly grants tag advances
//!   (NET/TAG/PTAG/LTC). Implemented by `dear-federation`'s
//!   `CoordinatedPlatform`, which layers the grant protocol *on top of*
//!   the same clock gating, so both drivers produce bit-identical event
//!   traces.
//!
//! Transactor `bind` methods accept any [`PlatformDriver`], which is what
//! makes the coordination layer pluggable: scenario code chooses a
//! [`Coordination`] strategy and constructs the matching driver; nothing
//! else changes.
//!
//! [`FederatedPlatform`]: crate::FederatedPlatform

use crate::config::{DearConfig, UntaggedPolicy};
use crate::outbox::OutboundMsg;
use crate::platform::PlatformCore;
use crate::stats::TransactorStats;
use dear_core::{PhysicalAction, ReactionId, Runtime, RuntimeError, RuntimeStats, Tag};
use dear_sim::{LatencyModel, Simulation};
use dear_someip::{FrameBuf, WireTag};
use std::fmt;
use std::rc::Rc;

/// Which coordination strategy a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coordination {
    /// PTIDES-style local gating via the `t + D + L + E` offset.
    #[default]
    Decentralized,
    /// RTI-granted tag advances (NET/TAG/PTAG/LTC protocol).
    Centralized,
}

impl fmt::Display for Coordination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coordination::Decentralized => f.write_str("decentralized"),
            Coordination::Centralized => f.write_str("centralized"),
        }
    }
}

/// A platform driver a transactor can bind to.
///
/// Implementors own a [`PlatformCore`] — the reactor [`Runtime`], the
/// platform's clock and outbox, and the shared scheduling rule — and
/// decide *when* the runtime may process tags (that is the coordination
/// strategy). Handles are cheap to clone and shared.
///
/// A platform's routes own the bindings they send through, so a handler
/// a transactor registers on a binding reaches the platform through
/// [`PlatformDriver::downgrade`]; a strong capture would make the two
/// own each other.
pub trait PlatformDriver: Clone + 'static {
    /// A handle that reaches the platform without keeping it alive.
    type Weak: Clone + 'static;

    /// The non-owning form of this handle.
    fn downgrade(&self) -> Self::Weak;

    /// The platform behind `weak`, unless every handle to it was dropped.
    fn upgrade(weak: &Self::Weak) -> Option<Self>;

    /// Runs a closure with mutable access to the platform's scheduling
    /// core.
    fn with_core<R>(&self, f: impl FnOnce(&mut PlatformCore) -> R) -> R;

    /// The platform's name.
    fn driver_name(&self) -> String {
        self.with_core(|core| core.name().to_owned())
    }

    /// Registers the interpreter for an outbox route.
    fn register_route(&self, route: u32, handler: impl Fn(&mut Simulation, OutboundMsg) + 'static) {
        self.with_core(|core| core.register_route(route, Rc::new(handler)));
    }

    /// Attaches a modelled compute cost to a reaction: each execution of
    /// the reaction occupies the platform's processor for a sampled
    /// duration, delaying subsequent tag processing — which is what makes
    /// deadlines meaningful in simulation.
    fn set_reaction_cost(&self, reaction: ReactionId, model: LatencyModel) {
        self.with_core(|core| core.set_reaction_cost(reaction, model));
    }

    /// Runs a closure with mutable access to the runtime (tracing,
    /// workers, statistics).
    fn with_runtime<R>(&self, f: impl FnOnce(&mut Runtime) -> R) -> R {
        self.with_core(|core| f(&mut core.runtime))
    }

    /// Runtime statistics snapshot.
    fn runtime_stats(&self) -> RuntimeStats {
        self.with_runtime(|rt| rt.stats())
    }

    /// Hands outbound messages to their registered route handlers, in
    /// order. The core is not borrowed while a handler runs, so handlers
    /// may re-enter the platform.
    fn dispatch(&self, sim: &mut Simulation, msgs: Vec<OutboundMsg>) {
        for msg in msgs {
            let handler = self.with_core(|core| core.route(msg.route));
            handler(sim, msg);
        }
    }

    /// Starts the runtime and arms the first wake-up.
    fn start(&self, sim: &mut Simulation);

    /// Injects a payload into a physical action at an exact tag — the
    /// PTIDES "schedule an action with tag `t + D + L + E`" step.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's error when the tag is no longer safe to
    /// process (counted by the runtime) or the runtime is not running.
    fn inject_at<T: Send + Sync + 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
        tag: Tag,
    ) -> Result<(), RuntimeError>;

    /// Injects a payload tagged with the local physical arrival time.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's error when the runtime is not running.
    fn inject_now<T: Send + Sync + 'static>(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<T>,
        value: T,
    ) -> Result<Tag, RuntimeError>;

    /// Delivers a received message to a physical action according to the
    /// DEAR rules: tagged messages are released at `wire_tag + L + E`
    /// (dropped as an STP violation when that tag is unrepresentable);
    /// untagged messages follow the configured [`UntaggedPolicy`].
    fn deliver(
        &self,
        sim: &mut Simulation,
        action: &PhysicalAction<FrameBuf>,
        payload: FrameBuf,
        wire_tag: Option<WireTag>,
        cfg: &DearConfig,
        stats: &TransactorStats,
    ) {
        match wire_tag {
            Some(w) => {
                let injected = cfg
                    .release_tag(w)
                    .is_some_and(|release| self.inject_at(sim, action, payload, release).is_ok());
                if !injected {
                    stats.record_stp_violation();
                }
            }
            None => match cfg.untagged {
                UntaggedPolicy::Fail => stats.record_untagged_dropped(),
                UntaggedPolicy::PhysicalTime => {
                    if self.inject_now(sim, action, payload).is_err() {
                        stats.record_stp_violation();
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordination_default_and_display() {
        assert_eq!(Coordination::default(), Coordination::Decentralized);
        assert_eq!(Coordination::Decentralized.to_string(), "decentralized");
        assert_eq!(Coordination::Centralized.to_string(), "centralized");
    }
}
