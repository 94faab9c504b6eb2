//! Shared configuration and tag conversion for the DEAR layer.

use dear_core::Tag;
use dear_someip::{WeakBinding, WireTag};
use dear_time::{Duration, Instant};

/// What a transactor does with a message that carries no tag.
///
/// "The default behavior of our transactors is to fail when receiving
/// messages without an associated timestamp, but they can also be
/// configured to tag received messages with the physical time at which
/// they are received" (paper §III.B). The latter treats legacy senders
/// like sporadic sensors and enables gradual migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UntaggedPolicy {
    /// Reject (count and drop) untagged messages.
    #[default]
    Fail,
    /// Tag untagged messages with the local physical arrival time.
    PhysicalTime,
}

/// Per-deployment bounds used in the safe-to-process offset `D + L + E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DearConfig {
    /// Worst-case network latency `L` between the communicating platforms.
    pub latency_bound: Duration,
    /// Worst-case clock synchronization error `E`.
    pub clock_error: Duration,
    /// Policy for untagged messages.
    pub untagged: UntaggedPolicy,
}

impl DearConfig {
    /// Creates a configuration with the given bounds and the default
    /// (fail) untagged policy.
    #[must_use]
    pub fn new(latency_bound: Duration, clock_error: Duration) -> Self {
        DearConfig {
            latency_bound,
            clock_error,
            untagged: UntaggedPolicy::Fail,
        }
    }

    /// Switches to physical-time tagging of untagged messages.
    #[must_use]
    pub fn accept_untagged(mut self) -> Self {
        self.untagged = UntaggedPolicy::PhysicalTime;
        self
    }

    /// The safe-to-process offset `L + E` added to received tags.
    #[must_use]
    pub fn stp_offset(&self) -> Duration {
        self.latency_bound + self.clock_error
    }

    /// The tag at which a message carrying wire tag `wire` is released on
    /// the receiving platform: `wire + L + E`. `None` when that lies
    /// beyond the representable time range; callers drop such a message
    /// and count it as an STP violation, like any unschedulable tag.
    pub(crate) fn release_tag(&self, wire: WireTag) -> Option<Tag> {
        let base = wire_to_tag(wire);
        let time = base.time.checked_add(self.stp_offset())?;
        Some(Tag::new(time, base.microstep))
    }
}

/// Converts a reactor tag to its wire representation.
#[must_use]
pub fn tag_to_wire(tag: Tag) -> WireTag {
    WireTag::new(tag.time.as_nanos(), tag.microstep)
}

/// The tag a message `binding` just received was sent at: the incoming
/// timestamp bypass (Fig. 3 steps 10 and 21), else the message's own.
/// Handlers stored in the binding reach it weakly (see
/// [`Binding::on_event`]).
///
/// [`Binding::on_event`]: dear_someip::Binding::on_event
pub(crate) fn received_tag(binding: &WeakBinding, msg_tag: Option<WireTag>) -> Option<WireTag> {
    binding
        .upgrade()
        .and_then(|binding| binding.take_incoming_tag())
        .or(msg_tag)
}

/// Converts a wire tag back to a reactor tag.
#[must_use]
pub fn wire_to_tag(wire: WireTag) -> Tag {
    Tag::new(Instant::from_nanos(wire.nanos), wire.microstep)
}

/// Addressing of one method within a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSpec {
    /// Service id.
    pub service: u16,
    /// Instance id.
    pub instance: u16,
    /// Method id.
    pub method: u16,
}

/// Addressing of one event within a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    /// Service id.
    pub service: u16,
    /// Instance id.
    pub instance: u16,
    /// Eventgroup id.
    pub eventgroup: u16,
    /// Event id.
    pub event: u16,
}

/// Addressing of one event within a *redundant provider group*: no fixed
/// instance id — the [`FailoverBinding`](crate::FailoverBinding) tracks
/// whichever provider instance is currently the best offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverEventSpec {
    /// Service id.
    pub service: u16,
    /// Eventgroup id.
    pub eventgroup: u16,
    /// Event id.
    pub event: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_wire_roundtrip() {
        let tag = Tag::new(Instant::from_nanos(123_456_789), 42);
        assert_eq!(wire_to_tag(tag_to_wire(tag)), tag);
    }

    #[test]
    fn stp_offset_adds_bounds() {
        let cfg = DearConfig::new(Duration::from_millis(5), Duration::from_micros(500));
        assert_eq!(
            cfg.stp_offset(),
            Duration::from_millis(5) + Duration::from_micros(500)
        );
        assert_eq!(cfg.untagged, UntaggedPolicy::Fail);
        assert_eq!(cfg.accept_untagged().untagged, UntaggedPolicy::PhysicalTime);
    }
}
