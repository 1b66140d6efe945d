//! Bounded message traces for debugging and for the Figure-1 style
//! step-by-step illustrations.

use freelunch_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// How much per-message trace work the engine performs.
///
/// Tracing is a debugging and illustration tool; it is priced per message,
/// so the engine gates it behind this mode instead of paying for it
/// unconditionally. The default is [`TraceMode::Off`]: the hot dispatch
/// path does no per-message trace work at all (message *counts* remain
/// exact in [`ExecutionMetrics`](crate::metrics::ExecutionMetrics) and the
/// [`MessageLedger`](crate::metrics::MessageLedger) regardless).
///
/// Under [`TraceMode::Full`] the round barrier's one canonical delivery
/// also records an event per message, so events appear in canonical
/// (sender-major) order; the barrier itself is the same in both modes.
/// Outputs, metrics and the ledger are bit-identical between the two modes
/// — `tests/determinism_matrix.rs` pins this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceMode {
    /// No per-message recording: the trace stays empty (the default).
    #[default]
    Off,
    /// Record every message event, storing up to
    /// [`NetworkConfig::trace_capacity`](crate::engine::NetworkConfig::trace_capacity)
    /// of them (further events are counted, not stored).
    Full,
}

/// One recorded message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Round in which the message was *sent* (0 for initialization).
    pub round: u32,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Edge the message travelled over.
    pub edge: EdgeId,
}

/// A bounded log of message deliveries.
///
/// Once the capacity is reached, further events are counted but not stored,
/// so tracing a large execution can never exhaust memory.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace that stores at most `capacity` events (0 disables
    /// storage entirely while still counting).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Rebuilds a trace from its checkpointed parts (see
    /// `docs/RECOVERY.md`): the stored events, the storage capacity, and
    /// the overflow-drop counter.
    pub(crate) fn from_checkpoint_parts(
        events: Vec<TraceEvent>,
        capacity: usize,
        dropped: u64,
    ) -> Self {
        Trace {
            events,
            capacity,
            dropped,
        }
    }

    /// The event-storage capacity the trace was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records an event, storing it if capacity allows.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The stored events, in delivery order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events that exceeded the capacity and were dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total number of events observed (stored + dropped).
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Events sent in a specific round.
    pub fn events_in_round(&self, round: u32) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.round == round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: u32, from: u32, to: u32, edge: u64) -> TraceEvent {
        TraceEvent {
            round,
            from: NodeId::new(from),
            to: NodeId::new(to),
            edge: EdgeId::new(edge),
        }
    }

    #[test]
    fn records_until_capacity_then_counts() {
        let mut trace = Trace::with_capacity(2);
        trace.record(event(1, 0, 1, 0));
        trace.record(event(1, 1, 0, 0));
        trace.record(event(2, 0, 1, 0));
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 1);
        assert_eq!(trace.total(), 3);
    }

    #[test]
    fn zero_capacity_only_counts() {
        let mut trace = Trace::with_capacity(0);
        trace.record(event(1, 0, 1, 0));
        assert!(trace.events().is_empty());
        assert_eq!(trace.total(), 1);
    }

    #[test]
    fn filter_by_round() {
        let mut trace = Trace::with_capacity(10);
        trace.record(event(1, 0, 1, 0));
        trace.record(event(2, 1, 0, 0));
        trace.record(event(2, 0, 1, 0));
        assert_eq!(trace.events_in_round(2).count(), 2);
        assert_eq!(trace.events_in_round(3).count(), 0);
    }
}
