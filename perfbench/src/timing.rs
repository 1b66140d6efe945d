//! A timing [`Transport`]: delegates to [`InProcessTransport`] and records
//! when each round barrier's delivery started and ended, and how many
//! messages it carried.

use freelunch_runtime::{
    BarrierOutcome, InProcessTransport, RoundBarrier, RuntimeResult, Transport,
};
use std::fmt;
use std::ops::Range;
use std::time::Instant;

/// One observed round-barrier delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The round whose sends were delivered (0 = initialization).
    pub round: u32,
    /// Messages in the outboxes ([`RoundBarrier::local_sent`]).
    pub sent: u64,
    /// When the delegated delivery started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

/// Hands out the deliveries a transport observed since the last call.
pub trait DeliveryLog {
    /// Drains the recorded deliveries (always empty for a transport that
    /// records none).
    fn take_deliveries(&mut self) -> Vec<Delivery>;
}

impl<M> DeliveryLog for InProcessTransport<M> {
    fn take_deliveries(&mut self) -> Vec<Delivery> {
        Vec::new()
    }
}

/// [`InProcessTransport`] with every delivery timed.
pub struct TimingTransport<M> {
    inner: InProcessTransport<M>,
    deliveries: Vec<Delivery>,
}

impl<M> TimingTransport<M> {
    /// Wraps a fresh [`InProcessTransport`].
    pub fn new() -> Self {
        TimingTransport {
            inner: InProcessTransport::new(),
            deliveries: Vec::new(),
        }
    }
}

impl<M> Default for TimingTransport<M> {
    fn default() -> Self {
        TimingTransport::new()
    }
}

impl<M> fmt::Debug for TimingTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingTransport")
            .field("inner", &self.inner)
            .field("deliveries", &self.deliveries.len())
            .finish()
    }
}

impl<M: Send + Sync> Transport<M> for TimingTransport<M> {
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        let round = barrier.round;
        let sent = barrier.local_sent;
        let start = Instant::now();
        let outcome = self.inner.deliver(barrier);
        let end = Instant::now();
        self.deliveries.push(Delivery {
            round,
            sent,
            start,
            end,
        });
        outcome
    }

    fn supports_tracing(&self) -> bool {
        Transport::<M>::supports_tracing(&self.inner)
    }

    fn owned_range(&self, node_count: usize) -> Range<usize> {
        Transport::<M>::owned_range(&self.inner, node_count)
    }
}

impl<M> DeliveryLog for TimingTransport<M> {
    fn take_deliveries(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.deliveries)
    }
}
