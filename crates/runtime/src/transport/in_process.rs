//! The default backend: the zero-allocation in-process message plane.
//!
//! This is the double-buffered fast path the engine has always used, moved
//! byte-for-byte behind the [`Transport`] trait: payloads move by value
//! from outbox to mailbox (never serialized, never cloned), and every
//! exchange buffer is allocated once and reused. Every barrier — serial,
//! sharded or traced — runs the one canonical sender-major delivery
//! described in `docs/PERF.md` §2.

use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::error::RuntimeResult;
use crate::node::Envelope;
use crate::trace::TraceEvent;
use std::fmt;
use std::marker::PhantomData;

/// The in-process delivery backend (the default `Network` transport).
///
/// Stateless: the buffers it fills are the engine's own reused outboxes
/// and mailboxes, so steady-state rounds allocate nothing.
pub struct InProcessTransport<M> {
    message: PhantomData<fn() -> M>,
}

impl<M> fmt::Debug for InProcessTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessTransport").finish()
    }
}

impl<M> Default for InProcessTransport<M> {
    fn default() -> Self {
        InProcessTransport::new()
    }
}

impl<M> InProcessTransport<M> {
    /// Creates the backend.
    pub fn new() -> Self {
        InProcessTransport {
            message: PhantomData,
        }
    }
}

impl<M> Transport<M> for InProcessTransport<M> {
    /// Delivers in canonical (sender-major) order: outboxes are drained in
    /// node order, so each mailbox fills in ascending sender order (per
    /// sender, in send order) and trace events, when recorded, appear in
    /// that same order. Payloads move without cloning.
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        let RoundBarrier {
            round,
            traced,
            local_sent,
            outboxes,
            mailboxes,
            ledger,
            trace,
            ..
        } = barrier;
        for mailbox in mailboxes.iter_mut() {
            mailbox.clear();
        }
        for outbox in outboxes.iter_mut() {
            for outgoing in outbox.drain(..) {
                ledger.record(outgoing.edge.index(), outgoing.bytes);
                if traced {
                    trace.record(TraceEvent {
                        round,
                        from: outgoing.sender,
                        to: outgoing.receiver,
                        edge: outgoing.edge,
                    });
                }
                mailboxes[outgoing.receiver.index()].push(Envelope {
                    edge: outgoing.edge,
                    from: outgoing.sender,
                    payload: outgoing.payload,
                });
            }
        }
        Ok(BarrierOutcome::local(local_sent))
    }
}
