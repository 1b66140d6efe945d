//! The default backend: the zero-allocation in-process message plane.
//!
//! This is the double-buffered fast path the engine has always used, moved
//! byte-for-byte behind the [`Transport`] trait: payloads move by value
//! from outbox to mailbox (never serialized, never cloned), all exchange
//! buffers are allocated once and reused, and the parallel path is the
//! receiver-chunked bucket exchange described in `docs/PERF.md` §2, run by
//! the same chunk-claiming workers as the execute phase.

use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::claim::claim_each;
use crate::error::RuntimeResult;
use crate::node::{Envelope, Outgoing};
use crate::trace::TraceEvent;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Upper bound on dispatch chunks *per worker*: the chunk grid is
/// coarsened until at most this many chunks per worker remain, so the
/// chunk×chunk bucket matrix stays `O((16 · shards)²)` `Vec` headers
/// however large the graph — while a 16-way-finer grid than one range per
/// worker already caps any single hub chunk at ~1/16th of a worker's round.
const DISPATCH_CHUNKS_PER_WORKER: usize = 16;

/// Reusable scratch of the parallel dispatch barrier: per-edge message and
/// byte accumulators shared by the receiver-chunked workers (each message
/// is counted by exactly one worker; an edge can be touched by at most the
/// two workers owning its endpoints, hence the atomics) plus one touched
/// list per worker. A worker appends an edge to its touched list exactly
/// when its `fetch_add` is the first of the round for that edge, so the
/// lists partition the touched edge set and the barrier can merge and reset
/// in `O(edges touched)`, never `O(m)`.
///
/// Allocated once, on the first parallel dispatch; cleared — not freed — at
/// every merge.
#[derive(Debug)]
struct DispatchScratch {
    edge_counts: Vec<AtomicU32>,
    edge_bytes: Vec<AtomicU64>,
    touched: Vec<Vec<u32>>,
}

impl DispatchScratch {
    fn new(edge_slots: usize, shards: usize) -> Self {
        DispatchScratch {
            edge_counts: (0..edge_slots).map(|_| AtomicU32::new(0)).collect(),
            edge_bytes: (0..edge_slots).map(|_| AtomicU64::new(0)).collect(),
            touched: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// The in-process delivery backend (the default `Network` transport).
///
/// Serial delivery when single-sharded, traced, or silent; the
/// receiver-chunked parallel bucket exchange otherwise. Every buffer is
/// reused across rounds, so steady-state rounds allocate nothing.
pub struct InProcessTransport<M> {
    /// Bucket exchange of the parallel barrier, row-major:
    /// `buckets[s * cols + r]` holds the messages nodes of sender chunk `s`
    /// sent to receivers of chunk `r`, in canonical (node, send) order.
    /// Empty until the first parallel dispatch; reused afterwards.
    buckets: Vec<Vec<Outgoing<M>>>,
    /// Transposed view of `buckets` during delivery (column-major), so each
    /// receiver chunk's worker can take a contiguous `&mut` slice of its
    /// column. Only `Vec` headers move between the two layouts.
    bucket_scratch: Vec<Vec<Outgoing<M>>>,
    scratch: Option<DispatchScratch>,
}

impl<M> fmt::Debug for InProcessTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessTransport")
            .field("buckets", &self.buckets.len())
            .finish_non_exhaustive()
    }
}

impl<M> Default for InProcessTransport<M> {
    fn default() -> Self {
        InProcessTransport::new()
    }
}

impl<M> InProcessTransport<M> {
    /// Creates the backend (no buffers are allocated until the first
    /// parallel dispatch).
    pub fn new() -> Self {
        InProcessTransport {
            buckets: Vec::new(),
            bucket_scratch: Vec::new(),
            scratch: None,
        }
    }

    /// Serial delivery in canonical (sender-major) order; the only path
    /// that records trace events, because they must appear in that order.
    /// Outboxes are drained, so payloads move without cloning.
    fn deliver_serial(&mut self, b: RoundBarrier<'_, M>) {
        let RoundBarrier {
            round,
            traced,
            outboxes,
            mailboxes,
            ledger,
            trace,
            ..
        } = b;
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
    }
}

impl<M: Send + Sync> InProcessTransport<M> {
    /// Receiver-chunked parallel delivery, as a two-step bucket exchange
    /// whose steps both hand their chunks to [`claim_each`] — so a hub
    /// chunk's heavy column stalls one worker for one chunk, not one
    /// worker for the whole barrier:
    ///
    /// * The node range is split into `cols` chunks of `chunk` nodes: the
    ///   configured [`RoundBarrier::chunk_size`], coarsened until at most
    ///   [`DISPATCH_CHUNKS_PER_WORKER`] chunks per worker remain (the
    ///   bucket matrix is `cols²` and must stay cheap to transpose).
    /// * *Route* — a worker claims a sender chunk and drains its outboxes
    ///   into that chunk's bucket row, keyed by receiver chunk. Each bucket
    ///   is written by exactly one worker, in canonical (node, send) order,
    ///   and every message is moved once.
    /// * *Deliver* — a worker claims a receiver chunk and drains its bucket
    ///   column in ascending sender-chunk order (payloads move, never
    ///   clone), filling each mailbox in exactly the serial order. The
    ///   chunk doubles as the cache block: until its column is dry a worker
    ///   touches only `chunk` consecutive mailboxes, so receiver-side
    ///   writes stay inside an L2-sized window instead of striding the
    ///   whole mailbox array.
    ///
    /// Per-edge ledger partials accumulate in the shared atomic scratch
    /// (sums — order-independent, one touched list per worker) and are
    /// merged into the ledger when the barrier closes, in `O(edges touched
    /// this round)`, bit-identical to the serial ledger whichever worker
    /// claimed what. Total memory traffic is `O(messages)` regardless of
    /// the shard count.
    fn deliver_chunked(&mut self, b: RoundBarrier<'_, M>) {
        let RoundBarrier {
            shards,
            chunk_size,
            outboxes,
            mailboxes,
            ledger,
            ..
        } = b;
        let node_count = mailboxes.len();
        let chunk = chunk_size
            .max(node_count.div_ceil(shards * DISPATCH_CHUNKS_PER_WORKER))
            .max(1);
        let cols = node_count.div_ceil(chunk);
        let workers = shards.min(cols);
        let edge_slots = ledger.edge_slots();
        let scratch = self
            .scratch
            .get_or_insert_with(|| DispatchScratch::new(edge_slots, shards));
        // A churn plan can grow the ledger's edge-slot range after the
        // scratch was first sized (edge inserts); grow the accumulators to
        // match. New slots start at zero, like the originals.
        if scratch.edge_counts.len() < edge_slots {
            scratch
                .edge_counts
                .resize_with(edge_slots, || AtomicU32::new(0));
            scratch
                .edge_bytes
                .resize_with(edge_slots, || AtomicU64::new(0));
        }
        if self.buckets.len() != cols * cols {
            self.buckets.clear();
            self.buckets.resize_with(cols * cols, Vec::new);
            self.bucket_scratch.clear();
            self.bucket_scratch.resize_with(cols * cols, Vec::new);
        }

        // Route: sender chunks into their bucket rows. Buckets are empty
        // here (drained by the previous delivery).
        claim_each(
            &mut vec![(); workers],
            outboxes
                .chunks_mut(chunk)
                .zip(self.buckets.chunks_mut(cols))
                .collect(),
            |_, (outboxes, row)| {
                for outbox in outboxes {
                    for outgoing in outbox.drain(..) {
                        row[outgoing.receiver.index() / chunk].push(outgoing);
                    }
                }
            },
        );

        // Transpose to column-major so each receiver chunk's column is one
        // contiguous slice (header moves only, no message is copied).
        for sender in 0..cols {
            for receiver in 0..cols {
                self.bucket_scratch[receiver * cols + sender] =
                    std::mem::take(&mut self.buckets[sender * cols + receiver]);
            }
        }

        // Deliver: receiver chunks drain their columns in ascending
        // sender-chunk order.
        let edge_counts = &scratch.edge_counts;
        let edge_bytes = &scratch.edge_bytes;
        claim_each(
            &mut scratch.touched[..workers],
            mailboxes
                .chunks_mut(chunk)
                .zip(self.bucket_scratch.chunks_mut(cols))
                .enumerate()
                .collect(),
            |touched, (slot, (mailboxes, column))| {
                let lo = slot * chunk;
                for mailbox in mailboxes.iter_mut() {
                    mailbox.clear();
                }
                for bucket in column {
                    for outgoing in bucket.drain(..) {
                        let edge = outgoing.edge.index();
                        // First toucher of the round claims the edge for its
                        // merge list; the lists partition the touched set.
                        if edge_counts[edge].fetch_add(1, Ordering::Relaxed) == 0 {
                            touched.push(edge as u32);
                        }
                        edge_bytes[edge].fetch_add(outgoing.bytes, Ordering::Relaxed);
                        mailboxes[outgoing.receiver.index() - lo].push(Envelope {
                            edge: outgoing.edge,
                            from: outgoing.sender,
                            payload: outgoing.payload,
                        });
                    }
                }
            },
        );

        // Return the (empty, capacity-bearing) buckets to row-major for the
        // next round's route step.
        for sender in 0..cols {
            for receiver in 0..cols {
                self.buckets[sender * cols + receiver] =
                    std::mem::take(&mut self.bucket_scratch[receiver * cols + sender]);
            }
        }
        // Merge the partials. Each touched edge appears in exactly one list
        // and its accumulators hold the full round totals by now, so one
        // `record_bulk` per edge reproduces the serial ledger bit for bit.
        for touched in scratch.touched.iter_mut() {
            for &edge in touched.iter() {
                let edge = edge as usize;
                let count = u64::from(edge_counts[edge].swap(0, Ordering::Relaxed));
                let bytes = edge_bytes[edge].swap(0, Ordering::Relaxed);
                ledger.record_bulk(edge, count, bytes);
            }
            touched.clear();
        }
    }
}

impl<M: Send + Sync> Transport<M> for InProcessTransport<M> {
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        let local_sent = barrier.local_sent;
        if barrier.shards == 1 || barrier.traced || local_sent == 0 {
            self.deliver_serial(barrier);
        } else {
            self.deliver_chunked(barrier);
        }
        Ok(BarrierOutcome::local(local_sent))
    }
}
