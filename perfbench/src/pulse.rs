//! The engine workloads' program and its centralized oracle.
//!
//! Every node broadcasts an 8-byte pulse each round and folds the pulses it
//! receives into its state: the XOR of every payload rotated by its edge ID,
//! mixed into the state. XOR makes the result independent of mailbox order,
//! so the oracle can recompute every node's final state from the CSR
//! incidence lists alone, in `O(rounds · m)`, without the engine.

use freelunch_graph::{CsrGraph, NodeId};
use freelunch_runtime::transport::CodecError;
use freelunch_runtime::{Context, Envelope, NodeProgram, WireCodec};

/// The pulse program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pulse {
    state: u64,
    rounds: u32,
}

/// A node's state before the first round.
fn initial_state(node: usize) -> u64 {
    mix(node as u64 ^ 0x0005_EED0_FB0A)
}

/// The splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How a payload received over `edge` enters the receiver's fold.
fn rotated(payload: u64, edge: usize) -> u64 {
    payload.rotate_left(edge as u32 & 63)
}

impl Pulse {
    /// The program of `node` for a run of `rounds` rounds: it broadcasts in
    /// initialization and in rounds `1..rounds`, and halts in round
    /// `rounds`.
    pub fn new(node: NodeId, rounds: u32) -> Self {
        Pulse {
            state: initial_state(node.index()),
            rounds,
        }
    }

    /// The node's current state (its output once the run is over).
    pub fn state(&self) -> u64 {
        self.state
    }
}

impl NodeProgram for Pulse {
    type Message = u64;

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(self.state);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[Envelope<u64>]) {
        let folded = inbox.iter().fold(0u64, |acc, envelope| {
            acc ^ rotated(envelope.payload, envelope.edge.index())
        });
        self.state = mix(self.state ^ folded);
        if ctx.round() < self.rounds {
            ctx.broadcast(self.state);
        } else {
            ctx.halt();
        }
    }

    fn save_state(&self, buf: &mut Vec<u8>) {
        self.state.encode(buf);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.state = u64::decode(bytes)?;
        Ok(())
    }
}

/// Every node's state after `rounds` pulse rounds, computed centrally.
pub fn oracle_states(graph: &CsrGraph, rounds: u32) -> Vec<u64> {
    let n = graph.node_count();
    let mut states: Vec<u64> = (0..n).map(initial_state).collect();
    let mut next = vec![0u64; n];
    for _ in 0..rounds {
        for (v, slot) in next.iter_mut().enumerate() {
            let folded =
                graph
                    .incident_edges(NodeId::from_usize(v))
                    .iter()
                    .fold(0u64, |acc, incident| {
                        acc ^ rotated(states[incident.neighbor.index()], incident.edge.index())
                    });
            *slot = mix(states[v] ^ folded);
        }
        std::mem::swap(&mut states, &mut next);
    }
    states
}

/// An order-sensitive fingerprint of all node states.
pub fn digest(states: &[u64]) -> u64 {
    states
        .iter()
        .fold(0u64, |acc, &state| mix(acc.rotate_left(1) ^ state))
}
