//! `t`-bounded information gathering: after `t` rounds every node knows the
//! IDs of all nodes in its ball `B_{G,t}(v)`.
//!
//! This is the purest example of a `t`-round LOCAL algorithm (its output is
//! literally the `t`-ball), which makes it the canonical workload for the
//! `t`-local broadcast experiments: the direct execution floods `G` every
//! round, the message-reduced execution floods a spanner.

use freelunch_graph::NodeId;
use freelunch_runtime::transport::CodecError;
use freelunch_runtime::{Context, Envelope, NodeProgram};
use std::collections::BTreeSet;

/// The per-node program: repeatedly broadcast everything newly learned.
#[derive(Debug)]
pub struct BallGathering {
    horizon: u32,
    known: BTreeSet<u32>,
    fresh: Vec<u32>,
}

impl BallGathering {
    /// Creates the program for `node` with gathering horizon `t`.
    pub fn new(node: NodeId, horizon: u32) -> Self {
        BallGathering {
            horizon,
            known: BTreeSet::from([node.raw()]),
            fresh: vec![node.raw()],
        }
    }

    /// The IDs gathered so far (the node's view of its ball).
    pub fn known_ids(&self) -> Vec<u32> {
        self.known.iter().copied().collect()
    }
}

impl NodeProgram for BallGathering {
    type Message = Vec<u32>;

    fn init(&mut self, ctx: &mut Context<'_, Vec<u32>>) {
        if self.horizon > 0 {
            ctx.broadcast(self.fresh.clone());
        }
        self.fresh.clear();
    }

    fn round(&mut self, ctx: &mut Context<'_, Vec<u32>>, inbox: &[Envelope<Vec<u32>>]) {
        for envelope in inbox {
            for &id in &envelope.payload {
                if self.known.insert(id) {
                    self.fresh.push(id);
                }
            }
        }
        if ctx.round() < self.horizon && !self.fresh.is_empty() {
            ctx.broadcast(self.fresh.clone());
        }
        self.fresh.clear();
        if ctx.round() >= self.horizon {
            ctx.halt();
        }
    }

    /// Each gathered ID costs 4 bytes — exactly the `Vec<u32>` wire
    /// encoding (4 little-endian bytes per element) and the 4-byte token
    /// convention of the emulated broadcast paths. The default sizing would
    /// charge `size_of::<Vec<u32>>()` (the header), independent of the
    /// bundle length.
    fn payload_bytes(message: &Vec<u32>) -> u64 {
        4 * message.len() as u64
    }

    /// Checkpoint encoding: horizon, then the known set (already sorted —
    /// it is a `BTreeSet`) and the fresh list, each with a `u32` count
    /// prefix (all little-endian).
    fn save_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.horizon.to_le_bytes());
        buf.extend_from_slice(&(self.known.len() as u32).to_le_bytes());
        for &id in &self.known {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        buf.extend_from_slice(&(self.fresh.len() as u32).to_le_bytes());
        for &id in &self.fresh {
            buf.extend_from_slice(&id.to_le_bytes());
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let u32_at = |i: usize| -> Result<u32, CodecError> {
            if i + 4 > bytes.len() {
                return Err(CodecError::Truncated {
                    needed: i + 4,
                    got: bytes.len(),
                });
            }
            Ok(u32::from_le_bytes([
                bytes[i],
                bytes[i + 1],
                bytes[i + 2],
                bytes[i + 3],
            ]))
        };
        let horizon = u32_at(0)?;
        let known_count = u32_at(4)? as usize;
        let mut known = BTreeSet::new();
        let mut cursor = 8;
        for _ in 0..known_count {
            known.insert(u32_at(cursor)?);
            cursor += 4;
        }
        let fresh_count = u32_at(cursor)? as usize;
        cursor += 4;
        // Check the count against the bytes before allocating for it: a
        // hostile count must not reserve gigabytes.
        let needed = cursor.saturating_add(fresh_count.saturating_mul(4));
        if needed > bytes.len() {
            return Err(CodecError::Truncated {
                needed,
                got: bytes.len(),
            });
        }
        let mut fresh = Vec::with_capacity(fresh_count);
        for _ in 0..fresh_count {
            fresh.push(u32_at(cursor)?);
            cursor += 4;
        }
        if cursor != bytes.len() {
            return Err(CodecError::Oversized {
                expected: cursor,
                got: bytes.len(),
            });
        }
        self.horizon = horizon;
        self.known = known;
        self.fresh = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, cycle_graph, GeneratorConfig};
    use freelunch_graph::traversal::ball;
    use freelunch_graph::MultiGraph;
    use freelunch_runtime::{Network, NetworkConfig};

    fn run_gathering(graph: &MultiGraph, t: u32) -> Vec<Vec<u32>> {
        let run = |shards: usize| {
            let config = NetworkConfig::with_seed(0).sharded(shards);
            let mut network =
                Network::new(graph, config, |node, _| BallGathering::new(node, t)).unwrap();
            network.run_rounds(t).unwrap();
            network
                .programs()
                .iter()
                .map(BallGathering::known_ids)
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        // Every gathering test doubles as a sharded-engine equivalence check.
        assert_eq!(sequential, run(2));
        sequential
    }

    #[test]
    fn gathers_exactly_the_t_ball() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 3), 0.08).unwrap();
        for t in [0u32, 1, 2, 3] {
            let views = run_gathering(&graph, t);
            for v in graph.nodes() {
                let expected: Vec<u32> = ball(&graph, v, t)
                    .unwrap()
                    .into_iter()
                    .map(NodeId::raw)
                    .collect();
                assert_eq!(views[v.index()], expected, "node {v}, t={t}");
            }
        }
    }

    #[test]
    fn cycle_ball_sizes_are_correct() {
        let graph = cycle_graph(&GeneratorConfig::new(12, 0)).unwrap();
        let views = run_gathering(&graph, 2);
        assert!(views.iter().all(|view| view.len() == 5));
    }

    #[test]
    fn horizon_zero_knows_only_itself() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        let views = run_gathering(&graph, 0);
        for (v, view) in views.iter().enumerate() {
            assert_eq!(view, &vec![v as u32]);
        }
    }
}
