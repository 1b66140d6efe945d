//! Cone-pruned local execution: one node's output from its `t`-ball alone.
//!
//! A `t`-round LOCAL algorithm's output at `v` depends only on
//! `B_{G,t}(v)` (Section 6 of the paper, Lemma 12). Sharper: after round
//! `r`, only nodes within distance `t − r` of `v` can still influence it.
//! [`LocalExecutor`] uses this *cone* to recompute `v`'s program after `t`
//! rounds without running the other `n − |B_t(v)|` nodes at all:
//!
//! * round 0 runs [`NodeProgram::init`] at every node with `d(v, u) ≤ t`;
//! * round `r ≥ 1` steps only the nodes with `d ≤ t − r`, and delivers a
//!   message only to receivers with `d ≤ t − r − 1` (no one else is stepped
//!   again);
//! * inboxes fill sender-major — senders in ascending node index, each in
//!   send order — exactly like the engine's in-process round barrier.
//!
//! Every node sees the same [`Context`] it would see in a failure-free
//! [`Network`](crate::engine::Network) run with the same
//! [`NetworkConfig`]: its knowledge is built from the full graph under the
//! config's knowledge model and `log n` slack, its RNG stream is keyed by
//! `(config seed, node)`, and round numbers and invalid-send errors are the
//! engine's. So for any program that is a `rounds`-round LOCAL algorithm,
//! the root's program equals the one `Network::run_rounds(rounds)` leaves
//! there. The executor is serial and keeps no ledger, transport, trace or
//! double-buffered mailbox plane.

use crate::engine::{node_seed, NetworkConfig};
use crate::error::RuntimeResult;
use crate::knowledge::{initial_knowledge, InitialKnowledge};
use crate::node::{Context, Envelope, NodeProgram};
use freelunch_graph::{CsrGraph, NodeId, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Marks a node outside the current cone in [`LocalExecutor`]'s slot table.
const OUTSIDE: u32 = u32::MAX;

/// Recomputes single nodes' programs from their cones (see the
/// [module docs](self)).
///
/// Built once per graph and config; each [`LocalExecutor::run`] touches
/// only the queried cone and the edges leaving it, so `k` queries cost
/// `O(Σ cone work)`, not `Θ(k · n)`.
///
/// # Examples
///
/// ```
/// use freelunch_graph::generators::{cycle_graph, GeneratorConfig};
/// use freelunch_graph::NodeId;
/// use freelunch_runtime::{Context, Envelope, LocalExecutor, Network, NetworkConfig, NodeProgram};
///
/// /// Every node learns the minimum ID within distance `t`.
/// struct MinFlood(u32);
/// impl NodeProgram for MinFlood {
///     type Message = u32;
///     fn init(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.broadcast(self.0);
///     }
///     fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[Envelope<u32>]) {
///         self.0 = inbox.iter().map(|e| e.payload).fold(self.0, u32::min);
///         ctx.broadcast(self.0);
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = cycle_graph(&GeneratorConfig::new(12, 0))?;
/// let config = NetworkConfig::with_seed(3);
/// let mut network = Network::new(&graph, config, |v, _| MinFlood(v.raw()))?;
/// network.run_rounds(2)?;
/// let mut local = LocalExecutor::new(network.graph(), config);
/// let root = local.run(NodeId::new(7), 2, |v, _| MinFlood(v.raw()))?;
/// assert_eq!(root.0, network.programs()[7].0); // 5: two hops from 7
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LocalExecutor<'g> {
    graph: &'g CsrGraph,
    seed: u64,
    knowledge: Vec<InitialKnowledge>,
    edge_endpoints: Vec<[u32; 2]>,
    /// Per node: its index in `cone`, or [`OUTSIDE`]. Reset through `cone`
    /// at the start of the next query.
    slot: Vec<u32>,
    /// The current cone as `(node, distance from the root)`, in ascending
    /// node order once built.
    cone: Vec<(u32, u32)>,
}

impl<'g> LocalExecutor<'g> {
    /// Prepares an executor over `graph` that hands every node the
    /// knowledge, port order and RNG stream a [`Network`](crate::engine::Network)
    /// built from `graph` and `config` would. Only `config`'s knowledge
    /// model, `log_n_slack` and seed matter; its shard, chunk and trace
    /// settings change no observable of a run.
    pub fn new(graph: &'g CsrGraph, config: NetworkConfig) -> Self {
        LocalExecutor {
            graph,
            seed: config.seed,
            knowledge: initial_knowledge(graph, config.knowledge, config.log_n_slack),
            edge_endpoints: graph.endpoint_table(),
            slot: vec![OUTSIDE; graph.node_count()],
            cone: Vec::new(),
        }
    }

    /// Builds `root`'s cone of the given radius: every node within
    /// `radius` hops, with its distance, sorted by node and indexed in
    /// `slot`.
    fn build_cone(&mut self, root: NodeId, radius: u32) {
        for &(node, _) in &self.cone {
            self.slot[node as usize] = OUTSIDE;
        }
        self.cone.clear();
        self.cone.push((root.raw(), 0));
        self.slot[root.index()] = 0;
        let mut head = 0;
        while let Some(&(node, distance)) = self.cone.get(head) {
            head += 1;
            if distance == radius {
                continue;
            }
            for incident in self.graph.incident_edges(NodeId::new(node)) {
                let slot = &mut self.slot[incident.neighbor.index()];
                if *slot == OUTSIDE {
                    *slot = 0;
                    self.cone.push((incident.neighbor.raw(), distance + 1));
                }
            }
        }
        self.cone.sort_unstable_by_key(|&(node, _)| node);
        for (index, &(node, _)) in self.cone.iter().enumerate() {
            self.slot[node as usize] = index as u32;
        }
    }

    /// Runs the programs `factory` builds for `rounds` rounds over `root`'s
    /// cone and returns `root`'s program, equal to the one a failure-free
    /// `Network::run_rounds(rounds)` leaves at `root` whenever the program
    /// is a `rounds`-round LOCAL algorithm. `rounds == 0` returns the fresh
    /// program, uninitialized, as `run_rounds(0)` would.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Graph`](crate::error::RuntimeError::Graph)
    /// if `root` is out of range, and the engine's error for the first
    /// invalid send (lowest node, earliest send) of the first round that
    /// makes one inside the cone.
    pub fn run<P: NodeProgram>(
        &mut self,
        root: NodeId,
        rounds: u32,
        mut factory: impl FnMut(NodeId, &InitialKnowledge) -> P,
    ) -> RuntimeResult<P> {
        self.graph.check_node(root)?;
        if rounds == 0 {
            return Ok(factory(root, &self.knowledge[root.index()]));
        }
        self.build_cone(root, rounds);
        let LocalExecutor {
            graph,
            seed,
            knowledge,
            edge_endpoints,
            slot,
            cone,
        } = self;
        let mut programs: Vec<P> = Vec::with_capacity(cone.len());
        let mut rngs: Vec<ChaCha8Rng> = Vec::with_capacity(cone.len());
        for &(node, _) in cone.iter() {
            let v = node as usize;
            programs.push(factory(NodeId::new(node), &knowledge[v]));
            rngs.push(ChaCha8Rng::seed_from_u64(node_seed(*seed, v)));
        }
        let mut inboxes: Vec<Vec<Envelope<P::Message>>> = vec![Vec::new(); cone.len()];
        let mut pending: Vec<Vec<Envelope<P::Message>>> = vec![Vec::new(); cone.len()];
        let mut outbox = Vec::new();
        for round in 0..=rounds {
            // Nodes within `reach` hops are stepped this round; a message
            // matters only to a receiver that is stepped next round.
            let reach = rounds - round;
            for (index, &(node, distance)) in cone.iter().enumerate() {
                if distance > reach {
                    continue;
                }
                let v = node as usize;
                let mut ctx = Context::new(
                    &knowledge[v],
                    graph.incident_edges(NodeId::new(node)),
                    edge_endpoints,
                    round,
                    &mut rngs[index],
                    &mut outbox,
                    &[],
                );
                if round == 0 {
                    programs[index].init(&mut ctx);
                } else {
                    programs[index].round(&mut ctx, &inboxes[index]);
                }
                if let Some(error) = ctx.error.take() {
                    return Err(error);
                }
                for outgoing in outbox.drain(..) {
                    let receiver = slot[outgoing.receiver.index()];
                    if receiver != OUTSIDE && cone[receiver as usize].1 < reach {
                        pending[receiver as usize].push(Envelope {
                            edge: outgoing.edge,
                            from: outgoing.sender,
                            payload: outgoing.payload,
                        });
                    }
                }
            }
            std::mem::swap(&mut inboxes, &mut pending);
            for mailbox in &mut pending {
                mailbox.clear();
            }
        }
        Ok(programs.swap_remove(slot[root.index()] as usize))
    }
}
