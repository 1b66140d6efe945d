//! Cone-pruned local executor parity: for every node `v`,
//! `LocalExecutor::run(v, t, …)` must leave exactly the program state a
//! failure-free `Network::run_rounds(t)` leaves at `v`. Programs are
//! compared by their output and, for programs that checkpoint, by their
//! full `save_state` blob.
//!
//! The sweep covers every shipped algorithm on the determinism workloads,
//! for `t ∈ {0, 1, 2, 3}` and under the KT0, unique-edge-ID and KT1
//! knowledge models. Hand-built graphs pin port order over parallel edges,
//! an isolated node, and invalid sends inside and outside the cone.

use freelunch::algorithms::{
    BallGathering, LocalLeaderElection, LubyMis, MaximalMatching, RandomizedColoring,
};
use freelunch::graph::generators::{
    barabasi_albert, sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
};
use freelunch::graph::{EdgeId, MultiGraph, NodeId};
use freelunch::runtime::{
    Context, Envelope, InitialKnowledge, KnowledgeModel, LocalExecutor, Network, NetworkConfig,
    NodeProgram, RuntimeError,
};
use rand::Rng;
use std::fmt::Debug;

const ROUNDS: [u32; 4] = [0, 1, 2, 3];

const MODELS: [KnowledgeModel; 3] = [
    KnowledgeModel::Kt0,
    KnowledgeModel::UniqueEdgeIds,
    KnowledgeModel::Kt1,
];

fn workloads() -> Vec<(&'static str, MultiGraph)> {
    vec![
        (
            "sparse-er",
            sparse_connected_erdos_renyi(&GeneratorConfig::new(96, 11), 6.0).unwrap(),
        ),
        (
            "scale-free",
            barabasi_albert(&GeneratorConfig::new(96, 12), 3).unwrap(),
        ),
        (
            "communities",
            sparse_planted_partition(&GeneratorConfig::new(96, 13), 4, 8.0, 1.0).unwrap(),
        ),
    ]
}

/// Runs `factory`'s program for `t` rounds on the engine and, for every
/// node, on that node's cone; the outputs and checkpoint blobs must be
/// identical.
fn assert_parity<P: NodeProgram, O: PartialEq + Debug>(
    graph: &MultiGraph,
    config: NetworkConfig,
    t: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    output: impl Fn(&P) -> O,
    label: &str,
) {
    let observe = |program: &P| {
        let mut blob = Vec::new();
        program.save_state(&mut blob);
        (output(program), blob)
    };
    let mut network = Network::new(graph, config, factory).unwrap();
    network.run_rounds(t).unwrap();
    let mut local = LocalExecutor::new(network.graph(), config);
    for v in graph.nodes() {
        let program = local.run(v, t, factory).unwrap();
        assert_eq!(
            observe(&program),
            observe(network.program(v)),
            "{label}: node {v} differs at t = {t} under {:?}",
            config.knowledge
        );
    }
}

/// [`assert_parity`] over every workload, round count and knowledge model;
/// `factory` also receives the round count `t`.
fn sweep<P: NodeProgram, O: PartialEq + Debug>(
    seed: u64,
    factory: impl Fn(u32, NodeId, &InitialKnowledge) -> P,
    output: impl Fn(&P) -> O + Copy,
    label: &str,
) {
    for (name, graph) in workloads() {
        for model in MODELS {
            for t in ROUNDS {
                let config = NetworkConfig::with_seed(seed).knowledge(model);
                let make = |v, k: &InitialKnowledge| factory(t, v, k);
                let label = format!("{label}/{name}");
                assert_parity(&graph, config, t, make, output, &label);
            }
        }
    }
}

#[test]
fn luby_mis_matches_the_engine_at_every_node() {
    sweep(
        1,
        |_, _, k| LubyMis::new(k.degree()),
        LubyMis::state,
        "luby-mis",
    );
}

#[test]
fn randomized_coloring_matches_the_engine_at_every_node() {
    sweep(
        2,
        |_, _, k| RandomizedColoring::new(k.degree()),
        RandomizedColoring::color,
        "coloring",
    );
}

#[test]
fn ball_gathering_matches_the_engine_at_every_node() {
    sweep(
        3,
        |t, node, _| BallGathering::new(node, t),
        BallGathering::known_ids,
        "ball-gathering",
    );
}

#[test]
fn leader_election_matches_the_engine_at_every_node() {
    sweep(
        4,
        |t, node, _| LocalLeaderElection::new(node, t),
        LocalLeaderElection::leader,
        "leader",
    );
}

#[test]
fn maximal_matching_matches_the_engine_at_every_node() {
    sweep(
        5,
        |_, _, _| MaximalMatching::new(),
        MaximalMatching::matched_over,
        "matching",
    );
}

/// Records every envelope it receives, in inbox order, and answers on
/// every port with its port number — so inbox order, port order and the
/// RNG stream all show up in the state.
#[derive(Default)]
struct PortEcho {
    heard: Vec<(u32, EdgeId, NodeId, u64)>,
}

impl NodeProgram for PortEcho {
    type Message = u64;

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        let draw: u64 = ctx.rng().gen();
        for port in 0..ctx.degree() {
            ctx.send_port(port, draw ^ port as u64);
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[Envelope<u64>]) {
        for envelope in inbox {
            self.heard
                .push((ctx.round(), envelope.edge, envelope.from, envelope.payload));
        }
        for port in 0..ctx.degree() {
            ctx.send_port(port, u64::from(ctx.round()) << 32 | port as u64);
        }
    }
}

/// Parallel edges between 0–1 (three) and 1–2 (two), a path tail 2–3–4,
/// and node 5 isolated.
fn multigraph_with_isolated_node() -> MultiGraph {
    let mut graph = MultiGraph::new(6);
    for (u, v) in [(0, 1), (1, 2), (0, 1), (2, 3), (1, 2), (0, 1), (3, 4)] {
        graph.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    graph
}

#[test]
fn parallel_edges_and_isolated_nodes_match_the_engine() {
    let graph = multigraph_with_isolated_node();
    for model in MODELS {
        let config = NetworkConfig::with_seed(9).knowledge(model);
        for t in ROUNDS {
            let echo = |_: NodeId, _: &InitialKnowledge| PortEcho::default();
            assert_parity(&graph, config, t, echo, |p| p.heard.clone(), "port-echo");
            assert_parity(
                &graph,
                config,
                t,
                |node, _| BallGathering::new(node, t),
                BallGathering::known_ids,
                "ball-gathering",
            );
            assert_parity(
                &graph,
                config,
                t,
                |_, k| LubyMis::new(k.degree()),
                LubyMis::state,
                "luby-mis",
            );
            assert_parity(
                &graph,
                config,
                t,
                |_, _| MaximalMatching::new(),
                MaximalMatching::matched_over,
                "matching",
            );
        }
    }
}

/// Node 3 sends over a non-incident edge in round 2; every other node only
/// broadcasts.
#[derive(Debug)]
struct RogueAtThree;

impl NodeProgram for RogueAtThree {
    type Message = u8;

    fn init(&mut self, ctx: &mut Context<'_, u8>) {
        ctx.broadcast(0);
    }

    fn round(&mut self, ctx: &mut Context<'_, u8>, _inbox: &[Envelope<u8>]) {
        if ctx.node() == NodeId::new(3) && ctx.round() == 2 {
            // Edge 0 joins nodes 0 and 1.
            ctx.send(EdgeId::new(0), 1);
        }
        ctx.broadcast(ctx.round() as u8);
    }
}

#[test]
fn invalid_send_inside_the_cone_is_the_engines_error() {
    let graph = multigraph_with_isolated_node();
    let config = NetworkConfig::with_seed(1);
    let t = 3;
    let mut network = Network::new(&graph, config, |_, _| RogueAtThree).unwrap();
    let expected = network.run_rounds(t).unwrap_err();
    assert_eq!(
        expected,
        RuntimeError::NotIncident {
            node: NodeId::new(3),
            edge: EdgeId::new(0),
        }
    );
    let mut local = LocalExecutor::new(network.graph(), config);
    // Node 3 is stepped in round 2 of every cone that keeps it within
    // t − 2 = 1 hop of the root: roots 2, 3 and 4.
    for root in [2, 3, 4] {
        let error = local
            .run(NodeId::new(root), t, |_, _| RogueAtThree)
            .unwrap_err();
        assert_eq!(error, expected, "root {root}");
    }
    // Farther roots never step node 3 in round 2, so they never make the
    // invalid send: their outputs cannot depend on it.
    for root in [0, 1, 5] {
        local
            .run(NodeId::new(root), t, |_, _| RogueAtThree)
            .unwrap();
    }
    // Out-of-range roots are a graph error, not a panic.
    assert!(matches!(
        local.run(NodeId::new(6), t, |_, _| RogueAtThree),
        Err(RuntimeError::Graph(_))
    ));
}
