//! Equivalence of the word-parallel flood kernel with a per-token flood.
//!
//! `core::reduction::tlocal` runs every flood through one bitset kernel.
//! This file keeps a straightforward per-token flood as the reference — one
//! `Vec<u32>` of fresh tokens per node, one bit set per received token, one
//! ledger record per bundle in ascending sender order — and asserts that
//! both produce the same `BroadcastOutcome`: cost, radius, the full ledger
//! (per-edge and per-round columns), `tokens_received`, and `holds_token`
//! for every (holder, source) pair.
//!
//! The grid covers n ∈ {1, 63, 64, 65, 130} (word boundaries of the
//! bitsets), cycles, stars, Erdős–Rényi graphs and multigraphs with parallel
//! edges, full, partial and empty subgraphs, radius 0..=8, and all three
//! `FloodRouting` policies. Faults are not a flood concern: fault plans run
//! on the engine and its transports only (see `tests/fault_matrix.rs`).

use freelunch::core::reduction::tlocal::{
    flood_on_subgraph_routed, BroadcastOutcome, FloodRouting, TOKEN_BYTES,
};
use freelunch::graph::generators::{
    connected_erdos_renyi, cycle_graph, star_graph, GeneratorConfig,
};
use freelunch::graph::{EdgeId, MultiGraph, NodeId};
use freelunch::runtime::{edge_slot_count, MessageLedger};

/// What the per-token reference flood produces.
struct Reference {
    ledger: MessageLedger,
    tokens_received: Vec<usize>,
    /// `known[holder][source]`.
    known: Vec<Vec<bool>>,
    subgraph_edges: usize,
}

/// The per-token flood: every delivered bundle walks its token list and
/// sets one bit per token, collecting the newly learned ones as the
/// receiver's next bundle.
fn reference_flood(
    graph: &MultiGraph,
    edges: &[EdgeId],
    radius: u32,
    routing: FloodRouting,
) -> Reference {
    let n = graph.node_count();
    let subgraph = graph.edge_subgraph(edges.iter().copied()).unwrap();

    // The neighbor classes of the routed policies, sorted by edge ID.
    let classes: Vec<Vec<(NodeId, Vec<EdgeId>)>> = subgraph
        .nodes()
        .map(|v| {
            let mut incident: Vec<(NodeId, EdgeId)> = subgraph
                .incident_edges(v)
                .iter()
                .map(|ie| (ie.neighbor, ie.edge))
                .collect();
            incident.sort_unstable_by_key(|&(u, e)| (u.index(), e.index()));
            let mut grouped: Vec<(NodeId, Vec<EdgeId>)> = Vec::new();
            for (u, e) in incident {
                match grouped.last_mut() {
                    Some((last, class)) if *last == u => class.push(e),
                    _ => grouped.push((u, vec![e])),
                }
            }
            grouped
        })
        .collect();

    let mut known = vec![vec![false; n]; n];
    let mut fresh: Vec<Vec<u32>> = (0..n).map(|v| vec![v as u32]).collect();
    for (v, row) in known.iter_mut().enumerate() {
        row[v] = true;
    }
    let mut ledger = MessageLedger::new(edge_slot_count(subgraph.edge_ids()));
    for round in 1..=radius {
        ledger.start_round();
        let mut next_fresh: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, fresh_v) in fresh.iter().enumerate() {
            if fresh_v.is_empty() {
                continue;
            }
            let sender = NodeId::from_usize(v);
            let bundle_bytes = TOKEN_BYTES * fresh_v.len() as u64;
            let mut receivers = Vec::new();
            match routing {
                FloodRouting::PerEdge => {
                    for ie in subgraph.incident_edges(sender) {
                        ledger.record_edge(ie.edge, bundle_bytes);
                        receivers.push(ie.neighbor.index());
                    }
                }
                FloodRouting::Canonical | FloodRouting::CongestionAware => {
                    for (neighbor, parallel) in &classes[v] {
                        let carrier = if routing == FloodRouting::Canonical {
                            parallel[0]
                        } else {
                            let offset = usize::from(v > neighbor.index());
                            parallel[(round as usize - 1 + offset) % parallel.len()]
                        };
                        ledger.record_edge(carrier, bundle_bytes);
                        receivers.push(neighbor.index());
                    }
                }
            }
            for u in receivers {
                for &token in fresh_v {
                    let bit = &mut known[u][token as usize];
                    if !*bit {
                        *bit = true;
                        next_fresh[u].push(token);
                    }
                }
            }
        }
        fresh = next_fresh;
    }

    Reference {
        ledger,
        tokens_received: known
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .collect(),
        known,
        subgraph_edges: subgraph.edge_count(),
    }
}

fn assert_equivalent(outcome: &BroadcastOutcome, reference: &Reference, radius: u32, case: &str) {
    assert_eq!(outcome.radius, radius, "{case}: radius");
    assert_eq!(
        outcome.subgraph_edges, reference.subgraph_edges,
        "{case}: subgraph edges"
    );
    assert_eq!(outcome.cost, reference.ledger.summary(), "{case}: cost");
    assert_eq!(
        outcome.ledger.messages_per_round(),
        reference.ledger.messages_per_round(),
        "{case}: messages per round"
    );
    assert_eq!(
        outcome.ledger.bytes_per_round(),
        reference.ledger.bytes_per_round(),
        "{case}: bytes per round"
    );
    assert_eq!(outcome.ledger, reference.ledger, "{case}: ledger");
    assert_eq!(
        outcome.tokens_received, reference.tokens_received,
        "{case}: tokens received"
    );
    for (holder, row) in reference.known.iter().enumerate() {
        for (source, &held) in row.iter().enumerate() {
            assert_eq!(
                outcome.holds_token(NodeId::from_usize(holder), NodeId::from_usize(source)),
                held,
                "{case}: holds_token({holder}, {source})"
            );
        }
    }
}

/// The graph families of the grid, each with a name. A family that needs
/// more nodes than `n` is skipped.
fn graphs(n: usize) -> Vec<(&'static str, MultiGraph)> {
    let config = GeneratorConfig::new(n, 7);
    let mut out = vec![("edgeless", MultiGraph::new(n))];
    if n >= 3 {
        out.push(("cycle", cycle_graph(&config).unwrap()));
    }
    if n >= 2 {
        out.push(("star", star_graph(&config).unwrap()));
        let p = (4.0 / n as f64).min(1.0);
        out.push(("er", connected_erdos_renyi(&config, p).unwrap()));
        // A multigraph: a sparse connected ER graph with every third
        // edge doubled and two more edges between nodes 0 and 1.
        let mut multi = connected_erdos_renyi(&config, (3.0 / n as f64).min(1.0)).unwrap();
        let doubled: Vec<(NodeId, NodeId)> = multi
            .edges()
            .filter(|e| e.id.index() % 3 == 0)
            .map(|e| (e.u, e.v))
            .collect();
        for (u, v) in doubled {
            multi.add_edge(u, v).unwrap();
        }
        multi.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        multi.add_edge(NodeId::new(1), NodeId::new(0)).unwrap();
        out.push(("multigraph", multi));
    }
    out
}

/// Full, partial (two edges of every three) and empty subgraphs.
fn subsets(graph: &MultiGraph) -> Vec<(&'static str, Vec<EdgeId>)> {
    let all: Vec<EdgeId> = graph.edge_ids().collect();
    let partial = all.iter().copied().filter(|e| e.index() % 3 != 1).collect();
    vec![("full", all), ("partial", partial), ("empty", Vec::new())]
}

const NODE_COUNTS: [usize; 5] = [1, 63, 64, 65, 130];
const RADII: std::ops::RangeInclusive<u32> = 0..=8;

#[test]
fn routed_kernel_matches_the_per_token_flood_for_every_policy() {
    for n in NODE_COUNTS {
        for (family, graph) in graphs(n) {
            for (subset, edges) in subsets(&graph) {
                for routing in [
                    FloodRouting::PerEdge,
                    FloodRouting::Canonical,
                    FloodRouting::CongestionAware,
                ] {
                    for radius in RADII {
                        let case = format!("n={n} {family} {subset} {routing:?} radius={radius}");
                        let outcome = flood_on_subgraph_routed(
                            &graph,
                            edges.iter().copied(),
                            radius,
                            routing,
                        )
                        .unwrap();
                        let reference = reference_flood(&graph, &edges, radius, routing);
                        assert_equivalent(&outcome, &reference, radius, &case);
                    }
                }
            }
        }
    }
}

/// The grid is only meaningful if its floods travel: pin that the routed
/// policies differ on the multigraph.
#[test]
fn the_grid_exercises_parallel_edges() {
    let graph = graphs(65).pop().unwrap().1;
    let edges: Vec<EdgeId> = graph.edge_ids().collect();
    let per_edge =
        flood_on_subgraph_routed(&graph, edges.iter().copied(), 4, FloodRouting::PerEdge).unwrap();
    let canonical =
        flood_on_subgraph_routed(&graph, edges.iter().copied(), 4, FloodRouting::Canonical)
            .unwrap();
    assert!(canonical.cost.messages < per_edge.cost.messages);
    assert_eq!(canonical.tokens_received, per_edge.tokens_received);
}
