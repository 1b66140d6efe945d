//! The `t`-local broadcast task (Section 6) realized by flooding on a
//! spanner.
//!
//! Every node `v` starts with a token; after the broadcast every node of
//! `B_{G,t}(v)` must hold `v`'s token. Given an `α`-spanner `H = (V, S)`,
//! flooding for `α·t` rounds *in `H`* accomplishes this: any node at
//! distance `≤ t` in `G` is at distance `≤ α·t` in `H`. Each node forwards
//! (a bundle of) newly learned tokens over its incident spanner edges once
//! per round, so at most `2·|S|` messages fly per round and the whole task
//! costs at most `2·α·t·|S|` messages — independent of `|E|`.
//!
//! # The flood kernel
//!
//! Every entry point of this module runs one private word-parallel kernel.
//! It keeps three `n × ⌈n/64⌉` bitsets of `u64` words — `known`, `fresh`
//! and `next` — where row `v`, bit `x` says that node `v` knows (respectively
//! learned last round, learns this round) token `x`. A node with a non-empty
//! `fresh` row sends one bundle per incident edge (or per distinct neighbor,
//! see [`FloodRouting`]) sized `TOKEN_BYTES · popcount(fresh[v])`; every
//! bundle that is delivered to `u` sets `next[u] |= fresh[v] & !known[u]`
//! word by word. At the end of the round `known |= next`, the popcount of
//! each `next` row becomes that node's next bundle size, and `fresh` and
//! `next` swap. Every `fresh` and `next` row also carries the span of words
//! outside which it is zero, so a bundle costs its sender's span (one word
//! in the first round) and the end-of-round pass touches only the spans.
//!
//! The kernel is exact, not an approximation of a per-token flood. Within a
//! round, the tokens a node newly learns form, *as a set*, the union of the
//! delivering senders' fresh sets minus what it knew at the start of the
//! round — the order in which bundles arrive cannot change that set.
//! Bundle sizes, knowledge and every ledger column depend only on those sets
//! and on the recording order, which is fixed: senders in ascending node
//! order, then incident-edge (or neighbor-class) order.

use crate::error::{CoreError, CoreResult};
use freelunch_graph::traversal::BallScratch;
use freelunch_graph::{EdgeId, MultiGraph, NodeId};
use freelunch_runtime::{edge_slot_count, CostReport, MessageLedger};
use serde::{Deserialize, Serialize};

/// Wire size charged per token in a bundled flooding message (tokens are
/// node IDs, serialized as `u32`). See `docs/METRICS.md` for the sizing
/// rules.
pub const TOKEN_BYTES: u64 = 4;

/// Result of a flooding run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastOutcome {
    /// Rounds and messages spent by the flooding itself (spanner
    /// construction is *not* included; schemes add it separately).
    pub cost: CostReport,
    /// Radius of the flooding (`α·t` for a `t`-local broadcast on an
    /// `α`-spanner).
    pub radius: u32,
    /// For every node, the number of distinct tokens it holds at the end.
    pub tokens_received: Vec<usize>,
    /// Number of edges (with multiplicity) of the flooding subgraph.
    pub subgraph_edges: usize,
    /// Per-edge / per-round message and byte accounting of the flooding —
    /// the same meter the synchronous runtime reports through, so baseline
    /// and scheme numbers are directly comparable. `ledger.summary()`
    /// always equals [`BroadcastOutcome::cost`].
    pub ledger: MessageLedger,
    /// The kernel's final `known` bitset: `⌈n/64⌉` words per holder row.
    #[serde(skip)]
    known: Vec<u64>,
}

impl BroadcastOutcome {
    /// Returns `true` if node `holder` ended up with the token of `source`.
    ///
    /// # Panics
    ///
    /// Panics if `holder` or `source` is not a node of the flooded graph.
    pub fn holds_token(&self, holder: NodeId, source: NodeId) -> bool {
        let n = self.tokens_received.len();
        assert!(
            holder.index() < n,
            "holder {} is not a node of the {n}-node flooded graph",
            holder.index()
        );
        assert!(
            source.index() < n,
            "source {} is not a node of the {n}-node flooded graph",
            source.index()
        );
        let words = n.div_ceil(64);
        let word = self.known[holder.index() * words + source.index() / 64];
        word & (1u64 << (source.index() % 64)) != 0
    }

    /// Verifies the `t`-local broadcast specification: for every node `v`
    /// and every node `u ∈ B_{G,t}(v)`, `u` holds `v`'s token. Returns the
    /// number of (holder, source) violations.
    ///
    /// One [`BallScratch`] serves all `n` ball queries, so the check costs
    /// `O(Σ_v |B_t(v)| · deg)` rather than `Θ(n²)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `graph` does not have the flooded graph's node
    /// count, and propagates graph errors from the ball computations.
    pub fn coverage_violations(&self, graph: &MultiGraph, t: u32) -> CoreResult<usize> {
        let n = self.tokens_received.len();
        if graph.node_count() != n {
            return Err(CoreError::invalid_parameter(format!(
                "coverage checked against a {}-node graph, but the flood ran on {n} nodes",
                graph.node_count()
            )));
        }
        let mut violations = 0;
        // One frozen view serves all n single-source ball queries.
        let frozen = graph.freeze();
        let mut scratch = BallScratch::default();
        for source in graph.nodes() {
            for &holder in scratch.ball(&frozen, source, t)? {
                if !self.holds_token(holder, source) {
                    violations += 1;
                }
            }
        }
        Ok(violations)
    }
}

/// The flood kernel shared by every entry point (see the module docs).
///
/// Runs `radius` rounds on `subgraph`'s node set. Each round it calls
/// `send(ledger, round, sender, bundle_bytes, receivers)` once per node that
/// learned at least one token in the previous round, in ascending node
/// order; `send` records that sender's bundles in the ledger and pushes
/// every node a bundle is delivered to onto `receivers`.
fn flood(
    subgraph: &MultiGraph,
    radius: u32,
    mut send: impl FnMut(&mut MessageLedger, u32, NodeId, u64, &mut Vec<usize>),
) -> BroadcastOutcome {
    let n = subgraph.node_count();
    let words = n.div_ceil(64);
    let mut known = vec![0u64; n * words];
    let mut fresh = vec![0u64; n * words];
    let mut next = vec![0u64; n * words];
    // Row `v` of `fresh` (`next`) is zero outside the words
    // `fresh_span[v]` (`next_span[v]`), so a bundle costs its span, not a
    // full row: one word in the first round.
    let mut fresh_span = Vec::with_capacity(n);
    for v in 0..n {
        known[v * words + v / 64] |= 1 << (v % 64);
        fresh[v * words + v / 64] |= 1 << (v % 64);
        fresh_span.push(v / 64..v / 64 + 1);
    }
    let mut next_span = vec![0..0; n];
    // `fresh_count[v]` is the popcount of `fresh` row `v`: the number of
    // tokens in `v`'s next bundle.
    let mut fresh_count = vec![1u64; n];
    let mut tokens_received = vec![1usize; n];
    let mut receivers = Vec::new();

    // The emulated flood reports through the same per-edge/per-round meter
    // as the synchronous runtime. Nodes are scanned in ascending order every
    // round, so the accumulation order is canonical by construction.
    let mut ledger = MessageLedger::new(edge_slot_count(subgraph.edge_ids()));
    for round in 1..=radius {
        ledger.start_round();
        for v in 0..n {
            if fresh_count[v] == 0 {
                continue;
            }
            receivers.clear();
            send(
                &mut ledger,
                round,
                NodeId::from_usize(v),
                TOKEN_BYTES * fresh_count[v],
                &mut receivers,
            );
            let span = fresh_span[v].clone();
            let bundle = &fresh[v * words..][span.clone()];
            for &u in &receivers {
                let known_u = &known[u * words..][span.clone()];
                let next_u = &mut next[u * words..][span.clone()];
                for ((next_w, &bundle_w), &known_w) in next_u.iter_mut().zip(bundle).zip(known_u) {
                    *next_w |= bundle_w & !known_w;
                }
                let next_span_u = &mut next_span[u];
                *next_span_u = if next_span_u.start == next_span_u.end {
                    span.clone()
                } else {
                    next_span_u.start.min(span.start)..next_span_u.end.max(span.end)
                };
            }
        }
        for u in 0..n {
            let row = u * words;
            let span = next_span[u].clone();
            let mut learned = 0;
            for (known_w, &next_w) in known[row..][span.clone()]
                .iter_mut()
                .zip(&next[row..][span])
            {
                *known_w |= next_w;
                learned += u64::from(next_w.count_ones());
            }
            fresh_count[u] = learned;
            tokens_received[u] += learned as usize;
            // This round's fresh row becomes next round's `next` row.
            fresh[row..][fresh_span[u].clone()].fill(0);
        }
        std::mem::swap(&mut fresh, &mut next);
        std::mem::swap(&mut fresh_span, &mut next_span);
        next_span.fill(0..0);
    }

    BroadcastOutcome {
        cost: ledger.summary(),
        radius,
        tokens_received,
        subgraph_edges: subgraph.edge_count(),
        ledger,
        known,
    }
}

/// Floods every node's token through the subgraph spanned by `subgraph_edges`
/// for exactly `radius` rounds, counting messages exactly: a node that
/// learned at least one new token in the previous round sends one (bundled)
/// message over each of its subgraph edges.
///
/// # Errors
///
/// Returns an error if any edge ID is unknown or the graph is empty.
pub fn flood_on_subgraph(
    graph: &MultiGraph,
    subgraph_edges: impl IntoIterator<Item = EdgeId>,
    radius: u32,
) -> CoreResult<BroadcastOutcome> {
    if graph.node_count() == 0 {
        return Err(CoreError::invalid_parameter("the graph has no nodes"));
    }
    let subgraph = graph.edge_subgraph(subgraph_edges)?;

    Ok(flood(
        &subgraph,
        radius,
        |ledger, _round, sender, bundle_bytes, receivers| {
            // One bundled message per incident subgraph edge.
            for ie in subgraph.incident_edges(sender) {
                ledger.record_edge(ie.edge, bundle_bytes);
                receivers.push(ie.neighbor.index());
            }
        },
    ))
}

/// How the flood assigns a token bundle to an edge when several parallel
/// edges join the sender to the same neighbor.
///
/// On simple graphs all three policies produce bit-identical outcomes (every
/// parallel class has size 1, so there is nothing to choose); they differ
/// only on multigraphs — e.g. spanners retaining parallel capacity links, or
/// workloads provisioned with bonded edges on high-traffic links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FloodRouting {
    /// One bundle per *incident edge*: parallel edges each carry a copy.
    /// This is the historical [`flood_on_subgraph`] behavior (and the
    /// paper's `2·|S|`-messages-per-round accounting, with `|S|` counting
    /// multiplicity).
    PerEdge,
    /// One bundle per *distinct neighbor*, always carried by the
    /// lowest-`EdgeId` edge of the parallel class. The deterministic
    /// first-edge baseline that congestion-aware routing is measured
    /// against.
    Canonical,
    /// One bundle per *distinct neighbor*, spread across the parallel class
    /// round-robin (with a direction-dependent offset, so for classes of
    /// size ≥ 2 the two directions never share an edge in a round). Sends
    /// exactly the same bundles as [`FloodRouting::Canonical`] — same total
    /// message count, same knowledge evolution — but its per-round maximum
    /// edge congestion is pointwise ≤ canonical's. See `docs/PLANNER.md`
    /// for the guarantee and the measured tail effect.
    CongestionAware,
}

/// [`flood_on_subgraph`] under an explicit [`FloodRouting`] policy.
///
/// [`FloodRouting::PerEdge`] reproduces [`flood_on_subgraph`] exactly. The
/// two neighbor-routed policies ([`FloodRouting::Canonical`] and
/// [`FloodRouting::CongestionAware`]) send one bundle per (sender, distinct
/// neighbor) pair per active round; they share message totals, byte totals,
/// round activity, and token knowledge with each other — only the per-edge
/// distribution (and hence the congestion column) differs. The routed
/// flood's cost is charged to the same phase accounting as the canonical
/// flood (callers wrap the returned [`BroadcastOutcome::cost`] in
/// [`crate::ledger::Ledger::for_tlocal`] exactly as before).
///
/// # Errors
///
/// Returns an error if any edge ID is unknown or the graph is empty.
pub fn flood_on_subgraph_routed(
    graph: &MultiGraph,
    subgraph_edges: impl IntoIterator<Item = EdgeId>,
    radius: u32,
    routing: FloodRouting,
) -> CoreResult<BroadcastOutcome> {
    if routing == FloodRouting::PerEdge {
        return flood_on_subgraph(graph, subgraph_edges, radius);
    }
    let n = graph.node_count();
    if n == 0 {
        return Err(CoreError::invalid_parameter("the graph has no nodes"));
    }
    let subgraph = graph.edge_subgraph(subgraph_edges)?;

    // Group each node's incident subgraph edges by neighbor, the parallel
    // classes sorted by edge ID. Built once; deterministic by construction.
    let mut classes: Vec<Vec<(NodeId, Vec<EdgeId>)>> = Vec::with_capacity(n);
    for v in subgraph.nodes() {
        let mut incident: Vec<(NodeId, EdgeId)> = subgraph
            .incident_edges(v)
            .iter()
            .map(|ie| (ie.neighbor, ie.edge))
            .collect();
        incident.sort_unstable_by_key(|&(u, e)| (u.index(), e.index()));
        let mut grouped: Vec<(NodeId, Vec<EdgeId>)> = Vec::new();
        for (u, e) in incident {
            match grouped.last_mut() {
                Some((last, edges)) if *last == u => edges.push(e),
                _ => grouped.push((u, vec![e])),
            }
        }
        classes.push(grouped);
    }

    Ok(flood(
        &subgraph,
        radius,
        |ledger, round, sender, bundle_bytes, receivers| {
            let v = sender.index();
            for (neighbor, parallel) in &classes[v] {
                let carrier = match routing {
                    FloodRouting::PerEdge => unreachable!("handled above"),
                    FloodRouting::Canonical => parallel[0],
                    FloodRouting::CongestionAware => {
                        // Round-robin over the class; the higher-ID endpoint
                        // starts one slot ahead, so classes of size ≥ 2 never
                        // carry both directions on the same edge in a round.
                        let k = parallel.len();
                        let offset = usize::from(v > neighbor.index());
                        parallel[(round as usize - 1 + offset) % k]
                    }
                };
                ledger.record_edge(carrier, bundle_bytes);
                receivers.push(neighbor.index());
            }
        },
    ))
}

/// The `t`-local broadcast of Lemma 12: flooding within distance
/// `stretch · t` on a `stretch`-spanner given by `spanner_edges`.
///
/// # Errors
///
/// Returns an error if `stretch` is zero or an edge ID is unknown.
pub fn t_local_broadcast(
    graph: &MultiGraph,
    spanner_edges: impl IntoIterator<Item = EdgeId>,
    t: u32,
    stretch: u32,
) -> CoreResult<BroadcastOutcome> {
    if stretch == 0 {
        return Err(CoreError::invalid_parameter(
            "the stretch must be at least 1",
        ));
    }
    flood_on_subgraph(graph, spanner_edges, stretch.saturating_mul(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, cycle_graph, GeneratorConfig};

    #[test]
    fn flooding_on_full_graph_covers_balls_exactly() {
        let graph = cycle_graph(&GeneratorConfig::new(10, 0)).unwrap();
        let outcome = t_local_broadcast(&graph, graph.edge_ids(), 2, 1).unwrap();
        assert_eq!(outcome.coverage_violations(&graph, 2).unwrap(), 0);
        // On a cycle, |B(v, 2)| = 5 for every v.
        assert!(outcome.tokens_received.iter().all(|&c| c == 5));
        assert_eq!(outcome.cost.rounds, 2);
        // Round 1: every node sends over both edges (20 messages); round 2 the
        // same (every node learned 2 new tokens in round 1).
        assert_eq!(outcome.cost.messages, 40);
    }

    #[test]
    fn flooding_on_a_spanner_needs_the_stretch_factor() {
        // Spanner = cycle minus one edge (stretch n−1 for that edge); with
        // radius t·1 coverage fails, with a large enough radius it succeeds.
        let graph = cycle_graph(&GeneratorConfig::new(8, 0)).unwrap();
        let spanner: Vec<EdgeId> = graph.edge_ids().filter(|e| e.raw() != 7).collect();
        let too_short = t_local_broadcast(&graph, spanner.iter().copied(), 1, 1).unwrap();
        assert!(too_short.coverage_violations(&graph, 1).unwrap() > 0);
        let long_enough = t_local_broadcast(&graph, spanner.iter().copied(), 1, 7).unwrap();
        assert_eq!(long_enough.coverage_violations(&graph, 1).unwrap(), 0);
    }

    #[test]
    fn message_count_is_bounded_by_two_s_per_round() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 3), 0.3).unwrap();
        let spanner: Vec<EdgeId> = graph.edge_ids().collect();
        let t = 3;
        let outcome = t_local_broadcast(&graph, spanner.iter().copied(), t, 1).unwrap();
        assert!(outcome.cost.messages <= 2 * spanner.len() as u64 * u64::from(t));
        assert_eq!(outcome.subgraph_edges, spanner.len());
    }

    #[test]
    fn radius_zero_sends_nothing() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 0).unwrap();
        assert_eq!(outcome.cost.messages, 0);
        assert!(outcome.tokens_received.iter().all(|&c| c == 1));
        // Every node trivially holds its own token.
        assert_eq!(outcome.coverage_violations(&graph, 0).unwrap(), 0);
    }

    #[test]
    fn parameter_validation() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        assert!(t_local_broadcast(&graph, graph.edge_ids(), 1, 0).is_err());
        assert!(flood_on_subgraph(&MultiGraph::new(0), std::iter::empty(), 1).is_err());
        assert!(flood_on_subgraph(&graph, [EdgeId::new(77)], 1).is_err());
    }

    #[test]
    fn ledger_agrees_with_cost_and_sizes_bundles() {
        let graph = cycle_graph(&GeneratorConfig::new(10, 0)).unwrap();
        let outcome = t_local_broadcast(&graph, graph.edge_ids(), 2, 1).unwrap();
        let ledger = &outcome.ledger;
        assert_eq!(ledger.summary(), outcome.cost);
        assert_eq!(
            ledger.messages_per_edge().iter().sum::<u64>(),
            outcome.cost.messages
        );
        // Round 1 bundles hold exactly one token (the node's own), so bytes
        // in slot 1 equal messages × TOKEN_BYTES.
        assert_eq!(
            ledger.bytes_per_round()[1],
            ledger.messages_per_round()[1] * TOKEN_BYTES
        );
        // On the cycle every edge carries one message per direction per
        // active round: congestion 2, and 4 messages per edge in total.
        assert_eq!(ledger.max_congestion(), 2);
        assert!(ledger.messages_per_edge().iter().all(|&c| c == 4));
        // Slot 0 (initialization) is always silent for the emulated flood.
        assert_eq!(ledger.messages_per_round()[0], 0);
    }

    #[test]
    fn routing_policies_coincide_on_simple_graphs() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(40, 9), 0.15).unwrap();
        let per_edge = flood_on_subgraph(&graph, graph.edge_ids(), 3).unwrap();
        for routing in [
            FloodRouting::PerEdge,
            FloodRouting::Canonical,
            FloodRouting::CongestionAware,
        ] {
            let routed = flood_on_subgraph_routed(&graph, graph.edge_ids(), 3, routing).unwrap();
            assert_eq!(routed, per_edge, "{routing:?}");
        }
    }

    /// Doubled cycle edges: canonical routing piles both directions onto the
    /// first parallel edge, congestion-aware routing gives each direction its
    /// own — same bundles, same totals, flatter congestion.
    #[test]
    fn congestion_aware_routing_flattens_parallel_classes() {
        let mut graph = MultiGraph::new(6);
        for v in 0..6u32 {
            let u = NodeId::new(v);
            let w = NodeId::new((v + 1) % 6);
            graph.add_edge(u, w).unwrap();
            graph.add_edge(u, w).unwrap();
        }
        let canonical =
            flood_on_subgraph_routed(&graph, graph.edge_ids(), 3, FloodRouting::Canonical).unwrap();
        let aware =
            flood_on_subgraph_routed(&graph, graph.edge_ids(), 3, FloodRouting::CongestionAware)
                .unwrap();
        // Identical traffic and knowledge...
        assert_eq!(aware.cost, canonical.cost);
        assert_eq!(aware.ledger.total_bytes(), canonical.ledger.total_bytes());
        assert_eq!(aware.tokens_received, canonical.tokens_received);
        // ...but the congestion column flattens from 2 to 1.
        let aware_snap = aware.ledger.congestion_snapshot();
        let canonical_snap = canonical.ledger.congestion_snapshot();
        assert_eq!(canonical_snap.peak, 2);
        assert_eq!(aware_snap.peak, 1);
        assert!(aware_snap.never_exceeds(&canonical_snap));
        // One bundle per (sender, distinct neighbor): half the per-edge
        // flood's traffic on a doubled graph.
        let per_edge = flood_on_subgraph(&graph, graph.edge_ids(), 3).unwrap();
        assert_eq!(2 * canonical.cost.messages, per_edge.cost.messages);
    }

    #[test]
    fn neighbor_routed_policies_share_knowledge_with_the_per_edge_flood() {
        let mut graph = connected_erdos_renyi(&GeneratorConfig::new(30, 4), 0.2).unwrap();
        // Thicken a few links with parallel capacity.
        for (u, v) in [(0u32, 1u32), (3, 7), (10, 11)] {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            if !graph.edges_between(u, v).is_empty() {
                graph.add_edge(u, v).unwrap();
            }
        }
        let per_edge = flood_on_subgraph(&graph, graph.edge_ids(), 4).unwrap();
        for routing in [FloodRouting::Canonical, FloodRouting::CongestionAware] {
            let routed = flood_on_subgraph_routed(&graph, graph.edge_ids(), 4, routing).unwrap();
            assert_eq!(routed.tokens_received, per_edge.tokens_received);
            assert_eq!(routed.coverage_violations(&graph, 4).unwrap(), 0);
            assert!(routed.cost.messages <= per_edge.cost.messages);
        }
    }

    #[test]
    fn routed_parameter_validation() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        assert!(flood_on_subgraph_routed(
            &MultiGraph::new(0),
            std::iter::empty(),
            1,
            FloodRouting::Canonical
        )
        .is_err());
        assert!(
            flood_on_subgraph_routed(&graph, [EdgeId::new(77)], 1, FloodRouting::Canonical)
                .is_err()
        );
    }

    #[test]
    fn holds_token_reports_exact_knowledge() {
        let graph = cycle_graph(&GeneratorConfig::new(6, 0)).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 1).unwrap();
        let v0 = NodeId::new(0);
        assert!(outcome.holds_token(v0, v0));
        assert!(outcome.holds_token(v0, NodeId::new(1)));
        assert!(outcome.holds_token(v0, NodeId::new(5)));
        assert!(!outcome.holds_token(v0, NodeId::new(3)));
    }

    /// A 10-node flood keeps one word per holder row, so source 64 of
    /// holder 0 would read holder 1's row: it must panic instead.
    #[test]
    #[should_panic(expected = "source 64 is not a node")]
    fn holds_token_rejects_an_out_of_range_source() {
        let graph = cycle_graph(&GeneratorConfig::new(10, 0)).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 3).unwrap();
        outcome.holds_token(NodeId::new(0), NodeId::new(64));
    }

    #[test]
    fn coverage_against_a_graph_of_another_size_is_an_error() {
        let graph = cycle_graph(&GeneratorConfig::new(10, 0)).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 3).unwrap();
        assert_eq!(outcome.coverage_violations(&graph, 3).unwrap(), 0);
        for n in [6, 12] {
            let other = cycle_graph(&GeneratorConfig::new(n, 0)).unwrap();
            assert!(
                matches!(
                    outcome.coverage_violations(&other, 3),
                    Err(CoreError::InvalidParameter { .. })
                ),
                "{n}-node graph"
            );
        }
    }
}
