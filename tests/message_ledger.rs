//! Exact message-ledger accounting on hand-computed graphs, and the
//! cross-shard ledger-identity guarantee.
//!
//! The first half pins the flooding and gossip baselines to counts derived
//! by hand on a path, a star and `K4` — if any accounting rule of
//! `docs/METRICS.md` drifts (what counts as a message, byte sizing, round
//! slots, per-edge attribution), these tests fail with the exact number
//! that changed. The second half asserts the engine-level guarantee the
//! ledger inherits from the sharded engine: totals, per-edge vectors and
//! congestion are bit-identical across shard counts {1, 2, 8} at equal
//! seeds. The last block pins the per-edge round stamp that keeps the
//! congestion column exact without a per-round reset.

use freelunch::algorithms::BallGathering;
use freelunch::baselines::{direct_flooding, gossip_broadcast, BaswanaSen, ClusterSpanner};
use freelunch::core::ledger::{CostPhase, Ledger};
use freelunch::core::maintain::IncrementalSpanner;
use freelunch::core::reduction::tlocal::{flood_on_subgraph_routed, FloodRouting, TOKEN_BYTES};
use freelunch::graph::generators::{
    barabasi_albert, sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
};
use freelunch::graph::{EdgeId, MultiGraph, NodeId};
use freelunch::runtime::{
    Context, CostReport, Envelope, MessageLedger, Network, NetworkCheckpoint, NetworkConfig,
    NodeProgram,
};

/// Path 0 − 1 − 2 − 3 (edges e0, e1, e2).
fn path4() -> MultiGraph {
    let mut g = MultiGraph::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3)] {
        g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    g
}

/// Star with center 0 and leaves 1, 2, 3 (edges e0, e1, e2).
fn star4() -> MultiGraph {
    let mut g = MultiGraph::new(4);
    for v in 1..4 {
        g.add_edge(NodeId::new(0), NodeId::new(v)).unwrap();
    }
    g
}

/// The complete graph on 4 nodes (6 edges).
fn k4() -> MultiGraph {
    let mut g = MultiGraph::new(4);
    for u in 0..4u32 {
        for v in (u + 1)..4 {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
    }
    g
}

#[test]
fn flooding_on_the_path_counts_exactly() {
    let graph = path4();
    // Every node stays active through round 3 on a path of 4 (each round
    // delivers at least one unseen token to every node), and the degree sum
    // is 6, so each radius-r flood costs exactly 6r messages.
    for t in 1..=3u32 {
        let outcome = direct_flooding(&graph, t).unwrap();
        assert_eq!(outcome.broadcast.cost.messages, 6 * u64::from(t), "t={t}");
        assert_eq!(outcome.broadcast.cost.rounds, u64::from(t));
        // Each edge carries one message per direction per round.
        let per_edge = 2 * u64::from(t);
        assert_eq!(
            outcome.ledger().messages_per_edge(),
            &[per_edge, per_edge, per_edge][..],
            "t={t}"
        );
        assert_eq!(outcome.ledger().max_congestion(), 2);
        assert_eq!(outcome.ledger().summary(), outcome.broadcast.cost);
    }
    // Round 1 bundles hold exactly one token each: 6 × TOKEN_BYTES bytes.
    let outcome = direct_flooding(&graph, 1).unwrap();
    assert_eq!(outcome.ledger().bytes_per_round()[1], 6 * TOKEN_BYTES);
    assert_eq!(outcome.ledger().messages_per_round(), &[0, 6][..]);
}

#[test]
fn flooding_on_the_star_goes_quiet_at_the_center() {
    let graph = star4();
    // Round 1: center sends 3, each leaf 1 → 6. Round 2: everyone learned
    // something new in round 1 → 6 more. Round 3: the center learned
    // nothing new in round 2 (the leaves' fresh token was its own ID), so
    // only the 3 leaves send → 3.
    let expected = [(1u32, 6u64), (2, 12), (3, 15)];
    for (t, messages) in expected {
        let outcome = direct_flooding(&graph, t).unwrap();
        assert_eq!(outcome.broadcast.cost.messages, messages, "t={t}");
        assert_eq!(outcome.broadcast.coverage_violations(&graph, t).unwrap(), 0);
    }
    // At radius 3 each star edge carried 2+2+1 = 5 messages.
    let outcome = direct_flooding(&graph, 3).unwrap();
    assert_eq!(outcome.ledger().messages_per_edge(), &[5, 5, 5][..]);
    assert_eq!(outcome.ledger().messages_per_round(), &[0, 6, 6, 3][..]);
    assert_eq!(
        outcome.ledger().max_edge_messages_per_round(),
        &[0, 2, 2, 1][..]
    );
}

#[test]
fn flooding_on_k4_saturates_after_one_round() {
    let graph = k4();
    // Round 1: 4 nodes × 3 edges = 12 messages, after which everyone knows
    // every token. Round 2: everyone was fresh in round 1 → 12 more.
    // Round 3: nobody learned anything in round 2 → silence.
    let expected = [(1u32, 12u64), (2, 24), (3, 24)];
    for (t, messages) in expected {
        let outcome = direct_flooding(&graph, t).unwrap();
        assert_eq!(outcome.broadcast.cost.messages, messages, "t={t}");
    }
    let outcome = direct_flooding(&graph, 3).unwrap();
    assert_eq!(outcome.ledger().messages_per_round(), &[0, 12, 12, 0][..]);
    assert_eq!(outcome.ledger().messages_per_edge(), &[4u64; 6][..]);
    assert_eq!(outcome.ledger().max_congestion(), 2);
    // Bytes: round 1 bundles one token (12 × 4 bytes); round 2 bundles the
    // three tokens learned in round 1 (12 × 12 bytes).
    assert_eq!(outcome.ledger().bytes_per_round()[1], 12 * TOKEN_BYTES);
    assert_eq!(outcome.ledger().bytes_per_round()[2], 12 * 3 * TOKEN_BYTES);
}

#[test]
fn gossip_charges_two_messages_per_node_per_round() {
    // Push–pull sends exactly 2 messages per non-isolated node per round,
    // whatever edges the RNG picks — so on these 4-node graphs the total is
    // exactly 8 × rounds, and every byte carries the ⌈n/64⌉-word bitset.
    for (label, graph) in [("path", path4()), ("star", star4()), ("k4", k4())] {
        let outcome = gossip_broadcast(&graph, 1, 7).unwrap();
        assert!(outcome.completed, "{label}");
        assert_eq!(
            outcome.cost.messages,
            2 * 4 * outcome.cost.rounds,
            "{label}"
        );
        assert_eq!(outcome.ledger.summary(), outcome.cost, "{label}");
        assert_eq!(
            outcome.ledger.messages_per_edge().iter().sum::<u64>(),
            outcome.cost.messages,
            "{label}"
        );
        assert_eq!(outcome.ledger.total_bytes(), 8 * outcome.cost.messages);
        // Per round: 8 messages across ≤ 3–6 edges, so some edge carries at
        // least 2 and (two pickers per edge) at most 4.
        assert!(outcome.ledger.max_congestion() >= 2, "{label}");
        assert!(outcome.ledger.max_congestion() <= 4, "{label}");
    }
}

#[test]
fn gossip_on_the_star_funnels_through_the_center() {
    // Leaves have exactly one incident edge, so every leaf exchange lands
    // on a center edge: all 8 per-round messages cross the 3 star edges.
    let outcome = gossip_broadcast(&star4(), 1, 3).unwrap();
    assert!(outcome.completed);
    let total: u64 = outcome.ledger.messages_per_edge().iter().sum();
    assert_eq!(total, outcome.cost.messages);
    assert!(outcome
        .ledger
        .messages_per_edge()
        .iter()
        .all(|&c| c >= 2 * outcome.cost.rounds));
}

#[test]
fn baswana_sen_k1_counts_exactly_on_the_hand_graphs() {
    // k = 1 skips every clustering phase and performs only the final
    // cluster-joining wave: one communication wave in which every edge
    // carries one 4-byte cluster ID per direction. Exactly 2m messages,
    // 8m bytes, ledger round slots [0, 2m] — on any graph, any seed.
    for (label, graph) in [("path", path4()), ("star", star4()), ("k4", k4())] {
        for seed in [0u64, 7] {
            let m = graph.edge_count() as u64;
            let outcome = BaswanaSen::new(1).unwrap().run(&graph, seed).unwrap();
            let ledger = &outcome.ledger;
            assert_eq!(outcome.cost.messages, 2 * m, "{label} seed={seed}");
            assert_eq!(outcome.cost.rounds, 2, "{label} seed={seed}");
            assert_eq!(ledger.rounds(), 1, "{label} seed={seed}");
            assert_eq!(ledger.messages_per_round(), &[0, 2 * m][..], "{label}");
            assert_eq!(
                ledger.messages_per_edge(),
                &vec![2u64; m as usize][..],
                "{label} seed={seed}"
            );
            assert_eq!(ledger.max_congestion(), 2, "{label}");
            assert_eq!(ledger.total_bytes(), 4 * 2 * m, "{label}");
            assert_eq!(ledger.summary().messages, outcome.cost.messages, "{label}");
            assert_eq!(ledger.fault_totals().dropped, 0, "{label}");
        }
    }
}

#[test]
fn baswana_sen_k2_first_wave_touches_every_edge_of_k4() {
    // k = 2 on K4: wave 1 (the clustering phase) always meters every one of
    // the 6 edges twice — 12 messages — whatever the sampling does; wave 2
    // (the joining phase) can only touch surviving edges. Rounds: 3 for the
    // clustering phase + 2 for the final phase.
    let graph = k4();
    for seed in [1u64, 5, 9] {
        let outcome = BaswanaSen::new(2).unwrap().run(&graph, seed).unwrap();
        let ledger = &outcome.ledger;
        assert_eq!(outcome.cost.rounds, 5, "seed={seed}");
        assert_eq!(ledger.rounds(), 2, "seed={seed}");
        assert_eq!(ledger.messages_per_round()[0], 0, "seed={seed}");
        assert_eq!(ledger.messages_per_round()[1], 12, "seed={seed}");
        assert!(ledger.messages_per_round()[2] <= 12, "seed={seed}");
        assert_eq!(
            ledger.total_messages(),
            12 + ledger.messages_per_round()[2],
            "seed={seed}"
        );
        assert_eq!(
            outcome.cost.messages,
            ledger.total_messages(),
            "seed={seed}"
        );
        // Every message is one 4-byte cluster ID; per wave an edge carries
        // at most one message per direction.
        assert_eq!(
            ledger.total_bytes(),
            4 * ledger.total_messages(),
            "seed={seed}"
        );
        assert_eq!(ledger.max_congestion(), 2, "seed={seed}");
    }
}

#[test]
fn derbel_cluster_spanner_counts_exactly_on_the_hand_graphs() {
    // The Derbel-style direct execution is fully deterministic in the
    // meter: radius + 2 rounds, every edge carrying one 4-byte token per
    // direction per round. On path/star (m = 3) with ρ = 1 that is 3 rounds
    // × 6 messages; on K4 (m = 6), 3 rounds × 12.
    for (label, graph) in [("path", path4()), ("star", star4()), ("k4", k4())] {
        let m = graph.edge_count() as u64;
        for radius in [1u32, 2] {
            let rounds = u64::from(radius) + 2;
            let outcome = ClusterSpanner::new(radius).unwrap().run(&graph, 3).unwrap();
            let ledger = &outcome.ledger;
            let case = format!("{label} radius={radius}");
            assert_eq!(outcome.cost.rounds, rounds, "{case}");
            assert_eq!(outcome.cost.messages, 2 * m * rounds, "{case}");
            assert_eq!(ledger.rounds(), rounds, "{case}");
            let mut expected_rounds = vec![0u64];
            expected_rounds.extend(std::iter::repeat_n(2 * m, rounds as usize));
            assert_eq!(ledger.messages_per_round(), &expected_rounds[..], "{case}");
            assert_eq!(
                ledger.messages_per_edge(),
                &vec![2 * rounds; m as usize][..],
                "{case}"
            );
            assert_eq!(ledger.max_congestion(), 2, "{case}");
            assert_eq!(ledger.total_bytes(), 4 * outcome.cost.messages, "{case}");
            assert_eq!(ledger.summary(), outcome.cost, "{case}");
            assert_eq!(ledger.fault_totals().dropped, 0, "{case}");
        }
    }
}

#[test]
fn maintenance_repairs_count_exactly_on_the_hand_graphs() {
    // The per-operation repair meter of `docs/CHURN.md`, pinned by hand.
    // All three graphs are built with node 0 as the only seeded center, so
    // the cluster structure (and therefore every count) is fully
    // deterministic.
    let centers = [NodeId::new(0)];

    // Path insert: a fresh edge (0, 3) bridges cluster 0 and the singleton
    // cluster {3} — 2 endpoint notifications plus 1 adoption message when
    // the edge joins the spanner. One round.
    let mut path = IncrementalSpanner::with_centers(&path4(), &centers).unwrap();
    let report = path
        .insert_edge(EdgeId::new(3), NodeId::new(0), NodeId::new(3))
        .unwrap();
    assert_eq!(report.cost, CostReport::new(1, 3));
    assert_eq!(report.added_to_spanner, vec![EdgeId::new(3)]);

    // Star delete: e0 is leaf 1's tree edge. The poll costs 2·deg messages
    // — but the leaf has no remaining neighbors, so it re-homes to a
    // singleton cluster for free. Two rounds (poll + audit), zero messages.
    let mut star = IncrementalSpanner::with_centers(&star4(), &centers).unwrap();
    let report = star.delete_edge(EdgeId::new(0)).unwrap();
    assert_eq!(report.cost, CostReport::new(2, 0));
    assert!(report.removed_from_spanner);
    assert_eq!(report.rehomed, Some(NodeId::new(1)));

    // K4 delete of a non-spanner edge: e3 = (1, 2) is neither a tree edge
    // nor anyone's only foreign-cluster cover (all of K4 is one cluster),
    // so the repair is entirely free.
    let mut k4s = IncrementalSpanner::with_centers(&k4(), &centers).unwrap();
    let report = k4s.delete_edge(EdgeId::new(3)).unwrap();
    assert_eq!(report.cost, CostReport::new(0, 0));
    assert!(!report.removed_from_spanner);
    assert!(report.added_to_spanner.is_empty());

    // K4 delete of tree edge e0 = (0, 1): node 1 polls its 2 remaining
    // neighbors (4 messages), finds no adjacent center, re-homes to a
    // singleton, and the audit of {1} ∪ N(1) promotes e3 (covering 1 ↔
    // cluster 0 — which also covers node 2 back) and e4 (covering 3 ↔
    // cluster 1) at 2 messages each: 4 + 2 + 2 = 8, two rounds.
    let mut k4s = IncrementalSpanner::with_centers(&k4(), &centers).unwrap();
    let report = k4s.delete_edge(EdgeId::new(0)).unwrap();
    assert_eq!(report.cost, CostReport::new(2, 8));
    assert_eq!(
        report.added_to_spanner,
        vec![EdgeId::new(3), EdgeId::new(4)]
    );
    assert_eq!(report.rehomed, Some(NodeId::new(1)));
}

#[test]
fn maintenance_charges_land_in_their_own_ledger_phase() {
    // A three-event K4 stream with hand-computed totals: delete e3 is free;
    // delete e0 then polls only neighbor 3 (2 messages) and the audit
    // promotes e4 (2 more); re-inserting (0, 1) as e6 costs 2 + 1 adoption.
    // Cumulative bill: 3 rounds, 7 messages.
    let mut spanner = IncrementalSpanner::with_centers(&k4(), &[NodeId::new(0)]).unwrap();
    spanner.delete_edge(EdgeId::new(3)).unwrap();
    spanner.delete_edge(EdgeId::new(0)).unwrap();
    spanner
        .insert_edge(EdgeId::new(6), NodeId::new(0), NodeId::new(1))
        .unwrap();
    assert_eq!(spanner.maintenance_cost(), CostReport::new(3, 7));
    assert_eq!(spanner.repairs(), 3);

    // On the meter, maintenance is its own phase and counts into the
    // scheme's side of the free-lunch ratio.
    let mut ledger = Ledger::new();
    ledger.charge(
        CostPhase::SpannerConstruction,
        "seeded build",
        spanner.build_cost(),
    );
    ledger.charge(
        CostPhase::Maintenance,
        "3 churn repairs",
        spanner.maintenance_cost(),
    );
    ledger.charge(
        CostPhase::DirectExecution,
        "hypothetical direct run",
        CostReport::new(4, 100),
    );
    assert_eq!(
        ledger.phase_cost(CostPhase::Maintenance),
        CostReport::new(3, 7)
    );
    let scheme = ledger.scheme_cost();
    assert_eq!(
        scheme.messages,
        spanner.build_cost().messages + 7,
        "maintenance must count into the scheme cost"
    );
    let ratio = ledger.free_lunch_ratio().unwrap();
    assert!(
        (ratio - 100.0 / scheme.messages as f64).abs() < 1e-12,
        "free-lunch ratio must price maintenance in: {ratio}"
    );
}

/// K4 with the (0, 1) edge doubled: e0..e5 as in [`k4`], plus e6 = (0, 1).
fn k4_doubled_edge() -> MultiGraph {
    let mut g = k4();
    g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
    g
}

/// The diamond (4-cycle 0−1−2−3 plus the chord (0, 2)) with the chord
/// doubled: e0=(0,1), e1=(1,2), e2=(2,3), e3=(3,0), e4=(0,2), e5=(0,2).
fn diamond_doubled_chord() -> MultiGraph {
    let mut g = MultiGraph::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 2)] {
        g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
    }
    g
}

#[test]
fn congestion_aware_routing_on_k4_with_a_doubled_edge_counts_exactly() {
    // Neighbor-class routing sends one bundle per (sender, distinct
    // neighbor) per round: 4 nodes × 3 neighbors = 12 bundles per round,
    // and on K4 every node stays fresh through round 2 → exactly 24
    // messages at radius 2, whatever the parallel (0, 1) pair does.
    let graph = k4_doubled_edge();
    let edges: Vec<EdgeId> = graph.edge_ids().collect();
    let run =
        |routing| flood_on_subgraph_routed(&graph, edges.iter().copied(), 2, routing).unwrap();
    let canonical = run(FloodRouting::Canonical);
    let aware = run(FloodRouting::CongestionAware);
    for outcome in [&canonical, &aware] {
        assert_eq!(outcome.cost.messages, 24);
        assert_eq!(outcome.ledger.messages_per_round(), &[0, 12, 12][..]);
        // Simple edges carry both directions, so the per-round peak is 2
        // for both policies; only the parallel class distribution differs.
        assert_eq!(outcome.ledger.max_edge_messages_per_round(), &[0, 2, 2][..]);
        // Round 1 bundles one token (12 × 4 B), round 2 the three tokens
        // learned in round 1 (12 × 12 B).
        assert_eq!(outcome.ledger.bytes_per_round()[1], 12 * TOKEN_BYTES);
        assert_eq!(outcome.ledger.bytes_per_round()[2], 12 * 3 * TOKEN_BYTES);
        assert_eq!(outcome.tokens_received, vec![4, 4, 4, 4]);
    }
    // Canonical always picks the lowest-ID edge of the (0, 1) class: e0
    // carries all 4 bundles, the parallel e6 idles.
    assert_eq!(
        canonical.ledger.messages_per_edge(),
        &[4, 4, 4, 4, 4, 4, 0][..]
    );
    // Congestion-aware round-robins the class with a direction offset: each
    // of e0/e6 carries one direction per round — 2 and 2.
    assert_eq!(aware.ledger.messages_per_edge(), &[2, 4, 4, 4, 4, 4, 2][..]);
    // Pointwise domination holds in both directions here (equal peaks).
    let canonical_snap = canonical.ledger.congestion_snapshot();
    let aware_snap = aware.ledger.congestion_snapshot();
    assert!(aware_snap.never_exceeds(&canonical_snap));
    assert_eq!(aware_snap.total_messages, canonical_snap.total_messages);
    // The historical per-edge flood charges every incident edge instead of
    // every neighbor class: Σ deg = 14 bundles per round → 28 total, with
    // the same knowledge spread.
    let per_edge = run(FloodRouting::PerEdge);
    assert_eq!(per_edge.cost.messages, 28);
    assert_eq!(per_edge.tokens_received, vec![4, 4, 4, 4]);
}

#[test]
fn congestion_aware_routing_on_the_diamond_chord_counts_exactly() {
    // Diamond distinct-neighbor degrees are 3, 2, 3, 2 → 10 bundles per
    // round; every node learns something in round 1, so round 2 repeats:
    // exactly 20 messages at radius 2.
    let graph = diamond_doubled_chord();
    let edges: Vec<EdgeId> = graph.edge_ids().collect();
    let run =
        |routing| flood_on_subgraph_routed(&graph, edges.iter().copied(), 2, routing).unwrap();
    let canonical = run(FloodRouting::Canonical);
    let aware = run(FloodRouting::CongestionAware);
    for outcome in [&canonical, &aware] {
        assert_eq!(outcome.cost.messages, 20);
        assert_eq!(outcome.ledger.messages_per_round(), &[0, 10, 10][..]);
        assert_eq!(outcome.tokens_received, vec![4, 4, 4, 4]);
    }
    // The chord class (e4, e5): canonical rides e4 in both directions every
    // round (4 total, e5 idle); aware gives each direction its own edge.
    assert_eq!(
        canonical.ledger.messages_per_edge(),
        &[4, 4, 4, 4, 4, 0][..]
    );
    assert_eq!(aware.ledger.messages_per_edge(), &[4, 4, 4, 4, 2, 2][..]);
    assert_eq!(
        canonical.ledger.total_bytes(),
        aware.ledger.total_bytes(),
        "routing must not change the byte bill"
    );
    assert!(aware
        .ledger
        .congestion_snapshot()
        .never_exceeds(&canonical.ledger.congestion_snapshot()));
}

#[test]
fn congestion_aware_routing_dominates_canonical_on_duplicated_graphs() {
    // The property the routing variant guarantees on any multigraph:
    // identical totals/bytes/knowledge, and per-round max edge congestion
    // pointwise ≤ canonical. With every edge doubled the peak strictly
    // drops (each direction gets its own parallel edge).
    let community = sparse_planted_partition(&GeneratorConfig::new(96, 23), 4, 8.0, 1.0).unwrap();
    let scale_free = barabasi_albert(&GeneratorConfig::new(96, 29), 3).unwrap();
    for (name, base) in [("communities", community), ("scale-free", scale_free)] {
        for stride in [1usize, 2] {
            let mut graph = MultiGraph::new(base.node_count());
            let pairs: Vec<_> = base.edges().map(|e| (e.u, e.v)).collect();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                graph.add_edge(u, v).unwrap();
                if i % stride == 0 {
                    graph.add_edge(u, v).unwrap();
                }
            }
            for radius in [2u32, 3] {
                let edges: Vec<EdgeId> = graph.edge_ids().collect();
                let canonical = flood_on_subgraph_routed(
                    &graph,
                    edges.iter().copied(),
                    radius,
                    FloodRouting::Canonical,
                )
                .unwrap();
                let aware = flood_on_subgraph_routed(
                    &graph,
                    edges.iter().copied(),
                    radius,
                    FloodRouting::CongestionAware,
                )
                .unwrap();
                let case = format!("{name} stride={stride} radius={radius}");
                assert_eq!(canonical.cost, aware.cost, "{case}: totals changed");
                assert_eq!(
                    canonical.ledger.total_bytes(),
                    aware.ledger.total_bytes(),
                    "{case}: bytes changed"
                );
                assert_eq!(
                    canonical.tokens_received, aware.tokens_received,
                    "{case}: knowledge changed"
                );
                let canonical_snap = canonical.ledger.congestion_snapshot();
                let aware_snap = aware.ledger.congestion_snapshot();
                assert!(
                    aware_snap.never_exceeds(&canonical_snap),
                    "{case}: congestion-aware exceeded canonical"
                );
                if stride == 1 {
                    assert!(
                        aware_snap.peak < canonical_snap.peak,
                        "{case}: full duplication must flatten the peak \
                         (aware {} vs canonical {})",
                        aware_snap.peak,
                        canonical_snap.peak
                    );
                }
            }
        }
    }
}

/// Runs `BallGathering` for two rounds and returns the engine's ledger.
fn ball_gathering_ledger(graph: &MultiGraph, shards: usize, seed: u64) -> MessageLedger {
    let config = NetworkConfig::with_seed(seed).sharded(shards);
    let mut network = Network::new(graph, config, |node, _| BallGathering::new(node, 2)).unwrap();
    network.run_rounds(2).unwrap();
    network.ledger().clone()
}

#[test]
fn ledger_is_bit_identical_across_shard_counts() {
    let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(96, 17), 6.0).unwrap();
    for seed in [1u64, 42] {
        let reference = ball_gathering_ledger(&graph, 1, seed);
        assert!(reference.total_messages() > 0);
        for shards in [2usize, 8] {
            let sharded = ball_gathering_ledger(&graph, shards, seed);
            // Full structural equality: totals, per-edge and per-round
            // vectors, byte counts and congestion all match bit for bit.
            assert_eq!(reference, sharded, "seed={seed} shards={shards}");
            assert_eq!(
                reference.total_messages(),
                sharded.total_messages(),
                "seed={seed} shards={shards}"
            );
            assert_eq!(
                reference.total_bytes(),
                sharded.total_bytes(),
                "seed={seed} shards={shards}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The per-edge round stamp: an edge's current-slot count is valid only for
// the slot it was stamped with, so opening a slot resets nothing.
// ---------------------------------------------------------------------------

#[test]
fn one_edge_loaded_in_consecutive_rounds_counts_each_round_afresh() {
    let mut ledger = MessageLedger::new(2);
    ledger.record(0, 1);
    ledger.record(0, 1);
    for load in [1u64, 3, 2] {
        ledger.start_round();
        for _ in 0..load {
            ledger.record(0, 1);
        }
    }
    assert_eq!(ledger.max_edge_messages_per_round(), &[2, 1, 3, 2][..]);
    assert_eq!(ledger.messages_per_round(), &[2, 1, 3, 2][..]);
    assert_eq!(ledger.messages_per_edge(), &[8, 0][..]);
    assert_eq!(ledger.max_congestion(), 3);
}

#[test]
fn an_edge_silent_for_a_round_then_reused_starts_from_zero() {
    let mut ledger = MessageLedger::new(2);
    ledger.start_round();
    ledger.record(0, 4);
    ledger.record(0, 4);
    ledger.record(0, 4);
    ledger.start_round(); // e0 silent; only e1 talks
    ledger.record(1, 4);
    ledger.start_round(); // e0 again: its stale round-1 count must not leak
    ledger.record(0, 4);
    ledger.start_round(); // nobody talks
    assert_eq!(ledger.max_edge_messages_per_round(), &[0, 3, 1, 1, 0][..]);
    assert_eq!(ledger.messages_per_edge(), &[4, 1][..]);
    assert_eq!(ledger.bytes_per_edge(), &[16, 4][..]);
    assert_eq!(ledger.rounds(), 4);
}

#[test]
fn record_bulk_equals_that_many_single_records() {
    // (round slot, edge, count, bytes per message), interleaving edges
    // within a slot and revisiting edges across slots.
    let plan: [(usize, usize, u64, u64); 8] = [
        (0, 2, 3, 8),
        (0, 0, 1, 4),
        (1, 2, 2, 8),
        (1, 1, 5, 2),
        (1, 2, 4, 8),
        (3, 0, 7, 1),
        (3, 1, 1, 16),
        (3, 0, 2, 1),
    ];
    let mut bulk = MessageLedger::new(3);
    let mut single = MessageLedger::new(3);
    let mut slot = 0;
    for (round, edge, count, bytes) in plan {
        while slot < round {
            bulk.start_round();
            single.start_round();
            slot += 1;
        }
        bulk.record_bulk(edge, count, count * bytes);
        for _ in 0..count {
            single.record(edge, bytes);
        }
    }
    assert_eq!(bulk, single);
    assert_eq!(bulk.max_edge_messages_per_round(), &[3, 6, 0, 9][..]);
    assert_eq!(bulk.messages_per_edge(), &[10, 6, 9][..]);
    assert_eq!(bulk.bytes_per_edge(), &[13, 26, 72][..]);
    // A zero-count bulk record is a no-op.
    bulk.record_bulk(1, 0, 0);
    assert_eq!(bulk, single);
}

#[test]
fn edge_slots_grown_mid_execution_count_like_original_slots() {
    let mut grown = MessageLedger::new(2);
    let mut sized = MessageLedger::new(4);
    for ledger in [&mut grown, &mut sized] {
        ledger.record(1, 2);
        ledger.start_round();
        ledger.record(1, 2);
    }
    // Grow in the middle of round 1, then load the new slot in this round
    // and the next.
    grown.ensure_edge_slots(4);
    for ledger in [&mut grown, &mut sized] {
        ledger.record(3, 2);
        ledger.record(3, 2);
        ledger.start_round();
        ledger.record(3, 2);
        ledger.record(1, 2);
    }
    assert_eq!(grown, sized);
    assert_eq!(grown.edge_slots(), 4);
    assert_eq!(grown.max_edge_messages_per_round(), &[1, 2, 1][..]);
    assert_eq!(grown.messages_per_edge(), &[0, 3, 0, 3][..]);
}

/// Sends a round-dependent burst of 1–3 messages over its first port, and
/// one message over every other port, so per-round congestion varies from
/// round to round on the same edges.
struct Burst;

impl NodeProgram for Burst {
    type Message = u64;
    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0);
    }
    fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
        let burst = (ctx.node().index() + ctx.round() as usize) % 3 + 1;
        for _ in 0..burst {
            ctx.send_port(0, u64::from(ctx.round()));
        }
        for port in 1..ctx.degree() {
            ctx.send_port(port, 1);
        }
    }
}

#[test]
fn checkpoint_restore_mid_run_keeps_the_ledger_identical() {
    let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(64, 5), 4.0).unwrap();
    for shards in [1usize, 2] {
        let config = NetworkConfig::with_seed(3).sharded(shards);
        let mut reference = Network::new(&graph, config, |_, _| Burst).unwrap();
        reference.run_rounds(6).unwrap();
        let uninterrupted = reference.ledger().clone();
        assert!(uninterrupted.max_edge_messages_per_round()[1..]
            .iter()
            .all(|&c| c >= 2));

        let mut victim = Network::new(&graph, config, |_, _| Burst).unwrap();
        victim.run_rounds(3).unwrap();
        let bytes = victim.checkpoint().to_bytes();
        drop(victim);
        let checkpoint = NetworkCheckpoint::from_bytes(&bytes).unwrap();
        let mut resumed = Network::restore(&graph, &checkpoint, |_, _| Burst).unwrap();
        resumed.run_rounds(3).unwrap();
        let ledger = resumed.ledger();
        assert_eq!(ledger, &uninterrupted, "shards={shards}");
        assert_eq!(
            ledger.max_edge_messages_per_round(),
            uninterrupted.max_edge_messages_per_round(),
            "shards={shards}: congestion column"
        );
        assert_eq!(
            ledger.bytes_per_edge(),
            uninterrupted.bytes_per_edge(),
            "shards={shards}"
        );
    }
}
