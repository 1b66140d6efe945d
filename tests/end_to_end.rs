//! Cross-crate integration tests: the full pipeline from graph generation
//! through spanner construction to message-reduced simulation of LOCAL
//! algorithms.

use freelunch::algorithms::{
    is_maximal_independent_set, is_proper_coloring, BallGathering, LubyMis, RandomizedColoring,
};
use freelunch::baselines::{direct_flooding, gossip_broadcast, BaswanaSen};
use freelunch::core::reduction::scheme::SamplerScheme;
use freelunch::core::reduction::simulate::simulate_with_spanner;
use freelunch::core::reduction::tlocal::t_local_broadcast;
use freelunch::core::sampler::{ConstantPolicy, Sampler, SamplerParams};
use freelunch::core::spanner_api::SpannerAlgorithm;
use freelunch::graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};
use freelunch::graph::spanner_check::verify_edge_stretch;
use freelunch::runtime::{Network, NetworkConfig};

fn practical_params(k: u32) -> SamplerParams {
    SamplerParams::with_constants(
        k,
        7,
        ConstantPolicy::Practical {
            target_factor: 4.0,
            query_factor: 4.0,
        },
    )
    .expect("valid parameters")
}

#[test]
fn sampler_spanner_supports_correct_t_local_broadcast() {
    let graph = connected_erdos_renyi(&GeneratorConfig::new(200, 3), 0.2).unwrap();
    let params = practical_params(2);
    let outcome = Sampler::new(params).run(&graph, 9).unwrap();

    // The spanner respects the stretch bound …
    let stretch = verify_edge_stretch(&graph, outcome.spanner_edges().iter().copied()).unwrap();
    assert!(stretch.satisfies(params.stretch_bound()));

    // … so flooding it for stretch·t rounds solves the t-local broadcast.
    let t = 2;
    let broadcast = t_local_broadcast(
        &graph,
        outcome.spanner_edges().iter().copied(),
        t,
        params.stretch_bound(),
    )
    .unwrap();
    assert_eq!(broadcast.coverage_violations(&graph, t).unwrap(), 0);
}

#[test]
fn scheme_beats_flooding_on_dense_graphs_and_gossip_on_rounds() {
    // The message gap opens on dense graphs (m ≫ n): use a clique, the
    // extreme of the regime the paper targets.
    let graph = complete_graph(&GeneratorConfig::new(256, 5)).unwrap();
    let t = 2;
    let scheme = SamplerScheme::with_constants(
        2,
        ConstantPolicy::Practical {
            target_factor: 4.0,
            query_factor: 4.0,
        },
    )
    .unwrap();
    let report = scheme.run(&graph, t, 7).unwrap();
    let flooding = direct_flooding(&graph, t).unwrap();
    let gossip = gossip_broadcast(&graph, t, 7).unwrap();

    // Fewer messages than flooding every edge of the dense graph …
    assert!(
        report.total_cost.messages < flooding.broadcast.cost.messages,
        "scheme sent {} messages, flooding {}",
        report.total_cost.messages,
        flooding.broadcast.cost.messages
    );
    // … and (unlike gossip) the rounds stay proportional to t rather than
    // growing with log n.
    assert!(gossip.completed);
    assert!(report.broadcast_cost.rounds <= u64::from(scheme.stretch() * t));
}

#[test]
fn luby_mis_and_coloring_run_on_the_runtime_and_validate() {
    let graph = connected_erdos_renyi(&GeneratorConfig::new(120, 8), 0.1).unwrap();

    let mut mis = Network::new(&graph, NetworkConfig::with_seed(1), |_, knowledge| {
        LubyMis::new(knowledge.degree())
    })
    .unwrap();
    mis.run_until_halt(300).unwrap();
    let states: Vec<_> = mis.programs().iter().map(LubyMis::state).collect();
    assert!(is_maximal_independent_set(&graph, &states));

    let mut coloring = Network::new(&graph, NetworkConfig::with_seed(2), |_, knowledge| {
        RandomizedColoring::new(knowledge.degree())
    })
    .unwrap();
    coloring.run_until_halt(400).unwrap();
    let colors: Vec<_> = coloring
        .programs()
        .iter()
        .map(RandomizedColoring::color)
        .collect();
    assert!(is_proper_coloring(&graph, &colors));
}

#[test]
fn free_lunch_simulation_preserves_outputs_and_saves_messages() {
    let graph = complete_graph(&GeneratorConfig::new(180, 4)).unwrap();
    let params = practical_params(2);
    let spanner = Sampler::new(params).run(&graph, 21).unwrap();
    let t = 2;

    let report = simulate_with_spanner(
        &graph,
        spanner.spanner_edges(),
        params.stretch_bound(),
        spanner.cost,
        t,
        NetworkConfig::with_seed(5),
        |node, _| BallGathering::new(node, t),
        |p| p.known_ids(),
        8,
    )
    .unwrap();

    assert!(
        report.outputs_match(),
        "{} ball-local mismatches",
        report.mismatches
    );
    assert!(
        report.simulated_cost.messages < report.direct_cost.messages,
        "simulated {} vs direct {}",
        report.simulated_cost.messages,
        report.direct_cost.messages
    );
}

#[test]
fn sampler_and_baswana_sen_expose_the_message_gap() {
    // The headline comparison: on a dense graph both produce valid constant-
    // stretch spanners, but only Baswana–Sen pays Ω(m) messages.
    let graph = connected_erdos_renyi(&GeneratorConfig::new(300, 6), 0.3).unwrap();
    let m = graph.edge_count() as u64;

    let sampler = Sampler::new(practical_params(2));
    let sampler_result = sampler.construct(&graph, 3).unwrap();
    let baswana = BaswanaSen::new(3).unwrap().construct(&graph, 3).unwrap();

    for result in [&sampler_result, &baswana] {
        let report = verify_edge_stretch(&graph, result.edges.iter().copied()).unwrap();
        assert!(
            report.satisfies(result.multiplicative_stretch),
            "{}",
            result.algorithm
        );
    }
    assert!(baswana.cost.messages >= m);
    assert!(
        sampler_result.cost.messages < baswana.cost.messages,
        "sampler {} vs baswana-sen {}",
        sampler_result.cost.messages,
        baswana.cost.messages
    );
}

#[test]
fn free_lunch_simulation_is_shard_invariant() {
    // The full simulation pipeline must produce the same report whether the
    // reference execution steps nodes sequentially or on 4 shards. Sharding
    // reaches only that run: the t-local broadcast is the flood kernel and
    // the ball-local checks run on the serial cone executor, which reads
    // only the config's seed and knowledge settings.
    let graph = complete_graph(&GeneratorConfig::new(96, 10)).unwrap();
    let params = practical_params(2);
    let spanner = Sampler::new(params).run(&graph, 13).unwrap();
    let t = 2;

    let run = |shards: usize| {
        simulate_with_spanner(
            &graph,
            spanner.spanner_edges(),
            params.stretch_bound(),
            spanner.cost,
            t,
            NetworkConfig::with_seed(5).sharded(shards),
            |node, _| BallGathering::new(node, t),
            |p| p.known_ids(),
            6,
        )
        .unwrap()
    };
    let sequential = run(1);
    assert!(sequential.outputs_match());
    assert_eq!(sequential, run(4));
}

#[test]
fn deterministic_end_to_end_replay() {
    let graph = connected_erdos_renyi(&GeneratorConfig::new(100, 2), 0.2).unwrap();
    let scheme = SamplerScheme::with_constants(
        1,
        ConstantPolicy::Practical {
            target_factor: 4.0,
            query_factor: 4.0,
        },
    )
    .unwrap();
    let a = scheme.run(&graph, 2, 77).unwrap();
    let b = scheme.run(&graph, 2, 77).unwrap();
    assert_eq!(a.total_cost, b.total_cost);
    assert_eq!(a.spanner_edges, b.spanner_edges);
}
