//! Fault-injection walkthrough: the same seeded MIS execution subjected to
//! increasingly hostile (but fully deterministic) adversity.
//!
//! Run with `cargo run --example fault_injection`.

use freelunch::algorithms::{is_maximal_independent_set, LubyMis, MisState};
use freelunch::graph::generators::{sparse_connected_erdos_renyi, GeneratorConfig};
use freelunch::graph::{EdgeId, NodeId};
use freelunch::runtime::{FaultPlan, Network, NetworkConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(96, 11), 5.0)?;
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::none()),
        ("drop 20%", FaultPlan::new(7).with_drop_probability(0.2)),
        (
            "crash 3 nodes",
            FaultPlan::new(7)
                .with_crash(NodeId::new(10), 0)
                .with_crash(NodeId::new(40), 0)
                .with_crash(NodeId::new(70), 2),
        ),
        (
            "chaos",
            FaultPlan::new(7)
                .with_drop_probability(0.1)
                .with_duplicate_probability(0.1)
                .with_link_cut(EdgeId::new(5), 1)
                .with_delivery_perturbation(),
        ),
    ];

    println!("Luby MIS on sparse ER (n=96), one network seed, four adversities:\n");
    for (name, plan) in scenarios {
        // Shard count never changes an outcome — faulty or not — so pick
        // any; 2 here to step each round's programs on two workers.
        let config = NetworkConfig::with_seed(5).sharded(2);
        let mut network = Network::with_fault_plan(&graph, config, plan, |_, knowledge| {
            LubyMis::new(knowledge.degree())
        })?;
        let outcome = network.run_until_halt(300);
        let states: Vec<MisState> = network.programs().iter().map(LubyMis::state).collect();
        let in_set = states.iter().filter(|s| **s == MisState::InSet).count();
        let valid = is_maximal_independent_set(&graph, &states);
        let independent = graph.edges().all(|e| {
            !(states[e.u.index()] == MisState::InSet && states[e.v.index()] == MisState::InSet)
        });
        let faults = network.ledger().fault_totals();
        println!(
            "{name:>14}: |MIS|={in_set:2}  valid={valid}  independent={independent}  \
             halted={}  crashed={}  dropped={} (random {}, cut {}, crash {})  duplicated={}",
            outcome.is_ok(),
            network.crashed_count(),
            faults.dropped,
            faults.dropped_random,
            faults.dropped_link_cut,
            faults.dropped_crash,
            faults.duplicated,
        );
    }
    println!(
        "\nEvery line is a pure function of (graph seed, network seed, fault seed):\n\
         rerun the binary and the numbers will not move."
    );
    Ok(())
}
