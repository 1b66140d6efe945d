//! Smoke-size self-test of the benchmark: every workload at tiny n, every
//! metric printed with its unit, every oracle passing; plus the timing
//! transport's transparency and the agreement of `BENCHMARK.json` with the
//! metric lists the benchmark prints.

use freelunch_bench::ScalingWorkload;
use freelunch_perfbench::pulse::{digest, oracle_states, Pulse};
use freelunch_perfbench::spec::{Shape, END_TO_END, PER_LAYER, WORKLOADS};
use freelunch_perfbench::timing::{DeliveryLog, TimingTransport};
use freelunch_perfbench::{run, RunOptions};
use freelunch_runtime::{FaultPlan, Network, NetworkConfig};
use std::path::PathBuf;

const ROUNDS: u32 = 6;

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn wrapped_run_equals_network_new_and_the_pulse_oracle() {
    let graph = ScalingWorkload::ScaleFree.build(600, 5).unwrap();
    let oracle = oracle_states(&graph.freeze(), ROUNDS);
    for shards in [1, 2] {
        let config = NetworkConfig::with_seed(9).sharded(shards);
        let programs = |node, _: &_| Pulse::new(node, ROUNDS);
        let mut plain = Network::new(&graph, config, programs).unwrap();
        plain.run_until_halt(ROUNDS + 1).unwrap();
        let mut wrapped = Network::with_transport(
            &graph,
            config,
            FaultPlan::none(),
            TimingTransport::new(),
            programs,
        )
        .unwrap();
        wrapped.run_until_halt(ROUNDS + 1).unwrap();

        let plain_states: Vec<u64> = plain.programs().iter().map(Pulse::state).collect();
        let wrapped_states: Vec<u64> = wrapped.programs().iter().map(Pulse::state).collect();
        assert_eq!(digest(&plain_states), digest(&wrapped_states));
        assert_eq!(plain_states, wrapped_states);
        assert_eq!(plain.metrics(), wrapped.metrics());
        assert_eq!(plain.ledger(), wrapped.ledger());
        assert_eq!(
            plain_states, oracle,
            "{shards} shard(s) disagree with the oracle"
        );

        let deliveries = wrapped.transport_mut().take_deliveries();
        assert_eq!(deliveries.len(), ROUNDS as usize + 1);
        let sent: u64 = deliveries.iter().map(|d| d.sent).sum();
        assert_eq!(sent, wrapped.cost().messages);
        assert!(deliveries.iter().all(|d| d.end >= d.start));
    }
    // The oracle is sensitive: one round fewer gives other states.
    assert_ne!(oracle_states(&graph.freeze(), ROUNDS - 1), oracle);
}

/// Layer metrics each kind of workload must measure as non-zero.
fn exercised_layers(shape: Shape) -> &'static [&'static str] {
    match shape {
        Shape::Engine(engine) if engine.checkpoint_every.is_some() => &[
            "msgs_per_s",
            "round_p50_ms",
            "round_p95_ms",
            "checkpoint_p50_ms",
            "restore_s",
            "engine.new_s",
            "engine.round_p50_ms",
            "engine.execute_p50_ms",
            "engine.msgs_per_round",
            "transport.deliver_p50_ms",
            "transport.deliver_ns_per_msg",
            "transport.deliver_share",
            "ledger.bytes",
            "checkpoint.capture_ms",
            "checkpoint.write_ms",
            "checkpoint.bytes",
            "checkpoint.read_ms",
            "engine.restore_ms",
        ],
        Shape::Engine(_) => &[
            "msgs_per_s",
            "round_p50_ms",
            "engine.new_s",
            "engine.init_s",
            "engine.round_p50_ms",
            "engine.execute_p50_ms",
            "engine.msgs_per_round",
            "transport.deliver_p50_ms",
            "transport.deliver_share",
            "ledger.bytes",
            "ledger.max_congestion",
        ],
        Shape::Pipeline(_) => &[
            "scheme_msgs",
            "scheme_rounds",
            "free_lunch_x",
            "sampler.run_s",
            "sampler.spanner_edges",
            "sampler.msgs",
            "tlocal.broadcast_s",
            "tlocal.coverage_s",
            "tlocal.msgs",
            "tlocal.rounds",
            "tlocal.bytes",
            "simulate.run_s",
            "simulate.checked",
            "flooding.direct_s",
            "flooding.msgs",
            "ledger.bytes",
        ],
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_oracles() {
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let options = RunOptions {
                workload,
                smoke: true,
                seed: 3,
                seconds: 0.0,
                trace,
                out_dir: out_dir("smoke"),
            };
            let outcome = run(&options).unwrap();
            let label = format!("{} trace={trace}", workload.name);
            assert!(outcome.checks.attempted >= 1, "{label}");
            assert!(
                outcome.checks.failures.is_empty(),
                "{label}: {:?}",
                outcome.checks.failures
            );

            let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let printed: Vec<&str> = outcome.metrics.names().collect();
            let mut expected: Vec<&str> = listed.iter().map(|(name, _)| *name).collect();
            expected.sort_unstable();
            assert_eq!(printed, expected, "{label}");
            let line = outcome.to_json();
            assert!(line.starts_with("{\"correct\": true, "), "{label}: {line}");
            for (name, unit) in listed {
                let (value, printed_unit) = outcome.metrics.get(name).unwrap();
                assert_eq!(printed_unit, *unit, "{label}: {name}");
                assert!(value.is_finite(), "{label}: {name} = {value}");
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{label}: {name} missing from {line}"
                );
            }
            let must_be_positive: Vec<&str> = if trace {
                exercised_layers(workload.shape).to_vec()
            } else {
                END_TO_END.iter().map(|(name, _)| *name).collect()
            };
            for name in must_be_positive {
                let (value, _) = outcome.metrics.get(name).unwrap();
                assert!(value > 0.0, "{label}: {name} = {value}");
            }
            if trace {
                let (ok_ratio, _) = outcome.metrics.get("simulate.checked_ok_ratio").unwrap();
                if matches!(workload.shape, Shape::Pipeline(_)) {
                    assert_eq!(ok_ratio, 1.0, "{label}");
                }
                let spans = out_dir("smoke").join(format!("spans-{}-seed3.json", workload.name));
                let dump = std::fs::read_to_string(spans).unwrap();
                assert!(dump.contains("\"name\": \"graph.generate\""), "{label}");
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics_and_workloads() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for workload in &WORKLOADS {
        let entry = format!(
            "{{\"name\": \"{}\", \"why\": \"{}\"}}",
            workload.name, workload.why
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"why\":").count(), WORKLOADS.len());
}
