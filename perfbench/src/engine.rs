//! The engine workloads: the pulse program on `Network`, optionally with
//! periodic checkpoints and a restore-and-replay check at the end.

use crate::pulse::{digest, oracle_states, Pulse};
use crate::report::{median, quantile, Checks, Metrics};
use crate::spec::{EngineShape, WorkloadSpec};
use crate::timing::DeliveryLog;
use crate::trace::Tracer;
use crate::{timed, BenchResult, Timed};
use freelunch_graph::{MultiGraph, NodeId};
use freelunch_runtime::{
    ChurnPlan, FaultPlan, InitialKnowledge, Network, NetworkCheckpoint, NetworkConfig, Transport,
};
use std::path::Path;

/// One checkpoint taken during a repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointTimes {
    /// `Network::checkpoint`, in seconds.
    pub capture_s: f64,
    /// `NetworkCheckpoint::write_to_file`, in seconds.
    pub write_s: f64,
    /// Size of the written file.
    pub bytes: u64,
}

/// Reading the last checkpoint back and restoring it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreTimes {
    /// `NetworkCheckpoint::read_from_file`, in seconds.
    pub read_s: f64,
    /// `Network::restore_with_plans`, in seconds.
    pub restore_s: f64,
}

/// The measurements of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRep {
    /// Graph generation, in seconds.
    pub generate_s: f64,
    /// Network construction, in seconds.
    pub new_s: f64,
    /// Initialization (round 0), in seconds.
    pub init_s: f64,
    /// Each round, in seconds.
    pub rounds_s: Vec<f64>,
    /// Each checkpoint.
    pub checkpoints: Vec<CheckpointTimes>,
    /// Initialization, rounds and checkpoints, in seconds.
    pub run_s: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Messages per delivered round, as the timing transport saw them
    /// (empty on the plain transport).
    pub sent_per_round: Vec<u64>,
    /// Payload bytes on the ledger.
    pub ledger_bytes: u64,
    /// Most messages on one edge in one round.
    pub max_congestion: u64,
    /// The restore of the last checkpoint, if one was taken.
    pub restore: Option<RestoreTimes>,
}

impl EngineRep {
    fn engine_s(&self) -> f64 {
        self.init_s + self.rounds_s.iter().sum::<f64>()
    }
}

impl Timed for EngineRep {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.new_s
    }

    fn run_s(&self) -> f64 {
        self.run_s
    }
}

/// The program factory of every network of the workload.
fn factory(rounds: u32) -> impl Fn(NodeId, &InitialKnowledge) -> Pulse + Copy {
    move |node, _| Pulse::new(node, rounds)
}

/// Hands the deliveries the transport observed to the tracer.
fn drain<T: Transport<u64> + DeliveryLog>(
    network: &mut Network<Pulse, T>,
    tracer: &mut Tracer,
    sent_per_round: &mut Vec<u64>,
) {
    for delivery in network.transport_mut().take_deliveries() {
        tracer.record("transport.deliver", delivery.start, delivery.end);
        if delivery.round > 0 {
            sent_per_round.push(delivery.sent);
        }
    }
}

/// The centrally computed outputs the engine must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    states: Vec<u64>,
    messages: u64,
}

impl Expected {
    /// Computes the oracle for `graph`, without the engine.
    pub fn compute(graph: &MultiGraph, rounds: u32) -> Self {
        let csr = graph.freeze();
        Expected {
            states: oracle_states(&csr, rounds),
            messages: u64::from(rounds) * csr.incidence_count() as u64,
        }
    }
}

/// Runs one repetition on the transport `make` builds, and checks it.
#[allow(clippy::too_many_arguments)]
pub fn rep<T: Transport<u64> + DeliveryLog>(
    spec: &WorkloadSpec,
    shape: EngineShape,
    nodes: usize,
    seed: u64,
    scratch: &Path,
    expected: &mut Option<Expected>,
    tracer: &mut Tracer,
    checks: &mut Checks,
    make: impl Fn() -> T,
) -> BenchResult<EngineRep> {
    tracer.next_run();
    let (graph, generate_s) = timed(tracer, "graph.generate", |_| {
        spec.generator.build(nodes, seed)
    });
    let graph = graph?;
    let config = NetworkConfig::with_seed(seed).sharded(shape.shards);
    let programs = factory(shape.rounds);
    let (network, new_s) = timed(tracer, "engine.new", |_| {
        Network::with_transport(&graph, config, FaultPlan::none(), make(), programs)
    });
    let mut network = network?;
    let path = scratch.join("latest.ckpt");

    let mut init_s = 0.0;
    let mut rounds_s = Vec::with_capacity(shape.rounds as usize);
    let mut checkpoints = Vec::new();
    let mut sent_per_round = Vec::new();
    let mut last_checkpoint = None;
    let (run, run_s) = timed(tracer, "run", |tracer| -> BenchResult<()> {
        let (init, seconds) = timed(tracer, "engine.init", |tracer| {
            let result = network.initialize();
            drain(&mut network, tracer, &mut sent_per_round);
            result
        });
        init?;
        init_s = seconds;
        for round in 1..=shape.rounds {
            let (result, seconds) = timed(tracer, "engine.round", |tracer| {
                let result = network.run_round();
                drain(&mut network, tracer, &mut sent_per_round);
                result
            });
            result?;
            rounds_s.push(seconds);
            let due = shape
                .checkpoint_every
                .is_some_and(|every| round % every == 0 && round < shape.rounds);
            if due {
                let times = tracer.span("checkpoint", |tracer| -> BenchResult<_> {
                    let (checkpoint, capture_s) =
                        timed(tracer, "checkpoint.capture", |_| network.checkpoint());
                    let (written, write_s) = timed(tracer, "checkpoint.write", |_| {
                        checkpoint.write_to_file(&path)
                    });
                    written?;
                    Ok(CheckpointTimes {
                        capture_s,
                        write_s,
                        bytes: std::fs::metadata(&path)?.len(),
                    })
                })?;
                checkpoints.push(times);
                last_checkpoint = Some(round);
            }
        }
        Ok(())
    });
    run?;

    let states: Vec<u64> = network.programs().iter().map(Pulse::state).collect();
    let restore = match last_checkpoint {
        None => None,
        Some(round) => {
            let (mut restored, times) = restore_from(&graph, &path, tracer, &make, programs)?;
            restored.run_rounds(shape.rounds - round)?;
            let resumed: Vec<u64> = restored.programs().iter().map(Pulse::state).collect();
            checks.check(
                digest(&resumed) == digest(&states)
                    && resumed == states
                    && restored.metrics() == network.metrics()
                    && restored.ledger() == network.ledger(),
                || {
                    format!(
                        "{}: resuming from the round-{round} checkpoint diverged from the \
                         uninterrupted run",
                        spec.name
                    )
                },
            );
            Some(times)
        }
    };
    let messages = network.cost().messages;
    let ledger = network.ledger();
    let (ledger_messages, ledger_bytes, max_congestion) = (
        ledger.total_messages(),
        ledger.total_bytes(),
        ledger.max_congestion(),
    );
    // The oracle's memory must not add to the engine's in the peak RSS.
    drop(network);

    let expected = expected.get_or_insert_with(|| Expected::compute(&graph, shape.rounds));
    let wrong = states
        .iter()
        .zip(&expected.states)
        .filter(|(got, want)| got != want)
        .count();
    checks.check(wrong == 0 && states.len() == expected.states.len(), || {
        format!(
            "{}: {wrong} node state(s) differ from the pulse oracle",
            spec.name
        )
    });
    checks.check(
        messages == expected.messages && ledger_messages == messages,
        || {
            format!(
                "{}: {messages} messages delivered, the oracle expects {}",
                spec.name, expected.messages
            )
        },
    );

    Ok(EngineRep {
        generate_s,
        new_s,
        init_s,
        rounds_s,
        checkpoints,
        run_s,
        messages,
        sent_per_round,
        ledger_bytes,
        max_congestion,
        restore,
    })
}

/// Reads the checkpoint at `path` and restores it onto a fresh transport.
fn restore_from<T: Transport<u64>>(
    graph: &MultiGraph,
    path: &Path,
    tracer: &mut Tracer,
    make: &impl Fn() -> T,
    programs: impl Fn(NodeId, &InitialKnowledge) -> Pulse,
) -> BenchResult<(Network<Pulse, T>, RestoreTimes)> {
    tracer.span("restore", |tracer| {
        let (checkpoint, read_s) = timed(tracer, "checkpoint.read", |_| {
            NetworkCheckpoint::read_from_file(path)
        });
        let checkpoint = checkpoint?;
        let (network, restore_s) = timed(tracer, "engine.restore", |_| {
            Network::restore_with_plans(
                graph,
                FaultPlan::none(),
                ChurnPlan::none(),
                make(),
                &checkpoint,
                programs,
            )
        });
        Ok((network?, RestoreTimes { read_s, restore_s }))
    })
}

/// Set-up alone: generation plus `Network::new`, in seconds.
pub fn setup_only(
    spec: &WorkloadSpec,
    shape: EngineShape,
    nodes: usize,
    seed: u64,
) -> BenchResult<f64> {
    let start = std::time::Instant::now();
    let graph = spec.generator.build(nodes, seed)?;
    let config = NetworkConfig::with_seed(seed).sharded(shape.shards);
    let network = Network::new(&graph, config, factory(shape.rounds))?;
    let seconds = start.elapsed().as_secs_f64();
    drop(network);
    Ok(seconds)
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Whole-workload metrics of untraced repetitions.
pub fn workload_metrics(reps: &[EngineRep], metrics: &mut Metrics) {
    let run: Vec<f64> = reps.iter().map(Timed::run_s).collect();
    metrics.set("run_s", median(&run), "s");
    let throughput: Vec<f64> = reps
        .iter()
        .map(|rep| rep.messages as f64 / rep.engine_s())
        .collect();
    metrics.set("msgs_per_s", median(&throughput), "1/s");
    let rounds: Vec<f64> = reps.iter().flat_map(|rep| rep.rounds_s.clone()).collect();
    metrics.set("round_p50_ms", ms(median(&rounds)), "ms");
    metrics.set("round_p95_ms", ms(quantile(&rounds, 0.95)), "ms");
    let pauses: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.checkpoints.iter().map(|c| c.capture_s + c.write_s))
        .collect();
    if !pauses.is_empty() {
        metrics.set("checkpoint_p50_ms", ms(median(&pauses)), "ms");
    }
    let restores: Vec<f64> = reps
        .iter()
        .filter_map(|rep| rep.restore.map(|r| r.read_s + r.restore_s))
        .collect();
    if !restores.is_empty() {
        metrics.set("restore_s", median(&restores), "s");
    }
}

/// Per-layer metrics of traced repetitions and the spans they recorded.
pub fn layer_metrics(reps: &[EngineRep], tracer: &Tracer, metrics: &mut Metrics) {
    let per_rep = |f: &dyn Fn(&EngineRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    metrics.set("graph.generate_s", per_rep(&|rep| rep.generate_s), "s");
    metrics.set("engine.new_s", per_rep(&|rep| rep.new_s), "s");
    metrics.set("engine.init_s", per_rep(&|rep| rep.init_s), "s");
    metrics.set(
        "engine.round_p50_ms",
        ms(median(&tracer.durations_s("engine.round"))),
        "ms",
    );
    metrics.set(
        "engine.execute_p50_ms",
        ms(median(&tracer.self_times_s("engine.round"))),
        "ms",
    );
    let sent: Vec<f64> = reps
        .iter()
        .flat_map(|rep| rep.sent_per_round.iter().map(|&s| s as f64))
        .collect();
    metrics.set("engine.msgs_per_round", median(&sent), "count");
    let deliveries = tracer.durations_s("transport.deliver");
    metrics.set("transport.deliver_p50_ms", ms(median(&deliveries)), "ms");
    let deliver_total: f64 = deliveries.iter().sum();
    let messages: u64 = reps.iter().map(|rep| rep.messages).sum();
    let engine_total: f64 = reps.iter().map(EngineRep::engine_s).sum();
    metrics.set(
        "transport.deliver_ns_per_msg",
        deliver_total * 1e9 / messages as f64,
        "ns",
    );
    metrics.set(
        "transport.deliver_share",
        deliver_total / engine_total,
        "ratio",
    );
    if let Some(last) = reps.last() {
        metrics.set("ledger.bytes", last.ledger_bytes as f64, "bytes");
        metrics.set("ledger.max_congestion", last.max_congestion as f64, "count");
    }
    let checkpoints: Vec<CheckpointTimes> = reps
        .iter()
        .flat_map(|rep| rep.checkpoints.clone())
        .collect();
    if !checkpoints.is_empty() {
        let pick = |f: &dyn Fn(&CheckpointTimes) -> f64| {
            median(&checkpoints.iter().map(f).collect::<Vec<_>>())
        };
        metrics.set("checkpoint.capture_ms", ms(pick(&|c| c.capture_s)), "ms");
        metrics.set("checkpoint.write_ms", ms(pick(&|c| c.write_s)), "ms");
        metrics.set("checkpoint.bytes", pick(&|c| c.bytes as f64), "bytes");
    }
    let restores: Vec<RestoreTimes> = reps.iter().filter_map(|rep| rep.restore).collect();
    if !restores.is_empty() {
        let pick =
            |f: &dyn Fn(&RestoreTimes) -> f64| median(&restores.iter().map(f).collect::<Vec<_>>());
        metrics.set("checkpoint.read_ms", ms(pick(&|r| r.read_s)), "ms");
        metrics.set("engine.restore_ms", ms(pick(&|r| r.restore_s)), "ms");
    }
}
