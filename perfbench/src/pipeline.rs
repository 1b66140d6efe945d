//! The paper-pipeline workloads: direct flooding, the `Sampler` spanner,
//! the `t`-local broadcast with its coverage check, and the simulation of
//! `BallGathering` through the spanner.

use crate::report::{median, Checks, Metrics};
use crate::spec::{PipelineShape, WorkloadSpec};
use crate::trace::Tracer;
use crate::{timed, BenchResult, Timed};
use freelunch_algorithms::BallGathering;
use freelunch_baselines::direct_flooding;
use freelunch_bench::experiment_params;
use freelunch_core::ledger::{CostPhase, Ledger};
use freelunch_core::reduction::simulate::simulate_with_spanner;
use freelunch_core::reduction::tlocal::t_local_broadcast;
use freelunch_core::sampler::Sampler;
use freelunch_runtime::NetworkConfig;

/// The measurements of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRep {
    /// Graph generation, in seconds.
    pub generate_s: f64,
    /// The four stages, in seconds.
    pub run_s: f64,
    /// `direct_flooding`, in seconds.
    pub flood_s: f64,
    /// `Sampler::run`, in seconds.
    pub sampler_s: f64,
    /// `t_local_broadcast`, in seconds.
    pub broadcast_s: f64,
    /// `coverage_violations`, in seconds.
    pub coverage_s: f64,
    /// `simulate_with_spanner`, in seconds.
    pub simulate_s: f64,
    /// Messages of the direct flood.
    pub flood_msgs: u64,
    /// Payload bytes on the direct flood's ledger.
    pub flood_bytes: u64,
    /// Most messages on one edge in one round of the direct flood.
    pub flood_congestion: u64,
    /// Spanner edges.
    pub spanner_edges: u64,
    /// Messages charged for the spanner construction.
    pub sampler_msgs: u64,
    /// Messages of the broadcast on the spanner.
    pub tlocal_msgs: u64,
    /// Rounds of the broadcast on the spanner.
    pub tlocal_rounds: u64,
    /// Payload bytes of the broadcast on the spanner.
    pub tlocal_bytes: u64,
    /// Messages of the scheme (spanner plus broadcast), from the `Ledger`.
    pub scheme_msgs: u64,
    /// Rounds of the scheme, from the `Ledger`.
    pub scheme_rounds: u64,
    /// Direct flood messages over scheme messages.
    pub free_lunch_x: f64,
    /// Nodes whose output the simulation checked.
    pub checked: u64,
    /// Checked nodes whose output matched.
    pub matched: u64,
}

impl Timed for PipelineRep {
    fn setup_s(&self) -> f64 {
        self.generate_s
    }

    fn run_s(&self) -> f64 {
        self.run_s
    }
}

/// Graph generation alone, in seconds.
pub fn setup_only(spec: &WorkloadSpec, nodes: usize, seed: u64) -> BenchResult<f64> {
    let start = std::time::Instant::now();
    let graph = spec.generator.build(nodes, seed)?;
    let seconds = start.elapsed().as_secs_f64();
    drop(graph);
    Ok(seconds)
}

/// Runs one repetition and checks it.
pub fn rep(
    spec: &WorkloadSpec,
    shape: PipelineShape,
    nodes: usize,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> BenchResult<PipelineRep> {
    tracer.next_run();
    let (graph, generate_s) = timed(tracer, "graph.generate", |_| {
        spec.generator.build(nodes, seed)
    });
    let graph = graph?;
    let t = shape.t;
    let params = experiment_params(shape.k);
    let stretch = params.stretch_bound();
    let config = NetworkConfig::with_seed(seed).sharded(shape.shards);

    let mut stage_s = [0.0; 5];
    let (stages, run_s) = timed(tracer, "run", |tracer| -> BenchResult<_> {
        let (flood, seconds) = timed(tracer, "flooding.direct", |_| direct_flooding(&graph, t));
        stage_s[0] = seconds;
        let flood = flood?;
        let (spanner, seconds) = timed(tracer, "sampler.run", |_| {
            Sampler::new(params).run(&graph, seed)
        });
        stage_s[1] = seconds;
        let spanner = spanner?;
        let (broadcast, seconds) = timed(tracer, "tlocal.broadcast", |_| {
            t_local_broadcast(&graph, spanner.spanner_edges().iter().copied(), t, stretch)
        });
        stage_s[2] = seconds;
        let broadcast = broadcast?;
        let (violations, seconds) = timed(tracer, "tlocal.coverage", |_| {
            broadcast.coverage_violations(&graph, t)
        });
        stage_s[3] = seconds;
        let violations = violations?;
        let (report, seconds) = timed(tracer, "simulate.run", |_| {
            simulate_with_spanner(
                &graph,
                spanner.spanner_edges(),
                stretch,
                spanner.cost,
                t,
                config,
                |node, _| BallGathering::new(node, t),
                BallGathering::known_ids,
                shape.check_nodes,
            )
        });
        stage_s[4] = seconds;
        Ok((flood, spanner, broadcast, violations, report?))
    });
    let (flood, spanner, broadcast, violations, report) = stages?;

    let mut ledger = Ledger::new();
    ledger.charge(
        CostPhase::SpannerConstruction,
        "sampler spanner",
        spanner.cost,
    );
    ledger.charge(CostPhase::Broadcast, "t-local broadcast", broadcast.cost);
    ledger.charge(
        CostPhase::DirectExecution,
        "direct flooding",
        flood.broadcast.cost,
    );
    let scheme = ledger.scheme_cost();

    checks.check(violations == 0, || {
        format!("{}: {violations} t-local coverage violation(s)", spec.name)
    });
    checks.check(
        report.outputs_match() && report.nodes_checked == shape.check_nodes.min(nodes),
        || {
            format!(
                "{}: {} of {} checked node(s) disagree with the direct run",
                spec.name, report.mismatches, report.nodes_checked
            )
        },
    );
    checks.check(
        scheme.messages == spanner.cost.messages + broadcast.cost.messages,
        || {
            format!(
                "{}: scheme messages {} are not spanner {} plus broadcast {}",
                spec.name, scheme.messages, spanner.cost.messages, broadcast.cost.messages
            )
        },
    );
    checks.check(
        report.simulated_cost == spanner.cost + broadcast.cost,
        || {
            format!(
                "{}: the simulation charged {:?}, the stages {:?}",
                spec.name,
                report.simulated_cost,
                spanner.cost + broadcast.cost
            )
        },
    );

    Ok(PipelineRep {
        generate_s,
        run_s,
        flood_s: stage_s[0],
        sampler_s: stage_s[1],
        broadcast_s: stage_s[2],
        coverage_s: stage_s[3],
        simulate_s: stage_s[4],
        flood_msgs: flood.broadcast.cost.messages,
        flood_bytes: flood.ledger().total_bytes(),
        flood_congestion: flood.ledger().max_congestion(),
        spanner_edges: spanner.spanner_size() as u64,
        sampler_msgs: spanner.cost.messages,
        tlocal_msgs: broadcast.cost.messages,
        tlocal_rounds: broadcast.cost.rounds,
        tlocal_bytes: broadcast.ledger.total_bytes(),
        scheme_msgs: scheme.messages,
        scheme_rounds: scheme.rounds,
        free_lunch_x: ledger.free_lunch_ratio().unwrap_or(f64::NAN),
        checked: report.nodes_checked as u64,
        matched: (report.nodes_checked - report.mismatches) as u64,
    })
}

fn per_rep(reps: &[PipelineRep], f: impl Fn(&PipelineRep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Whole-workload metrics of untraced repetitions.
pub fn workload_metrics(reps: &[PipelineRep], metrics: &mut Metrics) {
    metrics.set("run_s", per_rep(reps, |rep| rep.run_s), "s");
    metrics.set(
        "scheme_msgs",
        per_rep(reps, |rep| rep.scheme_msgs as f64),
        "count",
    );
    metrics.set(
        "scheme_rounds",
        per_rep(reps, |rep| rep.scheme_rounds as f64),
        "count",
    );
    metrics.set(
        "free_lunch_x",
        per_rep(reps, |rep| rep.free_lunch_x),
        "ratio",
    );
}

/// A per-layer metric: name, unit, and its value in one repetition.
type LayerRow = (&'static str, &'static str, fn(&PipelineRep) -> f64);

/// Per-layer metrics of traced repetitions.
pub fn layer_metrics(reps: &[PipelineRep], metrics: &mut Metrics) {
    let rows: [LayerRow; 16] = [
        ("graph.generate_s", "s", |rep| rep.generate_s),
        ("flooding.direct_s", "s", |rep| rep.flood_s),
        ("flooding.msgs", "count", |rep| rep.flood_msgs as f64),
        ("ledger.bytes", "bytes", |rep| rep.flood_bytes as f64),
        ("ledger.max_congestion", "count", |rep| {
            rep.flood_congestion as f64
        }),
        ("sampler.run_s", "s", |rep| rep.sampler_s),
        ("sampler.spanner_edges", "count", |rep| {
            rep.spanner_edges as f64
        }),
        ("sampler.msgs", "count", |rep| rep.sampler_msgs as f64),
        ("tlocal.broadcast_s", "s", |rep| rep.broadcast_s),
        ("tlocal.coverage_s", "s", |rep| rep.coverage_s),
        ("tlocal.msgs", "count", |rep| rep.tlocal_msgs as f64),
        ("tlocal.rounds", "count", |rep| rep.tlocal_rounds as f64),
        ("tlocal.bytes", "bytes", |rep| rep.tlocal_bytes as f64),
        ("simulate.run_s", "s", |rep| rep.simulate_s),
        ("simulate.checked", "count", |rep| rep.checked as f64),
        ("simulate.checked_ok_ratio", "ratio", |rep| {
            rep.matched as f64 / rep.checked as f64
        }),
    ];
    for (name, unit, f) in rows {
        metrics.set(name, per_rep(reps, f), unit);
    }
}
