//! The benchmark's workloads and metric names.
//!
//! Every input is generated here from the command-line seed; the programs
//! under test only ever receive the generated graph.

use freelunch_bench::{ScalingWorkload, Workload};
use freelunch_graph::{GraphResult, MultiGraph};

/// How a workload's graph is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// `ScalingWorkload::ErdosRenyi`: sparse connected Erdős–Rényi graph
    /// with expected average degree 8, built in `O(n + m)`.
    SparseErdosRenyi,
    /// `ScalingWorkload::ScaleFree`: Barabási–Albert preferential
    /// attachment with 4 edges per node.
    ScaleFree,
    /// `Workload::DenseRandom`: connected Erdős–Rényi graph with edge
    /// probability 0.2, built by the `O(n²)` pair scan.
    DenseErdosRenyi,
}

impl Generator {
    /// Builds the graph with `nodes` nodes from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn build(self, nodes: usize, seed: u64) -> GraphResult<MultiGraph> {
        match self {
            Generator::SparseErdosRenyi => ScalingWorkload::ErdosRenyi.build(nodes, seed),
            Generator::ScaleFree => ScalingWorkload::ScaleFree.build(nodes, seed),
            Generator::DenseErdosRenyi => Workload::DenseRandom.build(nodes, seed),
        }
    }
}

/// An engine workload: every node broadcasts an 8-byte pulse for `rounds`
/// rounds on `shards` engine shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineShape {
    /// Engine worker shards.
    pub shards: usize,
    /// Pulse rounds (the last round only absorbs).
    pub rounds: u32,
    /// Rounds between checkpoints; `None` takes no checkpoints.
    pub checkpoint_every: Option<u32>,
}

/// A paper-pipeline workload: direct flooding, `Sampler::run`, `t`-local
/// broadcast plus coverage check, and `simulate_with_spanner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineShape {
    /// Locality of the simulated algorithm.
    pub t: u32,
    /// `Sampler` level count `k` (stretch `2·3^k − 1`), with the experiment
    /// constants and trial budget `h = 7`.
    pub k: u32,
    /// Engine worker shards of the simulation's engine runs.
    pub shards: usize,
    /// Nodes whose output `simulate_with_spanner` checks by re-running
    /// their ball.
    pub check_nodes: usize,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The pulse program on the engine.
    Engine(EngineShape),
    /// The paper pipeline.
    Pipeline(PipelineShape),
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Graph generator.
    pub generator: Generator,
    /// Node count of a benchmark run.
    pub nodes: usize,
    /// Node count of the smoke self-test.
    pub smoke_nodes: usize,
    /// What runs on the graph.
    pub shape: Shape,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The benchmark's workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "engine-er-serial",
        generator: Generator::SparseErdosRenyi,
        nodes: 1 << 18,
        smoke_nodes: 1 << 10,
        shape: Shape::Engine(EngineShape {
            shards: 1,
            rounds: 8,
            checkpoint_every: None,
        }),
        why: "Serial barrier (in-process deliver plus per-edge ledger) and set-up dominate; the flat-mailbox, ledger-layout and set-up work must show here, and a serial row must never regress.",
    },
    WorkloadSpec {
        name: "longrun-sf-sharded",
        generator: Generator::ScaleFree,
        nodes: 1 << 14,
        smoke_nodes: 1 << 9,
        shape: Shape::Engine(EngineShape {
            shards: 2,
            rounds: 200,
            checkpoint_every: Some(25),
        }),
        why: "Small n and 200 rounds at 2 shards: the sharded barrier's per-round fixed cost dominates; work-stealing over hubs and checkpoint capture, write, read and restore are busy only here.",
    },
    WorkloadSpec {
        name: "pipeline-sparse-er",
        generator: Generator::SparseErdosRenyi,
        nodes: 1 << 13,
        smoke_nodes: 1 << 8,
        shape: Shape::Pipeline(PipelineShape {
            t: 2,
            k: 2,
            shards: 2,
            check_nodes: 8,
        }),
        why: "Paper pipeline on sparse ER: the O(n^2) flood emulator, run twice, takes about 90% of the time; running t-local broadcast on the engine must show here.",
    },
    WorkloadSpec {
        name: "pipeline-dense-er",
        generator: Generator::DenseErdosRenyi,
        nodes: 768,
        smoke_nodes: 96,
        shape: Shape::Pipeline(PipelineShape {
            t: 2,
            k: 2,
            shards: 2,
            check_nodes: 8,
        }),
        why: "Paper pipeline where m >> n and the free lunch exists: BallGathering re-executing on the engine with Vec<u32> payloads takes about 95%; a flood replacement should not move it.",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// End-to-end metrics: printed by every run with `--trace 0`, on every
/// workload.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: printed by every run with `--trace 1`, on every
/// workload. A layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    // Whole-workload figures, taken from the untraced repetitions of the
    // traced run (each exists on a subset of the workloads only).
    ("msgs_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("checkpoint_p50_ms", "ms"),
    ("restore_s", "s"),
    ("scheme_msgs", "count"),
    ("scheme_rounds", "count"),
    ("free_lunch_x", "ratio"),
    // graph
    ("graph.generate_s", "s"),
    // runtime::engine
    ("engine.new_s", "s"),
    ("engine.init_s", "s"),
    ("engine.round_p50_ms", "ms"),
    ("engine.execute_p50_ms", "ms"),
    ("engine.msgs_per_round", "count"),
    // runtime::transport::in_process, through the timing wrapper
    ("transport.deliver_p50_ms", "ms"),
    ("transport.deliver_ns_per_msg", "ns"),
    ("transport.deliver_share", "ratio"),
    // runtime::metrics
    ("ledger.bytes", "bytes"),
    ("ledger.max_congestion", "count"),
    // runtime::checkpoint
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.read_ms", "ms"),
    ("engine.restore_ms", "ms"),
    // core::sampler
    ("sampler.run_s", "s"),
    ("sampler.spanner_edges", "count"),
    ("sampler.msgs", "count"),
    // core::reduction::tlocal
    ("tlocal.broadcast_s", "s"),
    ("tlocal.coverage_s", "s"),
    ("tlocal.msgs", "count"),
    ("tlocal.rounds", "count"),
    ("tlocal.bytes", "bytes"),
    // core::reduction::simulate
    ("simulate.run_s", "s"),
    ("simulate.checked_ok_ratio", "ratio"),
    ("simulate.checked", "count"),
    // baselines::flooding
    ("flooding.direct_s", "s"),
    ("flooding.msgs", "count"),
    // the tracing itself
    ("trace.overhead_frac", "ratio"),
];
