//! The repository benchmark.
//!
//! One command runs one named workload from a seed, for a time budget, and
//! prints one JSON result line: the oracle tally and either the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run). Every
//! number is measured from outside the program, by timing calls into each
//! module's public functions; the benchmark changes no program code.
//!
//! * `spec` — the workloads, their generator parameters and why each
//!   exists, and the metric names;
//! * `engine` / `pipeline` — one repetition of each kind of workload,
//!   with its oracle checks;
//! * `timing` — the timing transport wrapper behind the traced engine
//!   runs;
//! * `trace` — in-memory spans with parent links and self time;
//! * `pulse` — the engine workloads' program and its centralized oracle.

mod engine;
mod pipeline;
pub mod pulse;
pub mod report;
pub mod spec;
pub mod timing;
mod trace;

use freelunch_runtime::InProcessTransport;
use report::{median, Checks, Metrics, Outcome};
use spec::{Shape, WorkloadSpec, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use timing::TimingTransport;
use trace::Tracer;

/// Errors end a run without a result line.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Fewest timed repetitions of each kind a run makes, whatever its budget.
const MIN_REPS: usize = 3;

/// Fewest set-up samples `setup_s` is the median of.
const MIN_SETUPS: usize = 5;

/// Set-up repeats until its samples add up to this many seconds (or
/// [`MAX_SETUPS`] samples), so that cheap set-ups still get a stable median.
const SETUP_TARGET_S: f64 = 1.0;

/// Most set-up samples a run takes.
const MAX_SETUPS: usize = 100;

/// Runs `f` inside the span `name` and returns its result with its wall
/// time in seconds.
pub(crate) fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (R, f64) {
    let start = Instant::now();
    let result = tracer.span(name, f);
    (result, start.elapsed().as_secs_f64())
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Use the smoke-test node count instead of the benchmark's.
    pub smoke: bool,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Timed repetitions continue until this many seconds have passed.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Directory for checkpoint files and the span dump.
    pub out_dir: PathBuf,
}

impl RunOptions {
    fn nodes(&self) -> usize {
        if self.smoke {
            self.workload.smoke_nodes
        } else {
            self.workload.nodes
        }
    }
}

/// A directory removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(parent: &Path, name: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("{name}-{}-{unique}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The repetitions of one run.
struct Reps<R> {
    untraced: Vec<R>,
    traced: Vec<R>,
    /// Peak resident set size of each untraced repetition, in MiB. The
    /// high-water mark is reset before each repetition, so each reading
    /// covers one execution of the workload.
    peak_rss_mb: Vec<f64>,
}

/// Repeats `untraced` until at least [`MIN_REPS`] repetitions are made and
/// `seconds` have passed. Untraced and traced repetitions alternate when
/// `traced` is given, so both see the same machine conditions.
fn repeat<R>(
    seconds: f64,
    mut untraced: impl FnMut() -> BenchResult<R>,
    mut traced: Option<&mut dyn FnMut() -> BenchResult<R>>,
) -> BenchResult<Reps<R>> {
    let start = Instant::now();
    let mut reps = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: Vec::new(),
    };
    loop {
        report::reset_peak_rss();
        reps.untraced.push(untraced()?);
        reps.peak_rss_mb
            .push(report::peak_rss_mb().unwrap_or(f64::NAN));
        if let Some(traced) = traced.as_mut() {
            reps.traced.push(traced()?);
        }
        if reps.untraced.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= seconds {
            return Ok(reps);
        }
    }
}

/// Tops the set-up samples up to [`MIN_SETUPS`] and [`SETUP_TARGET_S`].
fn more_setups(
    samples: &mut Vec<f64>,
    mut setup: impl FnMut() -> BenchResult<f64>,
) -> BenchResult<()> {
    while samples.len() < MIN_SETUPS
        || (samples.iter().sum::<f64>() < SETUP_TARGET_S && samples.len() < MAX_SETUPS)
    {
        samples.push(setup()?);
    }
    Ok(())
}

/// Runs one workload and returns its result; the traced run also writes its
/// spans to `out_dir`.
///
/// # Errors
///
/// A generator, engine or file error ends the run; failed oracle checks do
/// not (they are counted in the result).
pub fn run(options: &RunOptions) -> BenchResult<Outcome> {
    let spec = options.workload;
    let nodes = options.nodes();
    let seed = options.seed;
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut tracer = if options.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    match spec.shape {
        Shape::Engine(shape) => {
            let scratch = ScratchDir::create(&options.out_dir, spec.name)?;
            let (mut expected, mut traced_expected) = (None, None);
            let mut traced_checks = Checks::default();
            let mut traced_rep = || {
                engine::rep(
                    spec,
                    shape,
                    nodes,
                    seed,
                    &scratch.0,
                    &mut traced_expected,
                    &mut tracer,
                    &mut traced_checks,
                    TimingTransport::<u64>::new,
                )
            };
            let reps = repeat(
                options.seconds,
                || {
                    engine::rep(
                        spec,
                        shape,
                        nodes,
                        seed,
                        &scratch.0,
                        &mut expected,
                        &mut Tracer::off(),
                        &mut checks,
                        InProcessTransport::<u64>::new,
                    )
                },
                options
                    .trace
                    .then_some(&mut traced_rep as &mut dyn FnMut() -> _),
            )?;
            checks.absorb(traced_checks);
            engine::workload_metrics(&reps.untraced, &mut metrics);
            if options.trace {
                engine::layer_metrics(&reps.traced, &tracer, &mut metrics);
            }
            summarize(spec.name, &reps, options.trace, &mut metrics, || {
                engine::setup_only(spec, shape, nodes, seed)
            })?;
        }
        Shape::Pipeline(shape) => {
            let mut traced_checks = Checks::default();
            let mut traced_rep =
                || pipeline::rep(spec, shape, nodes, seed, &mut tracer, &mut traced_checks);
            let reps = repeat(
                options.seconds,
                || pipeline::rep(spec, shape, nodes, seed, &mut Tracer::off(), &mut checks),
                options
                    .trace
                    .then_some(&mut traced_rep as &mut dyn FnMut() -> _),
            )?;
            checks.absorb(traced_checks);
            pipeline::workload_metrics(&reps.untraced, &mut metrics);
            if options.trace {
                pipeline::layer_metrics(&reps.traced, &mut metrics);
            }
            summarize(spec.name, &reps, options.trace, &mut metrics, || {
                pipeline::setup_only(spec, nodes, seed)
            })?;
        }
    }
    let names: &[(&'static str, &'static str)] = if options.trace {
        std::fs::create_dir_all(&options.out_dir)?;
        let path = options
            .out_dir
            .join(format!("spans-{}-seed{}.json", spec.name, seed));
        std::fs::write(&path, tracer.to_json())?;
        eprintln!("spans written to {}", path.display());
        &PER_LAYER
    } else {
        &END_TO_END
    };
    Ok(Outcome {
        checks,
        metrics: metrics.select(names),
    })
}

/// The two timings every repetition has.
pub(crate) trait Timed {
    /// Seconds from the seed to a ready graph (plus `Network`, if the
    /// workload builds one).
    fn setup_s(&self) -> f64;
    /// Seconds of the timed part.
    fn run_s(&self) -> f64;
}

/// Sets the metrics every workload reports the same way: `peak_rss_mb`,
/// and `setup_s` (untraced run) or `trace.overhead_frac` (traced run).
/// Prints the untraced `run_s` samples to standard error.
fn summarize<R: Timed>(
    name: &str,
    reps: &Reps<R>,
    trace: bool,
    metrics: &mut Metrics,
    setup_only: impl FnMut() -> BenchResult<f64>,
) -> BenchResult<()> {
    let run_s: Vec<f64> = reps.untraced.iter().map(Timed::run_s).collect();
    let show = |values: &[f64]| {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        shown.join(", ")
    };
    eprintln!(
        "{name}: {} untraced repetition(s), run_s = [{}], peak_rss_mb = [{}]",
        run_s.len(),
        show(&run_s),
        show(&reps.peak_rss_mb)
    );
    // The least reading: single readings on the pipelines are bimodal (the
    // allocator's per-thread arenas), and later repetitions also carry the
    // memory the allocator kept from earlier ones.
    let least = reps.peak_rss_mb.iter().copied().fold(f64::NAN, f64::min);
    metrics.set("peak_rss_mb", least, "MB");
    if trace {
        // How much longer the traced repetitions' median `run_s` is than
        // the untraced one, as a fraction of the untraced one.
        let traced: Vec<f64> = reps.traced.iter().map(Timed::run_s).collect();
        metrics.set(
            "trace.overhead_frac",
            median(&traced) / median(&run_s) - 1.0,
            "ratio",
        );
    } else {
        let mut setups: Vec<f64> = reps.untraced.iter().map(Timed::setup_s).collect();
        more_setups(&mut setups, setup_only)?;
        metrics.set("setup_s", median(&setups), "s");
    }
    Ok(())
}
