//! The repository's benchmark: four seeded workloads over the dcf stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rnn_train|dist_loop|serve_requests|serve_streams|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it records spans around the
//! benchmark's calls into each layer, traces steps through `RunOptions`,
//! and reports the per-layer metrics; the spans go to
//! `.bench_trace/<workload>-<seed>.json` as Chrome trace-event JSON.
//! `--workload all` runs every workload untraced and traced, each in a
//! child process of its own (the compiled-graph cache is process-wide).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed output check prints `"correct": false` and exits with code 1.

mod closedloop;
mod dist_loop;
mod layers;
mod openloop;
mod rnn_train;
mod serve_requests;
mod serve_streams;
mod spans;
mod stats;

use stats::Ledger;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with tracing off.
///
/// * `setup_s`: median of [`SETUPS`] cold set-ups (graph build,
///   `gradients`, compile or registration, first warm-up run).
/// * `throughput_per_s`: train steps (`rnn_train`) or loop iterations
///   (`dist_loop`) per second, the median over forty windows of the run;
///   requests or stream rows served per second on the serving workloads.
/// * `latency_ms_p50`: per step or run; on the serving workloads from when
///   the request or chunk was due until it was fully served.
/// * `slo_frac`: share of attempted operations that finished within the
///   workload's latency limit; a failure counts as a miss.
/// * `ok_frac`: share of attempted operations that completed with correct
///   outputs, `1 − failed ÷ attempted`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("slo_frac", "frac"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer a
/// workload does not reach reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul_us", "us"),
    ("tensor.elementwise_us", "us"),
    ("tensor.matmul_flops", "count"),
    ("tensor.matmul_bytes", "bytes"),
    ("graph.build_ms", "ms"),
    ("graph.nodes", "count"),
    ("autodiff.grad_ms", "ms"),
    ("autodiff.nodes", "count"),
    ("runtime.compile_ms", "ms"),
    ("runtime.nodes_optimized", "count"),
    ("runtime.run_fixed_us", "us"),
    ("exec.activations_per_step", "count"),
    ("exec.frames_per_step", "count"),
    ("exec.dead_frac", "frac"),
    ("exec.control_ns", "ns"),
    ("exec.stack_ns", "ns"),
    ("exec.compute_ns", "ns"),
    ("exec.ready_wait_us_p50", "us"),
    ("exec.ready_wait_us_p99", "us"),
    ("device.kernels_per_step", "count"),
    ("device.handoff_us_p50", "us"),
    ("device.stream_busy_frac", "frac"),
    ("device.allocs_per_step", "count"),
    ("device.peak_mib", "MiB"),
    ("rendezvous.transfers_per_iter", "count"),
    ("rendezvous.wait_us_p50", "us"),
    ("rendezvous.wait_us_p99", "us"),
    ("rendezvous.pair_us", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p99", "ms"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.rejected", "count"),
    ("serve.first_row_ms_p50", "ms"),
    ("serve.first_row_ms_p99", "ms"),
    ("serve.iteration_rows_mean", "rows"),
    ("serve.iterations_per_stream", "count"),
    ("serve.latency_ms_p99", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "frac"),
    ("closure.residual_frac", "frac"),
];

/// A workload's name and entry point.
type Workload = (&'static str, fn(Config) -> Report);

/// Every workload.
const WORKLOADS: &[Workload] = &[
    ("rnn_train", rnn_train::run),
    ("dist_loop", dist_loop::run),
    ("serve_requests", serve_requests::run),
    ("serve_streams", serve_streams::run),
];

/// Per-layer figures of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    /// Sets `name`, which must be a [`PER_LAYER`] metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }
}

/// How a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured duration, seconds.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

/// What one workload run reports.
pub struct Report {
    /// Operations attempted and how they ended.
    pub ledger: Ledger,
    /// Output checks outside the ledger (set-up oracles) that failed.
    pub check_failures: u64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
}

impl Report {
    /// An untraced run's report: the end-to-end metrics every workload
    /// computes the same way from its ledger; `throughput_per_s` and the
    /// latency limit `limit_ms` are the workload's.
    pub fn end_to_end(
        ledger: Ledger,
        check_failures: u64,
        setup: &SetupTimes,
        throughput_per_s: f64,
        limit_ms: f64,
    ) -> Report {
        let lat = ledger.latencies_ms();
        let p50 = stats::percentile(lat, 0.5)
            .unwrap_or_else(|| panic!("{} completions are too few for a median", lat.len()));
        let end_to_end = vec![
            ("setup_s", setup.total_s),
            ("throughput_per_s", throughput_per_s),
            ("latency_ms_p50", p50),
            ("slo_frac", ledger.slo_frac(limit_ms)),
            ("ok_frac", ledger.ok_frac()),
        ];
        Report { ledger, check_failures, end_to_end, layers: Layers::default() }
    }

    /// A traced run's report.
    pub fn per_layer(ledger: Ledger, check_failures: u64, layers: Layers) -> Report {
        Report { ledger, check_failures, end_to_end: Vec::new(), layers }
    }
}

/// Options of every session the workloads build: one executor worker per
/// session. Beside the load threads and device streams, a second worker
/// adds hand-offs, not parallelism: on a 2-vCPU VM the default two
/// workers ran `dist_loop` about 3× slower, tripled the median stream
/// latency and widened `rnn_train`'s run-to-run spread.
pub fn session_options() -> dcf_runtime::SessionOptions {
    dcf_runtime::SessionOptions::functional()
        .with_executor(dcf_exec::ExecutorOptions { workers: 1, ..Default::default() })
}

/// Cold set-ups per run; the reported set-up times are their medians.
pub const SETUPS: u64 = 9;

/// How long one cold set-up took, by phase, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Building the model graph.
    pub build_s: f64,
    /// `gradients` (training graphs only).
    pub grad_s: f64,
    /// Compiling: `Session::new`, or registration plus the first request.
    pub compile_s: f64,
    /// The whole set-up, including the first warm-up run.
    pub total_s: f64,
}

impl SetupTimes {
    /// Sets the `graph`, `autodiff` and `runtime` set-up figures.
    pub fn layers(&self, out: &mut Layers) {
        out.set("graph.build_ms", self.build_s * 1e3);
        out.set("autodiff.grad_ms", self.grad_s * 1e3);
        out.set("runtime.compile_ms", self.compile_s * 1e3);
    }
}

/// Runs [`SETUPS`] cold set-ups, each from its own sub-seed of `seed` so
/// that none can reuse a graph compiled earlier in the process. Returns
/// the last set-up's product and the per-phase medians.
pub fn cold_setups<T>(seed: u64, mut setup: impl FnMut(u64) -> (T, SetupTimes)) -> (T, SetupTimes) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        // Drop the previous set-up before timing the next one.
        drop(last.take());
        let (product, t) = setup(stats::sub_seed(seed, k));
        times.push(t);
        last = Some(product);
    }
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
    let medians = SetupTimes {
        build_s: med(|t| t.build_s),
        grad_s: med(|t| t.grad_s),
        compile_s: med(|t| t.compile_s),
        total_s: med(|t| t.total_s),
    };
    (last.expect("at least one set-up"), medians)
}

/// Writes a traced run's spans to `.bench_trace/<workload>-<seed>.json`
/// under the working directory.
pub fn write_trace(workload: &str, seed: u64, spans: &spans::Spans) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_json(&format!("perfbench {workload}"))));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.iter().map(|(name, _)| *name).collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<(String, Config)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload =
        workload.filter(|w| w == "all" || WORKLOADS.iter().any(|(name, _)| name == w))?;
    Some((workload, Config { seed: seed?, seconds: seconds?, trace: trace? }))
}

impl Report {
    /// `false` if any output check failed.
    fn correct(&self) -> bool {
        self.check_failures == 0 && self.ledger.mismatches() == 0
    }

    /// Every metric of the run's kind as (name, value, unit).
    fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let (names, reported) =
            if trace { (PER_LAYER, &self.layers.0) } else { (END_TO_END, &self.end_to_end) };
        names
            .iter()
            .map(|&(name, unit)| {
                let value = reported.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                // A layer the workload does not reach did no work.
                let value = value.or(trace.then_some(0.0));
                (name, value.unwrap_or_else(|| panic!("workload did not report {name}")), unit)
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn json_line(&self, trace: bool) -> String {
        let body: Vec<String> = self
            .metrics(trace)
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ledger.attempted(),
            self.ledger.failed() + self.check_failures,
            body.join(", ")
        )
    }
}

/// Runs every workload untraced and traced, each in its own child process,
/// and prints their output.
fn run_all(cfg: Config) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for (w, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn workload process");
            print!("{}", String::from_utf8_lossy(&out.stdout));
            ok &= out.status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let Some((workload, cfg)) = parse_args() else { return usage() };
    if workload == "all" {
        return run_all(cfg);
    }
    let (_, run) = WORKLOADS.iter().find(|(name, _)| *name == workload).expect("validated name");
    let report = run(cfg);
    for (name, value, unit) in report.metrics(cfg.trace) {
        println!("{workload} {name} = {value:.6} {unit}");
    }
    println!("{}", report.json_line(cfg.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
