//! `serve_requests`: open-loop single-row requests through
//! `ModelHandle::submit` to a small while-loop model.
//!
//! Every batch is one short `Session::run`, so the fixed cost of a run and
//! the stateless batcher dominate: few activations per run and no kernel
//! weight. One replica and the default `BatchPolicy` (one lane).

use crate::layers;
use crate::openloop::{self, drive, poisson_schedule, Phase};
use crate::spans::Spans;
use crate::stats::{bits_eq, sub_seed, SplitMix};
use crate::{cold_setups, Config, Layers, Report, SetupTimes};
use dcf_graph::{Graph, GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{compile_count, Cluster, Session};
use dcf_serve::{ModelHandle, ModelRegistry, ModelSignature, ModelSpec, Request};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::time::Instant;

/// Offered load, requests per second.
pub const RATE: f64 = 3200.0;
/// Request-latency limit for `slo_frac`, ms.
pub const LIMIT_MS: f64 = 50.0;
const WIDTH: usize = 8;
const LOOP_ITERS: i64 = 6;
/// Distinct seeded request rows.
const POOL: usize = 256;

/// Six while-loop iterations of `y = tanh(y · W)` on `x: [B, 8]`, with
/// `W` drawn from `seed`.
fn model(seed: u64) -> (Graph, ModelSignature) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let w = g.constant(TensorRng::new(seed).uniform(&[WIDTH, WIDTH], -0.5, 0.5));
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(LOOP_ITERS);
    let outs = g
        .while_loop(
            &[i0, x],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let h = g.matmul(v[1], w)?;
                let h = g.tanh(h)?;
                Ok(vec![g.add(v[0], one)?, h])
            },
            WhileOptions::default(),
        )
        .expect("served model builds");
    let sig = ModelSignature::new().feed("x", DType::F32, &[WIDTH]).fetch(outs[1]);
    (g.finish().expect("served model validates"), sig)
}

fn feeds(row: &Tensor) -> HashMap<String, Tensor> {
    HashMap::from([("x".to_string(), row.clone())])
}

/// The registered model with the graph and fetch its oracle re-runs.
struct Served {
    handle: ModelHandle,
    graph: Graph,
    fetch: TensorRef,
}

/// Builds the model for weight seed `seed`, registers it and serves the
/// first request (which instantiates the replica and compiles).
fn setup(seed: u64, row0: &Tensor, spans: &Spans) -> (Served, SetupTimes) {
    let t0 = Instant::now();
    let ((graph, sig), _) = spans.time("graph.build", None, seed, || model(seed));
    let build_s = t0.elapsed().as_secs_f64();
    let fetch = sig.fetches[0];
    let fp = graph.fingerprint();
    let compiles = compile_count(fp);
    let t1 = Instant::now();
    let (handle, _) = spans.time("serve.first_request", None, seed, || {
        let mut spec = ModelSpec::local(graph.clone(), sig);
        spec.session_options = crate::session_options();
        let handle = ModelRegistry::new().register("requests", spec).expect("model registers");
        handle.serve(Request::new(feeds(row0))).expect("first request");
        handle
    });
    let compile_s = t1.elapsed().as_secs_f64();
    assert_eq!(compile_count(fp), compiles + 1, "set-up must compile, not hit the graph cache");
    let total_s = t0.elapsed().as_secs_f64();
    (Served { handle, graph, fetch }, SetupTimes { build_s, grad_s: 0.0, compile_s, total_s })
}

/// One open-loop phase of `seconds` at [`RATE`].
fn phase(
    handle: &ModelHandle,
    rows: &[Tensor],
    wants: &[Tensor],
    seed: u64,
    seconds: f64,
    spans: &Spans,
) -> Phase {
    let offsets = poisson_schedule(seed, RATE, seconds);
    let mut pick = SplitMix::new(seed ^ 1);
    let which: Vec<usize> = offsets.iter().map(|_| pick.index(POOL)).collect();
    drive(
        &offsets,
        spans,
        |i| handle.submit(Request::new(feeds(&rows[which[i]]))).ok(),
        |i, ticket| {
            let resp = ticket.wait().ok()?;
            Some(resp.outputs.len() == 1 && bits_eq(&resp.outputs[0], &wants[which[i]]))
        },
    )
}

/// Runs the workload.
pub fn run(cfg: Config) -> Report {
    let spans = Spans::new(cfg.trace);
    let mut rng = TensorRng::new(sub_seed(cfg.seed, 100));
    let rows: Vec<Tensor> = (0..POOL).map(|_| rng.uniform(&[1, WIDTH], -1.0, 1.0)).collect();
    let (s, setup) = cold_setups(cfg.seed, |seed| self::setup(seed, &rows[0], &spans));
    // The oracle: a batch-1 `Session::run` of the same model per row.
    let reference = Session::new(s.graph.clone(), Cluster::single_cpu(), crate::session_options())
        .expect("reference session");
    let wants: Vec<Tensor> = rows
        .iter()
        .map(|r| reference.eval(&feeds(r), &[s.fetch]).expect("reference run").remove(0))
        .collect();

    let p = phase(&s.handle, &rows, &wants, sub_seed(cfg.seed, 200), cfg.seconds, &spans);
    if !cfg.trace {
        let served = p.ledger.latencies_ms().len() as f64;
        return Report::end_to_end(p.ledger, 0, &setup, served / p.wall_s, LIMIT_MS);
    }

    let mut layers = Layers::default();
    let micro = layers::common(cfg.seed, &setup, &mut layers);
    layers.set("graph.nodes", s.graph.len() as f64);
    layers.set("runtime.nodes_optimized", layers::nodes_optimized(&reference));
    layers::serve_metrics(&s.handle.metrics(), &mut layers);
    openloop::trace_layers(&p, &mut layers);
    // One served step's executor profile: the same model's batch-1 run.
    let (profile, wall_us) =
        layers::profile_direct(&reference, |k| feeds(&rows[k % POOL]), &[s.fetch]);
    profile.metrics(LOOP_ITERS as f64, &mut layers);
    layers.set("closure.residual_frac", layers::closure_residual(&profile, &micro, wall_us));
    crate::write_trace("serve_requests", cfg.seed, &spans);
    Report::per_layer(p.ledger, 0, layers)
}
