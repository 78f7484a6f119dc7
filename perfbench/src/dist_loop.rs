//! `dist_loop`: closed-loop runs of the paper's Fig. 11 barrier loop.
//!
//! Each iteration every machine scales its value, machine 0 sums the two
//! values (an AllReduce-style barrier) and sends the mean back, so every
//! iteration crosses the machines through Send/Recv and the control-loop
//! state machines. Two simulated CPU machines with network delays off and
//! scalar tensors: kernels and device streams do almost nothing, and two
//! machines keep the busy threads within two cores.

use crate::closedloop;
use crate::layers::{self, StepProfile};
use crate::spans::Spans;
use crate::stats::{bits_eq, sub_seed, Outcome, SplitMix};
use crate::{cold_setups, Config, Layers, Report, SetupTimes};
use dcf_device::DeviceProfile;
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{compile_count, Cluster, RunMetadata, RunOptions, Session};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::time::Instant;

const MACHINES: usize = 2;
/// Loop iterations per measured run.
pub const ITERS: i64 = 500;
/// Iterations of the set-up's warm-up run.
const WARMUP_ITERS: i64 = 32;
const PARALLEL_ITERATIONS: usize = 32;
/// Distinct seeded starting values the runs cycle through.
const STARTS: usize = 8;
/// Fixed run-latency limit for `slo_frac`, ms.
pub const LIMIT_MS: f64 = 250.0;

struct Model {
    sess: Session,
    /// Counter, then each machine's value.
    fetches: Vec<TensorRef>,
    /// The counter's seeded start.
    base: i64,
    scale: f32,
    graph_nodes: usize,
}

fn device(m: usize) -> String {
    format!("/machine:{m}/cpu:0")
}

/// The host's f32 evaluation of the loop: what each machine must hold
/// after `iters` iterations from `start`.
fn closed_form(start: [f32; MACHINES], scale: f32, iters: i64) -> [f32; MACHINES] {
    let mut x = start;
    let mean = 1.0 / MACHINES as f32;
    for _ in 0..iters {
        let total = x.iter().map(|v| v * scale).reduce(|a, b| a + b).expect("machines");
        x = [total * mean; MACHINES];
    }
    x
}

fn feeds(n: i64, start: [f32; MACHINES]) -> HashMap<String, Tensor> {
    let mut f = HashMap::from([("n".to_string(), Tensor::scalar_i64(n))]);
    for (m, v) in start.iter().enumerate() {
        f.insert(format!("x{m}"), Tensor::scalar_f32(*v));
    }
    f
}

fn build(seed: u64, spans: &Spans) -> (Model, SetupTimes) {
    let t0 = Instant::now();
    // The counter's start and the per-iteration factor are drawn from the
    // seed; the 40-bit start also keeps every set-up's graph distinct in
    // the process-wide compile cache.
    let mut rng = SplitMix::new(seed);
    let base = (rng.next_u64() >> 24) as i64;
    let scale = 1.0 + (rng.unit() as f32 - 0.5) * 1e-5;
    let ((graph, fetches), _) = spans.time("graph.build", None, seed, || {
        let mut g = GraphBuilder::new();
        let n = g.placeholder("n", DType::I64);
        let i0 = g.scalar_i64(base);
        let end = g.add(i0, n).expect("loop bound builds");
        let mut inits = vec![i0];
        for m in 0..MACHINES {
            inits.push(g.with_device(device(m), |g| g.placeholder(format!("x{m}"), DType::F32)));
        }
        let outs = g
            .while_loop(
                &inits,
                |g, v| g.less(v[0], end),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let mut next = vec![g.add(v[0], one)?];
                    let mut partials = Vec::with_capacity(MACHINES);
                    for m in 0..MACHINES {
                        partials.push(g.with_device(device(m), |g| {
                            let c = g.scalar_f32(scale);
                            g.mul(v[1 + m], c)
                        })?);
                    }
                    let total = g.with_device(device(0), |g| g.add_n(&partials))?;
                    let mean = g.scalar_f32(1.0 / MACHINES as f32);
                    for m in 0..MACHINES {
                        next.push(g.with_device(device(m), |g| g.mul(total, mean))?);
                    }
                    Ok(next)
                },
                WhileOptions { parallel_iterations: PARALLEL_ITERATIONS, ..Default::default() },
            )
            .expect("barrier loop builds");
        (g.finish().expect("barrier loop validates"), outs)
    });
    let build_s = t0.elapsed().as_secs_f64();
    let graph_nodes = graph.len();
    let fp = graph.fingerprint();
    let compiles = compile_count(fp);
    let t1 = Instant::now();
    let (sess, _) = spans.time("runtime.compile", None, seed, || {
        let mut cluster = Cluster::new();
        for m in 0..MACHINES {
            cluster.add_device(m, DeviceProfile::cpu());
        }
        Session::new(graph, cluster, crate::session_options()).expect("loop session compiles")
    });
    let compile_s = t1.elapsed().as_secs_f64();
    assert_eq!(compile_count(fp), compiles + 1, "set-up must compile, not hit the graph cache");
    spans.time("runtime.warmup", None, seed, || {
        sess.eval(&feeds(WARMUP_ITERS, [1.0; MACHINES]), &fetches).expect("warm-up run")
    });
    let total_s = t0.elapsed().as_secs_f64();
    (
        Model { sess, fetches, base, scale, graph_nodes },
        SetupTimes { build_s, grad_s: 0.0, compile_s, total_s },
    )
}

/// One run of `ITERS` iterations: the counter must have advanced by
/// exactly `ITERS` and each machine must hold the closed form.
fn run_once(
    model: &Model,
    start: [f32; MACHINES],
    want: &[Tensor],
    opts: &RunOptions,
) -> (Outcome, Option<RunMetadata>) {
    let t = Instant::now();
    let (result, meta) = model.sess.run(opts, &feeds(ITERS, start), &model.fetches);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(out) if out.len() == want.len() && out.iter().zip(want).all(|(a, b)| bits_eq(a, b)) => {
            (Outcome::Ok(ms), Some(meta))
        }
        Ok(_) => (Outcome::Mismatch, None),
        Err(_) => (Outcome::Failed, None),
    }
}

/// Runs the workload.
pub fn run(cfg: Config) -> Report {
    let spans = Spans::new(cfg.trace);
    let (model, setup) = cold_setups(cfg.seed, |seed| build(seed, &spans));
    let mut rng = SplitMix::new(sub_seed(cfg.seed, 100));
    let starts: Vec<[f32; MACHINES]> =
        (0..STARTS).map(|_| std::array::from_fn(|_| 0.5 + rng.unit() as f32)).collect();
    let wants: Vec<Vec<Tensor>> = starts
        .iter()
        .map(|s| {
            let mut want = vec![Tensor::scalar_i64(model.base + ITERS)];
            want.extend(closed_form(*s, model.scale, ITERS).map(Tensor::scalar_f32));
            want
        })
        .collect();

    let mut profile = StepProfile::for_session(&model.sess);
    let run =
        closedloop::drive(cfg.seconds, &spans, cfg.trace.then_some(&mut profile), |i, opts| {
            run_once(&model, starts[i % STARTS], &wants[i % STARTS], opts)
        });
    if !cfg.trace {
        let iters_per_s = run.throughput(ITERS as f64, cfg.seconds);
        return Report::end_to_end(run.ledger, 0, &setup, iters_per_s, LIMIT_MS);
    }

    let mut layers = Layers::default();
    let micro = layers::common(cfg.seed, &setup, &mut layers);
    layers.set("graph.nodes", model.graph_nodes as f64);
    layers.set("runtime.nodes_optimized", layers::nodes_optimized(&model.sess));
    profile.metrics(ITERS as f64, &mut layers);
    run.trace_layers(&profile, &micro, &mut layers);
    crate::write_trace("dist_loop", cfg.seed, &spans);
    Report::per_layer(run.ledger, 0, layers)
}
