//! `rnn_train`: closed-loop `dynamic_rnn` LSTM training, the paper's
//! Fig. 14 step.
//!
//! One client thread runs one training step per request: the LSTM forward
//! loop, the `gradients` backward loop with its stack-saved activations,
//! and SGD `assign_sub` updates. The step runs on one K40-profile device
//! whose modeled time is scaled down until each kernel models a few ns:
//! non-zero, so every compute op crosses the device-stream hand-off, but
//! too small to matter in wall time. It has no rendezvous traffic and no
//! serve layer.

use crate::closedloop;
use crate::layers::{self, StepProfile};
use crate::spans::Spans;
use crate::stats::{bits_eq, sub_seed, Outcome};
use crate::{cold_setups, Config, Layers, Report, SetupTimes};
use dcf_autodiff::gradients;
use dcf_device::DeviceProfile;
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_ml::{dynamic_rnn, LstmCell};
use dcf_runtime::{
    compile_count, Cluster, MemPlan, OptLevel, RunMetadata, RunOptions, Session, SessionOptions,
};
use dcf_tensor::{DType, Tensor, TensorRng};
use std::collections::HashMap;
use std::time::Instant;

/// Sequence length.
pub const SEQ: usize = 64;
/// Batch rows.
pub const BATCH: usize = 8;
/// Input features.
pub const INPUT: usize = 32;
/// LSTM units.
pub const UNITS: usize = 32;
/// K40 modeled time × this: a 5 µs launch models as 5 ns.
const TIME_SCALE: f64 = 1e-3;
const LR: f32 = 0.01;
/// Distinct seeded input batches the steps cycle through.
const BATCHES: usize = 4;
/// Step-latency limit for `slo_frac`, ms.
pub const LIMIT_MS: f64 = 250.0;

/// One built training step.
struct Model {
    sess: Session,
    fetches: Vec<TensorRef>,
    /// Outputs of the set-up's warm-up step on batch 0 (the first step).
    first_step: Vec<Tensor>,
    weight_seed: u64,
    graph_nodes: usize,
    grad_nodes: usize,
}

fn cluster() -> Cluster {
    let mut c = Cluster::new();
    c.add_device(0, DeviceProfile::gpu_k40().with_time_scale(TIME_SCALE));
    c
}

fn feeds(x: &Tensor) -> HashMap<String, Tensor> {
    HashMap::from([("x".to_string(), x.clone())])
}

/// Builds, differentiates and compiles the training step for weight seed
/// `seed`, then runs the first step on `batch0`. Asserts the compile was
/// not served from the process-wide cache.
fn build(
    seed: u64,
    options: SessionOptions,
    batch0: &Tensor,
    spans: &Spans,
) -> (Model, SetupTimes) {
    let t0 = Instant::now();
    let mut t = SetupTimes::default();
    let ((mut g, cell, loss), _) = spans.time("graph.build", None, seed, || {
        let mut g = GraphBuilder::new();
        let mut rng = TensorRng::new(seed);
        let cell = LstmCell::new(&mut g, "lstm", INPUT, UNITS, &mut rng);
        let x = g.placeholder("x", DType::F32);
        let h0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, UNITS]));
        let c0 = g.constant(Tensor::zeros(DType::F32, &[BATCH, UNITS]));
        let rnn = dynamic_rnn(&mut g, &cell, x, h0, c0, WhileOptions::default())
            .expect("dynamic_rnn builds");
        let sq = g.square(rnn.outputs).expect("loss builds");
        let loss = g.reduce_mean(sq).expect("loss builds");
        (g, cell, loss)
    });
    t.build_s = t0.elapsed().as_secs_f64();
    let graph_nodes = g.graph().len();
    let t1 = Instant::now();
    let (grads, _) = spans.time("autodiff.gradients", None, seed, || {
        gradients(&mut g, loss, &cell.params()).expect("gradients build")
    });
    t.grad_s = t1.elapsed().as_secs_f64();
    let lr = g.scalar_f32(LR);
    let mut fetches = vec![loss];
    for (p, grad) in cell.params().into_iter().zip(grads) {
        let scaled = g.mul(grad, lr).expect("update builds");
        fetches.push(g.assign_sub(p, scaled).expect("update builds"));
    }
    let graph = g.finish().expect("training graph validates");
    let grad_nodes = graph.len() - graph_nodes;
    let fp = graph.fingerprint();
    let compiles = compile_count(fp);
    let t2 = Instant::now();
    let (sess, _) = spans.time("runtime.compile", None, seed, || {
        Session::new(graph, cluster(), options).expect("training session compiles")
    });
    t.compile_s = t2.elapsed().as_secs_f64();
    assert_eq!(compile_count(fp), compiles + 1, "set-up must compile, not hit the graph cache");
    let (first_step, _) = spans.time("runtime.warmup", None, seed, || {
        sess.eval(&feeds(batch0), &fetches).expect("first training step")
    });
    t.total_s = t0.elapsed().as_secs_f64();
    (Model { sess, fetches, first_step, weight_seed: seed, graph_nodes, grad_nodes }, t)
}

/// The first step's loss and updated parameters must be bit-identical to
/// a session that executes the graph as built, without planning.
fn first_step_matches_reference(model: &Model, batch0: &Tensor) -> bool {
    let options =
        crate::session_options().with_optimization(OptLevel::None).with_memory_plan(MemPlan::Off);
    let (reference, _) = build(model.weight_seed, options, batch0, &Spans::new(false));
    model.first_step.len() == reference.first_step.len()
        && model.first_step.iter().zip(&reference.first_step).all(|(a, b)| bits_eq(a, b))
}

/// One measured step; the loss must come back finite.
fn step(model: &Model, x: &Tensor, opts: &RunOptions) -> (Outcome, Option<RunMetadata>) {
    let t = Instant::now();
    let (result, meta) = model.sess.run(opts, &feeds(x), &model.fetches);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(out) if out[0].scalar_as_f32().is_ok_and(f32::is_finite) => {
            (Outcome::Ok(ms), Some(meta))
        }
        Ok(_) => (Outcome::Mismatch, None),
        Err(_) => (Outcome::Failed, None),
    }
}

/// Runs the workload.
pub fn run(cfg: Config) -> Report {
    let spans = Spans::new(cfg.trace);
    let mut rng = TensorRng::new(sub_seed(cfg.seed, 100));
    let inputs: Vec<Tensor> =
        (0..BATCHES).map(|_| rng.uniform(&[SEQ, BATCH, INPUT], -1.0, 1.0)).collect();
    let (model, setup) =
        cold_setups(cfg.seed, |seed| build(seed, crate::session_options(), &inputs[0], &spans));
    let check_failures = u64::from(!first_step_matches_reference(&model, &inputs[0]));

    let mut profile = StepProfile::for_session(&model.sess);
    let (allocs0, _) = layers::device_memory(model.sess.cluster());
    let run =
        closedloop::drive(cfg.seconds, &spans, cfg.trace.then_some(&mut profile), |i, opts| {
            step(&model, &inputs[i % BATCHES], opts)
        });
    if !cfg.trace {
        let steps_per_s = run.throughput(1.0, cfg.seconds);
        return Report::end_to_end(run.ledger, check_failures, &setup, steps_per_s, LIMIT_MS);
    }

    let (allocs1, peak) = layers::device_memory(model.sess.cluster());
    let mut layers = Layers::default();
    let micro = layers::common(cfg.seed, &setup, &mut layers);
    layers.set("graph.nodes", model.graph_nodes as f64);
    layers.set("autodiff.nodes", model.grad_nodes as f64);
    layers.set("runtime.nodes_optimized", layers::nodes_optimized(&model.sess));
    profile.metrics(SEQ as f64, &mut layers);
    // Untraced steps allocate too, so divide by every step run.
    let steps = run.ledger.attempted() as f64;
    layers.set("device.allocs_per_step", (allocs1 - allocs0) as f64 / steps);
    layers.set("device.peak_mib", peak as f64 / (1 << 20) as f64);
    run.trace_layers(&profile, &micro, &mut layers);
    crate::write_trace("rnn_train", cfg.seed, &spans);
    Report::per_layer(run.ledger, check_failures, layers)
}
