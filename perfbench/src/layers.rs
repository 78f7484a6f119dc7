//! Per-layer figures: what the traced steps' `StepStats` say about the
//! `exec`, `device` and `rendezvous` layers, plus micro-benchmarks of the
//! `tensor`, `runtime` and `rendezvous` layers in isolation.

use crate::stats::{layer_percentile, median};
use dcf_device::{CostModel, DeviceProfile};
use dcf_graph::{GraphBuilder, OpKind, TensorRef};
use dcf_runtime::{Cluster, RendezvousKind, RunOptions, Session, StepStats, TraceLevel};
use dcf_tensor::TensorRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Executor activation classes timed separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Class {
    /// Switch, Merge, Enter, Exit, NextIteration, LoopCond.
    Control,
    /// StackPush, StackPop.
    Stack,
    /// Everything else the executor dispatches.
    Compute,
}

fn classify(op: &OpKind) -> Class {
    match op {
        OpKind::Switch
        | OpKind::Merge
        | OpKind::Enter { .. }
        | OpKind::Exit
        | OpKind::NextIteration
        | OpKind::LoopCond => Class::Control,
        OpKind::StackPush | OpKind::StackPop => Class::Stack,
        _ => Class::Compute,
    }
}

/// Accumulates the traced steps of one phase.
#[derive(Default)]
pub struct StepProfile {
    classes: HashMap<String, Class>,
    steps: u64,
    wall_us: f64,
    activations: u64,
    dead: u64,
    frames: u64,
    busy_us: HashMap<Class, (f64, u64)>,
    ready_wait_us: Vec<f64>,
    kernels: u64,
    kernel_busy_us: f64,
    handoff_us: Vec<f64>,
    transfers: u64,
    recv_wait_us: Vec<f64>,
}

impl StepProfile {
    /// A profile that classifies the nodes of `sess`'s compiled graph.
    pub fn for_session(sess: &Session) -> StepProfile {
        let classes = sess
            .partitioned()
            .graph
            .nodes()
            .iter()
            .map(|n| (n.name.clone(), classify(&n.op)))
            .collect();
        StepProfile { classes, ..StepProfile::default() }
    }

    /// Adds one traced step that took `wall_us`.
    pub fn add(&mut self, stats: &StepStats, wall_us: f64) {
        self.steps += 1;
        self.wall_us += wall_us;
        self.transfers += stats.transfers.len() as u64;
        for dev in &stats.devices {
            self.frames += dev.frames.len() as u64;
            // Dispatch starts of live activations per node, to pair with
            // that node's kernels on the compute stream (FIFO per stream).
            let mut dispatch: HashMap<&str, Vec<u64>> = HashMap::new();
            for ns in &dev.node_stats {
                self.activations += 1;
                if ns.is_dead {
                    self.dead += 1;
                }
                let class = self.classes.get(&ns.node).copied().unwrap_or(Class::Compute);
                let e = self.busy_us.entry(class).or_default();
                e.0 += ns.end_us.saturating_sub(ns.start_us) as f64;
                e.1 += 1;
                self.ready_wait_us.push(ns.start_us.saturating_sub(ns.scheduled_us) as f64);
                if !ns.is_dead && class == Class::Compute {
                    dispatch.entry(ns.node.as_str()).or_default().push(ns.start_us);
                }
            }
            let mut kernel_starts: HashMap<&str, Vec<u64>> = HashMap::new();
            for ks in dev.kernel_stats.iter().filter(|k| k.stream.ends_with("/compute")) {
                self.kernels += 1;
                self.kernel_busy_us += ks.end_us.saturating_sub(ks.start_us) as f64;
                kernel_starts.entry(ks.kernel.as_str()).or_default().push(ks.start_us);
            }
            for (node, mut starts) in kernel_starts {
                let Some(mut dispatched) = dispatch.remove(node) else { continue };
                starts.sort_unstable();
                dispatched.sort_unstable();
                for (k, d) in starts.iter().zip(&dispatched) {
                    self.handoff_us.push(k.saturating_sub(*d) as f64);
                }
            }
            for w in dev.rendezvous.iter().filter(|w| w.kind == RendezvousKind::Recv) {
                self.recv_wait_us.push(w.wait_us as f64);
            }
        }
    }

    fn per_step(&self, x: f64) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            x / self.steps as f64
        }
    }

    fn mean_busy_ns(&self, class: Class) -> f64 {
        match self.busy_us.get(&class) {
            Some(&(us, n)) if n > 0 => us * 1e3 / n as f64,
            _ => 0.0,
        }
    }

    /// Σ busy time of every activation and compute kernel, µs per step.
    pub fn busy_us_per_step(&self) -> f64 {
        let nodes: f64 = self.busy_us.values().map(|(us, _)| us).sum();
        self.per_step(nodes + self.kernel_busy_us)
    }

    /// Cross-device transfers per step.
    fn transfers_per_step(&self) -> f64 {
        self.per_step(self.transfers as f64)
    }

    /// The `exec`, `device` and `rendezvous` per-layer figures. `iters` is
    /// the loop iterations per step (for transfers per iteration).
    pub fn metrics(&self, iters_per_step: f64, out: &mut crate::Layers) {
        let dead_frac =
            if self.activations == 0 { 0.0 } else { self.dead as f64 / self.activations as f64 };
        out.set("exec.activations_per_step", self.per_step(self.activations as f64));
        out.set("exec.frames_per_step", self.per_step(self.frames as f64));
        out.set("exec.dead_frac", dead_frac);
        out.set("exec.control_ns", self.mean_busy_ns(Class::Control));
        out.set("exec.stack_ns", self.mean_busy_ns(Class::Stack));
        out.set("exec.compute_ns", self.mean_busy_ns(Class::Compute));
        out.set("exec.ready_wait_us_p50", layer_percentile("ready wait", &self.ready_wait_us, 0.5));
        out.set(
            "exec.ready_wait_us_p99",
            layer_percentile("ready wait", &self.ready_wait_us, 0.99),
        );
        out.set("device.kernels_per_step", self.per_step(self.kernels as f64));
        out.set("device.handoff_us_p50", layer_percentile("hand-off", &self.handoff_us, 0.5));
        out.set(
            "device.stream_busy_frac",
            if self.wall_us == 0.0 { 0.0 } else { self.kernel_busy_us / self.wall_us },
        );
        out.set(
            "rendezvous.transfers_per_iter",
            if iters_per_step == 0.0 { 0.0 } else { self.transfers_per_step() / iters_per_step },
        );
        out.set("rendezvous.wait_us_p50", layer_percentile("recv wait", &self.recv_wait_us, 0.5));
        out.set("rendezvous.wait_us_p99", layer_percentile("recv wait", &self.recv_wait_us, 0.99));
    }
}

/// Nodes the compile-time optimizer folded, merged, pruned or fused away.
pub fn nodes_optimized(sess: &Session) -> f64 {
    sess.optimize_stats().map_or(0, |o| o.folded + o.cse + o.pruned + o.fused_away) as f64
}

/// Fifty direct runs of a served graph, each untraced then traced:
/// the traced runs' profile and the median untraced wall time, µs.
pub fn profile_direct(
    sess: &Session,
    feeds: impl Fn(usize) -> HashMap<String, dcf_tensor::Tensor>,
    fetches: &[TensorRef],
) -> (StepProfile, f64) {
    let mut profile = StepProfile::for_session(sess);
    let traced = RunOptions::traced(TraceLevel::Full);
    let mut walls = Vec::new();
    for k in 0..50 {
        let f = feeds(k);
        let t = Instant::now();
        let (r, _) = sess.run(&RunOptions::default(), &f, fetches);
        r.expect("direct run of the served graph");
        walls.push(t.elapsed().as_secs_f64() * 1e6);
        let (r, meta) = sess.run(&traced, &f, fetches);
        r.expect("traced run of the served graph");
        let stats = meta.step_stats.expect("traced run returns step stats");
        profile.add(&stats, meta.wall.as_secs_f64() * 1e6);
    }
    (profile, median(&walls))
}

/// Modeled allocations and peak bytes over a cluster's devices.
pub fn device_memory(cluster: &Cluster) -> (u64, u64) {
    let allocs = cluster.devices().iter().map(|d| d.allocator().total_allocs()).sum();
    let peak = cluster.devices().iter().map(|d| d.allocator().peak() as u64).max().unwrap_or(0);
    (allocs, peak)
}

/// `1 − predicted ÷ wall` for one step, where the prediction is the
/// layer costs the traced step accounts for: every activation (Send and
/// Recv included) and kernel at its measured busy time, plus the fixed
/// cost of one run. Busy time on parallel workers can sum past the wall
/// time, so the residual may be negative.
pub fn closure_residual(profile: &StepProfile, micro: &Micro, untraced_wall_us: f64) -> f64 {
    1.0 - (profile.busy_us_per_step() + micro.run_fixed_us) / untraced_wall_us
}

/// Isolated layer costs, measured once per traced run.
pub struct Micro {
    /// Warm `Session::run` of a one-op graph, µs.
    pub run_fixed_us: f64,
    /// A two-machine run with one Send/Recv pair, minus `run_fixed_us`.
    pub pair_us: f64,
}

/// The figures every traced run reports whatever its workload: the
/// set-up phases, the `tensor` layer at `rnn_train`'s cell shapes, and the
/// isolated run and Send/Recv costs, which it returns.
pub fn common(seed: u64, setup: &crate::SetupTimes, out: &mut crate::Layers) -> Micro {
    setup.layers(out);
    tensor_layer(seed, out);
    let micro = session_layers(seed);
    out.set("runtime.run_fixed_us", micro.run_fixed_us);
    out.set("rendezvous.pair_us", micro.pair_us);
    micro
}

/// Mean per-call time of `f` over `calls` calls, µs.
fn batch_us(calls: usize, f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Median per-call time of `f`, µs, over `batches` batches of `calls`.
fn time_calls(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    batch_us(calls, &mut f);
    median(&(0..batches).map(|_| batch_us(calls, &mut f)).collect::<Vec<_>>())
}

/// The `tensor` layer at `rnn_train`'s LSTM cell shapes: the fused gate
/// matmul `[batch, input + units] · [input + units, 4 · units]` and one
/// elementwise product over the `[batch, units]` cell state.
fn tensor_layer(seed: u64, out: &mut crate::Layers) {
    use crate::rnn_train::{BATCH, INPUT, UNITS};
    let mut rng = TensorRng::new(seed);
    let xh = rng.uniform(&[BATCH, INPUT + UNITS], -1.0, 1.0);
    let w = rng.uniform(&[INPUT + UNITS, 4 * UNITS], -0.5, 0.5);
    let c = rng.uniform(&[BATCH, UNITS], -1.0, 1.0);
    let f = rng.uniform(&[BATCH, UNITS], 0.0, 1.0);
    let matmul = OpKind::MatMul { transpose_a: false, transpose_b: false };
    let matmul_us = time_calls(15, 200, || {
        black_box(dcf_exec::execute_op(&matmul, &[black_box(&xh), black_box(&w)]).expect("matmul"));
    });
    let elementwise_us = time_calls(15, 500, || {
        black_box(
            dcf_exec::execute_op(&OpKind::Mul, &[black_box(&c), black_box(&f)]).expect("mul"),
        );
    });
    let cost = dcf_exec::op_cost(&matmul, &[&xh, &w], &CostModel::new(DeviceProfile::gpu_k40()));
    out.set("tensor.matmul_us", matmul_us);
    out.set("tensor.elementwise_us", elementwise_us);
    out.set("tensor.matmul_flops", cost.flops);
    out.set("tensor.matmul_bytes", cost.bytes);
}

fn one_op_session(cluster: Cluster, src: &str, dst: &str, seed: u64) -> (Session, TensorRef) {
    let mut g = GraphBuilder::new();
    // A seeded constant keeps this graph's compile out of any other run's
    // cache entry.
    let k = TensorRng::new(seed).uniform(&[1], 0.5, 1.5);
    let x = g.with_device(src, |g| g.constant(k));
    let y = g.with_device(dst, |g| g.neg(x)).expect("one-op graph");
    let sess = Session::new(g.finish().expect("one-op graph"), cluster, crate::session_options())
        .expect("one-op session");
    (sess, y)
}

/// The `runtime` fixed cost of a run and the `rendezvous` cost of one
/// cross-machine Send/Recv pair, both on warm sessions.
fn session_layers(seed: u64) -> Micro {
    let feeds = HashMap::new();
    let opts = RunOptions::default();
    let (local, y_local) =
        one_op_session(Cluster::single_cpu(), "/machine:0/cpu:0", "/machine:0/cpu:0", seed);
    let mut two = Cluster::new();
    two.add_device(0, DeviceProfile::cpu());
    two.add_device(1, DeviceProfile::cpu());
    let (pair, y_pair) = one_op_session(two, "/machine:0/cpu:0", "/machine:1/cpu:0", seed ^ 1);
    let mut run_local = || {
        black_box(local.run(&opts, &feeds, &[y_local]).0.expect("one-op run"));
    };
    let mut run_pair = || {
        black_box(pair.run(&opts, &feeds, &[y_pair]).0.expect("pair run"));
    };
    batch_us(100, &mut run_local);
    batch_us(100, &mut run_pair);
    // Interleaved batches, so a slow spell of the machine hits both sides.
    let (mut fixed, mut extra) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let l = batch_us(100, &mut run_local);
        fixed.push(l);
        extra.push(batch_us(100, &mut run_pair) - l);
    }
    Micro { run_fixed_us: median(&fixed), pair_us: median(&extra) }
}

/// The `serve` layer's own counters and histograms, read from
/// `ModelMetrics` (log₂-bucketed percentiles).
pub fn serve_metrics(m: &dcf_serve::ModelMetrics, out: &mut crate::Layers) {
    let a = &m.aggregate;
    out.set("serve.queue_ms_p50", a.queue_delay_p50_ms);
    out.set("serve.queue_ms_p99", a.queue_delay_p99_ms);
    out.set("serve.step_ms_p50", a.step_latency_p50_ms);
    out.set("serve.step_ms_p99", a.step_latency_p99_ms);
    out.set("serve.batch_rows_mean", a.mean_batch_rows);
    out.set(
        "serve.rejected",
        (a.rejected_shape
            + a.rejected_overload
            + a.expired
            + a.streams_rejected
            + a.streams_expired) as f64,
    );
    out.set("serve.iteration_rows_mean", a.mean_iteration_rows);
    if a.streams_retired > 0 {
        out.set(
            "serve.iterations_per_stream",
            a.stream_iterations as f64 / a.streams_retired as f64,
        );
    }
}
