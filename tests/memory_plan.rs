//! End-to-end tests for the static memory-planning pass (PR 8).
//!
//! Planning is an accounting optimization: eligible root-context compute
//! outputs on a GPU-profile device share one up-front region reservation
//! per step instead of opening one allocator charge per kernel. These
//! tests pin down the three user-visible guarantees:
//!
//! 1. Planning never increases peak memory and strictly reduces allocator
//!    round-trips on an allocation-heavy graph.
//! 2. Results are bit-identical with the plan on or off, at every
//!    optimizer level (the plan touches accounting, never values).
//! 3. Concurrent client steps each acquire their own region — regions are
//!    per-step, never shared, and every charge is returned (no leaks, no
//!    over-frees).

use dcf::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A chain of `depth` matmuls off a statically-shaped placeholder. The
/// placeholder root keeps the constant folder away and matmuls are never
/// fused, so every link is a plannable compute output with static shape.
fn chain_graph(depth: usize) -> (dcf::graph::Graph, Vec<TensorRef>) {
    let mut b = GraphBuilder::new();
    let x = b.placeholder_shaped("x", DType::F32, &[32, 32]);
    let w = b.constant(Tensor::ones(&[32, 32]));
    let mut cur = x;
    let mut fetches = Vec::new();
    for _ in 0..depth {
        cur = b.matmul(cur, w).unwrap();
        fetches.push(cur);
    }
    (b.finish().unwrap(), fetches)
}

/// Charges can be returned from executor teardown a beat after `eval`
/// returns; wait for the allocator to drain before asserting on `in_use`.
fn drain(alloc: &dcf::device::TrackingAllocator) {
    for _ in 0..200 {
        if alloc.in_use() == 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// A session on one K40-profile GPU. A zero time scale makes kernels
/// synchronous.
fn gpu_session(graph: dcf::graph::Graph, opt: OptLevel, plan: MemPlan, time_scale: f64) -> Session {
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_time_scale(time_scale));
    Session::new(
        graph,
        cluster,
        SessionOptions::functional().with_optimization(opt).with_memory_plan(plan),
    )
    .unwrap()
}

fn feed() -> HashMap<String, Tensor> {
    let data: Vec<f32> = (0..32 * 32).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::from_vec_f32(data, &[32, 32]).unwrap());
    feeds
}

#[test]
fn plan_reduces_allocs_and_never_increases_peak() {
    // Fetching every link of the chain makes the unplanned path hold one
    // charge per link simultaneously at the end of each step (fetched
    // tokens live until the run completes), while the planned path backs
    // them all with the two-slot region.
    let steps = 8;
    let mut results = Vec::new();
    for plan in [MemPlan::Off, MemPlan::On] {
        let (graph, fetches) = chain_graph(8);
        let sess = gpu_session(graph, OptLevel::Standard, plan, 0.0);
        for _ in 0..steps {
            sess.eval(&feed(), &fetches).unwrap();
            // Wait out executor teardown so one step's charges never
            // overlap the next step's in the peak reading.
            drain(sess.cluster().devices()[0].allocator());
        }
        let alloc = sess.cluster().devices()[0].allocator();
        assert_eq!(alloc.in_use(), 0, "all charges must be returned ({plan:?})");
        assert_eq!(alloc.over_frees(), 0, "accounting must balance ({plan:?})");
        results.push((plan, alloc.peak(), alloc.total_allocs()));
    }
    let (_, peak_off, allocs_off) = results[0];
    let (_, peak_on, allocs_on) = results[1];
    assert!(
        allocs_on < allocs_off,
        "plan must strictly reduce allocator round-trips: on={allocs_on} off={allocs_off}"
    );
    assert!(peak_on <= peak_off, "plan must not increase peak memory: on={peak_on} off={peak_off}");
}

#[test]
fn plan_stats_flow_into_optimize_stats() {
    let (graph, _) = chain_graph(6);
    let sess = gpu_session(graph, OptLevel::Standard, MemPlan::On, 0.0);
    let stats = sess.optimize_stats().expect("Standard opt level records stats");
    assert!(stats.planned_bytes > 0, "stats: {stats:?}");
    assert!(stats.aliased_slots >= 1, "a 6-deep chain must alias: {stats:?}");

    let (graph, _) = chain_graph(6);
    let sess = gpu_session(graph, OptLevel::Standard, MemPlan::Off, 0.0);
    let stats = sess.optimize_stats().expect("Standard opt level records stats");
    assert_eq!(stats.planned_bytes, 0, "plan off must not plan: {stats:?}");
    assert_eq!(stats.aliased_slots, 0);
}

#[test]
fn results_bit_identical_across_plan_and_opt_levels() {
    // Time scale 0 runs every kernel synchronously; at 1e-3 the matmuls
    // model under a microsecond and run inline on an idle stream; at 1
    // they take the stream thread. All must match the synchronous run.
    let run = |opt: OptLevel, plan: MemPlan, time_scale: f64| -> Vec<Tensor> {
        let (graph, fetches) = chain_graph(4);
        let sess = gpu_session(graph, opt, plan, time_scale);
        // Fetch an intermediate and the final output.
        sess.eval(&feed(), &[fetches[1], fetches[3]]).unwrap()
    };
    let baseline = run(OptLevel::None, MemPlan::Off, 0.0);
    for time_scale in [0.0, 1e-3, 1.0] {
        for (opt, plan) in [
            (OptLevel::Standard, MemPlan::On),
            (OptLevel::Standard, MemPlan::Off),
            (OptLevel::None, MemPlan::On),
            (OptLevel::None, MemPlan::Off),
        ] {
            let variant = run(opt, plan, time_scale);
            assert_eq!(variant.len(), baseline.len());
            for (i, (a, b)) in variant.iter().zip(&baseline).enumerate() {
                assert!(
                    a.value_eq(b),
                    "fetch {i} diverged under ({opt:?}, {plan:?}) at time scale {time_scale}"
                );
            }
        }
    }
}

#[test]
fn region_over_capacity_falls_back_to_per_token_charges() {
    // Figure 14's statically unrolled LSTM training step at sequence
    // length 200 and modeled batch 128: its planned region is larger than
    // the K40's 12 GiB, although the values live at any one time fit.
    // With the plan on, the step must still run, on per-token charges,
    // and match the unplanned step bit for bit.
    const SCALE: usize = 32;
    let run = |plan: MemPlan| -> (Vec<Tensor>, u64) {
        let hidden = 512 / SCALE;
        let batch = 128 / SCALE;
        let mut g = GraphBuilder::new();
        let mut rng = TensorRng::new(23);
        let cell = dcf::ml::LstmCell::new(&mut g, "lstm", hidden, hidden, &mut rng);
        let x = g.constant(rng.uniform(&[200, batch, hidden], -1.0, 1.0));
        let h0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
        let c0 = g.constant(Tensor::zeros(DType::F32, &[batch, hidden]));
        let rnn = dcf::ml::static_rnn(&mut g, &cell, x, h0, c0, 200).unwrap();
        let sq = g.square(rnn.outputs).unwrap();
        let loss = g.reduce_mean(sq).unwrap();
        let grads = gradients(&mut g, loss, &cell.params()).unwrap();
        let mut fetches = vec![loss];
        fetches.extend(grads);
        let mut cluster = Cluster::new();
        cluster
            .add_device(0, DeviceProfile::gpu_k40().with_shape_scale(SCALE).with_time_scale(0.0));
        let sess = Session::new(
            g.finish().unwrap(),
            cluster,
            // Pinned: only the standard level records `planned_bytes`.
            SessionOptions::functional()
                .with_optimization(OptLevel::Standard)
                .with_memory_plan(plan),
        )
        .unwrap();
        let planned = sess.optimize_stats().map_or(0, |s| s.planned_bytes);
        (sess.eval(&HashMap::new(), &fetches).unwrap(), planned)
    };
    let (off, _) = run(MemPlan::Off);
    let (on, planned) = run(MemPlan::On);
    assert!(planned > 12 << 30, "the region must exceed capacity: {planned} B");
    assert_eq!(on.len(), off.len());
    for (i, (a, b)) in on.iter().zip(&off).enumerate() {
        assert!(a.value_eq(b), "fetch {i} diverged with the plan on");
    }
}

#[test]
fn concurrent_steps_each_acquire_their_own_region() {
    let (graph, fetches) = chain_graph(6);
    let sess = Arc::new(gpu_session(graph, OptLevel::Standard, MemPlan::On, 0.0));
    let last = *fetches.last().unwrap();

    // Calibrate the deterministic per-step allocation count with one
    // sequential step (synchronous kernels make this stable).
    sess.eval(&feed(), &[last]).unwrap();
    let alloc = sess.cluster().devices()[0].allocator();
    let per_step = alloc.total_allocs();
    assert!(per_step >= 1, "a planned step must at least acquire its region");

    let threads = 4;
    let steps_per_thread = 5;
    let expected = sess.eval(&feed(), &[last]).unwrap();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let sess = Arc::clone(&sess);
            let expected = &expected;
            s.spawn(move || {
                for _ in 0..steps_per_thread {
                    let out = sess.eval(&feed(), &[last]).unwrap();
                    assert!(out[0].value_eq(&expected[0]), "concurrent step diverged");
                }
            });
        }
    });

    let alloc = sess.cluster().devices()[0].allocator();
    let total_steps = 2 + threads * steps_per_thread;
    assert_eq!(
        alloc.total_allocs(),
        per_step * total_steps as u64,
        "each step must acquire its own region reservation, never share one"
    );
    drain(alloc);
    assert_eq!(alloc.in_use(), 0, "all regions and charges must be returned");
    assert_eq!(alloc.over_frees(), 0);
}
