//! End-to-end tests of the local executor: control flow, deadness, frames,
//! resources, memory accounting, and the parallel-iterations knob.

use crate::{ExecGraph, Executor, ExecutorOptions, InMemoryRendezvous, ResourceManager};
use dcf_device::{Device, DeviceId, DeviceProfile};
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

fn run_graph(
    b: GraphBuilder,
    feeds: &HashMap<String, Tensor>,
    fetches: &[TensorRef],
) -> crate::Result<Vec<Tensor>> {
    let graph = Arc::new(b.finish().expect("graph should validate"));
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    let exec = Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    exec.run(feeds, fetches).map(|o| o.values)
}

fn run1(b: GraphBuilder, fetch: TensorRef) -> Tensor {
    run_graph(b, &HashMap::new(), &[fetch]).expect("run should succeed").remove(0)
}

#[test]
fn straight_line_arithmetic() {
    let mut b = GraphBuilder::new();
    let x = b.scalar_f32(3.0);
    let y = b.scalar_f32(4.0);
    let s = b.add(x, y).unwrap();
    let p = b.mul(s, s).unwrap();
    assert_eq!(run1(b, p).scalar_as_f32().unwrap(), 49.0);
}

#[test]
fn placeholders_are_fed() {
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let y = b.neg(x).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(5.0));
    let out = run_graph(b, &feeds, &[y]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), -5.0);
}

#[test]
fn missing_feed_errors() {
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let y = b.neg(x).unwrap();
    let err = run_graph(b, &HashMap::new(), &[y]).unwrap_err();
    assert!(err.to_string().contains("not fed"), "{err}");
}

#[test]
fn cond_takes_true_branch() {
    let mut b = GraphBuilder::new();
    let p = b.constant(Tensor::scalar_bool(true));
    let x = b.scalar_f32(10.0);
    let outs = b
        .cond(
            p,
            |g| Ok(vec![g.neg(x)?]),
            |g| {
                let two = g.scalar_f32(2.0);
                Ok(vec![g.mul(x, two)?])
            },
        )
        .unwrap();
    assert_eq!(run1(b, outs[0]).scalar_as_f32().unwrap(), -10.0);
}

#[test]
fn cond_takes_false_branch() {
    let mut b = GraphBuilder::new();
    let p = b.constant(Tensor::scalar_bool(false));
    let x = b.scalar_f32(10.0);
    let outs = b
        .cond(
            p,
            |g| Ok(vec![g.neg(x)?]),
            |g| {
                let two = g.scalar_f32(2.0);
                Ok(vec![g.mul(x, two)?])
            },
        )
        .unwrap();
    assert_eq!(run1(b, outs[0]).scalar_as_f32().unwrap(), 20.0);
}

#[test]
fn cond_with_fed_predicate_both_ways() {
    for (pv, expect) in [(true, 1.0f32), (false, 2.0f32)] {
        let mut b = GraphBuilder::new();
        let p = b.placeholder("p", DType::Bool);
        let one = b.scalar_f32(1.0);
        let two = b.scalar_f32(2.0);
        let outs =
            b.cond(p, |g| Ok(vec![g.identity(one)?]), |g| Ok(vec![g.identity(two)?])).unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("p".to_string(), Tensor::scalar_bool(pv));
        let out = run_graph(b, &feeds, &[outs[0]]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect);
    }
}

#[test]
fn while_loop_counts_to_ten() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(10);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    assert_eq!(run1(b, outs[0]).scalar_as_i64().unwrap(), 10);
}

#[test]
fn while_loop_zero_iterations() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(5);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    // Pred false immediately: the init value exits untouched.
    assert_eq!(run1(b, outs[0]).scalar_as_i64().unwrap(), 5);
}

#[test]
fn while_loop_multiple_variables() {
    // Computes 2^8 by doubling, and the loop counter.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let x0 = b.scalar_f32(1.0);
    let lim = b.scalar_i64(8);
    let two = b.scalar_f32(2.0);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let x = g.mul(v[1], two)?;
                Ok(vec![i, x])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
    assert_eq!(vals[0].scalar_as_i64().unwrap(), 8);
    assert_eq!(vals[1].scalar_as_f32().unwrap(), 256.0);
}

#[test]
fn parallel_iterations_do_not_change_results() {
    for p in [1usize, 2, 8, 32] {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar_i64(0);
        let a0 = b.scalar_f32(0.0);
        let lim = b.scalar_i64(50);
        let outs = b
            .while_loop(
                &[i0, a0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let i = g.add(v[0], one)?;
                    let fi = g.cast(v[0], DType::F32)?;
                    let a = g.add(v[1], fi)?;
                    Ok(vec![i, a])
                },
                WhileOptions { parallel_iterations: p, ..Default::default() },
            )
            .unwrap();
        let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
        // sum 0..49 = 1225.
        assert_eq!(vals[1].scalar_as_f32().unwrap(), 1225.0, "parallel_iterations={p}");
    }
}

#[test]
fn nested_loops_compute_triangular_sums() {
    // outer: for i in 0..4 { for j in 0..i { total += 1 } } => 0+1+2+3 = 6.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let t0 = b.scalar_i64(0);
    let lim = b.scalar_i64(4);
    let outs = b
        .while_loop(
            &[i0, t0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let j0 = g.scalar_i64(0);
                let inner = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], v[0]),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        let j = g.add(w[0], one)?;
                        let t = g.add(w[1], one)?;
                        Ok(vec![j, t])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                Ok(vec![i, inner[1]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
    assert_eq!(vals[1].scalar_as_i64().unwrap(), 6);
}

#[test]
fn cond_inside_while_alternates() {
    // Sum is += 2 when i is even, += 1 when odd, for i in 0..6 => 3*2+3*1=9.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let s0 = b.scalar_i64(0);
    let lim = b.scalar_i64(6);
    let outs = b
        .while_loop(
            &[i0, s0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let two = g.scalar_i64(2);
                let one = g.scalar_i64(1);
                // i mod 2 == 0, via i - (i/2)*2 ... use comparison of
                // doubling instead: (i/2)*2 == i is unavailable without
                // integer division; emulate parity by tracking it.
                let half = g.mul(v[0], one)?; // placeholder to keep i alive
                let _ = half;
                // Parity check: (i & 1) not available; use i - 2*floor
                // trick is unavailable too, so test via equality of
                // cast(cast(i/2)) — instead simply alternate on a boolean
                // loop variable derived from counter comparisons:
                // even iff (i % 2 == 0) computed as cast(i)*0.5 ==
                // floor... Keep it simple: compare cast(i) * 0.5 with its
                // rounding through i64.
                let fi = g.cast(v[0], DType::F32)?;
                let half_c = g.scalar_f32(0.5);
                let halff = g.mul(fi, half_c)?;
                let trunc = g.cast(halff, DType::I64)?;
                let back = g.cast(trunc, DType::F32)?;
                let even = g.equal(halff, back)?;
                let stepped =
                    g.cond(even, |g| Ok(vec![g.add(v[1], two)?]), |g| Ok(vec![g.add(v[1], one)?]))?;
                let one2 = g.scalar_i64(1);
                let i = g.add(v[0], one2)?;
                Ok(vec![i, stepped[0]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &outs).unwrap();
    assert_eq!(vals[1].scalar_as_i64().unwrap(), 9);
}

#[test]
fn variables_accumulate_across_runs() {
    // Declared after its update's input, the variable's source is seeded
    // last, and the one worker reaches the update first: the update must
    // still find the variable initialized.
    for declare_first in [true, false] {
        let mut b = GraphBuilder::new();
        let early = declare_first.then(|| b.variable("w", Tensor::scalar_f32(0.0)));
        let one = b.scalar_f32(1.0);
        let w = early.unwrap_or_else(|| b.variable("w", Tensor::scalar_f32(0.0)));
        let upd = b.assign_add(w, one).unwrap();
        let graph = Arc::new(b.finish().unwrap());
        let eg = ExecGraph::local(graph);
        let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
        let resources = ResourceManager::new();
        let exec = Executor::new(
            eg,
            device,
            resources.clone(),
            Arc::new(InMemoryRendezvous::new()),
            ExecutorOptions { workers: 1, ..ExecutorOptions::default() },
        );
        for expect in [1.0f32, 2.0, 3.0] {
            let out = exec.run(&HashMap::new(), &[upd]).unwrap();
            assert_eq!(out.values[0].scalar_as_f32().unwrap(), expect);
        }
        assert_eq!(resources.variable_value("w").unwrap().scalar_as_f32().unwrap(), 3.0);
    }
}

#[test]
fn scan_computes_prefix_sums() {
    let mut b = GraphBuilder::new();
    let elems = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap());
    let init = b.scalar_f32(0.0);
    let r = b.scan(|g, a, e| g.add(a, e), elems, init, WhileOptions::default()).unwrap();
    let out = run1(b, r);
    assert_eq!(out.shape().dims(), &[4]);
    assert_eq!(out.as_f32_slice().unwrap(), &[1.0, 3.0, 6.0, 10.0]);
}

#[test]
fn foldl_foldr_directionality() {
    let mut b = GraphBuilder::new();
    let elems = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0, 4.0], &[3]).unwrap());
    let init = b.scalar_f32(0.0);
    // foldl: ((0-1)-2)-4 = -7; foldr: ((0-4)-2)-1 = -7 ... use division to
    // expose ordering instead: foldl: ((8/2)/2)/2=1 vs foldr over [2,2,8]
    // Keep subtraction but asymmetric elems to check order.
    let l = b.foldl(|g, a, e| g.sub(a, e), elems, init, WhileOptions::default()).unwrap();
    let elems2 = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0, 4.0], &[3]).unwrap());
    let r = b
        .foldr(
            |g, a, e| {
                let two = g.scalar_f32(2.0);
                let ae = g.mul(a, two)?;
                g.add(ae, e)
            },
            elems2,
            init,
            WhileOptions::default(),
        )
        .unwrap();
    let vals = run_graph(b, &HashMap::new(), &[l, r]).unwrap();
    assert_eq!(vals[0].scalar_as_f32().unwrap(), -7.0);
    // foldr: a=0 -> 2*0+4=4 -> 2*4+2=10 -> 2*10+1=21.
    assert_eq!(vals[1].scalar_as_f32().unwrap(), 21.0);
}

#[test]
fn map_fn_squares() {
    let mut b = GraphBuilder::new();
    let elems = b.constant(Tensor::from_vec_f32(vec![1.0, -2.0, 3.0], &[3]).unwrap());
    let m = b.map_fn(|g, e| g.square(e), elems, DType::F32, WhileOptions::default()).unwrap();
    let out = run1(b, m);
    assert_eq!(out.as_f32_slice().unwrap(), &[1.0, 4.0, 9.0]);
}

#[test]
fn matmul_loop_power() {
    // x(I) multiplied by W three times inside a loop.
    let mut b = GraphBuilder::new();
    let w = b.constant(Tensor::from_vec_f32(vec![2.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap());
    let x0 = b.constant(Tensor::eye(2));
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let x = g.matmul(v[1], w)?;
                Ok(vec![i, x])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let out = run1(b, outs[1]);
    assert_eq!(out.as_f32_slice().unwrap(), &[8.0, 0.0, 0.0, 8.0]);
}

#[test]
fn stack_push_pop_roundtrip() {
    let mut b = GraphBuilder::new();
    let anchor = b.scalar_i64(0);
    let handle = b.stack_create(anchor, false).unwrap();
    let idx = b.scalar_i64(0);
    let v = b.constant(Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap());
    let pushed = b.stack_push(handle, idx, v).unwrap();
    let popped = b.stack_pop(handle, idx, DType::F32).unwrap();
    // Order the pop after the push.
    b.add_control_input(popped.node, pushed.node);
    let out = run_graph(b, &HashMap::new(), &[popped]).unwrap();
    assert_eq!(out[0].as_f32_slice().unwrap(), &[1.0, 2.0]);
}

#[test]
fn random_uniform_is_deterministic_per_seed() {
    let build = || {
        let mut b = GraphBuilder::new();
        let tick = b.scalar_i64(0);
        let r = b.random_uniform(&[4], 0.0, 1.0, tick).unwrap();
        (b, r)
    };
    let (b1, r1) = build();
    let (b2, r2) = build();
    let v1 = run1(b1, r1);
    let v2 = run1(b2, r2);
    assert!(v1.value_eq(&v2), "same graph, same seed, same tag => same randomness");
    for &x in v1.as_f32_slice().unwrap() {
        assert!((0.0..1.0).contains(&x));
    }
}

#[test]
fn fetching_loop_internal_tensor_fails_cleanly() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(2);
    let mut internal = None;
    let _ = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let nxt = g.add(v[0], one)?;
                internal = Some(nxt);
                Ok(vec![nxt])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let err = run_graph(b, &HashMap::new(), &[internal.unwrap()]).unwrap_err();
    assert!(err.to_string().contains("never produced"), "{err}");
}

#[test]
fn gpu_memory_accounting_and_oom() {
    // A chain of big matmuls stored via TensorArray writes on a tiny GPU:
    // forward activations accumulate until the allocator rejects one.
    let profile = DeviceProfile::gpu_k40()
        .with_time_scale(0.0)
        .with_shape_scale(64)
        // Each 16x16 f32 models a 1024x1024 (4 MiB); cap at 16 MiB.
        .with_memory_capacity(16 << 20);
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[16, 16]));
    let size = b.scalar_i64(8);
    let ta = b.tensor_array(DType::F32, size).unwrap();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(8);
    let outs = b
        .while_loop(
            &[i0, x, ta.flow],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let y = g.matmul(v[1], v[1])?;
                let flow = ta.with_flow(v[2]).write(g, v[0], y)?.flow;
                Ok(vec![i, y, flow])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, profile);
    let exec = Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    let err = exec.run(&HashMap::new(), &[outs[0]]).unwrap_err();
    assert!(matches!(err, crate::ExecError::OutOfMemory(_)), "expected OOM, got {err}");
}

#[test]
fn gpu_compute_succeeds_with_enough_memory() {
    let profile = DeviceProfile::gpu_k40().with_time_scale(0.0).with_shape_scale(4);
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::eye(8));
    let y = b.matmul(x, x).unwrap();
    let s = b.reduce_sum(y).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, profile);
    let exec = Executor::new(
        eg,
        device.clone(),
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    let out = exec.run(&HashMap::new(), &[s]).unwrap();
    assert_eq!(out.values[0].scalar_as_f32().unwrap(), 8.0);
    // All transient charges released at run end.
    assert_eq!(device.allocator().in_use(), 0);
    assert!(device.allocator().peak() > 0);
}

#[test]
fn select_and_logic_ops_execute() {
    let mut b = GraphBuilder::new();
    let t = b.constant(Tensor::scalar_bool(true));
    let f = b.constant(Tensor::scalar_bool(false));
    let and = b.logical_and(t, f).unwrap();
    let or = b.logical_or(t, f).unwrap();
    let not = b.logical_not(f).unwrap();
    let a = b.scalar_f32(1.0);
    let c = b.scalar_f32(2.0);
    let sel = b.select(or, a, c).unwrap();
    let vals = run_graph(b, &HashMap::new(), &[and, or, not, sel]).unwrap();
    assert!(!vals[0].scalar_as_bool().unwrap());
    assert!(vals[1].scalar_as_bool().unwrap());
    assert!(vals[2].scalar_as_bool().unwrap());
    assert_eq!(vals[3].scalar_as_f32().unwrap(), 1.0);
}

#[test]
fn kernel_error_inside_loop_surfaces_cleanly() {
    // A matmul with mismatched shapes inside the loop body must abort the
    // run with a kernel error (not hang or panic).
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let x0 = b.constant(Tensor::ones(&[2, 3]));
    let lim = b.scalar_i64(5);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                // [2,3] x [2,3]: invalid on the second iteration's shapes
                // as well; fails at iteration 0.
                let bad = g.matmul(v[1], v[1])?;
                Ok(vec![g.add(v[0], one)?, bad])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let err = run_graph(b, &HashMap::new(), &[outs[0]]).unwrap_err();
    match err {
        crate::ExecError::Kernel { detail, .. } => {
            assert!(detail.contains("matmul"), "{detail}")
        }
        other => panic!("expected kernel error, got {other}"),
    }
}

#[test]
fn forwarding_ops_share_memory_charges() {
    // A value forwarded through Switch/Merge/Identity must charge device
    // memory once, not once per hop.
    let profile = DeviceProfile::gpu_k40().with_time_scale(0.0).with_shape_scale(16);
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[16, 16])); // 1 MiB modeled
    let p = b.constant(Tensor::scalar_bool(true));
    let outs = b
        .cond(
            p,
            |g| {
                // Five forwarding hops.
                let a = g.identity(x)?;
                let bb = g.identity(a)?;
                Ok(vec![g.identity(bb)?])
            },
            |g| Ok(vec![g.identity(x)?]),
        )
        .unwrap();
    let s = b.reduce_sum(outs[0]).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, profile);
    let exec = Executor::new(
        eg,
        device.clone(),
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions::default(),
    );
    exec.run(&HashMap::new(), &[s]).unwrap();
    // Peak should be on the order of the single 1 MiB constant (plus small
    // outputs), far below 5x.
    let peak = device.allocator().peak();
    assert!(peak < 3 * (1 << 20), "forwarding chains double-charged memory: peak {peak} bytes");
}

#[test]
fn zero_trip_nested_loop_completes() {
    // An inner loop whose predicate is false on the very first iteration,
    // nested in an outer loop that runs: frame completion bookkeeping must
    // handle empty inner frames created per outer iteration.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let never = g.constant(Tensor::scalar_bool(false));
                let j0 = g.scalar_i64(100);
                let inner = g.while_loop(
                    &[j0],
                    |g, _| g.identity(never),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(w[0], one)?])
                    },
                    WhileOptions::default(),
                )?;
                // inner[0] is always 100.
                let hundred = g.scalar_i64(100);
                let diff = g.sub(inner[0], hundred)?;
                let one = g.scalar_i64(1);
                let step = g.add(v[0], one)?;
                Ok(vec![g.add(step, diff)?])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let out = run_graph(b, &HashMap::new(), &[outs[0]]).unwrap();
    assert_eq!(out[0].scalar_as_i64().unwrap(), 3);
}

#[test]
fn deeply_nested_conditionals_execute() {
    // Four levels of cond nesting, all combinations of predicates.
    for bits in 0..16u32 {
        let mut b = GraphBuilder::new();
        let preds: Vec<_> =
            (0..4).map(|i| b.constant(Tensor::scalar_bool(bits & (1 << i) != 0))).collect();
        let x = b.scalar_f32(1.0);
        let mut expr = x;
        for (lvl, &p) in preds.iter().enumerate() {
            let scale_t = b.scalar_f32((lvl + 2) as f32);
            let cur = expr;
            let outs = b
                .cond(p, |g| Ok(vec![g.mul(cur, scale_t)?]), |g| Ok(vec![g.identity(cur)?]))
                .unwrap();
            expr = outs[0];
        }
        let out = run_graph(b, &HashMap::new(), &[expr]).unwrap();
        let mut expect = 1.0f32;
        for lvl in 0..4 {
            if bits & (1 << lvl) != 0 {
                expect *= (lvl + 2) as f32;
            }
        }
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect, "bits={bits:04b}");
    }
}

#[test]
fn case_dispatches_each_branch_at_runtime() {
    for (iv, expect) in [(0i64, -10.0f32), (1, 100.0), (2, 10.0), (7, -1.0)] {
        let mut b = GraphBuilder::new();
        let i = b.placeholder("i", DType::I64);
        let x = b.scalar_f32(10.0);
        let outs = b
            .case(
                i,
                vec![
                    Box::new(|g: &mut GraphBuilder| Ok(vec![g.neg(x)?])),
                    Box::new(|g: &mut GraphBuilder| Ok(vec![g.square(x)?])),
                    Box::new(|g: &mut GraphBuilder| Ok(vec![g.identity(x)?])),
                ],
                |g| Ok(vec![g.scalar_f32(-1.0)]),
            )
            .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("i".to_string(), Tensor::scalar_i64(iv));
        let out = run_graph(b, &feeds, &[outs[0]]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect, "index={iv}");
    }
}

#[test]
fn wide_fan_out_spreads_across_workers() {
    // One producer makes 100 successors ready at once. The finishing
    // worker keeps only the first for itself; the other 99 go to the
    // shared queue, so idle workers must pick some of them up.
    use dcf_device::{DeviceCollector, StepStatsCollector, TraceLevel};
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[48, 48]));
    let products: Vec<TensorRef> = (0..100).map(|_| b.matmul(x, x).unwrap()).collect();
    let total = b.add_n(&products).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let matmuls: Vec<String> = products.iter().map(|t| graph.node(t.node).name.clone()).collect();
    let exec = Executor::new(
        ExecGraph::local(graph),
        Device::new(DeviceId(0), 0, DeviceProfile::cpu()),
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions { workers: 4, ..ExecutorOptions::default() },
    );
    // Warm up, then let every worker go idle and park, so the measured
    // run's spread depends on wake-ups rather than on workers that were
    // still starting when the successors were queued.
    exec.run(&HashMap::new(), &[total]).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let collector = Arc::new(StepStatsCollector::new(TraceLevel::Software));
    collector.register_device("cpu:0");
    let config = crate::RunConfig {
        collector: Some(DeviceCollector::new(0, collector.clone())),
        ..crate::RunConfig::default()
    };
    let out = exec.run_with(Arc::new(HashMap::new()), &[total], config).unwrap();
    assert_eq!(out.values[0].as_f32_slice().unwrap()[0], 100.0 * 48.0);
    let stats = collector.finish();
    let workers: std::collections::HashSet<u32> = stats.devices[0]
        .node_stats
        .iter()
        .filter(|n| matmuls.contains(&n.node))
        .map(|n| n.worker)
        .collect();
    assert!(workers.len() > 1, "100-wide fan-out ran on one worker only");
}

/// An executor on `device` with `workers` workers.
fn executor_on(graph: Arc<dcf_graph::Graph>, device: Arc<Device>, workers: usize) -> Executor {
    Executor::new(
        ExecGraph::local(graph),
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions { workers, ..ExecutorOptions::default() },
    )
}

/// A K40-profile device at `time_scale`.
fn k40(time_scale: f64) -> Arc<Device> {
    Device::new(DeviceId(0), 0, DeviceProfile::gpu_k40().with_time_scale(time_scale))
}

#[test]
fn traced_inline_kernels_appear_on_the_compute_track() {
    // At time scale 1e-3 every K40 kernel models under a microsecond, and
    // a chain leaves the stream idle for each, so each runs inline on the
    // dispatching worker: inside its node's span, on the compute track.
    use dcf_device::{DeviceCollector, StepStatsCollector, TraceLevel};
    let mut b = GraphBuilder::new();
    let x = b.constant(Tensor::ones(&[8, 8]));
    let mut cur = x;
    for _ in 0..6 {
        let m = b.matmul(cur, x).unwrap();
        cur = b.tanh(m).unwrap();
    }
    let graph = Arc::new(b.finish().unwrap());
    let exec = executor_on(graph, k40(1e-3), 1);
    let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
    collector.register_device("/machine:0/k40:0");
    let config = crate::RunConfig {
        collector: Some(DeviceCollector::new(0, collector.clone())),
        ..crate::RunConfig::default()
    };
    let out = exec.run_with(Arc::new(HashMap::new()), &[cur], config).unwrap();
    assert_eq!(out.values[0].shape().dims(), &[8, 8]);
    let stats = collector.finish();
    let dev = &stats.devices[0];
    assert_eq!(dev.kernel_stats.len(), 12, "one kernel per matmul and tanh");
    for k in &dev.kernel_stats {
        assert_eq!(k.stream, "/machine:0/k40:0/compute");
        let node = dev.node_stats.iter().find(|n| n.node == k.kernel).expect("kernel's node");
        assert!(
            node.start_us <= k.start_us && k.end_us <= node.end_us,
            "kernel {} ran outside its activation: {k:?} vs {node:?}",
            k.kernel
        );
    }
}

#[test]
fn failing_inline_kernel_is_structured_and_leaves_the_device_idle() {
    let mut b = GraphBuilder::new();
    let a = b.placeholder("a", DType::F32);
    let bad = b.matmul(a, a).unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let device = k40(1e-3);
    let exec = executor_on(graph, device.clone(), 2);
    let feed = |t: Tensor| HashMap::from([("a".to_string(), t)]);
    let err = exec.run(&feed(Tensor::ones(&[2, 3])), &[bad]).unwrap_err();
    match err {
        crate::ExecError::Kernel { node, detail } => {
            assert!(detail.contains("matmul"), "{detail}");
            assert!(node.contains("MatMul") || node.contains("matmul"), "{node}");
        }
        other => panic!("expected a kernel error, got {other}"),
    }
    // The stream was released: the next short kernel runs inline, and a
    // good run on the same executor succeeds and returns every charge.
    let inline =
        device.run_compute_inline(std::time::Duration::from_nanos(5), None, String::new, || ());
    assert_eq!(inline, Some(()), "the failed kernel still holds the stream");
    let out = exec.run(&feed(Tensor::ones(&[3, 3])), &[bad]).unwrap();
    assert_eq!(out.values[0].as_f32_slice().unwrap(), &[3.0; 9]);
    for _ in 0..200 {
        if device.allocator().in_use() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(device.allocator().in_use(), 0, "charges leaked");
}

#[test]
fn concurrent_runs_on_four_workers_never_overlap_kernels_on_a_stream() {
    // Shape scale 32 and time scale 0.01 make the loop's matmul model at
    // ~5 µs (stream thread) and its elementwise ops under 1 µs (inline
    // when the stream is idle). Three runs on four workers record into one
    // collector; no two compute-stream kernels may overlap.
    use dcf_device::{DeviceCollector, StepStatsCollector, TraceLevel};
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let x0 = b.constant(Tensor::ones(&[32, 32]));
    let w = b.constant(Tensor::from_vec_f32(vec![1.0 / 32.0; 32 * 32], &[32, 32]).unwrap());
    let lim = b.scalar_i64(20);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let m = g.matmul(v[1], w)?;
                let t = g.tanh(m)?;
                let s = g.sigmoid(v[1])?;
                Ok(vec![g.add(v[0], one)?, g.add(t, s)?])
            },
            WhileOptions { parallel_iterations: 4, ..WhileOptions::default() },
        )
        .unwrap();
    let graph = Arc::new(b.finish().unwrap());
    let profile = DeviceProfile::gpu_k40().with_shape_scale(32).with_time_scale(0.01);
    let exec = executor_on(graph, Device::new(DeviceId(0), 0, profile), 4);
    let expected = exec.run(&HashMap::new(), &[outs[1]]).unwrap().values;
    let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
    collector.register_device("/machine:0/k40:0");
    for _ in 0..5 {
        let runs: Vec<_> = (0..3)
            .map(|step| {
                let config = crate::RunConfig {
                    collector: Some(DeviceCollector::new(0, collector.clone())),
                    step,
                    ..crate::RunConfig::default()
                };
                exec.start(Arc::new(HashMap::new()), &[outs[1]], config)
            })
            .collect();
        for run in runs {
            assert!(run.wait().unwrap().values[0].value_eq(&expected[0]), "run diverged");
        }
    }
    let stats = collector.finish();
    let mut kernels: Vec<_> = stats.devices[0]
        .kernel_stats
        .iter()
        .filter(|k| k.stream.ends_with("/compute"))
        .map(|k| (k.start_us, k.end_us))
        .collect();
    // Per run: 20 iterations of a matmul, a tanh, a sigmoid, two adds and
    // the loop's iteration counter (the comparison models as free).
    assert_eq!(kernels.len(), 15 * 20 * 6, "one kernel per compute activation");
    kernels.sort_unstable();
    for pair in kernels.windows(2) {
        assert!(pair[1].0 >= pair[0].1, "kernels overlap on one stream: {pair:?}");
    }
}
