//! Distributed-execution tests: Send/Recv, dead-signal propagation across
//! devices, and distributed while-loops with control-loop state machines.

use crate::{Cluster, NetworkModel, Session, SessionOptions};
use dcf_device::DeviceProfile;
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_tensor::{DType, Tensor};
use std::collections::HashMap;

fn run_on(b: GraphBuilder, cluster: Cluster, fetches: &[TensorRef]) -> crate::Result<Vec<Tensor>> {
    let sess =
        Session::new(b.finish().expect("valid graph"), cluster, SessionOptions::functional())?;
    sess.eval(&HashMap::new(), fetches)
}

fn two_machines() -> Cluster {
    let mut c = Cluster::new();
    c.add_device(0, DeviceProfile::cpu());
    c.add_device(1, DeviceProfile::cpu());
    c
}

#[test]
fn cross_device_dataflow() {
    let mut b = GraphBuilder::new();
    let a = b.scalar_f32(21.0);
    let x = b.with_device("/machine:1/cpu:0", |b| b.add(a, a).unwrap());
    let y = b.with_device("/machine:0/cpu:0", |b| b.identity(x).unwrap());
    let out = run_on(b, two_machines(), &[y]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), 42.0);
}

#[test]
fn dead_signal_propagates_across_devices() {
    // The false branch computes on machine 1. When pred is true, machine
    // 1's Recv must receive a dead signal and quiesce (§4.4).
    for pv in [true, false] {
        let mut b = GraphBuilder::new();
        let p = b.constant(Tensor::scalar_bool(pv));
        let x = b.scalar_f32(10.0);
        let outs = b
            .cond(
                p,
                |g| Ok(vec![g.neg(x)?]),
                |g| {
                    let y = g.with_device("/machine:1/cpu:0", |g| g.square(x))?;
                    Ok(vec![y])
                },
            )
            .unwrap();
        let out = run_on(b, two_machines(), &[outs[0]]).unwrap();
        let expect = if pv { -10.0 } else { 100.0 };
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect, "pred={pv}");
    }
}

#[test]
fn distributed_while_loop_matches_local() {
    // Figure 6's shape: loop structure and predicate on machine 0, the body
    // op on machine 1.
    let build = |remote: bool| {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar_i64(0);
        let x0 = b.scalar_f32(1.0);
        let lim = b.scalar_i64(6);
        let two = b.scalar_f32(2.0);
        let outs = b
            .while_loop(
                &[i0, x0],
                |g, v| g.less(v[0], lim),
                |g, v| {
                    let one = g.scalar_i64(1);
                    let i = g.add(v[0], one)?;
                    let x = if remote {
                        g.with_device("/machine:1/cpu:0", |g| g.mul(v[1], two))?
                    } else {
                        g.mul(v[1], two)?
                    };
                    // Keep the loop variable's next value on machine 0.
                    let x = g.with_device("/machine:0/cpu:0", |g| g.identity(x))?;
                    Ok(vec![i, x])
                },
                WhileOptions::default(),
            )
            .unwrap();
        (b, outs)
    };
    let (b_local, outs_local) = build(false);
    let local = run_on(b_local, two_machines(), &outs_local).unwrap();
    let (b_dist, outs_dist) = build(true);
    let dist = run_on(b_dist, two_machines(), &outs_dist).unwrap();
    assert_eq!(local[0].scalar_as_i64().unwrap(), dist[0].scalar_as_i64().unwrap());
    assert_eq!(local[1].scalar_as_f32().unwrap(), 64.0);
    assert_eq!(dist[1].scalar_as_f32().unwrap(), 64.0);
}

#[test]
fn distributed_loop_with_parallel_iterations_one() {
    // The §4.3 knob set to 1 serializes iterations but must not change
    // values or deadlock the distributed control loop.
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let lim = b.scalar_i64(5);
    let outs = b
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let next = g.with_device("/machine:1/cpu:0", |g| g.add(v[0], one))?;
                Ok(vec![g.with_device("/machine:0/cpu:0", |g| g.identity(next))?])
            },
            WhileOptions { parallel_iterations: 1, ..Default::default() },
        )
        .unwrap();
    let out = run_on(b, two_machines(), &[outs[0]]).unwrap();
    assert_eq!(out[0].scalar_as_i64().unwrap(), 5);
}

#[test]
fn loop_body_partitioned_across_four_machines() {
    // A ring of adds across 4 machines, repeated 3 iterations.
    let mut c = Cluster::new();
    for m in 0..4 {
        c.add_device(m, DeviceProfile::cpu());
    }
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let x0 = b.scalar_f32(0.0);
    let lim = b.scalar_i64(3);
    let outs = b
        .while_loop(
            &[i0, x0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                let i = g.add(v[0], one)?;
                let mut x = v[1];
                for m in 1..4 {
                    let inc = g.scalar_f32(1.0);
                    x = g.with_device(format!("/machine:{m}/cpu:0"), |g| g.add(x, inc))?;
                }
                let x = g.with_device("/machine:0/cpu:0", |g| g.identity(x))?;
                Ok(vec![i, x])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let out = run_on(b, c, &outs).unwrap();
    // 3 adds per iteration x 3 iterations.
    assert_eq!(out[1].scalar_as_f32().unwrap(), 9.0);
}

#[test]
fn nested_distributed_loops() {
    let mut b = GraphBuilder::new();
    let i0 = b.scalar_i64(0);
    let t0 = b.scalar_i64(0);
    let lim = b.scalar_i64(3);
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
                        let t = g.with_device("/machine:1/cpu:0", |g| g.add(w[1], one))?;
                        Ok(vec![j, g.with_device("/machine:0/cpu:0", |g| g.identity(t))?])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, inner[1]])
            },
            WhileOptions::default(),
        )
        .unwrap();
    let out = run_on(b, two_machines(), &outs).unwrap();
    assert_eq!(out[1].scalar_as_i64().unwrap(), 3); // 0 + 1 + 2
}

#[test]
fn network_delay_does_not_change_values() {
    let mut b = GraphBuilder::new();
    let a = b.scalar_f32(5.0);
    let x = b.with_device("/machine:1/cpu:0", |b| b.square(a).unwrap());
    let y = b.with_device("/machine:0/cpu:0", |b| b.neg(x).unwrap());
    let sess = Session::new(
        b.finish().unwrap(),
        two_machines(),
        SessionOptions {
            network: NetworkModel {
                cross_latency: std::time::Duration::from_millis(5),
                ..NetworkModel::default()
            },
            ..SessionOptions::functional()
        },
    )
    .unwrap();
    let out = sess.eval(&HashMap::new(), &[y]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), -25.0);
}

#[test]
fn failure_on_one_device_aborts_the_run() {
    // Machine 1 hosts a GPU with almost no memory; its kernel OOMs. The
    // cancel token must abort machine 0's executor instead of deadlocking
    // on the Recv.
    let mut c = Cluster::new();
    c.add_device(0, DeviceProfile::cpu());
    c.add_device(1, DeviceProfile::gpu_k40().with_time_scale(0.0).with_memory_capacity(16));
    let mut b = GraphBuilder::new();
    let a = b.constant(Tensor::ones(&[64, 64]));
    let x = b.with_device("/machine:1/gpu:0", |b| b.matmul(a, a).unwrap());
    let y = b.with_device("/machine:0/cpu:0", |b| b.reduce_sum(x).unwrap());
    let sess = Session::new(b.finish().unwrap(), c, SessionOptions::functional()).unwrap();
    let err = sess.eval(&HashMap::new(), &[y]).unwrap_err();
    assert!(
        matches!(err, dcf_exec::ExecError::OutOfMemory(_)),
        "expected OOM to surface, got: {err}"
    );
}

#[test]
fn fetches_from_multiple_devices_keep_order() {
    let mut b = GraphBuilder::new();
    let a = b.scalar_f32(1.0);
    let x = b.with_device("/machine:1/cpu:0", |b| b.add(a, a).unwrap());
    let y = b.with_device("/machine:0/cpu:0", |b| b.neg(a).unwrap());
    let z = b.with_device("/machine:1/cpu:0", |b| b.square(x).unwrap());
    let out = run_on(b, two_machines(), &[x, y, z]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), 2.0);
    assert_eq!(out[1].scalar_as_f32().unwrap(), -1.0);
    assert_eq!(out[2].scalar_as_f32().unwrap(), 4.0);
}

#[test]
fn variables_shared_across_devices_and_runs() {
    let mut b = GraphBuilder::new();
    let w = b.variable("w", Tensor::scalar_f32(0.0));
    let delta = b.with_device("/machine:1/cpu:0", |b| {
        let one = b.scalar_f32(1.0);
        b.add(w, one).unwrap()
    });
    let upd = b.with_device("/machine:0/cpu:0", |b| b.assign(w, delta).unwrap());
    let sess =
        Session::new(b.finish().unwrap(), two_machines(), SessionOptions::functional()).unwrap();
    for expect in [1.0f32, 2.0, 3.0] {
        let out = sess.eval(&HashMap::new(), &[upd]).unwrap();
        assert_eq!(out[0].scalar_as_f32().unwrap(), expect);
    }
}

#[test]
fn placeholder_feeds_reach_remote_partitions() {
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x", DType::F32);
    let y = b.with_device("/machine:1/cpu:0", |b| b.neg(x).unwrap());
    let z = b.with_device("/machine:0/cpu:0", |b| b.identity(y).unwrap());
    let sess =
        Session::new(b.finish().unwrap(), two_machines(), SessionOptions::functional()).unwrap();
    let mut feeds = HashMap::new();
    feeds.insert("x".to_string(), Tensor::scalar_f32(3.5));
    let out = sess.eval(&feeds, &[z]).unwrap();
    assert_eq!(out[0].scalar_as_f32().unwrap(), -3.5);
}

/// The nested loop of `nested_distributed_loops`, with the inner body's
/// add on machine 1: every inner iteration crosses the machines.
fn nested_cross_machine_loop(b: &mut GraphBuilder, outer_trips: i64) -> Vec<TensorRef> {
    let i0 = b.scalar_i64(0);
    let t0 = b.scalar_i64(0);
    let lim = b.scalar_i64(outer_trips);
    b.while_loop(
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
                    let t = g.with_device("/machine:1/cpu:0", |g| g.add(w[1], one))?;
                    Ok(vec![j, g.with_device("/machine:0/cpu:0", |g| g.identity(t))?])
                },
                WhileOptions::default(),
            )?;
            let one = g.scalar_i64(1);
            Ok(vec![g.add(v[0], one)?, inner[1]])
        },
        WhileOptions::default(),
    )
    .unwrap()
}

#[test]
fn partitions_derive_equal_rendezvous_keys() {
    // Each partition interns frame names on its own, so its frame ids
    // differ; the keys built from them must not. Rebuild, per partition,
    // the key the executor uses for a transfer in iteration `iter` of the
    // inner loop spawned by outer iteration `pi`, and compare.
    use dcf_exec::{ExecGraph, FrameKey, RendezvousKey, Tag};
    use dcf_graph::OpKind;
    use std::sync::Arc;
    let cluster = two_machines();
    let mut b = GraphBuilder::new();
    nested_cross_machine_loop(&mut b, 3);
    let g = b.finish().unwrap();
    let placement = crate::place_nodes(&g, &cluster).unwrap();
    let pg = crate::partition_graph(g, placement, &cluster).unwrap();
    let egs: Vec<Arc<ExecGraph>> =
        pg.members.iter().map(|m| ExecGraph::partition(pg.graph.clone(), m)).collect();

    // Frame-name hashes, keyed by name, as each partition computed them.
    let frame_hash = |eg: &ExecGraph, name: &str| -> u64 {
        let enter = pg
            .graph
            .nodes()
            .iter()
            .find(|n| {
                eg.member[n.id.0] && matches!(&n.op, OpKind::Enter { frame, .. } if frame == name)
            })
            .expect("both partitions enter every loop frame");
        eg.frame_hash(eg.enter_frame(enter.id).unwrap())
    };
    // Loop frames by nesting depth: [outer, inner].
    let mut frames: Vec<(usize, String)> = pg
        .graph
        .nodes()
        .iter()
        .filter_map(|n| match &n.op {
            OpKind::Enter { frame, .. } => Some((pg.graph.while_chain(n.ctx).len(), frame.clone())),
            _ => None,
        })
        .collect();
    frames.sort();
    frames.dedup();
    assert_eq!(frames.len(), 2, "outer and inner loop frames");
    let (outer, inner) = (&frames[0].1, &frames[1].1);

    // Every Send on one partition meets exactly its Recv on the other.
    let mut pairs = Vec::new();
    for send in pg.graph.nodes() {
        let OpKind::Send { key_base, .. } = &send.op else { continue };
        let recv = pg
            .graph
            .nodes()
            .iter()
            .find(|n| matches!(&n.op, OpKind::Recv { key_base: k, .. } if k == key_base))
            .unwrap();
        let (ps, pr) = (pg.placement[send.id.0].0, pg.placement[recv.id.0].0);
        assert_ne!(ps, pr);
        pairs.push(((ps, send.id), (pr, recv.id)));
    }
    assert!(pairs.len() >= 2, "data and predicate transfers");

    let key = |d: usize, node, frame: &str, pi: u64, iter: u64| -> RendezvousKey {
        let eg = &egs[d];
        let outer_key = FrameKey::ROOT.child(0, frame_hash(eg, outer));
        let frame =
            if frame == outer { outer_key } else { outer_key.child(pi, frame_hash(eg, inner)) };
        RendezvousKey { edge: eg.edge_key(node).unwrap(), tag: Tag { frame, iter } }
    };
    let mut seen = std::collections::HashSet::new();
    for &((ps, send), (pr, recv)) in &pairs {
        for frame in [outer.as_str(), inner.as_str()] {
            for pi in 0..3 {
                for iter in 0..3 {
                    let k = key(ps, send, frame, pi, iter);
                    assert_eq!(k, key(pr, recv, frame, pi, iter), "partitions disagree");
                    // Distinct (edge, frame, parent iteration, iteration)
                    // never collide; the outer frame has no parent
                    // iteration beyond the root's.
                    if frame == inner.as_str() || pi == 0 {
                        assert!(seen.insert(k), "key collision at {frame} {pi} {iter}");
                    }
                }
            }
        }
    }
}

#[test]
fn two_machine_inline_hand_off_stays_on_each_executors_pool() {
    // Every inner iteration's Recv callback fires on the sending
    // executor's worker, which must queue the Recv's successors on the
    // receiving executor rather than run them inline. The executor's
    // debug assertion checks that only its own workers run its jobs
    // inline; a violation panics a worker, which the deadline turns into
    // a failed run.
    let mut b = GraphBuilder::new();
    let outs = nested_cross_machine_loop(&mut b, 8);
    let sess = Session::new(
        b.finish().unwrap(),
        two_machines(),
        SessionOptions {
            executor: dcf_exec::ExecutorOptions { workers: 2, ..Default::default() },
            ..SessionOptions::functional()
        },
    )
    .unwrap();
    let opts = crate::RunOptions::default().with_timeout(std::time::Duration::from_secs(20));
    for _ in 0..20 {
        let (out, _) = sess.run(&opts, &HashMap::new(), &outs);
        assert_eq!(out.unwrap()[1].scalar_as_i64().unwrap(), 28); // 0 + 1 + ... + 7
    }
}
