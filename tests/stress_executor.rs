//! Executor stress tests (satellite of the hot-path overhaul).
//!
//! Meant to be run in release mode (`cargo test --release --test
//! stress_executor`); the iteration counts shrink automatically under
//! debug builds so plain `cargo test -q` stays fast. Covers:
//!
//! * nested while loops over randomized iteration counts, run at
//!   `workers` = 1 / 2 / 8, asserting **value-identical** results and an
//!   **identical `ops_executed` count** (a double-scheduled node would
//!   inflate the counter at higher worker counts);
//! * concurrent `Session::run` calls on sessions sharing one
//!   `ResourceManager`, asserting no deadlock and correct values.

use dcf_device::{Device, DeviceId, DeviceProfile};
use dcf_exec::{ExecGraph, Executor, ExecutorOptions, InMemoryRendezvous, ResourceManager};
use dcf_graph::{Graph, GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{Cluster, Session, SessionOptions};
use dcf_tensor::TensorRng;
use std::collections::HashMap;
use std::sync::Arc;

#[cfg(debug_assertions)]
const SEEDS: u64 = 3;
#[cfg(not(debug_assertions))]
const SEEDS: u64 = 12;

#[cfg(debug_assertions)]
const MAX_TRIPS: i64 = 8;
#[cfg(not(debug_assertions))]
const MAX_TRIPS: i64 = 40;

/// A doubly nested loop with randomized trip counts and a varying window:
/// outer runs `outer` trips; each trip spawns a child frame running
/// `inner` trips, each adding `outer_index + 1` into the accumulator.
/// Expected fetch: `inner * outer * (outer + 1) / 2`.
fn nested_graph(outer: i64, inner: i64, parallel: usize) -> (Graph, TensorRef) {
    let mut g = GraphBuilder::new();
    let i0 = g.scalar_i64(0);
    let acc0 = g.scalar_i64(0);
    let olim = g.scalar_i64(outer);
    let ilim = g.scalar_i64(inner);
    let outs = g
        .while_loop(
            &[i0, acc0],
            |g, v| g.less(v[0], olim),
            |g, v| {
                let one = g.scalar_i64(1);
                let next_i = g.add(v[0], one)?;
                let j0 = g.scalar_i64(0);
                let inner_outs = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], ilim),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        // `next_i` is a loop constant of the inner frame.
                        Ok(vec![g.add(w[0], one)?, g.add(w[1], next_i)?])
                    },
                    WhileOptions { parallel_iterations: parallel, ..Default::default() },
                )?;
                Ok(vec![next_i, inner_outs[1]])
            },
            WhileOptions { parallel_iterations: parallel, ..Default::default() },
        )
        .expect("nested while_loop should build");
    (g.finish().expect("graph should validate"), outs[1])
}

fn executor_for(graph: Graph, workers: usize) -> Executor {
    let eg = ExecGraph::local(Arc::new(graph));
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions { workers, ..Default::default() },
    )
}

/// Randomized nested loops must produce bit-identical values and identical
/// activation counts regardless of the worker count.
#[test]
fn nested_loops_identical_across_worker_counts() {
    let mut rng = TensorRng::new(0xdcf_57e5);
    for _ in 0..SEEDS {
        let outer = 1 + rng.sample_index(MAX_TRIPS as usize) as i64;
        let inner = 1 + rng.sample_index(MAX_TRIPS as usize) as i64;
        let parallel = 1 + rng.sample_index(32);
        let expected = inner * outer * (outer + 1) / 2;

        let mut reference: Option<(i64, u64)> = None;
        for workers in [1usize, 2, 8] {
            let (graph, fetch) = nested_graph(outer, inner, parallel);
            let exec = executor_for(graph, workers);
            // Several runs per executor: reuse must not corrupt state.
            for _ in 0..3 {
                let out = exec.run(&HashMap::new(), &[fetch]).unwrap_or_else(|e| {
                    panic!("outer={outer} inner={inner} workers={workers}: {e}")
                });
                let got = out.values[0].scalar_as_i64().expect("i64 fetch");
                assert_eq!(
                    got, expected,
                    "outer={outer} inner={inner} parallel={parallel} workers={workers}"
                );
                match reference {
                    None => reference = Some((got, out.ops_executed)),
                    Some((v, ops)) => {
                        assert_eq!(got, v, "value diverged at workers={workers}");
                        assert_eq!(
                            out.ops_executed, ops,
                            "activation count diverged at workers={workers} \
                             (double-schedule or lost op)"
                        );
                    }
                }
            }
        }
    }
}

/// Many sessions sharing one `ResourceManager`, each run concurrently from
/// its own thread several times. Exercises the executor's run setup and
/// teardown under contention; a deadlock here hangs the test.
#[test]
fn concurrent_sessions_share_resources() {
    let resources = ResourceManager::new();
    let rounds = if cfg!(debug_assertions) { 3 } else { 10 };
    let sessions: Vec<(Session, TensorRef, i64)> = (0..4)
        .map(|k| {
            let outer = 3 + k as i64;
            let inner = 4;
            let (graph, fetch) = nested_graph(outer, inner, 8);
            let mut options = SessionOptions::functional();
            options.executor.workers = 4;
            let sess =
                Session::new_shared(graph, Cluster::single_cpu(), options, resources.clone())
                    .expect("session should build");
            (sess, fetch, inner * outer * (outer + 1) / 2)
        })
        .collect();

    std::thread::scope(|scope| {
        for (sess, fetch, expected) in &sessions {
            scope.spawn(move || {
                for _ in 0..rounds {
                    let out = sess
                        .eval(&HashMap::new(), std::slice::from_ref(fetch))
                        .expect("concurrent run should succeed");
                    assert_eq!(out[0].scalar_as_i64().expect("i64 fetch"), *expected);
                }
            });
        }
    });
}
