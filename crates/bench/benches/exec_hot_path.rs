//! Executor hot-path microbenchmarks.
//!
//! Run with `cargo bench -p dcf-bench --bench exec_hot_path`; writes
//! `BENCH_exec.json` into the current directory. These are the numbers the
//! executor-overhaul PR is judged against: op-throughput of a tight
//! in-graph `while_loop` at `workers` = 1/2/4/8, plus a nested-loop and a
//! wide (`parallel_iterations = 100`) variant. Throughput is derived from
//! the executor's exact `ops_executed` counter, not an estimate, so the
//! elem/s column is ops/s.
//!
//! Two further families judge the graph-optimization PR:
//! `elemwise_chain/opt_{off,on}` measures full `Session` steps over a deep
//! f32 elementwise chain with and without the optimization pipeline (the
//! opt-on session must report at least one fused kernel or the bench
//! aborts), and `pool_wakeup/workersN` isolates the worker pool's
//! Mutex+Condvar hand-off cost on a strictly sequential job chain —
//! the pure wake-up overhead that makes `tight_loop/workers8` slower
//! than `workers1` on few-core hosts.
//!
//! The `alloc_pressure/plan_{off,on}` family judges the static
//! memory-planning PR: full `Session` steps over a deep f32 matmul chain
//! on a GPU-profile device, where every kernel output opens an allocator
//! charge unplanned but the whole chain rides one region reservation
//! planned. The plan-on leg asserts the planner engaged (`aliased_slots
//! >= 1`) and that it strictly reduced allocator round-trips.
//!
//! Pass `--quick` for a CI smoke run: tiny sample counts, and the JSON
//! report is *not* rewritten (the committed `BENCH_exec.json` stays a
//! full-run artifact). The fused-kernel, planner-engaged, and
//! fewer-allocs assertions still fire.

use dcf_bench::microbench::Bench;
use dcf_device::{
    Device, DeviceCollector, DeviceId, DeviceProfile, StepStatsCollector, TraceLevel,
};
use dcf_exec::{
    ExecGraph, Executor, ExecutorOptions, InMemoryRendezvous, ResourceManager, RunConfig,
};
use dcf_graph::{GraphBuilder, TensorRef, WhileOptions};
use dcf_runtime::{Cluster, MemPlan, OptLevel, Session, SessionOptions};
use dcf_sync::{Condvar, Mutex};
use dcf_tensor::{DType, Tensor};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread;

/// Builds an executor for `b`'s graph with `workers` worker threads.
fn executor_for(b: GraphBuilder, workers: usize) -> Executor {
    let graph = Arc::new(b.finish().expect("graph should validate"));
    let eg = ExecGraph::local(graph);
    let device = Device::new(DeviceId(0), 0, DeviceProfile::cpu());
    Executor::new(
        eg,
        device,
        ResourceManager::new(),
        Arc::new(InMemoryRendezvous::new()),
        ExecutorOptions { workers, ..Default::default() },
    )
}

/// A tight counting loop: the minimal per-iteration executor workload
/// (LoopCond + Switch + Merge + NextIteration + one add per trip).
fn tight_loop(iterations: i64, parallel: usize) -> (GraphBuilder, Vec<TensorRef>) {
    let mut g = GraphBuilder::new();
    let i0 = g.scalar_i64(0);
    let lim = g.scalar_i64(iterations);
    let outs = g
        .while_loop(
            &[i0],
            |g, v| g.less(v[0], lim),
            |g, v| {
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?])
            },
            WhileOptions { parallel_iterations: parallel, ..Default::default() },
        )
        .expect("while_loop should build");
    (g, outs)
}

/// A triangular nested loop: outer loop runs `outer` trips, the inner loop
/// re-enters a fresh child frame each trip — stresses frame creation,
/// completion cascades, and loop-constant replay.
fn nested_loop(outer: i64, inner: i64) -> (GraphBuilder, Vec<TensorRef>) {
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
                let j0 = g.scalar_i64(0);
                let inner_outs = g.while_loop(
                    &[j0, v[1]],
                    |g, w| g.less(w[0], ilim),
                    |g, w| {
                        let one = g.scalar_i64(1);
                        Ok(vec![g.add(w[0], one)?, g.add(w[1], one)?])
                    },
                    WhileOptions::default(),
                )?;
                let one = g.scalar_i64(1);
                Ok(vec![g.add(v[0], one)?, inner_outs[1]])
            },
            WhileOptions::default(),
        )
        .expect("nested while_loop should build");
    (g, outs)
}

/// Measures one (executor, fetches) pair, reporting exact ops/s.
fn measure(b: &mut Bench, name: &str, exec: &Executor, fetches: &[TensorRef]) {
    let feeds = HashMap::new();
    // Probe once for the exact op count of a run; every run of the same
    // graph executes the same number of node activations.
    let ops = exec.run(&feeds, fetches).expect("bench graph should run").ops_executed;
    b.throughput_case(name, ops as f64, || {
        exec.run(&feeds, fetches).expect("bench graph should run");
    });
}

/// Like [`measure`] but with a fresh `TraceLevel::Full` collector per run,
/// quantifying the cost of step-stats collection on the hot path. The
/// untraced cases above run with `RunConfig::collector = None` (the
/// `TraceLevel::None` path) and are the regression baseline.
fn measure_traced(b: &mut Bench, name: &str, exec: &Executor, fetches: &[TensorRef]) {
    let feeds = Arc::new(HashMap::new());
    let traced_run = || {
        let collector = Arc::new(StepStatsCollector::new(TraceLevel::Full));
        collector.register_device("/bench/cpu:0");
        let config = RunConfig {
            collector: Some(DeviceCollector::new(0, collector.clone())),
            ..RunConfig::default()
        };
        let outcome =
            exec.run_with(feeds.clone(), fetches, config).expect("bench graph should run");
        // Merge the shards so the traced case pays the full collection cost.
        let stats = collector.finish();
        assert!(!stats.devices.is_empty());
        outcome
    };
    let ops = traced_run().ops_executed;
    b.throughput_case(name, ops as f64, || {
        traced_run();
    });
}

/// Builds a [`Session`] over a `depth`-round f32 elementwise chain
/// (`mul → add → relu` per round) — the optimizer's fusion target.
/// Returns the session and the chain's tail fetch.
fn elemwise_chain_session(depth: usize, opt: OptLevel) -> (Session, TensorRef) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", DType::F32);
    let scale = g.scalar_f32(1.01);
    let offset = g.scalar_f32(-0.005);
    let mut t = x;
    for _ in 0..depth {
        t = g.mul(t, scale).expect("mul should build");
        t = g.add(t, offset).expect("add should build");
        t = g.relu(t).expect("relu should build");
    }
    let graph = g.finish().expect("chain graph should validate");
    let sess = Session::new(
        graph,
        Cluster::single_cpu(),
        SessionOptions::functional().with_optimization(opt),
    )
    .expect("session should build");
    (sess, t)
}

/// Measures whole `Session` steps (feed → execute → fetch) of the
/// elementwise chain under `opt`, reporting chain rounds per second.
fn measure_chain(b: &mut Bench, name: &str, depth: usize, len: usize, opt: OptLevel) {
    let (sess, tail) = elemwise_chain_session(depth, opt);
    if opt != OptLevel::None {
        let stats = sess.optimize_stats().expect("opt-on session must report stats");
        assert!(
            stats.fused >= 1,
            "elemwise chain must produce at least one fused kernel, got {stats:?}"
        );
    }
    let mut feeds = HashMap::new();
    let data: Vec<f32> = (0..len).map(|i| (i as f32) / (len as f32) - 0.5).collect();
    feeds.insert("x".to_string(), Tensor::from_vec_f32(data, &[len]).expect("feed tensor"));
    let fetches = [tail];
    b.throughput_case(name, depth as f64, || {
        sess.eval(&feeds, &fetches).expect("bench step should run");
    });
}

/// Builds a [`Session`] over a `depth`-deep f32 matmul chain on a single
/// GPU-profile device (zero time scale: kernels are synchronous, so the
/// measurement isolates executor + allocator overhead, not modeled kernel
/// time). The placeholder root keeps the constant folder away and matmuls
/// are never fused, so unplanned every link opens its own memory charge —
/// the allocator-pressure workload the memory planner exists for.
fn alloc_pressure_session(depth: usize, plan: MemPlan) -> (Session, TensorRef) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder_shaped("x", DType::F32, &[8, 8]);
    // 1/8-filled weights keep chain values bounded at any depth.
    let w = g.constant(Tensor::from_vec_f32(vec![0.125; 64], &[8, 8]).expect("weight tensor"));
    let mut t = x;
    for _ in 0..depth {
        t = g.matmul(t, w).expect("matmul should build");
    }
    let graph = g.finish().expect("alloc-pressure graph should validate");
    let mut cluster = Cluster::new();
    cluster.add_device(0, DeviceProfile::gpu_k40().with_time_scale(0.0));
    let sess = Session::new(
        graph,
        cluster,
        SessionOptions::functional().with_optimization(OptLevel::Standard).with_memory_plan(plan),
    )
    .expect("session should build");
    (sess, t)
}

/// Measures whole `Session` steps of the matmul chain under `plan`,
/// reporting chain links per second. Returns the median step time and the
/// exact per-step allocator round-trip count.
fn measure_alloc_pressure(b: &mut Bench, name: &str, depth: usize, plan: MemPlan) -> (f64, u64) {
    let (sess, tail) = alloc_pressure_session(depth, plan);
    if plan == MemPlan::On {
        let stats = sess.optimize_stats().expect("plan-on session must report stats");
        assert!(
            stats.aliased_slots >= 1 && stats.planned_bytes > 0,
            "matmul chain must engage the memory planner, got {stats:?}"
        );
    }
    let mut feeds = HashMap::new();
    let data: Vec<f32> = (0..64).map(|i| (i as f32) / 64.0 - 0.5).collect();
    feeds.insert("x".to_string(), Tensor::from_vec_f32(data, &[8, 8]).expect("feed tensor"));
    let fetches = [tail];
    // Exact per-step allocator traffic, probed outside the timed loop;
    // every step of the same compiled graph allocates identically.
    let before = sess.cluster().devices()[0].allocator().total_allocs();
    sess.eval(&feeds, &fetches).expect("bench step should run");
    let per_step = sess.cluster().devices()[0].allocator().total_allocs() - before;
    let result = b.throughput_case(name, depth as f64, || {
        sess.eval(&feeds, &fetches).expect("bench step should run");
    });
    (result.median_ns, per_step)
}

/// A bench-local replica of the executor worker pool's channel (a
/// `Mutex<VecDeque>` + `Condvar`, see `crates/exec/src/pool.rs`): `workers`
/// threads block on the condvar, and the submitter pushes jobs one at a
/// time, waiting for each completion before the next push — the access
/// pattern of a sequential dependency chain, where at most one node is
/// ready at any instant. The measured cost is pure hand-off: futex wake,
/// context switch to whichever worker wins, and the completion signal
/// back. More parked workers mean more wake-up lottery and cache churn
/// with zero extra parallelism to show for it.
struct WakeupPool {
    queue: Arc<PoolShared>,
    threads: Vec<thread::JoinHandle<()>>,
}

struct PoolShared {
    jobs: Mutex<(VecDeque<u64>, bool)>,
    available: Condvar,
    done: Mutex<u64>,
    completed: Condvar,
}

impl WakeupPool {
    fn new(workers: usize) -> WakeupPool {
        let shared = Arc::new(PoolShared {
            jobs: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
            done: Mutex::new(0),
            completed: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|_| {
                let s = shared.clone();
                thread::spawn(move || loop {
                    let job = {
                        let mut guard = s.jobs.lock();
                        loop {
                            if let Some(j) = guard.0.pop_front() {
                                break j;
                            }
                            if guard.1 {
                                return;
                            }
                            s.available.wait(&mut guard);
                        }
                    };
                    let _ = job;
                    *s.done.lock() += 1;
                    s.completed.notify_all();
                })
            })
            .collect();
        WakeupPool { queue: shared, threads }
    }

    /// Submits `jobs` strictly sequentially: each push waits for the
    /// previous job's completion signal first.
    fn run_sequential(&self, jobs: u64) {
        let start = *self.queue.done.lock();
        for i in 0..jobs {
            {
                let mut guard = self.queue.jobs.lock();
                guard.0.push_back(i);
            }
            self.queue.available.notify_one();
            let mut done = self.queue.done.lock();
            while *done < start + i + 1 {
                self.queue.completed.wait(&mut done);
            }
        }
    }
}

impl Drop for WakeupPool {
    fn drop(&mut self) {
        {
            let mut guard = self.queue.jobs.lock();
            guard.1 = true;
        }
        self.queue.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut b = if quick {
        Bench::new().sample_size(3).warmup(1)
    } else {
        Bench::new().sample_size(15).warmup(3)
    };
    let wakeup_jobs: u64 = if quick { 200 } else { 2000 };
    let chain_depth = if quick { 16 } else { 64 };

    // Per-step session latency over a deep elementwise chain, optimization
    // off vs on: the headline for the graph-optimization PR. The opt-on
    // leg asserts the fused-kernel counter is live (CI smoke relies on
    // this), so a silent fusion regression fails the bench rather than
    // quietly converging the two numbers.
    for (name, opt) in
        [("elemwise_chain/opt_off", OptLevel::None), ("elemwise_chain/opt_on", OptLevel::Standard)]
    {
        measure_chain(&mut b, name, chain_depth, 1024, opt);
    }

    // Allocator pressure, memory plan off vs on: the headline for the
    // static memory-planning PR. The alloc-count comparison is exact and
    // asserted in both modes; the timing comparison is only asserted on
    // full runs, where the sample count makes the median trustworthy.
    let alloc_depth = if quick { 64 } else { 256 };
    let (median_off, allocs_off) =
        measure_alloc_pressure(&mut b, "alloc_pressure/plan_off", alloc_depth, MemPlan::Off);
    let (median_on, allocs_on) =
        measure_alloc_pressure(&mut b, "alloc_pressure/plan_on", alloc_depth, MemPlan::On);
    assert!(
        allocs_on < allocs_off,
        "memory plan must strictly reduce allocator round-trips: on={allocs_on} off={allocs_off}"
    );
    if !quick {
        assert!(
            median_on < median_off,
            "memory plan must not regress step latency: on={median_on}ns off={median_off}ns"
        );
    }

    // Pool wake-up overhead: a sequential job chain through the pool's
    // Mutex+Condvar channel at increasing worker counts. No real work per
    // job, so the slope across workers is pure scheduling overhead.
    for workers in [1usize, 2, 4, 8] {
        let pool = WakeupPool::new(workers);
        b.throughput_case(&format!("pool_wakeup/workers{workers}"), wakeup_jobs as f64, || {
            pool.run_sequential(wakeup_jobs);
        });
    }

    if quick {
        // Smoke mode: the remaining families are full-run only, and the
        // committed JSON artifact is left untouched.
        println!("--quick: skipping full families and JSON report");
        return;
    }

    // Tight loop, 1000 trips, default window: the worker-scaling headline.
    for workers in [1usize, 2, 4, 8] {
        let (g, outs) = tight_loop(1000, 32);
        let exec = executor_for(g, workers);
        measure(&mut b, &format!("tight_loop/workers{workers}"), &exec, &outs);
    }

    // Wide window: 100 iterations all eligible to run concurrently.
    for workers in [1usize, 4] {
        let (g, outs) = tight_loop(100, 100);
        let exec = executor_for(g, workers);
        measure(&mut b, &format!("parallel100/workers{workers}"), &exec, &outs);
    }

    // Nested loops: frame churn (30 inner frames of 30 trips each).
    for workers in [1usize, 4] {
        let (g, outs) = nested_loop(30, 30);
        let exec = executor_for(g, workers);
        measure(&mut b, &format!("nested_loop/workers{workers}"), &exec, &outs);
    }

    // Tracing on: the same tight loop under a TraceLevel::Full collector,
    // for the observability-overhead entry in EXPERIMENTS.md.
    for workers in [1usize, 4] {
        let (g, outs) = tight_loop(1000, 32);
        let exec = executor_for(g, workers);
        measure_traced(&mut b, &format!("tight_loop_traced/workers{workers}"), &exec, &outs);
    }

    // Write to the workspace root regardless of cargo's bench cwd.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    b.write_json(path).expect("failed to write BENCH_exec.json");
}
