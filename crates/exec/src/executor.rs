//! The tagged-token executor: evaluation rules of Figure 5, frame and
//! iteration management, deadness propagation, asynchronous kernels, and
//! memory swapping.
//!
//! # Concurrency structure
//!
//! Run state is sharded per frame: every dynamic frame owns a mutex over
//! its iteration bookkeeping ([`crate::frame::FrameCore`]), so workers
//! advancing different loops (or communicating ops in different frames)
//! never contend. A short-held frame-table lock arbitrates frame
//! creation, and fetched values live behind their own leaf mutex. Worker
//! threads are created once per [`Executor`] and reused across runs via
//! the persistent [`WorkerPool`]. The locking discipline (what may be
//! held when, and why the completion cascade is deadlock-free) is
//! documented in `DESIGN.md`.
//!
//! # Activation hand-off
//!
//! A worker that makes successors ready runs the first one that belongs to
//! its own pool itself, right after the current activation (TensorFlow's
//! `inline_ready`), and queues the rest for idle workers. Work made ready
//! on any other thread — a device stream completion, a `Recv` callback
//! fired on a peer executor's worker, the session thread seeding the
//! sources — always goes through this executor's queue. Together with
//! the pool's wake-free channel, a chain of activations on a busy
//! executor costs no system call.
//!
//! The activation path builds no text and, for ops with at most four
//! inputs, allocates no buffer: input slots and outputs live inline
//! ([`InlineVec`]), rendezvous keys are integers ([`RendezvousKey`]), and
//! readable names are rendered only for traces, errors and fault rolls.

use crate::exec_graph::{ExecGraph, FrameNameId};
use crate::frame::{DeferredToken, Frame, FrameCore, FrameId, NodeInstance, Slots, ROOT_FRAME};
use crate::inline::InlineVec;
use crate::kernels::{execute_op, is_compute_op, op_cost, should_charge};
use crate::pool::{current_pool, PoolMsg, Sender, WorkerPool};
use crate::rendezvous::{Rendezvous, RendezvousKey};
use crate::resources::{ResourceManager, SlotEntry, StackRes, StackSlot};
use crate::token::{Charge, ExecError, Token};
use crate::Result;
use dcf_device::{
    Device, DeviceCollector, FrameStats, Kernel, NodeStats, RendezvousKind, RendezvousWait,
    StreamKind, TraceLevel,
};
use dcf_graph::{NodeId, OpKind, TensorRef};
use dcf_sync::{Condvar, Mutex};
use dcf_tensor::{Tensor, TensorRng};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

/// An activation's output tokens, one per output port; inline for up to
/// four outputs.
type Outputs = InlineVec<Token, 4>;

thread_local! {
    /// The successor this worker runs next, ahead of the shared queue.
    /// Only ever holds a job of the worker's own pool.
    static INLINE_JOB: RefCell<Option<Job>> = const { RefCell::new(None) };
}

/// Debug tracing, enabled with `DCF_TRACE=exec,deliver,stack` (cached so
/// the per-op cost is one relaxed load).
fn trace_enabled(kind: &str) -> bool {
    static FLAGS: OnceLock<(bool, bool, bool)> = OnceLock::new();
    let (exec, deliver, stack) = FLAGS.get_or_init(|| {
        let v = std::env::var("DCF_TRACE").unwrap_or_default();
        (v.contains("exec"), v.contains("deliver"), v.contains("stack"))
    });
    match kind {
        "exec" => *exec,
        "deliver" => *deliver,
        _ => *stack,
    }
}

/// Tunables of one executor.
#[derive(Clone, Debug)]
pub struct ExecutorOptions {
    /// Worker threads processing ready operations. The stream threads of the
    /// device add further concurrency; two workers suffice for most graphs.
    pub workers: usize,
    /// Memory-pressure fraction above which eligible stack pushes swap their
    /// payload to host memory (§5.3 "predefined threshold").
    pub swap_threshold: f64,
    /// Minimum modeled tensor size for swapping (§5.3 "we do not swap small
    /// tensors").
    pub min_swap_bytes: usize,
    /// How long an allocation on a full device waits for in-flight
    /// deallocations (swap-out copies, consumers releasing buffers) before
    /// reporting OOM — allocator-level backpressure, so a scheduler that
    /// outruns the modeled copy streams does not turn a transient
    /// high-water mark into a spurious OOM.
    pub oom_patience: std::time::Duration,
    /// Base seed for stateful random ops.
    pub seed: u64,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            workers: 2,
            swap_threshold: 0.9,
            min_swap_bytes: 64 << 10,
            oom_patience: std::time::Duration::from_secs(2),
            seed: 0x5eed,
        }
    }
}

/// Per-run execution settings beyond feeds and fetches: cancellation
/// wiring, an optional step-stats collector handle, and an optional
/// deadline. Constructed by the session from its `RunOptions`.
pub struct RunConfig {
    /// Shared cancellation token aborting this run when a peer partition
    /// fails (and firing when this one does).
    pub cancel: Option<Arc<crate::token::CancelToken>>,
    /// Step-stats collector handle for this executor's device. When set,
    /// every node activation, frame completion, and rendezvous wait is
    /// recorded; when `None` the executor pays one pointer check per node.
    pub collector: Option<DeviceCollector>,
    /// Wall-clock budget for the run. On expiry the run fails with
    /// [`ExecError::DeadlineExceeded`] (and fires `cancel`, aborting peer
    /// partitions); in-flight activations drain as no-ops.
    pub timeout: Option<std::time::Duration>,
    /// Step id scoping this run's rendezvous entries; all partitions of a
    /// session run share one id, and the session reclaims the step's
    /// entries when the run finishes or aborts. Defaults to step 0 for
    /// standalone executor runs.
    pub step: crate::rendezvous::StepId,
    /// Maximum frame nesting depth (loops and function calls combined).
    /// Pushing a frame beyond this fails the run with
    /// [`ExecError::FrameDepthExceeded`] — the structured outcome of
    /// runaway recursion.
    pub max_frame_depth: usize,
}

/// Default frame-depth limit: deep enough for any reasonable loop nest or
/// recursion, small enough to fail fast on unbounded recursion.
pub const DEFAULT_MAX_FRAME_DEPTH: usize = 256;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cancel: None,
            collector: None,
            timeout: None,
            step: Default::default(),
            max_frame_depth: DEFAULT_MAX_FRAME_DEPTH,
        }
    }
}

/// Result of a run: the fetched tensors, in request order.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Fetched values.
    pub values: Vec<Tensor>,
    /// Number of node activations the run executed (live or dead),
    /// including asynchronous kernel completions. Used by benchmarks to
    /// derive exact op-throughput.
    pub ops_executed: u64,
}

/// A per-device dataflow executor.
///
/// Executes its subgraph against one simulated device, communicating with
/// peer executors (if any) through the shared rendezvous. Worker threads
/// are spawned once here and shared by all subsequent runs (concurrent
/// runs are allowed; jobs carry their run's state). See the crate docs
/// for the execution model.
pub struct Executor {
    eg: Arc<ExecGraph>,
    device: Arc<Device>,
    resources: Arc<ResourceManager>,
    rendezvous: Arc<dyn Rendezvous>,
    options: ExecutorOptions,
    pool: WorkerPool<Job>,
}

/// One schedulable node activation, self-contained so the persistent pool
/// can serve many runs at once.
struct Job {
    shared: Arc<RunShared>,
    frame: Arc<Frame>,
    iter: usize,
    node: NodeId,
    /// Collector timestamp at scheduling time (0 when not tracing);
    /// reported as the node's `scheduled_us`.
    sched_us: u64,
}

impl Job {
    fn run(self) {
        let Job { shared, frame, iter, node, sched_us } = self;
        shared.execute_node(&frame, iter, node, sched_us);
    }
}

/// Renders a transfer's readable rendezvous key on demand:
/// `{key_base}|{frame path};{iter}`, e.g.
/// `m0>m1/d0>d1/t12p0|root;0/while_4;3`.
struct TransferName<'a> {
    key_base: &'a str,
    frame: &'a Frame,
    iter: usize,
}

impl fmt::Display for TransferName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}|{}", self.key_base, self.frame.tag_text(self.iter))
    }
}

/// Calls `f` with the values of `tokens` — every slot filled — as one
/// slice, without allocating for up to four inputs.
fn with_values<R>(tokens: &mut Slots, f: impl FnOnce(&[&Tensor]) -> R) -> R {
    match tokens.slots_mut() {
        [] => f(&[]),
        [Some(a)] => f(&[&a.value]),
        [Some(a), Some(b)] => f(&[&a.value, &b.value]),
        [Some(a), Some(b), Some(c)] => f(&[&a.value, &b.value, &c.value]),
        [Some(a), Some(b), Some(c), Some(d)] => f(&[&a.value, &b.value, &c.value, &d.value]),
        slots => {
            let values: Vec<&Tensor> = slots.iter().flatten().map(|t| &t.value).collect();
            f(&values)
        }
    }
}

/// Frame registry: maps (parent frame, parent iteration, frame name) to
/// the live child activation. Held briefly, only on frame creation and
/// completion — never while delivering tokens.
struct FrameTable {
    index: HashMap<(FrameId, usize, FrameNameId), Arc<Frame>>,
    next: FrameId,
}

struct RunShared {
    eg: Arc<ExecGraph>,
    device: Arc<Device>,
    resources: Arc<ResourceManager>,
    rendezvous: Arc<dyn Rendezvous>,
    options: ExecutorOptions,
    feeds: Arc<HashMap<String, Tensor>>,
    fetch_set: HashSet<(usize, usize)>,
    table: Mutex<FrameTable>,
    fetched: Mutex<HashMap<(usize, usize), Token>>,
    queue_tx: Sender<PoolMsg<Job>>,
    /// Id of the executor's worker pool: a job may run inline only on a
    /// worker of this pool.
    pool_id: usize,
    outstanding: AtomicI64,
    ops: AtomicU64,
    done: Mutex<Option<Result<()>>>,
    done_cv: Condvar,
    /// Set (before `done`) when the run fails; read lock-free on every
    /// activation.
    failed: AtomicBool,
    /// Rendezvous calls in progress. A failed run waits for zero before
    /// returning, so no Send or Recv of this step reaches the rendezvous
    /// after the session tears the step down.
    rendezvous_calls: AtomicUsize,
    cancel: Option<Arc<crate::token::CancelToken>>,
    /// Lock-free mirror of `cancel` threaded into device kernel
    /// submissions, so stream threads can cut modeled waits short the
    /// moment the run aborts.
    cancel_flag: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Rendezvous scope of this run; see [`RunConfig::step`].
    step: crate::rendezvous::StepId,
    /// The run's up-front static-memory-plan reservation: one `Charge`
    /// covering every planned output (see [`crate::MemoryPlan`]). Planned
    /// tokens carry clones of this Arc instead of fresh charges, so the
    /// whole region costs one allocator round-trip per run. `None` when
    /// the partition has no plan or the device could not grant the region.
    region_charge: Option<Arc<Charge>>,
    /// Per-run step-stats handle; `None` keeps the hot path at a single
    /// `Option` check per activation.
    collector: Option<DeviceCollector>,
    /// Frame-depth limit for this run; see [`RunConfig::max_frame_depth`].
    max_frame_depth: usize,
}

impl Executor {
    /// Creates an executor for `eg` on `device`, spawning its worker pool.
    pub fn new(
        eg: Arc<ExecGraph>,
        device: Arc<Device>,
        resources: Arc<ResourceManager>,
        rendezvous: Arc<dyn Rendezvous>,
        options: ExecutorOptions,
    ) -> Executor {
        let pool = WorkerPool::new("dcf-exec", options.workers, |job: Job| {
            let mut next = Some(job);
            while let Some(job) = next {
                job.run();
                next = INLINE_JOB.with(|slot| slot.borrow_mut().take());
                debug_assert!(
                    next.as_ref().is_none_or(|j| j.shared.pool_id == current_pool()),
                    "inline job of a foreign pool"
                );
            }
        });
        Executor { eg, device, resources, rendezvous, options, pool }
    }

    /// Runs the subgraph: feeds placeholder values, executes until
    /// quiescent, and returns the fetched tensors.
    ///
    /// Fetches must refer to tensors produced in the root context.
    pub fn run(
        &self,
        feeds: &HashMap<String, Tensor>,
        fetches: &[TensorRef],
    ) -> Result<RunOutcome> {
        self.run_cancellable(Arc::new(feeds.clone()), fetches, None)
    }

    /// Like [`Executor::run`], taking the feed dictionary by `Arc` (shared
    /// across partitions without copying) and additionally aborting (with
    /// the peer's error) if `cancel` fires — used by the session to stop
    /// all partitions when one fails.
    pub fn run_cancellable(
        &self,
        feeds: Arc<HashMap<String, Tensor>>,
        fetches: &[TensorRef],
        cancel: Option<Arc<crate::token::CancelToken>>,
    ) -> Result<RunOutcome> {
        self.run_with(feeds, fetches, RunConfig { cancel, ..RunConfig::default() })
    }

    /// The full-control run entry point: feeds by `Arc`, plus a
    /// [`RunConfig`] carrying cancellation, step-stats collection, and an
    /// optional deadline. All other run methods are wrappers around this;
    /// it is [`Executor::start`] followed by [`RunHandle::wait`].
    pub fn run_with(
        &self,
        feeds: Arc<HashMap<String, Tensor>>,
        fetches: &[TensorRef],
        config: RunConfig,
    ) -> Result<RunOutcome> {
        self.start(feeds, fetches, config).wait()
    }

    /// Starts a run without blocking: seeds the sources on the worker pool
    /// and returns a handle to wait on. A caller driving several
    /// partitions starts them all from one thread and then waits for each,
    /// so a step needs no thread of its own per partition.
    pub fn start(
        &self,
        feeds: Arc<HashMap<String, Tensor>>,
        fetches: &[TensorRef],
        config: RunConfig,
    ) -> RunHandle {
        let RunConfig { cancel, collector, timeout, step, max_frame_depth } = config;
        let fetch_set: HashSet<(usize, usize)> =
            fetches.iter().map(|t| (t.node.0, t.port)).collect();
        // Acquire the static memory plan's region reservation before any
        // node runs: planned outputs share this one charge for the whole
        // run, so a planned step pays exactly one allocator round-trip. A
        // region the device cannot grant right now leaves the step on
        // per-token charges, as an empty plan would: those are charged as
        // values are born and refunded as they die, so they need less.
        let region_charge = match self.eg.plan.region_bytes() {
            0 => None,
            bytes => Charge::new(self.device.allocator(), bytes).ok(),
        };
        let root = Frame::root();
        let shared = Arc::new(RunShared {
            eg: self.eg.clone(),
            device: self.device.clone(),
            resources: self.resources.clone(),
            rendezvous: self.rendezvous.clone(),
            options: self.options.clone(),
            feeds,
            fetch_set,
            table: Mutex::new(FrameTable { index: HashMap::new(), next: ROOT_FRAME + 1 }),
            fetched: Mutex::new(HashMap::new()),
            queue_tx: self.pool.sender(),
            pool_id: self.pool.id(),
            outstanding: AtomicI64::new(0),
            ops: AtomicU64::new(0),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
            failed: AtomicBool::new(false),
            rendezvous_calls: AtomicUsize::new(0),
            cancel_flag: cancel.as_ref().map(|t| t.flag()),
            cancel: cancel.clone(),
            step,
            region_charge,
            collector,
            max_frame_depth,
        });
        if let Some(token) = &cancel {
            // Abort this run if any peer partition fails.
            let weak = Arc::downgrade(&shared);
            token.subscribe(Box::new(move |err| {
                if let Some(sh) = weak.upgrade() {
                    sh.complete(Err(err));
                }
            }));
        }

        // The deadline runs from the start of the run.
        let deadline = timeout.map(|t| (t, std::time::Instant::now() + t));
        // Initialize the partition's variables before any node runs: an
        // update (AssignAdd, AssignSub) need not depend on a read of its
        // variable, and a worker running a chain of ready successors can
        // reach it before the variable's own source.
        for src in &self.eg.sources {
            if let OpKind::Variable { name, init } = &self.eg.graph.node(*src).op {
                self.resources.variable_read(name, init);
            }
        }
        // Seed the root sources; the persistent pool starts draining
        // immediately.
        {
            let mut core = root.core.lock();
            for src in &shared.eg.sources {
                shared.schedule(&root, &mut core, 0, *src);
            }
        }
        if shared.outstanding.load(Ordering::SeqCst) == 0 {
            shared.complete(Ok(()));
        }
        RunHandle { shared, root, fetches: fetches.to_vec(), deadline }
    }
}

/// A started run; see [`Executor::start`].
pub struct RunHandle {
    shared: Arc<RunShared>,
    root: Arc<Frame>,
    fetches: Vec<TensorRef>,
    deadline: Option<(std::time::Duration, std::time::Instant)>,
}

impl RunHandle {
    /// Blocks until the run completes, fails, or passes its deadline, and
    /// returns the fetched tensors in request order.
    pub fn wait(self) -> Result<RunOutcome> {
        let RunHandle { shared, root, fetches, deadline } = self;
        // Wait for completion, enforcing the deadline if one was given.
        let result = {
            let mut done = shared.done.lock();
            while done.is_none() {
                match deadline {
                    None => shared.done_cv.wait(&mut done),
                    Some((budget, dl)) => {
                        let timed_out = shared.done_cv.wait_until(&mut done, dl);
                        if timed_out && done.is_none() {
                            // `fail` takes the done lock itself; release
                            // first. In-flight activations observe the
                            // failure and drain as no-ops.
                            drop(done);
                            shared.fail(ExecError::DeadlineExceeded {
                                waited: budget,
                                past_deadline: std::time::Duration::ZERO,
                            });
                            done = shared.done.lock();
                        }
                    }
                }
            }
            // The loop above only exits with `done` set; if that invariant
            // ever breaks, surface a structured error rather than panic
            // (this path runs under cancellation).
            done.clone().unwrap_or_else(|| {
                Err(ExecError::Internal("run signalled done without a result".into()))
            })
        };

        if result.is_err() {
            // Activations of a failed run drain as no-ops, but one may be
            // inside a Send or Recv that passed its failure check: let it
            // leave the rendezvous before the caller tears the step down.
            while shared.rendezvous_calls.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }

        // The root frame never "completes" through the window logic, so
        // its stats are recorded here, after quiescence (or failure).
        if let Some(dc) = &shared.collector {
            let core = root.core.lock();
            dc.frame(FrameStats {
                frame: root.path().to_string(),
                iterations: core.started as u64,
                dead_tokens: core.dead_tokens,
            });
        }
        result?;

        // Collect fetches.
        let fetched = shared.fetched.lock();
        let mut values = Vec::with_capacity(fetches.len());
        for t in &fetches {
            match fetched.get(&(t.node.0, t.port)) {
                Some(tok) if !tok.is_dead => values.push(tok.value.clone()),
                Some(_) => {
                    return Err(ExecError::DeadFetch(shared.eg.graph.node(t.node).name.clone()))
                }
                None => {
                    return Err(ExecError::BadFeedOrFetch(format!(
                        "fetch {} was never produced (is it in the root context?)",
                        shared.eg.graph.node(t.node).name
                    )))
                }
            }
        }
        Ok(RunOutcome { values, ops_executed: shared.ops.load(Ordering::Relaxed) })
    }
}

impl RunShared {
    // ------------------------------------------------------------------
    // Scheduling and bookkeeping (per-frame lock held by the caller)
    // ------------------------------------------------------------------

    fn schedule(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        node: NodeId,
    ) {
        debug_assert!(!core.done, "schedule into completed frame {}", frame.id);
        let inst = self.instance(core, i, node);
        debug_assert!(!inst.scheduled, "double schedule of {:?}", node);
        inst.scheduled = true;
        if let Some(it) = core.iterations.get_mut(&i) {
            it.outstanding_ops += 1;
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let sched_us = self.collector.as_ref().map(|dc| dc.now_us()).unwrap_or(0);
        let job = Job { shared: self.clone(), frame: frame.clone(), iter: i, node, sched_us };
        // On a worker of this executor's own pool, keep the first ready
        // successor for this worker to run next; everything else goes to
        // the shared queue, where idle workers pick it up.
        let job = if current_pool() == self.pool_id {
            INLINE_JOB.with(|slot| {
                let mut slot = slot.borrow_mut();
                if slot.is_none() {
                    *slot = Some(job);
                    None
                } else {
                    Some(job)
                }
            })
        } else {
            Some(job)
        };
        if let Some(job) = job {
            let _ = self.queue_tx.send(PoolMsg::Job(job));
        }
    }

    fn instance<'a>(
        &self,
        core: &'a mut FrameCore,
        i: usize,
        node: NodeId,
    ) -> &'a mut NodeInstance {
        let slots = self.eg.total_input_slots(node);
        let pending_data = self.eg.num_data_inputs(node);
        let pending_control = self.eg.num_control_inputs(node);
        let it = core.iterations.entry(i).or_default();
        it.nodes
            .entry(node.0)
            .or_insert_with(|| NodeInstance::new(slots, pending_data, pending_control))
    }

    fn ensure_iteration(self: &Arc<Self>, frame: &Arc<Frame>, core: &mut FrameCore, i: usize) {
        if core.iterations.contains_key(&i) {
            return;
        }
        debug_assert!(!core.done, "new iteration in completed frame {}", frame.id);
        core.start_iteration(i);
        // Replay loop constants into the new iteration, cloning one token
        // at a time (delivery needs the core mutably).
        for k in 0..core.constants.len() {
            let (enter_node, token) = core.constants[k].clone();
            self.deliver_to_consumers(frame, core, i, enter_node, 0, token);
        }
    }

    fn deliver_to_consumers(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        node: NodeId,
        port: usize,
        token: Token,
    ) {
        // Record fetches first (root context only) — a fetched output may
        // have no consumers at all.
        if frame.id == ROOT_FRAME && self.fetch_set.contains(&(node.0, port)) {
            self.fetched.lock().insert((node.0, port), token.clone());
        }
        let consumers = self.eg.consumers(TensorRef { node, port });
        if consumers.is_empty() {
            return;
        }
        // Tensor buffers and memory charges are refcounted, so cloning per
        // consumer is cheap and keeps lifetimes exact; the final consumer
        // takes the token by move.
        let last = consumers.len() - 1;
        for &(dst, slot) in &consumers[..last] {
            self.deliver(frame, core, i, dst, slot as usize, token.clone());
        }
        let (dst, slot) = consumers[last];
        self.deliver(frame, core, i, dst, slot as usize, token);
    }

    fn deliver(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        dst: NodeId,
        slot: usize,
        token: Token,
    ) {
        if trace_enabled("deliver") {
            eprintln!(
                "DELIVER -> {} slot {} (frame {} iter {}) dead={}",
                self.eg.graph.node(dst).name,
                slot,
                frame.id,
                i,
                token.is_dead
            );
        }
        self.ensure_iteration(frame, core, i);
        let is_merge = self.eg.is_merge(dst);
        let is_loop_merge = self.eg.is_loop_merge[dst.0];
        let n_inputs = self.eg.num_data_inputs(dst);
        let inst = self.instance(core, i, dst);
        if is_merge {
            inst.merge_arrivals += 1;
            if token.is_dead {
                inst.merge_dead += 1;
            }
            if inst.scheduled {
                return; // Late arrival on an already-fired merge.
            }
            let fire = if is_loop_merge {
                // A loop merge receives exactly one token per iteration
                // (Enter at 0, NextIteration later); fire on it, live or
                // dead.
                inst.data.slots_mut()[0] = Some(token);
                true
            } else if !token.is_dead {
                inst.data.slots_mut()[0] = Some(token);
                true
            } else if inst.merge_dead == n_inputs {
                inst.any_dead = true;
                inst.data.slots_mut()[0] = Some(token);
                true
            } else {
                false
            };
            if fire && inst.pending_control == 0 {
                self.schedule(frame, core, i, dst);
            } else if fire {
                // Remember readiness; fires when controls drain.
                inst.pending_data = 0;
            }
            return;
        }
        if inst.scheduled || inst.data.slots_mut().get(slot).is_some_and(|s| s.is_some()) {
            self.fail(ExecError::Internal(format!(
                "double delivery to {} slot {slot} (frame {}, iter {i})",
                self.eg.graph.node(dst).name,
                frame.id
            )));
            return;
        }
        inst.any_dead |= token.is_dead;
        inst.data.slots_mut()[slot] = Some(token);
        inst.pending_data -= 1;
        if inst.pending_data == 0 && inst.pending_control == 0 {
            self.schedule(frame, core, i, dst);
        }
    }

    fn deliver_control(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        dst: NodeId,
        dead: bool,
    ) {
        self.ensure_iteration(frame, core, i);
        let inst = self.instance(core, i, dst);
        if inst.scheduled {
            return;
        }
        inst.any_dead |= dead;
        inst.pending_control = inst.pending_control.saturating_sub(1);
        if inst.pending_control == 0 && inst.pending_data == 0 {
            // For merges, pending_data reaching 0 means the fire condition
            // was met earlier.
            self.schedule(frame, core, i, dst);
        }
    }

    fn fail(&self, err: ExecError) {
        if let Some(token) = &self.cancel {
            token.fire(err.clone());
        }
        self.complete(Err(err));
    }

    fn complete(&self, result: Result<()>) {
        let mut done = self.done.lock();
        if done.is_none() {
            if result.is_err() {
                self.failed.store(true, Ordering::SeqCst);
            }
            *done = Some(result);
            self.done_cv.notify_all();
        }
    }

    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Runs `call` — one Send or Recv into the rendezvous — unless the run
    /// has failed; returns whether it ran. The in-progress count lets a
    /// failed run wait until no call of its step is still inside the
    /// rendezvous (see [`Executor::run_with`]): either `call` sees the
    /// failure flag, or the waiter sees the count.
    fn rendezvous_call(&self, call: impl FnOnce()) -> bool {
        self.rendezvous_calls.fetch_add(1, Ordering::SeqCst);
        let live = !self.is_failed();
        if live {
            call();
        }
        self.rendezvous_calls.fetch_sub(1, Ordering::SeqCst);
        live
    }

    /// The rendezvous key of a Send or Recv activation.
    fn rendezvous_key(&self, node: NodeId, frame: &Frame, i: usize) -> RendezvousKey {
        let edge = self.eg.edge_key(node).expect("member Send/Recv nodes have edge keys");
        RendezvousKey { edge, tag: frame.tag(i) }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn execute_node(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        sched_us: u64,
    ) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        if self.is_failed() {
            self.finish_noop(frame, i);
            return;
        }
        match &self.collector {
            None => {
                self.execute_node_inner(frame, i, node_id);
            }
            Some(dc) => {
                // An extra `outstanding` guard keeps the run (and thus the
                // session's `collector.finish()`) from completing between
                // the op's own completion inside `execute_node_inner` and
                // the stats record below — without it the final node's
                // record can land in an already-drained shard.
                self.outstanding.fetch_add(1, Ordering::SeqCst);
                let start_us = dc.now_us();
                let was_dead = self.execute_node_inner(frame, i, node_id);
                // For asynchronous ops (stream kernels, Recv, swap-in) this
                // span covers dispatch only; the device's kernel track shows
                // the modeled execution. A kernel run inline appears in
                // both.
                dc.node(NodeStats {
                    node: self.eg.graph.node(node_id).name.clone(),
                    frame: frame.path().to_string(),
                    iter: i as u64,
                    worker: 0, // filled in by the collector from the thread ordinal
                    scheduled_us: sched_us,
                    start_us,
                    end_us: dc.now_us(),
                    is_dead: was_dead,
                });
                if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.complete(Ok(()));
                }
            }
        }
    }

    /// Dispatches one activation; returns `true` when it took the dead
    /// path (dispatch-side deadness, for stats only — completion-side
    /// deadness is what `tail_locked` counts into the frame).
    fn execute_node_inner(self: &Arc<Self>, frame: &Arc<Frame>, i: usize, node_id: NodeId) -> bool {
        let node = self.eg.graph.node(node_id);
        // Extract the input tokens under the frame's lock. The tag is
        // derived lock-free from immutable frame metadata, and only by the
        // few ops that need one (random, Send, Recv).
        let (tokens, any_dead) = {
            let mut core = frame.core.lock();
            let inst = self.instance(&mut core, i, node_id);
            (inst.data.take(), inst.any_dead)
        };

        if trace_enabled("exec") {
            eprintln!("EXEC {} ({}) dead={}", node.name, frame.tag_text(i), any_dead);
        }
        let is_merge = matches!(node.op, OpKind::Merge);
        if any_dead && !is_merge {
            self.execute_dead(frame, i, node_id);
            return true;
        }
        match self.execute_live(frame, i, node_id, tokens) {
            Ok(Some(outputs)) => self.finish_op(frame, i, node_id, outputs, false),
            Ok(None) => {} // Asynchronous; a callback completes the op.
            Err(e) => self.fail(e),
        }
        false
    }

    /// Handles a dead activation: skip the computation and propagate a dead
    /// signal downstream (§4.3), including across devices via Send.
    fn execute_dead(self: &Arc<Self>, frame: &Arc<Frame>, i: usize, node_id: NodeId) {
        let node = self.eg.graph.node(node_id);
        if let OpKind::Send { key_base, .. } = &node.op {
            // Propagate is_dead across devices (§4.4).
            self.send_timed(node_id, key_base, frame, i, Token::dead());
            self.finish_op(frame, i, node_id, Outputs::new(), true);
            return;
        }
        let outputs = (0..node.op.num_outputs()).map(|_| Token::dead()).collect();
        self.finish_op(frame, i, node_id, outputs, true);
    }

    /// Executes a live activation. Returns `Ok(None)` when completion is
    /// asynchronous (device kernel, Recv, swap-in).
    fn execute_live(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        mut tokens: Slots,
    ) -> Result<Option<Outputs>> {
        let node = self.eg.graph.node(node_id);
        let take =
            |tokens: &mut Slots, idx: usize| -> Result<Token> {
                tokens.slots_mut().get_mut(idx).and_then(|s| s.take()).ok_or_else(|| {
                    ExecError::Internal(format!("missing input {idx} of {}", node.name))
                })
            };
        let kerr = |detail: String| ExecError::Kernel { node: node.name.clone(), detail };

        match &node.op {
            // ---------------- Sources ----------------
            OpKind::Const(t) => Ok(Some(Outputs::one(self.materialize(t.clone())?))),
            OpKind::Placeholder { name, .. } => match self.feeds.get(name) {
                Some(t) => Ok(Some(Outputs::one(self.materialize(t.clone())?))),
                None => Err(ExecError::BadFeedOrFetch(format!("placeholder {name} was not fed"))),
            },
            OpKind::Variable { name, init } => {
                Ok(Some(Outputs::one(Token::live(self.resources.variable_read(name, init)))))
            }
            OpKind::RandomUniform { dims, lo, hi, seed } => {
                // Seeded by the readable tag text, so a stream does not
                // depend on the tag's in-memory form.
                let mut h = DefaultHasher::new();
                (frame.tag_text(i).to_string().as_str(), seed, self.options.seed).hash(&mut h);
                let mut rng = TensorRng::new(h.finish());
                Ok(Some(Outputs::one(Token::live(rng.uniform(dims, *lo, *hi)))))
            }

            // ---------------- Control flow ----------------
            OpKind::Switch => {
                let data = take(&mut tokens, 0)?;
                let pred = take(&mut tokens, 1)?;
                let p = pred.value.scalar_as_bool().map_err(|e| kerr(e.to_string()))?;
                // Port 0 = false side, port 1 = true side (Figure 5).
                let f_out = if p {
                    Token::dead()
                } else {
                    Token { value: data.value.clone(), is_dead: false, charge: data.charge.clone() }
                };
                let t_out = if p {
                    Token { value: data.value.clone(), is_dead: false, charge: data.charge.clone() }
                } else {
                    Token::dead()
                };
                Ok(Some([f_out, t_out].into_iter().collect()))
            }
            OpKind::Merge => {
                let chosen = tokens.into_iter().next().ok_or_else(|| {
                    ExecError::Internal(format!("merge {} fired empty", node.name))
                })?;
                Ok(Some(Outputs::one(chosen)))
            }
            OpKind::Enter { .. }
            | OpKind::Exit
            | OpKind::NextIteration
            | OpKind::LoopCond
            | OpKind::Identity
            | OpKind::FunctionParam { .. }
            | OpKind::FunctionRet { .. } => {
                let t = take(&mut tokens, 0)?;
                Ok(Some(Outputs::one(t)))
            }
            OpKind::Call { .. } => {
                // The argument tokens pass straight through to completion,
                // where `finish_call` injects them into a fresh call frame.
                if tokens.slots_mut().iter().any(Option::is_none) {
                    return Err(ExecError::Internal(format!(
                        "missing call argument of {}",
                        node.name
                    )));
                }
                Ok(Some(tokens))
            }

            // ---------------- Communication ----------------
            OpKind::Send { key_base, .. } => {
                let t = take(&mut tokens, 0)?;
                self.send_timed(node_id, key_base, frame, i, t);
                Ok(Some(Outputs::new()))
            }
            OpKind::Recv { key_base, .. } => {
                let key = self.rendezvous_key(node_id, frame, i);
                let sh = self.clone();
                let fr = frame.clone();
                // When tracing, time from recv issue to value arrival.
                let issued = self.collector.as_ref().map(|dc| {
                    let name = TransferName { key_base, frame, iter: i }.to_string();
                    (dc.clone(), dc.now_us(), name)
                });
                let callback: crate::RecvCallback = Box::new(move |result| {
                    if let Some((dc, t0, key)) = issued {
                        dc.rendezvous(RendezvousWait {
                            key,
                            kind: RendezvousKind::Recv,
                            start_us: t0,
                            wait_us: dc.now_us().saturating_sub(t0),
                        });
                    }
                    match result {
                        Ok(token) => {
                            let dead = token.is_dead;
                            sh.finish_op(&fr, i, node_id, Outputs::one(token), dead);
                        }
                        Err(e) => {
                            // Transfer failed or the step was torn
                            // down: abort the run (idempotent if it
                            // already failed) and drain this op.
                            sh.fail(e);
                            sh.finish_noop(&fr, i);
                        }
                    }
                });
                let registered =
                    self.rendezvous_call(|| self.rendezvous.recv_async(self.step, key, callback));
                if !registered {
                    self.finish_noop(frame, i);
                }
                Ok(None)
            }

            // ---------------- Resources ----------------
            OpKind::Assign { var } => {
                let t = take(&mut tokens, 0)?;
                Ok(Some(Outputs::one(Token::live(self.resources.assign(var, t.value)))))
            }
            OpKind::AssignAdd { var } => {
                let t = take(&mut tokens, 0)?;
                let v = self.resources.assign_add(var, &t.value).map_err(kerr)?;
                Ok(Some(Outputs::one(Token::live(v))))
            }
            OpKind::AssignSub { var } => {
                let t = take(&mut tokens, 0)?;
                let v = self.resources.assign_sub(var, &t.value).map_err(kerr)?;
                Ok(Some(Outputs::one(Token::live(v))))
            }
            OpKind::StackCreate { swap } => {
                let id = self.resources.stack_create(self.step, *swap);
                Ok(Some(Outputs::one(Token::live(Tensor::scalar_i64(id as i64)))))
            }
            OpKind::StackPush => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                let value = take(&mut tokens, 2)?;
                let out = Token {
                    value: value.value.clone(),
                    is_dead: false,
                    charge: value.charge.clone(),
                };
                self.stack_push(
                    handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64,
                    index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?,
                    value,
                )
                .map_err(kerr)?;
                Ok(Some(Outputs::one(out)))
            }
            OpKind::StackPop => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                self.stack_pop(
                    frame,
                    i,
                    node_id,
                    handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64,
                    index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?,
                )
            }
            OpKind::TensorArrayNew { dtype, accumulate } => {
                let size = take(&mut tokens, 0)?;
                let n = size.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?.max(0);
                let id = self.resources.array_create(self.step, *dtype, *accumulate, n as usize);
                Ok(Some(
                    [
                        Token::live(Tensor::scalar_i64(id as i64)),
                        Token::live(Tensor::scalar_f32(0.0)),
                    ]
                    .into_iter()
                    .collect(),
                ))
            }
            OpKind::TensorArrayWrite => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                let value = take(&mut tokens, 2)?;
                let _flow = take(&mut tokens, 3)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let ix = index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?;
                self.resources.array_write(id, ix, value).map_err(kerr)?;
                Ok(Some(Outputs::one(Token::live(Tensor::scalar_f32(0.0)))))
            }
            OpKind::TensorArrayRead => {
                let handle = take(&mut tokens, 0)?;
                let index = take(&mut tokens, 1)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let ix = index.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))?;
                let v = self.resources.array_read(id, ix).map_err(kerr)?;
                Ok(Some(Outputs::one(Token::live(v))))
            }
            OpKind::TensorArrayPack => {
                let handle = take(&mut tokens, 0)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let v = self.resources.array_pack(id).map_err(kerr)?;
                Ok(Some(Outputs::one(self.materialize(v)?)))
            }
            OpKind::TensorArrayUnpack => {
                let handle = take(&mut tokens, 0)?;
                let value = take(&mut tokens, 1)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                self.resources
                    .array_unpack(id, &value.value, value.charge.clone())
                    .map_err(kerr)?;
                Ok(Some(Outputs::one(Token::live(Tensor::scalar_f32(0.0)))))
            }
            OpKind::TensorArraySize => {
                let handle = take(&mut tokens, 0)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let n = self.resources.array_size(id).map_err(kerr)?;
                Ok(Some(Outputs::one(Token::live(Tensor::scalar_i64(n)))))
            }
            OpKind::TensorArrayGrad { source } => {
                let handle = take(&mut tokens, 0)?;
                let id = handle.value.scalar_as_i64().map_err(|e| kerr(e.to_string()))? as u64;
                let gid = self.resources.array_grad(id, source).map_err(kerr)?;
                Ok(Some(
                    [
                        Token::live(Tensor::scalar_i64(gid as i64)),
                        Token::live(Tensor::scalar_f32(0.0)),
                    ]
                    .into_iter()
                    .collect(),
                ))
            }

            OpKind::StreamStateRead { cell } => {
                let slots = take(&mut tokens, 0)?;
                let ids = slots.value.as_i64_slice().map_err(|e| kerr(e.to_string()))?;
                let v = self.resources.stream_read_rows(cell, ids).map_err(kerr)?;
                Ok(Some(Outputs::one(self.materialize(v)?)))
            }
            OpKind::StreamStateWrite { cell } => {
                let slots = take(&mut tokens, 0)?;
                let value = take(&mut tokens, 1)?;
                let ids = slots.value.as_i64_slice().map_err(|e| kerr(e.to_string()))?;
                self.resources.stream_write_rows(cell, ids, &value.value).map_err(kerr)?;
                // Forward the value so fetching the output forces the write.
                Ok(Some(Outputs::one(value)))
            }

            // ---------------- Bookkeeping ----------------
            OpKind::NoOp | OpKind::ControlTrigger => Ok(Some(Outputs::new())),

            // ---------------- Compute ----------------
            op => {
                if tokens.slots_mut().iter().any(Option::is_none) {
                    return Err(ExecError::Internal(format!("missing input of {}", node.name)));
                }
                with_values(&mut tokens, |values| {
                    let cm = self.device.cost_model();
                    let duration = cm.duration(op_cost(op, values, cm));
                    let result = if is_compute_op(op)
                        && cm.profile().is_gpu
                        && duration > std::time::Duration::ZERO
                    {
                        // A kernel too short for the stream clock runs here
                        // when the compute stream is idle; any other goes
                        // to the stream, whose completion callback
                        // finishes the activation.
                        let collector = self.kernel_collector();
                        let inline = self.device.run_compute_inline(
                            duration,
                            collector,
                            || node.name.clone(),
                            || execute_op(op, values),
                        );
                        match inline {
                            Some(result) => result,
                            None => {
                                self.submit_compute(frame, i, node_id, op, duration, values);
                                return Ok(None);
                            }
                        }
                    } else {
                        execute_op(op, values)
                    };
                    let mut outs = Outputs::new();
                    for v in result.map_err(kerr)? {
                        outs.push(self.materialize_output(node_id, v)?);
                    }
                    Ok(Some(outs))
                })
            }
        }
    }

    /// Submits a compute op to the device's compute stream; the stream's
    /// completion callback finishes the activation. The kernel's name is
    /// rendered only for a collector or an error.
    fn submit_compute(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        op: &OpKind,
        duration: std::time::Duration,
        values: &[&Tensor],
    ) {
        let op = op.clone();
        let owned: Vec<Tensor> = values.iter().map(|&t| t.clone()).collect();
        let collector = self.kernel_collector().cloned();
        let name = match collector {
            Some(_) => self.eg.graph.node(node_id).name.clone(),
            None => String::new(),
        };
        let sh = self.clone();
        let fr = frame.clone();
        self.device.submit_with_callback(
            StreamKind::Compute,
            Kernel {
                name,
                modeled: duration,
                wait_for: vec![],
                cancel: self.cancel_flag.clone(),
                collector,
                compute: Box::new(move || {
                    let refs: Vec<&Tensor> = owned.iter().collect();
                    execute_op(&op, &refs)
                }),
            },
            Box::new(move |result| match result {
                Ok(values) => {
                    let mut outs = Outputs::new();
                    for v in values {
                        match sh.materialize_output(node_id, v) {
                            Ok(t) => outs.push(t),
                            Err(e) => {
                                sh.fail(e);
                                return;
                            }
                        }
                    }
                    sh.finish_op(&fr, i, node_id, outs, false);
                }
                Err(detail) => {
                    let node = sh.eg.graph.node(node_id).name.clone();
                    sh.fail(ExecError::Kernel { node, detail })
                }
            }),
        );
    }

    /// Sends `token` on the rendezvous as Send node `node_id`'s activation
    /// in (`frame`, `i`), recording the send-side wait (time spent inside
    /// the rendezvous, e.g. modeled-network queueing) when a collector is
    /// attached. A failed run sends nothing.
    fn send_timed(&self, node_id: NodeId, key_base: &str, frame: &Frame, i: usize, token: Token) {
        let key = self.rendezvous_key(node_id, frame, i);
        let name = TransferName { key_base, frame, iter: i };
        self.rendezvous_call(|| match &self.collector {
            None => self.rendezvous.send(self.step, key, &name, token),
            Some(dc) => {
                let t0 = dc.now_us();
                self.rendezvous.send(self.step, key, &name, token);
                dc.rendezvous(RendezvousWait {
                    key: name.to_string(),
                    kind: RendezvousKind::Send,
                    start_us: t0,
                    wait_us: dc.now_us().saturating_sub(t0),
                });
            }
        });
    }

    /// The collector handle attached to this run's device kernel
    /// submissions, so stream threads record kernel timings into the
    /// owning step's stats (not a device-global slot another concurrent
    /// run could be using). Kernel timings are device-level events, so
    /// only [`TraceLevel::Full`] runs record them.
    fn kernel_collector(&self) -> Option<&DeviceCollector> {
        self.collector.as_ref().filter(|dc| dc.collector().level() >= TraceLevel::Full)
    }

    /// Like [`RunShared::materialize`], for compute outputs with a known
    /// producing node: outputs covered by the partition's static memory
    /// plan ride the run's region reservation (an Arc clone, no allocator
    /// traffic) instead of opening a fresh charge.
    fn materialize_output(&self, node_id: NodeId, value: Tensor) -> Result<Token> {
        if self.eg.plan.is_planned(node_id) {
            if let Some(rc) = &self.region_charge {
                return Ok(Token::live_charged(value, rc.clone()));
            }
        }
        self.materialize(value)
    }

    /// Wraps a freshly produced tensor in a token, charging device memory at
    /// modeled size when appropriate.
    fn materialize(&self, value: Tensor) -> Result<Token> {
        let cm = self.device.cost_model();
        if cm.profile().is_gpu {
            let bytes = cm.scaled_bytes(value.shape(), value.dtype().size_of());
            if should_charge(value.dtype(), bytes) {
                let charge = Charge::new_retrying(
                    self.device.allocator(),
                    bytes,
                    self.options.oom_patience,
                )?;
                return Ok(Token::live_charged(value, charge));
            }
        }
        Ok(Token::live(value))
    }

    // ------------------------------------------------------------------
    // Stack swapping (§5.3)
    // ------------------------------------------------------------------

    fn stack_push(&self, id: u64, index: i64, token: Token) -> std::result::Result<(), String> {
        let (slot, waiters) = {
            let mut stacks = self.resources.stacks.lock();
            let stack: &mut StackRes =
                stacks.get_mut(&id).ok_or_else(|| format!("no stack {id}"))?;
            let cm = self.device.cost_model();
            let swap_out = stack.swap
                && cm.profile().is_gpu
                && token.charge.as_ref().map(|c| c.bytes()).unwrap_or(0)
                    >= self.options.min_swap_bytes
                && self.device.allocator().pressure() > self.options.swap_threshold;
            let slot = if swap_out {
                let charge = token.charge.clone();
                let bytes = charge.as_ref().map(|c| c.bytes()).unwrap_or(0);
                // The D2H copy kernel owns the device charge; when the copy
                // completes the charge drops and device memory is released.
                let (ev, _slot) = self.device.submit(
                    StreamKind::D2H,
                    Kernel {
                        name: format!("swap_out[{bytes}B]"),
                        modeled: cm.copy_duration(bytes),
                        wait_for: vec![],
                        cancel: self.cancel_flag.clone(),
                        collector: self.kernel_collector().cloned(),
                        compute: Box::new(move || {
                            drop(charge);
                            Ok(vec![])
                        }),
                    },
                );
                if trace_enabled("stack") {
                    eprintln!(
                        "SWAP_OUT {bytes}B pressure={:.3}",
                        self.device.allocator().pressure()
                    );
                }
                StackSlot::Host { value: token.value, d2h_done: ev, is_dead: token.is_dead }
            } else {
                StackSlot::Device(token)
            };
            // Fill the slot, releasing any pops that were waiting on it. If
            // pops were already parked, hand the value straight to them
            // (the slot is consumed by its single pop).
            match stack.slots.insert(index, SlotEntry::Ready(slot.clone())) {
                Some(SlotEntry::Waiting(w)) if !w.is_empty() => {
                    stack.slots.remove(&index);
                    (slot, w)
                }
                _ => (slot, Vec::new()),
            }
        };
        // Fire waiters outside the lock: they re-enter the executor.
        for w in waiters {
            w(slot.clone());
        }
        Ok(())
    }

    fn stack_pop(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        id: u64,
        index: i64,
    ) -> Result<Option<Outputs>> {
        let ready = {
            let mut stacks = self.resources.stacks.lock();
            let stack = stacks.get_mut(&id).ok_or_else(|| ExecError::Kernel {
                node: self.eg.graph.node(node_id).name.clone(),
                detail: format!("no stack {id}"),
            })?;
            match stack.slots.get_mut(&index) {
                Some(SlotEntry::Ready(_)) => {
                    // Consume the slot: a saved value is popped exactly once
                    // (per-iteration indices), and dropping the stored token
                    // releases its device memory as backpropagation
                    // progresses.
                    match stack.slots.remove(&index) {
                        Some(SlotEntry::Ready(slot)) => Some(slot),
                        _ => unreachable!("checked Ready above"),
                    }
                }
                Some(SlotEntry::Waiting(waiters)) => {
                    // The forward push has not happened yet (it may be in a
                    // still-running parallel iteration): park this pop.
                    let sh = self.clone();
                    let fr = frame.clone();
                    waiters.push(Box::new(move |slot| sh.complete_pop(&fr, i, node_id, slot)));
                    None
                }
                None => {
                    let sh = self.clone();
                    let fr = frame.clone();
                    stack.slots.insert(
                        index,
                        SlotEntry::Waiting(vec![Box::new(move |slot| {
                            sh.complete_pop(&fr, i, node_id, slot)
                        })]),
                    );
                    None
                }
            }
        };
        match ready {
            Some(slot) => {
                self.complete_pop(frame, i, node_id, slot);
                Ok(None)
            }
            None => Ok(None),
        }
    }

    /// Completes a pop once its slot value is available: directly for
    /// device-resident values, via an H2D swap-in kernel for host-resident
    /// ones.
    fn complete_pop(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        slot: StackSlot,
    ) {
        match slot {
            StackSlot::Device(token) => {
                let dead = token.is_dead;
                self.finish_op(frame, i, node_id, Outputs::one(token), dead);
            }
            StackSlot::Host { value, d2h_done, is_dead } => {
                // Swap back in on the H2D stream; must wait for the
                // outbound copy (cross-stream event dependency).
                let cm = self.device.cost_model();
                let bytes = cm.scaled_bytes(value.shape(), value.dtype().size_of());
                let sh = self.clone();
                let fr = frame.clone();
                self.device.submit_with_callback(
                    StreamKind::H2D,
                    Kernel {
                        name: format!("swap_in[{bytes}B]"),
                        modeled: cm.copy_duration(bytes),
                        wait_for: vec![d2h_done],
                        cancel: self.cancel_flag.clone(),
                        collector: self.kernel_collector().cloned(),
                        compute: Box::new(move || Ok(vec![value])),
                    },
                    Box::new(move |result| match result {
                        Ok(mut values) => {
                            let value = values.remove(0);
                            match sh.materialize(value) {
                                Ok(mut token) => {
                                    token.is_dead = is_dead;
                                    sh.finish_op(&fr, i, node_id, Outputs::one(token), is_dead);
                                }
                                Err(e) => sh.fail(e),
                            }
                        }
                        Err(detail) => {
                            sh.fail(ExecError::Kernel { node: "StackPop/swap_in".into(), detail })
                        }
                    }),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Completion and propagation
    // ------------------------------------------------------------------

    /// Decrements counters for an op that was skipped due to a run error.
    fn finish_noop(&self, frame: &Arc<Frame>, i: usize) {
        {
            let mut core = frame.core.lock();
            if let Some(it) = core.iterations.get_mut(&i) {
                it.outstanding_ops = it.outstanding_ops.saturating_sub(1);
            }
        }
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    /// Propagates an op's outputs and advances completion state.
    ///
    /// `was_dead` is the op's deadness (drives control-edge deadness).
    /// Same-frame ops complete under a single acquisition of their frame's
    /// lock; `Enter` and `Exit` touch the neighbor frame's lock strictly
    /// after releasing any other (see `DESIGN.md`).
    fn finish_op(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        outputs: Outputs,
        was_dead: bool,
    ) {
        if self.is_failed() {
            self.finish_noop(frame, i);
            return;
        }
        let node = self.eg.graph.node(node_id);
        let completed = match &node.op {
            OpKind::NextIteration => {
                let mut core = frame.core.lock();
                if let Some(token) = outputs.into_iter().next() {
                    if token.is_dead {
                        // Dead NextIterations are dropped: this is what
                        // terminates the loop's dead wave.
                    } else {
                        let j = i + 1;
                        if frame.in_window(&core, j) {
                            self.ensure_iteration(frame, &mut core, j);
                            self.deliver_to_consumers(frame, &mut core, j, node_id, 0, token);
                        } else {
                            // Beyond the parallel-iterations window:
                            // defer until older iterations complete.
                            core.deferred.push_back(DeferredToken {
                                iter: j,
                                node: node_id,
                                token,
                            });
                        }
                    }
                }
                self.tail_locked(frame, &mut core, i, node_id, was_dead)
            }
            OpKind::Enter { is_constant, parallel_iterations, .. } => {
                self.finish_enter(frame, i, node_id, outputs, *is_constant, *parallel_iterations);
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead)
            }
            OpKind::Exit => {
                self.finish_exit(frame, node_id, outputs);
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead)
            }
            // A live Call pushes a fresh call frame and injects its
            // arguments; a dead Call falls through to the default arm,
            // delivering one dead token per result port in the current
            // frame — this is what terminates recursion without pushing
            // frames down the untaken branch.
            OpKind::Call { .. } if !was_dead => {
                self.finish_call(frame, i, node_id, outputs);
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead)
            }
            // A FunctionRet delivers its token (live or dead) to the call
            // site's consumers in the parent frame; dead results propagate
            // out of the call like any other dead value.
            OpKind::FunctionRet { index, .. } => {
                let index = *index;
                self.finish_ret(frame, index, outputs);
                let mut core = frame.core.lock();
                self.tail_locked(frame, &mut core, i, node_id, was_dead)
            }
            _ => {
                let mut core = frame.core.lock();
                for (port, token) in outputs.into_iter().enumerate() {
                    self.deliver_to_consumers(frame, &mut core, i, node_id, port, token);
                }
                self.tail_locked(frame, &mut core, i, node_id, was_dead)
            }
        };
        if completed {
            self.complete_frame(frame.clone());
        }
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.complete(Ok(()));
        }
    }

    /// Common completion tail, under the finishing op's frame lock:
    /// control successors observe the completion (and deadness) in the same
    /// frame and iteration, the op stops being outstanding, and the frame's
    /// window/completion state advances. Returns `true` if the frame just
    /// completed (caller runs the cascade after releasing the lock).
    fn tail_locked(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        core: &mut FrameCore,
        i: usize,
        node_id: NodeId,
        was_dead: bool,
    ) -> bool {
        for &dst in self.eg.control_consumers(node_id) {
            self.deliver_control(frame, core, i, dst, was_dead);
        }
        if was_dead {
            core.dead_tokens += 1;
        }
        if let Some(it) = core.iterations.get_mut(&i) {
            it.outstanding_ops -= 1;
        }
        self.advance_locked(frame, core)
    }

    /// `Enter` completion: route the token into the (possibly new) child
    /// frame. Lock order: frame table → parent core (creation only) →
    /// child core; never more than one frame core at a time.
    fn finish_enter(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        i: usize,
        node_id: NodeId,
        outputs: Outputs,
        is_constant: bool,
        parallel_iterations: usize,
    ) {
        let Some(token) = outputs.into_iter().next() else { return };
        let name_id = self.eg.enter_frame(node_id).expect("Enter node has a frame name");
        if frame.depth >= self.max_frame_depth {
            self.fail(ExecError::FrameDepthExceeded {
                limit: self.max_frame_depth,
                frame: self.eg.frame_name(name_id).to_string(),
            });
            return;
        }
        let (child, created) = {
            let mut table = self.table.lock();
            match table.index.get(&(frame.id, i, name_id)) {
                Some(c) => (c.clone(), false),
                None => {
                    let id = table.next;
                    table.next += 1;
                    let child = Frame::child(
                        id,
                        name_id,
                        self.eg.frame_name_arc(name_id),
                        self.eg.frame_hash(name_id),
                        (frame.clone(), i),
                        parallel_iterations,
                        self.eg.expected_enters(name_id),
                        None,
                    );
                    table.index.insert((frame.id, i, name_id), child.clone());
                    (child, true)
                }
            }
        };
        if created {
            // Register the parent's hold. This Enter op is still
            // outstanding in (frame, i), so the parent iteration cannot
            // concurrently be observed quiescent before the hold lands.
            let mut pcore = frame.core.lock();
            if let Some(it) = pcore.iterations.get_mut(&i) {
                it.outstanding_frames += 1;
            }
        }
        let completed_child = {
            let mut ccore = child.core.lock();
            ccore.enters_seen += 1;
            if is_constant {
                ccore.constants.push((node_id, token.clone()));
                let iters: Vec<usize> = ccore.iterations.keys().copied().collect();
                for j in iters {
                    self.deliver_to_consumers(&child, &mut ccore, j, node_id, 0, token.clone());
                }
            } else {
                self.deliver_to_consumers(&child, &mut ccore, 0, node_id, 0, token);
            }
            // The frame may already be able to complete (e.g. a loop whose
            // predicate was false at iteration 0 and whose last Enter just
            // arrived).
            self.advance_locked(&child, &mut ccore)
        };
        if completed_child {
            self.complete_frame(child);
        }
    }

    /// `Exit` completion: live exits deliver into the parent frame
    /// immediately; dead exits are recorded and delivered (once) only if
    /// the frame completes without that exit ever going live.
    fn finish_exit(self: &Arc<Self>, frame: &Arc<Frame>, node_id: NodeId, outputs: Outputs) {
        let Some(token) = outputs.into_iter().next() else { return };
        let Some((parent, pi)) = &frame.parent else { return };
        if token.is_dead {
            frame.core.lock().dead_exits.insert(node_id);
        } else {
            frame.core.lock().live_exits.insert(node_id);
            // The parent iteration holds this frame outstanding, so it is
            // still live; own lock released before taking the parent's.
            let mut pcore = parent.core.lock();
            self.deliver_to_consumers(parent, &mut pcore, *pi, node_id, 0, token);
        }
    }

    /// `Call` completion: push a fresh call frame (one per call-site
    /// activation — a recursive call pushes another, dynamically nested
    /// frame) and inject the argument tokens into the body's
    /// `FunctionParam` nodes. Lock order matches [`RunShared::finish_enter`]:
    /// frame table → parent core → child core, never two cores at once.
    fn finish_call(self: &Arc<Self>, frame: &Arc<Frame>, i: usize, node_id: NodeId, args: Outputs) {
        let name_id = self.eg.call_frame(node_id).expect("Call node has a frame name");
        if frame.depth >= self.max_frame_depth {
            self.fail(ExecError::FrameDepthExceeded {
                limit: self.max_frame_depth,
                frame: self.eg.frame_name(name_id).to_string(),
            });
            return;
        }
        let function = match &self.eg.graph.node(node_id).op {
            OpKind::Call { function, .. } => function.clone(),
            _ => unreachable!("finish_call on non-Call node"),
        };
        let params: Vec<NodeId> = self.eg.fn_params(&function).to_vec();
        if params.len() != args.len() {
            self.fail(ExecError::Internal(format!(
                "call of {function}: {} arguments for {} parameters",
                args.len(),
                params.len()
            )));
            return;
        }
        // A Call node fires at most once per (frame, iteration), so the
        // table entry is always fresh.
        let child = {
            let mut table = self.table.lock();
            let id = table.next;
            table.next += 1;
            let child = Frame::child(
                id,
                name_id,
                self.eg.frame_name_arc(name_id),
                self.eg.frame_hash(name_id),
                (frame.clone(), i),
                1,
                1,
                Some(node_id),
            );
            table.index.insert((frame.id, i, name_id), child.clone());
            child
        };
        // Register the parent's hold; this Call op is still outstanding in
        // (frame, i), so the parent iteration cannot concurrently be
        // observed quiescent before the hold lands.
        {
            let mut pcore = frame.core.lock();
            if let Some(it) = pcore.iterations.get_mut(&i) {
                it.outstanding_frames += 1;
            }
        }
        let completed_child = {
            let mut ccore = child.core.lock();
            // The argument injection is the frame's single expected
            // "enter" event.
            ccore.enters_seen += 1;
            for (k, token) in args.into_iter().enumerate() {
                self.deliver(&child, &mut ccore, 0, params[k], 0, token);
            }
            self.advance_locked(&child, &mut ccore)
        };
        if completed_child {
            self.complete_frame(child);
        }
    }

    /// `FunctionRet` completion: deliver the result token — live or dead —
    /// to the consumers of the call site's matching output port in the
    /// parent frame. Mirrors [`RunShared::finish_exit`]'s parent-delivery
    /// path; no dead-exit deferral is needed because every body node
    /// (dead propagation included) executes exactly once per call frame.
    fn finish_ret(self: &Arc<Self>, frame: &Arc<Frame>, index: usize, outputs: Outputs) {
        let Some(token) = outputs.into_iter().next() else { return };
        let Some((parent, pi)) = &frame.parent else { return };
        let Some(call_site) = frame.call_site else {
            self.fail(ExecError::Internal(format!(
                "FunctionRet fired in non-call frame '{}'",
                frame.path()
            )));
            return;
        };
        // The parent iteration holds this frame outstanding, so it is
        // still live; own lock is not held while taking the parent's.
        let mut pcore = parent.core.lock();
        self.deliver_to_consumers(parent, &mut pcore, *pi, call_site, index, token);
    }

    /// Advances the iteration window of `frame` under its lock, releasing
    /// deferred tokens. Returns `true` when the frame transitioned to
    /// complete (exactly one caller observes the transition; `core.done`
    /// guards repeats).
    fn advance_locked(self: &Arc<Self>, frame: &Arc<Frame>, core: &mut FrameCore) -> bool {
        if frame.id == ROOT_FRAME {
            return false;
        }
        loop {
            let advance = if core.front >= core.started {
                false
            } else {
                let enters_ok = core.front > 0 || core.enters_seen == frame.expected_enters;
                let it_done = core
                    .iterations
                    .get(&core.front)
                    .map(|it| it.outstanding_ops == 0 && it.outstanding_frames == 0)
                    .unwrap_or(true);
                enters_ok && it_done
            };
            if !advance {
                break;
            }
            let front = core.front;
            core.retire_iteration(front);
            core.front = front + 1;
            // Release deferred tokens now inside the window.
            loop {
                let limit = core.front + frame.parallel_iterations;
                let pos = core.deferred.iter().position(|d| d.iter < limit);
                match pos.map(|p| core.deferred.remove(p).expect("position valid")) {
                    Some(d) => {
                        self.ensure_iteration(frame, core, d.iter);
                        self.deliver_to_consumers(frame, core, d.iter, d.node, 0, d.token);
                    }
                    None => break,
                }
            }
        }

        // Frame completion.
        let complete = !core.done
            && core.front >= core.started
            && core.deferred.is_empty()
            && core.enters_seen == frame.expected_enters
            && core
                .iterations
                .values()
                .all(|it| it.outstanding_ops == 0 && it.outstanding_frames == 0);
        if complete {
            core.done = true;
            if let Some(dc) = &self.collector {
                dc.frame(FrameStats {
                    frame: frame.path().to_string(),
                    iterations: core.started as u64,
                    dead_tokens: core.dead_tokens,
                });
            }
        }
        complete
    }

    /// Completion cascade: walks up the ancestor chain, delivering each
    /// completed frame's never-live dead exits into its parent, releasing
    /// the parent's hold, and repeating if that completes the parent.
    /// Iterative, holding at most one frame lock at a time.
    fn complete_frame(self: &Arc<Self>, frame: Arc<Frame>) {
        let mut cur = frame;
        loop {
            let Some((parent, pi)) = cur.parent.clone() else { return };
            let dead_exits: Vec<NodeId> = {
                let core = cur.core.lock();
                debug_assert!(core.done, "cascade on incomplete frame {}", cur.id);
                core.dead_exits.difference(&core.live_exits).copied().collect()
            };
            // Unregister before releasing the parent's hold.
            if let Some(name_id) = cur.name_id {
                self.table.lock().index.remove(&(parent.id, pi, name_id));
            }
            let completed_parent = {
                let mut pcore = parent.core.lock();
                // Deliver one dead token per never-live exit (nested
                // deadness).
                for exit in dead_exits {
                    self.deliver_to_consumers(&parent, &mut pcore, pi, exit, 0, Token::dead());
                }
                if let Some(it) = pcore.iterations.get_mut(&pi) {
                    it.outstanding_frames -= 1;
                }
                self.advance_locked(&parent, &mut pcore)
            };
            if completed_parent {
                cur = parent;
            } else {
                return;
            }
        }
    }
}
