//! The per-replica batcher: one worker thread that coalesces queued work
//! into batched `Session::run` steps and scatters the results back.
//!
//! A batcher queues one of two kinds of work, fixed when it is built:
//! stateless **requests** ([`Batcher::submit`]), taken whole along the
//! leading axis under the model's [`BatchPolicy`] — dispatching when
//! `max_batch_size` rows are queued or the oldest request has waited
//! `max_queue_delay` — or sticky **streams** ([`crate::stream`]), one row
//! per live stream per decode iteration. The queue lock, the
//! linger-and-dispatch loop, the step runner (`concat0` per feed, one
//! tagged `Session::run`, the metrics bookkeeping, `split0` per fetch) and
//! the shutdown path are shared. Which rows a step takes, how results are
//! delivered and what a failed step does sit behind the `Queue` and
//! `Members` enums.
//!
//! Admission control for requests is structural rather than advisory:
//!
//! * the queue is bounded in **rows** (`queue_capacity`); a full queue
//!   rejects immediately with [`ExecError::Overloaded`] instead of
//!   queueing forever;
//! * a request's deadline is checked at enqueue *and* again at batch
//!   assembly, so an expired request never occupies a batch slot;
//! * two lanes: [`Priority::Interactive`] requests preempt
//!   [`Priority::Batch`] traffic at assembly time (drained first), while
//!   each lane stays FIFO so bulk traffic is delayed, never starved.
//!
//! A failed batched step (timeout, injected fault past its retry budget,
//! cancellation) fails exactly the requests in that batch; the worker
//! survives and keeps serving subsequent batches.
//!
//! Dropping the batcher **drains**: nothing new is admitted, every
//! accepted request or stream row is served, then the worker exits.
//! Retiring it (the replica router's eviction and scale-down) fails
//! whatever is still queued instead.

use crate::metrics::ServeMetrics;
use crate::oneshot;
use crate::signature::ModelSignature;
use crate::stream::{StreamQueue, StreamSpec};
use crate::Result;
use dcf_exec::ExecError;
use dcf_graph::TensorRef;
use dcf_runtime::{RunOptions, Session};
use dcf_sync::{Condvar, Mutex};
use dcf_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error text of the [`ExecError::Cancelled`] a batcher answers once it is
/// shutting down. The replica router retries exactly this rejection: it
/// means "this replica went away", not "your request failed".
pub(crate) const SHUTDOWN_MSG: &str = "batcher shut down";

/// Which lane a request queues in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: drained into batches before any
    /// [`Priority::Batch`] request, regardless of arrival order.
    Interactive,
    /// Bulk/offline traffic (the default): fills whatever batch capacity
    /// the interactive lane left.
    #[default]
    Batch,
}

/// Per-model batching policy.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Maximum rows per batched step; dispatch fires as soon as this many
    /// rows are queued.
    pub max_batch_size: usize,
    /// Maximum time the oldest queued request waits before a (possibly
    /// partial) batch dispatches anyway.
    pub max_queue_delay: Duration,
    /// Bound on queued rows across both lanes; requests beyond it are
    /// rejected with [`ExecError::Overloaded`] at enqueue.
    pub queue_capacity: usize,
    /// Template for every batched step's `RunOptions` (trace level,
    /// timeout, retry policy, fault plan). The tag is extended per batch
    /// with `"<model>/batch-<seq>"` so traces of batched steps stay
    /// distinguishable.
    pub run_options: RunOptions,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch_size: 16,
            max_queue_delay: Duration::from_millis(2),
            queue_capacity: 1024,
            run_options: RunOptions::default(),
        }
    }
}

impl BatchPolicy {
    pub(crate) fn check(&self) -> Result<()> {
        if self.max_batch_size == 0 {
            return Err(ExecError::InvalidConfig("max_batch_size is 0".into()));
        }
        if self.queue_capacity < self.max_batch_size {
            return Err(ExecError::InvalidConfig(format!(
                "queue_capacity {} is smaller than max_batch_size {}",
                self.queue_capacity, self.max_batch_size
            )));
        }
        Ok(())
    }
}

/// One client request: batch-major feed tensors plus scheduling hints.
#[derive(Clone, Debug)]
pub struct Request {
    /// Feed tensors, one per signature feed, each `[rows] + example_dims`.
    pub feeds: HashMap<String, Tensor>,
    /// Lane to queue in.
    pub priority: Priority,
    /// Absolute expiry; once past, the request is completed with
    /// [`ExecError::DeadlineExceeded`] instead of occupying a batch slot.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A bulk-lane request with no deadline.
    pub fn new(feeds: HashMap<String, Tensor>) -> Request {
        Request { feeds, priority: Priority::default(), deadline: None }
    }

    /// Moves the request to the interactive lane (builder style).
    pub fn interactive(mut self) -> Request {
        self.priority = Priority::Interactive;
        self
    }

    /// Sets the deadline to `budget` from now (builder style).
    pub fn with_deadline_in(mut self, budget: Duration) -> Request {
        self.deadline = Some(Instant::now() + budget);
        self
    }
}

/// What a completed request returns.
#[derive(Clone, Debug)]
pub struct Response {
    /// This request's slice of each fetched tensor, in signature fetch
    /// order; every output has this request's row count as its leading
    /// dimension.
    pub outputs: Vec<Tensor>,
    /// Time the request spent queued before its batch was assembled.
    pub queue_delay: Duration,
    /// Step id of the batched run that served this request.
    pub step: u64,
    /// The batched step's tag (e.g. `"lstm/batch-42"`).
    pub tag: String,
    /// Total rows in the batched step that served this request.
    pub batch_rows: usize,
}

/// A submitted request's completion handle.
pub struct Ticket {
    rx: oneshot::Receiver<Result<Response>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket")
    }
}

impl Ticket {
    /// Blocks until the request's batch completes (or it is rejected).
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or_else(|| {
            Err(ExecError::Internal("batcher dropped the request without completing it".into()))
        })
    }
}

/// A queued request awaiting batch assembly.
pub(crate) struct Pending {
    feeds: HashMap<String, Tensor>,
    rows: usize,
    enqueued: Instant,
    deadline: Option<Instant>,
    tx: oneshot::Sender<Result<Response>>,
}

/// The request queue: two FIFO lanes bounded in rows.
#[derive(Default)]
pub(crate) struct QueueState {
    interactive: VecDeque<Pending>,
    batch: VecDeque<Pending>,
    queued_rows: usize,
}

impl QueueState {
    /// Earliest enqueue instant across both lanes.
    fn oldest(&self) -> Option<Instant> {
        [self.interactive.front(), self.batch.front()]
            .into_iter()
            .flatten()
            .map(|p| p.enqueued)
            .min()
    }

    /// Earliest request deadline across both lanes (for prompt expiry).
    fn earliest_deadline(&self) -> Option<Instant> {
        self.interactive.iter().chain(self.batch.iter()).filter_map(|p| p.deadline).min()
    }

    /// Requests linger until the row cap is reached or the oldest has
    /// waited `max_queue_delay`.
    fn readiness(&self, policy: &BatchPolicy) -> Readiness {
        let oldest = self.oldest();
        Readiness {
            ready: oldest.is_some(),
            urgent: self.queued_rows >= policy.max_batch_size,
            linger_until: oldest.map(|o| o + policy.max_queue_delay),
            deadline: self.earliest_deadline(),
        }
    }

    /// Assembles one batch of whole requests (see [`assemble`]); `None`
    /// when everything queued had expired.
    fn take(&mut self, now: Instant, b: &Shared) -> Option<Taken> {
        let mut batch = assemble(self, b.policy.max_batch_size, now, &b.metrics);
        if batch.is_empty() {
            return None;
        }
        let rows: Vec<usize> = batch.iter().map(|p| p.rows).collect();
        let m = &b.metrics;
        m.batches.fetch_add(1, Ordering::Relaxed);
        m.batched_rows.fetch_add(rows.iter().sum::<usize>() as u64, Ordering::Relaxed);
        for p in &batch {
            m.record_queue_delay_us(now.saturating_duration_since(p.enqueued).as_micros() as u64);
        }
        let parts = b
            .signature
            .feeds
            .iter()
            .map(|spec| {
                batch
                    .iter_mut()
                    .map(|p| p.feeds.remove(&spec.name).expect("validated at enqueue"))
                    .collect()
            })
            .collect();
        Some(Taken { parts, rows, members: Members::Requests { batch, assembled: now } })
    }

    /// Fails every queued request with the shutdown rejection.
    fn fail_all(&mut self, metrics: &ServeMetrics) {
        for p in self.interactive.drain(..).chain(self.batch.drain(..)) {
            p.tx.send(Err(ExecError::Cancelled(SHUTDOWN_MSG.into())));
        }
        self.queued_rows = 0;
        metrics.queued_rows.store(0, Ordering::Relaxed);
    }
}

/// Drains up to `max_rows` rows from `state`, interactive lane first,
/// completing expired requests with [`ExecError::DeadlineExceeded`] along
/// the way (they never occupy a slot). Each lane stays FIFO: assembly
/// stops at the first live request that does not fit, but the expiry
/// sweep continues over the *whole* lane — an expired request parked
/// behind a blocked front must not keep holding `queued_rows` (it would
/// surface as spurious `Overloaded` rejections) or keep its past-due
/// deadline as the batcher's wake-up target (a busy-spin).
///
/// Taken requests leave `state.queued_rows`; the caller moves them from
/// the `queued_rows` gauge to `running_rows` under the same lock.
///
/// Free function so the lane/expiry/row-cap policy is unit-testable
/// without a live session or batcher thread.
fn assemble(
    state: &mut QueueState,
    max_rows: usize,
    now: Instant,
    metrics: &ServeMetrics,
) -> Vec<Pending> {
    let mut out = Vec::new();
    let mut rows = 0usize;
    for lane in [&mut state.interactive, &mut state.batch] {
        // Once a live request does not fit, later live requests may not
        // overtake it (FIFO within a lane) — but expired ones are still
        // removed and completed.
        let mut blocked = false;
        let mut idx = 0usize;
        while idx < lane.len() {
            let front = &lane[idx];
            if front.deadline.is_some_and(|d| d <= now) {
                let p = lane.remove(idx).expect("index in bounds");
                state.queued_rows -= p.rows;
                metrics.queued_rows.fetch_sub(p.rows as u64, Ordering::Relaxed);
                metrics.expired.fetch_add(1, Ordering::Relaxed);
                p.tx.send(Err(ExecError::DeadlineExceeded {
                    waited: now.saturating_duration_since(p.enqueued),
                    past_deadline: p
                        .deadline
                        .map(|d| now.saturating_duration_since(d))
                        .unwrap_or(Duration::ZERO),
                }));
                continue;
            }
            if !blocked && rows + front.rows <= max_rows {
                // Not blocked means every earlier entry was taken or
                // expired, so this live request is the lane's front.
                debug_assert_eq!(idx, 0);
                let p = lane.remove(idx).expect("index in bounds");
                state.queued_rows -= p.rows;
                rows += p.rows;
                out.push(p);
                continue;
            }
            blocked = true;
            idx += 1;
        }
    }
    out
}

/// Worker lifecycle, shared by both queue kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    Running,
    /// The batcher was dropped: admit nothing new, serve everything
    /// accepted without lingering, then exit.
    Draining,
    /// The replica was retired: fail everything still queued and exit.
    Closed,
}

/// What the worker's linger loop reads off a queue between steps.
pub(crate) struct Readiness {
    /// Rows could be taken now.
    pub(crate) ready: bool,
    /// Take them without lingering: the row cap is reached, or a stream
    /// is part-way through a chunk.
    pub(crate) urgent: bool,
    /// When lingering for co-batchable rows ends.
    pub(crate) linger_until: Option<Instant>,
    /// Earliest deadline the worker must wake up to expire.
    pub(crate) deadline: Option<Instant>,
}

/// The two kinds of work a batcher queues — one type over two kinds, so
/// the worker loop never asks which one it serves.
pub(crate) enum Queue {
    Requests(QueueState),
    Streams(StreamQueue),
}

impl Queue {
    /// Streams first sweep expired and drained streams.
    fn readiness(&mut self, now: Instant, b: &Shared) -> Readiness {
        match self {
            Queue::Requests(q) => q.readiness(&b.policy),
            Queue::Streams(q) => {
                q.sweep(now, b);
                q.readiness()
            }
        }
    }

    fn take(&mut self, now: Instant, b: &Shared) -> Option<Taken> {
        match self {
            Queue::Requests(q) => q.take(now, b),
            Queue::Streams(q) => q.take(now, b),
        }
    }

    fn fail_all(&mut self, b: &Shared) {
        match self {
            Queue::Requests(q) => q.fail_all(&b.metrics),
            Queue::Streams(q) => q.fail_all(b),
        }
    }
}

/// The queue and the worker's lifecycle, behind one lock.
pub(crate) struct State {
    pub(crate) mode: Mode,
    pub(crate) queue: Queue,
}

/// One step's rows, taken under the queue lock and run outside it.
pub(crate) struct Taken {
    /// `parts[f]` = one tensor per member for step feed `f`, in batch
    /// order, each `[rows] + example_dims`.
    pub(crate) parts: Vec<Vec<Tensor>>,
    /// Rows each member contributes, in batch order (the `split0` sizes).
    pub(crate) rows: Vec<usize>,
    pub(crate) members: Members,
}

/// Who a step's rows belong to, and so how its results are delivered.
pub(crate) enum Members {
    /// Whole requests, each completed with one [`Response`].
    Requests { batch: Vec<Pending>, assembled: Instant },
    /// One row per participating stream slot, accumulated into the
    /// stream's current chunk.
    Streams(Vec<u64>),
}

impl Members {
    /// The step tag's kind word: `"{name}/batch-{seq}"` or
    /// `"{name}/iter-{seq}"`.
    fn word(&self) -> &'static str {
        match self {
            Members::Requests { .. } => "batch",
            Members::Streams(_) => "iter",
        }
    }

    fn deliver(self, b: &Shared, out: Output) {
        match self {
            Members::Requests { batch, assembled } => {
                for (r, p) in batch.into_iter().enumerate() {
                    let outputs = out.sliced.iter().map(|per_fetch| per_fetch[r].clone()).collect();
                    b.metrics.served.fetch_add(1, Ordering::Relaxed);
                    p.tx.send(Ok(Response {
                        outputs,
                        queue_delay: assembled.saturating_duration_since(p.enqueued),
                        step: out.step,
                        tag: out.tag.clone(),
                        batch_rows: out.rows,
                    }));
                }
            }
            Members::Streams(slots) => {
                if let Queue::Streams(q) = &mut b.state.lock().queue {
                    q.deliver(&slots, &out, b);
                }
            }
        }
    }

    /// A failed step fails a request batch; it destroys the participating
    /// streams (their state may hold a half-applied update).
    fn fail(self, b: &Shared, err: ExecError) {
        match self {
            Members::Requests { batch, .. } => {
                for p in batch {
                    b.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    p.tx.send(Err(err.clone()));
                }
            }
            Members::Streams(slots) => {
                if let Queue::Streams(q) = &mut b.state.lock().queue {
                    q.fail(&slots, &err, b);
                }
            }
        }
    }
}

/// A successful step's results.
pub(crate) struct Output {
    /// `sliced[f][r]` = member `r`'s slice of signature fetch `f`.
    pub(crate) sliced: Vec<Vec<Tensor>>,
    pub(crate) step: u64,
    pub(crate) tag: String,
    /// Total rows in the step.
    pub(crate) rows: usize,
}

/// The per-replica batcher. Dropping it drains (see module docs) and joins
/// the worker thread.
pub struct Batcher {
    pub(crate) shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

pub(crate) struct Shared {
    pub(crate) name: String,
    pub(crate) session: Arc<Session>,
    pub(crate) signature: ModelSignature,
    pub(crate) policy: BatchPolicy,
    /// Every step's feeds: the signature feeds, then a stream model's
    /// slots feed.
    feeds: Vec<String>,
    /// Every step's fetches: the signature fetches, then a stream model's
    /// forced state fetches.
    fetches: Vec<TensorRef>,
    pub(crate) metrics: Arc<ServeMetrics>,
    step_seq: AtomicU64,
    pub(crate) state: Mutex<State>,
    pub(crate) cv: Condvar,
}

impl Batcher {
    /// Validates `policy` against `signature`/`session` and spawns the
    /// request batcher thread for model `name`.
    pub fn new(
        name: impl Into<String>,
        session: Arc<Session>,
        signature: ModelSignature,
        policy: BatchPolicy,
    ) -> Result<Batcher> {
        Batcher::start(name.into(), session, signature, policy, None)
    }

    /// Spawns the worker: a stream batcher when `stream` is set, a request
    /// batcher otherwise. Streaming iterations run under
    /// `policy.run_options`.
    pub(crate) fn start(
        name: String,
        session: Arc<Session>,
        signature: ModelSignature,
        policy: BatchPolicy,
        stream: Option<StreamSpec>,
    ) -> Result<Batcher> {
        policy.check()?;
        if signature.feeds.is_empty() || signature.fetches.is_empty() {
            return Err(ExecError::InvalidConfig(
                "serving signature needs at least one feed and one fetch".into(),
            ));
        }
        let mut feeds: Vec<String> = signature.feeds.iter().map(|f| f.name.clone()).collect();
        let mut fetches = signature.fetches.clone();
        let queue = match stream {
            None => Queue::Requests(QueueState::default()),
            Some(spec) => {
                spec.check_basic()?;
                feeds.push(spec.slots_feed.clone());
                fetches.extend(spec.state_fetches.iter().copied());
                Queue::Streams(StreamQueue::new(spec))
            }
        };
        let shared = Arc::new(Shared {
            name,
            session,
            signature,
            policy,
            feeds,
            fetches,
            metrics: Arc::new(ServeMetrics::default()),
            step_seq: AtomicU64::new(0),
            state: Mutex::new(State { mode: Mode::Running, queue }),
            cv: Condvar::new(),
        });
        let worker = shared.clone();
        let thread = std::thread::Builder::new()
            .name(format!("dcf-serve/{}", worker.name))
            .spawn(move || worker.run_loop())
            .map_err(|e| ExecError::Internal(format!("spawning batcher thread: {e}")))?;
        Ok(Batcher { shared, thread: Mutex::new(Some(thread)) })
    }

    /// The model name this batcher serves.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The batching policy in force.
    pub fn policy(&self) -> &BatchPolicy {
        &self.shared.policy
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.shared.metrics
    }

    /// Instantaneous load in rows (queued + mid-step), lock-free. The
    /// signal the replica router's power-of-two-choices dispatch compares.
    pub fn load(&self) -> u64 {
        self.shared.metrics.load()
    }

    /// A point-in-time metrics snapshot (occupancy uses this batcher's
    /// `max_batch_size`).
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.policy.max_batch_size)
    }

    /// Validates and enqueues `request`, returning a [`Ticket`] for its
    /// completion. Every rejection is immediate and structured:
    /// [`ExecError::BadFeedOrFetch`] for a signature mismatch,
    /// [`ExecError::Overloaded`] for a full queue,
    /// [`ExecError::DeadlineExceeded`] for an already-expired deadline,
    /// [`ExecError::InvalidConfig`] for a request larger than any batch or
    /// a batcher that serves streams.
    pub fn submit(&self, request: Request) -> Result<Ticket> {
        let b = &self.shared;
        let m = &b.metrics;
        let rows = b.signature.validate(&request.feeds).inspect_err(|_| {
            m.rejected_shape.fetch_add(1, Ordering::Relaxed);
        })?;
        if rows > b.policy.max_batch_size {
            m.rejected_shape.fetch_add(1, Ordering::Relaxed);
            return Err(ExecError::InvalidConfig(format!(
                "request has {rows} rows, max_batch_size is {}",
                b.policy.max_batch_size
            )));
        }
        let now = Instant::now();
        if let Some(d) = request.deadline.filter(|d| *d <= now) {
            m.expired.fetch_add(1, Ordering::Relaxed);
            // Expired on arrival: it waited nothing in the queue.
            return Err(ExecError::DeadlineExceeded {
                waited: Duration::ZERO,
                past_deadline: now.saturating_duration_since(d),
            });
        }
        let (tx, rx) = oneshot::channel();
        {
            let mut st = b.state.lock();
            let running = st.mode == Mode::Running;
            let Queue::Requests(q) = &mut st.queue else {
                return Err(ExecError::InvalidConfig(format!(
                    "model '{}' serves streams: open one with open_stream instead",
                    b.name
                )));
            };
            if !running {
                return Err(ExecError::Cancelled(SHUTDOWN_MSG.into()));
            }
            if q.queued_rows + rows > b.policy.queue_capacity {
                m.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Err(ExecError::Overloaded(format!(
                    "model '{}' queue is full ({} of {} rows)",
                    b.name, q.queued_rows, b.policy.queue_capacity
                )));
            }
            let pending = Pending {
                feeds: request.feeds,
                rows,
                enqueued: now,
                deadline: request.deadline,
                tx,
            };
            match request.priority {
                Priority::Interactive => q.interactive.push_back(pending),
                Priority::Batch => q.batch.push_back(pending),
            }
            q.queued_rows += rows;
            m.queued_rows.fetch_add(rows as u64, Ordering::Relaxed);
        }
        m.submitted.fetch_add(1, Ordering::Relaxed);
        b.cv.notify_all();
        Ok(Ticket { rx })
    }

    /// Convenience: [`Batcher::submit`] then block for the response.
    pub fn run(&self, request: Request) -> Result<Response> {
        self.submit(request)?.wait()
    }

    /// Idle for scale-down purposes: nothing queued or mid-step, and no
    /// live streams pinned here.
    pub(crate) fn is_idle(&self) -> bool {
        self.load() == 0 && self.active_streams() == 0
    }

    /// Retires the batcher: queued requests fail with the shutdown
    /// rejection (the router resubmits them elsewhere), live streams fail
    /// with [`ExecError::StreamClosed`], and the worker is joined — so the
    /// metrics read afterwards are final.
    pub(crate) fn close(&self) {
        self.stop(Mode::Closed);
    }

    /// The one shutdown path: set the mode, wake the worker, join it.
    fn stop(&self, mode: Mode) {
        {
            let mut st = self.shared.state.lock();
            if st.mode != Mode::Closed {
                st.mode = mode;
            }
        }
        self.shared.cv.notify_all();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.stop(Mode::Draining);
    }
}

impl Shared {
    /// The worker: linger for co-batchable rows, take one step's rows,
    /// run them. Exits once closed, or once draining finds nothing left.
    fn run_loop(&self) {
        loop {
            let taken = {
                let mut st = self.state.lock();
                loop {
                    let now = Instant::now();
                    let r = st.queue.readiness(now, self);
                    let draining = st.mode == Mode::Draining;
                    if st.mode == Mode::Closed || (draining && !r.ready) {
                        st.queue.fail_all(self);
                        return;
                    }
                    // Linger until the window closes or a deadline needs
                    // expiring; a draining batcher never lingers.
                    let wake = [r.linger_until, r.deadline].into_iter().flatten().min();
                    if r.ready && (r.urgent || draining || wake.is_none_or(|w| now >= w)) {
                        let Some(taken) = st.queue.take(now, self) else { continue };
                        // Move the rows from queued to running under the
                        // lock, running first. The Release pairs with the
                        // Acquire in `ServeMetrics::load`, so `load()`
                        // never reads 0 while a step is in hand.
                        let n = taken.rows.iter().sum::<usize>() as u64;
                        self.metrics.running_rows.fetch_add(n, Ordering::Relaxed);
                        self.metrics.queued_rows.fetch_sub(n, Ordering::Release);
                        break taken;
                    }
                    match wake {
                        Some(w) => {
                            self.cv.wait_until(&mut st, w);
                        }
                        None => self.cv.wait(&mut st),
                    }
                }
            };
            self.run_step(taken);
        }
    }

    /// Runs one step and delivers (or fails) its members. The rows stay
    /// counted as running until their results are delivered.
    fn run_step(&self, taken: Taken) {
        let Taken { parts, rows, members } = taken;
        match self.execute(parts, &rows, members.word()) {
            Ok(out) => members.deliver(self, out),
            Err(e) => members.fail(self, e),
        }
        let n = rows.iter().sum::<usize>() as u64;
        self.metrics.running_rows.fetch_sub(n, Ordering::Relaxed);
    }

    /// The step runner: `concat0` per step feed, one tagged
    /// `Session::run`, the bookkeeping, then `split0` of every signature
    /// fetch by member rows.
    fn execute(&self, parts: Vec<Vec<Tensor>>, rows: &[usize], word: &str) -> Result<Output> {
        let mut merged: HashMap<String, Tensor> = HashMap::with_capacity(self.feeds.len());
        for (name, parts) in self.feeds.iter().zip(parts) {
            let t = Tensor::concat0(&parts).map_err(|e| {
                ExecError::Internal(format!(
                    "step concat of feed '{name}' failed after enqueue validation: {e}"
                ))
            })?;
            merged.insert(name.clone(), t);
        }

        let seq = self.step_seq.fetch_add(1, Ordering::Relaxed);
        let base = match self.policy.run_options.tag.as_str() {
            "" => &self.name,
            tag => tag,
        };
        let tag = format!("{base}/{word}-{seq}");
        let options = self.policy.run_options.clone().with_tag(tag.clone());

        let m = &self.metrics;
        let (result, meta) = self.session.run(&options, &merged, &self.fetches);
        m.record_step_latency_us(meta.wall.as_micros() as u64);
        m.retries.fetch_add(meta.retries, Ordering::Relaxed);
        m.fault_events.fetch_add(meta.fault_events.len() as u64, Ordering::Relaxed);
        let outputs = result.inspect_err(|_| {
            m.steps_failed.fetch_add(1, Ordering::Relaxed);
            m.consecutive_step_failures.fetch_add(1, Ordering::Relaxed);
        })?;
        m.consecutive_step_failures.store(0, Ordering::Relaxed);

        // Scatter only the signature fetches; trailing state fetches exist
        // to force the state writes.
        let total: usize = rows.iter().sum();
        let mut sliced = Vec::with_capacity(self.signature.fetches.len());
        for (f, out) in outputs.iter().take(self.signature.fetches.len()).enumerate() {
            if out.shape().is_scalar() || out.shape().dim(0) != total {
                return Err(ExecError::InvalidConfig(format!(
                    "fetch #{f} of model '{}' is not batch-major: got shape {:?}, \
                     expected leading dimension {total}",
                    self.name,
                    out.shape().dims()
                )));
            }
            sliced.push(out.split0(rows).map_err(|e| {
                ExecError::Internal(format!("scattering fetch #{f} of step '{tag}': {e}"))
            })?);
        }
        Ok(Output { sliced, step: meta.step, tag, rows: total })
    }
}

/// Plain-data window onto the private `assemble` policy for the
/// property-based suite in `tests/proptest_serve.rs` (the function and its
/// queue types stay private; this replay harness is the only seam).
/// Hidden from docs; not a stable API.
#[doc(hidden)]
pub mod assemble_testing {
    use super::*;

    /// One queued request: row count, lane, and whether its deadline has
    /// already passed at assembly time.
    #[derive(Clone, Copy, Debug)]
    pub struct Entry {
        /// Rows this request contributes to a batch.
        pub rows: usize,
        /// Interactive lane (drained before the bulk lane) when `true`.
        pub interactive: bool,
        /// Deadline already passed at assembly time.
        pub expired: bool,
    }

    /// What `assemble` did with one entry.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Outcome {
        /// Taken into the batch at this position.
        Batched(usize),
        /// Completed with `DeadlineExceeded`.
        Expired,
        /// Still queued after the sweep.
        Queued,
    }

    /// The harness result: per-entry outcomes (indexed like the input)
    /// plus the row accounting after the sweep.
    #[derive(Debug)]
    pub struct Replay {
        /// Outcome per input entry.
        pub outcomes: Vec<Outcome>,
        /// The `queued_rows` counter after assembly.
        pub queued_rows: usize,
        /// Actual rows still sitting in the two lanes after assembly.
        pub lane_rows: usize,
        /// Rows taken into the assembled batch.
        pub batched_rows: usize,
    }

    /// Replays `entries` through the real `assemble` with row cap
    /// `max_rows`. Panics if an expired entry's completion is missing or
    /// malformed (no `DeadlineExceeded`, or a zero time-past-deadline).
    pub fn replay(entries: &[Entry], max_rows: usize) -> Replay {
        let metrics = ServeMetrics::default();
        let mut state = QueueState::default();
        let now = Instant::now();
        let mut rxs = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let (tx, rx) = oneshot::channel();
            // The entry's index rides along as its feed key so outcomes
            // can be attributed after requests move between queues.
            let mut feeds = HashMap::new();
            feeds.insert(format!("entry-{i}"), Tensor::scalar_f32(i as f32));
            let p = Pending {
                feeds,
                rows: e.rows,
                enqueued: now - Duration::from_millis(10),
                deadline: if e.expired { Some(now - Duration::from_millis(5)) } else { None },
                tx,
            };
            if e.interactive {
                state.interactive.push_back(p);
            } else {
                state.batch.push_back(p);
            }
            state.queued_rows += e.rows;
            rxs.push(rx);
        }
        let batch = assemble(&mut state, max_rows, now, &metrics);

        let index_of = |p: &Pending| -> usize {
            let key = p.feeds.keys().next().expect("harness feed key");
            key.strip_prefix("entry-").expect("harness key form").parse().expect("harness index")
        };
        let mut outcomes = vec![Outcome::Expired; entries.len()];
        let mut batched_rows = 0;
        for (pos, p) in batch.iter().enumerate() {
            outcomes[index_of(p)] = Outcome::Batched(pos);
            batched_rows += p.rows;
        }
        let mut lane_rows = 0;
        for p in state.interactive.iter().chain(state.batch.iter()) {
            outcomes[index_of(p)] = Outcome::Queued;
            lane_rows += p.rows;
        }
        let queued_rows = state.queued_rows;
        // Dropping the queue releases the still-queued senders so the
        // expired completions below are the only pending messages.
        drop(state);
        drop(batch);
        for (i, rx) in rxs.into_iter().enumerate() {
            if outcomes[i] != Outcome::Expired {
                continue;
            }
            match rx.recv() {
                Some(Err(ExecError::DeadlineExceeded { past_deadline, .. })) => {
                    assert!(
                        past_deadline > Duration::ZERO,
                        "expired completion must report time past deadline"
                    );
                }
                other => panic!("entry {i} vanished without DeadlineExceeded: {other:?}"),
            }
        }
        Replay { outcomes, queued_rows, lane_rows, batched_rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_graph::GraphBuilder;
    use dcf_tensor::DType;

    fn pending(
        rows: usize,
        lane_deadline: Option<Instant>,
    ) -> (Pending, oneshot::Receiver<Result<Response>>) {
        let (tx, rx) = oneshot::channel();
        let mut feeds = HashMap::new();
        feeds.insert(
            "x".to_string(),
            Tensor::from_vec_f32(vec![0.0; rows * 2], &[rows, 2]).unwrap(),
        );
        (Pending { feeds, rows, enqueued: Instant::now(), deadline: lane_deadline, tx }, rx)
    }

    #[test]
    fn assembly_prefers_interactive_and_respects_row_cap() {
        let metrics = ServeMetrics::default();
        let mut state = QueueState::default();
        let (b1, _rb1) = pending(2, None);
        let (b2, _rb2) = pending(2, None);
        let (i1, _ri1) = pending(3, None);
        state.batch.push_back(b1);
        state.batch.push_back(b2);
        state.interactive.push_back(i1);
        state.queued_rows = 7;
        let batch = assemble(&mut state, 5, Instant::now(), &metrics);
        // Interactive (3 rows) first, then the first bulk request (2
        // rows); the second bulk request does not fit.
        assert_eq!(batch.iter().map(|p| p.rows).collect::<Vec<_>>(), vec![3, 2]);
        assert_eq!(state.queued_rows, 2);
        assert_eq!(state.batch.len(), 1);
    }

    #[test]
    fn assembly_expires_requests_without_granting_slots() {
        let metrics = ServeMetrics::default();
        let mut state = QueueState::default();
        let past = Instant::now() - Duration::from_millis(1);
        let (dead, rx_dead) = pending(2, Some(past));
        let (live, _rx_live) = pending(2, None);
        state.batch.push_back(dead);
        state.batch.push_back(live);
        state.queued_rows = 4;
        let batch = assemble(&mut state, 2, Instant::now(), &metrics);
        // The expired request was skipped (completed with an error), and
        // the live one behind it took the slot it would have occupied.
        assert_eq!(batch.len(), 1);
        assert!(batch[0].deadline.is_none());
        assert_eq!(metrics.expired.load(Ordering::Relaxed), 1);
        drop(batch);
        match rx_dead.recv() {
            Some(Err(ExecError::DeadlineExceeded { .. })) => {}
            other => panic!("expired request got {other:?}"),
        }
    }

    #[test]
    fn head_of_line_blocking_stays_fifo_within_a_lane() {
        let metrics = ServeMetrics::default();
        let mut state = QueueState::default();
        let (big, _r1) = pending(4, None);
        let (small, _r2) = pending(1, None);
        state.batch.push_back(big);
        state.batch.push_back(small);
        state.queued_rows = 5;
        // Cap 3: the 4-row head does not fit, and the 1-row request behind
        // it must NOT overtake (FIFO within a lane).
        let batch = assemble(&mut state, 3, Instant::now(), &metrics);
        assert!(batch.is_empty());
        assert_eq!(state.batch.len(), 2);
        assert_eq!(state.queued_rows, 5);
    }

    #[test]
    fn expired_request_behind_blocked_front_is_swept() {
        let metrics = ServeMetrics::default();
        let mut state = QueueState::default();
        let past = Instant::now() - Duration::from_millis(5);
        let (big, _r_big) = pending(4, None);
        let (dead, rx_dead) = pending(2, Some(past));
        state.batch.push_back(big);
        state.batch.push_back(dead);
        state.queued_rows = 6;
        // Cap 3: the live 4-row front does not fit, so nothing assembles —
        // but the expired request parked behind it must still be swept.
        let batch = assemble(&mut state, 3, Instant::now(), &metrics);
        assert!(batch.is_empty());
        assert_eq!(state.batch.len(), 1, "only the live front remains queued");
        assert_eq!(state.queued_rows, 4, "the expired request released its rows");
        assert_eq!(metrics.expired.load(Ordering::Relaxed), 1);
        // Capacity the expired request held is admittable again: with
        // queue_capacity 5, a 1-row submit would have been rejected as
        // Overloaded while the stranded rows were still counted (4 + 2 + 1
        // > 5); after the sweep it fits.
        assert!(state.queued_rows < 5);
        // The batcher's park deadline no longer points at the past-due
        // deadline of a request that will never be re-examined.
        assert_eq!(state.earliest_deadline(), None);
        // The completion reports queue wait and time-past-deadline
        // separately: this request was enqueued just now but its deadline
        // passed 5ms ago.
        match rx_dead.recv() {
            Some(Err(ExecError::DeadlineExceeded { waited, past_deadline })) => {
                assert!(past_deadline >= Duration::from_millis(5), "got {past_deadline:?}");
                assert!(waited < past_deadline, "waited {waited:?} vs {past_deadline:?}");
            }
            other => panic!("expired request got {other:?}"),
        }
    }

    #[test]
    fn expiry_sweep_preserves_fifo_among_live_requests() {
        let metrics = ServeMetrics::default();
        let mut state = QueueState::default();
        let past = Instant::now() - Duration::from_millis(1);
        let (a, _ra) = pending(2, None);
        let (dead, rx_dead) = pending(3, Some(past));
        let (b, _rb) = pending(2, None);
        let (c, _rc) = pending(1, None);
        state.batch.push_back(a);
        state.batch.push_back(dead);
        state.batch.push_back(b);
        state.batch.push_back(c);
        state.queued_rows = 8;
        // Cap 3: `a` (2 rows) is taken, the expired 3-row request is swept,
        // `b` (2 rows) does not fit — and `c` (1 row) must NOT overtake it
        // even though it would fit.
        let batch = assemble(&mut state, 3, Instant::now(), &metrics);
        assert_eq!(batch.iter().map(|p| p.rows).collect::<Vec<_>>(), vec![2]);
        assert_eq!(state.batch.iter().map(|p| p.rows).collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(state.queued_rows, 3);
        assert!(matches!(rx_dead.recv(), Some(Err(ExecError::DeadlineExceeded { .. }))));
    }

    fn double_model() -> (Arc<Session>, ModelSignature) {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let two = b.scalar_f32(2.0);
        let y = b.mul(x, two).unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[2]).fetch(y);
        let sess = Arc::new(Session::local(b.finish().unwrap()).unwrap());
        (sess, sig)
    }

    #[test]
    fn batcher_serves_and_scatters() {
        let (sess, sig) = double_model();
        let batcher = Batcher::new(
            "double",
            sess,
            sig,
            BatchPolicy { max_queue_delay: Duration::from_millis(1), ..BatchPolicy::default() },
        )
        .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".into(), Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let resp = batcher.run(Request::new(feeds)).unwrap();
        assert_eq!(resp.outputs.len(), 1);
        assert_eq!(resp.outputs[0].shape().dims(), &[2, 2]);
        assert_eq!(resp.outputs[0].as_f32_slice().unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert!(resp.tag.starts_with("double/batch-"));
        assert!(resp.step > 0);
        let snap = batcher.snapshot();
        assert_eq!(snap.served, 1);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batched_rows, 2);
    }

    #[test]
    fn oversized_request_and_bad_policy_are_invalid_config() {
        let (sess, sig) = double_model();
        assert!(matches!(
            Batcher::new(
                "m",
                sess.clone(),
                sig.clone(),
                BatchPolicy { max_batch_size: 0, ..BatchPolicy::default() }
            ),
            Err(ExecError::InvalidConfig(_))
        ));
        assert!(matches!(
            Batcher::new(
                "m",
                sess.clone(),
                sig.clone(),
                BatchPolicy { max_batch_size: 8, queue_capacity: 4, ..BatchPolicy::default() }
            ),
            Err(ExecError::InvalidConfig(_))
        ));
        let batcher = Batcher::new(
            "m",
            sess,
            sig,
            BatchPolicy { max_batch_size: 2, ..BatchPolicy::default() },
        )
        .unwrap();
        let mut feeds = HashMap::new();
        feeds.insert("x".into(), Tensor::from_vec_f32(vec![0.0; 6], &[3, 2]).unwrap());
        assert!(matches!(
            batcher.submit(Request::new(feeds)).unwrap_err(),
            ExecError::InvalidConfig(_)
        ));
    }
}
