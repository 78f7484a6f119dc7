//! Streaming stateful inference: sticky stream sessions and the stream
//! queue of the per-replica [`Batcher`].
//!
//! A request batcher serves stateless request/response traffic: any
//! request can ride any batch on any replica. A *stream* is different —
//! it owns in-graph state (an RNN decoder's hidden state) that must
//! persist across submissions, so a stream is **sticky**: opened against
//! one replica, whose session holds a per-stream state slot (minted from
//! the executor's `ResourceManager`, ids never reused) for each declared
//! state cell.
//!
//! On a stream model, each replica's [`Batcher`] runs one *iteration* per
//! `Session::run`: a `[B, …]` batch with exactly one row per
//! participating stream, plus a batcher-fed `[B]` `i64` slots tensor the
//! graph's `StreamStateRead`/`StreamStateWrite` ops gather and scatter
//! state through. Batch membership is recomputed **between iterations** —
//! a stream that joins is gathered into the very next iteration, and a
//! stream that finishes is compacted out — instead of the stop-the-world
//! alternative (freeze a batch, run every member to completion, only then
//! admit waiters). That is the serving-side mirror of the paper's dynamic
//! control flow: work enters and leaves the computation at iteration
//! granularity, not step granularity.
//!
//! The worker loop and step runner are the batcher's; this module holds
//! the stream queue: rows are taken one per live stream, rotated fairly
//! past the row cap, accumulate into their chunk's [`StreamResponse`],
//! and a failed iteration destroys its streams.
//!
//! Structured failure surface:
//!
//! * [`ExecError::Overloaded`] — opening a stream beyond
//!   [`StreamSpec::max_streams`], or submitting past
//!   [`StreamSpec::queue_capacity`] queued rows;
//! * [`ExecError::DeadlineExceeded`] — a stream's deadline passed; its
//!   pending rows fail and the stream is retired;
//! * [`ExecError::StreamClosed`] — any use of a stream that no longer
//!   exists: client-closed, deadline-retired, destroyed by a failed
//!   iteration (state integrity is lost mid-decode), or its replica was
//!   evicted/retired.
//!
//! Dropping the last handle (model unload) **drains**: no new streams or
//! rows are admitted, pending rows keep being served iteration by
//! iteration until every accepted submission has completed, then the
//! remaining slots are dropped and the worker exits.

use crate::batcher::{
    Batcher, Members, Mode, Output, Queue, Readiness, Shared, Taken, SHUTDOWN_MSG,
};
use crate::oneshot;
use crate::signature::ModelSignature;
use crate::Result;
use dcf_exec::ExecError;
use dcf_graph::{Graph, OpKind, TensorRef};
use dcf_tensor::{DType, Tensor};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why the streams of a retired (evicted or scaled-down) replica closed.
const RETIRED_MSG: &str = "replica retired";

/// How a model serves streams: which placeholder carries the per-row
/// stream slots, which state cells a new stream starts with, and the
/// admission/batching knobs of the continuous batcher.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Name of the `i64` placeholder the batcher feeds with the `[B]`
    /// stream-slot handles of the iteration's participants. Must name a
    /// placeholder in the graph and must **not** appear in the serving
    /// signature (clients never feed it).
    pub slots_feed: String,
    /// Per-stream state cells as `(name, row dims)`. A freshly opened
    /// stream starts every cell at `f32` zeros of `[1] + dims`.
    pub state_cells: Vec<(String, Vec<usize>)>,
    /// Extra tensors fetched by every iteration besides the signature
    /// fetches — the `StreamStateWrite` passthroughs, so fetching them
    /// forces the state writes. Their outputs are not returned to
    /// clients.
    pub state_fetches: Vec<TensorRef>,
    /// Maximum live streams per replica; `open` beyond it is rejected
    /// with [`ExecError::Overloaded`].
    pub max_streams: usize,
    /// Maximum rows (= participating streams) per iteration. When more
    /// streams have pending rows, a rotating cursor shares iterations
    /// fairly.
    pub max_iteration_rows: usize,
    /// Bound on queued rows across all of a replica's streams; submits
    /// beyond it are rejected with [`ExecError::Overloaded`].
    pub queue_capacity: usize,
    /// How long the worker lingers for co-batchable rows before running
    /// an under-full iteration. A stream mid-chunk never lingers: its
    /// next row dispatches immediately.
    pub iteration_delay: Duration,
}

impl StreamSpec {
    /// A spec reading stream slots from placeholder `slots_feed`, with
    /// default knobs and no state cells yet (add them with
    /// [`StreamSpec::with_cell`]).
    pub fn new(slots_feed: impl Into<String>) -> StreamSpec {
        StreamSpec {
            slots_feed: slots_feed.into(),
            state_cells: Vec::new(),
            state_fetches: Vec::new(),
            max_streams: 64,
            max_iteration_rows: 16,
            queue_capacity: 1024,
            iteration_delay: Duration::from_micros(500),
        }
    }

    /// Adds a state cell (builder style): `dims` is the per-stream row
    /// shape, without the leading slot axis.
    pub fn with_cell(mut self, name: impl Into<String>, dims: &[usize]) -> StreamSpec {
        self.state_cells.push((name.into(), dims.to_vec()));
        self
    }

    /// Adds a force-fetched tensor (builder style) — typically a
    /// `StreamStateWrite` passthrough.
    pub fn with_state_fetch(mut self, t: TensorRef) -> StreamSpec {
        self.state_fetches.push(t);
        self
    }

    /// Sets the per-replica live-stream cap (builder style).
    pub fn with_max_streams(mut self, n: usize) -> StreamSpec {
        self.max_streams = n;
        self
    }

    /// Sets the per-iteration row cap (builder style).
    pub fn with_iteration_rows(mut self, n: usize) -> StreamSpec {
        self.max_iteration_rows = n;
        self
    }

    /// Sets the queued-rows bound (builder style).
    pub fn with_queue_capacity(mut self, rows: usize) -> StreamSpec {
        self.queue_capacity = rows;
        self
    }

    /// Sets the co-batching linger (builder style).
    pub fn with_iteration_delay(mut self, d: Duration) -> StreamSpec {
        self.iteration_delay = d;
        self
    }

    /// Graph-independent invariants, re-checked at batcher construction.
    pub(crate) fn check_basic(&self) -> Result<()> {
        if self.max_streams == 0 {
            return Err(ExecError::InvalidConfig("stream max_streams is 0".into()));
        }
        if self.max_iteration_rows == 0 {
            return Err(ExecError::InvalidConfig("stream max_iteration_rows is 0".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ExecError::InvalidConfig("stream queue_capacity is 0".into()));
        }
        if self.state_cells.is_empty() {
            return Err(ExecError::InvalidConfig(
                "stream spec declares no state cells: nothing is sticky".into(),
            ));
        }
        for (i, (name, _)) in self.state_cells.iter().enumerate() {
            if self.state_cells[..i].iter().any(|(n, _)| n == name) {
                return Err(ExecError::InvalidConfig(format!(
                    "stream spec declares state cell '{name}' twice"
                )));
            }
        }
        Ok(())
    }

    /// Full validation against the model's graph and serving signature,
    /// run at registration so a bad streaming model fails before any
    /// client opens a stream.
    pub(crate) fn check(&self, graph: &Graph, signature: &ModelSignature) -> Result<()> {
        self.check_basic()?;
        let mut found = None;
        for node in graph.nodes() {
            if let OpKind::Placeholder { name, dtype, .. } = &node.op {
                if name == &self.slots_feed {
                    found = Some(*dtype);
                }
            }
        }
        match found {
            None => {
                return Err(ExecError::InvalidConfig(format!(
                    "stream slots feed '{}' names no placeholder in the graph",
                    self.slots_feed
                )))
            }
            Some(dt) if dt != DType::I64 => {
                return Err(ExecError::InvalidConfig(format!(
                    "stream slots feed '{}' must be an I64 placeholder, found {dt:?}",
                    self.slots_feed
                )))
            }
            Some(_) => {}
        }
        if signature.feeds.iter().any(|f| f.name == self.slots_feed) {
            return Err(ExecError::InvalidConfig(format!(
                "stream slots feed '{}' is also a signature feed; clients must not feed it",
                self.slots_feed
            )));
        }
        for t in &self.state_fetches {
            if t.node.0 >= graph.nodes().len() {
                return Err(ExecError::InvalidConfig(format!(
                    "stream state fetch references node {} outside the graph",
                    t.node.0
                )));
            }
        }
        Ok(())
    }
}

/// What a completed stream submission returns.
#[derive(Clone, Debug)]
pub struct StreamResponse {
    /// One tensor per signature fetch, the per-iteration rows of this
    /// submission concatenated back in order: shape `[rows] + …`.
    pub outputs: Vec<Tensor>,
    /// Rows (= iterations) this submission spanned.
    pub rows: usize,
    /// Time from enqueue until the first row was gathered into an
    /// iteration.
    pub queue_delay: Duration,
    /// Step id of the iteration that served the final row.
    pub last_step: u64,
    /// Tag of that final iteration (e.g. `"decoder[r0]/iter-17"`).
    pub tag: String,
}

/// A submitted stream chunk's completion handle.
pub struct StreamTicket {
    rx: oneshot::Receiver<Result<StreamResponse>>,
}

impl std::fmt::Debug for StreamTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StreamTicket")
    }
}

impl StreamTicket {
    /// Blocks until every row of the submission has been served (or the
    /// stream failed).
    pub fn wait(self) -> Result<StreamResponse> {
        self.rx.recv().unwrap_or_else(|| {
            Err(ExecError::Internal(
                "stream batcher dropped the submission without completing it".into(),
            ))
        })
    }
}

/// One submitted chunk: `rows` decode steps served over `rows`
/// successive iterations.
struct Chunk {
    /// `row_feeds[t][f]` = row `t`'s tensor for signature feed `f`
    /// (shape `[1] + example_dims`), pre-split at submit.
    row_feeds: Vec<Vec<Tensor>>,
    /// Served outputs per signature fetch, accumulated row by row.
    acc: Vec<Vec<Tensor>>,
    /// Rows already gathered into an iteration (the queue's consumed
    /// prefix). `acc` trails it by at most the in-flight row.
    next_row: usize,
    enqueued: Instant,
    first_gather: Option<Instant>,
    tx: oneshot::Sender<Result<StreamResponse>>,
}

impl Chunk {
    fn rows(&self) -> usize {
        self.row_feeds.len()
    }
}

/// One live stream's queue and lifecycle flags.
struct LiveStream {
    pending: VecDeque<Chunk>,
    deadline: Option<Instant>,
    /// Client closed the stream; it retires once `pending` drains.
    closing: bool,
    /// The stream's `[1]` slot-id row for the slots feed.
    slot_row: Tensor,
}

/// A slot's entry: live, or a tombstone carrying why it closed (so a
/// late submit gets a precise [`ExecError::StreamClosed`]; the handle's
/// drop reaps the tombstone).
enum Entry {
    Live(LiveStream),
    Closed(String),
}

/// The stream queue of a batcher: every live stream's pending chunks.
pub(crate) struct StreamQueue {
    spec: StreamSpec,
    streams: HashMap<u64, Entry>,
    /// Admission order of live slots; gather iterates it (rotated by
    /// `cursor` when over the row cap) so batch order is deterministic
    /// and fair.
    order: Vec<u64>,
    cursor: usize,
    /// Unserved rows across all streams (the `queue_capacity` counter).
    queued_rows: usize,
}

impl StreamQueue {
    pub(crate) fn new(spec: StreamSpec) -> StreamQueue {
        StreamQueue { spec, streams: HashMap::new(), order: Vec::new(), cursor: 0, queued_rows: 0 }
    }

    /// Retires live stream `slot`: drops its state, takes its pending rows
    /// off the queue and leaves a tombstone saying `why` (none for a
    /// stream the client closed). Returns the pending chunks for the
    /// caller to fail.
    fn retire(&mut self, slot: u64, why: Option<String>, b: &Shared) -> VecDeque<Chunk> {
        let Some(Entry::Live(live)) = self.streams.remove(&slot) else { return VecDeque::new() };
        self.order.retain(|&x| x != slot);
        b.session.resources().stream_drop(slot);
        let m = &b.metrics;
        m.streams_retired.fetch_add(1, Ordering::Relaxed);
        m.active_streams.fetch_sub(1, Ordering::Relaxed);
        for chunk in &live.pending {
            let remaining = chunk.rows() - chunk.next_row;
            self.queued_rows -= remaining;
            m.queued_rows.fetch_sub(remaining as u64, Ordering::Relaxed);
        }
        if let Some(why) = why {
            self.streams.insert(slot, Entry::Closed(why));
        }
        live.pending
    }

    /// Expires past-deadline streams (failing their pending rows) and
    /// retires drained closing streams. Runs between iterations.
    pub(crate) fn sweep(&mut self, now: Instant, b: &Shared) {
        let m = &b.metrics;
        let expired: Vec<(u64, Instant)> = self
            .order
            .iter()
            .filter_map(|slot| match self.streams.get(slot) {
                Some(Entry::Live(s)) => s.deadline.filter(|d| *d <= now).map(|d| (*slot, d)),
                _ => None,
            })
            .collect();
        for (slot, deadline) in expired {
            m.streams_expired.fetch_add(1, Ordering::Relaxed);
            for chunk in self.retire(slot, Some("stream deadline exceeded".into()), b) {
                m.expired.fetch_add(1, Ordering::Relaxed);
                chunk.tx.send(Err(ExecError::DeadlineExceeded {
                    waited: now.saturating_duration_since(chunk.enqueued),
                    past_deadline: now.saturating_duration_since(deadline),
                }));
            }
        }
        let drained: Vec<u64> = self
            .order
            .iter()
            .copied()
            .filter(|slot| {
                matches!(self.streams.get(slot),
                    Some(Entry::Live(s)) if s.closing && s.pending.is_empty())
            })
            .collect();
        for slot in drained {
            self.retire(slot, None, b);
        }
    }

    /// Live streams with an ungathered row, in admission order, with
    /// their front chunk.
    fn eligible(&self) -> impl Iterator<Item = (u64, &Chunk)> {
        self.order.iter().filter_map(|&slot| match self.streams.get(&slot) {
            Some(Entry::Live(s)) => {
                s.pending.front().filter(|c| c.next_row < c.rows()).map(|c| (slot, c))
            }
            _ => None,
        })
    }

    /// Streams linger for co-batchable rows only while no stream is
    /// part-way through a chunk and the row cap is not reached.
    pub(crate) fn readiness(&self) -> Readiness {
        let mut n = 0;
        let mut oldest: Option<Instant> = None;
        let mut started = false;
        for (_, c) in self.eligible() {
            n += 1;
            if c.first_gather.is_some() {
                started = true;
            } else {
                oldest = Some(oldest.map_or(c.enqueued, |o: Instant| o.min(c.enqueued)));
            }
        }
        Readiness {
            ready: n > 0,
            urgent: started || n >= self.spec.max_iteration_rows,
            linger_until: oldest.map(|o| o + self.spec.iteration_delay),
            deadline: self.earliest_deadline(),
        }
    }

    /// Earliest deadline across live streams (pending or idle — an idle
    /// expired stream must still be retired promptly).
    fn earliest_deadline(&self) -> Option<Instant> {
        self.order
            .iter()
            .filter_map(|slot| match self.streams.get(slot) {
                Some(Entry::Live(s)) => s.deadline,
                _ => None,
            })
            .min()
    }

    /// Takes one row from each eligible stream (rotating past the row
    /// cap), consuming queue accounting.
    pub(crate) fn take(&mut self, now: Instant, b: &Shared) -> Option<Taken> {
        let eligible: Vec<u64> = self.eligible().map(|(slot, _)| slot).collect();
        let cap = self.spec.max_iteration_rows;
        let take: Vec<u64> = if eligible.len() > cap {
            let start = self.cursor % eligible.len();
            let picked = (0..cap).map(|k| eligible[(start + k) % eligible.len()]).collect();
            self.cursor = self.cursor.wrapping_add(cap);
            picked
        } else {
            eligible
        };
        if take.is_empty() {
            return None;
        }
        let m = &b.metrics;
        // One part list per step feed: the signature feeds, then slots.
        let mut parts: Vec<Vec<Tensor>> =
            vec![Vec::with_capacity(take.len()); b.signature.feeds.len() + 1];
        for slot in &take {
            let Some(Entry::Live(s)) = self.streams.get_mut(slot) else { continue };
            let chunk = s.pending.front_mut().expect("eligible stream has a front chunk");
            if chunk.first_gather.is_none() {
                chunk.first_gather = Some(now);
                m.record_queue_delay_us(
                    now.saturating_duration_since(chunk.enqueued).as_micros() as u64
                );
            }
            let row = chunk.row_feeds[chunk.next_row].iter().chain([&s.slot_row]);
            for (per_feed, t) in parts.iter_mut().zip(row) {
                per_feed.push(t.clone());
            }
            chunk.next_row += 1;
            self.queued_rows -= 1;
        }
        let n = take.len() as u64;
        m.stream_iterations.fetch_add(1, Ordering::Relaxed);
        m.stream_rows.fetch_add(n, Ordering::Relaxed);
        m.record_iteration_rows(n);
        Some(Taken { parts, rows: vec![1; take.len()], members: Members::Streams(take) })
    }

    /// Appends one iteration's row to each participant's front chunk,
    /// completing chunks whose every row has been served.
    pub(crate) fn deliver(&mut self, slots: &[u64], out: &Output, b: &Shared) {
        for (r, slot) in slots.iter().enumerate() {
            let Some(Entry::Live(live)) = self.streams.get_mut(slot) else { continue };
            let Some(chunk) = live.pending.front_mut() else { continue };
            for (f, parts) in out.sliced.iter().enumerate() {
                chunk.acc[f].push(parts[r].clone());
            }
            if chunk.acc[0].len() < chunk.rows() {
                continue;
            }
            let chunk = live.pending.pop_front().expect("front exists");
            let outs: std::result::Result<Vec<Tensor>, _> =
                chunk.acc.iter().map(|rows| Tensor::concat0(rows)).collect();
            match outs {
                Ok(outputs) => {
                    b.metrics.served.fetch_add(1, Ordering::Relaxed);
                    let first = chunk.first_gather.unwrap_or(chunk.enqueued);
                    chunk.tx.send(Ok(StreamResponse {
                        outputs,
                        rows: chunk.row_feeds.len(),
                        queue_delay: first.saturating_duration_since(chunk.enqueued),
                        last_step: out.step,
                        tag: out.tag.clone(),
                    }));
                }
                Err(e) => {
                    b.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    chunk.tx.send(Err(ExecError::Internal(format!(
                        "reassembling stream outputs: {e}"
                    ))));
                }
            }
        }
    }

    /// A failed iteration destroys the participating streams: their
    /// state slots may hold a half-applied update, so transparent
    /// continuation is impossible. Pending chunks fail with the step's
    /// error; tombstones make later submits a structured
    /// [`ExecError::StreamClosed`].
    pub(crate) fn fail(&mut self, slots: &[u64], err: &ExecError, b: &Shared) {
        for &slot in slots {
            let why = format!("a batched iteration failed: {err}");
            for chunk in self.retire(slot, Some(why), b) {
                b.metrics.failed.fetch_add(1, Ordering::Relaxed);
                chunk.tx.send(Err(err.clone()));
            }
        }
    }

    /// Fails every live stream with `StreamClosed` and drops every slot:
    /// the worker is exiting.
    pub(crate) fn fail_all(&mut self, b: &Shared) {
        for slot in self.order.clone() {
            for chunk in self.retire(slot, None, b) {
                b.metrics.failed.fetch_add(1, Ordering::Relaxed);
                chunk.tx.send(Err(ExecError::StreamClosed(RETIRED_MSG.into())));
            }
        }
        self.streams.clear();
    }
}

/// The stream half of the batcher's API, used by [`StreamHandle`] and the
/// replica router.
impl Batcher {
    /// Live streams on this batcher — the signal stream routing compares.
    pub(crate) fn active_streams(&self) -> u64 {
        self.shared.metrics.active_streams.load(Ordering::Relaxed)
    }

    /// Runs `f` on the stream queue, after checking the batcher still
    /// admits work and serves streams at all.
    fn with_streams<T>(&self, f: impl FnOnce(&mut StreamQueue) -> Result<T>) -> Result<T> {
        let b = &self.shared;
        let mut st = b.state.lock();
        let mode = st.mode;
        let Queue::Streams(q) = &mut st.queue else {
            return Err(ExecError::InvalidConfig(format!(
                "model '{}' was registered without a stream spec",
                b.name
            )));
        };
        match mode {
            Mode::Running => f(q),
            Mode::Draining => Err(ExecError::Cancelled(SHUTDOWN_MSG.into())),
            Mode::Closed => Err(ExecError::StreamClosed(RETIRED_MSG.into())),
        }
    }

    /// Opens a stream: mints a state slot, zero-initializes every
    /// declared cell, and admits the stream into the iteration loop.
    /// Returns the slot id. Rejects with [`ExecError::Overloaded`] at
    /// the live-stream cap.
    pub(crate) fn open_stream(&self, deadline: Option<Instant>) -> Result<u64> {
        let b = &self.shared;
        let m = &b.metrics;
        let slot = self.with_streams(|q| {
            if q.order.len() >= q.spec.max_streams {
                m.streams_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ExecError::Overloaded(format!(
                    "model '{}' already serves {} of {} streams",
                    b.name,
                    q.order.len(),
                    q.spec.max_streams
                )));
            }
            let rm = b.session.resources();
            let slot = rm.stream_create();
            for (cell, dims) in &q.spec.state_cells {
                let mut row = vec![1];
                row.extend(dims);
                if let Err(e) = rm.stream_init_cell(slot, cell, Tensor::zeros(DType::F32, &row)) {
                    rm.stream_drop(slot);
                    return Err(ExecError::Internal(format!(
                        "initializing stream state cell '{cell}': {e}"
                    )));
                }
            }
            let slot_row = Tensor::from_vec_i64(vec![slot as i64], &[1])
                .map_err(|e| ExecError::Internal(format!("building stream slot row: {e}")))?;
            q.streams.insert(
                slot,
                Entry::Live(LiveStream {
                    pending: VecDeque::new(),
                    deadline,
                    closing: false,
                    slot_row,
                }),
            );
            q.order.push(slot);
            m.streams_opened.fetch_add(1, Ordering::Relaxed);
            m.active_streams.fetch_add(1, Ordering::Relaxed);
            Ok(slot)
        })?;
        // Wake the worker so a fresh deadline enters its park target.
        b.cv.notify_all();
        Ok(slot)
    }

    /// Validates and enqueues `feeds` (each `[rows] + example_dims`) on
    /// stream `stream`; the rows are served over `rows` successive
    /// iterations.
    pub(crate) fn submit_stream(
        &self,
        stream: u64,
        feeds: HashMap<String, Tensor>,
    ) -> Result<StreamTicket> {
        let b = &self.shared;
        let m = &b.metrics;
        let rows = b.signature.validate(&feeds).inspect_err(|_| {
            m.rejected_shape.fetch_add(1, Ordering::Relaxed);
        })?;
        // Pre-split into per-row feeds outside the lock; the gather path
        // then only clones tensor handles.
        let mut row_feeds: Vec<Vec<Tensor>> = vec![Vec::new(); rows];
        for spec in &b.signature.feeds {
            let t = feeds.get(&spec.name).expect("validated above");
            let parts = t.split0(&vec![1; rows]).map_err(|e| {
                ExecError::Internal(format!("splitting stream feed '{}': {e}", spec.name))
            })?;
            for (i, p) in parts.into_iter().enumerate() {
                row_feeds[i].push(p);
            }
        }
        let (tx, rx) = oneshot::channel();
        self.with_streams(|q| {
            let queued = q.queued_rows;
            let entry = q.streams.get_mut(&stream).ok_or_else(|| {
                ExecError::StreamClosed(format!("no stream {stream} on model '{}'", b.name))
            })?;
            let live = match entry {
                Entry::Closed(r) => return Err(ExecError::StreamClosed(r.clone())),
                Entry::Live(s) => s,
            };
            if live.closing {
                return Err(ExecError::StreamClosed("stream closed by the client".into()));
            }
            if queued + rows > q.spec.queue_capacity {
                m.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Err(ExecError::Overloaded(format!(
                    "model '{}' stream queue is full ({queued} of {} rows)",
                    b.name, q.spec.queue_capacity
                )));
            }
            live.pending.push_back(Chunk {
                row_feeds,
                acc: vec![Vec::new(); b.signature.fetches.len()],
                next_row: 0,
                enqueued: Instant::now(),
                first_gather: None,
                tx,
            });
            q.queued_rows += rows;
            m.queued_rows.fetch_add(rows as u64, Ordering::Relaxed);
            Ok(())
        })?;
        m.submitted.fetch_add(1, Ordering::Relaxed);
        m.stream_submits.fetch_add(1, Ordering::Relaxed);
        b.cv.notify_all();
        Ok(StreamTicket { rx })
    }

    /// Closes a stream. Pending rows still complete; the stream retires
    /// (slot dropped) once drained.
    pub(crate) fn close_stream(&self, stream: u64) {
        let b = &self.shared;
        {
            let mut st = b.state.lock();
            let Queue::Streams(q) = &mut st.queue else { return };
            match q.streams.get_mut(&stream) {
                None => {}
                Some(Entry::Closed(_)) => {
                    // The handle is gone; nobody will ask why it closed.
                    q.streams.remove(&stream);
                }
                Some(Entry::Live(live)) => {
                    if live.pending.is_empty() {
                        q.retire(stream, None, b);
                    } else {
                        live.closing = true;
                    }
                }
            }
        }
        b.cv.notify_all();
    }
}

/// A sticky stream session: pinned to one replica, whose in-graph state
/// persists across [`StreamHandle::submit`] calls. Obtained from
/// [`crate::ModelHandle::open_stream`]. Dropping the handle closes the
/// stream (pending rows still complete).
pub struct StreamHandle {
    worker: Arc<Batcher>,
    stream: u64,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle").field("stream", &self.stream).finish()
    }
}

impl StreamHandle {
    pub(crate) fn attach(worker: Arc<Batcher>, stream: u64) -> StreamHandle {
        StreamHandle { worker, stream }
    }

    /// The stream's slot id (unique per replica session, never reused).
    pub fn id(&self) -> u64 {
        self.stream
    }

    /// Enqueues `feeds` (each `[rows] + example_dims`); the rows are
    /// decoded over `rows` successive iterations against this stream's
    /// state.
    pub fn submit(&self, feeds: HashMap<String, Tensor>) -> Result<StreamTicket> {
        self.worker.submit_stream(self.stream, feeds)
    }

    /// [`StreamHandle::submit`] then block for the response.
    pub fn send(&self, feeds: HashMap<String, Tensor>) -> Result<StreamResponse> {
        self.submit(feeds)?.wait()
    }

    /// Closes the stream explicitly (equivalent to dropping the handle):
    /// pending rows still complete, then the state slot is dropped.
    pub fn close(self) {}
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        self.worker.close_stream(self.stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchPolicy;
    use dcf_graph::GraphBuilder;
    use dcf_runtime::Session;

    /// A running-sum model: y = acc + x, with the sum written back to
    /// the per-stream cell — the smallest model whose outputs prove
    /// state stickiness (each response depends on the stream's whole
    /// history).
    fn acc_batcher(spec: StreamSpec) -> Batcher {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let slots = b.placeholder("slots", DType::I64);
        let acc = b.stream_state_read(slots, "acc").unwrap();
        let y = b.add(acc, x).unwrap();
        let w = b.stream_state_write(slots, y, "acc").unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[1]).fetch(y);
        let spec = spec.with_cell("acc", &[1]).with_state_fetch(w);
        let sess = Arc::new(Session::local(b.finish().unwrap()).unwrap());
        Batcher::start("acc".into(), sess, sig, BatchPolicy::default(), Some(spec)).unwrap()
    }

    fn rows(vals: &[f32]) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert("x".into(), Tensor::from_vec_f32(vals.to_vec(), &[vals.len(), 1]).unwrap());
        m
    }

    #[test]
    fn streams_are_sticky_and_transparent() {
        let cb = acc_batcher(StreamSpec::new("slots"));
        let a = cb.open_stream(None).unwrap();
        let b = cb.open_stream(None).unwrap();
        assert_eq!(cb.active_streams(), 2);

        // Both streams in flight together; each must see only its own
        // running sum whatever batches they shared.
        let ta = cb.submit_stream(a, rows(&[1.0, 2.0, 3.0])).unwrap();
        let tb = cb.submit_stream(b, rows(&[10.0])).unwrap();
        let ra = ta.wait().unwrap();
        assert_eq!(ra.rows, 3);
        assert_eq!(ra.outputs[0].as_f32_slice().unwrap(), &[1.0, 3.0, 6.0]);
        assert!(ra.tag.contains("/iter-"), "{}", ra.tag);
        let rb = tb.wait().unwrap();
        assert_eq!(rb.outputs[0].as_f32_slice().unwrap(), &[10.0]);

        // State persists across submits: stream b continues from 10.
        let rb2 = cb.submit_stream(b, rows(&[20.0])).unwrap().wait().unwrap();
        assert_eq!(rb2.outputs[0].as_f32_slice().unwrap(), &[30.0]);

        let m = cb.metrics();
        assert!(m.stream_iterations.load(Ordering::Relaxed) >= 3);
        assert_eq!(m.stream_rows.load(Ordering::Relaxed), 5);
        assert_eq!(m.served.load(Ordering::Relaxed), 3);

        cb.close_stream(a);
        cb.close_stream(b);
        assert_eq!(cb.active_streams(), 0);
        assert_eq!(m.streams_retired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn overload_and_closed_are_structured() {
        let cb = acc_batcher(StreamSpec::new("slots").with_max_streams(1).with_queue_capacity(2));
        let a = cb.open_stream(None).unwrap();
        assert!(matches!(cb.open_stream(None).unwrap_err(), ExecError::Overloaded(_)));
        assert_eq!(cb.metrics().streams_rejected.load(Ordering::Relaxed), 1);
        // Queue bound is in rows.
        assert!(matches!(
            cb.submit_stream(a, rows(&[1.0, 2.0, 3.0])).unwrap_err(),
            ExecError::Overloaded(_)
        ));
        // A closed stream rejects with StreamClosed; an unknown slot too.
        cb.close_stream(a);
        assert!(matches!(
            cb.submit_stream(a, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
        assert!(matches!(
            cb.submit_stream(999, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
    }

    #[test]
    fn deadline_retires_the_stream() {
        let cb = acc_batcher(StreamSpec::new("slots"));
        let s = cb.open_stream(Some(Instant::now() + Duration::from_millis(5))).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        // Whether the sweep beat the submit or not, the outcome is
        // structured: the pending rows expire or the submit is rejected.
        match cb.submit_stream(s, rows(&[1.0])) {
            Ok(t) => match t.wait() {
                Err(ExecError::DeadlineExceeded { .. }) | Err(ExecError::StreamClosed(_)) => {}
                other => panic!("expired stream returned {other:?}"),
            },
            Err(ExecError::StreamClosed(_)) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
        // Give the worker a moment to sweep if it has not yet.
        for _ in 0..100 {
            if cb.metrics().streams_expired.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cb.metrics().streams_expired.load(Ordering::Relaxed), 1);
        assert!(matches!(
            cb.submit_stream(s, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
    }

    #[test]
    fn dropping_the_batcher_drains_pending_rows() {
        let cb = acc_batcher(StreamSpec::new("slots"));
        let s = cb.open_stream(None).unwrap();
        let t = cb.submit_stream(s, rows(&[1.0, 2.0, 3.0])).unwrap();
        drop(cb); // Drain: accepted rows complete, then the worker exits.
        let r = t.wait().unwrap();
        assert_eq!(r.outputs[0].as_f32_slice().unwrap(), &[1.0, 3.0, 6.0]);
    }

    #[test]
    fn closing_the_batcher_fails_streams_with_stream_closed() {
        let cb = acc_batcher(StreamSpec::new("slots").with_iteration_delay(Duration::from_secs(5)));
        let s = cb.open_stream(None).unwrap();
        // Long linger so the rows are still queued when the axe falls.
        let extra = cb.submit_stream(s, rows(&[1.0, 2.0])).unwrap();
        cb.close();
        match extra.wait() {
            // The worker may have gathered the first row before the
            // close; either way the ticket resolves with StreamClosed.
            Err(ExecError::StreamClosed(r)) => assert!(r.contains("replica retired"), "{r}"),
            other => {
                let err = other.expect_err("close must fail pending submissions");
                panic!("expected StreamClosed, got {err}");
            }
        }
        assert!(matches!(cb.open_stream(None).unwrap_err(), ExecError::StreamClosed(_)));
        assert!(matches!(
            cb.submit_stream(s, rows(&[1.0])).unwrap_err(),
            ExecError::StreamClosed(_)
        ));
        assert_eq!(cb.active_streams(), 0);
    }

    #[test]
    fn spec_validation_catches_bad_wiring() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x", DType::F32);
        let slots = b.placeholder("slots", DType::I64);
        let acc = b.stream_state_read(slots, "acc").unwrap();
        let y = b.add(acc, x).unwrap();
        let sig = ModelSignature::new().feed("x", DType::F32, &[1]).fetch(y);
        let g = b.finish().unwrap();
        let ok = StreamSpec::new("slots").with_cell("acc", &[1]);
        ok.check(&g, &sig).unwrap();
        // Unknown slots placeholder.
        let e = StreamSpec::new("nope").with_cell("acc", &[1]).check(&g, &sig).unwrap_err();
        assert!(matches!(e, ExecError::InvalidConfig(_)));
        // Wrong dtype for the slots placeholder.
        let e = StreamSpec::new("x").with_cell("acc", &[1]).check(&g, &sig).unwrap_err();
        assert!(matches!(e, ExecError::InvalidConfig(_)));
        // Slots feed must not be a client feed.
        let sig2 = ModelSignature::new()
            .feed("x", DType::F32, &[1])
            .feed("slots", DType::I64, &[])
            .fetch(y);
        let e = StreamSpec::new("slots").with_cell("acc", &[1]).check(&g, &sig2).unwrap_err();
        assert!(matches!(e, ExecError::InvalidConfig(_)));
        // No cells, duplicate cells, zero caps.
        assert!(StreamSpec::new("slots").check_basic().is_err());
        assert!(StreamSpec::new("slots")
            .with_cell("a", &[1])
            .with_cell("a", &[2])
            .check_basic()
            .is_err());
        assert!(StreamSpec::new("slots")
            .with_cell("a", &[1])
            .with_max_streams(0)
            .check_basic()
            .is_err());
        assert!(StreamSpec::new("slots")
            .with_cell("a", &[1])
            .with_iteration_rows(0)
            .check_basic()
            .is_err());
    }
}
