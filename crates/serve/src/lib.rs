//! `dcf-serve`: a dynamic-batching serving frontend over concurrent
//! sessions.
//!
//! PR 4 made `Session::run` safe for concurrent multi-client steps, but a
//! step per client request still pays the full executor-dispatch cost per
//! request. This crate adds the serving layer that amortizes it, the same
//! way the paper's dynamic control flow amortizes graph dispatch across
//! loop iterations: many small inference requests are coalesced into one
//! batched step, run once, and the results scattered back — TensorFlow's
//! deployment-side batching frontend, rebuilt over this runtime.
//!
//! Four pieces:
//!
//! * [`ModelRegistry`] — named `(Graph, Cluster, SessionOptions)` entries
//!   behind typed [`ModelHandle`] capabilities. [`ModelRegistry::register`]
//!   returns the handle; all request traffic ([`ModelHandle::submit`] /
//!   [`ModelHandle::serve`]) and observability ([`ModelHandle::metrics`])
//!   flow through it. The replica set is instantiated lazily on the first
//!   request.
//! * [`replica::ReplicaSet`] — N `(Session, Batcher)` replicas per model,
//!   each on a [`dcf_runtime::Cluster::fork`] of the spec's cluster (one
//!   shared compile, no shared device state). Requests are routed
//!   power-of-two-choices over lock-free load gauges; sustained windowed
//!   queue-delay p99 drives replica scale-up/scale-down under a
//!   [`ScalingPolicy`]; a replica whose steps keep aborting is evicted and
//!   replaced while the model keeps serving.
//! * [`Batcher`] — one per replica: one worker thread, one bounded
//!   queue, one step runner that issues **one** tagged `Session::run`
//!   with the concatenated feeds and splits each fetched tensor back per
//!   member. Its queue holds one of two kinds of work:
//!   - **requests** ([`Request`]), coalesced along the leading batch
//!     dimension under a [`BatchPolicy`] (`max_batch_size` rows /
//!     `max_queue_delay` wait) and answered through one-shot channels.
//!     Admission control is structural: the queue is bounded (rejecting
//!     with [`dcf_exec::ExecError::Overloaded`] instead of queueing
//!     forever), per-request deadlines expire *before* a request can
//!     occupy a batch slot, and an interactive priority lane preempts
//!     bulk traffic at batch-assembly time;
//!   - **streams** ([`StreamHandle`]), on a model registered with a
//!     [`StreamSpec`]. [`ModelHandle::open_stream`] returns a sticky
//!     stream pinned to one replica, whose in-graph state (per-stream
//!     slots read and written by `StreamStateRead`/`StreamStateWrite`
//!     ops) persists across submits. Streams join and retire **between**
//!     decode iterations — rows are gathered into the live batch as
//!     streams join and compacted out as they finish, instead of
//!     stop-the-world re-batching at step boundaries — with per-stream
//!     deadlines, a structured `StreamClosed`/`Overloaded` surface, and
//!     drain-on-unload semantics.
//! * [`ServeMetrics`] — per-replica counters threaded from each step's
//!   `RunMetadata`: batch occupancy, queue-delay and step-latency
//!   percentiles, rejects, expirations, transfer retries and injected
//!   faults, plus the streaming gauges (active streams, joins/retires,
//!   per-iteration occupancy). [`ModelMetrics`] rolls them up per model:
//!   one [`MetricsSnapshot`] per live replica plus an aggregate that also
//!   folds in retired (evicted or scaled-down) replicas, rendered by
//!   [`ModelMetrics::summary`].
//!
//! Correctness contract (property-tested in `tests/serve_batching.rs` and
//! `tests/proptest_serve.rs`): for batch-linear models — every fetch
//! carries the leading batch axis and row `i` of the output depends only
//! on row `i` of the input, which is what a serving signature means —
//! concat → run → scatter is **bit-identical** to running each request as
//! its own step, including when the batched step retries under an injected
//! fault plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod metrics;
mod oneshot;
pub mod registry;
pub mod replica;
pub mod signature;
pub mod stream;

pub use batcher::{BatchPolicy, Batcher, Priority, Request, Response, Ticket};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::{ModelHandle, ModelRegistry, ModelSpec};
pub use replica::{ModelMetrics, ReplicaMetrics, ScalingPolicy};
pub use signature::{FeedSpec, ModelSignature};
pub use stream::{StreamHandle, StreamResponse, StreamSpec, StreamTicket};

/// Crate-wide result type: serving surfaces the runtime's structured
/// [`dcf_exec::ExecError`]s.
pub type Result<T> = dcf_exec::Result<T>;
