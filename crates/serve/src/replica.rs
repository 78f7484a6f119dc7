//! The replica router: N `(Session, Batcher)` replicas behind one model
//! name, with load-aware dispatch, self-healing, and queue-delay-driven
//! autoscaling.
//!
//! One shared session per model (PR 5) makes batching cheap but leaves a
//! single batcher thread as both the throughput ceiling and a single
//! point of failure. The TensorFlow system papers split serving into a
//! stateless frontend routing over replicated workers; this module is
//! that split. A [`ReplicaSet`] owns:
//!
//! * **Replicas** — each a `Session` (on a [`Cluster::fork`] of the
//!   spec's cluster, so no device state is shared) plus its own
//!   [`Batcher`] thread, serving requests or, on a stream model, streams.
//!   Structurally identical replicas share one compile through the
//!   runtime's process-wide compiled-graph cache, so instantiating N
//!   replicas pays for one optimize/place/partition.
//! * **Routing** — power-of-two-choices per request: pick two distinct
//!   replicas (deterministically, from a hashed submit counter), compare
//!   their lock-free load gauges (`queued + running` rows, see
//!   [`crate::metrics::ServeMetrics::load`]), enqueue on the less loaded. Classic
//!   balanced-allocations routing: nearly the quality of
//!   least-loaded-of-N at the cost of two atomic reads.
//! * **Health** — every batched step that fails bumps its replica's
//!   `consecutive_step_failures`; a success resets it. A replica that
//!   reaches [`ScalingPolicy::max_consecutive_step_failures`] is evicted
//!   — its queue fails with `Cancelled`, its counters fold into the
//!   retired aggregate — and a fresh replica is built in its place. The
//!   model keeps serving throughout; only requests already queued on the
//!   sick replica are failed over (resubmitted by [`ReplicaSet::serve`]).
//! * **Scaling** — every [`ScalingPolicy::decision_every`] submissions,
//!   the router computes the *windowed* queue-delay p99 (delta of the
//!   cumulative histograms since the last decision). Sustained p99 above
//!   `scale_up_p99_ms` adds a replica (up to `max_replicas`); sustained
//!   p99 below `scale_down_p99_ms` retires an **idle** replica (down to
//!   `min_replicas` — a busy replica is never torn out from under its
//!   queue).
//!
//! Control actions piggyback on the submit path: a model receiving no
//! traffic neither scales nor heals, which is exactly when neither
//! matters.

use crate::batcher::{BatchPolicy, Batcher, Request, Response, Ticket, SHUTDOWN_MSG};
use crate::metrics::{HistData, MetricsSnapshot, RawMetrics};
use crate::signature::ModelSignature;
use crate::stream::{StreamHandle, StreamSpec};
use crate::Result;
use dcf_exec::ExecError;
use dcf_graph::Graph;
use dcf_runtime::{Cluster, FaultPlan, Session, SessionOptions};
use dcf_sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When and how a model's replica set grows, shrinks, and heals.
///
/// The default policy never autoscales (`scale_up_p99_ms` is infinite,
/// `scale_down_p99_ms` is zero) but does self-heal: three consecutive
/// failed steps evict a replica.
#[derive(Clone, Debug)]
pub struct ScalingPolicy {
    /// Scale-down floor. The initial replica count
    /// ([`crate::ModelSpec::with_replicas`]) is clamped up to this.
    pub min_replicas: usize,
    /// Scale-up ceiling.
    pub max_replicas: usize,
    /// Windowed queue-delay p99 (ms) above which the set grows by one.
    pub scale_up_p99_ms: f64,
    /// Windowed queue-delay p99 (ms) below which an idle replica retires.
    pub scale_down_p99_ms: f64,
    /// Submissions between scaling decisions (the p99 window length, in
    /// requests).
    pub decision_every: u64,
    /// Consecutive decisions the scale-up (or -down) condition must hold
    /// before the set changes — "sustained", not a single spike.
    pub sustain: u32,
    /// Consecutive failed batched steps after which a replica is judged
    /// sick, evicted, and replaced.
    pub max_consecutive_step_failures: u64,
}

impl Default for ScalingPolicy {
    fn default() -> ScalingPolicy {
        ScalingPolicy {
            min_replicas: 1,
            max_replicas: usize::MAX,
            scale_up_p99_ms: f64::INFINITY,
            scale_down_p99_ms: 0.0,
            decision_every: 64,
            sustain: 2,
            max_consecutive_step_failures: 3,
        }
    }
}

impl ScalingPolicy {
    /// An autoscaling policy: grow on sustained windowed queue-delay p99
    /// above `up_p99_ms`, shrink on sustained p99 below `down_p99_ms`,
    /// within `[min, max]` replicas.
    pub fn autoscale(min: usize, max: usize, up_p99_ms: f64, down_p99_ms: f64) -> ScalingPolicy {
        ScalingPolicy {
            min_replicas: min,
            max_replicas: max,
            scale_up_p99_ms: up_p99_ms,
            scale_down_p99_ms: down_p99_ms,
            ..ScalingPolicy::default()
        }
    }

    /// Sets the decision cadence and sustain count (builder style).
    pub fn with_cadence(mut self, decision_every: u64, sustain: u32) -> ScalingPolicy {
        self.decision_every = decision_every;
        self.sustain = sustain;
        self
    }

    /// Sets the health-eviction threshold (builder style).
    pub fn with_eviction_after(mut self, consecutive_failures: u64) -> ScalingPolicy {
        self.max_consecutive_step_failures = consecutive_failures;
        self
    }

    pub(crate) fn check(&self) -> Result<()> {
        if self.min_replicas == 0 {
            return Err(ExecError::InvalidConfig("min_replicas is 0".into()));
        }
        if self.max_replicas < self.min_replicas {
            return Err(ExecError::InvalidConfig(format!(
                "max_replicas {} is below min_replicas {}",
                self.max_replicas, self.min_replicas
            )));
        }
        if self.scale_down_p99_ms > self.scale_up_p99_ms {
            return Err(ExecError::InvalidConfig(format!(
                "scale_down_p99_ms {} exceeds scale_up_p99_ms {}: the set would oscillate",
                self.scale_down_p99_ms, self.scale_up_p99_ms
            )));
        }
        if self.decision_every == 0 || self.sustain == 0 {
            return Err(ExecError::InvalidConfig(
                "decision_every and sustain must be at least 1".into(),
            ));
        }
        if self.max_consecutive_step_failures == 0 {
            return Err(ExecError::InvalidConfig(
                "max_consecutive_step_failures is 0: every replica is instantly sick".into(),
            ));
        }
        Ok(())
    }
}

/// Everything needed to build one more replica, retained for the set's
/// whole life: replacement after eviction and scale-up both re-instantiate
/// from here (and hit the compiled-graph cache).
pub(crate) struct ReplicaTemplate {
    pub name: String,
    pub graph: Graph,
    pub cluster: Cluster,
    pub session_options: SessionOptions,
    pub signature: ModelSignature,
    pub policy: BatchPolicy,
    pub scaling: ScalingPolicy,
    /// Per-replica-id fault-plan overrides (testing hook): replica `i`
    /// runs its batched steps under `replica_fault_plans[i]` when set.
    /// Replacement replicas get fresh ids past the end of this list, so a
    /// replica evicted for injected faults is replaced by a healthy one.
    pub replica_fault_plans: Vec<Option<FaultPlan>>,
    /// Streaming configuration: when set, every replica's batcher serves
    /// streams instead of requests, and the model accepts
    /// [`ReplicaSet::open_stream`].
    pub stream: Option<StreamSpec>,
}

struct Replica {
    id: u64,
    batcher: Arc<Batcher>,
}

impl Replica {
    /// The replica-health signal: failed steps since the last success.
    fn consecutive_step_failures(&self) -> u64 {
        self.batcher.metrics().consecutive_step_failures.load(Ordering::Relaxed)
    }
}

/// Scaling control state, touched only every `decision_every` submits.
struct ControlState {
    last_decision_submits: u64,
    up_streak: u32,
    down_streak: u32,
    /// Membership epoch the current window baseline was taken under; when
    /// the set's epoch has moved past it, the baseline describes a
    /// different set of replicas and must be re-taken instead of diffed.
    window_epoch: u64,
    /// Cumulative queue-delay histogram at the last decision; the window
    /// is the delta against it.
    window_start: HistData,
}

/// What one scaling decision concluded. Split from the replica plumbing so
/// the decision core is a pure function over histograms (unit-testable
/// without sessions).
#[derive(Debug, PartialEq, Eq)]
enum ScalingAction {
    /// Membership changed since the baseline was taken: the window delta
    /// would be garbage (per-cell saturation against histograms that no
    /// longer describe the same replicas), so the baseline was restarted
    /// and no decision was made.
    Rebaseline,
    /// No threshold crossed (or the streak is not yet sustained).
    Hold,
    /// Sustained p99 above the scale-up threshold: add a replica.
    Up,
    /// Sustained p99 below the scale-down threshold: retire an idle
    /// replica if one exists.
    Down,
}

/// The pure core of one scaling decision: given the policy, the cumulative
/// queue-delay histogram, the set's membership epoch, and the live replica
/// count, update `control` and say what the router should do.
fn scaling_action(
    scaling: &ScalingPolicy,
    control: &mut ControlState,
    cumulative: HistData,
    epoch: u64,
    live_replicas: usize,
) -> ScalingAction {
    if control.window_epoch != epoch {
        control.window_epoch = epoch;
        control.window_start = cumulative;
        control.up_streak = 0;
        control.down_streak = 0;
        return ScalingAction::Rebaseline;
    }
    let window = cumulative.since(&control.window_start);
    control.window_start = cumulative;
    let p99 = window.quantile_ms(0.99);
    if p99 > scaling.scale_up_p99_ms && live_replicas < scaling.max_replicas {
        control.up_streak += 1;
        control.down_streak = 0;
        if control.up_streak >= scaling.sustain {
            control.up_streak = 0;
            return ScalingAction::Up;
        }
    } else if p99 < scaling.scale_down_p99_ms && live_replicas > scaling.min_replicas {
        control.down_streak += 1;
        control.up_streak = 0;
        if control.down_streak >= scaling.sustain {
            return ScalingAction::Down;
        }
    } else {
        control.up_streak = 0;
        control.down_streak = 0;
    }
    ScalingAction::Hold
}

/// Router-level counters (replica-set membership changes).
#[derive(Debug, Default)]
struct RouterMetrics {
    evicted: AtomicU64,
    scale_ups: AtomicU64,
    scale_downs: AtomicU64,
    resubmitted: AtomicU64,
}

/// N batching replicas behind one model name. See the module docs.
pub struct ReplicaSet {
    template: ReplicaTemplate,
    replicas: RwLock<Vec<Replica>>,
    next_replica_id: AtomicU64,
    submit_seq: AtomicU64,
    control: Mutex<ControlState>,
    /// Bumped on every membership change (eviction, scale-up, scale-down):
    /// the scaling loop compares it against the epoch its window baseline
    /// was taken under and restarts the window on mismatch, instead of
    /// computing a p99 over a delta between histograms of different sets.
    membership_epoch: AtomicU64,
    router: RouterMetrics,
    /// Folded-in counters of replicas that were evicted or scaled away,
    /// so aggregate metrics never go backwards.
    retired: Mutex<RawMetrics>,
}

/// Splitmix64: a cheap, well-mixed hash of the submit counter, giving
/// each request an independent-looking pair of replica choices without
/// any RNG state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Power-of-two-choices over `loads`: derive two distinct indices from
/// `seq`, return the one with the smaller load (first on ties). Free
/// function so routing is unit-testable without sessions.
pub(crate) fn choose_replica(loads: &[u64], seq: u64) -> usize {
    match loads.len() {
        0 => 0,
        1 => 0,
        n => {
            let h = mix(seq);
            let i = (h % n as u64) as usize;
            let j = (i + 1 + ((h >> 32) % (n as u64 - 1)) as usize) % n;
            if loads[j] < loads[i] {
                j
            } else {
                i
            }
        }
    }
}

impl ReplicaSet {
    /// Builds the initial replicas (the larger of the spec's replica count
    /// and the policy's floor, capped at the ceiling) and starts routing.
    pub(crate) fn new(template: ReplicaTemplate, initial: usize) -> Result<ReplicaSet> {
        template.scaling.check()?;
        let n =
            initial.max(template.scaling.min_replicas).min(template.scaling.max_replicas).max(1);
        let set = ReplicaSet {
            template,
            replicas: RwLock::new(Vec::with_capacity(n)),
            next_replica_id: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            control: Mutex::new(ControlState {
                last_decision_submits: 0,
                up_streak: 0,
                down_streak: 0,
                window_epoch: 0,
                window_start: HistData::default(),
            }),
            membership_epoch: AtomicU64::new(0),
            router: RouterMetrics::default(),
            retired: Mutex::new(RawMetrics::default()),
        };
        {
            let mut replicas = set.replicas.write();
            for _ in 0..n {
                let r = set.build_replica()?;
                replicas.push(r);
            }
        }
        Ok(set)
    }

    /// One more replica from the template: fresh forked cluster, fresh
    /// session (cache-shared compile), fresh batcher thread. On a stream
    /// model the batcher serves streams, whose state slots live in this
    /// replica's session — which is what makes them sticky to it.
    fn build_replica(&self) -> Result<Replica> {
        let t = &self.template;
        let id = self.next_replica_id.fetch_add(1, Ordering::Relaxed);
        let mut policy = t.policy.clone();
        if let Some(Some(plan)) = t.replica_fault_plans.get(id as usize) {
            policy.run_options.fault_plan = Some(plan.clone());
        }
        let session =
            Arc::new(Session::new(t.graph.clone(), t.cluster.fork(), t.session_options.clone())?);
        let batcher = Arc::new(Batcher::start(
            format!("{}[r{id}]", t.name),
            session,
            t.signature.clone(),
            policy,
            t.stream.clone(),
        )?);
        Ok(Replica { id, batcher })
    }

    /// Current replica count.
    pub fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }

    /// Opens a sticky stream on the replica with the fewest live streams
    /// (streams are pinned for life, so open-time least-loaded beats
    /// per-request power-of-two-choices here: there is no second chance
    /// to rebalance). Fails with [`ExecError::InvalidConfig`] when the
    /// model was registered without a stream spec.
    pub(crate) fn open_stream(&self, deadline: Option<std::time::Instant>) -> Result<StreamHandle> {
        let worker = self
            .replicas
            .read()
            .iter()
            .min_by_key(|r| r.batcher.active_streams())
            .map(|r| r.batcher.clone())
            .ok_or_else(|| {
                ExecError::Internal(format!("model '{}' has no live replicas", self.template.name))
            })?;
        let slot = worker.open_stream(deadline)?;
        Ok(StreamHandle::attach(worker, slot))
    }

    /// Routes `request` to the less loaded of two candidate replicas and
    /// enqueues it. Rejections (signature, backpressure, expired deadline,
    /// [`ExecError::InvalidConfig`] on a stream model) are the batcher's
    /// own, immediate and structured; the only router-added retry is
    /// against a replica that shut down between routing and enqueue.
    pub fn submit(&self, request: Request) -> Result<Ticket> {
        let seq = self.submit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let result = self.submit_once(&request, seq).or_else(|e| {
            if is_shutdown(&e) {
                // Routed onto a replica evicted/retired in between: the
                // set still exists, so route again.
                self.router.resubmitted.fetch_add(1, Ordering::Relaxed);
                self.submit_once(&request, seq ^ 0xA5A5_A5A5)
            } else {
                Err(e)
            }
        });
        self.maybe_control(seq)?;
        result
    }

    fn submit_once(&self, request: &Request, seq: u64) -> Result<Ticket> {
        let batcher = {
            let replicas = self.replicas.read();
            if replicas.is_empty() {
                return Err(ExecError::Internal(format!(
                    "model '{}' has no live replicas",
                    self.template.name
                )));
            }
            let loads: Vec<u64> = replicas.iter().map(|r| r.batcher.load()).collect();
            replicas[choose_replica(&loads, seq)].batcher.clone()
        };
        batcher.submit(request.clone())
    }

    /// [`ReplicaSet::submit`] then block. A request stranded on a replica
    /// that was evicted while it queued is transparently resubmitted
    /// (once per routing attempt, bounded): the caller sees either a
    /// response or its request's own structured error, never a replica's
    /// obituary.
    pub fn serve(&self, request: Request) -> Result<Response> {
        for _ in 0..3 {
            match self.submit(request.clone())?.wait() {
                Err(e) if is_shutdown(&e) => {
                    self.router.resubmitted.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                other => return other,
            }
        }
        Err(ExecError::Internal(format!(
            "request to model '{}' kept landing on dying replicas",
            self.template.name
        )))
    }

    /// Health + scaling, piggybacked on the submit path. Health (cheap
    /// atomic reads) runs every call; the scaling decision runs every
    /// `decision_every` submissions under a try-lock so exactly one
    /// submitter pays for it and nobody queues behind it.
    fn maybe_control(&self, seq: u64) -> Result<()> {
        self.evict_sick()?;
        let Some(mut control) = self.control.try_lock() else {
            return Ok(());
        };
        if seq.saturating_sub(control.last_decision_submits) < self.template.scaling.decision_every
        {
            return Ok(());
        }
        control.last_decision_submits = seq;
        self.decide_scaling(&mut control)
    }

    /// Evicts and replaces every replica whose consecutive-failure count
    /// reached the policy threshold.
    fn evict_sick(&self) -> Result<()> {
        let threshold = self.template.scaling.max_consecutive_step_failures;
        let any_sick =
            self.replicas.read().iter().any(|r| r.consecutive_step_failures() >= threshold);
        if !any_sick {
            return Ok(());
        }
        let mut replicas = self.replicas.write();
        let mut idx = 0;
        while idx < replicas.len() {
            let failures = replicas[idx].consecutive_step_failures();
            if failures < threshold {
                idx += 1;
                continue;
            }
            let sick = replicas.remove(idx);
            // Replace first, then retire: the set never serves with a
            // hole where the sick replica was.
            let replacement = self.build_replica()?;
            replicas.push(replacement);
            self.membership_epoch.fetch_add(1, Ordering::Relaxed);
            self.router.evicted.fetch_add(1, Ordering::Relaxed);
            self.retire(sick);
        }
        Ok(())
    }

    /// Closes a removed replica's batcher and folds its counters into the
    /// retired aggregate. Closing fails queued requests with `Cancelled`
    /// (callers resubmit them) and pinned streams with
    /// [`ExecError::StreamClosed`] — their state lives in this replica's
    /// session, so they cannot fail over — and joins the worker, so the
    /// snapshot taken afterwards misses no in-flight step and its gauges
    /// are all zero.
    fn retire(&self, replica: Replica) {
        replica.batcher.close();
        self.retired.lock().merge(&replica.batcher.metrics().raw());
    }

    /// One scaling decision over the windowed queue-delay p99. The
    /// decision itself is [`scaling_action`]; this applies it, bumping the
    /// membership epoch for any change so the *next* window restarts from
    /// a baseline describing the new set.
    fn decide_scaling(&self, control: &mut ControlState) -> Result<()> {
        let scaling = &self.template.scaling;
        let epoch = self.membership_epoch.load(Ordering::Relaxed);
        let cumulative = {
            let replicas = self.replicas.read();
            let mut total = self.retired.lock().clone();
            for r in replicas.iter() {
                total.merge(&r.batcher.metrics().raw());
            }
            total.queue_delay_data().clone()
        };
        let n = self.replicas.read().len();
        match scaling_action(scaling, control, cumulative, epoch, n) {
            ScalingAction::Rebaseline | ScalingAction::Hold => {}
            ScalingAction::Up => {
                let replacement = self.build_replica()?;
                self.replicas.write().push(replacement);
                self.membership_epoch.fetch_add(1, Ordering::Relaxed);
                self.router.scale_ups.fetch_add(1, Ordering::Relaxed);
            }
            ScalingAction::Down => {
                // Only an idle replica may retire: nothing queued, nothing
                // mid-step. If every replica is busy the set is not
                // over-provisioned, whatever the p99 says.
                let mut replicas = self.replicas.write();
                if replicas.len() > scaling.min_replicas {
                    if let Some(idx) = replicas.iter().rposition(|r| r.batcher.is_idle()) {
                        let idle = replicas.remove(idx);
                        drop(replicas);
                        control.down_streak = 0;
                        self.membership_epoch.fetch_add(1, Ordering::Relaxed);
                        self.router.scale_downs.fetch_add(1, Ordering::Relaxed);
                        self.retire(idle);
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-replica and aggregated metrics. Replica snapshots are read
    /// lock-free; the replica list itself is held only long enough to
    /// clone the batcher handles.
    pub fn metrics(&self) -> ModelMetrics {
        let handles: Vec<(u64, Arc<Batcher>)> =
            self.replicas.read().iter().map(|r| (r.id, r.batcher.clone())).collect();
        let max_rows = self.template.policy.max_batch_size;
        let mut aggregate = self.retired.lock().clone();
        let mut per_replica = Vec::with_capacity(handles.len());
        for (id, b) in &handles {
            let raw = b.metrics().raw();
            per_replica.push(ReplicaMetrics {
                id: *id,
                consecutive_step_failures: b
                    .metrics()
                    .consecutive_step_failures
                    .load(Ordering::Relaxed),
                snapshot: raw.snapshot(max_rows),
            });
            aggregate.merge(&raw);
        }
        ModelMetrics {
            instantiated: true,
            aggregate: aggregate.snapshot(max_rows),
            replicas: per_replica,
            evicted: self.router.evicted.load(Ordering::Relaxed),
            scale_ups: self.router.scale_ups.load(Ordering::Relaxed),
            scale_downs: self.router.scale_downs.load(Ordering::Relaxed),
            resubmitted: self.router.resubmitted.load(Ordering::Relaxed),
        }
    }
}

fn is_shutdown(e: &ExecError) -> bool {
    matches!(e, ExecError::Cancelled(msg) if msg == SHUTDOWN_MSG)
}

/// Per-replica plus aggregated serving metrics for one model.
#[derive(Clone, Debug, Default)]
pub struct ModelMetrics {
    /// `false` while the model is registered but no request has arrived
    /// (no sessions, no replicas, every other field zero/empty).
    pub instantiated: bool,
    /// Every counter summed across live **and** retired replicas;
    /// percentiles over the merged histograms.
    pub aggregate: MetricsSnapshot,
    /// Live replicas, in routing order.
    pub replicas: Vec<ReplicaMetrics>,
    /// Replicas evicted by health tracking since instantiation.
    pub evicted: u64,
    /// Scale-up decisions taken.
    pub scale_ups: u64,
    /// Scale-down decisions taken.
    pub scale_downs: u64,
    /// Requests transparently re-routed off a dying replica.
    pub resubmitted: u64,
}

impl ModelMetrics {
    /// A human-readable multi-line summary: request/batch counters,
    /// latency percentiles, the streaming section (joins/retires, live
    /// streams, per-iteration occupancy), and router events.
    pub fn summary(&self) -> String {
        let a = &self.aggregate;
        let mut out = String::new();
        if !self.instantiated {
            return "registered, not yet instantiated (no traffic)\n".to_string();
        }
        out.push_str(&format!(
            "requests: {} submitted, {} served, {} failed, {} expired, \
             {} rejected (shape {}, overload {})\n",
            a.submitted,
            a.served,
            a.failed,
            a.expired,
            a.rejected_shape + a.rejected_overload,
            a.rejected_shape,
            a.rejected_overload,
        ));
        out.push_str(&format!(
            "batches: {} steps, {} rows, mean {:.2} rows/batch, occupancy {:.0}%\n",
            a.batches,
            a.batched_rows,
            a.mean_batch_rows,
            a.occupancy * 100.0,
        ));
        out.push_str(&format!(
            "latency: queue p50 {:.3} ms / p99 {:.3} ms, step p50 {:.3} ms / p99 {:.3} ms\n",
            a.queue_delay_p50_ms,
            a.queue_delay_p99_ms,
            a.step_latency_p50_ms,
            a.step_latency_p99_ms,
        ));
        if a.streams_opened > 0 {
            out.push_str(&format!(
                "streams: {} joined, {} retired ({} expired), {} rejected, {} active\n",
                a.streams_opened,
                a.streams_retired,
                a.streams_expired,
                a.streams_rejected,
                a.active_streams,
            ));
            out.push_str(&format!(
                "streaming: {} iterations, {} rows, mean {:.2} rows/iteration \
                 (p50 ≤ {}, p99 ≤ {})\n",
                a.stream_iterations,
                a.stream_rows,
                a.mean_iteration_rows,
                a.iteration_rows_p50,
                a.iteration_rows_p99,
            ));
        }
        out.push_str(&format!(
            "router: {} replicas, {} evicted, {} scale-ups, {} scale-downs, {} resubmitted\n",
            self.replicas.len(),
            self.evicted,
            self.scale_ups,
            self.scale_downs,
            self.resubmitted,
        ));
        out
    }
}

/// One live replica's identity, health, and counters.
#[derive(Clone, Debug)]
pub struct ReplicaMetrics {
    /// Stable replica id (monotonic per model; replacements get fresh
    /// ids).
    pub id: u64,
    /// Failed steps since the last success — the eviction signal.
    pub consecutive_step_failures: u64,
    /// The replica's own counters.
    pub snapshot: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_replica_prefers_less_loaded() {
        // Whatever pair the hash picks, the loaded replica (index 0) must
        // never win against an idle one in a two-replica set.
        let loads = [100u64, 0];
        for seq in 0..64 {
            assert_eq!(choose_replica(&loads, seq), 1, "seq {seq}");
        }
        // Symmetric.
        let loads = [0u64, 100];
        for seq in 0..64 {
            assert_eq!(choose_replica(&loads, seq), 0, "seq {seq}");
        }
    }

    #[test]
    fn choose_replica_spreads_over_equal_loads() {
        // With equal loads the pair choice itself must spread: over many
        // submits every replica of a 4-set gets picked.
        let loads = [5u64, 5, 5, 5];
        let mut hit = [false; 4];
        for seq in 0..256 {
            hit[choose_replica(&loads, seq)] = true;
        }
        assert!(hit.iter().all(|h| *h), "hits: {hit:?}");
    }

    #[test]
    fn choose_replica_skews_toward_idle_in_larger_sets() {
        // 1 busy + 3 idle replicas: the busy one can only win when both
        // choices land on it, which p2c makes impossible (choices are
        // distinct) — so it is never picked.
        let loads = [50u64, 0, 0, 0];
        for seq in 0..512 {
            assert_ne!(choose_replica(&loads, seq), 0, "seq {seq}");
        }
    }

    #[test]
    fn degenerate_sets_route_to_zero() {
        assert_eq!(choose_replica(&[], 7), 0);
        assert_eq!(choose_replica(&[42], 7), 0);
    }

    /// A cumulative queue-delay histogram with `n` samples of `us` each.
    fn delays(n: u64, us: u64) -> HistData {
        let m = crate::metrics::ServeMetrics::default();
        for _ in 0..n {
            m.record_queue_delay_us(us);
        }
        m.raw().queue_delay_data().clone()
    }

    fn control() -> ControlState {
        ControlState {
            last_decision_submits: 0,
            up_streak: 0,
            down_streak: 0,
            window_epoch: 0,
            window_start: HistData::default(),
        }
    }

    #[test]
    fn membership_change_restarts_the_scaling_window() {
        // Sustain 1 so a single bad window would immediately scale.
        let policy = ScalingPolicy::autoscale(1, 8, 50.0, 0.1).with_cadence(64, 1);
        let mut c = control();

        // Decision 1 (epoch 0): a window of fast requests — hold.
        let fast = delays(1000, 1_000); // 1 ms each
        assert_eq!(scaling_action(&policy, &mut c, fast, 0, 2), ScalingAction::Hold);

        // A replica is evicted mid-window: its counters vanish from the
        // cumulative view, so the next cumulative DIPS below the baseline.
        // Before the fix, `since` saturated per-cell into a garbage delta
        // whose p99 came out of whatever cells happened not to saturate —
        // here a handful of slow samples surviving the dip would read as a
        // catastrophic window p99 and trigger a spurious scale-up.
        let mut after_evict = delays(10, 200_000); // 10 slow samples, 200 ms
        after_evict.merge(&delays(100, 1_000)); // plus some fast ones
        assert_eq!(
            scaling_action(&policy, &mut c, after_evict.clone(), 1, 2),
            ScalingAction::Rebaseline,
            "an epoch bump must restart the window, not act on a garbage delta"
        );
        assert_eq!((c.up_streak, c.down_streak), (0, 0), "streaks reset with the baseline");

        // The decision after the rebaseline diffs against the new set's
        // own cumulative: only what happened since the eviction counts.
        let mut next = after_evict;
        next.merge(&delays(500, 1_000));
        assert_eq!(
            scaling_action(&policy, &mut c, next, 1, 2),
            ScalingAction::Hold,
            "post-eviction window sees only fresh, fast samples"
        );
    }

    #[test]
    fn sustained_slow_windows_still_scale_up() {
        let policy = ScalingPolicy::autoscale(1, 8, 50.0, 0.1).with_cadence(64, 2);
        let mut c = control();
        let mut cumulative = delays(100, 200_000); // 200 ms samples
        assert_eq!(
            scaling_action(&policy, &mut c, cumulative.clone(), 0, 2),
            ScalingAction::Hold,
            "first slow window only starts the streak"
        );
        cumulative.merge(&delays(100, 200_000));
        assert_eq!(scaling_action(&policy, &mut c, cumulative, 0, 2), ScalingAction::Up);
        assert_eq!(c.up_streak, 0, "the streak resets once the action fires");
    }

    #[test]
    fn scaling_policy_validation() {
        assert!(ScalingPolicy::default().check().is_ok());
        assert!(ScalingPolicy { min_replicas: 0, ..ScalingPolicy::default() }.check().is_err());
        assert!(ScalingPolicy { min_replicas: 4, max_replicas: 2, ..ScalingPolicy::default() }
            .check()
            .is_err());
        assert!(ScalingPolicy::autoscale(1, 4, 1.0, 2.0).check().is_err(), "inverted thresholds");
        assert!(ScalingPolicy::autoscale(1, 4, 2.0, 1.0).check().is_ok());
        assert!(ScalingPolicy::default().with_cadence(0, 1).check().is_err());
        assert!(ScalingPolicy::default().with_eviction_after(0).check().is_err());
    }
}
