//! Simulated network: delayed rendezvous delivery, retry/backoff, and
//! (feature-gated) deterministic fault injection.
//!
//! Transfers are keyed by integer [`RendezvousKey`]s; the endpoint machines
//! come from the key's [`dcf_exec::EdgeKey`]. The readable key text a
//! sender passes along is rendered only for a traced run's transfer
//! records, a failed transfer's error, and a fault plan's rolls — which
//! hash that text, so a seed's faults do not depend on the key's in-memory
//! form.

use crate::fault::{FaultLog, FaultPlan, RetryPolicy};
use dcf_device::{StepStatsCollector, TransferStats};
use dcf_exec::{
    ExecError, InMemoryRendezvous, RecvCallback, Rendezvous, RendezvousKey, StepId, Token,
};
use dcf_sync::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[cfg(feature = "faultinject")]
use crate::fault::FaultKind;

/// Latency/bandwidth model for tensor transfers.
///
/// The paper's cluster connects machines "by Ethernet across a production
/// networking fabric"; within a machine, GPUs communicate over PCIe. Both
/// are modeled as a fixed latency plus a bandwidth term over the *modeled*
/// tensor size (dimensions scaled by `shape_scale`, matching the devices).
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// One-way latency between machines.
    pub cross_latency: Duration,
    /// Cross-machine bandwidth, bytes/s.
    pub cross_bandwidth: f64,
    /// One-way latency between devices of one machine (PCIe hop).
    pub intra_latency: Duration,
    /// Intra-machine bandwidth, bytes/s.
    pub intra_bandwidth: f64,
    /// Dimension scale used when modeling payload size (keep equal to the
    /// devices' `shape_scale`).
    pub shape_scale: usize,
    /// Global multiplier on modeled delays (0.0 disables delays).
    pub time_scale: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            cross_latency: Duration::from_micros(25),
            cross_bandwidth: 1.25e9, // 10 Gb/s Ethernet
            intra_latency: Duration::from_micros(8),
            intra_bandwidth: 1.2e10, // PCIe 3 x16
            shape_scale: 1,
            time_scale: 1.0,
        }
    }
}

impl NetworkModel {
    /// A model with all delays disabled (functional tests).
    pub fn disabled() -> NetworkModel {
        NetworkModel { time_scale: 0.0, ..Default::default() }
    }

    /// Modeled on-the-wire size of `token` in bytes: a header-only message
    /// for dead signals, otherwise the shape-scaled payload size (matching
    /// the device cost model, which scales only the trailing two feature
    /// dimensions).
    pub fn modeled_bytes(&self, token: &Token) -> f64 {
        if token.is_dead {
            // A dead signal is a header-only message.
            return 16.0;
        }
        let s = self.shape_scale as f64;
        let dims = token.value.shape().dims();
        let rank = dims.len();
        let scaled: f64 = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| if i + 2 >= rank { d as f64 * s } else { d as f64 })
            .product::<f64>()
            .max(1.0);
        scaled * token.value.dtype().size_of() as f64
    }

    /// Modeled transfer time of `token` between `src` and `dst` machines.
    pub fn delay(&self, src_machine: usize, dst_machine: usize, token: &Token) -> Duration {
        if self.time_scale == 0.0 {
            return Duration::ZERO;
        }
        let (lat, bw) = if src_machine == dst_machine {
            (self.intra_latency, self.intra_bandwidth)
        } else {
            (self.cross_latency, self.cross_bandwidth)
        };
        let secs = (lat.as_secs_f64() + self.modeled_bytes(token) / bw) * self.time_scale;
        Duration::from_secs_f64(secs)
    }
}

/// What a scheduled heap entry delivers once due.
enum Payload {
    Deliver(Token),
    Fail(ExecError),
}

struct Pending {
    due: Instant,
    seq: u64,
    step: StepId,
    key: RendezvousKey,
    payload: Payload,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

struct SchedulerState {
    heap: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    shutdown: bool,
    /// The step whose transfer the timer has popped off the heap and is
    /// handing to the table right now, and whether that step was dropped
    /// meanwhile (its tombstone is then released once the hand-off ends).
    delivering: Option<(StepId, bool)>,
}

/// Per-run transport context: how the run's transfers retry, what faults
/// they suffer, where retries/faults are logged, and (for traced runs)
/// where modeled transfers are recorded. Keyed by step id so concurrent
/// runs never observe each other's policies or stats.
struct RunCtx {
    retry: RetryPolicy,
    #[cfg_attr(not(feature = "faultinject"), allow(dead_code))]
    plan: Option<FaultPlan>,
    log: Arc<FaultLog>,
    collector: Option<Arc<StepStatsCollector>>,
}

/// Outcome of a transfer's delivery attempts, computed synchronously at
/// send time (the plan is deterministic, so the full attempt sequence is
/// known up front).
struct Fate {
    /// Modeled time until the value (or failure) reaches the receiver.
    total: Duration,
    /// Attempts made (1 + retries).
    attempts: u32,
    /// If set, a duplicate delivery is scheduled this long after `total`.
    duplicate_after: Option<Duration>,
    /// `None` to deliver the token; `Some(err)` if the retry budget or the
    /// per-transfer deadline ran out.
    error: Option<ExecError>,
}

impl Fate {
    fn clean(total: Duration) -> Fate {
        Fate { total, attempts: 1, duplicate_after: None, error: None }
    }
}

/// A rendezvous that injects modeled network delay — and, under the
/// `faultinject` feature, seeded faults with retry/backoff recovery — into
/// `send`.
///
/// Edges produced by the partitioner name their endpoint machines (see
/// [`dcf_exec::EdgeKey`]); delivery into the underlying in-memory table is
/// postponed by the modeled transfer time on a dedicated timer thread.
/// Entries are step-scoped: [`Rendezvous::drop_step`] purges a run's
/// in-flight (still-delayed) transfers from the timer heap *and* its table
/// entries, so an aborted run leaves the network verifiably quiescent.
///
/// The only straggler that can reach the table after `drop_step` is a
/// transfer the timer popped just before the purge, so the table's
/// tombstone for a dropped step lives exactly that long: `drop_step`
/// releases it at once unless the timer is mid-delivery for the step, in
/// which case the timer releases it when the delivery ends.
pub struct NetworkRendezvous {
    inner: InMemoryRendezvous,
    model: NetworkModel,
    state: Arc<(Mutex<SchedulerState>, Condvar)>,
    timer: Option<thread::JoinHandle<()>>,
    /// Per-run transport contexts, installed by the session around a run.
    /// The key set doubles as the set of in-flight steps for
    /// [`NetworkRendezvous::quiescent`].
    runs: Mutex<HashMap<StepId, RunCtx>>,
}

impl NetworkRendezvous {
    /// Creates a rendezvous with the given network model.
    pub fn new(model: NetworkModel) -> Arc<NetworkRendezvous> {
        let inner = InMemoryRendezvous::new();
        let state = Arc::new((
            Mutex::new(SchedulerState {
                heap: BinaryHeap::new(),
                seq: 0,
                shutdown: false,
                delivering: None,
            }),
            Condvar::new(),
        ));
        let timer_state = state.clone();
        let timer_inner = inner.clone();
        let timer = thread::Builder::new()
            .name("dcf-netsim".into())
            .spawn(move || {
                let (lock, cvar) = &*timer_state;
                let mut st = lock.lock();
                loop {
                    if st.shutdown {
                        break;
                    }
                    let now = Instant::now();
                    // Deliver everything due.
                    while st.heap.peek().map(|Reverse(p)| p.due <= now).unwrap_or(false) {
                        let Some(Reverse(p)) = st.heap.pop() else { break };
                        st.delivering = Some((p.step, false));
                        // Deliver outside the lock: recv callbacks may run
                        // arbitrary executor code.
                        drop(st);
                        match p.payload {
                            Payload::Deliver(token) => {
                                timer_inner.send(p.step, p.key, &p.key, token)
                            }
                            Payload::Fail(err) => timer_inner.send_error(p.step, p.key, err),
                        }
                        st = lock.lock();
                        if let Some((step, true)) = st.delivering.take() {
                            // The step was dropped mid-delivery; now that
                            // the straggler has landed (and been discarded),
                            // its tombstone can go.
                            timer_inner.release_step(step);
                        }
                    }
                    match st.heap.peek() {
                        Some(Reverse(p)) => {
                            let due = p.due;
                            cvar.wait_until(&mut st, due);
                        }
                        None => {
                            cvar.wait(&mut st);
                        }
                    }
                }
            })
            .expect("failed to spawn netsim timer");
        Arc::new(NetworkRendezvous {
            inner,
            model,
            state,
            timer: Some(timer),
            runs: Mutex::new(HashMap::new()),
        })
    }

    /// Installs the transport context for `step`: its retry policy,
    /// (optionally) a fault plan, and (optionally, for traced runs) the
    /// step-stats collector its transfers are recorded into. Call before
    /// the run's executors start.
    pub fn begin_run(
        &self,
        step: StepId,
        retry: RetryPolicy,
        plan: Option<FaultPlan>,
        collector: Option<Arc<StepStatsCollector>>,
    ) {
        self.runs
            .lock()
            .insert(step, RunCtx { retry, plan, log: Arc::new(FaultLog::default()), collector });
    }

    /// Removes the transport context for `step`, returning the retries
    /// performed and the faults injected over the run.
    pub fn end_run(&self, step: StepId) -> (u64, Vec<crate::fault::FaultEvent>) {
        match self.runs.lock().remove(&step) {
            Some(ctx) => ctx.log.snapshot(),
            None => (0, Vec::new()),
        }
    }

    /// Clears rendezvous state between unrelated runs (prefer
    /// [`Rendezvous::drop_step`] for per-run teardown).
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// `true` when no *leaked* state is live: every in-flight transfer on
    /// the timer and every rendezvous entry (value or blocked receiver)
    /// belongs to a step whose run is still active (between `begin_run`
    /// and `end_run`). An ended or never-begun step with live state is a
    /// teardown leak and reports non-quiescence; a concurrent step
    /// mid-flight does not.
    pub fn quiescent(&self) -> bool {
        let active: std::collections::HashSet<StepId> = self.runs.lock().keys().copied().collect();
        let heap_ok = self.state.0.lock().heap.iter().all(|Reverse(p)| active.contains(&p.step));
        heap_ok && self.inner.steps_with_entries().iter().all(|s| active.contains(s))
    }

    /// `true` when `step` has no in-flight transfer on the timer and no
    /// live rendezvous entry — the post-run/abort invariant the session
    /// asserts for one finished step, regardless of other concurrent steps.
    pub fn quiescent_step(&self, step: StepId) -> bool {
        self.state.0.lock().heap.iter().all(|Reverse(p)| p.step != step)
            && self.inner.live_entries_for(step) == 0
    }

    /// Live rendezvous-table entries across all steps (diagnostics).
    pub fn live_entries(&self) -> usize {
        self.inner.live_entries()
    }

    /// Receivers blocked on values that have not arrived (diagnostics).
    pub fn pending_waiters(&self) -> usize {
        self.inner.pending_waiters()
    }

    /// Tombstones of dropped steps still held by the table (diagnostics):
    /// at most the one step whose straggler the timer is delivering.
    pub fn tombstones(&self) -> usize {
        self.inner.tombstones()
    }

    /// Decides the transfer's outcome: with a fault plan installed (and the
    /// `faultinject` feature on), walks the deterministic attempt sequence
    /// accumulating backoffs and injected delays; otherwise a clean
    /// delivery after the base network delay, still subject to the
    /// policy's per-transfer deadline. Also returns the owning step's
    /// collector (resolved under the same lock) so the transfer is
    /// recorded into exactly its own run's stats.
    fn decide_fate(
        &self,
        step: StepId,
        name: &dyn fmt::Display,
        src_machine: usize,
        base: Duration,
    ) -> (Fate, Option<Arc<StepStatsCollector>>) {
        let runs = self.runs.lock();
        let Some(ctx) = runs.get(&step) else {
            let _ = src_machine;
            return (Fate::clean(base), None);
        };
        let collector = ctx.collector.clone();
        let retry = ctx.retry;
        let mut fate = Fate::clean(base);

        #[cfg(feature = "faultinject")]
        if let Some(plan) = &ctx.plan {
            // Rolls hash the readable key text, so a seeded plan's faults
            // do not depend on how keys are represented in memory.
            let key = name.to_string();
            fate = Self::faulted_fate(plan, &ctx.log, &retry, &key, src_machine, base);
        }

        if fate.error.is_none() {
            if let Some(deadline) = retry.transfer_deadline {
                if fate.total > deadline {
                    fate.error = Some(ExecError::TransferFailed {
                        key: name.to_string(),
                        attempts: fate.attempts,
                    });
                }
            }
        }
        (fate, collector)
    }

    /// Walks the attempt sequence under `plan`. Each attempt rolls drop /
    /// delay / duplicate / reorder independently; a dropped attempt costs
    /// its network delay plus the next backoff and is retried until the
    /// budget or the per-transfer deadline runs out.
    #[cfg(feature = "faultinject")]
    fn faulted_fate(
        plan: &FaultPlan,
        log: &FaultLog,
        retry: &RetryPolicy,
        key: &str,
        src_machine: usize,
        base: Duration,
    ) -> Fate {
        let max_attempts = 1 + retry.max_retries;
        let mut total = Duration::ZERO;

        // One-shot worker stall on the first transfer leaving the stalled
        // machine.
        if let Some(stall) = plan.stall {
            if stall.machine == src_machine && log.take_stall() {
                total += stall.delay;
                log.record(FaultKind::Stall, key, 1);
            }
        }

        for attempt in 1..=max_attempts {
            if attempt > 1 {
                total += retry.backoff(attempt - 1);
                log.add_retries(1);
            }
            total += base;
            if let Some(deadline) = retry.transfer_deadline {
                if total > deadline {
                    return Fate {
                        total,
                        attempts: attempt,
                        duplicate_after: None,
                        error: Some(ExecError::TransferFailed {
                            key: key.to_string(),
                            attempts: attempt,
                        }),
                    };
                }
            }
            if plan.roll(0, key, attempt) < plan.drop {
                log.record(FaultKind::Drop, key, attempt);
                continue;
            }
            // Delivered. Roll the non-fatal faults.
            let mut duplicate_after = None;
            if plan.roll(1, key, attempt) < plan.delay {
                let extra = plan.max_extra_delay.mul_f64(plan.roll(5, key, attempt));
                total += extra;
                log.record(FaultKind::Delay, key, attempt);
            }
            if plan.roll(3, key, attempt) < plan.reorder {
                // Hold the transfer long enough for later sends to overtake.
                total += base * 2 + plan.max_extra_delay;
                log.record(FaultKind::Reorder, key, attempt);
            }
            if plan.roll(2, key, attempt) < plan.duplicate {
                duplicate_after = Some(base.max(Duration::from_micros(50)));
                log.record(FaultKind::Duplicate, key, attempt);
            }
            return Fate { total, attempts: attempt, duplicate_after, error: None };
        }
        Fate {
            total,
            attempts: max_attempts,
            duplicate_after: None,
            error: Some(ExecError::TransferFailed { key: key.to_string(), attempts: max_attempts }),
        }
    }

    fn schedule(&self, due: Instant, step: StepId, key: RendezvousKey, payload: Payload) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        st.seq += 1;
        let seq = st.seq;
        st.heap.push(Reverse(Pending { due, seq, step, key, payload }));
        cvar.notify_one();
    }
}

impl Rendezvous for NetworkRendezvous {
    fn send(&self, step: StepId, key: RendezvousKey, name: &dyn fmt::Display, token: Token) {
        let machines = key.edge.machines();
        let base = match machines {
            Some((a, b)) => self.model.delay(a, b, &token),
            None => Duration::ZERO,
        };
        let (fate, collector) = match machines {
            Some((src, _)) => self.decide_fate(step, name, src, base),
            // Unrouted (same-machine) edges bypass the network model and
            // the fault plan entirely.
            None => (Fate::clean(Duration::ZERO), None),
        };
        if let Some(c) = collector {
            c.record_transfer(TransferStats {
                key: name.to_string(),
                bytes: self.model.modeled_bytes(&token) as u64,
                start_us: c.now_us(),
                delay_us: fate.total.as_micros() as u64,
            });
        }
        if let Some(err) = fate.error {
            self.schedule(Instant::now() + fate.total, step, key, Payload::Fail(err));
            return;
        }
        if fate.total.is_zero() && fate.duplicate_after.is_none() {
            self.inner.send(step, key, name, token);
            return;
        }
        let due = Instant::now() + fate.total;
        if let Some(extra) = fate.duplicate_after {
            // The rendezvous keeps the first value for a key, so the
            // duplicate is absorbed there (and reclaimed at drop_step).
            self.schedule(due + extra, step, key, Payload::Deliver(token.clone()));
        }
        self.schedule(due, step, key, Payload::Deliver(token));
    }

    fn send_error(&self, step: StepId, key: RendezvousKey, err: ExecError) {
        self.inner.send_error(step, key, err);
    }

    fn recv_async(&self, step: StepId, key: RendezvousKey, callback: RecvCallback) {
        self.inner.recv_async(step, key, callback);
    }

    fn drop_step(&self, step: StepId, err: ExecError) {
        // Purge the step's in-flight (delayed) transfers so nothing lands
        // in the table after teardown.
        {
            let mut st = self.state.0.lock();
            if st.heap.iter().any(|Reverse(p)| p.step == step) {
                let drained = std::mem::take(&mut st.heap);
                st.heap = drained.into_iter().filter(|Reverse(p)| p.step != step).collect();
            }
        }
        self.inner.drop_step(step, err);
        // With the heap purged, the only straggler left is a transfer the
        // timer is handing over right now; if there is one, the timer
        // releases the tombstone after it, otherwise no straggler remains.
        {
            let mut st = self.state.0.lock();
            if let Some((delivering, release)) = &mut st.delivering {
                if *delivering == step {
                    *release = true;
                    return;
                }
            }
        }
        self.inner.release_step(step);
    }
}

impl Drop for NetworkRendezvous {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.state;
            lock.lock().shutdown = true;
            cvar.notify_all();
        }
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_exec::{EdgeKey, FrameKey, Tag};
    use dcf_tensor::Tensor;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The key of the root-frame activation of the edge named `name`.
    fn k(name: &str) -> RendezvousKey {
        RendezvousKey { edge: EdgeKey::parse(name), tag: Tag { frame: FrameKey::ROOT, iter: 0 } }
    }

    #[test]
    fn key_parsing() {
        assert_eq!(k("m3>m17/d1>d2/x").edge.machines(), Some((3, 17)));
        assert_eq!(k("nokey").edge.machines(), None);
    }

    #[test]
    fn delay_model_shapes() {
        let m = NetworkModel { shape_scale: 32, ..Default::default() };
        let small = Token::live(Tensor::scalar_f32(1.0));
        let big = Token::live(Tensor::ones(&[32, 32]));
        assert!(m.delay(0, 1, &big) > m.delay(0, 1, &small));
        assert!(m.delay(0, 1, &small) >= m.cross_latency);
        assert!(m.delay(0, 0, &small) < m.delay(0, 1, &small));
        let dead = Token::dead();
        assert!(m.delay(0, 1, &dead) < m.delay(0, 1, &big));
        assert_eq!(NetworkModel::disabled().delay(0, 1, &big), Duration::ZERO);
    }

    #[test]
    fn delayed_delivery_happens() {
        let model =
            NetworkModel { cross_latency: Duration::from_millis(20), ..NetworkModel::default() };
        let r = NetworkRendezvous::new(model);
        let hit = Arc::new(AtomicBool::new(false));
        let h = hit.clone();
        r.recv_async(0, k("m0>m1/x"), Box::new(move |_| h.store(true, Ordering::SeqCst)));
        let t0 = Instant::now();
        r.send(0, k("m0>m1/x"), &"m0>m1/x", Token::live(Tensor::scalar_f32(1.0)));
        assert!(!hit.load(Ordering::SeqCst), "must not deliver synchronously");
        while !hit.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(5), "delivery never happened");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(t0.elapsed() >= Duration::from_millis(18));
        assert!(r.quiescent());
    }

    #[test]
    fn unprefixed_keys_deliver_immediately() {
        let r = NetworkRendezvous::new(NetworkModel::default());
        let hit = Arc::new(AtomicBool::new(false));
        let h = hit.clone();
        r.recv_async(0, k("plain"), Box::new(move |_| h.store(true, Ordering::SeqCst)));
        r.send(0, k("plain"), &"plain", Token::dead());
        assert!(hit.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_step_purges_in_flight_transfers() {
        let model =
            NetworkModel { cross_latency: Duration::from_millis(50), ..NetworkModel::default() };
        let r = NetworkRendezvous::new(model);
        r.send(7, k("m0>m1/x"), &"m0>m1/x", Token::live(Tensor::scalar_f32(1.0)));
        assert!(!r.quiescent(), "transfer is in flight");
        r.drop_step(7, ExecError::Cancelled("abort".into()));
        assert!(r.quiescent(), "drop_step purged the heap");
        // Nothing lands later either.
        thread::sleep(Duration::from_millis(70));
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn quiescent_ignores_active_steps_but_not_leaks() {
        let model =
            NetworkModel { cross_latency: Duration::from_millis(50), ..NetworkModel::default() };
        let r = NetworkRendezvous::new(model);
        r.begin_run(11, RetryPolicy::default(), None, None);
        r.send(11, k("m0>m1/x"), &"m0>m1/x", Token::live(Tensor::scalar_f32(1.0)));
        assert!(!r.quiescent_step(11), "step 11 has live transfer state");
        assert!(r.quiescent(), "an active step mid-flight is not a leak");
        r.end_run(11);
        assert!(!r.quiescent(), "an ended step with live state is a leak");
        r.drop_step(11, ExecError::Cancelled("cleanup".into()));
        assert!(r.quiescent());
        assert!(r.quiescent_step(11));
    }

    #[test]
    fn transfer_deadline_fails_structurally() {
        let model =
            NetworkModel { cross_latency: Duration::from_millis(20), ..NetworkModel::default() };
        let r = NetworkRendezvous::new(model);
        let retry = RetryPolicy {
            transfer_deadline: Some(Duration::from_millis(1)),
            ..RetryPolicy::default()
        };
        r.begin_run(9, retry, None, None);
        let got = Arc::new(Mutex::new(None));
        let g = got.clone();
        r.recv_async(9, k("m0>m1/slow"), Box::new(move |res| *g.lock() = Some(res)));
        r.send(9, k("m0>m1/slow"), &"m0>m1/slow", Token::live(Tensor::scalar_f32(1.0)));
        let t0 = Instant::now();
        loop {
            if let Some(res) = got.lock().take() {
                assert!(matches!(res, Err(ExecError::TransferFailed { .. })), "got {res:?}");
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "failure never delivered");
            thread::sleep(Duration::from_millis(1));
        }
        r.end_run(9);
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn dropped_transfers_retry_and_deliver() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        // Heavy drop probability, generous retry budget: every transfer
        // still gets through, with retries logged.
        let plan = FaultPlan::seeded(7).with_drop(0.6);
        let retry = RetryPolicy { max_retries: 16, ..RetryPolicy::default() };
        r.begin_run(1, retry, Some(plan), None);
        let mut delivered = 0;
        for i in 0..32 {
            let key = format!("m0>m1/k{i}");
            let hit = Arc::new(AtomicBool::new(false));
            let h = hit.clone();
            r.recv_async(1, k(&key), Box::new(move |_| h.store(true, Ordering::SeqCst)));
            r.send(1, k(&key), &key, Token::live(Tensor::scalar_f32(i as f32)));
            let t0 = Instant::now();
            while !hit.load(Ordering::SeqCst) {
                assert!(t0.elapsed() < Duration::from_secs(5), "k{i} never delivered");
                thread::sleep(Duration::from_micros(200));
            }
            delivered += 1;
        }
        let (retries, events) = r.end_run(1);
        assert_eq!(delivered, 32);
        assert!(retries > 0, "drop rate 0.6 must force retries");
        assert!(events.iter().any(|e| e.kind == FaultKind::Drop));
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn retry_budget_exhaustion_is_structured() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        let plan = FaultPlan::seeded(3).with_drop(1.0); // every attempt drops
        r.begin_run(2, RetryPolicy { max_retries: 2, ..RetryPolicy::default() }, Some(plan), None);
        let got = Arc::new(Mutex::new(None));
        let g = got.clone();
        r.recv_async(2, k("m0>m1/doomed"), Box::new(move |res| *g.lock() = Some(res)));
        r.send(2, k("m0>m1/doomed"), &"m0>m1/doomed", Token::live(Tensor::scalar_f32(1.0)));
        let t0 = Instant::now();
        loop {
            if let Some(res) = got.lock().take() {
                match res {
                    Err(ExecError::TransferFailed { attempts, .. }) => {
                        assert_eq!(attempts, 3, "1 initial + 2 retries");
                    }
                    other => panic!("expected TransferFailed, got {other:?}"),
                }
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "failure never delivered");
            thread::sleep(Duration::from_micros(200));
        }
        r.end_run(2);
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn duplicates_are_absorbed() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        let plan = FaultPlan::seeded(11).with_duplicate(1.0);
        r.begin_run(4, RetryPolicy::default(), Some(plan), None);
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            4,
            k("m0>m1/dup"),
            Box::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        r.send(4, k("m0>m1/dup"), &"m0>m1/dup", Token::live(Tensor::scalar_f32(2.0)));
        let t0 = Instant::now();
        while hits.load(Ordering::SeqCst) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            thread::sleep(Duration::from_micros(200));
        }
        // Give the duplicate time to land; the receiver must fire once.
        thread::sleep(Duration::from_millis(5));
        assert_eq!(hits.load(Ordering::SeqCst), 1, "duplicate absorbed by rendezvous");
        let (_, events) = r.end_run(4);
        assert!(events.iter().any(|e| e.kind == FaultKind::Duplicate));
        r.drop_step(4, ExecError::Cancelled("cleanup".into()));
        assert!(r.quiescent());
    }

    #[cfg(feature = "faultinject")]
    #[test]
    fn stall_is_one_shot() {
        let r = NetworkRendezvous::new(NetworkModel::disabled());
        let plan = FaultPlan::seeded(5).with_stall(0, Duration::from_millis(30));
        r.begin_run(6, RetryPolicy::default(), Some(plan), None);
        let t0 = Instant::now();
        let hit = Arc::new(AtomicBool::new(false));
        let h = hit.clone();
        r.recv_async(6, k("m0>m1/a"), Box::new(move |_| h.store(true, Ordering::SeqCst)));
        r.send(6, k("m0>m1/a"), &"m0>m1/a", Token::live(Tensor::scalar_f32(1.0)));
        while !hit.load(Ordering::SeqCst) {
            assert!(t0.elapsed() < Duration::from_secs(5));
            thread::sleep(Duration::from_millis(1));
        }
        assert!(t0.elapsed() >= Duration::from_millis(25), "first send stalls");
        // Second send from the same machine is not stalled.
        let t1 = Instant::now();
        let hit2 = Arc::new(AtomicBool::new(false));
        let h2 = hit2.clone();
        r.recv_async(6, k("m0>m1/b"), Box::new(move |_| h2.store(true, Ordering::SeqCst)));
        r.send(6, k("m0>m1/b"), &"m0>m1/b", Token::live(Tensor::scalar_f32(2.0)));
        while !hit2.load(Ordering::SeqCst) {
            assert!(t1.elapsed() < Duration::from_secs(5));
            thread::sleep(Duration::from_micros(200));
        }
        assert!(t1.elapsed() < Duration::from_millis(25), "stall was consumed");
        let (_, events) = r.end_run(6);
        assert_eq!(events.iter().filter(|e| e.kind == FaultKind::Stall).count(), 1);
    }
}
