//! The Send/Recv rendezvous (§3).
//!
//! `Send(t, k)` publishes tensor `t` under rendezvous key `k`; `Recv(k)`
//! pulls it, asynchronously. A key combines the static edge with the
//! dynamic tag, so each loop iteration's transfer rendezvouses
//! independently (§3: "the unique names and rendezvous keys must be
//! generated dynamically to distinguish multiple invocations of the same
//! operations"). Deadness crosses the rendezvous too, implementing the
//! distributed is_dead propagation of §4.4.
//!
//! # Integer keys
//!
//! A [`RendezvousKey`] is `Copy` and made of integers only: the
//! [`EdgeKey`] the partitioner's Send/Recv pair shares (precomputed once
//! per graph from the pair's `key_base`) and the [`Tag`] of the activation.
//! Both partitions derive equal keys for the same transfer, like
//! TensorFlow's rendezvous keyed by (frame id, iteration id) rather than by
//! a string path, so the table is one flat hash map and a transfer builds
//! no text.
//!
//! Text is rendered only when something needs it to be readable or stable
//! across versions: a sender passes a lazily rendered *name* alongside the
//! key (`m0>m1/d0>d1/t12p0|root;0/while_4;3`), which transports format only
//! for traces, errors, and fault-plan rolls.
//!
//! # Steps and tombstones
//!
//! Every entry is additionally scoped by a **step id** — the run that
//! produced it. A run that aborts (deadline, kernel failure, injected
//! fault) tears down exactly its own entries with [`Rendezvous::drop_step`]:
//! published-but-unconsumed values are reclaimed and blocked receivers get
//! `Err(Cancelled)`, so back-to-back runs on one rendezvous can never
//! observe a stale tensor from an earlier step. A dropped step leaves a
//! tombstone so a straggling `send` cannot resurrect it; the owner of the
//! straggler window removes it with [`InMemoryRendezvous::release_step`]
//! once no straggler can land, so tombstones do not accumulate.

use crate::frame::{BuildIntHasher, Tag};
use crate::token::{ExecError, Token};
use dcf_sync::Mutex;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of one run ("step") sharing a rendezvous. Step 0 is the
/// default for single-executor runs that never overlap.
pub type StepId = u64;

/// What a pending `Recv` resolves to: the sent token, or a structured
/// error when the transfer failed or its step was torn down.
pub type RecvResult = crate::Result<Token>;

/// Callback invoked when the value (or failure) for a pending `Recv` is
/// known.
pub type RecvCallback = Box<dyn FnOnce(RecvResult) + Send>;

/// The static half of a rendezvous key: one Send/Recv edge of a
/// partitioned graph, with the machines it connects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeKey {
    /// Machine of the sending device ([`EdgeKey::UNROUTED`] if unknown).
    pub src_machine: u32,
    /// Machine of the receiving device ([`EdgeKey::UNROUTED`] if unknown).
    pub dst_machine: u32,
    /// Stable hash of the edge's `key_base`; equal on every partition.
    pub id: u64,
}

impl EdgeKey {
    /// Machine number of an edge whose `key_base` names no machines: such
    /// an edge never crosses the (simulated) network.
    pub const UNROUTED: u32 = u32::MAX;

    /// Derives the key of the edge named `key_base`. A partitioner name
    /// starts with `m{src}>m{dst}/`, naming the endpoint machines; any
    /// other name is an unrouted, same-machine edge.
    pub fn parse(key_base: &str) -> EdgeKey {
        let id = crate::frame::frame_name_hash(key_base);
        let (src_machine, dst_machine) =
            parse_machines(key_base).unwrap_or((EdgeKey::UNROUTED, EdgeKey::UNROUTED));
        EdgeKey { src_machine, dst_machine, id }
    }

    /// The `(src, dst)` machines of a routed edge; `None` if unrouted.
    pub fn machines(&self) -> Option<(usize, usize)> {
        if self.src_machine == EdgeKey::UNROUTED || self.dst_machine == EdgeKey::UNROUTED {
            return None;
        }
        Some((self.src_machine as usize, self.dst_machine as usize))
    }
}

fn parse_machines(key: &str) -> Option<(u32, u32)> {
    // Format: "m{a}>m{b}/...".
    let rest = key.strip_prefix('m')?;
    let (a, rest) = rest.split_once(">m")?;
    let (b, _) = rest.split_once('/')?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

/// A full rendezvous key: which edge, and which dynamic activation of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RendezvousKey {
    /// The Send/Recv edge.
    pub edge: EdgeKey,
    /// The (frame, iteration) tag of the activation.
    pub tag: Tag,
}

impl fmt::Display for RendezvousKey {
    /// The integer form, `e<edge id in hex>|<tag>`. The readable form with
    /// the edge's name and the frame path is rendered by the sender.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{:016x}|{}", self.edge.id, self.tag)
    }
}

/// Abstract rendezvous between device executors.
pub trait Rendezvous: Send + Sync {
    /// Publishes `token` under `key` within `step`. Never blocks. `name`
    /// renders the key's readable form on demand (traces, errors, fault
    /// rolls); a transport that needs none of those never formats it.
    fn send(&self, step: StepId, key: RendezvousKey, name: &dyn fmt::Display, token: Token);
    /// Publishes a delivery failure under `key` within `step`: a pending
    /// (or future) `recv_async` for the key observes `Err(err)` instead of
    /// a value. Used by fault-injecting transports whose retries ran out.
    fn send_error(&self, step: StepId, key: RendezvousKey, err: ExecError);
    /// Requests the value for `key` within `step`; `callback` fires
    /// (possibly immediately, possibly on the sender's thread) once the
    /// value is available or the transfer is known to have failed.
    fn recv_async(&self, step: StepId, key: RendezvousKey, callback: RecvCallback);
    /// Reclaims every entry of `step`: unconsumed values are dropped and
    /// blocked receivers observe `Err(err)`. Called by the session when a
    /// run finishes or aborts, so one step's leftovers cannot leak into
    /// the next.
    fn drop_step(&self, step: StepId, err: ExecError);
}

enum Slot {
    Value(RecvResult),
    /// Blocked receivers: the first, then any further ones (only a
    /// duplicated Recv would add more, so the `Vec` stays unallocated).
    Waiting(RecvCallback, Vec<RecvCallback>),
}

/// A process-local rendezvous table.
///
/// `dcf-runtime` layers simulated network latency (and injected faults)
/// on top of this for cross-machine edges.
#[derive(Clone, Default)]
pub struct InMemoryRendezvous {
    state: Arc<Mutex<TableState>>,
}

#[derive(Default)]
struct TableState {
    /// Every live entry of every step, in one flat map.
    table: HashMap<(StepId, RendezvousKey), Slot, BuildIntHasher>,
    /// Steps torn down whose stragglers may still arrive. A straggler
    /// `send` racing `drop_step` (e.g. a delayed netsim delivery popped
    /// off the timer heap just before the purge) must not resurrect a
    /// table entry, and a straggler `recv_async` must observe the teardown
    /// rather than block forever. Removed by
    /// [`InMemoryRendezvous::release_step`] once the window has closed.
    dropped: HashSet<StepId>,
}

impl InMemoryRendezvous {
    /// Creates an empty rendezvous.
    pub fn new() -> InMemoryRendezvous {
        InMemoryRendezvous::default()
    }

    /// Number of published-but-unconsumed values across all steps
    /// (diagnostics).
    pub fn pending_values(&self) -> usize {
        self.state.lock().table.values().filter(|s| matches!(s, Slot::Value(_))).count()
    }

    /// Number of receivers blocked on values that have not arrived, across
    /// all steps (diagnostics / quiescence checks).
    pub fn pending_waiters(&self) -> usize {
        self.state
            .lock()
            .table
            .values()
            .map(|s| match s {
                Slot::Waiting(_, more) => 1 + more.len(),
                Slot::Value(_) => 0,
            })
            .sum()
    }

    /// Total live entries (values + waiter slots) across all steps. Zero
    /// means the table is fully quiescent.
    pub fn live_entries(&self) -> usize {
        self.state.lock().table.len()
    }

    /// Live entries (values + waiter slots) belonging to `step`. Zero
    /// means the step left no rendezvous state behind.
    pub fn live_entries_for(&self, step: StepId) -> usize {
        self.state.lock().table.keys().filter(|(s, _)| *s == step).count()
    }

    /// Steps that currently hold at least one live entry, so callers
    /// tracking the set of in-flight runs can distinguish their state from
    /// leaked state of already-ended steps.
    pub fn steps_with_entries(&self) -> Vec<StepId> {
        let steps: HashSet<StepId> = self.state.lock().table.keys().map(|(s, _)| *s).collect();
        steps.into_iter().collect()
    }

    /// Tombstones of dropped steps not yet released (diagnostics).
    pub fn tombstones(&self) -> usize {
        self.state.lock().dropped.len()
    }

    /// Forgets the tombstone [`Rendezvous::drop_step`] left for `step`:
    /// call once no straggler of the step can still arrive. Afterwards the
    /// step id is treated like any other.
    pub fn release_step(&self, step: StepId) {
        self.state.lock().dropped.remove(&step);
    }

    /// Clears all state across every step, including the tombstones of
    /// dropped steps (between unrelated test runs; prefer
    /// [`Rendezvous::drop_step`] for per-run teardown).
    pub fn clear(&self) {
        let cleared = {
            let mut st = self.state.lock();
            (std::mem::take(&mut st.table), std::mem::take(&mut st.dropped))
        };
        // Waiting callbacks are dropped (not invoked) here: `clear` is the
        // blunt whole-table reset, only used when no run is in flight.
        drop(cleared);
    }

    fn publish(&self, step: StepId, key: RendezvousKey, result: RecvResult) {
        let (first, more) = {
            let mut st = self.state.lock();
            if st.dropped.contains(&step) {
                // The step was torn down; discard the straggler.
                return;
            }
            match st.table.remove(&(step, key)) {
                None => {
                    st.table.insert((step, key), Slot::Value(result));
                    return;
                }
                Some(Slot::Waiting(first, more)) => (first, more),
                Some(Slot::Value(prev)) => {
                    // Double send on one key: a duplicated transfer (or a
                    // graph bug); keep the first value.
                    st.table.insert((step, key), Slot::Value(prev));
                    return;
                }
            }
        };
        // Invoke callbacks outside the lock. Extra waiters each get a
        // clone (only ever one waiter in practice).
        for cb in more {
            cb(result.clone());
        }
        first(result);
    }
}

impl Rendezvous for InMemoryRendezvous {
    fn send(&self, step: StepId, key: RendezvousKey, _name: &dyn fmt::Display, token: Token) {
        self.publish(step, key, Ok(token));
    }

    fn send_error(&self, step: StepId, key: RendezvousKey, err: ExecError) {
        self.publish(step, key, Err(err));
    }

    fn recv_async(&self, step: StepId, key: RendezvousKey, callback: RecvCallback) {
        let value = {
            let mut st = self.state.lock();
            if st.dropped.contains(&step) {
                drop(st);
                callback(Err(ExecError::Cancelled(format!("step {step} torn down"))));
                return;
            }
            match st.table.remove(&(step, key)) {
                Some(Slot::Value(t)) => t,
                Some(Slot::Waiting(first, mut more)) => {
                    more.push(callback);
                    st.table.insert((step, key), Slot::Waiting(first, more));
                    return;
                }
                None => {
                    st.table.insert((step, key), Slot::Waiting(callback, Vec::new()));
                    return;
                }
            }
        };
        callback(value);
    }

    fn drop_step(&self, step: StepId, err: ExecError) {
        let entries: Vec<Slot> = {
            let mut st = self.state.lock();
            st.dropped.insert(step);
            st.table.extract_if(|(s, _), _| *s == step).map(|(_, slot)| slot).collect()
        };
        // Drop reclaimed values and fire stranded receivers outside the
        // lock: receivers re-enter the executor (which drains them as
        // no-ops once its run has failed).
        for slot in entries {
            if let Slot::Waiting(first, more) = slot {
                first(Err(err.clone()));
                for cb in more {
                    cb(Err(err.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKey;
    use dcf_tensor::Tensor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The key of the root-frame activation of the edge named `name`.
    fn k(name: &str) -> RendezvousKey {
        RendezvousKey { edge: EdgeKey::parse(name), tag: Tag { frame: FrameKey::ROOT, iter: 0 } }
    }

    #[test]
    fn edge_keys_parse_machines_and_hash_names() {
        let e = EdgeKey::parse("m3>m17/d1>d2/x");
        assert_eq!(e.machines(), Some((3, 17)));
        assert_eq!(e, EdgeKey::parse("m3>m17/d1>d2/x"), "derivation is deterministic");
        assert_ne!(e.id, EdgeKey::parse("m3>m17/d1>d2/y").id);
        assert_eq!(EdgeKey::parse("nokey").machines(), None);
        let tag = |iter| Tag { frame: FrameKey::ROOT, iter };
        assert_ne!(RendezvousKey { edge: e, tag: tag(0) }, RendezvousKey { edge: e, tag: tag(1) });
    }

    #[test]
    fn send_then_recv() {
        let r = InMemoryRendezvous::new();
        r.send(1, k("k1"), &"k1", Token::live(Tensor::scalar_f32(5.0)));
        assert_eq!(r.pending_values(), 1);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            1,
            k("k1"),
            Box::new(move |t| {
                assert_eq!(t.unwrap().value.scalar_as_f32().unwrap(), 5.0);
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(r.pending_values(), 0);
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn recv_then_send() {
        let r = InMemoryRendezvous::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            0,
            k("k1"),
            Box::new(move |t| {
                assert!(t.unwrap().is_dead);
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(r.pending_waiters(), 1);
        r.send(0, k("k1"), &"k1", Token::dead());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(r.pending_waiters(), 0);
    }

    #[test]
    fn keys_are_independent() {
        let r = InMemoryRendezvous::new();
        r.send(0, k("a"), &"a", Token::live(Tensor::scalar_i64(1)));
        r.send(0, k("b"), &"b", Token::live(Tensor::scalar_i64(2)));
        let got = Arc::new(Mutex::new(Vec::new()));
        for key in ["b", "a"] {
            let g = got.clone();
            r.recv_async(
                0,
                k(key),
                Box::new(move |t| g.lock().push(t.unwrap().value.scalar_as_i64().unwrap())),
            );
        }
        assert_eq!(*got.lock(), vec![2, 1]);
    }

    #[test]
    fn steps_are_isolated() {
        // The same key in two different steps holds two different values:
        // a stale tensor from step 7 can never satisfy step 8's recv.
        let r = InMemoryRendezvous::new();
        r.send(7, k("x"), &"x", Token::live(Tensor::scalar_i64(70)));
        r.send(8, k("x"), &"x", Token::live(Tensor::scalar_i64(80)));
        let got = Arc::new(AtomicUsize::new(0));
        let g = got.clone();
        r.recv_async(
            8,
            k("x"),
            Box::new(move |t| {
                g.store(t.unwrap().value.scalar_as_i64().unwrap() as usize, Ordering::SeqCst)
            }),
        );
        assert_eq!(got.load(Ordering::SeqCst), 80);
        assert_eq!(r.pending_values(), 1, "step 7's value is untouched");
        assert_eq!(r.live_entries_for(7), 1);
        assert_eq!(r.live_entries_for(8), 0, "step 8 consumed its value");
        assert_eq!(r.steps_with_entries(), vec![7]);
    }

    #[test]
    fn drop_step_reclaims_values_and_cancels_waiters() {
        let r = InMemoryRendezvous::new();
        r.send(3, k("stale"), &"stale", Token::live(Tensor::scalar_i64(1)));
        let errs = Arc::new(AtomicUsize::new(0));
        let e = errs.clone();
        r.recv_async(
            3,
            k("never"),
            Box::new(move |t| {
                assert!(matches!(t, Err(ExecError::Cancelled(_))), "got {t:?}");
                e.fetch_add(1, Ordering::SeqCst);
            }),
        );
        r.send(4, k("other"), &"other", Token::live(Tensor::scalar_i64(2)));
        r.drop_step(3, ExecError::Cancelled("test abort".into()));
        assert_eq!(errs.load(Ordering::SeqCst), 1, "blocked recv observed cancellation");
        assert_eq!(r.pending_values(), 1, "other steps survive");
        r.drop_step(3, ExecError::Cancelled("idempotent".into()));
    }

    #[test]
    fn dropped_step_discards_stragglers() {
        // A send racing (and losing to) drop_step must not resurrect the
        // step, and a late recv must observe the teardown immediately.
        let r = InMemoryRendezvous::new();
        r.drop_step(5, ExecError::Cancelled("torn down".into()));
        r.send(5, k("late"), &"late", Token::live(Tensor::scalar_i64(9)));
        assert_eq!(r.live_entries(), 0, "straggler send discarded");
        let errs = Arc::new(AtomicUsize::new(0));
        let e = errs.clone();
        r.recv_async(
            5,
            k("late"),
            Box::new(move |t| {
                assert!(matches!(t, Err(ExecError::Cancelled(_))));
                e.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(errs.load(Ordering::SeqCst), 1, "late recv fails fast");
        assert_eq!(r.live_entries(), 0);
        // `clear` forgets the tombstone: step ids are then reusable.
        r.clear();
        r.send(5, k("fresh"), &"fresh", Token::live(Tensor::scalar_i64(1)));
        assert_eq!(r.pending_values(), 1);
    }

    #[test]
    fn released_tombstones_do_not_accumulate() {
        let r = InMemoryRendezvous::new();
        for step in 0..1000 {
            r.send(step, k("x"), &"x", Token::dead());
            r.drop_step(step, ExecError::Cancelled("done".into()));
            assert_eq!(r.tombstones(), 1, "the dropped step is tombstoned until released");
            r.release_step(step);
        }
        assert_eq!(r.tombstones(), 0);
        assert_eq!(r.live_entries(), 0);
    }

    #[test]
    fn send_error_reaches_receiver() {
        let r = InMemoryRendezvous::new();
        r.send_error(0, k("k"), ExecError::TransferFailed { key: "k".into(), attempts: 5 });
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        r.recv_async(
            0,
            k("k"),
            Box::new(move |t| {
                assert!(matches!(t, Err(ExecError::TransferFailed { .. })));
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clear_resets() {
        let r = InMemoryRendezvous::new();
        r.send(0, k("x"), &"x", Token::dead());
        r.send(9, k("y"), &"y", Token::dead());
        r.clear();
        assert_eq!(r.pending_values(), 0);
        assert_eq!(r.live_entries(), 0);
    }
}
