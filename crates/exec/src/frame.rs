//! Runtime frames and iterations: the dynamic execution contexts of §4.1.
//!
//! Frame state is sharded for parallel execution: each dynamically created
//! frame is an [`Arc<Frame>`] whose immutable metadata (identity, parent
//! link, key, parallelism knob) is read lock-free, while its mutable
//! bookkeeping lives in a per-frame [`FrameCore`] mutex. Workers operating
//! on different frames — or different loops — never contend. See
//! `DESIGN.md` ("Executor locking discipline") for the ordering rules.
//!
//! # Tags
//!
//! The paper's tag (§4) is a (frame, iteration) pair, and so is [`Tag`]:
//! a [`FrameKey`] plus an iteration number, both integers. A child frame's
//! key mixes its parent's key, the parent iteration that spawned it and a
//! hash of the frame's *name* (see [`frame_name_hash`]), so creating a
//! frame costs O(1) at any nesting depth and every partition of a graph
//! derives the same key for the same dynamic frame — which is what lets a
//! Send on one machine and its Recv on another meet under one rendezvous
//! key without exchanging any text.
//!
//! The readable frame path (`root;0/while_4`, the form traces and errors
//! show) is rendered only on demand and then cached once per frame; see
//! [`Frame::path`].

use crate::exec_graph::FrameNameId;
use crate::inline::InlineVec;
use crate::token::Token;
use dcf_graph::NodeId;
use dcf_sync::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// Identifier of a dynamically created frame instance, unique within one
/// executor's run (indexes that run's frame table).
pub(crate) type FrameId = u64;

/// The root frame's id.
pub(crate) const ROOT_FRAME: FrameId = 0;

/// Identity of a dynamic frame that every partition of a graph derives
/// alike: the root's key is [`FrameKey::ROOT`], and a child's key is
/// [`FrameKey::child`] of its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameKey(pub u64);

impl FrameKey {
    /// The root frame's key.
    pub const ROOT: FrameKey = FrameKey(0);

    /// The key of the frame named by `name_hash` (see [`frame_name_hash`])
    /// spawned by iteration `parent_iter` of this frame.
    pub fn child(self, parent_iter: u64, name_hash: u64) -> FrameKey {
        FrameKey(mix64(mix64(self.0 ^ name_hash).wrapping_add(parent_iter)))
    }
}

/// A dynamic tag: iteration `iter` of the frame `frame` (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tag {
    /// The frame the token belongs to.
    pub frame: FrameKey,
    /// The iteration within that frame.
    pub iter: u64,
}

impl fmt::Display for Tag {
    /// The integer form, `f<key in hex>;<iter>`. The readable path form
    /// needs the frame's names, which only the executor has.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{:016x};{}", self.frame.0, self.iter)
    }
}

/// Stable 64-bit hash of a frame name: FNV-1a, then the splitmix64
/// finalizer. Computed once per name when a graph is prepared for
/// execution, never on the activation path. Independent of the process
/// and the build, so every machine agrees on it.
pub fn frame_name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// The splitmix64 finalizer: a bijective mix with full avalanche.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Input tokens buffered by one activation, one slot per declared input;
/// inline for up to four inputs.
pub(crate) type Slots = InlineVec<Token, 4>;

/// Per-(node, iteration) activation state.
#[derive(Debug)]
pub(crate) struct NodeInstance {
    /// Buffered data input tokens, indexed by input slot.
    pub data: Slots,
    /// Member data inputs still missing.
    pub pending_data: usize,
    /// Member control inputs still missing.
    pub pending_control: usize,
    /// A dead data or control input has arrived.
    pub any_dead: bool,
    /// Merge bookkeeping: total arrivals so far.
    pub merge_arrivals: usize,
    /// Merge bookkeeping: dead arrivals so far.
    pub merge_dead: usize,
    /// The op instance has been scheduled (at-most-once execution).
    pub scheduled: bool,
}

impl NodeInstance {
    pub(crate) fn new(slots: usize, pending_data: usize, pending_control: usize) -> NodeInstance {
        NodeInstance {
            data: Slots::with_empty_slots(slots),
            pending_data,
            pending_control,
            any_dead: false,
            merge_arrivals: 0,
            merge_dead: 0,
            scheduled: false,
        }
    }
}

/// Hasher for maps keyed by small integers or already-mixed integer keys
/// (node ids, rendezvous keys): one multiply per word instead of SipHash.
#[derive(Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IntHasher`].
pub(crate) type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// State of one loop iteration within a frame.
#[derive(Debug, Default)]
pub(crate) struct IterationState {
    /// Activation state per node id.
    pub nodes: HashMap<usize, NodeInstance, BuildIntHasher>,
    /// Ops scheduled in this iteration whose outputs have not yet been
    /// propagated.
    pub outstanding_ops: usize,
    /// Child frames created in this iteration that have not yet completed.
    pub outstanding_frames: usize,
}

/// A deferred `NextIteration` token: target iteration was beyond the
/// parallel-iterations window when produced.
#[derive(Debug)]
pub(crate) struct DeferredToken {
    pub iter: usize,
    pub node: NodeId,
    pub token: Token,
}

/// Mutable per-frame bookkeeping, guarded by the frame's own mutex.
#[derive(Debug)]
pub(crate) struct FrameCore {
    /// Live iteration states, keyed by iteration number.
    pub iterations: BTreeMap<usize, IterationState>,
    /// Oldest incomplete iteration.
    pub front: usize,
    /// Number of iterations ever started (max started index + 1).
    pub started: usize,
    /// NextIteration tokens waiting for the window to advance.
    pub deferred: VecDeque<DeferredToken>,
    /// `Enter` tokens received so far.
    pub enters_seen: usize,
    /// Loop-constant tokens, replayed into every iteration: (enter node,
    /// token).
    pub constants: Vec<(NodeId, Token)>,
    /// Exit nodes that have produced only dead tokens so far.
    pub dead_exits: HashSet<NodeId>,
    /// Exit nodes that have delivered a live value.
    pub live_exits: HashSet<NodeId>,
    /// Completed dead activations in this frame (step-stats accounting;
    /// counted even when no collector is attached — one add under a lock
    /// already held).
    pub dead_tokens: u64,
    /// Set when the frame has completed (guards double completion).
    pub done: bool,
    /// Emptied states of retired iterations, reused by later ones so a
    /// long loop allocates its per-iteration node tables only once.
    spare: Vec<IterationState>,
}

/// Retired iteration states a frame keeps for reuse.
const SPARE_ITERATIONS: usize = 4;

impl FrameCore {
    fn new() -> FrameCore {
        let mut iterations = BTreeMap::new();
        iterations.insert(0, IterationState::default());
        FrameCore {
            iterations,
            front: 0,
            started: 1,
            deferred: VecDeque::new(),
            enters_seen: 0,
            constants: Vec::new(),
            dead_exits: HashSet::new(),
            live_exits: HashSet::new(),
            dead_tokens: 0,
            done: false,
            spare: Vec::new(),
        }
    }

    /// Starts iteration `i` with an empty state, recycled when possible.
    pub(crate) fn start_iteration(&mut self, i: usize) {
        let state = self.spare.pop().unwrap_or_default();
        self.iterations.insert(i, state);
        self.started = self.started.max(i + 1);
    }

    /// Retires iteration `i`, keeping its emptied tables for reuse.
    pub(crate) fn retire_iteration(&mut self, i: usize) {
        if let Some(mut state) = self.iterations.remove(&i) {
            if self.spare.len() < SPARE_ITERATIONS {
                state.nodes.clear();
                state.outstanding_ops = 0;
                state.outstanding_frames = 0;
                self.spare.push(state);
            }
        }
    }
}

/// A dynamically allocated execution frame (one `while_loop` activation).
///
/// The fields outside [`Frame::core`] are immutable after creation and can
/// be read without any lock — in particular [`Frame::key`], used for
/// rendezvous keys on the execution hot path.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Unique id of this activation within the run.
    pub id: FrameId,
    /// Identity shared with the same activation on every other partition.
    pub key: FrameKey,
    /// Interned static frame name (`None` for the root frame).
    pub name_id: Option<FrameNameId>,
    /// The static frame name, kept for rendering [`Frame::path`].
    name: Arc<str>,
    /// Parent frame and the parent iteration that spawned this frame.
    pub parent: Option<(Arc<Frame>, usize)>,
    /// Nesting depth (root = 0). Checked against the run's
    /// `max_frame_depth` so runaway recursion fails structurally instead
    /// of exhausting memory.
    pub depth: usize,
    /// The `Call` node that pushed this frame, if it is a call frame: the
    /// body's `FunctionRet` values are delivered to this node's consumers
    /// in the parent frame.
    pub call_site: Option<NodeId>,
    /// The §4.3 parallelism knob for this frame.
    pub parallel_iterations: usize,
    /// Total `Enter` tokens this frame will receive.
    pub expected_enters: usize,
    /// The readable path, rendered on first use; see [`Frame::path`].
    path: OnceLock<String>,
    /// Mutable bookkeeping (iterations, windows, exits).
    pub core: Mutex<FrameCore>,
}

impl Frame {
    /// Creates the root frame (iteration 0 only, no parent).
    pub(crate) fn root() -> Arc<Frame> {
        Arc::new(Frame {
            id: ROOT_FRAME,
            key: FrameKey::ROOT,
            name_id: None,
            name: Arc::from("root"),
            parent: None,
            depth: 0,
            call_site: None,
            parallel_iterations: 1,
            expected_enters: 0,
            path: OnceLock::new(),
            core: Mutex::new(FrameCore::new()),
        })
    }

    /// Creates a child frame. `name_hash` is [`frame_name_hash`] of
    /// `name`, precomputed by the caller. Builds no text: the key is
    /// derived from integers and the path is rendered only if asked for.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn child(
        id: FrameId,
        name_id: FrameNameId,
        name: &Arc<str>,
        name_hash: u64,
        parent: (Arc<Frame>, usize),
        parallel_iterations: usize,
        expected_enters: usize,
        call_site: Option<NodeId>,
    ) -> Arc<Frame> {
        let key = parent.0.key.child(parent.1 as u64, name_hash);
        let depth = parent.0.depth + 1;
        Arc::new(Frame {
            id,
            key,
            name_id: Some(name_id),
            name: name.clone(),
            parent: Some(parent),
            depth,
            call_site,
            parallel_iterations: parallel_iterations.max(1),
            expected_enters,
            path: OnceLock::new(),
            core: Mutex::new(FrameCore::new()),
        })
    }

    /// The dynamic tag of iteration `iter` in this frame. Lock-free and
    /// text-free: derived from immutable integer metadata only.
    #[inline]
    pub(crate) fn tag(&self, iter: usize) -> Tag {
        Tag { frame: self.key, iter: iter as u64 }
    }

    /// The readable frame path: `root` for the root frame, otherwise
    /// `{parent path};{parent iteration}/{name}`. Rendered on first call
    /// and cached, so a frame renders its path at most once; only traces,
    /// errors, fault rolls and random-op seeding ask for it.
    pub(crate) fn path(&self) -> &str {
        self.path.get_or_init(|| match &self.parent {
            None => self.name.to_string(),
            Some((parent, pi)) => format!("{};{}/{}", parent.path(), pi, self.name),
        })
    }

    /// The readable tag of iteration `iter`, `{path};{iter}`, rendered
    /// only when formatted.
    pub(crate) fn tag_text(&self, iter: usize) -> TagText<'_> {
        TagText { frame: self, iter }
    }

    /// `true` if iteration `iter` is inside the parallel window.
    pub(crate) fn in_window(&self, core: &FrameCore, iter: usize) -> bool {
        iter < core.front + self.parallel_iterations
    }
}

/// The readable form of a [`Tag`]; see [`Frame::tag_text`].
pub(crate) struct TagText<'a> {
    frame: &'a Frame,
    iter: usize,
}

impl fmt::Display for TagText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{};{}", self.frame.path(), self.iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(id: FrameId, name: &str, parent: (Arc<Frame>, usize), parallel: usize) -> Arc<Frame> {
        Frame::child(id, 0, &Arc::from(name), frame_name_hash(name), parent, parallel, 1, None)
    }

    #[test]
    fn tags_are_hierarchical() {
        let root = Frame::root();
        assert_eq!(root.tag_text(0).to_string(), "root;0");
        let child_a = child(1, "loopA", (root.clone(), 0), 32);
        assert_eq!(child_a.tag_text(3).to_string(), "root;0/loopA;3");
        assert_eq!(child_a.depth, 1);
        let grand = child(2, "loopB", (child_a.clone(), 3), 32);
        assert_eq!(grand.tag_text(0).to_string(), "root;0/loopA;3/loopB;0");
        assert_eq!(grand.depth, 2);
        // The integer tag carries the same identity.
        assert_eq!(
            grand.tag(0).frame,
            root.key.child(0, frame_name_hash("loopA")).child(3, frame_name_hash("loopB"))
        );
        assert_ne!(child_a.tag(3), child_a.tag(4));
        assert_ne!(grand.tag(0), child_a.tag(0));
    }

    #[test]
    fn frame_keys_separate_name_parent_iteration_and_depth() {
        let a = frame_name_hash("a");
        let b = frame_name_hash("b");
        let r = FrameKey::ROOT;
        let keys = [
            r.child(0, a),
            r.child(1, a),
            r.child(0, b),
            r.child(0, a).child(0, a),
            r.child(1, a).child(0, a),
            r.child(0, a).child(1, a),
        ];
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(r.child(7, a), r.child(7, a), "pure function of its inputs");
        assert_ne!(frame_name_hash("ab"), frame_name_hash("ba"));
    }

    #[test]
    fn deep_recursion_keeps_frames_constant_size() {
        // A depth-256 chain builds no text: every frame holds the same
        // fixed-size integer key, and no path is rendered until asked for.
        let mut cur = Frame::root();
        let mut keys = HashSet::new();
        for depth in 1..=256 {
            cur = child(depth as FrameId, "call:f@3", (cur, 0), 1);
            assert!(cur.path.get().is_none(), "depth {depth}: path rendered eagerly");
            assert!(keys.insert(cur.key), "depth {depth}: key collides with an ancestor");
        }
        assert_eq!(cur.depth, 256);
        assert_eq!(std::mem::size_of_val(&cur.tag(0)), 16);
        // Rendering on demand still yields the full readable path.
        assert_eq!(cur.path().matches("call:f@3").count(), 256);
    }

    #[test]
    fn window_logic() {
        let root = Frame::root();
        let f = child(1, "l", (root, 0), 4);
        {
            let core = f.core.lock();
            assert!(f.in_window(&core, 0));
            assert!(f.in_window(&core, 3));
            assert!(!f.in_window(&core, 4));
        }
        f.core.lock().front = 2;
        let core = f.core.lock();
        assert!(f.in_window(&core, 5));
        assert!(!f.in_window(&core, 6));
    }

    #[test]
    fn parallel_iterations_clamped_to_one() {
        let root = Frame::root();
        let f = child(1, "l", (root, 0), 0);
        assert_eq!(f.parallel_iterations, 1);
    }
}
