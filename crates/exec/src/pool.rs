//! Executor work distribution: an internal unbounded MPMC channel and a
//! persistent worker pool.
//!
//! The channel replaces the former `crossbeam` dependency so the workspace
//! builds offline. Senders and receivers are cheap clones sharing one
//! queue; a `recv` blocks until an item arrives or every sender is gone.
//!
//! # Wake-free hand-off
//!
//! A condition-variable notify is a `futex` system call whether or not a
//! thread is waiting, so the channel counts its parked receivers under the
//! queue lock and `send` notifies only when one is parked. A busy pool —
//! every worker executing, none asleep — therefore hands work over with
//! one uncontended lock and no syscall. Parking and unparking both happen
//! under the same lock as the count, so a `send` can never miss a receiver
//! that is about to park; the disconnect path (`Sender::drop`) takes the
//! lock for the same reason.
//!
//! [`WorkerPool`] owns worker threads created once per `Executor` and
//! reused across every `run` call — the seed spawned (and joined) a fresh
//! set of threads per run, which dominated small-graph dispatch latency.
//! Every pool has a process-unique id, and each worker thread records the
//! id of its pool ([`current_pool`]), which is what lets the executor run a
//! successor inline only on a worker of the successor's own pool.

use dcf_sync::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

struct ChanState<T> {
    queue: VecDeque<T>,
    /// Receivers blocked in `recv`; `send` notifies only when non-zero.
    parked: usize,
    /// Live `Sender` handles; `recv` fails once this is zero and the queue
    /// is drained.
    senders: usize,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    available: Condvar,
}

/// Sending half of the channel.
pub(crate) struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half of the channel.
pub(crate) struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Error returned by `recv` once the channel is empty and closed.
#[derive(Debug)]
pub(crate) struct RecvError;

/// Creates an unbounded multi-producer multi-consumer channel.
pub(crate) fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState { queue: VecDeque::new(), parked: 0, senders: 1 }),
        available: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueues `item`, waking one receiver if any is parked. Never fails;
    /// the `Result` mirrors the crossbeam API shape for drop-in use.
    pub(crate) fn send(&self, item: T) -> Result<(), ()> {
        let wake = {
            let mut st = self.chan.state.lock();
            st.queue.push_back(item);
            st.parked > 0
        };
        // Notify after unlocking so the woken receiver does not block on
        // the mutex straight away. A receiver counted in `parked` released
        // the lock inside `wait`, so it cannot miss this notify.
        if wake {
            self.chan.available.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // Under the lock: a receiver between its `senders` check and its
        // `wait` holds the lock, so it either sees the count reach zero or
        // is already parked when the notify below fires.
        let mut st = self.chan.state.lock();
        st.senders -= 1;
        if st.senders == 0 && st.parked > 0 {
            self.chan.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `Err(RecvError)` once the queue is empty and all senders dropped.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Ok(item);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st.parked += 1;
            self.chan.available.wait(&mut st);
            st.parked -= 1;
        }
    }

    /// Items queued and receivers parked, read under one lock
    /// (diagnostics for tests).
    #[cfg(test)]
    fn load(&self) -> (usize, usize) {
        let st = self.chan.state.lock();
        (st.queue.len(), st.parked)
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver { chan: self.chan.clone() }
    }
}

/// A message processed by [`WorkerPool`] workers.
pub(crate) enum PoolMsg<T> {
    /// A unit of work for the pool's handler.
    Job(T),
    /// Terminates exactly one worker (sent once per worker on drop).
    Shutdown,
}

/// Source of process-unique pool ids; 0 means "not a pool worker".
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Id of the pool this thread works for (0 on any other thread).
    static CURRENT_POOL: Cell<usize> = const { Cell::new(0) };
}

/// Id of the [`WorkerPool`] whose worker is the calling thread, or 0 when
/// the caller is not a pool worker (a session thread, a device stream, the
/// network timer).
pub(crate) fn current_pool() -> usize {
    CURRENT_POOL.with(Cell::get)
}

/// A fixed set of worker threads draining one shared queue.
///
/// Workers live as long as the pool; jobs carry everything run-specific
/// (including an `Arc` to their run's shared state), so a single pool
/// serves any number of sequential or concurrent runs. Dropping the pool
/// sends one `Shutdown` per worker and joins them; jobs still queued
/// behind the shutdowns are dropped unprocessed, which is only reachable
/// for runs that already failed.
pub(crate) struct WorkerPool<T: Send + 'static> {
    id: usize,
    tx: Sender<PoolMsg<T>>,
    handles: Vec<thread::JoinHandle<()>>,
    #[cfg(test)]
    rx: Receiver<PoolMsg<T>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `workers` threads (at least one), each running `handler` on
    /// every received job.
    pub(crate) fn new<F>(name_prefix: &str, workers: usize, handler: F) -> WorkerPool<T>
    where
        F: Fn(T) + Send + Clone + 'static,
    {
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded::<PoolMsg<T>>();
        let mut handles = Vec::new();
        for w in 0..workers.max(1) {
            let rx = rx.clone();
            let handler = handler.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("{name_prefix}-{w}"))
                    .spawn(move || {
                        CURRENT_POOL.with(|c| c.set(id));
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                PoolMsg::Shutdown => break,
                                PoolMsg::Job(job) => handler(job),
                            }
                        }
                    })
                    .expect("failed to spawn pool worker"),
            );
        }
        WorkerPool {
            id,
            tx,
            handles,
            #[cfg(test)]
            rx,
        }
    }

    /// This pool's process-unique id (compare with [`current_pool`]).
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// A submission handle; clones are cheap and may outlive individual
    /// runs (but not the pool's workers — see `Drop`).
    pub(crate) fn sender(&self) -> Sender<PoolMsg<T>> {
        self.tx.clone()
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        for _ in 0..self.handles.len() {
            let _ = self.tx.send(PoolMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn multi_producer_multi_consumer_delivers_everything() {
        let (tx, rx) = unbounded::<usize>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_after_disconnect() {
        let (tx, rx) = unbounded::<i32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn dropping_last_sender_wakes_a_parked_receiver() {
        // A receiver parked (or about to park) on an empty channel must
        // observe the disconnect: the drop takes the queue lock, so it
        // cannot slip between the receiver's `senders` check and its wait.
        for round in 0..1000 {
            let (tx, rx) = unbounded::<u32>();
            let (done_tx, done_rx) = mpsc::channel();
            let receiver = thread::spawn(move || {
                let _ = done_tx.send(rx.recv().is_err());
            });
            if round % 2 == 0 {
                // Half the rounds drop at once, racing the receiver's park.
                thread::yield_now();
            } else {
                thread::sleep(Duration::from_micros(50));
            }
            drop(tx);
            let got = done_rx.recv_timeout(Duration::from_secs(5));
            assert_eq!(got, Ok(true), "round {round}: recv must return Err after disconnect");
            receiver.join().unwrap();
        }
    }

    #[test]
    fn pool_processes_jobs_and_shuts_down() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let pool = WorkerPool::new("test-pool", 4, move |n: usize| {
            c.fetch_add(n, Ordering::SeqCst);
        });
        let tx = pool.sender();
        for _ in 0..100 {
            let _ = tx.send(PoolMsg::Job(1));
        }
        // Drop joins workers after they drain the queue ahead of the
        // shutdown markers.
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_survives_sender_clones_outliving_jobs() {
        let pool = WorkerPool::new("test-pool2", 2, move |_: usize| {});
        let extra = pool.sender();
        drop(pool); // must not hang despite `extra` being alive
        let _ = extra.send(PoolMsg::Job(7)); // goes nowhere, must not panic
    }

    #[test]
    fn workers_know_their_pool() {
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::new("test-pool3", 2, move |_: ()| {
            let _ = tx.send(current_pool());
        });
        assert_eq!(current_pool(), 0, "the test thread is no pool worker");
        let _ = pool.sender().send(PoolMsg::Job(()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(pool.id()));
        let other = WorkerPool::new("test-pool4", 1, |_: ()| {});
        assert_ne!(other.id(), pool.id());
    }

    #[test]
    fn burst_stress_runs_every_job_once_and_never_strands_work() {
        // 100k jobs in bursts of random size with random gaps, on four
        // workers that park between bursts. Every job must run exactly
        // once, and after each burst the pool must drain completely: a
        // lost wakeup would leave jobs queued behind parked workers, which
        // shows up as a drain timeout.
        const JOBS: usize = 100_000;
        const WORKERS: usize = 4;
        let runs: Arc<Vec<AtomicU8>> = Arc::new((0..JOBS).map(|_| AtomicU8::new(0)).collect());
        let done = Arc::new(AtomicUsize::new(0));
        let (r, d) = (runs.clone(), done.clone());
        let pool = WorkerPool::new("test-burst", WORKERS, move |j: usize| {
            r[j].fetch_add(1, Ordering::SeqCst);
            d.fetch_add(1, Ordering::SeqCst);
        });
        let tx = pool.sender();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut sent = 0;
        while sent < JOBS {
            let burst = (1 + next() as usize % 2_000).min(JOBS - sent);
            for j in sent..sent + burst {
                let _ = tx.send(PoolMsg::Job(j));
            }
            sent += burst;
            if next() % 4 == 0 {
                // Let the workers go idle and park before the next burst.
                let t0 = Instant::now();
                while done.load(Ordering::SeqCst) < sent {
                    assert!(t0.elapsed() < Duration::from_secs(10), "jobs stranded in queue");
                    thread::yield_now();
                }
                let t0 = Instant::now();
                while pool.rx.load() != (0, WORKERS) {
                    assert!(t0.elapsed() < Duration::from_secs(10), "workers never parked");
                    thread::yield_now();
                }
            }
        }
        let t0 = Instant::now();
        while done.load(Ordering::SeqCst) < JOBS {
            assert!(t0.elapsed() < Duration::from_secs(10), "jobs stranded in queue");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(runs.iter().all(|c| c.load(Ordering::SeqCst) == 1), "a job ran twice or never");
        assert_eq!(pool.rx.load().0, 0, "no job left queued");
    }
}
