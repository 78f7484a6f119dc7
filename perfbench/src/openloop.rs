//! The open-loop load of the two serving workloads: one generator thread
//! sends on a seeded Poisson schedule whatever the system's state, and one
//! collector thread waits for the completions.
//!
//! Every operation is timed from when it was *due*, so a stall also
//! charges the wait it imposes on later arrivals, and the generator's own
//! lateness is reported. A single collector times completions exactly only
//! because they come back in submission order; the serving workloads keep
//! that true with one replica, one lane and fixed-length work per
//! operation.

use crate::spans::Spans;
use crate::stats::{layer_percentile, median, Ledger, Outcome, SplitMix};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival offsets from the start of the run, seconds: a Poisson process
/// of `rate` per second over `seconds`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut t = rng.exp_gap(1.0 / rate);
    let mut out = Vec::new();
    while t < seconds {
        out.push(t);
        t += rng.exp_gap(1.0 / rate);
    }
    out
}

/// What one open-loop phase measured.
pub struct Phase {
    /// Outcome of every scheduled operation.
    pub ledger: Ledger,
    /// How late the generator sent each operation, ms.
    pub late_ms: Vec<f64>,
    /// Wall time from the first due time to the last completion, s.
    pub wall_s: f64,
    /// Latencies of the even (untraced) and odd (traced) operations, ms.
    by_parity: [Vec<f64>; 2],
}

/// Sends operation `i` at `offsets[i]` with `send(i)` on a generator
/// thread and finishes it with `finish(i, pending)` on a collector thread.
/// `finish` blocks until the operation completes and returns whether its
/// outputs were correct (`None` for an error or refusal). An enabled
/// `spans` records every other operation, so traced and untraced ones
/// share the run's conditions.
pub fn drive<P: Send>(
    offsets: &[f64],
    spans: &Spans,
    send: impl Fn(usize) -> Option<P> + Sync,
    finish: impl Fn(usize, P) -> Option<bool> + Sync,
) -> Phase {
    // A short lead so the first arrival is not already late.
    let t0 = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Option<P>)>();
    let (late_ms, (ledger, by_parity)) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut late_ms = Vec::with_capacity(offsets.len());
            for (i, off) in offsets.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(*off);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
                let pending = send(i);
                if i % 2 == 1 {
                    spans.record("gen.send", sent, Instant::now(), None, i as u64, 0);
                }
                tx.send((i, due, pending)).expect("collector outlives the generator");
            }
            drop(tx);
            late_ms
        });
        let collector = scope.spawn(|| {
            let mut ledger = Ledger::default();
            let mut by_parity = [Vec::new(), Vec::new()];
            for (i, due, pending) in rx {
                let wait = Instant::now();
                let outcome = match pending.map(|p| finish(i, p)) {
                    Some(Some(true)) => {
                        let done = Instant::now();
                        if i % 2 == 1 {
                            let root = spans.record("serve.request", due, done, None, i as u64, 1);
                            spans.record("serve.wait", wait, done, root, i as u64, 1);
                        }
                        let ms = done.duration_since(due).as_secs_f64() * 1e3;
                        by_parity[i % 2].push(ms);
                        Outcome::Ok(ms)
                    }
                    Some(Some(false)) => Outcome::Mismatch,
                    Some(None) | None => Outcome::Failed,
                };
                ledger.record(outcome);
            }
            (ledger, by_parity)
        });
        let late = generator.join().expect("generator thread panicked");
        (late, collector.join().expect("collector thread panicked"))
    });
    Phase { ledger, late_ms, wall_s: t0.elapsed().as_secs_f64(), by_parity }
}

/// `serve.latency_ms_p99` and `gen.late_ms_p99` of a traced phase, and
/// `trace.overhead_frac` from the median latencies of its traced and
/// untraced operations.
pub fn trace_layers(phase: &Phase, out: &mut crate::Layers) {
    out.set("serve.latency_ms_p99", layer_percentile("latency", phase.ledger.latencies_ms(), 0.99));
    out.set("gen.late_ms_p99", layer_percentile("lateness", &phase.late_ms, 0.99));
    let [untraced, traced] = &phase.by_parity;
    out.set("trace.overhead_frac", median(traced) / median(untraced) - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_has_the_rate() {
        let a = poisson_schedule(3, 1000.0, 2.0);
        assert_eq!(a, poisson_schedule(3, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(4, 1000.0, 2.0));
        assert!((a.len() as f64 - 2000.0).abs() < 200.0, "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < 2.0);
    }

    #[test]
    fn failures_and_wrong_answers_are_counted() {
        let offsets = [0.0, 0.001, 0.002, 0.003];
        let phase = drive(
            &offsets,
            &Spans::new(true),
            |i| (i != 1).then_some(i),
            |i, _| match i {
                2 => None,
                3 => Some(false),
                _ => Some(true),
            },
        );
        let l = &phase.ledger;
        assert_eq!((l.attempted(), l.failed(), l.mismatches()), (4, 3, 1));
        assert_eq!(l.latencies_ms().len(), 1);
        assert_eq!(phase.late_ms.len(), 4);
    }
}
