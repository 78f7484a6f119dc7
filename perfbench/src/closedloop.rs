//! The closed-loop load of `rnn_train` and `dist_loop`: one client thread
//! sends the next step only when the previous one returned.

use crate::layers::{self, Micro, StepProfile};
use crate::spans::Spans;
use crate::stats::{median, windowed_rate, Ledger, Outcome};
use dcf_runtime::{RunMetadata, RunOptions, TraceLevel};
use std::time::Instant;

/// Windows over which throughput is taken as a median: short enough
/// (0.5 s in a 20 s run) that a stall of the shared machine spoils few of
/// them.
const WINDOWS: usize = 40;

/// What one closed-loop run measured.
pub struct Run {
    /// Outcome of every step.
    pub ledger: Ledger,
    /// Start and end, s since the run started, of every correct step.
    pub done_s: Vec<(f64, f64)>,
    /// Latencies of the untraced and traced steps of a traced run, ms.
    pub untraced_ms: Vec<f64>,
    /// See `untraced_ms`.
    pub traced_ms: Vec<f64>,
}

/// Runs `step(i, options)` back to back for `seconds`. With `profile`
/// (the traced run) every other step is traced at `TraceLevel::Full`,
/// so traced and untraced steps see the same conditions; the traced ones
/// feed `profile` and the span log.
pub fn drive(
    seconds: f64,
    spans: &Spans,
    mut profile: Option<&mut StepProfile>,
    mut step: impl FnMut(usize, &RunOptions) -> (Outcome, Option<RunMetadata>),
) -> Run {
    let untraced = RunOptions::default();
    let traced = RunOptions::traced(TraceLevel::Full);
    let mut run = Run {
        ledger: Ledger::default(),
        done_s: Vec::new(),
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
    };
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let trace = profile.is_some() && i % 2 == 1;
        let start = Instant::now();
        let (outcome, meta) = step(i, if trace { &traced } else { &untraced });
        if let Outcome::Ok(ms) = outcome {
            let since = |t: Instant| t.duration_since(t0).as_secs_f64();
            run.done_s.push((since(start), since(Instant::now())));
            if !trace {
                run.untraced_ms.push(ms);
            } else if let (Some(p), Some(meta)) = (profile.as_deref_mut(), meta) {
                let root = spans.record("bench.step", start, Instant::now(), None, i as u64, 0);
                spans.record("runtime.run", start, start + meta.wall, root, i as u64, 0);
                let stats = meta.step_stats.as_ref().expect("traced run returns step stats");
                p.add(stats, meta.wall.as_secs_f64() * 1e6);
                run.traced_ms.push(ms);
            }
        }
        run.ledger.record(outcome);
        i += 1;
    }
    run
}

impl Run {
    /// Work per second, `work` units per step: see [`windowed_rate`].
    pub fn throughput(&self, work: f64, seconds: f64) -> f64 {
        windowed_rate(&self.done_s, work, seconds, WINDOWS)
    }

    /// `trace.overhead_frac` and `closure.residual_frac` of a traced run,
    /// both against the median untraced step.
    pub fn trace_layers(&self, profile: &StepProfile, micro: &Micro, out: &mut crate::Layers) {
        let untraced_us = median(&self.untraced_ms) * 1e3;
        out.set("trace.overhead_frac", median(&self.traced_ms) * 1e3 / untraced_us - 1.0);
        out.set("closure.residual_frac", layers::closure_residual(profile, micro, untraced_us));
    }
}
