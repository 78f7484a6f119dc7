//! Sample statistics shared by every workload: the percentile rule, the
//! latency-limit accounting, a seeded scheduling RNG and bit-exact tensor
//! comparison.

use dcf_tensor::{Data, Tensor};

/// Samples needed strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Some(sorted[rank - 1])
}

/// Like [`percentile`] for per-layer figures, where an empty sample set
/// means the layer did no work (`0`). Too few samples for the rule is a
/// sizing bug and panics.
pub fn layer_percentile(name: &str, samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(samples, q).unwrap_or_else(|| {
        panic!("{name}: {} samples are too few for the {q} quantile", samples.len())
    })
}

/// Median without the tail rule (used for repeated set-up timings and
/// micro-benchmark batches, which are few by design).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Work completed per second: the median, over `windows` equal windows
/// of a `seconds`-long run, of the work done in each window. `done` holds
/// each completed operation's start and end, in seconds since the run
/// started; its work (`work` units) is spread evenly over that span. The
/// median keeps a stall of the shared machine in one window from moving
/// the figure.
pub fn windowed_rate(done: &[(f64, f64)], work: f64, seconds: f64, windows: usize) -> f64 {
    let width = seconds / windows as f64;
    let mut per_window = vec![0.0; windows];
    for &(start, end) in done {
        let span = (end - start).max(f64::MIN_POSITIVE);
        for (k, slot) in per_window.iter_mut().enumerate() {
            let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
            let overlap = end.min(hi) - start.max(lo);
            if overlap > 0.0 {
                *slot += work * overlap / span;
            }
        }
    }
    median(&per_window.iter().map(|w| w / width).collect::<Vec<_>>())
}

/// The fate of one attempted operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Completed with correct outputs after this many milliseconds.
    Ok(f64),
    /// Errored or was refused.
    Failed,
    /// Completed with outputs that failed the workload's check.
    Mismatch,
}

/// Latency accounting for one run: every attempted operation is either a
/// completion with a latency or a failure, and a failure counts as a miss
/// of the latency limit.
#[derive(Debug, Default)]
pub struct Ledger {
    latencies_ms: Vec<f64>,
    failed: u64,
    mismatches: u64,
}

impl Ledger {
    /// Records one attempted operation.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok(ms) => self.latencies_ms.push(ms),
            Outcome::Failed => self.failed += 1,
            Outcome::Mismatch => {
                self.failed += 1;
                self.mismatches += 1;
            }
        }
    }

    /// Operations whose outputs failed the check (also counted as failed).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64 + self.failed
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Latencies of the completed operations, milliseconds.
    pub fn latencies_ms(&self) -> &[f64] {
        &self.latencies_ms
    }

    /// Share of attempted operations that completed within `limit_ms`.
    pub fn slo_frac(&self, limit_ms: f64) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            return 0.0;
        }
        let within = self.latencies_ms.iter().filter(|&&ms| ms <= limit_ms).count();
        within as f64 / attempted as f64
    }

    /// Share of attempted operations that completed.
    pub fn ok_frac(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            return 0.0;
        }
        self.latencies_ms.len() as f64 / attempted as f64
    }
}

/// SplitMix64: seeds sub-streams and draws arrival gaps. Independent of
/// the program's own tensor RNG so a change there cannot move the
/// schedule.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..bound`.
    pub fn index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Exponential gap with the given mean (Poisson arrivals).
    pub fn exp_gap(&mut self, mean_s: f64) -> f64 {
        -mean_s * (1.0 - self.unit()).ln()
    }
}

/// A seed for sub-stream `k` of run seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// `true` iff the tensors have equal shapes and bit-identical elements
/// (unlike `==` on floats, `-0.0` and `0.0` differ and NaNs compare by
/// payload).
pub fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    match (a.data(), b.data()) {
        (Data::F32(x), Data::F32(y)) => {
            x.iter().zip(y.iter()).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Data::I64(x), Data::I64(y)) => x == y,
        (Data::Bool(x), Data::Bool(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value with exactly 10 beyond it.
        assert_eq!(percentile(&s, 0.90), Some(90.0));
        // p91 would leave only 9 beyond.
        assert_eq!(percentile(&s, 0.91), None);
        assert_eq!(percentile(&s, 0.99), None);
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.50), Some(500.0));
        assert_eq!(percentile(&[], 0.5), None);
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(10.0));
        assert_eq!(percentile(&s[..19], 0.5), None);
    }

    #[test]
    fn layer_percentile_is_zero_for_an_idle_layer() {
        assert_eq!(layer_percentile("idle", &[], 0.99), 0.0);
    }

    #[test]
    fn failures_count_as_misses() {
        let mut l = Ledger::default();
        for ms in [1.0, 2.0, 30.0] {
            l.record(Outcome::Ok(ms));
        }
        l.record(Outcome::Failed);
        assert_eq!(l.attempted(), 4);
        assert_eq!(l.failed(), 1);
        // Two of four attempts finished within 10 ms: the slow one and the
        // failed one are both misses.
        assert_eq!(l.slo_frac(10.0), 0.5);
        assert_eq!(l.slo_frac(30.0), 0.75);
        assert_eq!(l.ok_frac(), 0.75);
        // A wrong answer is a failure and a miss, and is tallied apart.
        l.record(Outcome::Mismatch);
        assert_eq!((l.attempted(), l.failed(), l.mismatches()), (5, 2, 1));
        assert_eq!(l.slo_frac(30.0), 0.6);
    }

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        // Ten 1 s windows with ten 0.1 s operations each, except a stalled
        // window with none; work past the run's end is not counted.
        let mut done: Vec<(f64, f64)> = (0..100)
            .filter(|i| i / 10 != 3)
            .map(|i| (i as f64 / 10.0, (i + 1) as f64 / 10.0))
            .collect();
        done.push((10.0, 10.5));
        assert!((windowed_rate(&done, 1.0, 10.0, 10) - 10.0).abs() < 1e-9);
        // An operation spanning two windows counts half in each.
        assert_eq!(windowed_rate(&[(0.5, 1.5)], 4.0, 2.0, 2), 2.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn schedule_rng_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
        let mut r = SplitMix::new(1);
        let mean_gap = (0..20_000).map(|_| r.exp_gap(0.5)).sum::<f64>() / 20_000.0;
        assert!((mean_gap - 0.5).abs() < 0.02, "exponential mean {mean_gap}");
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        let a = Tensor::from_vec_f32(vec![0.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![-0.0, 1.0], &[2]).unwrap();
        assert!(bits_eq(&a, &a.clone()));
        assert!(!bits_eq(&a, &b));
        assert!(!bits_eq(&a, &a.reshape(&[1, 2]).unwrap()));
    }
}
