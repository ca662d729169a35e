//! Reference-kernel normalisation.
//!
//! The host this benchmark runs on drifts by ±25 % on a 5–10 s timescale
//! (shared vCPUs). A fixed integer kernel is timed before every round;
//! `speed_factor = ref_round / REF_NOMINAL_MS` says how much slower than
//! nominal the machine was during that round, and on `cpu_bound`
//! workloads every timing sample is divided by its round's factor
//! *before* percentiles are pooled, so values read as "ms at nominal
//! machine speed". Raw values are always kept next to the normalised
//! ones so the correction can be audited.

use std::hint::black_box;
use std::time::Instant;

/// Wall-clock of the reference kernel on the machine the committed
/// baseline was taken on (2 vCPU sandbox), in milliseconds. Only ratios
/// to this constant are used, so a different host shifts every
/// `cpu_bound` metric by one common factor and leaves comparisons
/// between two commits on that host intact.
pub const REF_NOMINAL_MS: f64 = 2.15;

/// Buffer the kernel chases loads through: 1 MiB of `u64`.
const REF_WORDS: usize = 1 << 17;
/// Dependent mix-and-load steps per kernel run (≈2 ms).
const REF_STEPS: usize = 200_000;
/// Kernel runs per speed sample; the median is taken.
const REF_REPEATS: usize = 5;
/// Discarded kernel runs before each sample.
const REF_WARM_UP: usize = 2;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fixed reference kernel: a splitmix-style integer mix whose every
/// step loads from an address the previous step computed.
pub struct RefKernel {
    buf: Vec<u64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel {
            buf: (0..REF_WORDS as u64).map(splitmix).collect(),
        }
    }
}

impl RefKernel {
    fn run_once_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x5EED_u64;
        for _ in 0..REF_STEPS {
            x = splitmix(x ^ self.buf[(x as usize) & (REF_WORDS - 1)]);
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Median of [`REF_REPEATS`] kernel runs, in milliseconds, after
    /// [`REF_WARM_UP`] discarded ones: a caller that has been blocked (the
    /// serving workloads' main thread) finds its core clocked down, and
    /// the first runs would time the wake-up rather than the machine.
    pub fn sample_ms(&self) -> f64 {
        for _ in 0..REF_WARM_UP {
            self.run_once_ms();
        }
        let mut runs: Vec<f64> = (0..REF_REPEATS).map(|_| self.run_once_ms()).collect();
        median(&mut runs)
    }
}

/// `ref_ms / REF_NOMINAL_MS`: > 1 means the machine is slower than
/// nominal right now.
pub fn speed_factor(ref_ms: f64) -> f64 {
    ref_ms / REF_NOMINAL_MS
}

/// Median (mean of the middle two for even lengths); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Nearest-rank index of quantile `q` among `n` sorted samples, capped so
/// that at least `beyond` samples lie above it. For `q = 0.99`,
/// `beyond = 10` this is exactly p99 from 1 000 samples up and slides
/// smoothly below it (never jumping to another percentile) for fewer.
pub fn rank_with_tail(n: usize, q: f64, beyond: usize) -> usize {
    assert!(n > 0, "rank of nothing");
    let nearest = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    nearest.min(n.saturating_sub(beyond + 1))
}

/// Samples of one measured phase, grouped by the round they fell in.
pub struct RoundSamples {
    /// Whether the normalised views apply the speed factor.
    cpu_bound: bool,
    /// Speed factor sampled just before each round.
    factors: Vec<f64>,
    /// `(round, seconds)` per measured operation, in arrival order.
    samples: Vec<(usize, f64)>,
    /// `(work, busy seconds)` per finished round, for throughput.
    rounds: Vec<(f64, f64)>,
}

impl RoundSamples {
    pub fn new(cpu_bound: bool) -> Self {
        RoundSamples {
            cpu_bound,
            factors: Vec::new(),
            samples: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// Open a new round whose reference kernel took `ref_ms`.
    pub fn start_round(&mut self, ref_ms: f64) {
        self.factors.push(speed_factor(ref_ms));
    }

    /// Record one operation of the current round.
    pub fn push(&mut self, seconds: f64) {
        let round = self.factors.len().checked_sub(1).expect("a round is open");
        self.samples.push((round, seconds));
    }

    /// Close the current round: it completed `work` units (invocations,
    /// requests) in `busy_s` seconds.
    pub fn end_round(&mut self, work: f64, busy_s: f64) {
        assert_eq!(self.rounds.len() + 1, self.factors.len(), "a round is open");
        self.rounds.push((work, busy_s));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// The factor a sample of `round` is divided by: the round's own on a
    /// `cpu_bound` workload when `normalised`, 1 otherwise.
    fn divisor(&self, round: usize, normalised: bool) -> f64 {
        if normalised && self.cpu_bound {
            self.factors[round]
        } else {
            1.0
        }
    }

    /// Latencies in arrival order, as measured or at nominal speed.
    pub fn latencies(&self, normalised: bool) -> Vec<f64> {
        self.samples
            .iter()
            .map(|&(round, s)| s / self.divisor(round, normalised))
            .collect()
    }

    /// Work per second: the median over rounds, so one stalled round does
    /// not move it.
    pub fn throughput(&self, normalised: bool) -> f64 {
        let mut per_round: Vec<f64> = self
            .rounds
            .iter()
            .enumerate()
            .map(|(round, &(work, busy_s))| work * self.divisor(round, normalised) / busy_s)
            .collect();
        median(&mut per_round)
    }
}

/// Fewest samples a tail window may hold: p99 with ten samples beyond.
const TAIL_WINDOW: usize = 1_000;
/// Most windows a run's samples are cut into.
const TAIL_WINDOWS: usize = 5;

/// Median of `values`; leaves them sorted.
pub fn p50(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[rank_with_tail(values.len(), 0.50, 0)]
}

/// p99 (with ≥10 samples beyond) of samples in arrival order. The samples
/// are cut into as many consecutive windows of ≥ [`TAIL_WINDOW`] as fit,
/// at most [`TAIL_WINDOWS`], and the median of the windows' p99 is
/// returned: a host stall lands in one window instead of owning the
/// whole run's tail. Fewer than two windows' worth is one pooled p99.
pub fn p99(in_order: &[f64]) -> f64 {
    let windows = (in_order.len() / TAIL_WINDOW).clamp(1, TAIL_WINDOWS);
    let size = in_order.len().div_ceil(windows);
    let mut tails: Vec<f64> = in_order
        .chunks(size)
        .map(|window| {
            let mut sorted = window.to_vec();
            sorted.sort_by(f64::total_cmp);
            sorted[rank_with_tail(sorted.len(), 0.99, 10)]
        })
        .collect();
    median(&mut tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // From 1 000 samples up the tail is exactly nearest-rank p99.
        assert_eq!(rank_with_tail(1_000, 0.99, 10), 989);
        assert_eq!(rank_with_tail(2_000, 0.99, 10), 1_979);
        assert_eq!(rank_with_tail(100_000, 0.99, 10), 98_999);
        // Below that the highest rank with ten samples beyond it is used.
        for n in [11usize, 50, 400, 999] {
            let r = rank_with_tail(n, 0.99, 10);
            assert_eq!(n - 1 - r, 10, "n = {n}");
        }
        // Too few samples for any tail: the minimum, never out of range.
        assert_eq!(rank_with_tail(5, 0.99, 10), 0);
        assert_eq!(rank_with_tail(1_001, 0.50, 0), 500);
    }

    /// Samples that cost `base(i)` at nominal speed, measured on a machine
    /// that is `slowdown` × slower in odd rounds.
    fn synthetic(cpu_bound: bool, slowdown: f64) -> RoundSamples {
        let mut rs = RoundSamples::new(cpu_bound);
        for round in 0..30 {
            let f = if round % 2 == 1 { slowdown } else { 1.0 };
            rs.start_round(REF_NOMINAL_MS * f);
            let mut busy = 0.0;
            for i in 0..40 {
                let seconds = (1.0 + 0.01 * i as f64) * 1e-3 * f;
                rs.push(seconds);
                busy += seconds;
            }
            rs.end_round(40.0, busy);
        }
        rs
    }

    fn p50_p99(rs: &RoundSamples, normalised: bool) -> (f64, f64) {
        let mut v = rs.latencies(normalised);
        let tail = p99(&v);
        (p50(&mut v), tail)
    }

    #[test]
    fn slowdown_in_ref_and_samples_leaves_normalised_values_unchanged() {
        let steady = synthetic(true, 1.0);
        let drifting = synthetic(true, 1.25);
        let (want_p50, want_p99) = p50_p99(&steady, true);
        let (got_p50, got_p99) = p50_p99(&drifting, true);
        assert!(
            (got_p50 - want_p50).abs() < 1e-12,
            "{got_p50} vs {want_p50}"
        );
        assert!(
            (got_p99 - want_p99).abs() < 1e-12,
            "{got_p99} vs {want_p99}"
        );
        let (want, got) = (steady.throughput(true), drifting.throughput(true));
        assert!((got - want).abs() < 1e-6 * want, "{got} vs {want}");
        // The raw view still shows the drift, so it stays auditable.
        assert!(p50_p99(&drifting, false).1 > want_p99 * 1.2);
        assert!(drifting.factors().contains(&1.25));
    }

    #[test]
    fn factor_is_never_applied_off_cpu_bound_workloads() {
        let rs = synthetic(false, 1.25);
        assert_eq!(rs.latencies(true), rs.latencies(false));
        assert_eq!(rs.throughput(true), rs.throughput(false));
    }

    #[test]
    fn one_stalled_window_does_not_own_the_tail() {
        // 5 000 samples of 1 ms; a stall turns 200 consecutive ones into
        // 500 ms. Pooled, the stall is 4 % of the samples and p99 reads
        // 500 ms; by windows it is confined to one of five.
        let mut v = vec![1e-3; 5_000];
        for s in &mut v[2_100..2_300] {
            *s = 0.5;
        }
        assert_eq!(p99(&v), 1e-3);
        // Fewer than two windows' worth is pooled.
        assert_eq!(p99(&v[2_000..3_500]), 0.5);
    }

    #[test]
    fn reference_kernel_takes_about_its_nominal_time() {
        let ms = RefKernel::default().sample_ms();
        // An order-of-magnitude guard: the kernel was not optimised away
        // and is short enough to sample every round.
        assert!(
            ms > REF_NOMINAL_MS / 10.0 && ms < REF_NOMINAL_MS * 10.0,
            "{ms} ms"
        );
    }
}
