//! What every workload shares: the command line, the round loop with its
//! reference-kernel samples, set-up timing, the report and its printing.

use std::time::{Duration, Instant};

use crate::norm::{median, p50, p99, speed_factor, RefKernel, RoundSamples, REF_NOMINAL_MS};

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = [
    "sim_replay_plain",
    "sim_replay_full",
    "serve_http_warm",
    "serve_gateway_churn",
];

/// Rounds of a full measured phase (each starts with a speed sample).
const ROUNDS: usize = 30;
/// Fewest measured operations a full run may report.
const MIN_OPS: usize = 500;
/// Back-to-back boots behind `setup_s`.
const BOOTS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl Args {
    /// `--workload W --seed N --seconds S --trace [0|1] --quick`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 7,
            seconds: 24.0,
            trace: false,
            quick: false,
        };
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value("--workload")?,
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    // Bare `--trace` or `--trace 0|1`.
                    args.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--quick" => args.quick = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got '{}'",
                args.workload
            ));
        }
        if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
            return Err(format!("--seconds must be in 1..=60, got {}", args.seconds));
        }
        Ok(args)
    }

    /// Rounds and round length of the workload's measured phase. A traced
    /// run gives the workload 75 % of `--seconds`; the layer pass that
    /// follows it takes the rest.
    pub fn rounds(&self) -> (usize, Duration) {
        if self.quick {
            return (3, Duration::from_millis(350));
        }
        let share = if self.trace { 0.75 } else { 1.0 };
        (
            ROUNDS,
            Duration::from_secs_f64(self.seconds * share / ROUNDS as f64),
        )
    }

    pub fn boots(&self) -> usize {
        if self.quick {
            1
        } else {
            BOOTS
        }
    }
}

/// One named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One output check; a failed check fails the run.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        ok,
        detail: detail.into(),
    }
}

/// A run is designed for ≥ 1 000 measured operations, so that p99 has ten
/// samples beyond it; `ops_measured` is printed. Below [`MIN_OPS`] the
/// tail rank would slide under p98 and the run is refused.
pub fn enough_samples(args: &Args, n: usize) -> Check {
    check(
        "enough_samples_for_tail",
        args.quick || n >= MIN_OPS,
        format!("{n} measured operations (need {MIN_OPS})"),
    )
}

/// Median of `boots` back-to-back boots, as measured and at nominal
/// speed. Set-up is CPU-bound on every workload, so it is always
/// normalised: the reference kernel is sampled before and after every
/// boot and the median boot divided by the median factor. (Dividing each
/// boot by its own two samples is noisier than not normalising: a sample
/// taken in a fresh process, or while a dozen just-spawned server threads
/// settle, reads up to 2.5× nominal.)
pub struct Setup {
    pub raw_s: f64,
    pub norm_s: f64,
}

/// Time `boot` `boots` times; returns the timing and the last boot's
/// product (earlier ones are dropped outside the timed region).
pub fn measure_setup<T>(
    kernel: &RefKernel,
    boots: usize,
    mut boot: impl FnMut() -> T,
) -> (Setup, T) {
    let mut raw = Vec::new();
    let mut factors = vec![speed_factor(kernel.sample_ms())];
    let mut kept: Option<T> = None;
    for _ in 0..boots {
        drop(kept.take());
        let t0 = Instant::now();
        let product = boot();
        raw.push(t0.elapsed().as_secs_f64());
        factors.push(speed_factor(kernel.sample_ms()));
        kept = Some(product);
    }
    let raw_s = median(&mut raw);
    let setup = Setup {
        raw_s,
        norm_s: raw_s / median(&mut factors),
    };
    (setup, kept.expect("at least one boot"))
}

/// Run `rounds` rounds of `round_len`: sample the reference kernel, open
/// the round in `samples`, hand `body` the round index and deadline, and
/// close the round with the `(work, busy seconds)` it returns.
pub fn run_rounds(
    kernel: &RefKernel,
    (rounds, round_len): (usize, Duration),
    samples: &mut RoundSamples,
    mut body: impl FnMut(usize, Instant, &mut RoundSamples) -> (f64, f64),
) {
    for round in 0..rounds {
        samples.start_round(kernel.sample_ms());
        let (work, busy_s) = body(round, Instant::now() + round_len, samples);
        samples.end_round(work, busy_s);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a workload hands back.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The metrics of the final JSON line: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub metrics: Vec<Metric>,
    /// Printed by name above the JSON line, not part of it.
    pub info: Vec<Metric>,
}

/// The five end-to-end metrics plus their `raw.*` twins and the harness
/// bookkeeping, from a finished measured phase.
pub fn end_to_end(samples: &RoundSamples, setup: &Setup) -> (Vec<Metric>, Vec<Metric>) {
    let latency = |normalised: bool| {
        let mut values = samples.latencies(normalised);
        let tail = p99(&values);
        (p50(&mut values) * 1e3, tail * 1e3)
    };
    let (p50_ms, p99_ms) = latency(true);
    let (raw_p50_ms, raw_p99_ms) = latency(false);
    let metrics = vec![
        metric("setup_s", setup.norm_s, "s"),
        metric("latency_p50_ms", p50_ms, "ms"),
        metric("latency_p99_ms", p99_ms, "ms"),
        metric("throughput_per_s", samples.throughput(true), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut info = vec![
        metric("raw.setup_s", setup.raw_s, "s"),
        metric("raw.latency_p50_ms", raw_p50_ms, "ms"),
        metric("raw.latency_p99_ms", raw_p99_ms, "ms"),
        metric("raw.throughput_per_s", samples.throughput(false), "1/s"),
        metric("ops_measured", samples.len() as f64, "count"),
    ];
    info.extend(speed_info(samples.factors()));
    (metrics, info)
}

/// `harness.ref_kernel_ms` (median) and the extreme speed factors, so a
/// drifting host is visible rather than silently absorbed.
pub fn speed_info(factors: &[f64]) -> Vec<Metric> {
    let mut sorted = factors.to_vec();
    let mid = median(&mut sorted);
    vec![
        metric("harness.ref_kernel_ms", mid * REF_NOMINAL_MS, "ms"),
        metric("harness.speed_factor_min", sorted[0], "ratio"),
        metric(
            "harness.speed_factor_max",
            sorted[sorted.len() - 1],
            "ratio",
        ),
    ]
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Every metric by name with its unit, then the one-line JSON result.
    pub fn print(&self, args: &Args) {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        println!(
            "workload {}  seed {}  seconds {}  trace {}  nproc {nproc}  REF_NOMINAL_MS {REF_NOMINAL_MS}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        let extra = self
            .info
            .iter()
            .filter(|i| self.metrics.iter().all(|m| m.name != i.name));
        for m in self.metrics.iter().chain(extra) {
            println!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("  {:<44} {:>14}", "ops_attempted", self.attempted);
        println!("  {:<44} {:>14}", "ops_failed", self.failed);
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("  check {verdict} {:<32} {}", c.name, c.detail);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
