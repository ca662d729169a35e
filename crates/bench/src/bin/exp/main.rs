//! `exp` — every experiment of the reproduction behind one runner.
//!
//! ```text
//! exp <name> [--small] [--threads N] [--seed N] [--duration S]
//! exp --list
//! ```
//!
//! Each experiment is a [`REGISTRY`] entry: it prints its paper-style
//! tables to stdout and returns an [`Outcome`] — the results JSON plus its
//! named [`Claims`]. The runner alone parses flags, writes
//! `results/exp_<name>[_small].json` (when `results/` exists) and exits
//! non-zero after printing every claim that failed. `--small` selects an
//! experiment's CI configuration where it has one and only renames the
//! results file where it does not; `--threads`, `--seed` and `--duration`
//! are accepted only by the experiments that read them (`exp --list` shows
//! which), and any other flag is a usage error.

mod ablation;
mod catalog_scale;
mod chaos;
mod llm_transform;
mod paper;
mod plan_warmup;
mod prewarm_predict;
mod scale_out;
mod serve_scale;
mod store;

use std::fmt::Debug;
use std::process::ExitCode;
use std::sync::Arc;

use optimus_bench::{build_repo, figure13_models};
use optimus_core::ModelRepository;
use optimus_model::ModelGraph;
use optimus_profile::Environment;
use optimus_sim::{SimReport, StartKind};

/// One registered experiment.
struct Experiment {
    name: &'static str,
    /// Flags the experiment reads besides `--small`.
    flags: &'static [&'static str],
    run: fn(&Args) -> Outcome,
}

const fn exp(
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> Outcome,
) -> Experiment {
    Experiment { name, flags, run }
}

const THREADS: &str = "--threads";
const SEED: &str = "--seed";
const DURATION: &str = "--duration";

const REGISTRY: &[Experiment] = &[
    exp("fig2", &[], paper::fig2),
    exp("fig3", &[], paper::fig3),
    exp("fig4", &[], paper::fig4),
    exp("fig5", &[], paper::fig5),
    exp("fig8", &[], paper::fig8),
    exp("fig11", &[THREADS], paper::fig11),
    exp("fig12", &[], paper::fig12),
    exp("fig13", &[THREADS, DURATION], paper::fig13),
    exp("fig14", &[DURATION], paper::fig14),
    exp("fig15", &[], paper::fig15),
    exp("fig16", &[DURATION], paper::fig16),
    exp("table1", &[THREADS], paper::table1),
    exp("ablation_planner", &[], ablation::planner),
    exp("ablation_safeguard", &[], ablation::safeguard),
    exp("ablation_balancer", &[], ablation::balancer),
    exp("ablation_thresholds", &[], ablation::thresholds),
    exp("ablation_memory", &[], ablation::memory),
    exp("ext_prewarm", &[], ablation::ext_prewarm),
    exp("plan_warmup", &[], plan_warmup::run),
    exp("store", &[THREADS], store::run),
    exp("chaos", &[THREADS, SEED, DURATION], chaos::run),
    exp("scale_out", &[THREADS, SEED, DURATION], scale_out::run),
    exp("serve_scale", &[DURATION], serve_scale::run),
    exp(
        "prewarm_predict",
        &[THREADS, SEED, DURATION],
        prewarm_predict::run,
    ),
    exp("catalog_scale", &[], catalog_scale::run),
    exp("llm_transform", &[THREADS], llm_transform::run),
];

const USAGE: &str =
    "usage: exp <name> [--small] [--threads N] [--seed N] [--duration S]\n       exp --list";

/// Parsed command line of one experiment run.
pub struct Args {
    /// The CI configuration, where the experiment has one.
    pub small: bool,
    /// Sweep workers for [`optimus_bench::sweep::run_grid`] (1 = sequential).
    pub threads: usize,
    pub seed: Option<u64>,
    pub duration: Option<f64>,
}

impl Args {
    fn parse(exp: &Experiment, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            small: false,
            threads: 1,
            seed: None,
            duration: None,
        };
        let takes = |flag: &str| exp.flags.contains(&flag);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--small" => args.small = true,
                THREADS if takes(THREADS) => {
                    // 0 means one worker per available core.
                    args.threads = match parse_value(flag, value()?)? {
                        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
                        n => n,
                    }
                }
                SEED if takes(SEED) => args.seed = Some(parse_value(flag, value()?)?),
                DURATION if takes(DURATION) => {
                    let s: f64 = parse_value(flag, value()?)?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("{flag} must be a positive number of seconds"));
                    }
                    args.duration = Some(s);
                }
                other => return Err(format!("`{}` does not take `{other}`", exp.name)),
            }
        }
        Ok(args)
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

/// What an experiment hands back to the runner.
pub struct Outcome {
    pub results: serde_json::Value,
    pub claims: Claims,
}

/// The outcome of an experiment that claims nothing.
impl From<serde_json::Value> for Outcome {
    fn from(results: serde_json::Value) -> Self {
        Outcome {
            results,
            claims: Claims::default(),
        }
    }
}

/// The named invariants and paper-shape checks one run evaluated.
#[derive(Default)]
pub struct Claims(Vec<Claim>);

struct Claim {
    name: String,
    holds: bool,
    /// What was measured, shown when the claim fails.
    detail: String,
}

impl Claims {
    /// Record claim `name`; returns `holds` so callers can report a group.
    pub fn check(
        &mut self,
        name: impl Into<String>,
        holds: bool,
        detail: impl Into<String>,
    ) -> bool {
        self.0.push(Claim {
            name: name.into(),
            holds,
            detail: detail.into(),
        });
        holds
    }

    /// Claim `a == b`.
    pub fn eq<T: PartialEq + Debug>(&mut self, name: impl Into<String>, a: T, b: T) -> bool {
        let detail = format!("{a:?} vs {b:?}");
        self.check(name, a == b, detail)
    }

    /// Claim `a < b`.
    pub fn lt<T: PartialOrd + Debug>(&mut self, name: impl Into<String>, a: T, b: T) -> bool {
        let detail = format!("{a:?} vs {b:?}");
        self.check(name, a < b, detail)
    }

    /// Claim `a <= b`.
    pub fn le<T: PartialOrd + Debug>(&mut self, name: impl Into<String>, a: T, b: T) -> bool {
        let detail = format!("{a:?} vs {b:?}");
        self.check(name, a <= b, detail)
    }

    pub fn all_hold(&self) -> bool {
        self.failed().next().is_none()
    }

    fn failed(&self) -> impl Iterator<Item = &Claim> {
        self.0.iter().filter(|c| !c.holds)
    }
}

/// The first `n` models of the Fig 13 catalog (all of them for
/// `usize::MAX`) registered under `env`: their names and the repository.
pub fn figure13_repo(n: usize, env: Environment) -> (Vec<String>, Arc<ModelRepository>) {
    let models: Vec<ModelGraph> = figure13_models().into_iter().take(n).collect();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!("registering {} models ({env:?} profile)...", names.len());
    (names, build_repo(models, env))
}

/// Share of `report`'s requests that started as `kind`.
pub fn share(report: &SimReport, kind: StartKind) -> f64 {
    report.start_fractions().get(&kind).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile of sorted data (0 for an empty sample).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// `"OK"` or `"FAILED"`, for the summary lines experiments print.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK"
    } else {
        "FAILED"
    }
}

/// Write `results/exp_<name>[_small].json` if `results/` exists (next to
/// the working directory); skip silently otherwise.
fn save(name: &str, small: bool, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if !dir.is_dir() {
        return;
    }
    let path = dir.join(format!(
        "exp_{name}{}.json",
        if small { "_small" } else { "" }
    ));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("results written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if first == "--list" && argv.len() == 1 {
        for exp in REGISTRY {
            println!(
                "{}",
                format!("{} {}", exp.name, exp.flags.join(" ")).trim_end()
            );
        }
        return ExitCode::SUCCESS;
    }
    let Some(exp) = REGISTRY.iter().find(|e| e.name == first) else {
        eprintln!("exp: unknown experiment `{first}` (see `exp --list`)\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = match Args::parse(exp, &argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exp: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = (exp.run)(&args);
    save(exp.name, args.small, &outcome.results);
    let failed: Vec<&Claim> = outcome.claims.failed().collect();
    for claim in &failed {
        match claim.detail.as_str() {
            "" => eprintln!("claim failed: {}", claim.name),
            detail => eprintln!("claim failed: {} ({detail})", claim.name),
        }
    }
    let total = outcome.claims.0.len();
    eprintln!(
        "{}: {} of {total} claims hold",
        exp.name,
        total - failed.len()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Parsed = (bool, usize, Option<u64>, Option<f64>);

    /// `exp <name> <argv>` as `(small, threads, seed, duration)`.
    fn parse(name: &str, argv: &str) -> Result<Parsed, String> {
        let exp = REGISTRY.iter().find(|e| e.name == name).unwrap();
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        Args::parse(exp, &argv).map(|a| (a.small, a.threads, a.seed, a.duration))
    }

    #[test]
    fn registry_holds_26_distinct_names() {
        let mut names: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn flags_parse_with_defaults() {
        assert_eq!(parse("chaos", ""), Ok((false, 1, None, None)));
        let all = parse("chaos", "--small --threads 4 --seed 9 --duration 60");
        assert_eq!(all, Ok((true, 4, Some(9), Some(60.0))));
        assert!(parse("chaos", "--threads 0").unwrap().1 >= 1);
    }

    #[test]
    fn malformed_and_unread_flags_are_usage_errors() {
        for argv in [
            "--threads x",
            "--threads",
            "--duration -1",
            "--balancer hash",
        ] {
            assert!(parse("chaos", argv).is_err(), "{argv}");
        }
        // Every experiment takes --small; only readers take the others.
        assert!(parse("fig2", "--small").is_ok());
        assert!(parse("fig2", "--threads 2").is_err());
        assert!(parse("fig14", "--seed 1").is_err());
    }
}
