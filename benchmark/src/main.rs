//! The repo's benchmark. One process runs one workload:
//!
//! ```text
//! optimus-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! ```
//!
//! It prints every metric by name with its unit, then one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`), and exits non-zero when
//! an output check failed. `benchmark/run.sh` builds it and runs each
//! workload in its own process; `benchmark/README.md` has the tables.

mod harness;
mod inputs;
mod layers;
mod norm;
mod serve;
mod sim;
mod spans;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match harness::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("optimus-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "sim_replay_plain" => sim::run(&args, false),
        "sim_replay_full" => sim::run(&args, true),
        "serve_http_warm" => serve::run_http(&args),
        "serve_gateway_churn" => serve::run_churn(&args),
        other => unreachable!("Args::parse admitted workload '{other}'"),
    };
    report.print(&args);
    if !report.correct() {
        std::process::exit(1);
    }
}
