//! Chaos sweep — all four systems under deterministic fault injection.
//!
//! Sweeps a seeded fault-rate grid (`optimus-faults`) across OpenWhisk,
//! Pagurus, Tetris and Optimus and reports how service time degrades as
//! node crashes, container kills, transform failures and store-transport
//! stragglers are injected. Three invariants are claimed:
//!
//! 1. **Safeguard under failure** — at every fault rate, the per-request
//!    audit margin `max_over_cold` stays ≤ 1e-6: an Optimus request with
//!    the safeguard never pays more startup latency than the cold start
//!    OpenWhisk would have paid for the same request under the same
//!    injected faults, and consequently Optimus' p99 service time stays
//!    at or below OpenWhisk's at every rate.
//! 2. **Quiet-plan identity** — a zero-rate fault plan reproduces the
//!    fault-free run byte-identically (the fault layer's identity-math
//!    contract).
//! 3. **Determinism** — re-running the highest-rate Optimus cell yields
//!    a byte-identical report (same seed ⇒ same injections ⇒ same JSON).

use optimus_bench::sweep::run_grid;
use optimus_bench::{fmt_s, print_table};
use optimus_faults::{FaultPlan, FaultSpec};
use optimus_profile::Environment;
use optimus_sim::{Platform, Policy, SimConfig, SimReport};
use optimus_workload::{rates, AzureTraceGenerator, PoissonGenerator, Trace};

use crate::{figure13_repo, verdict, Args, Claims, Outcome};

pub fn run(args: &Args) -> Outcome {
    let small = args.small;
    let seed = args.seed.unwrap_or(42);
    let (catalog_size, default_duration, fault_rates): (usize, f64, Vec<f64>) = if small {
        (10, 2_400.0, vec![0.0, 0.05, 0.2])
    } else {
        (usize::MAX, 14_400.0, vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2])
    };
    let duration = args.duration.unwrap_or(default_duration);

    let (names, repo) = figure13_repo(catalog_size, Environment::Cpu);
    let trace: Trace = if small {
        PoissonGenerator::new(rates::MIDDLE, duration, seed).generate(&names)
    } else {
        AzureTraceGenerator::new(duration, seed).generate(&names)
    };
    let base = SimConfig {
        store: Some(optimus_store::StoreConfig::default()),
        ..SimConfig::default()
    };
    let plan_for = |rate: f64| -> Option<FaultPlan> {
        (rate > 0.0).then(|| FaultPlan::from_spec(FaultSpec::uniform(seed, rate)))
    };
    let optimus_with = |faults: Option<FaultPlan>| {
        let config = SimConfig {
            faults,
            ..base.clone()
        };
        Platform::new(config, Policy::Optimus, repo.clone()).run(&trace)
    };

    println!(
        "Chaos sweep: {} functions, {} nodes x {} slots, {} requests, seed {seed}\n",
        names.len(),
        base.nodes,
        base.capacity_per_node,
        trace.len()
    );

    // One grid cell per fault rate × policy; results return in input
    // order, so table/JSON are byte-identical at any --threads.
    let cells: Vec<(usize, Policy)> = (0..fault_rates.len())
        .flat_map(|r| Policy::ALL.iter().map(move |&p| (r, p)))
        .collect();
    let reports = run_grid(&cells, args.threads, |&(r, policy)| {
        let config = SimConfig {
            faults: plan_for(fault_rates[r]),
            ..base.clone()
        };
        Platform::new(config, policy, repo.clone()).run(&trace)
    });
    let report_at = |r: usize, policy: Policy| -> &SimReport {
        let p = Policy::ALL
            .iter()
            .position(|&x| x == policy)
            .expect("known");
        &reports[r * Policy::ALL.len() + p]
    };

    let mut claims = Claims::default();
    let mut safeguard_ok = true;
    let mut rows = Vec::new();
    let mut stat_rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (r, &rate) in fault_rates.iter().enumerate() {
        let mut row = vec![format!("{:.0}%", rate * 100.0)];
        let mut per_system = serde_json::Map::new();
        for &policy in Policy::ALL.iter() {
            let report = report_at(r, policy);
            row.push(format!(
                "{} / {}",
                fmt_s(report.avg_service_time()),
                fmt_s(report.percentile_service_time(99.0))
            ));
            per_system.insert(
                policy.name().to_string(),
                serde_json::json!({
                    "avg_service_time": report.avg_service_time(),
                    "p99": report.percentile_service_time(99.0),
                    "requests": report.len(),
                    "faults": report.faults,
                }),
            );
        }
        rows.push(row);

        // ── Invariant 1: safeguard under failure ────────────────────────
        let optimus = report_at(r, Policy::Optimus);
        let openwhisk = report_at(r, Policy::OpenWhisk);
        if let Some(fr) = optimus.faults {
            safeguard_ok &= claims.le(
                format!("rate {rate}: no Optimus start costs more than its cold start"),
                fr.max_over_cold,
                1e-6,
            );
            let s = fr.stats;
            stat_rows.push(vec![
                format!("{:.0}%", rate * 100.0),
                s.node_crashes.to_string(),
                s.container_kills.to_string(),
                s.transform_failures.to_string(),
                s.safeguard_escalations.to_string(),
                s.reroutes.to_string(),
                s.fetch_stragglers.to_string(),
                s.fetch_retries.to_string(),
                s.load_corruptions.to_string(),
            ]);
        }
        let (opt_p99, ow_p99) = (
            optimus.percentile_service_time(99.0),
            openwhisk.percentile_service_time(99.0),
        );
        safeguard_ok &= claims.le(
            format!("rate {rate}: Optimus p99 at or below OpenWhisk's"),
            opt_p99,
            ow_p99 + 1e-9,
        );
        sweep_json.push(serde_json::json!({
            "fault_rate": rate,
            "systems": serde_json::Value::Object(per_system),
        }));
    }
    print_table(
        &[
            "Fault rate",
            "OpenWhisk avg/p99",
            "Pagurus avg/p99",
            "Tetris avg/p99",
            "Optimus avg/p99",
        ],
        &rows,
    );
    println!("\nInjected faults and resilience actions (Optimus):\n");
    print_table(
        &[
            "Fault rate",
            "Crashes",
            "Kills",
            "Xform fail",
            "Escalated",
            "Reroutes",
            "Stragglers",
            "Retries",
            "Corrupt",
        ],
        &stat_rows,
    );

    // ── Invariant 2: quiet-plan identity ────────────────────────────────
    let quiet = optimus_with(Some(FaultPlan::from_spec(FaultSpec::off(seed))));
    let baseline = report_at(0, Policy::Optimus);
    let ok = claims.check(
        "a zero-rate fault plan reproduces the fault-free run byte-identically",
        serde_json::to_string(&quiet.records).expect("serializes")
            == serde_json::to_string(&baseline.records).expect("serializes"),
        "",
    );
    println!(
        "\nquiet-plan identity: {} (zero-rate plan == no plan, byte-identical records)",
        verdict(ok)
    );

    // ── Invariant 3: determinism of the faulted cells ───────────────────
    let last = fault_rates.len() - 1;
    let rerun = optimus_with(plan_for(fault_rates[last]));
    let ok = claims.check(
        "same seed gives a byte-identical chaos report",
        serde_json::to_string(&rerun).expect("serializes")
            == serde_json::to_string(report_at(last, Policy::Optimus)).expect("serializes"),
        "",
    );
    println!(
        "determinism: {} (highest-rate Optimus cell re-ran byte-identically)",
        verdict(ok)
    );
    println!(
        "safeguard: {} (Optimus p99 <= OpenWhisk p99 at every fault rate)",
        verdict(safeguard_ok)
    );

    Outcome {
        results: serde_json::json!({
            "config": if small { "small" } else { "full" },
            "seed": seed,
            "duration_s": duration,
            "functions": names.len(),
            "requests": trace.len(),
            "fault_rates": fault_rates,
            "sweep": sweep_json,
        }),
        claims,
    }
}
