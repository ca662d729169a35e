//! `sim_replay_plain` and `sim_replay_full`: closed loop, one thread,
//! `cpu_bound`. One operation is one `Platform::run` over a freshly
//! generated Azure-style trace (generation is not timed), so a run
//! covers ≈1 000 distinct traces and its percentiles describe the
//! distribution of seeded inputs, not one lucky or unlucky trace.

use std::sync::Arc;
use std::time::Instant;

use optimus_core::ModelRepository;
use optimus_faults::{FaultPlan, FaultSpec};
use optimus_sim::{Platform, Policy, PredictConfig, SimConfig, SimReport, StartKind, StoreConfig};
use optimus_workload::Trace;

use crate::harness::{
    check, end_to_end, enough_samples, measure_setup, metric, run_rounds, Args, Report,
};
use crate::inputs::{azure_trace, stream, sub_seed};
use crate::layers::{self, Rows};
use crate::norm::{RefKernel, RoundSamples};
use crate::spans::{SpanLog, TraceSplit};

/// Invocations per replayed trace. Plain costs ≈0.3 µs per invocation
/// plus placement; with the store on ≈40 µs, so the full trace is short.
pub const PLAIN_INVOCATIONS: usize = 30_000;
pub const FULL_INVOCATIONS: usize = 400;

pub fn invocations(full: bool) -> usize {
    if full {
        FULL_INVOCATIONS
    } else {
        PLAIN_INVOCATIONS
    }
}

/// `SimConfig::default()` (every optional subsystem `None`), or the same
/// with store, predictor and a 1 % uniform fault plan switched on.
pub fn config(full: bool, seed: u64) -> SimConfig {
    if !full {
        return SimConfig::default();
    }
    SimConfig {
        store: Some(StoreConfig::default()),
        predict: Some(PredictConfig::default()),
        faults: Some(FaultPlan::from_spec(FaultSpec::uniform(
            sub_seed(seed, stream::FAULTS, 0),
            0.01,
        ))),
        ..SimConfig::default()
    }
}

/// The 37-function catalog of Figures 13/14, planned pairwise.
pub fn catalog_repo() -> Arc<ModelRepository> {
    optimus_bench::build_repo(
        optimus_bench::figure13_models(),
        optimus_profile::Environment::Cpu,
    )
}

pub fn trace(names: &[String], seed: u64, op: u64, full: bool) -> Trace {
    azure_trace(names, sub_seed(seed, stream::TRACE, op), invocations(full))
}

/// Start-kind counts `[warm, transform, cold]` of a correct replay:
/// every invocation has a record, the kinds sum to the trace length, and
/// exactly the configured subsystems reported. `None` otherwise.
fn start_counts(report: &SimReport, trace: &Trace, full: bool) -> Option<[u64; 3]> {
    let mut counts = [0u64; 3];
    for r in &report.records {
        counts[match r.kind {
            StartKind::Warm => 0,
            StartKind::Transform => 1,
            StartKind::Cold => 2,
        }] += 1;
    }
    let subsystems = [
        report.store.is_some(),
        report.predict.is_some(),
        report.faults.is_some(),
    ];
    let ok = report.records.len() == trace.len()
        && counts.iter().sum::<u64>() as usize == trace.len()
        && subsystems == [full; 3]
        && report.fleet.is_none()
        && report.llm.is_none();
    ok.then_some(counts)
}

pub fn run(args: &Args, full: bool) -> Report {
    let kernel = RefKernel::default();
    let n = invocations(full);

    let (setup, (platform, names, first_trace)) = measure_setup(&kernel, args.boots(), || {
        let repo = catalog_repo();
        let names = repo.model_names();
        let platform = Platform::new(config(full, args.seed), Policy::Optimus, repo);
        let first = trace(&names, args.seed, 0, full);
        (platform, names, first)
    });

    // Warm-up, and the reference serialisation for the determinism check.
    let first_report = platform.run(&first_trace);
    let first_ok = start_counts(&first_report, &first_trace, full).is_some();
    let first_json = serde_json::to_string(&first_report).expect("report serialises");
    for _ in 0..2 {
        std::hint::black_box(platform.run(&first_trace));
    }

    let mut samples = RoundSamples::new(true);
    let mut spans = SpanLog::new();
    let mut counts = [0u64; 3];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut split = TraceSplit::default();
    run_rounds(
        &kernel,
        args.rounds(),
        &mut samples,
        |round, deadline, samples| {
            let tracing = args.trace && round % 2 == 1;
            let (mut replayed, mut busy_s) = (0usize, 0.0);
            while Instant::now() < deadline {
                attempted += 1;
                let trace = trace(&names, args.seed, attempted, full);
                let t0 = Instant::now();
                let report = platform.run(&trace);
                let t1 = Instant::now();
                let seconds = (t1 - t0).as_secs_f64();
                let Some(kinds) = start_counts(&report, &trace, full) else {
                    failed += 1;
                    continue;
                };
                for (total, n) in counts.iter_mut().zip(kinds) {
                    *total += n;
                }
                samples.push(seconds);
                split.push(tracing, seconds);
                replayed += trace.len();
                busy_s += seconds;
                if tracing {
                    // `run` places the trace's functions first; the same public
                    // call, timed on its own, is attributed as the child span.
                    let op = spans.op("sim.platform.run", attempted, t0, t1);
                    let p0 = Instant::now();
                    std::hint::black_box(platform.placement(&trace));
                    spans.child(
                        op,
                        "balance.placement.place",
                        0.0,
                        p0.elapsed().as_secs_f64(),
                    );
                }
            }
            (replayed as f64, busy_s)
        },
    );

    let last_json = serde_json::to_string(&platform.run(&first_trace)).expect("report serialises");
    let total = counts.iter().sum::<u64>().max(1) as f64;
    let shares = counts.map(|n| n as f64 / total);
    let checks = vec![
        check(
            "first_replay_valid",
            first_ok,
            "records, start kinds and subsystems as configured",
        ),
        check(
            "every_replay_valid",
            failed == 0,
            format!("{failed} of {attempted} replays failed validation"),
        ),
        check(
            "first_and_last_replay_identical",
            first_json == last_json,
            format!("{} bytes of serialised SimReport", first_json.len()),
        ),
        enough_samples(args, samples.len()),
    ];

    let (metrics, mut info) = end_to_end(&samples, &setup);
    info.push(metric("invocations_per_replay", n as f64, "count"));
    info.push(metric(
        "ns_per_invocation",
        1e9 / samples.throughput(true),
        "ns",
    ));
    for (kind, share) in ["warm", "transform", "cold"].iter().zip(shares) {
        info.push(metric(format!("start_share.{kind}"), share, "ratio"));
    }
    let mut report = Report {
        attempted,
        failed,
        checks,
        metrics,
        info,
    };
    if !args.trace {
        return report;
    }

    let by_name = spans.layers();
    let run_layer = by_name.get("sim.platform.run").copied().unwrap_or_default();
    let overhead = split.overhead_share();
    report.metrics = layers::ledger(args, &kernel, &spans, samples.factors(), |micro| {
        let mut rows = Rows::new();
        for (kind, share) in ["warm", "transform", "cold"].iter().zip(shares) {
            rows.insert(format!("sim.platform.start_share.{kind}"), share);
        }
        rows.insert("harness.trace_overhead_share".into(), overhead);
        // Attributed from outside: placement (child span) and, on the full
        // workload, each subsystem's differenced cost. What is left is the
        // event loop itself plus the subsystems' interaction.
        let mut explained = run_layer.total_s - run_layer.self_s;
        if full {
            let plain_ns = micro["sim.platform.ns_per_invocation.plain"];
            for sub in ["store", "predict", "faults"] {
                let delta = micro[&format!("sim.platform.ns_per_invocation.{sub}")] - plain_ns;
                explained += delta.max(0.0) * 1e-9 * (n as u64 * run_layer.count) as f64;
            }
        }
        rows.insert(
            "harness.unexplained_share".into(),
            (1.0 - explained / run_layer.total_s.max(1e-12)).max(0.0),
        );
        rows
    });
    report
}
