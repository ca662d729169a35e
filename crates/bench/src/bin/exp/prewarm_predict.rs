//! Arrival-prediction sweep — adaptive keep-alive and speculative
//! transformation vs the fixed-window Optimus baseline.
//!
//! Sweeps predictor aggressiveness across three trace families (Poisson,
//! Azure-like, diurnal/bursty) on the Optimus policy and reports how the
//! cold-start rate and tail latency respond. The diurnal trace is the
//! predictor's stress case: every function's rate is strongly
//! time-varying, so the fixed `DEFAULT_KEEP_ALIVE_S` window idles
//! containers through the daily trough and evicts them right before
//! arrivals return. Four invariants are claimed:
//!
//! 1. **Inert identity** — an inert predictor (adaptive keep-alive off,
//!    speculation off) observes every arrival yet reproduces the
//!    prediction-less run's request records byte-identically.
//! 2. **Determinism** — re-running the most aggressive diurnal cell
//!    yields a byte-identical report (same trace ⇒ same forecasts ⇒
//!    same speculations).
//! 3. **Bounded misprediction cost** — in every speculative cell,
//!    `max_spec_over_budget` stays below 0: the cost-model gate admitted
//!    no speculation that could cost more than the cold start it
//!    replaces.
//! 4. **Prediction wins where it should** — on the diurnal trace, the
//!    default predictive configuration beats the fixed-window baseline
//!    in *both* cold-start rate and p99 service time.
//!
//! `--duration` sets the diurnal trace's length.

use optimus_bench::sweep::run_grid;
use optimus_bench::{fmt_pct, fmt_s, print_table};
use optimus_profile::Environment;
use optimus_sim::{
    Platform, Policy, PredictConfig, SimConfig, SimReport, SpeculationConfig, StartKind,
    DEFAULT_KEEP_ALIVE_S,
};
use optimus_workload::{
    rates, AzureTraceGenerator, DiurnalBurstGenerator, PoissonGenerator, Trace,
};

use crate::{figure13_repo, share, verdict, Args, Claims, Outcome};

/// One predictor configuration under sweep.
#[derive(Clone, Copy)]
enum Variant {
    /// `predict: None` — the fixed `DEFAULT_KEEP_ALIVE_S` window.
    Fixed,
    /// Adaptive keep-alive only: learned per-function windows, no
    /// speculation.
    Adaptive,
    /// Adaptive keep-alive + speculative transformation at the given
    /// aggressiveness.
    Speculative(f64),
}

impl Variant {
    fn name(&self) -> String {
        match self {
            Variant::Fixed => "fixed".to_string(),
            Variant::Adaptive => "adaptive".to_string(),
            Variant::Speculative(a) => format!("spec@{a}"),
        }
    }

    fn predict(&self) -> Option<PredictConfig> {
        match *self {
            Variant::Fixed => None,
            Variant::Adaptive => Some(PredictConfig {
                adaptive_keep_alive: true,
                speculation: None,
                ..PredictConfig::default()
            }),
            Variant::Speculative(aggressiveness) => Some(PredictConfig {
                adaptive_keep_alive: true,
                // The sim evaluates due bands at arrival events; a lead
                // larger than the aggregate inter-event gap (~15 s on
                // these traces) keeps forecast bands from being skipped
                // over between checks.
                speculation: Some(SpeculationConfig {
                    lead: 60.0,
                    aggressiveness,
                }),
                ..PredictConfig::default()
            }),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let small = args.small;
    let seed = args.seed.unwrap_or(42);
    let (catalog_size, default_diurnal_s, aggressiveness): (usize, f64, Vec<f64>) = if small {
        (10, 43_200.0, vec![1.0])
    } else {
        (usize::MAX, 172_800.0, vec![0.5, 1.0, 2.0])
    };
    let diurnal_s = args.duration.unwrap_or(default_diurnal_s);

    let (names, repo) = figure13_repo(catalog_size, Environment::Cpu);

    // Three trace families. The diurnal generator's base rate is set so
    // trough-time gaps (rate × (1 − amplitude)) stretch past the fixed
    // keep-alive window — the regime the predictor exists for.
    let traces: Vec<(&str, Trace)> = vec![
        (
            "poisson",
            PoissonGenerator::new(rates::MIDDLE, if small { 2_400.0 } else { 7_200.0 }, seed)
                .generate(&names),
        ),
        (
            "azure",
            AzureTraceGenerator::new(if small { 2_400.0 } else { 14_400.0 }, seed).generate(&names),
        ),
        (
            "diurnal",
            DiurnalBurstGenerator::new(diurnal_s, seed, 0.002).generate(&names),
        ),
    ];

    let mut variants = vec![Variant::Fixed, Variant::Adaptive];
    variants.extend(aggressiveness.iter().map(|&a| Variant::Speculative(a)));

    let base = SimConfig::default();
    println!(
        "Prediction sweep: {} functions, {} nodes x {} slots, fixed window {} s, seed {seed}\n",
        names.len(),
        base.nodes,
        base.capacity_per_node,
        DEFAULT_KEEP_ALIVE_S
    );
    let run_with = |predict: Option<PredictConfig>, trace: &Trace| {
        let config = SimConfig {
            predict,
            ..base.clone()
        };
        Platform::new(config, Policy::Optimus, repo.clone()).run(trace)
    };

    // One grid cell per trace × variant; results return in input order,
    // so table/JSON are byte-identical at any --threads.
    let cells: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..variants.len()).map(move |v| (t, v)))
        .collect();
    let reports = run_grid(&cells, args.threads, |&(t, v)| {
        run_with(variants[v].predict(), &traces[t].1)
    });
    let report_at = |t: usize, v: usize| -> &SimReport { &reports[t * variants.len() + v] };

    let mut claims = Claims::default();
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (t, (trace_name, trace)) in traces.iter().enumerate() {
        let mut per_variant = serde_json::Map::new();
        for (v, variant) in variants.iter().enumerate() {
            let report = report_at(t, v);
            let cold_rate = share(report, StartKind::Cold);
            rows.push(vec![
                trace_name.to_string(),
                variant.name(),
                report.len().to_string(),
                fmt_pct(cold_rate),
                fmt_pct(share(report, StartKind::Warm)),
                fmt_s(report.avg_service_time()),
                fmt_s(report.percentile_service_time(99.0)),
                match &report.predict {
                    Some(p) => format!("{}/{}", p.spec_hits, p.speculations),
                    None => "-".to_string(),
                },
            ]);
            let mut cell = serde_json::Map::new();
            cell.insert(
                "avg_service_time".to_string(),
                serde_json::json!(report.avg_service_time()),
            );
            cell.insert(
                "p99".to_string(),
                serde_json::json!(report.percentile_service_time(99.0)),
            );
            cell.insert("cold_rate".to_string(), serde_json::json!(cold_rate));
            cell.insert("requests".to_string(), serde_json::json!(report.len()));
            if let Some(p) = &report.predict {
                let at = format!("{trace_name}/{}", variant.name());
                // ── Invariant 3: bounded misprediction cost ─────────────
                if p.speculations > 0 {
                    claims.lt(
                        format!("{at}: no speculation exceeds its cold-start budget"),
                        p.max_spec_over_budget,
                        0.0,
                    );
                }
                claims.eq(
                    format!("{at}: the predictor observes every arrival"),
                    p.observed_arrivals,
                    trace.len() as u64,
                );
                cell.insert(
                    "predict".to_string(),
                    serde_json::json!({
                        "speculations": p.speculations,
                        "spec_hits": p.spec_hits,
                        "spec_mispredictions": p.spec_mispredictions,
                        "spec_skipped": p.spec_skipped,
                        "spec_cost_seconds": p.spec_cost_seconds,
                        "spec_saved_seconds": p.spec_saved_seconds,
                        "max_spec_over_budget": p.max_spec_over_budget,
                        "mean_window_s": p.mean_window(),
                    }),
                );
            }
            per_variant.insert(variant.name(), serde_json::Value::Object(cell));
        }
        sweep_json.push(serde_json::json!({
            "trace": trace_name,
            "requests": trace.len(),
            "duration_s": trace.duration,
            "variants": serde_json::Value::Object(per_variant),
        }));
    }
    print_table(
        &[
            "Trace", "Variant", "Reqs", "Cold", "Warm", "Avg", "p99", "Spec hit",
        ],
        &rows,
    );

    // ── Invariant 1: inert identity ─────────────────────────────────────
    let diurnal_idx = traces.len() - 1;
    let diurnal = &traces[diurnal_idx].1;
    let inert = run_with(Some(PredictConfig::inert()), diurnal);
    let fixed = report_at(diurnal_idx, 0);
    let ok = claims.check(
        "an inert predictor reproduces the prediction-less run byte-identically",
        serde_json::to_string(&inert.records).expect("serializes")
            == serde_json::to_string(&fixed.records).expect("serializes"),
        "",
    );
    println!(
        "\ninert identity: {} (inert predictor == predict off, byte-identical records)",
        verdict(ok)
    );

    // ── Invariant 2: determinism ────────────────────────────────────────
    let last_v = variants.len() - 1;
    let rerun = run_with(variants[last_v].predict(), diurnal);
    let ok = claims.check(
        "the same trace gives a byte-identical predictive report",
        serde_json::to_string(&rerun).expect("serializes")
            == serde_json::to_string(report_at(diurnal_idx, last_v)).expect("serializes"),
        "",
    );
    println!(
        "determinism: {} (most aggressive diurnal cell re-ran byte-identically)",
        verdict(ok)
    );

    // ── Invariant 4: prediction wins on the diurnal trace ───────────────
    let default_spec = variants
        .iter()
        .position(|v| matches!(v, Variant::Speculative(a) if *a == 1.0))
        .expect("default aggressiveness in sweep");
    let predictive = report_at(diurnal_idx, default_spec);
    let (fixed_cold, pred_cold) = (
        share(fixed, StartKind::Cold),
        share(predictive, StartKind::Cold),
    );
    let (fixed_p99, pred_p99) = (
        fixed.percentile_service_time(99.0),
        predictive.percentile_service_time(99.0),
    );
    let ok = claims.lt(
        "diurnal: the predictive cold-start rate beats the fixed window",
        pred_cold,
        fixed_cold,
    ) & claims.lt(
        "diurnal: the predictive p99 beats the fixed window",
        pred_p99,
        fixed_p99,
    );
    println!(
        "prediction: {} (diurnal cold rate {} -> {}, p99 {} -> {})",
        verdict(ok),
        fmt_pct(fixed_cold),
        fmt_pct(pred_cold),
        fmt_s(fixed_p99),
        fmt_s(pred_p99)
    );

    Outcome {
        results: serde_json::json!({
            "config": if small { "small" } else { "full" },
            "seed": seed,
            "functions": names.len(),
            "fixed_keep_alive_s": DEFAULT_KEEP_ALIVE_S,
            "sweep": sweep_json,
        }),
        claims,
    }
}
