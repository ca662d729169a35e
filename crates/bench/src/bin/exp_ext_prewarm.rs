//! Extension — predictive prewarming on top of Optimus (§2.2 notes the
//! two cold-start mitigation classes are complementary; this measures the
//! combination).
//!
//! Azure-style workloads contain many timer-triggered (periodic) functions
//! whose next arrival is predictable, which is exactly where proactive
//! transformation pays off.
//!
//! The last row runs the newer arrival predictor
//! (`PredictConfig::default()`) on the same trace: as long as it reads
//! worse than mean-gap prewarming here, it has not superseded
//! `SimConfig::prewarm`.

use optimus_bench::{build_repo, figure13_models, fmt_pct, fmt_s, print_table, save_results};
use optimus_profile::Environment;
use optimus_sim::{Platform, Policy, PredictConfig, PrewarmConfig, SimConfig, StartKind};
use optimus_workload::AzureTraceGenerator;

fn main() {
    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!("registering {} models...", names.len());
    let repo = build_repo(models, Environment::Cpu);
    let trace = AzureTraceGenerator::new(86_400.0, 7).generate(&names);
    println!(
        "Extension: Optimus vs Optimus + predictive prewarming, Azure \
         workload ({} requests)\n",
        trace.len()
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let prewarm = |lead: f64| SimConfig {
        prewarm: Some(PrewarmConfig {
            lead,
            min_history: 3,
        }),
        ..SimConfig::default()
    };
    let cases: Vec<(&str, SimConfig)> = vec![
        ("Optimus", SimConfig::default()),
        ("Optimus + prewarm (lead 5 s)", prewarm(5.0)),
        ("Optimus + prewarm (lead 30 s)", prewarm(30.0)),
        (
            "Optimus + predictor (default)",
            SimConfig {
                predict: Some(PredictConfig::default()),
                ..SimConfig::default()
            },
        ),
    ];
    for (name, config) in cases {
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        let frac = report.start_fractions();
        let warm = frac.get(&StartKind::Warm).copied().unwrap_or(0.0);
        rows.push(vec![
            name.to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
            fmt_pct(warm),
            format!("{}", report.prewarms),
        ]);
        json.push(serde_json::json!({
            "mode": name,
            "avg_service_time": report.avg_service_time(),
            "p99": report.percentile_service_time(99.0),
            "warm_fraction": warm,
            "prewarms": report.prewarms,
        }));
    }
    print_table(
        &["Mode", "Avg service (s)", "p99 (s)", "Warm", "Prewarms"],
        &rows,
    );
    println!(
        "\nPrewarming converts predictable reactive transformations into \
         warm starts; the safeguard still governs each proactive transform."
    );
    save_results("exp_ext_prewarm", &serde_json::json!({ "rows": json }));
}
