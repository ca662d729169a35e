//! Ablations of the design choices DESIGN.md §5 calls out, and the
//! predictive-prewarming extension. Like the paper figures, none has a
//! separate CI configuration.

use std::sync::Arc;
use std::time::Instant;

use optimus_bench::{fmt_pct, fmt_s, print_table};
use optimus_core::{GroupPlanner, ModelRepository, MunkresPlanner, NaivePlanner, Planner};
use optimus_profile::{CostModel, Environment};
use optimus_sim::{
    MemoryLimit, PlacementStrategy, Platform, Policy, PredictConfig, PrewarmConfig, SimConfig,
    StartKind,
};
use optimus_workload::{rates, AzureTraceGenerator, PoissonGenerator};

use crate::{figure13_repo, share, Args, Outcome};

/// A single-node, hash-placed platform small enough that a 12- or
/// 8-model population contends for its slots.
fn one_node(capacity_per_node: usize) -> SimConfig {
    SimConfig {
        nodes: 1,
        capacity_per_node,
        placement: PlacementStrategy::Hash,
        ..SimConfig::default()
    }
}

/// Planner choice end to end: register the model population under the
/// naive / group / Munkres planners and compare both the offline planning
/// cost (registration time) and the resulting online service time of the
/// Optimus policy.
pub fn planner(_: &Args) -> Outcome {
    let population = || {
        vec![
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::resnet::resnet18(),
            optimus_zoo::resnet::resnet34(),
            optimus_zoo::resnet::resnet50(),
            optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
            optimus_zoo::mobilenet::mobilenet_v1(0.5, 0),
            optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
            optimus_zoo::densenet::densenet121(),
            optimus_zoo::inception::inception_v1(),
            optimus_zoo::xception::xception(),
        ]
    };
    let planners: Vec<(&str, Box<dyn Planner + Send + Sync>)> = vec![
        ("naive (delete+add)", Box::new(NaivePlanner)),
        ("group (Module 2+)", Box::new(GroupPlanner)),
        ("munkres (Module 2)", Box::new(MunkresPlanner)),
    ];
    println!("Ablation: planner choice — offline registration vs online latency\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, planner) in planners {
        let repo = ModelRepository::new(planner);
        let cost = CostModel::default();
        let t0 = Instant::now();
        for m in population() {
            repo.register(m, &cost);
        }
        let registration = t0.elapsed().as_secs_f64();
        let repo = Arc::new(repo);
        let trace = PoissonGenerator::new(0.004, 86_400.0, 13).generate(&repo.model_names());
        let report = Platform::new(one_node(5), Policy::Optimus, repo).run(&trace);
        rows.push(vec![
            name.to_string(),
            format!("{:.2} s", registration),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
        ]);
        json.push(serde_json::json!({
            "planner": name,
            "registration_s": registration,
            "avg_service_time": report.avg_service_time(),
        }));
    }
    print_table(
        &["Planner", "Plan-cache build", "Avg service (s)", "p99 (s)"],
        &rows,
    );
    println!(
        "\nExpected: naive plans make every transformation as costly as a \
         scratch load (the safeguard caps it there), so its online latency \
         is the worst; group ≈ munkres online, but group builds the cache \
         orders of magnitude faster."
    );
    serde_json::json!({ "rows": json }).into()
}

/// The §4.4 safeguard: the standard safeguard (transform only when cheaper
/// than loading) against "always transform" and "never transform",
/// measuring average and worst-case start latency.
pub fn safeguard(_: &Args) -> Outcome {
    println!("Ablation: the safeguard (§4.4 Module 3)\n");
    let cases = [
        ("never transform (ratio 0)", 0.0),
        ("safeguard (ratio 1, paper)", 1.0),
        ("always transform (ratio ∞)", f64::MAX),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, ratio) in cases {
        let repo = ModelRepository::new(Box::new(GroupPlanner)).with_safeguard_ratio(ratio);
        let cost = CostModel::default();
        // A deliberately heterogeneous population: transformations between
        // distant members can exceed the scratch-load cost, which is
        // exactly the case the safeguard exists for.
        for m in [
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::mobilenet::mobilenet_v1(0.25, 0),
            optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
            optimus_zoo::densenet::densenet121(),
            optimus_zoo::xception::xception(),
            optimus_zoo::inception::inception_v1(),
            optimus_zoo::resnet::resnet101(),
        ] {
            repo.register(m, &cost);
        }
        let repo = Arc::new(repo);
        let trace = PoissonGenerator::new(0.004, 86_400.0, 31).generate(&repo.model_names());
        let report = Platform::new(one_node(4), Policy::Optimus, repo).run(&trace);
        // Worst single non-warm start latency (init + load).
        let worst = report
            .records
            .iter()
            .filter(|r| r.kind != StartKind::Warm)
            .map(|r| r.init + r.load)
            .fold(0.0, f64::max);
        rows.push(vec![
            name.to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(worst),
        ]);
        json.push(serde_json::json!({
            "mode": name,
            "ratio": if ratio == f64::MAX { -1.0 } else { ratio },
            "avg_service_time": report.avg_service_time(),
            "worst_start": worst,
        }));
    }
    print_table(&["Mode", "Avg service (s)", "Worst start (s)"], &rows);
    println!(
        "\nExpected: the safeguard matches 'always transform' on average \
         while capping the worst case at the scratch-load latency — \
         'the performance of Optimus can be guaranteed in the worst case'."
    );
    serde_json::json!({ "rows": json }).into()
}

/// §5.1 load balancer: sharing-aware K-medoids vs hash vs least-loaded
/// placement, all serving the same Azure-style workload under the Optimus
/// policy.
pub fn balancer(_: &Args) -> Outcome {
    let (names, repo) = figure13_repo(usize::MAX, Environment::Cpu);
    let trace = AzureTraceGenerator::new(86_400.0, 7).generate(&names);
    println!(
        "Ablation: load balancer — Optimus policy, Azure workload ({} requests)\n",
        trace.len()
    );
    let sharing = |gamma_d, gamma_k| PlacementStrategy::SharingAware { gamma_d, gamma_k };
    let cases = [
        ("sharing-aware (§5.1)", sharing(0.7, 0.3)),
        ("edit-distance only", sharing(1.0, 0.0)),
        ("correlation only", sharing(0.0, 1.0)),
        ("hash", PlacementStrategy::Hash),
        ("least-loaded", PlacementStrategy::LeastLoaded),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, placement) in cases {
        let config = SimConfig {
            placement,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        rows.push(vec![
            name.to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
        ]);
        json.push(serde_json::json!({
            "balancer": name,
            "avg_service_time": report.avg_service_time(),
            "p99": report.percentile_service_time(99.0),
        }));
    }
    print_table(&["Balancer", "Avg service (s)", "p99 (s)"], &rows);
    println!(
        "\nExpected: the sharing-aware balancer co-locates structurally \
         similar, demand-complementary functions, giving Optimus cheaper \
         donors than hash or least-loaded routing."
    );
    serde_json::json!({ "rows": json }).into()
}

/// Idle-threshold (§4.2) and keep-alive sweeps for the Optimus policy: how
/// donor availability trades off against warm-container retention.
pub fn thresholds(_: &Args) -> Outcome {
    let (names, repo) = figure13_repo(usize::MAX, Environment::Cpu);
    let trace = PoissonGenerator::new(rates::MIDDLE, 86_400.0, 7).generate(&names);

    println!(
        "Ablation: idle threshold sweep (keep-alive fixed at 600 s), \
         Poisson λ=10⁻²·⁵\n"
    );
    let run = |config| Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for idle in [15.0, 30.0, 60.0, 120.0, 300.0] {
        let report = run(SimConfig {
            idle_threshold: idle,
            ..SimConfig::default()
        });
        let xform = share(&report, StartKind::Transform);
        rows.push(vec![
            format!("{idle:.0} s"),
            fmt_s(report.avg_service_time()),
            format!("{:.1}%", 100.0 * xform),
        ]);
        json.push(serde_json::json!({
            "idle_threshold": idle,
            "avg_service_time": report.avg_service_time(),
            "transform_fraction": xform,
        }));
    }
    print_table(&["Idle threshold", "Avg service (s)", "Transforms"], &rows);

    println!("\nKeep-alive sweep (idle threshold fixed at 60 s):\n");
    let mut rows = Vec::new();
    let mut json2 = Vec::new();
    for keep in [120.0, 300.0, 600.0, 1200.0, 2400.0] {
        let report = run(SimConfig {
            keep_alive: keep,
            ..SimConfig::default()
        });
        let warm = share(&report, StartKind::Warm);
        rows.push(vec![
            format!("{keep:.0} s"),
            fmt_s(report.avg_service_time()),
            format!("{:.1}%", 100.0 * warm),
        ]);
        json2.push(serde_json::json!({
            "keep_alive": keep,
            "avg_service_time": report.avg_service_time(),
            "warm_fraction": warm,
        }));
    }
    print_table(&["Keep-alive", "Avg service (s)", "Warm starts"], &rows);
    serde_json::json!({ "idle_sweep": json, "keep_alive_sweep": json2 }).into()
}

/// §6 "Fine-grained Resource Allocation": homogeneous container slots vs a
/// memory-aware byte budget at several node sizes.
pub fn memory(_: &Args) -> Outcome {
    let (names, repo) = figure13_repo(usize::MAX, Environment::Cpu);
    let trace = PoissonGenerator::new(rates::FREQUENT, 86_400.0, 7).generate(&names);

    println!(
        "Ablation: memory-aware capacity (slots fixed at 64; memory binds), \
         Optimus policy, Poisson λ=10⁻²\n"
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut cases: Vec<(String, Option<MemoryLimit>)> =
        vec![("slots only (12/node, paper)".to_string(), None)];
    for gib in [4u64, 8, 16, 32] {
        cases.push((
            format!("memory {gib} GiB/node"),
            Some(MemoryLimit::gib(gib)),
        ));
    }
    for (name, memory) in cases {
        let config = SimConfig {
            capacity_per_node: if memory.is_some() { 64 } else { 12 },
            memory,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        let warm = share(&report, StartKind::Warm);
        rows.push(vec![
            name.clone(),
            fmt_s(report.avg_service_time()),
            format!("{:.1}%", 100.0 * warm),
        ]);
        json.push(serde_json::json!({
            "mode": name,
            "avg_service_time": report.avg_service_time(),
            "warm_fraction": warm,
        }));
    }
    print_table(&["Capacity mode", "Avg service (s)", "Warm starts"], &rows);
    println!(
        "\nExpected: a byte budget lets small models (MobileNet, BERT-Tiny) \
         pack far more warm containers than 12 homogeneous slots sized for \
         the largest model, trading memory for warm-start rate — the \
         paper's §6 motivation for heterogeneous allocation."
    );
    serde_json::json!({ "rows": json }).into()
}

/// Extension — predictive prewarming on top of Optimus (§2.2 notes the
/// two cold-start mitigation classes are complementary; this measures the
/// combination).
///
/// Azure-style workloads contain many timer-triggered (periodic) functions
/// whose next arrival is predictable, which is exactly where proactive
/// transformation pays off. The last row runs the newer arrival predictor
/// (`PredictConfig::default()`) on the same trace: as long as it reads
/// worse than mean-gap prewarming here, it has not superseded
/// `SimConfig::prewarm`.
pub fn ext_prewarm(_: &Args) -> Outcome {
    let (names, repo) = figure13_repo(usize::MAX, Environment::Cpu);
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
        let warm = share(&report, StartKind::Warm);
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
    serde_json::json!({ "rows": json }).into()
}
