//! The per-layer ledger of a traced run.
//!
//! Rows come from two places. *Workload rows* are derived from the
//! traced workload's own spans and responses; a workload that never
//! enters a layer reports 0 for it, which is the bypass claim made
//! measurable. *Micro rows* time public functions on seeded inputs and
//! are the same pass whichever workload is traced, so they are
//! comparable across the four trace files.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_core::{
    execute_plan, plan_kv_transform, solve_assignment_flat, GroupPlanner, ModelRepository,
    MunkresScratch, PlanArtifact, Planner,
};
use optimus_faults::{FaultInjector, FaultPlan, FaultSpec};
use optimus_llm::{LlmConfig, TokenEngine};
use optimus_model::tensor::Tensor;
use optimus_model::{infer, KvCache, KvCacheSpec};
use optimus_predict::{PredictConfig, Predictor};
use optimus_profile::CostModel;
use optimus_serve::parser::{parse_request, ParserLimits};
use optimus_serve::{Gateway, GatewayConfig, MetricsRegistry};
use optimus_sim::{FleetConfig, Platform, Policy, SimConfig, StoreConfig};
use optimus_store::{model_chunks, NodeStore};

use crate::harness::{metric, speed_info, Args, Metric};
use crate::inputs::{
    seeded_tensor, sibling_cnns, stream, sub_seed, tiny_cnn, Rng, SIBLING_INPUT, TINY_INPUT,
};
use crate::norm::{median, speed_factor, RefKernel};
use crate::spans::SpanLog;
use crate::{serve, sim};

/// Row name → value; units come from [`LAYER_METRICS`].
pub type Rows = BTreeMap<String, f64>;

/// Every per-layer metric, in ledger order, with its unit. Mirrors
/// `per_layer` in `BENCHMARK.json`.
pub const LAYER_METRICS: [(&str, &str); 58] = [
    ("sim.platform.ns_per_invocation.plain", "ns"),
    ("sim.platform.ns_per_invocation.store", "ns"),
    ("sim.platform.ns_per_invocation.predict", "ns"),
    ("sim.platform.ns_per_invocation.faults", "ns"),
    ("sim.platform.ns_per_invocation.fleet", "ns"),
    ("sim.platform.ns_per_invocation.llm", "ns"),
    ("sim.platform.ns_per_invocation.full", "ns"),
    ("sim.platform.start_share.warm", "ratio"),
    ("sim.platform.start_share.transform", "ratio"),
    ("sim.platform.start_share.cold", "ratio"),
    ("sim.platform.new_ms", "ms"),
    ("store.node.admit_us", "us"),
    ("store.node.release_us", "us"),
    ("store.node.hit_ratio", "ratio"),
    ("store.chunk.model_chunks_us", "us"),
    ("core.cache.decide_by_id_ns", "ns"),
    ("core.cache.register_all_s", "s"),
    ("core.planner.plan_us", "us"),
    ("core.munkres.solve_flat_us", "us"),
    ("core.artifact.load_s", "s"),
    ("core.artifact.save_s", "s"),
    ("core.artifact.bytes", "B"),
    ("compat.serde_json.parse_mb_per_s", "MB/s"),
    ("core.executor.execute_plan_us", "us"),
    ("core.executor.steps_per_plan", "count"),
    ("core.kv.plan_kv_transform_ns", "ns"),
    ("serve.worker.startup_ms.warm", "ms"),
    ("serve.worker.startup_ms.transformed", "ms"),
    ("serve.worker.startup_ms.cold", "ms"),
    ("serve.worker.compute_ms", "ms"),
    ("serve.worker.start_share.warm", "ratio"),
    ("serve.worker.start_share.transformed", "ratio"),
    ("serve.worker.start_share.cold", "ratio"),
    ("serve.worker.batch_size_mean", "count"),
    ("serve.gateway.wait_ms", "ms"),
    ("serve.gateway.self_ms", "ms"),
    ("serve.gateway.rejected_429", "count"),
    ("serve.parser.parse_request_ns", "ns"),
    ("serve.http.roundtrip_ms", "ms"),
    ("serve.http.overhead_ms", "ms"),
    ("serve.http.lateness_ms", "ms"),
    ("serve.http.max_rate_within_limit", "1/s"),
    ("model.infer.forward_ms", "ms"),
    ("model.graph.clone_us", "us"),
    ("predict.predictor.observe_ns", "ns"),
    ("predict.predictor.forecast_ns", "ns"),
    ("faults.injector.for_request_ns", "ns"),
    ("llm.engine.iteration_ns", "ns"),
    ("telemetry.registry.histogram_observe_ns", "ns"),
    ("telemetry.registry.render_prometheus_us", "us"),
    ("workload.azure.generate_ms", "ms"),
    ("zoo.catalog.build_ms", "ms"),
    ("balance.placement.place_ms", "ms"),
    ("harness.ref_kernel_ms", "ms"),
    ("harness.speed_factor_min", "ratio"),
    ("harness.speed_factor_max", "ratio"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.unexplained_share", "ratio"),
];

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace_{workload}.jsonl"))
}

/// The ledger of one traced run: every [`LAYER_METRICS`] row, from the
/// workload's rows, else the micro pass, else 0 (layer never entered).
fn assemble(workload: Rows, micro: Rows, factors: &[f64]) -> Vec<Metric> {
    let harness: Rows = speed_info(factors)
        .into_iter()
        .map(|m| (m.name, m.value))
        .collect();
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = [&workload, &micro, &harness]
                .iter()
                .find_map(|rows| rows.get(name).copied())
                .unwrap_or(0.0);
            metric(name, value, unit)
        })
        .collect()
}

/// Finish a traced run: write its spans to `out/trace_<workload>.jsonl`,
/// run the micro pass, and assemble the ledger. `workload_rows` sees the
/// micro rows, for rows that difference against them.
pub fn ledger(
    args: &Args,
    kernel: &RefKernel,
    spans: &SpanLog,
    factors: &[f64],
    workload_rows: impl FnOnce(&Rows) -> Rows,
) -> Vec<Metric> {
    spans
        .write_jsonl(&trace_path(&args.workload))
        .expect("trace file is writable");
    let micro = micro_pass(args, kernel);
    assemble(workload_rows(&micro), micro, factors)
}

/// Times public functions at nominal machine speed: the reference kernel
/// is sampled before every row and the row divided by its factor.
struct Micro<'a> {
    kernel: &'a RefKernel,
    budget: Duration,
    rows: Rows,
}

impl Micro<'_> {
    /// Seconds per call of `f`: the median over batches sized to ≈1 ms,
    /// run for the row's time budget.
    fn per_call(&mut self, mut f: impl FnMut()) -> f64 {
        let factor = speed_factor(self.kernel.sample_ms());
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let batch = ((1e-3 / once) as usize).clamp(1, 100_000);
        let mut per_call = Vec::new();
        let deadline = Instant::now() + self.budget;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_call.push(t0.elapsed().as_secs_f64() / batch as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
        median(&mut per_call) / factor
    }

    /// Seconds of one call of `f`, at nominal speed, with its result.
    fn once<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let factor = speed_factor(self.kernel.sample_ms());
        let t0 = Instant::now();
        let out = f();
        (t0.elapsed().as_secs_f64() / factor, out)
    }

    fn set(&mut self, name: &str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.rows.insert(name.to_string(), value);
    }
}

/// The micro pass: the same seeded inputs the workloads use, one layer
/// at a time, through public functions only.
fn micro_pass(args: &Args, kernel: &RefKernel) -> Rows {
    let mut m = Micro {
        kernel,
        budget: Duration::from_millis(if args.quick { 5 } else { 40 }),
        rows: Rows::new(),
    };
    let mut rng = Rng::new(sub_seed(args.seed, stream::MICRO, 0));

    sim_rows(&mut m, args);
    store_rows(&mut m);
    plan_cache_rows(&mut m, args, &mut rng);
    executor_and_model_rows(&mut m, args);
    small_rows(&mut m, args, &mut rng);
    m.rows
}

/// Replays with one subsystem on at a time over the full workload's
/// traces, plus catalog, generator, placement and `Platform::new`.
fn sim_rows(m: &mut Micro, args: &Args) {
    let (secs, models) = m.once(optimus_bench::figure13_models);
    m.set("zoo.catalog.build_ms", secs * 1e3);
    drop(models);
    let repo = sim::catalog_repo();
    let names = repo.model_names();

    let (secs, plain_trace) = m.once(|| sim::trace(&names, args.seed, 0, false));
    m.set("workload.azure.generate_ms", secs * 1e3);
    let plain = Platform::new(SimConfig::default(), Policy::Optimus, repo.clone());
    let secs = m.per_call(|| {
        black_box(plain.placement(&plain_trace));
    });
    m.set("balance.placement.place_ms", secs * 1e3);
    drop(plain_trace);

    let full = sim::config(true, args.seed);
    let (secs, _) = m.once(|| Platform::new(full.clone(), Policy::Optimus, repo.clone()));
    m.set("sim.platform.new_ms", secs * 1e3);

    let traces: Vec<_> = (0..4)
        .map(|op| sim::trace(&names, args.seed, op, true))
        .collect();
    let invocations: usize = traces.iter().map(|t| t.len()).sum();
    for name in [
        "plain", "store", "predict", "faults", "fleet", "llm", "full",
    ] {
        let mut config = SimConfig::default();
        match name {
            "store" => config.store = full.store,
            "predict" => config.predict = full.predict,
            "faults" => config.faults = full.faults.clone(),
            "fleet" => config.fleet = Some(FleetConfig::default()),
            "llm" => config.llm = Some(LlmConfig::default()),
            "full" => config = full.clone(),
            _ => {}
        }
        let platform = Platform::new(config, Policy::Optimus, repo.clone());
        let secs = m.per_call(|| {
            for trace in &traces {
                black_box(platform.run(trace));
            }
        });
        m.set(
            &format!("sim.platform.ns_per_invocation.{name}"),
            secs / invocations as f64 * 1e9,
        );
    }
}

/// `NodeStore` admit/release over the catalog's chunk lists.
fn store_rows(m: &mut Micro) {
    let config = StoreConfig::default();
    let models = optimus_bench::figure13_models();
    let secs = m.per_call(|| {
        for model in &models {
            black_box(model_chunks(model, config.chunk_bytes));
        }
    });
    m.set(
        "store.chunk.model_chunks_us",
        secs / models.len() as f64 * 1e6,
    );
    let chunks: Vec<_> = models
        .iter()
        .map(|model| model_chunks(model, config.chunk_bytes))
        .collect();
    drop(models);
    // Admit every model, then release every model: the second sweep of
    // admits finds the demoted chunks resident, as a replay does.
    let mut store = NodeStore::new(config);
    let (mut admit_s, mut release_s, mut calls) = (0.0, 0.0, 0u64);
    let factor = speed_factor(m.kernel.sample_ms());
    for _ in 0..3 {
        for list in &chunks {
            let t0 = Instant::now();
            black_box(store.admit(list));
            admit_s += t0.elapsed().as_secs_f64();
            calls += 1;
        }
        for list in &chunks {
            let t0 = Instant::now();
            store.release(list);
            release_s += t0.elapsed().as_secs_f64();
        }
    }
    let stats = store.stats();
    m.set("store.node.admit_us", admit_s / calls as f64 / factor * 1e6);
    m.set(
        "store.node.release_us",
        release_s / calls as f64 / factor * 1e6,
    );
    m.set(
        "store.node.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
}

/// Registration, planning, `decide_by_id` and the plan artifact, on the
/// boot catalog `serve_http_warm` registers.
fn plan_cache_rows(m: &mut Micro, args: &Args, rng: &mut Rng) {
    let cost = CostModel::default();
    let catalog = serve::http_boot_catalog(args);
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let (secs, ()) = m.once(|| repo.register_all(catalog.clone(), &cost));
    m.set("core.cache.register_all_s", secs);

    let n = catalog.len();
    let pairs: Vec<(usize, usize)> = (0..64)
        .map(|_| {
            let src = rng.below(n);
            (src, (src + 1 + rng.below(n - 1)) % n)
        })
        .collect();
    let secs = m.per_call(|| {
        for &(s, d) in &pairs {
            black_box(GroupPlanner.plan(&catalog[s], &catalog[d], &cost));
        }
    });
    m.set("core.planner.plan_us", secs / pairs.len() as f64 * 1e6);

    let ids: Vec<_> = catalog
        .iter()
        .map(|g| repo.model_id(g.name()).expect("registered"))
        .collect();
    let secs = m.per_call(|| {
        for &(s, d) in &pairs {
            black_box(repo.decide_by_id(ids[s], ids[d]));
        }
    });
    m.set(
        "core.cache.decide_by_id_ns",
        secs / pairs.len() as f64 * 1e9,
    );

    const MUNKRES_N: usize = 64;
    let costs: Vec<f64> = (0..MUNKRES_N * MUNKRES_N)
        .map(|_| (rng.below(10_000) + 1) as f64 / 100.0)
        .collect();
    let mut scratch = MunkresScratch::new();
    let secs = m.per_call(|| {
        black_box(solve_assignment_flat(&costs, MUNKRES_N, &mut scratch));
    });
    m.set("core.munkres.solve_flat_us", secs * 1e6);

    let artifact = repo.export_plan_artifact();
    let (secs, json) = m.once(|| artifact.to_json());
    m.set("core.artifact.save_s", secs);
    m.set("core.artifact.bytes", json.len() as f64);
    let (secs, loaded) = m.once(|| PlanArtifact::from_json(&json));
    assert!(loaded.is_ok(), "exported artifact loads back");
    m.set("core.artifact.load_s", secs);
    let (secs, value) = m.once(|| serde_json::from_str::<serde_json::Value>(&json));
    assert!(value.is_ok(), "artifact is valid JSON");
    m.set(
        "compat.serde_json.parse_mb_per_s",
        json.len() as f64 / 1e6 / secs,
    );
}

/// `execute_plan` on fixed sibling pairs, the forward pass and the graph
/// clone a cold start pays, and the KV-cache planner.
fn executor_and_model_rows(m: &mut Micro, args: &Args) {
    let cost = CostModel::default();
    let siblings = sibling_cnns();
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    repo.register_all(siblings.clone(), &cost);
    // Narrow→wide, shallow→deep and back: the transformations churn does.
    let pairs = [(0usize, 15usize), (15, 0), (3, 12), (5, 6), (10, 9)];
    let (mut exec_s, mut steps) = (0.0, 0usize);
    let reps = if args.quick { 5 } else { 100 };
    let factor = speed_factor(m.kernel.sample_ms());
    for _ in 0..reps {
        for &(s, d) in &pairs {
            let plan = repo
                .plan(siblings[s].name(), siblings[d].name())
                .expect("siblings have a cached plan");
            let mut graph = siblings[s].clone();
            let t0 = Instant::now();
            let report = execute_plan(&mut graph, &plan, &siblings[d]);
            exec_s += t0.elapsed().as_secs_f64();
            assert!(report.is_ok(), "cached sibling plan executes");
            steps += plan.steps.len();
        }
    }
    let calls = (reps * pairs.len()) as f64;
    m.set(
        "core.executor.execute_plan_us",
        exec_s / calls / factor * 1e6,
    );
    m.set("core.executor.steps_per_plan", steps as f64 / calls);

    let input = seeded_tensor(SIBLING_INPUT, sub_seed(args.seed, stream::TENSOR, 0));
    let secs = m.per_call(|| {
        for model in &siblings {
            black_box(infer::run(model, input.clone()).expect("forward pass"));
        }
    });
    m.set("model.infer.forward_ms", secs / siblings.len() as f64 * 1e3);
    let secs = m.per_call(|| {
        for model in &siblings {
            black_box(model.clone());
        }
    });
    m.set("model.graph.clone_us", secs / siblings.len() as f64 * 1e6);

    let cache = KvCache::filled(KvCacheSpec::new(12, 12, 64, 1024), 700);
    let wider = KvCacheSpec::new(12, 12, 64, 2048);
    let secs = m.per_call(|| {
        black_box(plan_kv_transform(&cache, &wider));
    });
    m.set("core.kv.plan_kv_transform_ns", secs * 1e9);
}

/// Predictor, fault injector, LLM engine, telemetry and the HTTP parser.
fn small_rows(m: &mut Micro, args: &Args, rng: &mut Rng) {
    let functions = 37;
    let mut predictor = Predictor::new(PredictConfig::default(), functions);
    let mut now = 0.0;
    let secs = m.per_call(|| {
        now += 0.25;
        predictor.observe(rng.below(functions), now);
    });
    m.set("predict.predictor.observe_ns", secs * 1e9);
    let mut f = 0;
    let secs = m.per_call(|| {
        f = (f + 1) % functions;
        black_box(predictor.forecast(f));
    });
    m.set("predict.predictor.forecast_ns", secs * 1e9);

    let plan = FaultPlan::from_spec(FaultSpec::uniform(
        sub_seed(args.seed, stream::FAULTS, 0),
        0.01,
    ));
    let injector = FaultInjector::new(&plan);
    let mut index = 0u64;
    let secs = m.per_call(|| {
        index += 1;
        black_box(injector.for_request(index));
    });
    m.set("faults.injector.for_request_ns", secs * 1e9);

    const TOKENS: usize = 64;
    let mut engine = TokenEngine::new(LlmConfig::default());
    let mut req = 0u64;
    let secs = m.per_call(|| {
        req += 1;
        black_box(engine.begin(req % 8, 1 << 30, req as f64, req, TOKENS));
    });
    m.set("llm.engine.iteration_ns", secs / TOKENS as f64 * 1e9);

    // A live gateway's registry after a little traffic, as `/metrics`
    // renders it.
    let registry = Arc::new(MetricsRegistry::new());
    let gateway = Gateway::builder(GatewayConfig::default())
        .metrics(registry.clone())
        .register(tiny_cnn("tiny-a", 4))
        .register(tiny_cnn("tiny-b", 6))
        .spawn();
    let input: Tensor = seeded_tensor(TINY_INPUT, sub_seed(args.seed, stream::TENSOR, 0));
    for name in ["tiny-a", "tiny-b", "tiny-a"] {
        gateway
            .infer(name, input.clone())
            .expect("tiny model serves");
    }
    let secs = m.per_call(|| {
        black_box(registry.render_prometheus());
    });
    m.set("telemetry.registry.render_prometheus_us", secs * 1e6);
    let histogram = registry.histogram("benchmark_observe_seconds", &[]);
    let mut v = 1e-4;
    let secs = m.per_call(|| {
        v = if v > 1.0 { 1e-4 } else { v * 1.01 };
        histogram.observe(v);
    });
    m.set("telemetry.registry.histogram_observe_ns", secs * 1e9);
    gateway.shutdown();

    let request = serve::infer_request("tiny-a", &input);
    let limits = ParserLimits::default();
    let secs = m.per_call(|| {
        black_box(parse_request(&request, &limits));
    });
    m.set("serve.parser.parse_request_ns", secs * 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this package must name the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("a string").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), ours);
        let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "throughput_per_s",
                "peak_rss_mb"
            ]
        );
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("a name"))
            .collect();
        assert_eq!(workloads, crate::harness::WORKLOADS);
    }
}
