//! Content-addressed weight store — dedup and byte-accurate load pricing.
//!
//! Three sections exercise `optimus-store` end to end:
//!
//! 1. **Catalog dedup** — chunk the whole model catalog plus every cached
//!    transformation plan's payload into one content-addressed
//!    [`ChunkSet`]. Plan payloads duplicate destination-model tensors by
//!    construction, so the combined dedup ratio must exceed 1.0: the
//!    bytes a flat per-model repository would store twice, a
//!    content-addressed one stores once.
//! 2. **Tier monotonicity** — price one model's chunk set at every
//!    residency tier of a [`NodeStore`] (remote → node disk → node
//!    memory → container) and claim the load latency strictly decreases
//!    as residency warms.
//! 3. **Remote-bandwidth sweep** — run the Optimus policy on a Poisson
//!    workload with the store enabled at several remote bandwidths,
//!    against the byte-agnostic baseline (`store: None`), reporting
//!    load-latency percentiles and the fleet dedup ratio. `--threads` runs
//!    the sweep cells in parallel.

use optimus_bench::sweep::run_grid;
use optimus_bench::{figure11_models, fmt_s, print_table};
use optimus_model::ModelGraph;
use optimus_profile::Environment;
use optimus_sim::{Platform, Policy, SimConfig, SimReport};
use optimus_store::{model_chunks, ChunkRef, ChunkSet, NodeStore, StoreConfig};
use optimus_workload::{rates, PoissonGenerator};

use crate::{percentile, Args, Claims, Outcome};

/// The default store with its remote tier at `bw` bytes/s.
pub fn with_remote_bandwidth(bw: f64) -> StoreConfig {
    let mut store = StoreConfig::default();
    store.remote.bandwidth_bytes_per_s = bw;
    store
}

/// Load latency of `chunks` at each tier of a default-config store,
/// coldest first: `[(tier, seconds)]`.
fn tier_chain(chunks: &[ChunkRef]) -> Vec<(&'static str, f64)> {
    let mut store = NodeStore::new(StoreConfig::default());
    let remote = store.estimate(chunks).seconds;
    store.admit(chunks);
    let container = store.estimate(chunks).seconds;
    store.release(chunks); // keep-alive expiry: demote to node memory
    let memory = store.estimate(chunks).seconds;
    // With a zero memory budget the demotion spills straight to disk.
    let mut disk_store = NodeStore::new(StoreConfig {
        node_memory_bytes: 0,
        ..StoreConfig::default()
    });
    disk_store.admit(chunks);
    disk_store.release(chunks);
    let disk = disk_store.estimate(chunks).seconds;
    vec![
        ("remote", remote),
        ("node_disk", disk),
        ("node_memory", memory),
        ("container", container),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let small = args.small;
    let all = figure11_models();
    let (catalog_size, duration, bandwidths) = if small {
        (4usize, 1_200.0, vec![100.0e6])
    } else {
        (10usize, 7_200.0, vec![25.0e6, 100.0e6, 400.0e6])
    };
    let models: Vec<ModelGraph> = all.into_iter().take(catalog_size).collect();
    let chunk_bytes = StoreConfig::default().chunk_bytes;

    let mut claims = Claims::default();
    claims.check(
        "the store is opt-in: the default sim config is byte-agnostic",
        SimConfig::default().store.is_none(),
        "",
    );

    // ── 1. Catalog dedup ────────────────────────────────────────────────
    let repo = optimus_bench::build_repo(models.clone(), Environment::Cpu);
    let mut catalog = ChunkSet::new();
    for m in &models {
        catalog.extend(&model_chunks(m, chunk_bytes));
    }
    let catalog_ratio = catalog.dedup_ratio();
    let mut with_plans = catalog.clone();
    let plan_payload = repo.plan_referenced_chunks(chunk_bytes);
    with_plans.extend(&plan_payload);
    let combined_ratio = with_plans.dedup_ratio();
    println!("Content-addressed catalog ({} models)\n", models.len());
    let mib = |bytes: u64| format!("{:.1} MiB", bytes as f64 / (1 << 20) as f64);
    print_table(
        &["Corpus", "Referenced", "Unique", "Dedup"],
        &[
            vec![
                "models only".to_string(),
                mib(catalog.logical_bytes()),
                mib(catalog.unique_bytes()),
                format!("{catalog_ratio:.3}x"),
            ],
            vec![
                "models + plan payloads".to_string(),
                mib(with_plans.logical_bytes()),
                mib(with_plans.unique_bytes()),
                format!("{combined_ratio:.3}x"),
            ],
        ],
    );
    claims.lt(
        "plan payloads duplicate catalog tensors: combined dedup exceeds 1.0",
        1.0,
        combined_ratio,
    );

    // ── 2. Tier monotonicity ────────────────────────────────────────────
    let probe = &models[0];
    let probe_chunks = model_chunks(probe, chunk_bytes);
    let chain = tier_chain(&probe_chunks);
    println!("\nLoad latency of {} by residency tier\n", probe.name());
    print_table(
        &["Tier", "Load"],
        &chain
            .iter()
            .map(|(tier, s)| vec![(*tier).to_string(), fmt_s(*s)])
            .collect::<Vec<_>>(),
    );
    for pair in chain.windows(2) {
        let ((colder, a), (warmer, b)) = (pair[0], pair[1]);
        claims.lt(format!("{colder} loads slower than {warmer}"), b, a);
    }
    claims.eq("container residency is free to read", chain[3].1, 0.0);

    // ── 3. Remote-bandwidth sweep under the Optimus policy ──────────────
    let functions: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    let trace = PoissonGenerator::new(rates::MIDDLE, duration, 42).generate(&functions);
    // Cell 0 is the byte-agnostic baseline, then one cell per remote
    // bandwidth; results return in input order at any thread count.
    let mut sweep_cells: Vec<Option<StoreConfig>> = vec![None];
    sweep_cells.extend(bandwidths.iter().map(|&bw| Some(with_remote_bandwidth(bw))));
    let mut reports = run_grid(&sweep_cells, args.threads, |store: &Option<StoreConfig>| {
        let config = SimConfig {
            store: *store,
            ..SimConfig::default()
        };
        Platform::new(config, Policy::Optimus, repo.clone()).run(&trace)
    })
    .into_iter();
    // Load p50 / p95 / p99 of one run.
    let load_quantiles = |report: &SimReport| {
        let mut loads: Vec<f64> = report.records.iter().map(|r| r.load).collect();
        loads.sort_by(f64::total_cmp);
        [0.50, 0.95, 0.99].map(|q| percentile(&loads, q))
    };
    let baseline = reports.next().expect("baseline cell ran");
    let [b50, b95, b99] = load_quantiles(&baseline);
    println!(
        "\nOptimus on Poisson λ=10⁻²·⁵ ({} requests, {} functions)\n",
        baseline.records.len(),
        functions.len()
    );
    let mut rows = vec![vec![
        "byte-agnostic (no store)".to_string(),
        fmt_s(b50),
        fmt_s(b95),
        fmt_s(b99),
        "-".to_string(),
    ]];
    let mut sweep_json = Vec::new();
    for (&bw, report) in bandwidths.iter().zip(reports) {
        let [p50, p95, p99] = load_quantiles(&report);
        let stats = report.store.expect("store enabled");
        rows.push(vec![
            format!("remote {:.0} MB/s", bw / 1e6),
            fmt_s(p50),
            fmt_s(p95),
            fmt_s(p99),
            format!("{:.3}x", stats.dedup_ratio),
        ]);
        sweep_json.push(serde_json::json!({
            "remote_bandwidth_bytes_per_s": bw,
            "load_p50_s": p50,
            "load_p95_s": p95,
            "load_p99_s": p99,
            "dedup_ratio": stats.dedup_ratio,
            "chunk_hits": stats.hits,
            "chunk_misses": stats.misses,
            "fetched_bytes": stats.fetched_bytes,
            "admitted_bytes": stats.admitted_bytes,
        }));
    }
    print_table(
        &["Configuration", "Load p50", "Load p95", "Load p99", "Dedup"],
        &rows,
    );

    Outcome {
        results: serde_json::json!({
            "config": if small { "small" } else { "full" },
            "catalog_models": models.len(),
            "chunk_bytes": chunk_bytes,
            "catalog_dedup_ratio": catalog_ratio,
            "catalog_plus_plans_dedup_ratio": combined_ratio,
            "plan_payload_chunks": plan_payload.len(),
            "tier_chain": chain
                .iter()
                .map(|(tier, s)| serde_json::json!({ "tier": tier, "load_s": s }))
                .collect::<Vec<_>>(),
            "sweep": sweep_json,
            "baseline_load_p50_s": b50,
            "baseline_load_p95_s": b95,
            "baseline_load_p99_s": b99,
        }),
        claims,
    }
}
