//! Elastic scale-out — warming a flash crowd via P2P chunk multicast.
//!
//! Two parts, both claimed:
//!
//! 1. **Planner sweep** — for every joiner count `N` in 1..=64, the
//!    binomial multicast tree warms all joiners in at most
//!    `⌈log2(N+1)⌉` rounds and never takes longer than `N` serial
//!    origin fetches (the remote-only baseline it replaces).
//! 2. **Flash-crowd simulation** — a sustained burst on one hot function
//!    drives the `optimus-fleet` autoscaler past its pressure threshold;
//!    joining nodes warm either peer-to-peer (multicast) or from the
//!    origin (remote-only), against a static fleet that cannot grow.
//!    Claimed: byte conservation (multicast moves exactly the payload
//!    remote-only would fetch, just over different edges), multicast
//!    time-to-all-warm ≤ remote-only at every scale event, the
//!    fleet-off report serializes without a `fleet` key (static-path
//!    identity), and the whole sweep is byte-identical at any
//!    `--threads` value and across reruns.

use optimus_bench::sweep::run_grid;
use optimus_bench::{fmt_s, print_table};
use optimus_fleet::{plan_multicast, remote_only_seconds, FleetConfig};
use optimus_profile::Environment;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig, StoreConfig};
use optimus_workload::{Invocation, PoissonGenerator, Trace};

use crate::{figure13_repo, verdict, Args, Claims, Outcome};

/// The three warming modes: `(name, multicast)`, where `None` is a static
/// fleet that cannot grow.
const MODES: [(&str, Option<bool>); 3] = [
    ("fleet+multicast", Some(true)),
    ("fleet+remote-only", Some(false)),
    ("static", None),
];

/// `⌈log2(n+1)⌉`: the binomial tree's round bound for `n` joiners.
fn round_bound(n: u64) -> u64 {
    u64::from((n + 1).next_power_of_two().trailing_zeros())
}

pub fn run(args: &Args) -> Outcome {
    let small = args.small;
    let threads = args.threads;
    let seed = args.seed.unwrap_or(42);
    let (catalog_size, default_duration, gap, max_nodes): (usize, f64, f64, usize) = if small {
        (6, 600.0, 0.05, 6)
    } else {
        (12, 1_800.0, 0.02, 10)
    };
    let duration = args.duration.unwrap_or(default_duration);
    let mut claims = Claims::default();

    // ── Part 1: planner sweep — O(log N) rounds, never slower than ──────
    //    linear origin fetches, at every joiner count.
    let sc = StoreConfig::default();
    let bytes: u64 = 100 * 1024 * 1024;
    let mut planner_ok = true;
    let mut planner_rows = Vec::new();
    let mut planner_json = Vec::new();
    for n in 1..=64usize {
        let joiners: Vec<usize> = (1..=n).collect();
        let plan = plan_multicast(&[0], &joiners, bytes, sc.interconnect, sc.remote);
        let bound = round_bound(n as u64) as usize;
        planner_ok &= claims.le(
            format!("{n} joiners warm within ceil(log2(N+1)) rounds"),
            plan.rounds(),
            bound,
        );
        let linear = remote_only_seconds(n, bytes, sc.remote);
        planner_ok &= claims.le(
            format!("{n} joiners: multicast no slower than remote-only"),
            plan.total_seconds,
            linear + 1e-9,
        );
        if n.is_power_of_two() {
            planner_rows.push(vec![
                n.to_string(),
                plan.rounds().to_string(),
                fmt_s(plan.total_seconds),
                fmt_s(linear),
                format!("{:.1}x", linear / plan.total_seconds),
            ]);
        }
        planner_json.push(serde_json::json!({
            "joiners": n,
            "rounds": plan.rounds(),
            "multicast_s": plan.total_seconds,
            "remote_only_s": linear,
        }));
    }
    println!("Multicast planner: warming N joiners of a 100 MiB model from one seed\n");
    print_table(
        &["Joiners", "Rounds", "Multicast", "Remote-only", "Speedup"],
        &planner_rows,
    );
    println!(
        "\nplanner: {} (rounds <= ceil(log2(N+1)) and multicast <= remote-only, N = 1..=64)",
        verdict(planner_ok)
    );

    // ── Part 2: flash-crowd simulation ──────────────────────────────────
    let (names, repo) = figure13_repo(catalog_size, Environment::Cpu);
    // Light background traffic over the catalog keeps every function
    // alive; the flash crowd hammers the first one hard enough to hold
    // the initial fleet above the pressure threshold.
    let hot = names[0].clone();
    let mut invocations = PoissonGenerator::new(0.002, duration, seed)
        .generate(&names)
        .invocations;
    let burst = (duration / (2.0 * gap)) as usize;
    invocations.extend((0..burst).map(|i| Invocation {
        time: i as f64 * gap,
        function: hot.clone(),
    }));
    // `Trace::new` re-sorts the merged arrivals by time.
    let trace = Trace::new(duration, invocations);

    let step = max_nodes - 2;
    let fleet_for = |multicast: Option<bool>| -> Option<FleetConfig> {
        multicast.map(|multicast| FleetConfig {
            max_nodes,
            scale_out_pressure: 0.8,
            sustain_s: 2.0,
            // One decisive scale-out: keeps the scale pattern (and so
            // the byte-conservation comparison) identical across
            // warming modes whose readiness times differ.
            cooldown_s: 1.0e9,
            step,
            scale_in_idle_s: 300.0,
            provision_s: 2.0,
            multicast,
        })
    };
    let base = SimConfig {
        nodes: 2,
        capacity_per_node: 4,
        placement: PlacementStrategy::Hash,
        store: Some(sc),
        ..SimConfig::default()
    };
    println!(
        "\nFlash crowd: {} requests on {} functions ({} burst on {hot}), 2 -> {max_nodes} nodes, seed {seed}\n",
        trace.len(),
        names.len(),
        burst
    );

    let run_sweep = |threads: usize| {
        run_grid(&MODES, threads, |&(_, multicast)| {
            let config = SimConfig {
                fleet: fleet_for(multicast),
                ..base.clone()
            };
            Platform::new(config, Policy::Optimus, repo.clone()).run(&trace)
        })
    };
    let reports = run_sweep(threads);

    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    let mib = |b: u64| format!("{:.0}", b as f64 / (1024.0 * 1024.0));
    for ((mode, _), report) in MODES.iter().zip(&reports) {
        let fl = report.fleet;
        rows.push(vec![
            mode.to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
            fl.map_or("-".into(), |f| f.peak_nodes.to_string()),
            fl.map_or("-".into(), |f| f.multicast_rounds.to_string()),
            fl.map_or("-".into(), |f| mib(f.multicast_bytes)),
            fl.map_or("-".into(), |f| mib(f.remote_warm_bytes)),
            fl.map_or("-".into(), |f| fmt_s(f.time_to_all_warm)),
        ]);
        sweep_json.push(serde_json::json!({
            "mode": mode,
            "avg_service_time": report.avg_service_time(),
            "p99": report.percentile_service_time(99.0),
            "requests": report.len(),
            "fleet": fl,
        }));
    }
    print_table(
        &[
            "Mode",
            "Avg",
            "p99",
            "Peak nodes",
            "Rounds",
            "P2P MiB",
            "Origin MiB",
            "All-warm",
        ],
        &rows,
    );

    // ── Claims ──────────────────────────────────────────────────────────
    let mc = reports[0].fleet.expect("multicast fleet report");
    let ro = reports[1].fleet.expect("remote-only fleet report");
    let mut ok = claims.le("the burst triggers a scale-out", 1, mc.scale_outs);
    ok &= claims.eq(
        "identical scale pattern across warming modes",
        (mc.scale_outs, mc.nodes_added),
        (ro.scale_outs, ro.nodes_added),
    );
    ok &= claims.eq(
        "byte conservation: multicast changes the bytes' source, not their amount",
        mc.multicast_bytes + mc.remote_warm_bytes,
        ro.remote_warm_bytes,
    );
    ok &= claims.check(
        "live seeds exist: every warm byte travels peer-to-peer",
        mc.multicast_bytes > 0 && mc.remote_warm_bytes == 0,
        format!(
            "{} P2P bytes, {} origin bytes",
            mc.multicast_bytes, mc.remote_warm_bytes
        ),
    );
    let bound = mc.multicast_waves * round_bound(step as u64);
    ok &= claims.le(
        "multicast rounds stay within O(log N) per wave",
        mc.multicast_rounds,
        bound,
    );
    ok &= claims.le(
        "multicast all-warm no later than remote-only",
        mc.time_to_all_warm,
        ro.time_to_all_warm + 1e-9,
    );
    println!(
        "\nscale-out: {} (byte conservation, O(log N) rounds, multicast <= remote-only)",
        verdict(ok)
    );

    let off_json = serde_json::to_string(&reports[2]).expect("serializes");
    let ok = claims.check(
        "the static run serializes without a fleet key (pre-fleet identity)",
        !off_json.contains("\"fleet\""),
        "",
    );
    println!(
        "static-path identity: {} (fleet-off report carries no fleet key)",
        verdict(ok)
    );

    // Byte-identity across thread counts and reruns: the whole sweep,
    // sequentially and at the requested parallelism, twice.
    let sequential = run_sweep(1);
    let mut ok = true;
    for ((a, b), (mode, _)) in reports.iter().zip(&sequential).zip(MODES) {
        ok &= claims.check(
            format!("{mode}: --threads {threads} matches sequential"),
            serde_json::to_string(a).expect("serializes")
                == serde_json::to_string(b).expect("serializes"),
            "",
        );
    }
    println!(
        "determinism: {} (sweep byte-identical at --threads {threads} and 1)",
        verdict(ok)
    );

    Outcome {
        results: serde_json::json!({
            "config": if small { "small" } else { "full" },
            "seed": seed,
            "duration_s": duration,
            "functions": names.len(),
            "requests": trace.len(),
            "max_nodes": max_nodes,
            "planner": planner_json,
            "sweep": sweep_json,
        }),
        claims,
    }
}
