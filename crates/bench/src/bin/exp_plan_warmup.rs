//! Plan-cache warmup scaling — catalog size × worker threads.
//!
//! Seeds the BENCH trajectory for the offline planning path (§4.4
//! Module 3): full-catalog registration is an O(N²) sweep of pairwise
//! plans, and this experiment measures how its wall-clock scales with the
//! `register_all` worker-pool width, plus two properties the parallel
//! pipeline must preserve:
//!
//! 1. **Equivalence** — the parallel plan cache exports the same
//!    `PlanArtifact` bytes as sequential registration.
//! 2. **Non-blocking** — `decide()` readers keep answering while a bulk
//!    registration runs on another thread; the maximum observed reader
//!    latency is reported next to the warmup duration it overlapped.
//!
//! A third section micro-benchmarks the Hungarian kernel itself (flat
//! row-major buffer + reusable scratch).
//!
//! Run with `--small` for the CI configuration (tiny catalog, 2 threads).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optimus_bench::{figure13_models, fmt_s, print_table, save_results};
use optimus_core::{solve_assignment_flat, GroupPlanner, ModelRepository, MunkresScratch};
use optimus_model::ModelGraph;
use optimus_profile::CostModel;

fn build_sequential(models: &[ModelGraph], cost: &CostModel) -> ModelRepository {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    for m in models {
        repo.register(m.clone(), cost);
    }
    repo
}

fn warmup_seconds(models: &[ModelGraph], cost: &CostModel, threads: usize, repeats: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let t0 = Instant::now();
        repo.register_all_with_threads(models.to_vec(), cost, threads);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Max `decide()` latency observed by a reader thread while a bulk
/// registration runs concurrently; returns `(warmup_s, max_decide_s)`.
fn reader_stall(models: &[ModelGraph], cost: &CostModel, threads: usize) -> (f64, f64) {
    // Pre-register two models so the reader has a live pair to probe.
    let repo = Arc::new(ModelRepository::new(Box::new(GroupPlanner)));
    let (probe, rest) = models.split_at(2.min(models.len()));
    repo.register_all_with_threads(probe.to_vec(), cost, threads);
    let src = probe[0].name().to_string();
    let dst = probe[probe.len() - 1].name().to_string();
    let done = AtomicBool::new(false);
    let mut warmup = 0.0;
    let mut max_decide = 0.0f64;
    crossbeam::thread::scope(|s| {
        let writer = s.spawn(|_| {
            let t0 = Instant::now();
            repo.register_all_with_threads(rest.to_vec(), cost, threads);
            done.store(true, Ordering::Release);
            t0.elapsed().as_secs_f64()
        });
        let reader = s.spawn(|_| {
            let mut worst = 0.0f64;
            while !done.load(Ordering::Acquire) {
                let t = Instant::now();
                let d = repo.decide(&src, &dst);
                worst = worst.max(t.elapsed().as_secs_f64());
                assert!(d.is_some(), "pre-registered pair must stay decidable");
            }
            worst
        });
        warmup = writer.join().expect("writer");
        max_decide = reader.join().expect("reader");
    })
    .expect("stall probe threads");
    (warmup, max_decide)
}

/// Seconds per `k×k` solve.
fn kernel_bench(k: usize, solves: usize) -> f64 {
    let mut state: u64 = 0x9E3779B97F4A7C15 ^ k as u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (1u64 << 31) as f64
    };
    let flat: Vec<f64> = (0..k * k).map(|_| next() * 100.0).collect();
    let mut scratch = MunkresScratch::with_capacity(k);
    let t0 = Instant::now();
    for _ in 0..solves {
        std::hint::black_box(solve_assignment_flat(&flat, k, &mut scratch));
    }
    t0.elapsed().as_secs_f64() / solves as f64
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let cost = CostModel::default();
    let all = figure13_models();
    let (catalog_sizes, thread_counts, repeats, kernel_dims, kernel_solves) = if small {
        (vec![8usize], vec![1usize, 2], 1usize, vec![64usize], 5usize)
    } else {
        (
            vec![10usize, 20, all.len()],
            vec![1usize, 2, 4, 8],
            3usize,
            vec![64usize, 128, 256],
            10usize,
        )
    };

    println!("Plan-cache warmup scaling (catalog size × worker threads)\n");
    let mut rows = Vec::new();
    let mut warmup_json = Vec::new();
    for &size in &catalog_sizes {
        let models = &all[..size.min(all.len())];
        let baseline = warmup_seconds(models, &cost, 1, repeats);
        for &threads in &thread_counts {
            let secs = if threads == 1 {
                baseline
            } else {
                warmup_seconds(models, &cost, threads, repeats)
            };
            let speedup = baseline / secs;
            rows.push(vec![
                size.to_string(),
                threads.to_string(),
                fmt_s(secs),
                format!("{speedup:.2}x"),
            ]);
            warmup_json.push(serde_json::json!({
                "catalog": size,
                "threads": threads,
                "warmup_s": secs,
                "speedup_vs_sequential": speedup,
            }));
        }
    }
    print_table(&["Catalog", "Threads", "Warmup (s)", "Speedup"], &rows);

    // Equivalence: parallel registration must publish the exact plan set
    // sequential registration would.
    let eq_models = &all[..catalog_sizes[0].min(all.len())];
    let seq_repo = build_sequential(eq_models, &cost);
    let par_repo = ModelRepository::new(Box::new(GroupPlanner));
    par_repo.register_all_with_threads(eq_models.to_vec(), &cost, *thread_counts.last().unwrap());
    let identical = seq_repo.model_names() == par_repo.model_names()
        && seq_repo
            .model_names()
            .iter()
            .all(|name| seq_repo.load_cost(name) == par_repo.load_cost(name))
        && seq_repo.export_plan_artifact().to_bytes() == par_repo.export_plan_artifact().to_bytes();
    println!(
        "\nparallel vs sequential plan cache: {}",
        if identical {
            "byte-identical"
        } else {
            "MISMATCH"
        }
    );
    assert!(identical, "parallel registration diverged from sequential");

    // Reader stall while a warmup runs concurrently.
    let stall_threads = *thread_counts.last().unwrap();
    let (stall_warmup, max_decide) = reader_stall(&all, &cost, stall_threads);
    println!(
        "decide() readers during a {:.3} s warmup: max latency {:.6} s",
        stall_warmup, max_decide
    );

    println!("\nHungarian kernel (flat buffer + scratch)\n");
    let mut krows = Vec::new();
    let mut kernel_json = Vec::new();
    for &k in &kernel_dims {
        let flat_s = kernel_bench(k, kernel_solves);
        krows.push(vec![format!("{k}x{k}"), format!("{:.3} ms", 1e3 * flat_s)]);
        kernel_json.push(serde_json::json!({ "dim": k, "flat_s": flat_s }));
    }
    print_table(&["Matrix", "Solve"], &krows);

    // The small CI configuration writes to its own file so a smoke run
    // never clobbers the committed full-sweep results.
    save_results(
        if small {
            "exp_plan_warmup_small"
        } else {
            "exp_plan_warmup"
        },
        &serde_json::json!({
            "config": if small { "small" } else { "full" },
            "available_parallelism":
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            "warmup": warmup_json,
            "plans_identical_to_sequential": identical,
            "reader_stall": {
                "threads": stall_threads,
                "warmup_s": stall_warmup,
                "max_decide_s": max_decide,
            },
            "kernel": kernel_json,
        }),
    );
}
