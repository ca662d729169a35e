//! Sharded plan-cache contracts: for any catalog and any shard count the
//! sharded decide path must be byte-identical to a single-map oracle that
//! re-derives every decision from the planner directly, and readers must
//! never stall behind a concurrent bulk registration (the lock-striped
//! design's whole point).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_core::{GroupPlanner, ModelRepository, Planner};
use optimus_model::ModelGraph;
use optimus_profile::{CostModel, CostProvider};
use proptest::prelude::*;

/// A small, cheap-to-plan NASBench architecture (one cell per stage).
fn nas(index: u64) -> ModelGraph {
    optimus_zoo::nasbench::nasbench_model_sized(index, 1, 0)
}

/// The pre-shard oracle: one flat map, decisions recomputed from the
/// planner itself. `(name → (load, name → plan_total))` mirrors exactly
/// what the old single-`HashMap` repository stored.
struct FlatOracle {
    load: HashMap<String, f64>,
    plan_total: HashMap<(String, String), f64>,
}

impl FlatOracle {
    fn build(models: &[ModelGraph], cost: &CostModel) -> FlatOracle {
        let mut load = HashMap::new();
        let mut plan_total = HashMap::new();
        for m in models {
            load.insert(m.name().to_string(), cost.model_load_cost(m));
        }
        for src in models {
            for dst in models {
                if src.name() == dst.name() {
                    continue;
                }
                let plan = GroupPlanner.plan(src, dst, cost);
                plan_total.insert(
                    (src.name().to_string(), dst.name().to_string()),
                    plan.cost.total(),
                );
            }
        }
        FlatOracle { load, plan_total }
    }

    /// `(is_transform, latency)` for `src → dst`, replicating the
    /// repository's safeguard (ratio 1.0, no overrun demotions).
    fn decide(&self, src: &str, dst: &str) -> (bool, f64) {
        let load = self.load[dst];
        match self.plan_total.get(&(src.to_string(), dst.to_string())) {
            Some(&total) if total <= load => (true, total),
            _ => (false, load),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any catalog, any shard count, re-striped to any other shard count
    /// with one name then re-registered: every directed pair's decision —
    /// branch *and* exact latency bits — matches the flat single-map
    /// oracle.
    #[test]
    fn sharded_decisions_match_flat_oracle(
        indices in prop::collection::vec(prop::sample::select(
            vec![0u64, 3, 77, 341, 1_029, 5_000, 9_431, 15_624]), 2..6),
        shards in prop::sample::select(vec![1usize, 2, 4, 8, 32]),
        restriped in prop::sample::select(vec![1usize, 2, 4, 8, 32]),
    ) {
        // Dedup while keeping first-seen order, like the repository does.
        let mut seen = std::collections::HashSet::new();
        let models: Vec<ModelGraph> = indices
            .into_iter()
            .filter(|i| seen.insert(*i))
            .map(nas)
            .collect();
        let cost = CostModel::default();
        let oracle = FlatOracle::build(&models, &cost);

        let repo = ModelRepository::new(Box::new(GroupPlanner)).with_shards(shards);
        repo.register_all(models.clone(), &cost);
        // Same graph under the same name, so the oracle stands.
        let repo = repo.with_shards(restriped);
        repo.register(models[0].clone(), &cost);
        prop_assert_eq!(repo.model_count(), models.len());

        for src in &models {
            for dst in &models {
                if src.name() == dst.name() {
                    continue;
                }
                let d = repo
                    .decide(src.name(), dst.name())
                    .expect("registered pair is decidable");
                let (want_transform, want_latency) = oracle.decide(src.name(), dst.name());
                prop_assert_eq!(
                    d.is_transform(),
                    want_transform,
                    "branch diverged for {} -> {} at {} -> {} shards",
                    src.name(), dst.name(), shards, restriped
                );
                prop_assert_eq!(
                    d.latency().to_bits(),
                    want_latency.to_bits(),
                    "latency bits diverged for {} -> {} at {} -> {} shards",
                    src.name(), dst.name(), shards, restriped
                );
            }
        }
    }
}

/// Readers must keep decide latency flat while a bulk registration plans
/// and installs a batch on worker threads: the planning sweep happens off
/// the shard locks, and installs take one shard write lock at a time for
/// a map insert — never for the duration of planning.
#[test]
fn decide_latency_is_unaffected_by_concurrent_registration() {
    let cost = CostModel::default();
    let repo = Arc::new(ModelRepository::new(Box::new(GroupPlanner)));
    repo.register_all(vec![nas(0), nas(1)], &cost);
    let (a, b) = (nas(0).name().to_string(), nas(1).name().to_string());

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let repo = repo.clone();
        let done = done.clone();
        let (a, b) = (a.clone(), b.clone());
        std::thread::spawn(move || {
            let mut worst = Duration::ZERO;
            let mut calls = 0u64;
            while !done.load(Ordering::Acquire) {
                let t = Instant::now();
                let d = repo.decide(&a, &b).expect("pre-registered pair");
                let dt = t.elapsed();
                assert!(d.latency().is_finite());
                if dt > worst {
                    worst = dt;
                }
                calls += 1;
            }
            (worst, calls)
        })
    };

    // A real planning load: VGG-scale graphs across 4 worker threads.
    let batch: Vec<ModelGraph> = (0..8u64)
        .map(|v| optimus_zoo::vgg::vgg_scaled([11, 13, 16, 19][(v as usize) % 4], 1.0, v))
        .collect();
    let t0 = Instant::now();
    repo.register_all_with_threads(batch, &cost, 4);
    let reg_time = t0.elapsed();
    done.store(true, Ordering::Release);
    let (worst, calls) = reader.join().expect("reader never panics");

    assert!(calls > 0, "the reader made progress during registration");
    // A coarse-locked design stalls readers for the whole planning sweep
    // (~`reg_time`); the sharded one pauses them only for per-shard map
    // inserts. The bound is generous to stay robust on loaded CI boxes,
    // yet far below any planning-sweep stall.
    let bound = Duration::from_millis(250).max(reg_time / 4);
    assert!(
        worst < bound,
        "worst decide {worst:?} during a {reg_time:?} registration exceeds {bound:?}: \
         readers are stalling behind the installer"
    );
}
