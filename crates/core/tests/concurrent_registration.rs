//! Concurrency contract of the snapshot → fan-out → install registration
//! pipeline: `decide()` readers racing a bulk `register_all` must observe
//! either the pre-registration plan set or the complete post-registration
//! one — never a partially installed batch — and pre-registered pairs must
//! stay decidable throughout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optimus_core::{GroupPlanner, ModelRepository};
use optimus_model::{Activation, GraphBuilder, InternKey, ModelGraph, ModelId};
use optimus_profile::CostModel;

/// A three-op CNN, cheap enough to plan by the thousand; sorts before
/// every zoo name the tests use.
fn filler(i: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(format!("filler-{i:03}"));
    let x = b.input([1, 3, 8, 8]);
    let x = b.conv2d_after(x, 3, 4 + i % 8, (3, 3), (1, 1), 1);
    b.activation_after(x, Activation::Relu);
    b.finish().expect("valid graph")
}

#[test]
fn readers_never_observe_partial_plan_sets() {
    let cost = CostModel::default();
    // Four stripes, three models up front (ids 0, 1, 2) and a batch of
    // FILLERS + 2 whose sorted names end in "vgg19": that id wraps onto
    // stripe 0, ahead of the stripes holding the plans from it into vgg13
    // and vgg16. An install that publishes models stripe by stripe,
    // interleaved with the plans, shows readers a vgg19 with half its
    // plan set for as long as the fillers' ~FILLERS² plans take to flush
    // (milliseconds: long enough for a reader parked on stripe 0 to wake).
    const FILLERS: usize = 128;
    assert_eq!((3 + FILLERS + 1) % 4, 0, "vgg19 must land on stripe 0");
    let repo = Arc::new(ModelRepository::new(Box::new(GroupPlanner)).with_shards(4));
    repo.register_all(
        vec![
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg13(),
            optimus_zoo::vgg::vgg16(),
        ],
        &cost,
    );
    assert!(repo.decide("vgg11", "vgg16").unwrap().is_transform());
    let old_ids: Vec<ModelId> = ["vgg11", "vgg13", "vgg16"]
        .iter()
        .map(|name| repo.model_id(name).expect("pre-registered"))
        .collect();

    // Sorted, the batch interns "vgg19" last.
    let new_id = ModelId::from_index(3 + FILLERS + 1);

    let stop = Arc::new(AtomicBool::new(false));
    // The path requests take: ids only, one slot read per call, so this
    // reader is never parked behind a name lookup while the install runs.
    // From the moment `decide_by_id` answers for the new model at all,
    // every plan into and out of it is cached with it (VGG siblings always
    // pass the safeguard, so a cached plan reads as `Transform`).
    let id_reader = {
        let repo = repo.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if repo.decide_by_id(old_ids[0], new_id).is_none() {
                    continue;
                }
                // Highest stripe first: the one a stripe-by-stripe flush
                // reaches last, and the one read that cannot be parked
                // behind the flush of a stripe in between.
                for &old in old_ids.iter().rev() {
                    for (src, dst) in [(new_id, old), (old, new_id)] {
                        assert!(
                            repo.decide_by_id(src, dst).unwrap().is_transform(),
                            "model decidable but plan {src:?}->{dst:?} missing: partial install"
                        );
                    }
                }
            }
        })
    };
    let name_reader = {
        let repo = repo.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                // The pre-registered pair must stay decidable (old plans
                // are never unpublished during a registration).
                let d = repo
                    .decide("vgg11", "vgg16")
                    .expect("pre-registered pair always decidable");
                assert!(d.is_transform(), "vgg11→vgg16 plan must stay cached");
                // Atomic install: the moment a new model is visible, its
                // entire plan set (both directions, against every
                // same-paradigm model) must be visible with it.
                if repo.model("vgg19").is_some() {
                    for (src, dst) in [
                        ("vgg19", "vgg11"),
                        ("vgg11", "vgg19"),
                        ("vgg19", "vgg16"),
                        ("vgg16", "vgg19"),
                        ("vgg19", "resnet18"),
                        ("resnet18", "vgg19"),
                    ] {
                        assert!(
                            repo.plan(src, dst).is_some(),
                            "model visible but plan {src}->{dst} missing: partial install"
                        );
                    }
                    assert!(
                        repo.load_cost("vgg19").is_some(),
                        "model visible but load cost missing"
                    );
                }
            }
        })
    };

    // Bulk-register two more CNNs (and the fillers) on a worker pool
    // while readers hammer the cache.
    let mut batch = vec![optimus_zoo::vgg::vgg19(), optimus_zoo::resnet::resnet18()];
    batch.extend((0..FILLERS).map(filler));
    repo.register_all_with_threads(batch, &cost, 2);
    // Give readers a window to observe the installed state, then stop.
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
    while std::time::Instant::now() < deadline && repo.model("vgg19").is_none() {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    for reader in [id_reader, name_reader] {
        reader
            .join()
            .expect("reader panicked (partial plan set observed)");
    }
    assert_eq!(repo.model_id("vgg19"), Some(new_id));

    // Final state: the full CNN clique is planned.
    assert_eq!(repo.model_count(), 5 + FILLERS);
    let names = ["vgg11", "vgg13", "vgg16", "vgg19", "resnet18"];
    for src in names {
        for dst in names {
            if src != dst {
                assert!(repo.plan(src, dst).is_some(), "missing {src}->{dst}");
            }
        }
    }
}

#[test]
fn concurrent_reregistration_never_publishes_stale_plans() {
    // Two threads race to (re-)register overlapping catalogs; the epoch
    // check forces the loser to re-plan against the winner's graphs, so the final cache must be exactly what sequential
    // registration of the final model set produces.
    let cost = CostModel::default();
    let repo = Arc::new(ModelRepository::new(Box::new(GroupPlanner)));
    repo.register(optimus_zoo::vgg::vgg11(), &cost);

    let a = {
        let repo = repo.clone();
        std::thread::spawn(move || {
            let cost = CostModel::default();
            repo.register_all_with_threads(
                vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()],
                &cost,
                2,
            );
        })
    };
    let b = {
        let repo = repo.clone();
        std::thread::spawn(move || {
            let cost = CostModel::default();
            repo.register_all_with_threads(
                vec![optimus_zoo::resnet::resnet18(), optimus_zoo::vgg::vgg19()],
                &cost,
                2,
            );
        })
    };
    a.join().unwrap();
    b.join().unwrap();

    let expected = {
        let seq = ModelRepository::new(Box::new(GroupPlanner));
        for m in [
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::resnet::resnet18(),
        ] {
            seq.register(m, &cost);
        }
        seq
    };
    assert_eq!(repo.model_names(), expected.model_names());
    for name in expected.model_names() {
        assert_eq!(repo.load_cost(&name), expected.load_cost(&name));
    }
    assert_eq!(
        repo.export_plan_artifact().to_bytes(),
        expected.export_plan_artifact().to_bytes(),
        "racing registrations must converge to the sequential plan cache"
    );
}
