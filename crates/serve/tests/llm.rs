//! Token-level serving and persistence tests for the live gateway:
//! decode loops ride the existing submit/poll machinery, single-model
//! registrations persist the plan artifact incrementally, spawn-time GC
//! drops entries whose endpoints left the catalog, and learned predictor
//! state survives a gateway restart.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use optimus_core::PlanArtifact;
use optimus_model::tensor::Tensor;
use optimus_model::{Activation, GraphBuilder, ModelGraph, OpAttrs, PoolKind};
use optimus_serve::{
    Gateway, GatewayConfig, LlmConfig, MetricsRegistry, PredictConfig, ServedStart,
};

/// A tiny CNN small enough for the naive forward-pass engine.
fn tiny(name: &str, channels: &[usize]) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let mut x = b.input([1, 3, 8, 8]);
    let mut ch = 3;
    for &c in channels {
        x = b.conv2d_after(x, ch, c, (3, 3), (1, 1), 1);
        x = b.activation_after(x, Activation::Relu);
        ch = c;
    }
    let x = b.pool_after(x, PoolKind::Max, (2, 2), (2, 2));
    let x = b.flatten_after(x);
    let _ = b.dense_after(x, ch * 16, 4);
    b.finish().unwrap()
}

/// A tiny GPT-shaped decoder (embedding + one causal attention block)
/// small enough to actually prefill through the naive engine.
fn tiny_decoder(name: &str, hidden: usize, heads: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let i = b.input([1, 4]);
    let emb = b.after(i, "emb", OpAttrs::Embedding { vocab: 32, hidden });
    let pos = b.after(emb, "pos", OpAttrs::PosEmbedding { max_len: 4, hidden });
    let q = b.after(pos, "q", OpAttrs::Query { hidden, heads });
    let k = b.after(pos, "k", OpAttrs::Key { hidden, heads });
    let v = b.after(pos, "v", OpAttrs::Value { hidden, heads });
    let l = b.merge(&[q, k], "logit", OpAttrs::Logit { heads });
    let sm = b.after(l, "softmax", OpAttrs::Softmax);
    let at = b.merge(&[sm, v], "attend", OpAttrs::Attend { heads });
    let _ = b.after(at, "out", OpAttrs::AttnOutput { hidden });
    b.finish().unwrap()
}

fn single_node() -> GatewayConfig {
    GatewayConfig {
        nodes: 1,
        capacity_per_node: 3,
        idle_threshold: 0.0,
        keep_alive: 60.0,
        store: Some(optimus_store::StoreConfig::default()),
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: None,
    }
}

/// A unique scratch path under the system temp dir; the file does not
/// exist yet.
fn scratch_path(tag: &str, file: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optimus-serve-llm-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join(file)
}

fn drive(gw: &Gateway, mut pending: optimus_serve::PendingDecode) -> optimus_serve::DecodeResponse {
    loop {
        if let Some(r) = gw.poll_decode(&mut pending) {
            return r.unwrap();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn decode_loops_ride_the_submit_poll_api() {
    let llm = LlmConfig {
        min_decode_tokens: 16,
        max_decode_tokens: 24,
        ..LlmConfig::default()
    };
    let gw = Gateway::builder(single_node())
        .llm_config(llm)
        .register(tiny_decoder("decoder", 8, 2))
        .spawn();
    let ids = Tensor::new([1, 4], vec![1.0, 2.0, 3.0, 4.0]);

    let first = drive(&gw, gw.submit_decode("decoder", ids.clone()).unwrap());
    // The prefill is a real measured forward pass: it cold-started the
    // container and produced the decoder's activations.
    assert_eq!(first.prefill.start, ServedStart::Cold);
    assert_eq!(first.prefill.output.shape().dims(), &[1, 4, 8]);
    assert!(first.prefill.output.data().iter().all(|v| v.is_finite()));
    // The loop structure: a deterministic output length in the configured
    // range, TTFT covering the measured prefill, and a positive modeled
    // decode tail for the remaining tokens.
    assert!((16..=24).contains(&(first.tokens as usize)));
    assert!(first.ttft_seconds > 0.0);
    assert!(first.decode_seconds > 0.0);
    assert!(first.total_seconds() > first.ttft_seconds);

    // A second loop warm-starts and draws its own (deterministic) length.
    let second = drive(&gw, gw.submit_decode("decoder", ids).unwrap());
    assert_eq!(second.prefill.start, ServedStart::Warm);
    assert_eq!(second.tokens, llm.decode_tokens(1) as u64);

    assert!(matches!(
        gw.submit_decode("nope", Tensor::zeros([1, 4])),
        Err(optimus_serve::ServeError::UnknownModel(_))
    ));
    gw.shutdown();
}

#[test]
fn single_registrations_persist_plans_across_restarts() {
    let path = scratch_path("incremental", "plans.json");

    // Cold run: the catalog is grown one model at a time; spawn writes
    // the artifact once.
    let cold = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(single_node())
        .metrics(cold.clone())
        .plan_cache_path(&path)
        .register(tiny("small", &[4]))
        .register(tiny("large", &[4, 8]))
        .spawn();
    assert!(path.exists(), "single-model registration persists");
    let artifact = PlanArtifact::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(artifact.len(), 2, "both directions of the pair are cached");
    assert!(
        cold.histogram("optimus_planning_seconds", &[]).count() > 0,
        "cold registration planned from scratch"
    );
    gw.shutdown();

    // Restart, registering one model at a time again: the first
    // registration must not erase the pair entries (their partner is not
    // registered *yet*), and the second warm-loads both plans without
    // ever invoking the planner.
    let warm = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(single_node())
        .metrics(warm.clone())
        .plan_cache_path(&path)
        .register(tiny("small", &[4]))
        .register(tiny("large", &[4, 8]))
        .spawn();
    let hit = warm.counter("optimus_plan_cache_warm_total", &[("result", "hit")]);
    assert_eq!(hit.get(), 2, "both cached plans warm-load incrementally");
    assert_eq!(
        warm.histogram("optimus_planning_seconds", &[]).count(),
        0,
        "incremental warm registration never plans"
    );
    gw.shutdown();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn spawn_gc_drops_entries_that_left_the_catalog() {
    let path = scratch_path("gc", "plans.json");

    let gw = Gateway::builder(single_node())
        .plan_cache_path(&path)
        .register(tiny("small", &[4]))
        .register(tiny("large", &[4, 8]))
        .spawn();
    gw.shutdown();

    // The next deployment rotates "large" out and "third" in: its spawn
    // garbage-collects the small<->large entries but keeps serving the
    // freshly planned small<->third pair.
    let metrics = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(single_node())
        .metrics(metrics.clone())
        .plan_cache_path(&path)
        .register(tiny("small", &[4]))
        .register(tiny("third", &[4, 4]))
        .spawn();
    gw.shutdown();

    let artifact = PlanArtifact::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(
        artifact.len(),
        2,
        "only the live catalog's pair survives GC"
    );
    assert_eq!(
        metrics
            .counter("optimus_plan_cache_gc_entries_total", &[])
            .get(),
        2,
        "both stale small<->large entries were collected"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn predictor_state_survives_restart() {
    let path = scratch_path("predict", "predictor.json");
    let predict = PredictConfig {
        min_history: 2,
        keep_alive_floor: 0.05,
        keep_alive_ceiling: 0.4,
        adaptive_keep_alive: true,
        speculation: None,
        ..PredictConfig::default()
    };
    let config = GatewayConfig {
        predict: Some(predict),
        ..single_node()
    };

    // Teach the predictor a sub-second window, then shut down (persists
    // the snapshot).
    let gw = Gateway::builder(config)
        .predict_state_path(&path)
        .register(tiny("m", &[4]))
        .spawn();
    for _ in 0..5 {
        gw.infer("m", Tensor::zeros([1, 3, 8, 8])).unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    let learned = gw.keep_alive_for("m").unwrap();
    assert!(
        learned > 0.0 && learned <= 0.4,
        "a learned window replaced the 60 s global: {learned}"
    );
    gw.shutdown();
    assert!(path.exists(), "shutdown persists the predictor snapshot");

    // A restarted gateway applies the learned window before observing a
    // single arrival.
    let gw = Gateway::builder(config)
        .predict_state_path(&path)
        .register(tiny("m", &[4]))
        .spawn();
    let restored = gw.keep_alive_for("m").unwrap();
    assert!(
        restored > 0.0 && restored <= 0.4,
        "restored histograms yield the learned window immediately: {restored}"
    );
    gw.shutdown();

    // A snapshot taken under different knobs is ignored: prediction
    // starts cold on the 60 s default.
    let other = GatewayConfig {
        predict: Some(PredictConfig {
            min_history: 3,
            ..predict
        }),
        ..single_node()
    };
    let gw = Gateway::builder(other)
        .predict_state_path(&path)
        .register(tiny("m", &[4]))
        .spawn();
    assert_eq!(
        gw.keep_alive_for("m"),
        Some(60.0),
        "an incompatible snapshot must not be trusted"
    );
    gw.shutdown();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
