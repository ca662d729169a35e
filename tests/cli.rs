//! `optimus-cli snapshot` writes the one plan file the product reads: a
//! gateway boots from it without planning or rewriting it, and
//! `snapshot-info` rejects anything else with the artifact's typed error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

use optimus::serve::{Gateway, GatewayConfig, ServingConfig};
use optimus::telemetry::MetricsRegistry;

/// Catalog names of the three graphs the gateway test registers.
const MODELS: &str = "vgg11,vgg13,resnet18";

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_optimus-cli"))
        .args(args)
        .output()
        .expect("optimus-cli runs")
}

/// A fresh scratch directory under cargo's per-target test tmpdir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("optimus-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn snapshot(path: &Path) -> Vec<u8> {
    let out = cli(&["snapshot", MODELS, path.to_str().unwrap()]);
    assert!(out.status.success(), "snapshot failed: {out:?}");
    std::fs::read(path).expect("snapshot wrote the file")
}

#[test]
fn gateway_boots_warm_from_the_cli_snapshot() {
    let dir = scratch_dir("boot");
    let path = dir.join("p.bin");
    let written = snapshot(&path);

    let metrics = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(GatewayConfig {
        nodes: 1,
        capacity_per_node: 3,
        idle_threshold: 0.0,
        keep_alive: 60.0,
        store: None,
        faults: None,
        serving: ServingConfig::default(),
        predict: None,
    })
    .metrics(metrics.clone())
    .plan_cache_path(&path)
    .register_all(vec![
        optimus::zoo::vgg::vgg11(),
        optimus::zoo::vgg::vgg13(),
        optimus::zoo::resnet::resnet18(),
    ])
    .spawn();
    let warm = |result| {
        metrics
            .counter("optimus_plan_cache_warm_total", &[("result", result)])
            .get()
    };
    assert_eq!(
        (warm("hit"), warm("miss")),
        (6, 0),
        "every pair from the file"
    );
    assert_eq!(
        metrics.histogram("optimus_planning_seconds", &[]).count(),
        0,
        "the planner never ran"
    );
    gw.shutdown();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        written,
        "a complete artifact is not rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_info_reads_the_artifact_and_rejects_anything_else() {
    let dir = scratch_dir("info");
    let path = dir.join("p.bin");
    let written = snapshot(&path);

    let out = cli(&["snapshot-info", path.to_str().unwrap()]);
    assert!(out.status.success(), "snapshot-info failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("6 plans"), "{text}");
    assert!(text.contains(&format!("{} bytes", written.len())), "{text}");
    assert_eq!(text.matches(" -> ").count(), 6, "{text}");

    let truncated = dir.join("truncated.bin");
    std::fs::write(&truncated, &written[..written.len() / 2]).unwrap();
    let v1 = dir.join("v1.json");
    std::fs::write(&v1, r#"{"version":1,"cost_model":1,"entries":[]}"#).unwrap();
    for (file, want) in [
        (&truncated, "malformed plan artifact"),
        (&v1, "unsupported plan artifact version 0"),
    ] {
        let out = cli(&["snapshot-info", file.to_str().unwrap()]);
        assert!(!out.status.success(), "{file:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{file:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
