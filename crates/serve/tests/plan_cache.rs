//! Persistent plan-cache tests for the live gateway: a gateway pointed at
//! a plan-cache path persists its planned artifact at spawn, a restarted
//! gateway warm-loads it (serving its first transform without ever
//! invoking the planner, reading the file once and writing nothing), a
//! changed catalog rewrites it (old entries kept, departed ones
//! collected), an unreadable file is replaced, and elastically joining
//! nodes receive the artifact's chunks alongside the catalog weights.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_core::{PlanArtifact, PlanArtifactView};
use optimus_model::tensor::Tensor;
use optimus_model::{Activation, GraphBuilder, ModelGraph, PoolKind};
use optimus_serve::{Gateway, GatewayConfig, ServedStart};
use optimus_telemetry::MetricsRegistry;

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
fn scratch_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "optimus-serve-plan-cache-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("plans.json")
}

/// Poll until `pred` holds (worker threads apply warm transfers
/// asynchronously) or a generous deadline expires.
fn eventually(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    pred()
}

/// The persisted artifact, fully decoded.
fn read_artifact(path: &Path) -> PlanArtifact {
    PlanArtifact::from_bytes(&std::fs::read(path).expect("the plan cache exists"))
        .expect("the persisted artifact is a valid v2 container")
}

/// What a write-then-rename would change even inside one timestamp tick:
/// the inode, besides the modification time.
#[cfg(unix)]
fn file_identity(path: &Path) -> (u64, std::time::SystemTime) {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).expect("the plan cache exists");
    (meta.ino(), meta.modified().expect("mtime is supported"))
}

#[cfg(not(unix))]
fn file_identity(path: &Path) -> (u64, std::time::SystemTime) {
    let meta = std::fs::metadata(path).expect("the plan cache exists");
    (0, meta.modified().expect("mtime is supported"))
}

/// Boot a single-node gateway over `models` against the cache at `path`.
fn boot(path: &Path, models: Vec<ModelGraph>) -> (Gateway, Arc<MetricsRegistry>) {
    let metrics = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(single_node())
        .metrics(metrics.clone())
        .plan_cache_path(path)
        .register_all(models)
        .spawn();
    (gw, metrics)
}

fn warm_counts(metrics: &MetricsRegistry) -> (u64, u64) {
    let warm = |result| {
        metrics
            .counter("optimus_plan_cache_warm_total", &[("result", result)])
            .get()
    };
    (warm("hit"), warm("miss"))
}

fn planner_calls(metrics: &MetricsRegistry) -> u64 {
    metrics.histogram("optimus_planning_seconds", &[]).count()
}

fn warm_loads(metrics: &MetricsRegistry) -> u64 {
    metrics
        .histogram("optimus_plan_cache_load_seconds", &[])
        .count()
}

#[test]
fn restart_warm_loads_persisted_plans_and_skips_the_planner() {
    let path = scratch_path("restart");
    let models = || vec![tiny("small", &[4]), tiny("large", &[4, 8])];

    // Cold run: no artifact on disk, so registration invokes the planner
    // and spawn persists the result.
    let (gw, cold_metrics) = boot(&path, models());
    assert!(path.exists(), "spawn persists the plan artifact");
    assert_eq!(
        read_artifact(&path).len(),
        2,
        "both directions of the pair are cached"
    );
    assert!(
        planner_calls(&cold_metrics) > 0,
        "cold registration planned from scratch"
    );
    assert_eq!(
        warm_loads(&cold_metrics),
        0,
        "nothing to warm-load on the first run"
    );
    gw.shutdown();
    let bytes = std::fs::read(&path).unwrap();
    let identity = file_identity(&path);

    // Restart against the same path: every plan comes out of the artifact
    // and the planner never runs — including for the first live transform.
    let (gw, warm_metrics) = boot(&path, models());
    assert_eq!(
        warm_counts(&warm_metrics),
        (2, 0),
        "both cached plans warm-load"
    );
    assert_eq!(warm_loads(&warm_metrics), 1, "the warm load is timed once");
    assert_eq!(
        planner_calls(&warm_metrics),
        0,
        "warm registration never plans"
    );
    // Nothing was planned, nothing left the catalog: the file is not
    // rewritten, not even with identical bytes.
    assert_eq!(
        file_identity(&path),
        identity,
        "a clean restart rewrote the cache"
    );
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    assert!(!path.with_extension("tmp").exists());

    let r1 = gw.infer("small", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(r1.start, ServedStart::Cold);
    let r2 = gw.infer("large", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(
        r2.start,
        ServedStart::Transformed,
        "the restarted node serves its first transform from the warm cache"
    );
    assert_eq!(
        planner_calls(&warm_metrics),
        0,
        "serving the first transform did not invoke the planner"
    );
    gw.shutdown();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A FIFO stands in for the cache file. Opening a FIFO for writing
/// completes only when a reader opens it, so the feeder thread's count of
/// completed opens *is* the number of times the boot read the file; and a
/// write-then-rename would replace the FIFO with a regular file.
#[cfg(unix)]
#[test]
fn clean_warm_boot_reads_the_cache_file_once_and_never_writes_it() {
    use std::io::Write;
    use std::os::unix::fs::FileTypeExt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let path = scratch_path("fifo");
    let models = || vec![tiny("small", &[4]), tiny("large", &[4, 8])];
    boot(&path, models()).0.shutdown();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let made = std::process::Command::new("mkfifo")
        .arg(&path)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo {path:?}");

    let reads = Arc::new(AtomicUsize::new(0));
    // `true`: the last reader has closed, serve the next one; `false`:
    // the next reader is the test itself, releasing the feeder.
    let (reader_closed, next) = mpsc::channel::<bool>();
    let feeder = {
        let (path, reads) = (path.clone(), reads.clone());
        std::thread::spawn(move || loop {
            let mut fifo = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("the FIFO opens for writing");
            reads.fetch_add(1, Ordering::SeqCst);
            // A reader that closes early is its own business.
            let _ = fifo.write_all(&bytes);
            drop(fifo);
            // Reopening while the reader still holds its end would
            // complete at once and feed it the bytes a second time.
            if !next.recv().expect("the test outlives the feeder") {
                break;
            }
        })
    };

    let metrics = Arc::new(MetricsRegistry::new());
    let builder = Gateway::builder(single_node())
        .metrics(metrics.clone())
        .plan_cache_path(&path);
    reader_closed.send(true).unwrap();
    let gw = builder.register_all(models()).spawn();
    assert_eq!(warm_counts(&metrics), (2, 0), "the boot was warm");
    assert_eq!(planner_calls(&metrics), 0);
    assert_eq!(
        reads.load(Ordering::SeqCst),
        1,
        "the boot reads the cache file once"
    );
    assert!(
        std::fs::metadata(&path).unwrap().file_type().is_fifo(),
        "a clean boot replaced the cache file"
    );
    assert!(!path.with_extension("tmp").exists());
    gw.shutdown();

    // Release the feeder from its pending open by being its reader.
    drop(std::fs::File::open(&path).expect("the FIFO opens for reading"));
    reader_closed.send(false).unwrap();
    feeder.join().expect("feeder thread");
    assert_eq!(reads.load(Ordering::SeqCst), 2, "the test's own open");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn catalog_changes_rewrite_the_cache_keeping_old_entries_and_collecting_dead_ones() {
    let path = scratch_path("churn");
    let (small, large, third) = (
        || tiny("small", &[4]),
        || tiny("large", &[4, 8]),
        || tiny("third", &[4, 4]),
    );
    boot(&path, vec![small(), large()]).0.shutdown();
    let before = PlanArtifactView::from_bytes(std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(before.len(), 2);

    // One more model: the two persisted plans hit, the four new pairs are
    // planned, and the rewrite carries the old entries over unchanged.
    let (gw, metrics) = boot(&path, vec![small(), large(), third()]);
    gw.shutdown();
    assert_eq!(warm_counts(&metrics), (2, 4));
    assert_eq!(planner_calls(&metrics), 4);
    let grown = PlanArtifactView::from_bytes(std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(grown.len(), 6);
    for (src, dst) in before.keys() {
        assert_eq!(
            grown.get(src, dst).unwrap(),
            before.get(src, dst).unwrap(),
            "an old entry changed in the rewrite"
        );
    }
    assert!(!path.with_extension("tmp").exists());
    // The grown file is complete: the same catalog again is a clean boot.
    let identity = file_identity(&path);
    let (gw, metrics) = boot(&path, vec![small(), large(), third()]);
    gw.shutdown();
    assert_eq!(warm_counts(&metrics), (6, 0));
    assert_eq!(file_identity(&path), identity);

    // "large" leaves: its four entries are collected at spawn, on index
    // keys alone — the two surviving plans still warm-load.
    let (gw, metrics) = boot(&path, vec![small(), third()]);
    gw.shutdown();
    assert_eq!(warm_counts(&metrics), (2, 0));
    assert_eq!(planner_calls(&metrics), 0);
    assert_eq!(
        metrics
            .counter("optimus_plan_cache_gc_entries_total", &[])
            .get(),
        4
    );
    let shrunk = read_artifact(&path);
    assert_eq!(shrunk.len(), 2);
    for e in &shrunk.entries {
        assert_eq!(
            grown.get(e.src_hash, e.dst_hash).unwrap().as_ref(),
            Some(&*e.plan)
        );
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn unreadable_cache_files_fall_back_to_cold_planning_and_are_rewritten() {
    let models = || vec![tiny("small", &[4]), tiny("large", &[4, 8])];
    let good = {
        let path = scratch_path("good");
        boot(&path, models()).0.shutdown();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        bytes
    };
    // What the previous format wrote, and a v2 file cut short.
    let v1_json = PlanArtifact::from_bytes(&good).unwrap().to_json().replacen(
        "\"version\":2",
        "\"version\":1",
        1,
    );
    assert!(v1_json.starts_with("{\"version\":1"));
    let cases = [
        ("v1-json", v1_json.as_bytes()),
        ("truncated", &good[..good.len() - 7]),
        ("empty", &[][..]),
    ];
    for (tag, stale) in cases {
        let path = scratch_path(tag);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, stale).unwrap();

        // The incompatible file is ignored, not trusted: registration
        // plans from scratch and no warm hit/miss is counted.
        let (gw, metrics) = boot(&path, models());
        assert!(
            planner_calls(&metrics) > 0,
            "{tag}: an incompatible artifact forces cold planning"
        );
        assert_eq!(warm_counts(&metrics), (0, 0), "{tag}");
        assert_eq!(warm_loads(&metrics), 0, "{tag}");
        // And it is replaced with a loadable one.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "{tag}: the stale file was not replaced by the v2 artifact"
        );
        gw.shutdown();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

#[test]
fn joiner_warm_transfer_ships_plan_artifact_chunks() {
    let metrics = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(single_node())
        .metrics(metrics.clone())
        .register_all(vec![tiny("small", &[4]), tiny("large", &[4, 8])])
        .spawn();

    // What the catalog weights alone would occupy on the joiner.
    let sc = optimus_store::StoreConfig::default();
    let mut seen = std::collections::HashSet::new();
    let mut weight_bytes = 0u64;
    for m in [tiny("small", &[4]), tiny("large", &[4, 8])] {
        for c in optimus_store::model_chunks(&m, sc.chunk_bytes) {
            if seen.insert(c.id) {
                weight_bytes += c.bytes;
            }
        }
    }

    let id = gw.register_node();
    assert!(
        eventually(|| {
            gw.store_stats_by_node()
                .iter()
                .any(|&(n, s)| n == id && s.memory_bytes > weight_bytes)
        }),
        "joiner memory never exceeded the weights-only footprint: {:?} (weights = {weight_bytes})",
        gw.store_stats_by_node()
    );
    gw.shutdown();
}
