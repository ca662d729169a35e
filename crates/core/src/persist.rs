//! Repository persistence (§7: "Models are deployed to the Docker volume…
//! Model structure information and model-to-model transformation planning
//! are stored with the models in JSON format").
//!
//! A [`RepositorySnapshot`] captures the registered models, their profiled
//! load costs, and the entire cached plan set; it round-trips through JSON
//! so a gateway restart (or a new node joining) skips the offline planning
//! pass entirely.
//!
//! Snapshots are **version-stamped** ([`SNAPSHOT_VERSION`]): the format
//! version is checked *before* the full structure is deserialized, so a
//! snapshot written by an incompatible build is rejected with a typed
//! [`SnapshotError::UnsupportedVersion`] instead of a confusing field-level
//! parse failure (or a panic deep inside graph validation).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use optimus_model::ModelGraph;
use serde::{Deserialize, Serialize};

use crate::cache::ModelRepository;
use crate::metaop::TransformPlan;
use crate::planner::Planner;

/// Current snapshot schema version. Bump on any incompatible change to
/// [`RepositorySnapshot`] (or to the serialized form of the types it
/// embeds).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a persisted snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input is not valid JSON, or not a snapshot-shaped object.
    Malformed(String),
    /// The snapshot was written with a different schema version.
    /// `found == 0` means the input predates version stamping.
    UnsupportedVersion {
        /// Version recorded in the snapshot (0 if absent).
        found: u64,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The snapshot parsed but its contents are inconsistent (invalid
    /// model, plan or load cost referencing an unknown model, …).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {expected})"
            ),
            SnapshotError::Invalid(e) => write!(f, "invalid snapshot: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializable snapshot of a [`ModelRepository`]'s state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepositorySnapshot {
    /// Schema version of this snapshot ([`SNAPSHOT_VERSION`] when written
    /// by this build).
    pub version: u32,
    /// Registered models.
    pub models: Vec<ModelGraph>,
    /// Profiled scratch-load cost per model name.
    pub load_costs: HashMap<String, f64>,
    /// Cached plans keyed by `(source, destination)` names.
    pub plans: Vec<((String, String), TransformPlan)>,
}

impl RepositorySnapshot {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }

    /// The snapshot with volatile host-timing fields zeroed
    /// (`planning_seconds` is wall-clock measured during planning, so two
    /// registrations of identical catalogs differ only there). Two
    /// repositories hold the same plan set iff their canonicalized
    /// snapshots serialize to identical bytes — the warmup experiment's
    /// parallel-vs-sequential equivalence check.
    pub fn canonicalized(mut self) -> RepositorySnapshot {
        for (_, plan) in &mut self.plans {
            plan.planning_seconds = 0.0;
        }
        self
    }

    /// Deserialize from JSON, checking the schema version first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on invalid JSON or a non-object root;
    /// [`SnapshotError::UnsupportedVersion`] when the `version` stamp is
    /// missing or differs from [`SNAPSHOT_VERSION`].
    pub fn from_json(json: &str) -> Result<RepositorySnapshot, SnapshotError> {
        // Probe the version on the value tree before committing to the
        // struct layout: a v2 snapshot must fail with "unsupported
        // version", not with whatever field happens to differ first. The
        // struct is then built from the same tree — one parse of the text.
        let value: serde_json::Value =
            serde_json::from_str(json).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        if value.as_object().is_none() {
            return Err(SnapshotError::Malformed(
                "snapshot root is not an object".to_string(),
            ));
        }
        let found = value.get("version").and_then(|v| v.as_u64()).unwrap_or(0);
        if found != u64::from(SNAPSHOT_VERSION) {
            return Err(SnapshotError::UnsupportedVersion {
                found,
                expected: SNAPSHOT_VERSION,
            });
        }
        serde_json::from_value(value).map_err(|e| SnapshotError::Malformed(e.to_string()))
    }
}

impl ModelRepository {
    /// Capture the repository's full state for persistence.
    pub fn snapshot(&self) -> RepositorySnapshot {
        self.snapshot_parts()
    }

    /// Rebuild a repository from a snapshot without recomputing plans.
    ///
    /// The planner is still needed for models registered *after* the
    /// restore.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] on a version mismatch (a
    /// programmatically built snapshot can carry any stamp);
    /// [`SnapshotError::Invalid`] when plans or load costs reference
    /// unknown models or a model fails validation.
    pub fn restore(
        snapshot: RepositorySnapshot,
        planner: Box<dyn Planner + Send + Sync>,
    ) -> Result<ModelRepository, SnapshotError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: u64::from(snapshot.version),
                expected: SNAPSHOT_VERSION,
            });
        }
        let mut models = HashMap::new();
        for m in snapshot.models {
            m.validate().map_err(|e| {
                SnapshotError::Invalid(format!("model '{}' invalid: {e}", m.name()))
            })?;
            models.insert(m.name().to_string(), Arc::new(m));
        }
        for ((src, dst), _) in &snapshot.plans {
            if !models.contains_key(src) || !models.contains_key(dst) {
                return Err(SnapshotError::Invalid(format!(
                    "plan {src}->{dst} references unknown models"
                )));
            }
        }
        for name in snapshot.load_costs.keys() {
            if !models.contains_key(name) {
                return Err(SnapshotError::Invalid(format!(
                    "load cost for unknown model '{name}'"
                )));
            }
        }
        let plans = snapshot
            .plans
            .into_iter()
            .map(|(k, p)| (k, Arc::new(p)))
            .collect();
        Ok(ModelRepository::from_parts(
            planner,
            models,
            snapshot.load_costs,
            plans,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::GroupPlanner;
    use optimus_profile::CostModel;

    fn sample_repo() -> ModelRepository {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let cost = CostModel::default();
        repo.register(optimus_zoo::vgg::vgg16(), &cost);
        repo.register(optimus_zoo::vgg::vgg19(), &cost);
        repo.register(optimus_zoo::resnet::resnet18(), &cost);
        repo
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let repo = sample_repo();
        let snap = repo.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.models.len(), 3);
        assert_eq!(snap.plans.len(), 6, "3 models: 6 directed pairs");
        let json = snap.to_json();
        let restored = ModelRepository::restore(
            RepositorySnapshot::from_json(&json).unwrap(),
            Box::new(GroupPlanner),
        )
        .unwrap();
        assert_eq!(restored.model_names(), repo.model_names());
        for src in repo.model_names() {
            for dst in repo.model_names() {
                if src == dst {
                    continue;
                }
                let a = repo.plan(&src, &dst).unwrap();
                let b = restored.plan(&src, &dst).unwrap();
                assert_eq!(a.cost, b.cost, "{src}->{dst} plan cost mismatch");
                assert_eq!(a.steps.len(), b.steps.len());
            }
        }
        assert_eq!(
            restored.load_cost("vgg16").unwrap(),
            repo.load_cost("vgg16").unwrap()
        );
    }

    #[test]
    fn restored_repository_accepts_new_registrations() {
        let repo = sample_repo();
        let restored = ModelRepository::restore(repo.snapshot(), Box::new(GroupPlanner)).unwrap();
        let cost = CostModel::default();
        restored.register(optimus_zoo::vgg::vgg11(), &cost);
        assert!(restored.plan("vgg11", "vgg16").is_some());
        assert!(restored.plan("vgg16", "vgg11").is_some());
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        assert!(matches!(
            RepositorySnapshot::from_json("{bad"),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            RepositorySnapshot::from_json("[1, 2]"),
            Err(SnapshotError::Malformed(_))
        ));
        // Plan referencing a missing model.
        let repo = sample_repo();
        let mut snap = repo.snapshot();
        snap.models.retain(|m| m.name() != "vgg19");
        assert!(matches!(
            ModelRepository::restore(snap, Box::new(GroupPlanner)),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let repo = sample_repo();
        // A future (or past) on-disk version is rejected before the struct
        // parse ever runs, even though the rest of the payload matches the
        // current layout exactly.
        let mut future = repo.snapshot();
        future.version = SNAPSHOT_VERSION + 1;
        match RepositorySnapshot::from_json(&future.to_json()) {
            Err(SnapshotError::UnsupportedVersion { found, expected }) => {
                assert_eq!(found, u64::from(SNAPSHOT_VERSION) + 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Pre-stamping snapshots (no `version` member at all) report 0.
        match RepositorySnapshot::from_json("{\"models\":[]}") {
            Err(SnapshotError::UnsupportedVersion { found, .. }) => assert_eq!(found, 0),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // `restore` itself re-checks the stamp for in-memory snapshots.
        let mut snap = repo.snapshot();
        snap.version = 99;
        assert!(matches!(
            ModelRepository::restore(snap, Box::new(GroupPlanner)),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn restored_decisions_match_original() {
        let repo = sample_repo();
        let restored = ModelRepository::restore(repo.snapshot(), Box::new(GroupPlanner)).unwrap();
        let a = repo.decide("vgg16", "vgg19").unwrap();
        let b = restored.decide("vgg16", "vgg19").unwrap();
        assert_eq!(a.is_transform(), b.is_transform());
        assert!((a.latency() - b.latency()).abs() < 1e-12);
    }
}
