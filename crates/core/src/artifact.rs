//! Content-addressed, versioned persistence of the plan cache.
//!
//! A plan artifact is the durable form of a repository's plan cache:
//! every cached plan keyed by the **content hashes** of its source and
//! destination graphs ([`ModelGraph::content_hash`]) instead of their
//! names. Content addressing makes the artifact portable — a restarted
//! gateway, a fleet joiner, or a sibling catalog that registers the same
//! graphs under different names all warm-load the same plans — and makes
//! staleness detection free: edit a model and its hash (hence its cache
//! key) changes, so the stale plan simply never matches.
//!
//! # On-disk format (v2)
//!
//! A length-prefixed binary container, built so that a warm boot costs
//! less than the planning it replaces: loading reads the header and the
//! index, and a plan is decoded only when a registration asks for its key.
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `"OPTPLAN\0"` |
//! | 4 | format version, `u32` LE ([`PLAN_ARTIFACT_VERSION`]) |
//! | 4 | cost-model version, `u32` LE ([`optimus_profile::COST_MODEL_VERSION`]) |
//! | 8 | entry count `n`, `u64` LE |
//! | 32 · n | index rows `(src_hash, dst_hash, offset, len)`, four `u64` LE, strictly ascending by `(src_hash, dst_hash)` |
//! | Σ len | one self-contained encoded [`TransformPlan`] per row (see `wire.rs`), in index order, no gaps, the last ending at end of input |
//!
//! Of the two stamps, the format version guards the *layout* and the
//! cost-model version guards the *semantics* — a plan computed against
//! one cost calibration must not be replayed against another. Both are
//! checked before the index is read, and the index before any entry, so
//! an incompatible or damaged file fails with a typed
//! [`PlanArtifactError`] without a single plan being decoded. Because
//! entries are laid out back to back up to the end of the input, a file
//! truncated anywhere is rejected at load.
//!
//! Deliberately **not** persisted: wall-clock `planning_seconds` (decoded
//! plans carry `0.0`), so two processes that plan the same catalog write
//! the same bytes.
//!
//! Two forms read the container. [`PlanArtifactView`] is the lazy one the
//! serving path uses: it owns the file's bytes plus the validated index
//! and decodes per hit. [`PlanArtifact`] is the eager, fully decoded form
//! a repository exports ([`PlanArtifact::to_bytes`] writes the
//! container); its JSON rendering ([`PlanArtifact::to_json`]) survives as
//! a debug export only — nothing on the serving path reads JSON.
//!
//! For transport, an artifact's bytes chunk like any other store payload
//! ([`PlanArtifact::chunks_for_bytes`] → [`optimus_store::blob_chunks`]),
//! so fleet joiners receive the plan cache through the same multicast
//! path as model weights.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

use optimus_profile::COST_MODEL_VERSION;
use optimus_store::ChunkRef;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metaop::TransformPlan;
use crate::wire::{Reader, Wire, WireError};

/// Current artifact format version. Bump on any incompatible change to
/// the container layout or to the encoded form of [`TransformPlan`].
/// Version 1 was a JSON document; it is no longer read.
pub const PLAN_ARTIFACT_VERSION: u32 = 2;

const MAGIC: [u8; 8] = *b"OPTPLAN\0";
const HEADER_LEN: usize = 24;
const INDEX_ROW_LEN: usize = 32;

/// Why a persisted plan artifact could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanArtifactError {
    /// The input is damaged: truncated, an index row or a count prefix
    /// that does not fit the input, an undecodable entry (or, for the
    /// JSON debug form, invalid JSON).
    Malformed(String),
    /// The artifact was written in a different format version.
    /// `found == 0` means the input does not carry the container's magic
    /// at all — a version-1 JSON file, or some other file.
    UnsupportedVersion {
        /// Version recorded in the artifact (0 if absent).
        found: u64,
        /// Version this build reads ([`PLAN_ARTIFACT_VERSION`]).
        expected: u32,
    },
    /// The artifact's plans were computed against a different cost-model
    /// calibration; replaying them would warm the cache with costs the
    /// safeguard no longer agrees with.
    CostModelMismatch {
        /// Cost-model version recorded in the artifact (0 if absent).
        found: u64,
        /// Version this build plans with
        /// ([`optimus_profile::COST_MODEL_VERSION`]).
        expected: u32,
    },
}

impl fmt::Display for PlanArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanArtifactError::Malformed(e) => write!(f, "malformed plan artifact: {e}"),
            PlanArtifactError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported plan artifact version {found} (this build reads version {expected})"
            ),
            PlanArtifactError::CostModelMismatch { found, expected } => write!(
                f,
                "plan artifact computed against cost model version {found} \
                 (this build plans with version {expected})"
            ),
        }
    }
}

impl std::error::Error for PlanArtifactError {}

impl From<WireError> for PlanArtifactError {
    fn from(e: WireError) -> Self {
        malformed(e.0)
    }
}

fn malformed(what: &str) -> PlanArtifactError {
    PlanArtifactError::Malformed(what.to_string())
}

/// Check both stamps: the shared gate of the binary and the JSON form.
fn check_stamps(version: u64, cost_model: u64) -> Result<(), PlanArtifactError> {
    if version != u64::from(PLAN_ARTIFACT_VERSION) {
        return Err(PlanArtifactError::UnsupportedVersion {
            found: version,
            expected: PLAN_ARTIFACT_VERSION,
        });
    }
    if cost_model != u64::from(COST_MODEL_VERSION) {
        return Err(PlanArtifactError::CostModelMismatch {
            found: cost_model,
            expected: COST_MODEL_VERSION,
        });
    }
    Ok(())
}

/// One validated index row: the key and where its entry lies.
#[derive(Debug, Clone, Copy)]
struct IndexRow {
    key: (u64, u64),
    start: usize,
    end: usize,
}

/// Validate header and index of a container; no entry is touched.
fn parse_container(bytes: &[u8]) -> Result<Vec<IndexRow>, PlanArtifactError> {
    if !bytes.starts_with(&MAGIC) {
        if MAGIC.starts_with(bytes) {
            return Err(malformed("truncated header"));
        }
        return Err(PlanArtifactError::UnsupportedVersion {
            found: 0,
            expected: PLAN_ARTIFACT_VERSION,
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(malformed("truncated header"));
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    check_stamps(u64::from(u32_at(8)), u64::from(u32_at(12)))?;
    // The count sizes an allocation, so it is bounded by what the input
    // could hold before it is believed.
    let count = usize::try_from(u64_at(16))
        .ok()
        .filter(|&n| n <= (bytes.len() - HEADER_LEN) / INDEX_ROW_LEN)
        .ok_or_else(|| malformed("entry count exceeds the input"))?;
    let mut rows = Vec::with_capacity(count);
    let mut start = HEADER_LEN + count * INDEX_ROW_LEN;
    for i in 0..count {
        let at = HEADER_LEN + i * INDEX_ROW_LEN;
        let key = (u64_at(at), u64_at(at + 8));
        if rows.last().is_some_and(|prev: &IndexRow| prev.key >= key) {
            return Err(malformed("index keys are not strictly ascending"));
        }
        // Entries lie back to back in index order: an offset anywhere
        // else is out of bounds, overlapping, or leaves a gap.
        if u64_at(at + 16) != start as u64 {
            return Err(malformed("index offset does not follow the previous entry"));
        }
        let end = usize::try_from(u64_at(at + 24))
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| malformed("index entry runs past the input"))?;
        rows.push(IndexRow { key, start, end });
        start = end;
    }
    if start != bytes.len() {
        return Err(malformed("input continues past the last entry"));
    }
    Ok(rows)
}

/// Decode one entry; the plan must fill its index row exactly.
fn decode_plan(bytes: &[u8]) -> Result<TransformPlan, PlanArtifactError> {
    let mut reader = Reader::new(bytes);
    let plan = TransformPlan::get(&mut reader)?;
    if !reader.is_empty() {
        return Err(malformed("entry continues past its plan"));
    }
    Ok(plan)
}

/// Where an entry's bytes come from when a container is written.
enum Payload<'a> {
    /// Already encoded (copied out of an existing container).
    Raw(&'a [u8]),
    /// Encoded now.
    Plan(&'a TransformPlan),
}

/// Write a container; the map's order is the index order.
fn assemble(version: u32, cost_model: u32, entries: &BTreeMap<(u64, u64), Payload<'_>>) -> Vec<u8> {
    let data_start = HEADER_LEN + entries.len() * INDEX_ROW_LEN;
    // Raw payloads are most of a rewrite: size for them up front.
    let raw_len: usize = entries
        .values()
        .map(|payload| match payload {
            Payload::Raw(bytes) => bytes.len(),
            Payload::Plan(_) => 0,
        })
        .sum();
    let mut out = Vec::with_capacity(data_start + raw_len);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&cost_model.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    out.resize(data_start, 0);
    for (i, (key, payload)) in entries.iter().enumerate() {
        let start = out.len();
        match payload {
            Payload::Raw(bytes) => out.extend_from_slice(bytes),
            Payload::Plan(plan) => plan.put(&mut out),
        }
        let row = [key.0, key.1, start as u64, (out.len() - start) as u64];
        let at = HEADER_LEN + i * INDEX_ROW_LEN;
        for (field, value) in row.into_iter().enumerate() {
            out[at + 8 * field..at + 8 * field + 8].copy_from_slice(&value.to_le_bytes());
        }
    }
    out
}

/// One persisted plan, keyed by the content hashes of its endpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanArtifactEntry {
    /// [`ModelGraph::content_hash`](optimus_model::ModelGraph::content_hash)
    /// of the source graph.
    pub src_hash: u64,
    /// Content hash of the destination graph.
    pub dst_hash: u64,
    /// The cached plan, shared with the repository that exported it. Its
    /// `src_model`/`dst_model` names are those of the exporting
    /// repository; importers rebind them to local names on hit.
    pub plan: Arc<TransformPlan>,
}

/// Fully decoded, content-addressed snapshot of a plan cache: what a
/// repository exports and what [`PlanArtifact::to_bytes`] persists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanArtifact {
    /// Format version ([`PLAN_ARTIFACT_VERSION`] when written by this
    /// build).
    pub version: u32,
    /// Cost-model calibration the plans were computed against
    /// ([`optimus_profile::COST_MODEL_VERSION`]).
    pub cost_model: u32,
    /// Persisted plans, sorted by `(src_hash, dst_hash)` so equal plan
    /// sets serialize to identical bytes.
    pub entries: Vec<PlanArtifactEntry>,
}

impl PlanArtifact {
    /// An artifact holding no plans, stamped with this build's versions.
    pub fn empty() -> PlanArtifact {
        PlanArtifact {
            version: PLAN_ARTIFACT_VERSION,
            cost_model: COST_MODEL_VERSION,
            entries: Vec::new(),
        }
    }

    /// Number of persisted plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the artifact holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encode as a v2 container (see the module docs) — the bytes that go
    /// to disk and over the wire. A pure function of the plan set: no
    /// wall-clock field is written, and where two entries share a key
    /// (one graph registered under two names) the first is kept.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut entries = BTreeMap::new();
        for e in &self.entries {
            entries
                .entry((e.src_hash, e.dst_hash))
                .or_insert(Payload::Plan(&e.plan));
        }
        assemble(self.version, self.cost_model, &entries)
    }

    /// Decode a whole v2 container eagerly. The serving path uses
    /// [`PlanArtifactView`] instead and decodes per hit.
    ///
    /// # Errors
    ///
    /// Those of [`PlanArtifactView::from_bytes`], plus
    /// [`PlanArtifactError::Malformed`] for an entry that does not decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<PlanArtifact, PlanArtifactError> {
        let entries = parse_container(bytes)?
            .into_iter()
            .map(|row| {
                Ok(PlanArtifactEntry {
                    src_hash: row.key.0,
                    dst_hash: row.key.1,
                    plan: Arc::new(decode_plan(&bytes[row.start..row.end])?),
                })
            })
            .collect::<Result<_, PlanArtifactError>>()?;
        Ok(PlanArtifact {
            version: PLAN_ARTIFACT_VERSION,
            cost_model: COST_MODEL_VERSION,
            entries,
        })
    }

    /// Render as JSON: a debug export, not a persistence format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("plan artifact serialization cannot fail")
    }

    /// Read the JSON debug export back, checking both version stamps
    /// first.
    ///
    /// # Errors
    ///
    /// [`PlanArtifactError::Malformed`] on invalid JSON or a non-object
    /// root; [`PlanArtifactError::UnsupportedVersion`] when the `version`
    /// stamp is missing or differs from [`PLAN_ARTIFACT_VERSION`];
    /// [`PlanArtifactError::CostModelMismatch`] when the plans were
    /// computed against a different cost calibration. The text is parsed
    /// once: both stamps are probed on the value tree the struct is then
    /// built from.
    pub fn from_json(json: &str) -> Result<PlanArtifact, PlanArtifactError> {
        let value: serde_json::Value =
            serde_json::from_str(json).map_err(|e| PlanArtifactError::Malformed(e.to_string()))?;
        if value.as_object().is_none() {
            return Err(malformed("plan artifact root is not an object"));
        }
        let stamp = |field| value.get(field).and_then(|v| v.as_u64()).unwrap_or(0);
        check_stamps(stamp("version"), stamp("cost_model"))?;
        serde_json::from_value(value).map_err(|e| PlanArtifactError::Malformed(e.to_string()))
    }

    /// Chunk references of this artifact's container bytes (encodes
    /// internally; when the caller already holds the bytes use
    /// [`PlanArtifact::chunks_for_bytes`]).
    pub fn chunks(&self, chunk_bytes: u64) -> Vec<ChunkRef> {
        PlanArtifact::chunks_for_bytes(&self.to_bytes(), chunk_bytes)
    }

    /// Chunk references of a serialized artifact, content-addressed by a
    /// fingerprint of the bytes. Distinct from weight chunks by
    /// construction ([`optimus_store::blob_chunks`] mixes its own tag),
    /// so pinning an artifact never aliases a tensor.
    pub fn chunks_for_bytes(bytes: &[u8], chunk_bytes: u64) -> Vec<ChunkRef> {
        optimus_store::blob_chunks(fingerprint(bytes), bytes.len() as u64, chunk_bytes)
    }
}

/// A loaded v2 container: the file's bytes, its validated index, and
/// nothing decoded. [`PlanArtifactView::get`] decodes one plan per hit,
/// so a registration pays for the entries it uses and resident memory is
/// the file plus the plans actually installed.
#[derive(Debug)]
pub struct PlanArtifactView {
    bytes: Vec<u8>,
    index: Vec<IndexRow>,
    /// Keys whose entry failed to decode. Loading reads only header and
    /// index, so damage inside an entry surfaces at its first hit; a
    /// rewrite must then take the re-planned plan, not the damaged bytes.
    rejected: Mutex<Vec<(u64, u64)>>,
}

/// What [`PlanArtifactView::rewrite`] wants on disk instead of the view.
#[derive(Debug)]
pub struct PlanArtifactRewrite {
    /// The new container.
    pub bytes: Vec<u8>,
    /// Entries of the view left out because an endpoint is no longer in
    /// the live catalog.
    pub collected: usize,
}

impl PlanArtifactView {
    /// Take ownership of a container's bytes, validating the header and
    /// the index; no entry is decoded.
    ///
    /// # Errors
    ///
    /// [`PlanArtifactError::UnsupportedVersion`] when the input lacks the
    /// magic (`found: 0` — version-1 JSON files land here) or carries
    /// another format version; [`PlanArtifactError::CostModelMismatch`]
    /// for another cost calibration; [`PlanArtifactError::Malformed`] for
    /// a truncated input or an index that is unsorted, out of bounds,
    /// overlapping or gapped.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<PlanArtifactView, PlanArtifactError> {
        let index = parse_container(&bytes)?;
        Ok(PlanArtifactView {
            bytes,
            index,
            rejected: Mutex::new(Vec::new()),
        })
    }

    /// A view of the container that holds no plans.
    pub fn empty() -> PlanArtifactView {
        PlanArtifactView::from_bytes(PlanArtifact::empty().to_bytes())
            .expect("an empty container is valid")
    }

    /// Number of indexed plans.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the container holds no plans.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The container's bytes, as loaded.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The indexed `(src_hash, dst_hash)` keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.index.iter().map(|row| row.key)
    }

    /// Decode the plan stored under `(src_hash, dst_hash)`, if indexed.
    ///
    /// # Errors
    ///
    /// [`PlanArtifactError::Malformed`] when the entry's bytes do not
    /// decode; the key is remembered so that [`PlanArtifactView::rewrite`]
    /// replaces the entry.
    pub fn get(
        &self,
        src_hash: u64,
        dst_hash: u64,
    ) -> Result<Option<TransformPlan>, PlanArtifactError> {
        let key = (src_hash, dst_hash);
        let Ok(i) = self.index.binary_search_by_key(&key, |row| row.key) else {
            return Ok(None);
        };
        let row = self.index[i];
        decode_plan(&self.bytes[row.start..row.end])
            .map(Some)
            .inspect_err(|_| self.rejected.lock().push(key))
    }

    /// The container that should replace this one, given the repository's
    /// plan cache and the content hashes of its registered catalog
    /// (`live`) — or `None` when this one already is that container, so a
    /// boot that found every plan it needed writes nothing.
    ///
    /// Entries whose source *or* destination left the catalog are
    /// collected (decided on index keys, nothing is decoded), which keeps
    /// the file from growing monotonically as models churn. Surviving
    /// entries are copied as raw bytes; of `cache`, only plans the view
    /// does not hold are encoded.
    pub fn rewrite(
        &self,
        cache: &PlanArtifact,
        live: &HashSet<u64>,
    ) -> Option<PlanArtifactRewrite> {
        let rejected = self.rejected.lock();
        let mut entries = BTreeMap::new();
        let mut collected = 0;
        for row in &self.index {
            if !(live.contains(&row.key.0) && live.contains(&row.key.1)) {
                collected += 1;
            } else if !rejected.contains(&row.key) {
                entries.insert(row.key, Payload::Raw(&self.bytes[row.start..row.end]));
            }
        }
        let kept = entries.len();
        for e in &cache.entries {
            entries
                .entry((e.src_hash, e.dst_hash))
                .or_insert(Payload::Plan(&e.plan));
        }
        if kept == self.index.len() && entries.len() == kept {
            return None;
        }
        Some(PlanArtifactRewrite {
            bytes: assemble(PLAN_ARTIFACT_VERSION, COST_MODEL_VERSION, &entries),
            collected,
        })
    }
}

/// FNV-1a-with-avalanche fingerprint of a byte string (the same mixer as
/// the model crate's content hash, over raw bytes).
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| {
        acc ^= v;
        acc = acc.wrapping_mul(0x1000_0000_01B3);
        acc ^= acc >> 29;
    };
    mix(0x4152_5446); // "ARTF"
    mix(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix(u64::from_le_bytes(word));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ModelRepository;
    use crate::planner::GroupPlanner;
    use optimus_profile::CostModel;

    fn repo_of(models: Vec<optimus_model::ModelGraph>) -> ModelRepository {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        repo.register_all(models, &CostModel::default());
        repo
    }

    fn vgg_pair() -> ModelRepository {
        repo_of(vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()])
    }

    fn vgg_trio() -> ModelRepository {
        repo_of(vec![
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
        ])
    }

    /// `art` with the wall-clock field a container does not carry zeroed.
    fn untimed(art: &PlanArtifact) -> PlanArtifact {
        let mut art = art.clone();
        for e in &mut art.entries {
            Arc::make_mut(&mut e.plan).planning_seconds = 0.0;
        }
        art
    }

    fn view_of(art: &PlanArtifact) -> PlanArtifactView {
        PlanArtifactView::from_bytes(art.to_bytes()).expect("own bytes load")
    }

    #[test]
    fn bytes_roundtrip_and_the_lazy_view_agrees() {
        let art = vgg_pair().export_plan_artifact();
        assert_eq!(art.version, PLAN_ARTIFACT_VERSION);
        assert_eq!(art.cost_model, COST_MODEL_VERSION);
        assert_eq!(art.len(), 2, "two directed plans");
        let bytes = art.to_bytes();
        let back = PlanArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back, untimed(&art));
        assert_eq!(back.to_bytes(), bytes, "re-encoding is the identity");

        let view = PlanArtifactView::from_bytes(bytes).unwrap();
        assert_eq!(view.len(), 2);
        assert!(view
            .keys()
            .eq(back.entries.iter().map(|e| (e.src_hash, e.dst_hash))));
        for e in &back.entries {
            assert_eq!(
                view.get(e.src_hash, e.dst_hash).unwrap().as_ref(),
                Some(&*e.plan)
            );
        }
        assert_eq!(view.get(1, 2).unwrap(), None);
        assert!(PlanArtifactView::empty().is_empty());
    }

    #[test]
    fn json_debug_export_roundtrips() {
        let art = vgg_pair().export_plan_artifact();
        assert_eq!(PlanArtifact::from_json(&art.to_json()).unwrap(), art);
    }

    /// `bytes` with the little-endian `u32` at `at` replaced.
    fn patched(mut bytes: Vec<u8>, at: usize, value: u32) -> Vec<u8> {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    #[test]
    fn stamps_are_rejected_with_typed_errors_before_any_entry_is_read() {
        let mut art = vgg_pair().export_plan_artifact();
        let mut bytes = art.to_bytes();
        // Destroy every entry: only the header may decide the outcome.
        let data_start = HEADER_LEN + art.len() * INDEX_ROW_LEN;
        bytes[data_start..].fill(0xFF);
        let bumped = u64::from(PLAN_ARTIFACT_VERSION) + 1;
        assert_eq!(
            PlanArtifactView::from_bytes(patched(bytes.clone(), 8, PLAN_ARTIFACT_VERSION + 1))
                .unwrap_err(),
            PlanArtifactError::UnsupportedVersion {
                found: bumped,
                expected: PLAN_ARTIFACT_VERSION
            }
        );
        assert_eq!(
            PlanArtifactView::from_bytes(patched(bytes.clone(), 12, COST_MODEL_VERSION + 7))
                .unwrap_err(),
            PlanArtifactError::CostModelMismatch {
                found: u64::from(COST_MODEL_VERSION) + 7,
                expected: COST_MODEL_VERSION
            }
        );
        // No magic: a version-1 JSON file, or anything else.
        for foreign in [
            &b"{\"version\":1,\"entries\":[]}"[..],
            b"PK\x03\x04 not ours",
        ] {
            assert_eq!(
                PlanArtifact::from_bytes(foreign).unwrap_err(),
                PlanArtifactError::UnsupportedVersion {
                    found: 0,
                    expected: PLAN_ARTIFACT_VERSION
                }
            );
        }
        // The JSON debug form applies the same gate, on the value tree.
        art.version = PLAN_ARTIFACT_VERSION + 1;
        assert_eq!(
            PlanArtifact::from_json(&art.to_json()).unwrap_err(),
            PlanArtifactError::UnsupportedVersion {
                found: bumped,
                expected: PLAN_ARTIFACT_VERSION
            }
        );
        art.version = PLAN_ARTIFACT_VERSION;
        art.cost_model = COST_MODEL_VERSION + 7;
        assert!(matches!(
            PlanArtifact::from_json(&art.to_json()),
            Err(PlanArtifactError::CostModelMismatch { .. })
        ));
        assert!(matches!(
            PlanArtifact::from_json("{\"entries\":[]}"),
            Err(PlanArtifactError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn malformed_input_is_rejected() {
        for json in ["{nope", "[]"] {
            assert!(matches!(
                PlanArtifact::from_json(json),
                Err(PlanArtifactError::Malformed(_))
            ));
        }
        let bytes = vgg_pair().export_plan_artifact().to_bytes();
        let load = |bytes: &[u8]| PlanArtifactView::from_bytes(bytes.to_vec()).unwrap_err();
        let is_malformed = |e| matches!(e, PlanArtifactError::Malformed(_));
        assert!(is_malformed(load(b"")));
        assert!(is_malformed(load(&bytes[..bytes.len() - 1])));
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(is_malformed(load(&longer)));
        // An entry count no input of this size could hold.
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(is_malformed(load(&huge)));
        // Second index row pointing back into the first entry.
        let mut overlap = bytes.clone();
        let first_offset = overlap[HEADER_LEN + 16..HEADER_LEN + 24].to_vec();
        let at = HEADER_LEN + INDEX_ROW_LEN + 16;
        overlap[at..at + 8].copy_from_slice(&first_offset);
        assert!(is_malformed(load(&overlap)));
        // Index rows swapped: keys no longer ascend.
        let mut swapped = bytes.clone();
        let (a, b) = swapped[HEADER_LEN..].split_at_mut(INDEX_ROW_LEN);
        a.swap_with_slice(&mut b[..INDEX_ROW_LEN]);
        assert!(is_malformed(load(&swapped)));
    }

    #[test]
    fn a_clean_view_rewrites_nothing() {
        let repo = vgg_trio();
        let cache = repo.export_plan_artifact();
        assert!(view_of(&cache)
            .rewrite(&cache, &repo.catalog_hashes())
            .is_none());
        // Nothing on disk, nothing cached: still nothing to write.
        assert!(PlanArtifactView::empty()
            .rewrite(&PlanArtifact::empty(), &HashSet::new())
            .is_none());
    }

    #[test]
    fn rewrite_keeps_raw_entries_and_encodes_only_new_plans() {
        let full = vgg_trio();
        let cache = full.export_plan_artifact(); // 6 directed plans
        let pair = vgg_pair().export_plan_artifact(); // 2 of them
        let live = full.catalog_hashes();

        // The on-disk pair under names the importer never sees: raw
        // copies are recognisable in the output.
        let mut renamed = pair.clone();
        for e in &mut renamed.entries {
            Arc::make_mut(&mut e.plan).src_model = "exporter's name".to_string();
        }
        let rewrite = view_of(&renamed).rewrite(&cache, &live).unwrap();
        assert_eq!(rewrite.collected, 0);
        let merged = PlanArtifact::from_bytes(&rewrite.bytes).unwrap();
        assert_eq!(merged.len(), cache.len());
        for (m, c) in merged.entries.iter().zip(&cache.entries) {
            assert_eq!((m.src_hash, m.dst_hash), (c.src_hash, c.dst_hash));
            assert_eq!(m.plan.cost, c.plan.cost);
            let on_disk = pair
                .entries
                .iter()
                .any(|p| (p.src_hash, p.dst_hash) == (c.src_hash, c.dst_hash));
            assert_eq!(m.plan.src_model == "exporter's name", on_disk);
        }
        // What was written is now clean.
        let view = PlanArtifactView::from_bytes(rewrite.bytes).unwrap();
        assert!(view.rewrite(&cache, &live).is_none());
    }

    #[test]
    fn rewrite_collects_entries_leaving_the_catalog() {
        let view = view_of(&vgg_trio().export_plan_artifact());
        assert_eq!(view.len(), 6);
        // Live catalog without vgg19: the four plans touching it go, and
        // entries whose partner is merely not cached are kept.
        let survivors = repo_of(vec![optimus_zoo::vgg::vgg11(), optimus_zoo::vgg::vgg16()]);
        let live = survivors.catalog_hashes();
        let rewrite = view.rewrite(&PlanArtifact::empty(), &live).unwrap();
        assert_eq!(rewrite.collected, 4);
        let kept = PlanArtifact::from_bytes(&rewrite.bytes).unwrap();
        assert_eq!(kept.len(), 2);
        for e in &kept.entries {
            assert!(live.contains(&e.src_hash) && live.contains(&e.dst_hash));
        }
    }

    #[test]
    fn a_damaged_entry_is_a_miss_and_is_replaced_on_rewrite() {
        let repo = vgg_pair();
        let cache = repo.export_plan_artifact();
        let mut bytes = cache.to_bytes();
        // Inside the first entry: its leading string length now claims
        // more bytes than the entry has. Header and index are intact.
        let first = HEADER_LEN + 2 * INDEX_ROW_LEN;
        bytes[first..first + 5].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert!(PlanArtifact::from_bytes(&bytes).is_err(), "eager decode");
        let view = PlanArtifactView::from_bytes(bytes).expect("index is valid");
        let (bad, good) = (&cache.entries[0], &cache.entries[1]);
        assert!(matches!(
            view.get(bad.src_hash, bad.dst_hash),
            Err(PlanArtifactError::Malformed(_))
        ));
        assert!(view.get(good.src_hash, good.dst_hash).unwrap().is_some());

        let warm = ModelRepository::new(Box::new(GroupPlanner));
        warm.register_all_with_artifact(
            vec![optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()],
            &CostModel::default(),
            &view,
        );
        assert_eq!(warm.planner_invocations(), 1, "only the damaged pair");
        let rewrite = view
            .rewrite(&warm.export_plan_artifact(), &warm.catalog_hashes())
            .expect("the damaged entry makes the view dirty");
        assert_eq!(rewrite.collected, 0);
        assert_eq!(rewrite.bytes, cache.to_bytes(), "healed byte for byte");
    }

    #[test]
    fn independently_planned_repositories_export_identical_bytes() {
        // Different registration paths, different hash-map iteration
        // orders, different wall-clock planning times: same bytes.
        let bulk = vgg_trio();
        let single = ModelRepository::new(Box::new(GroupPlanner));
        for m in [
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::vgg::vgg11(),
            optimus_zoo::vgg::vgg16(),
        ] {
            single.register(m, &CostModel::default());
        }
        assert_eq!(
            bulk.export_plan_artifact().to_bytes(),
            single.export_plan_artifact().to_bytes()
        );
    }

    #[test]
    fn single_register_with_artifact_replays_persisted_plans() {
        let cost = CostModel::default();
        let view = view_of(&vgg_pair().export_plan_artifact());
        let warm = ModelRepository::new(Box::new(GroupPlanner));
        warm.register_with_artifact(optimus_zoo::vgg::vgg16(), &cost, &view);
        warm.register_with_artifact(optimus_zoo::vgg::vgg19(), &cost, &view);
        assert_eq!(warm.planner_invocations(), 0, "artifact covered all pairs");
        assert!(warm.decide("vgg16", "vgg19").unwrap().is_transform());
    }

    #[test]
    fn chunks_cover_the_container_bytes() {
        let art = vgg_pair().export_plan_artifact();
        let bytes = art.to_bytes();
        let chunks = PlanArtifact::chunks_for_bytes(&bytes, 4096);
        assert_eq!(
            chunks.iter().map(|c| c.bytes).sum::<u64>(),
            bytes.len() as u64
        );
        assert_eq!(chunks, art.chunks(4096), "convenience form agrees");
        // Different payloads never share chunk ids.
        let oc = PlanArtifact::empty().chunks(4096);
        assert!(chunks.iter().all(|c| c.id != oc[0].id));
        assert!(PlanArtifact::chunks_for_bytes(b"", 4096).is_empty());
    }
}
