//! Plan artifact v2 as a codec: whatever the zoo's planners produce
//! round-trips through the container and the lazy view agrees with the
//! eager decode entry for entry; as a decoder of untrusted bytes:
//! truncation, byte flips and oversized count prefixes end in a typed
//! error — never a panic, never an allocation sized from a prefix the
//! input could not back — and decode time grows with the input, not
//! faster.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use optimus_core::{
    GroupPlanner, MetaOp, ModelRepository, PlanArtifact, PlanArtifactEntry, PlanArtifactError,
    PlanArtifactView,
};
use optimus_model::{ModelGraph, OpAttrs, OpKind, WeightInit, WeightSpec, Weights};
use optimus_profile::CostModel;
use optimus_zoo::textrnn::{text_rnn, RnnCell};
use optimus_zoo::{bert, BertConfig, BertSize, BertTask};
use proptest::prelude::*;

thread_local! {
    /// Largest single allocation this thread has requested since the last
    /// reset (the harness runs tests on parallel threads, so a
    /// process-wide figure would see the others).
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

struct RecordingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local cell
// with a `const` initialiser and no destructor, so touching it neither
// allocates nor can run during thread teardown.
unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.with(|m| m.set(m.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.with(|m| m.set(m.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: RecordingAllocator = RecordingAllocator;

/// Run `f`, returning its result and the largest allocation it asked for.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

/// A CNN whose weights use the initialisers no zoo builder emits but a
/// transformed-and-re-registered model carries — a `CropPad` of a
/// `CropPad`, explicit values, and zeros — with the two operation kinds
/// no zoo builder emits (`Dropout`, `ZeroPad`) hung off its output.
fn reshaped_sibling() -> ModelGraph {
    let mut g = optimus_zoo::vgg::vgg11();
    g.set_name("vgg11-reshaped");
    let weighted: Vec<_> = g
        .ops()
        .filter(|(_, op)| op.weights.is_some())
        .map(|(id, _)| id)
        .take(3)
        .collect();
    for (i, id) in weighted.into_iter().enumerate() {
        let op = g.op_mut(id).expect("listed op");
        let tensors = &mut op.weights.as_mut().expect("filtered on weights").tensors;
        for spec in tensors {
            let shape = spec.shape.clone();
            *spec = match i {
                0 => {
                    let halved: Vec<usize> = shape.dims().iter().map(|d| d.div_ceil(2)).collect();
                    WeightSpec::crop_pad_of(WeightSpec::crop_pad_of(spec.clone(), halved), shape)
                }
                1 if shape.numel() <= 4096 => {
                    let values = (0..shape.numel()).map(|k| k as f32 * 0.5 - 7.0).collect();
                    WeightSpec::dense(shape, values)
                }
                _ => WeightSpec::zeros(shape),
            };
        }
    }
    let out = g.outputs()[0];
    let drop = g
        .append_after(out, "head.dropout", OpAttrs::Dropout { rate: 0.5 }, 0)
        .expect("output exists");
    g.append_after(drop, "head.pad", OpAttrs::ZeroPad { pad: (1, 2) }, 0)
        .expect("just added");
    g.validate().expect("same shapes, other initialisers");
    g
}

/// The four catalogs of the round-trip property, built once.
fn catalogs() -> &'static [Vec<ModelGraph>; 4] {
    static CATALOGS: OnceLock<[Vec<ModelGraph>; 4]> = OnceLock::new();
    CATALOGS.get_or_init(|| {
        let cnn = vec![
            optimus_zoo::vgg::vgg11(),
            reshaped_sibling(),
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::resnet::resnet18(),
            optimus_zoo::resnet::resnet50(),
            optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
            optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
            optimus_zoo::densenet::densenet_variant(121, 0),
            optimus_zoo::inception::inception_v1(),
            optimus_zoo::xception::xception(),
            optimus_zoo::squeezenet::squeezenet(),
            text_rnn(RnnCell::Lstm, 2, 128, 0),
            text_rnn(RnnCell::Gru, 1, 256, 0),
        ];
        let berts = vec![
            bert(BertConfig::new(BertSize::Tiny)),
            bert(BertConfig::new(BertSize::Mini)),
            bert(BertConfig::new(BertSize::Small).task(BertTask::TokenClassification)),
            bert(BertConfig::new(BertSize::Medium)),
        ];
        let nasbench = [0u64, 1, 77, 4_242, 9_999, 15_624]
            .into_iter()
            .map(|i| optimus_zoo::nasbench::nasbench_model_sized(i, 1, 0))
            .collect();
        [cnn, berts, nasbench, optimus_zoo::gpt_zoo()]
    })
}

/// All-pairs plan cache of `models`, exported.
fn artifact_of(models: Vec<ModelGraph>) -> PlanArtifact {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    repo.register_all_with_threads(models, &CostModel::default(), 1);
    repo.export_plan_artifact()
}

/// `art` without the wall-clock field a container does not carry.
fn untimed(mut art: PlanArtifact) -> PlanArtifact {
    for e in &mut art.entries {
        Arc::make_mut(&mut e.plan).planning_seconds = 0.0;
    }
    art
}

/// Container → eager decode is the identity (modulo `planning_seconds`),
/// re-encoding reproduces the bytes, and the lazy view serves the same
/// plan under every key.
fn assert_roundtrips(art: PlanArtifact) {
    let bytes = art.to_bytes();
    let eager = PlanArtifact::from_bytes(&bytes).expect("own bytes decode");
    assert_eq!(eager.to_bytes(), bytes);
    let view = PlanArtifactView::from_bytes(bytes).expect("own bytes load");
    assert_eq!(view.len(), eager.len());
    for e in &eager.entries {
        let lazy = view.get(e.src_hash, e.dst_hash).expect("entry decodes");
        assert_eq!(lazy.as_ref(), Some(&*e.plan));
    }
    assert_eq!(eager, untimed(art));
}

fn note_weights(weights: &Weights, seen: &mut BTreeSet<&'static str>) {
    for mut spec in &weights.tensors {
        let mut depth = 0;
        loop {
            seen.insert(match (&spec.init, depth) {
                (WeightInit::Zeros, _) => "zeros",
                (WeightInit::Seeded(_), _) => "seeded",
                (WeightInit::Dense(_), _) => "dense",
                (WeightInit::CropPad(_), 0) => "crop_pad",
                (WeightInit::CropPad(_), _) => "nested crop_pad",
            });
            let WeightInit::CropPad(src) = &spec.init else {
                break;
            };
            spec = src;
            depth += 1;
        }
    }
}

#[test]
fn catalog_artifacts_roundtrip_and_cover_every_variant() {
    let mut kinds = BTreeSet::new();
    let mut inits = BTreeSet::new();
    let mut steps = BTreeSet::new();
    for catalog in catalogs() {
        let art = artifact_of(catalog.clone());
        assert!(!art.is_empty());
        for e in &art.entries {
            for step in &e.plan.steps {
                steps.insert(step.kind_name());
                match step {
                    MetaOp::Replace { weights, .. } => note_weights(weights, &mut inits),
                    MetaOp::Reshape { attrs, .. } => {
                        kinds.insert(attrs.kind());
                    }
                    MetaOp::Add { op, .. } => {
                        kinds.insert(op.kind());
                        if let Some(weights) = &op.weights {
                            note_weights(weights, &mut inits);
                        }
                    }
                    MetaOp::Reduce { .. } | MetaOp::EdgeAdd { .. } | MetaOp::EdgeRemove { .. } => {}
                }
            }
        }
        assert_roundtrips(art);
    }
    assert_eq!(
        kinds,
        OpKind::ALL.into_iter().collect(),
        "an OpAttrs variant was never encoded"
    );
    assert_eq!(
        inits.into_iter().collect::<Vec<_>>(),
        ["crop_pad", "dense", "nested crop_pad", "seeded", "zeros"]
    );
    assert_eq!(
        steps.into_iter().collect::<Vec<_>>(),
        ["add", "edge", "reduce", "replace", "reshape"]
    );
}

/// A few hundred plans' worth of container with synthetic keys: the
/// NASBench artifact's plans repeated under `copies` key prefixes.
fn synthetic_artifact(copies: u64) -> PlanArtifact {
    static BASE: OnceLock<PlanArtifact> = OnceLock::new();
    let base = BASE.get_or_init(|| artifact_of(catalogs()[2].clone()));
    let mut art = PlanArtifact::empty();
    for copy in 0..copies {
        art.entries.extend(
            base.entries
                .iter()
                .enumerate()
                .map(|(i, e)| PlanArtifactEntry {
                    src_hash: copy,
                    dst_hash: i as u64,
                    plan: e.plan.clone(),
                }),
        );
    }
    art
}

/// The small container the hostile-input cases damage.
fn victim() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| synthetic_artifact(1).to_bytes())
}

const HEADER_LEN: usize = 24;
const INDEX_ROW_LEN: usize = 32;

/// Decode `bytes` both ways. Whatever the outcome, nothing may panic and
/// no single allocation may exceed what a count prefix checked against
/// the remaining input allows: elements are at most a few hundred bytes
/// in memory and at least one byte on the wire.
fn decode_hostile(bytes: &[u8]) -> Result<PlanArtifact, PlanArtifactError> {
    let (eager, largest) = largest_request_during(|| {
        if let Ok(view) = PlanArtifactView::from_bytes(bytes.to_vec()) {
            for (src, dst) in view.keys() {
                let _ = view.get(src, dst);
            }
        }
        PlanArtifact::from_bytes(bytes)
    });
    assert!(
        largest <= 512 * bytes.len().max(64),
        "a {largest}-byte allocation while decoding {} bytes",
        bytes.len()
    );
    eager
}

#[test]
fn truncation_at_every_offset_is_malformed_at_load() {
    let bytes = victim();
    assert!(decode_hostile(bytes).is_ok());
    for cut in 0..bytes.len() {
        // Entries run back to back to the end of the input, so any cut
        // is caught on header + index alone — the lazy load sees it too.
        match PlanArtifactView::from_bytes(bytes[..cut].to_vec()) {
            Err(PlanArtifactError::Malformed(_)) => {}
            other => panic!("cut at {cut} of {}: {other:?}", bytes.len()),
        }
    }
}

/// Entry count recorded in the header.
fn row_count(bytes: &[u8]) -> usize {
    u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize
}

/// Index field `f` (key, key, offset, len) of row `row`.
fn index_field(bytes: &[u8], row: usize, f: usize) -> u64 {
    let at = HEADER_LEN + row * INDEX_ROW_LEN + 8 * f;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Offset just past the varint that starts at `at`.
fn skip_varint(bytes: &[u8], mut at: usize) -> usize {
    while bytes[at] & 0x80 != 0 {
        at += 1;
    }
    at + 1
}

/// Offsets, within an encoded plan, of its three count prefixes that size
/// a `Vec`: the first string's length, the mapping's and the steps'
/// counts. Mirrors the field order in `wire.rs`; the mapping is skipped
/// pair by pair, so this works on a plan whose mapping is intact.
fn count_prefix_offsets(plan: &[u8]) -> [usize; 3] {
    let mut at = 0;
    for _ in 0..3 {
        // Names are shorter than 128 bytes: one-byte lengths.
        at += 1 + plan[at] as usize;
    }
    at += 5 * 8;
    for _ in 0..5 {
        at = skip_varint(plan, at);
    }
    let mapping = at;
    let pairs = plan[mapping] as usize;
    assert!(pairs < 128, "one-byte mapping count");
    at += 1;
    for _ in 0..2 * pairs {
        at = skip_varint(plan, at);
    }
    [0, mapping, at]
}

/// Replace the varint at `at` inside entry `entry` with `prefix`, fixing
/// the index up so the container itself stays valid and the entry
/// decoder is what meets the prefix.
fn with_prefix(bytes: &[u8], entry: usize, at: usize, prefix: &[u8]) -> Vec<u8> {
    let rows = row_count(bytes);
    let start = index_field(bytes, entry, 2) as usize + at;
    let old_end = skip_varint(bytes, start);
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(prefix);
    out.extend_from_slice(&bytes[old_end..]);
    let grew = (prefix.len() - (old_end - start)) as u64;
    let mut put = |row: usize, f: usize, v: u64| {
        let at = HEADER_LEN + row * INDEX_ROW_LEN + 8 * f;
        out[at..at + 8].copy_from_slice(&v.to_le_bytes());
    };
    put(entry, 3, index_field(bytes, entry, 3) + grew);
    for row in entry + 1..rows {
        put(row, 2, index_field(bytes, row, 2) + grew);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sub-catalogs of each family round-trip.
    #[test]
    fn random_subcatalogs_roundtrip(
        family in 0usize..4,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 2..5usize),
    ) {
        let pool = &catalogs()[family];
        let mut chosen: Vec<usize> = picks.iter().map(|p| p.index(pool.len())).collect();
        chosen.sort_unstable();
        chosen.dedup();
        prop_assume!(chosen.len() >= 2);
        assert_roundtrips(artifact_of(chosen.into_iter().map(|i| pool[i].clone()).collect()));
    }

    /// Flipped bits anywhere: a typed error or a decodable artifact, and
    /// in header or index always an error.
    #[test]
    fn byte_flips_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..5usize),
        structural in any::<bool>(),
    ) {
        let mut bytes = victim().to_vec();
        let rows = row_count(&bytes);
        let structure = HEADER_LEN + rows * INDEX_ROW_LEN;
        let range = if structural { structure } else { bytes.len() };
        let mut in_structure = false;
        for (at, mask) in &flips {
            let at = at.index(range);
            bytes[at] ^= mask;
            in_structure |= at < structure;
        }
        prop_assume!(bytes != victim());
        match decode_hostile(&bytes) {
            Ok(art) => {
                prop_assert!(!in_structure, "a damaged header or index was accepted");
                prop_assert_eq!(art.len(), rows);
            }
            Err(PlanArtifactError::Malformed(_)) => {}
            Err(PlanArtifactError::UnsupportedVersion { .. })
            | Err(PlanArtifactError::CostModelMismatch { .. }) => {
                prop_assert!(in_structure, "a stamp error from an entry");
            }
        }
    }

    /// A count prefix far beyond the input, at each place the decoder
    /// sizes a `Vec` or a string from one: `Malformed`, with nothing
    /// allocated for it.
    #[test]
    fn oversized_count_prefixes_are_malformed(
        entry in any::<prop::sample::Index>(),
        which in 0usize..3,
        continuation_bytes in 4usize..=9,
    ) {
        let bytes = victim();
        let rows = row_count(bytes);
        let entry = entry.index(rows);
        let start = index_field(bytes, entry, 2) as usize;
        let at = count_prefix_offsets(&bytes[start..])[which];
        // 2^28 .. 2^63: all larger than the input.
        let mut prefix = vec![0xFF; continuation_bytes];
        prefix.push(0x01);
        let hostile = with_prefix(bytes, entry, at, &prefix);
        prop_assert!(
            PlanArtifactView::from_bytes(hostile.clone()).is_ok(),
            "the container is intact"
        );
        prop_assert!(matches!(
            decode_hostile(&hostile),
            Err(PlanArtifactError::Malformed(_))
        ));
    }
}

#[test]
fn header_counts_larger_than_the_input_are_malformed() {
    for count in [u64::MAX, 1 << 40, victim().len() as u64] {
        let mut bytes = victim().to_vec();
        bytes[16..24].copy_from_slice(&count.to_le_bytes());
        assert!(matches!(
            decode_hostile(&bytes),
            Err(PlanArtifactError::Malformed(_))
        ));
    }
}

/// Fastest of `reps` runs of `f`: the minimum is the run that was not
/// preempted, which is what a complexity claim is about.
fn fastest(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[test]
fn decode_time_grows_linearly_with_the_artifact() {
    let small = synthetic_artifact(8).to_bytes();
    let large = synthetic_artifact(32).to_bytes();
    assert!(large.len() > 3 * small.len());
    let decode = |bytes: &[u8]| {
        fastest(15, || {
            std::hint::black_box(PlanArtifact::from_bytes(std::hint::black_box(bytes)).unwrap());
        })
    };
    let load = |bytes: &[u8]| {
        fastest(15, || {
            std::hint::black_box(PlanArtifactView::from_bytes(bytes.to_vec()).unwrap());
        })
    };
    let (small_decode, large_decode) = (decode(&small), decode(&large));
    assert!(
        large_decode <= small_decode * 6,
        "eager decode: {small_decode:?} for {} bytes, {large_decode:?} for {}",
        small.len(),
        large.len()
    );
    // Loading reads header + index only: far cheaper than decoding, and
    // no worse than linear either (floored: it is microseconds).
    let (small_load, large_load) = (load(&small), load(&large));
    assert!(large_load <= small_load.max(Duration::from_micros(50)) * 6);
    assert!(large_load * 4 <= large_decode, "load is not lazy");
}
