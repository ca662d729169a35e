//! Stateful model test of [`NodeStore`]: random operation sequences are
//! applied to the production store and to the rescanning reference
//! implementation ([`oracle`]) side by side, and after every step both
//! must agree on every observable — and the production store's ledger
//! must equal a recount of its own entries.
//!
//! Lists deliberately contain duplicate ids and ids the node has never
//! seen, and the budgets are a few chunks wide, so dedup, demotion to
//! disk and forgetting to remote all fire constantly.

mod oracle;

use optimus_store::{blob_chunks, ChunkRef, NodeStore, StoreConfig};
use proptest::prelude::*;

/// Chunk ids the sequences draw from.
const UNIVERSE: u64 = 40;

/// Chunk `i` of the universe: a content-addressed id (blob `i`'s only
/// chunk) and a size that differs between neighbours.
fn chunk(i: u64) -> ChunkRef {
    let bytes = 256 + 64 * (i % 13);
    blob_chunks(i, bytes, bytes)[0]
}

/// Every universe chunk, each of the first eight twice, plus four ids no
/// sequence ever touches (one of them twice): `estimate` must dedup ids
/// it has no entry for.
fn probe() -> Vec<ChunkRef> {
    (0..UNIVERSE)
        .chain(0..8)
        .chain(UNIVERSE..UNIVERSE + 4)
        .chain([UNIVERSE])
        .map(chunk)
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Admit,
    Produce,
    Warm,
    Release,
    Pin,
    Unpin,
    Crash,
}

/// Admissions and releases dominate, as they do in the simulator.
const OPS: [Op; 12] = [
    Op::Admit,
    Op::Admit,
    Op::Admit,
    Op::Release,
    Op::Release,
    Op::Release,
    Op::Produce,
    Op::Warm,
    Op::Warm,
    Op::Pin,
    Op::Unpin,
    Op::Crash,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn production_store_matches_the_rescanning_oracle(
        memory_chunks in 0u64..24,
        disk_chunks in 0u64..24,
        steps in prop::collection::vec(
            (0usize..OPS.len(), prop::collection::vec(0u64..UNIVERSE, 0..14)),
            1..90,
        ),
    ) {
        let config = StoreConfig {
            chunk_bytes: 1024,
            node_memory_bytes: memory_chunks * 512,
            node_disk_bytes: disk_chunks * 512,
            ..StoreConfig::default()
        };
        let mut store = NodeStore::new(config);
        let mut model = oracle::NodeStore::new(config);
        prop_assert_eq!(store.config(), model.config());
        let probe = probe();
        for (step, (op, ids)) in steps.into_iter().enumerate() {
            let op = OPS[op];
            let list: Vec<ChunkRef> = ids.into_iter().map(chunk).collect();
            let at = format!("step {step}: {op:?} {list:?}");
            match op {
                Op::Admit => prop_assert_eq!(store.admit(&list), model.admit(&list), "{}", at),
                Op::Produce => {
                    store.produce(&list);
                    model.produce(&list);
                }
                Op::Warm => prop_assert_eq!(store.warm(&list), model.warm(&list), "{}", at),
                Op::Release => {
                    store.release(&list);
                    model.release(&list);
                }
                Op::Pin => {
                    store.pin(&list);
                    model.pin(&list);
                }
                Op::Unpin => {
                    store.unpin(&list);
                    model.unpin(&list);
                }
                Op::Crash => prop_assert_eq!(store.crash(), model.crash(), "{}", at),
            }
            prop_assert_eq!(store.stats(), model.stats(), "{}", at);
            prop_assert_eq!(store.estimate(&list), model.estimate(&list), "{}", at);
            prop_assert_eq!(store.estimate(&probe), model.estimate(&probe), "{}", at);
            // Ledger == recount per tier (hence Σ ledger == Σ entry bytes),
            // and referenced ⇔ at Container — so nothing a release left
            // unreferenced is still counted as container-resident.
            if let Err(violation) = store.check_invariants() {
                prop_assert!(false, "{}: {}", at, violation);
            }
            // A clone is a second store, not a view: same observables.
            if step % 16 == 0 {
                let copy = store.clone();
                prop_assert_eq!(copy.stats(), store.stats());
                prop_assert_eq!(copy.estimate(&probe), store.estimate(&probe));
            }
        }
    }
}
