//! The cost contract of [`NodeStore`] (see its module docs): an operation
//! over a k-chunk list does O(k) work however many chunks are resident,
//! and allocates nothing when the node already knows every id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use optimus_store::{blob_chunks, ChunkRef, NodeStore, StoreConfig};

thread_local! {
    /// Allocations made by this thread (the harness runs tests on
    /// parallel threads, so a process-wide count would see the others).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// with a `const` initialiser and no destructor, so touching it neither
// allocates nor can run during thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` distinct 4 KiB chunks: the chunk list of blob `blob`.
fn chunks(blob: u64, n: u64) -> Vec<ChunkRef> {
    blob_chunks(blob, n * 4096, 4096)
}

#[test]
fn known_ids_under_budget_allocate_nothing() {
    let mut store = NodeStore::new(StoreConfig::default());
    let mut list = chunks(0, 256);
    // Duplicates must not cost a set either.
    list.extend_from_within(..32);
    let other = chunks(1, 64);
    store.pin(&other);
    store.admit(&list);
    store.release(&list);
    let allocated = allocations_during(|| {
        for _ in 0..4 {
            std::hint::black_box(store.estimate(&list));
            std::hint::black_box(store.admit(&list));
            store.produce(&list);
            store.release(&list);
            store.release(&list);
            std::hint::black_box(store.warm(&list));
            store.pin(&other);
            store.unpin(&other);
            std::hint::black_box(store.stats());
        }
    });
    assert_eq!(allocated, 0, "a call over known ids must not allocate");
}

/// Fastest of `reps` admit+release rounds of `list`: the minimum is the
/// run that was not preempted, which is what a complexity claim is about.
fn fastest_round(store: &mut NodeStore, list: &[ChunkRef], reps: usize) -> Duration {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(store.admit(std::hint::black_box(list)));
            store.release(list);
            t0.elapsed()
        })
        .min()
        .expect("at least one round")
}

#[test]
fn admit_release_time_is_independent_of_resident_chunks() {
    let list = chunks(0, 256);
    let mut rounds = Vec::new();
    for resident in [1_000u64, 100_000] {
        // 100k × 4 KiB = 400 MiB: far under the default 8 GiB budget.
        let mut store = NodeStore::new(StoreConfig::default());
        store.warm(&chunks(1, resident));
        store.admit(&list);
        store.release(&list);
        assert_eq!(store.stats().chunks, resident + 256);
        rounds.push(fastest_round(&mut store, &list, 300));
    }
    let (small, large) = (rounds[0], rounds[1]);
    // The rescanning store this replaced summed every resident entry per
    // call and was ≈100× apart here.
    assert!(
        large <= small * 3,
        "256-chunk admit+release: {small:?} beside 1k resident chunks, {large:?} beside 100k"
    );
}
