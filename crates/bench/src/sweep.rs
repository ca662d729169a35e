//! Deterministic parallel sweep runner.
//!
//! Experiment binaries sweep a grid of independent cells — workload ×
//! policy, bandwidth × policy, case × planner. Each cell is pure (builds
//! its own `Platform`, runs a seeded trace) so the grid parallelizes
//! trivially; the only thing that must *not* change with the thread count
//! is the output. [`run_grid`] guarantees that: results come back in
//! input order regardless of which worker ran which cell and in what
//! interleaving, so the assembled JSON is byte-identical to a sequential
//! run at any `exp --threads` value.
//!
//! Work distribution is a shared atomic cursor (no channels, no work
//! items larger than an index), and workers are scoped threads borrowing
//! the cell slice — nothing is cloned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `run` over every cell of `cells` on `threads` workers, returning
/// results in input order (deterministic for any thread count).
///
/// `threads <= 1` runs sequentially on the calling thread. Worker panics
/// propagate to the caller.
pub fn run_grid<C, R, F>(cells: &[C], threads: usize, run: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    if threads <= 1 || cells.len() <= 1 {
        return cells.iter().map(&run).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(cells.len());
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let result = run(&cells[i]);
                *slots[i].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    })
    .expect("sweep worker panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every cell ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let cells: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8, 200] {
            let out = run_grid(&cells, threads, |&c| c * c);
            assert_eq!(out, cells.iter().map(|c| c * c).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_grids() {
        let none: Vec<u32> = vec![];
        assert!(run_grid(&none, 8, |&c| c).is_empty());
        assert_eq!(run_grid(&[7u32], 8, |&c| c + 1), vec![8]);
    }

    #[test]
    fn workers_share_the_grid_without_skew() {
        // Cells of very different costs still come back in order.
        let cells: Vec<u64> = (0..32)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let seq: Vec<u64> = cells.iter().map(|&c| (0..c).sum()).collect();
        let par = run_grid(&cells, 4, |&c| (0..c).sum::<u64>());
        assert_eq!(par, seq);
    }
}
