//! Hungarian (Munkres) algorithm for the linear assignment problem.
//!
//! A from-scratch O(n³) implementation using the potentials/augmenting-path
//! formulation. The basic planner (§4.4 Module 2) runs it on the
//! Riesen–Bunke `(n+m)×(n+m)` edit-cost matrix, exactly as the paper's
//! reference [31] prescribes.
//!
//! [`solve_assignment_flat`] indexes a flat row-major `&[f64]` buffer
//! directly and keeps every working array in a caller-owned
//! [`MunkresScratch`], so repeated solves (the offline plan cache's O(N²)
//! sweep) allocate nothing after the first call. The original
//! `Vec<Vec<f64>>` implementation it replaced lives on as the test oracle
//! in `tests/oracle/`.

/// Reusable working memory for [`solve_assignment_flat`].
///
/// One scratch serves any sequence of solves; its buffers grow to the
/// largest dimension seen and are reused (never shrunk) afterwards, so a
/// planning sweep over a whole model catalog performs exactly one
/// allocation burst on its largest matrix.
#[derive(Debug, Default)]
pub struct MunkresScratch {
    /// Row potentials `u[0..=n]`.
    u: Vec<f64>,
    /// Column potentials `v[0..=n]`.
    v: Vec<f64>,
    /// `p[j]`: row currently matched to column `j` (0 = unmatched).
    p: Vec<usize>,
    /// Augmenting-path back-pointers.
    way: Vec<usize>,
    /// Per-column minimum reduced cost of the current row's search tree.
    minv: Vec<f64>,
    /// Columns already in the search tree.
    used: Vec<bool>,
    /// Output assignment, row → column.
    assignment: Vec<usize>,
    /// How many times the buffers had to (re)allocate — 0 fresh, 1 after
    /// the first solve, and still 1 after any number of same-or-smaller
    /// solves (asserted by tests).
    grows: usize,
}

impl MunkresScratch {
    /// Empty scratch; the first solve sizes it.
    pub fn new() -> Self {
        MunkresScratch::default()
    }

    /// Scratch pre-sized for `n×n` solves (no allocation on first use).
    pub fn with_capacity(n: usize) -> Self {
        let mut s = MunkresScratch::default();
        s.grow_to(n);
        s.grows = 0;
        s
    }

    /// Number of allocation events since construction.
    pub fn allocations(&self) -> usize {
        self.grows
    }

    fn grow_to(&mut self, n: usize) {
        if self.u.len() < n + 1 {
            self.u.resize(n + 1, 0.0);
            self.v.resize(n + 1, 0.0);
            self.p.resize(n + 1, 0);
            self.way.resize(n + 1, 0);
            self.minv.resize(n + 1, 0.0);
            self.used.resize(n + 1, false);
            self.assignment.resize(n, 0);
            self.grows += 1;
        }
    }

    /// Reset the per-solve state for an `n×n` problem without shrinking.
    fn reset(&mut self, n: usize) {
        self.grow_to(n);
        self.u[..=n].fill(0.0);
        self.v[..=n].fill(0.0);
        self.p[..=n].fill(0);
        self.way[..=n].fill(0);
        self.assignment.resize(n, usize::MAX);
        self.assignment[..n].fill(usize::MAX);
    }
}

/// Solve the square assignment problem on a flat row-major cost buffer:
/// `costs[i * n + j]` is the cost of assigning row `i` to column `j`.
/// Returns the minimising assignment as a slice borrowed from `scratch`
/// (`assignment[i] = j`); copy it out before the next solve.
///
/// Costs may include large "forbidden" sentinels; the solver only requires
/// that at least one finite-total assignment exists (always true for edit
/// matrices, where the diagonal delete/insert entries are finite).
///
/// # Panics
///
/// Panics when `costs.len() != n * n`.
pub fn solve_assignment_flat<'a>(
    costs: &[f64],
    n: usize,
    scratch: &'a mut MunkresScratch,
) -> &'a [usize] {
    assert_eq!(costs.len(), n * n, "flat cost buffer must be n×n");
    scratch.reset(n);
    if n == 0 {
        return &scratch.assignment;
    }
    // Borrow the working arrays as local slices once: keeps the hot loops
    // free of repeated field loads (base pointers stay in registers).
    let u = &mut scratch.u[..=n];
    let v = &mut scratch.v[..=n];
    let p = &mut scratch.p[..=n];
    let way = &mut scratch.way[..=n];
    let minv = &mut scratch.minv[..=n];
    let used = &mut scratch.used[..=n];
    // Potentials-based Hungarian algorithm, 1-indexed internally, with
    // flat indexing and no per-row allocations.
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        minv.fill(f64::INFINITY);
        used.fill(false);
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let row = &costs[(i0 - 1) * n..i0 * n];
            let u_i0 = u[i0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = row[j - 1] - u_i0 - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    for (j, &pj) in p.iter().enumerate().take(n + 1).skip(1) {
        if pj != 0 {
            scratch.assignment[pj - 1] = j - 1;
        }
    }
    &scratch.assignment
}

/// Total cost of an assignment under a cost matrix.
#[cfg(test)]
pub(crate) fn assignment_cost(cost: &[Vec<f64>], assignment: &[usize]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[i][j])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_min(cost: &[Vec<f64>]) -> f64 {
        let n = cost.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best = f64::INFINITY;
        permute(&mut perm, 0, &mut |p| {
            let c: f64 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            if c < best {
                best = c;
            }
        });
        best
    }

    fn permute(arr: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == arr.len() {
            f(arr);
            return;
        }
        for i in k..arr.len() {
            arr.swap(k, i);
            permute(arr, k + 1, f);
            arr.swap(k, i);
        }
    }

    fn flatten(cost: &[Vec<f64>]) -> Vec<f64> {
        cost.iter().flat_map(|r| r.iter().copied()).collect()
    }

    fn solve_flat(cost: &[Vec<f64>]) -> Vec<usize> {
        let mut scratch = MunkresScratch::new();
        solve_assignment_flat(&flatten(cost), cost.len(), &mut scratch).to_vec()
    }

    #[test]
    fn trivial_identity() {
        let cost = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let a = solve_flat(&cost);
        assert_eq!(a, vec![0, 1]);
        assert_eq!(assignment_cost(&cost, &a), 2.0);
    }

    #[test]
    fn off_diagonal_optimum() {
        let cost = vec![vec![10.0, 1.0], vec![1.0, 10.0]];
        assert_eq!(solve_flat(&cost), vec![1, 0]);
    }

    #[test]
    fn matches_brute_force_on_random_matrices() {
        // Deterministic pseudo-random matrices via a simple LCG.
        let mut state: u64 = 0xDEADBEEF;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64
        };
        let mut scratch = MunkresScratch::new();
        for n in 2..=7 {
            for _ in 0..20 {
                let cost: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..n).map(|_| next() * 10.0).collect())
                    .collect();
                let a = solve_assignment_flat(&flatten(&cost), n, &mut scratch).to_vec();
                // Assignment is a permutation.
                let mut seen = vec![false; n];
                for &j in &a {
                    assert!(!seen[j], "duplicate column");
                    seen[j] = true;
                }
                let got = assignment_cost(&cost, &a);
                let want = brute_force_min(&cost);
                assert!(
                    (got - want).abs() < 1e-9,
                    "n={n}: got {got}, optimal {want}"
                );
            }
        }
    }

    #[test]
    fn handles_forbidden_sentinels() {
        const BIG: f64 = 1e12;
        let cost = vec![
            vec![BIG, 1.0, BIG],
            vec![2.0, BIG, BIG],
            vec![BIG, BIG, 3.0],
        ];
        assert_eq!(solve_flat(&cost), vec![1, 0, 2]);
    }

    #[test]
    fn empty_matrix() {
        let mut scratch = MunkresScratch::new();
        assert!(solve_assignment_flat(&[], 0, &mut scratch).is_empty());
    }

    #[test]
    fn single_element() {
        assert_eq!(solve_flat(&[vec![5.0]]), vec![0]);
    }

    #[test]
    fn scratch_allocates_once_across_repeated_solves() {
        // A 64×64 solve repeated many times must reuse one scratch: one
        // allocation event total (the first grow), zero afterwards.
        let n = 64;
        let mut state: u64 = 7;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64
        };
        let costs: Vec<f64> = (0..n * n).map(|_| next() * 100.0).collect();
        let mut scratch = MunkresScratch::new();
        assert_eq!(scratch.allocations(), 0);
        for _ in 0..10 {
            let a = solve_assignment_flat(&costs, n, &mut scratch);
            assert_eq!(a.len(), n);
        }
        assert_eq!(scratch.allocations(), 1, "exactly one grow for 10 solves");
        // Smaller problems fit in the same buffers.
        let small: Vec<f64> = (0..9).map(|i| i as f64).collect();
        solve_assignment_flat(&small, 3, &mut scratch);
        assert_eq!(scratch.allocations(), 1);
        // Pre-sized scratch never allocates at all.
        let mut sized = MunkresScratch::with_capacity(n);
        solve_assignment_flat(&costs, n, &mut sized);
        assert_eq!(sized.allocations(), 0);
    }
}
