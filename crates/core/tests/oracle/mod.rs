//! Test-only reference solver: the nested-`Vec` Hungarian kernel as it
//! stood in `src/munkres.rs` at commit 8f1dde3, verbatim apart from its
//! doc comment, plus the `Vec<Vec<f64>>` view of a [`CostMatrix`] it
//! takes. It allocates per row and per solve, which is why the planners
//! use the flat kernel — and it is simple enough to believe, which is why
//! the flat kernel is checked against it.

use optimus_core::CostMatrix;

/// `matrix.costs` as one `Vec` per row.
pub fn nested(matrix: &CostMatrix) -> Vec<Vec<f64>> {
    matrix
        .costs
        .chunks(matrix.dim())
        .map(<[f64]>::to_vec)
        .collect()
}

/// Solve the square assignment problem: `cost[i][j]` is the cost of
/// assigning row `i` to column `j`; returns `assignment[i] = j` minimising
/// the total cost.
///
/// # Panics
///
/// Panics when the matrix is not square or is empty rows-wise with
/// inconsistent columns.
pub fn solve_assignment(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    for row in cost {
        assert_eq!(row.len(), n, "assignment matrix must be square");
    }
    // Potentials-based Hungarian algorithm, 1-indexed internally.
    // u[i], v[j] potentials; p[j] = row matched to column j.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j]: row assigned to column j (0 = none)
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
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
    let mut assignment = vec![usize::MAX; n];
    for j in 1..=n {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    assignment
}
