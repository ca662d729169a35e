//! The Riesen–Bunke edit-cost matrix (§4.4 Module 2, Figure 10).
//!
//! For a source model with `n` operations and a destination model with `m`
//! operations, the `(n+m)×(n+m)` matrix is laid out as
//!
//! ```text
//!        ┌───────────────┬──────────────┐
//!        │ substitution  │  deletion    │   n rows
//!        │   c(i, j)     │  c(i, ε)     │
//!        ├───────────────┼──────────────┤
//!        │ insertion     │      0       │   m rows
//!        │   c(ε, j)     │              │
//!        └───────────────┴──────────────┘
//!            m cols           n cols
//! ```
//!
//! where substitution is `Reshape`+`Replace` (or cheaper), deletion is
//! `Reduce`, and insertion is `Add`. Impossible substitutions (different
//! operation kinds) and off-diagonal delete/insert cells carry a large
//! finite sentinel so the Hungarian solver never picks them.
//!
//! The costs live in a single flat row-major buffer (`costs[i * dim + j]`)
//! so the Hungarian kernel walks contiguous rows with no pointer chasing
//! and the whole matrix is one allocation.

use optimus_model::{ModelGraph, OpId};
use optimus_profile::CostProvider;

/// Sentinel for forbidden assignments; large but finite so potentials
/// arithmetic stays well-behaved.
pub(crate) const FORBIDDEN: f64 = 1.0e9;

/// The edit-cost matrix plus the op-id orderings it was built from.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    /// `(n+m)×(n+m)` costs, flat row-major: entry `(i, j)` is
    /// `costs[i * dim + j]` (see [`CostMatrix::at`]).
    pub costs: Vec<f64>,
    /// Side length `n + m`.
    dim: usize,
    /// Source op ids in row order (first `n` rows).
    pub src_ids: Vec<OpId>,
    /// Destination op ids in column order (first `m` columns).
    pub dst_ids: Vec<OpId>,
}

impl CostMatrix {
    /// Build the matrix for transforming `src` into `dst` under `cost`.
    pub fn build(src: &ModelGraph, dst: &ModelGraph, cost: &impl CostProvider) -> CostMatrix {
        let src_ids = src.op_ids();
        let dst_ids = dst.op_ids();
        let n = src_ids.len();
        let m = dst_ids.len();
        let k = n + m;
        let mut costs = vec![FORBIDDEN; k * k];
        for (i, &sid) in src_ids.iter().enumerate() {
            let sop = src.op(sid).expect("src id");
            let row = &mut costs[i * k..(i + 1) * k];
            // Substitution block.
            for (j, &did) in dst_ids.iter().enumerate() {
                let dop = dst.op(did).expect("dst id");
                if let Some(c) = cost.substitute_cost(sop, dop) {
                    row[j] = c;
                }
            }
            // Deletion block: row i may map to column m+i only.
            row[m + i] = cost.reduce_cost(&sop.attrs);
        }
        for (j, &did) in dst_ids.iter().enumerate() {
            let dop = dst.op(did).expect("dst id");
            // Insertion block: row n+j may map to column j only.
            costs[(n + j) * k + j] = cost.add_cost(&dop.attrs);
        }
        // Bottom-right block: ε→ε is free.
        for i in 0..m {
            costs[(n + i) * k + m..(n + i) * k + k].fill(0.0);
        }
        CostMatrix {
            costs,
            dim: k,
            src_ids,
            dst_ids,
        }
    }

    /// Cost entry `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.costs[i * self.dim + j]
    }

    /// Side length of the square matrix (`n + m`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of source operations `n`.
    pub fn n(&self) -> usize {
        self.src_ids.len()
    }

    /// Number of destination operations `m`.
    pub fn m(&self) -> usize {
        self.dst_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_model::{Activation, GraphBuilder};
    use optimus_profile::CostModel;

    fn tiny(name: &str, convs: usize) -> ModelGraph {
        let mut b = GraphBuilder::new(name);
        let mut x = b.input([1, 3, 8, 8]);
        let mut ch = 3;
        for _ in 0..convs {
            x = b.conv2d_after(x, ch, 8, (3, 3), (1, 1), 1);
            x = b.activation_after(x, Activation::Relu);
            ch = 8;
        }
        b.finish().unwrap()
    }

    #[test]
    fn matrix_dimensions() {
        let a = tiny("a", 1); // 3 ops
        let b = tiny("b", 2); // 5 ops
        let m = CostMatrix::build(&a, &b, &CostModel::default());
        assert_eq!(m.n(), 3);
        assert_eq!(m.m(), 5);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.costs.len(), 64, "flat buffer holds dim² entries");
    }

    #[test]
    fn blocks_have_expected_structure() {
        let a = tiny("a", 1);
        let b = tiny("b", 1);
        let cm = CostMatrix::build(&a, &b, &CostModel::default());
        let (n, m) = (cm.n(), cm.m());
        // Deletion block: diagonal finite, off-diagonal forbidden.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    assert!(cm.at(i, m + j) < FORBIDDEN);
                } else {
                    assert_eq!(cm.at(i, m + j), FORBIDDEN);
                }
            }
        }
        // Insertion block: diagonal finite.
        for j in 0..m {
            assert!(cm.at(n + j, j) < FORBIDDEN);
        }
        // Bottom-right block all zeros.
        for i in 0..m {
            for j in 0..n {
                assert_eq!(cm.at(n + i, m + j), 0.0);
            }
        }
    }

    #[test]
    fn cross_kind_substitution_forbidden() {
        let a = tiny("a", 1);
        let b = tiny("b", 1);
        let cm = CostMatrix::build(&a, &b, &CostModel::default());
        // Find a conv row and an activation column.
        let conv_row = cm
            .src_ids
            .iter()
            .position(|id| a.op(*id).unwrap().kind() == optimus_model::OpKind::Conv2d)
            .unwrap();
        let act_col = cm
            .dst_ids
            .iter()
            .position(|id| b.op(*id).unwrap().kind() == optimus_model::OpKind::Activation)
            .unwrap();
        assert_eq!(cm.at(conv_row, act_col), FORBIDDEN);
    }
}
