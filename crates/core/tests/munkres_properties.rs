//! Property tests of the flat-buffer Hungarian kernel: on random square
//! matrices (≤7×7, brute-force-checkable) the flat solver must agree with
//! the nested-`Vec` reference implementation ([`oracle`]) and with exhaustive
//! permutation search; at the planner level, [`MunkresPlanner`] must match
//! the [`BruteForcePlanner`] oracle on tiny model pairs.

mod oracle;

use optimus_core::{
    solve_assignment_flat, BruteForcePlanner, CostMatrix, MunkresPlanner, MunkresScratch, Planner,
};
use optimus_model::{Activation, GraphBuilder, ModelGraph};
use optimus_profile::{CostModel, CostProvider};
use oracle::solve_assignment;
use proptest::prelude::*;

fn total_cost(cost: &[Vec<f64>], assignment: &[usize]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[i][j])
        .sum()
}

fn brute_force_min(cost: &[Vec<f64>]) -> f64 {
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
    let n = cost.len();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    permute(&mut perm, 0, &mut |p| {
        let c = total_cost(cost, p);
        if c < best {
            best = c;
        }
    });
    best
}

/// A tiny conv net with `convs` conv+relu blocks (1 + 2·convs ops), small
/// enough for the factorial brute-force planner.
fn tiny_model(name: &str, convs: usize, channels: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let mut x = b.input([1, 3, 8, 8]);
    let mut ch = 3;
    for _ in 0..convs {
        x = b.conv2d_after(x, ch, channels, (3, 3), (1, 1), 1);
        x = b.activation_after(x, Activation::Relu);
        ch = channels;
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flat kernel == nested reference == exhaustive optimum, on random
    /// matrices up to 7×7.
    #[test]
    fn flat_solver_matches_nested_and_brute_force(
        n in 1usize..=7,
        vals in prop::collection::vec(0.0f64..100.0, 49),
    ) {
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| vals[i * n..(i + 1) * n].to_vec())
            .collect();
        let flat: Vec<f64> = vals[..n * n].to_vec();
        let nested_assignment = solve_assignment(&cost);
        let mut scratch = MunkresScratch::new();
        let flat_assignment = solve_assignment_flat(&flat, n, &mut scratch).to_vec();
        // Both must be permutations of 0..n.
        let mut seen = vec![false; n];
        for &j in &flat_assignment {
            prop_assert!(j < n && !seen[j], "flat output is not a permutation");
            seen[j] = true;
        }
        let nested_cost = total_cost(&cost, &nested_assignment);
        let flat_cost = total_cost(&cost, &flat_assignment);
        let optimal = brute_force_min(&cost);
        prop_assert!((flat_cost - nested_cost).abs() < 1e-9,
            "flat {flat_cost} vs nested {nested_cost}");
        prop_assert!((flat_cost - optimal).abs() < 1e-9,
            "flat {flat_cost} vs optimal {optimal}");
    }

    /// Sentinel-laden matrices (forbidden assignments) are handled
    /// identically by both kernels.
    #[test]
    fn flat_solver_handles_sentinels(
        n in 2usize..=6,
        vals in prop::collection::vec(0.0f64..50.0, 36),
        mask in prop::collection::vec(0u8..4, 36),
    ) {
        const BIG: f64 = 1.0e9;
        // Forbid ~1/4 of the cells but keep the diagonal finite so a
        // finite assignment always exists.
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i != j && mask[i * n + j] == 0 {
                            BIG
                        } else {
                            vals[i * n + j]
                        }
                    })
                    .collect()
            })
            .collect();
        let flat: Vec<f64> = cost.iter().flat_map(|r| r.iter().copied()).collect();
        let nested_assignment = solve_assignment(&cost);
        let mut scratch = MunkresScratch::new();
        let flat_assignment = solve_assignment_flat(&flat, n, &mut scratch).to_vec();
        let a = total_cost(&cost, &nested_assignment);
        let b = total_cost(&cost, &flat_assignment);
        prop_assert!((a - b).abs() < 1e-6, "nested {a} vs flat {b}");
    }

}

proptest! {
    // The factorial oracle is expensive (k! permutations per case); keep
    // the case count small and the pairs at k = n + m ≤ 8.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Munkres planner (flat kernel) stays optimal against the
    /// factorial brute-force oracle on tiny model pairs.
    ///
    /// The exact equality holds on the Riesen–Bunke matrix, where both
    /// search: the flat kernel's assignment cost must equal the
    /// exhaustive permutation minimum. Assembled plan totals additionally
    /// include edge-reconciliation steps, which depend on how matrix-cost
    /// ties are broken, so they are compared with edge-cost slack.
    #[test]
    fn munkres_planner_matches_brute_force_oracle(
        shape in prop::sample::select(vec![(1usize, 1usize), (1, 2), (2, 1)]),
        src_ch in 4usize..=16,
        dst_ch in 4usize..=16,
    ) {
        let (src_convs, dst_convs) = shape;
        let src = tiny_model("src", src_convs, src_ch);
        let dst = tiny_model("dst", dst_convs, dst_ch);
        let cost = CostModel::default();
        // Kernel-level optimality on the real edit matrix.
        let matrix = CostMatrix::build(&src, &dst, &cost);
        let k = matrix.dim();
        let nested = oracle::nested(&matrix);
        let mut scratch = MunkresScratch::new();
        let assignment = solve_assignment_flat(&matrix.costs, k, &mut scratch).to_vec();
        let kernel_cost = total_cost(&nested, &assignment);
        let optimal = brute_force_min(&nested);
        prop_assert!(
            (kernel_cost - optimal).abs() < 1e-9,
            "kernel {kernel_cost} vs exhaustive {optimal}"
        );
        // Plan-level agreement up to edge tie-breaking.
        let munkres = MunkresPlanner.plan(&src, &dst, &cost);
        let oracle = BruteForcePlanner.plan(&src, &dst, &cost);
        let edge_slack =
            cost.edge_cost() * (src.edges().count() + dst.edges().count() + 1) as f64;
        prop_assert!(
            (munkres.cost.total() - oracle.cost.total()).abs() <= edge_slack + 1e-9,
            "munkres {} vs oracle {} (slack {edge_slack})",
            munkres.cost.total(),
            oracle.cost.total()
        );
    }
}
