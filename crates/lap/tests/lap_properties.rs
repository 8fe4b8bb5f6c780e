//! Property suite for the LAP solver: on random matrices up to 7×7 —
//! square, rectangular, with and without forbidden (∞) entries — the
//! augmenting-path solve must reproduce the brute-force optimum exactly
//! (max cardinality first, then min total cost), its total cost must be
//! invariant under row/column permutation, and repeat solves of the same
//! matrix must return the identical assignment (the pinned tie-break).

use mtshare_lap::solve;
use proptest::prelude::*;

/// Reference solver: enumerates every injective row→column map over the
/// finite entries and returns the (max-cardinality, then min-cost) best.
/// Exponential — the oracle [`solve`] is checked against on small
/// instances.
fn solve_brute_force(n_rows: usize, n_cols: usize, cost: &[f64]) -> (usize, f64) {
    assert_eq!(cost.len(), n_rows * n_cols);
    let mut best_card = 0usize;
    let mut best_cost = 0.0_f64;
    let mut taken = vec![false; n_cols];

    #[allow(clippy::too_many_arguments)]
    fn rec(
        i: usize,
        n_rows: usize,
        n_cols: usize,
        cost: &[f64],
        taken: &mut [bool],
        card: usize,
        acc: f64,
        best_card: &mut usize,
        best_cost: &mut f64,
    ) {
        if i == n_rows {
            if card > *best_card || (card == *best_card && acc < *best_cost) {
                *best_card = card;
                *best_cost = acc;
            }
            return;
        }
        // Row i left unassigned.
        rec(i + 1, n_rows, n_cols, cost, taken, card, acc, best_card, best_cost);
        for j in 0..n_cols {
            let c = cost[i * n_cols + j];
            if !taken[j] && c.is_finite() {
                taken[j] = true;
                rec(i + 1, n_rows, n_cols, cost, taken, card + 1, acc + c, best_card, best_cost);
                taken[j] = false;
            }
        }
    }
    rec(0, n_rows, n_cols, cost, &mut taken, 0, 0.0, &mut best_card, &mut best_cost);
    (best_card, best_cost)
}

/// Draws a row-major matrix: entries are small integer-valued floats so
/// cost comparisons against brute force are exact, and `inf_pct` percent
/// of entries are forbidden.
fn matrix(rows: usize, cols: usize, cells: &[u32], inf_pct: u32) -> Vec<f64> {
    (0..rows * cols)
        .map(|k| {
            let cell = cells[k % cells.len()];
            if cell % 100 < inf_pct {
                f64::INFINITY
            } else {
                f64::from(cell / 100 % 64)
            }
        })
        .collect()
}

/// Applies a permutation to the rows and columns of a matrix. The
/// permutations are derived from seeds by repeated swaps, which reaches
/// every permutation and is deterministic per seed.
fn permuted(
    rows: usize,
    cols: usize,
    m: &[f64],
    row_seed: u64,
    col_seed: u64,
) -> (Vec<f64>, Vec<usize>, Vec<usize>) {
    let perm = |n: usize, mut seed: u64| -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            p.swap(i, j);
        }
        p
    };
    let rp = perm(rows, row_seed);
    let cp = perm(cols, col_seed);
    let mut out = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[i * cols + j] = m[rp[i] * cols + cp[j]];
        }
    }
    (out, rp, cp)
}

/// The assignment must be a valid matching: assigned columns in range
/// and pairwise distinct, and never on a forbidden entry.
fn assert_valid_matching(rows: usize, cols: usize, m: &[f64], sol: &mtshare_lap::LapSolution) {
    assert_eq!(sol.row_to_col.len(), rows);
    let mut seen = vec![false; cols];
    let mut total = 0.0;
    let mut assigned = 0;
    for (i, j) in sol.row_to_col.iter().enumerate() {
        if let Some(j) = *j {
            assert!(j < cols, "column {j} out of range");
            assert!(!seen[j], "column {j} assigned twice");
            seen[j] = true;
            let c = m[i * cols + j];
            assert!(c.is_finite(), "row {i} assigned to forbidden column {j}");
            total += c;
            assigned += 1;
        }
    }
    assert_eq!(assigned, sol.assigned, "assigned count disagrees with matching");
    assert_eq!(total, sol.total_cost, "total_cost disagrees with the matching entries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Square and rectangular matrices with every entry finite: the
    /// solver must reach full-rank cardinality and the brute-force cost.
    #[test]
    fn optimal_on_fully_finite_matrices(
        rows in 1usize..=7,
        cols in 1usize..=7,
        cells in proptest::collection::vec(0u32..100_000, 49..50),
    ) {
        let m = matrix(rows, cols, &cells, 0);
        let sol = solve(rows, cols, &m);
        assert_valid_matching(rows, cols, &m, &sol);
        let (bf_card, bf_cost) = solve_brute_force(rows, cols, &m);
        prop_assert_eq!(sol.assigned, bf_card, "cardinality vs brute force");
        prop_assert_eq!(sol.assigned, rows.min(cols), "finite matrix must assign min(r,c)");
        prop_assert_eq!(sol.total_cost, bf_cost,
            "cost {} vs brute force {} on {}x{} {:?}", sol.total_cost, bf_cost, rows, cols, m);
    }

    /// With forbidden entries mixed in (up to ~60%), the solver must
    /// still find the max-cardinality matching and its minimum cost —
    /// including matrices where some rows are fully forbidden.
    #[test]
    fn optimal_with_forbidden_entries(
        rows in 1usize..=6,
        cols in 1usize..=6,
        inf_pct in 0u32..=60,
        cells in proptest::collection::vec(0u32..100_000, 36..37),
    ) {
        let m = matrix(rows, cols, &cells, inf_pct);
        let sol = solve(rows, cols, &m);
        assert_valid_matching(rows, cols, &m, &sol);
        let (bf_card, bf_cost) = solve_brute_force(rows, cols, &m);
        prop_assert_eq!(sol.assigned, bf_card,
            "cardinality {} vs brute force {} on {:?}", sol.assigned, bf_card, m);
        prop_assert_eq!(sol.total_cost, bf_cost,
            "cost {} vs brute force {} on {:?}", sol.total_cost, bf_cost, m);
    }

    /// Permuting rows and columns permutes the assignment but cannot
    /// change the optimal total cost or cardinality (integer-valued
    /// entries make the f64 totals exactly comparable).
    #[test]
    fn total_cost_invariant_under_permutation(
        rows in 1usize..=6,
        cols in 1usize..=6,
        inf_pct in 0u32..=40,
        row_seed in 0u64..1_000_000,
        col_seed in 0u64..1_000_000,
        cells in proptest::collection::vec(0u32..100_000, 36..37),
    ) {
        let m = matrix(rows, cols, &cells, inf_pct);
        let base = solve(rows, cols, &m);
        let (pm, _, _) = permuted(rows, cols, &m, row_seed, col_seed);
        let perm = solve(rows, cols, &pm);
        prop_assert_eq!(base.assigned, perm.assigned, "cardinality must survive permutation");
        prop_assert_eq!(base.total_cost, perm.total_cost,
            "cost must survive permutation: {} vs {} on {:?} / {:?}",
            base.total_cost, perm.total_cost, m, pm);
    }

    /// The pinned tie-break: solving the same matrix twice returns the
    /// byte-identical assignment, even when many optima exist (coarse
    /// cost quantisation forces frequent ties).
    #[test]
    fn assignment_is_deterministic(
        rows in 1usize..=7,
        cols in 1usize..=7,
        inf_pct in 0u32..=30,
        cells in proptest::collection::vec(0u32..800, 49..50),
    ) {
        let m = matrix(rows, cols, &cells, inf_pct);
        let a = solve(rows, cols, &m);
        let b = solve(rows, cols, &m);
        prop_assert_eq!(&a.row_to_col, &b.row_to_col, "assignment must be reproducible");
        prop_assert_eq!(a.total_cost, b.total_cost);
        prop_assert_eq!(a.stats, b.stats, "solver work must be reproducible");
    }
}
