//! Rectangular linear assignment (LAP) solver: Kuhn–Munkres with the
//! Jonker–Volgenant shortest-augmenting-path search, zero dependencies.
//!
//! Given an `n_rows × n_cols` cost matrix, finds a matching of rows to
//! columns that **first** maximises the number of assigned rows over the
//! finite-cost entries and **then** minimises the total cost of the
//! assigned pairs. Entries set to [`f64::INFINITY`] are *forbidden*: they
//! are never assigned, no matter how that limits cardinality. Rows with
//! no finite entry (or crowded out by the matrix shape) come back
//! unassigned rather than failing the whole solve — exactly what a
//! rolling-horizon dispatcher needs, where an unmatched request simply
//! rolls into the next window.
//!
//! The implementation is the classic O(rows · cols²) successive
//! shortest-augmenting-path scheme with dual potentials: each row is
//! inserted by a Dijkstra-like scan over reduced costs, potentials are
//! updated so reduced costs stay non-negative, and the matching is
//! augmented along the predecessor chain. Two transformations make the
//! search exact on the relaxed problem:
//!
//! - Negative finite costs are shifted out before the search (a uniform
//!   shift moves every equal-cardinality matching by the same amount, so
//!   the argmin is unchanged); totals are reported from the *original*
//!   entries.
//! - "Leave this row unassigned" is modelled explicitly: the matrix is
//!   padded with one dummy column per row, usable only by that row, at a
//!   penalty `L` larger than any achievable real total. Every row is
//!   then assignable, which is the regime where shortest-augmenting-path
//!   insertion is provably optimal — a plain insertion loop that merely
//!   *skips* stuck rows keeps whatever early rows it happened to match
//!   and is not cost-optimal about **which** rows miss out when the
//!   matrix is row-heavy or riddled with forbidden entries.
//!
//! # Determinism
//!
//! The solve is a pure function of the matrix: no randomisation, no
//! iteration over hash containers. The tie-break rule is pinned and
//! relied on by the simulator's trace-equivalence guarantees:
//!
//! - rows are inserted in increasing row index,
//! - the scan visits columns in increasing column index and accepts a
//!   new minimum only on a strict `<`, so among equal-cost alternatives
//!   the lowest column index wins.
//!
//! The *total cost* is invariant under row/column permutation of the
//! input (up to the exact f64 summation order); the assignment itself is
//! only pinned relative to a fixed input layout.

/// Sentinel for "this row/column is unmatched" in the internal tables.
const UNASSIGNED: usize = usize::MAX;

/// Cheap operation counters from one solve, for profiling surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LapStats {
    /// Successful augmentations — equals the number of assigned rows.
    pub augmentations: u64,
    /// Inner-loop edge relaxations performed by the Dijkstra scans.
    pub relaxations: u64,
    /// Rows left unassigned (no augmenting path over finite entries).
    pub skipped_rows: u64,
}

/// Result of [`solve`]: the matching, its cost and the solver counters.
#[derive(Debug, Clone, PartialEq)]
pub struct LapSolution {
    /// `row_to_col[i]` is the column assigned to row `i`, if any.
    pub row_to_col: Vec<Option<usize>>,
    /// Sum of the original matrix entries over the assigned pairs.
    pub total_cost: f64,
    /// Number of assigned rows (the matching cardinality).
    pub assigned: usize,
    /// Operation counters for profiling.
    pub stats: LapStats,
}

/// Solves the rectangular assignment problem over `cost`, a row-major
/// `n_rows × n_cols` matrix. `f64::INFINITY` entries are forbidden;
/// every finite entry must be a non-NaN real.
///
/// Returns the maximum-cardinality, minimum-total-cost matching under
/// the pinned tie-break rule (see the crate docs).
///
/// # Panics
///
/// Panics if `cost.len() != n_rows * n_cols` or any entry is NaN.
pub fn solve(n_rows: usize, n_cols: usize, cost: &[f64]) -> LapSolution {
    assert_eq!(cost.len(), n_rows * n_cols, "cost matrix must be row-major {n_rows}x{n_cols}");
    assert!(!cost.iter().any(|c| c.is_nan()), "cost matrix entries must not be NaN");

    let mut stats = LapStats::default();
    if n_rows == 0 || n_cols == 0 {
        return LapSolution { row_to_col: vec![None; n_rows], total_cost: 0.0, assigned: 0, stats };
    }

    // Uniform shift so every finite reduced cost starts non-negative.
    // All equal-cardinality matchings move by the same amount, so the
    // optimal assignment is unchanged; totals use the original entries.
    let shift = cost.iter().copied().filter(|c| c.is_finite()).fold(0.0_f64, f64::min);
    // Dummy-column penalty: strictly more than any achievable real total
    // after the shift, so the solver drops a real assignment only when
    // it is genuinely infeasible (cardinality first, cost second).
    let mut penalty = 1.0_f64;
    for i in 0..n_rows {
        let row_max = cost[i * n_cols..(i + 1) * n_cols]
            .iter()
            .copied()
            .filter(|c| c.is_finite())
            .fold(0.0_f64, f64::max);
        penalty += row_max - shift;
    }
    // Padded width: real columns, then one private dummy column per row.
    let w = n_cols + n_rows;
    let at = |i: usize, j: usize| -> f64 {
        if j < n_cols {
            let c = cost[i * n_cols + j];
            if c.is_finite() {
                c - shift
            } else {
                f64::INFINITY
            }
        } else if j - n_cols == i {
            penalty
        } else {
            f64::INFINITY
        }
    };

    // Dual potentials. Index `w` is the virtual start column that
    // anchors the row currently being inserted.
    let mut u = vec![0.0_f64; n_rows];
    let mut v = vec![0.0_f64; w + 1];
    let mut col_row = vec![UNASSIGNED; w + 1];

    let mut minv = vec![0.0_f64; w];
    let mut way = vec![w; w];
    let mut used = vec![false; w + 1];

    for i in 0..n_rows {
        col_row[w] = i;
        minv.iter_mut().for_each(|m| *m = f64::INFINITY);
        way.iter_mut().for_each(|x| *x = w);
        used.iter_mut().for_each(|s| *s = false);

        let mut j0 = w;
        let free_col = loop {
            used[j0] = true;
            let i0 = col_row[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = w;
            for j in 0..w {
                if used[j] {
                    continue;
                }
                let c = at(i0, j);
                if c.is_finite() {
                    stats.relaxations += 1;
                    let cur = c - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            if !delta.is_finite() {
                // Unreachable thanks to the dummy columns (every row can
                // always fall back to its own), kept as a hard stop so a
                // future refactor cannot silently loop forever.
                break UNASSIGNED;
            }
            for j in 0..=w {
                if used[j] {
                    u[col_row[j]] += delta;
                    v[j] -= delta;
                } else if minv[j].is_finite() {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if col_row[j0] == UNASSIGNED {
                break j0;
            }
        };

        if free_col == UNASSIGNED {
            stats.skipped_rows += 1;
            continue;
        }
        let mut j = free_col;
        loop {
            let jp = way[j];
            col_row[j] = col_row[jp];
            j = jp;
            if j == w {
                break;
            }
        }
    }

    let mut row_to_col = vec![None; n_rows];
    let mut total = 0.0_f64;
    let mut assigned = 0usize;
    for (j, &r) in col_row.iter().take(n_cols).enumerate() {
        if r != UNASSIGNED {
            row_to_col[r] = Some(j);
            assigned += 1;
        }
    }
    for (i, j) in row_to_col.iter().enumerate() {
        if let Some(j) = j {
            total += cost[i * n_cols + j];
        }
    }
    stats.augmentations = assigned as u64;
    stats.skipped_rows += (n_rows - assigned) as u64;
    LapSolution { row_to_col, total_cost: total, assigned, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let s = solve(0, 0, &[]);
        assert_eq!(s.assigned, 0);
        assert_eq!(s.total_cost, 0.0);
        let s = solve(2, 0, &[]);
        assert_eq!(s.row_to_col, vec![None, None]);
    }

    #[test]
    fn identity_diagonal() {
        // Strong diagonal preference.
        let inf = f64::INFINITY;
        let c = [1.0, inf, inf, inf, 2.0, inf, inf, inf, 3.0];
        let s = solve(3, 3, &c);
        assert_eq!(s.row_to_col, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(s.total_cost, 6.0);
        assert_eq!(s.assigned, 3);
    }

    #[test]
    fn classic_square() {
        // Known optimum 5 + 4 + 2 = 11 for this 3x3.
        let c = [8.0, 5.0, 9.0, 4.0, 3.0, 7.0, 6.0, 8.0, 2.0];
        let s = solve(3, 3, &c);
        assert_eq!(s.assigned, 3);
        assert_eq!(s.total_cost, 11.0);
        assert_eq!(s.row_to_col, vec![Some(1), Some(0), Some(2)]);
    }

    #[test]
    fn rectangular_more_rows_than_cols() {
        let c = [1.0, 10.0, 10.0, 1.0, 5.0, 5.0];
        let s = solve(3, 2, &c);
        assert_eq!(s.assigned, 2);
        assert_eq!(s.total_cost, 2.0);
        assert_eq!(s.row_to_col, vec![Some(0), Some(1), None]);
        assert_eq!(s.stats.skipped_rows, 1);
    }

    #[test]
    fn infeasible_row_is_skipped_not_fatal() {
        let inf = f64::INFINITY;
        let c = [inf, inf, 3.0, 4.0];
        let s = solve(2, 2, &c);
        assert_eq!(s.row_to_col, vec![None, Some(0)]);
        assert_eq!(s.total_cost, 3.0);
        assert_eq!(s.stats.skipped_rows, 1);
    }

    #[test]
    fn cardinality_beats_cost() {
        // Assigning both rows costs 100+100; assigning only row 0 would
        // cost 1. Max cardinality must win.
        let inf = f64::INFINITY;
        let c = [1.0, 100.0, inf, 100.0];
        let s = solve(2, 2, &c);
        assert_eq!(s.assigned, 2);
        assert_eq!(s.row_to_col, vec![Some(0), Some(1)]);
        assert_eq!(s.total_cost, 101.0);
    }

    #[test]
    fn negative_costs_are_exact() {
        let c = [-5.0, 0.0, 0.0, -5.0];
        let s = solve(2, 2, &c);
        assert_eq!(s.total_cost, -10.0);
        assert_eq!(s.row_to_col, vec![Some(0), Some(1)]);
    }

    #[test]
    fn tie_break_prefers_lower_column() {
        // Both columns cost the same for both rows: the pinned rule must
        // give row 0 the lower column index.
        let c = [7.0, 7.0, 7.0, 7.0];
        let s = solve(2, 2, &c);
        assert_eq!(s.row_to_col, vec![Some(0), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_is_rejected() {
        solve(1, 1, &[f64::NAN]);
    }
}
