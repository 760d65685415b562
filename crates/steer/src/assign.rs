//! Minimum-cost injective assignment of instructions to modules.

use std::cell::RefCell;

/// The most modules of one class a steering decision covers, and so the
/// most rows and columns an assignment has: [`min_cost_assignment_into`]
/// keeps a table entry per subset of its columns. `MachineConfig::validate`
/// rejects a machine that duplicates a class more often.
pub const MAX_MODULES: usize = 8;

/// The exact minimum-cost assignment kernel: places `rows` instructions
/// on distinct modules (columns) out of `cols`, minimising the total
/// cost, for every size up to `rows <= cols <= MAX_MODULES`, and writes
/// the chosen column of each row, in order, into `out`. It reads only
/// the `rows × cols` top-left corner of `cost` (`cost[row][col]`).
///
/// The answer is the first optimum in row order, each row's columns
/// taken cheapest first (equal costs in column order): among the
/// assignments of least total cost, the one whose first row has the
/// cheapest column, then the second row, and so on. So the first row
/// (the oldest instruction) keeps its cheapest module when later rows
/// tie — which matters when later rows are indistinguishable padding
/// (see the LUT builder).
///
/// It is a dynamic program over column subsets. For each set of `k`
/// columns a table holds the least cost of placing rows `k..rows` on
/// the other columns, filled from the last row back, each layer reading
/// only its own row's cells. A walk from the empty set then gives each
/// row, in order, the cheapest column (lowest index among equals) that
/// still completes an optimum.
///
/// The table has an entry per subset of [`MAX_MODULES`] columns, and a
/// solve writes each of its `2^cols` entries before reading it. Zeroing
/// a fresh 2 KiB table made a 4-module solve about 14% slower, so each
/// thread keeps one and reuses it: a solve allocates nothing beyond the
/// (amortised) growth of `out` and initialises nothing.
///
/// # Panics
///
/// Panics if `rows > cols` or `cols > MAX_MODULES`.
pub fn min_cost_assignment_into(
    rows: usize,
    cols: usize,
    cost: &[[u32; MAX_MODULES]; MAX_MODULES],
    out: &mut Vec<usize>,
) {
    thread_local! {
        /// Per set of `k` columns: the least cost of placing rows `k..`
        /// on the others.
        static REST: RefCell<[u64; 1 << MAX_MODULES]> =
            const { RefCell::new([0; 1 << MAX_MODULES]) };
    }
    check_size(rows, cols);
    out.clear();
    REST.with_borrow_mut(|rest| {
        let all = (1u32 << cols) - 1;
        // The entry of a set of `rows` columns would be 0 (every row is
        // placed), so the last row masks its reads out with `later`.
        // Row 0's layer is the walk below.
        for (row, cost) in cost[..rows].iter().enumerate().skip(1).rev() {
            let later = if row + 1 < rows { u64::MAX } else { 0 };
            // Every set of `row` columns, in increasing order (Gosper's
            // hack).
            let mut used = (1u32 << row) - 1;
            while used <= all {
                let mut best = u64::MAX;
                let mut free = all & !used;
                while free != 0 {
                    let col = free.trailing_zeros();
                    free &= free - 1;
                    let next = rest[(used | 1 << col) as u8 as usize] & later;
                    best = best.min(cost[col as usize & (MAX_MODULES - 1)] as u64 + next);
                }
                rest[used as u8 as usize] = best;
                let low = used & used.wrapping_neg();
                let ripple = used + low;
                used = ripple | (((used ^ ripple) >> 2) >> low.trailing_zeros());
            }
        }
        let mut used = 0u32;
        for (row, cost) in cost[..rows].iter().enumerate() {
            let later = if row + 1 < rows { u64::MAX } else { 0 };
            // Least (total, own cost, column), packed so that one
            // comparison orders all three.
            let mut best = u128::MAX;
            let mut free = all & !used;
            while free != 0 {
                let col = free.trailing_zeros();
                free &= free - 1;
                let own = cost[col as usize & (MAX_MODULES - 1)] as u64;
                let total = own + (rest[(used | 1 << col) as u8 as usize] & later);
                best = best.min((total as u128) << 40 | (own as u128) << 8 | col as u128);
            }
            let col = (best & 0xff) as usize;
            out.push(col);
            used |= 1 << col;
        }
    });
}

fn check_size(rows: usize, cols: usize) {
    assert!(rows <= cols, "more instructions than modules");
    assert!(
        cols <= MAX_MODULES,
        "{cols} modules: steering covers at most {MAX_MODULES}"
    );
}

/// Finds the assignment of `n = cost.len()` instructions to distinct
/// modules (columns) minimising the total cost, exactly, with
/// [`min_cost_assignment_into`]'s tie-break. Returns the chosen module
/// for each instruction.
///
/// The paper's machines have at most 4 instructions and a handful of
/// modules per cycle, so an exact solve is cheap; the hardware itself
/// never runs this (it is the reference "optimal" assignment the LUT
/// approximates). Allocating convenience wrapper for one-shot callers
/// (the LUT builder, tests); the per-cycle policies reuse an output
/// buffer.
///
/// # Panics
///
/// Panics if the cost matrix is ragged, has more rows than columns, or
/// has more than [`MAX_MODULES`] columns.
///
/// # Examples
///
/// ```
/// use fua_steer::min_cost_assignment;
///
/// // Two instructions, three modules.
/// let cost = vec![
///     vec![10, 1, 10],
///     vec![1, 10, 10],
/// ];
/// assert_eq!(min_cost_assignment(&cost), vec![1, 0]);
/// ```
pub fn min_cost_assignment(cost: &[Vec<u32>]) -> Vec<usize> {
    let n = cost.len();
    if n == 0 {
        return Vec::new();
    }
    let m = cost[0].len();
    assert!(cost.iter().all(|row| row.len() == m), "ragged cost matrix");
    check_size(n, m);
    let mut matrix = [[0; MAX_MODULES]; MAX_MODULES];
    for (to, from) in matrix.iter_mut().zip(cost) {
        to[..m].copy_from_slice(from);
    }
    let mut out = Vec::with_capacity(n);
    min_cost_assignment_into(n, m, &matrix, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: try every permutation of column subsets.
    fn reference_min(cost: &[Vec<u32>]) -> u64 {
        fn go(cost: &[Vec<u32>], row: usize, used: &mut Vec<bool>) -> u64 {
            if row == cost.len() {
                return 0;
            }
            let mut best = u64::MAX;
            for col in 0..cost[0].len() {
                if used[col] {
                    continue;
                }
                used[col] = true;
                let sub = go(cost, row + 1, used);
                if sub != u64::MAX {
                    best = best.min(cost[row][col] as u64 + sub);
                }
                used[col] = false;
            }
            best
        }
        go(cost, 0, &mut vec![false; cost[0].len()])
    }

    fn total(cost: &[Vec<u32>], assign: &[usize]) -> u64 {
        assign
            .iter()
            .enumerate()
            .map(|(i, &j)| cost[i][j] as u64)
            .sum()
    }

    #[test]
    fn empty_input_yields_empty_assignment() {
        assert!(min_cost_assignment(&[]).is_empty());
    }

    #[test]
    fn square_case_matches_reference() {
        let cost = vec![vec![4, 2, 8], vec![4, 3, 7], vec![3, 1, 6]];
        let assign = min_cost_assignment(&cost);
        assert_eq!(total(&cost, &assign), reference_min(&cost));
        // All distinct.
        let mut sorted = assign.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), assign.len());
    }

    #[test]
    fn rectangular_case_uses_spare_columns() {
        let cost = vec![vec![9, 9, 0, 9]];
        assert_eq!(min_cost_assignment(&cost), vec![2]);
    }

    #[test]
    fn pseudo_random_matrices_match_reference() {
        // Small deterministic LCG so the test needs no external crates.
        let mut state = 0x2545F491u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 100) as u32
        };
        for n in 1..=4 {
            for m in n..=6 {
                for _ in 0..20 {
                    let cost: Vec<Vec<u32>> =
                        (0..n).map(|_| (0..m).map(|_| next()).collect()).collect();
                    let assign = min_cost_assignment(&cost);
                    assert_eq!(
                        total(&cost, &assign),
                        reference_min(&cost),
                        "n={n} m={m} cost={cost:?}"
                    );
                }
            }
        }
    }

    /// The solver as first written, kept as the tie-break reference: a
    /// stable cheapest-first sort per row, then a recursive search that
    /// replaces the best only on a strict improvement.
    fn reference_assignment(cost: &[Vec<u32>]) -> Vec<usize> {
        #[allow(clippy::too_many_arguments)]
        fn search(
            cost: &[Vec<u32>],
            order: &[Vec<usize>],
            row: usize,
            acc: u64,
            used: &mut [bool],
            current: &mut [usize],
            best: &mut u64,
            best_assign: &mut [usize],
        ) {
            if acc >= *best {
                return;
            }
            if row == cost.len() {
                *best = acc;
                best_assign.copy_from_slice(current);
                return;
            }
            for &col in &order[row] {
                if used[col] {
                    continue;
                }
                used[col] = true;
                current[row] = col;
                let acc = acc + cost[row][col] as u64;
                search(cost, order, row + 1, acc, used, current, best, best_assign);
                used[col] = false;
            }
        }
        let (n, m) = (cost.len(), cost[0].len());
        let order: Vec<Vec<usize>> = cost
            .iter()
            .map(|row| {
                let mut cols: Vec<usize> = (0..m).collect();
                cols.sort_by_key(|&c| row[c]);
                cols
            })
            .collect();
        let (mut best, mut best_assign) = (u64::MAX, vec![0; n]);
        search(
            cost,
            &order,
            0,
            0,
            &mut vec![false; m],
            &mut vec![0; n],
            &mut best,
            &mut best_assign,
        );
        best_assign
    }

    #[test]
    fn the_solver_returns_the_reference_assignment_tie_for_tie() {
        let mut state = 0x9E37_79B9u64;
        let mut next = |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % range
        };
        // The cost ranges the callers produce: 1-bit Ham's 0..=2 and
        // Full Ham's 0..=128 (ties everywhere in the first, so the
        // tie-break is what is tested), and the LUT builder's scaled
        // expectations `round(w · 1024 · (d · 10⁶ + e · 100 + t))`,
        // whose sums overflow a `u32`.
        for source in 0..3 {
            for n in 1..=MAX_MODULES {
                for m in n..=MAX_MODULES {
                    for _ in 0..6 {
                        let cost: Vec<Vec<u32>> = (0..n)
                            .map(|_| {
                                let weight = (1 + next(1000)) as f64 / 1000.0;
                                (0..m)
                                    .map(|_| match source {
                                        0 => next(3) as u32,
                                        1 => next(129) as u32,
                                        _ => {
                                            let raw = next(3) * 1_000_000
                                                + next(641) * 100
                                                + next(2 * MAX_MODULES as u64);
                                            (weight * 1024.0 * raw as f64).round() as u32
                                        }
                                    })
                                    .collect()
                            })
                            .collect();
                        let expect = reference_assignment(&cost);
                        assert_eq!(min_cost_assignment(&cost), expect, "cost={cost:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "steering covers at most")]
    fn more_modules_than_the_limit_panics() {
        let _ = min_cost_assignment(&[vec![0; MAX_MODULES + 1]]);
    }

    #[test]
    #[should_panic]
    fn more_rows_than_columns_panics() {
        let cost = vec![vec![1], vec![2]];
        let _ = min_cost_assignment(&cost);
    }
}
