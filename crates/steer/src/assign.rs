//! Minimum-cost injective assignment of instructions to modules.

/// The most modules of one class a steering decision covers. The
/// assignment solver keeps its cost matrix and search state in arrays
/// of this size on the stack, and `MachineConfig::validate` rejects a
/// machine that duplicates a class more often.
pub const MAX_MODULES: usize = 8;

/// As [`min_cost_assignment`], but reading the cost matrix through a
/// closure (`cost(row, col)`) and writing the winning assignment into
/// `out`. Works on the stack: no allocation beyond the (amortised)
/// growth of `out`.
///
/// # Panics
///
/// Panics if `rows > cols` or `cols > MAX_MODULES`.
pub fn min_cost_assignment_into(
    rows: usize,
    cols: usize,
    cost: impl Fn(usize, usize) -> u32,
    out: &mut Vec<usize>,
) {
    out.clear();
    if rows == 0 {
        return;
    }
    assert!(rows <= cols, "more instructions than modules");
    assert!(
        cols <= MAX_MODULES,
        "{cols} modules: steering covers at most {MAX_MODULES}"
    );
    let mut search = Search::new(rows, cols, &cost);
    search.visit(0, 0, 0);
    debug_assert!(
        search.best != u64::MAX,
        "rows <= cols guarantees a solution"
    );
    out.extend(search.best_assign[..rows].iter().map(|&c| c as usize));
}

/// Finds the assignment of `n = cost.len()` instructions to distinct
/// modules (columns) minimising the total cost, by exhaustive search with
/// pruning. Returns the chosen module for each instruction.
///
/// The paper's machines have at most 4 instructions and a handful of
/// modules per cycle, so exhaustive search is both exact and cheap; the
/// hardware itself never runs this (it is the reference "optimal"
/// assignment the LUT approximates). Allocating convenience wrapper
/// around [`min_cost_assignment_into`] for one-shot callers (the LUT
/// builder, tests); the per-cycle policies use the `_into` form with a
/// reused output buffer.
///
/// # Panics
///
/// Panics if the cost matrix is ragged or has more rows than columns.
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
    let mut out = Vec::with_capacity(n);
    min_cost_assignment_into(n, m, |r, c| cost[r][c], &mut out);
    out
}

/// The depth-first branch-and-bound walk: rows in order, each row's
/// columns cheapest-first, a branch abandoned once its cost reaches the
/// best complete assignment's. Only a strictly cheaper assignment
/// replaces the best, so the result is the first optimum in that order.
///
/// Exploring cheapest-first also makes the tie-break *row-priority*:
/// among equal-total assignments the first row (oldest instruction)
/// keeps its cheapest module — which matters when later rows are
/// indistinguishable padding (see the LUT builder).
struct Search {
    rows: usize,
    cols: usize,
    cost: [[u32; MAX_MODULES]; MAX_MODULES],
    /// Each row's columns sorted by `(cost, column)`.
    order: [[u8; MAX_MODULES]; MAX_MODULES],
    current: [u8; MAX_MODULES],
    best: u64,
    best_assign: [u8; MAX_MODULES],
}

impl Search {
    fn new(rows: usize, cols: usize, cost: &impl Fn(usize, usize) -> u32) -> Self {
        let mut search = Search {
            rows,
            cols,
            cost: [[0; MAX_MODULES]; MAX_MODULES],
            order: [[0; MAX_MODULES]; MAX_MODULES],
            current: [0; MAX_MODULES],
            best: u64::MAX,
            best_assign: [0; MAX_MODULES],
        };
        for row in 0..rows {
            let (costs, order) = (&mut search.cost[row], &mut search.order[row]);
            // Insertion sort, columns entering in ascending order and
            // moving only past strictly costlier ones: equal costs keep
            // ascending column order, the `(cost, column)` key.
            for col in 0..cols {
                let c = cost(row, col);
                costs[col] = c;
                let mut i = col;
                while i > 0 && costs[order[i - 1] as usize] > c {
                    order[i] = order[i - 1];
                    i -= 1;
                }
                order[i] = col as u8;
            }
        }
        search
    }

    fn visit(&mut self, row: usize, acc: u64, used: u32) {
        if acc >= self.best {
            return; // prune
        }
        if row == self.rows {
            self.best = acc;
            self.best_assign = self.current;
            return;
        }
        for k in 0..self.cols {
            let col = self.order[row][k] as usize;
            let next = acc + self.cost[row][col] as u64;
            if next >= self.best {
                // Later columns cost at least as much: every remaining
                // branch would be pruned on entry.
                break;
            }
            if used & (1 << col) != 0 {
                continue;
            }
            self.current[row] = col as u8;
            self.visit(row + 1, next, used | (1 << col));
        }
    }
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
        // Costs drawn from a tiny range, so ties are everywhere and the
        // tie-break is what is tested.
        let mut state = 0x9E37_79B9u64;
        let mut next = |range: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % range) as u32
        };
        for range in [1, 2, 3, 40] {
            for n in 1..=4 {
                for m in n..=MAX_MODULES {
                    for _ in 0..50 {
                        let cost: Vec<Vec<u32>> = (0..n)
                            .map(|_| (0..m).map(|_| next(range)).collect())
                            .collect();
                        assert_eq!(
                            min_cost_assignment(&cost),
                            reference_assignment(&cost),
                            "cost={cost:?}"
                        );
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
