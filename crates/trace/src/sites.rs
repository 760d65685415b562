//! The dense counter table behind the per-site attribution sinks.

use fua_isa::FuClass;

/// Blocks of `N` counters per (row, FU class), found through a per-row
/// index, so a charge is two indexed adds rather than an ordered-map
/// insertion. [`blocks`](SiteTable::blocks) lists them in (row, class)
/// order whatever order they were first charged in. Memory grows with
/// the highest row and the number of charged (row, class) pairs.
#[derive(Debug, Clone, Default)]
pub struct SiteTable<T, const N: usize> {
    /// Per row and class: 1 + the pair's index in `blocks`, or 0 while
    /// it has no block.
    index: Vec<[u32; 4]>,
    blocks: Vec<[T; N]>,
}

impl<T: Copy + Default, const N: usize> SiteTable<T, N> {
    /// The counters of (`row`, `class`), zeroed on first use.
    #[inline]
    pub fn block_mut(&mut self, row: usize, class: FuClass) -> &mut [T; N] {
        if row >= self.index.len() {
            self.index.resize(row + 1, [0; 4]);
        }
        let block = &mut self.index[row][class.index()];
        if *block == 0 {
            self.blocks.push([T::default(); N]);
            *block = self.blocks.len() as u32;
        }
        &mut self.blocks[*block as usize - 1]
    }

    /// Every (row, class, counters) block, in (row, class) order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, FuClass, &[T; N])> + '_ {
        self.index
            .iter()
            .enumerate()
            .flat_map(move |(row, blocks)| {
                FuClass::ALL
                    .into_iter()
                    .filter(move |class| blocks[class.index()] > 0)
                    .map(move |class| {
                        (row, class, &self.blocks[blocks[class.index()] as usize - 1])
                    })
            })
    }
}
