//! Arena-allocated struct-of-arrays storage for in-flight instructions.
//!
//! The hot loop's data layout (see `docs/PERFORMANCE.md`): instead of a
//! `VecDeque` of per-instruction structs, every field the issue stage
//! touches lives in its own dense array, indexed by a power-of-two ring
//! slot (`serial & mask`). Scheduling state is two age-indexed bitmasks
//! (`waiting`/`ready`) scanned with `trailing_zeros`, wakeup is a
//! per-producer consumer list drained by a completion calendar wheel, and
//! the whole arena is leased from a thread-local pool so repeated runs
//! (bench suites, sweeps) never re-allocate it.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

use fua_isa::{FuClass, Opcode, Word};
use fua_vm::{FuOp, MemAccess};

use crate::MachineConfig;

/// Sentinel for "no node" in the consumer linked lists.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// Upper bound on opcode latency plus margin; the calendar wheel is sized
/// to cover `MAX_OP_LATENCY + miss_latency` cycles of look-ahead.
const MAX_OP_LATENCY: u64 = 20;

/// Struct-of-arrays storage for the reorder buffer, reservation stations
/// and wakeup network. All arrays are sized to the ring capacity (the
/// ROB size rounded up to a power of two) and addressed by
/// `slot = serial & mask`, so an instruction's row never moves while it
/// is in flight.
pub(crate) struct InflightArena {
    /// Ring capacity (power of two, >= rob_size).
    pub capacity: usize,
    /// `capacity - 1`, for slot arithmetic on serials.
    pub mask: u64,
    /// Number of 64-bit words in each age-indexed bitmask.
    pub words: usize,

    // --- per-slot pre-decoded instruction fields ---
    /// Program-order serial occupying the slot.
    pub serial: Vec<u64>,
    /// Opcode (drives latency and the multiplier swap check).
    pub opcode: Vec<Opcode>,
    /// Static instruction index (stall/energy attribution).
    pub static_idx: Vec<u32>,
    /// The FU operation, as dispatched (pre-swap).
    pub fu: Vec<FuOp>,
    /// Pre-decoded 2-bit case index of `fu` (`op1_bit << 1 | op2_bit`).
    pub case_bits: Vec<u8>,
    /// Memory access, meaningful only when `has_mem` is set.
    pub mem: Vec<MemAccess>,
    /// Whether the slot's instruction touches memory.
    pub has_mem: Vec<bool>,
    /// Completion cycle (valid once issued, or for no-FU instructions).
    pub done_cycle: Vec<u64>,
    /// Outstanding operand producers (0 = ready to issue).
    pub pending: Vec<u8>,

    // --- wakeup network ---
    /// Head of the slot's consumer list (`NO_NODE` when empty).
    pub first_consumer: Vec<u32>,
    /// Next pointers; node id = `consumer_slot * 2 + operand_index`.
    pub next_consumer: Vec<u32>,

    // --- age-indexed scheduling bitmasks (bit 0 = window head) ---
    /// Dispatched FU instructions not yet issued.
    pub waiting: Vec<u64>,
    /// Subset of `waiting` with all operands available.
    pub ready: Vec<u64>,

    // --- completion calendar wheel ---
    /// Slots completing at cycle `c` live in bucket `c & wheel_mask`.
    pub wheel: Vec<Vec<u32>>,
    /// `wheel.len() - 1` (wheel length is a power of two).
    pub wheel_mask: u64,

    // --- issue-stage scratch (reused every cycle) ---
    /// Selected age offsets per FU class.
    pub selected: [Vec<u32>; 4],
    /// (serial, static PC) of each op in the group being issued,
    /// gathered only for lanes with a sink.
    pub sites_scratch: Vec<(u64, u32)>,
}

fn dummy_fu() -> FuOp {
    FuOp {
        class: FuClass::IntAlu,
        op1: Word::int(0),
        op2: Word::int(0),
        commutative: false,
    }
}

const DUMMY_MEM: MemAccess = MemAccess {
    addr: 0,
    is_load: false,
    width: 0,
};

impl InflightArena {
    fn new() -> Self {
        InflightArena {
            capacity: 0,
            mask: 0,
            words: 0,
            serial: Vec::new(),
            opcode: Vec::new(),
            static_idx: Vec::new(),
            fu: Vec::new(),
            case_bits: Vec::new(),
            mem: Vec::new(),
            has_mem: Vec::new(),
            done_cycle: Vec::new(),
            pending: Vec::new(),
            first_consumer: Vec::new(),
            next_consumer: Vec::new(),
            waiting: Vec::new(),
            ready: Vec::new(),
            wheel: Vec::new(),
            wheel_mask: 0,
            selected: Default::default(),
            sites_scratch: Vec::new(),
        }
    }

    /// Resizes (if needed) and clears the arena for a fresh run under
    /// `config`. Per-slot arrays need no clearing: their contents are
    /// only read for slots inside the live window, and dispatch fully
    /// initialises a slot before it enters the window.
    fn reset(&mut self, config: &MachineConfig) {
        let capacity = config.rob_size.next_power_of_two();
        if capacity > self.capacity {
            self.capacity = capacity;
            self.mask = capacity as u64 - 1;
            self.words = capacity.div_ceil(64);
            self.serial.resize(capacity, 0);
            self.opcode.resize(capacity, Opcode::Halt);
            self.static_idx.resize(capacity, 0);
            self.fu.resize(capacity, dummy_fu());
            self.case_bits.resize(capacity, 0);
            self.mem.resize(capacity, DUMMY_MEM);
            self.has_mem.resize(capacity, false);
            self.done_cycle.resize(capacity, 0);
            self.pending.resize(capacity, 0);
            self.first_consumer.resize(capacity, NO_NODE);
            self.next_consumer.resize(capacity * 2, NO_NODE);
            self.waiting.resize(self.words, 0);
            self.ready.resize(self.words, 0);
        }
        // Wheel look-ahead must cover the longest completion delay:
        // opcode latency plus a cache miss (loads), plus slack for the
        // no-FU "next cycle" completions.
        let horizon = (MAX_OP_LATENCY + config.cache.miss_latency + 2).next_power_of_two();
        if horizon as usize > self.wheel.len() {
            self.wheel.resize(horizon as usize, Vec::new());
            self.wheel_mask = horizon - 1;
        }
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        for word in self.waiting.iter_mut().chain(self.ready.iter_mut()) {
            *word = 0;
        }
        for sel in &mut self.selected {
            sel.clear();
        }
        self.sites_scratch.clear();
    }

    /// Leases an arena from the thread-local pool (or allocates a fresh
    /// one), reset for a run under `config`. Dropping the lease returns
    /// the arena — and every buffer it grew — to the pool.
    pub(crate) fn lease(config: &MachineConfig) -> ArenaLease {
        let pooled = POOL.with(|p| p.borrow_mut().pop());
        fua_obs::note_arena_lease(pooled.is_none());
        let mut arena = pooled.unwrap_or_else(InflightArena::new);
        arena.reset(config);
        ArenaLease(Some(arena))
    }
}

thread_local! {
    /// Pool of retired arenas, reused across runs on the same thread so
    /// bench suites and sweeps allocate in-flight state exactly once.
    static POOL: RefCell<Vec<InflightArena>> = const { RefCell::new(Vec::new()) };
}

/// How many idle arenas a thread keeps; beyond this, drops free memory.
const POOL_CAP: usize = 4;

/// An exclusive lease on a pooled [`InflightArena`]; derefs to the arena
/// and returns it to the thread-local pool on drop.
pub(crate) struct ArenaLease(Option<InflightArena>);

impl Deref for ArenaLease {
    type Target = InflightArena;

    #[inline]
    fn deref(&self) -> &InflightArena {
        self.0.as_ref().expect("lease holds an arena until dropped")
    }
}

impl DerefMut for ArenaLease {
    #[inline]
    fn deref_mut(&mut self) -> &mut InflightArena {
        self.0.as_mut().expect("lease holds an arena until dropped")
    }
}

impl Drop for ArenaLease {
    fn drop(&mut self) {
        if let Some(arena) = self.0.take() {
            let kept = POOL.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < POOL_CAP {
                    pool.push(arena);
                    true
                } else {
                    false
                }
            });
            fua_obs::note_arena_return(kept);
        }
    }
}

// --- age-indexed bitmask primitives ---

/// Tests bit `i` of an age-indexed mask.
#[inline]
pub(crate) fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1u64 << (i % 64)) != 0
}

/// Sets bit `i` of an age-indexed mask.
#[inline]
pub(crate) fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

/// Clears bit `i` of an age-indexed mask.
#[inline]
pub(crate) fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1u64 << (i % 64));
}

/// Shifts the whole mask right by `k` bits (ages every entry by `k`
/// positions after `k` instructions commit from the window head).
pub(crate) fn bit_shift_right(bits: &mut [u64], k: usize) {
    let words = bits.len();
    let word_shift = k / 64;
    let bit_shift = k % 64;
    if word_shift >= words {
        bits.fill(0);
        return;
    }
    if bit_shift == 0 {
        for i in 0..words - word_shift {
            bits[i] = bits[i + word_shift];
        }
    } else {
        for i in 0..words - word_shift {
            let lo = bits[i + word_shift] >> bit_shift;
            let hi = if i + word_shift + 1 < words {
                bits[i + word_shift + 1] << (64 - bit_shift)
            } else {
                0
            };
            bits[i] = lo | hi;
        }
    }
    for w in &mut bits[words - word_shift..] {
        *w = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_ops_round_trip() {
        let mut m = vec![0u64; 2];
        for i in [0, 1, 63, 64, 65, 127] {
            assert!(!bit_get(&m, i));
            bit_set(&mut m, i);
            assert!(bit_get(&m, i));
        }
        bit_clear(&mut m, 64);
        assert!(!bit_get(&m, 64));
        assert!(bit_get(&m, 65));
    }

    #[test]
    fn shift_right_matches_u128_model() {
        // Model a 128-bit mask with u128 and compare every shift amount.
        let pattern: u128 = 0xDEAD_BEEF_0123_4567_89AB_CDEF_FEDC_BA98;
        for k in 0..=130usize {
            let mut m = vec![pattern as u64, (pattern >> 64) as u64];
            bit_shift_right(&mut m, k);
            let expect = if k >= 128 { 0 } else { pattern >> k };
            assert_eq!(m[0], expect as u64, "low word, k={k}");
            assert_eq!(m[1], (expect >> 64) as u64, "high word, k={k}");
        }
    }

    #[test]
    fn arena_pool_reuses_allocations() {
        let config = MachineConfig::paper_default();
        let ptr = {
            let lease = InflightArena::lease(&config);
            lease.serial.as_ptr() as usize
        };
        // The next lease on this thread gets the same backing buffers.
        let lease = InflightArena::lease(&config);
        assert_eq!(lease.serial.as_ptr() as usize, ptr);
        assert_eq!(lease.capacity, 64);
        assert!(lease.wheel.len() >= 40, "wheel covers worst-case latency");
    }

    #[test]
    fn pool_traffic_is_counted() {
        let config = MachineConfig::paper_default();
        let before = fua_obs::arena_counters();
        drop(InflightArena::lease(&config));
        // Other tests lease concurrently, so check deltas as lower
        // bounds only.
        let delta = fua_obs::arena_counters().delta(&before);
        assert!(delta.leases >= 1, "lease counted");
        assert!(delta.returns >= 1, "return counted");
    }

    #[test]
    fn reset_clears_scheduling_state_but_keeps_capacity() {
        let config = MachineConfig::paper_default();
        let mut lease = InflightArena::lease(&config);
        bit_set(&mut lease.waiting, 5);
        lease.wheel[3].push(7);
        let cap = lease.capacity;
        lease.reset(&config);
        assert_eq!(lease.capacity, cap);
        assert!(!bit_get(&lease.waiting, 5));
        assert!(lease.wheel[3].is_empty());
    }
}
