//! Execution counters a [`crate::Warp`] accumulates while a modelled kernel runs.
//!
//! The cost model (see [`crate::cost`]) converts these counters into
//! estimated kernel times. The decompression kernels in `gompresso-core`
//! charge counters explicitly at the points where the corresponding GPU
//! implementation would issue warp instructions or memory transactions, so
//! the counts reflect the algorithm described in the paper rather than the
//! host CPU's instruction stream.

/// Which memory space a simulated access targets.
///
/// The distinction matters for the cost model: shared (on-chip) memory
/// accesses are charged at register-like latency, while global (device
/// DRAM) accesses are charged against the K40's memory bandwidth, and the
/// number of *transactions* depends on coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryScope {
    /// Off-chip device memory (GDDR5 on the K40).
    Global,
    /// On-chip, software-managed shared memory (the paper stores the
    /// Huffman decode LUTs here).
    Shared,
}

/// Counters accumulated by a single warp while executing a kernel.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WarpCounters {
    /// Warp-wide instructions issued (each counted once per warp, as on a
    /// real SIMT machine where one instruction covers all 32 lanes).
    pub instructions: u64,
    /// Warp-vote (`ballot`) instructions issued.
    pub ballots: u64,
    /// Warp-shuffle (`shfl`) instructions issued.
    pub shuffles: u64,
    /// Number of iterations of an iterative resolution loop (MRR rounds).
    pub rounds: u64,
    /// Bytes read from global memory.
    pub global_read_bytes: u64,
    /// Bytes written to global memory.
    pub global_write_bytes: u64,
    /// Global memory transactions (128-byte segments touched).
    pub global_transactions: u64,
    /// Bytes read from shared memory.
    pub shared_read_bytes: u64,
    /// Bytes written to shared memory.
    pub shared_write_bytes: u64,
    /// Sum over rounds of the number of active (non-idle) lanes; divided by
    /// `rounds * 32` this yields the warp utilization the paper discusses
    /// for MRR.
    pub active_lane_sum: u64,
}

impl WarpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `n` warp-wide ALU/control instructions.
    pub fn charge_instructions(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Charges a ballot instruction.
    pub fn charge_ballot(&mut self) {
        self.ballots += 1;
        self.instructions += 1;
    }

    /// Charges a shuffle instruction.
    pub fn charge_shuffle(&mut self) {
        self.shuffles += 1;
        self.instructions += 1;
    }

    /// Records the start of a resolution round with `active_lanes` lanes
    /// doing useful work.
    pub fn charge_round(&mut self, active_lanes: u32) {
        self.rounds += 1;
        self.active_lane_sum += u64::from(active_lanes);
    }

    /// Charges a memory access of `bytes` bytes in `scope`.
    ///
    /// For global memory the access is additionally translated into 128-byte
    /// transactions: `coalesced` accesses touch contiguous addresses and are
    /// charged `ceil(bytes / 128)` transactions, while non-coalesced accesses
    /// are charged one transaction per 32-byte segment, which is the paper's
    /// motivation for having each thread copy multiple back-reference bytes
    /// at a time.
    pub fn charge_memory(&mut self, scope: MemoryScope, bytes: u64, write: bool, coalesced: bool) {
        match scope {
            MemoryScope::Global => {
                if write {
                    self.global_write_bytes += bytes;
                } else {
                    self.global_read_bytes += bytes;
                }
                let segment = if coalesced { 128 } else { 32 };
                self.global_transactions += bytes.div_ceil(segment).max(1);
                self.instructions += 1;
            }
            MemoryScope::Shared => {
                if write {
                    self.shared_write_bytes += bytes;
                } else {
                    self.shared_read_bytes += bytes;
                }
                self.instructions += 1;
            }
        }
    }

    /// Fraction of lanes active per round, in `[0, 1]`. Returns 1.0 when no
    /// rounds were recorded (nothing to be idle in).
    pub fn warp_utilization(&self) -> f64 {
        if self.rounds == 0 {
            1.0
        } else {
            self.active_lane_sum as f64 / (self.rounds as f64 * 32.0)
        }
    }

    /// Merges another warp's counters into this one.
    pub fn merge(&mut self, other: &WarpCounters) {
        self.instructions += other.instructions;
        self.ballots += other.ballots;
        self.shuffles += other.shuffles;
        self.rounds += other.rounds;
        self.global_read_bytes += other.global_read_bytes;
        self.global_write_bytes += other.global_write_bytes;
        self.global_transactions += other.global_transactions;
        self.shared_read_bytes += other.shared_read_bytes;
        self.shared_write_bytes += other.shared_write_bytes;
        self.active_lane_sum += other.active_lane_sum;
    }
}

/// Counters aggregated over all warps of a kernel launch.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KernelCounters {
    /// Aggregate of all per-warp counters.
    pub totals: WarpCounters,
    /// Number of warps that contributed (one per data block in Gompresso).
    pub warps: u64,
    /// Maximum instruction count observed in a single warp — the critical
    /// path when warps outnumber execution resources only marginally.
    pub max_warp_instructions: u64,
}

impl KernelCounters {
    /// Creates zeroed kernel counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished warp's counters into the kernel aggregate.
    pub fn add_warp(&mut self, warp: &WarpCounters) {
        self.totals.merge(warp);
        self.warps += 1;
        self.max_warp_instructions = self.max_warp_instructions.max(warp.instructions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_charging_tracks_bytes_and_transactions() {
        let mut c = WarpCounters::new();
        c.charge_memory(MemoryScope::Global, 256, false, true);
        assert_eq!(c.global_read_bytes, 256);
        assert_eq!(c.global_transactions, 2); // 256 / 128

        c.charge_memory(MemoryScope::Global, 256, true, false);
        assert_eq!(c.global_write_bytes, 256);
        assert_eq!(c.global_transactions, 2 + 8); // + 256 / 32

        c.charge_memory(MemoryScope::Shared, 40, false, true);
        assert_eq!(c.shared_read_bytes, 40);
        // Shared accesses do not create global transactions.
        assert_eq!(c.global_transactions, 10);
    }

    #[test]
    fn tiny_global_access_still_costs_one_transaction() {
        let mut c = WarpCounters::new();
        c.charge_memory(MemoryScope::Global, 1, false, true);
        assert_eq!(c.global_transactions, 1);
    }

    #[test]
    fn utilization_is_active_over_possible() {
        let mut c = WarpCounters::new();
        assert_eq!(c.warp_utilization(), 1.0);
        c.charge_round(32);
        c.charge_round(8);
        assert!((c.warp_utilization() - (40.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn kernel_aggregation_tracks_maxima() {
        let mut k = KernelCounters::new();
        let mut w1 = WarpCounters::new();
        w1.charge_instructions(100);
        w1.charge_round(32);
        let mut w2 = WarpCounters::new();
        w2.charge_instructions(300);
        w2.charge_round(16);
        w2.charge_round(4);
        k.add_warp(&w1);
        k.add_warp(&w2);
        assert_eq!(k.warps, 2);
        assert_eq!(k.max_warp_instructions, 300);
        assert_eq!(k.totals.rounds, 3);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = WarpCounters::new();
        a.charge_ballot();
        a.charge_shuffle();
        let mut b = WarpCounters::new();
        b.charge_ballot();
        b.charge_shuffle();
        a.merge(&b);
        assert_eq!(a.ballots, 2);
        assert_eq!(a.shuffles, 2);
        assert_eq!(a.instructions, 4);
    }
}
