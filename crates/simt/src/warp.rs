//! The warp as a cost account.
//!
//! A warp is 32 threads executing in lock step. GPU kernels coordinate the
//! lanes of a warp with voting (`ballot`) and data-exchange (`shfl`)
//! instructions; the Gompresso decompressor uses exactly these two, plus
//! shuffle-based prefix sums (paper, Section II-B and Figure 5). The kernels
//! in `gompresso-core` compute every lane's values on the host; a [`Warp`]
//! only charges what the GPU would issue for each primitive, resolution
//! round and memory access to a [`WarpCounters`] record, which the cost
//! model later turns into a kernel time.

use crate::counters::{MemoryScope, WarpCounters};

/// Number of lanes in a warp (fixed at 32 on all CUDA hardware to date, and
/// assumed by the paper's use of 32-bit ballot masks).
pub const WARP_SIZE: usize = 32;

/// The counters one simulated warp accumulates while a kernel runs.
#[derive(Debug, Default, Clone)]
pub struct Warp {
    counters: WarpCounters,
}

impl Warp {
    /// Creates a warp with zeroed counters.
    pub fn new() -> Self {
        Self { counters: WarpCounters::new() }
    }

    /// Consumes the warp, returning its counters.
    pub fn into_counters(self) -> WarpCounters {
        self.counters
    }

    /// Charges one warp vote (`ballot`).
    pub fn ballot(&mut self) {
        self.counters.charge_ballot();
    }

    /// Charges one broadcast of a lane's value to the warp (`shfl`).
    pub fn shfl(&mut self) {
        self.counters.charge_shuffle();
    }

    /// Charges an exclusive prefix sum across the warp as the standard
    /// shuffle-up/Hillis–Steele scheme: log2(32) = 5 steps of one shuffle
    /// and one add each.
    pub fn prefix_sum(&mut self) {
        for _ in 0..WARP_SIZE.ilog2() {
            self.counters.charge_shuffle();
            self.counters.charge_instructions(1);
        }
    }

    /// Records the start of an iterative-resolution round with the given
    /// number of lanes doing useful work.
    pub fn begin_round(&mut self, active_lanes: u32) {
        self.counters.charge_round(active_lanes);
    }

    /// Charges `n` ordinary warp instructions.
    pub fn charge_instructions(&mut self, n: u64) {
        self.counters.charge_instructions(n);
    }

    /// Charges a global-memory read of `bytes` bytes.
    pub fn global_read(&mut self, bytes: u64, coalesced: bool) {
        self.counters.charge_memory(MemoryScope::Global, bytes, false, coalesced);
    }

    /// Charges a global-memory write of `bytes` bytes.
    pub fn global_write(&mut self, bytes: u64, coalesced: bool) {
        self.counters.charge_memory(MemoryScope::Global, bytes, true, coalesced);
    }

    /// Charges a shared-memory read of `bytes` bytes (Huffman LUT lookups).
    pub fn shared_read(&mut self, bytes: u64) {
        self.counters.charge_memory(MemoryScope::Shared, bytes, false, true);
    }

    /// Charges a shared-memory write of `bytes` bytes (LUT construction).
    pub fn shared_write(&mut self, bytes: u64) {
        self.counters.charge_memory(MemoryScope::Shared, bytes, true, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn votes_shuffles_and_prefix_sums_are_charged() {
        let mut warp = Warp::new();
        warp.ballot();
        warp.shfl();
        warp.prefix_sum();
        let c = warp.into_counters();
        assert_eq!(c.ballots, 1);
        // One broadcast plus the prefix sum's five shuffle steps.
        assert_eq!(c.shuffles, 6);
        // Ballot 1 + shuffle 1 + prefix sum 5 × (shuffle + add).
        assert_eq!(c.instructions, 12);
    }

    #[test]
    fn rounds_and_memory_are_charged() {
        let mut warp = Warp::new();
        warp.begin_round(32);
        warp.begin_round(4);
        warp.global_read(128, true);
        warp.global_write(64, false);
        warp.shared_read(2);
        let c = warp.into_counters();
        assert_eq!(c.rounds, 2);
        assert_eq!(c.active_lane_sum, 36);
        assert_eq!(c.global_read_bytes, 128);
        assert_eq!(c.global_write_bytes, 64);
        assert_eq!(c.shared_read_bytes, 2);
    }
}
