//! Converts execution counters into estimated GPU kernel times.
//!
//! The model is a classic roofline-with-critical-path estimate:
//!
//! * **compute time** — total warp instructions divided by the device's
//!   sustained issue rate, de-rated when too few warps are resident to hide
//!   latency (occupancy, limited by the Huffman LUT shared-memory footprint);
//! * **memory time** — global-memory traffic divided by sustained DRAM
//!   bandwidth, charged at transaction granularity so poorly coalesced
//!   back-reference copies cost more than streaming literal copies;
//! * **critical path** — the single longest warp (most instructions, most
//!   MRR rounds) executed at one instruction per clock; a kernel can never
//!   finish before its slowest warp, which is exactly why nesting depth
//!   hurts MRR in the paper's Figure 9c;
//! * plus a fixed kernel-launch overhead.
//!
//! The kernel time is the maximum of the three components plus the launch
//! overhead. The estimate is intentionally transparent rather than
//! cycle-accurate; `DESIGN.md` §5 lists the paper's relationships it is
//! calibrated to reproduce.

use crate::counters::KernelCounters;
use crate::device::{GpuDeviceModel, OccupancyModel};
use crate::pcie::PcieLink;

/// Breakdown of an estimated kernel execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Instruction-issue-bound time in seconds.
    pub compute_s: f64,
    /// Memory-bandwidth-bound time in seconds.
    pub memory_s: f64,
    /// Longest-single-warp (critical path) time in seconds.
    pub critical_path_s: f64,
    /// Kernel launch overhead in seconds.
    pub launch_s: f64,
}

impl KernelTime {
    /// Total estimated kernel time (max of the bound components plus launch
    /// overhead).
    pub fn total(&self) -> f64 {
        self.compute_s.max(self.memory_s).max(self.critical_path_s) + self.launch_s
    }
}

/// GPU cost model: device parameters plus occupancy.
#[derive(Debug, Clone)]
pub struct CostModel {
    occupancy: OccupancyModel,
    pcie: PcieLink,
    /// Warps per multiprocessor required to reach full issue throughput
    /// (Kepler needs on the order of 16+ resident warps to hide latency).
    warps_for_full_issue: u32,
}

impl CostModel {
    /// Cost model for the paper's Tesla K40 with a PCIe 3.0 x16 link.
    pub fn tesla_k40() -> Self {
        Self::new(GpuDeviceModel::tesla_k40(), PcieLink::gen3_x16())
    }

    /// Creates a cost model from an arbitrary device and link description.
    pub fn new(device: GpuDeviceModel, pcie: PcieLink) -> Self {
        Self { occupancy: OccupancyModel::new(device), pcie, warps_for_full_issue: 16 }
    }

    /// The underlying device model.
    pub fn device(&self) -> &GpuDeviceModel {
        self.occupancy.device()
    }

    /// The PCIe link model.
    pub fn pcie(&self) -> &PcieLink {
        &self.pcie
    }

    /// Estimates the execution time of a kernel described by `counters`,
    /// where each thread group is one warp (one data block, as in both of
    /// Gompresso's decompression kernels) using `shared_bytes_per_group`
    /// bytes of shared memory.
    pub fn estimate_kernel(&self, counters: &KernelCounters, shared_bytes_per_group: u32) -> KernelTime {
        let device = self.device();
        if counters.warps == 0 {
            return KernelTime { compute_s: 0.0, memory_s: 0.0, critical_path_s: 0.0, launch_s: 0.0 };
        }

        // Occupancy de-rating: fewer resident warps per MP than needed for
        // latency hiding scales down the sustained issue rate.
        let groups_per_mp = self.occupancy.groups_per_mp(shared_bytes_per_group).max(1);
        let occupancy_factor = (f64::from(groups_per_mp) / f64::from(self.warps_for_full_issue)).min(1.0);

        // If the grid is smaller than the device, only part of the machine
        // is busy at all.
        let usable_mps = (counters.warps as f64)
            .min(f64::from(device.multiprocessors) * f64::from(groups_per_mp))
            / f64::from(groups_per_mp);
        let grid_factor = (usable_mps / f64::from(device.multiprocessors))
            .min(1.0)
            .max(1.0 / f64::from(device.multiprocessors));

        let issue_rate = device.peak_issue_rate() * occupancy_factor * grid_factor;
        let compute_s = counters.totals.instructions as f64 / issue_rate;

        // Memory traffic at transaction granularity (32-byte sectors).
        let effective_bytes = (counters.totals.global_transactions * 32)
            .max(counters.totals.global_read_bytes + counters.totals.global_write_bytes);
        let memory_s = effective_bytes as f64 / device.sustained_memory_bandwidth();

        // Critical path: the slowest warp issues roughly one instruction per
        // clock once resident.
        let critical_path_s = counters.max_warp_instructions as f64 / device.clock_hz;

        KernelTime { compute_s, memory_s, critical_path_s, launch_s: device.kernel_launch_overhead }
    }

    /// Host→device transfer time for `bytes` of compressed input.
    pub fn input_transfer_s(&self, bytes: u64) -> f64 {
        self.pcie.transfer_time(bytes)
    }

    /// Device→host transfer time for `bytes` of decompressed output.
    pub fn output_transfer_s(&self, bytes: u64) -> f64 {
        self.pcie.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::WarpCounters;

    fn kernel_with(warps: u64, instr_per_warp: u64, bytes_per_warp: u64) -> KernelCounters {
        let mut k = KernelCounters::new();
        for _ in 0..warps {
            let mut w = WarpCounters::new();
            w.charge_instructions(instr_per_warp);
            w.charge_memory(crate::MemoryScope::Global, bytes_per_warp, true, true);
            k.add_warp(&w);
        }
        k
    }

    #[test]
    fn empty_kernel_is_free() {
        let model = CostModel::tesla_k40();
        let t = model.estimate_kernel(&KernelCounters::new(), 0);
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn memory_bound_kernel_reports_memory() {
        let model = CostModel::tesla_k40();
        // Very few instructions, lots of bytes.
        let k = kernel_with(10_000, 10, 1 << 20);
        let t = model.estimate_kernel(&k, 0);
        assert!(t.memory_s >= t.compute_s && t.memory_s >= t.critical_path_s);
        // 10 GiB at ~216 GB/s sustained ≈ 46 ms.
        assert!(t.memory_s > 0.01 && t.memory_s < 0.2, "memory_s = {}", t.memory_s);
    }

    #[test]
    fn compute_bound_kernel_reports_compute() {
        let model = CostModel::tesla_k40();
        // Many instructions, almost no memory traffic.
        let k = kernel_with(10_000, 100_000, 16);
        let t = model.estimate_kernel(&k, 0);
        assert!(t.compute_s > t.memory_s);
    }

    #[test]
    fn single_slow_warp_sets_critical_path() {
        let model = CostModel::tesla_k40();
        let mut k = KernelCounters::new();
        let mut slow = WarpCounters::new();
        slow.charge_instructions(10_000_000);
        k.add_warp(&slow);
        for _ in 0..99 {
            let mut w = WarpCounters::new();
            w.charge_instructions(10);
            k.add_warp(&w);
        }
        let t = model.estimate_kernel(&k, 0);
        assert!(t.critical_path_s > t.compute_s && t.critical_path_s > t.memory_s);
        // 10M instructions at 745 MHz ≈ 13.4 ms.
        assert!((t.critical_path_s - 10_000_000.0 / 745.0e6).abs() < 1e-9);
    }

    #[test]
    fn lower_occupancy_slows_compute() {
        let model = CostModel::tesla_k40();
        let k = kernel_with(10_000, 10_000, 64);
        let high_occ = model.estimate_kernel(&k, OccupancyModel::huffman_lut_bytes(10));
        let low_occ = model.estimate_kernel(&k, OccupancyModel::huffman_lut_bytes(12));
        assert!(low_occ.compute_s > high_occ.compute_s);
    }

    #[test]
    fn tiny_grid_cannot_use_whole_device() {
        let model = CostModel::tesla_k40();
        let small = kernel_with(1, 1_000_000, 64);
        let large = kernel_with(1_000, 1_000_000, 64);
        let t_small = model.estimate_kernel(&small, 0);
        let t_large = model.estimate_kernel(&large, 0);
        // 1000× the total work on a full device should take much less than
        // 1000× the single-warp time.
        assert!(t_large.compute_s < t_small.compute_s * 200.0);
    }
}
