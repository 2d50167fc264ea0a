//! Analytical GPU device model.
//!
//! The paper evaluates on an NVIDIA Tesla K40: 15 SMX multiprocessors,
//! 2880 CUDA cores, 745 MHz base clock, 288 GB/s GDDR5 bandwidth, 48 KB of
//! software-managed shared memory per SMX. Two of these parameters drive the
//! paper's analysis directly:
//!
//! * the ratio of compute throughput to DRAM bandwidth decides whether a
//!   kernel is compute- or memory-bound, and
//! * the shared-memory capacity limits how many data blocks can be Huffman
//!   decoded concurrently on one SMX, because each block needs two
//!   `2^CWL`-entry decode LUTs resident in shared memory (Section V-C).
//!
//! [`GpuDeviceModel`] captures these parameters; [`OccupancyModel`] derives
//! the number of concurrently resident one-warp thread groups from the
//! per-block shared memory footprint.

/// Static description of a GPU device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDeviceModel {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors (SMX on Kepler).
    pub multiprocessors: u32,
    /// CUDA cores per multiprocessor.
    pub cores_per_mp: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Peak device-memory bandwidth in bytes/second.
    pub memory_bandwidth: f64,
    /// Fraction of the peak memory bandwidth achievable by well-coalesced
    /// streaming kernels (ECC on reduces this on the K40).
    pub memory_efficiency: f64,
    /// Shared memory per multiprocessor in bytes.
    pub shared_memory_per_mp: u32,
    /// Maximum resident warps per multiprocessor (64 on Kepler).
    pub max_warps_per_mp: u32,
    /// Maximum resident thread groups per multiprocessor.
    pub max_groups_per_mp: u32,
    /// Warp instructions issued per multiprocessor per clock (Kepler SMX can
    /// issue up to 4 warps × 2 instructions; a conservative sustained value
    /// is used here).
    pub issue_per_mp_per_clock: f64,
    /// Kernel launch overhead in seconds.
    pub kernel_launch_overhead: f64,
    /// Board power in watts when busy (used by the energy model).
    pub board_power_w: f64,
    /// Board power in watts when idle.
    pub idle_power_w: f64,
}

impl GpuDeviceModel {
    /// The Tesla K40 configuration used throughout the paper's evaluation.
    pub fn tesla_k40() -> Self {
        GpuDeviceModel {
            name: "NVIDIA Tesla K40",
            multiprocessors: 15,
            cores_per_mp: 192,
            clock_hz: 745.0e6,
            memory_bandwidth: 288.0e9,
            // ECC is enabled in the paper's measurements, which costs
            // roughly 20 % of streaming bandwidth on GDDR5 Kepler boards.
            memory_efficiency: 0.75,
            shared_memory_per_mp: 48 * 1024,
            max_warps_per_mp: 64,
            max_groups_per_mp: 16,
            issue_per_mp_per_clock: 4.0,
            kernel_launch_overhead: 10.0e-6,
            board_power_w: 235.0,
            idle_power_w: 25.0,
        }
    }

    /// Aggregate warp-instruction issue rate (instructions/second).
    pub fn peak_issue_rate(&self) -> f64 {
        f64::from(self.multiprocessors) * self.issue_per_mp_per_clock * self.clock_hz
    }

    /// Sustained device-memory bandwidth in bytes/second.
    pub fn sustained_memory_bandwidth(&self) -> f64 {
        self.memory_bandwidth * self.memory_efficiency
    }
}

/// Derives how many thread groups are concurrently resident given the
/// per-group shared-memory footprint.
///
/// In Gompresso each thread group handles one data block and needs shared
/// memory for its two Huffman decode LUTs (2 × 2^CWL entries × entry size);
/// the paper limits CWL to 10 bits so that enough groups stay resident.
#[derive(Debug, Clone)]
pub struct OccupancyModel {
    device: GpuDeviceModel,
}

impl OccupancyModel {
    /// Creates an occupancy model for `device`.
    pub fn new(device: GpuDeviceModel) -> Self {
        Self { device }
    }

    /// The underlying device.
    pub fn device(&self) -> &GpuDeviceModel {
        &self.device
    }

    /// Number of one-warp thread groups resident per multiprocessor when
    /// each group uses `shared_bytes_per_group` bytes of shared memory.
    pub fn groups_per_mp(&self, shared_bytes_per_group: u32) -> u32 {
        let by_shared = self
            .device
            .shared_memory_per_mp
            .checked_div(shared_bytes_per_group)
            .unwrap_or(self.device.max_groups_per_mp);
        by_shared.min(self.device.max_warps_per_mp).min(self.device.max_groups_per_mp)
    }

    /// Shared-memory footprint of the Huffman decode tables for one data
    /// block: two LUTs (literal/length and match-offset trees) of
    /// `2^max_codeword_len` entries, each entry holding a 16-bit symbol and
    /// an 8-bit code length (padded to 4 bytes, as a real implementation
    /// would for bank-conflict-free access).
    pub fn huffman_lut_bytes(max_codeword_len: u32) -> u32 {
        2 * (1u32 << max_codeword_len) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_parameters_are_consistent() {
        let k40 = GpuDeviceModel::tesla_k40();
        assert_eq!(k40.multiprocessors * k40.cores_per_mp, 2880);
        assert!(k40.peak_issue_rate() > 1e9);
        assert!(k40.sustained_memory_bandwidth() < k40.memory_bandwidth);
    }

    #[test]
    fn huffman_lut_footprint_matches_cwl() {
        // CWL = 10 → 2 tables × 1024 entries × 4 bytes = 8 KiB.
        assert_eq!(OccupancyModel::huffman_lut_bytes(10), 8 * 1024);
        // CWL = 12 → 32 KiB, which nearly fills a 48 KiB SMX on its own.
        assert_eq!(OccupancyModel::huffman_lut_bytes(12), 32 * 1024);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let occ = OccupancyModel::new(GpuDeviceModel::tesla_k40());
        // CWL=10: 8 KiB per group → 6 groups fit in 48 KiB, below the
        // hardware group limit of 16.
        assert_eq!(occ.groups_per_mp(OccupancyModel::huffman_lut_bytes(10)), 6);
        // CWL=12: 32 KiB per group → only 1 group per SMX.
        assert_eq!(occ.groups_per_mp(OccupancyModel::huffman_lut_bytes(12)), 1);
        // No shared memory use → limited by the hardware group cap.
        assert_eq!(occ.groups_per_mp(0), 16);
    }

    #[test]
    fn occupancy_limited_by_warps() {
        // Each group is one warp, so a device with fewer warp slots than
        // group slots caps the groups at its warp slots.
        let device = GpuDeviceModel { max_warps_per_mp: 8, ..GpuDeviceModel::tesla_k40() };
        assert_eq!(OccupancyModel::new(device).groups_per_mp(1024), 8);
    }
}
