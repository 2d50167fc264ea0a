//! Compression/decompression statistics and GPU time estimates.

use gompresso_simt::{CostModel, KernelCounters, OccupancyModel};

/// Statistics collected while compressing.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionStats {
    /// Input size in bytes.
    pub uncompressed_size: u64,
    /// Total compressed file size in bytes (header included).
    pub compressed_size: u64,
    /// Number of data blocks.
    pub blocks: usize,
    /// Total number of sequences across all blocks.
    pub sequences: u64,
    /// Total number of back-references.
    pub matches: u64,
    /// Total literal bytes.
    pub literal_bytes: u64,
    /// Mean match length over all back-references.
    pub mean_match_len: f64,
    /// Wall-clock compression time in seconds.
    pub wall_seconds: f64,
}

impl CompressionStats {
    /// Compression ratio (uncompressed / compressed), 0 when empty.
    pub fn ratio(&self) -> f64 {
        if self.compressed_size == 0 {
            0.0
        } else {
            self.uncompressed_size as f64 / self.compressed_size as f64
        }
    }

    /// Compression speed in bytes per second of uncompressed input.
    pub fn speed_bytes_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.uncompressed_size as f64 / self.wall_seconds
        }
    }
}

/// Multi-Round Resolution statistics (paper, Figures 9b and 9c).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MrrStats {
    /// `bytes_per_round[r]` = total back-reference bytes resolved in round
    /// `r + 1`, summed over all warps and groups.
    pub bytes_per_round: Vec<u64>,
    /// Number of warp-group resolutions that needed exactly `r + 1` rounds.
    pub groups_with_rounds: Vec<u64>,
    /// Total number of warp-group resolutions performed.
    pub total_groups: u64,
}

impl MrrStats {
    /// Merges another set of MRR statistics into this one.
    pub fn merge(&mut self, other: &MrrStats) {
        let rounds = self.bytes_per_round.len().max(other.bytes_per_round.len());
        self.bytes_per_round.resize(rounds, 0);
        for (i, &b) in other.bytes_per_round.iter().enumerate() {
            self.bytes_per_round[i] += b;
        }
        let rounds = self.groups_with_rounds.len().max(other.groups_with_rounds.len());
        self.groups_with_rounds.resize(rounds, 0);
        for (i, &g) in other.groups_with_rounds.iter().enumerate() {
            self.groups_with_rounds[i] += g;
        }
        self.total_groups += other.total_groups;
    }

    /// Records that one warp group finished after `rounds` rounds, resolving
    /// `bytes_by_round[r]` bytes in round `r`.
    pub fn record_group(&mut self, bytes_by_round: &[u64]) {
        let rounds = bytes_by_round.len();
        if self.bytes_per_round.len() < rounds {
            self.bytes_per_round.resize(rounds, 0);
        }
        for (i, &b) in bytes_by_round.iter().enumerate() {
            self.bytes_per_round[i] += b;
        }
        if rounds > 0 {
            if self.groups_with_rounds.len() < rounds {
                self.groups_with_rounds.resize(rounds, 0);
            }
            self.groups_with_rounds[rounds - 1] += 1;
        }
        self.total_groups += 1;
    }

    /// Mean number of rounds per warp group.
    pub fn mean_rounds(&self) -> f64 {
        if self.total_groups == 0 {
            return 0.0;
        }
        let weighted: u64 =
            self.groups_with_rounds.iter().enumerate().map(|(i, &g)| (i as u64 + 1) * g).sum();
        weighted as f64 / self.total_groups as f64
    }

    /// Maximum number of rounds any group needed.
    pub fn max_rounds(&self) -> usize {
        self.groups_with_rounds.len()
    }

    /// Average bytes resolved in round `round` (1-based) per group that ran
    /// at least that many rounds — the quantity plotted in Figure 9b.
    pub fn mean_bytes_in_round(&self, round: usize) -> f64 {
        if round == 0 || round > self.bytes_per_round.len() || self.total_groups == 0 {
            return 0.0;
        }
        self.bytes_per_round[round - 1] as f64 / self.total_groups as f64
    }
}

/// Estimated GPU execution times derived from the simulated kernel counters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuEstimate {
    /// Estimated Huffman-decoding kernel time in seconds (0 for byte mode).
    pub decode_kernel_s: f64,
    /// Estimated LZ77 decompression kernel time in seconds.
    pub lz77_kernel_s: f64,
    /// Host→device transfer time for the compressed input, in seconds.
    pub input_transfer_s: f64,
    /// Device→host transfer time for the decompressed output, in seconds.
    pub output_transfer_s: f64,
}

impl GpuEstimate {
    /// Device-only time (kernels, no PCIe) in seconds.
    pub fn device_only_s(&self) -> f64 {
        self.decode_kernel_s + self.lz77_kernel_s
    }

    /// Time including the input transfer but not the output transfer.
    pub fn with_input_s(&self) -> f64 {
        self.device_only_s() + self.input_transfer_s
    }

    /// End-to-end time including both transfers.
    pub fn with_io_s(&self) -> f64 {
        self.device_only_s() + self.input_transfer_s + self.output_transfer_s
    }

    /// Decompression bandwidth (uncompressed bytes / second) for a given
    /// total time.
    pub fn bandwidth(uncompressed: u64, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            uncompressed as f64 / seconds
        }
    }

    /// Computes the GPU estimate for the collected counters under a given
    /// cost model and maximum codeword length (which determines the shared
    /// memory footprint and therefore the occupancy of the decode kernel).
    pub fn from_counters(
        cost: &CostModel,
        decode_counters: &KernelCounters,
        lz77_counters: &KernelCounters,
        max_codeword_len: u8,
        compressed_size: u64,
        uncompressed_size: u64,
    ) -> GpuEstimate {
        let decode_shared = if decode_counters.warps == 0 {
            0
        } else {
            OccupancyModel::huffman_lut_bytes(u32::from(max_codeword_len))
        };
        let decode_kernel_s = cost.estimate_kernel(decode_counters, decode_shared).total();
        let lz77_kernel_s = cost.estimate_kernel(lz77_counters, 0).total();
        GpuEstimate {
            decode_kernel_s,
            lz77_kernel_s,
            input_transfer_s: cost.input_transfer_s(compressed_size),
            output_transfer_s: cost.output_transfer_s(uncompressed_size),
        }
    }
}

/// What a host decompression measured: sizes and wall time. Simulated GPU
/// figures live in [`SimulationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecompressionReport {
    /// Uncompressed output size in bytes.
    pub uncompressed_size: u64,
    /// Compressed input size in bytes.
    pub compressed_size: u64,
    /// Wall-clock decompression time on the host CPU in seconds.
    pub wall_seconds: f64,
}

impl DecompressionReport {
    /// Compression ratio of the decompressed file.
    pub fn ratio(&self) -> f64 {
        if self.compressed_size == 0 {
            0.0
        } else {
            self.uncompressed_size as f64 / self.compressed_size as f64
        }
    }

    /// Host (CPU) decompression bandwidth actually measured for this run.
    pub fn host_bandwidth(&self) -> f64 {
        GpuEstimate::bandwidth(self.uncompressed_size, self.wall_seconds)
    }
}

/// Model output of [`crate::Decompressor::simulate`]: the simulated
/// kernels' counters and the GPU time estimates derived from them. These
/// are estimates for the modelled device, never host measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Uncompressed output size in bytes.
    pub uncompressed_size: u64,
    /// Compressed input size in bytes.
    pub compressed_size: u64,
    /// Counters of the (simulated) Huffman-decoding kernel.
    pub decode_counters: KernelCounters,
    /// Counters of the (simulated) LZ77 decompression kernel.
    pub lz77_counters: KernelCounters,
    /// MRR round statistics (empty unless the MRR strategy ran).
    pub mrr: MrrStats,
    /// Estimated GPU kernel and transfer times.
    pub gpu: GpuEstimate,
}

impl SimulationReport {
    /// Estimated GPU decompression bandwidth without PCIe transfers.
    pub fn gpu_bandwidth_no_pcie(&self) -> f64 {
        GpuEstimate::bandwidth(self.uncompressed_size, self.gpu.device_only_s())
    }

    /// Estimated GPU bandwidth including the input transfer only.
    pub fn gpu_bandwidth_in(&self) -> f64 {
        GpuEstimate::bandwidth(self.uncompressed_size, self.gpu.with_input_s())
    }

    /// Estimated GPU bandwidth including both transfers.
    pub fn gpu_bandwidth_in_out(&self) -> f64 {
        GpuEstimate::bandwidth(self.uncompressed_size, self.gpu.with_io_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_stats_ratios() {
        let s = CompressionStats {
            uncompressed_size: 1000,
            compressed_size: 250,
            blocks: 1,
            sequences: 10,
            matches: 8,
            literal_bytes: 100,
            mean_match_len: 16.0,
            wall_seconds: 0.5,
        };
        assert!((s.ratio() - 4.0).abs() < 1e-12);
        assert!((s.speed_bytes_per_sec() - 2000.0).abs() < 1e-9);
        let empty = CompressionStats { compressed_size: 0, wall_seconds: 0.0, ..s };
        assert_eq!(empty.ratio(), 0.0);
        assert_eq!(empty.speed_bytes_per_sec(), 0.0);
    }

    #[test]
    fn mrr_stats_record_and_aggregate() {
        let mut stats = MrrStats::default();
        stats.record_group(&[100, 50, 10]); // 3 rounds
        stats.record_group(&[200]); // 1 round
        stats.record_group(&[80, 20]); // 2 rounds
        assert_eq!(stats.total_groups, 3);
        assert_eq!(stats.max_rounds(), 3);
        assert_eq!(stats.bytes_per_round, vec![380, 70, 10]);
        assert_eq!(stats.groups_with_rounds, vec![1, 1, 1]);
        assert!((stats.mean_rounds() - 2.0).abs() < 1e-12);
        assert!((stats.mean_bytes_in_round(1) - 380.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.mean_bytes_in_round(0), 0.0);
        assert_eq!(stats.mean_bytes_in_round(9), 0.0);

        let mut other = MrrStats::default();
        other.record_group(&[5, 5, 5, 5]);
        stats.merge(&other);
        assert_eq!(stats.total_groups, 4);
        assert_eq!(stats.max_rounds(), 4);
        assert_eq!(stats.bytes_per_round[3], 5);
    }

    #[test]
    fn empty_mrr_stats_are_neutral() {
        let stats = MrrStats::default();
        assert_eq!(stats.mean_rounds(), 0.0);
        assert_eq!(stats.max_rounds(), 0);
        assert_eq!(stats.mean_bytes_in_round(1), 0.0);
    }

    #[test]
    fn gpu_estimate_compositions() {
        let g = GpuEstimate {
            decode_kernel_s: 0.010,
            lz77_kernel_s: 0.020,
            input_transfer_s: 0.005,
            output_transfer_s: 0.040,
        };
        assert!((g.device_only_s() - 0.030).abs() < 1e-12);
        assert!((g.with_input_s() - 0.035).abs() < 1e-12);
        assert!((g.with_io_s() - 0.075).abs() < 1e-12);
        assert_eq!(GpuEstimate::bandwidth(100, 0.0), 0.0);
        assert!((GpuEstimate::bandwidth(1000, 0.5) - 2000.0).abs() < 1e-9);
    }
}
