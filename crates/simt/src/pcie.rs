//! PCI Express link model.
//!
//! The paper's Figure 13 distinguishes three reporting modes for the GPU
//! decompressor: no transfers (`No PCIe`), compressed input transferred to
//! the device (`In`), and both input and decompressed output transferred
//! (`In/Out`). Gompresso/Byte turns out to be *bound* by the PCIe 3.0 x16
//! link (nominal 16 GB/s, ~13 GB/s measured in the paper's own bandwidth
//! test). This module provides the link model used to add those transfer
//! costs to the simulated kernel times.

/// Payload bandwidth of one PCIe 3.0 lane in bytes/second: 8 GT/s after
/// 128b/130b encoding, ≈ 985 MB/s.
const GEN3_LANE_BANDWIDTH: f64 = 8.0e9 * (128.0 / 130.0) / 8.0;

/// A host↔device PCIe 3.0 link.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieLink {
    /// Number of lanes (x16 in the paper's system).
    pub lanes: u32,
    /// Fraction of nominal bandwidth achievable in practice (protocol and
    /// DMA overheads). The paper measures 13 GB/s against a 16 GB/s nominal
    /// link, i.e. ≈ 0.82.
    pub efficiency: f64,
    /// Fixed per-transfer latency in seconds (driver + DMA setup).
    pub latency: f64,
}

impl PcieLink {
    /// PCIe 3.0 x16 link as measured in the paper (≈13 GB/s sustained).
    pub fn gen3_x16() -> Self {
        PcieLink { lanes: 16, efficiency: 0.825, latency: 15.0e-6 }
    }

    /// Nominal (marketing) bandwidth of the link in bytes/second.
    pub fn nominal_bandwidth(&self) -> f64 {
        GEN3_LANE_BANDWIDTH * f64::from(self.lanes)
    }

    /// Sustained bandwidth in bytes/second.
    pub fn sustained_bandwidth(&self) -> f64 {
        self.nominal_bandwidth() * self.efficiency
    }

    /// Time in seconds to move `bytes` bytes in one direction.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency + bytes as f64 / self.sustained_bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x16_matches_paper_figures() {
        let link = PcieLink::gen3_x16();
        let nominal = link.nominal_bandwidth();
        // Nominal ≈ 15.75 GB/s ("16 GB/s" in the paper).
        assert!(nominal > 15.0e9 && nominal < 16.5e9, "nominal = {nominal}");
        let sustained = link.sustained_bandwidth();
        // Sustained ≈ 13 GB/s as measured in the paper.
        assert!(sustained > 12.5e9 && sustained < 13.5e9, "sustained = {sustained}");
    }

    #[test]
    fn transfer_time_scales_linearly_plus_latency() {
        let link = PcieLink::gen3_x16();
        let t1 = link.transfer_time(1 << 30);
        let t2 = link.transfer_time(2 << 30);
        // Doubling the payload should roughly double the time (latency is
        // negligible at 1 GiB).
        assert!((t2 / t1 - 2.0).abs() < 0.01);
        assert_eq!(link.transfer_time(0), 0.0);
        // A tiny transfer is dominated by latency.
        assert!(link.transfer_time(1) >= link.latency);
    }
}
