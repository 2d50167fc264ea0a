//! Warp cost accounting and GPU cost model.
//!
//! The Gompresso paper runs its decompressor on an NVIDIA Tesla K40: each
//! compressed data block is handled by one *warp* of 32 threads executing in
//! lock step, coordinating through the `ballot` and `shfl` warp instructions.
//! No GPU is available in this reproduction, so the decompression kernels in
//! `gompresso-core` compute every lane's values on the host and charge what
//! the paper's Figure 5 kernels would issue to the accounts this crate
//! provides (see `DESIGN.md`):
//!
//! * [`warp`] — a [`Warp`] charges ballots, shuffles, shuffle-based prefix
//!   sums, resolution rounds and memory accesses, so round counts and lane
//!   utilization are directly observable.
//! * [`counters`] — the instruction / round / memory-transaction counters a
//!   warp accumulates, and their aggregate over a kernel launch.
//! * [`device`] — an analytical device model parameterised for the Tesla K40
//!   (SMX count, clock, DRAM bandwidth, shared-memory capacity) including
//!   the shared-memory occupancy limit that the paper identifies as the
//!   constraint on concurrent Huffman-decoding blocks.
//! * [`pcie`] — a PCI Express 3.0 x16 link model used to reproduce the
//!   host↔device transfer costs that dominate Gompresso/Byte in Figure 13.
//! * [`cost`] — converts counters plus device parameters into estimated
//!   kernel execution times and PCIe transfer times.
//!
//! The model is intentionally simple and transparent: it is calibrated to
//! reproduce the *shape* of the paper's results (who wins, by what factor,
//! where the PCIe ceiling bites), not absolute microsecond accuracy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod counters;
pub mod device;
pub mod pcie;
pub mod warp;

pub use cost::{CostModel, KernelTime};
pub use counters::{KernelCounters, MemoryScope, WarpCounters};
pub use device::{GpuDeviceModel, OccupancyModel};
pub use pcie::PcieLink;
pub use warp::{Warp, WARP_SIZE};
