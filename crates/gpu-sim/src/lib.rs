//! Cycle-approximate GPU timing simulator (G80 class).
//!
//! The paper measures "real" kernel times on an NVIDIA Quadro FX 5600 — a
//! G80-generation part with 16 streaming multiprocessors (SMs) of 8 scalar
//! processors each, a 384-bit GDDR3 interface (76.8 GB/s), and the strict
//! CUDA 1.x coalescing rules. We have no such hardware, so this crate
//! simulates it: given a *lowered kernel instance* (grid/block geometry plus
//! a per-thread instruction summary), it resolves
//!
//! * occupancy (blocks per SM limited by threads, registers, shared memory),
//! * per-warp compute cycles including divergence serialization,
//! * per-warp memory transactions under G80 half-warp coalescing rules,
//!   including segment-granularity waste and misalignment penalties,
//! * latency hiding limited by the number of resident warps
//!   (the max(compute-bound, bandwidth-bound, latency-bound) form of the
//!   MWP/CWP analysis),
//! * wave quantization: blocks are scheduled in waves of
//!   `SMs × blocks_per_SM`, and the trailing partial wave runs at reduced
//!   occupancy — a tail effect analytic models typically smooth over,
//! * fixed kernel-launch overhead and seeded run-to-run noise.
//!
//! The crate models timing, not allocation: [`DeviceParams::dram_bytes`]
//! records the device-memory capacity, and the check that a workload fits
//! in it lives with the measurement protocol
//! (`grophecy::measurement::check_fits`).
//!
//! The deliberate asymmetry between this simulator and the analytic model
//! in `gpp-gpu-model` (which ignores wave tails, approximates divergence,
//! and smooths latency exposure) is what gives GROPHECY++ a realistic,
//! non-circular kernel-time prediction error — the paper reports 15% on
//! average (§I).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod instance;
pub mod occupancy;
pub mod profile;
pub mod sim;
pub mod timing;

pub use device::DeviceParams;
pub use instance::{KernelInstance, MemOp, ThreadProgram};
pub use occupancy::Occupancy;
pub use profile::profile;
pub use sim::{GpuSim, KernelTiming};
pub use timing::TimingBreakdown;
