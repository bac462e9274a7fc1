//! The GROPHECY analytic GPU performance model.
//!
//! This crate is our reimplementation of the projection engine of
//! GROPHECY (Meng, Morozov, Kumaran, Vishwanath, Uram — SC'11), the
//! framework the paper extends. Given a kernel's synthesized
//! characteristics (from `gpp-skeleton`) and a GPU *datasheet*
//! ([`GpuSpec`]), it:
//!
//! 1. enumerates a space of code transformations — thread-block geometry,
//!    shared-memory staging of reusable loads, unrolling
//!    ([`transform::candidate_space`]),
//! 2. synthesizes the performance characteristics each transformed kernel
//!    would have ([`transform::SynthesizedKernel`]),
//! 3. projects each candidate's execution time with an MWP/CWP-style
//!    analytic throughput model ([`project::project`]), and
//! 4. reports the best achievable time and the transformation that
//!    reaches it ([`project::project_best`]) — "GROPHECY projects the best
//!    achievable performance and the transformations necessary to reach
//!    that performance" (paper §II-C).
//!
//! Step 4 has one production path and one reference oracle
//! ([`SearchOpts`]). [`SearchOpts::Fast`], what [`project_best`] runs,
//! synthesizes once per shared-memory staging class through a
//! process-wide memo, caches each (kernel, device) setup per thread, and
//! evaluates the candidates as structure-of-arrays lanes.
//! [`SearchOpts::Exhaustive`] synthesizes and projects every candidate
//! through the scalar model. Both select the bit-identical projection;
//! the test suites hold `Fast` to `Exhaustive` at every `GPP_THREADS`.
//!
//! The model sees only *public* information: the code skeleton and the
//! device datasheet. It does **not** see the timing simulator's internal
//! parameters (scattered-traffic DRAM derating, exact latency, launch
//! overhead, wave quantization), so its projections carry an honest error
//! of the magnitude the paper reports for kernel times (~15% average,
//! §I) — that asymmetry is deliberate and is what makes the downstream
//! validation meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod occupancy;
pub mod project;
mod soa;
pub mod spec;
pub mod transform;

pub use occupancy::ModelOccupancy;
pub use project::{
    project, project_all, project_best, project_best_with, KernelProjection, ProjectionBound,
    SearchOpts,
};
pub use spec::GpuSpec;
pub use transform::{
    candidate_space, program_fingerprint, synth_memo_stats, synthesize_cached_keyed,
    synthesize_transformed, CharsKey, SynthesizedKernel, Transformation,
};
