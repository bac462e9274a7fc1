//! The analytic kernel-time projection.
//!
//! For a synthesized (transformed) kernel the model computes three
//! throughput bounds and takes the maximum — an MWP/CWP-style analysis in
//! the spirit of Hong & Kim (ISCA'09), which GROPHECY's internal GPU model
//! follows:
//!
//! * compute: total warp-instructions through the device's issue width,
//! * memory: total DRAM traffic through the (derated) datasheet bandwidth,
//! * latency: if too few warps are resident to hide the assumed load
//!   latency, the SM idles between completions.
//!
//! **Known, deliberate approximations** (the error the paper measures):
//! blocks per SM are treated as a continuous average (no wave
//! quantization/tail), launch overhead uses the documented figure rather
//! than the machine's true one, and one uniform bandwidth derate is
//! applied regardless of access pattern (real scattered traffic runs
//! slower — the dominant CFD error).

use crate::occupancy::ModelOccupancy;
use crate::spec::GpuSpec;
use crate::transform::{
    candidate_space, synthesize_transformed, SynthesizedKernel, Transformation,
};
use gpp_skeleton::KernelCharacteristics;

/// Pipeline-drain cost of one `__syncthreads()`, in cycles.
pub(crate) const BARRIER_CYCLES: f64 = 24.0;

/// Which analytic bound dominated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionBound {
    /// Instruction issue throughput.
    Compute,
    /// DRAM bandwidth.
    Memory,
    /// Exposed latency (low occupancy).
    Latency,
}

impl std::fmt::Display for ProjectionBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectionBound::Compute => write!(f, "compute"),
            ProjectionBound::Memory => write!(f, "memory"),
            ProjectionBound::Latency => write!(f, "latency"),
        }
    }
}

/// The projection for one candidate transformation.
#[derive(Debug, Clone)]
pub struct KernelProjection {
    /// Kernel name.
    pub name: String,
    /// The transformation this projection assumes.
    pub config: Transformation,
    /// Projected execution time, seconds.
    pub time: f64,
    /// Dominating bound.
    pub bound: ProjectionBound,
    /// Projected occupancy.
    pub occupancy: ModelOccupancy,
    /// Projected DRAM traffic, bytes.
    pub dram_bytes: f64,
}

/// The name-free evaluation of one candidate (what the search actually
/// computes; the winner gets its `String` name exactly once). Shared
/// with the fast search (`crate::soa`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Eval {
    pub(crate) time: f64,
    pub(crate) bound: ProjectionBound,
    pub(crate) occupancy: ModelOccupancy,
    pub(crate) dram_bytes: f64,
}

impl Eval {
    pub(crate) fn into_projection(self, name: &str, config: Transformation) -> KernelProjection {
        KernelProjection {
            name: name.to_string(),
            config,
            time: self.time,
            bound: self.bound,
            occupancy: self.occupancy,
            dram_bytes: self.dram_bytes,
        }
    }
}

/// Projects the execution time of one synthesized kernel.
///
/// Returns `None` if the configuration cannot run (occupancy = 0).
pub fn project(name: &str, spec: &GpuSpec, kernel: &SynthesizedKernel) -> Option<KernelProjection> {
    Some(project_inner(spec, kernel)?.into_projection(name, kernel.config))
}

fn project_inner(spec: &GpuSpec, kernel: &SynthesizedKernel) -> Option<Eval> {
    let occ = ModelOccupancy::compute(spec, kernel)?;
    let cpi = spec.cycles_per_warp_inst();
    let warp_size = spec.warp_size as f64;
    let total_warps = (kernel.threads as f64 / warp_size).ceil();

    // Per-warp issue cycles: arithmetic + staged shared accesses, with the
    // average divergence penalty, plus barrier drains.
    let divergence = 1.0 / kernel.active_fraction.clamp(1e-6, 1.0);
    let warp_cycles = (kernel.compute_slots + kernel.shared_accesses) * cpi * divergence
        + kernel.syncs as f64 * BARRIER_CYCLES;

    // Bound 1: compute. All warps through all SMs' issue pipes.
    let compute_time = total_warps * warp_cycles / (spec.sms as f64 * spec.clock_hz);

    // Bound 2: memory. Total traffic through derated datasheet bandwidth.
    let bytes_per_thread = kernel.global_bytes_per_thread(spec);
    let dram_bytes = kernel.threads as f64 * bytes_per_thread;
    let memory_time = dram_bytes / spec.assumed_mem_bw();

    // Bound 3: latency. Each warp's critical path is its memory
    // instructions' latencies plus its compute; `warps_per_sm` warps
    // overlap on an SM.
    let mem_insts = kernel.global_mem_insts();
    let critical_path = mem_insts * spec.mem_latency_cycles + warp_cycles;
    let latency_time =
        total_warps * critical_path / (occ.warps_per_sm as f64 * spec.sms as f64 * spec.clock_hz);

    let exec = compute_time.max(memory_time).max(latency_time);
    let time = exec + spec.launch_overhead;
    let bound = if exec == compute_time && compute_time >= memory_time {
        ProjectionBound::Compute
    } else if exec == memory_time {
        ProjectionBound::Memory
    } else {
        ProjectionBound::Latency
    };

    Some(Eval {
        time,
        bound,
        occupancy: occ,
        dram_bytes,
    })
}

/// Which transformation-space search [`project_best_with`] runs. Both
/// select the bit-identical projection; they differ only in wall-clock
/// time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchOpts {
    /// The production search: structure-of-arrays lanes over the
    /// per-thread setup cache, with syntheses through the process-wide
    /// memo ([`crate::transform::synthesize_cached_keyed`]). Serial within
    /// one search.
    #[default]
    Fast,
    /// The reference oracle: synthesizes and projects every candidate
    /// through the scalar model — no memo, no cache, no shortcut. With
    /// `GPP_THREADS=1` this is bit-for-bit the serial seed code path.
    Exhaustive,
}

/// Explores the transformation space with [`SearchOpts::Fast`] and
/// returns only the best projection — the hot path (the core projector
/// calls this once per kernel × axis).
pub fn project_best(name: &str, chars: &KernelCharacteristics, spec: &GpuSpec) -> KernelProjection {
    crate::soa::project_best_soa(name, chars, spec)
}

/// [`project_best`] with an explicit search (benchmarks and the
/// determinism suite hold [`SearchOpts::Fast`] to the
/// [`SearchOpts::Exhaustive`] oracle).
pub fn project_best_with(
    name: &str,
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
    opts: SearchOpts,
) -> KernelProjection {
    match opts {
        SearchOpts::Fast => crate::soa::project_best_soa(name, chars, spec),
        SearchOpts::Exhaustive => {
            // Serial index-ordered reduction: first strict minimum wins,
            // exactly like the seed's stable sort-by-time.
            let mut best: Option<(Transformation, Eval)> = None;
            for (config, ev) in evaluate_space(chars, spec) {
                if let Some(ev) = ev {
                    if best.is_none_or(|(_, b)| ev.time < b.time) {
                        best = Some((config, ev));
                    }
                }
            }
            let (config, ev) = best.unwrap_or_else(|| no_runnable(name));
            ev.into_projection(name, config)
        }
    }
}

/// Explores the whole transformation space and materializes every
/// candidate for reports, sorted by projected time: "GROPHECY projects
/// the best achievable performance and the transformations necessary to
/// reach that performance". The hot path should call [`project_best`]
/// instead.
pub fn project_all(
    name: &str,
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
) -> (KernelProjection, Vec<KernelProjection>) {
    let mut all: Vec<KernelProjection> = evaluate_space(chars, spec)
        .into_iter()
        .filter_map(|(config, ev)| Some(ev?.into_projection(name, config)))
        .collect();
    if all.is_empty() {
        no_runnable(name);
    }
    all.sort_by(|a, b| a.time.total_cmp(&b.time));
    (all[0].clone(), all)
}

/// Synthesizes and projects every candidate, in candidate order, on the
/// `gpp-par` pool (index-ordered results, so bit-identical at any thread
/// count). `None` marks a candidate that cannot run.
fn evaluate_space(
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
) -> Vec<(Transformation, Option<Eval>)> {
    let candidates = candidate_space(chars, spec);
    let evals = gpp_par::par_map(candidates.len(), |i| {
        project_inner(spec, &synthesize_transformed(chars, candidates[i]))
    });
    candidates.into_iter().zip(evals).collect()
}

pub(crate) fn no_runnable(name: &str) -> ! {
    panic!("no runnable transformation for kernel `{name}` — block sizes exhausted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops, Program};

    fn vadd_program(n: u64) -> Program {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[n as usize]);
        let b = p.array("b", ElemType::F32, &[n as usize]);
        let c = p.array("c", ElemType::F32, &[n as usize]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", n);
        k.statement()
            .read(a, &[idx(i)])
            .read(b, &[idx(i)])
            .write(c, &[idx(i)])
            .flops(Flops {
                adds: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().unwrap()
    }

    fn stencil_program(n: usize) -> Program {
        let mut p = ProgramBuilder::new("stencil");
        let a = p.array("in", ElemType::F32, &[n, n]);
        let b = p.array("out", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", (n - 2) as u64);
        let j = k.parallel_loop("j", (n - 2) as u64);
        k.statement()
            .read(a, &[idx(i), idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j)])
            .read(a, &[idx(i) + 1, idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j) + 2])
            .read(a, &[idx(i) + 2, idx(j) + 1])
            .write(b, &[idx(i) + 1, idx(j) + 1])
            .flops(Flops {
                adds: 10,
                muls: 4,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().unwrap()
    }

    #[test]
    fn vadd_projection_is_memory_bound_at_datasheet_bandwidth() {
        let prog = vadd_program(1 << 24);
        let chars = prog.kernels[0].characteristics(&prog);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("add", &chars, &spec);
        assert_eq!(best.bound, ProjectionBound::Memory);
        // 16M threads × 12 B / (76.8 GB/s × 0.85) ≈ 3.08 ms + launch.
        let expect = (1u64 << 24) as f64 * 12.0 / (76.8e9 * 0.80) + spec.launch_overhead;
        assert!(
            (best.time / expect - 1.0).abs() < 0.01,
            "{} vs {}",
            best.time,
            expect
        );
        assert!(all.len() > 3);
    }

    #[test]
    fn stencil_projection_prefers_shared_memory() {
        let prog = stencil_program(1024);
        let chars = prog.kernels[0].characteristics(&prog);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("k", &chars, &spec);
        assert!(best.config.use_shared, "best config: {}", best.config);
        // The best projection beats the worst by a meaningful factor.
        let worst = all.last().unwrap();
        assert!(worst.time > best.time * 1.3);
    }

    #[test]
    fn tiny_kernel_candidates_hit_the_latency_wall() {
        // A 2048-element kernel cannot fill the machine: small-block
        // candidates are latency-bound, and the best configuration escapes
        // only by choosing large blocks.
        let prog = vadd_program(2048);
        let chars = prog.kernels[0].characteristics(&prog);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("add", &chars, &spec);
        assert!(all.iter().any(|p| p.bound == ProjectionBound::Latency));
        assert!(best.config.block_threads >= 256, "best: {}", best.config);
        let worst = all.last().unwrap();
        assert_eq!(worst.bound, ProjectionBound::Latency);
        assert!(worst.time > best.time);
    }

    #[test]
    fn faster_device_projects_faster() {
        let prog = vadd_program(1 << 24);
        let chars = prog.kernels[0].characteristics(&prog);
        let g80 = project_best("add", &chars, &GpuSpec::quadro_fx_5600());
        let gt200 = project_best("add", &chars, &GpuSpec::tesla_c1060());
        assert!(gt200.time < g80.time);
    }

    #[test]
    fn projection_time_scales_with_data() {
        let small = vadd_program(1 << 20);
        let big = vadd_program(1 << 24);
        let spec = GpuSpec::quadro_fx_5600();
        let cs = small.kernels[0].characteristics(&small);
        let cb = big.kernels[0].characteristics(&big);
        let ps = project_best("add", &cs, &spec);
        let pb = project_best("add", &cb, &spec);
        let ratio = pb.time / ps.time;
        assert!((12.0..20.0).contains(&ratio), "ratio {ratio}");
    }
}
