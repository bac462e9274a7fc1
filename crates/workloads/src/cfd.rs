//! CFD: unstructured-grid finite-volume Euler solver (Rodinia's euler3d).
//!
//! "An unstructured-grid, finite-volume solver for the 3D Euler equations
//! for compressible flow. The core part of the benchmark is spread over
//! three GPU kernels... The data size in CFD represents the number of
//! particles being simulated." (§IV-B)
//!
//! The paper's meshes (`fvcorr.domn.097K` etc.) are Rodinia input files we
//! treat as unavailable; [`Mesh::synthetic`] generates the equivalent: an
//! element graph with four neighbours per element whose numbering has the
//! bounded locality a bandwidth-reduced mesh ordering produces (captured
//! in the skeleton with bounded-irregular indices), and per-face normals
//! that cancel per element so that a uniform flow state is a fixed point —
//! the property our conservation test checks.

use crate::WorkloadCase;
use crate::REFERENCE_THREADS;
use gpp_datausage::Hints;
use gpp_par::par_chunks;
use gpp_skeleton::builder::{cst, idx, irrb, ProgramBuilder};
use gpp_skeleton::{ElemType, Flops, IndexExpr, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ratio of specific heats for air.
pub const GAMMA: f32 = 1.4;
/// CFL number used by the step-factor kernel.
pub const CFL: f32 = 0.1;
/// Neighbour locality window of the synthetic mesh numbering, in elements
/// (the bounded-irregular span the skeleton declares).
pub const MESH_SPAN: u32 = 4;

/// Number of conserved variables: density, 3 momenta, energy.
pub const NVAR: usize = 5;
/// Faces (neighbours) per element.
pub const NFACE: usize = 4;

/// The CFD workload at one mesh size.
#[derive(Debug, Clone, Copy)]
pub struct Cfd {
    /// Number of mesh elements.
    pub nel: usize,
}

/// A synthetic unstructured mesh.
pub struct Mesh {
    /// Elements.
    pub nel: usize,
    /// Neighbour element index per face, `[face][element]` (SoA).
    pub neighbors: Vec<i32>,
    /// Signed face-normal magnitude per face, `[face][element]`; the four
    /// normals of each element sum to zero.
    pub normals: Vec<f32>,
    /// Element volumes/areas.
    pub areas: Vec<f32>,
}

impl Mesh {
    /// Generates a mesh with `nel` elements: a 2-D structured
    /// neighbourhood (locality!) with seeded jitter so the graph is
    /// genuinely irregular.
    pub fn synthetic(nel: usize, seed: u64) -> Mesh {
        assert!(nel >= 16, "mesh too small");
        let w = (nel as f64).sqrt() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut neighbors = vec![0i32; NFACE * nel];
        let mut normals = vec![0.0f32; NFACE * nel];
        let mut areas = vec![0.0f32; nel];
        for i in 0..nel {
            let base = [
                i.saturating_sub(1),
                (i + 1).min(nel - 1),
                i.saturating_sub(w),
                (i + w).min(nel - 1),
            ];
            for (f, &nb) in base.iter().enumerate() {
                // Jitter ~20% of edges within the locality window.
                let nb = if rng.gen_bool(0.2) {
                    let lo = nb.saturating_sub(MESH_SPAN as usize);
                    let hi = (nb + MESH_SPAN as usize).min(nel - 1);
                    rng.gen_range(lo..=hi)
                } else {
                    nb
                };
                neighbors[f * nel + i] = nb as i32;
            }
            // Opposite faces get opposite normals: Σ normals = 0.
            let a: f32 = rng.gen_range(0.5..1.5);
            let b: f32 = rng.gen_range(0.5..1.5);
            normals[i] = a;
            normals[nel + i] = -a;
            normals[2 * nel + i] = b;
            normals[3 * nel + i] = -b;
            areas[i] = rng.gen_range(0.8..1.2);
        }
        Mesh {
            nel,
            neighbors,
            normals,
            areas,
        }
    }
}

/// Flow state: conserved variables, `[var][element]` (SoA — the layout
/// GROPHECY's coalescing-friendly transformation of euler3d uses).
#[derive(Clone)]
pub struct FlowState {
    /// `NVAR × nel` values.
    pub vars: Vec<f32>,
    /// Element count.
    pub nel: usize,
}

impl FlowState {
    /// Free-stream initial condition with a density bump in the middle.
    pub fn initial(nel: usize) -> FlowState {
        let mut vars = vec![0.0f32; NVAR * nel];
        for i in 0..nel {
            let rho = if (nel / 3..2 * nel / 3).contains(&i) {
                1.2
            } else {
                1.0
            };
            let u = 0.3f32;
            let p = 1.0f32;
            vars[i] = rho;
            vars[nel + i] = rho * u; // x-momentum
            vars[2 * nel + i] = 0.0;
            vars[3 * nel + i] = 0.0;
            vars[4 * nel + i] = p / (GAMMA - 1.0) + 0.5 * rho * u * u;
        }
        FlowState { vars, nel }
    }

    /// Uniform free-stream state (a fixed point of the flux).
    pub fn uniform(nel: usize) -> FlowState {
        let mut s = FlowState::initial(nel);
        for i in 0..nel {
            s.vars[i] = 1.0;
            let u = 0.3f32;
            s.vars[nel + i] = u;
            s.vars[2 * nel + i] = 0.0;
            s.vars[3 * nel + i] = 0.0;
            s.vars[4 * nel + i] = 1.0 / (GAMMA - 1.0) + 0.5 * u * u;
        }
        s
    }
}

/// Primitive quantities of element `i`.
#[inline]
fn primitives(vars: &[f32], nel: usize, i: usize) -> (f32, f32, f32, f32) {
    let rho = vars[i].max(1e-6);
    let u = vars[nel + i] / rho;
    let e = vars[4 * nel + i];
    let p = ((GAMMA - 1.0) * (e - 0.5 * rho * u * u)).max(1e-6);
    let c = (GAMMA * p / rho).sqrt();
    (rho, u, p, c)
}

/// Kernel 1: per-element stable time-step factor.
pub fn compute_step_factor(state: &FlowState, areas: &[f32], sf: &mut [f32]) {
    let nel = state.nel;
    let vars = &state.vars;
    par_chunks(sf, REFERENCE_THREADS, 1024, |start, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            let i = start + k;
            let (_, u, _, c) = primitives(vars, nel, i);
            *v = 0.5 * CFL * areas[i].sqrt() / (c + u.abs());
        }
    });
}

/// 1-D Euler flux of element `i` projected on a unit normal.
#[inline]
fn flux_of(vars: &[f32], nel: usize, i: usize) -> [f32; NVAR] {
    let (rho, u, p, _) = primitives(vars, nel, i);
    let e = vars[4 * nel + i];
    [
        rho * u,
        rho * u * u + p,
        vars[2 * nel + i] * u,
        vars[3 * nel + i] * u,
        u * (e + p),
    ]
}

/// Kernel 2: accumulate Rusanov fluxes over the four faces.
/// `fluxes` is `[var][element]`.
pub fn compute_flux(state: &FlowState, mesh: &Mesh, fluxes: &mut [f32]) {
    let nel = state.nel;
    let vars = &state.vars;
    // Each worker owns a disjoint run of elements (AoS accumulator), then
    // a single transpose writes the SoA flux planes.
    let mut aos: Vec<[f32; NVAR]> = vec![[0.0; NVAR]; nel];
    par_chunks(&mut aos, REFERENCE_THREADS, 1024, |start, chunk| {
        for (k, acc) in chunk.iter_mut().enumerate() {
            let i = start + k;
            let fi = flux_of(vars, nel, i);
            let (_, ui, _, ci) = primitives(vars, nel, i);
            let mut sum = [0.0f32; NVAR];
            for f in 0..NFACE {
                let nb = mesh.neighbors[f * nel + i] as usize;
                let nrm = mesh.normals[f * nel + i];
                let fn_ = flux_of(vars, nel, nb);
                let (_, un, _, cn) = primitives(vars, nel, nb);
                let lam = (ui.abs() + ci).max(un.abs() + cn);
                for v in 0..NVAR {
                    let jump = vars[v * nel + nb] - vars[v * nel + i];
                    sum[v] += 0.5 * nrm * (fi[v] + fn_[v]) - 0.5 * nrm.abs() * lam * jump;
                }
            }
            *acc = sum;
        }
    });
    for (i, acc) in aos.iter().enumerate() {
        for v in 0..NVAR {
            fluxes[v * nel + i] = acc[v];
        }
    }
}

/// Kernel 3: advance the conserved variables.
pub fn time_step(state: &mut FlowState, sf: &[f32], fluxes: &[f32]) {
    let nel = state.nel;
    let sf_ref = sf;
    par_chunks(&mut state.vars, REFERENCE_THREADS, nel, |start, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            let flat = start + k;
            let i = flat % nel;
            *v -= sf_ref[i] * fluxes[flat];
        }
    });
}

/// One full solver iteration (the three kernels in order).
pub fn iterate(state: &mut FlowState, mesh: &Mesh, sf: &mut [f32], fluxes: &mut [f32]) {
    compute_step_factor(state, &mesh.areas, sf);
    compute_flux(state, mesh, fluxes);
    time_step(state, sf, fluxes);
}

impl Cfd {
    /// The paper's three data sizes (element counts; labels match the
    /// Rodinia mesh names the paper uses).
    pub const PAPER_SIZES: [usize; 3] = [97_000, 193_000, 232_000];

    /// Data-size label as Table I prints it.
    pub fn label(&self) -> String {
        match self.nel {
            97_000 => "97K".to_string(),
            193_000 => "193K".to_string(),
            232_000 => "233K".to_string(),
            n => format!("{}K", n / 1000),
        }
    }

    /// The skeleton: three kernels per iteration (§IV-B), SoA layout,
    /// neighbour gathers declared bounded-irregular with the mesh's
    /// locality window.
    pub fn program(&self) -> Program {
        let nel = self.nel;
        let mut p = ProgramBuilder::new(format!("cfd-{}", self.label()));
        let vars = p.array("variables", ElemType::F32, &[NVAR, nel]);
        let sf = p.array("step_factor", ElemType::F32, &[nel]);
        let fluxes = p.array("fluxes", ElemType::F32, &[NVAR, nel]);
        let areas = p.array("areas", ElemType::F32, &[nel]);
        let esn = p.array("neighbors", ElemType::I32, &[NFACE, nel]);
        let normals = p.array("normals", ElemType::F32, &[NFACE, nel]);

        // Kernel 1: step factor.
        let mut k1 = p.kernel("compute_step_factor");
        let i = k1.parallel_loop("i", nel as u64);
        let mut s = k1.statement();
        for v in 0..NVAR as i64 {
            s = s.read(vars, &[cst(v), idx(i)]);
        }
        s.read(areas, &[idx(i)])
            .write(sf, &[idx(i)])
            .flops(Flops {
                adds: 6,
                muls: 8,
                divs: 2,
                specials: 2,
                compares: 2,
            })
            .finish();
        k1.finish();

        // Kernel 2: flux accumulation with neighbour gathers.
        let mut k2 = p.kernel("compute_flux");
        let i = k2.parallel_loop("i", nel as u64);
        let mut s = k2.statement();
        for f in 0..NFACE as i64 {
            s = s.read(esn, &[cst(f), idx(i)]);
            s = s.read(normals, &[cst(f), idx(i)]);
        }
        for v in 0..NVAR as i64 {
            s = s.read(vars, &[cst(v), idx(i)]); // own state
        }
        // Neighbour state: 4 faces × 5 variables, data-dependent rows
        // within the mesh's locality window.
        for _ in 0..NFACE {
            for v in 0..NVAR as i64 {
                s = s.read_ix(vars, &[IndexExpr::Affine(cst(v)), irrb(MESH_SPAN)]);
            }
        }
        for v in 0..NVAR as i64 {
            s = s.write(fluxes, &[cst(v), idx(i)]);
        }
        s.flops(Flops {
            adds: 44,
            muls: 52,
            divs: 4,
            specials: 4,
            compares: 8,
        })
        .finish();
        k2.finish();

        // Kernel 3: time integration.
        let mut k3 = p.kernel("time_step");
        let i = k3.parallel_loop("i", nel as u64);
        let mut s = k3.statement();
        s = s.read(sf, &[idx(i)]);
        for v in 0..NVAR as i64 {
            s = s.read(fluxes, &[cst(v), idx(i)]);
            s = s.read(vars, &[cst(v), idx(i)]);
            s = s.write(vars, &[cst(v), idx(i)]);
        }
        s.flops(Flops {
            adds: 5,
            muls: 5,
            ..Flops::default()
        })
        .finish();
        k3.finish();

        p.build().expect("cfd skeleton is well-formed")
    }

    /// Hints: `step_factor` and `fluxes` are device-side temporaries.
    pub fn hints(&self) -> Hints {
        let prog = self.program();
        Hints::new()
            .temporary(prog.array_by_name("step_factor").expect("sf").id)
            .temporary(prog.array_by_name("fluxes").expect("fluxes").id)
    }

    /// Bundles skeleton + hints as one evaluation case.
    pub fn case(&self) -> WorkloadCase {
        WorkloadCase {
            app: "CFD",
            dataset: self.label(),
            program: self.program(),
            hints: self.hints(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_state_is_a_fixed_point() {
        // Normals cancel per element, so a uniform flow has zero net flux
        // and the solver must not change it.
        let mesh = Mesh::synthetic(4096, 7);
        let mut state = FlowState::uniform(4096);
        let before = state.vars.clone();
        let mut sf = vec![0.0; 4096];
        let mut fluxes = vec![0.0; NVAR * 4096];
        iterate(&mut state, &mesh, &mut sf, &mut fluxes);
        for (a, b) in state.vars.iter().zip(&before) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn perturbed_state_stays_physical() {
        let mesh = Mesh::synthetic(4096, 7);
        let mut state = FlowState::initial(4096);
        let mut sf = vec![0.0; 4096];
        let mut fluxes = vec![0.0; NVAR * 4096];
        for _ in 0..20 {
            iterate(&mut state, &mesh, &mut sf, &mut fluxes);
        }
        for i in 0..4096 {
            assert!(state.vars[i] > 0.0, "density went non-positive at {i}");
        }
        assert!(state.vars.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn step_factors_are_positive_and_bounded() {
        let mesh = Mesh::synthetic(1024, 3);
        let state = FlowState::initial(1024);
        let mut sf = vec![0.0; 1024];
        compute_step_factor(&state, &mesh.areas, &mut sf);
        assert!(sf.iter().all(|s| *s > 0.0 && *s < 1.0));
    }

    #[test]
    fn diffusion_smooths_the_density_bump() {
        // The initial density is a two-level step (1.0 / 1.2). Rusanov
        // dissipation erodes the discontinuity, so intermediate densities
        // appear where there were none.
        let mesh = Mesh::synthetic(4096, 9);
        let mut state = FlowState::initial(4096);
        let intermediate = |v: &[f32]| {
            v[..4096]
                .iter()
                .filter(|d| (1.02..1.18).contains(*d))
                .count()
        };
        let before = intermediate(&state.vars);
        assert_eq!(before, 0);
        let mut sf = vec![0.0; 4096];
        let mut fluxes = vec![0.0; NVAR * 4096];
        for _ in 0..50 {
            iterate(&mut state, &mesh, &mut sf, &mut fluxes);
        }
        assert!(intermediate(&state.vars) > 50, "bump did not smooth");
    }

    #[test]
    fn mesh_is_deterministic_and_local() {
        let a = Mesh::synthetic(10_000, 42);
        let b = Mesh::synthetic(10_000, 42);
        assert_eq!(a.neighbors, b.neighbors);
        // Per-element normals cancel.
        for i in 0..a.nel {
            let s: f32 = (0..NFACE).map(|f| a.normals[f * a.nel + i]).sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn skeleton_has_three_kernels_and_temporaries() {
        let cfd = Cfd { nel: 97_000 };
        let prog = cfd.program();
        assert_eq!(prog.kernels.len(), 3);
        let plan = gpp_datausage::analyze(&prog, &cfd.hints());
        // In: variables + areas + neighbors + normals. Out: variables.
        assert_eq!(plan.h2d.len(), 4);
        assert_eq!(plan.d2h.len(), 1);
        assert_eq!(plan.d2h[0].name, "variables");
        let nel = 97_000u64;
        assert_eq!(plan.h2d_bytes(), nel * 4 * (5 + 1 + 4 + 4));
        assert_eq!(plan.d2h_bytes(), nel * 4 * 5);
    }

    #[test]
    fn flux_kernel_is_gather_heavy() {
        let cfd = Cfd { nel: 97_000 };
        let prog = cfd.program();
        let flux = prog.kernel_by_name("compute_flux").unwrap();
        let chars = flux.characteristics(&prog);
        use gpp_skeleton::CoalesceClass;
        let gathers = chars
            .accesses
            .iter()
            .filter(|a| matches!(a.class, CoalesceClass::Strided(_)))
            .count();
        assert_eq!(gathers, NFACE * NVAR);
    }
}
