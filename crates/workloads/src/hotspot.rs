//! HotSpot: structured-grid thermal simulation (Rodinia).
//!
//! "An ordinary differential equation solver over a structured grid which
//! is used to estimate micro-architecture temperature. Every element is
//! computed by gathering a 3×3 neighborhood of elements (i.e., the
//! stencil) from the input array." (§IV-B; we use the classic 5-point
//! variant of Rodinia's hotspot kernel.)
//!
//! Data sizes: 64×64, 512×512, 1024×1024. Per Table I, the transfer set
//! is `temp` + `power` in (2·N²·4 bytes) and the final `temp` out
//! (N²·4 bytes).

use crate::WorkloadCase;
use crate::REFERENCE_THREADS;
use gpp_datausage::Hints;
use gpp_par::par_chunks;
use gpp_skeleton::builder::{idx, ProgramBuilder};
use gpp_skeleton::{ElemType, Flops, Program};

/// Physical constants of the thermal model (Rodinia defaults, folded to
/// the per-step coefficients).
#[derive(Debug, Clone, Copy)]
pub struct ThermalParams {
    /// Coupling to the north/south neighbours.
    pub ry: f32,
    /// Coupling to the east/west neighbours.
    pub rx: f32,
    /// Coupling to the ambient (vertical).
    pub rz: f32,
    /// Time step × inverse heat capacity.
    pub step_div_cap: f32,
    /// Ambient temperature.
    pub amb: f32,
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams {
            ry: 0.1,
            rx: 0.1,
            rz: 0.0125,
            step_div_cap: 0.5,
            amb: 80.0,
        }
    }
}

/// The HotSpot workload at one grid size.
#[derive(Debug, Clone, Copy)]
pub struct HotSpot {
    /// Grid edge length.
    pub n: usize,
}

impl HotSpot {
    /// The paper's three data sizes.
    pub const PAPER_SIZES: [usize; 3] = [64, 512, 1024];

    /// Data-size label as Table I prints it.
    pub fn label(&self) -> String {
        format!("{} x {}", self.n, self.n)
    }

    /// The code skeleton: one kernel over the full grid (boundary lanes
    /// guarded, as Rodinia's CUDA kernel does), 5-point stencil on `temp`
    /// (a reuse group the optimizer can stage in shared memory), one
    /// `power` load, one `temp_out` store.
    pub fn program(&self) -> Program {
        let n = self.n;
        let mut p = ProgramBuilder::new(format!("hotspot-{n}"));
        let temp = p.array("temp", ElemType::F32, &[n, n]);
        let power = p.array("power", ElemType::F32, &[n, n]);
        let temp_out = p.array("temp_out", ElemType::F32, &[n, n]);
        let mut k = p.kernel("hotspot_step");
        let i = k.parallel_loop("i", n as u64);
        let j = k.parallel_loop("j", n as u64);
        k.statement()
            .read(temp, &[idx(i) - 1, idx(j)]) // north
            .read(temp, &[idx(i) + 1, idx(j)]) // south
            .read(temp, &[idx(i), idx(j) - 1]) // west
            .read(temp, &[idx(i), idx(j) + 1]) // east
            .read(temp, &[idx(i), idx(j)]) // centre
            .read(power, &[idx(i), idx(j)])
            .write(temp_out, &[idx(i), idx(j)])
            .flops(Flops {
                adds: 10,
                muls: 6,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().expect("hotspot skeleton is well-formed")
    }

    /// No hints needed: `power` is read-only and the updated temperature
    /// is the desired output.
    pub fn hints(&self) -> Hints {
        Hints::new()
    }

    /// Bundles skeleton + hints as one evaluation case.
    pub fn case(&self) -> WorkloadCase {
        WorkloadCase {
            app: "HotSpot",
            dataset: self.label(),
            program: self.program(),
            hints: self.hints(),
        }
    }

    /// Synthetic input: a hot square in the middle of an 80° die, with a
    /// power bump under it. Deterministic.
    pub fn initial_state(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.n;
        let mut temp = vec![80.0f32; n * n];
        let mut power = vec![0.0f32; n * n];
        for r in n / 4..3 * n / 4 {
            for c in n / 4..3 * n / 4 {
                temp[r * n + c] = 95.0;
                power[r * n + c] = 0.8;
            }
        }
        (temp, power)
    }
}

/// One explicit time step, sequential reference.
pub fn step_seq(temp: &[f32], power: &[f32], out: &mut [f32], n: usize, p: &ThermalParams) {
    assert_eq!(temp.len(), n * n);
    assert_eq!(power.len(), n * n);
    assert_eq!(out.len(), n * n);
    out.copy_from_slice(temp); // boundary rows/cols keep their value
    for r in 1..n - 1 {
        for c in 1..n - 1 {
            out[r * n + c] = cell_update(temp, power, n, r, c, p);
        }
    }
}

/// One explicit time step, parallel over row bands (the OpenMP analogue).
pub fn step_par(temp: &[f32], power: &[f32], out: &mut [f32], n: usize, p: &ThermalParams) {
    assert_eq!(out.len(), n * n);
    par_chunks(out, REFERENCE_THREADS, n, |start, chunk| {
        debug_assert_eq!(start % n, 0);
        let r0 = start / n;
        for (k, v) in chunk.iter_mut().enumerate() {
            let r = r0 + (k / n);
            let c = k % n;
            *v = if r == 0 || r == n - 1 || c == 0 || c == n - 1 {
                temp[r * n + c]
            } else {
                cell_update(temp, power, n, r, c, p)
            };
        }
    });
}

#[inline]
fn cell_update(
    temp: &[f32],
    power: &[f32],
    n: usize,
    r: usize,
    c: usize,
    p: &ThermalParams,
) -> f32 {
    let t = temp[r * n + c];
    let tn = temp[(r - 1) * n + c];
    let ts = temp[(r + 1) * n + c];
    let tw = temp[r * n + c - 1];
    let te = temp[r * n + c + 1];
    t + p.step_div_cap
        * (power[r * n + c]
            + p.ry * (tn + ts - 2.0 * t)
            + p.rx * (tw + te - 2.0 * t)
            + p.rz * (p.amb - t))
}

/// Runs `iters` steps (ping-pong buffers), returning the final grid.
pub fn run(temp0: &[f32], power: &[f32], n: usize, iters: u32, p: &ThermalParams) -> Vec<f32> {
    let mut a = temp0.to_vec();
    let mut b = vec![0.0f32; n * n];
    for _ in 0..iters {
        step_par(&a, power, &mut b, n, p);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential_exactly() {
        let hs = HotSpot { n: 64 };
        let (temp, power) = hs.initial_state();
        let p = ThermalParams::default();
        let mut seq = vec![0.0; 64 * 64];
        let mut par = vec![0.0; 64 * 64];
        step_seq(&temp, &power, &mut seq, 64, &p);
        step_par(&temp, &power, &mut par, 64, &p);
        assert_eq!(seq, par);
    }

    #[test]
    fn heat_diffuses_toward_equilibrium() {
        let hs = HotSpot { n: 64 };
        let (temp, power) = hs.initial_state();
        let p = ThermalParams::default();
        let range = |g: &[f32]| {
            let mx = g.iter().cloned().fold(f32::MIN, f32::max);
            let mn = g.iter().cloned().fold(f32::MAX, f32::min);
            mx - mn
        };
        // With zero power, the hot square smears out: range shrinks.
        let zero_power = vec![0.0; power.len()];
        let after = run(&temp, &zero_power, 64, 50, &p);
        assert!(range(&after) < range(&temp));
        // All temperatures stay within physical bounds.
        assert!(after.iter().all(|t| (*t >= 75.0) && (*t <= 95.0)));
    }

    #[test]
    fn power_heats_the_die() {
        let hs = HotSpot { n: 64 };
        let (temp, power) = hs.initial_state();
        let p = ThermalParams::default();
        let heated = run(&temp, &power, 64, 20, &p);
        let cooled = run(&temp, &vec![0.0; power.len()], 64, 20, &p);
        let sum = |g: &[f32]| g.iter().map(|t| *t as f64).sum::<f64>();
        assert!(sum(&heated) > sum(&cooled));
    }

    #[test]
    fn skeleton_transfer_sizes_match_table1() {
        // Table I @ 1024x1024: input 8.0 MB, output 4.0 MB.
        let hs = HotSpot { n: 1024 };
        let plan = gpp_datausage::analyze(&hs.program(), &hs.hints());
        assert_eq!(plan.h2d_bytes(), 2 * 1024 * 1024 * 4);
        assert_eq!(plan.d2h_bytes(), 1024 * 1024 * 4);
        assert!(plan.is_exact());
    }

    #[test]
    fn skeleton_has_stageable_stencil() {
        let hs = HotSpot { n: 512 };
        let prog = hs.program();
        let chars = prog.kernels[0].characteristics(&prog);
        // 5 temp loads share one reuse group: 4/6 of loads are redundant.
        assert!((chars.sharable_load_fraction - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(chars.threads, 512 * 512);
    }

    #[test]
    fn boundary_is_preserved() {
        let hs = HotSpot { n: 32 };
        let (temp, power) = hs.initial_state();
        let after = run(&temp, &power, 32, 5, &ThermalParams::default());
        for c in 0..32 {
            assert_eq!(after[c], temp[c]);
            assert_eq!(after[31 * 32 + c], temp[31 * 32 + c]);
        }
    }
}
