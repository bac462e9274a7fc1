//! SRAD: speckle-reducing anisotropic diffusion (Rodinia).
//!
//! "A diffusion method to remove speckles from ultrasonic and radar
//! imaging applications without destroying important image features. It
//! has two kernels: the first one generates diffusion coefficients, and
//! the second one updates the image." (§IV-B)
//!
//! Data sizes: 1024², 2048², 4096². Per Table I the transfer set is the
//! image in and the image out (the diffusion-coefficient array is a
//! device-side temporary — the canonical use of the paper's temporary
//! hint).

use crate::WorkloadCase;
use crate::REFERENCE_THREADS;
use gpp_datausage::Hints;
use gpp_par::par_chunks;
use gpp_skeleton::builder::{idx, ProgramBuilder};
use gpp_skeleton::{ElemType, Flops, Program};

/// Diffusion strength (Rodinia's `lambda`).
pub const LAMBDA: f32 = 0.5;

/// The SRAD workload at one image size.
#[derive(Debug, Clone, Copy)]
pub struct Srad {
    /// Image edge length.
    pub n: usize,
}

impl Srad {
    /// The paper's three data sizes.
    pub const PAPER_SIZES: [usize; 3] = [1024, 2048, 4096];

    /// Data-size label as Table I prints it.
    pub fn label(&self) -> String {
        format!("{} x {}", self.n, self.n)
    }

    /// The skeleton: two kernels with a flow dependence on `coeff`.
    ///
    /// Kernel 1 (`srad_prep`) gathers the 4-neighbourhood of `img`
    /// (a reuse group), computes the instantaneous coefficient of
    /// variation (divisions!), writes `coeff`. Kernel 2 (`srad_update`)
    /// gathers `coeff` at C/S/E plus `img`, applies the diffusion update,
    /// writes `img`. "Data dependency among the two kernels involves
    /// several arrays, and each data-parallel task in the consumer kernel
    /// depends on several tasks in the producer kernel."
    pub fn program(&self) -> Program {
        let n = self.n;
        let mut p = ProgramBuilder::new(format!("srad-{n}"));
        let img = p.array("img", ElemType::F32, &[n, n]);
        let coeff = p.array("coeff", ElemType::F32, &[n, n]);

        // Both kernels run over the full grid with guarded boundary lanes
        // (as Rodinia's srad_cuda_1/2 do), so kernel 1 defines `coeff`
        // everywhere and no halo of it ever crosses the bus.
        let mut k1 = p.kernel("srad_prep");
        let i = k1.parallel_loop("i", n as u64);
        let j = k1.parallel_loop("j", n as u64);
        k1.statement()
            .read(img, &[idx(i) - 1, idx(j)])
            .read(img, &[idx(i) + 1, idx(j)])
            .read(img, &[idx(i), idx(j) - 1])
            .read(img, &[idx(i), idx(j) + 1])
            .read(img, &[idx(i), idx(j)])
            .write(coeff, &[idx(i), idx(j)])
            .flops(Flops {
                adds: 12,
                muls: 10,
                divs: 3,
                ..Flops::default()
            })
            .finish();
        k1.finish();

        let mut k2 = p.kernel("srad_update");
        let i = k2.parallel_loop("i", n as u64);
        let j = k2.parallel_loop("j", n as u64);
        k2.statement()
            .read(coeff, &[idx(i), idx(j)])
            .read(coeff, &[idx(i) + 1, idx(j)])
            .read(coeff, &[idx(i), idx(j) + 1])
            .read(img, &[idx(i) - 1, idx(j)])
            .read(img, &[idx(i) + 1, idx(j)])
            .read(img, &[idx(i), idx(j) - 1])
            .read(img, &[idx(i), idx(j) + 1])
            .read(img, &[idx(i), idx(j)])
            .write(img, &[idx(i), idx(j)])
            .flops(Flops {
                adds: 10,
                muls: 8,
                ..Flops::default()
            })
            .finish();
        k2.finish();

        p.build().expect("srad skeleton is well-formed")
    }

    /// The paper's hint: `coeff` is a temporary and is never copied back.
    pub fn hints(&self) -> Hints {
        let prog = self.program();
        Hints::new().temporary(prog.array_by_name("coeff").expect("coeff exists").id)
    }

    /// Bundles skeleton + hints as one evaluation case.
    pub fn case(&self) -> WorkloadCase {
        WorkloadCase {
            app: "SRAD",
            dataset: self.label(),
            program: self.program(),
            hints: self.hints(),
        }
    }

    /// Synthetic speckled input: a smooth ramp with multiplicative noise
    /// (deterministic LCG).
    pub fn initial_image(&self) -> Vec<f32> {
        let n = self.n;
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n * n)
            .map(|k| {
                let (r, c) = (k / n, k % n);
                let base = 100.0 + 50.0 * ((r as f32 / n as f32) + (c as f32 / n as f32));
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 33) as f32) / (u32::MAX >> 1) as f32; // [0,2)
                base * (0.75 + 0.25 * u)
            })
            .collect()
    }
}

/// Kernel 1: diffusion coefficients from the coefficient of variation.
pub fn prep(img: &[f32], coeff: &mut [f32], n: usize, q0sqr: f32) {
    par_chunks(coeff, REFERENCE_THREADS, n, |start, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            let idx = start + k;
            let (r, c) = (idx / n, idx % n);
            if r == 0 || r == n - 1 || c == 0 || c == n - 1 {
                *v = 1.0;
                continue;
            }
            let jc = img[r * n + c];
            let dn = img[(r - 1) * n + c] - jc;
            let ds = img[(r + 1) * n + c] - jc;
            let dw = img[r * n + c - 1] - jc;
            let de = img[r * n + c + 1] - jc;
            let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
            let l = (dn + ds + dw + de) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let d = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr));
            *v = (1.0 / (1.0 + d)).clamp(0.0, 1.0);
        }
    });
}

/// Kernel 2: the diffusion update.
pub fn update(img: &mut [f32], coeff: &[f32], n: usize) {
    let old = img.to_vec();
    par_chunks(img, REFERENCE_THREADS, n, |start, chunk| {
        for (k, v) in chunk.iter_mut().enumerate() {
            let idx = start + k;
            let (r, c) = (idx / n, idx % n);
            if r == 0 || r == n - 1 || c == 0 || c == n - 1 {
                continue;
            }
            let jc = old[r * n + c];
            let dn = old[(r - 1) * n + c] - jc;
            let ds = old[(r + 1) * n + c] - jc;
            let dw = old[r * n + c - 1] - jc;
            let de = old[r * n + c + 1] - jc;
            let cn = coeff[r * n + c];
            let cs = coeff[(r + 1) * n + c];
            let cw = coeff[r * n + c];
            let ce = coeff[r * n + c + 1];
            *v = jc + 0.25 * LAMBDA * (cn * dn + cs * ds + cw * dw + ce * de);
        }
    });
}

/// Mean/variance statistics of the region of interest (whole interior).
pub fn roi_stats(img: &[f32], n: usize) -> (f32, f32) {
    let mut sum = 0.0f64;
    let mut sum2 = 0.0f64;
    let mut count = 0u64;
    for r in 1..n - 1 {
        for c in 1..n - 1 {
            let v = img[r * n + c] as f64;
            sum += v;
            sum2 += v * v;
            count += 1;
        }
    }
    let mean = sum / count as f64;
    let var = sum2 / count as f64 - mean * mean;
    (mean as f32, var as f32)
}

/// Runs `iters` full SRAD iterations in place.
pub fn run(img: &mut [f32], n: usize, iters: u32) {
    let mut coeff = vec![0.0f32; n * n];
    for _ in 0..iters {
        let (mean, var) = roi_stats(img, n);
        let q0sqr = var / (mean * mean);
        prep(img, &mut coeff, n, q0sqr);
        update(img, &coeff, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speckle_variance_decreases() {
        let s = Srad { n: 128 };
        let mut img = s.initial_image();
        let (_, var_before) = roi_stats(&img, 128);
        run(&mut img, 128, 10);
        let (_, var_after) = roi_stats(&img, 128);
        // Normalized variance (speckle) must drop substantially.
        assert!(var_after < var_before * 0.8, "{var_before} -> {var_after}");
        assert!(img.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn mean_brightness_is_roughly_preserved() {
        let s = Srad { n: 128 };
        let mut img = s.initial_image();
        let (mean_before, _) = roi_stats(&img, 128);
        run(&mut img, 128, 10);
        let (mean_after, _) = roi_stats(&img, 128);
        assert!((mean_after / mean_before - 1.0).abs() < 0.05);
    }

    #[test]
    fn coefficients_are_normalized() {
        let s = Srad { n: 64 };
        let img = s.initial_image();
        let (mean, var) = roi_stats(&img, 64);
        let mut coeff = vec![0.0; 64 * 64];
        prep(&img, &mut coeff, 64, var / (mean * mean));
        assert!(coeff.iter().all(|c| (0.0..=1.0).contains(c)));
    }

    #[test]
    fn skeleton_transfer_sizes_match_table1() {
        // Table I @ 2048x2048: input 16 MB, output 16 MB (image only —
        // the coefficient array is a temporary).
        let s = Srad { n: 2048 };
        let plan = gpp_datausage::analyze(&s.program(), &s.hints());
        assert_eq!(plan.h2d_bytes(), 2048 * 2048 * 4);
        assert_eq!(plan.d2h_bytes(), 2048 * 2048 * 4);
        assert_eq!(plan.h2d.len(), 1);
        assert_eq!(plan.d2h.len(), 1);
    }

    #[test]
    fn without_hint_coeff_is_copied_back_too() {
        // Ablation D5: forgetting the temporary hint doubles the output.
        let s = Srad { n: 1024 };
        let plan = gpp_datausage::analyze(&s.program(), &Hints::new());
        assert_eq!(plan.d2h_bytes(), 2 * 1024 * 1024 * 4);
    }

    #[test]
    fn coeff_flows_on_device_not_over_bus() {
        // The flow dependence k1→k2 on coeff must not create a transfer.
        let s = Srad { n: 1024 };
        let plan = gpp_datausage::analyze(&s.program(), &s.hints());
        assert!(plan.h2d.iter().all(|t| t.name == "img"));
    }

    #[test]
    fn two_kernels_with_reuse() {
        let s = Srad { n: 1024 };
        let prog = s.program();
        assert_eq!(prog.kernels.len(), 2);
        let c1 = prog.kernels[0].characteristics(&prog);
        assert!(c1.sharable_load_fraction > 0.5);
    }
}
