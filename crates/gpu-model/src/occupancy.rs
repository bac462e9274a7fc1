//! The model's occupancy calculator (the public CUDA occupancy rules).

use crate::spec::GpuSpec;
use crate::transform::SynthesizedKernel;

/// Occupancy as the analytic model computes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOccupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
}

impl ModelOccupancy {
    /// Applies the standard occupancy rules. Returns `None` if one block
    /// cannot run at all (the search then skips the candidate).
    pub fn compute(spec: &GpuSpec, k: &SynthesizedKernel) -> Option<Self> {
        Self::compute_parts(
            spec,
            k.config.block_threads,
            k.regs_per_thread,
            k.shared_per_block,
            k.threads,
        )
    }

    /// [`Self::compute`] on bare resource figures — the single source of
    /// the integer occupancy rules, shared by the scalar path (through a
    /// `SynthesizedKernel`) and the fast search's lanes (which derive
    /// per-lane registers and shared memory without synthesizing).
    pub fn compute_parts(
        spec: &GpuSpec,
        block: u32,
        regs_per_thread: u32,
        shared_per_block: u32,
        threads: u64,
    ) -> Option<Self> {
        if block > spec.max_threads_per_block {
            return None;
        }
        let regs_per_block = regs_per_thread * block;
        if regs_per_block > spec.regs_per_sm || shared_per_block > spec.shared_per_sm {
            return None;
        }
        let by_blocks = spec.max_blocks_per_sm;
        let by_threads = spec.max_threads_per_sm / block;
        let by_shared = spec
            .shared_per_sm
            .checked_div(shared_per_block)
            .unwrap_or(u32::MAX);
        let by_regs = spec
            .regs_per_sm
            .checked_div(regs_per_block)
            .unwrap_or(u32::MAX);
        let mut blocks = by_blocks.min(by_threads).min(by_shared).min(by_regs).max(1);
        // A small grid cannot fill the SMs even if resources would allow.
        let grid_blocks = (threads.max(1)).div_ceil(block as u64);
        let grid_share = grid_blocks.div_ceil(spec.sms as u64);
        blocks = blocks.min(grid_share.max(1) as u32);
        let warps_per_block = block.div_ceil(spec.warp_size);
        Some(ModelOccupancy {
            blocks_per_sm: blocks,
            warps_per_sm: blocks * warps_per_block,
        })
    }

    /// Fraction of the SM's warp slots occupied.
    pub fn fraction(&self, spec: &GpuSpec) -> f64 {
        self.warps_per_sm as f64 / (spec.max_threads_per_sm / spec.warp_size) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::Transformation;

    fn kernel(block: u32, regs: u32, shared: u32) -> SynthesizedKernel {
        SynthesizedKernel {
            config: Transformation {
                block_threads: block,
                use_shared: shared > 0,
                unroll: 1,
                thread_axis: None,
            },
            threads: 1 << 20,
            compute_slots: 10.0,
            shared_accesses: 0.0,
            global_ops: vec![],
            syncs: 0,
            active_fraction: 1.0,
            regs_per_thread: regs,
            shared_per_block: shared,
            staged_groups: usize::from(shared > 0),
            tile_bytes: if shared > 0 { 4 } else { 0 },
        }
    }

    #[test]
    fn matches_hand_calculation() {
        let spec = GpuSpec::quadro_fx_5600();
        let o = ModelOccupancy::compute(&spec, &kernel(256, 10, 0)).unwrap();
        assert_eq!(o.blocks_per_sm, 3); // 768 / 256
        assert_eq!(o.warps_per_sm, 24);
        assert_eq!(o.fraction(&spec), 1.0);
    }

    #[test]
    fn shared_memory_limits() {
        let spec = GpuSpec::quadro_fx_5600();
        let o = ModelOccupancy::compute(&spec, &kernel(128, 10, 6 << 10)).unwrap();
        assert_eq!(o.blocks_per_sm, 2); // 16 KB / 6 KB
    }

    #[test]
    fn impossible_block_returns_none() {
        let spec = GpuSpec::quadro_fx_5600();
        assert!(ModelOccupancy::compute(&spec, &kernel(1024, 10, 0)).is_none());
        assert!(ModelOccupancy::compute(&spec, &kernel(512, 64, 0)).is_none());
        assert!(ModelOccupancy::compute(&spec, &kernel(128, 10, 20 << 10)).is_none());
    }

    #[test]
    fn zero_register_kernel_is_not_register_limited() {
        // regs_per_block = 0 must not divide-by-zero or zero out the
        // occupancy: the other limits take over.
        let spec = GpuSpec::quadro_fx_5600();
        let o = ModelOccupancy::compute(&spec, &kernel(256, 0, 0)).unwrap();
        assert_eq!(o.blocks_per_sm, 3); // 768 / 256, by-threads limited
        assert_eq!(o.warps_per_sm, 24);
        // Zero shared is likewise a no-limit, not a zero-occupancy.
        let o = ModelOccupancy::compute(&spec, &kernel(64, 0, 0)).unwrap();
        assert_eq!(o.blocks_per_sm, spec.max_blocks_per_sm);
    }

    #[test]
    fn block_exceeding_sm_thread_capacity_still_runs_alone() {
        // FX5600: 512-thread blocks fit the per-block limit exactly and
        // leave room for exactly one resident block (768 / 512 = 1).
        let spec = GpuSpec::quadro_fx_5600();
        let o = ModelOccupancy::compute(&spec, &kernel(512, 10, 0)).unwrap();
        assert_eq!(o.blocks_per_sm, 1);
        assert_eq!(o.warps_per_sm, 16);
        // One past the per-block limit is unrunnable, not clamped.
        assert!(ModelOccupancy::compute_parts(&spec, 513, 10, 0, 1 << 20).is_none());
    }

    #[test]
    fn resource_boundaries_are_inclusive() {
        let spec = GpuSpec::quadro_fx_5600();
        // Registers: 512 threads × 16 regs = 8192 = regs_per_sm exactly.
        let o = ModelOccupancy::compute(&spec, &kernel(512, 16, 0)).unwrap();
        assert_eq!(o.blocks_per_sm, 1);
        assert!(ModelOccupancy::compute(&spec, &kernel(512, 17, 0)).is_none());
        // Shared memory: exactly the whole SM's 16 KiB is still runnable.
        let o = ModelOccupancy::compute(&spec, &kernel(128, 10, spec.shared_per_sm)).unwrap();
        assert_eq!(o.blocks_per_sm, 1);
        assert!(ModelOccupancy::compute(&spec, &kernel(128, 10, spec.shared_per_sm + 1)).is_none());
    }

    #[test]
    fn warp_allocation_boundary_rounds_up() {
        // A block one thread past a warp boundary allocates a whole extra
        // warp (65 → 3 warps), while the exact multiple does not.
        let spec = GpuSpec::quadro_fx_5600();
        let exact = ModelOccupancy::compute_parts(&spec, 64, 10, 0, 1 << 20).unwrap();
        assert_eq!(exact.warps_per_sm, exact.blocks_per_sm * 2);
        let ragged = ModelOccupancy::compute_parts(&spec, 65, 10, 0, 1 << 20).unwrap();
        assert_eq!(ragged.warps_per_sm, ragged.blocks_per_sm * 3);
    }

    #[test]
    fn tiny_grid_clamps_to_one_block_per_sm() {
        let spec = GpuSpec::quadro_fx_5600();
        // 64 threads total on a 16-SM part: one 64-thread block exists in
        // the whole grid, so at most one block is resident anywhere.
        let o = ModelOccupancy::compute_parts(&spec, 64, 10, 0, 64).unwrap();
        assert_eq!(o.blocks_per_sm, 1);
        // threads = 0 is degenerate but must not panic or return 0 blocks.
        let o = ModelOccupancy::compute_parts(&spec, 64, 10, 0, 0).unwrap();
        assert_eq!(o.blocks_per_sm, 1);
    }
}
