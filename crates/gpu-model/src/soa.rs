//! The fast transformation search ([`crate::SearchOpts::Fast`]) — the
//! production path behind [`crate::project_best`].
//!
//! Almost everything a candidate needs is invariant across the
//! block-geometry and unroll knobs: the access streams, shared-memory
//! traffic, barriers, and DRAM roofline depend *only* on whether reusable
//! loads are staged (see [`crate::transform::synthesize_transformed`]).
//! This module therefore synthesizes **once per staging class** (at most
//! twice per kernel, through the process-wide synthesis memo), folds each
//! class into a small [`StagingAgg`] of plain `f64`/integer aggregates,
//! and precomputes the integer lanes (issue cycles, occupancy) of the
//! whole candidate space as structure-of-arrays in a [`SetupEntry`].
//!
//! Entries live in a small per-thread setup cache keyed by
//! (characteristics fingerprint, spec fingerprint), so a repeated search
//! runs only the pure-`f64` roofline pass and a masked index-ordered
//! reduction, allocating nothing but the winner's name `String`.
//!
//! # Bit-identity
//!
//! Every lane reproduces the scalar `project_inner` float expressions
//! *textually* — same associativity, same cast sites, same `clamp`/`max`
//! order — so an evaluated lane is bit-for-bit the scalar projection of
//! the same candidate, and the index-ordered strict minimum selects the
//! candidate the [`crate::SearchOpts::Exhaustive`] oracle selects. The
//! determinism suite, the committed-corpus suite and the
//! skeleton × machine proptests hold the two paths to that claim at
//! every thread count.

use crate::occupancy::ModelOccupancy;
use crate::project::{no_runnable, Eval, KernelProjection, ProjectionBound, BARRIER_CYCLES};
use crate::spec::GpuSpec;
use crate::transform::{
    candidate_space, synthesize_cached_keyed, CharsKey, SynthesizedKernel, Transformation,
    BASE_REGS,
};
use gpp_skeleton::KernelCharacteristics;
use std::cell::RefCell;

thread_local! {
    static CACHE: RefCell<SetupCache> = RefCell::new(SetupCache::default());
}

/// The per-thread setup cache: at most [`SETUP_CACHE_CAP`] entries,
/// replaced round-robin.
#[derive(Default)]
struct SetupCache {
    entries: Vec<SetupEntry>,
    next_evict: usize,
}

/// Most entries the per-thread setup cache holds; replacement is
/// round-robin. A serve deployment cycles over a handful of hot kernels
/// per machine, so a small cache hits nearly always, and a miss costs
/// only one entry build.
const SETUP_CACHE_CAP: usize = 8;

/// One cached search setup: everything the search derives from
/// `(chars, spec)` before the roofline arithmetic — the candidate space,
/// the per-staging-class aggregates, and the **static lanes**: per-
/// candidate issue cycles and occupancy, which depend only on the key.
/// All of it is a pure function of `(chars, spec)`, so a hit replays the
/// integer passes and the search runs only the pure-`f64` roofline lanes
/// and the reduction.
struct SetupEntry {
    chars_key: CharsKey,
    spec_key: u64,
    candidates: Vec<Transformation>,
    aggs: [Option<StagingAgg>; 2],
    /// Per-candidate `(slots + shared) * cpi * divergence + syncs *
    /// BARRIER_CYCLES` — the unroll-dependent issue cycles.
    warp_cycles: Vec<f64>,
    blocks_per_sm: Vec<u32>,
    /// `0` marks an unrunnable candidate (occupancy rules reject it).
    warps_per_sm: Vec<u32>,
}

/// FNV-1a over every field of the spec (the name included): any spec
/// that differs anywhere hashes differently, so a cache hit implies the
/// cached setup was computed from an identical spec.
fn spec_fingerprint(spec: &GpuSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    for b in spec.name.bytes() {
        push(b as u64);
    }
    push(spec.sms as u64);
    push(spec.sps_per_sm as u64);
    push(spec.warp_size as u64);
    push(spec.clock_hz.to_bits());
    push(spec.mem_bw.to_bits());
    push(spec.bw_derate.to_bits());
    push(spec.mem_latency_cycles.to_bits());
    push(spec.segment_bytes as u64);
    push(spec.max_threads_per_sm as u64);
    push(spec.max_blocks_per_sm as u64);
    push(spec.max_threads_per_block as u64);
    push(spec.shared_per_sm as u64);
    push(spec.regs_per_sm as u64);
    push(spec.launch_overhead.to_bits());
    push(spec.misaligned_halfwarp_transactions.to_bits());
    h
}

/// Everything a lane needs that is constant across the whole search.
struct KernelConsts {
    /// `chars.weighted_ops_per_thread` — compute slots before unrolling.
    base_slots: f64,
    divergence: f64,
    cpi: f64,
    total_warps: f64,
    threads: u64,
    /// `sms_f * clock_hz`, the compute-bound denominator (a single
    /// product in the scalar path too, so pre-multiplying is exact).
    sm_clock: f64,
    sms_f: f64,
    clock_hz: f64,
    mem_latency_cycles: f64,
    launch_overhead: f64,
}

impl KernelConsts {
    fn of(chars: &KernelCharacteristics, spec: &GpuSpec) -> Self {
        let warp_size = spec.warp_size as f64;
        KernelConsts {
            base_slots: chars.weighted_ops_per_thread,
            divergence: 1.0 / chars.avg_active_fraction.clamp(1e-6, 1.0),
            cpi: spec.cycles_per_warp_inst(),
            total_warps: (chars.threads as f64 / warp_size).ceil(),
            threads: chars.threads,
            sm_clock: spec.sms as f64 * spec.clock_hz,
            sms_f: spec.sms as f64,
            clock_hz: spec.clock_hz,
            mem_latency_cycles: spec.mem_latency_cycles,
            launch_overhead: spec.launch_overhead,
        }
    }
}

/// Per-staging-class aggregates: one synthesis per class covers every
/// block size and unroll factor in that class (memory traffic, barriers,
/// and shared accesses are geometry-invariant).
struct StagingAgg {
    shared_accesses: f64,
    syncs_f: f64,
    /// Extra registers the cooperative fill costs (4 when anything is
    /// staged, matching `synthesize_transformed`).
    reg_bonus: u32,
    staged_groups: usize,
    tile_bytes: usize,
    mem_insts: f64,
    dram_bytes: f64,
    memory_time: f64,
}

impl StagingAgg {
    fn of(synth: &SynthesizedKernel, spec: &GpuSpec) -> Self {
        let bytes_per_thread = synth.global_bytes_per_thread(spec);
        let dram_bytes = synth.threads as f64 * bytes_per_thread;
        StagingAgg {
            shared_accesses: synth.shared_accesses,
            syncs_f: synth.syncs as f64,
            reg_bonus: if synth.staged_groups > 0 { 4 } else { 0 },
            staged_groups: synth.staged_groups,
            tile_bytes: synth.tile_bytes,
            mem_insts: synth.global_mem_insts(),
            dram_bytes,
            memory_time: dram_bytes / spec.assumed_mem_bw(),
        }
    }
}

/// Builds the full cached setup for `(chars, spec)`: candidate space,
/// per-class aggregates (one memoized synthesis per staging class
/// present), and the static lanes.
fn build_entry(
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
    chars_key: CharsKey,
    spec_key: u64,
    consts: &KernelConsts,
) -> SetupEntry {
    let candidates = candidate_space(chars, spec);
    let mut aggs: [Option<StagingAgg>; 2] = [None, None];
    for use_shared in [false, true] {
        if candidates.iter().any(|c| c.use_shared == use_shared) {
            let probe = Transformation {
                use_shared,
                unroll: 1,
                thread_axis: None,
                ..candidates[0]
            };
            let synth = synthesize_cached_keyed(chars_key, chars, probe);
            aggs[use_shared as usize] = Some(StagingAgg::of(&synth, spec));
        }
    }
    let n = candidates.len();
    let mut warp_cycles = vec![0.0; n];
    let mut blocks_per_sm = vec![0u32; n];
    let mut warps_per_sm = vec![0u32; n];
    for i in 0..n {
        let c = candidates[i];
        let agg = aggs[c.use_shared as usize].as_ref().expect("class present");
        let mut slots = consts.base_slots;
        if c.unroll > 1 {
            slots *= 1.0 - 0.04 * (c.unroll as f64).log2();
        }
        let regs = BASE_REGS + 2 * (c.unroll as f64).log2() as u32 + agg.reg_bonus;
        let shared_per_block = if agg.staged_groups > 0 {
            (c.block_threads as f64 * agg.tile_bytes.max(4) as f64 * 1.3 * agg.staged_groups as f64)
                as u32
        } else {
            0
        };
        if let Some(occ) = ModelOccupancy::compute_parts(
            spec,
            c.block_threads,
            regs,
            shared_per_block,
            consts.threads,
        ) {
            blocks_per_sm[i] = occ.blocks_per_sm;
            warps_per_sm[i] = occ.warps_per_sm;
            warp_cycles[i] = (slots + agg.shared_accesses) * consts.cpi * consts.divergence
                + agg.syncs_f * BARRIER_CYCLES;
        }
    }
    SetupEntry {
        chars_key,
        spec_key,
        candidates,
        aggs,
        warp_cycles,
        blocks_per_sm,
        warps_per_sm,
    }
}

/// Evaluates a cached entry's static lanes: the pure-`f64` roofline per
/// runnable lane and the masked index-ordered strict minimum, then the
/// winner's full evaluation (bound from the same comparisons the scalar
/// path makes).
fn eval_entry(entry: &SetupEntry, consts: &KernelConsts) -> Option<(usize, Eval)> {
    let roofline = |i: usize| {
        let agg = entry.aggs[entry.candidates[i].use_shared as usize]
            .as_ref()
            .expect("class present");
        let warp_cycles = entry.warp_cycles[i];
        let compute_time = consts.total_warps * warp_cycles / consts.sm_clock;
        let critical_path = agg.mem_insts * consts.mem_latency_cycles + warp_cycles;
        let latency_time = consts.total_warps * critical_path
            / (entry.warps_per_sm[i] as f64 * consts.sms_f * consts.clock_hz);
        let exec = compute_time.max(agg.memory_time).max(latency_time);
        (agg, compute_time, exec)
    };
    let mut best: Option<(usize, f64)> = None;
    for i in 0..entry.candidates.len() {
        if entry.warps_per_sm[i] == 0 {
            continue;
        }
        let time = roofline(i).2 + consts.launch_overhead;
        if best.is_none_or(|(_, bt)| time < bt) {
            best = Some((i, time));
        }
    }
    let (i, time) = best?;
    let (agg, compute_time, exec) = roofline(i);
    let bound = if exec == compute_time && compute_time >= agg.memory_time {
        ProjectionBound::Compute
    } else if exec == agg.memory_time {
        ProjectionBound::Memory
    } else {
        ProjectionBound::Latency
    };
    Some((
        i,
        Eval {
            time,
            bound,
            occupancy: ModelOccupancy {
                blocks_per_sm: entry.blocks_per_sm[i],
                warps_per_sm: entry.warps_per_sm[i],
            },
            dram_bytes: agg.dram_bytes,
        },
    ))
}

/// The fast search: looks `(chars, spec)` up in the calling thread's
/// setup cache (building the entry on a miss) and evaluates its lanes.
pub(crate) fn project_best_soa(
    name: &str,
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
) -> KernelProjection {
    let chars_key = CharsKey::of(chars);
    let spec_key = spec_fingerprint(spec);
    let consts = KernelConsts::of(chars, spec);
    CACHE.with(|cell| {
        let cache = &mut *cell.borrow_mut();
        let slot = cache
            .entries
            .iter()
            .position(|e| e.chars_key == chars_key && e.spec_key == spec_key)
            .unwrap_or_else(|| {
                let entry = build_entry(chars, spec, chars_key, spec_key, &consts);
                if cache.entries.len() < SETUP_CACHE_CAP {
                    cache.entries.push(entry);
                    cache.entries.len() - 1
                } else {
                    let slot = cache.next_evict % SETUP_CACHE_CAP;
                    cache.next_evict = cache.next_evict.wrapping_add(1);
                    cache.entries[slot] = entry;
                    slot
                }
            });
        let entry = &cache.entries[slot];
        let (idx, ev) = eval_entry(entry, &consts).unwrap_or_else(|| no_runnable(name));
        ev.into_projection(name, entry.candidates[idx])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::{project_best, project_best_with, SearchOpts};
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    /// A 1D 3-point stencil over `n` elements: reuse makes the staging
    /// class real, so both aggregates are exercised.
    fn stencil_chars(n: u64) -> KernelCharacteristics {
        let mut p = ProgramBuilder::new("s");
        let a = p.array("in", ElemType::F32, &[n as usize + 2]);
        let b = p.array("out", ElemType::F32, &[n as usize + 2]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", n);
        k.statement()
            .read(a, &[idx(i)])
            .read(a, &[idx(i) + 1])
            .read(a, &[idx(i) + 2])
            .write(b, &[idx(i) + 1])
            .flops(Flops {
                adds: 2,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        prog.kernels[0].characteristics(&prog)
    }

    fn is_cached(chars: &KernelCharacteristics, spec: &GpuSpec) -> bool {
        let (chars_key, spec_key) = (CharsKey::of(chars), spec_fingerprint(spec));
        CACHE.with(|cell| {
            cell.borrow()
                .entries
                .iter()
                .any(|e| e.chars_key == chars_key && e.spec_key == spec_key)
        })
    }

    fn assert_matches_oracle(chars: &KernelCharacteristics, spec: &GpuSpec) -> KernelProjection {
        let fast = project_best("k", chars, spec);
        let oracle = project_best_with("k", chars, spec, SearchOpts::Exhaustive);
        assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
        fast
    }

    #[test]
    fn setup_cache_eviction_and_spec_keys_never_change_the_answer() {
        let spec = GpuSpec::quadro_fx_5600();
        let kernels: Vec<KernelCharacteristics> = (0..=SETUP_CACHE_CAP as u64)
            .map(|k| stencil_chars((1 << 16) + 1000 * k))
            .collect();
        for chars in &kernels {
            assert_matches_oracle(chars, &spec);
        }
        // One more distinct kernel than the cache holds: round-robin
        // replacement has evicted the first one.
        assert!(!is_cached(&kernels[0], &spec));
        assert!(is_cached(&kernels[SETUP_CACHE_CAP], &spec));
        assert_matches_oracle(&kernels[0], &spec);
        assert!(is_cached(&kernels[0], &spec));
        // A hit on a surviving entry.
        assert_matches_oracle(&kernels[SETUP_CACHE_CAP], &spec);

        // Same name, different launch overhead: a distinct cache key, and
        // each answer is its own spec's.
        let slow_launch = GpuSpec {
            launch_overhead: spec.launch_overhead * 3.0,
            ..spec.clone()
        };
        assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&slow_launch));
        let fast = assert_matches_oracle(&kernels[1], &spec);
        let slow = assert_matches_oracle(&kernels[1], &slow_launch);
        assert!(slow.time > fast.time);
    }
}
