//! Throughput of the transformation-space search itself: the exhaustive
//! oracle (`serial_exhaustive`, `SearchOpts::Exhaustive` at one thread)
//! vs the production search (`soa_prune`, `SearchOpts::Fast`: SoA lanes
//! over the per-thread setup cache), on the largest paper workload (CFD
//! at 232K elements — three kernels, the widest candidate space in the
//! suite).
//!
//! The unit of work of both search arms is one *iteration*: the kernel ×
//! axis × transformation search (`project_best_with` over every task the
//! app projector would spawn, `searches_per_iter` searches);
//! characteristics extraction and the transfer-plan analysis are hoisted
//! because neither search touches them. Both arms produce bit-identical
//! projections (the determinism suite asserts this); only wall-clock
//! differs.
//!
//! A third arm, `overlap`, times the full application projection of a
//! stream-annotated chunked schedule — the timeline construction the
//! overlap semantics added on top of the kernel search. Its unit of work
//! is *one projection* (each round runs `OVERLAP_REPS` and divides), so
//! it carries no speedup over the search arms. Gating it keeps the
//! per-transfer timeline bookkeeping from creeping into the projection
//! hot path.
//!
//! Writes `BENCH_project.json` at the repository root (override the
//! destination with `GPP_BENCH_OUT`) with per-arm timings and the search
//! arms' speedups over the serial baseline. `ci.sh` re-runs this harness
//! to a temporary file and gates on >25% regression against the
//! committed JSON (see `perfgate`).
//!
//! Not a criterion harness: the arms pin `GPP_THREADS` via
//! `gpp_par::set_threads`, which is process-global state a shared
//! criterion runner would race on.

use gpp_skeleton::KernelCharacteristics;
use gpp_workloads::cfd::Cfd;
use grophecy::report::Json;
use std::hint::black_box;
use std::time::Instant;

const ITERS: u32 = 20;

struct Arm {
    name: &'static str,
    threads: usize,
    opts: gpp_gpu_model::SearchOpts,
}

fn main() {
    let spec = gpp_gpu_model::GpuSpec::quadro_fx_5600();
    let case = Cfd {
        nel: *Cfd::PAPER_SIZES.last().unwrap(),
    }
    .case();

    // The same task list `Grophecy::project_with` flattens: one search
    // per (kernel, thread-axis candidate).
    let tasks: Vec<(String, KernelCharacteristics)> = case
        .program
        .kernels
        .iter()
        .flat_map(|k| {
            k.axis_candidates().into_iter().map(|axis| {
                (
                    k.name.clone(),
                    k.characteristics_with_axis(&case.program, axis),
                )
            })
        })
        .collect();
    let candidates: usize = tasks
        .iter()
        .map(|(_, c)| gpp_gpu_model::candidate_space(c, &spec).len())
        .sum();

    let arms = [
        Arm {
            name: "serial_exhaustive",
            threads: 1,
            opts: gpp_gpu_model::SearchOpts::Exhaustive,
        },
        Arm {
            name: "soa_prune",
            threads: 0, // 0 = unset: GPP_THREADS or available parallelism
            opts: gpp_gpu_model::SearchOpts::Fast,
        },
    ];

    let run = |opts: gpp_gpu_model::SearchOpts| {
        for (name, chars) in &tasks {
            black_box(gpp_gpu_model::project_best_with(name, chars, &spec, opts));
        }
    };

    let mut results: Vec<(&'static str, f64, f64)> = Vec::new();
    for arm in &arms {
        gpp_par::set_threads(arm.threads);
        // One untimed pass so every arm runs against warm caches — the
        // fast arm's steady state is the quantity of interest (a serve
        // deployment pays its setup once per distinct kernel).
        run(arm.opts);
        let mut times = Vec::with_capacity(ITERS as usize);
        for _ in 0..ITERS {
            let t0 = Instant::now();
            run(arm.opts);
            times.push(t0.elapsed().as_secs_f64());
        }
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        eprintln!(
            "{:<22} min {:>9.3} ms  mean {:>9.3} ms",
            arm.name,
            min * 1e3,
            mean * 1e3
        );
        results.push((arm.name, min, mean));
    }
    gpp_par::set_threads(0);

    // The overlap arm: whole-app projection of a stream-annotated
    // chunked schedule. Unlike the search arms, the timed region is
    // `Grophecy::project` itself — calibration and parsing are hoisted,
    // the kernel search is warm, so the measurement isolates the
    // timeline/overlap bookkeeping the schedule pays per projection.
    // Timings are reported per projection (÷ OVERLAP_REPS).
    const STREAMED: &str = "\
program overlap_bench
array a f32 [1048576]
array b f32 [1048576]
array c f32 [1048576]
array d f32 [1048576]
h2d a stream 1 chunks=8
h2d b stream 2 chunks=8
kernel k1
  parallel i 1048576
  stmt adds=1
    read  a [i]
    read  b [i]
    write c [i]
d2h c stream 1 chunks=8
kernel k2
  parallel i 1048576
  stmt adds=1
    read  c [i]
    write d [i]
d2h d stream 2 chunks=8
";
    const OVERLAP_REPS: u32 = 32;
    let program = gpp_skeleton::text::parse(STREAMED).expect("bench skeleton parses");
    let hints = gpp_datausage::Hints::for_program(&program);
    let machine = grophecy::MachineConfig::anl_eureka_node(2013);
    let mut node = machine.node();
    let gro = grophecy::projector::Grophecy::calibrate(&machine, &mut node);
    let run_overlap = || {
        for _ in 0..OVERLAP_REPS {
            black_box(gro.project(black_box(&program), &hints));
        }
    };
    run_overlap();
    let mut times = Vec::with_capacity(ITERS as usize);
    for _ in 0..ITERS {
        let t0 = Instant::now();
        run_overlap();
        times.push(t0.elapsed().as_secs_f64());
    }
    let reps = f64::from(OVERLAP_REPS);
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min) / reps;
    let mean = times.iter().sum::<f64>() / times.len() as f64 / reps;
    eprintln!(
        "{:<22} min {:>9.3} ms  mean {:>9.3} ms  (per projection)",
        "overlap",
        min * 1e3,
        mean * 1e3
    );

    let serial_min = results[0].1;
    let (hits, misses) = gpp_gpu_model::synth_memo_stats();
    let json = Json::obj([
        ("bench", Json::Str("project_throughput".to_string())),
        ("workload", Json::Str(format!("CFD {}", case.dataset))),
        ("searches_per_iter", Json::Num(tasks.len() as f64)),
        ("candidates_per_iter", Json::Num(candidates as f64)),
        ("iters", Json::Num(f64::from(ITERS))),
        ("threads", Json::Num(gpp_par::configured_threads() as f64)),
        (
            "arms",
            Json::Arr(
                results
                    .iter()
                    .map(|(name, min, mean)| {
                        Json::obj([
                            ("name", Json::Str((*name).to_string())),
                            ("min_s", Json::Num(*min)),
                            ("mean_s", Json::Num(*mean)),
                            ("speedup_vs_serial", Json::Num(serial_min / min)),
                        ])
                    })
                    .chain([Json::obj([
                        ("name", Json::Str("overlap".to_string())),
                        ("min_s", Json::Num(min)),
                        ("mean_s", Json::Num(mean)),
                    ])])
                    .collect(),
            ),
        ),
        ("memo_hits", Json::Num(hits as f64)),
        ("memo_misses", Json::Num(misses as f64)),
    ]);
    let out = json.render();
    println!("{out}");
    let path = std::env::var("GPP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_project.json").to_string()
    });
    std::fs::write(&path, format!("{out}\n")).expect("write BENCH_project.json");
    eprintln!("wrote {path}");
}
