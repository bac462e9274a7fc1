//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a human-readable report and, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `err_frac` is `failed / attempted`.

use servebench::drive::{self, ConnMode, OpReply, Outcome};
use servebench::fleet::{self, first_difference, ratio, Reference};
use servebench::gen::WireRequest;
use servebench::trace::{self, median, metrics_json, percentile, Replay, Tcp, SELF_LAYERS};
use servebench::workload::{self, Inputs, Workload, CONNS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 7;

/// Consecutive slices of the closed loop; `peak_ops_s` is the median of
/// their rates, so a short stall of the machine does not set it.
const PEAK_SLICES: usize = 5;

/// Share of a traced run spent on the live open loop; the rest replays.
const TRACED_LIVE_SHARE: f64 = 0.4;

/// Connection-level samples in a traced run.
const NET_SAMPLES: usize = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, 1, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workload::by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// The repository root: the working directory, or its parent when run
/// from the benchmark's own directory (as `cargo test` does).
fn find_root() -> Result<PathBuf, String> {
    [".", ".."]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.join("fixtures/machines").is_dir() && p.join("skeletons").is_dir())
        .ok_or_else(|| {
            "run from the repository root: fixtures/machines and skeletons not found".to_string()
        })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let root = find_root()?;
        if args.setup_only {
            let (fleet, _, took) = workload::setup(&args.workload, args.seed, &root)?;
            fleet.stop().map_err(|e| e.to_string())?;
            println!("SETUP_S {}", took.as_secs_f64());
            Ok(())
        } else if args.trace {
            traced(&args, &root)
        } else {
            untraced(&args, &root)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Median set-up time over fresh processes, so every sample is cold.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_RUNS {
        let out = std::process::Command::new(&exe)
            .args([
                "--setup-only",
                "--workload",
                args.workload.name,
                "--seed",
                &args.seed.to_string(),
            ])
            .output()
            .map_err(|e| format!("set-up run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout
            .lines()
            .find_map(|l| l.strip_prefix("SETUP_S "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| {
                format!(
                    "set-up run failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        samples.push(secs);
    }
    Ok(median(&samples))
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The outcome of checking replies against the reference.
#[derive(Default)]
struct Check {
    attempted: usize,
    failed: usize,
    kinds: std::collections::BTreeMap<String, usize>,
    first_mismatch: Option<String>,
}

impl Check {
    /// Checks one wire request's replies; returns the ops answered
    /// correctly.
    fn request(&mut self, reference: &mut Reference, req: &WireRequest, out: &Outcome) -> usize {
        let mut good = 0;
        for (payload, got) in req.op_payloads().zip(&out.ops) {
            self.attempted += 1;
            if let Some(kind) = &got.error {
                *self.kinds.entry(kind.clone()).or_default() += 1;
            }
            // An error reply is a failure even when the reference errs
            // the same way: every generated op must succeed.
            if got.error.is_none() && got.digest == Some(reference.digest(payload)) {
                good += 1;
                continue;
            }
            self.failed += 1;
            if self.first_mismatch.is_none() {
                self.first_mismatch = Some(payload.to_string());
            }
        }
        good
    }
}

fn untraced(args: &Args, root: &Path) -> Result<(), String> {
    let w = &args.workload;
    let registry = fleet::load_registry(root)?;
    let inputs = workload::generate(w, args.seed, args.seconds, root, &registry)?;
    let setup_s = setup_seconds(args)?;
    let (fleet, registry, _) = workload::setup(w, args.seed, root)?;
    let addr = w.addr(&fleet);

    let c0 = fleet.counters();
    let open = drive::open_loop(addr, w.mode, &inputs.open, &inputs.due, CONNS, None);
    let window = Duration::from_secs_f64(args.seconds * (1.0 - w.open_share));
    let closed = drive::closed_loop(
        addr,
        w.mode,
        &inputs.closed,
        CONNS,
        window,
        w.closed_pool == 0,
    );
    let timed = fleet.counters() - c0;
    let accuracy = drive::send_all(fleet.shard_addr(0), ConnMode::Persistent, &inputs.accuracy);
    // Read before the reference check, whose allocations are the
    // benchmark's own.
    let peak_rss_mb = peak_rss_mib();

    let mut reference = Reference::new(&registry);
    let sent = open
        .outcomes
        .iter()
        .map(|o| &inputs.open[o.index])
        .chain(
            closed
                .outcomes
                .iter()
                .map(|o| &inputs.closed[o.index % inputs.closed.len()]),
        )
        .chain(&inputs.accuracy);
    reference.prefetch(sent.flat_map(WireRequest::op_payloads));
    let mut check = Check::default();
    for out in &open.outcomes {
        check.request(&mut reference, &inputs.open[out.index], out);
    }
    let mut finished: Vec<(Duration, usize)> = closed
        .outcomes
        .iter()
        .map(|out| {
            let good = check.request(
                &mut reference,
                &inputs.closed[out.index % inputs.closed.len()],
                out,
            );
            (out.done, good)
        })
        .collect();
    finished.sort();
    let peak_slices = slice_rates(&finished);
    for out in &accuracy {
        check.request(&mut reference, &inputs.accuracy[out.index], out);
    }
    if let Some(payload) = &check.first_mismatch {
        let refetched =
            drive::call_once(addr, payload).unwrap_or_else(|e| format!("(re-fetch failed: {e})"));
        println!(
            "reference mismatch (payload re-sent as a single request to show the bytes):\n  {}",
            first_difference(&refetched, &reference.reply(payload))
        );
    }

    let latencies: Vec<f64> = open.outcomes.iter().map(|o| ms(o.latency)).collect();
    let errs: Vec<f64> = accuracy
        .iter()
        .flat_map(|o| &o.ops)
        .filter_map(|o| o.speedup_err.map(f64::abs))
        .collect();
    let replies: Vec<&OpReply> = open
        .outcomes
        .iter()
        .chain(&closed.outcomes)
        .flat_map(|o| &o.ops)
        .collect();
    let headroom_share = ratio(
        replies.iter().filter(|o| o.headroom).count() as u64,
        replies.len() as u64,
    );
    let memo_hit_ratio = timed.memo_hit_ratio();
    let guards = shape_guards(w, memo_hit_ratio, headroom_share);
    fleet.stop().map_err(|e| e.to_string())?;

    let n = latencies.len();
    let beyond = n - ((w.tail_pct / 100.0) * n as f64).ceil() as usize;
    let err_frac = ratio(check.failed as u64, check.attempted as u64);
    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("lat_p50_ms".to_string(), median(&latencies), "ms"),
        (
            "lat_tail_ms".to_string(),
            percentile(&latencies, w.tail_pct),
            "ms",
        ),
        ("peak_ops_s".to_string(), median(&peak_slices), "ops/s"),
        ("peak_rss_mb".to_string(), peak_rss_mb, "MiB"),
        (
            "speedup_err_pct".to_string(),
            errs.iter().sum::<f64>() / errs.len().max(1) as f64,
            "%",
        ),
    ];
    println!(
        "servebench {} seed={} seconds={} fleet: {} shards x {} workers behind 1 gateway, {} machines, {} {:?} connections",
        w.name,
        args.seed,
        args.seconds,
        fleet::SHARDS,
        fleet::shard_config(&registry).workers,
        registry.len(),
        CONNS,
        w.mode
    );
    println!(
        "  open loop: {n} requests at {}/s ({} ops each); closed loop: {} requests in {:.2}s; late p99 {:.3} ms, backlog max {}",
        w.rate,
        w.frame,
        closed.outcomes.len(),
        closed.elapsed.as_secs_f64(),
        percentile(&open.outcomes.iter().map(|o| ms(o.late)).collect::<Vec<_>>(), 99.0),
        open.backlog_max
    );
    for (name, value, unit) in &metrics {
        let note = match name.as_str() {
            "lat_tail_ms" => format!("  p{} of {n} requests, {beyond} beyond", w.tail_pct),
            "setup_s" => format!("  median of {SETUP_RUNS} cold starts"),
            "peak_ops_s" => format!("  median of slices {peak_slices:.0?}"),
            "speedup_err_pct" => format!(
                "  mean |error_combined_pct| of {} measure replies",
                errs.len()
            ),
            _ => String::new(),
        };
        println!("  {name:<16} {value:>12.4} {unit}{note}");
    }
    println!(
        "  {:<16} {:>12.4} ratio  {} of {} ops failed {:?}",
        "err_frac", err_frac, check.failed, check.attempted, check.kinds
    );
    println!(
        "  guards: memo_hit_ratio {memo_hit_ratio:.3}, headroom_share {headroom_share:.3}, \
         calib_hit_ratio {:.3}{}",
        timed.calib_hit_ratio(),
        guards
            .as_ref()
            .err()
            .map_or(String::new(), |e| format!(" -- FAILED: {e}"))
    );
    let correct = check.failed == 0 && guards.is_ok();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.attempted,
        check.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

/// Ops answered correctly per second in each of `PEAK_SLICES`
/// consecutive slices (equal request counts) of the closed loop;
/// `finished` is (completion, good ops) in completion order.
fn slice_rates(finished: &[(Duration, usize)]) -> Vec<f64> {
    let per_slice = finished.len().div_ceil(PEAK_SLICES).max(1);
    let mut start = Duration::ZERO;
    finished
        .chunks(per_slice)
        .map(|slice| {
            let end = slice.last().expect("chunks are non-empty").0;
            let good: usize = slice.iter().map(|(_, g)| g).sum();
            let rate = good as f64 / (end - start).as_secs_f64().max(1e-9);
            start = end;
            rate
        })
        .collect()
}

/// A workload that stops exercising its layer must fail loudly, not
/// read as a speed-up.
fn shape_guards(w: &Workload, memo_hit_ratio: f64, headroom_share: f64) -> Result<(), String> {
    match w.name {
        "whatif_hot" if memo_hit_ratio < 0.95 => {
            Err(format!("memo hit ratio {memo_hit_ratio:.3} < 0.95"))
        }
        "whatif_hot" if headroom_share == 0.0 => Err("no reply carried transfer_headroom".into()),
        "fresh_sweep" if memo_hit_ratio > 0.05 => {
            Err(format!("memo hit ratio {memo_hit_ratio:.3} > 0.05"))
        }
        _ => Ok(()),
    }
}

fn traced(args: &Args, root: &Path) -> Result<(), String> {
    let w = &args.workload;
    let epoch = Instant::now();
    let registry = fleet::load_registry(root)?;
    let g0 = Instant::now();
    let inputs: Inputs = workload::generate(w, args.seed, args.seconds, root, &registry)?;
    let generation = g0.elapsed();
    let (fleet, registry, _) = workload::setup(w, args.seed, root)?;
    let addr = w.addr(&fleet);
    let budget = Duration::from_secs_f64(args.seconds);
    let run_start = Instant::now();

    // Live phase: the open loop over the first part of the schedule, half
    // of the requests with client spans and half without.
    let live_until = args.seconds * TRACED_LIVE_SHARE;
    let live = inputs.due.partition_point(|d| *d < live_until).max(1);
    let c0 = fleet.counters();
    let mut open = drive::open_loop(
        addr,
        w.mode,
        &inputs.open[..live],
        &inputs.due[..live],
        CONNS,
        Some(epoch),
    );
    let live_counters = fleet.counters() - c0;

    // Replay phase: the same requests, in order, through each layer.
    let mut replay = Replay::new(registry.clone(), epoch);
    let gen_id = replay.rec.reserve();
    replay
        .rec
        .record(gen_id, "loadgen.generate", g0, g0 + generation, 0, 0);
    replay.rec.extend(std::mem::take(&mut open.spans));
    let mut tcp = Tcp {
        gateway: fleet.gateway.state(),
        direct: (0..fleet::SHARDS)
            .map(|i| gpp_serve::Client::connect(fleet.shard_addr(i), Duration::from_secs(30)))
            .collect::<std::io::Result<_>>()
            .map_err(|e| e.to_string())?,
    };
    let net_reserve = Duration::from_millis(15 * NET_SAMPLES as u64);
    let mut groups = 0;
    for (g, group) in op_groups(w, &inputs).into_iter().enumerate() {
        if g > 0 && run_start.elapsed() + net_reserve > budget {
            break;
        }
        let subs: Vec<&str> = group.iter().flat_map(WireRequest::op_payloads).collect();
        let wire: Vec<&str> = group.iter().map(|r| &*r.payload).collect();
        replay.request(&subs, &wire, g as u64, &mut tcp);
        groups += 1;
    }
    trace::net_samples(&mut replay, fleet.shard_addr(0), NET_SAMPLES);
    let all = fleet.counters() - c0;
    let shard_stats = fleet.shard_stats();
    drop(tcp);
    fleet.stop().map_err(|e| e.to_string())?;

    let mut reference = Reference::new(&registry);
    let live_reqs = &inputs.open[..live];
    reference.prefetch(live_reqs.iter().flat_map(WireRequest::op_payloads));
    let mut check = Check::default();
    for out in &open.outcomes {
        check.request(&mut reference, &live_reqs[out.index], out);
    }

    let late: Vec<f64> = open.outcomes.iter().map(|o| ms(o.late)).collect();
    let lat = |parity: usize| -> Vec<f64> {
        open.outcomes
            .iter()
            .filter(|o| o.index % 2 == parity)
            .map(|o| ms(o.latency))
            .collect()
    };
    let replies: Vec<&OpReply> = open.outcomes.iter().flat_map(|o| &o.ops).collect();
    let ops = replay.ops.max(1) as f64;
    let p50 = |name: &str| median(replay.samples.get(name).map_or(&[][..], |v| &v[..]));
    let self_us = |layer: &str| replay.self_ns.get(layer).copied().unwrap_or(0.0) / 1e3 / ops;
    let gw_ops = (replay.gateway_ops
        + if w.target == workload::Target::Gateway {
            replies.len()
        } else {
            0
        })
    .max(1) as u64;
    let mut m: Vec<(String, f64, &str)> = vec![
        (
            "gateway.overhead_us".into(),
            p50("gateway.overhead_us"),
            "us",
        ),
        (
            "gateway.route_key_us".into(),
            p50("gateway.route_key_us"),
            "us",
        ),
        (
            "gateway.forwards_per_op".into(),
            ratio(all.routed, gw_ops),
            "ratio",
        ),
        (
            "gateway.coalesced_ratio".into(),
            ratio(all.coalesced, gw_ops),
            "ratio",
        ),
        ("gateway.hedges_fired".into(), all.hedges as f64, "count"),
        ("gateway.failovers".into(), all.failovers as f64, "count"),
        (
            "gateway.unavailable".into(),
            all.unavailable as f64,
            "count",
        ),
        ("serve.connect_us".into(), p50("serve.connect_us"), "us"),
        (
            "serve.first_reply_us".into(),
            p50("serve.first_reply_us"),
            "us",
        ),
        ("serve.ping_rtt_us".into(), p50("serve.ping_rtt_us"), "us"),
        (
            "serve.queued_us_p99".into(),
            shard_stats
                .iter()
                .map(|s| s.p99_queued_us)
                .max()
                .unwrap_or(0) as f64,
            "us",
        ),
        ("serve.busy_rejects".into(), all.busy as f64, "count"),
        ("serve.shed".into(), all.shed as f64, "count"),
        ("serve.decode_us".into(), p50("serve.decode_us"), "us"),
        ("serve.render_us".into(), p50("serve.render_us"), "us"),
        (
            "serve.reply_bytes".into(),
            p50("serve.reply_bytes"),
            "bytes",
        ),
        ("serve.memo_key_us".into(), p50("serve.memo_key_us"), "us"),
        (
            "serve.memo_hit_ratio".into(),
            live_counters.memo_hit_ratio(),
            "ratio",
        ),
        (
            "serve.calib_hit_ratio".into(),
            live_counters.calib_hit_ratio(),
            "ratio",
        ),
        ("serve.hit_us".into(), p50("serve.hit_us"), "us"),
        ("serve.miss_us".into(), p50("serve.miss_us"), "us"),
        ("serve.batch_us".into(), p50("serve.batch_us"), "us"),
        (
            "serve.unattributed_us".into(),
            p50("serve.unattributed_us"),
            "us",
        ),
        ("skeleton.parse_us".into(), p50("skeleton.parse_us"), "us"),
        (
            "skeleton.validate_us".into(),
            p50("skeleton.validate_us"),
            "us",
        ),
        ("lint.program_us".into(), p50("lint.program_us"), "us"),
        ("lint.headroom_us".into(), p50("lint.headroom_us"), "us"),
        (
            "lint.headroom_share".into(),
            ratio(
                replies.iter().filter(|o| o.headroom).count() as u64,
                replies.len() as u64,
            ),
            "ratio",
        ),
        ("pcie.calibrate_us".into(), p50("pcie.calibrate_us"), "us"),
        (
            "pcie.calibrations".into(),
            replay.calibrations_run as f64,
            "count",
        ),
        (
            "datausage.analyze_us".into(),
            p50("datausage.analyze_us"),
            "us",
        ),
        (
            "gpu_model.search_us".into(),
            p50("gpu_model.search_us"),
            "us",
        ),
        (
            "gpu_model.candidates_per_op".into(),
            replay.candidates as f64 / replay.projections.max(1) as f64,
            "count",
        ),
        (
            "gpu_model.synth_hit_ratio".into(),
            ratio(replay.synth.0, replay.synth.0 + replay.synth.1),
            "ratio",
        ),
        ("core.project_us".into(), p50("core.project_us"), "us"),
        (
            "core.project_self_us".into(),
            p50("core.project_self_us"),
            "us",
        ),
        (
            "core.timeline_share".into(),
            ratio(replay.timelines, replay.projections),
            "ratio",
        ),
        ("sim.measure_us".into(), p50("sim.measure_us"), "us"),
        (
            "par.tasks_per_op".into(),
            replay.par.0 as f64 / ops,
            "count",
        ),
        (
            "par.regions_per_op".into(),
            replay.par.1 as f64 / ops,
            "count",
        ),
        ("loadgen.late_p99_ms".into(), percentile(&late, 99.0), "ms"),
        (
            "loadgen.backlog_max".into(),
            open.backlog_max as f64,
            "count",
        ),
    ];
    for layer in SELF_LAYERS {
        let v = if layer == "loadgen" {
            generation.as_secs_f64() * 1e6 / inputs.ops().max(1) as f64
        } else {
            self_us(layer)
        };
        m.push((format!("{layer}.self_us"), v, "us"));
    }
    m.extend([
        (
            "trace.overhead_us".to_string(),
            (median(&lat(0)) - median(&lat(1))) * 1e3,
            "us",
        ),
        ("trace.span_ns".to_string(), trace::span_cost_ns(), "ns"),
        (
            "trace.lat_p50_ms".to_string(),
            median(&lat(0).into_iter().chain(lat(1)).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "trace.spans".to_string(),
            replay.rec.spans.len() as f64,
            "count",
        ),
    ]);

    let path = root.join(format!(
        "servebench/traces/{}-seed{}.json",
        w.name, args.seed
    ));
    replay
        .rec
        .write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    print_layer_table(w, &m, groups, replay.ops, open.outcomes.len());
    println!(
        "  trace: {} spans in {}",
        replay.rec.spans.len(),
        path.display()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        check.failed == 0,
        check.attempted,
        check.failed,
        metrics_json(&m)
    );
    Ok(())
}

/// The replay's groups, in order: the first accuracy frame (so every
/// workload replays `measure` ops), then the open-loop requests — a
/// workload's own frames, or runs of 8 single requests (so every
/// workload has a frame to time `serve.batch_us` on).
fn op_groups<'a>(w: &Workload, inputs: &'a Inputs) -> Vec<&'a [WireRequest]> {
    let open = inputs.open.chunks(if w.frame == 1 { 8 } else { 1 });
    inputs.accuracy.chunks(1).take(1).chain(open).collect()
}

fn print_layer_table(
    w: &Workload,
    m: &[(String, f64, &str)],
    groups: usize,
    ops: usize,
    live: usize,
) {
    println!(
        "servebench {} traced: {live} live requests, then {groups} replayed groups ({ops} ops)",
        w.name
    );
    let total: f64 = SELF_LAYERS
        .iter()
        .filter(|l| **l != "loadgen")
        .map(|l| {
            m.iter()
                .find(|(n, _, _)| *n == format!("{l}.self_us"))
                .map_or(0.0, |x| x.1)
        })
        .sum();
    println!(
        "  {:<10} {:>12} {:>7}  metrics",
        "layer", "self us/op", "share"
    );
    for layer in SELF_LAYERS {
        let self_us = m
            .iter()
            .find(|(n, _, _)| *n == format!("{layer}.self_us"))
            .map_or(0.0, |x| x.1);
        let detail: Vec<String> = m
            .iter()
            .filter(|(n, _, _)| n.starts_with(&format!("{layer}.")) && !n.ends_with(".self_us"))
            .map(|(n, v, u)| format!("{}={v:.2}{u}", &n[layer.len() + 1..]))
            .collect();
        let share = if layer == "loadgen" {
            String::from("-")
        } else {
            format!("{:.1}%", 100.0 * self_us / total.max(1e-9))
        };
        println!(
            "  {layer:<10} {self_us:>12.2} {share:>7}  {}",
            detail.join(" ")
        );
    }
    for prefix in ["par.", "trace."] {
        let detail: Vec<String> = m
            .iter()
            .filter(|(n, _, _)| n.starts_with(prefix))
            .map(|(n, v, u)| format!("{n}={v:.2}{u}"))
            .collect();
        println!("  {}", detail.join(" "));
    }
}
