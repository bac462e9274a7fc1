//! The three workloads: traffic shape, fleet path, and the inputs each
//! generates from its seed.

use crate::drive::{self, ConnMode};
use crate::fleet::Fleet;
use crate::gen::{self, FreshGen, Mix, Op, Rng, WireRequest, Zipf};
use gpp_serve::protocol::Command;
use grophecy::registry::MachineRegistry;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator threads, each with its own client connection.
pub const CONNS: usize = 2;

/// Request seeds the accuracy phase measures the hot pool at. The error
/// of a few keys is heavy-tailed (a rare seed gives a 20x outlier), so
/// the mean needs hundreds of seeds to stop moving with the workload seed.
const ACCURACY_SEEDS: u64 = 400;

/// Fresh `measure` ops `fresh_sweep` measures `speedup_err_pct` on, for
/// the same reason.
const ACCURACY_FRESH_OPS: usize = 4800;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Gateway,
    /// Shard 0 directly: the plain `gpp serve` deployment.
    Shard,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub target: Target,
    pub mode: ConnMode,
    /// Open-loop wire requests per second (Poisson arrivals).
    pub rate: f64,
    /// Ops per wire request (1 = single requests, else batch frames).
    pub frame: usize,
    /// Share of the run spent open loop; the rest is the closed loop.
    pub open_share: f64,
    /// The latency tail percentile: the highest with at least ten
    /// samples beyond it at the benchmark's 40 s run length.
    pub tail_pct: f64,
    /// Closed-loop frames generated up front for fresh traffic (the loop
    /// stops if they run out); 0 = hot traffic that may repeat.
    pub closed_pool: usize,
}

/// The benchmark's workloads. `fresh_sweep` is runnable but left out of
/// `BENCHMARK.json`: it is CPU-bound, and on a small shared VM its
/// latency tail moves with the neighbours' load by far more than any
/// bound a regression check could use.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "whatif_hot",
        target: Target::Gateway,
        mode: ConnMode::Persistent,
        rate: 50.0,
        frame: 1,
        open_share: 0.85,
        tail_pct: 99.0,
        closed_pool: 0,
    },
    Workload {
        name: "fresh_sweep",
        target: Target::Shard,
        mode: ConnMode::Persistent,
        rate: 25.0,
        frame: 8,
        open_share: 0.85,
        tail_pct: 98.0,
        closed_pool: 4000,
    },
    Workload {
        name: "batch_connect",
        target: Target::Gateway,
        mode: ConnMode::PerRequest,
        rate: 3.0,
        frame: 16,
        open_share: 0.8,
        tail_pct: 89.0,
        closed_pool: 600,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn addr(&self, fleet: &Fleet) -> SocketAddr {
        match self.target {
            Target::Gateway => fleet.gateway_addr(),
            Target::Shard => fleet.shard_addr(0),
        }
    }

    /// Open-loop requests in a run of `seconds`.
    pub fn open_requests(&self, seconds: f64) -> usize {
        ((self.rate * self.open_share * seconds).round() as usize).max(1)
    }

    /// The untimed warm-up: every hot key once, or 30 fresh ops covering
    /// every machine (filling the calibration cache for the run's seed).
    pub fn warmup(
        &self,
        seed: u64,
        root: &Path,
        registry: &MachineRegistry,
    ) -> Result<Vec<WireRequest>, String> {
        let hot = gen::hot_skeletons(root)?;
        let req_seed = gen::hot_seed(seed);
        Ok(match self.target {
            Target::Gateway => gen::hot_pool(&hot, Command::Project, req_seed)
                .into_iter()
                .map(WireRequest::single)
                .collect(),
            Target::Shard => {
                let mut g = FreshGen::new(seed, "w", registry.names(), req_seed);
                vec![WireRequest::batch(
                    (0..5 * registry.len())
                        .map(|_| g.next_op(Mix::ProjectOnly))
                        .collect(),
                )]
            }
        })
    }
}

/// Everything a run sends, generated before any timing starts.
pub struct Inputs {
    pub open: Vec<WireRequest>,
    /// Due offsets (seconds) of `open`.
    pub due: Vec<f64>,
    pub closed: Vec<WireRequest>,
    /// Untimed `measure` frames, sent straight to a shard after the timed
    /// phases; their replies give `speedup_err_pct`.
    pub accuracy: Vec<WireRequest>,
}

impl Inputs {
    pub fn ops(&self) -> usize {
        [&self.open, &self.closed, &self.accuracy]
            .iter()
            .map(|v| v.iter().map(|r| r.ops.len()).sum::<usize>())
            .sum()
    }
}

/// Draws `n` hot requests with Zipf popularity.
fn hot_draws(rng: &mut Rng, pool: &[Op], n: usize) -> Vec<Op> {
    let zipf = Zipf::new(pool.len());
    (0..n).map(|_| pool[zipf.draw(rng)].clone()).collect()
}

/// A `batch_connect` frame: 12 hot draws with at least one duplicate
/// pair and 4 fresh `project` variants at random positions.
fn mixed_frame(rng: &mut Rng, pool: &[Op], fresh: &mut FreshGen) -> WireRequest {
    let mut ops = hot_draws(rng, pool, 12);
    let duplicated = (0..ops.len()).any(|i| (0..i).any(|j| ops[i].payload == ops[j].payload));
    if !duplicated {
        ops[11] = ops[0].clone();
    }
    for _ in 0..4 {
        let at = rng.range(0, ops.len() as u64) as usize;
        ops.insert(at, fresh.next_op(Mix::ProjectOnly));
    }
    WireRequest::batch(ops)
}

pub fn generate(
    w: &Workload,
    seed: u64,
    seconds: f64,
    root: &Path,
    registry: &MachineRegistry,
) -> Result<Inputs, String> {
    let hot = gen::hot_skeletons(root)?;
    let req_seed = gen::hot_seed(seed);
    let pool = gen::hot_pool(&hot, Command::Project, req_seed);
    let mut rng = Rng::stream(seed, w.name);
    let n = w.open_requests(seconds);
    let due = gen::poisson_schedule(&mut rng, w.rate, n);
    let accuracy = || -> Vec<WireRequest> {
        (0..ACCURACY_SEEDS)
            .map(|k| WireRequest::batch(gen::hot_pool(&hot, Command::Measure, req_seed + k)))
            .collect()
    };
    let machines = registry.names();
    let inputs = match w.name {
        "whatif_hot" => Inputs {
            open: hot_draws(&mut rng, &pool, n)
                .into_iter()
                .map(WireRequest::single)
                .collect(),
            due,
            // Hot traffic repeats by nature: the closed loop cycles
            // through these draws.
            closed: hot_draws(&mut rng, &pool, 20_000)
                .into_iter()
                .map(WireRequest::single)
                .collect(),
            accuracy: accuracy(),
        },
        "fresh_sweep" => {
            let mut open_gen = FreshGen::new(seed, "o", machines.clone(), req_seed);
            let mut closed_gen = FreshGen::new(seed, "c", machines.clone(), req_seed);
            let mut accuracy_gen = FreshGen::new(seed, "a", machines, req_seed);
            let frames = |g: &mut FreshGen, count: usize, mix: Mix| -> Vec<WireRequest> {
                (0..count)
                    .map(|_| WireRequest::batch((0..w.frame).map(|_| g.next_op(mix)).collect()))
                    .collect()
            };
            Inputs {
                open: frames(&mut open_gen, n, Mix::Sweep),
                due,
                closed: frames(&mut closed_gen, w.closed_pool, Mix::Sweep),
                accuracy: frames(
                    &mut accuracy_gen,
                    ACCURACY_FRESH_OPS / w.frame,
                    Mix::MeasureOnly,
                ),
            }
        }
        "batch_connect" => {
            let mut open_gen = FreshGen::new(seed, "o", machines.clone(), req_seed);
            let mut closed_gen = FreshGen::new(seed, "c", machines, req_seed);
            Inputs {
                open: (0..n)
                    .map(|_| mixed_frame(&mut rng, &pool, &mut open_gen))
                    .collect(),
                due,
                closed: (0..w.closed_pool)
                    .map(|_| mixed_frame(&mut rng, &pool, &mut closed_gen))
                    .collect(),
                accuracy: accuracy(),
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(inputs)
}

/// Starts the fleet, loads the datasheets and runs the warm-up; returns
/// the fleet, the registry and the time that took.
pub fn setup(
    w: &Workload,
    seed: u64,
    root: &Path,
) -> Result<(Fleet, Arc<MachineRegistry>, Duration), String> {
    let t0 = Instant::now();
    let registry = crate::fleet::load_registry(root)?;
    let fleet = Fleet::start(&registry).map_err(|e| format!("starting the fleet: {e}"))?;
    let warmup = w.warmup(seed, root, &registry)?;
    for out in drive::send_all(w.addr(&fleet), ConnMode::Persistent, &warmup) {
        if let Some(e) = out.ops.iter().find_map(|o| o.error.as_ref()) {
            return Err(format!("warm-up request failed: {e}"));
        }
    }
    Ok((fleet, registry, t0.elapsed()))
}
