//! Seeded input generation: the hot key pool, the fresh-skeleton
//! generator, Zipf draws and open-loop arrival schedules.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with one seed send byte-identical payloads in the same order.

use gpp_serve::protocol::{Command, Request};
use gpp_skeleton::text;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// SplitMix64: a small, fast, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5e7e_bead_f00d)
    }

    /// An independent stream derived from this seed and a label.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = seed;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Draws indices `0..n` with probability proportional to `1 / (rank + 1)`
/// (Zipf, exponent 1). The rank order is the pool order, fixed by the
/// workload, so the seed changes the draw sequence but never which keys
/// are popular.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty pool");
        let u = rng.unit() * total;
        self.cumulative
            .iter()
            .position(|c| u < *c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// `n` Poisson arrival offsets (seconds from the start) at `rate` per
/// second. The count is fixed so the tail percentile always has the same
/// number of samples beyond it; only the gaps are random.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

/// One generated `project`/`measure` sub-request: the unit of work (an
/// op).
#[derive(Debug, Clone)]
pub struct Op {
    pub payload: Arc<str>,
    pub measure: bool,
}

/// One wire request: a single op or a `batch` frame of several. Each
/// op's payload is a slice of the frame, so a frame is held in memory
/// once.
#[derive(Debug, Clone)]
pub struct WireRequest {
    pub payload: Arc<str>,
    /// Byte range of each op's payload in `payload`, and whether the op
    /// is a `measure`.
    pub ops: Vec<(Range<usize>, bool)>,
}

impl WireRequest {
    pub fn single(op: Op) -> WireRequest {
        WireRequest {
            ops: vec![(0..op.payload.len(), op.measure)],
            payload: op.payload,
        }
    }

    pub fn batch(ops: Vec<Op>) -> WireRequest {
        let payload = Request::new_batch(ops.iter().map(|o| o.payload.to_string())).encode();
        // Each sub-request follows its decimal length and a newline.
        let mut at = payload.find('\n').expect("batch header line") + 1;
        let ranges = ops
            .iter()
            .map(|o| {
                at += o.payload.len().to_string().len() + 1;
                let range = at..at + o.payload.len();
                assert_eq!(&payload[range.clone()], &*o.payload, "batch frame layout");
                at = range.end;
                (range, o.measure)
            })
            .collect();
        WireRequest {
            payload: payload.into(),
            ops: ranges,
        }
    }

    /// The ops' payloads, in frame order.
    pub fn op_payloads(&self) -> impl Iterator<Item = &str> {
        self.ops.iter().map(|(r, _)| &self.payload[r.clone()])
    }
}

fn encode(command: Command, machine: &str, seed: u64, skeleton: &str, opts: &Hints) -> String {
    let mut req = Request::new(command);
    req.machine = machine.to_string();
    req.seed = seed;
    req.temporaries = opts.temporaries.clone();
    req.sparse = opts.sparse.clone();
    req.skeleton = skeleton.to_string();
    req.encode()
}

/// Request-level hints a generated op carries.
#[derive(Debug, Clone, Default)]
struct Hints {
    temporaries: Vec<String>,
    sparse: Vec<(String, u64)>,
}

/// The two machines the hot pool asks about.
pub const HOT_MACHINES: [&str; 2] = ["eureka", "v2"];

/// The six hot skeletons in popularity order: three committed
/// skeletons, CFD 233K and the paper's Stassuij rendered from the
/// workload builders, and one fixture with machine-applicable fixes (so
/// its replies carry `transfer_headroom`). Read relative to `root`.
pub fn hot_skeletons(root: &Path) -> Result<Vec<(String, String)>, String> {
    let read =
        |rel: &str| std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"));
    Ok(vec![
        ("vector_add".into(), read("skeletons/vector_add.gsk")?),
        ("hotspot_1024".into(), read("skeletons/hotspot_1024.gsk")?),
        (
            "cfd_233k".into(),
            text::to_text(&gpp_workloads::cfd::Cfd { nel: 232_000 }.program()),
        ),
        (
            "pipelined_vadd".into(),
            read("skeletons/pipelined_vadd.gsk")?,
        ),
        (
            "stassuij".into(),
            text::to_text(&gpp_workloads::stassuij::Stassuij::paper().program()),
        ),
        (
            "gpp010_reupload".into(),
            read("fixtures/bad/gpp010_program_reupload.gsk")?,
        ),
    ])
}

/// The request seed every hot key uses in a run: derived from the
/// workload seed, so calibrations differ between runs but every hot
/// request of one run shares them.
pub fn hot_seed(seed: u64) -> u64 {
    1 + Rng::stream(seed, "hot-seed").next_u64() % 1_000_000
}

/// The 12 hot keys (6 skeletons x 2 machines) as `command` payloads at
/// request seed `req_seed`, in popularity order.
pub fn hot_pool(skeletons: &[(String, String)], command: Command, req_seed: u64) -> Vec<Op> {
    let mut pool = Vec::new();
    for (_, sk) in skeletons {
        for m in HOT_MACHINES {
            pool.push(Op {
                payload: encode(command, m, req_seed, sk, &Hints::default()).into(),
                measure: command == Command::Measure,
            });
        }
    }
    pool
}

/// Which commands a fresh generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One op in five is a `measure`.
    Sweep,
    ProjectOnly,
    MeasureOnly,
}

/// Calibration seeds the accuracy ops (`Mix::MeasureOnly`) cycle through.
const ACCURACY_CALIBRATIONS: u64 = 256;

/// Skeleton families the fresh generator takes turns over. A frame of 8
/// holds exactly two of each.
const FAMILIES: [&str; 4] = ["cfd", "stassuij", "vadd", "hotspot"];

/// Which family measures in each round of `FAMILIES` ops, cycling over
/// five rounds: 4 `measure` ops in 20. CFD never measures in the sweep,
/// so every frame carries the same headroom-pricing CFD projection.
const MEASURE_ROUNDS: [usize; 5] = [1, 2, 3, 1, usize::MAX];

/// Generates never-seen-before skeletons: every op gets a unique program
/// name and freshly drawn sizes, so neither the projection memo nor the
/// synthesis memo has seen it.
///
/// Families take turns in a fixed order and each family's variants
/// (hints, explicit schedules, stream annotations) follow its own turn
/// count, so every run sends frames of the same mix whatever its seed;
/// the seed draws sizes, kernel counts and machines. A frame's cost then
/// barely depends on the seed, which keeps latency percentiles steady.
pub struct FreshGen {
    rng: Rng,
    tag: &'static str,
    machines: Vec<String>,
    main_seed: u64,
    next_id: u64,
    /// Per family: shuffled machine indices still to hand out.
    machine_blocks: [Vec<usize>; FAMILIES.len()],
    /// Per family: ops generated so far.
    turns: [u64; FAMILIES.len()],
}

impl FreshGen {
    /// `tag` keeps the names of independent generators (pool, warm-up,
    /// closed loop) disjoint.
    pub fn new(seed: u64, tag: &'static str, machines: Vec<String>, main_seed: u64) -> FreshGen {
        FreshGen {
            rng: Rng::stream(seed, tag),
            tag,
            machines,
            main_seed,
            next_id: 0,
            machine_blocks: Default::default(),
            turns: [0; FAMILIES.len()],
        }
    }

    /// The next fresh op.
    pub fn next_op(&mut self, mix: Mix) -> Op {
        let index = self.next_id as usize;
        self.next_id += 1;
        let id = self.next_id;
        let family = index % FAMILIES.len();
        let turn = self.turns[family];
        self.turns[family] += 1;
        let block = &mut self.machine_blocks[family];
        if block.is_empty() {
            *block = (0..self.machines.len()).collect();
            self.rng.shuffle(block);
        }
        let machine = block.pop().expect("refilled block is non-empty");
        let measure = match mix {
            Mix::Sweep => MEASURE_ROUNDS[index / FAMILIES.len() % MEASURE_ROUNDS.len()] == family,
            Mix::ProjectOnly => false,
            Mix::MeasureOnly => true,
        };
        let seed = if mix == Mix::MeasureOnly {
            // Accuracy ops spread over many calibrations, so their mean
            // error does not hinge on one calibration per run.
            self.main_seed + 1 + id % ACCURACY_CALIBRATIONS
        } else if id.is_multiple_of(20) {
            // One op in twenty uses a seed no earlier request used, so
            // its calibration misses.
            self.main_seed + 1_000_000 + self.rng.range(0, 1 << 40)
        } else {
            self.main_seed
        };
        let (skeleton, hints) = match family {
            0 => self.cfd(id, turn),
            1 => self.stassuij(id, turn),
            2 => self.vadd(id, turn),
            _ => self.hotspot(id, turn),
        };
        let command = if measure {
            Command::Measure
        } else {
            Command::Project
        };
        Op {
            payload: encode(command, &self.machines[machine], seed, &skeleton, &hints).into(),
            measure,
        }
    }

    fn name(&self, family: &str, id: u64) -> String {
        format!("{family}-{}{id}", self.tag)
    }

    /// Rodinia CFD at a random mesh size. Every other one omits the
    /// temporary hints, so the linter finds fixable transfers and the
    /// reply prices headroom: each frame of 8 carries exactly one such op.
    fn cfd(&mut self, id: u64, turn: u64) -> (String, Hints) {
        let nel = self.rng.range(20_000, 400_000) as usize;
        let mut program = gpp_workloads::cfd::Cfd { nel }.program();
        program.name = self.name("cfd", id);
        let hints = Hints {
            temporaries: if turn % 2 == 1 {
                vec!["step_factor".into(), "fluxes".into()]
            } else {
                Vec::new()
            },
            sparse: Vec::new(),
        };
        (text::to_text(&program), hints)
    }

    /// Stassuij-shaped sparse x dense product at random dimensions; every
    /// other one carries `sparse=` hints.
    fn stassuij(&mut self, id: u64, turn: u64) -> (String, Hints) {
        let name = self.name("stassuij", id);
        let rows = self.rng.range(64, 512);
        let cols = self.rng.range(256, 4096);
        let k = self.rng.range(3, 9);
        let nnz = rows * k;
        let window = self.rng.range(8, 64);
        let sk = format!(
            "program {name}\n\
             array b_dense  c128 [{rows}, {cols}]\n\
             array c_out    c128 [{rows}, {cols}]\n\
             array csr_vals f64  [{nnz}]  sparse\n\
             array csr_col  i32  [{nnz}]  sparse\n\
             array csr_ptr  i32  [{ptr}]  sparse\n\
             kernel spmm gpu_scale=38 cpu_scale=0.45\n\
             \x20 parallel r {rows}\n\
             \x20 parallel c {cols}\n\
             \x20 serial k {k}\n\
             \x20 stmt\n\
             \x20   read csr_ptr [r]\n\
             \x20   read csr_ptr [r+1]\n\
             \x20 stmt adds=4 muls=4\n\
             \x20   read csr_vals [{k}*r+k]\n\
             \x20   read csr_col  [{k}*r+k]\n\
             \x20   read b_dense  [?{window}, c]\n\
             \x20 stmt adds=4\n\
             \x20   read  c_out [r, c]\n\
             \x20   write c_out [r, c]\n",
            ptr = rows + 1,
        );
        let hints = if turn % 2 == 1 {
            Hints {
                temporaries: Vec::new(),
                sparse: vec![
                    ("csr_vals".into(), nnz * 8),
                    ("csr_col".into(), nnz * 4),
                    ("csr_ptr".into(), (rows + 1) * 4),
                ],
            }
        } else {
            Hints::default()
        };
        (sk, hints)
    }

    /// A transfer annotation suffix by turn: none, a stream, or a
    /// chunked stream.
    fn annotation(&mut self, turn: u64, stream: u64) -> String {
        match turn / 2 % 3 {
            0 => String::new(),
            1 => format!(" stream {stream}"),
            _ => format!(" stream {stream} chunks={}", self.rng.range(2, 8)),
        }
    }

    /// Whether the schedule of `turn` pins synchronous explicit
    /// transfers. Those stay below 1 MiB, so GPP014 (which prices
    /// headroom) never fires and CFD stays the only fixable family.
    fn small_sync(turn: u64, explicit: bool) -> bool {
        explicit && (turn / 2).is_multiple_of(3)
    }

    /// Vector add, in turn: a chain of 1-4 element-wise kernels with a
    /// derived or explicit (possibly stream-annotated) schedule, or the
    /// pipelined vector add whose inputs prefetch on streams and whose
    /// result downloads in chunks.
    fn vadd(&mut self, id: u64, turn: u64) -> (String, Hints) {
        if turn % 4 == 3 {
            let name = self.name("pipelined", id);
            let n = self.rng.range(1 << 18, 1 << 24);
            let chunks = self.rng.range(2, 8);
            let sk = format!(
                "program {name}\narray a f32 [{n}]\narray b f32 [{n}]\narray c f32 [{n}]\n\
                 h2d a stream 1 chunks={chunks}\nh2d b stream 2 chunks={chunks}\n\
                 kernel add\n  parallel i {n}\n  stmt adds=1\n    read  a [i]\n    read  b [i]\n    \
                 write c [i]\nd2h c stream 1 chunks={chunks}\n"
            );
            return (sk, Hints::default());
        }
        let name = self.name("vadd", id);
        let explicit = turn % 2 == 1;
        let max = if Self::small_sync(turn, explicit) {
            (1 << 18) - 1
        } else {
            1 << 24
        };
        let n = self.rng.range(1 << 16, max);
        let kernels = self.rng.range(1, 4);
        // Intermediates are temporaries, declared either in the skeleton
        // or as a request option.
        let in_text = turn % 4 != 2;
        let mut sk = format!("program {name}\narray a f32 [{n}]\narray b f32 [{n}]\n");
        for t in 1..=kernels {
            let temporary = if t < kernels && in_text {
                " temporary"
            } else {
                ""
            };
            sk.push_str(&format!("array t{t} f32 [{n}]{temporary}\n"));
        }
        if explicit {
            let (aa, ab) = (self.annotation(turn, 1), self.annotation(turn, 2));
            sk.push_str(&format!("h2d a{aa}\nh2d b{ab}\n"));
        }
        for t in 1..=kernels {
            let src = if t == 1 {
                "b".to_string()
            } else {
                format!("t{}", t - 1)
            };
            sk.push_str(&format!(
                "kernel step{t}\n  parallel i {n}\n  stmt adds=1 muls={m}\n    \
                 read  a [i]\n    read  {src} [i]\n    write t{t} [i]\n",
                m = t - 1
            ));
        }
        if explicit {
            let ann = self.annotation(turn, 1);
            sk.push_str(&format!("d2h t{kernels}{ann}\n"));
        }
        let hints = if kernels > 1 && !in_text {
            Hints {
                temporaries: (1..kernels).map(|t| format!("t{t}")).collect(),
                sparse: Vec::new(),
            }
        } else {
            Hints::default()
        };
        (sk, hints)
    }

    /// The HotSpot stencil at a random grid size; every other one pins an
    /// explicit (possibly stream-annotated) schedule.
    fn hotspot(&mut self, id: u64, turn: u64) -> (String, Hints) {
        let name = self.name("hotspot", id);
        let explicit = turn % 2 == 1;
        // An n x n f32 grid is below 1 MiB for n < 512.
        let max = if Self::small_sync(turn, explicit) {
            511
        } else {
            4096
        };
        let n = self.rng.range(256, max);
        let m = n - 2;
        let mut sk = format!(
            "program {name}\narray temp f32 [{n}, {n}]\narray power f32 [{n}, {n}]\n\
             array temp_out f32 [{n}, {n}]\n"
        );
        if explicit {
            let (at, ap) = (self.annotation(turn, 1), self.annotation(turn, 2));
            sk.push_str(&format!("h2d temp{at}\nh2d power{ap}\n"));
        }
        sk.push_str(&format!(
            "kernel hotspot_step\n  parallel i {m}\n  parallel j {m}\n  stmt adds=10 muls=6\n    \
             read  temp  [i, j+1]\n    read  temp  [i+2, j+1]\n    read  temp  [i+1, j]\n    \
             read  temp  [i+1, j+2]\n    read  temp  [i+1, j+1]\n    read  power [i+1, j+1]\n    \
             write temp_out [i+1, j+1]\n"
        ));
        if explicit {
            let ann = self.annotation(turn, 1);
            sk.push_str(&format!("d2h temp_out{ann}\n"));
        }
        (sk, Hints::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machines() -> Vec<String> {
        ["dual-v2", "eureka", "quad-v2", "recorded", "v2", "v3"]
            .map(String::from)
            .to_vec()
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let mut a = FreshGen::new(7, "p", machines(), 11);
        let mut b = FreshGen::new(7, "p", machines(), 11);
        let mut c = FreshGen::new(8, "p", machines(), 11);
        let xa: Vec<_> = (0..50).map(|_| a.next_op(Mix::Sweep).payload).collect();
        let xb: Vec<_> = (0..50).map(|_| b.next_op(Mix::Sweep).payload).collect();
        let xc: Vec<_> = (0..50).map(|_| c.next_op(Mix::Sweep).payload).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn fresh_ops_are_distinct_and_a_fifth_measure() {
        let mut g = FreshGen::new(3, "p", machines(), 11);
        let ops: Vec<Op> = (0..100).map(|_| g.next_op(Mix::Sweep)).collect();
        let mut payloads: Vec<_> = ops.iter().map(|o| o.payload.clone()).collect();
        payloads.sort();
        payloads.dedup();
        assert_eq!(payloads.len(), 100);
        assert_eq!(ops.iter().filter(|o| o.measure).count(), 20);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(12);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 12];
        for _ in 0..10_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[11]);
    }
}
