//! The traced run's machinery: spans recorded around the benchmark's own
//! calls into each layer, the in-process replay that makes those calls,
//! and the Chrome trace-event export.
//!
//! Nothing here instruments the program. A span is a timed call from the
//! benchmark; a span's parent names the call it stands for a part of, so
//! self time (duration minus the children's durations) attributes a
//! layer's cost without reaching inside it.

use gpp_datausage::{analyze, Hints};
use gpp_gateway::GatewayState;
use gpp_gpu_model::{candidate_space, program_fingerprint, project_best_with, SearchOpts};
use gpp_lint::{lint_program, Severity};
use gpp_serve::cache::fnv1a;
use gpp_serve::protocol::{Command, Request};
use gpp_serve::{Client, ServiceState};
use gpp_skeleton::{text, Program};
use grophecy::machine::SimulatedNode;
use grophecy::registry::MachineRegistry;
use grophecy::report::{measurement_json, projection_json, speedup_json, Json};
use grophecy::speedup::SpeedupReport;
use grophecy::{measure, AppProjection, Grophecy};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded call: name (`layer.call`), interval relative to the
/// recorder's epoch, id, parent id (0 = root) and request id.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub rid: u64,
}

impl Span {
    pub fn between(
        name: &'static str,
        epoch: Instant,
        start: Instant,
        end: Instant,
        parent: u32,
        rid: u64,
    ) -> Span {
        Span {
            name,
            start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            id: 0,
            parent,
            rid,
        }
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    pub epoch: Instant,
    pub spans: Vec<Span>,
    next_id: u32,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            next_id: 0,
        }
    }

    /// An id for a span recorded later (a parent timed after its parts).
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    pub fn record(
        &mut self,
        id: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        rid: u64,
    ) {
        let mut s = Span::between(name, self.epoch, start, end, parent, rid);
        s.id = id;
        self.spans.push(s);
    }

    /// Times `f` as a span; returns its value, the span id and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        rid: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32, Duration) {
        let id = self.reserve();
        let t0 = Instant::now();
        let v = f();
        let t1 = Instant::now();
        self.record(id, name, t0, t1, parent, rid);
        (v, id, t1 - t0)
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        for mut s in spans {
            s.id = self.reserve();
            self.spans.push(s);
        }
    }

    /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json())
    }

    /// The spans as a Chrome trace-event document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tid = if s.name.starts_with("client.") { 2 } else { 1 };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"id\":{},\"parent\":{},\"rid\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.rid
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds one span costs to record, measured on a throwaway recorder.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut rec = Recorder::new(Instant::now());
    let t = Instant::now();
    for i in 0..N {
        let now = Instant::now();
        rec.record(i, "trace.cost", now, now, 0, u64::from(i));
    }
    black_box(&rec.spans);
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Layers a self time is reported for, in table order.
pub const SELF_LAYERS: [&str; 10] = [
    "gateway",
    "serve",
    "skeleton",
    "lint",
    "pcie",
    "datausage",
    "gpu_model",
    "core",
    "sim",
    "loadgen",
];

/// The in-process replay of generated requests through each layer's
/// public functions, in the order `ServiceState` calls them, plus the
/// enclosing `ServiceState::handle` and `GatewayState::handle` calls.
pub struct Replay {
    pub rec: Recorder,
    registry: Arc<MachineRegistry>,
    /// Answers each op singly (the enclosing `serve.handle` span).
    single: ServiceState,
    /// Answers whole frames (the `serve.batch` span).
    framed: ServiceState,
    calibrations: HashMap<(String, u64), Arc<Grophecy>>,
    memo: HashMap<u64, Arc<AppProjection>>,
    /// Per-metric samples (microseconds unless the metric says otherwise).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Self time per layer summed over the replayed ops' span trees.
    pub self_ns: BTreeMap<&'static str, f64>,
    pub ops: usize,
    pub gateway_ops: usize,
    pub projections: u64,
    pub timelines: u64,
    pub candidates: u64,
    pub calibrations_run: u64,
    pub synth: (u64, u64),
    pub par: (u64, u64),
}

impl Replay {
    pub fn new(registry: Arc<MachineRegistry>, epoch: Instant) -> Replay {
        let config = crate::fleet::shard_config(&registry);
        Replay {
            rec: Recorder::new(epoch),
            single: ServiceState::new(config.clone()),
            framed: ServiceState::new(config),
            registry,
            calibrations: HashMap::new(),
            memo: HashMap::new(),
            samples: BTreeMap::new(),
            self_ns: BTreeMap::new(),
            ops: 0,
            gateway_ops: 0,
            projections: 0,
            timelines: 0,
            candidates: 0,
            calibrations_run: 0,
            synth: (0, 0),
            par: (0, 0),
        }
    }

    pub fn sample(&mut self, metric: &'static str, v: f64) {
        self.samples.entry(metric).or_default().push(v);
    }

    /// Replays one group of ops: each through the layer pipeline and
    /// `ServiceState::handle`, the group as one `batch` frame through a
    /// second state, and each of its wire requests through the gateway
    /// and directly to a shard.
    pub fn request(&mut self, subs: &[&str], wire: &[&str], rid: u64, tcp: &mut Tcp) {
        let mut singles = Duration::ZERO;
        for sub in subs {
            singles += self.op(sub, rid);
        }
        let frame = Request::new_batch(subs.iter().map(|s| s.to_string())).encode();
        let (_, _, d) = self.rec.time("serve.batch", 0, rid, || {
            black_box(self.framed.handle(&frame, 0))
        });
        self.sample("serve.batch_us", us(d) - us(singles));

        let mut overhead = Duration::ZERO;
        for payload in wire {
            // Warm both shards, so the gateway forward and the direct
            // call below both hit and their difference is the gateway's
            // own cost.
            for c in &mut tcp.direct {
                c.call_raw(payload).expect("warming direct call");
            }
            let gid = self.rec.reserve();
            let g0 = Instant::now();
            black_box(tcp.gateway.handle(payload));
            let g1 = Instant::now();
            self.rec.record(gid, "gateway.handle", g0, g1, 0, rid);
            let (_, _, direct) = self.rec.time("serve.direct", gid, rid, || {
                tcp.direct[0].call_raw(payload).expect("direct call")
            });
            overhead += (g1 - g0).saturating_sub(direct);
        }
        for sub in subs {
            let (_, _, d) = self.rec.time("gateway.route_key", 0, rid, || {
                let req = Request::decode(sub).expect("generated payload decodes");
                program_fingerprint(&text::parse(&req.skeleton).expect("generated skeleton parses"))
            });
            self.sample("gateway.route_key_us", us(d));
        }
        let per_op = us(overhead) / subs.len() as f64;
        for _ in subs {
            self.sample("gateway.overhead_us", per_op);
        }
        *self.self_ns.entry("gateway").or_default() += overhead.as_nanos() as f64;
        self.gateway_ops += subs.len();
    }

    /// One op: the layer pipeline, then `ServiceState::handle` twice (the
    /// first call is the enclosing span; the second is a memo hit).
    /// Returns the first call's duration.
    fn op(&mut self, payload: &str, rid: u64) -> Duration {
        self.ops += 1;
        let h = self.rec.reserve();
        let first_span = self.rec.spans.len();
        let measure = self.pipeline(payload, h, rid);
        let m = &self.single.metrics;
        let (hits0, misses0) = (
            m.proj_hits.load(Ordering::Relaxed),
            m.proj_misses.load(Ordering::Relaxed),
        );
        let p0 = gpp_par::Pool::global().stats();
        let t0 = Instant::now();
        let reply = self.single.handle(payload, 0);
        let t1 = Instant::now();
        let p1 = gpp_par::Pool::global().stats();
        self.rec.record(h, "serve.handle", t0, t1, 0, rid);
        self.par.0 += p1.tasks_executed - p0.tasks_executed;
        self.par.1 += p1.parallel_regions - p0.parallel_regions;
        self.sample("serve.reply_bytes", reply.len() as f64);
        let m = &self.single.metrics;
        let missed = m.proj_misses.load(Ordering::Relaxed) > misses0;
        let hit = m.proj_hits.load(Ordering::Relaxed) > hits0;

        // Self time over this op's tree: the handle span and the layer
        // spans recorded under it.
        let tree = &self.rec.spans[first_span..];
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in tree {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
        for s in tree {
            let own = s.dur_ns as f64 - *child_ns.get(&s.id).unwrap_or(&0) as f64;
            *self.self_ns.entry(s.layer()).or_default() += own;
        }
        if !measure {
            let unattributed = (t1 - t0).as_nanos() as f64 - *child_ns.get(&h).unwrap_or(&0) as f64;
            self.sample("serve.unattributed_us", unattributed / 1e3);
            if missed {
                self.sample("serve.miss_us", us(t1 - t0));
            }
            if hit || missed {
                let (_, _, d) = self.rec.time("serve.hit", 0, rid, || {
                    black_box(self.single.handle(payload, 0))
                });
                self.sample("serve.hit_us", us(d));
            }
        }
        t1 - t0
    }

    /// The layer calls `ServiceState` makes for one `project`/`measure`
    /// payload, each timed under the enclosing span `h`. Returns whether
    /// the op was a `measure`.
    fn pipeline(&mut self, payload: &str, h: u32, rid: u64) -> bool {
        let rec = &mut self.rec;
        let (req, _, d) = rec.time("serve.decode", h, rid, || {
            Request::decode(payload).expect("generated payload decodes")
        });
        self.samples
            .entry("serve.decode_us")
            .or_default()
            .push(us(d));
        let ((program, map), _, d) = rec.time("skeleton.parse", h, rid, || {
            text::parse_with_spans(&req.skeleton).expect("generated skeleton parses")
        });
        self.samples
            .entry("skeleton.parse_us")
            .or_default()
            .push(us(d));
        let (valid, _, d) = rec.time("skeleton.validate", h, rid, || {
            gpp_skeleton::validate::validate(&program)
        });
        valid.expect("generated skeleton validates");
        self.samples
            .entry("skeleton.validate_us")
            .or_default()
            .push(us(d));
        let hints = request_hints(&req, &program);
        let (diags, _, d) = rec.time("lint.program", h, rid, || {
            lint_program(&program, Some(&map), &hints)
        });
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "generated skeleton fails the lint gate"
        );
        self.samples
            .entry("lint.program_us")
            .or_default()
            .push(us(d));

        let machine = self
            .registry
            .config(&req.machine, req.seed)
            .expect("generated machine is registered");
        let is_measure = req.command == Command::Measure;
        let key = (req.machine.clone(), req.seed);
        // `project` calibrates through the cache; `measure` replays the
        // single-shot sequence on a fresh node every time.
        let mut node: SimulatedNode = machine.node();
        let gro = match self.calibrations.get(&key) {
            Some(g) if !is_measure => g.clone(),
            _ => {
                let (g, _, d) = self.rec.time("pcie.calibrate", h, rid, || {
                    Arc::new(Grophecy::calibrate(&machine, &mut node))
                });
                self.sample("pcie.calibrate_us", us(d));
                self.calibrations_run += 1;
                if !is_measure {
                    self.calibrations.insert(key, g.clone());
                }
                g
            }
        };

        if is_measure {
            let proj = self.project(&gro, &program, &hints, h, rid);
            let (meas, _, d) = self.rec.time("sim.measure", h, rid, || {
                measure(&mut node, &program, &proj)
            });
            self.sample("sim.measure_us", us(d));
            let (_, _, d) = self.rec.time("serve.render", h, rid, || {
                let r = SpeedupReport::build(&program.name, "serve", &proj, &meas, req.iters);
                Json::obj([
                    ("projection", projection_json(&proj)),
                    ("measurement", measurement_json(&meas)),
                    ("speedup", speedup_json(&r)),
                ])
                .render()
            });
            self.sample("serve.render_us", us(d));
            return true;
        }
        let (fingerprint, _, _) = self.rec.time("gpu_model.fingerprint", h, rid, || {
            program_fingerprint(&program)
        });
        let (skeleton_hash, _, d) = self.rec.time("serve.memo_key", h, rid, || {
            fnv1a(text::to_text(&program).as_bytes())
        });
        self.sample("serve.memo_key_us", us(d));
        let memo_key = fnv1a(
            format!(
                "{}|{}|{skeleton_hash:x}|{fingerprint:x}|{:?}|{:?}",
                req.machine, req.seed, req.temporaries, req.sparse
            )
            .as_bytes(),
        );
        let proj = match self.memo.get(&memo_key) {
            Some(p) => p.clone(),
            None => {
                let p = self.project(&gro, &program, &hints, h, rid);
                self.memo.insert(memo_key, p.clone());
                p
            }
        };
        if diags.iter().any(|d| d.fix.is_some()) {
            self.headroom(&req, &program, h, rid);
        }
        let (_, _, d) = self.rec.time("serve.render", h, rid, || {
            Json::obj([
                ("projection", projection_json(&proj)),
                ("total_seconds", Json::Num(proj.total_time(req.iters))),
            ])
            .render()
        });
        self.sample("serve.render_us", us(d));
        false
    }

    /// `Grophecy::project`, then its two parts replayed standalone as its
    /// children: the data usage analysis and the kernel search over the
    /// program's (kernel, thread axis) task list.
    fn project(
        &mut self,
        gro: &Grophecy,
        program: &Program,
        hints: &Hints,
        parent: u32,
        rid: u64,
    ) -> Arc<AppProjection> {
        let s0 = gpp_gpu_model::synth_memo_stats();
        let (proj, pid, d_proj) = self.rec.time("core.project", parent, rid, || {
            Arc::new(gro.project(program, hints))
        });
        let s1 = gpp_gpu_model::synth_memo_stats();
        self.synth.0 += s1.0 - s0.0;
        self.synth.1 += s1.1 - s0.1;
        self.projections += 1;
        self.timelines += u64::from(proj.timeline.is_some());
        let (_, _, d_an) = self.rec.time("datausage.analyze", pid, rid, || {
            black_box(analyze(program, hints))
        });
        let spec = gro.gpu_spec();
        let (_, _, d_se) = self.rec.time("gpu_model.search", pid, rid, || {
            for k in &program.kernels {
                for axis in k.axis_candidates() {
                    let chars = k.characteristics_with_axis(program, axis);
                    black_box(project_best_with(
                        &k.name,
                        &chars,
                        spec,
                        SearchOpts::default(),
                    ));
                }
            }
        });
        for k in &program.kernels {
            for axis in k.axis_candidates() {
                let chars = k.characteristics_with_axis(program, axis);
                self.candidates += candidate_space(&chars, spec).len() as u64;
            }
        }
        self.sample("core.project_us", us(d_proj));
        self.sample("datausage.analyze_us", us(d_an));
        self.sample("gpu_model.search_us", us(d_se));
        self.sample("core.project_self_us", us(d_proj) - us(d_an) - us(d_se));
        proj
    }

    /// The headroom the reply carries: the `lint_source`/`apply_fixes`
    /// fixpoint, then `transfer_headroom` over the registry (its child).
    fn headroom(&mut self, req: &Request, program: &Program, parent: u32, rid: u64) {
        let id = self.rec.reserve();
        let t0 = Instant::now();
        let cfg = gpp_lint::LintConfig::new();
        let mut cur = req.skeleton.clone();
        for _ in 0..16 {
            let report = gpp_lint::lint_source(&cur, "request.gsk", &cfg);
            let (next, n) = gpp_lint::apply_fixes(&cur, &report.diagnostics);
            if n == 0 {
                break;
            }
            cur = next;
        }
        let t1 = Instant::now();
        if let Ok(optimized) = text::parse(&cur) {
            black_box(grophecy::transfer_headroom(
                &self.registry,
                req.seed,
                program,
                &optimized,
            ));
            self.calibrations_run += self.registry.len() as u64;
        }
        let t2 = Instant::now();
        self.rec.record(id, "lint.headroom", t0, t2, parent, rid);
        let child = self.rec.reserve();
        self.rec.record(child, "core.headroom", t1, t2, id, rid);
        self.sample("lint.headroom_us", us(t2 - t0));
    }
}

/// Hints as `ServiceState` builds them: the skeleton's own temporaries
/// plus the request's `temporary=` and `sparse=` options.
fn request_hints(req: &Request, program: &Program) -> Hints {
    let mut hints = Hints::for_program(program);
    for name in &req.temporaries {
        hints = hints.temporary(program.array_by_name(name).expect("hinted array exists").id);
    }
    for (name, bytes) in &req.sparse {
        hints = hints.sparse_bound(
            program.array_by_name(name).expect("hinted array exists").id,
            *bytes,
        );
    }
    hints
}

/// The sockets the replay uses: the gateway's state (called in process)
/// and one persistent connection to each shard.
pub struct Tcp {
    pub gateway: Arc<GatewayState>,
    pub direct: Vec<Client>,
}

/// Connection-level samples against shard 0: connect, connect plus the
/// first `ping` (which waits for the acceptor), and `ping` on an open
/// connection.
pub fn net_samples(replay: &mut Replay, shard: SocketAddr, n: usize) {
    let timeout = Duration::from_secs(30);
    for i in 0..n {
        let rid = u64::MAX - i as u64;
        let t0 = Instant::now();
        let mut c = Client::connect(shard, timeout).expect("connect to shard");
        let t1 = Instant::now();
        c.call_raw("gpp/1 ping").expect("first ping");
        let t2 = Instant::now();
        c.call_raw("gpp/1 ping").expect("second ping");
        let t3 = Instant::now();
        let id = replay.rec.reserve();
        replay.rec.record(id, "serve.first_reply", t0, t2, 0, rid);
        let child = replay.rec.reserve();
        replay.rec.record(child, "serve.connect", t0, t1, id, rid);
        let ping = replay.rec.reserve();
        replay.rec.record(ping, "serve.ping", t2, t3, 0, rid);
        replay.sample("serve.connect_us", us(t1 - t0));
        replay.sample("serve.first_reply_us", us(t2 - t0));
        replay.sample("serve.ping_rtt_us", us(t3 - t2));
    }
}

/// The median of a sample list (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile (0 when empty).
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Formats a metric map as the result line's `metrics` object.
pub fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push('}');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        let (_, id, _) = rec.time("serve.handle", 0, 7, || 1 + 1);
        rec.time("skeleton.parse", id, 7, || ());
        let v = crate::json::parse(&rec.chrome_json()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("skeleton"));
    }
}
