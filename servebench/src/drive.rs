//! Traffic over real TCP sockets: the open-loop (scheduled) and
//! closed-loop (back-to-back) loops, and what each reply is reduced to.

use crate::fleet::digest;
use crate::gen::WireRequest;
use crate::json;
use crate::trace::Span;
use gpp_serve::Client;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client-side socket timeout: far above any latency the fleet shows,
/// so only a wedged server trips it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// Each generator thread keeps one connection open.
    Persistent,
    /// A new TCP connection per request, closed after the reply.
    PerRequest,
}

/// One op's reply, reduced to what the checks need.
#[derive(Debug, Clone)]
pub struct OpReply {
    /// Digest of the normalized sub-reply; `None` on a transport error.
    pub digest: Option<u64>,
    pub bytes: usize,
    /// `error.kind` of an `"ok":false` reply, or the transport error.
    pub error: Option<String>,
    pub headroom: bool,
    /// `error_combined_pct` of a `measure` reply.
    pub speedup_err: Option<f64>,
}

/// One wire request's outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into the request list.
    pub index: usize,
    /// From when it was due (open loop) or sent (closed loop) to the
    /// last reply byte.
    pub latency: Duration,
    /// How late the generator sent it (open loop only).
    pub late: Duration,
    /// When the last reply byte arrived, from the loop's start.
    pub done: Duration,
    pub ops: Vec<OpReply>,
}

fn reduce(req: &WireRequest, reply: Result<String, String>) -> Vec<OpReply> {
    let transport = |e: &str| OpReply {
        digest: None,
        bytes: 0,
        error: Some(format!("transport: {e}")),
        headroom: false,
        speedup_err: None,
    };
    let reply = match reply {
        Ok(r) => r,
        Err(e) => return req.ops.iter().map(|_| transport(&e)).collect(),
    };
    let one = |sub: &str| OpReply {
        digest: Some(digest(sub)),
        bytes: sub.len(),
        error: json::error_kind(sub).map(str::to_string),
        headroom: sub.contains("\"transfer_headroom\""),
        speedup_err: json::number_after(sub, "error_combined_pct"),
    };
    if req.ops.len() == 1 && !req.payload.starts_with("gpp/1 batch") {
        return vec![one(&reply)];
    }
    match json::batch_replies(&reply) {
        Some(subs) if subs.len() == req.ops.len() => subs.into_iter().map(one).collect(),
        // A frame-level rejection (busy, shed) or a malformed reply
        // fails every op it carried.
        _ => {
            let kind = json::error_kind(&reply)
                .unwrap_or("malformed-batch")
                .to_string();
            req.ops
                .iter()
                .map(|_| OpReply {
                    error: Some(kind.clone()),
                    ..one(&reply)
                })
                .collect()
        }
    }
}

/// A connection that follows the workload's connection mode.
struct Conn {
    addr: SocketAddr,
    mode: ConnMode,
    client: Option<Client>,
}

impl Conn {
    fn new(addr: SocketAddr, mode: ConnMode) -> Conn {
        Conn {
            addr,
            mode,
            client: None,
        }
    }

    fn call(&mut self, payload: &str) -> Result<String, String> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr, IO_TIMEOUT).map_err(|e| e.to_string())?);
        }
        let client = self.client.as_mut().expect("connected above");
        let reply = client.call_raw(payload).map_err(|e| e.to_string());
        if reply.is_err() || self.mode == ConnMode::PerRequest {
            self.client = None;
        }
        reply
    }
}

/// One untimed request over a fresh connection (re-fetch for a diff).
pub fn call_once(addr: SocketAddr, payload: &str) -> Result<String, String> {
    Conn::new(addr, ConnMode::PerRequest).call(payload)
}

/// Untimed requests over one connection, each reduced like a timed one.
pub fn send_all(addr: SocketAddr, mode: ConnMode, reqs: &[WireRequest]) -> Vec<Outcome> {
    let mut conn = Conn::new(addr, mode);
    let start = Instant::now();
    reqs.iter()
        .enumerate()
        .map(|(index, req)| {
            let t = Instant::now();
            let ops = reduce(req, conn.call(&req.payload));
            Outcome {
                index,
                latency: t.elapsed(),
                late: Duration::ZERO,
                done: start.elapsed(),
                ops,
            }
        })
        .collect()
}

pub struct OpenLoop {
    pub outcomes: Vec<Outcome>,
    pub backlog_max: usize,
    /// Client spans (`client.request`) of the traced half of requests.
    pub spans: Vec<Span>,
}

/// Sends `reqs[i]` at `due[i]` seconds after the start, request `i` on
/// connection `i % conns`, one generator thread per connection. Latency
/// runs from the due instant, so a stall also delays the requests queued
/// behind it. With `trace`, even-numbered requests record a client span
/// relative to `epoch`.
pub fn open_loop(
    addr: SocketAddr,
    mode: ConnMode,
    reqs: &[WireRequest],
    due: &[f64],
    conns: usize,
    trace: Option<Instant>,
) -> OpenLoop {
    let sent = AtomicUsize::new(0);
    let backlog_max = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<(Vec<Outcome>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (sent, backlog_max) = (&sent, &backlog_max);
                s.spawn(move || {
                    let mut conn = Conn::new(addr, mode);
                    let mut outcomes = Vec::new();
                    let mut spans = Vec::new();
                    for i in (c..reqs.len()).step_by(conns) {
                        let due_at = start + Duration::from_secs_f64(due[i]);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let send = Instant::now();
                        let now_s = (send - start).as_secs_f64();
                        let due_count = due.partition_point(|d| *d <= now_s);
                        let backlog = due_count.saturating_sub(sent.fetch_add(1, Ordering::SeqCst));
                        backlog_max.fetch_max(backlog, Ordering::Relaxed);
                        let reply = conn.call(&reqs[i].payload);
                        let done = Instant::now();
                        if let (Some(epoch), 0) = (trace, i % 2) {
                            spans.push(Span::between(
                                "client.request",
                                epoch,
                                send,
                                done,
                                0,
                                i as u64,
                            ));
                        }
                        outcomes.push(Outcome {
                            index: i,
                            latency: done.saturating_duration_since(due_at),
                            late: send.saturating_duration_since(due_at),
                            done: done - start,
                            ops: reduce(&reqs[i], reply),
                        });
                    }
                    (outcomes, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::new();
    let mut spans = Vec::new();
    for (o, s) in per_thread {
        outcomes.extend(o);
        spans.extend(s);
    }
    outcomes.sort_by_key(|o| o.index);
    OpenLoop {
        outcomes,
        backlog_max: backlog_max.into_inner(),
        spans,
    }
}

pub struct ClosedLoop {
    pub outcomes: Vec<Outcome>,
    /// From the start to the last reply.
    pub elapsed: Duration,
}

/// `conns` clients send back to back for `window`, taking requests from
/// `reqs` in order. With `wrap` the list repeats (hot traffic); without
/// it the loop also stops when the list runs out (fresh traffic must
/// never repeat).
pub fn closed_loop(
    addr: SocketAddr,
    mode: ConnMode,
    reqs: &[WireRequest],
    conns: usize,
    window: Duration,
    wrap: bool,
) -> ClosedLoop {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread: Vec<(Vec<Outcome>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = Conn::new(addr, mode);
                    let mut outcomes = Vec::new();
                    let mut last = start;
                    while start.elapsed() < window {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if !wrap && i >= reqs.len() {
                            break;
                        }
                        let req = &reqs[i % reqs.len()];
                        let send = Instant::now();
                        let reply = conn.call(&req.payload);
                        last = Instant::now();
                        outcomes.push(Outcome {
                            index: i,
                            latency: last - send,
                            late: Duration::ZERO,
                            done: last - start,
                            ops: reduce(req, reply),
                        });
                    }
                    (outcomes, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = per_thread.iter().map(|(_, t)| *t).max().unwrap_or(start);
    let mut outcomes: Vec<Outcome> = per_thread.into_iter().flat_map(|(o, _)| o).collect();
    outcomes.sort_by_key(|o| o.index);
    ClosedLoop {
        outcomes,
        elapsed: end - start,
    }
}
