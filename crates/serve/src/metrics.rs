//! Service counters and latency tracking for the `stats` command.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How many recent request latencies the percentile window keeps.
const LATENCY_WINDOW: usize = 4096;

/// Lock-free counters plus a bounded latency reservoir.
///
/// Counters are relaxed atomics — they are monotone tallies, and the
/// `stats` reader tolerates being a few increments behind the workers.
pub struct Metrics {
    started: Instant,
    /// Requests that produced an `ok` response.
    pub served_ok: AtomicU64,
    /// Requests that produced a structured error response.
    pub served_err: AtomicU64,
    /// Connections rejected with `busy` because the queue was full.
    pub rejected_busy: AtomicU64,
    /// Requests that exceeded their compute deadline.
    pub timeouts: AtomicU64,
    /// Calibration cache hits / misses.
    pub calib_hits: AtomicU64,
    pub calib_misses: AtomicU64,
    /// Projection memo hits / misses.
    pub proj_hits: AtomicU64,
    pub proj_misses: AtomicU64,
    /// Request handlers that panicked and were isolated by the worker's
    /// `catch_unwind` (the client still got a structured reply).
    pub panics_caught: AtomicU64,
    /// Workers that died outside per-request isolation and were respawned.
    pub worker_respawns: AtomicU64,
    /// Calibration attempts that failed and were retried with backoff.
    pub calib_retries: AtomicU64,
    /// Replies served from the last-good calibration because fresh
    /// re-calibration kept failing (flagged `"stale":true`).
    pub degraded_replies: AtomicU64,
    /// Frames rejected with `too_large` before allocation.
    pub too_large_rejected: AtomicU64,
    /// Inbound frames corrupted by an injected fault before decoding.
    pub frames_corrupted: AtomicU64,
    /// Requests shed because their propagated `deadline_ms` budget could
    /// not cover the observed median compute time (admission at dequeue),
    /// or because the deadline expired before the reply was ready.
    pub shed_deadline: AtomicU64,
    /// Connections shed oldest-first from a saturated accept queue to
    /// make room for a newcomer.
    pub shed_queue: AtomicU64,
    /// Retry withdrawals the calibration retry budget refused: the
    /// token bucket was empty, so the retry loop stopped early.
    pub retry_budget_exhausted: AtomicU64,
    /// Ring buffer of recent request latencies, microseconds, split into
    /// (queued, compute): time spent waiting in the accept queue vs time
    /// inside the handler.
    latencies_us: Mutex<Ring>,
    /// Per-machine counter breakdown, keyed by machine name (sorted).
    per_machine: Mutex<BTreeMap<String, MachineCounters>>,
}

/// Counters `stats` breaks out per target machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Requests routed to this machine (any machine-taking command).
    pub requests: u64,
    /// Calibration cache hits / misses for this machine's keys.
    pub calib_hits: u64,
    /// See [`MachineCounters::calib_hits`].
    pub calib_misses: u64,
    /// Projection memo hits / misses for this machine's keys.
    pub proj_hits: u64,
    /// See [`MachineCounters::proj_hits`].
    pub proj_misses: u64,
    /// Replies served stale from this machine's last-good calibration.
    pub degraded_replies: u64,
}

struct Ring {
    buf: Vec<(u64, u64)>,
    next: usize,
    filled: bool,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            served_ok: AtomicU64::new(0),
            served_err: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            calib_hits: AtomicU64::new(0),
            calib_misses: AtomicU64::new(0),
            proj_hits: AtomicU64::new(0),
            proj_misses: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            calib_retries: AtomicU64::new(0),
            degraded_replies: AtomicU64::new(0),
            too_large_rejected: AtomicU64::new(0),
            frames_corrupted: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            retry_budget_exhausted: AtomicU64::new(0),
            latencies_us: Mutex::new(Ring {
                buf: Vec::with_capacity(LATENCY_WINDOW),
                next: 0,
                filled: false,
            }),
            per_machine: Mutex::new(BTreeMap::new()),
        }
    }
}

/// A point-in-time copy of every counter, plus derived percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    pub uptime: Duration,
    pub served_ok: u64,
    pub served_err: u64,
    pub rejected_busy: u64,
    pub timeouts: u64,
    pub calib_hits: u64,
    pub calib_misses: u64,
    pub proj_hits: u64,
    pub proj_misses: u64,
    /// Handler panics isolated per-request.
    pub panics_caught: u64,
    /// Workers respawned after dying outside per-request isolation.
    pub worker_respawns: u64,
    /// Calibration retry attempts.
    pub calib_retries: u64,
    /// Replies served stale from the last-good calibration.
    pub degraded_replies: u64,
    /// Frames rejected with `too_large`.
    pub too_large_rejected: u64,
    /// Inbound frames corrupted by fault injection.
    pub frames_corrupted: u64,
    /// Requests shed on deadline grounds (admission or late detection).
    pub shed_deadline: u64,
    /// Connections shed oldest-first from a saturated accept queue.
    pub shed_queue: u64,
    /// Calibration retries refused by an empty retry budget.
    pub retry_budget_exhausted: u64,
    /// Total faults the active plan injected across the whole stack
    /// (supplied by the caller from the injector; 0 without a plan).
    pub faults_injected: u64,
    /// Median / tail total latency (queued + compute) over the recent
    /// window, microseconds. Zero when no request completed yet.
    pub p50_latency_us: u64,
    pub p99_latency_us: u64,
    /// Time spent waiting in the accept queue before a worker picked the
    /// connection up.
    pub p50_queued_us: u64,
    pub p99_queued_us: u64,
    /// Time spent inside the handler (parse + compute + render).
    pub p50_compute_us: u64,
    pub p99_compute_us: u64,
    /// Requests sitting in the accept queue right now.
    pub queue_depth: usize,
    /// Entries in the projection memo right now.
    pub proj_cache_len: usize,
    /// Entries in the calibration cache right now.
    pub calib_cache_len: usize,
    /// Per-machine breakdown, sorted by machine name.
    pub machines: Vec<(String, MachineCounters)>,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's wall time, split into the queue
    /// wait (accept to worker pickup) and the handler's compute time.
    pub fn record_latency(&self, queued: Duration, compute: Duration) {
        let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        let sample = (us(queued), us(compute));
        let mut ring = self
            .latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.buf.len() < LATENCY_WINDOW {
            ring.buf.push(sample);
        } else {
            let next = ring.next;
            ring.buf[next] = sample;
            ring.filled = true;
        }
        ring.next = (ring.next + 1) % LATENCY_WINDOW;
    }

    /// Captures a snapshot; queue/cache gauges and the injector's fault
    /// total are supplied by the caller.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        proj_cache_len: usize,
        calib_cache_len: usize,
        faults_injected: u64,
    ) -> StatsSnapshot {
        let (total, queued, compute) = {
            let ring = self
                .latencies_us
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (
                percentiles(ring.buf.iter().map(|&(q, c)| q + c)),
                percentiles(ring.buf.iter().map(|&(q, _)| q)),
                percentiles(ring.buf.iter().map(|&(_, c)| c)),
            )
        };
        StatsSnapshot {
            uptime: self.started.elapsed(),
            served_ok: self.served_ok.load(Ordering::Relaxed),
            served_err: self.served_err.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            calib_hits: self.calib_hits.load(Ordering::Relaxed),
            calib_misses: self.calib_misses.load(Ordering::Relaxed),
            proj_hits: self.proj_hits.load(Ordering::Relaxed),
            proj_misses: self.proj_misses.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            calib_retries: self.calib_retries.load(Ordering::Relaxed),
            degraded_replies: self.degraded_replies.load(Ordering::Relaxed),
            too_large_rejected: self.too_large_rejected.load(Ordering::Relaxed),
            frames_corrupted: self.frames_corrupted.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
            retry_budget_exhausted: self.retry_budget_exhausted.load(Ordering::Relaxed),
            faults_injected,
            p50_latency_us: total.0,
            p99_latency_us: total.1,
            p50_queued_us: queued.0,
            p99_queued_us: queued.1,
            p50_compute_us: compute.0,
            p99_compute_us: compute.1,
            queue_depth,
            proj_cache_len,
            calib_cache_len,
            machines: self
                .per_machine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Bumps a counter by one (helper so call sites stay terse).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The observed median handler compute time over the recent window,
    /// microseconds; 0 until a request completed. This is the admission
    /// yardstick: a request whose remaining deadline budget cannot cover
    /// it is shed instead of computed (a cold window of 0 sheds only
    /// requests whose budget is already gone).
    pub fn compute_p50_us(&self) -> u64 {
        let ring = self
            .latencies_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        percentiles(ring.buf.iter().map(|&(_, c)| c)).0
    }

    /// Updates the named machine's counter row.
    pub fn bump_machine(&self, machine: &str, f: impl FnOnce(&mut MachineCounters)) {
        let mut map = self
            .per_machine
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        f(map.entry(machine.to_string()).or_default());
    }
}

fn percentiles(samples: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut s: Vec<u64> = samples.collect();
    if s.is_empty() {
        return (0, 0);
    }
    s.sort_unstable();
    // Nearest-rank method: the p-th percentile is the ceil(p*n)-th sample.
    let rank = |p: f64| -> u64 {
        let idx = ((s.len() as f64 * p).ceil() as usize).clamp(1, s.len()) - 1;
        s[idx]
    };
    (rank(0.50), rank(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_distribution() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record_latency(Duration::ZERO, Duration::from_micros(us));
        }
        let s = m.snapshot(3, 2, 1, 0);
        assert_eq!(s.p50_latency_us, 50);
        assert_eq!(s.p99_latency_us, 99);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.proj_cache_len, 2);
        assert_eq!(s.calib_cache_len, 1);
    }

    #[test]
    fn queued_and_compute_split_is_tracked() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record_latency(Duration::from_micros(us * 10), Duration::from_micros(us));
        }
        let s = m.snapshot(0, 0, 0, 0);
        assert_eq!(s.p50_queued_us, 500);
        assert_eq!(s.p99_queued_us, 990);
        assert_eq!(s.p50_compute_us, 50);
        assert_eq!(s.p99_compute_us, 99);
        // Total is the per-request sum, not the sum of percentiles.
        assert_eq!(s.p50_latency_us, 550);
        assert_eq!(s.p99_latency_us, 1089);
    }

    #[test]
    fn ring_wraps_at_window() {
        let m = Metrics::new();
        for _ in 0..(LATENCY_WINDOW + 10) {
            m.record_latency(Duration::from_micros(2), Duration::from_micros(5));
        }
        let s = m.snapshot(0, 0, 0, 0);
        assert_eq!(s.p50_latency_us, 7);
        assert_eq!(s.p99_latency_us, 7);
    }

    #[test]
    fn empty_window_reports_zero() {
        let m = Metrics::new();
        let s = m.snapshot(0, 0, 0, 0);
        assert_eq!((s.p50_latency_us, s.p99_latency_us), (0, 0));
    }

    #[test]
    fn per_machine_rows_accumulate_and_sort() {
        let m = Metrics::new();
        m.bump_machine("v2", |c| c.requests += 1);
        m.bump_machine("eureka", |c| {
            c.requests += 1;
            c.calib_misses += 1;
        });
        m.bump_machine("eureka", |c| c.calib_hits += 1);
        let s = m.snapshot(0, 0, 0, 0);
        let names: Vec<&str> = s.machines.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["eureka", "v2"]);
        assert_eq!(s.machines[0].1.calib_hits, 1);
        assert_eq!(s.machines[0].1.calib_misses, 1);
        assert_eq!(s.machines[1].1.requests, 1);
    }
}
