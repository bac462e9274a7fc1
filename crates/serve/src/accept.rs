//! The accept loop shared by `gpp-serve` and `gpp-gateway`.
//!
//! ```text
//!              accept loop (non-blocking + ACCEPT_POLL)
//!                   │ try_push
//!                   ▼
//!        bounded Queue (Mutex<VecDeque> + Condvar) ──full──► Frontend::queue_full
//!                   │ recv
//!        ┌──────────┼──────────┐
//!        ▼          ▼          ▼
//!     worker 0   worker 1   worker N      (std scoped threads)
//!        └── Frontend::serve_connection
//! ```
//!
//! [`run`] owns everything the two tiers have in common: the
//! non-blocking accept poll, the shutdown check (the programmatic flag
//! and SIGINT/SIGTERM), the bounded connection queue, and the worker
//! threads with their catch-unwind respawn. What differs — how a
//! connection is served and what a full queue does to the newest
//! arrival — is the caller's [`Frontend`].
//!
//! Shutdown: once the flag is set or a signal arrives the loop stops
//! accepting and closes the queue; each worker drains what is still
//! queued and finishes its in-flight connection before [`run`] returns,
//! so no accepted request is abandoned.

use crate::server::signals;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// An accepted connection and the instant it was queued, so the worker
/// can attribute the accept-queue wait separately from compute time.
pub type Accepted = (TcpStream, Instant);

/// A bounded multi-producer multi-consumer FIFO.
///
/// Unlike `std::sync::mpsc`, the producer side can see the depth and
/// reclaim the oldest entry while consumers sit blocked in [`Queue::recv`]:
/// serve's shed-oldest policy needs both. A panicking holder cannot wedge
/// it (every lock ignores the poison flag; no operation leaves the deque
/// half-updated).
pub struct Queue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    cap: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Queue<T> {
    /// An empty queue holding at most `cap` items (at least one).
    pub fn new(cap: usize) -> Queue<T> {
        let cap = cap.max(1);
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `item`, or hands it back when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        if state.closed || state.items.len() >= self.cap {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Removes and returns the oldest queued item, if any.
    pub fn reclaim_oldest(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until an item is available and returns the oldest. After
    /// [`Queue::close`] the remaining items still drain in order; `None`
    /// means closed and empty.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuses further pushes and wakes every blocked [`Queue::recv`] so
    /// the consumers drain what is queued and then stop.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// One tier's part of the accept loop.
pub trait Frontend: Sync {
    /// Prefix for the loop's log lines (`"gpp-serve"`, `"gpp-gateway"`).
    const NAME: &'static str;

    /// Serves one dequeued connection to completion, on a worker thread.
    /// `queued` is how long it waited in `queue`; reads should give up
    /// once `shutdown` is set.
    fn serve_connection(
        &self,
        stream: TcpStream,
        queued: Duration,
        queue: &Queue<Accepted>,
        shutdown: &AtomicBool,
    );

    /// The newest arrival found the queue full. Runs on the accept
    /// thread, so it must not block for long.
    fn queue_full(&self, arrival: Accepted, queue: &Queue<Accepted>);

    /// A worker unwound outside [`Frontend::serve_connection`]'s own
    /// panic isolation and is being restarted on the same thread.
    fn worker_restarted(&self) {}
}

/// Accepts connections on `listener` until `shutdown` is set or a
/// termination signal arrives, serving them on `workers` threads through
/// a queue of `queue_depth` connections. Returns once every queued and
/// in-flight connection has been served. `shutdown` is set on return
/// whatever the cause, so anything else watching the flag (the gateway's
/// prober) stops with the loop.
pub fn run<F: Frontend>(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    workers: usize,
    queue_depth: usize,
    frontend: &F,
) -> io::Result<()> {
    if let Err(e) = listener.set_nonblocking(true) {
        shutdown.store(true, Ordering::SeqCst);
        return Err(e);
    }
    let queue = Queue::<Accepted>::new(queue_depth);
    let queue = &queue;
    std::thread::scope(|scope| {
        for w in 0..workers.max(1) {
            // Per-connection panics are the frontend's to isolate; should
            // anything else unwind, the logical worker restarts on the same
            // thread instead of shrinking the pool (or failing the scope).
            scope.spawn(move || loop {
                let drained = catch_unwind(AssertUnwindSafe(|| {
                    while let Some((stream, enqueued)) = queue.recv() {
                        frontend.serve_connection(stream, enqueued.elapsed(), queue, shutdown);
                    }
                }));
                if drained.is_ok() {
                    break;
                }
                frontend.worker_restarted();
                eprintln!("{}: worker {w} died; respawning", F::NAME);
            });
        }
        while !shutdown.load(Ordering::SeqCst) && !signals::requested() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Err(arrival) = queue.try_push((stream, Instant::now())) {
                        frontend.queue_full(arrival, queue);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("{}: accept failed: {e}", F::NAME);
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        shutdown.store(true, Ordering::SeqCst);
        queue.close();
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn try_push_hands_the_item_back_at_capacity() {
        let q = Queue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.recv(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn reclaim_takes_the_oldest_first() {
        let q = Queue::new(3);
        for i in 1..=3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.reclaim_oldest(), Some(1));
        assert_eq!(q.try_push(4), Ok(()));
        assert_eq!(q.reclaim_oldest(), Some(2));
        assert_eq!(q.recv(), Some(3));
        assert_eq!(q.recv(), Some(4));
        assert_eq!(q.reclaim_oldest(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_queued_items_then_recv_returns_none() {
        let q = Queue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"), "a closed queue refuses pushes");
        assert_eq!(q.recv(), Some("a"));
        assert_eq!(q.recv(), Some("b"));
        assert_eq!(q.recv(), None);
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn close_releases_waiting_and_late_consumers() {
        // Whether each consumer is already parked in `recv` or arrives
        // after `close`, it must return `None` rather than hang.
        let q = Queue::<u32>::new(1);
        std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3).map(|_| s.spawn(|| q.recv())).collect();
            q.close();
            for c in consumers {
                assert_eq!(c.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn producers_and_consumers_deliver_every_item_exactly_once() {
        const PRODUCERS: u32 = 4;
        const PER_PRODUCER: u32 = 500;
        let q = Queue::new(8);
        let received = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(v) = q.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let mut item = p * PER_PRODUCER + i;
                            // Backpressure: retry until a consumer frees a slot.
                            while let Err(back) = q.try_push(item) {
                                item = back;
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect::<Vec<u32>>()
        });
        assert_eq!(received.len(), (PRODUCERS * PER_PRODUCER) as usize);
        let distinct: HashSet<u32> = received.iter().copied().collect();
        assert_eq!(distinct, (0..PRODUCERS * PER_PRODUCER).collect());
    }
}
