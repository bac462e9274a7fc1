//! The TCP front-end: accept loop, bounded queue, worker pool, shutdown.
//!
//! Architecture (no async runtime — sanctioned crates only):
//!
//! ```text
//!              accept loop (non-blocking + poll)
//!                   │ try_send
//!                   ▼
//!        crossbeam bounded channel  ──full──► immediate `busy` reply
//!                   │ recv
//!        ┌──────────┼──────────┐
//!        ▼          ▼          ▼
//!     worker 0   worker 1   worker N      (crossbeam scoped threads)
//!        └── ServiceState::handle ──► length-prefixed JSON reply
//! ```
//!
//! Shutdown: a shared `AtomicBool` (set programmatically or by the
//! SIGINT/SIGTERM handler) stops the accept loop; dropping the sender
//! lets each worker drain the queue and finish in-flight requests before
//! the pool joins — no request that was accepted is abandoned.

use crate::metrics::Metrics;
use crate::protocol::{read_frame_limited, write_frame, FrameError, ProtocolError};
use crate::service::{
    busy_response_with_hint, error_json, shed_queue_response, ServeConfig, ServiceState,
};
use crossbeam::channel::{bounded, Receiver, TrySendError};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A bound, ready-to-run server.
pub struct Server {
    state: Arc<ServiceState>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address (port 0 gives an ephemeral port).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            state: Arc::new(ServiceState::new(config)),
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The flag that stops the server when set.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Shared service state (stats, caches) — for embedding and tests.
    pub fn state(&self) -> Arc<ServiceState> {
        self.state.clone()
    }

    /// Runs until the shutdown flag is set (blocking). Returns once every
    /// queued and in-flight request has been answered.
    pub fn run(self) -> io::Result<()> {
        let Server {
            state,
            listener,
            shutdown,
        } = self;
        listener.set_nonblocking(true)?;
        let workers = state.config.workers.max(1);
        // Each queue entry carries its enqueue instant so the worker can
        // attribute the accept-queue wait separately from compute time.
        let (tx, rx) = bounded::<(TcpStream, Instant)>(state.config.queue_depth.max(1));

        crossbeam::thread::scope(|scope| {
            for w in 0..workers {
                let rx: Receiver<(TcpStream, Instant)> = rx.clone();
                let state = state.clone();
                let shutdown = shutdown.clone();
                // The respawn loop: per-request panics are already isolated
                // inside serve_connection; should anything else unwind, the
                // logical worker restarts on the same OS thread instead of
                // shrinking the pool (and instead of poisoning the scope
                // join, which would take the whole server down).
                scope.spawn(move |_| loop {
                    match catch_unwind(AssertUnwindSafe(|| worker_loop(w, &rx, &state, &shutdown)))
                    {
                        Ok(()) => break, // channel disconnected: clean drain
                        Err(_) => {
                            Metrics::bump(&state.metrics.worker_respawns);
                            eprintln!("gpp-serve: worker {w} died; respawning");
                        }
                    }
                });
            }
            // Accept loop — owns `tx`; dropping it on exit disconnects the
            // workers once the queue drains.
            loop {
                if shutdown.load(Ordering::SeqCst) || signals::requested() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => match tx.try_send((stream, Instant::now())) {
                        Ok(()) => {}
                        Err(TrySendError::Full(pair)) => {
                            // Shed-oldest-first (adaptive LIFO): the
                            // longest-queued connection is the one most
                            // likely past its caller's patience, so it is
                            // displaced with a structured `shed` reply and
                            // the fresh arrival takes its slot. Only if no
                            // queued entry can be reclaimed (workers
                            // drained the queue in the race window and it
                            // refilled — impossible with one acceptor, but
                            // cheap to guard) does the newcomer get the
                            // legacy `busy`.
                            let hint = state.retry_after_hint_ms(rx.len());
                            if let Some((oldest, _enqueued)) = rx.try_recv() {
                                state.note_shed_queue();
                                reply_reject(oldest, shed_queue_response(hint));
                            }
                            match tx.try_send(pair) {
                                Ok(()) => {}
                                Err(TrySendError::Full((stream, _))) => {
                                    state.note_busy();
                                    reply_reject(stream, busy_response_with_hint(hint));
                                }
                                Err(TrySendError::Disconnected(_)) => break,
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        eprintln!("gpp-serve: accept failed: {e}");
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
            drop(tx);
        })
        .expect("gpp-serve worker panicked");
        Ok(())
    }

    /// Runs the server on a background thread; returns a handle with the
    /// bound address and a clean shutdown path. Used by tests and by
    /// embedders that need the calling thread back.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_flag();
        let state = self.state();
        let thread = std::thread::Builder::new()
            .name("gpp-serve-acceptor".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            shutdown,
            state,
            thread,
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<ServiceState>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> Arc<ServiceState> {
        self.state.clone()
    }

    /// Requests shutdown and waits for the drain to complete.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("gpp-serve server thread panicked")),
        }
    }
}

fn worker_loop(
    worker: usize,
    rx: &Receiver<(TcpStream, Instant)>,
    state: &ServiceState,
    shutdown: &AtomicBool,
) {
    // recv() drains remaining queued connections after the acceptor drops
    // the sender, then reports Disconnected — exactly the shutdown drain
    // semantics we want.
    while let Ok((stream, enqueued)) = rx.recv() {
        if let Err(e) = serve_connection(stream, enqueued.elapsed(), rx, state, shutdown) {
            // Client went away mid-request or a socket error: not fatal to
            // the server; note it and move on.
            if e.kind() != io::ErrorKind::UnexpectedEof {
                eprintln!("gpp-serve: worker {worker}: connection error: {e}");
            }
        }
    }
}

/// Serves one connection: any number of request frames until EOF. The
/// connection's queue wait is attributed to its first request; follow-up
/// frames on the same connection never waited, so they record zero.
///
/// Robustness properties, in the order they apply per request:
///
/// * **Total read deadline** — the whole frame must arrive within
///   `request_timeout` ([`DeadlineRead`] re-arms the socket timeout to
///   the remaining budget before every `read`), so a slow-loris client
///   trickling bytes cannot pin a worker.
/// * **Bounded allocation** — a frame declaring more than
///   `max_frame_bytes` gets a structured `too_large` reply before any
///   payload allocation, then the connection closes (it cannot be
///   resynchronized past an unread body).
/// * **Injected corruption** ([`gpp_fault::SERVE_FRAME_CORRUPT`]) mangles
///   the payload before decoding; the handler answers it like any other
///   malformed request.
/// * **Panic isolation** — the handler (plus the injected
///   [`gpp_fault::SERVE_WORKER_PANIC`]) runs under `catch_unwind`; a
///   panic becomes a structured `internal` reply and the connection (and
///   worker) live on.
fn serve_connection(
    mut stream: TcpStream,
    queued: Duration,
    rx: &Receiver<(TcpStream, Instant)>,
    state: &ServiceState,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let io_budget = state.config.request_timeout;
    stream.set_write_timeout(Some(io_budget))?;
    stream.set_nodelay(true).ok();
    let faults = &state.config.faults;
    let mut queued = queued;
    loop {
        let mut reader = DeadlineRead::new(&stream, Instant::now() + io_budget, shutdown);
        let payload = match read_frame_limited(&mut reader, state.config.max_frame_bytes) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(FrameError::TooLarge { declared, max }) => {
                Metrics::bump(&state.metrics.too_large_rejected);
                let reply = error_json(&ProtocolError::new(
                    "too_large",
                    format!("request frame of {declared} B exceeds the {max} B limit"),
                ))
                .render();
                write_frame(&mut stream, &reply)?;
                return Ok(());
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        let mut payload = payload;
        if faults.is_active() && faults.fires(gpp_fault::SERVE_FRAME_CORRUPT) {
            Metrics::bump(&state.metrics.frames_corrupted);
            payload = corrupt_payload(&payload);
        }
        let response = catch_unwind(AssertUnwindSafe(|| {
            if faults.is_active() && faults.fires(gpp_fault::SERVE_WORKER_PANIC) {
                panic!("injected worker panic (serve.worker.panic)");
            }
            state.handle_timed(&payload, rx.len(), queued)
        }))
        .unwrap_or_else(|cause| {
            Metrics::bump(&state.metrics.panics_caught);
            let what = panic_message(&cause);
            error_json(&ProtocolError::new(
                "internal",
                format!("request handler panicked: {what}"),
            ))
            .render()
        });
        queued = Duration::ZERO;
        write_frame(&mut stream, &response)?;
    }
}

/// Deterministic frame corruption for [`gpp_fault::SERVE_FRAME_CORRUPT`]:
/// the header magic is replaced, so decoding fails with `bad-magic` the
/// way a bit-flipped frame would.
fn corrupt_payload(payload: &str) -> String {
    format!("xx!corrupt!{payload}")
}

/// Best-effort text of a caught panic payload.
fn panic_message(cause: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = cause.downcast_ref::<&str>() {
        s
    } else if let Some(s) = cause.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// How long one blocking read slice lasts before the shutdown flag is
/// re-checked. Short enough that drain is prompt; long enough that an
/// active connection pays a handful of extra syscalls at most.
const READ_POLL: Duration = Duration::from_millis(50);

/// An [`io::Read`] over a borrowed [`TcpStream`] that enforces a total
/// deadline: before every read the socket timeout is re-armed to the
/// remainder of the budget (sliced into `READ_POLL` chunks), so N slow
/// reads cannot stretch the wait to N × the per-read timeout — the
/// slow-loris pattern a fixed `set_read_timeout` allows. Between slices
/// the shutdown flag is checked; a shutdown surfaces as EOF, which the
/// frame reader treats as a clean close when it arrives between frames
/// (an *incomplete* frame at shutdown was never an accepted request, so
/// dropping it keeps the drain guarantee intact).
pub struct DeadlineRead<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    shutdown: &'a AtomicBool,
}

impl<'a> DeadlineRead<'a> {
    /// A reader over `stream` that returns EOF once `shutdown` is set and
    /// times out at `deadline`.
    pub fn new(stream: &'a TcpStream, deadline: Instant, shutdown: &'a AtomicBool) -> Self {
        DeadlineRead {
            stream,
            deadline,
            shutdown,
        }
    }
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) || signals::requested() {
                return Ok(0);
            }
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read deadline exceeded (slow client)",
                ));
            }
            // set_read_timeout(Some(0)) would mean "no timeout"; clamp up.
            self.stream
                .set_read_timeout(Some(remaining.min(READ_POLL).max(Duration::from_millis(1))))?;
            match self.stream.read(buf) {
                Ok(n) => return Ok(n),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Fast-path rejection when the queue is full: reply `busy`/`shed` (with
/// its `retry_after_ms` hint) and hang up without processing the request,
/// on a short-lived thread so the accept loop keeps accepting. After the
/// reply we send FIN and drain whatever the client already wrote —
/// closing with unread data in the receive buffer makes the kernel RST
/// the connection, which can destroy the reply before the client reads
/// it.
fn reply_reject(mut stream: TcpStream, response: String) {
    std::thread::spawn(move || {
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok();
        stream
            .set_write_timeout(Some(Duration::from_millis(500)))
            .ok();
        stream.set_nodelay(true).ok();
        let _ = write_frame(&mut stream, &response);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut sink = [0u8; 1024];
        while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
    });
}

/// SIGINT / SIGTERM → shutdown flag, without any signal-handling crate.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Whether a termination signal arrived since [`install`].
    pub fn requested() -> bool {
        SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    mod imp {
        use super::SHUTDOWN_REQUESTED;
        use std::sync::atomic::Ordering;

        // Setting an atomic flag is async-signal-safe; everything else
        // happens on the accept loop's next poll tick.
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
        }

        extern "C" {
            // From libc, which std already links. usize holds the handler
            // function pointer (sighandler_t).
            fn signal(signum: i32, handler: usize) -> usize;
        }

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        pub fn install() {
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        }
    }

    #[cfg(not(unix))]
    mod imp {
        pub fn install() {}
    }

    /// Installs SIGINT/SIGTERM handlers that set the shutdown flag. The
    /// CLI calls this for `gpp serve`; embedded servers (tests) usually
    /// prefer the handle's programmatic flag.
    pub fn install() {
        imp::install();
    }
}
