//! The in-process fleet (two `gpp-serve` shards behind one
//! `gpp-gateway`, default configs) and the in-process reference every
//! reply is checked against.

use gpp_gateway::{Gateway, GatewayConfig, GatewayHandle};
use gpp_serve::cache::fnv1a;
use gpp_serve::metrics::StatsSnapshot;
use gpp_serve::{ServeConfig, Server, ServerHandle, ServiceState};
use grophecy::registry::MachineRegistry;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Shards behind the gateway.
pub const SHARDS: usize = 2;

/// The registry every shard serves: the built-ins plus the committed
/// `fixtures/machines/*.gmach` datasheets.
pub fn load_registry(root: &Path) -> Result<Arc<MachineRegistry>, String> {
    let mut registry = MachineRegistry::builtin();
    registry
        .load_dir(&root.join("fixtures/machines"))
        .map_err(|e| e.to_string())?;
    Ok(Arc::new(registry))
}

/// The shard configuration: defaults, an ephemeral port, the registry.
pub fn shard_config(registry: &Arc<MachineRegistry>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        machines: registry.clone(),
        ..ServeConfig::default()
    }
}

pub struct Fleet {
    pub shards: Vec<ServerHandle>,
    pub gateway: GatewayHandle,
}

impl Fleet {
    pub fn start(registry: &Arc<MachineRegistry>) -> io::Result<Fleet> {
        let shards = (0..SHARDS)
            .map(|_| Server::bind(shard_config(registry))?.spawn())
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = shards.iter().map(|s| s.addr().to_string()).collect();
        let gateway = Gateway::bind(GatewayConfig::default(), addrs)?.spawn()?;
        Ok(Fleet { shards, gateway })
    }

    pub fn gateway_addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    pub fn shard_addr(&self, i: usize) -> SocketAddr {
        self.shards[i].addr()
    }

    /// Per-shard `stats` snapshots.
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.state().snapshot(0)).collect()
    }

    /// Counters summed over the shards and read from the gateway.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in self.shard_stats() {
            c.proj_hits += s.proj_hits;
            c.proj_misses += s.proj_misses;
            c.calib_hits += s.calib_hits;
            c.calib_misses += s.calib_misses;
            c.busy += s.rejected_busy;
            c.shed += s.shed_queue + s.shed_deadline;
        }
        let g = &self.gateway.state().metrics;
        c.routed = g.routed_total.load(Ordering::Relaxed);
        c.coalesced = g.coalesced.load(Ordering::Relaxed);
        c.failovers = g.failovers.load(Ordering::Relaxed);
        c.unavailable = g.unavailable.load(Ordering::Relaxed);
        c.hedges = g.hedges_fired.load(Ordering::Relaxed);
        c.busy += g.rejected_busy.load(Ordering::Relaxed);
        c
    }

    pub fn stop(self) -> io::Result<()> {
        self.gateway.shutdown_and_join()?;
        for s in self.shards {
            s.shutdown_and_join()?;
        }
        Ok(())
    }
}

/// Monotonic fleet counters; subtract two readings for a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub proj_hits: u64,
    pub proj_misses: u64,
    pub calib_hits: u64,
    pub calib_misses: u64,
    pub busy: u64,
    pub shed: u64,
    pub routed: u64,
    pub coalesced: u64,
    pub failovers: u64,
    pub unavailable: u64,
    pub hedges: u64,
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        Counters {
            proj_hits: self.proj_hits - o.proj_hits,
            proj_misses: self.proj_misses - o.proj_misses,
            calib_hits: self.calib_hits - o.calib_hits,
            calib_misses: self.calib_misses - o.calib_misses,
            busy: self.busy - o.busy,
            shed: self.shed - o.shed,
            routed: self.routed - o.routed,
            coalesced: self.coalesced - o.coalesced,
            failovers: self.failovers - o.failovers,
            unavailable: self.unavailable - o.unavailable,
            hedges: self.hedges - o.hedges,
        }
    }
}

impl Counters {
    pub fn memo_hit_ratio(&self) -> f64 {
        ratio(self.proj_hits, self.proj_hits + self.proj_misses)
    }

    pub fn calib_hit_ratio(&self) -> f64 {
        ratio(self.calib_hits, self.calib_hits + self.calib_misses)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A reply with its `"cached"` flag cleared. The flag is the only field
/// allowed to differ from the reference: under concurrency which of two
/// identical requests misses the memo is a scheduling accident.
pub fn normalize(reply: &str) -> String {
    reply.replace("\"cached\":true", "\"cached\":false")
}

/// The digest a reply is compared by.
pub fn digest(reply: &str) -> u64 {
    fnv1a(normalize(reply).as_bytes())
}

/// The reference: a fresh in-process `ServiceState` answering each
/// distinct payload once, as a single request.
pub struct Reference {
    state: ServiceState,
    digests: HashMap<u64, u64>,
}

impl Reference {
    pub fn new(registry: &Arc<MachineRegistry>) -> Reference {
        Reference {
            state: ServiceState::new(shard_config(registry)),
            digests: HashMap::new(),
        }
    }

    pub fn reply(&self, payload: &str) -> String {
        self.state.handle(payload, 0)
    }

    /// Computes the digests of not-yet-seen payloads on two threads (the
    /// checks run after timing, so this only shortens the run).
    pub fn prefetch<'a>(&mut self, payloads: impl Iterator<Item = &'a str>) {
        let mut todo: Vec<(u64, &str)> = payloads
            .map(|p| (fnv1a(p.as_bytes()), p))
            .filter(|(k, _)| !self.digests.contains_key(k))
            .collect();
        todo.sort_unstable_by_key(|(k, _)| *k);
        todo.dedup_by_key(|(k, _)| *k);
        let state = &self.state;
        let done: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = todo
                .chunks(todo.len().div_ceil(2).max(1))
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|(k, p)| (*k, digest(&state.handle(p, 0))))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        self.digests.extend(done.into_iter().flatten());
    }

    pub fn digest(&mut self, payload: &str) -> u64 {
        let key = fnv1a(payload.as_bytes());
        if let Some(d) = self.digests.get(&key) {
            return *d;
        }
        let d = digest(&self.reply(payload));
        self.digests.insert(key, d);
        d
    }
}

/// Where two replies first differ, with a little context, for the log.
pub fn first_difference(got: &str, want: &str) -> String {
    let (g, w) = (normalize(got), normalize(want));
    let at = g
        .bytes()
        .zip(w.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(g.len().min(w.len()));
    let from = at.saturating_sub(40);
    let snip = |s: &str| {
        let end = (at + 80).min(s.len());
        String::from_utf8_lossy(&s.as_bytes()[from.min(end)..end]).into_owned()
    };
    format!(
        "first difference at byte {at}:\n    got:  ...{}\n    want: ...{}",
        snip(&g),
        snip(&w)
    )
}
