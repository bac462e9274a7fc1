//! Single-flight coalescing of identical in-flight requests.
//!
//! When several clients ask for the same projection at the same moment
//! (same machine, seed, fingerprint, and payload bytes), only the first —
//! the *leader* — goes upstream; the rest block on the flight and receive
//! a copy of the leader's reply. Projections are pure functions of the
//! request payload, so handing every follower the leader's bytes is
//! indistinguishable from forwarding each request — except the shard does
//! the expensive work once.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// One in-flight request: the slot followers wait on.
struct Flight {
    reply: Mutex<Option<String>>,
    done: Condvar,
}

/// What joining a flight produced.
pub enum Joined {
    /// This caller is the leader: do the upstream work, then call
    /// [`LeaderGuard::complete`] with the reply.
    Leader(LeaderGuard),
    /// Another caller was already flying this key; here is its reply.
    Follower(String),
    /// The leader vanished (panicked or timed out) without publishing a
    /// reply; the caller should fly the request itself.
    Orphaned,
}

/// Proof of leadership for one key; completing it publishes the reply
/// and wakes every follower. Dropping it without completing wakes them
/// empty-handed (they re-fly), so a panicking leader cannot strand them.
pub struct LeaderGuard {
    map: Arc<Mutex<HashMap<u128, Arc<Flight>>>>,
    key: u128,
    flight: Arc<Flight>,
    completed: bool,
}

impl LeaderGuard {
    /// Publishes the reply to every waiting follower.
    pub fn complete(mut self, reply: &str) {
        *self
            .flight
            .reply
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(reply.to_string());
        self.completed = true;
        self.finish();
    }

    fn finish(&mut self) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        self.flight.done.notify_all();
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.finish();
        }
    }
}

/// The coalescing map. Keys are full-identity hashes of the request
/// (machine, seed, fingerprint, payload bytes), so two requests share a
/// flight only when their replies are guaranteed identical.
pub struct SingleFlight {
    map: Arc<Mutex<HashMap<u128, Arc<Flight>>>>,
    /// How long a follower waits before giving up on its leader.
    wait_budget: Duration,
}

impl SingleFlight {
    /// A fresh map with the given follower wait budget.
    pub fn new(wait_budget: Duration) -> SingleFlight {
        SingleFlight {
            map: Arc::new(Mutex::new(HashMap::new())),
            wait_budget,
        }
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// later callers block until the leader publishes (or abandons).
    pub fn join(&self, key: u128) -> Joined {
        self.join_with_budget(key, self.wait_budget)
    }

    /// [`SingleFlight::join`] with an explicit follower wait budget —
    /// used for deadline-bearing requests, whose remaining budget may be
    /// far shorter than the configured request timeout. A follower that
    /// runs out of budget is [`Joined::Orphaned`] and re-flies (or fails)
    /// on its own clock.
    pub fn join_with_budget(&self, key: u128, wait_budget: Duration) -> Joined {
        let flight = {
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                Some(flight) => flight.clone(),
                None => {
                    let flight = Arc::new(Flight {
                        reply: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    map.insert(key, flight.clone());
                    return Joined::Leader(LeaderGuard {
                        map: self.map.clone(),
                        key,
                        flight,
                        completed: false,
                    });
                }
            }
        };
        let mut reply = flight.reply.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = Duration::ZERO;
        const SLICE: Duration = Duration::from_millis(50);
        while reply.is_none() && waited < wait_budget {
            // A timed slice (not a bare wait) so a stuck leader can never
            // strand followers past their budget even if the wake is lost.
            reply = flight
                .done
                .wait_timeout(reply, SLICE)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            waited += SLICE;
            // The leader removing the key from the map (guard finish)
            // happens before notify; a None reply after that means it
            // abandoned rather than still flying.
            if reply.is_none()
                && !self
                    .map
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .contains_key(&key)
            {
                break;
            }
        }
        match reply.clone() {
            Some(r) => Joined::Follower(r),
            None => Joined::Orphaned,
        }
    }

    /// Flights currently in the air (for stats).
    pub fn in_flight(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn leader_then_followers() {
        let sf = Arc::new(SingleFlight::new(Duration::from_secs(5)));
        let upstream = Arc::new(AtomicUsize::new(0));
        let guard = match sf.join(42) {
            Joined::Leader(g) => g,
            _ => panic!("first join must lead"),
        };
        let mut joins = Vec::new();
        for _ in 0..8 {
            let sf = sf.clone();
            let upstream = upstream.clone();
            joins.push(std::thread::spawn(move || match sf.join(42) {
                Joined::Follower(r) => r,
                Joined::Leader(g) => {
                    upstream.fetch_add(1, Ordering::SeqCst);
                    g.complete("late");
                    "late".to_string()
                }
                Joined::Orphaned => "orphaned".to_string(),
            }));
        }
        // Give followers time to pile onto the flight, then publish.
        std::thread::sleep(Duration::from_millis(100));
        upstream.fetch_add(1, Ordering::SeqCst);
        guard.complete("the-reply");
        for j in joins {
            assert_eq!(j.join().unwrap(), "the-reply");
        }
        assert_eq!(upstream.load(Ordering::SeqCst), 1);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_separately() {
        let sf = SingleFlight::new(Duration::from_secs(1));
        let a = sf.join(1);
        let b = sf.join(2);
        assert!(matches!(a, Joined::Leader(_)));
        assert!(matches!(b, Joined::Leader(_)));
    }

    #[test]
    fn abandoned_leader_orphans_followers_promptly() {
        let sf = Arc::new(SingleFlight::new(Duration::from_secs(30)));
        let guard = match sf.join(7) {
            Joined::Leader(g) => g,
            _ => panic!(),
        };
        let sf2 = sf.clone();
        let follower = std::thread::spawn(move || sf2.join(7));
        std::thread::sleep(Duration::from_millis(100));
        drop(guard); // leader dies without publishing
        let start = std::time::Instant::now();
        assert!(matches!(follower.join().unwrap(), Joined::Orphaned));
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
