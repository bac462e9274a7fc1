//! Consistent-hash ring over shard indices.
//!
//! Each shard owns [`VNODES`] points on a `u64` ring (hashes of
//! `label#vnode`); a request key is routed to the first point clockwise
//! from its hash. Virtual nodes smooth the load split, and consistency
//! means adding or losing one shard only remaps the keys that hashed to
//! its points — every other (machine, fingerprint) keeps hitting the
//! shard whose projection memo is already warm for it.

use gpp_fault::fnv1a;

/// Virtual nodes per shard. 64 keeps the worst/best shard load ratio
/// close to 1 at the pool sizes a gateway fronts (a handful of shards).
pub const VNODES: usize = 64;

/// An immutable consistent-hash ring over `shards` members.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points sorted by hash: (point hash, shard index).
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring from the shard labels (typically `shard0`,
    /// `shard1`, ...). Labels, not addresses, define ring placement, so a
    /// shard that restarts on a new ephemeral port keeps its keyspace.
    pub fn new(labels: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(labels.len() * VNODES);
        for (index, label) in labels.iter().enumerate() {
            for v in 0..VNODES {
                points.push((fnv1a(format!("{label}#{v}").as_bytes()), index));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            shards: labels.len(),
        }
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.shards
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.shards == 0
    }

    /// The primary shard for a key: owner of the first ring point at or
    /// clockwise after the key's hash.
    pub fn route(&self, key: u64) -> Option<usize> {
        self.successors(key).next()
    }

    /// All distinct shards in ring order starting from the key's primary —
    /// the fail-over sequence. Every shard appears exactly once.
    pub fn successors(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|(h, _)| *h < key);
        let n = self.points.len();
        let mut seen = vec![false; self.shards];
        (0..n).filter_map(move |i| {
            let (_, shard) = self.points[(start + i) % n];
            if seen[shard] {
                None
            } else {
                seen[shard] = true;
                Some(shard)
            }
        })
    }
}

/// The routing key a gateway hashes onto the ring: the target machine
/// plus the program's structural fingerprint, so identical programs for
/// the same machine always land on the same (cache-warm) shard.
pub fn routing_key(machine: &str, fingerprint: u128) -> u64 {
    let mut h = fnv1a(machine.as_bytes());
    // Fold the u128 fingerprint in with the same FNV-1a step the base
    // hash uses, one 64-bit half at a time.
    for half in [fingerprint as u64, (fingerprint >> 64) as u64] {
        for b in half.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard{i}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let ring = HashRing::new(&labels(3));
        let mut hit = [0usize; 3];
        for i in 0..3000u64 {
            let key = routing_key("eureka", i as u128);
            let a = ring.route(key).unwrap();
            let b = ring.route(key).unwrap();
            assert_eq!(a, b);
            hit[a] += 1;
        }
        for (shard, count) in hit.iter().enumerate() {
            assert!(*count > 300, "shard {shard} got only {count}/3000 keys");
        }
    }

    #[test]
    fn successors_visit_every_shard_once() {
        let ring = HashRing::new(&labels(4));
        for i in 0..100u64 {
            let order: Vec<usize> = ring.successors(routing_key("v2", i as u128)).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "order {order:?}");
        }
    }

    #[test]
    fn losing_a_shard_only_remaps_its_own_keys() {
        // Consistency: route on 3 shards vs the fail-over successor when
        // shard 1 is skipped — keys primary on 0 or 2 must not move.
        let ring = HashRing::new(&labels(3));
        for i in 0..2000u64 {
            let key = routing_key("eureka", i as u128);
            let primary = ring.route(key).unwrap();
            let survivor = ring.successors(key).find(|s| *s != 1).unwrap();
            if primary != 1 {
                assert_eq!(survivor, primary);
            }
        }
    }

    #[test]
    fn machine_and_fingerprint_both_matter() {
        assert_ne!(routing_key("eureka", 7), routing_key("v2", 7));
        assert_ne!(routing_key("eureka", 7), routing_key("eureka", 8));
        assert_ne!(
            routing_key("eureka", 1u128 << 64),
            routing_key("eureka", 1u128)
        );
    }
}
