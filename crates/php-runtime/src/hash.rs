//! The host-side integer hasher for the simulator's own bookkeeping maps.
//!
//! It hashes the *simulator's* lookup keys (simulated addresses, node
//! addresses, table slots), never anything the modeled hardware or the
//! metered PHP hash map sees, so it changes host time only. `std`'s
//! default SipHash defends against adversarial keys, which none of these
//! maps ever holds.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for integer keys: one multiply, with the well-mixed high bits
/// rotated down into the bucket index (simulated and host addresses are
/// aligned, so their low bits carry nothing).
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by an integer (address, id, slot), hashed with
/// [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A set of integers hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_set_spreads_aligned_addresses() {
        // 8-aligned keys must not pile into a few buckets: the rotation
        // brings the product's high bits down.
        let hashes: IntSet<u64> = (0..1024u64)
            .map(|i| {
                let mut h = IntHasher::default();
                h.write_u64(0x1000 + 8 * i);
                h.finish() & 1023
            })
            .collect();
        assert!(hashes.len() > 512, "{} distinct buckets", hashes.len());
    }
}
