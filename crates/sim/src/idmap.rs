//! A `HashMap` for the simulator's own integer keys (`NodeId`,
//! `(origin, rreq id)`, sdu and transmission counters): SipHash's defence
//! against adversarial keys buys nothing there and costs more than the
//! probe it feeds.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`IdHasher`]. Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Deterministic multiply-rotate hasher for **simulator-internal keys only**.
///
/// It does not resist crafted collisions: never key a map on input from
/// outside the process with it (the daemon-facing maps keep SipHash). Being
/// unseeded, it makes iteration order repeat from run to run; that order
/// still hangs on insertion history and capacity, and must never reach a
/// result unsorted.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// A product's entropy sits in its high half, while hashbrown takes the
    /// bucket from the low bits and the control byte from the top seven:
    /// rotate the well-mixed middle of the word onto both.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut h = IdHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// No bucket of `2^bits` may hold more than four times its fair share,
    /// in either of the two bit ranges hashbrown reads.
    fn assert_spread(hashes: &[u64]) {
        for (what, bits, shift) in [("low 12", 12, 0), ("top 7", 7, 57)] {
            let mut buckets = vec![0usize; 1 << bits];
            for &h in hashes {
                buckets[(h >> shift) as usize & ((1 << bits) - 1)] += 1;
            }
            let mean = (hashes.len() >> bits).max(1);
            let worst = buckets.iter().copied().max().unwrap_or(0);
            assert!(
                worst <= 4 * mean,
                "{what} bits: a bucket holds {worst}, mean {mean}"
            );
        }
    }

    #[test]
    fn dense_node_ids_spread_over_both_bit_ranges() {
        let hashes: Vec<u64> = (0u32..4096).map(hash_of).collect();
        assert_spread(&hashes);
    }

    #[test]
    fn origin_id_grid_spreads_over_both_bit_ranges() {
        let hashes: Vec<u64> = (0u32..64)
            .flat_map(|origin| (0u32..64).map(move |id| hash_of((origin, id))))
            .collect();
        assert_spread(&hashes);
    }

    #[test]
    fn byte_slices_hash_like_their_words() {
        let mut a = IdHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = IdHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
        // A short tail is zero-padded, not dropped.
        let mut c = IdHasher::default();
        c.write(&[0; 8]);
        let mut d = c;
        d.write(&[1, 2, 3]);
        assert_ne!(c.finish(), d.finish());
    }
}
