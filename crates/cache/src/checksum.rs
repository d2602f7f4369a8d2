//! Page checksums for persisted cache metadata (DESIGN.md §6.5).
//!
//! Every flash-resident metadata page the cache may trust after a crash
//! — SOC bucket pages and LOC region footers — carries a trailing
//! 64-bit checksum over the rest of the page. Recovery validates the
//! checksum before believing anything else on the page; a mismatch
//! demotes the page to "never written" (SOC bucket treated as virgin,
//! LOC region treated as unsealed). The hash is built from the same
//! splitmix64 finalizer used by the fault plan and the FTL snapshot
//! digest: fast, deterministic, and with 64-bit output collisions are
//! not a practical concern for torn-page detection in a simulator.
//!
//! The page is folded in four independent lanes, one 8-byte word per
//! lane per 32-byte stripe, in the multi-accumulator style of xxHash
//! (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>):
//! the four splitmix64 chains have no data dependence on each other, so
//! a 4 KiB page costs about a third of what one serial chain over the
//! same words does.

/// The digest's starting state.
const SEED: u64 = 0xC0FF_EE00_5EED_1234;

/// Each lane's starting state, distinct per lane as in xxHash.
const LANE_SEEDS: [u64; 4] = [mix64(SEED), mix64(SEED ^ 1), mix64(SEED ^ 2), mix64(SEED ^ 3)];

/// One splitmix64 finalizer step.
#[inline]
pub(crate) const fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The little-endian word in an 8-byte chunk.
#[inline]
pub(crate) fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"))
}

/// Checksums a byte slice. Each whole 32-byte stripe feeds its four
/// 8-byte little-endian words to four lanes, each lane its own
/// splitmix64 chain; the lanes are then combined in order through one
/// more chain, which goes on to fold the words left over after the last
/// stripe, the zero-padded tail, and finally the length, so truncations
/// change the digest. Every step is a bijection of the state for fixed
/// other inputs, so any change confined to one 8-byte word, a single
/// bit flip included, always changes the digest.
pub(crate) fn page_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in stripes.by_ref() {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = mix64(*lane ^ word(w));
        }
    }
    let mut h = lanes.iter().fold(SEED, |h, &lane| mix64(h ^ lane));
    let mut words = stripes.remainder().chunks_exact(8);
    for w in words.by_ref() {
        h = mix64(h ^ word(w));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix64(h ^ u64::from_le_bytes(tail));
    }
    mix64(h ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_length_sensitive() {
        let a = page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a, page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9]));
        assert_ne!(a, page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 0]));
        assert_ne!(a, page_checksum(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = vec![0xA5u8; 4096];
        let digest = page_checksum(&base);
        for pos in [0usize, 7, 8, 4088, 4095] {
            let mut flipped = base.clone();
            flipped[pos] ^= 1;
            assert_ne!(digest, page_checksum(&flipped), "flip at {pos} undetected");
        }
    }

    #[test]
    fn flips_at_lane_and_stripe_edges_change_the_digest() {
        let base: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let digest = page_checksum(&base);
        for pos in [0usize, 7, 8, 31, 32, 4087, 4095] {
            for bit in [0, 7] {
                let mut flipped = base.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(
                    digest,
                    page_checksum(&flipped),
                    "flip of bit {bit} at {pos} undetected"
                );
            }
        }
    }

    #[test]
    fn swapping_words_from_different_lanes_changes_the_digest() {
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        // (bytes hashed, word a, word b); a word's lane is its index % 4.
        // A single stripe gives each lane exactly one word, so only the
        // lane seeds and the ordered combine tell a swap apart there.
        for (len, a, b) in [(32usize, 0usize, 1usize), (32, 1, 3), (4096, 2, 7), (4096, 0, 511)] {
            let mut swapped = page[..len].to_vec();
            for i in 0..8 {
                swapped.swap(a * 8 + i, b * 8 + i);
            }
            assert_ne!(swapped, page[..len]);
            assert_ne!(
                page_checksum(&page[..len]),
                page_checksum(&swapped),
                "swap of words {a} and {b} in {len} bytes undetected"
            );
        }
    }

    #[test]
    fn lengths_around_word_and_stripe_edges_give_distinct_digests() {
        let bytes = [0u8; 33];
        let digests: Vec<u64> =
            [0usize, 7, 8, 31, 32, 33].iter().map(|&n| page_checksum(&bytes[..n])).collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
