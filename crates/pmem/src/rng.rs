//! The repository's shared deterministic mixing and hashing
//! primitives.
//!
//! Everything in the workspace that needs a seedable deterministic
//! stream — adversarial writeback schedules ([`crate::crash`]),
//! per-site hardware-fault streams (`spp-mem`), fuzz-matrix seed
//! derivation (`spp-bench`) — uses the *same* [`splitmix64`] mixer, so
//! streams are reproducible across crates and a seed printed by one
//! tool replays identically in another. [`hash64`] builds a 64-bit
//! content hash on top of it for integrity checks (the result-journal's
//! per-entry checksums).
//!
//! This module is defined here because `spp-pmem` is the root of the
//! workspace dependency graph; every crate imports the two functions
//! from the crate root (`spp_pmem::splitmix64` / `spp_pmem::hash64`),
//! the one public path to them.

/// The SplitMix64 mixer (Steele et al., the seeding function of the
/// xoshiro family): a statistically strong, invertible 64-bit mixer.
///
/// Feeding it a counter (`splitmix64(seed + n)`) yields the standard
/// SplitMix64 stream; the unit tests pin the published reference
/// vector so no copy of this function can drift silently.
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A 64-bit content hash: FNV-1a over the bytes, finished through
/// [`splitmix64`] to break FNV's weak avalanche on short inputs.
///
/// Not cryptographic — it defends against truncation, torn writes and
/// bit rot in journalled results, not against an adversary forging
/// entries.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325; // FNV-1a 64 offset basis
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV-1a 64 prime
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published SplitMix64 reference stream for seed 0 (the same
    /// vector used by the xoshiro authors' test suite). If any copy of
    /// the mixer drifts from this, seeds printed in past reports stop
    /// replaying.
    #[test]
    fn splitmix64_matches_the_published_vector() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(2), 0x9758_35DE_1C97_56CE);
        assert_eq!(splitmix64(0x5EED), 0x09F1_FD9D_03F0_A9B4);
        assert_eq!(splitmix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    /// Chaining the mixer on its own output (state-walk form) is also
    /// pinned: both usage styles exist in the workspace.
    #[test]
    fn splitmix64_chained_stream_is_pinned() {
        let mut s = 0u64;
        let expect = [
            0xE220_A839_7B1D_CDAF_u64,
            0xA706_DD2F_4D19_7E6F,
            0x2382_75BC_38FC_BE91,
            0x2130_748A_AAC8_0268,
        ];
        for e in expect {
            s = splitmix64(s);
            assert_eq!(s, e);
        }
    }

    #[test]
    fn hash64_is_pinned_and_input_sensitive() {
        assert_eq!(hash64(b""), 0xC381_7C01_6BA4_FF30);
        assert_eq!(hash64(b"specpersist"), 0xE082_20CA_9428_5082);
        assert_eq!(hash64(b"journal-v1"), 0x9B2B_0858_CEC3_B425);
        // Single-byte and single-bit sensitivity.
        assert_ne!(hash64(b"journal-v1"), hash64(b"journal-v2"));
        assert_ne!(hash64(b"a"), hash64(b"b"));
        assert_ne!(hash64(b"ab"), hash64(b"ba"));
    }
}
