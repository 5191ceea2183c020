//! Helpers shared by the integration-test crates.

/// FNV-1a over little-endian words: a fixed, std-independent hash, so
/// pinned digests do not move with the toolchain.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
