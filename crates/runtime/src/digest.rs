//! FNV-1a: the one 64-bit digest every hash in the workspace uses —
//! checkpoint checksums, config hashes, canonical event hashes, the golden
//! parameter fixtures, and the grid runner's Trojan memo key.
//!
//! Not cryptographic: it detects accidental change (a torn file, an edited
//! config, a drifted kernel), not adversarial collisions.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash; feed it with [`write`](Self::write) and
/// [`write_f32s`](Self::write_f32s), read it with [`finish`](Self::finish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hash over zero bytes (the FNV offset basis).
    pub const fn new() -> Self {
        Self(OFFSET_BASIS)
    }

    /// Folds `bytes` in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds each value's little-endian `f32` bit pattern in order, so
    /// `-0.0` and `0.0` (and distinct NaN payloads) hash differently.
    pub fn write_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a over the little-endian `f32` bit patterns — the idiom of every
/// committed parameter-hash fixture.
pub fn fnv1a_f32(values: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_f32s(values);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn f32_helper_hashes_little_endian_bit_patterns() {
        let xs = [1.0f32, -0.0, f32::NAN, 3.5e-40];
        let bytes: Vec<u8> = xs.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(fnv1a_f32(&xs), fnv1a(&bytes));
        assert_ne!(fnv1a_f32(&[0.0]), fnv1a_f32(&[-0.0]));
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
