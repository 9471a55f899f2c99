//! Byte tests eight bytes at a time (SWAR, "SIMD within a register";
//! Lamport, "Multiple byte processing with full-word instructions", CACM
//! 18(8), 1975).
//!
//! A scan over a request's bytes loads eight of them as one
//! little-endian `u64` ([`load`]) and tests all eight with a few integer
//! operations. The tests are exact per byte: no carry or borrow crosses
//! from one byte into the next, so every flag in a result marks a byte
//! that matched, and the lowest flag ([`first`]) is the first match in
//! memory order.
//!
//! ```
//! use soccar_obs::words::{bytes_equal, first, load};
//!
//! let hit = bytes_equal(load(b"ab\"cd\"ef"), b'"');
//! assert_eq!(first(hit), 2);
//! assert_eq!(hit.count_ones(), 2);
//! ```

/// The low seven bits of every byte.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// The top bit of every byte: where the tests put their flags.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// `b` in each of the eight bytes of a word.
#[must_use]
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The eight bytes of `word` as one little-endian word, so the byte at
/// index `i` is the word's byte `i`.
///
/// # Panics
///
/// Panics unless `word` is exactly 8 bytes long.
#[must_use]
pub fn load(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("an 8-byte word"))
}

/// Flags with `0x80` each byte of `x` whose value is below `n`, and
/// clears every other bit. `n` is at most `0x80`.
#[must_use]
pub(crate) const fn bytes_below(x: u64, n: u8) -> u64 {
    // Per byte, (b & 0x7F) + (0x80 - n) is at most 0xFE, so it carries
    // into no neighbour; its top bit is set exactly when b & 0x7F >= n.
    // Or-ing in `x` also excludes the bytes with their own top bit set.
    !(((x & LOW7) + splat(0x80 - n)) | x) & HIGH
}

/// Flags with `0x80` each byte of `x` equal to `b`.
#[must_use]
pub const fn bytes_equal(x: u64, b: u8) -> u64 {
    bytes_below(x ^ splat(b), 1)
}

/// The index in its word of the first byte `flags` marks (8 when it
/// marks none).
#[must_use]
pub const fn first(flags: u64) -> usize {
    (flags.trailing_zeros() / 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte value, in every position of a word, against the
    /// bytewise predicate.
    #[test]
    fn tests_are_exact_for_every_byte_in_every_position() {
        for n in [1u8, 0x20, 0x7F, 0x80] {
            for b in 0..=255u8 {
                for pos in 0..8 {
                    // Neighbours that would borrow or carry into `b`.
                    for fill in [0x00u8, 0x01, 0x7F, 0x80, 0xFF] {
                        let mut bytes = [fill; 8];
                        bytes[pos] = b;
                        let x = load(&bytes);
                        let want: u64 = bytes
                            .iter()
                            .enumerate()
                            .filter(|&(_, &v)| v < n)
                            .map(|(i, _)| 0x80 << (8 * i))
                            .sum();
                        assert_eq!(bytes_below(x, n), want, "{bytes:02x?} below {n:#x}");
                        let want: u64 = bytes
                            .iter()
                            .enumerate()
                            .filter(|&(_, &v)| v == b)
                            .map(|(i, _)| 0x80 << (8 * i))
                            .sum();
                        assert_eq!(bytes_equal(x, b), want, "{bytes:02x?} equal {b:#x}");
                    }
                }
            }
        }
        assert_eq!(first(0), 8);
    }
}
