//! SHA-256 (FIPS 180-4) for cell-cache keys.
//!
//! The workspace deliberately carries no external hashing dependency, so
//! the hash lives here. Every cached cell lookup hashes its ~1.2 KB
//! canonical description once ([`crate::cache::CellKey::from_desc`]), so
//! on a warm figure set or a cached `comb serve` request the hash is a
//! large share of the work: measured on a 2-core x86_64 host, hashing a
//! 1,180-byte description took 9.7 µs on the scalar compression and
//! 1.15 µs on the SHA extensions.
//!
//! The message is padded on the stack: whole 64-byte blocks are
//! compressed straight from the input, and the tail, the `0x80` marker and
//! the bit length share one two-block buffer. Compression has two
//! implementations with bit-identical output: the x86_64 SHA extensions
//! (`sha256rnds2`, `sha256msg1/2`), chosen per call when the CPU has them,
//! and a portable scalar loop for every other CPU and architecture.

/// Round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression function: fold whole 64-byte blocks into the state.
type Compress = fn(&mut [u32; 8], &[u8]);

/// The SHA-256 of `data` as 64 lowercase hex digits.
pub fn sha256_hex(data: &[u8]) -> String {
    hex(&digest_with(data, compress))
}

/// Fold `blocks` (a multiple of 64 bytes) into `state` on the fastest
/// implementation this CPU has.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return shani::compress(state, blocks);
    }
    compress_scalar(state, blocks)
}

/// The digest state after padding `data` and compressing every block
/// with `compress`.
fn digest_with(data: &[u8], compress: Compress) -> [u32; 8] {
    let mut state = H0;
    let whole = data.len() - data.len() % 64;
    compress(&mut state, &data[..whole]);

    // Tail || 0x80 || zeros || 64-bit big-endian bit length: one block
    // when the tail leaves room for the marker and the length, else two.
    let tail = &data[whole..];
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let len = if tail.len() < 56 { 64 } else { 128 };
    let bits = (data.len() as u64).wrapping_mul(8);
    last[len - 8..len].copy_from_slice(&bits.to_be_bytes());
    compress(&mut state, &last[..len]);
    state
}

fn hex(state: &[u32; 8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(64);
    for byte in state.iter().flat_map(|w| w.to_be_bytes()) {
        out.push(DIGITS[usize::from(byte >> 4)] as char);
        out.push(DIGITS[usize::from(byte & 0xf)] as char);
    }
    out
}

/// The portable compression loop (FIPS 180-4 §6.2.2).
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    let mut w = [0u32; 64];
    for block in blocks.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *slot = slot.wrapping_add(v);
        }
    }
}

/// Compression on the x86 SHA extensions.
///
/// The instructions keep the eight working variables in two registers,
/// `abef = [f, e, b, a]` and `cdgh = [h, g, d, c]` (lane 0 first);
/// `sha256rnds2` runs two rounds with the two message-plus-constant
/// words in the low lanes of its third operand, and `sha256msg1/2`
/// extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has every feature [`compress_blocks`] enables.
    /// The standard library caches the detection, so this is a load.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Fold `blocks` into `state`. Panics if this CPU lacks the SHA
    /// extensions; callers check [`available`] first.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(available(), "the CPU lacks the SHA extensions");
        // SAFETY: `available` just confirmed every feature that
        // `compress_blocks` enables, which is all its contract asks.
        unsafe { compress_blocks(state, blocks) }
    }

    /// Four rounds on message words `w` (`w[0]` in lane 0), whose round
    /// constants start at `K[4 * i]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        // SAFETY: `k` is four in-bounds `u32`s, 16 readable bytes; the
        // load is unaligned, so any address is fine.
        let k = unsafe { _mm_loadu_si128(k.as_ptr().cast()) };
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// The next four schedule words from the previous sixteen
    /// (`w0` oldest).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order within each 32-bit lane: big-endian words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 32 readable bytes, two unaligned 16-byte
        // loads.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef0, cdgh0) = (abef, cdgh);
            // SAFETY: `block` is 64 readable bytes, four unaligned
            // 16-byte loads.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(p.add(i)), bswap))
            };
            for (i, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, i);
            }
            for i in 4..16 {
                let next = schedule(w[0], w[1], w[2], w[3]);
                w = [w[1], w[2], w[3], next];
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes, two unaligned 16-byte
        // stores.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every implementation this CPU can run, by name.
    fn impls() -> Vec<(&'static str, Compress)> {
        let mut v: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            v.push(("sha-ni", shani::compress));
        }
        v
    }

    /// A deterministic byte pattern of length `n`.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn every_path_matches_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (name, f) in impls() {
            for (input, want) in vectors {
                assert_eq!(
                    hex(&digest_with(input, f)),
                    want,
                    "{name}, {} bytes",
                    input.len()
                );
            }
        }
        assert_eq!(sha256_hex(b"abc"), vectors[1].1);
    }

    #[test]
    fn paths_agree_on_every_length_through_five_blocks() {
        let paths = impls();
        for n in 0..=300 {
            let data = bytes(n);
            let want = digest_with(&data, compress_scalar);
            for (name, f) in &paths {
                assert_eq!(digest_with(&data, *f), want, "{name}, length {n}");
            }
            assert_eq!(sha256_hex(&data), hex(&want), "dispatch, length {n}");
        }
    }

    proptest! {
        #[test]
        fn paths_agree_on_random_input(
            seed in any::<u64>(),
            len in prop_oneof![
                Just(55usize), Just(56usize), Just(63usize), Just(64usize),
                Just(119usize), Just(120usize), 0usize..2_000,
            ],
        ) {
            let mut state = seed;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 56) as u8
                })
                .collect();
            let want = digest_with(&data, compress_scalar);
            for (name, f) in impls() {
                prop_assert_eq!(digest_with(&data, f), want, "{}", name);
            }
        }
    }
}
