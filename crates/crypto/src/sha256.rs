//! SHA-256 as specified in FIPS 180-4.
//!
//! Implemented from the specification because the reproduction is restricted
//! to the offline crate set (no `sha2`). Verified against the NIST
//! short-message test vectors in the unit tests below.
//!
//! Two compression functions produce identical states: the portable scalar
//! `compress` and, on x86-64 CPUs with the SHA extensions, the SHA-NI
//! kernel in `shani`. The CPU alone picks one, once per process; see
//! [`backend`]. Digests never depend on the choice, and neither does any
//! modeled cost (the cost model counts bytes, not time).

use std::cell::Cell;

use crate::digest::Digest;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
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

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use elsm_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partially filled block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Every whole block goes straight from the caller's slice.
        let whole = rest.len() & !63;
        if whole > 0 {
            compress_blocks(&mut self.state, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        // Append 0x80, zero padding to 56 mod 64, then the 64-bit
        // big-endian bit length: one final block, or two when fewer than
        // 9 bytes are left in the current one.
        let mut last = [0u8; 128];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        last[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &last[..end]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

/// Which compression function this process uses: `"sha-ni"` on x86-64
/// CPUs with the SHA extensions, `"scalar"` everywhere else.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::ShaNi::detect().is_some() {
        return "sha-ni";
    }
    "scalar"
}

thread_local! {
    /// Blocks this thread has compressed, on either path.
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of 64-byte blocks this thread has run through the compression
/// function so far, whichever path ran them. Tests compare deltas of it
/// with the `hash_blocks` a cost model charged for the same work.
pub fn thread_compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// Compresses every 64-byte block of `blocks` (whose length is a multiple
/// of 64) into `state`, on the fastest path this CPU offers.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    COMPRESSIONS.with(|c| c.set(c.get() + (blocks.len() / 64) as u64));
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = shani::ShaNi::detect() {
        return ni.compress_blocks(state, blocks);
    }
    compress_blocks_scalar(state, blocks);
}

/// [`compress_blocks`] on the portable path only.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("64-byte chunk"));
    }
}

/// The FIPS 180-4 compression function, one block at a time.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = elsm_crypto::sha256::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte slices without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        sha256(data).to_hex()
    }

    /// SHA-256 on the scalar path only, whatever this CPU supports:
    /// FIPS 180-4 padding written out independently of [`Sha256`].
    fn scalar_sha256(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks_scalar(&mut state, &msg);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }

    /// Deterministic non-repeating test bytes.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u32).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8).collect()
    }

    #[test]
    fn nist_vectors_on_scalar_path() {
        let cases: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (msg, want) in cases {
            assert_eq!(scalar_sha256(msg).to_hex(), want);
        }
        let million_a = vec![b'a'; 1_000_000];
        assert_eq!(
            scalar_sha256(&million_a).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn dispatched_path_matches_scalar_for_every_short_length() {
        println!("sha256 dispatched path: {}", backend());
        let data = pattern(320);
        for n in 0..=320 {
            assert_eq!(sha256(&data[..n]), scalar_sha256(&data[..n]), "length {n} ({})", backend());
        }
    }

    #[test]
    fn compression_counter_counts_every_padded_block() {
        let data = pattern(200);
        for n in 0..=200 {
            let before = thread_compressions();
            sha256(&data[..n]);
            // Message, the 0x80 byte and the 8-byte length, in whole blocks.
            let blocks = (n + 9).div_ceil(64) as u64;
            assert_eq!(thread_compressions() - before, blocks, "length {n} ({})", backend());
        }
    }

    #[test]
    fn nist_empty() {
        assert_eq!(hex(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn nist_abc() {
        assert_eq!(hex(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_eq!(
            hex(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    #[test]
    fn incremental_matches_oneshot() {
        println!("sha256 dispatched path: {}", backend());
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let want = scalar_sha256(&data);
        assert_eq!(sha256(&data), want);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), want, "chunk size {chunk} ({})", backend());
        }
    }

    #[test]
    fn concat_matches_joined() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }

    #[test]
    fn boundary_lengths() {
        // Lengths straddling the 55/56/63/64-byte padding boundaries must
        // round-trip through the incremental path identically.
        for n in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128] {
            let data = vec![0xabu8; n];
            let mut h = Sha256::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), sha256(&data), "length {n}");
        }
    }
}
