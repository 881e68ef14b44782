//! The host-speed yardstick: a fixed SHA-256 job the benchmark owns, timed
//! in short slices interleaved with the calls it measures.
//!
//! On a shared host the same code runs at speeds that differ by half from
//! one minute to the next (other tenants on the sibling hyperthread, the
//! host's clock), and the benchmark's CPU time tracks its wall time, so
//! neither clock removes that drift. The eLSM read and write paths spend
//! their CPU in SHA-256, and a SHA-256 slice timed between their calls
//! slows down by the same share: wall time divided by the slices' speed
//! keeps the program's cost and drops the host's state. The yardstick is
//! the benchmark's own FIPS 180-4 compression function, not the program's,
//! so a change to the program's hashing still moves every normalised
//! metric.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

/// Measured wall time between two slices.
pub const SLICE_EVERY_NS: u64 = 1_000_000;

/// Wall time of one slice on the reference host: a normalised time is
/// the time the measured code would take where a slice takes this long.
pub const REFERENCE_SLICE_NS: f64 = 25_000.0;

/// Bytes one slice hashes.
const SLICE_BYTES: usize = 4096;

/// Slice timings over one measured phase.
#[derive(Debug)]
pub struct Yardstick {
    since_slice_ns: Cell<u64>,
    slices_ns: RefCell<Vec<u64>>,
    input: Vec<u8>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// A yardstick holding one slice, timed now.
    pub fn new() -> Self {
        let stick = Yardstick {
            since_slice_ns: Cell::new(0),
            slices_ns: RefCell::new(Vec::new()),
            input: (0..SLICE_BYTES).map(|i| (i * 31 + 7) as u8).collect(),
        };
        stick.slice();
        stick
    }

    /// Counts `wall_ns` of measured time and times a slice each time
    /// [`SLICE_EVERY_NS`] of it has passed.
    pub fn note(&self, wall_ns: u64) {
        let since = self.since_slice_ns.get() + wall_ns;
        if since >= SLICE_EVERY_NS {
            self.since_slice_ns.set(0);
            self.slice();
        } else {
            self.since_slice_ns.set(since);
        }
    }

    fn slice(&self) {
        let t0 = Instant::now();
        black_box(sha256(black_box(&self.input)));
        self.slices_ns.borrow_mut().push(t0.elapsed().as_nanos() as u64);
    }

    /// Slices timed so far.
    pub fn slices(&self) -> usize {
        self.slices_ns.borrow().len()
    }

    /// Mean wall nanoseconds of a slice.
    pub fn slice_ns(&self) -> f64 {
        let slices = self.slices_ns.borrow();
        slices.iter().sum::<u64>() as f64 / slices.len().max(1) as f64
    }

    /// How much slower than the reference host this phase ran: wall time
    /// divided by this is the normalised time.
    pub fn slowdown(&self) -> f64 {
        self.slice_ns() / REFERENCE_SLICE_NS
    }
}

/// Initial hash values (FIPS 180-4, 5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (FIPS 180-4, 4.2.2).
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

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let mut tail = data.chunks_exact(64);
    for block in &mut tail {
        compress(&mut state, block);
    }
    let rest = tail.remainder();
    let mut last = [0u8; 128];
    last[..rest.len()].copy_from_slice(rest);
    last[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    last[end - 8..end].copy_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in last[..end].chunks_exact(64) {
        compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (word, bytes) in state.iter().zip(out.chunks_exact_mut(4)) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (t, bytes) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[t]).wrapping_add(w[t]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        (h, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn slices_once_per_interval_of_measured_time() {
        let stick = Yardstick::new();
        assert_eq!(stick.slices(), 1);
        for _ in 0..10 {
            stick.note(SLICE_EVERY_NS / 4);
        }
        assert_eq!(stick.slices(), 3);
        assert!(stick.slice_ns() > 0.0 && stick.slowdown().is_finite());
    }

    #[test]
    fn matches_the_fips_180_4_examples() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        for len in [55, 56, 63, 64, 65, 4096] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(&sha256(&data), elsm_crypto::sha256(&data).as_bytes(), "{len} bytes");
        }
    }
}
