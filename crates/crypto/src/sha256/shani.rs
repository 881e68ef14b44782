//! SHA-256 compression with the x86-64 SHA extensions (SHA-NI).
//!
//! This is the crate's only `unsafe` code. The instructions are ordinary
//! user-mode instructions, so they are available inside an SGX enclave
//! as well. [`ShaNi::detect`] checks the CPU once per process and caches
//! the answer; a [`ShaNi`] value can only be obtained from it, so holding
//! one proves the check passed. The round structure follows Intel's
//! "SHA Extensions" white paper: the state lives in two registers
//! (`ABEF` and `CDGH`), `sha256rnds2` runs two rounds, and
//! `sha256msg1`/`sha256msg2` extend the message schedule four words at a
//! time.

use std::arch::x86_64::{
    _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};
use std::sync::atomic::{AtomicU8, Ordering};

use super::K;

const UNKNOWN: u8 = 0;
const ABSENT: u8 = 1;
const PRESENT: u8 = 2;

/// Cached result of the CPU-feature check. `Relaxed` suffices: the value
/// publishes no other data, and every thread that races on the first
/// check computes and stores the same answer.
static DETECTED: AtomicU8 = AtomicU8::new(UNKNOWN);

/// Proof that this CPU has SHA-NI (plus the SSE levels the kernel uses).
pub(super) struct ShaNi(());

impl ShaNi {
    /// Returns a token when the CPU supports `sha`, `sse2`, `ssse3` and
    /// `sse4.1`. The CPUID query runs on the first call only.
    #[inline]
    pub(super) fn detect() -> Option<ShaNi> {
        let mut state = DETECTED.load(Ordering::Relaxed);
        if state == UNKNOWN {
            let present = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            state = if present { PRESENT } else { ABSENT };
            DETECTED.store(state, Ordering::Relaxed);
        }
        (state == PRESENT).then_some(ShaNi(()))
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    #[inline]
    pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // SAFETY: `self` exists only if `ShaNi::detect` saw `sha`, `sse2`,
        // `ssse3` and `sse4.1` on this CPU, which are exactly the features
        // `compress_blocks_ni` is compiled for.
        unsafe { compress_blocks_ni(state, blocks) }
    }
}

/// Runs four rounds with schedule words `w` starting at round `i`, adding
/// the round constants `K[i..i + 4]` (an unaligned load; `i` is at most 60).
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add($i).cast()));
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }};
}

/// Extends the schedule by four words: `W[t..t+4]` from the previous 16,
/// held four to a register in `w0` (oldest) through `w3`.
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
        let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
        _mm_sha256msg2_epu32(t, $w3)
    }};
}

/// Compresses every 64-byte block of `blocks` into `state`.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: the caller guarantees the target features, checked by
    // `ShaNi::detect`. Every load and store is unaligned and in bounds:
    // `state` is 32 bytes, each `block` is exactly 64 bytes, and
    // `rounds4!` reads `K[i..i + 4]` with `i` at most 60.
    unsafe {
        // Byte-swaps each 32-bit word: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 4);
            rounds4!(abef, cdgh, w2, 8);
            rounds4!(abef, cdgh, w3, 12);
            // Rounds 16..64: the four registers rotate as a ring buffer
            // over the last 16 schedule words.
            let mut i = 16;
            while i < 64 {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, i);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, i + 4);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, i + 8);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, i + 12);
                i += 16;
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}
