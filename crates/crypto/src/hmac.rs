//! HMAC-SHA256 per RFC 2104 / FIPS 198-1, with RFC 4231 test vectors.

use std::fmt;

use crate::digest::Digest;
use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Incremental HMAC-SHA256.
///
/// A context holds the SHA-256 states after absorbing the inner and the
/// outer padded key, so keying costs two compressions once. Build it once
/// per key and `clone()` it per message: a 64-byte message then costs
/// three compressions instead of five.
///
/// # Examples
///
/// ```
/// use elsm_crypto::hmac::{hmac_sha256, HmacSha256};
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag, hmac_sha256(b"key", b"message"));
/// assert_ne!(tag, hmac_sha256(b"key2", b"message"));
///
/// let keyed = HmacSha256::new(b"key");
/// let mut h = keyed.clone();
/// h.update(b"message");
/// assert_eq!(h.finalize(), tag);
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The keyed states are key material.
        f.write_str("HmacSha256(..)")
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed by `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_hash = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_hash.as_bytes());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut h = HmacSha256::new(key);
    h.update(message);
    h.finalize()
}

/// Constant-time tag comparison.
///
/// Avoids early-exit timing differences when verifying MACs; the enclave
/// verifier uses this for every authenticity check.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"key");
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), hmac_sha256(b"key", b"part one part two"));
    }

    #[test]
    fn cloned_keyed_context_matches_oneshot() {
        let keyed = HmacSha256::new(&[0xaau8; 131]);
        for msg in [&b""[..], b"Hi There", &[0xddu8; 64], &[0x01u8; 200]] {
            let mut h = keyed.clone();
            h.update(msg);
            assert_eq!(h.finalize(), hmac_sha256(&[0xaau8; 131], msg));
        }
    }

    #[test]
    fn verify_tag_works() {
        let t1 = hmac_sha256(b"k", b"m");
        let t2 = hmac_sha256(b"k", b"m");
        let t3 = hmac_sha256(b"k", b"n");
        assert!(verify_tag(&t1, &t2));
        assert!(!verify_tag(&t1, &t3));
    }
}
