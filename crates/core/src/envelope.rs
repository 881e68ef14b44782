//! The value envelope: how proofs are embedded inside stored values.
//!
//! §5.2: "each record at the level ⟨k, v⟩ is augmented with its eLSM proof
//! πᵢ, that is, ⟨k, v‖πᵢ⟩". We encode the stored value as a tagged
//! envelope so the same byte format flows through the vanilla store:
//!
//! ```text
//! [0x00][varint len][app value]                  — fresh write (no proof yet)
//! [0x01][varint len][app value][encoded proof]   — after compaction
//! ```
//!
//! The *canonical bytes* digested by every Merkle structure are the record
//! with its **bare** application value (the proof cannot be part of what it
//! proves).

use bytes::Bytes;
use lsm_store::encoding::{get_varint_u64, put_varint_u64, varint_len};
use lsm_store::Record;
use merkle::RecordProof;

use crate::error::VerificationFailure;

const PLAIN: u8 = 0x00;
const WITH_PROOF: u8 = 0x01;

/// Wraps a fresh application value (no proof).
pub fn wrap_plain(value: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(value.len() + 6);
    out.push(PLAIN);
    put_varint_u64(&mut out, value.len() as u64);
    out.extend_from_slice(value);
    Bytes::from(out)
}

/// Wraps an application value together with its embedded proof.
pub fn wrap_with_proof(value: &[u8], proof: &RecordProof) -> Bytes {
    let mut out = proof_envelope(value, proof.encoded_len());
    proof.encode_into(&mut out);
    Bytes::from(out)
}

/// Starts a proof-carrying envelope around `value`, sized for exactly
/// `proof_len` more bytes: the caller appends the encoded proof.
pub fn proof_envelope(value: &[u8], proof_len: usize) -> Vec<u8> {
    let len = value.len() as u64;
    let mut out = Vec::with_capacity(1 + varint_len(len) + value.len() + proof_len);
    out.push(WITH_PROOF);
    put_varint_u64(&mut out, len);
    out.extend_from_slice(value);
    out
}

/// The tag, application value and trailing bytes of a non-empty envelope.
fn parts(stored: &[u8]) -> Option<(u8, &[u8], &[u8])> {
    let (&tag, rest) = stored.split_first()?;
    let (len, n) = get_varint_u64(rest)?;
    let end = n.checked_add(usize::try_from(len).ok()?)?;
    let value = rest.get(n..end)?;
    Some((tag, value, &rest[end..]))
}

/// Parses an envelope into `(application value, optional proof)`.
///
/// Returns `None` on malformed envelopes (which verification treats as
/// forgery).
pub fn unwrap(stored: &[u8]) -> Option<(Bytes, Option<RecordProof>)> {
    if stored.is_empty() {
        // Tombstones carry no value at all; treat as plain-empty.
        return Some((Bytes::new(), None));
    }
    let (tag, value, tail) = parts(stored)?;
    match tag {
        PLAIN => tail.is_empty().then(|| (Bytes::copy_from_slice(value), None)),
        WITH_PROOF => {
            let (proof, used) = RecordProof::decode(tail)?;
            (used == tail.len()).then(|| (Bytes::copy_from_slice(value), Some(proof)))
        }
        _ => None,
    }
}

/// Parses an envelope by borrowing: `(application value, encoded proof)`.
/// Accepts exactly the envelopes [`unwrap`] accepts, but only checks the
/// embedded proof's structure instead of decoding it.
///
/// Returns `None` on malformed envelopes.
pub fn split(stored: &[u8]) -> Option<(&[u8], Option<&[u8]>)> {
    if stored.is_empty() {
        return Some((&[], None));
    }
    let (tag, value, tail) = parts(stored)?;
    match tag {
        PLAIN => tail.is_empty().then_some((value, None)),
        WITH_PROOF => {
            (RecordProof::check_encoded(tail)? == tail.len()).then_some((value, Some(tail)))
        }
        _ => None,
    }
}

/// The canonical bytes of a record — bare application value, no envelope —
/// the input to every chain and Merkle digest. Exactly sized.
pub fn canonical_bytes(record: &Record, bare_value: &[u8]) -> Vec<u8> {
    record.encode_with_value(bare_value)
}

/// The error a malformed envelope at `level` verifies as.
fn malformed(level: u32) -> VerificationFailure {
    VerificationFailure::ForgedRecord { level, source: merkle::VerifyError::BadAuditPath }
}

/// Unwraps a stored record into `(bare record bytes, app value, proof)`,
/// mapping malformed envelopes to a verification failure at `level`.
///
/// # Errors
///
/// Returns [`VerificationFailure::ForgedRecord`]-class errors on malformed
/// envelopes.
pub fn open_record(
    record: &Record,
    level: u32,
) -> Result<(Vec<u8>, Bytes, Option<RecordProof>), VerificationFailure> {
    let (value, proof) = unwrap(&record.value).ok_or_else(|| malformed(level))?;
    Ok((canonical_bytes(record, &value), value, proof))
}

/// [`split`] of a stored record's value, mapping malformed envelopes to
/// the verification failure [`open_record`] reports at `level`.
///
/// # Errors
///
/// Exactly when [`open_record`] errs, with the same error.
pub fn open_value(
    record: &Record,
    level: u32,
) -> Result<(&[u8], Option<&[u8]>), VerificationFailure> {
    split(&record.value).ok_or_else(|| malformed(level))
}

/// [`open_record`] by borrowing: `(bare record bytes, app value)` with the
/// value borrowed from the record and the embedded proof only checked
/// for structure — what the compaction path needs.
///
/// # Errors
///
/// Exactly when [`open_record`] errs, with the same error.
pub fn open_record_borrowed(
    record: &Record,
    level: u32,
) -> Result<(Vec<u8>, &[u8]), VerificationFailure> {
    let (value, _) = open_value(record, level)?;
    Ok((canonical_bytes(record, value), value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use merkle::ChainPosition;

    fn proof() -> RecordProof {
        RecordProof {
            level: 2,
            leaf_index: 5,
            leaf_count: 9,
            chain: ChainPosition::Newest { older_digest: elsm_crypto::Digest::ZERO },
            audit_path: vec![elsm_crypto::sha256(b"sib")],
        }
    }

    #[test]
    fn plain_round_trip() {
        let w = wrap_plain(b"value bytes");
        let (v, p) = unwrap(&w).unwrap();
        assert_eq!(&v[..], b"value bytes");
        assert!(p.is_none());
    }

    #[test]
    fn proof_round_trip() {
        let w = wrap_with_proof(b"value", &proof());
        let (v, p) = unwrap(&w).unwrap();
        assert_eq!(&v[..], b"value");
        assert_eq!(p.unwrap(), proof());
    }

    #[test]
    fn empty_value_round_trips() {
        let w = wrap_plain(b"");
        let (v, p) = unwrap(&w).unwrap();
        assert!(v.is_empty() && p.is_none());
    }

    #[test]
    fn empty_stored_value_is_plain_empty() {
        let (v, p) = unwrap(b"").unwrap();
        assert!(v.is_empty() && p.is_none());
    }

    #[test]
    fn garbage_rejected() {
        assert!(unwrap(&[0x02, 1, b'x']).is_none());
        assert!(unwrap(&[0x00, 5, b'x']).is_none(), "declared length too long");
        let mut w = wrap_plain(b"v").to_vec();
        w.push(0xff);
        assert!(unwrap(&w).is_none(), "trailing bytes rejected");
    }

    #[test]
    fn canonical_bytes_ignore_envelope() {
        let bare = Record::put(b"k".as_slice(), b"v".as_slice(), 3);
        let enveloped = Record::put(b"k".as_slice(), wrap_plain(b"v"), 3);
        let enveloped2 = Record::put(b"k".as_slice(), wrap_with_proof(b"v", &proof()), 3);
        assert_eq!(canonical_bytes(&enveloped, b"v"), bare.digest_bytes());
        assert_eq!(canonical_bytes(&enveloped2, b"v"), bare.digest_bytes());
    }

    #[test]
    fn proof_envelope_is_exactly_sized() {
        for len in [0usize, 1, 127, 128, 20_000] {
            let value = vec![7u8; len];
            let w = wrap_with_proof(&value, &proof());
            let mut out = proof_envelope(&value, proof().encoded_len());
            proof().encode_into(&mut out);
            assert_eq!(out.len(), out.capacity(), "value length {len}");
            assert_eq!(&out[..], &w[..]);
        }
    }

    /// The borrowed parser accepts exactly what the decoding one accepts,
    /// under every truncation and byte corruption of both envelope kinds.
    #[test]
    fn split_agrees_with_unwrap() {
        let check = |stored: &[u8]| {
            let borrowed = split(stored).map(|(v, p)| (v.to_vec(), p.map(<[u8]>::to_vec)));
            let decoded = unwrap(stored).map(|(v, p)| (v.to_vec(), p.map(|p| p.encode())));
            assert_eq!(borrowed, decoded, "{stored:?}");
        };
        for stored in [wrap_plain(b"value"), wrap_with_proof(b"value", &proof())] {
            for cut in 0..=stored.len() {
                check(&stored[..cut]);
            }
            for pos in 0..stored.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut mutated = stored.to_vec();
                    mutated[pos] ^= flip;
                    check(&mutated);
                }
            }
        }
        check(&[0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    }

    #[test]
    fn borrowed_open_matches_open() {
        let r = Record::put(b"k".as_slice(), wrap_with_proof(b"v", &proof()), 3);
        let (canonical, value, _) = open_record(&r, 1).unwrap();
        let (canonical_b, value_b) = open_record_borrowed(&r, 1).unwrap();
        assert_eq!(canonical, canonical_b);
        assert_eq!(canonical_b.len(), canonical_b.capacity());
        assert_eq!(&value[..], value_b);
        let bad = Record::put(b"k".as_slice(), b"\x07garbage".as_slice(), 3);
        assert_eq!(open_record_borrowed(&bad, 1).unwrap_err(), open_record(&bad, 1).unwrap_err());
    }

    #[test]
    fn open_record_rejects_malformed() {
        let bad = Record::put(b"k".as_slice(), b"\x07garbage".as_slice(), 3);
        assert!(open_record(&bad, 1).is_err());
    }
}
