//! Record proofs and level commitments.
//!
//! A [`LevelCommitment`] is what the enclave keeps per LSM level: the
//! Merkle root, the leaf count (needed for boundary non-membership) and
//! the level number. A [`RecordProof`] is what travels *embedded inside a
//! record's value* (§5.2: "each record ⟨k, v‖πᵢ⟩ is augmented with its
//! proof"): the record's position in its version chain plus the audit path
//! from its chain head to the level root.

use elsm_crypto::{sha256_concat, Digest};

use crate::chain::ChainPosition;
use crate::tree::MerkleTree;

/// What the enclave stores per level: `(level, root, leaf_count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCommitment {
    /// LSM level number (1-based).
    pub level: u32,
    /// Merkle root over the level's chain heads.
    pub root: Digest,
    /// Number of leaves (distinct user keys) at the level.
    pub leaf_count: u64,
}

impl LevelCommitment {
    /// Commitment for an empty level.
    pub fn empty(level: u32) -> Self {
        LevelCommitment { level, root: Digest::ZERO, leaf_count: 0 }
    }

    /// Whether the level holds no records.
    pub fn is_empty(&self) -> bool {
        self.leaf_count == 0
    }

    /// A single digest binding all fields, used for the monotonic-counter
    /// rollback defence (§5.6.1 hashes "the current dataset across all
    /// levels").
    pub fn digest(&self) -> Digest {
        sha256_concat(&[
            &[0x04],
            &self.level.to_be_bytes(),
            self.root.as_bytes(),
            &self.leaf_count.to_be_bytes(),
        ])
    }
}

/// Reasons a proof fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// Proof's claimed level number differs from the commitment's.
    LevelMismatch,
    /// Proof's claimed leaf count differs from the commitment's.
    LeafCountMismatch,
    /// The audit path does not reach the committed root.
    BadAuditPath,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::LevelMismatch => f.write_str("proof level does not match commitment"),
            VerifyError::LeafCountMismatch => {
                f.write_str("proof leaf count does not match commitment")
            }
            VerifyError::BadAuditPath => f.write_str("audit path does not reach committed root"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The proof embedded in a record: chain position + Merkle audit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordProof {
    /// Level the record resides at.
    pub level: u32,
    /// Leaf index of the record's key within the level.
    pub leaf_index: u64,
    /// Leaf count of the level at proof-generation time.
    pub leaf_count: u64,
    /// Position within the key's version chain.
    pub chain: ChainPosition,
    /// Sibling hashes from the chain head to the level root.
    pub audit_path: Vec<Digest>,
}

impl RecordProof {
    /// Verifies the proof for a record's canonical bytes against the
    /// enclave's commitment for the level.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] naming the first check that failed.
    pub fn verify(
        &self,
        commitment: &LevelCommitment,
        record_bytes: &[u8],
    ) -> Result<(), VerifyError> {
        if self.level != commitment.level {
            return Err(VerifyError::LevelMismatch);
        }
        if self.leaf_count != commitment.leaf_count {
            return Err(VerifyError::LeafCountMismatch);
        }
        let chain_head = self.chain.chain_head(record_bytes);
        let ok = MerkleTree::verify(
            commitment.root,
            commitment.leaf_count as usize,
            self.leaf_index as usize,
            chain_head,
            &self.audit_path,
        );
        if ok {
            Ok(())
        } else {
            Err(VerifyError::BadAuditPath)
        }
    }

    /// Serializes the proof (for embedding in stored values).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized proof to `out`, returning the number of
    /// bytes appended (always [`RecordProof::encoded_len`], which sizes
    /// `out` exactly when reserved first).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        encode_proof(
            out,
            ProofHeader {
                level: self.level,
                leaf_index: self.leaf_index,
                leaf_count: self.leaf_count,
            },
            self.chain.newer_records(),
            self.chain.older_digest(),
            self.audit_path.iter(),
        )
    }

    /// Parses a proof serialized by [`RecordProof::encode`].
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let mut pos = 0usize;
        let level = read_u32(buf, &mut pos)?;
        let leaf_index = read_u64(buf, &mut pos)?;
        let leaf_count = read_u64(buf, &mut pos)?;
        let tag = *buf.get(pos)?;
        pos += 1;
        let chain = match tag {
            0 => ChainPosition::Newest { older_digest: read_digest(buf, &mut pos)? },
            1 => {
                let n = read_u32(buf, &mut pos)? as usize;
                if n > buf.len() {
                    return None;
                }
                let mut newer = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = read_u32(buf, &mut pos)? as usize;
                    newer.push(read_bytes(buf, &mut pos, len)?.to_vec());
                }
                ChainPosition::Older {
                    newer_records: newer,
                    older_digest: read_digest(buf, &mut pos)?,
                }
            }
            _ => return None,
        };
        let n = read_u32(buf, &mut pos)? as usize;
        if n > buf.len() {
            return None;
        }
        let mut audit_path = Vec::with_capacity(n);
        for _ in 0..n {
            audit_path.push(read_digest(buf, &mut pos)?);
        }
        Some((RecordProof { level, leaf_index, leaf_count, chain, audit_path }, pos))
    }

    /// Checks that `buf` starts with a well-formed encoded proof without
    /// decoding it: returns `Some(n)` exactly when [`RecordProof::decode`]
    /// returns `Some((_, n))`. Allocates nothing.
    pub fn check_encoded(buf: &[u8]) -> Option<usize> {
        let mut pos = 0usize;
        read_bytes(buf, &mut pos, HEADER_LEN - 1)?;
        let tag = *buf.get(pos)?;
        pos += 1;
        match tag {
            0 => {}
            1 => {
                let n = read_u32(buf, &mut pos)? as usize;
                if n > buf.len() {
                    return None;
                }
                for _ in 0..n {
                    let len = read_u32(buf, &mut pos)? as usize;
                    read_bytes(buf, &mut pos, len)?;
                }
            }
            _ => return None,
        }
        read_bytes(buf, &mut pos, 32)?;
        let n = read_u32(buf, &mut pos)? as usize;
        if n > buf.len() {
            return None;
        }
        read_bytes(buf, &mut pos, n.checked_mul(32)?)?;
        Some(pos)
    }

    /// Serialized size in bytes, computed without serializing.
    pub fn encoded_len(&self) -> usize {
        encoded_proof_len(self.chain.newer_records(), self.audit_path.len())
    }
}

/// The fixed leading fields of an encoded proof.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProofHeader {
    pub(crate) level: u32,
    pub(crate) leaf_index: u64,
    pub(crate) leaf_count: u64,
}

/// Level, leaf index, leaf count and the chain-position tag.
const HEADER_LEN: usize = 4 + 8 + 8 + 1;

/// Size of an encoded proof with the given exposed newer records
/// (`None`: newest position) and `path_len` audit-path digests.
pub(crate) fn encoded_proof_len<B: AsRef<[u8]>>(newer: Option<&[B]>, path_len: usize) -> usize {
    let newer_len =
        newer.map_or(0, |records| 4 + records.iter().map(|r| 4 + r.as_ref().len()).sum::<usize>());
    HEADER_LEN + newer_len + 32 + 4 + 32 * path_len
}

/// The one proof encoder: appends the proof made of these parts to `out`
/// and returns the number of bytes appended ([`encoded_proof_len`] of
/// the same parts; callers size `out` with it). `newer` is `None` for the
/// newest position and the exposed newer records (newest first)
/// otherwise.
pub(crate) fn encode_proof<'a, B: AsRef<[u8]>>(
    out: &mut Vec<u8>,
    header: ProofHeader,
    newer: Option<&[B]>,
    older_digest: &Digest,
    audit_path: impl Iterator<Item = &'a Digest> + Clone,
) -> usize {
    let path_len = audit_path.clone().count();
    let start = out.len();
    push_u32(out, header.level);
    push_u64(out, header.leaf_index);
    push_u64(out, header.leaf_count);
    match newer {
        None => out.push(0),
        Some(records) => {
            out.push(1);
            push_u32(out, records.len() as u32);
            for r in records {
                push_u32(out, r.as_ref().len() as u32);
                out.extend_from_slice(r.as_ref());
            }
        }
    }
    out.extend_from_slice(older_digest.as_bytes());
    push_u32(out, path_len as u32);
    for d in audit_path {
        out.extend_from_slice(d.as_bytes());
    }
    out.len() - start
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let b = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(b)
}
fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b = read_bytes(buf, pos, 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}
fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b = read_bytes(buf, pos, 8)?;
    Some(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}
fn read_digest(buf: &[u8], pos: &mut usize) -> Option<Digest> {
    let b = read_bytes(buf, pos, 32)?;
    let mut d = [0u8; 32];
    d.copy_from_slice(b);
    Some(Digest::from_bytes(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::chain_digest;

    fn setup() -> (LevelCommitment, RecordProof, Vec<u8>) {
        // Level with 4 keys; key index 2 has a 2-version chain.
        let recs2 = vec![b"k2-new".to_vec(), b"k2-old".to_vec()];
        let leaves = vec![
            chain_digest(&[b"k0".to_vec()]),
            chain_digest(&[b"k1".to_vec()]),
            chain_digest(&recs2),
            chain_digest(&[b"k3".to_vec()]),
        ];
        let tree = MerkleTree::from_leaves(leaves);
        let commitment = LevelCommitment { level: 2, root: tree.root(), leaf_count: 4 };
        let proof = RecordProof {
            level: 2,
            leaf_index: 2,
            leaf_count: 4,
            chain: ChainPosition::Newest { older_digest: chain_digest(&recs2[1..]) },
            audit_path: tree.audit_path(2),
        };
        (commitment, proof, recs2[0].clone())
    }

    #[test]
    fn valid_proof_verifies() {
        let (c, p, bytes) = setup();
        assert_eq!(p.verify(&c, &bytes), Ok(()));
    }

    #[test]
    fn forged_record_rejected() {
        let (c, p, _) = setup();
        assert_eq!(p.verify(&c, b"forged bytes"), Err(VerifyError::BadAuditPath));
    }

    #[test]
    fn wrong_level_rejected() {
        let (c, mut p, bytes) = setup();
        p.level = 3;
        assert_eq!(p.verify(&c, &bytes), Err(VerifyError::LevelMismatch));
    }

    #[test]
    fn wrong_leaf_count_rejected() {
        let (c, mut p, bytes) = setup();
        p.leaf_count = 5;
        assert_eq!(p.verify(&c, &bytes), Err(VerifyError::LeafCountMismatch));
    }

    #[test]
    fn stale_version_claiming_newest_rejected() {
        let (c, p, _) = setup();
        // The old version with a "Newest" chain position cannot verify.
        let lying =
            RecordProof { chain: ChainPosition::Newest { older_digest: Digest::ZERO }, ..p };
        assert_eq!(lying.verify(&c, b"k2-old"), Err(VerifyError::BadAuditPath));
    }

    #[test]
    fn stale_version_with_honest_position_exposes_newer() {
        let (c, p, _) = setup();
        let honest_old = RecordProof {
            chain: ChainPosition::Older {
                newer_records: vec![b"k2-new".to_vec()],
                older_digest: Digest::ZERO,
            },
            ..p
        };
        // It verifies — but the verifier can now see the newer record's
        // bytes and detect staleness (the enclave-side check in elsm).
        assert_eq!(honest_old.verify(&c, b"k2-old"), Ok(()));
        assert_eq!(honest_old.chain.exposed_newer().len(), 1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, p, _) = setup();
        let bytes = p.encode();
        let (decoded, used) = RecordProof::decode(&bytes).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(used, bytes.len());

        // Older variant too.
        let older = RecordProof {
            chain: ChainPosition::Older {
                newer_records: vec![b"a".to_vec(), b"bb".to_vec()],
                older_digest: Digest::ZERO,
            },
            ..p
        };
        let bytes = older.encode();
        let (decoded, _) = RecordProof::decode(&bytes).unwrap();
        assert_eq!(decoded, older);
    }

    #[test]
    fn decode_rejects_truncation() {
        let (_, p, _) = setup();
        let bytes = p.encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(RecordProof::decode(&bytes[..cut]).is_none(), "cut={cut}");
        }
    }

    fn proof_at(version: usize, chain_len: usize, path_len: usize) -> RecordProof {
        let chain: Vec<Vec<u8>> = (0..chain_len).map(|i| vec![i as u8; 3 + 5 * i]).collect();
        RecordProof {
            level: 3,
            leaf_index: 17,
            leaf_count: 40,
            chain: if version == 0 {
                ChainPosition::Newest { older_digest: chain_digest(&chain[1..]) }
            } else {
                ChainPosition::Older {
                    newer_records: chain[..version].to_vec(),
                    older_digest: chain_digest(&chain[version + 1..]),
                }
            },
            audit_path: (0..path_len).map(|i| chain_digest(&[vec![i as u8]])).collect(),
        }
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for chain_len in 1..=8 {
            for version in 0..chain_len {
                for path_len in 0..=20 {
                    let p = proof_at(version, chain_len, path_len);
                    assert_eq!(
                        p.encoded_len(),
                        p.encode().len(),
                        "{version}/{chain_len}/{path_len}"
                    );
                }
            }
        }
        // An `Older` position exposing no records encodes apart from `Newest`.
        let empty_older = RecordProof {
            chain: ChainPosition::Older { newer_records: Vec::new(), older_digest: Digest::ZERO },
            ..proof_at(0, 1, 2)
        };
        assert_eq!(empty_older.encoded_len(), empty_older.encode().len());
    }

    /// Every truncation and every single-byte corruption of encoded
    /// `Newest` and `Older` proofs: the allocation-free check accepts
    /// exactly the prefixes `decode` accepts, with the same length.
    #[test]
    fn check_encoded_agrees_with_decode_under_mutation() {
        let expect_same = |buf: &[u8]| {
            let decoded = RecordProof::decode(buf).map(|(_, n)| n);
            assert_eq!(RecordProof::check_encoded(buf), decoded, "{buf:?}");
        };
        for (version, chain_len, path_len) in [(0, 1, 0), (0, 3, 5), (1, 2, 1), (3, 4, 7)] {
            let bytes = proof_at(version, chain_len, path_len).encode();
            assert_eq!(RecordProof::check_encoded(&bytes), Some(bytes.len()));
            for cut in 0..=bytes.len() {
                expect_same(&bytes[..cut]);
            }
            let mut padded = bytes.clone();
            padded.extend_from_slice(&[0u8; 40]);
            expect_same(&padded);
            for pos in 0..bytes.len() {
                for flip in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                    let mut mutated = bytes.clone();
                    mutated[pos] ^= flip;
                    expect_same(&mutated);
                    expect_same(&mutated[..pos + 1]);
                }
            }
        }
    }

    #[test]
    fn commitment_digest_binds_all_fields() {
        let c = LevelCommitment { level: 1, root: chain_digest(&[b"x".to_vec()]), leaf_count: 9 };
        let mut c2 = c;
        c2.leaf_count = 10;
        assert_ne!(c.digest(), c2.digest());
        let mut c3 = c;
        c3.level = 2;
        assert_ne!(c.digest(), c3.digest());
    }
}
