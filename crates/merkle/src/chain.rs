//! Temporal hash chains over record versions (§5.2, design 2).
//!
//! Within one LSM level, all records sharing a data key are chained in
//! temporal order: the chain *digest* covers the newest record outermost,
//! so any proof about an older version necessarily exposes the full bytes
//! of every newer version — which is exactly how the verifier detects a
//! stale-record attack (the paper's ⟨Z,6⟩ vs ⟨Z,7⟩ example).
//!
//! `chain_digest([r_newest, …, r_oldest]) =
//!     H(0x02 ‖ r_newest ‖ H(0x02 ‖ r_next ‖ … H(0x02 ‖ r_oldest ‖ ⊥)))`

use elsm_crypto::{sha256_concat, Digest};

/// Domain-separation prefix for chain links.
const CHAIN_PREFIX: u8 = 0x02;

/// One fold step: extends the chain with a newer record's bytes.
pub fn chain_link(record_bytes: &[u8], older_digest: &Digest) -> Digest {
    sha256_concat(&[&[CHAIN_PREFIX], record_bytes, older_digest.as_bytes()])
}

/// Digest of a full version chain, `records` given newest-first (the order
/// LSM levels store them).
pub fn chain_digest<B: AsRef<[u8]>>(records_newest_first: &[B]) -> Digest {
    let mut acc = Digest::ZERO;
    for r in records_newest_first.iter().rev() {
        acc = chain_link(r.as_ref(), &acc);
    }
    acc
}

/// Where a record sits in its key's version chain, with the material needed
/// to recompute the chain digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainPosition {
    /// The record is the newest version at this level: only the digest of
    /// the (possibly empty) older suffix is needed.
    Newest {
        /// Digest of the chain of strictly older versions.
        older_digest: Digest,
    },
    /// The record is not the newest: every newer record's bytes must be
    /// exposed (newest first), which is what makes staleness detectable.
    Older {
        /// Full bytes of all newer versions, newest first.
        newer_records: Vec<Vec<u8>>,
        /// Digest of the chain of strictly older versions.
        older_digest: Digest,
    },
}

impl ChainPosition {
    /// Recomputes the chain-head digest for `record_bytes` at this
    /// position.
    pub fn chain_head(&self, record_bytes: &[u8]) -> Digest {
        match self {
            ChainPosition::Newest { older_digest } => chain_link(record_bytes, older_digest),
            ChainPosition::Older { newer_records, older_digest } => {
                let mut acc = chain_link(record_bytes, older_digest);
                for newer in newer_records.iter().rev() {
                    acc = chain_link(newer, &acc);
                }
                acc
            }
        }
    }

    /// The newer-record bytes this position exposes (empty for the newest).
    pub fn exposed_newer(&self) -> &[Vec<u8>] {
        self.newer_records().unwrap_or(&[])
    }

    /// The exposed newer records, or `None` for the newest position (the
    /// encoding tells an empty `Older` list apart from `Newest`).
    pub fn newer_records(&self) -> Option<&[Vec<u8>]> {
        match self {
            ChainPosition::Newest { .. } => None,
            ChainPosition::Older { newer_records, .. } => Some(newer_records),
        }
    }

    /// Digest of the chain of strictly older versions.
    pub fn older_digest(&self) -> &Digest {
        match self {
            ChainPosition::Newest { older_digest } | ChainPosition::Older { older_digest, .. } => {
                older_digest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: usize) -> Vec<Vec<u8>> {
        // newest first: ts descending
        (0..n).map(|i| format!("rec-ts{}", n - i).into_bytes()).collect()
    }

    #[test]
    fn empty_chain_is_zero() {
        assert_eq!(chain_digest::<Vec<u8>>(&[]), Digest::ZERO);
    }

    #[test]
    fn single_record_chain() {
        let r = recs(1);
        assert_eq!(chain_digest(&r), chain_link(&r[0], &Digest::ZERO));
    }

    #[test]
    fn newest_position_recomputes_head() {
        let r = recs(3);
        let full = chain_digest(&r);
        let older = chain_digest(&r[1..]);
        let pos = ChainPosition::Newest { older_digest: older };
        assert_eq!(pos.chain_head(&r[0]), full);
    }

    #[test]
    fn older_position_recomputes_head() {
        let r = recs(4);
        let full = chain_digest(&r);
        // Proving position 2 (third newest).
        let pos = ChainPosition::Older {
            newer_records: vec![r[0].clone(), r[1].clone()],
            older_digest: chain_digest(&r[3..]),
        };
        assert_eq!(pos.chain_head(&r[2]), full);
        assert_eq!(pos.exposed_newer().len(), 2);
    }

    #[test]
    fn tampered_record_changes_head() {
        let r = recs(2);
        let older = chain_digest(&r[1..]);
        let pos = ChainPosition::Newest { older_digest: older };
        assert_ne!(pos.chain_head(&r[0]), pos.chain_head(b"forged"));
    }

    #[test]
    fn order_matters() {
        let a = vec![b"x".to_vec(), b"y".to_vec()];
        let b = vec![b"y".to_vec(), b"x".to_vec()];
        assert_ne!(chain_digest(&a), chain_digest(&b));
    }

    #[test]
    fn stale_claim_exposes_newer_bytes() {
        // A prover claiming r[1] is the answer must supply r[0]'s bytes in
        // the position — there is no valid ChainPosition for r[1] that
        // hides r[0].
        let r = recs(2);
        let full = chain_digest(&r);
        let honest =
            ChainPosition::Older { newer_records: vec![r[0].clone()], older_digest: Digest::ZERO };
        assert_eq!(honest.chain_head(&r[1]), full);
        // Claiming "newest" for the stale record yields a different head.
        let lying = ChainPosition::Newest { older_digest: Digest::ZERO };
        assert_ne!(lying.chain_head(&r[1]), full);
        let lying2 = ChainPosition::Newest { older_digest: chain_digest(&r[..1]) };
        assert_ne!(lying2.chain_head(&r[1]), full);
    }
}
