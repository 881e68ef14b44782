//! Per-level digests: the eLSM digest structure (§5.2).
//!
//! One LSM level digests as a Merkle tree whose leaves are, in key order,
//! the *chain heads* of each distinct user key (records of the same key
//! form a temporal hash chain, newest outermost). The
//! [`LevelDigestBuilder`] consumes the level's records in exactly the
//! order a compaction emits them — key ascending, timestamp descending —
//! which is the paper's streaming `MHT_add` construction (Figure 4).

use std::ops::Range;

use elsm_crypto::Digest;

use crate::chain::{chain_link, ChainPosition};
use crate::proof::{encode_proof, encoded_proof_len, LevelCommitment, ProofHeader, RecordProof};
use crate::range::{prove_range, RangeProof};
use crate::tree::MerkleTree;

/// Streaming builder for a level digest (the paper's `MHT_add`).
///
/// Records live in one flat list: chains in key order, newest first
/// within a chain. When a chain is complete, one oldest→newest fold over
/// it records every version's *older digest* (the digest of the strictly
/// older part of its chain) and the chain head, so proving any version
/// later hashes nothing.
#[derive(Debug, Default)]
pub struct LevelDigestBuilder {
    level: u32,
    /// Leaf keys; the last chain is not folded yet while `heads` is
    /// shorter.
    keys: Vec<Vec<u8>>,
    /// Index into `records` of each leaf's newest record.
    starts: Vec<usize>,
    /// Canonical bytes of every record.
    records: Vec<Vec<u8>>,
    /// `older[j]`: digest of the records after `records[j]` in its chain
    /// (filled when the chain is folded).
    older: Vec<Digest>,
    /// Chain head (Merkle leaf) of every folded chain.
    heads: Vec<Digest>,
    /// Where the last [`LevelDigestBuilder::add_chain_from`] lookup in
    /// this builder ended: lookups arrive in key order, so each one
    /// resumes here instead of searching every key.
    cursor: usize,
}

impl LevelDigestBuilder {
    /// Starts building the digest of `level`.
    pub fn new(level: u32) -> Self {
        LevelDigestBuilder { level, ..Default::default() }
    }

    /// Adds the next record of the sorted stream.
    ///
    /// # Panics
    ///
    /// Panics if keys arrive out of ascending order (a correctness bug in
    /// the feeding compaction, never data-dependent).
    pub fn add(&mut self, user_key: &[u8], record_bytes: Vec<u8>) {
        if self.keys.last().map(Vec::as_slice) == Some(user_key) {
            // The chain grows: its fold (if one ran early) is void.
            self.heads.truncate(self.keys.len() - 1);
        } else {
            self.seal();
            self.start_chain(user_key);
        }
        self.records.push(record_bytes);
    }

    /// Adds the whole version chain of `user_key` (canonical bytes, newest
    /// first) and folds it. An empty chain adds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `user_key` does not sort after every key added so far.
    pub fn add_chain(&mut self, user_key: &[u8], chain: Vec<Vec<u8>>) {
        if chain.is_empty() {
            return;
        }
        self.seal();
        self.start_chain(user_key);
        self.records.extend(chain);
        self.seal();
    }

    /// Like [`LevelDigestBuilder::add_chain`], but when one of `sources`
    /// holds a chain of `user_key` with exactly these bytes, copies its
    /// older digests and chain head instead of hashing (folding that
    /// chain first if it is the source's last, so the hashing happens
    /// once, on the source side). Returns whether the digests were
    /// reused. The digests are the same either way: they are a function
    /// of the bytes alone.
    ///
    /// # Panics
    ///
    /// Panics if `user_key` does not sort after every key added so far.
    pub fn add_chain_from<'a>(
        &mut self,
        user_key: &[u8],
        chain: Vec<Vec<u8>>,
        sources: impl IntoIterator<Item = &'a mut LevelDigestBuilder>,
    ) -> bool {
        if chain.is_empty() {
            return false;
        }
        let Some((older, head)) =
            sources.into_iter().find_map(|source| source.folded_chain(user_key, &chain))
        else {
            self.add_chain(user_key, chain);
            return false;
        };
        self.seal();
        self.start_chain(user_key);
        self.records.extend(chain);
        self.older.extend_from_slice(older);
        self.heads.push(head);
        true
    }

    /// Older digests and head of the chain of `user_key`, if its records
    /// equal `chain`. Folds the last chain if it matches: a later `add`
    /// of the same key reopens it.
    fn folded_chain(&mut self, user_key: &[u8], chain: &[Vec<u8>]) -> Option<(&[Digest], Digest)> {
        let leaf = self.seek(user_key)?;
        let range = chain_range(&self.starts, self.records.len(), leaf);
        if self.records[range.clone()] != *chain {
            return None;
        }
        if leaf == self.heads.len() {
            self.seal();
        }
        Some((&self.older[range], self.heads[leaf]))
    }

    /// Leaf index of `user_key`. Walks forward from the cursor while the
    /// lookups ascend (linear in the keys over a whole output stream);
    /// binary-searches when one does not.
    fn seek(&mut self, user_key: &[u8]) -> Option<usize> {
        let below = |k: &Vec<u8>| k.as_slice() < user_key;
        let mut i = self.cursor.min(self.keys.len());
        if i > 0 && !below(&self.keys[i - 1]) {
            i = self.keys.partition_point(below);
        }
        while self.keys.get(i).is_some_and(below) {
            i += 1;
        }
        self.cursor = i;
        (self.keys.get(i)?.as_slice() == user_key).then_some(i)
    }

    fn start_chain(&mut self, user_key: &[u8]) {
        if let Some(last) = self.keys.last() {
            assert!(last.as_slice() < user_key, "level records must arrive in ascending key order");
        }
        self.keys.push(user_key.to_vec());
        self.starts.push(self.records.len());
    }

    /// Folds the last chain (unless folded already) oldest→newest,
    /// recording each version's older digest and the chain head.
    fn seal(&mut self) {
        if self.heads.len() == self.keys.len() {
            return;
        }
        let start = self.starts[self.heads.len()];
        self.older.resize(self.records.len(), Digest::ZERO);
        let mut acc = Digest::ZERO;
        for j in (start..self.records.len()).rev() {
            self.older[j] = acc;
            acc = chain_link(&self.records[j], &acc);
        }
        self.heads.push(acc);
    }

    /// Number of records added so far.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The commitment of the finished level, without keeping the prover
    /// material [`LevelDigestBuilder::finish`] would.
    pub fn commitment(mut self) -> LevelCommitment {
        self.seal();
        let leaf_count = self.heads.len() as u64;
        LevelCommitment {
            level: self.level,
            root: MerkleTree::from_leaves(self.heads).root(),
            leaf_count,
        }
    }

    /// Finishes the digest.
    pub fn finish(mut self) -> LevelDigest {
        self.seal();
        // The digest outlives the build (the host keeps it per level):
        // drop the growth slack.
        self.keys.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.records.shrink_to_fit();
        self.older.shrink_to_fit();
        LevelDigest {
            level: self.level,
            tree: MerkleTree::from_leaves(self.heads),
            keys: self.keys,
            starts: self.starts,
            records: self.records,
            older: self.older,
        }
    }
}

/// Index range of leaf `leaf`'s records in a flat record list.
fn chain_range(starts: &[usize], record_count: usize, leaf: usize) -> Range<usize> {
    starts[leaf]..starts.get(leaf + 1).copied().unwrap_or(record_count)
}

/// Result of locating a key among a level's leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafLookup {
    /// The key is leaf `index`.
    Found {
        /// Leaf index of the key.
        index: usize,
    },
    /// The key is absent; it would insert before leaf `successor`.
    Absent {
        /// Index of the first leaf with a larger key (== leaf count when
        /// the key is beyond the last leaf).
        successor: usize,
    },
}

/// The digest of one LSM level plus the prover-side material (leaf keys,
/// chain bytes and every version's older digest) the *untrusted* host
/// keeps to answer queries.
#[derive(Debug, Clone)]
pub struct LevelDigest {
    level: u32,
    tree: MerkleTree,
    keys: Vec<Vec<u8>>,
    starts: Vec<usize>,
    records: Vec<Vec<u8>>,
    older: Vec<Digest>,
}

impl LevelDigest {
    /// Builds a digest in one shot from `(key, record_bytes)` pairs in
    /// compaction order.
    pub fn from_records<'a>(
        level: u32,
        records: impl IntoIterator<Item = (&'a [u8], Vec<u8>)>,
    ) -> Self {
        let mut b = LevelDigestBuilder::new(level);
        for (k, r) in records {
            b.add(k, r);
        }
        b.finish()
    }

    /// The commitment the enclave stores for this level.
    pub fn commitment(&self) -> LevelCommitment {
        LevelCommitment {
            level: self.level,
            root: self.tree.root(),
            leaf_count: self.tree.leaf_count() as u64,
        }
    }

    /// Level number.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of distinct keys (leaves).
    pub fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    /// Leaf keys in order.
    pub fn keys(&self) -> &[Vec<u8>] {
        &self.keys
    }

    /// Locates `key` among the leaves.
    pub fn lookup(&self, key: &[u8]) -> LeafLookup {
        match self.keys.binary_search_by(|k| k.as_slice().cmp(key)) {
            Ok(index) => LeafLookup::Found { index },
            Err(successor) => LeafLookup::Absent { successor },
        }
    }

    /// The exposed newer records (`None` for the newest version) and the
    /// older digest of version `version_idx` of leaf `leaf_idx`.
    fn version_parts(&self, leaf_idx: usize, version_idx: usize) -> (Option<&[Vec<u8>]>, &Digest) {
        let range = chain_range(&self.starts, self.records.len(), leaf_idx);
        assert!(version_idx < range.len(), "version index out of range");
        let newer =
            (version_idx > 0).then(|| &self.records[range.start..range.start + version_idx]);
        (newer, &self.older[range.start + version_idx])
    }

    fn proof_header(&self, leaf_idx: usize) -> ProofHeader {
        ProofHeader {
            level: self.level,
            leaf_index: leaf_idx as u64,
            leaf_count: self.tree.leaf_count() as u64,
        }
    }

    /// Proof for the version at `version_idx` (0 = newest) of leaf
    /// `leaf_idx`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn prove_version(&self, leaf_idx: usize, version_idx: usize) -> RecordProof {
        let (newer, &older_digest) = self.version_parts(leaf_idx, version_idx);
        let ProofHeader { level, leaf_index, leaf_count } = self.proof_header(leaf_idx);
        let chain = match newer {
            None => ChainPosition::Newest { older_digest },
            Some(newer) => ChainPosition::Older { newer_records: newer.to_vec(), older_digest },
        };
        RecordProof {
            level,
            leaf_index,
            leaf_count,
            chain,
            audit_path: self.tree.audit_path(leaf_idx),
        }
    }

    /// Appends the encoding of [`LevelDigest::prove_version`]`(leaf_idx,
    /// version_idx)` to `out` straight from the level's tables, without
    /// building the proof; returns the number of bytes appended.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn encode_version_proof(
        &self,
        leaf_idx: usize,
        version_idx: usize,
        out: &mut Vec<u8>,
    ) -> usize {
        let (newer, older_digest) = self.version_parts(leaf_idx, version_idx);
        let path = self.tree.audit_siblings(leaf_idx);
        encode_proof(out, self.proof_header(leaf_idx), newer, older_digest, path)
    }

    /// Encoded size of [`LevelDigest::prove_version`]`(leaf_idx,
    /// version_idx)`, computed without encoding.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn version_proof_len(&self, leaf_idx: usize, version_idx: usize) -> usize {
        let (newer, _) = self.version_parts(leaf_idx, version_idx);
        encoded_proof_len(newer, self.tree.audit_siblings(leaf_idx).count())
    }

    /// Proof for the newest version of leaf `leaf_idx` — the common case
    /// embedded in records.
    pub fn prove_newest(&self, leaf_idx: usize) -> RecordProof {
        self.prove_version(leaf_idx, 0)
    }

    /// Range proof covering leaves `lo..=hi` (§5.4 segment-tree view).
    pub fn prove_leaf_range(&self, lo: usize, hi: usize) -> RangeProof {
        prove_range(&self.tree, lo, hi)
    }

    /// The leaf digests (chain heads), for range verification.
    pub fn leaf_digests(&self) -> &[Digest] {
        self.tree.leaves()
    }

    /// All versions' bytes of leaf `leaf_idx`, newest first.
    pub fn chain_records(&self, leaf_idx: usize) -> &[Vec<u8>] {
        &self.records[chain_range(&self.starts, self.records.len(), leaf_idx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::chain_digest;
    use crate::range::verify_range;

    /// The paper's Figure 3 example: level L2 = [⟨T,4⟩, ⟨Z,7⟩, ⟨Z,6⟩],
    /// level L3 = [⟨A,2⟩, ⟨T,0⟩, ⟨Y,3⟩, ⟨Z,1⟩].
    fn level2() -> LevelDigest {
        LevelDigest::from_records(
            2,
            vec![
                (b"T".as_slice(), b"T,4".to_vec()),
                (b"Z".as_slice(), b"Z,7".to_vec()),
                (b"Z".as_slice(), b"Z,6".to_vec()),
            ],
        )
    }

    fn level3() -> LevelDigest {
        LevelDigest::from_records(
            3,
            vec![
                (b"A".as_slice(), b"A,2".to_vec()),
                (b"T".as_slice(), b"T,0".to_vec()),
                (b"Y".as_slice(), b"Y,3".to_vec()),
                (b"Z".as_slice(), b"Z,1".to_vec()),
            ],
        )
    }

    #[test]
    fn leaf_count_is_distinct_keys() {
        assert_eq!(level2().leaf_count(), 2, "T and Z chains");
        assert_eq!(level3().leaf_count(), 4);
    }

    #[test]
    fn newest_version_proof_verifies() {
        let l2 = level2();
        let c = l2.commitment();
        let LeafLookup::Found { index } = l2.lookup(b"Z") else { panic!("Z present") };
        let proof = l2.prove_newest(index);
        assert_eq!(proof.verify(&c, b"Z,7"), Ok(()));
    }

    #[test]
    fn stale_version_cannot_claim_newest() {
        let l2 = level2();
        let c = l2.commitment();
        let LeafLookup::Found { index } = l2.lookup(b"Z") else { panic!() };
        // The only verifying proof for Z,6 exposes Z,7's bytes.
        let honest = l2.prove_version(index, 1);
        assert_eq!(honest.verify(&c, b"Z,6"), Ok(()));
        assert_eq!(honest.chain.exposed_newer(), &[b"Z,7".to_vec()]);
        // A "Newest" claim for Z,6 fails.
        let lying = RecordProof {
            chain: ChainPosition::Newest { older_digest: Digest::ZERO },
            ..honest.clone()
        };
        assert!(lying.verify(&c, b"Z,6").is_err());
    }

    #[test]
    fn lookup_absent_gives_successor() {
        let l3 = level3();
        assert_eq!(l3.lookup(b"B"), LeafLookup::Absent { successor: 1 });
        assert_eq!(l3.lookup(b"0"), LeafLookup::Absent { successor: 0 });
        assert_eq!(l3.lookup(b"z"), LeafLookup::Absent { successor: 4 });
        assert_eq!(l3.lookup(b"T"), LeafLookup::Found { index: 1 });
    }

    #[test]
    fn adjacent_leaf_proofs_support_non_membership() {
        // Non-membership of "B" at L3: neighbors A (leaf 0) and T (leaf 1).
        let l3 = level3();
        let c = l3.commitment();
        let pa = l3.prove_newest(0);
        let pt = l3.prove_newest(1);
        assert_eq!(pa.verify(&c, b"A,2"), Ok(()));
        assert_eq!(pt.verify(&c, b"T,0"), Ok(()));
        assert_eq!(pa.leaf_index + 1, pt.leaf_index, "adjacency check");
    }

    #[test]
    fn range_proof_over_level_verifies() {
        // SCAN([S,U]) against L3 covers leaf T (the paper's §5.4 example
        // plus boundaries).
        let l3 = level3();
        let c = l3.commitment();
        let proof = l3.prove_leaf_range(1, 2); // T..Y
        let leaves = &l3.leaf_digests()[1..=2];
        assert!(verify_range(c.root, c.leaf_count as usize, 1, leaves, &proof));
    }

    #[test]
    fn builder_rejects_unsorted_keys() {
        let mut b = LevelDigestBuilder::new(1);
        b.add(b"b", b"1".to_vec());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.add(b"a", b"2".to_vec());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn empty_level_commitment() {
        let d = LevelDigestBuilder::new(5).finish();
        let c = d.commitment();
        assert!(c.is_empty());
        assert_eq!(c.root, Digest::ZERO);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let records = vec![
            (b"a".as_slice(), b"a9".to_vec()),
            (b"a".as_slice(), b"a3".to_vec()),
            (b"b".as_slice(), b"b1".to_vec()),
            (b"c".as_slice(), b"c7".to_vec()),
            (b"c".as_slice(), b"c5".to_vec()),
            (b"c".as_slice(), b"c2".to_vec()),
        ];
        let one_shot = LevelDigest::from_records(1, records.clone());
        let mut b = LevelDigestBuilder::new(1);
        for (k, r) in records {
            b.add(k, r);
        }
        let streamed = b.finish();
        assert_eq!(one_shot.commitment(), streamed.commitment());
    }

    /// Chains of every length 1..=40 between singleton neighbours: the
    /// in-place encoding of every version equals the encoded proof object,
    /// verifies, and carries the digest of exactly the older suffix.
    #[test]
    fn in_place_encoding_matches_prove_version() {
        for len in 1..=40usize {
            let chain: Vec<Vec<u8>> = (0..len)
                .map(|v| format!("hot-ts{}-{}", len - v, "x".repeat(v % 7)).into_bytes())
                .collect();
            let mut b = LevelDigestBuilder::new(3);
            b.add(b"a", b"a1".to_vec());
            for r in &chain {
                b.add(b"hot", r.clone());
            }
            b.add(b"z", b"z1".to_vec());
            let d = b.finish();
            let c = d.commitment();
            let LeafLookup::Found { index } = d.lookup(b"hot") else { panic!("hot present") };
            assert_eq!(d.chain_records(index), &chain[..]);
            for v in 0..len {
                let proof = d.prove_version(index, v);
                let mut out = vec![0xaa];
                let n = d.encode_version_proof(index, v, &mut out);
                assert_eq!(&out[1..], &proof.encode()[..], "len={len} v={v}");
                assert_eq!(n, proof.encoded_len());
                assert_eq!(n, d.version_proof_len(index, v));
                assert_eq!(proof.verify(&c, &chain[v]), Ok(()), "len={len} v={v}");
                assert_eq!(*d.version_parts(index, v).1, chain_digest(&chain[v + 1..]));
            }
        }
    }

    #[test]
    fn reused_chain_digests_equal_hashed_ones() {
        let chain = vec![b"k9".to_vec(), b"k5".to_vec(), b"k1".to_vec()];
        let mut source = LevelDigestBuilder::new(1);
        source.add(b"j", b"j1".to_vec());
        for r in &chain {
            source.add(b"k", r.clone());
        }
        source.add(b"m", b"open chain".to_vec());
        let mut build = |reuse: bool, chain: Vec<Vec<u8>>| {
            let mut b = LevelDigestBuilder::new(2);
            b.add_chain(b"a", vec![b"a1".to_vec()]);
            let reused = if reuse {
                b.add_chain_from(b"k", chain, [&mut source])
            } else {
                b.add_chain(b"k", chain);
                false
            };
            b.add_chain(b"q", vec![b"q2".to_vec(), b"q1".to_vec()]);
            (b.finish(), reused)
        };
        let (hashed, _) = build(false, chain.clone());
        let (copied, reused) = build(true, chain.clone());
        assert!(reused);
        assert_eq!(hashed.commitment(), copied.commitment());
        for v in 0..chain.len() {
            assert_eq!(hashed.prove_version(1, v), copied.prove_version(1, v));
        }
        // Different bytes are hashed.
        let (_, reused) = build(true, vec![b"k9".to_vec(), b"k5".to_vec()]);
        assert!(!reused);
        // The source's last chain is folded on demand and reopened by a
        // later record of its key.
        let mut b = LevelDigestBuilder::new(2);
        assert!(b.add_chain_from(b"m", vec![b"open chain".to_vec()], [&mut source]));
        source.add(b"m", b"older".to_vec());
        let mut expected = LevelDigestBuilder::new(1);
        expected.add(b"j", b"j1".to_vec());
        for r in chain.iter().chain([&b"open chain".to_vec(), &b"older".to_vec()]) {
            let key: &[u8] = if r.starts_with(b"k") { b"k" } else { b"m" };
            expected.add(key, r.clone());
        }
        assert_eq!(source.commitment(), expected.commitment());
    }

    #[test]
    fn chain_lookups_find_keys_in_any_order() {
        let key = |i: usize| format!("k{i:02}").into_bytes();
        let mut source = LevelDigestBuilder::new(1);
        for i in 0..20 {
            source.add(&key(i), key(i));
        }
        for i in [5, 6, 12, 3, 19, 0, 7] {
            let mut b = LevelDigestBuilder::new(2);
            assert!(b.add_chain_from(&key(i), vec![key(i)], [&mut source]), "k{i:02}");
            let mut absent = key(i);
            absent.push(b'+');
            assert!(!b.add_chain_from(&absent, vec![absent.clone()], [&mut source]));
        }
    }

    #[test]
    fn builder_commitment_matches_finished_digest() {
        let mut a = LevelDigestBuilder::new(4);
        let mut b = LevelDigestBuilder::new(4);
        for (k, r) in [(b"a", b"a2"), (b"a", b"a1"), (b"b", b"b1")] {
            a.add(k, r.to_vec());
            b.add(k, r.to_vec());
        }
        assert_eq!(a.commitment(), b.finish().commitment());
        assert!(LevelDigestBuilder::new(4).commitment().is_empty());
    }

    #[test]
    fn different_levels_different_commitments() {
        let a = LevelDigest::from_records(1, vec![(b"k".as_slice(), b"v".to_vec())]);
        let b = LevelDigest::from_records(2, vec![(b"k".as_slice(), b"v".to_vec())]);
        assert_eq!(a.commitment().root, b.commitment().root);
        assert_ne!(a.commitment().digest(), b.commitment().digest());
    }
}
