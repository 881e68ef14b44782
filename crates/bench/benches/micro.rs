//! Criterion micro-benchmarks for the building blocks: crypto primitives,
//! Merkle structures, the LSM engine and the authenticated store. These
//! measure *wall-clock* cost of the real implementations (unlike the
//! figure binaries, which report simulated time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_crypto::hmac::HmacSha256;
use elsm_crypto::{sha256, AeadKey, DetKey, OpeKey};
use merkle::{prove_range, verify_range, LevelDigest, MerkleTree};
use sgx_sim::Platform;

fn bench_crypto(c: &mut Criterion) {
    println!("crypto: sha256 backend = {}", elsm_crypto::sha256::backend());
    let mut g = c.benchmark_group("crypto");
    let data4k = vec![0xabu8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("sha256_4k", |b| b.iter(|| sha256(std::hint::black_box(&data4k))));
    let aead = AeadKey::derive(b"bench");
    let nonce = elsm_crypto::aead::nonce_from_u64s(1, 2);
    g.bench_function("aead_seal_4k", |b| {
        b.iter(|| aead.seal(&nonce, b"", std::hint::black_box(&data4k)))
    });
    // One Merkle inner node: a domain byte plus two child digests.
    let node = [0x5au8; 65];
    g.throughput(Throughput::Bytes(65));
    g.bench_function("sha256_64b", |b| b.iter(|| sha256(std::hint::black_box(&node))));
    // A cache-entry or envelope tag: a context keyed once, cloned per message.
    let mac = HmacSha256::new(b"bench");
    let msg64 = [0xa5u8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("hmac_64b", |b| {
        b.iter(|| {
            let mut h = mac.clone();
            h.update(std::hint::black_box(&msg64));
            h.finalize()
        })
    });
    let det = DetKey::derive(b"bench");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("det_encrypt_16b_key", |b| {
        b.iter(|| det.encrypt(std::hint::black_box(b"user000000000042")))
    });
    let ope = OpeKey::derive(b"bench");
    g.bench_function("ope_encode", |b| b.iter(|| ope.encode(std::hint::black_box(0xdead_beef))));
    g.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut g = c.benchmark_group("merkle");
    let leaves: Vec<_> = (0..4096u32).map(|i| sha256(&i.to_le_bytes())).collect();
    g.bench_function("tree_build_4k_leaves", |b| {
        b.iter_batched(|| leaves.clone(), MerkleTree::from_leaves, BatchSize::SmallInput)
    });
    let tree = MerkleTree::from_leaves(leaves.clone());
    g.bench_function("audit_path_4k", |b| b.iter(|| tree.audit_path(std::hint::black_box(2049))));
    let path = tree.audit_path(2049);
    g.bench_function("verify_path_4k", |b| {
        b.iter(|| MerkleTree::verify(tree.root(), 4096, 2049, leaves[2049], &path))
    });
    let rp = prove_range(&tree, 1000, 1100);
    g.bench_function("verify_range_100_of_4k", |b| {
        b.iter(|| verify_range(tree.root(), 4096, 1000, &leaves[1000..=1100], &rp))
    });
    // Level digest over a realistic compaction output.
    let records: Vec<(Vec<u8>, Vec<u8>)> =
        (0..2000u32).map(|i| (format!("key{i:06}").into_bytes(), vec![0u8; 116])).collect();
    g.bench_function("level_digest_2k_records", |b| {
        b.iter(|| {
            LevelDigest::from_records(3, records.iter().map(|(k, v)| (k.as_slice(), v.clone())))
        })
    });
    // One hot key's 256-version chain among 2k singleton keys: build the
    // digest, then encode every record's proof (a compaction's proof pass).
    let mut hot = records.clone();
    let chain = (0..256u32).map(|v| (b"key000999~hot".to_vec(), vec![v as u8; 116]));
    hot.splice(1000..1000, chain);
    g.bench_function("hot_chain_256_proofs", |b| {
        b.iter(|| {
            let d =
                LevelDigest::from_records(3, hot.iter().map(|(k, v)| (k.as_slice(), v.clone())));
            let mut bytes = 0;
            for leaf in 0..d.leaf_count() {
                for version in 0..d.chain_records(leaf).len() {
                    bytes += d.encode_version_proof(leaf, version, &mut Vec::new());
                }
            }
            bytes
        })
    });
    g.finish();
}

fn bench_lsm(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsm");
    g.bench_function("memtable_insert_1k", |b| {
        b.iter_batched(
            lsm_store::memtable::MemTable::new,
            |mut mt| {
                for i in 0..1000u32 {
                    mt.insert(lsm_store::Record::put(
                        format!("key{i:06}").into_bytes(),
                        vec![0u8; 100],
                        u64::from(i) + 1,
                    ));
                }
                mt
            },
            BatchSize::SmallInput,
        )
    });
    let mut block = lsm_store::block::BlockBuilder::new();
    for i in 0..100u32 {
        let ik = lsm_store::InternalKey::new(
            format!("key{i:04}").as_bytes(),
            u64::from(i) + 1,
            lsm_store::ValueKind::Put,
        );
        block.add(ik.encoded(), &[0u8; 100]);
    }
    let parsed = lsm_store::block::Block::parse(bytes::Bytes::from(block.finish())).unwrap();
    let target = lsm_store::InternalKey::seek_to(b"key0050");
    g.bench_function("block_seek", |b| {
        b.iter(|| parsed.seek(std::hint::black_box(target.encoded())).next())
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("elsm_p2");
    g.sample_size(20);
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options { write_buffer_bytes: 64 * 1024, ..P2Options::default() },
    )
    .unwrap();
    for i in 0..5000u32 {
        store.put(format!("key{i:06}").as_bytes(), &[0u8; 100]).unwrap();
    }
    store.db().flush().unwrap();
    let mut i = 0u32;
    g.bench_function("verified_get", |b| {
        b.iter(|| {
            i = (i + 2654435761u32 % 5000) % 5000;
            store.get(format!("key{i:06}").as_bytes()).unwrap()
        })
    });
    let mut j = 0u32;
    g.bench_function("put", |b| {
        b.iter(|| {
            j += 1;
            store.put(format!("new{j:08}").as_bytes(), &[0u8; 100]).unwrap()
        })
    });
    g.bench_function("verified_scan_20", |b| {
        b.iter(|| store.scan(b"key000100", b"key000120").unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_crypto, bench_merkle, bench_lsm, bench_store);
criterion_main!(benches);
