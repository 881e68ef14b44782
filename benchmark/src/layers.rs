//! Per-layer metrics of the traced run: layer probes on the final state,
//! short timed loops over the crypto and Merkle primitives, and counter
//! deltas read from every node around the run phase.

use std::hint::black_box;

use elsm_crypto::{hmac::hmac_sha256, sha256};
use merkle::{LevelDigest, MerkleTree};

use crate::counters::Counters;
use crate::run::{virt_samples, wall_figures, Loaded, RunOutput};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::yardstick::REFERENCE_SLICE_NS;

/// Replays every kept read key through the read node's raw trace
/// (host side) and the trace verifier (enclave side), each in its own
/// span. Returns the probes that failed.
pub fn probe_reads(loaded: &Loaded, keys: &[Vec<u8>], tracer: &Tracer) -> u64 {
    let mut failures = 0;
    for key in keys {
        let node = loaded.system.read_node(key);
        tracer.span("probe.get", || {
            match tracer.span("core.get_host", || node.raw_get_trace(key)) {
                Ok(trace) => {
                    let verdict =
                        tracer.span("core.get_verify", || node.verify_get_trace(key, &trace));
                    failures += u64::from(verdict.is_err());
                }
                Err(_) => failures += 1,
            }
        });
    }
    failures
}

/// [`probe_reads`] for the kept scan ranges.
pub fn probe_scans(loaded: &Loaded, ranges: &[(Vec<u8>, Vec<u8>)], tracer: &Tracer) -> u64 {
    let mut failures = 0;
    for (from, to) in ranges {
        let node = loaded.system.read_node(from);
        tracer.span("probe.scan", || {
            match tracer.span("core.scan_host", || node.raw_scan_trace(from, to)) {
                Ok(trace) => {
                    let verdict = tracer
                        .span("core.scan_verify", || node.verify_scan_trace(from, to, &trace));
                    failures += u64::from(verdict.is_err());
                }
                Err(_) => failures += 1,
            }
        });
    }
    failures
}

/// Repetitions of each timed primitive loop; the median is reported.
const REPS: usize = 15;

/// Times `iters` calls of `f` per repetition, one span per repetition,
/// and returns the median wall nanoseconds per call.
fn per_call_ns(tracer: &Tracer, name: &'static str, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..REPS {
        tracer.span(name, || (0..iters).for_each(|_| f()));
    }
    let walls: Vec<f64> =
        tracer.span_walls(name).iter().map(|&ns| ns as f64 / f64::from(iters)).collect();
    median(&walls)
}

/// Short timed loops over the public crypto and Merkle functions, as
/// `(metric, value)`.
pub fn primitives(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let data4k = vec![0xabu8; 4096];
    let data64 = [0x5au8; 64];
    let key = [7u8; 32];
    let leaves: Vec<_> = (0..4096u32).map(|i| sha256(&i.to_le_bytes())).collect();
    let tree = MerkleTree::from_leaves(leaves.clone());
    let path = tree.audit_path(2049);
    let records: Vec<(Vec<u8>, Vec<u8>)> =
        (0..2000u32).map(|i| (format!("key{i:06}").into_bytes(), vec![0u8; 116])).collect();
    let mut build_inputs: Vec<_> = (0..REPS).map(|_| leaves.clone()).collect();
    vec![
        (
            "crypto.sha256_4k_wall_us",
            per_call_ns(tracer, "crypto.sha256_4k", 64, || {
                black_box(sha256(black_box(&data4k)));
            }) / 1e3,
        ),
        (
            "crypto.sha256_64b_wall_ns",
            per_call_ns(tracer, "crypto.sha256_64b", 4096, || {
                black_box(sha256(black_box(&data64)));
            }),
        ),
        (
            "crypto.hmac_64b_wall_ns",
            per_call_ns(tracer, "crypto.hmac_64b", 4096, || {
                black_box(hmac_sha256(black_box(&key), black_box(&data64)));
            }),
        ),
        (
            "merkle.tree_build_4k_wall_us",
            per_call_ns(tracer, "merkle.tree_build_4k", 1, || {
                let leaves = build_inputs.pop().expect("one input per repetition");
                black_box(MerkleTree::from_leaves(leaves));
            }) / 1e3,
        ),
        (
            "merkle.level_digest_2k_wall_us",
            per_call_ns(tracer, "merkle.level_digest_2k", 1, || {
                black_box(LevelDigest::from_records(
                    3,
                    records.iter().map(|(k, v)| (k.as_slice(), v.clone())),
                ));
            }) / 1e3,
        ),
        (
            "merkle.verify_path_wall_ns",
            per_call_ns(tracer, "merkle.verify_path", 2048, || {
                black_box(MerkleTree::verify(tree.root(), 4096, 2049, leaves[2049], &path));
            }),
        ),
    ]
}

/// Mean wall microseconds of the spans named `name` (0 without any).
fn mean_span_us(tracer: &Tracer, name: &str) -> f64 {
    let walls = tracer.span_walls(name);
    ratio(walls.iter().sum::<u64>() as f64, walls.len() as f64) / 1e3
}

/// Counter-derived per-layer metrics of the traced run phase. `before`
/// and `after` are read around the run phase; `baseline` is the same run
/// without tracing, which gives the wall-clock median and the overhead.
pub fn counters(
    loaded: &Loaded,
    out: &RunOutput,
    before: &Counters,
    after: &Counters,
    tracer: &Tracer,
    baseline: &RunOutput,
) -> Vec<(&'static str, f64)> {
    let ops = out.samples.len() as f64;
    let per_op = |v: u64| ratio(v as f64, ops);
    let charges =
        out.samples.iter().fold(sgx_sim::ThreadCharges::default(), |acc, s| acc.plus(&s.charges));
    let traced = tracer.ops();
    let wall_total: u64 = traced.iter().map(|o| o.sample.wall_ns).sum();
    let wall_where = |keep: &dyn Fn(&crate::trace::OpTrace) -> bool| {
        traced.iter().filter(|o| keep(o)).map(|o| o.sample.wall_ns).sum::<u64>()
    };
    let plain_writes: Vec<u64> = traced
        .iter()
        .filter(|o| !o.sample.kind.is_read() && o.flushes == 0 && o.compactions == 0)
        .map(|o| o.sample.wall_ns)
        .collect();
    let replica_ns = |read: bool| {
        let picked: Vec<u64> = traced
            .iter()
            .filter(|o| o.sample.kind.is_read() == read)
            .map(|o| o.replica_ns)
            .collect();
        ratio(picked.iter().sum::<u64>() as f64, picked.len() as f64)
    };
    let d = |f: fn(&crate::counters::NodeCounters) -> u64| after.delta(before, f);
    let hit_ratio = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let writes = virt_samples(&out.samples, false);
    let baseline_wall: Vec<u64> = baseline.samples.iter().map(|s| s.wall_ns).collect();
    let vlog_bytes = after.sum(|n| n.db.vlog_bytes);
    vec![
        ("core.get_host_wall_us", mean_span_us(tracer, "core.get_host")),
        ("core.get_verify_wall_us", mean_span_us(tracer, "core.get_verify")),
        ("core.scan_host_wall_us", mean_span_us(tracer, "core.scan_host")),
        ("core.scan_verify_wall_us", mean_span_us(tracer, "core.scan_verify")),
        ("core.proof_bytes_per_read", ratio(out.proof_bytes as f64, out.records_read as f64)),
        ("core.levels_checked_per_read", ratio(out.levels_checked as f64, out.records_read as f64)),
        (
            "core.cache_hit_ratio",
            hit_ratio(d(|n| n.cache.record_hits), d(|n| n.cache.record_misses)),
        ),
        (
            "core.vlog_cache_hit_ratio",
            hit_ratio(d(|n| n.cache.vlog_hits), d(|n| n.cache.vlog_misses)),
        ),
        ("crypto.hash_blocks_per_op", per_op(d(|n| n.platform.hash_blocks))),
        ("lsm.flushes_per_kop", per_op(d(|n| n.db.flushes)) * 1e3),
        ("lsm.compactions_per_kop", per_op(d(|n| n.db.compactions)) * 1e3),
        ("lsm.compaction_records_per_op", per_op(d(|n| n.db.compaction_input_records))),
        (
            "lsm.compaction_wall_share",
            ratio(wall_where(&|o| o.compactions > 0) as f64, wall_total as f64),
        ),
        ("lsm.flush_wall_share", ratio(wall_where(&|o| o.flushes > 0) as f64, wall_total as f64)),
        (
            "lsm.plain_write_wall_us",
            ratio(plain_writes.iter().sum::<u64>() as f64, plain_writes.len() as f64) / 1e3,
        ),
        (
            "lsm.load_batch_wall_us",
            ratio(
                loaded.batch_wall_ns.iter().sum::<u64>() as f64,
                loaded.batch_wall_ns.len() as f64,
            ) / 1e3,
        ),
        ("lsm.debt_bytes_end", after.sum(|n| n.db.debt_bytes) as f64),
        ("sgx.ecalls_per_op", per_op(charges.ecalls)),
        ("sgx.ocalls_per_op", per_op(charges.ocalls)),
        ("sgx.cross_copy_bytes_per_op", per_op(charges.cross_copy_bytes)),
        ("sgx.epc_page_ins_per_op", per_op(d(|n| n.platform.epc_page_ins))),
        ("sgx.enclave_ns_per_op", per_op(charges.enclave_ns)),
        ("sgx.host_ns_per_op", per_op(charges.host_ns)),
        ("sgx.boundary_ns_per_op", per_op(charges.boundary_ns)),
        ("sched.serial_fraction", out.report.serial_fraction),
        ("disk.bytes_per_op", per_op(d(|n| n.platform.disk_bytes))),
        ("disk.seeks_per_op", per_op(d(|n| n.platform.disk_seeks))),
        ("fs.bytes_end", after.sum(|n| n.fs_bytes) as f64),
        ("fs.files_end", after.sum(|n| n.fs_files) as f64),
        ("router.virt_ns_per_op", per_op(after.router_clock_ns - before.router_clock_ns)),
        ("replica.virt_ns_per_write", replica_ns(false)),
        ("replica.virt_ns_per_read", replica_ns(true)),
        ("replica.lag_epochs_max", tracer.max_replica_lag() as f64),
        ("vlog.bytes_end", vlog_bytes as f64),
        (
            "vlog.garbage_ratio_end",
            ratio(after.sum(|n| n.db.vlog_garbage_bytes) as f64, vlog_bytes as f64),
        ),
        ("wall_p50_us", percentile(&baseline_wall, 0.50) as f64 / 1e3),
        ("wall_p99_us", percentile(&baseline_wall, 0.99) as f64 / 1e3),
        ("virt_read_p99_us", percentile(&virt_samples(&out.samples, true), 0.99) as f64 / 1e3),
        ("virt_write_p50_us", percentile(&writes, 0.50) as f64 / 1e3),
        ("virt_write_p99_us", percentile(&writes, 0.99) as f64 / 1e3),
        (
            "trace.overhead_pct",
            (ratio(out.phase_wall_ns as f64, baseline.phase_wall_ns as f64) - 1.0) * 100.0,
        ),
    ]
}

/// The untraced baseline's raw wall figures and the mean yardstick slice
/// it ran beside (the host's speed the normalised metrics divide out).
pub fn wall(baseline: &RunOutput, setup_wall_s: f64) -> Vec<(&'static str, f64)> {
    let (wall_ops_per_s, wall_read_p99_us) = wall_figures(baseline);
    vec![
        ("wall_ops_per_s", wall_ops_per_s),
        ("wall_read_p99_us", wall_read_p99_us),
        ("setup_wall_s", setup_wall_s),
        ("host.sha256_slice_us", baseline.slowdown * REFERENCE_SLICE_NS / 1e3),
    ]
}
