//! The named workloads: what each one loads, which YCSB mix it runs, and
//! the store or cluster configuration it runs against.
//!
//! Sizes follow the figure harness's [`Scale`] rule (1 paper-MB = 1 KiB
//! simulated), so a workload's dataset-to-EPC ratio matches the paper's.

use elsm::p2::ReadMode;
use elsm::P2Options;
use elsm_bench::scale::{Scale, VALUE_BYTES};
use ycsb::Workload;

/// Virtual closed-loop clients every workload schedules (one real thread
/// executes their operations one at a time).
pub const CLIENTS: usize = 8;

/// Fewest repetitions of set-up plus run phase in one run.
pub const MIN_REPS: usize = 4;

/// Enclave cores per machine in the cluster scheduler.
pub const CORES_PER_NODE: usize = 4;

/// Where a workload's data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One eLSM-P2 store.
    Single,
    /// A hash-sharded cluster; every shard is a primary plus `replicas`
    /// replicas, each node on its own platform.
    Cluster {
        /// Hash shards.
        shards: usize,
        /// Replicas behind each shard's primary.
        replicas: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The YCSB operation mix and key distribution.
    pub mix: fn() -> Workload,
    /// Value bytes of every loaded and written record.
    pub value_len: usize,
    /// Records bulk-loaded before the run.
    pub records: u64,
    /// Run-phase operations of one repetition (each repetition sets up a
    /// fresh system). A fixed count keeps every virtual figure repeatable
    /// for a seed.
    pub rep_ops: u64,
    /// Nominal run-phase operations per second on a 2-vCPU x86-64 host:
    /// a run of `--seconds` makes as many repetitions as fill that time,
    /// and at least [`MIN_REPS`].
    pub ops_per_second: u64,
    /// Store or cluster layout.
    pub topology: Topology,
    /// Value-log separation threshold in bytes (`None`: values inline).
    pub vlog_threshold: Option<usize>,
    /// Verified read cache per node, in bytes (0: no cache).
    pub cache_bytes: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<WorkloadSpec> {
    let scale = Scale::default();
    let records = scale.records_for_gb(2.0);
    let single = |name, mix, rep_ops, ops_per_second| WorkloadSpec {
        name,
        mix,
        value_len: VALUE_BYTES,
        records,
        rep_ops,
        ops_per_second,
        topology: Topology::Single,
        vlog_threshold: None,
        cache_bytes: 0,
    };
    vec![
        // 10k operations sit between two compaction waves of this store
        // (near 8k and 13k operations). The wave near 13k takes one of two
        // shapes depending on which keys the seed makes hot, and the two
        // differ by a third in write and space amplification and memory,
        // so a run that crossed it would report a seed lottery.
        single("ycsb_a_update", Workload::a, 10_000, 5_000),
        single("ycsb_c_read", Workload::c, 100_000, 30_000),
        single("ycsb_e_scan", Workload::e, 28_000, 7_000),
        WorkloadSpec {
            name: "cluster_b_vlog",
            mix: Workload::b,
            value_len: 4 * 1024,
            records: 1_024,
            rep_ops: 60_000,
            ops_per_second: 5_500,
            topology: Topology::Cluster { shards: 2, replicas: 1 },
            vlog_threshold: Some(512),
            cache_bytes: 2 << 20,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    /// The YCSB mix with this workload's value size.
    pub fn workload(&self) -> Workload {
        (self.mix)().with_value_len(self.value_len)
    }

    /// Repetitions in a run of `seconds`.
    pub fn reps(&self, seconds: u64) -> usize {
        let ops = self.ops_per_second.saturating_mul(seconds);
        (ops.div_ceil(self.rep_ops.max(1)) as usize).max(MIN_REPS)
    }

    /// Records per `put_batch` call of the bulk load (about 64 KiB of
    /// values per group commit).
    pub fn load_batch(&self) -> usize {
        (64 * 1024 / self.value_len).clamp(8, 512)
    }

    /// Options of every store (node) of this workload.
    ///
    /// Single stores use the figure harness's scaled eLSM-P2 layout with
    /// mmap reads, leveled compaction and incremental commitments (fig7's
    /// post-change configuration). The cluster uses fig14's value-log
    /// layout: a 16 paper-MB write buffer and a 64 paper-MB level 1.
    pub fn store_options(&self) -> P2Options {
        let scale = Scale::default();
        let separated = self.vlog_threshold.is_some();
        P2Options {
            read_mode: ReadMode::Mmap,
            block_cache_bytes: scale.mb(8) as usize,
            write_buffer_bytes: if separated {
                scale.mb(16) as usize
            } else {
                scale.write_buffer_bytes()
            },
            level1_max_bytes: if separated { scale.mb(64) } else { scale.level1_bytes() },
            level_multiplier: 10,
            max_levels: 7,
            target_file_bytes: scale.file_bytes(),
            block_size: 4096,
            bloom_bits_per_key: 10,
            compaction_enabled: true,
            compaction_strategy: lsm_store::CompactionStrategyKind::Leveled,
            compaction_parallelism: 1,
            incremental_commitments: true,
            wal_sync: lsm_store::WalSyncPolicy::Always,
            vlog: self.vlog_threshold.map(|value_threshold| lsm_store::VlogConfig {
                value_threshold,
                target_file_bytes: scale.mb(64),
                gc_garbage_ratio: 0.5,
                gc_enabled: true,
            }),
            verified_cache_bytes: self.cache_bytes,
            ..P2Options::default()
        }
    }

    /// Full copies of the dataset the topology keeps.
    pub fn copies(&self) -> u64 {
        match self.topology {
            Topology::Single => 1,
            Topology::Cluster { replicas, .. } => 1 + replicas as u64,
        }
    }
}
