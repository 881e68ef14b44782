//! Set-up and run phase: the bulk load, the checking driver the YCSB
//! schedulers call, and the end-to-end metrics of one run.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use elsm::{ElsmError, VerifiedRecord};
use sgx_sim::{thread_charges, Platform, ThreadCharges};
use ycsb::{ConcurrentReport, KvDriver, ShardPhase, ShardedKvDriver};

use crate::oracle::{key_index, Oracle};
use crate::stats::{percentile, ratio, tail_mean};
use crate::system::System;
use crate::trace::{in_span, OpCounters, OpTrace, Tracer};
use crate::workloads::{Topology, WorkloadSpec, CLIENTS, CORES_PER_NODE};
use crate::yardstick::Yardstick;

/// What one run-phase operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Read,
    /// Overwrite of a loaded key.
    Update,
    /// Write of a key above the loaded range.
    Insert,
    /// Range scan.
    Scan,
}

impl OpKind {
    /// Reads and scans are read-side.
    pub fn is_read(self) -> bool {
        matches!(self, OpKind::Read | OpKind::Scan)
    }

    /// The span name of operations of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            OpKind::Read => "op.read",
            OpKind::Update => "op.update",
            OpKind::Insert => "op.insert",
            OpKind::Scan => "op.scan",
        }
    }
}

/// One measured operation: wall time of the store call and the virtual
/// charges it made on this thread (on every node it touched).
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// What the operation was.
    pub kind: OpKind,
    /// Wall nanoseconds of the store call alone.
    pub wall_ns: u64,
    /// Virtual charges of the call.
    pub charges: ThreadCharges,
}

/// A loaded system and what the load wrote.
#[derive(Debug)]
pub struct Loaded {
    /// The system, flushed.
    pub system: System,
    /// Expected contents.
    pub oracle: Oracle,
    /// Logical bytes written (keys plus values) since open.
    pub user_bytes: u64,
    /// Wall seconds spent opening, in `put_batch` and in the flush.
    pub setup_wall_s: f64,
    /// `setup_wall_s` normalised to the reference host's speed (see
    /// [`crate::yardstick`]).
    pub setup_s: f64,
    /// Wall nanoseconds of each `put_batch` call.
    pub batch_wall_ns: Vec<u64>,
    /// Load failures (a failed batch counts each of its records).
    pub failures: u64,
}

/// Opens the system for `spec`, bulk-loads its records in key order with
/// `put_batch` and flushes. Only the store calls count toward `setup_s`;
/// yardstick slices between them give its normalisation.
///
/// # Errors
///
/// Returns [`ElsmError`] when the system fails to open or flush.
pub fn setup(spec: &WorkloadSpec, tracer: Option<&Tracer>) -> Result<Loaded, ElsmError> {
    let yardstick = Yardstick::new();
    let start = Instant::now();
    let system = in_span(tracer, "setup.open", || System::open(spec))?;
    let mut setup_ns = start.elapsed().as_nanos() as u64;
    yardstick.note(setup_ns);
    let mut oracle = Oracle::default();
    let (mut user_bytes, mut failures) = (0u64, 0u64);
    let mut batch_wall_ns = Vec::new();
    let batch = spec.load_batch() as u64;
    for first in (0..spec.records).step_by(batch as usize) {
        let items: Vec<(u64, Vec<u8>, Vec<u8>)> = (first..(first + batch).min(spec.records))
            .map(|i| (i, ycsb::format_key(i), ycsb::make_value(i, spec.value_len)))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(_, k, v)| (k.as_slice(), v.as_slice())).collect();
        let t0 = Instant::now();
        let result = in_span(tracer, "lsm.put_batch", || system.kv().put_batch(&refs));
        let wall = t0.elapsed().as_nanos() as u64;
        setup_ns += wall;
        batch_wall_ns.push(wall);
        yardstick.note(wall);
        if result.is_err() {
            failures += items.len() as u64;
            continue;
        }
        for (index, key, value) in &items {
            user_bytes += (key.len() + value.len()) as u64;
            failures += u64::from(!oracle.record(key, *index, value));
        }
    }
    let t0 = Instant::now();
    in_span(tracer, "setup.flush", || system.flush())?;
    let flush_ns = t0.elapsed().as_nanos() as u64;
    setup_ns += flush_ns;
    yardstick.note(flush_ns);
    let setup_wall_s = setup_ns as f64 / 1e9;
    Ok(Loaded {
        system,
        oracle,
        user_bytes,
        setup_wall_s,
        setup_s: setup_wall_s / yardstick.slowdown(),
        batch_wall_ns,
        failures,
    })
}

/// A seed-keyed relabelling of the loaded keys: the YCSB client's key
/// index `i` is stored under index `perm[i]`. The loaded layout is the same
/// for every seed, while the zipfian hot set lands on different stored
/// keys (and so in different levels and tree positions) per seed. Keys
/// above the loaded range (inserts) keep their index.
#[derive(Debug)]
struct KeyMap {
    perm: Vec<u64>,
}

impl KeyMap {
    /// The permutation of `0..records` drawn from `seed`.
    fn new(records: u64, seed: u64) -> Self {
        let mut perm: Vec<u64> = (0..records).collect();
        perm.sort_by_key(|&i| splitmix64(seed ^ splitmix64(i)));
        KeyMap { perm }
    }

    /// The stored index of client index `i`.
    fn index(&self, i: u64) -> u64 {
        usize::try_from(i).ok().and_then(|i| self.perm.get(i)).copied().unwrap_or(i)
    }

    /// The stored key of a client key (non-YCSB keys pass through).
    fn key(&self, key: &[u8]) -> Vec<u8> {
        key_index(key).map_or_else(|| key.to_vec(), |i| ycsb::format_key(self.index(i)))
    }

    /// The stored range of a client scan `[from, to]`: the mapped start
    /// and the same length, clamped to the loaded range.
    fn range(&self, from: &[u8], to: &[u8]) -> (Vec<u8>, Vec<u8>) {
        match (key_index(from), key_index(to)) {
            (Some(lo), Some(hi)) if (lo as usize) < self.perm.len() => {
                let start = self.index(lo);
                let end = (start + hi.saturating_sub(lo)).min(self.perm.len() as u64 - 1);
                (ycsb::format_key(start), ycsb::format_key(end))
            }
            _ => (from.to_vec(), to.to_vec()),
        }
    }
}

/// The seed of repetition `rep` of a run from `seed`: each repetition
/// draws its own request stream and key relabelling, so a run's medians
/// span several hot sets instead of repeating one.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    splitmix64(seed ^ splitmix64(rep as u64))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mutable side of the driver (the schedulers hold it by `&`).
#[derive(Debug, Default)]
struct DriverState {
    oracle: Oracle,
    samples: Vec<OpSample>,
    failures: u64,
    user_bytes: u64,
    records_read: u64,
    proof_bytes: u64,
    levels_checked: u64,
    read_keys: Vec<Vec<u8>>,
    scan_ranges: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The [`KvDriver`] the YCSB schedulers call: times each store call in
/// both clocks, checks every answer against the oracle and counts
/// errors instead of panicking.
///
/// For a cluster it exposes *every* node (each shard's primary and each
/// replica) as a machine to [`ycsb::run_sharded_concurrent`], so
/// replica-served reads are scheduled on the replica's own clock.
struct Driver<'a> {
    system: &'a System,
    keys: KeyMap,
    loaded_records: u64,
    machines: Vec<Arc<Platform>>,
    router: Option<Arc<Platform>>,
    tracer: Option<&'a Tracer>,
    yardstick: Yardstick,
    state: RefCell<DriverState>,
}

impl Driver<'_> {
    /// Runs one store call, recording its sample (and, when traced, its
    /// span and counter deltas).
    fn op<T>(&self, kind: OpKind, call: impl FnOnce() -> T) -> T {
        let before = self.tracer.map(|_| OpCounters::snapshot(self.system));
        let (out, sample) = in_span(self.tracer, kind.span_name(), || measure(kind, call));
        if let (Some(tracer), Some(before)) = (self.tracer, before) {
            tracer.note_op(OpTrace::new(sample, &before, &OpCounters::snapshot(self.system)));
            if let Some(&lag) = self.system.replica_lags().iter().max() {
                tracer.note_lag(lag);
            }
        }
        self.yardstick.note(sample.wall_ns);
        self.state.borrow_mut().samples.push(sample);
        out
    }

    fn note_records(state: &mut DriverState, records: &[VerifiedRecord]) {
        for record in records {
            state.records_read += 1;
            state.proof_bytes += record.proof_bytes() as u64;
            state.levels_checked += record.levels_checked() as u64;
        }
    }
}

fn measure<T>(kind: OpKind, call: impl FnOnce() -> T) -> (T, OpSample) {
    let c0 = thread_charges();
    let t0 = Instant::now();
    let out = call();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let charges = thread_charges().since(&c0);
    (out, OpSample { kind, wall_ns, charges })
}

/// Keys and ranges kept for the traced run's layer probes.
const PROBE_CAP: usize = 4096;

impl KvDriver for Driver<'_> {
    fn put(&self, key: &[u8], value: &[u8]) {
        let Some(index) = key_index(key) else {
            self.state.borrow_mut().failures += 1;
            return;
        };
        let kind = if index < self.loaded_records { OpKind::Update } else { OpKind::Insert };
        let key = self.keys.key(key);
        let result = self.op(kind, || self.system.kv().put(&key, value));
        let mut state = self.state.borrow_mut();
        if result.is_ok() && state.oracle.record(&key, index, value) {
            state.user_bytes += (key.len() + value.len()) as u64;
        } else {
            state.failures += 1;
        }
    }

    fn get(&self, key: &[u8]) -> bool {
        let key = self.keys.key(key);
        let result = self.op(OpKind::Read, || self.system.kv().get(&key));
        let mut state = self.state.borrow_mut();
        let ok = match &result {
            Ok(answer) => {
                Self::note_records(&mut state, answer.as_slice());
                state.oracle.check_get(&key, answer.as_ref())
            }
            Err(_) => false,
        };
        state.failures += u64::from(!ok);
        if self.tracer.is_some() && state.read_keys.len() < PROBE_CAP {
            state.read_keys.push(key);
        }
        matches!(result, Ok(Some(_)))
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> usize {
        let (from, to) = self.keys.range(from, to);
        let result = self.op(OpKind::Scan, || self.system.kv().scan(&from, &to));
        let mut state = self.state.borrow_mut();
        let ok = match &result {
            Ok(records) => {
                Self::note_records(&mut state, records);
                state.oracle.check_scan(&from, &to, records)
            }
            Err(_) => false,
        };
        state.failures += u64::from(!ok);
        if self.tracer.is_some() && state.scan_ranges.len() < PROBE_CAP {
            state.scan_ranges.push((from, to));
        }
        result.map_or(0, |records| records.len())
    }
}

impl ShardedKvDriver for Driver<'_> {
    fn shard_count(&self) -> usize {
        self.machines.len()
    }
    fn shard_platform(&self, shard: usize) -> &Arc<Platform> {
        &self.machines[shard]
    }
    fn router_platform(&self) -> &Arc<Platform> {
        self.router.as_ref().unwrap_or(&self.machines[0])
    }
}

/// Everything one run phase produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Every operation, in execution order.
    pub samples: Vec<OpSample>,
    /// Errored, wrong or missing answers.
    pub failures: u64,
    /// The virtual-time scheduler's report.
    pub report: ConcurrentReport,
    /// Wall nanoseconds of the whole phase, harness included.
    pub phase_wall_ns: u64,
    /// How much slower than the reference host the phase ran (see
    /// [`crate::yardstick`]).
    pub slowdown: f64,
    /// Verified records returned by reads and scans.
    pub records_read: u64,
    /// Proof bytes those records carried.
    pub proof_bytes: u64,
    /// Levels checked for those records.
    pub levels_checked: u64,
    /// Read keys kept for probes (traced runs only).
    pub read_keys: Vec<Vec<u8>>,
    /// Scan ranges kept for probes (traced runs only).
    pub scan_ranges: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Runs `ops` operations of `spec`'s mix from `seed` with [`CLIENTS`]
/// virtual closed-loop clients. The oracle moves into the run and comes
/// back updated in `loaded`.
pub fn run(
    spec: &WorkloadSpec,
    loaded: &mut Loaded,
    seed: u64,
    ops: u64,
    tracer: Option<&Tracer>,
) -> RunOutput {
    let nodes = loaded.system.nodes();
    let driver = Driver {
        system: &loaded.system,
        keys: KeyMap::new(spec.records, seed),
        loaded_records: spec.records,
        machines: nodes.iter().map(|n| n.store.platform().clone()).collect(),
        router: loaded.system.router().cloned(),
        tracer,
        yardstick: Yardstick::new(),
        state: RefCell::new(DriverState {
            oracle: std::mem::take(&mut loaded.oracle),
            samples: Vec::with_capacity(ops as usize),
            ..DriverState::default()
        }),
    };
    let workload = spec.workload();
    let run_phase = || match spec.topology {
        Topology::Single => ycsb::run_phase_concurrent(
            &driver,
            &driver.machines[0],
            &workload,
            spec.records,
            ops,
            seed,
            CLIENTS,
        ),
        Topology::Cluster { .. } => ycsb::run_sharded_concurrent(
            &driver,
            &workload,
            &ShardPhase {
                record_count: spec.records,
                total_ops: ops,
                threads: CLIENTS,
                cores_per_shard: CORES_PER_NODE,
                seed,
            },
        ),
    };
    let t0 = Instant::now();
    let report = in_span(tracer, "phase.run", run_phase);
    let phase_wall_ns = t0.elapsed().as_nanos() as u64;
    let slowdown = driver.yardstick.slowdown();
    let state = driver.state.into_inner();
    loaded.oracle = state.oracle;
    loaded.user_bytes += state.user_bytes;
    RunOutput {
        samples: state.samples,
        failures: state.failures,
        report,
        phase_wall_ns,
        slowdown,
        records_read: state.records_read,
        proof_bytes: state.proof_bytes,
        levels_checked: state.levels_checked,
        read_keys: state.read_keys,
        scan_ranges: state.scan_ranges,
    }
}

/// Virtual service-time samples (ns) of the read-side or write-side ops.
pub fn virt_samples(samples: &[OpSample], read_side: bool) -> Vec<u64> {
    samples.iter().filter(|s| s.kind.is_read() == read_side).map(|s| s.charges.ns).collect()
}

/// Run-phase wall throughput (ops per second of store-call time) and read
/// p99 in microseconds, as measured: divide both times by
/// [`RunOutput::slowdown`] to normalise them.
pub fn wall_figures(out: &RunOutput) -> (f64, f64) {
    let busy_ns: u64 = out.samples.iter().map(|s| s.wall_ns).sum();
    let read_wall: Vec<u64> =
        out.samples.iter().filter(|s| s.kind.is_read()).map(|s| s.wall_ns).collect();
    (
        ratio(out.samples.len() as f64, busy_ns as f64 / 1e9),
        percentile(&read_wall, 0.99) as f64 / 1e3,
    )
}

/// The end-to-end metrics of one repetition other than `setup_s` and
/// `peak_rss_mib`, as `(name, value, samples)`; `samples` is the count a
/// percentile was taken over (0 for other metrics).
pub fn end_to_end(
    spec: &WorkloadSpec,
    loaded: &Loaded,
    out: &RunOutput,
) -> Vec<(&'static str, f64, usize)> {
    let (wall_ops_per_s, wall_read_p99_us) = wall_figures(out);
    let reads = virt_samples(&out.samples, true);
    let nodes = loaded.system.nodes();
    let disk_bytes: u64 = nodes.iter().map(|n| n.store.platform().stats().disk_bytes).sum();
    let fs_bytes: u64 = nodes.iter().map(|n| n.store.fs().total_bytes()).sum();
    let live = loaded.oracle.live_bytes() * spec.copies();
    vec![
        ("norm_ops_per_s", wall_ops_per_s * out.slowdown, 0),
        ("norm_read_p99_us", wall_read_p99_us / out.slowdown, reads.len()),
        ("virt_ops_per_s", out.report.kops_per_sec * 1e3, 0),
        ("virt_read_p50_us", percentile(&reads, 0.50) as f64 / 1e3, reads.len()),
        ("virt_read_tail_us", tail_mean(&reads, 0.01) / 1e3, reads.len()),
        ("write_amp", ratio(disk_bytes as f64, loaded.user_bytes as f64), 0),
        ("space_amp", ratio(fs_bytes as f64, live as f64), 0),
    ]
}
