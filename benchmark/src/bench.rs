//! One benchmark invocation: the untraced run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer metrics, and the
//! result they print.

use std::fmt::Write as _;

use elsm::ElsmError;

use crate::counters::Counters;
use crate::layers;
use crate::run::{end_to_end, rep_seed, run, setup, wall_figures};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::WorkloadSpec;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("norm_read_p99_us", "us"),
    ("virt_ops_per_s", "1/s"),
    ("virt_read_p50_us", "us"),
    ("virt_read_tail_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.get_host_wall_us", "us"),
    ("core.get_verify_wall_us", "us"),
    ("core.scan_host_wall_us", "us"),
    ("core.scan_verify_wall_us", "us"),
    ("core.proof_bytes_per_read", "B"),
    ("core.levels_checked_per_read", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.vlog_cache_hit_ratio", "ratio"),
    ("crypto.sha256_4k_wall_us", "us"),
    ("crypto.sha256_64b_wall_ns", "ns"),
    ("crypto.hmac_64b_wall_ns", "ns"),
    ("crypto.hash_blocks_per_op", "count"),
    ("merkle.tree_build_4k_wall_us", "us"),
    ("merkle.level_digest_2k_wall_us", "us"),
    ("merkle.verify_path_wall_ns", "ns"),
    ("lsm.flushes_per_kop", "count"),
    ("lsm.compactions_per_kop", "count"),
    ("lsm.compaction_records_per_op", "count"),
    ("lsm.compaction_wall_share", "ratio"),
    ("lsm.flush_wall_share", "ratio"),
    ("lsm.plain_write_wall_us", "us"),
    ("lsm.load_batch_wall_us", "us"),
    ("lsm.debt_bytes_end", "B"),
    ("sgx.ecalls_per_op", "count"),
    ("sgx.ocalls_per_op", "count"),
    ("sgx.cross_copy_bytes_per_op", "B"),
    ("sgx.epc_page_ins_per_op", "count"),
    ("sgx.enclave_ns_per_op", "ns"),
    ("sgx.host_ns_per_op", "ns"),
    ("sgx.boundary_ns_per_op", "ns"),
    ("sched.serial_fraction", "ratio"),
    ("disk.bytes_per_op", "B"),
    ("disk.seeks_per_op", "count"),
    ("fs.bytes_end", "B"),
    ("fs.files_end", "count"),
    ("router.virt_ns_per_op", "ns"),
    ("replica.virt_ns_per_write", "ns"),
    ("replica.virt_ns_per_read", "ns"),
    ("replica.lag_epochs_max", "count"),
    ("vlog.bytes_end", "B"),
    ("vlog.garbage_ratio_end", "ratio"),
    ("wall_p50_us", "us"),
    ("wall_p99_us", "us"),
    ("virt_read_p99_us", "us"),
    ("virt_write_p50_us", "us"),
    ("virt_write_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("wall_ops_per_s", "1/s"),
    ("wall_read_p99_us", "us"),
    ("setup_wall_s", "s"),
    ("host.sha256_slice_us", "us"),
];

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: loaded records, run operations and probes.
    pub attempted: u64,
    /// Errored, wrong or missing answers among them.
    pub failed: u64,
    /// `(name, value, samples)`; `samples` is the count a percentile was
    /// taken over (0 for other metrics).
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// Figures printed with the table but not in the result line, as
    /// `(name, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

impl Outcome {
    /// One line per metric, with its unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, samples) in &self.metrics {
            let _ = write!(out, "  {name:<32} {value:>16.4} {}", unit(name));
            if *samples > 0 {
                let _ = write!(out, "  (n={samples})");
            }
            out.push('\n');
        }
        for (name, value, unit) in &self.notes {
            let _ = writeln!(out, "  ({name:<30} {value:>16.4} {unit})");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit(name))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The untraced run: `reps` repetitions of a fresh set-up followed by
/// [`WorkloadSpec::rep_ops`] run-phase operations, each from its own
/// [`rep_seed`] of `seed`. Every end-to-end metric is the median over the
/// repetitions, except `peak_rss_mib`, the process's peak. The wall times
/// behind `setup_s`, `norm_ops_per_s` and `norm_read_p99_us` are
/// normalised to the reference host's speed with each phase's yardstick;
/// the medians of the raw wall figures and of the host's slowdown are
/// printed as notes.
///
/// # Errors
///
/// Returns [`ElsmError`] when a set-up fails.
pub fn untraced(spec: &WorkloadSpec, seed: u64, reps: usize) -> Result<Outcome, ElsmError> {
    let mut per_rep: Vec<Vec<(&'static str, f64, usize)>> = Vec::with_capacity(reps);
    let mut raw: Vec<[f64; 5]> = Vec::with_capacity(reps);
    let (mut attempted, mut failed) = (0, 0);
    for rep in 0..reps.max(1) {
        // Each repetition's system drops before the next one is set up.
        let mut loaded = setup(spec, None)?;
        let out = run(spec, &mut loaded, rep_seed(seed, rep), spec.rep_ops, None);
        attempted += spec.records + out.samples.len() as u64;
        failed += loaded.failures + out.failures;
        let mut metrics = vec![("setup_s", loaded.setup_s, 0)];
        metrics.extend(end_to_end(spec, &loaded, &out));
        per_rep.push(metrics);
        let (wall_ops_per_s, wall_read_p99_us) = wall_figures(&out);
        raw.push([
            loaded.setup_wall_s,
            loaded.setup_wall_s / loaded.setup_s,
            wall_ops_per_s,
            wall_read_p99_us,
            out.slowdown,
        ]);
    }
    let raw_median = |i: usize| median(&raw.iter().map(|r| r[i]).collect::<Vec<_>>());
    let notes = vec![
        ("setup_wall_s", raw_median(0), "s"),
        ("setup host slowdown", raw_median(1), "x"),
        ("wall_ops_per_s", raw_median(2), "1/s"),
        ("wall_read_p99_us", raw_median(3), "us"),
        ("run host slowdown", raw_median(4), "x"),
    ];
    let mut metrics: Vec<(&'static str, f64, usize)> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, samples))| {
            let values: Vec<f64> = per_rep.iter().map(|rep| rep[i].1).collect();
            (name, median(&values), samples)
        })
        .collect();
    metrics.push(("peak_rss_mib", peak_rss_mib(), 0));
    Ok(Outcome { attempted, failed, metrics, notes })
}

/// The traced run: the untraced run's first repetition as the overhead
/// baseline, then the same repetition with every call into the system
/// inside a span, the layer probes and the primitive loops. Returns the
/// outcome and the spans.
///
/// # Errors
///
/// Returns [`ElsmError`] when a set-up fails.
pub fn traced(spec: &WorkloadSpec, seed: u64) -> Result<(Outcome, Tracer), ElsmError> {
    let ops = spec.rep_ops;
    let seed = rep_seed(seed, 0);
    let (baseline, baseline_failed, setup_wall_s) = {
        let mut loaded = setup(spec, None)?;
        let out = run(spec, &mut loaded, seed, ops, None);
        let failed = loaded.failures + out.failures;
        (out, failed, loaded.setup_wall_s)
    };
    let tracer = Tracer::default();
    let mut loaded = setup(spec, Some(&tracer))?;
    let before = Counters::snapshot(&loaded.system);
    let out = run(spec, &mut loaded, seed, ops, Some(&tracer));
    let after = Counters::snapshot(&loaded.system);
    let probe_failures = layers::probe_reads(&loaded, &out.read_keys, &tracer)
        + layers::probe_scans(&loaded, &out.scan_ranges, &tracer);
    let mut metrics: Vec<(&'static str, f64, usize)> =
        layers::counters(&loaded, &out, &before, &after, &tracer, &baseline)
            .into_iter()
            .chain(layers::primitives(&tracer))
            .chain(layers::wall(&baseline, setup_wall_s))
            .map(|(name, value)| (name, value, 0))
            .collect();
    let order = |name: &str| PER_LAYER.iter().position(|(n, _)| *n == name);
    metrics.sort_by_key(|(name, _, _)| order(name));
    let probes = (out.read_keys.len() + out.scan_ranges.len()) as u64;
    Ok((
        Outcome {
            attempted: 2 * spec.records
                + (baseline.samples.len() + out.samples.len()) as u64
                + probes,
            failed: baseline_failed + loaded.failures + out.failures + probe_failures,
            metrics,
            notes: Vec::new(),
        },
        tracer,
    ))
}
