//! Self-test of the benchmark at a tiny size: every named metric is
//! emitted, same-seed runs repeat exactly, and the traced run's
//! virtual-time attribution adds up.

use elsm_benchmark::bench::{self, Outcome, END_TO_END, PER_LAYER};
use elsm_benchmark::run::{run, setup};
use elsm_benchmark::trace::Tracer;
use elsm_benchmark::workloads::{self, Topology, WorkloadSpec, MIN_REPS};

const OPS: u64 = 480;

/// Every workload, shrunk to a few hundred records.
fn tiny() -> Vec<WorkloadSpec> {
    workloads::all()
        .into_iter()
        .map(|mut spec| {
            spec.records = match spec.topology {
                Topology::Single => 600,
                Topology::Cluster { .. } => 64,
            };
            spec.rep_ops = OPS;
            spec
        })
        .collect()
}

/// The value of `key` in every entry listed under `section` in
/// `BENCHMARK.json`.
fn declared(section: &str, key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            rest[open..open + rest[open..].find('"').expect("closed string")].to_string()
        })
        .collect()
}

fn assert_emits(outcome: &Outcome, expected: &[(&str, &str)], workload: &str, nonzero: bool) {
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| *n).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for (name, value, _) in &outcome.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(!nonzero || *value > 0.0, "{workload}: {name} must not be 0");
    }
    assert_eq!(outcome.failed, 0, "{workload}: every answer verifies and matches the oracle");
    assert!(outcome.attempted > 0);
    let line = outcome.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    for (name, unit) in expected {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{workload}: {name}");
        assert!(!unit.is_empty());
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        let units: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
        assert_eq!(declared(section, "name"), names, "{section} names");
        assert_eq!(declared(section, "unit"), units, "{section} units");
    }
    let known: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    assert_eq!(declared("workloads", "name"), known);
}

#[test]
fn every_workload_emits_every_metric() {
    for spec in tiny() {
        let outcome = bench::untraced(&spec, 7, MIN_REPS).expect("untraced run");
        assert_emits(&outcome, END_TO_END, spec.name, true);
        let (outcome, _) = bench::traced(&spec, 7).expect("traced run");
        assert_emits(&outcome, PER_LAYER, spec.name, false);
    }
}

/// Metrics that depend only on the seed: virtual time, counts, bytes
/// (not wall time, normalised or not, nor memory).
fn deterministic(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    outcome
        .metrics
        .iter()
        .filter(|(name, _, _)| {
            !name.contains("wall")
                && !name.starts_with("norm_")
                && !name.starts_with("host.")
                && !["setup_s", "peak_rss_mib", "trace.overhead_pct"].contains(name)
        })
        .map(|(name, value, _)| (*name, value.to_bits()))
        .collect()
}

#[test]
fn same_seed_runs_repeat_exactly() {
    for spec in tiny() {
        let a = bench::untraced(&spec, 11, 1).expect("run a");
        let b = bench::untraced(&spec, 11, 1).expect("run b");
        assert_eq!(deterministic(&a), deterministic(&b), "{}", spec.name);
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
        let other = bench::untraced(&spec, 12, 1).expect("other seed");
        assert_ne!(
            deterministic(&a),
            deterministic(&other),
            "{}: the seed drives the inputs",
            spec.name
        );
        let (a, _) = bench::traced(&spec, 11).expect("traced a");
        let (b, _) = bench::traced(&spec, 11).expect("traced b");
        assert_eq!(deterministic(&a), deterministic(&b), "{}", spec.name);
    }
}

#[test]
fn tracing_does_not_move_the_virtual_clock() {
    for spec in tiny() {
        let mut plain = setup(&spec, None).expect("setup");
        let untraced = run(&spec, &mut plain, 3, OPS, None);
        let tracer = Tracer::default();
        let mut loaded = setup(&spec, Some(&tracer)).expect("setup");
        let traced = run(&spec, &mut loaded, 3, OPS, Some(&tracer));
        let charges = |samples: &[elsm_benchmark::run::OpSample]| -> Vec<u64> {
            samples.iter().map(|s| s.charges.ns).collect()
        };
        assert_eq!(charges(&untraced.samples), charges(&traced.samples), "{}", spec.name);
        assert_eq!(untraced.report.kops_per_sec, traced.report.kops_per_sec);
    }
}

#[test]
fn traced_ops_partition_their_charges() {
    for spec in tiny() {
        let (_, tracer) = bench::traced(&spec, 5).expect("traced run");
        let ops: Vec<_> =
            tracer.spans().into_iter().filter(|s| s.name.starts_with("op.")).collect();
        assert_eq!(ops.len() as u64, OPS, "{}: one span per operation", spec.name);
        for span in &ops {
            let c = span.charges();
            assert_eq!(c.enclave_ns + c.host_ns + c.boundary_ns, c.ns, "{}", spec.name);
        }
        for op in tracer.ops() {
            assert_eq!(
                op.sample.charges.ns, op.platform_ns,
                "{}: charges = clock deltas",
                spec.name
            );
        }
    }
}

#[test]
fn cluster_reads_are_charged_on_every_node_they_touch() {
    let spec = tiny().into_iter().find(|s| s.name == "cluster_b_vlog").expect("cluster workload");
    let (_, tracer) = bench::traced(&spec, 9).expect("traced run");
    let reads: Vec<_> = tracer.ops().into_iter().filter(|o| o.sample.kind.is_read()).collect();
    assert!(!reads.is_empty());
    let charged: u64 = reads.iter().map(|o| o.sample.charges.ns).sum();
    let clocks: u64 = reads.iter().map(|o| o.platform_ns).sum();
    assert_eq!(charged, clocks, "virtual read time is the sum of the nodes' clock deltas");
    let replica: u64 = reads.iter().map(|o| o.replica_ns).sum();
    assert!(replica * 2 > charged, "replicas serve the reads, not the router alone");
}
