//! `elsm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line with unit and
//! sample count, then one JSON result object as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced pass, reports the per-layer metrics and each span
//! name's self time, and writes every span to
//! `.bench_out/spans-<workload>.jsonl`.

use std::path::Path;
use std::process::ExitCode;

use elsm_benchmark::bench;
use elsm_benchmark::workloads::{self, CLIENTS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: elsm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::by_name(&args.workload) else {
        let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!("error: unknown workload {:?} (known: {})", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    let reps = spec.reps(args.seconds);
    println!(
        "workload {} seed {} repetitions {reps} ops {} records {} value_bytes {} clients {CLIENTS} \
         trace {}",
        spec.name,
        args.seed,
        spec.rep_ops,
        spec.records,
        spec.value_len,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        bench::traced(&spec, args.seed).map(|(outcome, tracer)| {
            println!("self time per span name (spans, wall ms, virtual ms):");
            for (name, (count, wall, virt)) in tracer.self_times() {
                println!(
                    "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
                    wall as f64 / 1e6,
                    virt as f64 / 1e6
                );
            }
            let path = Path::new(".bench_out").join(format!("spans-{}.jsonl", spec.name));
            if let Err(e) = tracer.write_spans(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
            outcome
        })
    } else {
        bench::untraced(&spec, args.seed, reps)
    };
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
