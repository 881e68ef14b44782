//! Regenerates every table and figure (see the README's "Reproducing the
//! figures" section), printing text tables, or markdown tables with
//! `--markdown`. Pass `--quick` for a fast pass, or
//! `--only <figures>` with a comma-separated list (e.g. `--only
//! fig11,fig12`) to run a subset: each selected figure then writes its own
//! `BENCH_results.<figure>.json`, so a partial run never clobbers the
//! committed full baseline.

use elsm_bench::figures::*;
use elsm_bench::{opts_from_args, Scale};
use ycsb::Table;

fn main() {
    let scale = Scale::default();
    let opts = opts_from_args();
    let markdown = std::env::args().any(|a| a == "--markdown");
    type FigureFn = Box<dyn Fn() -> Table>;
    let figures: Vec<(&str, FigureFn)> = vec![
        ("table1", Box::new(table1)),
        ("fig2", Box::new(move || fig2(&scale, opts))),
        ("fig5a", Box::new(move || fig5a(&scale, opts))),
        ("fig5b", Box::new(move || fig5b(&scale, opts))),
        ("fig5c", Box::new(move || fig5c(&scale, opts))),
        ("fig6a", Box::new(move || fig6a(&scale, opts))),
        ("fig6b", Box::new(move || fig6b(&scale, opts))),
        ("fig6c", Box::new(move || fig6c(&scale, opts))),
        ("fig7a", Box::new(move || fig7a(&scale, opts))),
        ("fig7b", Box::new(move || fig7b(&scale, opts))),
        ("fig7", Box::new(move || fig7(&scale, opts))),
        ("fig8", Box::new(move || fig8(&scale, opts))),
        ("ablation_proofs", Box::new(move || ablation_proofs(&scale, opts))),
        ("ablation_bloom", Box::new(move || ablation_bloom(&scale, opts))),
        ("ablation_update_in_place", Box::new(move || ablation_update_in_place(&scale, opts))),
        ("ablation_rollback", Box::new(move || ablation_rollback(&scale, opts))),
        ("fig9", Box::new(move || fig9(&scale, opts))),
        ("fig10", Box::new(move || fig10(&scale, opts))),
        ("fig11", Box::new(move || fig11(&scale, opts))),
        ("fig12", Box::new(move || fig12(&scale, opts))),
        ("fig14", Box::new(move || fig14(&scale, opts))),
    ];
    let usage_and_exit = |problem: &str| -> ! {
        eprintln!("{problem}; available figures:");
        for (n, _) in &figures {
            eprintln!("  {n}");
        }
        std::process::exit(2);
    };
    // `--only <list>` or `--only=<list>` with a comma-separated figure
    // list. Parsing is strict: a valueless flag, an empty element
    // (`fig11,,fig12`, a trailing comma) or an unknown name is an error —
    // never a silent fall-through to the full sweep.
    let mut only_arg: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--only" {
            match args.next() {
                Some(value) if !value.starts_with('-') => only_arg = Some(value),
                _ => usage_and_exit("--only requires a figure list"),
            }
        } else if let Some(value) = arg.strip_prefix("--only=") {
            only_arg = Some(value.to_string());
        }
    }
    let only: Option<Vec<String>> = only_arg.map(|list| {
        let mut names = Vec::new();
        for name in list.split(',') {
            if name.is_empty() {
                usage_and_exit(&format!("empty figure name in `--only {list}`"));
            }
            if !figures.iter().any(|(n, _)| n == &name) {
                usage_and_exit(&format!("unknown figure `{name}`"));
            }
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
        names
    });
    let mode = if opts.quick { "smoke" } else { "full" };
    let emit = |table: &Table| {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
            println!();
        }
    };
    match &only {
        // A subset: one output file per selected figure, holding exactly
        // that figure's entries.
        Some(names) => {
            for name in names {
                let (_, figure) = figures.iter().find(|(n, _)| n == name).expect("validated above");
                let start = elsm_bench::results::len();
                elsm_bench::telemetry::begin_figure();
                emit(&figure());
                elsm_bench::results::write_results_from(
                    &format!("BENCH_results.{name}.json"),
                    mode,
                    start,
                );
                elsm_bench::telemetry::write_snapshot(name);
                elsm_bench::telemetry::write_traces(name);
            }
        }
        // The full sweep owns the committed baseline. Telemetry still
        // rotates per figure: every bin gets its own registry and its
        // own TELEMETRY.<figure>.json snapshot (and TRACES dump).
        None => {
            for (name, figure) in &figures {
                elsm_bench::telemetry::begin_figure();
                emit(&figure());
                elsm_bench::telemetry::write_snapshot(name);
                elsm_bench::telemetry::write_traces(name);
            }
            elsm_bench::results::write_results("BENCH_results.json", mode);
        }
    }
}
