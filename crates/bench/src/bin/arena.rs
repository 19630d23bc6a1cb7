//! Portfolio-vs-portfolio tournament over the full scheduler registry.
//!
//! Evaluates every scheduler in `Portfolio::standard()` (HLF family,
//! greedy, MCT, HEFT, CPOP, staged SA, static SA) on a deterministic
//! instance family and reports the win/loss picture: an ASCII summary
//! table, a head-to-head CSV (`results/arena.csv`) and an SVG win/loss
//! matrix (`results/arena_winloss.svg`). All output is a pure function
//! of the arguments — two runs with the same arguments are
//! byte-identical, which CI asserts.
//!
//! Usage: `arena [random_instances] [seed] [--paper]
//! [--threads T] [--evaluator {full,incremental}]`
//!
//! * `random_instances` — size of the synthetic family (default 6).
//! * `seed` — base seed for instance generation and every cell
//!   (default 42).
//! * `--paper` — additionally include the paper's four programs on
//!   their Table-2 architectures (slower; static SA anneals a complete
//!   mapping per cell).
//! * `--threads T` — cap the tournament's worker threads (default `0`
//!   = available parallelism). Never changes results; makes throughput
//!   measurements reproducible on shared CI runners.
//! * `--evaluator` — how static SA prices its annealing moves
//!   (default `incremental`). Both kinds produce byte-identical
//!   artifacts — CI runs the tournament under each and diffs the CSVs.
//! * `--sa-lane {exact,delta-table}` — which inner-loop
//!   implementation the annealing entries run (default `delta-table`;
//!   case-insensitive). Both lanes produce byte-identical artifacts —
//!   CI runs the tournament under each and diffs the CSVs.
//!
//! A missing or unknown `--evaluator`/`--sa-lane` value exits with
//! status 2 and prints the usage text.
//! * `--metrics PATH` — additionally write the tournament's
//!   `anneal-obs` registry (JSON) to `PATH` and its
//!   deterministic-class view to `PATH.det.json`. Observation never
//!   changes the science artifacts.
//! * `--null-clock` — record metrics with the deterministic
//!   `NullClock` (every `time.*` value 0), making the metrics files
//!   byte-reproducible too.

use anneal_arena::{
    paper_instances, run_tournament_observed, standard_instances, Portfolio, TournamentConfig,
};
use anneal_bench::flag_value;
use anneal_core::{EvaluatorKind, SaLane};
use anneal_obs::{Clock, NullClock, WallClock};
use anneal_report::csv::f;
use anneal_report::Table;

fn usage() -> String {
    format!(
        "arena [random_instances] [seed] [--paper] [--threads T]\n\
         \x20     [--evaluator {{full,incremental}}] [--sa-lane LANE]\n\
         \x20     [--metrics PATH] [--null-clock]\n\
         \n\
         valid --sa-lane values (case-insensitive; default delta-table): {}",
        SaLane::name_list()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let mut evaluator = EvaluatorKind::default();
    let mut lane = SaLane::default();
    let mut threads = 0usize;
    let mut metrics: Option<std::path::PathBuf> = None;
    let mut null_clock = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--evaluator" => evaluator = flag_value("--evaluator", it.next(), &usage()),
            "--sa-lane" => lane = flag_value("--sa-lane", it.next(), &usage()),
            "--threads" => {
                let t = it.next().and_then(|v| v.parse().ok());
                threads = t.expect("--threads needs a thread count");
            }
            "--metrics" => {
                metrics = Some(std::path::PathBuf::from(
                    it.next().expect("--metrics needs a path"),
                ));
            }
            "--null-clock" => null_clock = true,
            a if a.starts_with("--") => {} // handled below
            _ => positional.push(arg),
        }
    }
    let count: usize = positional.first().and_then(|s| s.parse().ok()).unwrap_or(6);
    let seed: u64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let with_paper = args.iter().any(|a| a == "--paper");

    let portfolio = Portfolio::standard_with_lanes(evaluator, lane);
    let mut instances = standard_instances(seed, count);
    if with_paper {
        instances.extend(paper_instances());
    }

    let wall = WallClock::new();
    let clock: &(dyn Clock + Sync) = if null_clock { &NullClock } else { &wall };
    let (result, registry) = run_tournament_observed(
        &portfolio,
        &instances,
        &TournamentConfig {
            base_seed: seed,
            max_threads: threads,
        },
        clock,
    )
    .expect("tournament run failed");

    let n = result.instances.len();
    let mut table =
        Table::new(vec!["Scheduler", "Wins", "Mean ratio", "Worst ratio"]).with_title(format!(
            "Arena: {} schedulers x {n} instances (seed {seed})",
            result.schedulers.len(),
        ));
    for (name, s) in result.schedulers.iter().zip(result.standings()) {
        table.row(vec![
            name.clone(),
            format!("{}/{n}", s.wins),
            f(s.mean_ratio, 4),
            f(s.worst_ratio, 4),
        ]);
    }
    print!("{}", table.render());

    let dir = anneal_bench::results_dir();
    let csv_path = dir.join("arena.csv");
    result.to_csv().write_to(&csv_path).expect("write csv");
    let svg_path = dir.join("arena_winloss.svg");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(&svg_path, result.win_loss_svg()).expect("write svg");
    println!("wrote {}", csv_path.display());
    println!("wrote {}", svg_path.display());

    if let Some(path) = &metrics {
        std::fs::write(path, registry.to_json()).expect("write metrics");
        let det_path = path.with_extension("det.json");
        std::fs::write(&det_path, registry.deterministic_only().to_json())
            .expect("write deterministic metrics view");
        println!("wrote {}", path.display());
        println!("wrote {}", det_path.display());
    }
}
