//! Campaign-cell throughput: `simulate()` vs the fast path.
//!
//! A campaign cell is one `(scheduler, instance)` evaluation, and the
//! whole portfolio subsystem (tournaments, 1000-instance campaigns,
//! adversarial-search ratio pricing) is throughput-bound on exactly
//! that operation. This bench measures **cells per second** over the
//! full fast portfolio (`Portfolio::fast_with_lane` — what campaigns
//! run) on one instance per campaign shape at each size tier, via
//! both evaluation paths:
//!
//! * `general` — [`PortfolioEntry::evaluate`] on the **exact SA
//!   lane**: `simulate()`, the kernel with a route-table build, Gantt
//!   recording, statistics, an allocated `SimResult` per cell, and the original
//!   per-move `exp()` annealing loop (what every cell paid before the
//!   fast path and the delta-table lane existed);
//! * `fast` — [`PortfolioEntry::evaluate_makespan`] on the
//!   **delta-table SA lane**: the shared fast-path kernel out of one
//!   reused `SimScratch` per sweep, with the staged-SA inner loop
//!   priced from flat cost tables and the quantized-lossless
//!   acceptance table (`anneal_core::lane`).
//!
//! Every cell is asserted **bit-identical** between the two paths
//! before anything is timed; in smoke mode this doubles as the CI
//! equality gate. The `sa` row carries a regression assert: the
//! delta-table lane must keep beating the pre-lane committed baseline
//! on every tier. Besides the Criterion report, the bench writes
//! `results/BENCH_portfolio.json`: per-tier cells/sec for both paths,
//! the throughput speedups,
//! and a per-scheduler breakdown (the staged SA scheduler's cells are
//! dominated by its own annealing logic, so its speedup bounds the
//! portfolio-wide number — the JSON shows both the aggregate and the
//! per-entry picture).
//!
//! Set `PORTFOLIO_BENCH_SMOKE=1` for a fast CI pass: fewer repetitions,
//! same equality assertions, same JSON artifact.

use std::time::Instant;

use anneal_arena::{ArenaInstance, Portfolio};
use anneal_core::SaLane;
use anneal_graph::generate::{
    chain, fork_join, gnp_dag, independent, layered_random, series_parallel, LayeredConfig, Range,
};
use anneal_graph::units::us;
use anneal_sim::SimScratch;
use anneal_topology::builders::{bus, hypercube, mesh, ring, star, torus};
use anneal_topology::Topology;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One instance per campaign shape at size tier `scale` (1–3), on the
/// campaign family's host rotation (mirrors
/// `anneal_arena::campaign_instance`'s generators).
fn tier_instances(scale: usize, seed: u64) -> Vec<ArenaInstance> {
    let load = Range::new(us(2.0), us(60.0));
    let comm = Range::new(us(1.0), us(12.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<(&'static str, anneal_graph::TaskGraph)> = vec![
        (
            "layered",
            layered_random(
                &LayeredConfig {
                    layers: 2 + scale,
                    width: 2 + 2 * scale,
                    edge_prob: 0.35,
                    load,
                    comm,
                },
                &mut rng,
            ),
        ),
        ("gnp", gnp_dag(12 * scale, 0.18, load, comm, &mut rng)),
        ("forkjoin", fork_join(4 + 3 * scale, load, comm, &mut rng)),
        ("sp", series_parallel(6 + 4 * scale, load, comm, &mut rng)),
        ("chain", chain(6 + 5 * scale, load, comm, &mut rng)),
        ("indep", independent(8 + 4 * scale, load, &mut rng)),
    ];
    let hosts: [Topology; 6] = [
        hypercube(3),
        ring(5),
        bus(4),
        mesh(3, 2),
        torus(3, 3),
        star(6),
    ];
    shapes
        .into_iter()
        .zip(hosts)
        .map(|((shape, graph), topo)| ArenaInstance::new(shape, graph, topo))
        .collect()
}

/// Deterministic per-cell seed (the exact mixer does not matter for a
/// bench; it only has to be stable and spread).
fn seed_of(e: usize, j: usize) -> u64 {
    42u64
        .wrapping_add((e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Sweeps every cell through the general path; returns total ns.
fn sweep_general(portfolio: &Portfolio, insts: &[ArenaInstance]) -> f64 {
    let start = Instant::now();
    for (e, entry) in portfolio.entries().iter().enumerate() {
        for (j, inst) in insts.iter().enumerate() {
            let r = entry.evaluate(inst, seed_of(e, j)).expect("cell evaluates");
            std::hint::black_box(r.makespan);
        }
    }
    start.elapsed().as_nanos() as f64
}

/// Sweeps every cell through the fast path with one scratch; returns
/// total ns.
fn sweep_fast(portfolio: &Portfolio, insts: &[ArenaInstance], scratch: &mut SimScratch) -> f64 {
    let start = Instant::now();
    for (e, entry) in portfolio.entries().iter().enumerate() {
        for (j, inst) in insts.iter().enumerate() {
            let m = entry
                .evaluate_makespan(inst, seed_of(e, j), scratch)
                .expect("cell evaluates");
            std::hint::black_box(m);
        }
    }
    start.elapsed().as_nanos() as f64
}

fn bench_portfolio(c: &mut Criterion) {
    let smoke = std::env::var("PORTFOLIO_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let reps = if smoke { 2 } else { 7 };
    // "Before" portfolio: exact SA lane, general evaluation. "After"
    // portfolio: the default delta-table SA lane on the fast path. Only
    // the `sa` entry differs across the two — every other factory is
    // lane-independent.
    let portfolio = Portfolio::fast_with_lane(SaLane::Exact);
    let portfolio_fast = Portfolio::fast_with_lane(SaLane::DeltaTable);

    let mut group = c.benchmark_group("portfolio_throughput");
    let mut tier_rows = Vec::new();
    let mut sa_speedups = Vec::new();
    for (tier, scale) in [("small", 1usize), ("medium", 2), ("large", 3)] {
        let insts = tier_instances(scale, 100 + scale as u64);
        let cells = portfolio.len() * insts.len();

        // Equality gate: every cell bit-identical between the paths —
        // which, because the paths run different lanes, is also the
        // exact-vs-delta-table lossless oracle on every cell.
        let mut scratch = SimScratch::new();
        for (e, (entry, fast_entry)) in portfolio
            .entries()
            .iter()
            .zip(portfolio_fast.entries())
            .enumerate()
        {
            for (j, inst) in insts.iter().enumerate() {
                let full = entry.evaluate(inst, seed_of(e, j)).unwrap().makespan;
                let fast = fast_entry
                    .evaluate_makespan(inst, seed_of(e, j), &mut scratch)
                    .unwrap();
                assert_eq!(
                    fast,
                    full,
                    "fast path / delta-table lane diverged: {} on {tier}/{}",
                    entry.name(),
                    inst.name
                );
            }
        }

        // Per-scheduler breakdown at this tier (best of `reps` sweeps
        // of that scheduler's row).
        let mut entry_rows = Vec::new();
        for (e, (entry, fast_entry)) in portfolio
            .entries()
            .iter()
            .zip(portfolio_fast.entries())
            .enumerate()
        {
            let mut best_general = f64::MAX;
            let mut best_fast = f64::MAX;
            for _ in 0..reps {
                let start = Instant::now();
                for (j, inst) in insts.iter().enumerate() {
                    std::hint::black_box(entry.evaluate(inst, seed_of(e, j)).unwrap().makespan);
                }
                best_general = best_general.min(start.elapsed().as_nanos() as f64);
                let start = Instant::now();
                for (j, inst) in insts.iter().enumerate() {
                    std::hint::black_box(
                        fast_entry
                            .evaluate_makespan(inst, seed_of(e, j), &mut scratch)
                            .unwrap(),
                    );
                }
                best_fast = best_fast.min(start.elapsed().as_nanos() as f64);
            }
            if entry.name() == "sa" {
                sa_speedups.push(best_general / best_fast);
            }
            entry_rows.push(format!(
                "        {{\"scheduler\": \"{}\", \"general_ns_per_cell\": {:.0}, \
                 \"fast_ns_per_cell\": {:.0}, \"speedup\": {:.2}}}",
                entry.name(),
                best_general / insts.len() as f64,
                best_fast / insts.len() as f64,
                best_general / best_fast
            ));
        }

        // The headline: whole-portfolio cell throughput. Reported both
        // over the full campaign portfolio and over its heuristic
        // sub-portfolio (everything but the staged SA scheduler):
        // staged-SA cells are dominated by the scheduler's *own*
        // annealing arithmetic — per-move RNG + Boltzmann acceptance,
        // which no engine change can touch — so the full-portfolio
        // number is structurally bounded by sa's share of the sweep.
        let heuristics = portfolio.without("sa");
        let h_cells = heuristics.len() * insts.len();
        let mut best_general = f64::MAX;
        let mut best_fast = f64::MAX;
        let mut h_best_general = f64::MAX;
        let mut h_best_fast = f64::MAX;
        let heuristics_fast = portfolio_fast.without("sa");
        for _ in 0..reps {
            best_general = best_general.min(sweep_general(&portfolio, &insts));
            best_fast = best_fast.min(sweep_fast(&portfolio_fast, &insts, &mut scratch));
            h_best_general = h_best_general.min(sweep_general(&heuristics, &insts));
            h_best_fast = h_best_fast.min(sweep_fast(&heuristics_fast, &insts, &mut scratch));
        }
        let general_cps = cells as f64 / (best_general * 1e-9);
        let fast_cps = cells as f64 / (best_fast * 1e-9);
        let speedup = best_general / best_fast;
        let h_speedup = h_best_general / h_best_fast;
        println!(
            "portfolio_throughput/{tier}: general {general_cps:.0} cells/s, \
             fast {fast_cps:.0} cells/s, \
             speedup {speedup:.2}x over {cells} cells \
             ({h_speedup:.2}x over the {h_cells} heuristic cells)"
        );
        tier_rows.push(format!(
            "    {{\"tier\": \"{tier}\", \"cells\": {cells}, \
             \"general_cells_per_sec\": {general_cps:.0}, \
             \"fast_cells_per_sec\": {fast_cps:.0}, \
             \"throughput_speedup\": {speedup:.2}, \
             \"heuristic_cells\": {h_cells}, \
             \"heuristic_general_cells_per_sec\": {:.0}, \
             \"heuristic_fast_cells_per_sec\": {:.0}, \
             \"heuristic_throughput_speedup\": {h_speedup:.2}, \
             \"schedulers\": [\n{}\n    ]}}",
            h_cells as f64 / (h_best_general * 1e-9),
            h_cells as f64 / (h_best_fast * 1e-9),
            entry_rows.join(",\n")
        ));

        for name in ["general", "fast"] {
            group.bench_function(BenchmarkId::new(name, tier), |b| {
                let mut scratch = SimScratch::new();
                b.iter(|| match name {
                    "fast" => sweep_fast(&portfolio_fast, &insts, &mut scratch),
                    _ => sweep_general(&portfolio, &insts),
                })
            });
        }
    }
    group.finish();

    // Regression gate on the tentpole row: before the delta-table lane
    // the committed `sa` speedup was 1.04x (fast path alone — the
    // annealing arithmetic dominated and the engine change could not
    // touch it). The lane must clear that with real margin on every
    // tier, even under smoke-mode timing noise.
    for (tier, s) in ["small", "medium", "large"].iter().zip(&sa_speedups) {
        assert!(
            *s > 1.3,
            "sa row speedup regressed on tier {tier}: {s:.2}x (pre-lane baseline 1.04x)"
        );
    }

    // Benches run with the package directory as CWD; anchor the
    // artifact at the workspace root like the harness binaries do.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = format!(
        "{{\n  \"bench\": \"portfolio_throughput\",\n  \"mode\": \"{}\",\n  \"tiers\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        tier_rows.join(",\n")
    );
    let path = dir.join("BENCH_portfolio.json");
    std::fs::write(&path, json).expect("write BENCH_portfolio.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
