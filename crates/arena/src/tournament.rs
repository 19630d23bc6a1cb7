//! The parallel portfolio × instance tournament runner.
//!
//! Every `(scheduler, instance)` cell is an independent evaluation with
//! a seed mixed deterministically from `(base_seed, row, column)`, so
//! the whole matrix is reproducible bit-for-bit regardless of the
//! thread cap. Tournaments, campaign shards and the adversary's ratio
//! loop all run their cells through one matrix runner here, which fans
//! out with [`anneal_core::parallel::run_chunked_pooled`]: each worker
//! draws one warm `anneal_sim::SimScratch` from a caller-owned pool and
//! carries it across all its cells. Cells route through
//! [`PortfolioEntry::evaluate_makespan`]: the fast-path kernel (no
//! Gantt, no statistics, reused buffers, cached route tables) with
//! makespans bit-identical to [`simulate`](anneal_sim::simulate).

use anneal_core::parallel::{run_chunked_pooled, ScratchPool};
use anneal_obs::{Clock, MetricsRegistry, NullClock, Recorder};
use anneal_report::{ratio_to_best, render_win_loss_matrix, Csv, Standing, WinLossOptions};
use anneal_sim::{KernelRunStats, SimError, SimScratch};

use crate::instance::ArenaInstance;
use crate::portfolio::{Portfolio, PortfolioEntry};

/// Tournament settings.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Base seed mixed into every cell.
    pub base_seed: u64,
    /// Thread cap for the cell fan-out (`0` = available parallelism).
    pub max_threads: usize,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            base_seed: 42,
            max_threads: 0,
        }
    }
}

/// SplitMix64-style mixing of the base seed with a cell coordinate.
pub(crate) fn cell_seed(base: u64, row: u64, col: u64) -> u64 {
    let mut z = base
        .wrapping_add(row.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(col.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One evaluated cell of a matrix run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    /// The cell's makespan (ns).
    pub makespan: u64,
    /// Wall time of the cell read from the run's clock (ns).
    pub wall_ns: u64,
    /// The fast-path kernel's counters for the cell.
    pub stats: KernelRunStats,
}

/// The one matrix runner: evaluates every `(row, column)` cell — entry
/// `rows[r]` on `instances[c]` with seed
/// `cell_seed(base_seed, r, columns[c])`, where `columns` holds the
/// instances' global column indices — on at most `max_threads` workers
/// drawing scratch from `pool`. Returns the cells in job order
/// (row-major), or the first error in job order.
pub(crate) fn run_cells(
    rows: &[PortfolioEntry],
    instances: &[ArenaInstance],
    columns: &[usize],
    base_seed: u64,
    max_threads: usize,
    pool: &ScratchPool<SimScratch>,
    clock: &(dyn Clock + Sync),
) -> Result<Vec<Cell>, SimError> {
    let cols = instances.len();
    run_chunked_pooled(rows.len() * cols, max_threads, pool, |scratch, k| {
        let (r, c) = (k / cols, k % cols);
        let seed = cell_seed(base_seed, r as u64, columns[c] as u64);
        let start = clock.now_ns();
        let makespan = rows[r].evaluate_makespan(&instances[c], seed, scratch)?;
        let wall_ns = clock.now_ns().saturating_sub(start);
        Ok(Cell {
            makespan,
            wall_ns,
            stats: scratch.last_run_stats(),
        })
    })
    .into_iter()
    .collect()
}

/// The metrics of one matrix run: per cell `arena.cells`,
/// `arena.makespan_ns`, `time.cell_ns` and the kernel counters, then
/// the pool's statistics (see [`record_pool`]).
pub(crate) fn record_cells(cells: &[Cell], pool: &ScratchPool<SimScratch>) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    for cell in cells {
        registry.add("arena.cells", 1);
        registry.observe("arena.makespan_ns", cell.makespan);
        registry.observe("time.cell_ns", cell.wall_ns);
        cell.stats.record_into(&mut registry);
    }
    record_pool(pool, &mut registry);
    registry
}

/// Records `pool`'s hit/miss counters, then drains it and records each
/// scratch's route-cache counters. The snapshot comes first, so the
/// drain's own takes do not count as reuse.
pub(crate) fn record_pool(pool: &ScratchPool<SimScratch>, registry: &mut MetricsRegistry) {
    pool.stats().record_into(registry);
    while !pool.is_empty() {
        pool.take().route_cache_stats().record_into(registry);
    }
}

/// The full result matrix of one tournament.
#[derive(Debug, Clone)]
pub struct TournamentResult {
    /// Row labels (portfolio order).
    pub schedulers: Vec<String>,
    /// Column labels (instance order).
    pub instances: Vec<String>,
    /// `makespans[i][j]` — scheduler `i` on instance `j`, in ns.
    pub makespans: Vec<Vec<u64>>,
}

impl TournamentResult {
    /// The winning row on instance `j` and its makespan; ties break
    /// toward the earlier portfolio entry.
    // lint:allow(panic) reason="tournaments are built from non-empty portfolios"
    pub fn best_for_instance(&self, j: usize) -> (usize, u64) {
        self.makespans
            .iter()
            .enumerate()
            .map(|(i, row)| (i, row[j]))
            .min_by_key(|&(i, m)| (m, i))
            .expect("portfolio is non-empty")
    }

    /// `makespan(i, j) / best makespan on j` — 1.0 for the per-instance
    /// winner.
    pub fn ratio(&self, i: usize, j: usize) -> f64 {
        ratio_to_best(self.makespans[i][j], self.best_for_instance(j).1)
    }

    /// The full ratio matrix, rows in scheduler order.
    pub fn ratios(&self) -> Vec<Vec<f64>> {
        (0..self.schedulers.len())
            .map(|i| {
                (0..self.instances.len())
                    .map(|j| self.ratio(i, j))
                    .collect()
            })
            .collect()
    }

    /// Per-scheduler wins, mean ratio and worst ratio, by
    /// [`anneal_report::standings`].
    pub fn standings(&self) -> Vec<Standing> {
        anneal_report::standings(self.schedulers.len(), self.instances.len(), |i, j| {
            self.makespans[i][j]
        })
    }

    /// Per-scheduler count of instances where it attains the best
    /// makespan (ties count for every scheduler that attains it).
    pub fn wins(&self) -> Vec<usize> {
        self.standings().iter().map(|s| s.wins).collect()
    }

    /// Head-to-head record of row `a` against row `b`:
    /// `(a wins, b wins, ties)` over all instances.
    pub fn head_to_head(&self, a: usize, b: usize) -> (usize, usize, usize) {
        let mut rec = (0, 0, 0);
        for j in 0..self.instances.len() {
            match self.makespans[a][j].cmp(&self.makespans[b][j]) {
                std::cmp::Ordering::Less => rec.0 += 1,
                std::cmp::Ordering::Greater => rec.1 += 1,
                std::cmp::Ordering::Equal => rec.2 += 1,
            }
        }
        rec
    }

    /// The head-to-head CSV table: one row per scheduler with its
    /// makespan on every instance, win count and mean ratio. Fully
    /// deterministic — byte-identical across runs with equal inputs.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new();
        let mut header = vec!["scheduler".to_string()];
        header.extend(self.instances.iter().cloned());
        header.push("wins".into());
        header.push("mean_ratio".into());
        csv.row(&header);
        for ((name, makespans), s) in self
            .schedulers
            .iter()
            .zip(&self.makespans)
            .zip(self.standings())
        {
            let mut row = vec![name.clone()];
            row.extend(makespans.iter().map(|m| m.to_string()));
            row.push(s.wins.to_string());
            row.push(anneal_report::csv::f(s.mean_ratio, 4));
            csv.row(&row);
        }
        csv
    }

    /// The SVG win/loss matrix (ratio heatmap) via `anneal-report`.
    pub fn win_loss_svg(&self) -> String {
        render_win_loss_matrix(
            &self.schedulers,
            &self.instances,
            &self.ratios(),
            &WinLossOptions::default(),
        )
    }
}

/// Evaluates every portfolio entry on every instance in parallel.
///
/// Cell `(i, j)` simulates entry `i` on instance `j` with seed
/// `cell_seed(base_seed, i, j)`. The first simulation error aborts the
/// tournament (cells that already ran are discarded).
pub fn run_tournament(
    portfolio: &Portfolio,
    instances: &[ArenaInstance],
    cfg: &TournamentConfig,
) -> Result<TournamentResult, SimError> {
    run_tournament_observed(portfolio, instances, cfg, &NullClock).map(|(result, _)| result)
}

/// [`run_tournament`] that additionally aggregates a metrics registry:
/// summed kernel counters and an `arena.makespan_ns` histogram
/// (deterministic-class), scratch-pool / route-cache counters
/// (`sched.*`) and wall time (`time.cell_ns` / `time.total_ns`) read
/// from `clock`.
///
/// The science half is **exactly** what [`run_tournament`] produces
/// (which delegates here under a [`NullClock`]):
/// observation never touches cell seeds or the fan-out layout.
pub fn run_tournament_observed(
    portfolio: &Portfolio,
    instances: &[ArenaInstance],
    cfg: &TournamentConfig,
    clock: &(dyn Clock + Sync),
) -> Result<(TournamentResult, MetricsRegistry), SimError> {
    assert!(!portfolio.is_empty(), "empty portfolio");
    assert!(!instances.is_empty(), "no instances");
    let columns: Vec<usize> = (0..instances.len()).collect();
    let start = clock.now_ns();
    let pool = ScratchPool::new();
    let cells = run_cells(
        portfolio.entries(),
        instances,
        &columns,
        cfg.base_seed,
        cfg.max_threads,
        &pool,
        clock,
    )?;
    let total_ns = clock.now_ns().saturating_sub(start);
    let mut registry = record_cells(&cells, &pool);
    registry.add("time.total_ns", total_ns);
    let makespans = cells
        .chunks(instances.len())
        .map(|row| row.iter().map(|c| c.makespan).collect())
        .collect();
    Ok((
        TournamentResult {
            schedulers: portfolio.names(),
            instances: instances.iter().map(|i| i.name.clone()).collect(),
            makespans,
        },
        registry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::smoke_instances;

    fn tiny() -> TournamentResult {
        TournamentResult {
            schedulers: vec!["a".into(), "b".into()],
            instances: vec!["x".into(), "y".into(), "z".into()],
            makespans: vec![vec![100, 250, 300], vec![120, 200, 300]],
        }
    }

    #[test]
    fn winners_ratios_and_records() {
        let t = tiny();
        assert_eq!(t.best_for_instance(0), (0, 100));
        assert_eq!(t.best_for_instance(1), (1, 200));
        assert_eq!(t.best_for_instance(2), (0, 300)); // tie -> earlier row
        assert_eq!(t.ratio(1, 0), 1.2);
        assert_eq!(t.ratio(0, 1), 1.25);
        assert_eq!(t.wins(), vec![2, 2]); // both tie on z
        assert_eq!(t.head_to_head(0, 1), (1, 1, 1));
    }

    #[test]
    fn csv_shape_and_determinism() {
        let t = tiny();
        let text = t.to_csv().as_str().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "scheduler,x,y,z,wins,mean_ratio");
        assert!(lines[1].starts_with("a,100,250,300,2,"));
        assert_eq!(text, t.to_csv().as_str());
    }

    #[test]
    fn svg_renders() {
        let svg = tiny().win_loss_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains(">a<") && svg.contains(">z<"));
    }

    #[test]
    fn cell_seed_spreads() {
        let s = cell_seed(42, 0, 0);
        assert_ne!(s, cell_seed(42, 0, 1));
        assert_ne!(s, cell_seed(42, 1, 0));
        assert_ne!(s, cell_seed(43, 0, 0));
        assert_eq!(s, cell_seed(42, 0, 0));
    }

    #[test]
    fn observed_tournament_matches_plain_and_yields_metrics() {
        let p = Portfolio::fast();
        let insts = smoke_instances(2);
        let cfg = TournamentConfig {
            base_seed: 7,
            max_threads: 1,
        };
        let plain = run_tournament(&p, &insts, &cfg).unwrap();
        let (observed, reg) = run_tournament_observed(&p, &insts, &cfg, &NullClock).unwrap();
        assert_eq!(plain.makespans, observed.makespans);
        assert_eq!(reg.counter("arena.cells"), (p.len() * 2) as u64);
        assert!(reg.counter("sim.kernel.events") > 0);
        assert!(reg.counter("sched.pool.misses") >= 1);
        // deterministic view is thread-cap invariant
        let (_, par) = run_tournament_observed(
            &p,
            &insts,
            &TournamentConfig {
                base_seed: 7,
                max_threads: 0,
            },
            &NullClock,
        )
        .unwrap();
        assert_eq!(reg.deterministic_only(), par.deterministic_only());
    }

    #[test]
    fn tournament_runs_and_is_thread_cap_invariant() {
        let p = Portfolio::fast();
        let insts = smoke_instances(2);
        let run = |threads| {
            run_tournament(
                &p,
                &insts,
                &TournamentConfig {
                    base_seed: 7,
                    max_threads: threads,
                },
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(0);
        assert_eq!(serial.makespans, parallel.makespans);
        assert_eq!(serial.schedulers.len(), p.len());
        assert_eq!(serial.instances.len(), 2);
        // every makespan is a real schedule length
        assert!(serial.makespans.iter().flatten().all(|&m| m > 0));
    }
}
