//! Direct calls into `core`, `sim` and `arena` on a workload's own
//! instances, for the per-layer numbers that the program does not
//! report itself. The traced run calls these; the untraced runs call
//! only [`static_sa_probe`], for `static_sa_vs_hlf` where no `static-sa`
//! row runs.

use anneal_arena::{ArenaInstance, Portfolio};
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{EvaluatorKind, HlfScheduler, SaConfig, SaLane, SaScheduler};
use anneal_graph::critical_path::critical_path_length;
use anneal_obs::{Clock, WallClock};
use anneal_sim::{simulate, simulate_makespan, SimScratch};

use crate::alloc::count_allocs;
use crate::stats::{geomean_ratio, median};
use crate::trace::Tracer;
use crate::Layer;

/// A schedule can be no shorter than its load-only critical path, nor
/// than its total work spread evenly over every processor.
pub fn makespan_lower_bound(inst: &ArenaInstance) -> u64 {
    let g = &inst.graph;
    let procs = inst.topology.num_procs().max(1) as u64;
    critical_path_length(g).max(g.total_work().div_ceil(procs))
}

/// SplitMix64 of `(base, a, b)`: the benchmark's own seed derivation
/// for per-instance SA seeds.
pub fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    let mut z = base
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Summed `SaScheduler::stats` of a set of solves and their time.
#[derive(Default)]
pub struct SaTotals {
    pub packets: u64,
    pub moves: u64,
    pub accepted: u64,
    pub ns: u64,
}

impl SaTotals {
    pub fn add(&mut self, s: &SaScheduler, ns: u64) {
        self.packets += s.stats.packets;
        self.moves += s.stats.moves;
        self.accepted += s.stats.accepted;
        self.ns += ns;
    }

    pub fn report(&self, out: &mut Layer) {
        out.count("core.sa.packets", self.packets);
        out.count("core.sa.moves", self.moves);
        out.count("core.sa.accepted", self.accepted);
        out.ratio("core.sa.accept_ratio", self.accepted, self.moves);
        out.value(
            "core.sa.ns_per_move",
            self.ns as f64 / self.moves.max(1) as f64,
        );
    }
}

/// Staged SA through the fast path, exactly as a campaign `sa` cell
/// runs it, with seeds the benchmark derives.
pub fn sa(
    insts: &[ArenaInstance],
    lane: SaLane,
    seed: u64,
    clock: &WallClock,
) -> Result<SaTotals, String> {
    let mut scratch = SimScratch::new();
    let mut t = SaTotals::default();
    for (i, inst) in insts.iter().enumerate() {
        let mut s = SaScheduler::new(
            SaConfig::default()
                .with_seed(derive_seed(seed, 1, i as u64))
                .with_lane(lane),
        );
        let start = clock.now_ns();
        simulate_makespan(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &mut s,
            &inst.sim_cfg,
            &mut scratch,
        )
        .map_err(|e| format!("sa on {}: {e}", inst.name))?;
        t.add(&s, clock.now_ns() - start);
    }
    Ok(t)
}

/// Summed `static_sa()` outcomes of a set of runs, their time, and
/// their quality against HLF.
pub struct StaticSaTotals {
    pub evaluations: u64,
    pub proposed: u64,
    pub accepted: u64,
    pub ns: u64,
    /// Geometric mean of static-SA makespan / HLF makespan.
    pub vs_hlf: f64,
}

impl StaticSaTotals {
    pub fn report(&self, out: &mut Layer) {
        out.count("core.static_sa.evaluations", self.evaluations);
        out.ratio("core.static_sa.accept_ratio", self.accepted, self.proposed);
        out.value(
            "core.static_sa.ns_per_eval",
            self.ns as f64 / self.evaluations.max(1) as f64,
        );
    }
}

/// Whole-graph static SA with the portfolio's light settings.
pub fn static_sa_probe(
    insts: &[ArenaInstance],
    evaluator: EvaluatorKind,
    lane: SaLane,
    seed: u64,
    clock: &WallClock,
) -> Result<StaticSaTotals, String> {
    let mut scratch = SimScratch::new();
    let (mut evaluations, mut proposed, mut accepted, mut ns) = (0u64, 0u64, 0u64, 0u64);
    let mut vs_hlf = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        let cfg = StaticSaConfig {
            max_iters: 40,
            stable_iters: 6,
            seed: derive_seed(seed, 2, i as u64),
            evaluator,
            lane,
            ..StaticSaConfig::default()
        };
        let start = clock.now_ns();
        let o = static_sa(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &inst.sim_cfg,
            &cfg,
        )
        .map_err(|e| format!("static_sa on {}: {e}", inst.name))?;
        ns += clock.now_ns() - start;
        evaluations += o.evaluations;
        proposed += o.proposed;
        accepted += o.accepted;
        let hlf = simulate_makespan(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &mut HlfScheduler::new(),
            &inst.sim_cfg,
            &mut scratch,
        )
        .map_err(|e| format!("hlf on {}: {e}", inst.name))?;
        vs_hlf.push((o.result.makespan, hlf));
    }
    Ok(StaticSaTotals {
        evaluations,
        proposed,
        accepted,
        ns,
        vs_hlf: geomean_ratio(&vs_hlf),
    })
}

fn is_heuristic(name: &str) -> bool {
    name != "sa" && name != "static-sa"
}

/// Fast-path kernel cost per event on the heuristic rows, warm scratch.
pub fn kernel(
    insts: &[ArenaInstance],
    portfolio: &Portfolio,
    clock: &WallClock,
    out: &mut Layer,
) -> Result<(), String> {
    let mut scratch = SimScratch::new();
    let (mut events, mut ns) = (0u64, 0u64);
    for inst in insts {
        for e in portfolio
            .entries()
            .iter()
            .filter(|e| is_heuristic(e.name()))
        {
            let start = clock.now_ns();
            e.evaluate_makespan(inst, 0, &mut scratch)
                .map_err(|err| format!("{} on {}: {err}", e.name(), inst.name))?;
            ns += clock.now_ns() - start;
            events += scratch.last_run_stats().events;
        }
    }
    out.value("sim.kernel.ns_per_event", ns as f64 / events.max(1) as f64);
    Ok(())
}

/// `simulate()` (the full engine) with HLF, and `SimResult::audit`.
pub fn engine(insts: &[ArenaInstance], clock: &WallClock, out: &mut Layer) -> Result<(), String> {
    let (mut solve, mut audit) = (Vec::new(), Vec::new());
    for inst in insts {
        let start = clock.now_ns();
        let r = simulate(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &mut HlfScheduler::new(),
            &inst.sim_cfg,
        )
        .map_err(|e| format!("simulate on {}: {e}", inst.name))?;
        let mid = clock.now_ns();
        r.audit(&inst.graph)
            .map_err(|e| format!("audit on {}: {e}", inst.name))?;
        let end = clock.now_ns();
        solve.push((mid - start) as f64);
        audit.push((end - mid) as f64);
    }
    out.value("sim.engine.solve_ns", median(&solve));
    out.value("sim.audit_ns", median(&audit));
    Ok(())
}

/// Allocations per warm `evaluate_makespan` call, per row class.
pub fn allocations(
    insts: &[ArenaInstance],
    portfolio: &Portfolio,
    out: &mut Layer,
) -> Result<(), String> {
    let mut scratch = SimScratch::new();
    // (sa, heuristics, static-sa): (allocations, cells)
    let mut by_class = [(0u64, 0u64); 3];
    for (i, inst) in insts.iter().enumerate() {
        for e in portfolio.entries() {
            let class = match e.name() {
                "sa" => 0,
                "static-sa" => 2,
                _ => 1,
            };
            let seed = derive_seed(3, class as u64, i as u64);
            let mut cell = || {
                e.evaluate_makespan(inst, seed, &mut scratch)
                    .map_err(|err| format!("{} on {}: {err}", e.name(), inst.name))
            };
            cell()?;
            let (r, n) = count_allocs(&mut cell);
            r?;
            by_class[class].0 += n;
            by_class[class].1 += 1;
        }
    }
    let per_cell = |(n, cells): (u64, u64)| {
        if cells == 0 {
            0.0
        } else {
            n as f64 / cells as f64
        }
    };
    out.value("arena.allocs_per_cell.sa", per_cell(by_class[0]));
    out.value("arena.allocs_per_cell.heuristics", per_cell(by_class[1]));
    out.value("arena.allocs_per_cell.static_sa", per_cell(by_class[2]));
    Ok(())
}

/// Runs the static-SA, kernel, engine and allocation probes, each under
/// its own top-level span.
pub fn run_all(
    insts: &[ArenaInstance],
    evaluator: EvaluatorKind,
    lane: SaLane,
    seed: u64,
    clock: &WallClock,
    tracer: &Tracer,
    out: &mut Layer,
) -> Result<(), String> {
    tracer
        .span("probe.core.static_sa", || {
            static_sa_probe(insts, evaluator, lane, seed, clock)
        })?
        .report(out);
    // The standard portfolio carries every row class, static-sa included.
    let portfolio = Portfolio::standard_with_lanes(evaluator, lane);
    tracer.span("probe.sim.kernel", || kernel(insts, &portfolio, clock, out))?;
    tracer.span("probe.sim.engine", || engine(insts, clock, out))?;
    tracer.span("probe.arena.allocs", || {
        allocations(
            &insts[..insts.len().min(ALLOC_PROBE_INSTANCES)],
            &portfolio,
            out,
        )
    })
}

/// Instances the allocation probe covers (each costs two evaluations
/// of every portfolio row, static SA included).
const ALLOC_PROBE_INSTANCES: usize = 24;
