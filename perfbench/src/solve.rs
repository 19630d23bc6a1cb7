//! The `solve-paper` workload: one client scheduling each paper
//! program on each paper host, with and without communication, through
//! `simulate()` with `SaScheduler` and then `SimResult::audit` — the
//! `annealsched` CLI and library path.

use anneal_arena::ArenaInstance;
use anneal_core::{EvaluatorKind, HlfScheduler, SaConfig, SaScheduler};
use anneal_obs::{Clock, WallClock};
use anneal_sim::{simulate, SimConfig, SimResult};
use anneal_topology::builders::paper_architectures;
use anneal_topology::CommParams;
use anneal_workloads::paper_workloads;

use crate::probes::{self, derive_seed, makespan_lower_bound, SaTotals};
use crate::stats::{geomean_ratio, median};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::{latency_metrics, Layer, Outcome};

/// SA seeds per configuration in one sweep; a sweep is 24 × this
/// many solves.
const SEEDS_PER_SWEEP: u64 = 10;
/// Set-up repetitions whose median is reported.
const SETUP_REPS: usize = 9;
/// Static-SA seeds per configuration in the untraced quality probe:
/// 48 runs keep its spread across seeds near the campaigns'.
const STATIC_SEEDS_PER_CONFIG: usize = 2;

/// The 24 paper configurations: 4 programs × 3 hosts × with/without
/// communication, as the CLI builds them.
fn configurations() -> Vec<ArenaInstance> {
    let mut out = Vec::new();
    for (pname, g) in paper_workloads() {
        for topo in paper_architectures() {
            for comm in [true, false] {
                let params = if comm {
                    CommParams::paper()
                } else {
                    CommParams::zero()
                };
                let name = format!(
                    "{pname}-{}-{}",
                    topo.name(),
                    if comm { "comm" } else { "nocomm" }
                );
                out.push(
                    ArenaInstance::new(name, g.clone(), topo.clone())
                        .with_params(params)
                        .with_sim_config(SimConfig {
                            comm_enabled: comm,
                            ..SimConfig::default()
                        }),
                );
            }
        }
    }
    out
}

fn hlf(inst: &ArenaInstance) -> Result<SimResult, String> {
    let r = simulate(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &mut HlfScheduler::new(),
        &inst.sim_cfg,
    )
    .map_err(|e| format!("hlf on {}: {e}", inst.name))?;
    r.audit(&inst.graph)
        .map_err(|e| format!("hlf audit on {}: {e}", inst.name))?;
    Ok(r)
}

fn sa_seed(seed: u64, config: usize, k: u64) -> u64 {
    derive_seed(seed, config as u64, k)
}

/// One SA solve, CLI-style. Returns the scheduler (for its statistics)
/// and the result, or why the solve failed.
fn solve(
    inst: &ArenaInstance,
    seed: u64,
    tracer: &Tracer,
) -> (SaScheduler, Result<SimResult, String>) {
    let mut s = SaScheduler::new(SaConfig::default().with_seed(seed));
    let r = tracer
        .span("core.sa.solve", || {
            simulate(
                &inst.graph,
                &inst.topology,
                &inst.params,
                &mut s,
                &inst.sim_cfg,
            )
        })
        .map_err(|e| format!("sa on {}: {e}", inst.name))
        .and_then(|r| {
            tracer
                .span("sim.audit", || r.audit(&inst.graph))
                .map_err(|e| format!("audit on {}: {e}", inst.name))?;
            if r.makespan < makespan_lower_bound(inst) {
                return Err(format!("{}: makespan below its lower bound", inst.name));
            }
            Ok(r)
        });
    (s, r)
}

/// Set-up: the configurations, their HLF references and one warm-up
/// solve each. The warm-up seeds do not depend on the workload seed,
/// so set-up does the same work on every run. A failed solve leaves a
/// reference of 0 and is returned with the others.
fn setup() -> (Vec<ArenaInstance>, Vec<u64>, Vec<String>) {
    let configs = configurations();
    let off = Tracer::new(WallClock::new(), false);
    let mut refs = Vec::with_capacity(configs.len());
    let mut errors = Vec::new();
    for (c, inst) in configs.iter().enumerate() {
        refs.push(hlf(inst).map(|r| r.makespan).unwrap_or_else(|e| {
            errors.push(e);
            0
        }));
        if let Err(e) = solve(inst, sa_seed(0, c, 0), &off).1 {
            errors.push(e);
        }
    }
    (configs, refs, errors)
}

/// Counts set-up's solves and their failures.
fn count_setup(out: &mut Outcome, configs: usize, errors: &[String]) {
    out.attempted += 2 * configs as u64;
    out.failed += errors.len() as u64;
    for e in errors {
        out.fail(e);
    }
}

pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let clock = WallClock::new();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = clock.now_ns();
        built = Some(setup());
        setups.push((clock.now_ns() - t) as f64 / 1e9);
    }
    let (configs, refs, errors) = built.expect("at least one set-up");
    count_setup(&mut out, configs.len(), &errors);
    let off = Tracer::new(clock, false);

    // Closed loop, one client: each solve starts when the last ends.
    // Every sweep repeats the same seeds, so sweeps must agree.
    let mut first: Vec<u64> = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut sweeps = Vec::new();
    let started = clock.now_ns();
    while sweeps.is_empty() || ((clock.now_ns() - started) as f64) < seconds * 1e9 {
        let sweep_start = clock.now_ns();
        let mut makespans = Vec::with_capacity(first.len());
        for (c, inst) in configs.iter().enumerate() {
            for k in 0..SEEDS_PER_SWEEP {
                let t = clock.now_ns();
                let (_, r) = solve(inst, sa_seed(seed, c, k), &off);
                latencies_ms.push((clock.now_ns() - t) as f64 / 1e6);
                out.attempted += 1;
                match r {
                    Ok(r) => makespans.push(r.makespan),
                    Err(e) => {
                        out.failed += 1;
                        out.fail(&e);
                        makespans.push(0);
                    }
                }
            }
        }
        sweeps.push((clock.now_ns() - sweep_start) as f64 / 1e9);
        if first.is_empty() {
            first = makespans;
        } else if makespans != first {
            let diff = makespans.iter().zip(&first).filter(|(a, b)| a != b).count();
            out.failed += diff as u64;
            out.fail("a sweep's makespans differ from the first sweep's");
        }
    }
    let pairs: Vec<(u64, u64)> = first
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, refs[i / SEEDS_PER_SWEEP as usize]))
        .collect();
    let wall = median(&sweeps);
    out.e2e("wall_s", wall);
    out.e2e(
        "cells_per_s",
        (configs.len() as u64 * SEEDS_PER_SWEEP) as f64 / wall,
    );
    latency_metrics(&mut out, latencies_ms);
    out.e2e("setup_s", median(&setups));
    out.e2e("peak_rss_mb", sys::self_peak_rss_kib() as f64 / 1024.0);
    out.e2e("sa_vs_hlf", geomean_ratio(&pairs));
    // Static SA is not on the solve path; its quality comes from the
    // direct probe on the configurations, untimed. Each repeat of a
    // configuration gets its own derived seed.
    let repeated: Vec<ArenaInstance> = configs
        .iter()
        .cycle()
        .take(configs.len() * STATIC_SEEDS_PER_CONFIG)
        .cloned()
        .collect();
    out.attempted += repeated.len() as u64;
    let static_vs_hlf = probes::static_sa_probe(
        &repeated,
        EvaluatorKind::default(),
        SaConfig::default().lane,
        seed,
        &clock,
    )
    .map(|t| t.vs_hlf)
    .unwrap_or_else(|e| {
        out.failed += repeated.len() as u64;
        out.fail(&e);
        f64::NAN
    });
    out.e2e("static_sa_vs_hlf", static_vs_hlf);
    out.note(format!("sweeps {}, sweep wall_s {sweeps:?}", sweeps.len()));
    out.provenance = vec![("sa-lane".to_string(), SaConfig::default().lane.to_string())];
    Ok(out)
}

/// Layers the solve path does not run; their per-layer numbers are 0.
const NOT_ON_PATH: [&str; 15] = [
    "core.static_sa.cell_ns",
    "sched.route_cache.hits",
    "sched.route_cache.builds",
    "sched.pool.hits",
    "sched.pool.misses",
    "arena.cells",
    "arena.shard_ns",
    "arena.idle_ns",
    "fleet.worker_ns",
    "fleet.overhead_ns",
    "fleet.leases_acquired",
    "fleet.artifact_bytes",
    "report.scan_ns",
    "report.merge_ns",
    "report.commit_ns",
];

pub fn traced(seed: u64) -> Result<(Outcome, Layer), String> {
    let clock = WallClock::new();
    let mut out = Outcome::default();
    let mut layer = Layer::default();
    let plain = Tracer::new(clock, false);
    let tracer = Tracer::new(clock, true);

    // One untraced sweep, for the overhead and to show that tracing
    // changes no schedule.
    let (configs, _, errors) = setup();
    count_setup(&mut out, configs.len(), &errors);
    let mut untraced = Vec::new();
    let t0 = clock.now_ns();
    for (c, inst) in configs.iter().enumerate() {
        for k in 0..SEEDS_PER_SWEEP {
            untraced.push(
                solve(inst, sa_seed(seed, c, k), &plain)
                    .1
                    .map(|r| r.makespan),
            );
        }
    }
    let untraced_ns = clock.now_ns() - t0;
    let mut untraced = untraced.into_iter();

    let start = clock.now_ns();
    let configs = tracer.span("arena.gen", configurations);
    let mut refs = Vec::new();
    for inst in &configs {
        refs.push(tracer.span("core.hlf.solve", || hlf(inst))?.makespan);
    }
    let mut totals = SaTotals::default();
    let (mut events, mut messages, mut epochs) = (0, 0, 0);
    let s0 = clock.now_ns();
    for (c, inst) in configs.iter().enumerate() {
        for k in 0..SEEDS_PER_SWEEP {
            let t = clock.now_ns();
            let (s, r) = solve(inst, sa_seed(seed, c, k), &tracer);
            let ns = clock.now_ns() - t;
            out.attempted += 1;
            let same = untraced.next().and_then(Result::ok) == r.as_ref().ok().map(|r| r.makespan);
            match r {
                Ok(_) if !same => {
                    out.failed += 1;
                    out.fail("a traced solve differs from its untraced run");
                }
                Ok(r) => {
                    events += r.obs.events;
                    messages += r.obs.messages;
                    epochs += r.obs.epochs;
                    totals.add(&s, ns);
                }
                Err(e) => {
                    out.failed += 1;
                    out.fail(&e);
                }
            }
        }
    }
    let traced_ns = clock.now_ns() - s0;
    probes::run_all(
        &configs,
        EvaluatorKind::default(),
        SaConfig::default().lane,
        seed,
        &clock,
        &tracer,
        &mut layer,
    )?;
    let wall_ns = clock.now_ns() - start;

    let spans = tracer.spans();
    totals.report(&mut layer);
    layer.value(
        "core.sa.cell_ns",
        trace::total_ns(&spans, "core.sa.solve") as f64,
    );
    layer.value(
        "core.heuristics.cell_ns",
        trace::total_ns(&spans, "core.hlf.solve") as f64,
    );
    layer.count("sim.kernel.events", events);
    layer.count("sim.kernel.messages", messages);
    layer.count("sim.kernel.epochs", epochs);
    layer.value("arena.gen_ns", trace::total_ns(&spans, "arena.gen") as f64);
    for k in NOT_ON_PATH {
        layer.value(k, 0.0);
    }
    layer.value(
        "trace.overhead_s",
        (traced_ns as f64 - untraced_ns as f64) / 1e9,
    );
    layer.value(
        "trace.unattributed_ns",
        trace::unattributed_ns(&spans, wall_ns) as f64,
    );
    crate::write_spans(
        &sys::work_dir("solve-paper", seed),
        "solve-paper",
        seed,
        &spans,
    );
    out.provenance = vec![("sa-lane".to_string(), SaConfig::default().lane.to_string())];
    Ok((out, layer))
}
