//! Property-based tests for the simulator: fundamental laws that must
//! hold for any graph, topology and (valid) scheduler, and differential
//! tests of `simulate` and `simulate_makespan` against the test-only
//! reference engine in `reference_engine/`.

mod reference_engine;

use anneal_graph::critical_path::critical_path_length;
use anneal_graph::generate::{gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::units::us;
use anneal_graph::{TaskGraph, TaskId};
use anneal_sim::{
    simulate, simulate_makespan, EpochContext, FixedMapping, GreedyScheduler, OnlineScheduler,
    SimConfig, SimError, SimResult, SimScratch,
};
use anneal_topology::builders::*;
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..30, 0.0f64..0.9, prop::bool::ANY).prop_map(|(seed, n, p, layered)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let load = Range::new(us(1.0), us(60.0));
        let comm = Range::new(0, us(10.0));
        if layered {
            layered_random(
                &LayeredConfig {
                    layers: 1 + n % 5,
                    width: 1 + n / 5,
                    edge_prob: p,
                    load,
                    comm,
                },
                &mut rng,
            )
        } else {
            gnp_dag(n, p, load, comm, &mut rng)
        }
    })
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(hypercube(3)),
        Just(bus(8)),
        Just(ring(9)),
        Just(ring(4)),
        Just(star(5)),
        Just(linear(3)),
        Just(shared_bus(6)),
        Just(mesh(3, 2)),
        Just(linear(1)),
    ]
}

/// A scheduler that folds everything it observes into a running hash:
/// any divergence in the `EpochContext` sequence (epoch times, ready
/// sets, idle sets, placements, finishes) between two simulators
/// changes the hash and therefore the dispatch decisions and the
/// makespan.
#[derive(Default)]
struct Hashing {
    h: u64,
}

impl Hashing {
    fn mix(&mut self, v: u64) {
        let mut z = self.h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.h = z ^ (z >> 31);
    }
}

impl OnlineScheduler for Hashing {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        self.mix(ctx.time);
        for &t in ctx.ready {
            self.mix(t.index() as u64 + 1);
        }
        for &p in ctx.idle {
            self.mix(p.index() as u64 + 101);
        }
        for pl in ctx.placement {
            self.mix(pl.map_or(0, |p| p.index() as u64 + 1));
        }
        for f in ctx.finish {
            self.mix(f.map_or(0, |t| t + 1));
        }
        // Hash-driven assignment: pair ready tasks and idle
        // processors with a rotating offset.
        let k = (self.h % ctx.idle.len() as u64) as usize;
        for (i, &t) in ctx.ready.iter().take(ctx.idle.len()).enumerate() {
            out.push((t, ctx.idle[(i + k) % ctx.idle.len()]));
        }
    }
}

/// [`Hashing`] until epoch `after`, then a fault: `mode` 0 stops
/// assigning (a deadlock once the running work drains), 1 names an
/// unknown task, 2 assigns one task twice, 3 assigns a processor that
/// is not idle.
struct Faulty {
    inner: Hashing,
    after: u32,
    mode: u8,
}

impl OnlineScheduler for Faulty {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        if self.after > 0 {
            self.after -= 1;
            return self.inner.on_epoch(ctx, out);
        }
        let (t, p) = (ctx.ready[0], ctx.idle[0]);
        match self.mode {
            0 => {}
            1 => out.push((TaskId::from_index(ctx.graph.num_tasks()), p)),
            2 => out.extend([(t, p), (t, p)]),
            _ => {
                let busy = ctx.topology.procs().find(|q| !ctx.idle.contains(q));
                out.push((
                    t,
                    busy.unwrap_or(ProcId::from_index(ctx.topology.num_procs())),
                ));
            }
        }
    }
}

/// Asserts that two results agree on every recorded field. The kernel
/// counters `obs.events` and `obs.heap_hwm` are left out: the kernel
/// disarms a preempted compute completion instead of leaving a stale
/// timer in its heap, and keeps running completions outside the heap,
/// so it pops and holds fewer events than the reference engine for the
/// same schedule.
fn assert_same_result(got: &SimResult, want: &SimResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.makespan, want.makespan);
    prop_assert_eq!(got.speedup.to_bits(), want.speedup.to_bits());
    prop_assert_eq!(got.total_work, want.total_work);
    prop_assert_eq!(&got.placement, &want.placement);
    prop_assert_eq!(&got.start, &want.start);
    prop_assert_eq!(&got.finish, &want.finish);
    prop_assert_eq!(&got.busy, &want.busy);
    prop_assert_eq!(&got.comm, &want.comm);
    prop_assert_eq!(&got.packets, &want.packets);
    prop_assert_eq!(&got.gantt.spans, &want.gantt.spans);
    prop_assert_eq!(got.gantt.makespan, want.gantt.makespan);
    prop_assert_eq!(&got.scheduler, &want.scheduler);
    prop_assert_eq!(got.obs.epochs, want.obs.epochs);
    prop_assert_eq!(got.obs.messages, want.obs.messages);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lower bounds: makespan >= critical path and >= total work / P,
    /// and the full audit passes (precedence, conservation, exclusivity).
    #[test]
    fn makespan_bounds_and_audit(g in arb_graph(), topo in arb_topology(), comm in prop::bool::ANY) {
        let params = if comm { CommParams::paper() } else { CommParams::zero() };
        let cfg = SimConfig { comm_enabled: comm, ..SimConfig::default() };
        let r = simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg).unwrap();
        prop_assert!(r.makespan >= critical_path_length(&g));
        let work_bound = g.total_work() / topo.num_procs() as u64;
        prop_assert!(r.makespan >= work_bound);
        r.audit(&g).map_err(TestCaseError::fail)?;
        // All work conserved.
        prop_assert_eq!(r.compute_ns(), g.total_work());
        // Utilization sane.
        let u = r.utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
    }

    /// Without communication, makespan on one processor equals T1 and
    /// speedup equals 1.
    #[test]
    fn single_proc_serializes(g in arb_graph()) {
        let cfg = SimConfig { comm_enabled: false, ..SimConfig::default() };
        let r = simulate(&g, &linear(1), &CommParams::zero(), &mut GreedyScheduler, &cfg).unwrap();
        prop_assert_eq!(r.makespan, g.total_work());
        prop_assert!((r.speedup - 1.0).abs() < 1e-12);
    }

    /// Turning communication on can only slow execution down (with the
    /// same deterministic scheduler, the only change is added latency).
    /// Note: this is NOT true for arbitrary schedulers (Graham
    /// anomalies), but greedy-by-id keeps assignment order stable here
    /// because epochs see the same ready sets in the free case... which
    /// anomalies can break; so we only assert a weak sanity bound:
    /// with-comm makespan >= no-comm critical path.
    #[test]
    fn comm_cannot_beat_free_lower_bound(g in arb_graph(), topo in arb_topology()) {
        let cfg_on = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let r_on = simulate(&g, &topo, &CommParams::paper(), &mut GreedyScheduler, &cfg_on).unwrap();
        prop_assert!(r_on.makespan >= critical_path_length(&g));
        // comm stats consistent
        prop_assert!(r_on.comm.hops >= r_on.comm.messages);
        if topo.num_procs() == 1 {
            prop_assert_eq!(r_on.comm.messages, 0);
        }
    }

    /// Packet accounting: every task is assigned exactly once.
    #[test]
    fn packets_assign_every_task(g in arb_graph(), topo in arb_topology()) {
        let cfg = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let r = simulate(&g, &topo, &CommParams::paper(), &mut GreedyScheduler, &cfg).unwrap();
        prop_assert_eq!(r.packets.assigned, g.num_tasks() as u64);
        prop_assert!(r.packets.packets >= 1);
        prop_assert!(r.packets.total_candidates >= r.packets.assigned);
    }

    /// Start times respect readiness even with messages in flight.
    #[test]
    fn starts_after_preds_with_comm(g in arb_graph(), topo in arb_topology()) {
        let cfg = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let r = simulate(&g, &topo, &CommParams::paper(), &mut GreedyScheduler, &cfg).unwrap();
        for (a, b, _) in g.edges() {
            prop_assert!(r.start[b.index()] >= r.finish[a.index()]);
            // with comm enabled and distinct processors, strictly later
            // unless the message machinery was free (zero overheads).
            if r.placement[a.index()] != r.placement[b.index()] {
                prop_assert!(r.start[b.index()] >= r.finish[a.index()] + CommParams::paper().sigma);
            }
        }
    }

    /// The fast path ([`simulate_makespan`]) is bit-identical to the
    /// reference engine for a stateless online scheduler, with one
    /// scratch reused across every case (graphs and topologies of
    /// wildly different shapes — exactly how the arena workers use it).
    #[test]
    fn fast_path_matches_engine_greedy(g in arb_graph(), topo in arb_topology(), comm in prop::bool::ANY) {
        let params = if comm { CommParams::paper() } else { CommParams::zero() };
        let cfg = SimConfig { comm_enabled: comm, ..SimConfig::default() };
        let slow = reference_engine::simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg).unwrap().makespan;
        let mut scratch = SimScratch::new();
        let fast = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(fast, slow);
        // Re-running on the now-warm scratch changes nothing.
        let again = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(again, slow);
    }

    /// Fast path vs reference engine on random fixed mappings with
    /// random dispatch orders — the preemption- and contention-heavy
    /// case the incremental evaluator also exercises, but through the
    /// public online-scheduler surface.
    #[test]
    fn fast_path_matches_engine_fixed_mapping(g in arb_graph(), topo in arb_topology(), seed in any::<u64>()) {
        let np = topo.num_procs();
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|_| ProcId::from_index(rng.gen_range(0..np))).collect();
        let order: Vec<u64> = (0..g.num_tasks()).map(|_| rng.gen_range(0..8)).collect();
        let params = CommParams::paper();
        let cfg = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let slow = reference_engine::simulate(
            &g, &topo, &params,
            &mut FixedMapping::new(mapping.clone()).with_order(order.clone()),
            &cfg,
        ).unwrap().makespan;
        let mut scratch = SimScratch::new();
        let fast = simulate_makespan(
            &g, &topo, &params,
            &mut FixedMapping::new(mapping).with_order(order),
            &cfg, &mut scratch,
        ).unwrap();
        prop_assert_eq!(fast, slow);
    }

    /// `simulate` agrees with the reference engine field by field, for
    /// greedy, a random fixed mapping with a random dispatch order and
    /// the stateful [`Hashing`] scheduler, each with communication on
    /// and off; every result passes the audit. Faulty schedulers must
    /// produce the same `Deadlock` and `InvalidAssignment` errors.
    #[test]
    fn simulate_matches_reference_engine(
        g in arb_graph(),
        topo in arb_topology(),
        seed in any::<u64>(),
        fault_after in 0u32..12,
        fault_mode in 0u8..4,
    ) {
        let np = topo.num_procs();
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|_| ProcId::from_index(rng.gen_range(0..np))).collect();
        let order: Vec<u64> = (0..g.num_tasks()).map(|_| rng.gen_range(0..8)).collect();
        let schedulers = || -> Vec<Box<dyn OnlineScheduler>> {
            vec![
                Box::new(GreedyScheduler),
                Box::new(FixedMapping::new(mapping.clone()).with_order(order.clone())),
                Box::new(Hashing::default()),
                Box::new(Faulty { inner: Hashing::default(), after: fault_after, mode: fault_mode }),
            ]
        };
        for comm in [true, false] {
            let params = if comm { CommParams::paper() } else { CommParams::zero() };
            let cfg = SimConfig { comm_enabled: comm, ..SimConfig::default() };
            for (mut got_sched, mut want_sched) in schedulers().into_iter().zip(schedulers()) {
                let got = simulate(&g, &topo, &params, got_sched.as_mut(), &cfg);
                let want = reference_engine::simulate(&g, &topo, &params, want_sched.as_mut(), &cfg);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_same_result(&got, &want)?;
                        got.audit(&g).map_err(TestCaseError::fail)?;
                    }
                    (Err(got), Err(want)) => {
                        prop_assert!(
                            matches!(got, SimError::Deadlock { .. } | SimError::InvalidAssignment(_)),
                            "unexpected error {:?}", got
                        );
                        prop_assert_eq!(got, want);
                    }
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "simulate gave {:?}, the reference {:?}",
                            got.map(|r| r.makespan),
                            want.map(|r| r.makespan)
                        )));
                    }
                }
            }
        }
    }
}

fn p(i: usize) -> ProcId {
    ProcId::from_index(i)
}

fn sample_graph(seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    layered_random(
        &LayeredConfig {
            layers: 4,
            width: 5,
            edge_prob: 0.4,
            load: Range::new(us(1.0), us(40.0)),
            comm: Range::new(us(0.5), us(8.0)),
        },
        &mut rng,
    )
}

#[test]
fn greedy_matches_engine_across_topologies_with_one_scratch() {
    let mut scratch = SimScratch::new();
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    for seed in [1, 2, 3] {
        let g = sample_graph(seed);
        for topo in [hypercube(3), ring(5), star(4), shared_bus(4), linear(3)] {
            let slow = reference_engine::simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg)
                .unwrap()
                .makespan;
            let fast =
                simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
                    .unwrap();
            assert_eq!(fast, slow, "seed {seed} on {}", topo.name());
        }
    }
    // The five distinct topologies are all cached now: one build each,
    // and the other two seeds' runs on them are hits.
    let st = scratch.route_cache_stats();
    assert_eq!((st.builds, st.hits), (5, 10));
}

#[test]
fn fixed_mapping_matches_engine() {
    let g = sample_graph(7);
    let n = g.num_tasks();
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..8 {
        let mapping: Vec<ProcId> = (0..n).map(|_| p(rng.gen_range(0..8))).collect();
        let slow = reference_engine::simulate(
            &g,
            &topo,
            &params,
            &mut FixedMapping::new(mapping.clone()),
            &cfg,
        )
        .unwrap()
        .makespan;
        let fast = simulate_makespan(
            &g,
            &topo,
            &params,
            &mut FixedMapping::new(mapping),
            &cfg,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fast, slow);
    }
}

#[test]
fn no_comm_mode_matches_engine() {
    let g = sample_graph(5);
    let topo = bus(4);
    let params = CommParams::zero();
    let cfg = SimConfig {
        comm_enabled: false,
        ..SimConfig::default()
    };
    let mut scratch = SimScratch::new();
    let slow = reference_engine::simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg)
        .unwrap()
        .makespan;
    let fast =
        simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
    assert_eq!(fast, slow);
}

#[test]
fn stateful_scheduler_sees_identical_epoch_sequence() {
    // See `Hashing`: any divergence in the epoch sequence between
    // the reference engine and the fast path changes the makespan.
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    for seed in [3, 9, 27] {
        let g = sample_graph(seed);
        for topo in [hypercube(3), ring(5), shared_bus(4)] {
            let slow =
                reference_engine::simulate(&g, &topo, &params, &mut Hashing::default(), &cfg)
                    .unwrap()
                    .makespan;
            let fast = simulate_makespan(
                &g,
                &topo,
                &params,
                &mut Hashing::default(),
                &cfg,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(fast, slow, "seed {seed} on {}", topo.name());
        }
    }
}
