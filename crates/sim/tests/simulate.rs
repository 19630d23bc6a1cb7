//! Behavioural tests of `simulate()`: hand-computed makespans for the
//! paper's timing model (σ/τ overheads, routing preemption, channel
//! contention, the shared bus), error reporting, packet statistics and
//! work conservation.

use anneal_graph::units::us;
use anneal_graph::{TaskGraph, TaskGraphBuilder, TaskId};
use anneal_sim::{
    simulate, EpochContext, FixedMapping, GreedyScheduler, OnlineScheduler, SimConfig, SimError,
};
use anneal_topology::builders::{bus, hypercube, linear, shared_bus};
use anneal_topology::{CommParams, ProcId};

fn p(i: usize) -> ProcId {
    ProcId::from_index(i)
}

/// a(10us) -> b(20us), one 4us message.
fn two_chain() -> TaskGraph {
    let mut b = TaskGraphBuilder::new();
    let a = b.add_task(us(10.0));
    let c = b.add_task(us(20.0));
    b.add_edge(a, c, us(4.0)).unwrap();
    b.build().unwrap()
}

#[test]
fn single_task_single_proc() {
    let mut b = TaskGraphBuilder::new();
    b.add_task(us(5.0));
    let g = b.build().unwrap();
    let topo = linear(1);
    let mut s = GreedyScheduler;
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.makespan, us(5.0));
    assert_eq!(r.speedup, 1.0);
    r.audit(&g).unwrap();
}

#[test]
fn chain_same_proc_no_comm_cost() {
    let g = two_chain();
    let topo = bus(2);
    let mut s = FixedMapping::new(vec![p(0), p(0)]);
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.makespan, us(30.0));
    assert_eq!(r.comm.messages, 0);
    r.audit(&g).unwrap();
}

#[test]
fn chain_across_neighbors_pays_full_path() {
    // a on P0, b on P1 at distance 1:
    // a: 0..10; sigma on P0: 10..17; transfer: 17..21;
    // receive tau on P1: 21..30; b: 30..50.
    let g = two_chain();
    let topo = linear(2);
    let mut s = FixedMapping::new(vec![p(0), p(1)]);
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.makespan, us(50.0));
    assert_eq!(r.start[1], us(30.0));
    assert_eq!(r.comm.messages, 1);
    assert_eq!(r.comm.transfer_ns, us(4.0));
    assert_eq!(r.comm.overhead_ns, us(16.0)); // sigma + tau
    r.audit(&g).unwrap();
}

#[test]
fn chain_across_distance_two_adds_route_overhead() {
    // P0 -> P2 on a linear array: sigma 10..17, hop1 17..21,
    // route tau on P1 21..30, hop2 30..34, receive tau 34..43,
    // b 43..63.
    let g = two_chain();
    let topo = linear(3);
    let mut s = FixedMapping::new(vec![p(0), p(2)]);
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.makespan, us(63.0));
    assert_eq!(r.comm.hops, 2);
    assert_eq!(r.comm.max_hops, 2);
    assert_eq!(r.comm.overhead_ns, us(25.0)); // sigma + 2 tau
    r.audit(&g).unwrap();
}

#[test]
fn without_comm_mode_is_free() {
    let g = two_chain();
    let topo = linear(3);
    let mut s = FixedMapping::new(vec![p(0), p(2)]);
    let cfg = SimConfig {
        comm_enabled: false,
        ..SimConfig::default()
    };
    let r = simulate(&g, &topo, &CommParams::zero(), &mut s, &cfg).unwrap();
    assert_eq!(r.makespan, us(30.0));
    assert_eq!(r.comm.messages, 0);
    r.audit(&g).unwrap();
}

#[test]
fn routing_preempts_intermediate_compute() {
    // Long task c on P1 gets preempted by a route overhead.
    // a: P0 0..10; c: P1 0..(100, preempted); b: P2.
    // msg a->b: sigma P0 10..17, hop 17..21, route on P1 21..30,
    // hop 30..34, receive P2 34..43, b 43..63.
    // c: runs 0..21, 21..30 preempted, resumes 30..109.
    let mut bld = TaskGraphBuilder::new();
    let a = bld.add_task(us(10.0));
    let c = bld.add_task(us(100.0));
    let b2 = bld.add_task(us(20.0));
    bld.add_edge(a, b2, us(4.0)).unwrap();
    let g = bld.build().unwrap();
    let topo = linear(3);
    let mut s = FixedMapping::new(vec![p(0), p(1), p(2)]);
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.finish[c.index()], us(109.0));
    assert_eq!(r.finish[b2.index()], us(63.0));
    assert_eq!(r.makespan, us(109.0));
    // c has exactly two compute segments
    let segs = r.gantt.task_segments(c);
    assert_eq!(segs.len(), 2);
    assert_eq!((segs[0].start, segs[0].end), (0, us(21.0)));
    assert_eq!((segs[1].start, segs[1].end), (us(30.0), us(109.0)));
    r.audit(&g).unwrap();
}

#[test]
fn channel_contention_serializes_transfers() {
    // Two messages cross the single P0-P1 link in both directions.
    // a on P0 -> c on P1; b on P1 -> d on P0. Both finish at 10.
    // FixedMapping walks idle processors in id order, so d (pinned to
    // P0) is assigned first and its message wins the channel:
    // sigmas 10..17 on both procs; link: b->d 17..21, a->c 21..25.
    // receive on P0 21..30 -> d 30..50 (20us)
    // receive on P1 25..34 -> c 34..54 (20us)
    let mut bld = TaskGraphBuilder::new();
    let a = bld.add_task(us(10.0));
    let b = bld.add_task(us(10.0));
    let c = bld.add_task(us(20.0));
    let d = bld.add_task(us(20.0));
    bld.add_edge(a, c, us(4.0)).unwrap();
    bld.add_edge(b, d, us(4.0)).unwrap();
    let g = bld.build().unwrap();
    let topo = linear(2);
    let mut s = FixedMapping::new(vec![p(0), p(1), p(1), p(0)]);
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.finish[c.index()], us(54.0));
    assert_eq!(r.finish[d.index()], us(50.0));
    r.audit(&g).unwrap();
}

#[test]
fn shared_bus_contends_globally() {
    // Same two messages but on a 3-proc shared bus between disjoint
    // pairs: transfers still serialize.
    let mut bld = TaskGraphBuilder::new();
    let a = bld.add_task(us(10.0));
    let b = bld.add_task(us(10.0));
    let c = bld.add_task(us(20.0));
    let d = bld.add_task(us(20.0));
    bld.add_edge(a, c, us(4.0)).unwrap();
    bld.add_edge(b, d, us(4.0)).unwrap();
    let g = bld.build().unwrap();

    // Dedicated channels: both transfers overlap.
    let mut s1 = FixedMapping::new(vec![p(0), p(1), p(2), p(3)]);
    let rb = simulate(
        &g,
        &bus(4),
        &CommParams::paper(),
        &mut s1,
        &SimConfig::default(),
    )
    .unwrap();
    // Shared bus: second transfer waits.
    let mut s2 = FixedMapping::new(vec![p(0), p(1), p(2), p(3)]);
    let rs = simulate(
        &g,
        &shared_bus(4),
        &CommParams::paper(),
        &mut s2,
        &SimConfig::default(),
    )
    .unwrap();
    assert!(rs.makespan > rb.makespan);
    assert_eq!(rb.makespan, us(10.0 + 7.0 + 4.0 + 9.0 + 20.0));
    assert_eq!(rs.makespan, us(10.0 + 7.0 + 4.0 + 4.0 + 9.0 + 20.0));
    rb.audit(&g).unwrap();
    rs.audit(&g).unwrap();
}

#[test]
fn greedy_diamond_on_hypercube_audits() {
    let mut bld = TaskGraphBuilder::new();
    let a = bld.add_task(us(10.0));
    let x = bld.add_task(us(20.0));
    let y = bld.add_task(us(30.0));
    let d = bld.add_task(us(40.0));
    bld.add_edge(a, x, us(4.0)).unwrap();
    bld.add_edge(a, y, us(4.0)).unwrap();
    bld.add_edge(x, d, us(4.0)).unwrap();
    bld.add_edge(y, d, us(4.0)).unwrap();
    let g = bld.build().unwrap();
    let topo = hypercube(3);
    let mut s = GreedyScheduler;
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    r.audit(&g).unwrap();
    assert!(r.makespan >= us(100.0) - us(10.0)); // cp bound-ish sanity
    assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
}

#[test]
fn makespan_never_beats_critical_path_or_work_bound() {
    let g = anneal_workload_sample();
    let topo = hypercube(3);
    let mut s = GreedyScheduler;
    let cfg = SimConfig {
        comm_enabled: false,
        ..SimConfig::default()
    };
    let r = simulate(&g, &topo, &CommParams::zero(), &mut s, &cfg).unwrap();
    let cp = anneal_graph::critical_path::critical_path_length(&g);
    assert!(r.makespan >= cp);
    assert!(r.makespan >= g.total_work() / 8);
    r.audit(&g).unwrap();
}

fn anneal_workload_sample() -> TaskGraph {
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    layered_random(
        &LayeredConfig {
            layers: 6,
            width: 8,
            edge_prob: 0.3,
            load: Range::new(us(1.0), us(50.0)),
            comm: Range::new(us(1.0), us(8.0)),
        },
        &mut rng,
    )
}

#[test]
fn deadlocking_scheduler_reports_error() {
    struct Lazy;
    impl OnlineScheduler for Lazy {
        fn on_epoch(&mut self, _: &EpochContext<'_>, _: &mut Vec<(TaskId, ProcId)>) {}
    }
    let g = two_chain();
    let topo = bus(2);
    let mut s = Lazy;
    let err = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap_err();
    match err {
        SimError::Deadlock { ready, idle, .. } => {
            assert_eq!(ready, 1);
            assert_eq!(idle, 2);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn invalid_assignments_rejected() {
    struct Bad(u8);
    impl OnlineScheduler for Bad {
        fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
            match self.0 {
                0 => out.push((TaskId::from_index(99), ctx.idle[0])), // unknown task
                1 => {
                    // same proc twice
                    out.push((ctx.ready[0], ctx.idle[0]));
                    out.push((ctx.ready[1], ctx.idle[0]));
                }
                _ => {
                    // same task twice
                    out.push((ctx.ready[0], ctx.idle[0]));
                    out.push((ctx.ready[0], ctx.idle[1]));
                }
            }
        }
    }
    let mut bld = TaskGraphBuilder::new();
    bld.add_task(us(1.0));
    bld.add_task(us(1.0));
    let g = bld.build().unwrap();
    for mode in 0..3u8 {
        let mut s = Bad(mode);
        let err = simulate(
            &g,
            &bus(2),
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidAssignment(_)), "{err}");
    }
}

#[test]
fn packet_stats_counted() {
    // Two independent tasks, one proc: two epochs with one candidate
    // each... actually epoch 1 sees both candidates.
    let mut bld = TaskGraphBuilder::new();
    bld.add_task(us(5.0));
    bld.add_task(us(5.0));
    let g = bld.build().unwrap();
    let topo = linear(1);
    let mut s = GreedyScheduler;
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.packets.packets, 2);
    assert_eq!(r.packets.total_candidates, 3); // 2 then 1
    assert_eq!(r.packets.assigned, 2);
    assert_eq!(r.makespan, us(10.0));
}

#[test]
fn event_limit_guards() {
    let g = two_chain();
    let cfg = SimConfig {
        comm_enabled: true,
        max_events: 1,
    };
    let mut s = FixedMapping::new(vec![p(0), p(1)]);
    let err = simulate(&g, &linear(2), &CommParams::paper(), &mut s, &cfg).unwrap_err();
    assert_eq!(err, SimError::EventLimit);
}

#[test]
fn compute_time_conservation() {
    let g = anneal_workload_sample();
    let topo = hypercube(3);
    let mut s = GreedyScheduler;
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.compute_ns(), g.total_work());
    r.audit(&g).unwrap();
}

#[test]
fn utilization_bounded() {
    let g = anneal_workload_sample();
    let r = simulate(
        &g,
        &hypercube(3),
        &CommParams::paper(),
        &mut GreedyScheduler,
        &SimConfig::default(),
    )
    .unwrap();
    let u = r.utilization();
    assert!(u > 0.0 && u <= 1.0, "{u}");
}

#[test]
fn deterministic_replay() {
    let g = anneal_workload_sample();
    let r1 = simulate(
        &g,
        &hypercube(3),
        &CommParams::paper(),
        &mut GreedyScheduler,
        &SimConfig::default(),
    )
    .unwrap();
    let r2 = simulate(
        &g,
        &hypercube(3),
        &CommParams::paper(),
        &mut GreedyScheduler,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.finish, r2.finish);
    assert_eq!(r1.placement, r2.placement);
}
