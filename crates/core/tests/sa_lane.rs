//! Equality-oracle suite for the delta-table SA fast lane.
//!
//! The exact engine is the oracle. The delta-table lane claims
//! losslessness, so these tests demand *bit-for-bit* agreement:
//! the same accepted-move sequence, the same `f64` costs and trace
//! samples, the same final mapping, and the same RNG stream position.

use anneal_core::annealer::{anneal_packet, AnnealParams, InitRule};
use anneal_core::boltzmann::AcceptanceRule;
use anneal_core::cooling::CoolingSchedule;
use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::lane::{anneal_packet_lane, LaneRun};
use anneal_core::packet::AnnealingPacket;
use anneal_core::{LaneCounters, SaConfig, SaLane, SaScheduler, SaScratch};
use anneal_graph::generate::{layered_random, LayeredConfig, Range};
use anneal_graph::TaskId;
use anneal_sim::{simulate, SimConfig};
use anneal_topology::builders::{hypercube, linear, mesh, ring};
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a packet straight from raw tables (no simulator needed).
fn packet_from(levels: Vec<u64>, comm: Vec<Vec<u64>>, procs: usize) -> AnnealingPacket {
    let worst: Vec<u64> = comm
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .collect();
    AnnealingPacket {
        tasks: (0..levels.len()).map(TaskId::from_index).collect(),
        procs: (0..procs).map(ProcId::from_index).collect(),
        levels,
        comm_cost: comm,
        worst_comm: worst,
        epoch_time: 0,
    }
}

fn params_with(acceptance: AcceptanceRule, init: InitRule, keep_best: bool) -> AnnealParams {
    AnnealParams {
        acceptance,
        init,
        keep_best,
        ..AnnealParams::default()
    }
}

/// Asserts two packet outcomes are identical down to the float bits.
fn assert_outcomes_bitwise(
    exact: &anneal_core::annealer::PacketOutcome,
    fast: &anneal_core::annealer::PacketOutcome,
    ctx: &str,
) {
    assert_eq!(exact.assignment, fast.assignment, "{ctx}: assignment");
    assert_eq!(exact.iterations, fast.iterations, "{ctx}: iterations");
    assert_eq!(exact.moves, fast.moves, "{ctx}: moves");
    assert_eq!(exact.accepted, fast.accepted, "{ctx}: accepted");
    assert_eq!(
        exact.final_cost.to_bits(),
        fast.final_cost.to_bits(),
        "{ctx}: final_cost {} vs {}",
        exact.final_cost,
        fast.final_cost
    );
    let (et, ft) = (exact.trace.as_ref(), fast.trace.as_ref());
    assert_eq!(et.is_some(), ft.is_some(), "{ctx}: trace presence");
    if let (Some(et), Some(ft)) = (et, ft) {
        assert_eq!(et.samples.len(), ft.samples.len(), "{ctx}: trace length");
        for (i, (a, b)) in et.samples.iter().zip(ft.samples.iter()).enumerate() {
            assert_eq!(a.iter, b.iter, "{ctx}: sample {i} iter");
            assert_eq!(a.accepted, b.accepted, "{ctx}: sample {i} accepted");
            for (fa, fb, what) in [
                (a.temp, b.temp, "temp"),
                (a.f_b_raw, b.f_b_raw, "f_b_raw"),
                (a.f_c_raw, b.f_c_raw, "f_c_raw"),
                (a.f_b_norm, b.f_b_norm, "f_b_norm"),
                (a.f_c_norm, b.f_c_norm, "f_c_norm"),
                (a.f_total, b.f_total, "f_total"),
            ] {
                assert_eq!(fa.to_bits(), fb.to_bits(), "{ctx}: sample {i} {what}");
            }
        }
    }
}

/// Runs one packet through the exact lane and the delta-table lane and
/// checks the full lossless contract including the RNG end state.
/// Returns how the delta-table lane resolved its decisions.
fn check_packet_parity(
    pk: &AnnealingPacket,
    params: &AnnealParams,
    wb: f64,
    wc: f64,
    bal: BalanceRange,
    seed: u64,
    scratch: &mut SaScratch,
) -> LaneCounters {
    let ctx = format!(
        "seed={seed} n={} p={} rule={:?} init={:?}",
        pk.num_tasks(),
        pk.num_procs(),
        params.acceptance,
        params.init
    );
    let cm = CostModel::new(pk, wb, wc, bal);
    let mut r1 = StdRng::seed_from_u64(seed);
    let exact = anneal_packet(pk, &cm, params, &mut r1, true);

    let mut r2 = StdRng::seed_from_u64(seed);
    let mut counters = LaneCounters::default();
    let run = LaneRun {
        wb,
        wc,
        balance: bal,
        params,
        lane: SaLane::DeltaTable,
        want_trace: true,
    };
    let fast = anneal_packet_lane(pk, &run, &mut r2, scratch, &mut counters);

    assert_outcomes_bitwise(&exact, &fast, &ctx);
    // The strongest stream guarantee there is: the generators are in
    // the identical internal state afterwards.
    assert_eq!(r1, r2, "{ctx}: RNG state diverged");
    assert_eq!(counters.decisions(), counters.decisions());
    // A 1 × 1 packet proposes moves but never prices one.
    let priced = fast.moves > 0 && (pk.num_tasks() > 1 || pk.num_procs() > 1);
    assert!(counters.decisions() > 0 || !priced, "{ctx}");
    counters
}

/// The hostile packet shapes of
/// `delta_table_lane_is_bit_identical_on_hostile_packets`.
#[derive(Debug, Clone, Copy)]
enum Hostile {
    /// All levels equal: `ΔF_b` falls back to 1.0, so `M/T` is large
    /// and late steps exceed the certificate's error cap.
    EqualLevels,
    /// Levels and comm near 2⁵⁰: exact, but with little headroom.
    Near2Pow50,
    /// Levels summing past 2⁵³: the packet fails the exact-integer
    /// check and every move runs the exact path.
    Over2Pow53,
    /// A linear schedule reaching `T = 0`: frozen steps are never
    /// certified.
    Frozen,
}

impl Hostile {
    const ALL: [Hostile; 4] = [
        Hostile::EqualLevels,
        Hostile::Near2Pow50,
        Hostile::Over2Pow53,
        Hostile::Frozen,
    ];

    fn packet(self, n: usize, procs: usize, rng: &mut StdRng) -> AnnealingPacket {
        let mut draw = |lo: u64, hi: u64| rand::Rng::gen_range(rng, lo..hi);
        let (levels, comm): (Vec<u64>, Vec<Vec<u64>>) = match self {
            Hostile::EqualLevels => (
                vec![3_000_000; n],
                (0..n)
                    .map(|_| (0..procs).map(|_| draw(0, 50_000)).collect())
                    .collect(),
            ),
            Hostile::Near2Pow50 => (
                (0..n).map(|_| (1 << 50) - draw(0, 1 << 20)).collect(),
                (0..n)
                    .map(|_| (0..procs).map(|_| (1 << 50) - draw(0, 1 << 30)).collect())
                    .collect(),
            ),
            Hostile::Over2Pow53 => (
                (0..n.max(3))
                    .map(|_| (1 << 52) - draw(0, 1 << 24))
                    .collect(),
                (0..n.max(3))
                    .map(|_| (0..procs).map(|_| draw(0, 1 << 40)).collect())
                    .collect(),
            ),
            Hostile::Frozen => (
                (0..n).map(|_| draw(1, 200_000)).collect(),
                (0..n)
                    .map(|_| (0..procs).map(|_| draw(0, 50_000)).collect())
                    .collect(),
            ),
        };
        packet_from(levels, comm, procs)
    }

    /// Long runs (no early stop) so the late, cold steps are reached.
    fn params(self, acceptance: AcceptanceRule, init: InitRule, keep_best: bool) -> AnnealParams {
        let cooling = match self {
            Hostile::Frozen => CoolingSchedule::Linear {
                t0: 1.0,
                step: 0.01,
            },
            _ => CoolingSchedule::default_geometric(),
        };
        AnnealParams {
            cooling,
            max_iters: 300,
            stable_iters: u64::MAX,
            ..params_with(acceptance, init, keep_best)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random packets × rules × inits × seeds: the delta-table lane's
    /// accepted-move sequence, costs, traces, mapping and RNG stream
    /// match the exact engine bit-for-bit.
    #[test]
    fn delta_table_lane_is_bit_identical_on_random_packets(
        levels in prop::collection::vec(1u64..200_000, 1..10),
        comm_seed in 0u64..1_000,
        procs in 1usize..8,
        seed in 0u64..500,
        rule_ix in 0usize..2,
        init_ix in 0usize..2,
        keep_best in any::<bool>(),
    ) {
        let n = levels.len();
        let mut crng = StdRng::seed_from_u64(comm_seed);
        let comm: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..procs)
                    .map(|_| rand::Rng::gen_range(&mut crng, 0u64..50_000))
                    .collect()
            })
            .collect();
        let pk = packet_from(levels, comm, procs);
        let rule = [AcceptanceRule::HeatBath, AcceptanceRule::Metropolis][rule_ix];
        let init = [InitRule::Random, InitRule::InOrder][init_ix];
        let params = params_with(rule, init, keep_best);
        let mut scratch = SaScratch::new();
        check_packet_parity(&pk, &params, 0.5, 0.5, BalanceRange::Full, seed, &mut scratch);
        // Scratch reuse across packets must not change anything.
        check_packet_parity(
            &pk,
            &params,
            0.3,
            0.7,
            BalanceRange::PerIdle,
            seed ^ 0x9e37,
            &mut scratch,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packets built to defeat the certified state-free pricing: every
    /// shape must still replay the exact lane bit for bit, and every
    /// one of them must actually reach the exact-path fallback.
    #[test]
    fn delta_table_lane_is_bit_identical_on_hostile_packets(
        case_ix in 0usize..4,
        n in 1usize..8,
        procs in 1usize..6,
        table_seed in 0u64..1_000,
        seed in 0u64..500,
        rule_ix in 0usize..2,
        init_ix in 0usize..2,
        keep_best in any::<bool>(),
    ) {
        let case = Hostile::ALL[case_ix];
        let pk = case.packet(n, procs, &mut StdRng::seed_from_u64(table_seed));
        let rule = [AcceptanceRule::HeatBath, AcceptanceRule::Metropolis][rule_ix];
        let init = [InitRule::Random, InitRule::InOrder][init_ix];
        let params = case.params(rule, init, keep_best);
        let mut scratch = SaScratch::new();
        let counters =
            check_packet_parity(&pk, &params, 0.5, 0.5, BalanceRange::Full, seed, &mut scratch);
        // A 1 × 1 packet proposes no move at all.
        if pk.num_tasks() > 1 || procs > 1 {
            prop_assert!(counters.fallback > 0, "{case:?}: fallback never taken ({counters:?})");
        }
    }
}

/// The degenerate packet shapes, pinned deterministically on top of
/// the proptest: one task, one processor, and both.
#[test]
fn delta_table_lane_is_bit_identical_on_single_task_and_single_proc_packets() {
    let mut scratch = SaScratch::new();
    for (n, procs) in [(1, 1), (1, 4), (5, 1)] {
        for case in Hostile::ALL {
            for rule in [AcceptanceRule::HeatBath, AcceptanceRule::Metropolis] {
                let pk = case.packet(n, procs, &mut StdRng::seed_from_u64(n as u64 * 7 + 1));
                let params = case.params(rule, InitRule::Random, true);
                for seed in 0..4 {
                    check_packet_parity(
                        &pk,
                        &params,
                        0.5,
                        0.5,
                        BalanceRange::Full,
                        seed,
                        &mut scratch,
                    );
                }
            }
        }
    }
}

fn topologies() -> Vec<Topology> {
    vec![hypercube(3), ring(5), mesh(2, 3), linear(4)]
}

fn graph_for(seed: u64) -> anneal_graph::TaskGraph {
    let cfg = LayeredConfig {
        layers: 4,
        width: 6,
        edge_prob: 0.4,
        load: Range::new(2_000, 80_000),
        comm: Range::new(500, 9_000),
    };
    layered_random(&cfg, &mut StdRng::seed_from_u64(seed))
}

/// Full scheduler runs over random graphs × topologies × seeds: both
/// lossless lanes must produce identical schedules, stats, and traces.
#[test]
fn scheduler_lanes_agree_on_random_graphs_and_topologies() {
    for gseed in [3u64, 11] {
        let g = graph_for(gseed);
        for topo in topologies() {
            for seed in [1u64, 42, 97] {
                let run = |lane: SaLane| {
                    let cfg = SaConfig {
                        record_traces: true,
                        ..SaConfig::default().with_seed(seed).with_lane(lane)
                    };
                    let mut s = SaScheduler::new(cfg);
                    let r = simulate(
                        &g,
                        &topo,
                        &CommParams::paper(),
                        &mut s,
                        &SimConfig::default(),
                    )
                    .unwrap();
                    r.audit(&g).unwrap();
                    (r, s)
                };
                let (re, se) = run(SaLane::Exact);
                let (rf, sf) = run(SaLane::DeltaTable);
                let ctx = format!("gseed={gseed} topo={} seed={seed}", topo.name());
                assert_eq!(re.makespan, rf.makespan, "{ctx}: makespan");
                assert_eq!(re.placement, rf.placement, "{ctx}: placement");
                assert_eq!(re.start, rf.start, "{ctx}: start times");
                assert_eq!(re.finish, rf.finish, "{ctx}: finish times");
                assert_eq!(se.stats.packets, sf.stats.packets, "{ctx}: packets");
                assert_eq!(se.stats.moves, sf.stats.moves, "{ctx}: moves");
                assert_eq!(se.stats.accepted, sf.stats.accepted, "{ctx}: accepted");
                assert_eq!(se.stats.assigned, sf.stats.assigned, "{ctx}: assigned");
                assert_eq!(se.traces.len(), sf.traces.len(), "{ctx}: traces");
                for (a, b) in se.traces.iter().zip(sf.traces.iter()) {
                    assert_eq!(a.samples.len(), b.samples.len(), "{ctx}");
                    for (x, y) in a.samples.iter().zip(b.samples.iter()) {
                        assert_eq!(x.f_total.to_bits(), y.f_total.to_bits(), "{ctx}");
                        assert_eq!(x.accepted, y.accepted, "{ctx}");
                    }
                }
                // The lane counters partition every proposal the fast
                // lane actually priced.
                let decisions =
                    sf.stats.lane_shortcut + sf.stats.lane_table + sf.stats.lane_fallback;
                assert!(decisions <= sf.stats.moves, "{ctx}");
                assert!(decisions > 0, "{ctx}: fast lane never engaged");
                assert_eq!(
                    se.stats.lane_shortcut + se.stats.lane_table + se.stats.lane_fallback,
                    0,
                    "{ctx}: exact lane must not touch the table"
                );
            }
        }
    }
}

/// 400+-move drift test: the lane's running `(F_b, F_c)` sums, after
/// hundreds of accepted deltas, still price the final mapping bit for
/// bit like a from-scratch `CostModel` recomputation.
#[test]
fn running_cost_does_not_drift_over_400_moves() {
    let n = 9;
    let p = 5;
    let mut crng = StdRng::seed_from_u64(2024);
    let levels: Vec<u64> = (0..n)
        .map(|_| rand::Rng::gen_range(&mut crng, 1_000u64..150_000))
        .collect();
    let comm: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            (0..p)
                .map(|_| rand::Rng::gen_range(&mut crng, 0u64..40_000))
                .collect()
        })
        .collect();
    let pk = packet_from(levels, comm, p);

    // keep_best = false so `final_cost` is the *running* cost after the
    // last accepted move, not a restored snapshot — exactly the value
    // that would expose accumulated float drift.
    let params = AnnealParams {
        keep_best: false,
        max_iters: 200,
        stable_iters: u64::MAX,
        acceptance: AcceptanceRule::HeatBath,
        ..AnnealParams::default()
    };
    let run = LaneRun {
        wb: 0.5,
        wc: 0.5,
        balance: BalanceRange::Full,
        params: &params,
        lane: SaLane::DeltaTable,
        want_trace: false,
    };
    let mut scratch = SaScratch::new();
    let mut counters = LaneCounters::default();
    let mut rng = StdRng::seed_from_u64(7);
    let out = anneal_packet_lane(&pk, &run, &mut rng, &mut scratch, &mut counters);
    assert!(out.moves >= 400, "only {} moves proposed", out.moves);
    assert!(out.accepted >= 100, "only {} moves accepted", out.accepted);

    // From-scratch recomputation over the final mapping.
    let cm = CostModel::new(&pk, 0.5, 0.5, BalanceRange::Full);
    let (mut fb, mut fc) = (0.0, 0.0);
    for &(t, q) in &out.assignment {
        fb -= pk.levels[t] as f64;
        fc += pk.comm_cost[t][q] as f64;
    }
    let recomputed = cm.total(fb, fc);
    // Bitwise: every table entry is an integer far below 2⁵³, so the
    // running sums are exact and any drift at all is a bug.
    assert_eq!(
        out.final_cost.to_bits(),
        recomputed.to_bits(),
        "drift after {} accepted moves: running {} vs recomputed {}",
        out.accepted,
        out.final_cost,
        recomputed
    );
}

/// `SaScheduler::reseed` replays the identical run without rebuilding
/// the scheduler (the warm path the restart pool uses).
#[test]
fn reseed_replays_identically_with_warm_buffers() {
    let g = graph_for(8);
    let topo = ring(5);
    let mut s = SaScheduler::new(SaConfig::default().with_seed(21));
    let r1 = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    let stats1 = s.stats.clone();
    s.reseed(21);
    let r2 = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.placement, r2.placement);
    assert_eq!(stats1, s.stats);
}
