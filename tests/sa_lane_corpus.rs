//! Corpus quality gate for the SA lanes (delta-table fast lane PR).
//!
//! On every frozen `corpus/sa-*.tgi` instance, at an equal annealing
//! budget and identical seed, the **delta-table** lane must reproduce
//! the **exact** lane bit-for-bit — same makespan, same placement, same
//! static-SA mapping and accept counts (the lossless-oracle contract,
//! see `docs/ARCHITECTURE.md`, "SA lanes").
//!
//! Both the staged scheduler ([`SaScheduler`] inside [`simulate`]) and
//! the whole-graph annealer ([`static_sa`]) are gated, because the two
//! consume the lane through different code paths (`lane::SaScratch`
//! packet replay vs `lane::AcceptTable` acceptance only).

use anneal_arena::{load_corpus_dir, regression_seed, FrozenInstance};
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{SaConfig, SaLane, SaScheduler};
use anneal_sim::{simulate, SimResult};

fn sa_corpus() -> Vec<FrozenInstance> {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    let sa: Vec<_> = corpus
        .into_iter()
        .filter(|fi| fi.name().starts_with("sa-"))
        .collect();
    assert!(
        !sa.is_empty(),
        "corpus must hold sa-* instances (frozen against staged SA)"
    );
    sa
}

fn run_staged(fi: &FrozenInstance, lane: SaLane) -> SimResult {
    let inst = fi.to_instance().expect("frozen instance replays");
    let seed = regression_seed("sa", fi.name());
    let mut sched = SaScheduler::new(SaConfig::default().with_seed(seed).with_lane(lane));
    simulate(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &mut sched,
        &inst.sim_cfg,
    )
    .expect("staged SA schedules the frozen instance")
}

#[test]
fn delta_table_lane_matches_exact_bitwise_on_the_frozen_sa_corpus() {
    for fi in sa_corpus() {
        let exact = run_staged(&fi, SaLane::Exact);
        let delta = run_staged(&fi, SaLane::DeltaTable);
        assert_eq!(exact.makespan, delta.makespan, "{}", fi.name());
        assert_eq!(exact.placement, delta.placement, "{}", fi.name());
        assert_eq!(exact.start, delta.start, "{}", fi.name());
        assert_eq!(exact.finish, delta.finish, "{}", fi.name());
    }
}

#[test]
fn static_sa_lanes_hold_the_same_contract_on_the_frozen_sa_corpus() {
    for fi in sa_corpus() {
        let inst = fi.to_instance().expect("frozen instance replays");
        let seed = regression_seed("static-sa", fi.name());
        let run = |lane| {
            static_sa(
                &inst.graph,
                &inst.topology,
                &inst.params,
                &inst.sim_cfg,
                &StaticSaConfig {
                    seed,
                    lane,
                    ..StaticSaConfig::default()
                },
            )
            .expect("static SA anneals the frozen instance")
        };
        let exact = run(SaLane::Exact);
        let delta = run(SaLane::DeltaTable);
        assert_eq!(
            exact.result.makespan,
            delta.result.makespan,
            "{}",
            fi.name()
        );
        assert_eq!(exact.mapping, delta.mapping, "{}", fi.name());
        assert_eq!(exact.proposed, delta.proposed, "{}", fi.name());
        assert_eq!(exact.accepted, delta.accepted, "{}", fi.name());
        // The lossless lane must route every decision through the
        // table machinery (shortcuts + buckets + rare fallbacks), and
        // the exact lane must never touch it.
        assert_eq!(exact.lane_counters.decisions(), 0, "{}", fi.name());
        assert_eq!(
            delta.lane_counters.decisions(),
            delta.proposed,
            "{}",
            fi.name()
        );
    }
}
