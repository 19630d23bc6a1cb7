//! Statistical equivalence gate for the turbo SA lane.
//!
//! The turbo lane (`SaLane::Turbo`) is lossy by design — counter-based
//! RNG streams and no-fallback midpoint acceptance both change the
//! annealing trajectory — so unlike the delta-table lane it cannot be
//! gated against the exact lane bit-for-bit. Instead it is gated the way
//! scheduler heuristics are properly compared (final-makespan
//! distributions, not trajectories): exact vs turbo on the frozen
//! corpus plus a campaign-family slice, 32 seeds per instance, bound
//! on the **ratio of mean final makespans**:
//!
//! * no single instance may regress its mean makespan by more than
//!   2%, and
//! * the corpus mean (mean of per-instance ratios) may not regress by
//!   more than 0.5%.
//!
//! This is the same gate the `lane_study` bench binary enforces at
//! corpus scale (`results/LANE_EQUIV.json`); this test keeps it inside
//! plain `cargo test` so a quality regression fails tier-1, not just
//! the bench job. Everything here is deterministic: fixed instances,
//! name-derived seeds, no tolerance on the arithmetic itself — a gate
//! flip always means the lanes' outputs changed.
//!
//! Separately, known-answer pins fix turbo's own output: the final
//! makespans of staged and static SA on the frozen `sa-*` instances,
//! so a refactor of the turbo loop must be byte-neutral to pass.

use anneal_arena::{campaign_instance, load_corpus_dir, regression_seed, ArenaInstance};
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{SaConfig, SaLane, SaScheduler};
use anneal_sim::simulate;

/// Seeds per instance. The ±2% per-instance bound is calibrated at
/// this sample size (matches `lane_study`).
const SEEDS: u64 = 32;
/// Campaign-family instances included next to the frozen corpus.
const CAMPAIGN: usize = 8;
/// Per-instance mean-makespan-ratio ceiling.
const INSTANCE_MEAN_MAX: f64 = 1.02;
/// Corpus-mean (mean of per-instance ratios) ceiling.
const CORPUS_MEAN_MAX: f64 = 1.005;

fn study_instances() -> Vec<ArenaInstance> {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    let mut out: Vec<ArenaInstance> = corpus
        .iter()
        .map(|fi| fi.to_instance().expect("frozen instance replays"))
        .collect();
    assert!(!out.is_empty(), "corpus must hold instances");
    out.extend((0..CAMPAIGN).map(|i| campaign_instance(42, i)));
    out
}

fn staged_makespan(inst: &ArenaInstance, lane: SaLane, seed: u64) -> u64 {
    let mut sched = SaScheduler::new(SaConfig::default().with_seed(seed).with_lane(lane));
    simulate(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &mut sched,
        &inst.sim_cfg,
    )
    .expect("staged SA schedules the study instance")
    .makespan
}

/// Seed `k` of the study stream for `name` — the same derivation
/// `lane_study` uses, so the two gates see identical samples.
fn study_seed(name: &str, k: u64) -> u64 {
    regression_seed("lane-equiv", name).wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[test]
fn turbo_lane_is_statistically_equivalent_to_exact_on_the_corpus() {
    let instances = study_instances();
    let mut ratios = Vec::with_capacity(instances.len());
    for inst in &instances {
        let mut exact_sum = 0.0;
        let mut turbo_sum = 0.0;
        for k in 0..SEEDS {
            let seed = study_seed(&inst.name, k);
            exact_sum += staged_makespan(inst, SaLane::Exact, seed) as f64;
            turbo_sum += staged_makespan(inst, SaLane::Turbo, seed) as f64;
        }
        let ratio = turbo_sum / exact_sum;
        assert!(
            ratio <= INSTANCE_MEAN_MAX,
            "{}: turbo mean makespan regresses {:.2}% vs exact over {SEEDS} seeds \
             (gate: {:.1}%)",
            inst.name,
            (ratio - 1.0) * 100.0,
            (INSTANCE_MEAN_MAX - 1.0) * 100.0
        );
        ratios.push(ratio);
    }
    let corpus_mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        corpus_mean <= CORPUS_MEAN_MAX,
        "turbo corpus-mean makespan ratio {corpus_mean:.4} exceeds the {CORPUS_MEAN_MAX} gate \
         over {} instances x {SEEDS} seeds",
        ratios.len()
    );
}

/// The turbo lane trades the draw-count contract away, but it must
/// still be a pure function of (instance, seed): same inputs, same
/// schedule. Non-determinism here would invalidate the whole
/// equivalence study.
#[test]
fn turbo_lane_is_deterministic_per_seed() {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    for fi in corpus.iter().filter(|fi| fi.name().starts_with("sa-")) {
        let inst = fi.to_instance().expect("frozen instance replays");
        let seed = regression_seed("turbo-det", fi.name());
        let a = staged_makespan(&inst, SaLane::Turbo, seed);
        let b = staged_makespan(&inst, SaLane::Turbo, seed);
        assert_eq!(
            a,
            b,
            "{}: turbo lane must replay bit-identically",
            fi.name()
        );
    }
}

/// `(instance, seed, staged SA makespan, static SA makespan)` on the
/// turbo lane, recorded before the turbo tuning toggles were removed.
const TURBO_PINS: [(&str, u64, u64, u64); 12] = [
    ("sa-chain-star6", 1, 349453, 267908),
    ("sa-chain-star6", 7, 319177, 242158),
    ("sa-chain-star6", 42, 319177, 246019),
    ("sa-gnp-linear4", 1, 313603, 241670),
    ("sa-gnp-linear4", 7, 301675, 297761),
    ("sa-gnp-linear4", 42, 334540, 256540),
    ("sa-layered-torus33", 1, 264306, 246942),
    ("sa-layered-torus33", 7, 248128, 245331),
    ("sa-layered-torus33", 42, 291717, 250484),
    ("sa-sp-binary_tree7", 1, 292627, 262410),
    ("sa-sp-binary_tree7", 7, 279244, 267698),
    ("sa-sp-binary_tree7", 42, 299601, 252131),
];

#[test]
fn turbo_lane_reproduces_its_known_answers_on_the_sa_corpus() {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    for (name, seed, staged, stat) in TURBO_PINS {
        let fi = corpus
            .iter()
            .find(|fi| fi.name() == name)
            .unwrap_or_else(|| panic!("{name} missing from the corpus"));
        let inst = fi.to_instance().expect("frozen instance replays");
        assert_eq!(
            staged_makespan(&inst, SaLane::Turbo, seed),
            staged,
            "{name} seed {seed}: staged SA turbo makespan moved"
        );
        let out = static_sa(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &inst.sim_cfg,
            &StaticSaConfig {
                seed,
                lane: SaLane::Turbo,
                ..StaticSaConfig::default()
            },
        )
        .expect("static SA anneals the frozen instance");
        assert_eq!(
            out.result.makespan, stat,
            "{name} seed {seed}: static SA turbo makespan moved"
        );
    }
}
