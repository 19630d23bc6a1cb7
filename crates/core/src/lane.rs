//! Delta-table SA fast lane (ROADMAP: "heuristic-priced staged-SA
//! cells with an exact-engine equality oracle").
//!
//! The staged-SA inner loop of [`crate::annealer::anneal_packet`] pays,
//! per proposed move, two nested-`Vec` cost-table lookups, two eq. 6
//! normalizations, a transcendental `exp()` inside the heat-bath rule,
//! and two generic `gen_range` draws. None of that work needs to be
//! that expensive: the per-packet cost tables of eqs. 2–5 are constants
//! that flatten into contiguous rows, the eq. 6 total is a pure
//! function of two running sums, the Boltzmann curve can be bracketed
//! once into a quantized lookup table, and the RNG rejection zones are
//! pure functions of the (fixed) packet shape.
//!
//! This module packages those observations as a **lane** the schedulers
//! select with [`SaLane`]. There are two:
//!
//! * [`SaLane::Exact`] — the original engine, unchanged. It is the
//!   oracle the delta-table lane is judged against.
//! * [`SaLane::DeltaTable`] — the fast lane in its *lossless* table
//!   configuration: every accept/reject decision, every RNG draw, and
//!   every floating-point cost value is **bit-identical** to the exact
//!   lane. Where the quantized acceptance table cannot prove a decision
//!   (the proposal's `u` lands inside the table's conservative error
//!   band, or the bucket brushes `p == 1.0` where the draw count itself
//!   is at stake) it falls back to the exact `exp()` path, so
//!   losslessness is a theorem, not a tolerance. The default lane.
//!
//! # The oracle contract
//!
//! For every packet, every seed, and every [`AnnealParams`]
//! configuration, the `DeltaTable` lane must produce the same accepted
//! move sequence, the same trace samples (bit-equal `f64`s), the same
//! final mapping, and leave the RNG in the same state as the exact
//! lane. `crates/core/tests/sa_lane.rs` pins this property with
//! proptests; `tests/sa_lane_corpus.rs` pins it on the frozen corpus.
//!
//! # Certified state-free pricing
//!
//! The exact lane decides a move on `x = fl(fl(total(F_b+ΔF_b,
//! F_c+ΔF_c) − cost)/T)`: two eq. 6 divisions, a subtraction and a
//! division stand between the move's table lookups and its
//! accept/reject branch. [`SaScratch::anneal_loaded`] decides on the
//! state-free `x̃ = (k_b·ΔF_b + k_c·ΔF_c)/T` instead (`k_b = w_b/ΔF_b`,
//! `k_c = w_c/ΔF_c`), computed straight in bucket-index space with one
//! per-step factor `1/(T·w)`, and proves each decision equal to the
//! exact one.
//!
//! * **Exact-integer invariant.** Levels and eq. 4 costs are integers.
//!   `load_packet`/`load_epoch` check once per packet that `Σ levels`
//!   and `Σ_t max_j comm` are below 2⁵³. Then every running `F_b`, `F_c`,
//!   every `ΔF_b`, `ΔF_c` and every intermediate sum of the verbatim
//!   pricing expressions is an exact integer. The running sums cannot
//!   drift: they equal a from-scratch `raw_full()` bit for bit.
//! * **The bound `E_k`.** With `u = 2⁻⁵³` and `M = k_b·Σlv +
//!   k_c·Σ_t max_j cc` (which bounds `|k_b F_b| + |k_c F_c|` for every
//!   mapping, and `|D|` for `D = k_b ΔF_b + k_c ΔF_c`): each eq. 6 term
//!   carries two roundings and the sum one, so `cost` and `cand` are
//!   each within `3u·M` of their real values. The subtraction adds
//!   `u·|delta|` and the division `u·|x|`, so `|x − D/T| ≤ 8u·M/T`.
//!   `x̃`'s five roundings add `6u·M/T`, and the index-space offset adds
//!   `O(u·|x_lo|)`. So `|x − x̃| ≤ 15u·M/T + O(10⁻¹⁴)`. The lane takes
//!   `E_k = 32u·M/T_k + 10⁻¹²` per temperature step.
//! * **Decisions.** With `s` the rule's slope bound (¼ for the heat
//!   bath, 1 for Metropolis on `x > 0`), `p(x)` lies within `s·E_k` of
//!   the bracket of `x̃`'s bucket. Where one draw is certain, the lane
//!   draws `u` and accepts on `u < lo − s·E_k`, rejects on `u ≥ hi +
//!   s·E_k`. Past the last bucket the tail bracket `[0, p(tail_from) +
//!   slack]` applies. Where `x̃` is more than `E_k` past the −37 edge
//!   (Metropolis: 0) the move is accepted without a draw; more than
//!   `E_k` past 700 it is rejected without a draw (heat bath only).
//! * **Fallbacks.** Every case the bound cannot prove runs the exact
//!   lane's expression:
//!   - a draw inside the widened band is settled as `u < p(delta)` with
//!     the same `u`;
//!   - an `x̃` within `E_k` of a region edge is decided before any draw,
//!     through [`AcceptTable::accept_lossless`] on the exact `delta`.
//!     The edges are the −37 accept-without-draw edge, the 700 no-draw
//!     reject edge, Metropolis' 0, and the last `exact` bucket, where
//!     `p` may round to 1;
//!   - so is every move of a step with a frozen `T ≤ TEMP_EPSILON`,
//!     with `E_k > 10⁻³` (the band would swallow whole buckets), or
//!     with a non-finite `T` or `E_k`;
//!   - so is every move of a packet that fails the 2⁵³ check (`M = ∞`).
//!
//!   Decisions, the RNG stream, traces and outcomes therefore stay
//!   bit-identical to [`SaLane::Exact`]. The exact `total()` runs on
//!   accepted moves (for the new running cost) and on fallbacks only.
//! * **Counters.** `shortcut` counts certified no-draw decisions,
//!   `table` certified one-draw decisions, and `fallback` every
//!   decision that needed the exact eq. 6 delta. They still partition
//!   the priced moves, but the split can differ from the per-move
//!   table lookup this replaced: a frozen or uncertified step now
//!   counts as fallbacks.
//! * **Temperature memo.** [`SaScratch`] memoizes
//!   `cooling.temperature(k)` per schedule. It is the same expression
//!   with the same bits, evaluated once per step index per scratch
//!   instead of once per packet.
//!
//! Debug builds shadow the loop. At every temperature-step boundary the
//! running `(F_b, F_c, cost)` must equal `raw_full()`/`total()` bit for
//! bit. Every certified decision must equal the exact rule on the exact
//! delta for the same `u`, and a certified no-draw decision must have
//! `p ∈ {0, 1}`. These checks consume no draw.

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use anneal_graph::Work;
use anneal_sim::EpochContext;
use anneal_topology::ProcId;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

use crate::annealer::{AnnealParams, InitRule, PacketOutcome};
use crate::boltzmann::{accept, acceptance_probability, AcceptanceRule, TEMP_EPSILON};
use crate::cooling::CoolingSchedule;
use crate::cost::{BalanceRange, CostModel};
use crate::packet::AnnealingPacket;
use crate::trace::{PacketTrace, TraceSample};
use anneal_graph::TaskId;

/// Which implementation of the staged-SA inner loop a scheduler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SaLane {
    /// The original per-move `exp()` + nested-table engine (the
    /// oracle).
    Exact,
    /// Flat delta tables + lossless quantized acceptance: bit-identical
    /// to [`SaLane::Exact`], faster. The default.
    #[default]
    DeltaTable,
}

impl SaLane {
    /// Every lane, in CLI/display order (what `--sa-lane` accepts).
    pub const ALL: [SaLane; 2] = [SaLane::Exact, SaLane::DeltaTable];

    /// Stable lowercase name (CSV provenance, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            SaLane::Exact => "exact",
            SaLane::DeltaTable => "delta-table",
        }
    }

    /// The valid `--sa-lane` values as a human-readable list (CLI help
    /// and bad-argument errors).
    pub fn name_list() -> String {
        SaLane::ALL
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for SaLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SaLane {
    type Err = String;

    /// Case-insensitive: `Exact`, `EXACT` and `exact` all parse.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        SaLane::ALL
            .iter()
            .find(|l| l.name() == lower)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unknown SA lane '{s}' (expected one of: {})",
                    SaLane::name_list()
                )
            })
    }
}

/// How the fast lane resolved its acceptance decisions; flushed through
/// `anneal-obs` so `--metrics` shows the table's hit profile.
///
/// In [`SaScratch::anneal_loaded`], `fallback` counts every decision
/// that needed the exact eq. 6 delta, including frozen and uncertified
/// steps (module docs, "Certified state-free pricing"). In
/// [`AcceptTable::accept_lossless`] the fields mean what they say below.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounters {
    /// Decided with neither a table lookup nor an `exp()`: frozen
    /// temperature, a sure accept (`p == 1`), or a sure reject
    /// (`p == 0`).
    pub shortcut: u64,
    /// Decided by the quantized table bounds alone (no `exp()`).
    pub table: u64,
    /// Needed the exact Boltzmann evaluation (`u` inside the table's
    /// conservative error band, or a bucket where the draw count is
    /// uncertain).
    pub fallback: u64,
}

impl LaneCounters {
    /// Total decisions taken.
    pub fn decisions(&self) -> u64 {
        self.shortcut + self.table + self.fallback
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &LaneCounters) {
        self.shortcut += other.shortcut;
        self.table += other.table;
        self.fallback += other.fallback;
    }
}

/// Bit-exact replica of the vendored RNG's private `unit_f64` — the
/// same `[0, 1)` sample `gen_bool` consumes, so a table decision and an
/// exact `gen_bool` decision read identical bits from the stream.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A precomputed draw plan for `gen_range(0..bound)`: the vendored
/// RNG's zone-rejection constants are pure functions of `bound`, so
/// computing them once per packet removes two 64-bit divisions per
/// proposal while consuming the exact same `next_u64` stream.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// `bound` is a power of two: a single masked draw.
    Mask(u64),
    /// General case: zone rejection, identical to `u64_below`.
    Zone {
        /// The exclusive upper bound.
        bound: u64,
        /// Largest `v` that keeps `v % bound` unbiased.
        zone: u64,
    },
}

impl Default for Draw {
    fn default() -> Self {
        Draw::Mask(0)
    }
}

impl Draw {
    fn new(bound: u64) -> Self {
        debug_assert!(bound >= 1);
        if bound.is_power_of_two() {
            Draw::Mask(bound - 1)
        } else {
            Draw::Zone {
                bound,
                zone: u64::MAX - (u64::MAX - bound + 1) % bound,
            }
        }
    }

    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        match self {
            Draw::Mask(m) => (rng.next_u64() & m) as usize,
            Draw::Zone { bound, zone } => loop {
                let v = rng.next_u64();
                if v <= zone {
                    return (v % bound) as usize;
                }
            },
        }
    }
}

/// One quantization bucket over `x = delta / temp`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// `u < lo` proves accept (`lo ≤ p` everywhere in the bucket).
    lo: f64,
    /// `u ≥ hi` proves reject (`hi ≥ p` everywhere in the bucket).
    hi: f64,
    /// The bucket brushes `p == 1.0`, where even the *number* of RNG
    /// draws depends on the exact probability — delegate wholesale.
    exact: bool,
}

/// A quantized Boltzmann acceptance table for one [`AcceptanceRule`],
/// built once per process ([`accept_table`]).
///
/// The acceptance probability of both rules is a monotone decreasing
/// function of `x = delta / temp` alone, so one table per rule covers
/// every `(delta, temp)` pair. The active region is split into `N`
/// buckets storing conservative probability brackets `[lo, hi]`
/// (bucket-edge probabilities widened by a slack that dominates the
/// few-ulp `exp` evaluation error); outside it the decision is a
/// region shortcut (`p` provably 0 or 1, or so small only `u == 0.0`
/// accepts). A uniform draw `u` outside `[lo, hi)` is decided by the
/// table; inside it, [`AcceptTable::accept_lossless`] re-evaluates the exact
/// probability with the *already drawn* `u`, preserving both the
/// decision and the stream position bit-for-bit.
#[derive(Debug)]
pub struct AcceptTable {
    rule: AcceptanceRule,
    x_lo: f64,
    inv_w: f64,
    /// Accept without drawing for `x ≤ accept_below` (`p == 1.0`
    /// provably, matching the exact lane's `p >= 1.0` short-circuit).
    accept_below: f64,
    /// Above this `x` the exact probability may hit 0.0 (no draw) —
    /// `HeatBath` proves reject (its own overflow guard), `Metropolis`
    /// delegates to the exact path.
    reject_above: f64,
    /// `x ∈ [tail_from, reject_above]`: `p` is positive but below the
    /// smallest nonzero `u` (`2⁻⁵³`), so the draw accepts iff
    /// `u == 0.0`.
    tail_from: f64,
    buckets: Vec<Bucket>,
    // Certified state-free pricing (`SaScratch::anneal_loaded`), in
    // bucket-index space `y = (x − x_lo)/w`.
    /// `x_lo/w`: `y = x/w − off`.
    off: f64,
    /// Index of the first bucket not marked `exact`: from its left edge
    /// on, `p < 1`, so the exact lane draws exactly once.
    drawn_from: f64,
    /// `reject_above` in index space.
    y_reject: f64,
    /// Upper bracket of the whole tail `x ≥ tail_from`.
    tail_hi: f64,
    /// Bound on `|dp/dx|` over the draw region: ¼ for the heat bath
    /// (the sigmoid's slope at 0), 1 for Metropolis (`x > 0` there).
    slope: f64,
}

/// Per-temperature-step constants of the certified state-free pricing
/// in [`SaScratch::anneal_loaded`], in bucket-index space. A move's
/// `ỹ = cb·ΔF_b + cc·ΔF_c − off` is within `E_k/w` of the exact lane's
/// `(x − x_lo)/w`; each threshold is widened by that much.
#[derive(Debug, Clone, Copy)]
struct StepCert {
    /// `k_b/(T·w)`.
    cb: f64,
    /// `k_c/(T·w)`.
    cc: f64,
    /// `ỹ < accept_below` proves an accept without a draw (`p == 1`).
    accept_below: f64,
    /// `ỹ > reject_above` proves a reject without a draw (`p == 0`,
    /// heat bath only).
    reject_above: f64,
    /// `ỹ ∈ [draw_lo, draw_hi]` proves `0 < p < 1`: exactly one draw.
    draw_lo: f64,
    /// See `draw_lo`.
    draw_hi: f64,
    /// Bracket widening `s·E_k`, in probability.
    slack: f64,
}

impl StepCert {
    /// Certifies nothing: every move takes the exact path.
    const NONE: StepCert = StepCert {
        cb: 0.0,
        cc: 0.0,
        accept_below: f64::NEG_INFINITY,
        reject_above: f64::INFINITY,
        draw_lo: f64::INFINITY,
        draw_hi: f64::NEG_INFINITY,
        slack: 0.0,
    };
}

/// `c` in `E_k = c·2⁻⁵³·M/T_k`: the derivation in the module docs gives
/// `|x − x̃| ≤ 15·2⁻⁵³·M/T`; 32 leaves a factor of two.
const CERT_ULPS: f64 = 32.0;
/// Absolute floor of `E_k` in `x` units, covering the `O(2⁻⁵³·|x_lo|)`
/// offset rounding and the bucket-edge rounding.
const CERT_FLOOR: f64 = 1e-12;
/// Steps whose `E_k` exceeds this run every move on the exact path (the
/// widened band would swallow whole buckets).
const CERT_MAX: f64 = 1e-3;

/// Buckets per table; 4096 × ~18.5 milli-units of `x` keeps the
/// fallback band (≈ `2·slack / bucket-probability-span`) negligible.
const TABLE_BUCKETS: usize = 4096;
/// Bracket widening; dominates `exp`'s few-ulp (≈1e-16) evaluation
/// error by four orders of magnitude while keeping the fallback band
/// microscopically thin.
const TABLE_SLACK: f64 = 1e-12;

impl AcceptTable {
    fn build(rule: AcceptanceRule) -> AcceptTable {
        // HeatBath: p(x) = 1/(1+eˣ). For x ≤ −37, eˣ ≤ 8.6e-17 < 2⁻⁵³
        // so the computed p is exactly 1.0 (accept, no draw); at
        // x = 38, p ≈ 3.1e-17 < 2⁻⁵³ (tail); above 700 the engine's
        // own guard pins p = 0.0 (reject, no draw).
        // Metropolis: p(x) = e⁻ˣ for x > 0 (x ≤ 0 short-circuits
        // before the table); at x = 40, p ≈ 4.2e-18 < 2⁻⁵³ (tail); up
        // to x = 700 the result is a normal float, provably positive;
        // beyond that subnormal/zero rounding decides the *draw count*,
        // so the table delegates.
        let (x_lo, x_hi, accept_below) = match rule {
            AcceptanceRule::HeatBath => (-37.0, 38.0, -37.0),
            AcceptanceRule::Metropolis => (0.0, 40.0, f64::NEG_INFINITY),
        };
        let w = (x_hi - x_lo) / TABLE_BUCKETS as f64;
        // Buckets whose probability could round to exactly 1.0 are
        // marked for wholesale delegation: there the exact lane may
        // skip the draw entirely, so no post-draw repair is possible.
        let near_one = 1.0 - 4.0 * f64::EPSILON;
        let mut buckets = Vec::with_capacity(TABLE_BUCKETS);
        for i in 0..TABLE_BUCKETS {
            let xl = x_lo + w * i as f64;
            let xr = x_lo + w * (i + 1) as f64;
            // Both rules are monotone decreasing in x, so the left edge
            // is the bucket's supremum and the right edge its infimum.
            let pl = acceptance_probability(rule, xl, 1.0);
            let pr = acceptance_probability(rule, xr, 1.0);
            buckets.push(Bucket {
                lo: pr - TABLE_SLACK,
                hi: pl + TABLE_SLACK,
                exact: pl >= near_one,
            });
        }
        let inv_w = 1.0 / w;
        let reject_above = 700.0;
        // Exact-marked buckets form a prefix (p is monotone).
        let drawn_from = buckets.iter().take_while(|b| b.exact).count();
        debug_assert!(buckets[drawn_from..].iter().all(|b| !b.exact));
        AcceptTable {
            rule,
            x_lo,
            inv_w,
            accept_below,
            reject_above,
            tail_from: x_hi,
            off: x_lo * inv_w,
            drawn_from: drawn_from as f64,
            y_reject: (reject_above - x_lo) * inv_w,
            tail_hi: acceptance_probability(rule, x_hi, 1.0) + TABLE_SLACK,
            slope: match rule {
                AcceptanceRule::HeatBath => 0.25,
                AcceptanceRule::Metropolis => 1.0,
            },
            buckets,
        }
    }

    /// The certificate for one temperature step of a packet whose eq. 6
    /// weights fold to `k_b = w_b/ΔF_b`, `k_c = w_c/ΔF_c` and whose
    /// exact-integer bound is `bound = M` (`∞` when the packet fails the
    /// 2⁵³ check). Certifies nothing at a frozen or non-finite
    /// temperature, or when `E_k > CERT_MAX`.
    fn step_cert(&self, kb: f64, kc: f64, bound: f64, temp: f64) -> StepCert {
        let e = CERT_ULPS * (f64::EPSILON / 2.0) * bound / temp + CERT_FLOOR;
        // `!(… <= …)` also rejects a NaN bound or temperature.
        if !(temp > TEMP_EPSILON && e <= CERT_MAX) {
            return StepCert::NONE;
        }
        let ey = e * self.inv_w;
        let scale = self.inv_w / temp;
        StepCert {
            cb: kb * scale,
            cc: kc * scale,
            accept_below: -ey,
            reject_above: match self.rule {
                AcceptanceRule::HeatBath => self.y_reject + ey,
                // Beyond 700 the Metropolis draw count is at stake.
                AcceptanceRule::Metropolis => f64::INFINITY,
            },
            draw_lo: self.drawn_from + ey,
            draw_hi: self.y_reject - ey,
            slack: self.slope * e,
        }
    }

    /// The `[lo, hi]` probability bracket of index-space position `y ≥
    /// 0`: its bucket's, or the tail's past the last bucket.
    #[inline]
    fn bracket(&self, y: f64) -> (f64, f64) {
        match self.buckets.get(y as usize) {
            Some(b) => (b.lo, b.hi),
            None => (0.0, self.tail_hi),
        }
    }

    /// The rule this table quantizes.
    pub fn rule(&self) -> AcceptanceRule {
        self.rule
    }

    /// Lossless accept/reject: bit-identical decision *and* RNG
    /// consumption to [`accept`] for every input.
    #[inline]
    pub fn accept_lossless<R: Rng + ?Sized>(
        &self,
        delta: f64,
        temp: f64,
        rng: &mut R,
        counters: &mut LaneCounters,
    ) -> bool {
        // Frozen system: strict downhill, no draw (the exact lane's
        // p ∈ {0, 1} short-circuits).
        if temp <= TEMP_EPSILON {
            counters.shortcut += 1;
            return delta < 0.0;
        }
        if self.rule == AcceptanceRule::Metropolis && delta <= 0.0 {
            counters.shortcut += 1;
            return true;
        }
        let x = delta / temp;
        if x <= self.accept_below {
            counters.shortcut += 1;
            return true;
        }
        if x > self.reject_above {
            if self.rule == AcceptanceRule::HeatBath {
                // The engine's own overflow guard: p is exactly 0.0.
                counters.shortcut += 1;
                return false;
            }
            // Metropolis beyond 700: p may round to a subnormal (draw)
            // or to 0.0 (no draw) — only the exact path knows which.
            counters.fallback += 1;
            return accept(self.rule, delta, temp, rng);
        }
        if x >= self.tail_from {
            // 0 < p < 2⁻⁵³: the smallest nonzero u already rejects.
            counters.table += 1;
            return unit_f64(rng) == 0.0;
        }
        // NaN x saturates to bucket 0, which is always an `exact`
        // bucket for both rules — NaN handling (including the panic in
        // `gen_bool`) stays byte-for-byte the exact lane's.
        let i = (((x - self.x_lo) * self.inv_w) as usize).min(self.buckets.len() - 1);
        let b = &self.buckets[i];
        if b.exact {
            counters.fallback += 1;
            return accept(self.rule, delta, temp, rng);
        }
        let u = unit_f64(rng);
        if u < b.lo {
            counters.table += 1;
            return true;
        }
        if u >= b.hi {
            counters.table += 1;
            return false;
        }
        // u inside the conservative band: settle it exactly with the
        // draw already consumed (p ∈ (0, 1) is proven here, so the
        // exact lane would have drawn the same u).
        counters.fallback += 1;
        u < acceptance_probability(self.rule, delta, temp)
    }
}

static HEAT_BATH_TABLE: OnceLock<AcceptTable> = OnceLock::new();
static METROPOLIS_TABLE: OnceLock<AcceptTable> = OnceLock::new();

/// The process-wide acceptance table for a rule (built on first use,
/// ~8k `exp()` calls, shared by every scheduler and restart).
pub fn accept_table(rule: AcceptanceRule) -> &'static AcceptTable {
    match rule {
        AcceptanceRule::HeatBath => {
            HEAT_BATH_TABLE.get_or_init(|| AcceptTable::build(AcceptanceRule::HeatBath))
        }
        AcceptanceRule::Metropolis => {
            METROPOLIS_TABLE.get_or_init(|| AcceptTable::build(AcceptanceRule::Metropolis))
        }
    }
}

/// Sentinel for "unassigned" in the flat mapping arrays.
const NONE: u32 = u32::MAX;

/// Temperature-memo capacity reserved up front (once per scratch).
const TEMP_MEMO_CAP: u64 = 4096;

/// Debug shadow of one certified decision: the exact lane's rule on the
/// exact eq. 6 `delta` must agree, for the same draw `u` (`None` = the
/// decision consumed no draw). A pure check: it draws nothing.
fn shadow_check(rule: AcceptanceRule, delta: f64, temp: f64, u: Option<f64>, acc: bool) {
    let p = acceptance_probability(rule, delta, temp);
    match u {
        Some(u) => {
            assert!(
                p > 0.0 && p < 1.0,
                "certified a draw the exact lane skips (p = {p})"
            );
            assert_eq!(acc, u < p, "table decision disagrees with the exact rule");
        }
        None => assert!(
            if acc { p >= 1.0 } else { p <= 0.0 },
            "certified a no-draw decision the exact lane draws for (p = {p})"
        ),
    }
}

/// What one fast-lane packet run produced (the flat-lane analogue of
/// [`PacketOutcome`]; the final mapping stays in the scratch).
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Temperature steps executed.
    pub iterations: u64,
    /// Total moves proposed.
    pub moves: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Final normalized cost.
    pub final_cost: f64,
    /// Optional per-move trajectory (allocated only when requested).
    pub trace: Option<PacketTrace>,
}

/// Reusable fast-lane state: the flat per-packet cost tables, the
/// mapping arrays, and the RNG draw plans. Built once per instance and
/// reused across packets and restarts (via
/// [`crate::parallel::ScratchPool`]), so the steady-state inner loop
/// performs zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SaScratch {
    // Flat packet tables (eqs. 2–5 constants).
    tasks: Vec<TaskId>,
    procs: Vec<ProcId>,
    /// `levels[i] as f64`, the eq. 3 pricing operand.
    lv: Vec<f64>,
    /// Row-major `comm_cost[t * p + j] as f64`, the eq. 4/5 operand.
    cc: Vec<f64>,
    worst: Vec<u64>,
    sort_buf: Vec<u64>,
    preds: Vec<(ProcId, Work)>,
    // Eq. 6 normalization constants (CostModel-identical).
    wb: f64,
    wc: f64,
    range_b: f64,
    range_c: f64,
    /// The loaded packet passed the 2⁵³ check: every running sum and
    /// move delta is an exact integer.
    exact_sums: bool,
    /// `M = k_b·Σlv + k_c·Σ_t max_j cc` under `exact_sums`, else `∞`.
    cost_bound: f64,
    n: usize,
    p: usize,
    epoch_time: u64,
    // RNG draw plans for the packet shape.
    draw_task: Draw,
    draw_proc: Draw,
    // Mapping state (u32 sentinel encoding of PacketMapping).
    proc_of: Vec<u32>,
    task_at: Vec<u32>,
    best_proc_of: Vec<u32>,
    perm_tasks: Vec<usize>,
    perm_procs: Vec<usize>,
    /// `temps[k] = cooling.temperature(k)` for `temps_of`.
    temps: Vec<f64>,
    temps_of: Option<CoolingSchedule>,
}

impl SaScratch {
    /// An empty scratch; buffers grow to the high-water mark on use.
    pub fn new() -> Self {
        SaScratch::default()
    }

    /// Loads an already-assembled [`AnnealingPacket`] plus the eq. 6
    /// weights, reproducing [`CostModel::new`]'s normalization ranges
    /// bit-for-bit.
    pub fn load_packet(&mut self, packet: &AnnealingPacket, wb: f64, wc: f64, bal: BalanceRange) {
        assert!(wb >= 0.0 && wc >= 0.0, "negative weights");
        self.n = packet.num_tasks();
        self.p = packet.num_procs();
        self.wb = wb;
        self.wc = wc;
        self.epoch_time = packet.epoch_time;
        self.tasks.clear();
        self.tasks.extend_from_slice(&packet.tasks);
        self.procs.clear();
        self.procs.extend_from_slice(&packet.procs);
        self.lv.clear();
        self.lv.extend(packet.levels.iter().map(|&l| l as f64));
        self.cc.clear();
        self.cc.reserve(self.n * self.p);
        for row in &packet.comm_cost {
            self.cc.extend(row.iter().map(|&c| c as f64));
        }
        self.worst.clear();
        self.worst.extend_from_slice(&packet.worst_comm);
        self.sort_buf.clear();
        self.sort_buf.extend_from_slice(&packet.levels);
        self.compute_ranges(bal);
        let lv_sum = packet.levels.iter().map(|&l| u128::from(l)).sum();
        let cc_sum = packet
            .comm_cost
            .iter()
            .map(|row| u128::from(row.iter().copied().max().unwrap_or(0)))
            .sum();
        self.certify(lv_sum, cc_sum);
        self.prepare_run();
    }

    /// Builds the flat packet tables straight from an epoch context —
    /// the allocation-free analogue of [`AnnealingPacket::from_epoch`]
    /// followed by [`CostModel::new`], computing identical values.
    // lint:allow(panic) reason="ready tasks have placed predecessors"
    pub fn load_epoch(
        &mut self,
        ctx: &EpochContext<'_>,
        levels: &[Work],
        wb: f64,
        wc: f64,
        bal: BalanceRange,
    ) {
        assert!(wb >= 0.0 && wc >= 0.0, "negative weights");
        let n = ctx.ready.len();
        let p = ctx.idle.len();
        self.n = n;
        self.p = p;
        self.wb = wb;
        self.wc = wc;
        self.epoch_time = ctx.time;
        self.tasks.clear();
        self.tasks.extend_from_slice(ctx.ready);
        self.procs.clear();
        self.procs.extend_from_slice(ctx.idle);
        self.lv.clear();
        self.sort_buf.clear();
        let mut lv_sum = 0u128;
        for &t in ctx.ready {
            let l = levels[t.index()];
            self.sort_buf.push(l);
            self.lv.push(l as f64);
            lv_sum += u128::from(l);
        }
        let mut cc_sum = 0u128;
        self.cc.clear();
        self.cc.resize(n * p, 0.0);
        self.worst.clear();
        self.worst.resize(n, 0);
        if ctx.comm_enabled {
            for (i, &t) in ctx.ready.iter().enumerate() {
                // Predecessor placements are all known: ready ⇒ finished.
                self.preds.clear();
                self.preds.extend(ctx.graph.predecessors(t).iter().map(|e| {
                    let src = ctx.placement[e.target.index()]
                        .expect("predecessor of a ready task is placed");
                    (src, e.weight)
                }));
                let mut wmax = 0u64;
                for (j, &q) in ctx.idle.iter().enumerate() {
                    let mut c = 0u64;
                    for &(src, w) in &self.preds {
                        let d = ctx.routes.distance(src, q);
                        c += ctx.params.eq4_cost(w, d, src == q);
                    }
                    self.cc[i * p + j] = c as f64;
                    wmax = wmax.max(c);
                }
                self.worst[i] = wmax;
                cc_sum += u128::from(wmax);
            }
        }
        self.compute_ranges(bal);
        self.certify(lv_sum, cc_sum);
        self.prepare_run();
    }

    /// Reproduces [`CostModel::new`]'s `ΔF_b`/`ΔF_c` computation on the
    /// scratch buffers (`sort_buf` must hold the packet levels).
    fn compute_ranges(&mut self, bal: BalanceRange) {
        let k = self.n.min(self.p);
        self.sort_buf.sort_unstable();
        let min_sum: u64 = self.sort_buf.iter().take(k).sum();
        let max_sum: u64 = self.sort_buf.iter().rev().take(k).sum();
        let mut range_b = (max_sum - min_sum) as f64;
        if bal == BalanceRange::PerIdle && self.p > 0 {
            range_b /= self.p as f64;
        }
        if range_b <= 0.0 {
            range_b = 1.0;
        }
        self.range_b = range_b;
        self.sort_buf.clear();
        self.sort_buf.extend_from_slice(&self.worst);
        self.sort_buf.sort_unstable();
        let mut range_c = self.sort_buf.iter().rev().take(k).sum::<u64>() as f64;
        if range_c <= 0.0 {
            range_c = 1.0;
        }
        self.range_c = range_c;
    }

    /// The 2⁵³ check behind certified pricing (`lv_sum = Σ levels`,
    /// `cc_sum = Σ_t max_j comm`): when both sums are below 2⁵³, every
    /// `F_b`, `F_c`, `ΔF_b`, `ΔF_c` and intermediate sum of the verbatim
    /// pricing expressions is an exact integer, so the running sums
    /// never drift. Stores `M` for the per-step error bound.
    fn certify(&mut self, lv_sum: u128, cc_sum: u128) {
        const EXACT: u128 = 1 << 53;
        self.exact_sums = lv_sum < EXACT && cc_sum < EXACT;
        self.cost_bound = if self.exact_sums {
            self.wb / self.range_b * lv_sum as f64 + self.wc / self.range_c * cc_sum as f64
        } else {
            f64::INFINITY
        };
    }

    fn prepare_run(&mut self) {
        debug_assert!(self.n < NONE as usize && self.p < NONE as usize);
        self.draw_task = Draw::new(self.n as u64);
        self.draw_proc = Draw::new(self.p as u64);
        self.proc_of.clear();
        self.proc_of.resize(self.n, NONE);
        self.task_at.clear();
        self.task_at.resize(self.p, NONE);
        self.best_proc_of.clear();
        self.best_proc_of.resize(self.n, NONE);
    }

    /// The loaded packet's task ids (packet-index order).
    pub fn task_ids(&self) -> &[TaskId] {
        &self.tasks
    }

    /// The loaded packet's processor ids (packet-index order).
    pub fn proc_ids(&self) -> &[ProcId] {
        &self.procs
    }

    /// Final `(task index, proc index)` assignments in task order —
    /// identical to `PacketMapping::assignments` on the converged
    /// mapping.
    pub fn assignments(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.proc_of
            .iter()
            .enumerate()
            .filter_map(|(t, &p)| (p != NONE).then_some((t, p as usize)))
    }

    /// Eq. 6 total — the verbatim [`CostModel::total`] expression.
    #[inline]
    fn total(&self, fb_raw: f64, fc_raw: f64) -> f64 {
        self.wb * fb_raw / self.range_b + self.wc * fc_raw / self.range_c
    }

    #[inline]
    fn balance_term(&self, fb_raw: f64) -> f64 {
        self.wb * fb_raw / self.range_b
    }

    #[inline]
    fn comm_term(&self, fc_raw: f64) -> f64 {
        self.wc * fc_raw / self.range_c
    }

    /// Raw `(F_b, F_c)` by full recomputation — same task-order
    /// summation as [`CostModel::raw_full`].
    fn raw_full(&self) -> (f64, f64) {
        let mut fb = 0.0;
        let mut fc = 0.0;
        for (t, &pr) in self.proc_of.iter().enumerate() {
            if pr != NONE {
                fb -= self.lv[t];
                fc += self.cc[t * self.p + pr as usize];
            }
        }
        (fb, fc)
    }

    /// `PacketMapping::saturate_random` on the flat arrays: identical
    /// shuffles (tasks first, then processors), identical placements.
    fn saturate_random<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.perm_tasks.clear();
        self.perm_tasks.extend(0..self.n);
        self.perm_procs.clear();
        self.perm_procs.extend(0..self.p);
        self.perm_tasks.shuffle(rng);
        self.perm_procs.shuffle(rng);
        self.proc_of.iter_mut().for_each(|x| *x = NONE);
        self.task_at.iter_mut().for_each(|x| *x = NONE);
        for (&t, &p) in self.perm_tasks.iter().zip(self.perm_procs.iter()) {
            self.proc_of[t] = p as u32;
            self.task_at[p] = t as u32;
        }
    }

    fn saturate_in_order(&mut self) {
        self.proc_of.iter_mut().for_each(|x| *x = NONE);
        self.task_at.iter_mut().for_each(|x| *x = NONE);
        for i in 0..self.n.min(self.p) {
            self.proc_of[i] = i as u32;
            self.task_at[i] = i as u32;
        }
    }

    /// Runs the fast-lane annealing loop on the loaded packet. This
    /// replays [`anneal_packet`] bit-for-bit: same draws, same float
    /// expressions, same accepted-move sequence, same trace. The
    /// converged mapping is left in the scratch
    /// ([`SaScratch::assignments`]).
    ///
    /// Moves are decided by certified state-free pricing (module docs,
    /// "Certified state-free pricing"): the accept/reject decision
    /// reads only the move's own `(ΔF_b, ΔF_c)`, never the running
    /// cost, and every case the bound cannot prove runs the exact
    /// lane's expression. The exact eq. 6 total runs on accepted moves
    /// and fallbacks only. Debug builds shadow every certified decision and every
    /// temperature-step boundary with the exact computation.
    ///
    /// [`anneal_packet`]: crate::annealer::anneal_packet
    pub fn anneal_loaded<R: Rng + ?Sized>(
        &mut self,
        params: &AnnealParams,
        rng: &mut R,
        want_trace: bool,
        counters: &mut LaneCounters,
    ) -> LaneOutcome {
        let n = self.n;
        let p = self.p;
        assert!(n > 0 && p > 0, "empty packet");
        let rule = params.acceptance;
        let table = accept_table(rule);
        let (kb, kc) = (self.wb / self.range_b, self.wc / self.range_c);
        self.use_schedule(params);

        match params.init {
            InitRule::Random => self.saturate_random(rng),
            InitRule::InOrder => self.saturate_in_order(),
        }
        let (mut fb, mut fc) = self.raw_full();
        let mut cost = self.total(fb, fc);
        let mut best_cost = cost;
        self.best_proc_of.copy_from_slice(&self.proc_of);

        let mut trace = want_trace.then(|| PacketTrace {
            packet: 0,
            epoch_time: self.epoch_time,
            candidates: n,
            idle: p,
            samples: Vec::with_capacity(params.max_iters as usize),
        });

        let moves_per_temp = if params.moves_per_temp == 0 {
            (2 * n).max(8)
        } else {
            params.moves_per_temp
        };

        let mut accepted_count = 0u64;
        let mut stable = 0u64;
        let mut k = 0u64;
        let mut moves = 0u64;
        let (mut n_shortcut, mut n_table, mut n_fallback) = (0u64, 0u64, 0u64);
        // The exact path classifies its own decisions; they all count
        // as fallbacks here.
        let mut exact_path = LaneCounters::default();
        while k < params.max_iters && stable < params.stable_iters {
            debug_assert!(
                self.sums_match(fb, fc, cost),
                "running cost drifted by step {k}"
            );
            let temp = self.temperature(&params.cooling, k);
            let cert = table.step_cert(kb, kc, self.cost_bound, temp);
            let mut cost_changed = false;
            for _ in 0..moves_per_temp {
                let task = self.draw_task.sample(rng);
                let cur = self.proc_of[task];
                let mut was_accepted = false;
                if !(p == 1 && cur == 0) {
                    // Rejection-sample a processor ≠ current, on the
                    // same draw stream as the exact lane.
                    let mut proc = self.draw_proc.sample(rng);
                    while proc as u32 == cur {
                        proc = self.draw_proc.sample(rng);
                    }
                    // Price the move from the flat tables with the
                    // exact lane's verbatim float expressions
                    // (CostModel::delta on Transfer/Swap).
                    let occ = self.task_at[proc];
                    let (dfb, dfc) = if occ == NONE {
                        // Transfer { task, to: proc, from: cur }
                        let (old_fb, old_fc) = if cur != NONE {
                            (-self.lv[task], self.cc[task * p + cur as usize])
                        } else {
                            (0.0, 0.0)
                        };
                        (-self.lv[task] - old_fb, self.cc[task * p + proc] - old_fc)
                    } else {
                        // Swap { task, other: occ, to: proc, from: cur }
                        let other = occ as usize;
                        if cur != NONE {
                            let f = cur as usize;
                            let fb_before = -self.lv[task] - self.lv[other];
                            let fb_after = -self.lv[task] + -self.lv[other];
                            let fc_before = self.cc[task * p + f] + self.cc[other * p + proc];
                            let fc_after = self.cc[task * p + proc] + self.cc[other * p + f];
                            (fb_after - fb_before, fc_after - fc_before)
                        } else {
                            let fb_before = 0.0 - self.lv[other];
                            let fb_after = -self.lv[task] + 0.0;
                            let fc_before = 0.0 + self.cc[other * p + proc];
                            let fc_after = self.cc[task * p + proc] + 0.0;
                            (fb_after - fb_before, fc_after - fc_before)
                        }
                    };
                    // The state-free position in bucket-index space.
                    let y = cert.cb * dfb + cert.cc * dfc - table.off;
                    let accept_move = if y >= cert.draw_lo && y <= cert.draw_hi {
                        // Exactly one draw is certain: decide on the
                        // bracket widened by s·E_k.
                        let (lo, hi) = table.bracket(y);
                        let u = unit_f64(rng);
                        if u < lo - cert.slack || u >= hi + cert.slack {
                            n_table += 1;
                            let acc = u < lo - cert.slack;
                            if cfg!(debug_assertions) {
                                let delta = self.total(fb + dfb, fc + dfc) - cost;
                                shadow_check(rule, delta, temp, Some(u), acc);
                            }
                            acc
                        } else {
                            // u inside the widened band: settle it
                            // exactly with the draw already consumed.
                            n_fallback += 1;
                            let delta = self.total(fb + dfb, fc + dfc) - cost;
                            u < acceptance_probability(rule, delta, temp)
                        }
                    } else if y < cert.accept_below || y > cert.reject_above {
                        // p is provably 1 or 0: no draw, as in the
                        // exact lane.
                        n_shortcut += 1;
                        let acc = y < cert.accept_below;
                        if cfg!(debug_assertions) {
                            let delta = self.total(fb + dfb, fc + dfc) - cost;
                            shadow_check(rule, delta, temp, None, acc);
                        }
                        acc
                    } else {
                        // Uncertified (near a region edge, or the whole
                        // step or packet): the exact path, before any
                        // draw.
                        n_fallback += 1;
                        let delta = self.total(fb + dfb, fc + dfc) - cost;
                        table.accept_lossless(delta, temp, rng, &mut exact_path)
                    };
                    if accept_move {
                        let cand = self.total(fb + dfb, fc + dfc);
                        let delta = cand - cost;
                        if occ == NONE {
                            if cur != NONE {
                                self.task_at[cur as usize] = NONE;
                            }
                        } else if cur != NONE {
                            self.proc_of[occ as usize] = cur;
                            self.task_at[cur as usize] = occ;
                        } else {
                            self.proc_of[occ as usize] = NONE;
                        }
                        self.proc_of[task] = proc as u32;
                        self.task_at[proc] = task as u32;
                        fb += dfb;
                        fc += dfc;
                        was_accepted = true;
                        accepted_count += 1;
                        if delta.abs() > 1e-12 {
                            cost_changed = true;
                        }
                        cost = cand;
                        if params.keep_best && cost < best_cost {
                            best_cost = cost;
                            self.best_proc_of.copy_from_slice(&self.proc_of);
                        }
                    }
                }
                if let Some(tr) = trace.as_mut() {
                    tr.samples.push(TraceSample {
                        iter: moves,
                        temp,
                        f_b_raw: fb,
                        f_c_raw: fc,
                        f_b_norm: self.balance_term(fb),
                        f_c_norm: self.comm_term(fc),
                        f_total: cost,
                        accepted: was_accepted,
                    });
                }
                moves += 1;
            }
            if cost_changed {
                stable = 0;
            } else {
                stable += 1;
            }
            k += 1;
        }
        debug_assert!(
            self.sums_match(fb, fc, cost),
            "running cost drifted by step {k}"
        );
        counters.shortcut += n_shortcut;
        counters.table += n_table;
        counters.fallback += n_fallback;

        let final_cost = if params.keep_best && best_cost < cost {
            self.proc_of.copy_from_slice(&self.best_proc_of);
            best_cost
        } else {
            cost
        };
        LaneOutcome {
            iterations: k,
            moves,
            accepted: accepted_count,
            final_cost,
            trace,
        }
    }

    /// Points the temperature memo at `params.cooling`, clearing it when
    /// the schedule changed since the last run.
    fn use_schedule(&mut self, params: &AnnealParams) {
        if self.temps_of != Some(params.cooling) {
            self.temps.clear();
            self.temps
                .reserve(params.max_iters.min(TEMP_MEMO_CAP) as usize);
            self.temps_of = Some(params.cooling);
        }
    }

    /// `cooling.temperature(k)` through the memo: the same expression,
    /// the same bits (`use_schedule` must have seen `cooling`).
    fn temperature(&mut self, cooling: &CoolingSchedule, k: u64) -> f64 {
        if let Some(&t) = self.temps.get(k as usize) {
            return t;
        }
        // Steps run k = 0, 1, 2, …, so a miss is always the next index.
        debug_assert_eq!(self.temps.len() as u64, k);
        let t = cooling.temperature(k);
        self.temps.push(t);
        t
    }

    /// Debug shadow at a temperature-step boundary: the running cost is
    /// eq. 6 of the running sums, and under the exact-integer invariant
    /// those sums equal a from-scratch [`SaScratch::raw_full`] bit for
    /// bit.
    fn sums_match(&self, fb: f64, fc: f64, cost: f64) -> bool {
        let (rb, rc) = self.raw_full();
        cost.to_bits() == self.total(fb, fc).to_bits()
            && (!self.exact_sums || (rb.to_bits() == fb.to_bits() && rc.to_bits() == fc.to_bits()))
    }
}

/// Shared configuration for [`anneal_packet_lane`].
#[derive(Debug, Clone)]
pub struct LaneRun<'a> {
    /// Load-balance weight `w_b`.
    pub wb: f64,
    /// Communication weight `w_c`.
    pub wc: f64,
    /// `ΔF_b` derivation.
    pub balance: BalanceRange,
    /// Annealing-loop knobs.
    pub params: &'a AnnealParams,
    /// Which lane executes the loop.
    pub lane: SaLane,
    /// Record the per-move trajectory.
    pub want_trace: bool,
}

/// Runs one packet through the selected lane and returns an exact-lane
/// compatible [`PacketOutcome`] — the single entry point the equality
/// oracle tests drive for every lane.
pub fn anneal_packet_lane<R: Rng + ?Sized>(
    packet: &AnnealingPacket,
    run: &LaneRun<'_>,
    rng: &mut R,
    scratch: &mut SaScratch,
    counters: &mut LaneCounters,
) -> PacketOutcome {
    match run.lane {
        SaLane::Exact => {
            let cm = CostModel::new(packet, run.wb, run.wc, run.balance);
            crate::annealer::anneal_packet(packet, &cm, run.params, rng, run.want_trace)
        }
        SaLane::DeltaTable => {
            scratch.load_packet(packet, run.wb, run.wc, run.balance);
            let out = scratch.anneal_loaded(run.params, rng, run.want_trace, counters);
            PacketOutcome {
                assignment: scratch.assignments().collect(),
                iterations: out.iterations,
                moves: out.moves,
                accepted: out.accepted,
                final_cost: out.final_cost,
                trace: out.trace,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rules() -> [AcceptanceRule; 2] {
        [AcceptanceRule::HeatBath, AcceptanceRule::Metropolis]
    }

    /// Exhaustive decision + draw-count parity over a hostile grid of
    /// (delta, temp) pairs, including every table-region boundary.
    #[test]
    fn lossless_accept_matches_exact_and_rng_state() {
        let xs = [
            -1e308,
            -701.0,
            -700.0,
            -37.5,
            -37.0,
            -37.0 + 1e-9,
            -36.7368,
            -30.0,
            -1.0,
            -1e-12,
            -0.0,
            0.0,
            1e-12,
            0.009,
            0.0098,
            0.5,
            1.0,
            2.0,
            37.9,
            38.0,
            38.1,
            39.99,
            40.0,
            40.1,
            699.0,
            700.0,
            700.5,
            744.0,
            749.0,
            750.0,
            1e6,
            1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let temps = [1.0, 0.25, 3.7, 1e-6, 1e6];
        for rule in rules() {
            let table = accept_table(rule);
            let mut c = LaneCounters::default();
            for (i, &x) in xs.iter().enumerate() {
                for (j, &temp) in temps.iter().enumerate() {
                    let delta = x * temp;
                    let seed = (i * 31 + j) as u64;
                    let mut r1 = StdRng::seed_from_u64(seed);
                    let mut r2 = StdRng::seed_from_u64(seed);
                    // Repeat so both branches of a probabilistic
                    // decision are exercised on a drifting stream.
                    for _ in 0..64 {
                        let e = accept(rule, delta, temp, &mut r1);
                        let f = table.accept_lossless(delta, temp, &mut r2, &mut c);
                        assert_eq!(e, f, "{rule:?} delta={delta} temp={temp}");
                    }
                    assert_eq!(
                        r1.next_u64(),
                        r2.next_u64(),
                        "draw-count divergence at {rule:?} delta={delta} temp={temp}"
                    );
                }
            }
            assert!(c.decisions() > 0);
        }
    }

    #[test]
    fn zero_delta_parity_and_draw_counts() {
        let mut c = LaneCounters::default();
        // Metropolis at delta == 0: certain accept, no draw.
        let t = accept_table(AcceptanceRule::Metropolis);
        let mut r = StdRng::seed_from_u64(1);
        let before = r.clone();
        assert!(t.accept_lossless(0.0, 1.0, &mut r, &mut c));
        let mut b = before;
        assert_eq!(
            r.next_u64(),
            b.next_u64(),
            "Metropolis delta=0 must not draw"
        );
        // HeatBath at delta == 0: p = 1/2, exactly one draw, same
        // decision as the exact rule.
        let t = accept_table(AcceptanceRule::HeatBath);
        for seed in 0..50 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            assert_eq!(
                accept(AcceptanceRule::HeatBath, 0.0, 1.0, &mut r1),
                t.accept_lossless(0.0, 1.0, &mut r2, &mut c)
            );
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn frozen_temperature_is_strict_descent_without_draws() {
        let mut c = LaneCounters::default();
        for rule in rules() {
            let t = accept_table(rule);
            for temp in [0.0, 1e-300, TEMP_EPSILON, -1.0] {
                let mut r = StdRng::seed_from_u64(9);
                let before = r.clone();
                assert!(t.accept_lossless(-0.5, temp, &mut r, &mut c));
                assert!(!t.accept_lossless(0.5, temp, &mut r, &mut c));
                assert!(!t.accept_lossless(0.0, temp, &mut r, &mut c));
                // NaN delta at frozen temperature: reject, no panic.
                assert!(!t.accept_lossless(f64::NAN, temp, &mut r, &mut c));
                let mut b = before;
                assert_eq!(r.next_u64(), b.next_u64(), "frozen decisions must not draw");
            }
        }
    }

    #[test]
    fn table_boundaries_are_nan_free() {
        // First/last bucket edges and the region seams must produce
        // finite bracket values and panic-free decisions.
        for rule in rules() {
            let t = accept_table(rule);
            for b in &t.buckets {
                assert!(b.lo.is_finite() && b.hi.is_finite());
                assert!(b.lo <= b.hi);
            }
            assert!(t.buckets.first().expect("nonempty").exact, "{rule:?}");
            assert!(!t.buckets.last().expect("nonempty").exact, "{rule:?}");
            let mut c = LaneCounters::default();
            let mut r = StdRng::seed_from_u64(3);
            for x in [
                t.x_lo,
                t.x_lo + 1e-9,
                t.tail_from - 1e-9,
                t.tail_from,
                t.reject_above,
            ] {
                let d = t.accept_lossless(x, 1.0, &mut r, &mut c);
                let _ = d;
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn nan_delta_panics_like_the_exact_rule() {
        // The exact lane panics inside gen_bool on a NaN probability;
        // the table delegates NaN to the same path.
        let t = accept_table(AcceptanceRule::HeatBath);
        let mut c = LaneCounters::default();
        let mut r = StdRng::seed_from_u64(4);
        t.accept_lossless(f64::NAN, 1.0, &mut r, &mut c);
    }

    #[test]
    fn lane_names_round_trip() {
        for lane in SaLane::ALL {
            assert_eq!(lane.name().parse::<SaLane>(), Ok(lane));
            assert_eq!(lane.to_string(), lane.name());
            // Case-insensitive parsing (satellite: CLI ergonomics).
            assert_eq!(lane.name().to_ascii_uppercase().parse::<SaLane>(), Ok(lane));
        }
        assert_eq!("Delta-Table".parse::<SaLane>(), Ok(SaLane::DeltaTable));
        assert_eq!(SaLane::default(), SaLane::DeltaTable);
        assert_eq!(SaLane::name_list(), "exact, delta-table");
        let err = "bogus".parse::<SaLane>().unwrap_err();
        assert_eq!(
            err,
            "unknown SA lane 'bogus' (expected one of: exact, delta-table)"
        );
        // The removed lossy lanes no longer parse.
        assert!("quantized".parse::<SaLane>().is_err());
        assert!("turbo".parse::<SaLane>().is_err());
    }

    #[test]
    fn draw_plan_replicates_gen_range() {
        for bound in [1usize, 2, 3, 5, 7, 8, 13, 64, 100] {
            let plan = Draw::new(bound as u64);
            let mut r1 = StdRng::seed_from_u64(bound as u64);
            let mut r2 = StdRng::seed_from_u64(bound as u64);
            for _ in 0..200 {
                assert_eq!(r1.gen_range(0..bound), plan.sample(&mut r2));
            }
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    /// Sweeps moves densely across every region edge of the
    /// certificate, in a benign regime and in cancellation-heavy ones
    /// (`|F_b| ≈ 2⁴⁹` with a rounding `w_b/ΔF_b`, `E_k` up to near its
    /// cap), and checks each
    /// certified verdict against the exact lane's probability: a
    /// certified draw has `0 < p < 1` inside the widened bracket, a
    /// certified accept has `p == 1`, a certified reject `p == 0`.
    #[test]
    fn step_cert_is_sound_across_every_region_edge() {
        // (ΔF_b, Σ levels, T): F_b sits at −Σ/2, so |F_b ± ΔF_b| ≤ Σ.
        let regimes = [
            (1000.0, 2.0e6, 0.5),
            (3.0, 2f64.powi(50), 1333.0),
            (3.0, 2f64.powi(50), 700.0),
            // Σ levels near 2⁵³: rounding spans several move quanta.
            (3.0, 7.5e15, 6000.0),
        ];
        for rule in rules() {
            let t = accept_table(rule);
            let w = 1.0 / t.inv_w;
            let edges = [
                t.x_lo,
                // Where the heat bath's p starts rounding to 1.0.
                -36.74,
                t.x_lo + t.drawn_from * w,
                0.0,
                t.tail_from,
                t.reject_above,
            ];
            for &(range_b, lv_sum, temp) in &regimes {
                let kb = 0.5 / range_b;
                let cert = t.step_cert(kb, 0.0, kb * lv_sum, temp);
                assert!(cert.draw_lo.is_finite(), "{rule:?}: regime must certify");
                let fb = -lv_sum / 2.0;
                let cost = 0.5 * fb / range_b;
                let (mut drawn, mut sure) = (0, 0);
                for &edge in &edges {
                    let centre = (edge * temp / kb).round();
                    for j in -3000..=3000 {
                        let dfb = centre + f64::from(j);
                        let delta = 0.5 * (fb + dfb) / range_b - cost;
                        let p = acceptance_probability(rule, delta, temp);
                        let dfc = 0.0;
                        let y = cert.cb * dfb + cert.cc * dfc - t.off;
                        let ctx = format!("{rule:?} T={temp} x={}", delta / temp);
                        if y >= cert.draw_lo && y <= cert.draw_hi {
                            drawn += 1;
                            let (lo, hi) = t.bracket(y);
                            assert!(p > 0.0 && p < 1.0, "{ctx}: draw certified, p = {p}");
                            assert!(lo - cert.slack <= p && p < hi + cert.slack, "{ctx}");
                        } else if y < cert.accept_below {
                            sure += 1;
                            assert!(p >= 1.0, "{ctx}: accept certified, p = {p}");
                        } else if y > cert.reject_above {
                            sure += 1;
                            assert!(p <= 0.0, "{ctx}: reject certified, p = {p}");
                        }
                    }
                }
                assert!(drawn > 0 && sure > 0, "{rule:?}: sweep missed a region");
            }
        }
    }

    #[test]
    fn step_cert_refuses_frozen_uncertain_and_non_finite_steps() {
        let t = accept_table(AcceptanceRule::HeatBath);
        for (bound, temp) in [
            (1.0, 0.0),
            (1.0, TEMP_EPSILON),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (f64::NAN, 1.0),
            // E_k = 32·2⁻⁵³·M/T just above the 1e-3 cap.
            (1e-3 / (CERT_ULPS * f64::EPSILON / 2.0) * 1.01, 1.0),
        ] {
            let cert = t.step_cert(0.5, 0.5, bound, temp);
            assert_eq!(cert.draw_lo, f64::INFINITY, "bound={bound} T={temp}");
            assert_eq!(
                cert.accept_below,
                f64::NEG_INFINITY,
                "bound={bound} T={temp}"
            );
            assert_eq!(cert.reject_above, f64::INFINITY, "bound={bound} T={temp}");
        }
    }

    #[test]
    fn counters_partition_decisions() {
        let t = accept_table(AcceptanceRule::HeatBath);
        let mut c = LaneCounters::default();
        let mut r = StdRng::seed_from_u64(6);
        let mut n = 0u64;
        for &x in &[-100.0, -5.0, 0.0, 0.1, 5.0, 39.0, 800.0] {
            for _ in 0..10 {
                t.accept_lossless(x, 1.0, &mut r, &mut c);
                n += 1;
            }
        }
        assert_eq!(c.decisions(), n);
        assert!(c.shortcut > 0 && c.table > 0);
        let mut merged = LaneCounters::default();
        merged.merge(&c);
        assert_eq!(merged, c);
    }
}
