//! Multi-restart SA across threads, plus the shared chunked job runner.
//!
//! Simulated annealing is stochastic; independent restarts with
//! different seeds explore different basins, and the per-packet runs are
//! embarrassingly parallel across restarts. [`best_of_restarts`] and
//! [`best_of_static_restarts`] run one full schedule per seed (std
//! scoped threads; no shared mutable state) and keep the best makespan
//! — deterministic given the seed list.
//!
//! Two fan-out entry points execute `n` independent jobs on at most
//! `max_threads` worker threads (strided assignment, results gathered
//! by job index) so callers never spawn one thread per job:
//! [`run_chunked`] for stateless jobs, and [`run_chunked_pooled`] for
//! jobs that reuse per-worker scratch drawn from a [`ScratchPool`]. The
//! arena's matrix runner (`anneal-arena`) uses the pooled one for every
//! portfolio × instance cell.

use anneal_graph::TaskGraph;
use anneal_sim::{simulate, SimConfig, SimError, SimResult};
use anneal_topology::{CommParams, Topology};

use crate::lane::SaScratch;
use crate::sa::{SaConfig, SaScheduler};
use crate::static_sa::{static_sa, StaticSaConfig, StaticSaOutcome};

/// The default thread cap: the machine's available parallelism (1 when
/// it cannot be determined).
pub fn default_max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` independent jobs across at most `max_threads` scoped
/// worker threads (`0` means [`default_max_threads`]) and returns the
/// results in job order. Worker `w` handles jobs `w, w + T, w + 2T, …`
/// — the assignment is deterministic, so any per-job seeding stays
/// reproducible regardless of the thread cap.
pub fn run_chunked<T, F>(jobs: usize, max_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked_pooled(jobs, max_threads, &ScratchPool::new(), |(), i| f(i))
}

/// A shared pool of per-worker scratch values for
/// [`run_chunked_pooled`].
///
/// Each worker takes one scratch at start ([`ScratchPool::take`] falls
/// back to `Default` when the pool is dry), threads it through every
/// job it handles, and returns it when done. A caller that fans out
/// thousands of times (the adversarial search prices every candidate
/// instance against the whole portfolio) keeps one pool alive across
/// calls, so only about `max_threads` scratches are ever created.
#[derive(Debug)]
pub struct ScratchPool<S> {
    pool: std::sync::Mutex<PoolInner<S>>,
}

#[derive(Debug)]
struct PoolInner<S> {
    items: Vec<S>,
    stats: PoolStats,
}

/// Hit/miss statistics of a [`ScratchPool`].
///
/// A *hit* reuses a warmed scratch; a *miss* builds a fresh default
/// one. The split between them depends on how many workers raced for
/// the pool, so these are [`Scheduling`](anneal_obs::MetricClass::Scheduling)-class
/// metrics (`sched.pool.*`): excluded from cross-`--threads`
/// invariance checks. (Route-table rebuilds are counted separately,
/// inside each scratch — see `anneal_sim::RouteCacheStats` — because a
/// pool miss costs one warm-up while a route rebuild recurs per
/// topology switch.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from the pool (warm scratch reused).
    pub hits: u64,
    /// Takes that fell back to `Default` (cold scratch built).
    pub misses: u64,
}

impl PoolStats {
    /// Accumulates these statistics into `r` (`sched.pool.*` counters).
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sched.pool.hits", self.hits);
        r.add("sched.pool.misses", self.misses);
    }
}

impl<S> Default for ScratchPool<S> {
    fn default() -> Self {
        ScratchPool {
            pool: std::sync::Mutex::new(PoolInner {
                items: Vec::new(),
                stats: PoolStats::default(),
            }),
        }
    }
}

impl<S: Default> ScratchPool<S> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a pooled (warm) scratch, or a fresh default one.
    // lint:allow(panic) reason="pool users do not panic while holding the lock"
    pub fn take(&self) -> S {
        let mut inner = self.pool.lock().expect("scratch pool poisoned");
        match inner.items.pop() {
            Some(s) => {
                inner.stats.hits += 1;
                s
            }
            None => {
                inner.stats.misses += 1;
                drop(inner);
                S::default()
            }
        }
    }

    /// Returns a scratch to the pool for the next fan-out.
    // lint:allow(panic) reason="pool users do not panic while holding the lock"
    pub fn put(&self, s: S) {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .items
            .push(s);
    }

    /// Number of pooled scratches (diagnostics).
    // lint:allow(panic) reason="pool users do not panic while holding the lock"
    pub fn len(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").items.len()
    }

    /// `true` when no scratch is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss statistics accumulated since construction.
    // lint:allow(panic) reason="pool users do not panic while holding the lock"
    pub fn stats(&self) -> PoolStats {
        self.pool.lock().expect("scratch pool poisoned").stats
    }
}

/// [`run_chunked`] with **per-worker scratch state** drawn from (and
/// returned to) `pool`: each worker takes one scratch on its own
/// thread, threads it through every job it handles and puts it back
/// when done, so evaluation scratch (`anneal_sim::SimScratch`) stays
/// warm across cells instead of being rebuilt per cell. Results must
/// not depend on the scratch state (scratch is an optimization, never
/// an input), so the output remains reproducible under any thread cap.
/// This is the one fan-out loop; [`run_chunked`] runs on it with a
/// scratch-free pool.
// lint:allow(panic) reason="worker panics are propagated; the strided split covers every job index once"
pub fn run_chunked_pooled<T, S, F>(
    jobs: usize,
    max_threads: usize,
    pool: &ScratchPool<S>,
    f: F,
) -> Vec<T>
where
    T: Send,
    S: Default + Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = if max_threads == 0 {
        default_max_threads()
    } else {
        max_threads
    }
    .min(jobs);
    let f = &f;
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = pool.take();
                    let mut out = Vec::new();
                    let mut i = w;
                    while i < jobs {
                        out.push((i, f(&mut scratch, i)));
                        i += threads;
                    }
                    pool.put(scratch);
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("worker thread panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index is covered by exactly one worker"))
        .collect()
}

/// Outcome of a restart sweep.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// The best run.
    pub result: SimResult,
    /// The seed that produced it.
    pub seed: u64,
    /// Makespan of every seed, in input order.
    pub all_makespans: Vec<u64>,
}

impl RestartOutcome {
    /// Accumulates the sweep into `r`: an `sa.restarts` counter plus
    /// the winning run's kernel counters. Restart *outcomes* are
    /// thread-count-independent (each seed's run is sequential), so
    /// everything recorded here is deterministic-class.
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sa.restarts", self.all_makespans.len() as u64);
        self.result.obs.record_into(r);
    }
}

/// The restart pick shared by both sweeps: the first error in seed
/// order, else the index of the lowest makespan (ties break toward the
/// earlier seed), that run, and every seed's makespan in input order.
// lint:allow(panic) reason="both sweeps assert at least one seed, so one run exists"
fn pick_best<R>(
    results: Vec<Result<R, SimError>>,
    makespan: impl Fn(&R) -> u64,
) -> Result<(usize, R, Vec<u64>), SimError> {
    let mut runs = results.into_iter().collect::<Result<Vec<R>, _>>()?;
    let all: Vec<u64> = runs.iter().map(makespan).collect();
    let idx = (0..all.len())
        .min_by_key(|&i| all[i])
        .expect("at least one seed");
    Ok((idx, runs.swap_remove(idx), all))
}

/// Runs one full SA schedule per seed (in parallel, capped at
/// `max_threads`; `0` = [`default_max_threads`]) and returns the best
/// by makespan; ties break toward the earlier seed in `seeds`. The
/// outcome is identical for every cap — only the degree of concurrency
/// changes.
pub fn best_of_restarts(
    graph: &TaskGraph,
    topology: &Topology,
    params: &CommParams,
    base: &SaConfig,
    seeds: &[u64],
    sim_cfg: &SimConfig,
    max_threads: usize,
) -> Result<RestartOutcome, SimError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    // Each worker keeps one fast-lane scratch warm across all the
    // restarts it handles: the per-packet tables are rebuilt in place
    // (no allocation at the steady-state high-water mark). Scratch is
    // never an input — outcomes are identical for any thread cap.
    let pool: ScratchPool<SaScratch> = ScratchPool::new();
    let results = run_chunked_pooled(seeds.len(), max_threads, &pool, |scratch, i| {
        let mut sched = SaScheduler::new(base.clone().with_seed(seeds[i]));
        sched.set_scratch(std::mem::take(scratch));
        let r = simulate(graph, topology, params, &mut sched, sim_cfg);
        *scratch = sched.take_scratch();
        r
    });
    let (idx, result, all_makespans) = pick_best(results, |r: &SimResult| r.makespan)?;
    Ok(RestartOutcome {
        result,
        seed: seeds[idx],
        all_makespans,
    })
}

/// Outcome of a whole-graph (static SA) restart sweep.
#[derive(Debug, Clone)]
pub struct StaticRestartOutcome {
    /// The best run's full outcome.
    pub outcome: StaticSaOutcome,
    /// The seed that produced it.
    pub seed: u64,
    /// Makespan of every seed, in input order.
    pub all_makespans: Vec<u64>,
}

/// Runs one whole-graph annealing per seed (in parallel, capped at
/// `max_threads`; `0` = [`default_max_threads`]) and returns the best
/// by makespan; ties break toward the earlier seed.
///
/// Every restart prices its moves through the shared
/// [`Evaluator`](crate::eval::Evaluator) selected by
/// `base.evaluator` — with the default incremental kernel, a restart
/// sweep that used to cost `seeds × moves` full simulations now costs
/// `seeds` full simulations plus cheap suffix replays.
pub fn best_of_static_restarts(
    graph: &TaskGraph,
    topology: &Topology,
    params: &CommParams,
    sim_cfg: &SimConfig,
    base: &StaticSaConfig,
    seeds: &[u64],
    max_threads: usize,
) -> Result<StaticRestartOutcome, SimError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let results = run_chunked(seeds.len(), max_threads, |i| {
        let cfg = StaticSaConfig {
            seed: seeds[i],
            ..base.clone()
        };
        static_sa(graph, topology, params, sim_cfg, &cfg)
    });
    let (idx, outcome, all_makespans) =
        pick_best(results, |o: &StaticSaOutcome| o.result.makespan)?;
    Ok(StaticRestartOutcome {
        outcome,
        seed: seeds[idx],
        all_makespans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use anneal_graph::units::us;
    use anneal_topology::builders::hypercube;
    use rand::SeedableRng;

    fn sample_graph() -> TaskGraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        layered_random(
            &LayeredConfig {
                layers: 4,
                width: 6,
                edge_prob: 0.3,
                load: Range::new(us(5.0), us(40.0)),
                comm: Range::new(us(1.0), us(8.0)),
            },
            &mut rng,
        )
    }

    #[test]
    fn best_of_restarts_picks_minimum() {
        let g = sample_graph();
        let topo = hypercube(3);
        let out = best_of_restarts(
            &g,
            &topo,
            &CommParams::paper(),
            &SaConfig::default(),
            &[1, 2, 3, 4],
            &SimConfig::default(),
            0,
        )
        .unwrap();
        assert_eq!(out.all_makespans.len(), 4);
        let min = *out.all_makespans.iter().min().unwrap();
        assert_eq!(out.result.makespan, min);
        assert!(out.all_makespans.contains(&out.result.makespan));
        out.result.audit(&g).unwrap();
    }

    #[test]
    fn restart_sweep_is_deterministic() {
        let g = sample_graph();
        let topo = hypercube(3);
        let run = || {
            best_of_restarts(
                &g,
                &topo,
                &CommParams::paper(),
                &SaConfig::default(),
                &[7, 8],
                &SimConfig::default(),
                0,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.result.makespan, b.result.makespan);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.all_makespans, b.all_makespans);
    }

    #[test]
    fn thread_cap_does_not_change_outcome() {
        let g = sample_graph();
        let topo = hypercube(3);
        let run = |cap: usize| {
            best_of_restarts(
                &g,
                &topo,
                &CommParams::paper(),
                &SaConfig::default(),
                &[3, 4, 5, 6, 7],
                &SimConfig::default(),
                cap,
            )
            .unwrap()
        };
        let serial = run(1);
        let capped = run(2);
        let wide = run(0);
        assert_eq!(serial.all_makespans, capped.all_makespans);
        assert_eq!(serial.all_makespans, wide.all_makespans);
        assert_eq!(serial.seed, wide.seed);
    }

    #[test]
    fn run_chunked_orders_and_covers() {
        for cap in [0, 1, 2, 7, 64] {
            let out = run_chunked(13, cap, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>(), "cap {cap}");
        }
        assert!(run_chunked(0, 3, |i| i).is_empty());
        assert!(default_max_threads() >= 1);
    }

    #[test]
    fn run_chunked_pooled_reuses_per_worker_state() {
        // With one worker, the scratch threads through every job in
        // order; results stay in job order regardless of cap.
        let pool: ScratchPool<usize> = ScratchPool::new();
        let out = run_chunked_pooled(6, 1, &pool, |seen, i| {
            *seen += 1;
            (i, *seen)
        });
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        for cap in [0, 2, 5] {
            let out = run_chunked_pooled(9, cap, &ScratchPool::<()>::new(), |(), i| i * 3);
            assert_eq!(out, (0..9).map(|i| i * 3).collect::<Vec<_>>(), "cap {cap}");
        }
        assert!(run_chunked_pooled(0, 2, &ScratchPool::<()>::new(), |(), i| i).is_empty());
    }

    #[test]
    fn scratch_pool_recycles_across_fanouts() {
        let pool: ScratchPool<Vec<u64>> = ScratchPool::new();
        assert!(pool.is_empty());
        for round in 0..3 {
            let out = run_chunked_pooled(8, 2, &pool, |scratch, i| {
                scratch.push(i as u64);
                i * 2
            });
            assert_eq!(
                out,
                (0..8).map(|i| i * 2).collect::<Vec<_>>(),
                "round {round}"
            );
            // every worker returned its scratch (a fast worker's
            // scratch may have been re-taken by a slower one, so the
            // count is 1..=2, never 0 and never growing per round)
            let len = pool.len();
            assert!((1..=2).contains(&len), "round {round}: {len}");
        }
        // every job of every round landed in a scratch that is back in
        // the pool: the pooled scratches hold all 24 pushes.
        let mut total = 0;
        while !pool.is_empty() {
            total += pool.take().len();
        }
        assert_eq!(total, 24);
        // every take was counted: 3 fan-outs plus the drain above
        let stats = pool.stats();
        assert!(stats.hits >= 1, "at least one warm reuse across rounds");
        assert!(stats.misses >= 1, "the first take is always cold");
        let mut reg = anneal_obs::MetricsRegistry::new();
        stats.record_into(&mut reg);
        assert_eq!(reg.counter("sched.pool.hits"), stats.hits);
        assert_eq!(reg.counter("sched.pool.misses"), stats.misses);
        use anneal_obs::MetricClass;
        assert_eq!(
            anneal_obs::class_of("sched.pool.hits"),
            MetricClass::Scheduling
        );
    }

    #[test]
    fn static_restart_sweep_is_deterministic_and_picks_minimum() {
        let g = sample_graph();
        let topo = hypercube(2);
        let base = StaticSaConfig {
            max_iters: 20,
            moves_per_temp: 6,
            ..StaticSaConfig::default()
        };
        let run = |cap| {
            best_of_static_restarts(
                &g,
                &topo,
                &CommParams::paper(),
                &SimConfig::default(),
                &base,
                &[1, 2, 3],
                cap,
            )
            .unwrap()
        };
        let serial = run(1);
        let wide = run(0);
        assert_eq!(serial.all_makespans, wide.all_makespans);
        assert_eq!(serial.seed, wide.seed);
        let min = *serial.all_makespans.iter().min().unwrap();
        assert_eq!(serial.outcome.result.makespan, min);
        serial.outcome.result.audit(&g).unwrap();
    }

    #[test]
    fn more_restarts_never_hurt() {
        let g = sample_graph();
        let topo = hypercube(3);
        let few = best_of_restarts(
            &g,
            &topo,
            &CommParams::paper(),
            &SaConfig::default(),
            &[1],
            &SimConfig::default(),
            0,
        )
        .unwrap();
        let many = best_of_restarts(
            &g,
            &topo,
            &CommParams::paper(),
            &SaConfig::default(),
            &[1, 2, 3, 4, 5, 6],
            &SimConfig::default(),
            0,
        )
        .unwrap();
        assert!(many.result.makespan <= few.result.makespan);
    }
}
