//! Fast makespan evaluation of fixed mappings, with incremental moves.
//!
//! Whole-graph annealing (`anneal-core`'s `static_sa`) and the arena's
//! adversarial search both evaluate *thousands* of candidate mappings,
//! and until this module existed every candidate paid for a complete
//! [`simulate`](crate::simulate) call: a fresh route table, a fresh
//! event queue, Gantt span recording, statistics, and a fully allocated
//! [`SimResult`](crate::SimResult) — all to read one number, the
//! makespan.
//!
//! [`FixedEval`] is a specialization of the shared fast-path kernel
//! ([`crate::fastpath`] — packed 16-byte 4-ary event heap,
//! per-processor compute-completion registers, precomputed all-pairs
//! routes, fully reused buffers) to the
//! [`FixedMapping`](crate::FixedMapping) scheduler. The kernel supplies
//! the event plumbing; this module supplies the fixed-mapping dispatch
//! rule (per-processor waiting lists) and everything **incremental**:
//!
//! after [`FixedEval::eval_relocate`] or [`FixedEval::eval_swap`], only
//! the *affected cone* of the move is recomputed. Because messages
//! preempt third-party processors (routing τ) and contend for channels
//! (FIFO), the structurally affected cone of a move — the moved task's
//! dependents plus the two processors' queues — is not sound for this
//! engine: a retimed message can displace an unrelated message on a
//! shared link. The cone that *is* sound is **temporal**, and the
//! evaluator computes it exactly:
//!
//! 1. a task's mapping is first *read* when the task becomes ready, so
//!    nothing can diverge before the moved tasks' ready times;
//! 2. from there, the only reads are dispatch decisions, and a move
//!    touches exactly two processors' waiting queues — so the first
//!    epoch of the committed baseline at which either processor would
//!    pick a different task under the candidate mapping is the exact
//!    divergence point (if no epoch decides differently, the candidate
//!    provably replays the baseline and no simulation runs at all).
//!
//! The evaluator snapshots the engine state at every scheduling epoch
//! of the committed baseline, resumes the candidate at the divergence
//! epoch, and replays only the suffix. [`FixedEval::commit`] is *lazy*:
//! the accepted candidate shares the baseline timeline up to its resume
//! point, so commit just truncates the snapshot list there; the dropped
//! tail is re-recorded only when repeated commits have eroded it past
//! half a run (until then, candidates conservatively resume at the
//! boundary — no worse than an average move).
//!
//! The equivalence contract — `FixedEval` agrees with a from-scratch
//! DES replay on every mapping, including after arbitrarily long
//! relocate/swap/commit chains — is enforced by unit tests here and
//! the proptest suite in `anneal-core/tests/evaluator.rs`; the
//! allocation-regression test in `tests/alloc.rs` pins steady-state
//! move evaluation at zero heap allocation.

use anneal_graph::{TaskGraph, TaskId};
use anneal_topology::{CommParams, ProcId, RouteTable, Topology};

use crate::fastpath::{
    Driver, FlatRoutes, HeapEv, KernelCtx, KernelState, MsgMeta, Oh, SimConfig, SimError, NONE,
};
use crate::SimTime;

/// Always-on counters of a [`FixedEval`]'s incremental machinery,
/// readable via [`FixedEval::obs_stats`]. All deterministic: pure
/// functions of the instance and the sequence of
/// `reset`/`eval_*`/`commit` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalObsStats {
    /// Full baseline runs ([`FixedEval::reset`]).
    pub resets: u64,
    /// Moves proposed (`eval_relocate` + `eval_swap`).
    pub moves: u64,
    /// Candidates that provably replayed the baseline (no simulation).
    pub noop_candidates: u64,
    /// Baseline epochs skipped by resuming mid-timeline instead of
    /// replaying from time 0.
    pub epochs_skipped: u64,
    /// Epochs actually re-simulated across all candidate runs.
    pub epochs_replayed: u64,
    /// Candidates adopted ([`FixedEval::commit`]).
    pub commits: u64,
    /// Commits that truncated the snapshot tail (lazy commits).
    pub lazy_truncations: u64,
    /// Times the eroded timeline tail was re-recorded.
    pub timeline_rebuilds: u64,
    /// Deepest resume index used (snapshots into the timeline).
    pub max_resume_depth: u64,
}

impl EvalObsStats {
    /// Accumulates into `r` under `eval.*` keys (counters except the
    /// `eval.max_resume_depth` gauge).
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("eval.resets", self.resets);
        r.add("eval.moves", self.moves);
        r.add("eval.noop_candidates", self.noop_candidates);
        r.add("eval.epochs_skipped", self.epochs_skipped);
        r.add("eval.epochs_replayed", self.epochs_replayed);
        r.add("eval.commits", self.commits);
        r.add("eval.lazy_truncations", self.lazy_truncations);
        r.add("eval.timeline_rebuilds", self.timeline_rebuilds);
        r.hwm("eval.max_resume_depth", self.max_resume_depth);
    }
}

/// A candidate move, as the divergence scan sees it.
#[derive(Debug, Clone, Copy)]
enum Mv {
    /// Task `t` relocates from processor `from` to `to`.
    Relocate { t: u32, from: u32, to: u32 },
    /// Tasks `a` (on `pa`) and `b` (on `pb`) exchange processors.
    Swap { a: u32, b: u32, pa: u32, pb: u32 },
}

/// The scalar slice of one processor's snapshot state; its two
/// overhead queues live flattened in [`Snapshot::queue_items`]
/// (`incoming_len` entries, then `sends_len`).
#[derive(Debug, Clone, Copy, Default)]
struct ProcSnap {
    assigned: u32,
    task: u32,
    remaining: SimTime,
    running_since: SimTime,
    cur_oh: Option<Oh>,
    done_at: SimTime,
    done_seq: u64,
    incoming_len: u32,
    sends_len: u32,
}

/// Complete engine state at one scheduling epoch (taken *before* the
/// epoch's dispatch decisions run). Restoring a snapshot and re-running
/// reproduces the original suffix event for event.
///
/// Per-processor overhead queues and per-channel FIFO queues are
/// stored flattened in shared arenas (`queue_items` / `chan_items`)
/// rather than as nested `VecDeque`s: every message occupies at most
/// one overhead queue and at most one channel queue at a time, so both
/// arenas are bounded by the predecessor-edge count — `snap_record`
/// reserves that bound once, after which recycling a pooled snapshot
/// into *any* state allocates nothing (nested queues would keep
/// reallocating whenever a recycled snapshot met a larger queue than
/// it had ever held).
#[derive(Debug, Clone, Default)]
struct Snapshot {
    now: SimTime,
    seq: u64,
    events: u64,
    heap: Vec<HeapEv>,
    procs: Vec<ProcSnap>,
    /// Flattened per-proc overhead queues, in proc order.
    queue_items: Vec<Oh>,
    chan_busy: Vec<bool>,
    chan_lens: Vec<u32>,
    /// Flattened per-channel FIFO queues, in channel order.
    chan_items: Vec<u32>,
    /// In-flight messages as `(edge id, meta, hop)`.
    live_msgs: Vec<(u32, MsgMeta, u32)>,
    placement: Vec<u32>,
    unfinished: Vec<u32>,
    pending: Vec<u32>,
    ready: Vec<u32>,
    finished: u32,
    max_finish: SimTime,
    /// The dispatch decisions the epoch at this snapshot made
    /// (`(task, proc)` pairs, one per dispatching processor) — filled
    /// in right after the epoch runs. The divergence scan reads these
    /// instead of recomputing queue minima: a candidate mapping
    /// diverges at this epoch iff it changes one of the two affected
    /// processors' picks, which is decidable from the recorded pick
    /// plus one `(order, id)` comparison.
    decisions: Vec<(u32, u32)>,
}

/// The kernel driver for fixed-mapping runs: per-processor waiting
/// lists make each epoch's dispatch O(idle + waiting) instead of
/// O(ready × procs), `ready_at` feeds the divergence scan's lower
/// bound, and the epoch hooks record baseline snapshots.
struct FixedDriver<'s> {
    order: &'s [u64],
    mapping: &'s [ProcId],
    waiting: &'s mut [Vec<u32>],
    ready_at: &'s mut [SimTime],
    record: bool,
    base_snaps: &'s mut Vec<Snapshot>,
    snap_pool: &'s mut Vec<Snapshot>,
}

impl Driver for FixedDriver<'_> {
    /// Every idle processor takes its waiting ready task with the
    /// lowest `(order, id)` — `FixedMapping::on_epoch`. Tasks waiting
    /// per processor are disjoint, so scanning each idle processor's
    /// own waiting list reproduces the engine's decisions exactly
    /// without touching the full ready set.
    fn dispatch(
        &mut self,
        k: &KernelState,
        _ctx: &KernelCtx<'_>,
        out: &mut Vec<(u32, u32)>,
    ) -> Result<(), SimError> {
        for (p, pr) in k.procs().iter().enumerate() {
            if pr.assigned != NONE {
                continue;
            }
            let mut best: Option<u32> = None;
            for &t in &self.waiting[p] {
                let better = match best {
                    None => true,
                    Some(b) => (self.order[t as usize], t) < (self.order[b as usize], b),
                };
                if better {
                    best = Some(t);
                }
            }
            if let Some(t) = best {
                out.push((t, p as u32));
            }
        }
        Ok(())
    }

    // lint:allow(panic) reason="the kernel assigns only tasks it previously reported ready"
    fn task_assigned(&mut self, t: u32, q: u32) {
        let w = &mut self.waiting[q as usize];
        let pos = w.iter().position(|&x| x == t).expect("task was waiting");
        w.swap_remove(pos);
    }

    fn task_ready(&mut self, t: u32, now: SimTime) {
        self.waiting[self.mapping[t as usize].index()].push(t);
        self.ready_at[t as usize] = now;
    }

    fn epoch_begin(&mut self, k: &KernelState) {
        if self.record {
            snap_record(k, self.base_snaps, self.snap_pool);
        }
    }

    // lint:allow(panic) reason="epoch_begin recorded a snapshot on this same epoch"
    fn epoch_end(&mut self, k: &KernelState) {
        if self.record {
            let snap = self.base_snaps.last_mut().expect("just recorded");
            snap.decisions.clear();
            snap.decisions.extend_from_slice(&k.assign_buf);
        }
    }
}

/// Records the kernel's current state as a snapshot (recycling pooled
/// buffers). Every buffer is reserved to its exact worst-case bound
/// first, so a recycled snapshot never reallocates regardless of which
/// state it is asked to hold.
fn snap_record(k: &KernelState, snaps: &mut Vec<Snapshot>, pool: &mut Vec<Snapshot>) {
    let mut s = pool.pop().unwrap_or_default();
    let n = k.placement.len();
    let ne = k.msgs.len();
    let np = k.num_procs;
    let nc = k.num_channels;
    s.now = k.now;
    s.seq = k.seq;
    s.events = k.events;
    s.heap.clear();
    s.heap.reserve(np + nc);
    s.heap.extend(k.heap.iter().copied());
    s.procs.clear();
    s.procs.reserve(np);
    s.queue_items.clear();
    s.queue_items.reserve(ne);
    for pr in k.procs() {
        s.procs.push(ProcSnap {
            assigned: pr.assigned,
            task: pr.task,
            remaining: pr.remaining,
            running_since: pr.running_since,
            cur_oh: pr.cur_oh,
            done_at: pr.done_at,
            done_seq: pr.done_seq,
            incoming_len: pr.incoming.len() as u32,
            sends_len: pr.sends.len() as u32,
        });
        s.queue_items.extend(pr.incoming.iter().copied());
        s.queue_items.extend(pr.sends.iter().copied());
    }
    s.chan_busy.clear();
    s.chan_busy.reserve(nc);
    s.chan_lens.clear();
    s.chan_lens.reserve(nc);
    s.chan_items.clear();
    s.chan_items.reserve(ne);
    for ch in &k.channels[..nc] {
        s.chan_busy.push(ch.busy);
        s.chan_lens.push(ch.queue.len() as u32);
        s.chan_items.extend(ch.queue.iter().copied());
    }
    s.live_msgs.clear();
    s.live_msgs.reserve(ne);
    s.live_msgs.extend(
        k.live
            .iter()
            .map(|&id| (id, k.msgs[id as usize], k.msg_hop[id as usize])),
    );
    s.placement.clear();
    s.placement.reserve(n);
    s.placement.extend_from_slice(&k.placement);
    s.unfinished.clear();
    s.unfinished.reserve(n);
    s.unfinished.extend_from_slice(&k.unfinished);
    s.pending.clear();
    s.pending.reserve(n);
    s.pending.extend_from_slice(&k.pending);
    s.ready.clear();
    s.ready.reserve(n);
    s.ready.extend_from_slice(&k.ready);
    s.finished = k.finished;
    s.max_finish = k.max_finish;
    s.decisions.clear();
    s.decisions.reserve(np);
    snaps.push(s);
}

/// Incremental fixed-mapping makespan evaluator.
///
/// Create one per `(graph, topology, params, config, dispatch order)`
/// instance, establish a baseline with [`FixedEval::reset`], then probe
/// single-task moves with [`FixedEval::eval_relocate`] /
/// [`FixedEval::eval_swap`] and adopt accepted candidates with
/// [`FixedEval::commit`]. Every makespan returned is bit-identical to
/// `simulate(..)` with `FixedMapping::new(mapping).with_order(order)`.
#[derive(Debug)]
pub struct FixedEval<'a> {
    g: &'a TaskGraph,
    num_procs: usize,
    num_channels: usize,
    params: CommParams,
    comm_enabled: bool,
    max_events: u64,
    order: Vec<u64>,
    routes: FlatRoutes,
    /// `pred_base[t]` = first predecessor-edge id of task `t` (edge ids
    /// number the incoming edges of all tasks consecutively).
    pred_base: Vec<u32>,

    // Committed baseline.
    base_mapping: Vec<ProcId>,
    base_makespan: SimTime,
    base_ready_at: Vec<SimTime>,
    base_snaps: Vec<Snapshot>,
    has_base: bool,
    /// `true` when `base_snaps` covers the baseline's whole run. A lazy
    /// commit truncates the timeline at the accepted candidate's resume
    /// point (the shared prefix stays valid); the missing tail is only
    /// re-recorded when it has eroded past half of `epochs_hint`.
    timeline_complete: bool,
    /// Epoch count of the last complete timeline (rebuild heuristic).
    epochs_hint: usize,

    // Last evaluated candidate.
    cand_mapping: Vec<ProcId>,
    cand_makespan: SimTime,
    cand_resume: usize,
    /// The candidate provably replayed the baseline trajectory (its
    /// mapping dispatches identically), so commit has no suffix to
    /// adopt.
    cand_is_noop: bool,
    has_candidate: bool,

    /// The live engine state of whichever run is in progress (the
    /// shared fast-path kernel; every buffer reused).
    k: KernelState,
    run_mapping: Vec<ProcId>,
    /// `waiting[p]` = ready tasks mapped to processor `p` under the
    /// current run's mapping (unordered; dispatch selects the minimum
    /// by `(order, id)`). Derived state — rebuilt from the kernel's
    /// ready set on restore — so snapshots don't store it.
    waiting: Vec<Vec<u32>>,
    ready_at: Vec<SimTime>,
    snap_pool: Vec<Snapshot>,
    evaluations: u64,
    obs: EvalObsStats,
}

impl<'a> FixedEval<'a> {
    /// Builds an evaluator for one instance. `order` is the dispatch
    /// priority per task (lower dispatches first, ties by task id) —
    /// exactly [`FixedMapping::with_order`](crate::FixedMapping).
    ///
    /// Errors if the topology is disconnected.
    ///
    /// # Panics
    ///
    /// Panics when `order.len() != g.num_tasks()`.
    pub fn new(
        g: &'a TaskGraph,
        topo: &Topology,
        params: &CommParams,
        cfg: &SimConfig,
        order: Vec<u64>,
    ) -> Result<Self, SimError> {
        assert_eq!(order.len(), g.num_tasks(), "order must cover every task");
        let table = RouteTable::build(topo).map_err(|e| SimError::Disconnected(e.to_string()))?;
        let routes = FlatRoutes::build(topo, &table);
        let np = topo.num_procs();
        let n = g.num_tasks();
        let mut pred_base = Vec::with_capacity(n + 1);
        crate::fastpath::build_pred_base(g, &mut pred_base);
        Ok(FixedEval {
            g,
            num_procs: np,
            num_channels: topo.num_channels(),
            params: *params,
            comm_enabled: cfg.comm_enabled,
            max_events: cfg.max_events,
            order,
            routes,
            pred_base,
            base_mapping: Vec::new(),
            base_makespan: 0,
            base_ready_at: vec![0; n],
            // A run records at most n + 1 epochs; snapshots circulate
            // between the timeline and the pool, so 2(n + 2) slots keep
            // both lists from ever reallocating in steady state.
            base_snaps: Vec::with_capacity(2 * n + 4),
            has_base: false,
            timeline_complete: false,
            epochs_hint: 0,
            cand_mapping: Vec::new(),
            cand_makespan: 0,
            cand_resume: 0,
            cand_is_noop: false,
            has_candidate: false,
            k: KernelState::default(),
            run_mapping: Vec::new(),
            waiting: vec![Vec::new(); np],
            ready_at: vec![0; n],
            snap_pool: Vec::with_capacity(2 * n + 4),
            evaluations: 0,
            obs: EvalObsStats::default(),
        })
    }

    /// The committed baseline mapping.
    ///
    /// # Panics
    ///
    /// Panics before the first successful [`FixedEval::reset`].
    pub fn mapping(&self) -> &[ProcId] {
        assert!(self.has_base, "no baseline: call reset() first");
        &self.base_mapping
    }

    /// The committed baseline makespan.
    ///
    /// # Panics
    ///
    /// Panics before the first successful [`FixedEval::reset`].
    pub fn makespan(&self) -> SimTime {
        assert!(self.has_base, "no baseline: call reset() first");
        self.base_makespan
    }

    /// Candidate evaluations performed (resets + moves).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Counters of the incremental machinery (resume depths, epochs
    /// skipped vs replayed, lazy-commit truncations, rebuilds).
    pub fn obs_stats(&self) -> EvalObsStats {
        self.obs
    }

    /// Establishes `mapping` as the committed baseline by a full run,
    /// returning its makespan.
    pub fn reset(&mut self, mapping: &[ProcId]) -> Result<SimTime, SimError> {
        self.check_mapping(mapping)?;
        self.has_base = false;
        self.has_candidate = false;
        self.run_mapping.clear();
        self.run_mapping.extend_from_slice(mapping);
        self.snap_pool.append(&mut self.base_snaps);
        self.init_state();
        let makespan = self.run(true)?;
        self.evaluations += 1;
        self.obs.resets += 1;
        self.base_mapping.clone_from(&self.run_mapping);
        self.base_makespan = makespan;
        self.base_ready_at.clone_from(&self.ready_at);
        self.has_base = true;
        self.timeline_complete = true;
        self.epochs_hint = self.base_snaps.len();
        Ok(makespan)
    }

    /// Makespan of the baseline with `task` relocated to `to`. The
    /// baseline itself is unchanged until [`FixedEval::commit`].
    ///
    /// # Panics
    ///
    /// Panics without a baseline or when `task`/`to` are out of range.
    pub fn eval_relocate(&mut self, task: TaskId, to: ProcId) -> Result<SimTime, SimError> {
        assert!(self.has_base, "no baseline: call reset() first");
        assert!(to.index() < self.num_procs, "{to} out of range");
        self.obs.moves += 1;
        self.maybe_rebuild();
        self.cand_mapping.clone_from(&self.base_mapping);
        let from = self.cand_mapping[task.index()];
        self.cand_mapping[task.index()] = to;
        let dirty = self.dirty_time();
        let bound = self.effective_bound(task.index(), dirty);
        let mv = Mv::Relocate {
            t: task.index() as u32,
            from: from.index() as u32,
            to: to.index() as u32,
        };
        self.eval_candidate(bound, mv)
    }

    /// Makespan of the baseline with tasks `a` and `b` exchanging
    /// processors. The baseline is unchanged until [`FixedEval::commit`].
    ///
    /// # Panics
    ///
    /// Panics without a baseline or when `a`/`b` are out of range.
    pub fn eval_swap(&mut self, a: TaskId, b: TaskId) -> Result<SimTime, SimError> {
        assert!(self.has_base, "no baseline: call reset() first");
        self.obs.moves += 1;
        self.maybe_rebuild();
        self.cand_mapping.clone_from(&self.base_mapping);
        let (pa, pb) = (self.cand_mapping[a.index()], self.cand_mapping[b.index()]);
        self.cand_mapping.swap(a.index(), b.index());
        let dirty = self.dirty_time();
        let bound = self
            .effective_bound(a.index(), dirty)
            .min(self.effective_bound(b.index(), dirty));
        let mv = Mv::Swap {
            a: a.index() as u32,
            b: b.index() as u32,
            pa: pa.index() as u32,
            pb: pb.index() as u32,
        };
        self.eval_candidate(bound, mv)
    }

    /// Adopts the most recently evaluated candidate as the committed
    /// baseline. O(1) apart from bookkeeping: the candidate shares the
    /// baseline's timeline up to its resume point, so the snapshot tail
    /// is dropped and re-recorded lazily once it has eroded enough to
    /// matter.
    ///
    /// # Panics
    ///
    /// Panics when no candidate evaluation succeeded since the last
    /// `reset`/`commit`.
    pub fn commit(&mut self) {
        assert!(self.has_candidate, "no candidate to commit");
        self.has_candidate = false;
        self.obs.commits += 1;
        if self.cand_is_noop {
            // The candidate's trajectory is the baseline's; nothing in
            // the timeline changes (and the mappings are equal).
            debug_assert_eq!(self.base_mapping, self.cand_mapping);
            return;
        }
        // Lazy commit: the candidate shares the baseline's trajectory
        // strictly before its resume epoch, so every snapshot up to and
        // including the resume point (a pre-epoch state) is already the
        // new baseline's. The tail is simply dropped; `base_ready_at`
        // keeps stale entries, guarded by the dirty-boundary rule in
        // `effective_bound`, and `rebuild_timeline` re-records the tail
        // once it has eroded enough to matter.
        self.base_mapping.clone_from(&self.cand_mapping);
        self.base_makespan = self.cand_makespan;
        self.obs.lazy_truncations += 1;
        self.snap_pool
            .extend(self.base_snaps.drain(self.cand_resume + 1..));
        self.timeline_complete = false;
    }

    /// The scan lower bound for a moved task: its baseline ready time
    /// when that value is provably still current, else the dirty
    /// boundary. A stale entry `< dirty_time` lies in the shared prefix
    /// of every baseline since it was written, so it is exact; any
    /// other value could describe a dropped tail, and the conservative
    /// answer is the boundary itself.
    fn effective_bound(&self, task: usize, dirty_time: SimTime) -> SimTime {
        let stale = self.base_ready_at[task];
        if self.timeline_complete || stale < dirty_time {
            stale
        } else {
            dirty_time
        }
    }

    /// Time of the last valid snapshot — the boundary beyond which the
    /// lazily committed timeline has been dropped.
    // lint:allow(panic) reason="reset() always records the time-0 snapshot"
    fn dirty_time(&self) -> SimTime {
        self.base_snaps.last().expect("baseline has snapshots").now
    }

    /// Rebuilds the dropped timeline tail once lazy commits have eroded
    /// it past half of a full run's epochs: before that, candidates
    /// simply resume at the boundary (no worse than an average resume);
    /// beyond it, every evaluation would degenerate toward a full
    /// replay.
    fn maybe_rebuild(&mut self) {
        assert!(self.has_base, "no baseline: call reset() first");
        if !self.timeline_complete && self.base_snaps.len() * 2 < self.epochs_hint {
            self.rebuild_timeline();
        }
    }

    /// Re-records the dropped timeline tail by replaying the baseline
    /// from its last valid snapshot with recording on.
    // lint:allow(panic) reason="maybe_rebuild only runs with a baseline, which replays deterministically"
    fn rebuild_timeline(&mut self) {
        self.obs.timeline_rebuilds += 1;
        let idx = self.base_snaps.len() - 1;
        self.run_mapping.clone_from(&self.base_mapping);
        self.restore(idx, true);
        let popped = self.base_snaps.pop().expect("restored snapshot");
        self.snap_pool.push(popped);
        let makespan = self.run(true).expect("baseline replays cleanly");
        debug_assert_eq!(makespan, self.base_makespan);
        self.base_ready_at.clone_from(&self.ready_at);
        self.timeline_complete = true;
        self.epochs_hint = self.base_snaps.len();
    }

    fn check_mapping(&self, mapping: &[ProcId]) -> Result<(), SimError> {
        if mapping.len() != self.g.num_tasks() {
            return Err(SimError::InvalidAssignment(format!(
                "mapping covers {} of {} tasks",
                mapping.len(),
                self.g.num_tasks()
            )));
        }
        if let Some(p) = mapping.iter().find(|p| p.index() >= self.num_procs) {
            return Err(SimError::InvalidAssignment(format!(
                "{p} is not in the topology"
            )));
        }
        Ok(())
    }

    /// Whether the candidate move changes the dispatch decision the
    /// epoch recorded at `snap` made. O(P): the recorded decisions say
    /// what each affected processor picked in the baseline, and a
    /// single-task move can only change a pick by removing the picked
    /// task from its queue or by adding a higher-priority task to an
    /// idle processor's queue.
    fn decisions_diverge(&self, snap: &Snapshot, mv: Mv) -> bool {
        let decision_of = |p: u32| -> Option<u32> {
            snap.decisions
                .iter()
                .find(|&&(_, dp)| dp == p)
                .map(|&(t, _)| t)
        };
        let idle = |p: u32| snap.procs[p as usize].assigned == NONE;
        let is_ready = |t: u32| snap.ready.binary_search(&t).is_ok();
        let beats = |t: u32, c: u32| (self.order[t as usize], t) < (self.order[c as usize], c);
        // Does moving `t` out of `from`'s queue and into `to`'s change
        // either pick? (`gains` = the task the other side of a swap
        // adds to `from`'s queue, if any.)
        let side = |t: u32, from: u32, to: u32, gains: Option<u32>| -> bool {
            let t_ready = is_ready(t);
            if t_ready {
                if decision_of(from) == Some(t) {
                    return true;
                }
                if idle(to) {
                    match decision_of(to) {
                        None => return true,
                        Some(c) if beats(t, c) => return true,
                        _ => {}
                    }
                }
            }
            // A swap partner joining `from`'s queue can out-prioritize
            // the baseline pick there (or fill an empty queue: `g` is
            // ready here, so an idle `from` that dispatched nothing in
            // the baseline dispatches `g` under the candidate).
            if let Some(g) = gains {
                if is_ready(g) && idle(from) {
                    match decision_of(from) {
                        None => return true,
                        Some(c) if c != t && beats(g, c) => return true,
                        _ => {}
                    }
                }
            }
            false
        };
        match mv {
            Mv::Relocate { t, from, to } => from != to && side(t, from, to, None),
            Mv::Swap { a, b, pa, pb } => {
                pa != pb && (side(a, pa, pb, Some(b)) || side(b, pb, pa, Some(a)))
            }
        }
    }

    /// Runs the candidate in `cand_mapping`, resuming from the first
    /// baseline epoch whose dispatch decision the move changes.
    ///
    /// `bound` is the earliest time the moved task(s) become ready (the
    /// mapping of a task is first *read* when it is ready, so no
    /// earlier snapshot can diverge), and `affected` are the two
    /// processors whose queues the move touches: an epoch's decisions
    /// can only differ on those, so the first snapshot at which either
    /// processor would pick differently under the candidate mapping is
    /// the exact divergence point. Every epoch before it decides
    /// identically, hence the whole event trajectory up to it is
    /// shared. When *no* epoch decides differently the candidate
    /// replays the baseline exactly and no simulation runs at all.
    fn eval_candidate(&mut self, bound: SimTime, mv: Mv) -> Result<SimTime, SimError> {
        self.has_candidate = false;
        let first = self
            .base_snaps
            .partition_point(|s| s.now < bound)
            .saturating_sub(1);
        let mut resume = None;
        for idx in first..self.base_snaps.len() {
            if self.decisions_diverge(&self.base_snaps[idx], mv) {
                resume = Some(idx);
                break;
            }
        }
        let idx = match resume {
            Some(idx) => idx,
            None if self.timeline_complete => {
                // The move never changes a dispatch decision: the
                // candidate is the baseline trajectory (and the
                // baseline mapping).
                self.evaluations += 1;
                self.obs.noop_candidates += 1;
                self.obs.epochs_skipped += self.base_snaps.len() as u64;
                self.cand_makespan = self.base_makespan;
                self.cand_resume = self.base_snaps.len().saturating_sub(1);
                self.cand_is_noop = true;
                self.has_candidate = true;
                return Ok(self.base_makespan);
            }
            // Truncated timeline: the scan proves nothing diverges in
            // the valid prefix, but the dropped tail is unknown —
            // resume at the boundary.
            None => self.base_snaps.len() - 1,
        };
        std::mem::swap(&mut self.run_mapping, &mut self.cand_mapping);
        self.restore(idx, false);
        // The kernel's epoch counter is monotone across restores (it is
        // not snapshot state), so the delta over the resumed run is the
        // number of epochs actually re-simulated.
        let epochs_before = self.k.epochs;
        let res = self.run(false);
        std::mem::swap(&mut self.run_mapping, &mut self.cand_mapping);
        let makespan = res?;
        self.evaluations += 1;
        self.obs.epochs_skipped += idx as u64;
        self.obs.epochs_replayed += self.k.epochs - epochs_before;
        self.obs.max_resume_depth = self.obs.max_resume_depth.max(idx as u64);
        self.cand_makespan = makespan;
        self.cand_resume = idx;
        self.cand_is_noop = false;
        self.has_candidate = true;
        Ok(makespan)
    }

    /// Resets the scratch state to the empty time-0 engine state.
    // lint:allow(panic) reason="build_pred_base always pushes at least one offset"
    fn init_state(&mut self) {
        let num_pred_edges = *self.pred_base.last().expect("pred_base non-empty") as usize;
        self.k
            .reset(self.g, self.num_procs, self.num_channels, num_pred_edges);
        self.ready_at.fill(0);
        // Worst-case bound: every task can wait on one processor.
        let n = self.g.num_tasks();
        for w in &mut self.waiting {
            w.reserve(n);
        }
        self.rebuild_waiting();
    }

    /// Rebuilds the per-processor waiting lists from the kernel's ready
    /// set and the current run's mapping.
    fn rebuild_waiting(&mut self) {
        for w in &mut self.waiting {
            w.clear();
        }
        for &t in &self.k.ready {
            self.waiting[self.run_mapping[t as usize].index()].push(t);
        }
    }

    /// Restores the kernel state from baseline snapshot `idx` (state at
    /// an epoch trigger; the epoch itself re-runs). `with_ready_at`
    /// seeds the scratch ready times from the baseline — only commit
    /// re-runs need that (speculative candidates never read them).
    fn restore(&mut self, idx: usize, with_ready_at: bool) {
        let snap = std::mem::take(&mut self.base_snaps[idx]);
        let k = &mut self.k;
        k.now = snap.now;
        k.seq = snap.seq;
        k.events = snap.events;
        k.epoch_pending = true;
        k.heap.clear();
        for &e in &snap.heap {
            k.heap.push(e);
        }
        let mut off = 0usize;
        for (i, ps) in snap.procs.iter().enumerate() {
            let pr = &mut k.procs[i];
            pr.assigned = ps.assigned;
            pr.task = ps.task;
            pr.remaining = ps.remaining;
            pr.running_since = ps.running_since;
            pr.cur_oh = ps.cur_oh;
            pr.done_at = ps.done_at;
            pr.done_seq = ps.done_seq;
            pr.incoming.clear();
            pr.incoming.extend(
                snap.queue_items[off..off + ps.incoming_len as usize]
                    .iter()
                    .copied(),
            );
            off += ps.incoming_len as usize;
            pr.sends.clear();
            pr.sends.extend(
                snap.queue_items[off..off + ps.sends_len as usize]
                    .iter()
                    .copied(),
            );
            off += ps.sends_len as usize;
        }
        let mut coff = 0usize;
        for (i, (&busy, &len)) in snap.chan_busy.iter().zip(&snap.chan_lens).enumerate() {
            let ch = &mut k.channels[i];
            ch.busy = busy;
            ch.queue.clear();
            ch.queue
                .extend(snap.chan_items[coff..coff + len as usize].iter().copied());
            coff += len as usize;
        }
        k.live.clear();
        k.live_pos.fill(NONE);
        for &(id, meta, hop) in &snap.live_msgs {
            k.msgs[id as usize] = meta;
            k.msg_hop[id as usize] = hop;
            k.live_pos[id as usize] = k.live.len() as u32;
            k.live.push(id);
        }
        k.placement.clone_from(&snap.placement);
        k.unfinished.clone_from(&snap.unfinished);
        k.pending.clone_from(&snap.pending);
        k.ready.clone_from(&snap.ready);
        k.finished = snap.finished;
        k.max_finish = snap.max_finish;
        k.reg_cache_valid = false;
        if with_ready_at {
            self.ready_at.clone_from(&self.base_ready_at);
        }
        self.base_snaps[idx] = snap;
        // Derived state: depends on the mapping, which the caller set
        // (`run_mapping`) before restoring.
        self.rebuild_waiting();
    }

    /// Runs the kernel with the fixed-mapping driver. With `record`,
    /// the baseline timeline captures a snapshot at every scheduling
    /// epoch.
    fn run(&mut self, record: bool) -> Result<SimTime, SimError> {
        let ctx = KernelCtx {
            g: self.g,
            params: &self.params,
            comm_enabled: self.comm_enabled,
            max_events: self.max_events,
            routes: &self.routes,
            pred_base: &self.pred_base,
        };
        let mut driver = FixedDriver {
            order: &self.order,
            mapping: &self.run_mapping,
            waiting: &mut self.waiting,
            ready_at: &mut self.ready_at,
            record,
            base_snaps: &mut self.base_snaps,
            snap_pool: &mut self.snap_pool,
        };
        self.k.run(&ctx, &mut driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FixedMapping;
    use crate::simulate;
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use anneal_graph::units::us;
    use anneal_graph::TaskGraphBuilder;
    use anneal_topology::builders::{bus, hypercube, linear, ring, shared_bus, star};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    fn replay(
        g: &TaskGraph,
        topo: &Topology,
        params: &CommParams,
        cfg: &SimConfig,
        mapping: &[ProcId],
        order: &[u64],
    ) -> SimTime {
        let mut s = FixedMapping::new(mapping.to_vec()).with_order(order.to_vec());
        simulate(g, topo, params, &mut s, cfg).unwrap().makespan
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
    fn matches_engine_on_fresh_mappings() {
        let g = sample_graph(3);
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        for topo in [hypercube(3), ring(5), star(4), shared_bus(4), linear(3)] {
            let np = topo.num_procs();
            let params = CommParams::paper();
            let cfg = SimConfig::default();
            let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..6 {
                let mapping: Vec<ProcId> = (0..g.num_tasks())
                    .map(|_| p(rng.gen_range(0..np)))
                    .collect();
                let fast = ev.reset(&mapping).unwrap();
                let slow = replay(&g, &topo, &params, &cfg, &mapping, &order);
                assert_eq!(fast, slow, "{}", topo.name());
            }
        }
    }

    #[test]
    fn incremental_moves_match_full_replay() {
        let g = sample_graph(7);
        let n = g.num_tasks();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..n as u64).rev().collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut mapping: Vec<ProcId> = (0..n).map(|i| p(i % 8)).collect();
        ev.reset(&mapping).unwrap();
        for step in 0..200 {
            let t = rng.gen_range(0..n);
            let expected;
            let got;
            if rng.gen_bool(0.5) {
                let q = rng.gen_range(0..8);
                let mut cand = mapping.clone();
                cand[t] = p(q);
                expected = replay(&g, &topo, &params, &cfg, &cand, &order);
                got = ev.eval_relocate(TaskId::from_index(t), p(q)).unwrap();
                if rng.gen_bool(0.6) {
                    ev.commit();
                    mapping = cand;
                }
            } else {
                let u = rng.gen_range(0..n);
                let mut cand = mapping.clone();
                cand.swap(t, u);
                expected = replay(&g, &topo, &params, &cfg, &cand, &order);
                got = ev
                    .eval_swap(TaskId::from_index(t), TaskId::from_index(u))
                    .unwrap();
                if rng.gen_bool(0.6) {
                    ev.commit();
                    mapping = cand;
                }
            }
            assert_eq!(got, expected, "step {step}");
            assert_eq!(ev.mapping(), mapping.as_slice(), "step {step}");
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
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|i| p(i % 4)).collect();
        let fast = ev.reset(&mapping).unwrap();
        assert_eq!(fast, replay(&g, &topo, &params, &cfg, &mapping, &order));
        // single processor serializes exactly
        let topo1 = linear(1);
        let mut ev1 = FixedEval::new(&g, &topo1, &params, &cfg, order).unwrap();
        let all0 = vec![p(0); g.num_tasks()];
        assert_eq!(ev1.reset(&all0).unwrap(), g.total_work());
    }

    #[test]
    fn zero_load_tasks_and_tiny_graphs() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(0);
        let c = b.add_task(us(5.0));
        let d = b.add_task(0);
        b.add_edge(a, c, us(2.0)).unwrap();
        b.add_edge(c, d, 0).unwrap();
        let g = b.build().unwrap();
        let topo = linear(2);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order = vec![0, 1, 2];
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        for mapping in [
            vec![p(0), p(1), p(0)],
            vec![p(0), p(0), p(1)],
            vec![p(1), p(0), p(0)],
        ] {
            assert_eq!(
                ev.reset(&mapping).unwrap(),
                replay(&g, &topo, &params, &cfg, &mapping, &order)
            );
        }
    }

    #[test]
    fn steady_state_move_evaluation_is_allocation_free_of_results() {
        // Smoke for buffer reuse: thousands of evaluations on one
        // evaluator must agree with the engine at the end of the chain.
        // (tests/alloc.rs pins the actual zero-allocation property with
        // a counting allocator.)
        let g = sample_graph(13);
        let n = g.num_tasks();
        let topo = ring(5);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = vec![0; n];
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mapping: Vec<ProcId> = (0..n).map(|i| p(i % 5)).collect();
        ev.reset(&mapping).unwrap();
        for _ in 0..2000 {
            let t = rng.gen_range(0..n);
            let q = rng.gen_range(0..5);
            ev.eval_relocate(TaskId::from_index(t), p(q)).unwrap();
            if rng.gen_bool(0.3) {
                ev.commit();
            }
        }
        let final_mapping = ev.mapping().to_vec();
        assert_eq!(
            ev.makespan(),
            replay(&g, &topo, &params, &cfg, &final_mapping, &order)
        );
        assert_eq!(ev.evaluations(), 2001);
    }

    #[test]
    fn invalid_mappings_are_rejected() {
        let g = sample_graph(1);
        let topo = bus(2);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order).unwrap();
        let short = vec![p(0); g.num_tasks() - 1];
        assert!(matches!(
            ev.reset(&short),
            Err(SimError::InvalidAssignment(_))
        ));
        let out_of_range = vec![p(7); g.num_tasks()];
        assert!(matches!(
            ev.reset(&out_of_range),
            Err(SimError::InvalidAssignment(_))
        ));
    }

    #[test]
    fn event_limit_is_enforced() {
        let g = sample_graph(1);
        let topo = linear(2);
        let params = CommParams::paper();
        let cfg = SimConfig {
            comm_enabled: true,
            max_events: 3,
        };
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order).unwrap();
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|i| p(i % 2)).collect();
        assert_eq!(ev.reset(&mapping), Err(SimError::EventLimit));
    }
}
