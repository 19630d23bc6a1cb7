//! Simulation results and schedule audits.

use anneal_graph::units::as_us;
use anneal_graph::{TaskGraph, TaskId};
use anneal_topology::ProcId;

use crate::fastpath::KernelRunStats;
use crate::gantt::{Gantt, SpanKind};
use crate::SimTime;

/// Communication statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent (pairs of tasks on distinct processors).
    pub messages: u64,
    /// Total link-occupancy time across all hops (ns).
    pub transfer_ns: u64,
    /// Total σ/τ overhead time burned on processors (ns).
    pub overhead_ns: u64,
    /// Total hops traversed.
    pub hops: u64,
    /// Longest route used (hops).
    pub max_hops: u32,
}

/// Annealing-packet statistics (§6a of the paper: the NE program's 95
/// tasks are assigned in 65 packets, ~15 candidates per 1.46 idle
/// processors).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketStats {
    /// Number of epochs at which at least one ready task and one idle
    /// processor coexisted (i.e. a packet was annealed).
    pub packets: u64,
    /// Sum of ready-task counts over packets.
    pub total_candidates: u64,
    /// Sum of idle-processor counts over packets.
    pub total_idle: u64,
    /// Tasks assigned in total (equals the task count on success).
    pub assigned: u64,
}

impl PacketStats {
    /// Mean candidates per packet.
    pub fn avg_candidates(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_candidates as f64 / self.packets as f64
        }
    }

    /// Mean idle processors per packet.
    pub fn avg_idle(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_idle as f64 / self.packets as f64
        }
    }
}

/// The outcome of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completion time of the last task (ns).
    pub makespan: SimTime,
    /// `T_1 / makespan` where `T_1` is the sequential execution time.
    pub speedup: f64,
    /// Sequential execution time `T_1 = Σ r_i` (ns).
    pub total_work: u64,
    /// Per-task processor placement.
    pub placement: Vec<ProcId>,
    /// Per-task first-execution start time (ns).
    pub start: Vec<SimTime>,
    /// Per-task completion time (ns).
    pub finish: Vec<SimTime>,
    /// Per-processor busy time (compute + overheads, ns).
    pub busy: Vec<u64>,
    /// Communication statistics.
    pub comm: CommStats,
    /// Scheduling-packet statistics.
    pub packets: PacketStats,
    /// Execution trace (always recorded; cheap at this scale).
    pub gantt: Gantt,
    /// Name of the scheduler that produced the run.
    pub scheduler: String,
    /// Kernel counters (events, epochs, heap high-water, messages).
    pub obs: KernelRunStats,
}

impl SimResult {
    /// Mean processor utilization: `Σ busy / (N_p · makespan)`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.busy.is_empty() {
            return 0.0;
        }
        let total: u64 = self.busy.iter().sum();
        total as f64 / (self.busy.len() as u64 * self.makespan) as f64
    }

    /// Makespan in µs.
    pub fn makespan_us(&self) -> f64 {
        as_us(self.makespan)
    }

    /// Verifies the fundamental schedule invariants against the graph:
    ///
    /// 1. every task ran exactly once and finished,
    /// 2. no task started before all its predecessors finished,
    /// 3. compute time per task equals its load (sum of segments), all
    ///    of it on the task's processor,
    /// 4. no processor ever did two things at once, and each
    ///    processor's spans sum to its busy time,
    /// 5. communication: the `Send`/`Route`/`Receive` spans sum to
    ///    `comm.overhead_ns`; every `Receive` lies on its task's
    ///    processor and ends by the task's start; each task has one
    ///    `Receive` per predecessor placed on another processor; and
    ///    there are no such spans at all when no message was sent,
    /// 6. the makespan is the max finish time.
    pub fn audit(&self, g: &TaskGraph) -> Result<(), String> {
        let n = g.num_tasks();
        if self.placement.len() != n || self.start.len() != n || self.finish.len() != n {
            return Err("result vectors sized differently from graph".into());
        }
        let mut compute = vec![0u64; n];
        let mut receives = vec![0u64; n];
        let mut busy = vec![0u64; self.busy.len()];
        let mut overhead = 0u64;
        for s in &self.gantt.spans {
            let Some(t) = s.task.filter(|t| t.index() < n) else {
                return Err(format!("span {s:?} names no task of the graph"));
            };
            let Some(b) = busy.get_mut(s.proc.index()) else {
                return Err(format!("span {s:?} is on an unknown processor"));
            };
            *b += s.duration();
            let placed = self.placement[t.index()];
            match s.kind {
                SpanKind::Compute if s.proc != placed => {
                    return Err(format!("{t} has segments on a foreign processor"));
                }
                SpanKind::Compute => compute[t.index()] += s.duration(),
                kind if self.comm.messages == 0 => {
                    return Err(format!(
                        "{kind:?} span on {} but no message was sent",
                        s.proc
                    ));
                }
                kind => {
                    overhead += s.duration();
                    if kind == SpanKind::Receive {
                        if s.proc != placed {
                            return Err(format!(
                                "{t} received a message on {} but ran on {placed}",
                                s.proc
                            ));
                        }
                        if s.end > self.start[t.index()] {
                            return Err(format!(
                                "{t} started at {} before its message was received at {}",
                                self.start[t.index()],
                                s.end
                            ));
                        }
                        receives[t.index()] += 1;
                    }
                }
            }
        }
        for (p, (&have, &want)) in busy.iter().zip(&self.busy).enumerate() {
            if have != want {
                return Err(format!(
                    "P{p} has spans summing to {have} ns but busy time {want} ns"
                ));
            }
        }
        if overhead != self.comm.overhead_ns {
            return Err(format!(
                "send/route/receive spans sum to {overhead} ns but overhead_ns is {} ns",
                self.comm.overhead_ns
            ));
        }
        for t in g.tasks() {
            if self.finish[t.index()] < self.start[t.index()] {
                return Err(format!("{t} finished before it started"));
            }
            let mut remote = 0u64;
            for e in g.predecessors(t) {
                let p = e.target;
                if self.start[t.index()] < self.finish[p.index()] {
                    return Err(format!(
                        "{t} started at {} before predecessor {p} finished at {}",
                        self.start[t.index()],
                        self.finish[p.index()]
                    ));
                }
                remote += u64::from(self.placement[p.index()] != self.placement[t.index()]);
            }
            if compute[t.index()] != g.load(t) {
                return Err(format!(
                    "{t} executed for {} ns but load is {} ns",
                    compute[t.index()],
                    g.load(t)
                ));
            }
            if self.comm.messages > 0 && receives[t.index()] != remote {
                return Err(format!(
                    "{t} has {} receive spans but {remote} predecessors on other processors",
                    receives[t.index()]
                ));
            }
        }
        if let Some((a, b)) = self.gantt.find_overlap() {
            return Err(format!("overlapping spans on {}: {a:?} vs {b:?}", a.proc));
        }
        let max_finish = self.finish.iter().copied().max().unwrap_or(0);
        if max_finish != self.makespan {
            return Err(format!(
                "makespan {} != max finish {max_finish}",
                self.makespan
            ));
        }
        Ok(())
    }

    /// Which tasks ran on processor `p`, ordered by start time.
    pub fn tasks_on(&self, p: ProcId) -> Vec<TaskId> {
        let mut v: Vec<TaskId> = (0..self.placement.len())
            .filter(|&i| self.placement[i] == p)
            .map(TaskId::from_index)
            .collect();
        v.sort_by_key(|t| self.start[t.index()]);
        v
    }

    /// Total compute time recorded in the Gantt (should equal `Σ r_i`).
    pub fn compute_ns(&self) -> u64 {
        self.gantt
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Compute)
            .map(|s| s.duration())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_stat_means() {
        let ps = PacketStats {
            packets: 4,
            total_candidates: 60,
            total_idle: 6,
            assigned: 10,
        };
        assert!((ps.avg_candidates() - 15.0).abs() < 1e-12);
        assert!((ps.avg_idle() - 1.5).abs() < 1e-12);
        let empty = PacketStats::default();
        assert_eq!(empty.avg_candidates(), 0.0);
        assert_eq!(empty.avg_idle(), 0.0);
    }

    /// a(10us) on P0 -> b(20us) on P2 of a 3-processor line: one
    /// message with a send on P0, a route on P1 and a receive on P2.
    fn routed_chain() -> (TaskGraph, SimResult) {
        use crate::{simulate, FixedMapping, SimConfig};
        use anneal_graph::units::us;
        use anneal_topology::builders::linear;
        use anneal_topology::CommParams;

        let mut b = anneal_graph::TaskGraphBuilder::new();
        let a = b.add_task(us(10.0));
        let c = b.add_task(us(20.0));
        b.add_edge(a, c, us(4.0)).unwrap();
        let g = b.build().unwrap();
        let mut s = FixedMapping::new(vec![ProcId::from_index(0), ProcId::from_index(2)]);
        let r = simulate(
            &g,
            &linear(3),
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        r.audit(&g).unwrap();
        (g, r)
    }

    fn receive_span(r: &mut SimResult) -> &mut crate::Span {
        r.gantt
            .spans
            .iter_mut()
            .find(|s| s.kind == SpanKind::Receive)
            .unwrap()
    }

    fn audit_error(g: &TaskGraph, r: &SimResult) -> String {
        r.audit(g)
            .expect_err("the corrupted result must fail the audit")
    }

    #[test]
    fn audit_checks_busy_time_per_processor() {
        let (g, mut r) = routed_chain();
        r.busy[1] += 1;
        assert!(audit_error(&g, &r).contains("busy time"));
    }

    #[test]
    fn audit_checks_overhead_total() {
        let (g, mut r) = routed_chain();
        r.comm.overhead_ns -= 1;
        assert!(audit_error(&g, &r).contains("overhead_ns"));
    }

    #[test]
    fn audit_checks_receive_processor() {
        let (g, mut r) = routed_chain();
        receive_span(&mut r).proc = ProcId::from_index(1);
        assert!(audit_error(&g, &r).contains("received a message on P1"));
    }

    #[test]
    fn audit_checks_receive_precedes_start() {
        let (g, mut r) = routed_chain();
        r.start[1] = receive_span(&mut r).end - 1;
        assert!(audit_error(&g, &r).contains("before its message was received"));
    }

    #[test]
    fn audit_checks_one_receive_per_remote_predecessor() {
        let (g, mut r) = routed_chain();
        receive_span(&mut r).kind = SpanKind::Route;
        assert!(audit_error(&g, &r).contains("0 receive spans but 1 predecessors"));
    }

    #[test]
    fn audit_rejects_overhead_spans_without_messages() {
        let (g, mut r) = routed_chain();
        r.comm.messages = 0;
        assert!(audit_error(&g, &r).contains("no message was sent"));
    }
}
