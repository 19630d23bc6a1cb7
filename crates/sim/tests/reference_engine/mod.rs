//! The reference discrete-event simulation engine (test-only).
//!
//! An independent event loop — its own `BinaryHeap` queue and
//! `Proc`/`Channel`/`Message` state — that the differential tests in
//! `proptests.rs` compare `anneal_sim::simulate` against field by
//! field. It is kept as written, not maintained in lockstep: a rule
//! change to the kernel must show up here as a test failure first.
//!
//! Executes a task graph on a multicomputer under an [`OnlineScheduler`],
//! reproducing the timing model of the paper:
//!
//! * task execution occupies its processor for `r_i` ns (one task at a
//!   time per processor, plus message overheads that preempt it),
//! * a message from predecessor `p` (on processor `r`) to task `t` (just
//!   assigned to processor `q ≠ r`) is initiated at assignment time —
//!   every predecessor of a *ready* task has already finished, so the
//!   data exists; the engine then plays out
//!   `σ on r → transfer w per hop → τ on every intermediate → τ on q`,
//! * each channel carries one message at a time (FIFO), giving link
//!   contention,
//! * the first scheduling epoch is at time 0 and later epochs fire after
//!   every batch of task completions at the same instant ("successive
//!   epochs occur when one or more processors become idle").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use anneal_graph::{TaskGraph, TaskId};
use anneal_sim::{
    CommStats, EpochContext, Gantt, KernelRunStats, OnlineScheduler, PacketStats, SimConfig,
    SimError, SimResult, SimTime, Span, SpanKind,
};
use anneal_topology::topology::ChannelId;
use anneal_topology::{CommParams, ProcId, RouteTable, Topology};

#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)] // events are naturally all completions
enum Ev {
    TaskDone { p: ProcId, gen: u64 },
    OverheadDone { p: ProcId, gen: u64 },
    TransferDone { msg: u32 },
}

#[derive(Debug)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, EvSlot)>>,
    seq: u64,
    /// Most events ever resident (the `KernelRunStats::heap_hwm` source).
    hwm: usize,
}

/// Wrapper making the event orderable without comparing enum payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EvSlot(u64);

impl PartialOrd for EvSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            hwm: 0,
        }
    }
    fn push(&mut self, time: SimTime, ev: Ev, store: &mut Vec<Ev>) {
        let slot = store.len() as u64;
        store.push(ev);
        self.heap.push(Reverse((time, self.seq, EvSlot(slot))));
        self.seq += 1;
        self.hwm = self.hwm.max(self.heap.len());
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
    fn pop(&mut self, store: &[Ev]) -> Option<(SimTime, Ev)> {
        self.heap
            .pop()
            .map(|Reverse((t, _, EvSlot(s)))| (t, store[s as usize]))
    }
}

#[derive(Debug, Clone, Copy)]
struct Overhead {
    kind: SpanKind,
    dur: u64,
    msg: u32,
}

#[derive(Debug)]
struct ComputeState {
    task: TaskId,
    remaining: u64,
    running_since: Option<SimTime>,
}

#[derive(Debug)]
struct Proc {
    assigned: Option<TaskId>,
    compute: Option<ComputeState>,
    current_overhead: Option<Overhead>,
    /// Message-driven overheads (receive/route τ): incoming messages
    /// preempt the processor, so they run before pending sends.
    incoming_q: VecDeque<Overhead>,
    /// Locally initiated send overheads (σ).
    send_q: VecDeque<Overhead>,
    gen: u64,
    busy: u64,
}

impl Proc {
    fn new() -> Self {
        Proc {
            assigned: None,
            compute: None,
            current_overhead: None,
            incoming_q: VecDeque::new(),
            send_q: VecDeque::new(),
            gen: 0,
            busy: 0,
        }
    }
    fn is_idle(&self) -> bool {
        self.assigned.is_none()
    }
}

#[derive(Debug)]
struct Message {
    dest_task: TaskId,
    dest: ProcId,
    weight: u64,
    route: Vec<ProcId>,
    hop: usize, // message currently at route[hop]
}

#[derive(Debug, Default)]
struct Channel {
    busy: bool,
    queue: VecDeque<u32>,
}

struct Engine<'a> {
    g: &'a TaskGraph,
    topo: &'a Topology,
    routes: RouteTable,
    params: &'a CommParams,
    cfg: &'a SimConfig,

    now: SimTime,
    queue: EventQueue,
    store: Vec<Ev>,
    procs: Vec<Proc>,
    channels: Vec<Channel>,
    msgs: Vec<Message>,

    // task state
    placement: Vec<Option<ProcId>>,
    start: Vec<Option<SimTime>>,
    finish: Vec<Option<SimTime>>,
    unfinished_preds: Vec<u32>,
    pending_inputs: Vec<u32>,
    ready: Vec<TaskId>, // sorted set of ready, unassigned tasks
    finished: usize,

    gantt: Gantt,
    comm: CommStats,
    packets: PacketStats,
    epochs: u64,
    epoch_pending: bool,
}

impl<'a> Engine<'a> {
    fn new(
        g: &'a TaskGraph,
        topo: &'a Topology,
        params: &'a CommParams,
        cfg: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let routes = RouteTable::build(topo).map_err(|e| SimError::Disconnected(e.to_string()))?;
        let n = g.num_tasks();
        let unfinished_preds: Vec<u32> = g.tasks().map(|t| g.in_degree(t) as u32).collect();
        let ready: Vec<TaskId> = g
            .tasks()
            .filter(|&t| unfinished_preds[t.index()] == 0)
            .collect();
        Ok(Engine {
            g,
            topo,
            routes,
            params,
            cfg,
            now: 0,
            queue: EventQueue::new(),
            store: Vec::new(),
            procs: (0..topo.num_procs()).map(|_| Proc::new()).collect(),
            channels: (0..topo.num_channels())
                .map(|_| Channel::default())
                .collect(),
            msgs: Vec::new(),
            placement: vec![None; n],
            start: vec![None; n],
            finish: vec![None; n],
            unfinished_preds,
            pending_inputs: vec![0; n],
            ready,
            finished: 0,
            gantt: Gantt::default(),
            comm: CommStats::default(),
            packets: PacketStats::default(),
            epochs: 0,
            epoch_pending: true,
        })
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.queue.push(at, ev, &mut self.store);
    }

    /// Keeps the processor busy with the right thing. Never called while
    /// an overhead timer is outstanding for `p` (guarded by
    /// `current_overhead`).
    fn pump(&mut self, p: ProcId) {
        let now = self.now;
        let proc = &mut self.procs[p.index()];
        if proc.current_overhead.is_some() {
            return;
        }
        let next_overhead = proc
            .incoming_q
            .pop_front()
            .or_else(|| proc.send_q.pop_front());
        if let Some(oh) = next_overhead {
            // Preempt a running compute task.
            if let Some(cs) = proc.compute.as_mut() {
                if let Some(since) = cs.running_since.take() {
                    let done = now - since;
                    cs.remaining -= done;
                    proc.busy += done;
                    proc.gen += 1; // invalidate the pending TaskDone
                    let task = cs.task;
                    self.gantt.spans.push(Span {
                        proc: p,
                        kind: SpanKind::Compute,
                        start: since,
                        end: now,
                        task: Some(task),
                    });
                }
            }
            let proc = &mut self.procs[p.index()];
            proc.current_overhead = Some(oh);
            proc.gen += 1;
            let gen = proc.gen;
            self.schedule(now + oh.dur, Ev::OverheadDone { p, gen });
            return;
        }
        if let Some(cs) = proc.compute.as_mut() {
            if cs.running_since.is_none() {
                cs.running_since = Some(now);
                if self.start[cs.task.index()].is_none() {
                    self.start[cs.task.index()] = Some(now);
                }
                proc.gen += 1;
                let gen = proc.gen;
                let at = now + cs.remaining;
                self.schedule(at, Ev::TaskDone { p, gen });
            }
        }
    }

    fn enqueue_overhead(&mut self, p: ProcId, oh: Overhead) {
        let proc = &mut self.procs[p.index()];
        match oh.kind {
            SpanKind::Send => proc.send_q.push_back(oh),
            _ => proc.incoming_q.push_back(oh),
        }
        self.pump(p);
    }

    // lint:allow(panic) reason="routes come from the routing table, so consecutive hops share a channel"
    fn channel_push(&mut self, msg_id: u32) {
        let m = &self.msgs[msg_id as usize];
        let (u, v) = (m.route[m.hop], m.route[m.hop + 1]);
        let ch = self
            .topo
            .channel_of(u, v)
            .expect("route hops are adjacent")
            .0 as usize;
        let weight = m.weight;
        let channel = &mut self.channels[ch];
        if channel.busy {
            channel.queue.push_back(msg_id);
        } else {
            channel.busy = true;
            self.comm.transfer_ns += weight;
            self.comm.hops += 1;
            self.schedule(self.now + weight, Ev::TransferDone { msg: msg_id });
        }
    }

    // lint:allow(panic) reason="routes come from the routing table, so consecutive hops share a channel"
    fn current_channel(&self, msg_id: u32) -> ChannelId {
        let m = &self.msgs[msg_id as usize];
        let (u, v) = (m.route[m.hop], m.route[m.hop + 1]);
        self.topo.channel_of(u, v).expect("route hops are adjacent")
    }

    fn on_transfer_done(&mut self, msg_id: u32) {
        // Free the channel and start the next queued transfer.
        let ch = self.current_channel(msg_id).0 as usize;
        self.channels[ch].busy = false;
        if let Some(next) = self.channels[ch].queue.pop_front() {
            self.channels[ch].busy = true;
            let w = self.msgs[next as usize].weight;
            self.comm.transfer_ns += w;
            self.comm.hops += 1;
            self.schedule(self.now + w, Ev::TransferDone { msg: next });
        }
        // Advance the message.
        let m = &mut self.msgs[msg_id as usize];
        m.hop += 1;
        let v = m.route[m.hop];
        let tau = self.params.tau;
        if v == m.dest {
            self.enqueue_overhead(
                v,
                Overhead {
                    kind: SpanKind::Receive,
                    dur: tau,
                    msg: msg_id,
                },
            );
        } else {
            self.enqueue_overhead(
                v,
                Overhead {
                    kind: SpanKind::Route,
                    dur: tau,
                    msg: msg_id,
                },
            );
        }
    }

    // lint:allow(panic) reason="the generation check above rejects stale timers, so the overhead is present and never Compute"
    fn on_overhead_done(&mut self, p: ProcId, gen: u64) {
        if self.procs[p.index()].gen != gen {
            return; // stale
        }
        let oh = self.procs[p.index()]
            .current_overhead
            .take()
            .expect("overhead timer fired without current overhead");
        self.procs[p.index()].busy += oh.dur;
        self.comm.overhead_ns += oh.dur;
        self.gantt.spans.push(Span {
            proc: p,
            kind: oh.kind,
            start: self.now - oh.dur,
            end: self.now,
            task: Some(self.msgs[oh.msg as usize].dest_task),
        });
        match oh.kind {
            SpanKind::Send => self.channel_push(oh.msg),
            SpanKind::Route => self.channel_push(oh.msg),
            SpanKind::Receive => self.deliver(oh.msg),
            SpanKind::Compute => unreachable!("compute is not an overhead"),
        }
        self.pump(p);
    }

    // lint:allow(panic) reason="messages are only created for assigned destination tasks"
    fn deliver(&mut self, msg_id: u32) {
        let t = self.msgs[msg_id as usize].dest_task;
        let pending = &mut self.pending_inputs[t.index()];
        debug_assert!(*pending > 0);
        *pending -= 1;
        if *pending == 0 {
            let q = self.placement[t.index()].expect("assigned task has a processor");
            debug_assert!(self.procs[q.index()].compute.is_none());
            self.procs[q.index()].compute = Some(ComputeState {
                task: t,
                remaining: self.g.load(t),
                running_since: None,
            });
            self.pump(q);
        }
    }

    // lint:allow(panic) reason="the generation check above rejects stale timers, so the compute state is live"
    fn on_task_done(&mut self, p: ProcId, gen: u64) {
        if self.procs[p.index()].gen != gen {
            return; // stale
        }
        let proc = &mut self.procs[p.index()];
        let cs = proc
            .compute
            .take()
            .expect("task timer fired without compute state");
        let since = cs.running_since.expect("completed task was running");
        proc.busy += self.now - since;
        proc.assigned = None;
        let task = cs.task;
        self.gantt.spans.push(Span {
            proc: p,
            kind: SpanKind::Compute,
            start: since,
            end: self.now,
            task: Some(task),
        });
        self.finish[task.index()] = Some(self.now);
        self.finished += 1;
        for e in self.g.successors(task) {
            let c = &mut self.unfinished_preds[e.target.index()];
            *c -= 1;
            if *c == 0 {
                // keep `ready` sorted by id
                let pos = self.ready.partition_point(|&x| x < e.target);
                self.ready.insert(pos, e.target);
            }
        }
        self.epoch_pending = true;
        self.pump(p);
    }

    // lint:allow(panic) reason="schedulers only assign ready tasks, whose predecessors have all finished"
    fn assign(&mut self, t: TaskId, q: ProcId) {
        self.placement[t.index()] = Some(q);
        self.procs[q.index()].assigned = Some(t);
        let pos = self.ready.binary_search(&t).expect("task was ready");
        self.ready.remove(pos);

        let mut pending = 0u32;
        if self.cfg.comm_enabled {
            let sigma = self.params.sigma;
            let preds: Vec<(TaskId, u64)> = self
                .g
                .predecessors(t)
                .iter()
                .map(|e| (e.target, e.weight))
                .collect();
            for (pred, w) in preds {
                let src = self.placement[pred.index()].expect("predecessor finished");
                if src == q {
                    continue;
                }
                let route = self.routes.route(src, q);
                self.comm.max_hops = self.comm.max_hops.max((route.len() - 1) as u32);
                self.comm.messages += 1;
                let msg_id = self.msgs.len() as u32;
                self.msgs.push(Message {
                    dest_task: t,
                    dest: q,
                    weight: link_occupancy_time(self.params, w),
                    route,
                    hop: 0,
                });
                pending += 1;
                self.enqueue_overhead(
                    src,
                    Overhead {
                        kind: SpanKind::Send,
                        dur: sigma,
                        msg: msg_id,
                    },
                );
            }
        }
        self.pending_inputs[t.index()] = pending;
        if pending == 0 {
            debug_assert!(self.procs[q.index()].compute.is_none());
            self.procs[q.index()].compute = Some(ComputeState {
                task: t,
                remaining: self.g.load(t),
                running_since: None,
            });
            self.pump(q);
        }
    }

    fn run_epoch(&mut self, sched: &mut dyn OnlineScheduler) -> Result<(), SimError> {
        if self.ready.is_empty() {
            return Ok(());
        }
        let idle: Vec<ProcId> = self
            .topo
            .procs()
            .filter(|&p| self.procs[p.index()].is_idle())
            .collect();
        if idle.is_empty() {
            return Ok(());
        }
        self.packets.packets += 1;
        self.packets.total_candidates += self.ready.len() as u64;
        self.packets.total_idle += idle.len() as u64;

        let mut out = Vec::new();
        {
            let ctx = EpochContext {
                time: self.now,
                ready: &self.ready,
                idle: &idle,
                graph: self.g,
                topology: self.topo,
                routes: &self.routes,
                params: self.params,
                placement: &self.placement,
                finish: &self.finish,
                comm_enabled: self.cfg.comm_enabled,
            };
            sched.on_epoch(&ctx, &mut out);
        }

        // Validate.
        let mut used_tasks = std::collections::BTreeSet::new();
        let mut used_procs = std::collections::BTreeSet::new();
        for &(t, p) in &out {
            if self.ready.binary_search(&t).is_err() {
                return Err(SimError::InvalidAssignment(format!("{t} is not ready")));
            }
            if !idle.contains(&p) {
                return Err(SimError::InvalidAssignment(format!("{p} is not idle")));
            }
            if !used_tasks.insert(t) {
                return Err(SimError::InvalidAssignment(format!("{t} assigned twice")));
            }
            if !used_procs.insert(p) {
                return Err(SimError::InvalidAssignment(format!(
                    "{p} received two tasks"
                )));
            }
        }
        self.packets.assigned += out.len() as u64;
        for (t, p) in out {
            self.assign(t, p);
        }
        Ok(())
    }

    // lint:allow(panic) reason="the deadlock check above guarantees every task was placed, started and finished"
    fn run(mut self, sched: &mut dyn OnlineScheduler) -> Result<SimResult, SimError> {
        let mut events: u64 = 0;
        loop {
            let next = self.queue.peek_time();
            if self.epoch_pending && next.is_none_or(|t| t > self.now) {
                self.epoch_pending = false;
                self.epochs += 1;
                self.run_epoch(sched)?;
                continue;
            }
            let Some((t, ev)) = self.queue.pop(&self.store) else {
                break;
            };
            events += 1;
            if events > self.cfg.max_events {
                return Err(SimError::EventLimit);
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            match ev {
                Ev::TaskDone { p, gen } => self.on_task_done(p, gen),
                Ev::OverheadDone { p, gen } => self.on_overhead_done(p, gen),
                Ev::TransferDone { msg } => self.on_transfer_done(msg),
            }
        }
        if self.finished < self.g.num_tasks() {
            let idle = self.procs.iter().filter(|pr| pr.is_idle()).count();
            return Err(SimError::Deadlock {
                time: self.now,
                ready: self.ready.len(),
                idle,
            });
        }
        let makespan = self.finish.iter().map(|f| f.unwrap()).max().unwrap_or(0);
        self.gantt.makespan = makespan;
        let total_work = self.g.total_work();
        Ok(SimResult {
            makespan,
            speedup: if makespan == 0 {
                0.0
            } else {
                total_work as f64 / makespan as f64
            },
            total_work,
            placement: self.placement.iter().map(|p| p.unwrap()).collect(),
            start: self.start.iter().map(|s| s.unwrap()).collect(),
            finish: self.finish.iter().map(|f| f.unwrap()).collect(),
            busy: self.procs.iter().map(|p| p.busy).collect(),
            obs: KernelRunStats {
                events,
                epochs: self.epochs,
                heap_hwm: self.queue.hwm as u64,
                messages: self.comm.messages,
            },
            comm: self.comm,
            packets: self.packets,
            gantt: self.gantt,
            scheduler: sched.name().to_string(),
        })
    }
}

/// Helper: interprets a graph edge weight as link-occupancy time.
///
/// Edge weights in this project are *already* stored as nanoseconds of
/// link time (`w = L/BW` precomputed by the workload generators), so
/// under finite bandwidth they pass through unchanged; free-bandwidth
/// parameter sets zero them out.
fn link_occupancy_time(params: &CommParams, w: u64) -> u64 {
    if params.bandwidth_bps == u64::MAX {
        0
    } else {
        w
    }
}

/// Simulates `graph` on `topology` with the given communication
/// parameters, driven by `scheduler`.
pub fn simulate(
    graph: &TaskGraph,
    topology: &Topology,
    params: &CommParams,
    scheduler: &mut dyn OnlineScheduler,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    Engine::new(graph, topology, params, config)?.run(scheduler)
}
