//! The discrete-event driver: every simulation is a set of queries
//! interleaved deterministically on one shared [`Machine`], wrapped in an
//! overload-robustness control plane. A solo run of one plan
//! ([`Simulation::run_plan`], [`ExecRun`]) is the one-query closed
//! workload; a loaded run ([`Simulation::run_workload`]) is many.
//!
//! The phase executor itself is the state machine from [`crate::exec`]
//! (`handle_ev`, `issue_read`, `init_phase_nodes`); this module owns the
//! event loop and adds the control plane around it:
//!
//! - **Admission control** ([`AdmissionPolicy`]): at most `max_concurrent`
//!   queries execute at once; up to `queue_limit` wait in FIFO order; any
//!   further arrival is *shed* — counted in its [`QueryOutcome`], never
//!   silently dropped.
//! - **Deadlines with bounded retry** ([`DeadlinePolicy`]): a query that
//!   misses its deadline (measured from admission for the first attempt,
//!   from the restart for retries) is torn down, waits a seeded
//!   exponential backoff, and restarts from its first phase; after
//!   `max_retries` timeouts it finishes as [`QueryStatus::TimedOut`] with
//!   the phases it completed preserved as a partial report.
//! - **Fault interaction**: one global fault schedule drives the shared
//!   machine; each running query observes a failure through its own
//!   recovery state, so a mid-load disk fault triggers the recovery
//!   policies for every query it touches without corrupting the others.
//!
//! # Fault detection
//!
//! When a query learns that a disk fail-stopped depends on the entry
//! point, never on a flag:
//!
//! - **Solo runs use the barrier rule.** A failure that surfaced before a
//!   phase starts is known to every node at that phase's barrier (a
//!   global sync point), and the fail-stop abort clock is checked there
//!   too. Faults are applied at phase starts and on work-event pops.
//! - **Workloads use the clock rule.** A failure is detected
//!   `DETECT_TIMEOUT` after injection, for every query alike: there is no
//!   machine-wide barrier under concurrent queries. Faults are applied on
//!   every pop.
//!
//! A mid-phase failure is detected by clock under both rules.
//!
//! # Determinism
//!
//! Everything is driven by one event queue ordered by exact
//! `(time, sequence)` — control events (admission, phase barriers,
//! deadlines, retries) ride the same queue as disk and network
//! completions, so the full interleaving is a pure function of the
//! configuration and seed. Reports are byte-identical across `--jobs`,
//! both queue backends, and cache states.
//!
//! # Simplifications (documented, deliberate)
//!
//! - The machine's per-phase extent allocators are shared: every query
//!   phase start calls `begin_phase`, resetting the layout cursors.
//!   Concurrent queries therefore contend for disk arms, CPU, and links
//!   but not for disk capacity layout.
//! - A query in backoff keeps its admission slot until it finishes: its
//!   stale in-flight events must drain from the shared machine before the
//!   retry restarts, and modelling the slot as released mid-drain would
//!   let the admission gate overcommit the machine.

use std::borrow::Cow;
use std::collections::VecDeque;

use simcore::span::{SpanId, SpanKind, SpanResource, FRONT_END_NODE};
use simcore::{
    Duration, EventQueue, QueueSnapshot, SimTime, SplitMix64, StateError, StateReader, StateWriter,
};
use tasks::plan::{PhasePlan, TaskPlan};
use tasks::{plan_task, TaskKind};

use crate::codec;
use crate::exec::{
    encode_ev, handle_ev, init_phase_nodes, issue_read, load_node_state, parse_timed_ev,
    phase_region, phase_writes, save_node_state, Ev, EvQ, FaultRt, NodeState, PhaseCosts, PhaseCtx,
    PhaseSnapshot, Simulation, SpanRt,
};
use crate::faults::{FaultPlan, RecoveryPolicy, DETECT_TIMEOUT};
use crate::machine::Machine;
use crate::metrics::MetricsBuilder;
use crate::profile::{LoadSpanTrace, PhaseSpans, QuerySpans, SpanTrace};
use crate::report::{PhaseReport, Report};
use crate::trace::Trace;
use crate::workload::{AdmissionPolicy, ArrivalProcess, DeadlinePolicy, WorkloadSpec};

/// Terminal status of one query in a loaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Ran to completion (possibly after retries).
    Completed,
    /// Rejected at admission: the wait queue was already full.
    Shed,
    /// Missed its deadline with no retries left, or timed out while
    /// still waiting for an execution slot.
    TimedOut,
    /// Killed by the fail-stop recovery policy or by losing every node.
    Aborted,
}

impl QueryStatus {
    /// Stable lower-case name for manifests and tables.
    pub fn name(self) -> &'static str {
        match self {
            QueryStatus::Completed => "completed",
            QueryStatus::Shed => "shed",
            QueryStatus::TimedOut => "timed_out",
            QueryStatus::Aborted => "aborted",
        }
    }

    /// Inverse of [`QueryStatus::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "completed" => Some(QueryStatus::Completed),
            "shed" => Some(QueryStatus::Shed),
            "timed_out" => Some(QueryStatus::TimedOut),
            "aborted" => Some(QueryStatus::Aborted),
            _ => None,
        }
    }
}

/// One completed phase of a query's final attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPhase {
    /// Phase name (paper spelling).
    pub name: &'static str,
    /// Wall time from the phase start to its barrier completion.
    pub elapsed: Duration,
}

/// The per-query record of a loaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Index in arrival order (the span arena's query lane).
    pub query: u32,
    /// The DSS task this query ran.
    pub task: TaskKind,
    /// When the query arrived at the admission gate.
    pub arrival: SimTime,
    /// When its first attempt began executing (`None` if shed or timed
    /// out while still queued).
    pub started: Option<SimTime>,
    /// When the query reached its terminal status.
    pub finished: SimTime,
    /// Terminal status.
    pub status: QueryStatus,
    /// Retries consumed (timeouts that led to a restart).
    pub retries: u32,
    /// Deadline expirations observed (retried or terminal).
    pub timeouts: u32,
    /// Phases the final attempt completed — partial when the query
    /// timed out or aborted mid-plan.
    pub phases: Vec<QueryPhase>,
    /// Work events attributed to this query (all attempts).
    pub events: u64,
}

impl QueryOutcome {
    /// Arrival-to-finish latency (includes queueing and backoff).
    pub fn latency(&self) -> Duration {
        self.finished.since(self.arrival)
    }
}

/// Report of one loaded multi-query run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Architecture short name ("Active", "Cluster", "SMP").
    pub architecture: &'static str,
    /// Node/disk count.
    pub disks: usize,
    /// Workload spec summary (round-trips through the cache).
    pub workload: String,
    /// Admission policy summary.
    pub admission: String,
    /// Deadline policy summary.
    pub deadline: String,
    /// Per-query outcomes in arrival order.
    pub outcomes: Vec<QueryOutcome>,
    /// Makespan: the latest query finish time.
    pub elapsed: Duration,
    /// Total discrete events processed (work + control).
    pub events: u64,
    /// Faults injected by the global schedule.
    pub faults_injected: u64,
    /// Batches re-read by survivors under recovery.
    pub work_redistributed: u64,
    /// Aggregate failed-disk downtime over the run.
    pub downtime: Duration,
}

impl LoadReport {
    /// Number of queries with the given terminal status.
    pub fn count(&self, status: QueryStatus) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Queries that completed.
    pub fn completed(&self) -> usize {
        self.count(QueryStatus::Completed)
    }

    /// Queries shed at admission.
    pub fn shed(&self) -> usize {
        self.count(QueryStatus::Shed)
    }

    /// Queries that timed out terminally.
    pub fn timed_out(&self) -> usize {
        self.count(QueryStatus::TimedOut)
    }

    /// Queries aborted by fault recovery.
    pub fn aborted(&self) -> usize {
        self.count(QueryStatus::Aborted)
    }

    /// Total retries consumed across all queries.
    pub fn retries(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.retries)).sum()
    }

    /// Total deadline expirations across all queries.
    pub fn timeouts(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.timeouts)).sum()
    }

    /// Sorted arrival-to-finish latencies of the completed queries.
    pub fn completed_latencies(&self) -> Vec<Duration> {
        let mut v: Vec<Duration> = self
            .outcomes
            .iter()
            .filter(|o| o.status == QueryStatus::Completed)
            .map(QueryOutcome::latency)
            .collect();
        v.sort();
        v
    }

    /// Nearest-rank percentile (`p` in 0..=100) of completed-query
    /// latency; `None` when nothing completed. Exact integer selection —
    /// no interpolation — so the value is a latency that actually
    /// occurred and is bit-stable.
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        let lats = self.completed_latencies();
        if lats.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * lats.len() as f64).ceil() as usize;
        Some(lats[rank.clamp(1, lats.len()) - 1])
    }

    /// Completed queries per second of makespan.
    pub fn goodput_qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }
}

/// Control-plane state of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QState {
    /// Arrival event not yet popped.
    Pending,
    /// Admitted to the wait queue, no execution slot yet.
    Waiting,
    /// Executing phases on the machine.
    Running,
    /// Timed out; waiting for backoff to elapse and stale in-flight
    /// events to drain before restarting.
    AwaitRetry,
    /// Terminal.
    Done,
}

impl QState {
    /// Every state, in discriminant (checkpoint-code) order.
    const ALL: [QState; 5] = [
        QState::Pending,
        QState::Waiting,
        QState::Running,
        QState::AwaitRetry,
        QState::Done,
    ];
}

/// When a query learns that a disk fail-stopped (see the module docs).
/// Chosen by the entry point: solo runs use `Barrier`, workloads `Clock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detection {
    /// Failures surfacing before a phase starts are detected at its
    /// barrier. The single query's recovery view is the machine-wide
    /// fault runtime itself (there is nothing to keep apart), so the
    /// abort clock and any no-survivor abort are observed exactly where
    /// the query sees them.
    Barrier,
    /// Failures are detected `DETECT_TIMEOUT` after injection, through
    /// each query's own recovery view.
    Clock,
}

/// Per-query executor state: the phase executor's locals lifted into a
/// struct so many queries can hold a phase open at once.
#[derive(Clone)]
struct QueryRun {
    plan_ix: usize,
    arrival: SimTime,
    started: Option<SimTime>,
    attempt: u32,
    phase_ix: usize,
    nodes: Vec<NodeState>,
    costs: Option<PhaseCosts>,
    horizon: SimTime,
    phase_start: SimTime,
    /// Machine counters at the current phase's start, for the phase's
    /// report deltas.
    before: PhaseSnapshot,
    state: QState,
    status: QueryStatus,
    retry_armed: bool,
    retries: u32,
    timeouts: u32,
    finished: SimTime,
    events: u64,
    /// Phases the current attempt completed (plus, for a solo run, the
    /// phase it aborted in).
    phases: Vec<PhaseReport>,
    /// Saved span-chain anchors, swapped into the shared [`SpanRt`]
    /// whenever this query's events are handled.
    span_last: SpanId,
    span_last_end: SimTime,
    phase_spans: Vec<PhaseSpans>,
}

impl QueryRun {
    fn new(plan_ix: usize, arrival: SimTime) -> Self {
        QueryRun {
            plan_ix,
            arrival,
            started: None,
            attempt: 0,
            phase_ix: 0,
            nodes: Vec::new(),
            costs: None,
            horizon: SimTime::ZERO,
            phase_start: SimTime::ZERO,
            before: PhaseSnapshot::default(),
            state: QState::Pending,
            status: QueryStatus::Completed,
            retry_armed: false,
            retries: 0,
            timeouts: 0,
            finished: SimTime::ZERO,
            events: 0,
            phases: Vec::new(),
            span_last: SpanId::NONE,
            span_last_end: SimTime::ZERO,
            phase_spans: Vec::new(),
        }
    }

    /// The handler context of this query's open phase `phase`.
    fn ctx<'a>(&'a mut self, phase: &'a PhasePlan, window: u64, qid: usize) -> PhaseCtx<'a> {
        PhaseCtx {
            phase,
            costs: self.costs.as_ref().expect("phase opened"),
            nodes: &mut self.nodes,
            horizon: &mut self.horizon,
            region: phase_region(phase),
            phase_writes: phase_writes(phase),
            phase_ix: self.phase_ix,
            window,
            qid: qid as u32,
        }
    }
}

/// Upper bound on the event queue's pre-size hint, in events. The
/// steady-state estimate in [`Mq::new`] scales with the admitted
/// queries; every workload in this repository sizes far below 2^20.
const MAX_QUEUE_HINT: usize = 1 << 20;

/// The event driver: one shared machine, one event queue, N query state
/// machines. `Clone` is the fork primitive: a paused run is cloned once
/// per what-if continuation (see [`ExecRun`] and [`WarmStart`]).
#[derive(Clone)]
pub(crate) struct Mq<'p> {
    machine: Machine,
    q: EventQueue<Ev>,
    runs: Vec<QueryRun>,
    plans: Vec<Cow<'p, TaskPlan>>,
    /// Task kind of each entry in `plans`, so [`WarmStart::extend`] can
    /// reuse plans for kinds the warmup already planned (`None` for the
    /// explicit plan of a solo run).
    kinds: Vec<Option<TaskKind>>,
    /// In-flight work events per query — the phase-completion gate.
    outstanding: Vec<u64>,
    /// Global fault schedule driving the shared machine.
    fs: FaultRt,
    /// Per-query recovery views under the clock rule (empty fault
    /// schedules; `fs` drives the machine). Empty under the barrier rule.
    views: Vec<FaultRt>,
    /// Per-node detection clock (fault time + `DETECT_TIMEOUT`).
    detect_at: Vec<Option<SimTime>>,
    detection: Detection,
    adm: AdmissionPolicy,
    dl: DeadlinePolicy,
    running: usize,
    waiting: VecDeque<u32>,
    /// Next query a closed-loop client issues when one finishes.
    next_closed: usize,
    closed: bool,
    backoff_rng: SplitMix64,
    spans: Option<SpanRt>,
    /// Popped-but-unprocessed event stashed by a paused [`Mq::step`]
    /// (already counted by `q.popped()`, so resumed event totals match
    /// an uninterrupted run).
    pending: Option<(SimTime, Ev)>,
    /// Time of the last processed event — the fork origin.
    clock: SimTime,
    /// Set by a global fail-stop abort: every query is terminal and the
    /// remaining queue contents are stale, so `step` must not resume.
    halted: bool,
    /// Work events popped, including a stashed one and one that crossed
    /// the abort clock: a solo report's event count.
    work_popped: u64,
}

impl<'p> Mq<'p> {
    /// An idle driver on a fresh machine configured by `sim`, sized for
    /// `queries` queries.
    fn new(
        sim: &Simulation,
        detection: Detection,
        adm: AdmissionPolicy,
        dl: DeadlinePolicy,
        queries: usize,
        profiled: bool,
    ) -> Self {
        let mut machine = Machine::new(sim.architecture());
        for &(node, count) in sim.degraded_disks() {
            machine.degrade_disk(node, count);
        }
        let n = machine.nodes();
        // Steady state: every running query holds a full read window per
        // node plus its fan-out, and each query owns at most one control
        // event of each kind. Only a hint: saturating, and capped so a
        // huge admission bound cannot turn into a huge reservation.
        let cap = adm
            .max_concurrent
            .min(queries)
            .saturating_mul(n)
            .saturating_mul(machine.window() + 4)
            .saturating_add(queries.saturating_mul(2))
            .saturating_add(64)
            .min(MAX_QUEUE_HINT);
        Mq {
            q: EventQueue::with_backend_capacity(sim.queue_backend(), cap),
            fs: FaultRt::new(sim.fault_plan(), sim.recovery_policy(), sim.seed(), n),
            views: Vec::new(),
            detect_at: vec![None; n],
            machine,
            runs: Vec::new(),
            plans: Vec::new(),
            kinds: Vec::new(),
            outstanding: Vec::new(),
            detection,
            adm,
            dl,
            running: 0,
            waiting: VecDeque::new(),
            next_closed: 0,
            closed: false,
            // Decorrelate the backoff jitter stream from the machine's
            // seeded models without a second seed knob.
            backoff_rng: SplitMix64::new(sim.seed() ^ 0x9E37_79B9_7F4A_7C15),
            spans: profiled.then(SpanRt::new),
            pending: None,
            clock: SimTime::ZERO,
            halted: false,
            work_popped: 0,
        }
    }

    /// The one-query closed workload of a solo run of `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    fn solo(sim: &Simulation, plan: &'p TaskPlan, profiled: bool) -> Self {
        plan.validate().expect("invalid task plan");
        let mut mq = Mq::new(
            sim,
            Detection::Barrier,
            AdmissionPolicy::default(),
            DeadlinePolicy::default(),
            1,
            profiled,
        );
        mq.plans.push(Cow::Borrowed(plan));
        mq.kinds.push(None);
        mq.push_query(sim, 0, SimTime::ZERO);
        mq.admit_from(0, ArrivalProcess::Closed { clients: 1 });
        mq
    }

    /// Appends one pending query of plan `plan_ix` arriving at `arrival`.
    fn push_query(&mut self, sim: &Simulation, plan_ix: usize, arrival: SimTime) {
        if self.detection == Detection::Clock {
            self.views.push(FaultRt::new(
                &FaultPlan::new(),
                sim.recovery_policy(),
                sim.seed(),
                self.machine.nodes(),
            ));
        }
        self.runs.push(QueryRun::new(plan_ix, arrival));
        self.outstanding.push(0);
    }

    /// Appends `spec`'s queries with every arrival shifted by `shift`,
    /// planning each task kind on first use, and queues their admission.
    fn push_workload(&mut self, sim: &Simulation, spec: &WorkloadSpec, shift: Duration) {
        let base = self.runs.len();
        for (task, at) in spec.tasks().into_iter().zip(spec.arrival_times()) {
            let plan_ix = match self.kinds.iter().position(|&k| k == Some(task)) {
                Some(ix) => ix,
                None => {
                    let plan = plan_task(task, sim.architecture());
                    plan.validate().expect("invalid task plan");
                    self.plans.push(Cow::Owned(plan));
                    self.kinds.push(Some(task));
                    self.kinds.len() - 1
                }
            };
            self.push_query(sim, plan_ix, at + shift);
        }
        self.admit_from(base, spec.arrival);
    }

    /// Queues the admission of queries `base..`: every Poisson arrival at
    /// its clock, or the first `clients` closed-loop queries (the rest are
    /// issued as queries finish).
    fn admit_from(&mut self, base: usize, arrival: ArrivalProcess) {
        let end = match arrival {
            ArrivalProcess::Poisson { .. } => self.runs.len(),
            ArrivalProcess::Closed { clients } => self.runs.len().min(base + clients as usize),
        };
        for qid in base..end {
            self.q
                .push(self.runs[qid].arrival, Ev::Admit { query: qid as u32 });
        }
        self.next_closed = end;
        self.closed = matches!(arrival, ArrivalProcess::Closed { .. });
    }

    /// The recovery view query `qid` acts on (see [`Detection`]), as an
    /// associated function so callers keep their other field borrows.
    fn view<'a>(
        detection: Detection,
        fs: &'a mut FaultRt,
        views: &'a mut [FaultRt],
        qid: usize,
    ) -> &'a mut FaultRt {
        match detection {
            Detection::Barrier => fs,
            Detection::Clock => &mut views[qid],
        }
    }

    /// Processes events strictly before `limit` (all of them when
    /// `limit` is `None`); a paused run stashes the boundary event in
    /// `self.pending`. The only place the event queue is popped.
    fn step(
        &mut self,
        limit: Option<SimTime>,
        trace: &mut Option<&mut Trace>,
        metrics: &mut Option<&mut MetricsBuilder>,
    ) {
        if self.halted {
            return;
        }
        // A stashed boundary event was counted when it was popped.
        if let Some((now, ev)) = self.pending.take() {
            if self.dispatch(now, ev, false, limit, trace, metrics) {
                return;
            }
        }
        while let Some((now, ev)) = self.q.pop() {
            if self.dispatch(now, ev, true, limit, trace, metrics) {
                return;
            }
        }
        // Fail-stop abort clock beyond the last event: the queue drained
        // before the detection fired, but the run still aborts there.
        if let Some(abort) = self.fs.abort_at {
            self.abort_all(abort);
        }
        debug_assert!(
            self.runs.iter().all(|r| r.state == QState::Done),
            "event queue drained with live queries"
        );
    }

    /// Handles one event popped at `now` (`fresh` unless it is the
    /// stashed boundary event). Returns true when the run must stop here:
    /// the event lies at or past `limit` (it is stashed in `pending`), or
    /// a fail-stop abort ended every query.
    #[inline(always)]
    fn dispatch(
        &mut self,
        now: SimTime,
        ev: Ev,
        fresh: bool,
        limit: Option<SimTime>,
        trace: &mut Option<&mut Trace>,
        metrics: &mut Option<&mut MetricsBuilder>,
    ) -> bool {
        let work = ev.work_query();
        self.work_popped += u64::from(fresh && work.is_some());
        if limit.is_some_and(|l| now >= l) {
            self.pending = Some((now, ev));
            return true;
        }
        self.clock = now;
        // Under the barrier rule, faults due at a control event are
        // the next phase start's business.
        if work.is_some() || self.detection == Detection::Clock {
            if self.fs.pending() {
                self.apply_faults(now, false);
            }
            if let Some(abort) = self.fs.abort_at {
                if now >= abort {
                    self.abort_all(abort);
                    return true;
                }
            }
        }
        match (work, ev) {
            (Some(qid), ev) => {
                // Metrics-off cost: one `Option` check per work event.
                if let Some(mb) = metrics.as_deref_mut() {
                    if mb.due(now) {
                        mb.sample(now, &self.machine.resource_usage(), self.q.len());
                    }
                }
                self.on_work(now, qid as usize, ev, trace);
            }
            (None, Ev::Admit { query }) => self.on_admit(query as usize, now),
            (None, Ev::PhaseStart { query, attempt }) => {
                self.on_phase_start(query as usize, attempt, now)
            }
            (None, Ev::Deadline { query, attempt }) => {
                self.on_deadline(query as usize, attempt, now)
            }
            (None, Ev::Retry { query }) => self.on_retry(query as usize, now),
            (None, _) => unreachable!("work events carry a query"),
        }
        false
    }

    /// Applies globally-scheduled faults due at or before `now` to the
    /// shared machine. At a phase barrier (`at_barrier`, barrier rule) a
    /// fail-stop is detected on the spot; otherwise the damage fans out
    /// to every running query's recovery view, which detects it by clock.
    fn apply_faults(&mut self, now: SimTime, at_barrier: bool) {
        while self.fs.pending() {
            let ev = self.fs.events[self.fs.next];
            let t = SimTime::ZERO + ev.at;
            if t > now {
                break;
            }
            self.fs.next += 1;
            let Some(node) = self.fs.apply_machine(&mut self.machine, ev, t) else {
                continue;
            };
            if at_barrier {
                self.fs.detected[node] = true;
                continue;
            }
            let detect = t + DETECT_TIMEOUT;
            self.detect_at[node] = Some(detect);
            for qid in 0..self.runs.len() {
                if self.runs[qid].state != QState::Running {
                    continue;
                }
                let run = &mut self.runs[qid];
                let fr = Self::view(self.detection, &mut self.fs, &mut self.views, qid);
                fr.any_dead = true;
                let st = &mut run.nodes[node];
                if st.dead {
                    continue;
                }
                st.dead = true;
                // Pool the batches the dead node had not issued yet plus
                // any recovery work it had been assigned.
                for j in st.issued..st.own_batches {
                    let bytes = if j == st.own_batches - 1 {
                        st.last_batch_bytes
                    } else {
                        crate::BATCH_BYTES
                    };
                    fr.pool.push((node, bytes));
                }
                while let Some(bytes) = st.recovery_pending.pop_front() {
                    fr.pool.push((node, bytes));
                }
                st.batches_total = st.issued;
                st.own_batches = st.issued;
                if fr.policy != RecoveryPolicy::FailStop {
                    self.outstanding[qid] += 1;
                    self.q.push(
                        detect.max(now),
                        Ev::RecoveryKick {
                            node: node as u32,
                            query: qid as u32,
                        },
                    );
                }
            }
        }
    }
}

impl Mq<'_> {
    /// Terminates every live query at the global abort clock. A solo run
    /// (barrier rule) reports the phase it was cut short in, ending at
    /// `abort`.
    fn abort_all(&mut self, abort: SimTime) {
        self.halted = true;
        let nodes = self.machine.nodes();
        for run in &mut self.runs {
            if run.state == QState::Done {
                continue;
            }
            if self.detection == Detection::Barrier && run.state == QState::Running {
                let name = self.plans[run.plan_ix].phases[run.phase_ix].name;
                let after = PhaseSnapshot::take(&self.machine);
                let elapsed = abort.since(run.phase_start);
                run.phases
                    .push(run.before.delta(&after, name, elapsed, nodes));
                if self.spans.is_some() {
                    run.phase_spans.push(PhaseSpans {
                        name,
                        start: run.phase_start,
                        end: abort,
                        anchor: run.span_last,
                    });
                }
            }
            run.state = QState::Done;
            run.status = QueryStatus::Aborted;
            run.finished = abort.max(run.arrival);
        }
    }

    /// Ends query `qid` at `at` because the machine cannot run it: the
    /// whole run under the barrier rule, just the query under the clock
    /// rule.
    fn abort_query(&mut self, qid: usize, at: SimTime) {
        match self.detection {
            Detection::Barrier => self.abort_all(at),
            Detection::Clock => self.finalize(qid, QueryStatus::Aborted, at),
        }
    }

    fn on_admit(&mut self, qid: usize, now: SimTime) {
        debug_assert_eq!(self.runs[qid].state, QState::Pending);
        if self.running < self.adm.max_concurrent {
            if let Some(d) = self.dl.deadline {
                self.q.push(
                    now + d,
                    Ev::Deadline {
                        query: qid as u32,
                        attempt: 0,
                    },
                );
            }
            self.running += 1;
            self.start_attempt(qid, now);
        } else if self.waiting.len() < self.adm.queue_limit {
            // The first attempt's deadline runs from admission, so time
            // spent waiting for a slot counts against it.
            if let Some(d) = self.dl.deadline {
                self.q.push(
                    now + d,
                    Ev::Deadline {
                        query: qid as u32,
                        attempt: 0,
                    },
                );
            }
            self.runs[qid].state = QState::Waiting;
            self.waiting.push_back(qid as u32);
        } else {
            // Shed: counted, never silent.
            self.finalize(qid, QueryStatus::Shed, now);
        }
    }

    /// Begins attempt `runs[qid].attempt` at `at`: fresh plan cursor,
    /// fresh deadline for retries (attempt 0 was armed at admission).
    fn start_attempt(&mut self, qid: usize, at: SimTime) {
        let run = &mut self.runs[qid];
        run.state = QState::Running;
        run.started = run.started.or(Some(at));
        run.phase_ix = 0;
        run.phases.clear();
        run.phase_spans.clear();
        if run.attempt > 0 {
            if let Some(d) = self.dl.deadline {
                self.q.push(
                    at + d,
                    Ev::Deadline {
                        query: qid as u32,
                        attempt: run.attempt,
                    },
                );
            }
        }
        self.start_phase(qid, at);
    }

    /// Opens phase `runs[qid].phase_ix` on the shared machine and primes
    /// its read pipeline.
    fn start_phase(&mut self, qid: usize, at: SimTime) {
        let n = self.machine.nodes();
        let barrier = self.detection == Detection::Barrier;
        let run = &mut self.runs[qid];
        let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
        let region = phase_region(phase);
        self.machine.begin_phase(region);
        run.phase_start = at;
        run.horizon = at;
        run.span_last = SpanId::NONE;
        run.span_last_end = at;
        run.before = PhaseSnapshot::take(&self.machine);
        if barrier {
            // Faults due at or before the barrier strike before any work
            // starts, and every node already knows about them.
            self.apply_faults(at, true);
        }
        let abort_at = if barrier { self.fs.abort_at } else { None };
        if self.machine.failed_count() == n || abort_at.is_some_and(|t| t <= at) {
            self.abort_query(qid, abort_at.map_or(at, |t| t.max(at)));
            return;
        }
        let run = &mut self.runs[qid];
        let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
        let fr = Self::view(self.detection, &mut self.fs, &mut self.views, qid);
        if !barrier {
            // Sync the query's failure view with the shared machine: a
            // failure is detected here once its detection clock has
            // passed.
            fr.any_dead = self.machine.failed_count() > 0;
            for i in 0..n {
                fr.detected[i] =
                    self.machine.disk_failed(i) && self.detect_at[i].is_some_and(|t| t <= at);
            }
        }
        let (nodes, abort) = init_phase_nodes(&self.machine, phase, fr, at);
        run.nodes = nodes;
        if let Some(t) = abort {
            self.abort_query(qid, t);
            return;
        }
        run.costs = Some(PhaseCosts::new(&self.machine, phase));
        let mut sp = self.spans.as_mut();
        if let Some(rt) = sp.as_deref_mut() {
            rt.last = SpanId::NONE;
            rt.last_end = at;
            rt.arena.set_query(qid as u32);
        }
        let window = self.machine.window() as u64;
        let policy = fr.policy;
        let mut evq = EvQ {
            q: &mut self.q,
            outstanding: &mut self.outstanding[qid],
        };
        let mut ctx = run.ctx(phase, window, qid);
        for node in 0..n {
            for _ in 0..window.min(ctx.nodes[node].batches_total) {
                issue_read(
                    &mut self.machine,
                    &mut evq,
                    &mut ctx,
                    node,
                    at,
                    policy,
                    &mut sp,
                    SpanId::NONE,
                );
            }
        }
        // Failures not yet detected at this phase's start get their
        // recovery kick at the detection clock (none under the barrier
        // rule, which has detected every failure by now).
        if fr.any_dead && policy != RecoveryPolicy::FailStop {
            for i in 0..n {
                if self.machine.disk_failed(i) && !fr.detected[i] {
                    if let Some(t) = self.detect_at[i] {
                        evq.push(
                            t.max(at),
                            Ev::RecoveryKick {
                                node: i as u32,
                                query: qid as u32,
                            },
                        );
                    }
                }
            }
        }
        if let Some(rt) = sp {
            run.span_last = rt.last;
            run.span_last_end = rt.last_end;
        }
        if self.outstanding[qid] == 0 {
            // Degenerate phase (nothing to read): complete immediately.
            self.complete_phase(qid);
        }
    }

    /// Handles one popped work event for its owning query `qid`.
    fn on_work(&mut self, now: SimTime, qid: usize, ev: Ev, trace: &mut Option<&mut Trace>) {
        self.outstanding[qid] -= 1;
        let run = &mut self.runs[qid];
        run.events += 1;
        match run.state {
            QState::Running => {
                run.horizon = run.horizon.max(now);
                if let Some(rt) = self.spans.as_mut() {
                    rt.last = run.span_last;
                    rt.last_end = run.span_last_end;
                    rt.arena.set_query(qid as u32);
                }
                let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
                let mut ctx = run.ctx(phase, self.machine.window() as u64, qid);
                let mut sp = self.spans.as_mut();
                handle_ev(
                    &mut self.machine,
                    &mut EvQ {
                        q: &mut self.q,
                        outstanding: &mut self.outstanding[qid],
                    },
                    &mut ctx,
                    Self::view(self.detection, &mut self.fs, &mut self.views, qid),
                    trace,
                    &mut sp,
                    now,
                    ev,
                );
                if let Some(rt) = sp {
                    run.span_last = rt.last;
                    run.span_last_end = rt.last_end;
                }
                if self.outstanding[qid] == 0 {
                    self.complete_phase(qid);
                }
            }
            QState::AwaitRetry => {
                // Stale drain from the torn-down attempt; machine charges
                // already accrued (wasted work is real under overload).
                if self.outstanding[qid] == 0 && run.retry_armed {
                    run.attempt += 1;
                    run.retry_armed = false;
                    self.start_attempt(qid, now);
                }
            }
            QState::Done => {
                // Stale drain past a terminal timeout/abort: dropped.
            }
            QState::Pending | QState::Waiting => {
                unreachable!("work event for a query that never started")
            }
        }
    }

    /// Closes the current phase: positioning tail, barrier, the phase
    /// report, and the `PhaseStart` control event that opens the next
    /// phase (or finishes the plan).
    fn complete_phase(&mut self, qid: usize) {
        if self.detection == Detection::Barrier {
            // The survivors drained their queues, but a pending abort
            // clock means the failed partition was never re-read: the run
            // still aborts there.
            if let Some(abort) = self.fs.abort_at {
                self.abort_all(abort);
                return;
            }
        }
        let nodes = self.machine.nodes();
        let run = &mut self.runs[qid];
        let phase = &self.plans[run.plan_ix].phases[run.phase_ix];
        // Byte conservation: the nodes together must have issued exactly
        // the plan's read bytes — the per-node split drops nothing, and
        // recovery re-issues every batch a failed node left behind.
        let issued: u64 = run.nodes.iter().map(|s| s.issued_bytes).sum();
        assert_eq!(
            issued, phase.read_bytes_total,
            "query {qid} phase '{}' issued {issued} B of {} B planned",
            phase.name, phase.read_bytes_total
        );
        // Out-of-band disk positioning penalty (e.g. merge run switches):
        // per-node and overlapped across nodes, so it extends the phase
        // once. Every phase boundary is then a global barrier.
        let end = run.horizon + phase.extra_disk_busy_per_node;
        let barrier_end = end + self.machine.barrier_costs().barrier(nodes);
        if let Some(rt) = self.spans.as_mut() {
            rt.last = run.span_last;
            rt.last_end = run.span_last_end;
            rt.arena.set_query(qid as u32);
            if phase.extra_disk_busy_per_node > Duration::ZERO {
                let parent = rt.last;
                rt.record(
                    parent,
                    SpanResource::Positioning,
                    SpanKind::Positioning,
                    FRONT_END_NODE,
                    run.horizon,
                    end,
                    0,
                );
            }
            // The barrier span chains onto the phase's last span, making
            // it the critical-path anchor.
            let parent = rt.last;
            rt.record(
                parent,
                SpanResource::Barrier,
                SpanKind::Barrier,
                FRONT_END_NODE,
                end,
                barrier_end,
                0,
            );
            run.phase_spans.push(PhaseSpans {
                name: phase.name,
                start: run.phase_start,
                end: barrier_end,
                anchor: rt.last,
            });
            run.span_last = rt.last;
            run.span_last_end = rt.last_end;
        }
        let after = PhaseSnapshot::take(&self.machine);
        let elapsed = barrier_end.since(run.phase_start);
        run.phases
            .push(run.before.delta(&after, phase.name, elapsed, nodes));
        run.phase_ix += 1;
        let attempt = run.attempt;
        self.q.push(
            barrier_end,
            Ev::PhaseStart {
                query: qid as u32,
                attempt,
            },
        );
    }

    fn on_phase_start(&mut self, qid: usize, attempt: u32, now: SimTime) {
        let run = &self.runs[qid];
        // Stale barrier from a torn-down attempt.
        if run.state != QState::Running || run.attempt != attempt {
            return;
        }
        if run.phase_ix == self.plans[run.plan_ix].phases.len() {
            self.finalize(qid, QueryStatus::Completed, now);
        } else {
            self.start_phase(qid, now);
        }
    }

    fn on_deadline(&mut self, qid: usize, attempt: u32, now: SimTime) {
        let run = &mut self.runs[qid];
        match run.state {
            QState::Waiting if attempt == 0 => {
                // Deadline expired before a slot ever freed.
                run.timeouts += 1;
                if let Some(pos) = self.waiting.iter().position(|&x| x as usize == qid) {
                    self.waiting.remove(pos);
                }
                self.finalize(qid, QueryStatus::TimedOut, now);
            }
            QState::Running if run.attempt == attempt => {
                run.timeouts += 1;
                if run.attempt < self.dl.max_retries {
                    run.retries += 1;
                    run.state = QState::AwaitRetry;
                    run.retry_armed = false;
                    let wait = self.dl.backoff_for(run.attempt + 1, &mut self.backoff_rng);
                    self.q.push(now + wait, Ev::Retry { query: qid as u32 });
                } else {
                    // Retry budget exhausted: finish with the partial
                    // phase report intact.
                    self.finalize(qid, QueryStatus::TimedOut, now);
                }
            }
            // Stale deadline (attempt already retired) — ignore.
            _ => {}
        }
    }

    fn on_retry(&mut self, qid: usize, now: SimTime) {
        let run = &mut self.runs[qid];
        if run.state != QState::AwaitRetry {
            return;
        }
        if self.outstanding[qid] == 0 {
            run.attempt += 1;
            run.retry_armed = false;
            self.start_attempt(qid, now);
        } else {
            // Stale in-flight events still draining; the last drain pop
            // (necessarily at or after this clock) restarts the attempt.
            run.retry_armed = true;
        }
    }

    /// Retires a query, frees its admission slot, promotes the next
    /// waiter, and — in closed-loop mode — issues the client's next
    /// query.
    fn finalize(&mut self, qid: usize, status: QueryStatus, at: SimTime) {
        let run = &mut self.runs[qid];
        let held_slot = matches!(run.state, QState::Running | QState::AwaitRetry);
        run.state = QState::Done;
        run.status = status;
        run.finished = at;
        if held_slot {
            self.running -= 1;
            if let Some(next) = self.waiting.pop_front() {
                self.running += 1;
                // Its attempt-0 deadline was armed at admission.
                self.start_attempt(next as usize, at);
            }
        }
        if self.closed && self.next_closed < self.runs.len() {
            let nq = self.next_closed;
            self.next_closed += 1;
            self.runs[nq].arrival = at;
            self.q.push(at, Ev::Admit { query: nq as u32 });
        }
    }
}

impl Mq<'_> {
    /// The solo query (see [`Mq::solo`]).
    fn solo_run(&self) -> &QueryRun {
        debug_assert_eq!(self.detection, Detection::Barrier);
        &self.runs[0]
    }

    /// Builds a finished solo run's report (and span trace, when
    /// profiled).
    fn into_report(self, sim: &Simulation) -> (Report, Option<SpanTrace>) {
        debug_assert_eq!(self.detection, Detection::Barrier);
        let run = self
            .runs
            .into_iter()
            .next()
            .expect("a solo run has one query");
        debug_assert_eq!(run.state, QState::Done, "report of an unfinished run");
        let report = Report {
            task: self.plans[run.plan_ix].task,
            architecture: sim.architecture().short_name(),
            disks: self.machine.nodes(),
            phases: run.phases,
            disk_service: self.machine.disk_service_histogram(),
            events: self.work_popped,
            faults_injected: self.fs.injected,
            recovery_time: self.machine.recovery_busy(),
            work_redistributed: self.machine.work_redistributed(),
            aborted: run.status == QueryStatus::Aborted,
            downtime: self.machine.disk_downtime(run.finished),
        };
        let spans = self.spans.map(|rt| SpanTrace {
            arena: rt.arena,
            phases: run.phase_spans,
        });
        (report, spans)
    }

    /// Serializes the driver's dynamic state — clock, machine, fault
    /// runtimes, the live event queue and pending event, admission
    /// bookkeeping, and every query's progress — in the exact-integer
    /// state codec. Configuration (plans, policies, detection rule) and
    /// per-batch costs are rebuilt on load, never stored.
    fn save_state(&self, w: &mut StateWriter) {
        w.field("clock_ns", self.clock.as_nanos());
        w.field("work_popped", self.work_popped);
        w.field("halted", u8::from(self.halted));
        self.machine.save_state(w);
        self.fs.save_state(w);
        match &self.pending {
            Some((t, ev)) => {
                w.field("pending", 1u8);
                w.str_field("pending_ev", &format!("{} {}", t.as_nanos(), encode_ev(ev)));
            }
            None => w.field("pending", 0u8),
        }
        let snap = self.q.snapshot();
        w.field("q_popped", snap.popped);
        w.field("q_last_ns", snap.last_popped.as_nanos());
        w.field("q_len", snap.events.len());
        for (t, ev) in &snap.events {
            w.str_field("qe", &format!("{} {}", t.as_nanos(), encode_ev(ev)));
        }
        w.list(
            "detect_set",
            self.detect_at.iter().map(|d| u8::from(d.is_some())),
        );
        w.list(
            "detect_ns",
            self.detect_at
                .iter()
                .map(|d| d.unwrap_or_default().as_nanos()),
        );
        w.field("running", self.running);
        w.list("waiting", self.waiting.iter().copied());
        w.field("next_closed", self.next_closed);
        w.field("closed", u8::from(self.closed));
        w.field("backoff_rng", self.backoff_rng.state());
        w.field("queries", self.runs.len());
        for (qid, run) in self.runs.iter().enumerate() {
            w.list(
                "query",
                [
                    run.plan_ix as u64,
                    run.arrival.as_nanos(),
                    u64::from(run.started.is_some()),
                    run.started.unwrap_or_default().as_nanos(),
                    u64::from(run.attempt),
                    run.phase_ix as u64,
                    QState::ALL
                        .iter()
                        .position(|&s| s == run.state)
                        .unwrap_or(0) as u64,
                    u64::from(run.retry_armed),
                    u64::from(run.retries),
                    u64::from(run.timeouts),
                    run.finished.as_nanos(),
                    run.events,
                    run.horizon.as_nanos(),
                    run.phase_start.as_nanos(),
                    self.outstanding[qid],
                ],
            );
            w.str_field("status", run.status.name());
            if let Some(fr) = self.views.get(qid) {
                fr.save_state(w);
            }
            w.field("nodes_n", run.nodes.len());
            for st in &run.nodes {
                save_node_state(st, w);
            }
            run.before.save_state(w);
            w.field("phases_done", run.phases.len());
            for p in &run.phases {
                codec::save_phase_report(p, w);
            }
        }
    }

    /// Restores [`Mq::save_state`] output into a driver freshly built
    /// for the same configuration. The restored queue is rebuilt for this
    /// driver's backend and replays the saved pop order exactly, so a
    /// checkpoint taken under one backend resumes bit-identically under
    /// any other. Inconsistent state is an error, never a panic.
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let bad = StateError::new;
        self.clock = SimTime::from_nanos(r.num("clock_ns")?);
        self.work_popped = r.num("work_popped")?;
        self.halted = r.flag("halted")?;
        self.machine.load_state(r)?;
        self.fs.load_state(r)?;
        self.pending = if r.flag("pending")? {
            Some(parse_timed_ev(r.field("pending_ev")?)?)
        } else {
            None
        };
        let popped: u64 = r.num("q_popped")?;
        let last_popped = SimTime::from_nanos(r.num("q_last_ns")?);
        let qlen: usize = r.num("q_len")?;
        let events: Vec<(SimTime, Ev)> = (0..qlen)
            .map(|_| parse_timed_ev(r.field("qe")?))
            .collect::<Result<_, _>>()?;
        // Every restored event must lie at or after the clock and name a
        // node of this machine and a query of this run: dispatch indexes
        // with both.
        let (nodes, queries) = (self.machine.nodes(), self.runs.len());
        let in_range =
            |&(t, ref ev): &(SimTime, Ev)| t >= last_popped && ev.ids_within(nodes, queries);
        if !self.pending.iter().chain(&events).all(in_range) {
            return Err(bad(
                "event behind the clock or naming a node or query out of range",
            ));
        }
        let mut inflight = vec![0u64; queries];
        for qid in self
            .pending
            .iter()
            .chain(&events)
            .filter_map(|(_, ev)| ev.work_query())
        {
            inflight[qid as usize] += 1;
        }
        self.q = EventQueue::with_backend_capacity(self.q.backend(), self.q.capacity());
        self.q.load_snapshot(QueueSnapshot {
            events,
            popped,
            last_popped,
        });
        let n = self.machine.nodes();
        let set: Vec<u8> = r.nums("detect_set")?;
        let ns: Vec<u64> = r.nums("detect_ns")?;
        if set.len() != n || ns.len() != n {
            return Err(bad("detection-clock count mismatch"));
        }
        self.detect_at = set
            .iter()
            .zip(ns)
            .map(|(&s, t)| (s != 0).then(|| SimTime::from_nanos(t)))
            .collect();
        self.running = r.num("running")?;
        self.waiting = r.nums::<u32>("waiting")?.into();
        self.next_closed = r.num("next_closed")?;
        self.closed = r.flag("closed")?;
        self.backoff_rng = SplitMix64::new(r.num("backoff_rng")?);
        if r.num::<usize>("queries")? != self.runs.len() {
            return Err(bad("query count mismatch"));
        }
        for (qid, &in_flight) in inflight.iter().enumerate() {
            let v: [u64; 15] = r.array("query")?;
            let status = QueryStatus::parse(r.field("status")?).ok_or_else(|| bad("bad status"))?;
            if let Some(fr) = self.views.get_mut(qid) {
                fr.load_state(r)?;
            }
            let nodes_n: usize = r.num("nodes_n")?;
            if nodes_n != 0 && nodes_n != n {
                return Err(bad("node-state count mismatch"));
            }
            let nodes = (0..nodes_n)
                .map(|_| load_node_state(r))
                .collect::<Result<Vec<_>, _>>()?;
            let before = PhaseSnapshot::load_state(r)?;
            let nphases: usize = r.num("phases_done")?;
            let run = &mut self.runs[qid];
            let plan = &self.plans[run.plan_ix];
            let phase_ix = v[5] as usize;
            if v[0] as usize != run.plan_ix || phase_ix > plan.phases.len() {
                return Err(bad("query plan cursor out of range"));
            }
            if nphases > plan.phases.len() {
                return Err(bad("finished-phase count out of range"));
            }
            run.phases = (0..nphases)
                .map(|_| codec::load_phase_report(r))
                .collect::<Result<_, _>>()?;
            run.arrival = SimTime::from_nanos(v[1]);
            run.started = (v[2] != 0).then(|| SimTime::from_nanos(v[3]));
            run.attempt = v[4] as u32;
            run.phase_ix = phase_ix;
            run.state = *QState::ALL
                .get(v[6] as usize)
                .ok_or_else(|| bad("bad query state"))?;
            run.retry_armed = v[7] != 0;
            run.retries = v[8] as u32;
            run.timeouts = v[9] as u32;
            run.finished = SimTime::from_nanos(v[10]);
            run.events = v[11];
            run.horizon = SimTime::from_nanos(v[12]);
            run.phase_start = SimTime::from_nanos(v[13]);
            self.outstanding[qid] = v[14];
            run.status = status;
            run.before = before;
            // Per-batch costs are a pure function of the machine and the
            // open phase: recomputed, never stored.
            run.costs = (nodes_n != 0 && phase_ix < plan.phases.len())
                .then(|| PhaseCosts::new(&self.machine, &plan.phases[phase_ix]));
            run.nodes = nodes;
            // `on_work` counts each work event off `outstanding` and
            // dispatches a running query's against its open phase.
            let live = match run.state {
                QState::Running => run.costs.is_some(),
                QState::AwaitRetry | QState::Done => true,
                QState::Pending | QState::Waiting => false,
            };
            if in_flight != v[14] || (in_flight > 0 && !live) {
                return Err(bad("in-flight work does not match the query state"));
            }
        }
        Ok(())
    }
}

impl Simulation {
    /// Runs a multi-query workload under the given admission and
    /// deadline policies. Deterministic: the report is a pure function
    /// of the simulation config and the workload spec.
    pub fn run_workload(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> LoadReport {
        self.run_workload_observed(workload, admission, deadline, None, false)
            .0
    }

    /// Like [`Simulation::run_workload`], also collecting the causal
    /// span trace with per-query lanes.
    pub fn run_workload_profiled(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> (LoadReport, LoadSpanTrace) {
        let (report, trace) = self.run_workload_observed(workload, admission, deadline, None, true);
        (report, trace.expect("profiled run returns a span trace"))
    }

    /// Full-control loaded run: optional metrics sampling and optional
    /// span profiling in one pass.
    pub fn run_workload_observed(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
        mut metrics: Option<&mut MetricsBuilder>,
        profiled: bool,
    ) -> (LoadReport, Option<LoadSpanTrace>) {
        let mut mq = self.mq_setup(workload, admission, deadline, profiled);
        mq.step(None, &mut None, &mut metrics);
        self.collect_load(mq, workload.summary(), admission, deadline)
    }

    /// Builds the driver with `workload`'s arrivals queued but nothing
    /// processed.
    fn mq_setup(
        &self,
        workload: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
        profiled: bool,
    ) -> Mq<'static> {
        assert!(workload.queries > 0, "workload needs at least one query");
        let mut mq = Mq::new(
            self,
            Detection::Clock,
            admission,
            deadline,
            workload.queries as usize,
            profiled,
        );
        mq.push_workload(self, workload, Duration::ZERO);
        mq
    }

    /// Turns a drained driver into its report (and span trace, when
    /// profiled).
    fn collect_load(
        &self,
        mq: Mq<'_>,
        workload_summary: String,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> (LoadReport, Option<LoadSpanTrace>) {
        let n = mq.machine.nodes();
        let end = mq
            .runs
            .iter()
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        let task = |r: &QueryRun| mq.kinds[r.plan_ix].expect("workload queries have a task");
        let outcomes = mq
            .runs
            .iter()
            .enumerate()
            .map(|(i, r)| QueryOutcome {
                query: i as u32,
                task: task(r),
                arrival: r.arrival,
                started: r.started,
                finished: r.finished,
                status: r.status,
                retries: r.retries,
                timeouts: r.timeouts,
                phases: r
                    .phases
                    .iter()
                    .map(|p| QueryPhase {
                        name: p.name,
                        elapsed: p.elapsed,
                    })
                    .collect(),
                events: r.events,
            })
            .collect();
        let report = LoadReport {
            architecture: self.architecture().short_name(),
            disks: n,
            workload: workload_summary,
            admission: admission.summary(),
            deadline: deadline.summary(),
            outcomes,
            elapsed: end.since(SimTime::ZERO),
            events: mq.q.popped(),
            faults_injected: mq.fs.injected,
            work_redistributed: mq.machine.work_redistributed(),
            downtime: mq.machine.disk_downtime(end),
        };
        let trace = mq.spans.map(|rt| LoadSpanTrace {
            arena: rt.arena,
            queries: mq
                .runs
                .iter()
                .enumerate()
                .map(|(i, r)| QuerySpans {
                    query: i as u32,
                    task: task(r),
                    phases: r.phase_spans.clone(),
                })
                .collect(),
        });
        (report, trace)
    }
}

impl Simulation {
    /// Starts a loaded run with `warmup`'s arrivals queued but nothing
    /// simulated, returning a forkable [`WarmStart`]. Drive the warmup
    /// with [`WarmStart::run_to_idle`], then [`WarmStart::fork`] once
    /// per what-if continuation and [`WarmStart::extend`] each fork with
    /// its measured workload — the warm prefix is simulated exactly
    /// once, and every continuation's report is field-identical to a
    /// from-scratch run of the same warmup + extension.
    pub fn start_workload(
        &self,
        warmup: &WorkloadSpec,
        admission: AdmissionPolicy,
        deadline: DeadlinePolicy,
    ) -> WarmStart {
        WarmStart {
            mq: self.mq_setup(warmup, admission, deadline, false),
            sim: self.clone(),
            workload: warmup.summary(),
            admission,
            deadline,
            measured_from: warmup.queries as usize,
        }
    }
}

/// A loaded run paused after its warmup segment, cheap to fork.
///
/// The warmup's machine state, event history, and admission bookkeeping
/// are shared by every fork (a fork is one `Clone`), so a rate ladder
/// pays for its common ramp-up once instead of once per point.
#[derive(Clone)]
pub struct WarmStart {
    sim: Simulation,
    mq: Mq<'static>,
    workload: String,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
    measured_from: usize,
}

impl WarmStart {
    /// Drains every queued arrival and its consequences — the warmup
    /// segment runs to completion and the clock parks at its last event.
    pub fn run_to_idle(&mut self) {
        self.mq.step(None, &mut None, &mut None);
    }

    /// The fork origin: the time of the last processed event. Extended
    /// arrivals land strictly after it.
    pub fn origin(&self) -> SimTime {
        self.mq.clock
    }

    /// Forks the paused run: an independent continuation sharing this
    /// prefix's full state.
    pub fn fork(&self) -> WarmStart {
        self.clone()
    }

    /// Queries in the warmup segment (the measured slice of the final
    /// report's outcomes starts here).
    pub fn measured_from(&self) -> usize {
        self.measured_from
    }

    /// Appends `spec`'s queries to the run, their arrival clocks shifted
    /// to land strictly after [`WarmStart::origin`] (each arrival moves
    /// by `origin + 1ns`). Because the warmup queue is idle at the
    /// origin, the continuation's event interleaving is identical
    /// whether the prefix was simulated in this process or forked.
    pub fn extend(&mut self, spec: &WorkloadSpec) {
        assert!(spec.queries > 0, "extension needs at least one query");
        let shift = self.mq.clock.since(SimTime::ZERO) + Duration::from_nanos(1);
        self.mq.push_workload(&self.sim, spec, shift);
        self.workload = format!("{} + {}", self.workload, spec.summary());
    }

    /// Runs the continuation to completion and returns its report
    /// (warmup and extended queries both included, in arrival order —
    /// slice `outcomes` at [`WarmStart::measured_from`] for the measured
    /// segment).
    pub fn finish(mut self) -> LoadReport {
        self.mq.step(None, &mut None, &mut None);
        let (report, _) =
            self.sim
                .collect_load(self.mq, self.workload, self.admission, self.deadline);
        report
    }
}

/// A pausable, forkable, serializable solo run of one plan on one
/// [`Simulation`]: the copy-on-fork checkpointing engine. Create one
/// with [`Simulation::start`], advance it with [`run_until`]
/// (processing every event strictly before the limit), branch what-if
/// continuations with [`fork`] / [`fork_with_faults`] — each fork
/// shares the simulated prefix instead of re-running it — and complete
/// any branch with [`finish`]. Reports from forked continuations are
/// field-identical to from-scratch runs: every entry point drives the
/// same one-query workload through the same event loop.
///
/// [`run_until`]: ExecRun::run_until
/// [`fork`]: ExecRun::fork
/// [`fork_with_faults`]: ExecRun::fork_with_faults
/// [`finish`]: ExecRun::finish
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::Simulation;
/// use simcore::SimTime;
/// use tasks::{plan_task, TaskKind};
///
/// let sim = Simulation::new(Architecture::active_disks(4));
/// let plan = plan_task(TaskKind::Select, sim.architecture());
/// let scratch = sim.run_plan(&plan);
///
/// // Pause after the first simulated millisecond, fork, finish both.
/// let mut prefix = sim.start(&plan);
/// prefix.run_until(SimTime::from_nanos(1_000_000));
/// let forked = prefix.fork().finish();
/// assert_eq!(forked, scratch);
/// assert_eq!(prefix.finish(), scratch);
/// ```
#[derive(Clone)]
pub struct ExecRun<'p> {
    sim: Simulation,
    mq: Mq<'p>,
}

impl<'p> ExecRun<'p> {
    pub(crate) fn start_inner(sim: &Simulation, plan: &'p TaskPlan, profiled: bool) -> Self {
        ExecRun {
            sim: sim.clone(),
            mq: Mq::solo(sim, plan, profiled),
        }
    }

    /// Drives the run to completion with optional tracing and metrics
    /// sampling, returning the report and (when profiled) span trace.
    pub(crate) fn complete(
        mut self,
        trace: &mut Option<&mut Trace>,
        metrics: &mut Option<&mut MetricsBuilder>,
    ) -> (Report, Option<SpanTrace>) {
        self.mq.step(None, trace, metrics);
        self.mq.into_report(&self.sim)
    }

    /// Advances the run until the simulation clock reaches `t`:
    /// processes every event firing strictly before `t` and every phase
    /// boundary falling before `t`, then pauses at an exact event
    /// boundary. Pausing and resuming never changes the final report.
    pub fn run_until(&mut self, t: SimTime) {
        self.mq.step(Some(t), &mut None, &mut None);
    }

    /// Whether the run has completed (its report is final): it ended,
    /// or every phase has finished and only the closing barrier's
    /// bookkeeping event remains.
    pub fn is_done(&self) -> bool {
        let run = self.mq.solo_run();
        run.state == QState::Done || run.phase_ix == self.mq.plans[run.plan_ix].phases.len()
    }

    /// The simulation clock at the current pause point: the stashed
    /// event's pop time when paused (everything strictly before it is
    /// simulated), the run's end once it ended.
    pub fn paused_at(&self) -> SimTime {
        let run = self.mq.solo_run();
        match &self.mq.pending {
            Some((t, _)) => *t,
            None if run.state == QState::Done => run.finished,
            None => self.mq.clock,
        }
    }

    /// Events processed so far (the report's `events` once done).
    pub fn events_so_far(&self) -> u64 {
        self.mq.work_popped
    }

    /// Forks the run at the current pause point: an independent
    /// continuation sharing the already-simulated prefix.
    #[must_use]
    pub fn fork(&self) -> ExecRun<'p> {
        self.clone()
    }

    /// Forks the run and swaps in a fresh fault schedule and recovery
    /// policy for the continuation: the fork-at-fault-time primitive.
    /// The healthy prefix is simulated once; each fault scenario replays
    /// only its suffix.
    ///
    /// # Panics
    ///
    /// Panics if the prefix already consumed fault state (a fault was
    /// applied or the schedule cursor moved) — a continuation under a
    /// different schedule would then diverge from a from-scratch run.
    #[must_use]
    pub fn fork_with_faults(&self, faults: FaultPlan, recovery: RecoveryPolicy) -> ExecRun<'p> {
        let fs = &self.mq.fs;
        assert!(
            fs.injected == 0 && fs.next == 0,
            "cannot swap fault plans: the prefix already consumed fault state"
        );
        debug_assert!(fs.pool.is_empty() && fs.abort_at.is_none());
        let mut run = self.clone();
        run.sim = self
            .sim
            .clone()
            .with_fault_plan(faults)
            .with_recovery(recovery);
        let n = run.mq.machine.nodes();
        run.mq.fs = FaultRt::new(run.sim.fault_plan(), recovery, run.sim.seed(), n);
        run
    }

    /// Runs to completion and returns the report — field-identical to
    /// [`Simulation::run_plan`] on the same configuration.
    pub fn finish(self) -> Report {
        self.complete(&mut None, &mut None).0
    }

    /// Runs to completion and returns the report plus the span trace.
    ///
    /// # Panics
    ///
    /// Panics if the run was not started with profiling
    /// ([`Simulation::start_profiled`]).
    pub fn finish_profiled(self) -> (Report, SpanTrace) {
        let (report, spans) = self.complete(&mut None, &mut None);
        (report, spans.expect("run was started without profiling"))
    }

    /// Serializes the paused run (see [`crate::checkpoint`]).
    ///
    /// # Panics
    ///
    /// Panics if the run is profiled: the span arena is not captured on
    /// disk (fork in memory to keep profiling across a branch point).
    pub fn save_state(&self, w: &mut StateWriter) {
        assert!(
            self.mq.spans.is_none(),
            "profiled runs cannot be checkpointed to disk"
        );
        self.mq.save_state(w);
    }

    /// Rebuilds a paused run from [`ExecRun::save_state`] output. `sim`
    /// and `plan` must be the configuration the state was saved under
    /// (the checkpoint key guarantees this; a mismatched machine shape
    /// is also caught here as an error). The restored queue is freshly
    /// built for `sim`'s backend and replays the saved pop order
    /// exactly, so a checkpoint taken under one backend resumes
    /// bit-identically under any other.
    pub fn load_state(
        sim: &Simulation,
        plan: &'p TaskPlan,
        r: &mut StateReader<'_>,
    ) -> Result<Self, StateError> {
        if plan.validate().is_err() {
            return Err(StateError::new("invalid task plan"));
        }
        let mut run = ExecRun::start_inner(sim, plan, false);
        run.mq.load_state(r)?;
        Ok(run)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use arch::Architecture;

    #[test]
    fn far_future_pushes_stay_below_one_percent() {
        // The two configurations that scheduled the largest share of
        // their events past the wheel's fine horizon (two in three, and
        // over a third): those pushes take the first coarse level, and
        // at most 1% may climb above it.
        for (arch, task) in [
            (Architecture::active_disks(16), TaskKind::Sort),
            (Architecture::smp(64), TaskKind::Join),
        ] {
            let plan = tasks::plan_task(task, &arch);
            let sim = Simulation::new(arch);
            let mut mq = Mq::solo(&sim, &plan, false);
            mq.step(None, &mut None, &mut None);
            assert!(mq.q.is_empty());
            let (pushes, over) = (mq.q.popped(), mq.q.overflow_pushes());
            assert!(pushes > 10_000, "{task:?}: {pushes} pushes");
            assert!(
                over * 100 <= pushes,
                "{task:?} on {:?}: {over} of {pushes} pushes overflowed",
                sim.architecture()
            );
        }
    }

    fn one_query(task: TaskKind) -> WorkloadSpec {
        WorkloadSpec::closed(1, 1).with_mix(vec![(task, 1)])
    }

    #[test]
    fn one_query_workload_matches_solo_run() {
        for arch in [
            Architecture::active_disks(4),
            Architecture::cluster(4),
            Architecture::smp(4),
        ] {
            let sim = Simulation::new(arch);
            let solo = sim.run(TaskKind::Aggregate);
            let load = sim.run_workload(
                &one_query(TaskKind::Aggregate),
                AdmissionPolicy::default(),
                DeadlinePolicy::default(),
            );
            assert_eq!(load.outcomes.len(), 1);
            let q = &load.outcomes[0];
            assert_eq!(q.status, QueryStatus::Completed);
            assert_eq!(q.latency(), solo.elapsed(), "loaded 1-query elapsed drifts");
            assert_eq!(q.phases.len(), solo.phases.len());
            for (qp, sp) in q.phases.iter().zip(&solo.phases) {
                assert_eq!(qp.name, sp.name);
            }
        }
    }

    #[test]
    fn shed_at_full_queue_is_counted() {
        // 1 slot, zero-length wait queue: with 3 simultaneous closed-loop
        // clients, two arrivals shed at time zero.
        let sim = Simulation::new(Architecture::active_disks(2));
        let w = WorkloadSpec::closed(3, 3).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy {
            max_concurrent: 1,
            queue_limit: 0,
        };
        let report = sim.run_workload(&w, adm, DeadlinePolicy::default());
        assert_eq!(report.shed(), 2);
        assert_eq!(report.completed(), 1);
        for o in &report.outcomes {
            if o.status == QueryStatus::Shed {
                assert_eq!(o.finished, o.arrival, "shed is decided at admission");
                assert!(o.started.is_none());
                assert!(o.phases.is_empty());
            }
        }
    }

    #[test]
    fn deadline_expires_while_still_queued() {
        // Two clients, one slot, deep queue: the second query's deadline
        // (shorter than the first query's runtime) fires while it waits.
        let sim = Simulation::new(Architecture::active_disks(2));
        let w = WorkloadSpec::closed(2, 2).with_mix(vec![(TaskKind::Select, 1)]);
        let adm = AdmissionPolicy {
            max_concurrent: 1,
            queue_limit: 8,
        };
        let dl = DeadlinePolicy {
            deadline: Some(Duration::from_millis(1)),
            max_retries: 3,
            backoff: Duration::from_millis(1),
        };
        let report = sim.run_workload(&w, adm, dl);
        let timed_out: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.status == QueryStatus::TimedOut && o.started.is_none())
            .collect();
        assert_eq!(
            timed_out.len(),
            1,
            "queued query must time out without starting: {report:?}"
        );
        assert!(timed_out[0].phases.is_empty());
        // No retries for a query that never got a slot.
        assert_eq!(timed_out[0].retries, 0);
        assert_eq!(timed_out[0].timeouts, 1);
    }

    #[test]
    fn retry_exhaustion_keeps_partial_phases() {
        // A deadline long enough to finish sort's first phase but not the
        // whole task: every attempt times out mid-plan, retries exhaust,
        // and the partial phase report survives.
        let sim = Simulation::new(Architecture::active_disks(2));
        let solo = sim.run(TaskKind::Sort);
        let first_phase = solo.phases[0].elapsed;
        let w = one_query(TaskKind::Sort);
        let dl = DeadlinePolicy {
            deadline: Some(first_phase + Duration::from_millis(10)),
            max_retries: 2,
            backoff: Duration::from_millis(5),
        };
        let report = sim.run_workload(&w, AdmissionPolicy::default(), dl);
        let q = &report.outcomes[0];
        assert_eq!(q.status, QueryStatus::TimedOut);
        assert_eq!(q.retries, 2, "both retries consumed");
        assert_eq!(q.timeouts, 3, "initial attempt + 2 retries all timed out");
        assert_eq!(q.phases.len(), 1, "first phase completed on final attempt");
        assert_eq!(q.phases[0].name, solo.phases[0].name);
        assert!(report.completed_latencies().is_empty());
        assert_eq!(report.latency_percentile(50.0), None);
    }

    #[test]
    fn backoff_schedule_is_seeded_and_deterministic() {
        let sim = Simulation::new(Architecture::cluster(2)).with_seed(7);
        let w = WorkloadSpec::poisson(0.05, 6)
            .with_mix(vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)])
            .with_seed(11);
        let dl = DeadlinePolicy {
            deadline: Some(Duration::from_secs(5)),
            max_retries: 2,
            backoff: Duration::from_secs(1),
        };
        let a = sim.run_workload(&w, AdmissionPolicy::default(), dl);
        let b = sim.run_workload(&w, AdmissionPolicy::default(), dl);
        assert_eq!(a, b, "same seed must reproduce the identical report");
    }

    #[test]
    fn forked_continuations_match_from_scratch_runs() {
        // One warm prefix, three what-if continuations (a rate ladder
        // plus a closed point): each fork's report must be
        // field-identical to re-simulating warmup + extension from
        // scratch, including under a different queue backend.
        let sim = Simulation::new(Architecture::active_disks(4)).with_seed(3);
        let adm = AdmissionPolicy {
            max_concurrent: 2,
            queue_limit: 8,
        };
        let dl = DeadlinePolicy::default();
        let mix = vec![(TaskKind::Select, 1), (TaskKind::Aggregate, 1)];
        let warmup = WorkloadSpec::closed(2, 3)
            .with_mix(mix.clone())
            .with_seed(7);
        let mut prefix = sim.start_workload(&warmup, adm, dl);
        prefix.run_to_idle();
        let origin = prefix.origin();
        assert!(origin > SimTime::ZERO);

        let extensions = [
            WorkloadSpec::poisson(0.05, 4)
                .with_mix(mix.clone())
                .with_seed(11),
            WorkloadSpec::poisson(0.2, 4)
                .with_mix(mix.clone())
                .with_seed(11),
            WorkloadSpec::closed(2, 4)
                .with_mix(mix.clone())
                .with_seed(11),
        ];
        for spec in &extensions {
            let mut fork = prefix.fork();
            fork.extend(spec);
            assert_eq!(fork.measured_from(), 3);
            let warm = fork.finish();

            let scratch_sim = sim
                .clone()
                .with_queue_backend(simcore::QueueBackend::BinaryHeap);
            let mut scratch = scratch_sim.start_workload(&warmup, adm, dl);
            scratch.run_to_idle();
            assert_eq!(scratch.origin(), origin, "shared prefix drifts");
            scratch.extend(spec);
            assert_eq!(
                warm,
                scratch.finish(),
                "fork vs scratch: {}",
                spec.summary()
            );
        }
        // The un-extended prefix itself still finishes to the plain
        // warmup report.
        let solo = sim.run_workload(&warmup, adm, dl);
        assert_eq!(prefix.finish(), solo);
    }

    #[test]
    fn goodput_and_percentiles_reflect_completions() {
        let sim = Simulation::new(Architecture::active_disks(4));
        let w = WorkloadSpec::poisson(0.02, 5).with_mix(vec![(TaskKind::Select, 1)]);
        let report = sim.run_workload(&w, AdmissionPolicy::default(), DeadlinePolicy::default());
        assert_eq!(report.completed(), 5);
        let p50 = report.latency_percentile(50.0).unwrap();
        let p99 = report.latency_percentile(99.0).unwrap();
        assert!(p50 <= p99);
        let lats = report.completed_latencies();
        assert_eq!(p99, *lats.last().unwrap());
        assert!(report.goodput_qps() > 0.0);
    }
}
