//! The phase executor: the state machine that runs a task's phase plans
//! on a machine, one work event at a time, and the [`Simulation`] entry
//! points. The one event loop that drives it lives in [`crate::mqexec`].

use std::collections::{BTreeMap, VecDeque};

use arch::Architecture;
use simcore::span::{SpanArena, SpanId, SpanKind, SpanResource, FRONT_END_NODE};
use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Duration, EventQueue, QueueBackend, SimTime, SplitMix64};
use tasks::plan::{CpuWork, PhasePlan, TaskPlan};
use tasks::{plan_task, TaskKind};

use crate::codec;
use crate::faults::{
    FaultEvent, FaultKind, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT, RETRY_TIMEOUT,
};
use crate::machine::Machine;
use crate::metrics::{MetricsBuilder, Resource, ResourceUsage, RunMetrics};
pub use crate::mqexec::ExecRun;
use crate::profile::SpanTrace;
use crate::report::{PhaseReport, Report};
use crate::trace::{NodeId, Trace, TraceEvent, TraceKind};
use crate::BATCH_BYTES;

/// A configured simulation: one architecture, ready to run tasks.
///
/// # Example
///
/// ```
/// use arch::Architecture;
/// use howsim::Simulation;
/// use tasks::TaskKind;
///
/// let sim = Simulation::new(Architecture::cluster(16));
/// let report = sim.run(TaskKind::Aggregate);
/// assert_eq!(report.architecture, "Cluster");
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    arch: Architecture,
    degraded: Vec<(usize, u64)>,
    queue_backend: QueueBackend,
    seed: u64,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
}

/// Events of the phase executor. The `span` on each work event is the
/// span that completes when the event fires ([`SpanId::NONE`] unless the
/// run is profiled) — the causal parent of whatever the handler does
/// next. The `query` field attributes every work event to the query it
/// belongs to: solo runs use lane 0, workloads interleave many lanes on
/// one queue ([`crate::mqexec`]). Payload fields never affect the
/// `(time, seq)` pop order.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// A batch finished reading from disk at a node.
    BatchRead {
        node: u32,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// A node's CPU finished processing a scanned batch.
    BatchProcessed {
        node: u32,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// A repartitioned batch arrived at a peer.
    PeerArrive {
        src: u32,
        dst: u32,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// A peer finished its receive-side CPU work on a batch.
    RecvProcessed {
        node: u32,
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// Data arrived at the front-end.
    FeArrive {
        bytes: u64,
        span: SpanId,
        query: u32,
    },
    /// The failure of `node` is detected (its request timeouts expired):
    /// recovery of its remaining partition begins for `query`.
    RecoveryKick { node: u32, query: u32 },
    /// Control events of the driver (never seen by [`handle_ev`]): a
    /// query arrives at the admission controller.
    Admit { query: u32 },
    /// A query's phase barrier completed; start its next phase (or
    /// finish). Tagged with the attempt so stale barriers of a cancelled
    /// attempt are ignored.
    PhaseStart { query: u32, attempt: u32 },
    /// A query attempt's deadline expired.
    Deadline { query: u32, attempt: u32 },
    /// A cancelled query's backoff elapsed; restart when its in-flight
    /// events have drained.
    Retry { query: u32 },
}

// Every event is moved through the queue's slab and the driver's
// dispatch: keep it within half a cache line.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

impl Ev {
    /// True if every node id the event carries is below `nodes` and its
    /// query id is below `queries` (a restored checkpoint's check).
    pub(crate) fn ids_within(&self, nodes: usize, queries: usize) -> bool {
        let (a, b, query) = match *self {
            Ev::BatchRead { node, query, .. }
            | Ev::BatchProcessed { node, query, .. }
            | Ev::RecvProcessed { node, query, .. }
            | Ev::RecoveryKick { node, query } => (node, node, query),
            Ev::PeerArrive {
                src, dst, query, ..
            } => (src, dst, query),
            Ev::FeArrive { query, .. }
            | Ev::Admit { query }
            | Ev::PhaseStart { query, .. }
            | Ev::Deadline { query, .. }
            | Ev::Retry { query } => (0, 0, query),
        };
        (a.max(b) as usize) < nodes && (query as usize) < queries
    }

    /// The query a *work* event belongs to (None for control events —
    /// they carry no machine work and are not counted as outstanding).
    #[inline]
    pub(crate) fn work_query(&self) -> Option<u32> {
        match *self {
            Ev::BatchRead { query, .. }
            | Ev::BatchProcessed { query, .. }
            | Ev::PeerArrive { query, .. }
            | Ev::RecvProcessed { query, .. }
            | Ev::FeArrive { query, .. }
            | Ev::RecoveryKick { query, .. } => Some(query),
            Ev::Admit { .. } | Ev::PhaseStart { .. } | Ev::Deadline { .. } | Ev::Retry { .. } => {
                None
            }
        }
    }
}

/// Push sink over the event queue for one query's work events, counting
/// them as outstanding (the driver's phase-completion signal).
pub(crate) struct EvQ<'a> {
    pub(crate) q: &'a mut EventQueue<Ev>,
    pub(crate) outstanding: &'a mut u64,
}

impl EvQ<'_> {
    #[inline]
    pub(crate) fn push(&mut self, t: SimTime, ev: Ev) {
        debug_assert!(ev.work_query().is_some(), "only work events are counted");
        *self.outstanding += 1;
        self.q.push(t, ev);
    }
}

/// Span-recording runtime of one profiled run: the arena plus the
/// last-ending span of the current phase (the critical-path anchor).
/// The driver swaps `last`/`last_end` per query around each event so
/// every query keeps its own anchor chain.
#[derive(Clone)]
pub(crate) struct SpanRt {
    pub(crate) arena: SpanArena,
    /// Last-ending retained span of the current phase; later records at
    /// the same end time win, which is deterministic because record
    /// order follows the (backend-invariant) event pop order.
    pub(crate) last: SpanId,
    pub(crate) last_end: SimTime,
}

impl SpanRt {
    pub(crate) fn new() -> Self {
        SpanRt {
            arena: SpanArena::enabled(),
            last: SpanId::NONE,
            last_end: SimTime::ZERO,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        parent: SpanId,
        resource: SpanResource,
        kind: SpanKind,
        node: u32,
        start: SimTime,
        end: SimTime,
        bytes: u64,
    ) -> SpanId {
        let id = self
            .arena
            .record(parent, resource, kind, node, start, end, bytes);
        if id.is_some() && end >= self.last_end {
            self.last = id;
            self.last_end = end;
        }
        id
    }
}

/// Records a span if profiling is enabled — one `Option` check per site
/// when it is not.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn span(
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
    resource: SpanResource,
    kind: SpanKind,
    node: u32,
    start: SimTime,
    end: SimTime,
    bytes: u64,
) -> SpanId {
    match spans {
        Some(s) => s.record(parent, resource, kind, node, start, end, bytes),
        None => SpanId::NONE,
    }
}

/// Costs that are identical for every full-sized batch of a phase,
/// computed once at phase start instead of per event. Almost every batch
/// the executor handles is exactly [`BATCH_BYTES`], so the hot loop reads
/// these precomputed durations and only falls back to the float math for
/// odd-sized tail batches. The cached values are produced by the *same*
/// expressions as the fallback path, so results are bit-identical.
#[derive(Clone)]
pub(crate) struct PhaseCosts {
    /// OS issue+complete+dispatch per batch, already scaled by CPU perf.
    os_batch: Duration,
    /// Per-work-item CPU cost of scanning one full batch (`read_cpu`).
    read_batch: Vec<Duration>,
    /// Per-work-item CPU cost of receiving one full batch (`recv_cpu`).
    recv_batch: Vec<Duration>,
    /// Messaging-library CPU cost of sending one full batch.
    msg_batch: Duration,
    /// Front-end CPU cost of absorbing one full batch.
    fe_batch: Duration,
    /// Node CPU relative performance.
    perf: f64,
    /// Front-end CPU relative performance.
    fe_perf: f64,
}

impl PhaseCosts {
    pub(crate) fn new(m: &Machine, phase: &PhasePlan) -> Self {
        let perf = m.node_cpu().relative_perf;
        let fe_perf = m.fe_cpu_spec().relative_perf;
        let os_per_batch = m.os().io_issue() + m.os().io_complete() + diskos::DISPATCH_OVERHEAD;
        let batch_cost = |work: &[CpuWork]| -> Vec<Duration> {
            work.iter()
                .map(|w| cpu_cost(w.ns_per_byte, BATCH_BYTES, perf))
                .collect()
        };
        PhaseCosts {
            os_batch: os_per_batch.scale(1.0 / perf),
            read_batch: batch_cost(&phase.read_cpu),
            recv_batch: batch_cost(&phase.recv_cpu),
            msg_batch: m.msg_cost(BATCH_BYTES).scale(1.0 / perf),
            fe_batch: cpu_cost(phase.frontend_cpu_ns_per_byte, BATCH_BYTES, fe_perf),
            perf,
            fe_perf,
        }
    }

    /// Messaging CPU cost for `bytes`, cached for full batches.
    fn msg_cost(&self, m: &Machine, bytes: u64) -> Duration {
        if bytes == BATCH_BYTES {
            self.msg_batch
        } else {
            m.msg_cost(bytes).scale(1.0 / self.perf)
        }
    }
}

/// CPU time to process `bytes` at `ns_per_byte` on a CPU of relative
/// performance `perf`. The single source of the executor's cost formula:
/// cached batch costs and the odd-size fallback both call this.
pub(crate) fn cpu_cost(ns_per_byte: f64, bytes: u64, perf: f64) -> Duration {
    Duration::from_secs_f64(ns_per_byte * bytes as f64 / 1e9 / perf)
}

/// Per-node executor state within one phase.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    /// Bytes this node reads in the phase (the plan total split across
    /// nodes, remainder distributed so no byte is dropped).
    pub(crate) bytes_total: u64,
    pub(crate) batches_total: u64,
    /// Batches served from this node's own disk; `batches_total` exceeds
    /// this when recovery work for a failed peer has been assigned here.
    pub(crate) own_batches: u64,
    pub(crate) issued: u64,
    pub(crate) issued_bytes: u64,
    pub(crate) processed: u64,
    pub(crate) last_batch_bytes: u64,
    /// Batch sizes of recovery work (a failed peer's partition) assigned
    /// to this node, read via the surviving disks.
    pub(crate) recovery_pending: VecDeque<u64>,
    /// The node's disk has fail-stopped: it issues no reads, loses
    /// in-flight work, and drops arriving messages.
    pub(crate) dead: bool,
    /// The final front-end/reduction message has been sent (guards
    /// against re-sending when recovery work re-arms `finished`).
    pub(crate) fe_sent: bool,
    pub(crate) next_dst: usize,
    /// Weighted-fair destination credits when the phase shuffles with
    /// skewed weights (None = uniform round robin).
    pub(crate) dst_credits: Option<Vec<f64>>,
    pub(crate) write_credit: f64,
    pub(crate) shuffle_credit: f64,
    pub(crate) frontend_credit: f64,
}

impl NodeState {
    /// Picks the next shuffle destination: uniform round robin, or the
    /// most-credited destination under weighted-fair dispatch.
    fn pick_dst(&mut self, weights: Option<&[f64]>, n: usize) -> usize {
        match (&mut self.dst_credits, weights) {
            (Some(credits), Some(w)) => {
                let total: f64 = w.iter().sum();
                for (c, wi) in credits.iter_mut().zip(w) {
                    *c += wi / total;
                }
                let dst = credits
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite credits"))
                    .map(|(i, _)| i)
                    .expect("at least one destination");
                credits[dst] -= 1.0;
                dst
            }
            _ => {
                let dst = self.next_dst;
                self.next_dst = (self.next_dst + 1) % n;
                dst
            }
        }
    }
}

/// Fault-injection runtime: persists across phases of one run, applying
/// scheduled faults as simulated time reaches them and steering recovery.
/// The driver keeps one *global* `FaultRt` for the shared fault schedule
/// and machine effects; under the clock detection rule each query also
/// gets an empty-schedule `FaultRt` carrying its own recovery bookkeeping
/// (pool, detection view, round-robin cursor).
#[derive(Clone)]
pub(crate) struct FaultRt {
    /// Scheduled faults in chronological order (absolute offsets).
    pub(crate) events: Vec<FaultEvent>,
    /// Index of the first not-yet-applied fault.
    pub(crate) next: usize,
    pub(crate) policy: RecoveryPolicy,
    /// Whether a node's fail-stop has been *detected* (request timeouts
    /// expired); until then peers keep sending to it and pay retries.
    pub(crate) detected: Vec<bool>,
    /// Lost batches awaiting reassignment, as `(origin node, bytes)`.
    /// Entries stay pooled until the origin's failure is detected.
    pub(crate) pool: Vec<(usize, u64)>,
    /// Round-robin cursor spreading recovery batches over survivors.
    pub(crate) rr: usize,
    pub(crate) rng: SplitMix64,
    pub(crate) injected: u64,
    /// Fail-stop policy: the run aborts when the clock reaches this.
    pub(crate) abort_at: Option<SimTime>,
    /// Fast-path guard: true once any disk has fail-stopped.
    pub(crate) any_dead: bool,
}

impl FaultRt {
    pub(crate) fn new(plan: &FaultPlan, policy: RecoveryPolicy, seed: u64, nodes: usize) -> Self {
        FaultRt {
            events: plan.events().to_vec(),
            next: 0,
            policy,
            detected: vec![false; nodes],
            pool: Vec::new(),
            rr: 0,
            rng: SplitMix64::new(seed),
            injected: 0,
            abort_at: None,
            any_dead: false,
        }
    }

    /// Whether any scheduled fault has not been applied yet.
    #[inline]
    pub(crate) fn pending(&self) -> bool {
        self.next < self.events.len()
    }

    /// Applies machine-level effects of one fault at its due time `t`.
    /// Returns the failed node index for fail-stops so the caller can do
    /// the executor-side bookkeeping (which differs at a phase barrier vs
    /// mid-phase).
    pub(crate) fn apply_machine(
        &mut self,
        m: &mut Machine,
        ev: FaultEvent,
        t: SimTime,
    ) -> Option<usize> {
        match ev.kind {
            FaultKind::DiskFailStop { node } => {
                if node >= m.nodes() || m.disk_failed(node) {
                    return None;
                }
                m.fail_disk(node, t);
                self.any_dead = true;
                self.injected += 1;
                if self.policy == RecoveryPolicy::FailStop {
                    let abort = t + DETECT_TIMEOUT;
                    self.abort_at = Some(self.abort_at.map_or(abort, |prev| prev.min(abort)));
                }
                Some(node)
            }
            FaultKind::MediaBurst { node, defects } => {
                if node < m.nodes() && !m.disk_failed(node) {
                    m.degrade_disk_seeded(node, defects as u64, &mut self.rng);
                    self.injected += 1;
                }
                None
            }
            FaultKind::LinkFault { node, severity } => {
                if node < m.nodes() {
                    m.interconnect_fault(node, severity);
                    self.injected += 1;
                }
                None
            }
        }
    }

    /// Reassigns every pooled batch whose origin's failure is detected,
    /// round-robin over survivors. Returns the indices of survivors that
    /// received work (empty when nothing was assignable). Sets the abort
    /// clock if no survivor remains.
    pub(crate) fn assign_detected(&mut self, nodes: &mut [NodeState], now: SimTime) -> Vec<usize> {
        let mut touched = Vec::new();
        let healthy: Vec<usize> = (0..nodes.len()).filter(|&i| !nodes[i].dead).collect();
        let mut i = 0;
        while i < self.pool.len() {
            let (origin, bytes) = self.pool[i];
            if !self.detected[origin] {
                i += 1;
                continue;
            }
            if healthy.is_empty() {
                self.abort_at = Some(self.abort_at.map_or(now, |a| a.min(now)));
                return touched;
            }
            self.pool.remove(i);
            let target = healthy[self.rr % healthy.len()];
            self.rr += 1;
            nodes[target].batches_total += 1;
            nodes[target].recovery_pending.push_back(bytes);
            if !touched.contains(&target) {
                touched.push(target);
            }
        }
        touched
    }
}

/// The first surviving node after `from` (wrapping), if any.
fn next_healthy(nodes: &[NodeState], from: usize) -> Option<usize> {
    let n = nodes.len();
    (1..=n).map(|k| (from + k) % n).find(|&i| !nodes[i].dead)
}

impl Simulation {
    /// Creates a simulation of `arch`.
    pub fn new(arch: Architecture) -> Self {
        Simulation {
            arch,
            degraded: Vec::new(),
            queue_backend: QueueBackend::default(),
            seed: 0,
            faults: FaultPlan::default(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Seeds the simulation's random streams (today: media-burst defect
    /// placement). Part of a run's cache identity.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules deterministic fault injection for every run of this
    /// simulation. Fault times are absolute simulated-time offsets.
    #[must_use]
    pub fn with_fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Selects how the system reacts when a disk fail-stops mid-run.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// The configured RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The configured recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Selects the event-scheduler backend (differential testing and
    /// benchmarking; every backend produces byte-identical reports).
    #[must_use]
    pub fn with_queue_backend(mut self, backend: QueueBackend) -> Self {
        self.queue_backend = backend;
        self
    }

    /// Injects `grown_defects` remapped sectors into `node`'s drive before
    /// each run (straggler studies: one sick drive in a healthy farm).
    #[must_use]
    pub fn with_degraded_disk(mut self, node: usize, grown_defects: u64) -> Self {
        self.degraded.push((node, grown_defects));
        self
    }

    /// The architecture being simulated.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The configured event-scheduler backend.
    pub(crate) fn queue_backend(&self) -> QueueBackend {
        self.queue_backend
    }

    /// The injected per-node drive degradations, as `(node, grown_defects)`
    /// pairs in injection order (part of a run's cache identity).
    pub fn degraded_disks(&self) -> &[(usize, u64)] {
        &self.degraded
    }

    /// Plans and runs one of the eight workload tasks.
    pub fn run(&self, task: TaskKind) -> Report {
        let plan = plan_task(task, &self.arch);
        self.run_plan(&plan)
    }

    /// Runs an explicit phase plan (for custom workloads).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan(&self, plan: &TaskPlan) -> Report {
        self.run_plan_core(plan, None, None, false).0
    }

    /// Starts a pausable, forkable run of `plan` (see [`ExecRun`]): the
    /// copy-on-fork entry point. The run advances only when driven via
    /// [`ExecRun::run_until`] / [`ExecRun::finish`]; a run driven
    /// straight to completion produces a report bit-identical to
    /// [`Simulation::run_plan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn start<'p>(&self, plan: &'p TaskPlan) -> ExecRun<'p> {
        ExecRun::start_inner(self, plan, false)
    }

    /// Starts a pausable run with causal span profiling enabled; finish
    /// it with [`ExecRun::finish_profiled`]. Forks carry the prefix's
    /// span arena, so a forked continuation's critical path is identical
    /// to a from-scratch profiled run.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn start_profiled<'p>(&self, plan: &'p TaskPlan) -> ExecRun<'p> {
        ExecRun::start_inner(self, plan, true)
    }

    /// Plans and runs a task with causal span profiling enabled.
    pub fn run_profiled(&self, task: TaskKind) -> (Report, SpanTrace) {
        let plan = plan_task(task, &self.arch);
        self.run_plan_profiled(&plan)
    }

    /// Runs an explicit phase plan with causal span profiling enabled:
    /// the returned [`SpanTrace`] supports critical-path analysis
    /// ([`SpanTrace::critical_path`]) and Chrome-trace export
    /// ([`SpanTrace::chrome_trace_json`]). The report is bit-identical
    /// to an unprofiled run.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_profiled(&self, plan: &TaskPlan) -> (Report, SpanTrace) {
        let (report, spans) = self.run_plan_core(plan, None, None, true);
        (report, spans.expect("profiled run returns a span trace"))
    }

    /// Plans and runs a task with event tracing enabled.
    pub fn run_traced(&self, task: TaskKind) -> (Report, Trace) {
        let plan = plan_task(task, &self.arch);
        self.run_plan_traced(&plan)
    }

    /// Runs an explicit phase plan with event tracing enabled.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_traced(&self, plan: &TaskPlan) -> (Report, Trace) {
        let mut trace = Trace::new();
        let report = self.run_plan_core(plan, Some(&mut trace), None, false).0;
        (report, trace)
    }

    /// Runs an explicit phase plan with time-series metrics sampling
    /// enabled (default sampling interval; see
    /// [`MetricsBuilder::DEFAULT_INTERVAL`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_with_metrics(&self, plan: &TaskPlan) -> (Report, RunMetrics) {
        let mut metrics = MetricsBuilder::new();
        let report = self.run_plan_core(plan, None, Some(&mut metrics), false).0;
        let events = report.events;
        (report, metrics.finish(events))
    }

    /// Runs a plan with any combination of tracing and metrics sampling.
    /// The report is bit-identical whatever instrumentation is attached.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_instrumented(
        &self,
        plan: &TaskPlan,
        trace: Option<&mut Trace>,
        metrics: Option<&mut MetricsBuilder>,
    ) -> Report {
        self.run_plan_core(plan, trace, metrics, false).0
    }

    /// Runs a plan with any combination of event tracing, metrics
    /// sampling, and (when `profiled`) span recording, in a single
    /// simulation pass. The report is bit-identical whatever
    /// instrumentation is attached.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails validation.
    pub fn run_plan_observed(
        &self,
        plan: &TaskPlan,
        trace: Option<&mut Trace>,
        metrics: Option<&mut MetricsBuilder>,
        profiled: bool,
    ) -> (Report, Option<SpanTrace>) {
        self.run_plan_core(plan, trace, metrics, profiled)
    }

    /// All non-pausable run entry points funnel here: drive an
    /// [`ExecRun`] straight to completion. From-scratch runs and forked
    /// continuations therefore share one event loop by construction.
    fn run_plan_core(
        &self,
        plan: &TaskPlan,
        mut trace: Option<&mut Trace>,
        mut metrics: Option<&mut MetricsBuilder>,
        profiled: bool,
    ) -> (Report, Option<SpanTrace>) {
        ExecRun::start_inner(self, plan, profiled).complete(&mut trace, &mut metrics)
    }
}

/// Records a trace event if tracing is enabled.
fn record(
    trace: &mut Option<&mut Trace>,
    time: SimTime,
    phase: usize,
    node: NodeId,
    kind: TraceKind,
    bytes: u64,
) {
    if let Some(t) = trace {
        t.record(TraceEvent {
            time,
            phase,
            node,
            kind,
            bytes,
        });
    }
}

/// Snapshot of cumulative machine counters, for per-phase deltas.
#[derive(Clone, Default)]
pub(crate) struct PhaseSnapshot {
    cpu_by_tag: BTreeMap<&'static str, Duration>,
    cpu_total: Duration,
    disk_total: Duration,
    interconnect: u64,
    frontend: u64,
    resources: Vec<ResourceUsage>,
}

impl PhaseSnapshot {
    pub(crate) fn take(m: &Machine) -> Self {
        PhaseSnapshot {
            cpu_by_tag: m.cpu_busy_by_tag(),
            cpu_total: m.cpu_busy_total(),
            disk_total: m.disk_busy_total(),
            interconnect: m.interconnect_bytes(),
            frontend: m.frontend_bytes(),
            resources: m.resource_usage(),
        }
    }

    pub(crate) fn delta(
        &self,
        after: &PhaseSnapshot,
        name: &'static str,
        elapsed: Duration,
        nodes: usize,
    ) -> PhaseReport {
        let mut tags = BTreeMap::new();
        for (&tag, &busy) in &after.cpu_by_tag {
            let before = self.cpu_by_tag.get(tag).copied().unwrap_or(Duration::ZERO);
            let d = busy.saturating_sub(before);
            if !d.is_zero() {
                tags.insert(tag, d);
            }
        }
        let resources = after
            .resources
            .iter()
            .zip(&self.resources)
            .map(|(a, b)| {
                debug_assert_eq!(a.resource, b.resource);
                ResourceUsage {
                    resource: a.resource,
                    busy: a.busy.saturating_sub(b.busy),
                    wait: a.wait.saturating_sub(b.wait),
                    lanes: a.lanes,
                }
            })
            .collect();
        PhaseReport {
            name,
            elapsed,
            cpu_busy_by_tag: tags,
            cpu_busy_total: after.cpu_total.saturating_sub(self.cpu_total),
            disk_busy_total: after.disk_total.saturating_sub(self.disk_total),
            interconnect_bytes: after.interconnect - self.interconnect,
            frontend_bytes: after.frontend - self.frontend,
            nodes,
            resources,
        }
    }
}

/// Charges `prefix` (the OS or messaging toll) followed by a list of
/// tagged CPU work items for `bytes` to a node's CPU, as one fused
/// queueing round; returns the completion time of the run. Full batches
/// use the phase's precomputed costs; tail batches pay the float math.
#[allow(clippy::too_many_arguments)]
fn charge_cpu(
    m: &mut Machine,
    node: usize,
    now: SimTime,
    prefix: (Duration, &'static str),
    bytes: u64,
    work: &[CpuWork],
    batch_cost: &[Duration],
    perf: f64,
) -> SimTime {
    let head = std::iter::once(prefix);
    if bytes == BATCH_BYTES {
        m.node_cpu_run(
            node,
            now,
            head.chain(work.iter().zip(batch_cost).map(|(w, &cost)| (cost, w.tag))),
        )
    } else {
        m.node_cpu_run(
            node,
            now,
            head.chain(
                work.iter()
                    .map(|w| (cpu_cost(w.ns_per_byte, bytes, perf), w.tag)),
            ),
        )
    }
}

/// The read-allocator region of a phase: base data or the intermediate
/// runs written by a previous phase.
#[inline]
pub(crate) fn phase_region(phase: &PhasePlan) -> usize {
    usize::from(phase.reads_intermediate)
}

/// Whether the phase carries a substantial write stream — disk-group
/// separation (SMP, NOW-sort style) only pays off when it does.
#[inline]
pub(crate) fn phase_writes(phase: &PhasePlan) -> bool {
    phase.local_write_factor >= 0.25 || phase.write_received
}

/// Builds the per-node executor state for a phase starting at `start`:
/// splits the plan's read bytes across nodes (survivors only for
/// intermediate data), pools a dead node's fixed-placement share as
/// recovery work, and reassigns whatever failure is already detected.
/// Also returns the abort clock when no survivor remains to take the
/// pooled work.
pub(crate) fn init_phase_nodes(
    m: &Machine,
    phase: &PhasePlan,
    fr: &mut FaultRt,
    start: SimTime,
) -> (Vec<NodeState>, Option<SimTime>) {
    let n = m.nodes();
    // Split the plan's read bytes across nodes without dropping the
    // division remainder: the first `remainder` nodes read one extra byte.
    // Intermediate data (runs written in a previous phase) lives on the
    // surviving disks, so those phases split across survivors only; base
    // data has fixed placement, so a dead node's share becomes recovery
    // work pooled for the survivors below.
    let failed_now = m.failed_count();
    let healthy_split = failed_now > 0 && phase.reads_intermediate;
    let split_n = if healthy_split { n - failed_now } else { n } as u64;
    let base_per_node = phase.read_bytes_total / split_n;
    let remainder = (phase.read_bytes_total % split_n) as usize;
    let mut rank = 0usize;
    let mut nodes: Vec<NodeState> = (0..n)
        .map(|i| {
            let dead = failed_now > 0 && m.disk_failed(i);
            let bytes_total = if healthy_split && dead {
                0
            } else {
                let r = if healthy_split {
                    let r = rank;
                    rank += 1;
                    r
                } else {
                    i
                };
                base_per_node + u64::from(r < remainder)
            };
            let batches = if bytes_total == 0 {
                0
            } else {
                bytes_total.div_ceil(BATCH_BYTES)
            };
            let last = if batches == 0 {
                0
            } else {
                bytes_total - (batches - 1) * BATCH_BYTES.min(bytes_total)
            };
            NodeState {
                bytes_total,
                batches_total: batches,
                own_batches: batches,
                issued: 0,
                issued_bytes: 0,
                processed: 0,
                last_batch_bytes: last,
                recovery_pending: VecDeque::new(),
                dead,
                fe_sent: false,
                next_dst: (i + 1) % n,
                dst_credits: phase.shuffle_weights.as_ref().map(|w| {
                    assert_eq!(w.len(), n, "shuffle weights must cover every node");
                    vec![0.0; n]
                }),
                write_credit: 0.0,
                shuffle_credit: 0.0,
                frontend_credit: 0.0,
            }
        })
        .collect();

    // A dead node's fixed-placement share becomes pooled recovery work.
    if failed_now > 0 && !healthy_split {
        for (i, st) in nodes.iter_mut().enumerate() {
            if st.dead && st.bytes_total > 0 {
                for j in 0..st.batches_total {
                    let bytes = if j == st.batches_total - 1 {
                        st.last_batch_bytes
                    } else {
                        BATCH_BYTES
                    };
                    fr.pool.push((i, bytes));
                }
                st.bytes_total = 0;
                st.batches_total = 0;
                st.own_batches = 0;
                st.last_batch_bytes = 0;
            }
        }
        fr.assign_detected(&mut nodes, start);
        if let Some(abort) = fr.abort_at {
            let abort = abort.max(start);
            return (nodes, Some(abort));
        }
    }
    (nodes, None)
}

impl FaultRt {
    /// Serializes the runtime state (not the schedule, which is rebuilt
    /// from the fault plan on load).
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.field("fr_next", self.next);
        w.list("fr_detected", self.detected.iter().map(|&b| u8::from(b)));
        w.field("fr_pool", self.pool.len());
        for &(origin, bytes) in &self.pool {
            w.list("fr_poolent", [origin as u64, bytes]);
        }
        w.field("fr_rr", self.rr);
        w.field("fr_rng", self.rng.state());
        w.field("fr_injected", self.injected);
        w.field("fr_abort_set", u8::from(self.abort_at.is_some()));
        w.field(
            "fr_abort_ns",
            self.abort_at.unwrap_or(SimTime::ZERO).as_nanos(),
        );
        w.field("fr_any_dead", u8::from(self.any_dead));
    }

    /// Restores runtime state into a `FaultRt` freshly built from the
    /// same plan, policy, seed, and node count.
    pub(crate) fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let next: usize = r.num("fr_next")?;
        if next > self.events.len() {
            return Err(StateError::new("fault cursor out of range"));
        }
        self.next = next;
        let det: Vec<u8> = r.nums("fr_detected")?;
        if det.len() != self.detected.len() {
            return Err(StateError::new("detected-flag count mismatch"));
        }
        self.detected = det.iter().map(|&b| b != 0).collect();
        let npool: usize = r.num("fr_pool")?;
        self.pool.clear();
        for _ in 0..npool {
            let [origin, bytes] = r.array::<u64, 2>("fr_poolent")?;
            self.pool.push((origin as usize, bytes));
        }
        self.rr = r.num("fr_rr")?;
        self.rng = SplitMix64::new(r.num("fr_rng")?);
        self.injected = r.num("fr_injected")?;
        let abort_set = r.flag("fr_abort_set")?;
        let abort_ns: u64 = r.num("fr_abort_ns")?;
        self.abort_at = abort_set.then(|| SimTime::from_nanos(abort_ns));
        self.any_dead = r.flag("fr_any_dead")?;
        Ok(())
    }
}

impl PhaseSnapshot {
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        codec::save_tag_map(&self.cpu_by_tag, w);
        w.field("cpu_total_ns", self.cpu_total.as_nanos());
        w.field("disk_total_ns", self.disk_total.as_nanos());
        w.field("interconnect", self.interconnect);
        w.field("frontend", self.frontend);
        codec::save_resources(&self.resources, w);
    }

    pub(crate) fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(PhaseSnapshot {
            cpu_by_tag: codec::load_tag_map(r)?,
            cpu_total: Duration::from_nanos(r.num("cpu_total_ns")?),
            disk_total: Duration::from_nanos(r.num("disk_total_ns")?),
            interconnect: r.num("interconnect")?,
            frontend: r.num("frontend")?,
            resources: codec::load_resources(r)?,
        })
    }
}

/// Encodes one executor event (without its span — checkpoints capture
/// unprofiled runs, where every span is [`SpanId::NONE`]).
pub(crate) fn encode_ev(ev: &Ev) -> String {
    match *ev {
        Ev::BatchRead {
            node, bytes, query, ..
        } => format!("br {node} {bytes} {query}"),
        Ev::BatchProcessed {
            node, bytes, query, ..
        } => format!("bp {node} {bytes} {query}"),
        Ev::PeerArrive {
            src,
            dst,
            bytes,
            query,
            ..
        } => format!("pa {src} {dst} {bytes} {query}"),
        Ev::RecvProcessed {
            node, bytes, query, ..
        } => format!("rp {node} {bytes} {query}"),
        Ev::FeArrive { bytes, query, .. } => format!("fe {bytes} {query}"),
        Ev::RecoveryKick { node, query } => format!("rk {node} {query}"),
        Ev::Admit { query } => format!("ad {query}"),
        Ev::PhaseStart { query, attempt } => format!("ps {query} {attempt}"),
        Ev::Deadline { query, attempt } => format!("dl {query} {attempt}"),
        Ev::Retry { query } => format!("rt {query}"),
    }
}

/// Parses a `<nanos> <event>` line ([`encode_ev`] output after the
/// timestamp).
pub(crate) fn parse_timed_ev(s: &str) -> Result<(SimTime, Ev), StateError> {
    let bad = || StateError::new(format!("bad event line `{s}`"));
    let mut tokens = s.split(' ');
    let ns: u64 = tokens.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let tag = tokens.next().ok_or_else(bad)?;
    let v = tokens
        .map(|t| t.parse::<u64>().map_err(|_| bad()))
        .collect::<Result<Vec<_>, _>>()?;
    let span = SpanId::NONE;
    // Out-of-range values are malformed input, never truncated; node
    // and query ids are checked against the machine by the caller.
    let id = |x: u64| u32::try_from(x).map_err(|_| bad());
    let ev = match (tag, &v[..]) {
        ("br", &[node, bytes, query]) => Ev::BatchRead {
            node: id(node)?,
            bytes,
            span,
            query: id(query)?,
        },
        ("bp", &[node, bytes, query]) => Ev::BatchProcessed {
            node: id(node)?,
            bytes,
            span,
            query: id(query)?,
        },
        ("pa", &[src, dst, bytes, query]) => Ev::PeerArrive {
            src: id(src)?,
            dst: id(dst)?,
            bytes,
            span,
            query: id(query)?,
        },
        ("rp", &[node, bytes, query]) => Ev::RecvProcessed {
            node: id(node)?,
            bytes,
            span,
            query: id(query)?,
        },
        ("fe", &[bytes, query]) => Ev::FeArrive {
            bytes,
            span,
            query: id(query)?,
        },
        ("rk", &[node, query]) => Ev::RecoveryKick {
            node: id(node)?,
            query: id(query)?,
        },
        ("ad", &[query]) => Ev::Admit { query: id(query)? },
        ("ps", &[query, attempt]) => Ev::PhaseStart {
            query: id(query)?,
            attempt: id(attempt)?,
        },
        ("dl", &[query, attempt]) => Ev::Deadline {
            query: id(query)?,
            attempt: id(attempt)?,
        },
        ("rt", &[query]) => Ev::Retry { query: id(query)? },
        _ => return Err(bad()),
    };
    Ok((SimTime::from_nanos(ns), ev))
}

pub(crate) fn save_node_state(st: &NodeState, w: &mut StateWriter) {
    w.list(
        "nstate",
        [
            st.bytes_total,
            st.batches_total,
            st.own_batches,
            st.issued,
            st.issued_bytes,
            st.processed,
            st.last_batch_bytes,
            u64::from(st.dead),
            u64::from(st.fe_sent),
            st.next_dst as u64,
        ],
    );
    w.list("recovery_pending", st.recovery_pending.iter().copied());
    w.list(
        "credits",
        [
            st.write_credit.to_bits(),
            st.shuffle_credit.to_bits(),
            st.frontend_credit.to_bits(),
        ],
    );
    w.field("has_dst_credits", u8::from(st.dst_credits.is_some()));
    if let Some(c) = &st.dst_credits {
        w.list("dst_credits", c.iter().map(|f| f.to_bits()));
    }
}

pub(crate) fn load_node_state(r: &mut StateReader<'_>) -> Result<NodeState, StateError> {
    let v: [u64; 10] = r.array("nstate")?;
    let recovery_pending: Vec<u64> = r.nums("recovery_pending")?;
    let [write_credit, shuffle_credit, frontend_credit] =
        r.array::<u64, 3>("credits")?.map(f64::from_bits);
    let dst_credits = if r.flag("has_dst_credits")? {
        let bits: Vec<u64> = r.nums("dst_credits")?;
        Some(bits.into_iter().map(f64::from_bits).collect())
    } else {
        None
    };
    Ok(NodeState {
        bytes_total: v[0],
        batches_total: v[1],
        own_batches: v[2],
        issued: v[3],
        issued_bytes: v[4],
        processed: v[5],
        last_batch_bytes: v[6],
        recovery_pending: recovery_pending.into(),
        dead: v[7] != 0,
        fe_sent: v[8] != 0,
        next_dst: v[9] as usize,
        dst_credits,
        write_credit,
        shuffle_credit,
        frontend_credit,
    })
}

/// Per-phase execution context threaded into [`handle_ev`]: the plan,
/// its precomputed costs, per-node progress, and the phase cursors. The
/// driver materializes one per work event from the owning query's
/// state.
pub(crate) struct PhaseCtx<'a> {
    pub(crate) phase: &'a PhasePlan,
    pub(crate) costs: &'a PhaseCosts,
    pub(crate) nodes: &'a mut [NodeState],
    pub(crate) horizon: &'a mut SimTime,
    pub(crate) region: usize,
    pub(crate) phase_writes: bool,
    pub(crate) phase_ix: usize,
    pub(crate) window: u64,
    pub(crate) qid: u32,
}

/// Dispatches one popped *work* event against the machine: the phase
/// executor's single state machine. Control events are dispatched by the
/// driver ([`crate::mqexec`]) and never reach here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_ev(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &mut PhaseCtx,
    fr: &mut FaultRt,
    trace: &mut Option<&mut Trace>,
    spans: &mut Option<&mut SpanRt>,
    now: SimTime,
    ev: Ev,
) {
    let (phase, costs) = (ctx.phase, ctx.costs);
    match ev {
        Ev::BatchRead {
            node,
            bytes,
            span: ev_span,
            ..
        } => {
            let node = node as usize;
            if fr.any_dead && ctx.nodes[node].dead {
                // The batch died with its node.
                lose_batch(m, q, ctx, fr, node, bytes, now, spans);
                return;
            }
            record(
                trace,
                now,
                ctx.phase_ix,
                NodeId::Node(node),
                TraceKind::ReadDone,
                bytes,
            );
            let done = charge_cpu(
                m,
                node,
                now,
                (costs.os_batch, "os"),
                bytes,
                &phase.read_cpu,
                &costs.read_batch,
                costs.perf,
            );
            let cpu_span = span(
                spans,
                ev_span,
                Resource::WorkerCpu.span(),
                SpanKind::Cpu,
                node as u32,
                now,
                done.max(now),
                bytes,
            );
            q.push(
                done.max(now),
                Ev::BatchProcessed {
                    node: node as u32,
                    bytes,
                    span: cpu_span,
                    query: ctx.qid,
                },
            );
        }
        Ev::BatchProcessed {
            node,
            bytes,
            span: ev_span,
            ..
        } => {
            let node = node as usize;
            if fr.any_dead && ctx.nodes[node].dead {
                // Processed output lost with the node: a survivor
                // must re-read the underlying batch.
                lose_batch(m, q, ctx, fr, node, bytes, now, spans);
                return;
            }
            record(
                trace,
                now,
                ctx.phase_ix,
                NodeId::Node(node),
                TraceKind::BatchProcessed,
                bytes,
            );
            ctx.nodes[node].processed += 1;
            *ctx.horizon = (*ctx.horizon).max(now);
            // Keep the pipeline full.
            if ctx.nodes[node].issued < ctx.nodes[node].batches_total {
                issue_read(m, q, ctx, node, now, fr.policy, spans, ev_span);
            }
            // Route the outputs.
            let st = &mut ctx.nodes[node];
            st.shuffle_credit += bytes as f64 * phase.shuffle_factor;
            st.frontend_credit += bytes as f64 * phase.frontend_factor;
            st.write_credit += bytes as f64 * phase.local_write_factor;
            let finished = st.processed == st.batches_total;
            drain_outputs(m, q, ctx, fr, node, now, finished, spans, ev_span);
            let bytes = phase.frontend_bytes_per_node;
            if finished && bytes > 0 && !ctx.nodes[node].fe_sent {
                ctx.nodes[node].fe_sent = true;
                if phase.frontend_combinable && node != 0 && !m.restricted_peer_routing() {
                    // Combinable partials flow up a reduction tree
                    // (the messaging library's global reduce) instead
                    // of funnelling every node's copy into the
                    // front-end link.
                    let mut parent = (node - 1) / 2;
                    if fr.any_dead {
                        // Route around dead ancestors; if the root is
                        // gone, go straight to the front-end.
                        while parent != 0 && ctx.nodes[parent].dead {
                            parent = (parent - 1) / 2;
                        }
                    }
                    if fr.any_dead && ctx.nodes[parent].dead {
                        send_frontend(m, q, ctx, node, now, bytes, spans, ev_span);
                    } else {
                        send_peer(m, q, ctx, node, parent, now, bytes, spans, ev_span);
                    }
                } else {
                    send_frontend(m, q, ctx, node, now, bytes, spans, ev_span);
                }
            }
        }
        Ev::PeerArrive {
            src,
            dst,
            bytes,
            span: ev_span,
            ..
        } => {
            let (src, dst) = (src as usize, dst as usize);
            if fr.any_dead && ctx.nodes[dst].dead {
                // Receiver gone: the sender times out and re-sends to
                // the next survivor (unless it has since died too).
                if !ctx.nodes[src].dead {
                    if let Some(dst2) = next_healthy(ctx.nodes, dst) {
                        let arrival = m.peer_transfer(now + RETRY_TIMEOUT, src, dst2, bytes);
                        // The retry span covers the timeout plus the
                        // re-shipment so the causal chain stays gapless.
                        let retry_span = span(
                            spans,
                            ev_span,
                            Resource::Interconnect.span(),
                            SpanKind::Transfer,
                            dst2 as u32,
                            now,
                            arrival.max(now),
                            bytes,
                        );
                        q.push(
                            arrival.max(now),
                            Ev::PeerArrive {
                                src: src as u32,
                                dst: dst2 as u32,
                                bytes,
                                span: retry_span,
                                query: ctx.qid,
                            },
                        );
                    }
                }
                return;
            }
            record(
                trace,
                now,
                ctx.phase_ix,
                NodeId::Node(dst),
                TraceKind::PeerArrive,
                bytes,
            );
            let msg_cost = costs.msg_cost(m, bytes);
            let done = charge_cpu(
                m,
                dst,
                now,
                (msg_cost, "net-recv"),
                bytes,
                &phase.recv_cpu,
                &costs.recv_batch,
                costs.perf,
            );
            let recv_span = span(
                spans,
                ev_span,
                Resource::WorkerCpu.span(),
                SpanKind::Cpu,
                dst as u32,
                now,
                done.max(now),
                bytes,
            );
            q.push(
                done.max(now),
                Ev::RecvProcessed {
                    node: dst as u32,
                    bytes,
                    span: recv_span,
                    query: ctx.qid,
                },
            );
        }
        Ev::RecvProcessed {
            node,
            bytes,
            span: ev_span,
            ..
        } => {
            let node = node as usize;
            if fr.any_dead && ctx.nodes[node].dead {
                return;
            }
            record(
                trace,
                now,
                ctx.phase_ix,
                NodeId::Node(node),
                TraceKind::RecvProcessed,
                bytes,
            );
            *ctx.horizon = (*ctx.horizon).max(now);
            if phase.write_received {
                let aligned = align_sectors(bytes);
                let done = m.write(node, now, aligned, ctx.region, ctx.phase_writes);
                record(
                    trace,
                    done,
                    ctx.phase_ix,
                    NodeId::Node(node),
                    TraceKind::WriteDone,
                    aligned,
                );
                span(
                    spans,
                    ev_span,
                    Resource::DiskMedia.span(),
                    SpanKind::DiskWrite,
                    node as u32,
                    now,
                    done,
                    aligned,
                );
                *ctx.horizon = (*ctx.horizon).max(done);
            }
        }
        Ev::FeArrive {
            bytes,
            span: ev_span,
            ..
        } => {
            record(
                trace,
                now,
                ctx.phase_ix,
                NodeId::FrontEnd,
                TraceKind::FeArrive,
                bytes,
            );
            let cost = if bytes == BATCH_BYTES {
                costs.fe_batch
            } else {
                cpu_cost(phase.frontend_cpu_ns_per_byte, bytes, costs.fe_perf)
            };
            let done = m.fe_cpu_work(now, cost, "frontend");
            span(
                spans,
                ev_span,
                Resource::FrontEndCpu.span(),
                SpanKind::FrontEnd,
                FRONT_END_NODE,
                now,
                done,
                bytes,
            );
            *ctx.horizon = (*ctx.horizon).max(done);
        }
        Ev::RecoveryKick { node, .. } => {
            // Request timeouts on the failed node expired: its loss
            // is now globally known and its partition is reassigned.
            fr.detected[node as usize] = true;
            reassign(m, q, ctx, fr, now, spans);
        }
        Ev::Admit { .. } | Ev::PhaseStart { .. } | Ev::Deadline { .. } | Ev::Retry { .. } => {
            unreachable!("control events never reach the phase executor")
        }
    }
}

/// Un-issues a batch lost with its failed node and pools it for the
/// survivors, reassigning right away once the failure is detected.
#[allow(clippy::too_many_arguments)]
fn lose_batch(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &mut PhaseCtx,
    fr: &mut FaultRt,
    node: usize,
    bytes: u64,
    now: SimTime,
    spans: &mut Option<&mut SpanRt>,
) {
    ctx.nodes[node].issued_bytes -= bytes;
    fr.pool.push((node, bytes));
    if fr.detected[node] {
        reassign(m, q, ctx, fr, now, spans);
    }
}

/// Hands every detected failure's pooled work to the survivors and tops
/// their pipelines back up to the read window (their own pipeline may
/// already have drained, in which case no `BatchProcessed` event would
/// ever re-prime them). Recovery-driven reads are rooted at the
/// detection event, not a prior span; the walker surfaces any gap they
/// leave as "unattributed".
fn reassign(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &mut PhaseCtx,
    fr: &mut FaultRt,
    now: SimTime,
    spans: &mut Option<&mut SpanRt>,
) {
    for node in fr.assign_detected(ctx.nodes, now) {
        while !ctx.nodes[node].dead
            && ctx.nodes[node].issued < ctx.nodes[node].batches_total
            && ctx.nodes[node]
                .issued
                .saturating_sub(ctx.nodes[node].processed)
                < ctx.window
        {
            issue_read(m, q, ctx, node, now, fr.policy, spans, SpanId::NONE);
        }
    }
}

/// Issues `node`'s next batch read — its own partition first, then
/// recovery work for failed peers — and schedules its completion; does
/// nothing if the node is dead or has nothing left to read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn issue_read(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &mut PhaseCtx,
    node: usize,
    now: SimTime,
    policy: RecoveryPolicy,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
) {
    let st = &mut ctx.nodes[node];
    if st.dead {
        return;
    }
    let own = st.bytes_total > 0 && st.issued < st.own_batches;
    let bytes = if !own {
        // A failed peer's batch: re-read it from the surviving disks
        // (mirror or parity reconstruction) and ship it here.
        match st.recovery_pending.pop_front() {
            Some(bytes) => bytes,
            None => return,
        }
    } else if st.issued == st.own_batches - 1 {
        st.last_batch_bytes
    } else {
        BATCH_BYTES
    };
    st.issued += 1;
    st.issued_bytes += bytes;
    let aligned = align_sectors(bytes);
    let (ready, resource) = if own {
        let ready = m.read(node, now, aligned, ctx.region, ctx.phase_writes);
        (ready, Resource::DiskMedia)
    } else {
        let ready = m.recovery_read(policy, node, now, aligned, ctx.region, ctx.phase_writes);
        (ready, Resource::Recovery)
    };
    let read_span = span(
        spans,
        parent,
        resource.span(),
        SpanKind::DiskRead,
        node as u32,
        now,
        ready.max(now),
        aligned,
    );
    q.push(
        ready.max(now),
        Ev::BatchRead {
            node: node as u32,
            bytes,
            span: read_span,
            query: ctx.qid,
        },
    );
}

#[allow(clippy::too_many_arguments)]
fn drain_outputs(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &mut PhaseCtx,
    fr: &FaultRt,
    node: usize,
    now: SimTime,
    flush: bool,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
) {
    let n = ctx.nodes.len();
    // Shuffle: emit batch-sized messages round-robin over peers. Once a
    // peer's failure is detected, senders skip it; before detection they
    // still send and pay the retry at arrival.
    loop {
        let st = &mut ctx.nodes[node];
        let emit = if st.shuffle_credit >= BATCH_BYTES as f64 {
            BATCH_BYTES
        } else if flush && st.shuffle_credit >= 1.0 {
            st.shuffle_credit as u64
        } else {
            break;
        };
        st.shuffle_credit -= emit as f64;
        let mut dst = st.pick_dst(ctx.phase.shuffle_weights.as_deref(), n);
        if fr.any_dead && ctx.nodes[dst].dead && fr.detected[dst] {
            match next_healthy(ctx.nodes, dst) {
                Some(d) => dst = d,
                None => continue,
            }
        }
        send_peer(m, q, ctx, node, dst, now, emit, spans, parent);
    }
    // Front-end stream.
    loop {
        let st = &mut ctx.nodes[node];
        let emit = if st.frontend_credit >= BATCH_BYTES as f64 {
            BATCH_BYTES
        } else if flush && st.frontend_credit >= 1.0 {
            st.frontend_credit as u64
        } else {
            break;
        };
        st.frontend_credit -= emit as f64;
        send_frontend(m, q, ctx, node, now, emit, spans, parent);
    }
    // Local writes.
    loop {
        let st = &mut ctx.nodes[node];
        let emit = if st.write_credit >= BATCH_BYTES as f64 {
            BATCH_BYTES
        } else if flush && st.write_credit >= 1.0 {
            st.write_credit as u64
        } else {
            break;
        };
        st.write_credit -= emit as f64;
        let aligned = align_sectors(emit);
        let done = m.write(node, now, aligned, ctx.region, ctx.phase_writes);
        span(
            spans,
            parent,
            Resource::DiskMedia.span(),
            SpanKind::DiskWrite,
            node as u32,
            now,
            done,
            aligned,
        );
        *ctx.horizon = (*ctx.horizon).max(done);
    }
}

#[allow(clippy::too_many_arguments)]
fn send_peer(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &PhaseCtx,
    src: usize,
    dst: usize,
    now: SimTime,
    bytes: u64,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
) {
    let msg_cost = ctx.costs.msg_cost(m, bytes);
    let send_done = m.node_cpu_work(src, now, msg_cost, "net-send");
    let arrival = m.peer_transfer(send_done, src, dst, bytes);
    let send_span = span(
        spans,
        parent,
        Resource::WorkerCpu.span(),
        SpanKind::Cpu,
        src as u32,
        now,
        send_done,
        bytes,
    );
    let wire_span = span(
        spans,
        send_span,
        Resource::Interconnect.span(),
        SpanKind::Transfer,
        dst as u32,
        send_done,
        arrival.max(now),
        bytes,
    );
    q.push(
        arrival.max(now),
        Ev::PeerArrive {
            src: src as u32,
            dst: dst as u32,
            bytes,
            span: wire_span,
            query: ctx.qid,
        },
    );
}

#[allow(clippy::too_many_arguments)]
fn send_frontend(
    m: &mut Machine,
    q: &mut EvQ,
    ctx: &PhaseCtx,
    src: usize,
    now: SimTime,
    bytes: u64,
    spans: &mut Option<&mut SpanRt>,
    parent: SpanId,
) {
    let msg_cost = ctx.costs.msg_cost(m, bytes);
    let send_done = m.node_cpu_work(src, now, msg_cost, "net-send");
    let arrival = m.fe_transfer(send_done, src, bytes);
    let send_span = span(
        spans,
        parent,
        Resource::WorkerCpu.span(),
        SpanKind::Cpu,
        src as u32,
        now,
        send_done,
        bytes,
    );
    let wire_span = span(
        spans,
        send_span,
        Resource::FrontEndLink.span(),
        SpanKind::Transfer,
        FRONT_END_NODE,
        send_done,
        arrival.max(now),
        bytes,
    );
    q.push(
        arrival.max(now),
        Ev::FeArrive {
            bytes,
            span: wire_span,
            query: ctx.qid,
        },
    );
}

/// Rounds a byte count up to whole sectors (disk requests must be
/// sector-aligned).
fn align_sectors(bytes: u64) -> u64 {
    bytes.div_ceil(512).max(1) * 512
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any well-formed random plan executes on every architecture with
        /// the core invariants intact: positive elapsed time, CPU busy
        /// bounded by capacity, and bit-for-bit determinism.
        #[test]
        fn prop_random_plans_hold_invariants(
            read_mb in 1u64..256,
            shuffle_pct in 0u32..=100,
            fe_pct in 0u32..=20,
            write_pct in 0u32..=100,
            cpu_ns in 0.0f64..40.0,
            nodes in 1usize..10,
            arch_ix in 0usize..3,
        ) {
            let mut phase = PhasePlan::new("random", read_mb << 20);
            phase.read_cpu = vec![CpuWork { tag: "work", ns_per_byte: cpu_ns }];
            phase.shuffle_factor = shuffle_pct as f64 / 100.0;
            phase.frontend_factor = fe_pct as f64 / 100.0;
            phase.local_write_factor = write_pct as f64 / 100.0;
            if phase.shuffle_factor > 0.0 {
                phase.recv_cpu = vec![CpuWork { tag: "recv", ns_per_byte: cpu_ns / 2.0 }];
                phase.write_received = write_pct.is_multiple_of(2);
            }
            let plan = TaskPlan { task: "random", phases: vec![phase] };
            let arch = match arch_ix {
                0 => Architecture::active_disks(nodes),
                1 => Architecture::cluster(nodes),
                _ => Architecture::smp(nodes),
            };
            let sim = Simulation::new(arch);
            let a = sim.run_plan(&plan);
            let b = sim.run_plan(&plan);
            prop_assert_eq!(&a, &b, "determinism");
            prop_assert!(a.elapsed().as_nanos() > 0);
            for p in &a.phases {
                let capacity = p.elapsed * p.nodes as u64;
                prop_assert!(p.cpu_busy_total <= capacity);
            }
        }

        /// Doubling the dataset at fixed hardware never speeds a plan up.
        #[test]
        fn prop_more_data_is_never_faster(read_mb in 1u64..128, nodes in 1usize..8) {
            let build = |mb: u64| {
                let mut phase = PhasePlan::new("scan", mb << 20);
                phase.read_cpu = vec![CpuWork { tag: "w", ns_per_byte: 5.0 }];
                TaskPlan { task: "scan", phases: vec![phase] }
            };
            let sim = Simulation::new(Architecture::active_disks(nodes));
            let small = sim.run_plan(&build(read_mb)).elapsed();
            let large = sim.run_plan(&build(read_mb * 2)).elapsed();
            prop_assert!(large >= small);
        }
    }

    #[test]
    fn align_rounds_up() {
        assert_eq!(align_sectors(1), 512);
        assert_eq!(align_sectors(512), 512);
        assert_eq!(align_sectors(513), 1024);
    }

    #[test]
    fn aggregate_runs_and_is_deterministic() {
        let sim = Simulation::new(Architecture::active_disks(4));
        let a = sim.run(TaskKind::Aggregate);
        let b = sim.run(TaskKind::Aggregate);
        assert_eq!(a.elapsed(), b.elapsed(), "simulation is deterministic");
        assert!(a.elapsed().as_secs_f64() > 1.0);
    }

    #[test]
    fn wheel_and_heap_backends_produce_identical_reports() {
        use simcore::QueueBackend;
        let cases = [
            (Architecture::active_disks(8), TaskKind::Sort),
            (Architecture::cluster(4), TaskKind::Join),
            (Architecture::smp(4), TaskKind::DataMine),
        ];
        for (arch, task) in cases {
            let wheel = Simulation::new(arch.clone())
                .with_queue_backend(QueueBackend::CalendarWheel)
                .run(task);
            let heap = Simulation::new(arch.clone())
                .with_queue_backend(QueueBackend::BinaryHeap)
                .run(task);
            assert_eq!(wheel, heap, "{task:?}: backends must agree field-for-field");
        }
    }

    #[test]
    fn select_scales_with_disks() {
        let t16 = Simulation::new(Architecture::active_disks(16))
            .run(TaskKind::Select)
            .elapsed();
        let t64 = Simulation::new(Architecture::active_disks(64))
            .run(TaskKind::Select)
            .elapsed();
        let speedup = t16.as_secs_f64() / t64.as_secs_f64();
        assert!(
            (2.5..4.5).contains(&speedup),
            "4× disks give near-linear speedup, got {speedup}"
        );
    }

    #[test]
    fn sort_has_two_phases_with_breakdown() {
        let r = Simulation::new(Architecture::active_disks(16)).run(TaskKind::Sort);
        assert_eq!(r.phases.len(), 2);
        let p1 = &r.phases[0];
        assert!(p1.cpu_busy_by_tag.contains_key("partitioner"));
        assert!(p1.cpu_busy_by_tag.contains_key("sort"));
        let p2 = &r.phases[1];
        assert!(p2.cpu_busy_by_tag.contains_key("merge"));
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let sim = Simulation::new(Architecture::active_disks(8));
        let plain = sim.run(TaskKind::GroupBy);
        let (traced, trace) = sim.run_traced(TaskKind::GroupBy);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        assert!(trace.total() > 0);
        // Every read produced a processed event.
        assert_eq!(
            trace.count(crate::trace::TraceKind::ReadDone),
            trace.count(crate::trace::TraceKind::BatchProcessed)
        );
        // Events fire in nondecreasing time order per the event loop.
        let evs = trace.events();
        assert!(evs.windows(2).all(|w| w[0].phase < w[1].phase
            || w[0].time <= w[1].time
            || w[1].kind == crate::trace::TraceKind::WriteDone));
    }

    #[test]
    fn trace_counts_shuffle_arrivals() {
        let sim = Simulation::new(Architecture::active_disks(8));
        let (_, trace) = sim.run_traced(TaskKind::Sort);
        // Sort repartitions everything: arrivals ~= 16 GB / 256 KB.
        let arrivals = trace.count(crate::trace::TraceKind::PeerArrive);
        let expected = 16_000_000_000 / super::BATCH_BYTES;
        let err = (arrivals as f64 - expected as f64).abs() / expected as f64;
        assert!(err < 0.05, "arrivals {arrivals} vs expected ~{expected}");
        assert!(trace.count(crate::trace::TraceKind::WriteDone) > 0);
    }

    #[test]
    fn degraded_disk_creates_a_straggler() {
        let healthy = Simulation::new(Architecture::active_disks(8)).run(TaskKind::Select);
        let degraded = Simulation::new(Architecture::active_disks(8))
            .with_degraded_disk(0, 1_000)
            .run(TaskKind::Select);
        // The whole phase waits for the sick drive.
        assert!(
            degraded.elapsed().as_secs_f64() > healthy.elapsed().as_secs_f64() * 1.03,
            "healthy {}, degraded {}",
            healthy.elapsed(),
            degraded.elapsed()
        );
        // The tail shows in the service-time distribution.
        assert!(degraded.disk_service.max() >= healthy.disk_service.max());
    }

    #[test]
    fn skewed_shuffle_slows_the_task() {
        use tasks::planner::apply_shuffle_skew;
        let arch = Architecture::active_disks(8);
        let uniform = Simulation::new(arch.clone()).run(TaskKind::Sort);
        let mut skewed_plan = tasks::plan_task(TaskKind::Sort, &arch);
        // One node receives half of everything.
        let mut w = vec![0.5 / 7.0; 8];
        w[0] = 0.5;
        apply_shuffle_skew(&mut skewed_plan, w);
        let skewed = Simulation::new(arch).run_plan(&skewed_plan);
        assert!(
            skewed.elapsed().as_secs_f64() > uniform.elapsed().as_secs_f64() * 1.3,
            "hot receiver must slow the sort: uniform {}, skewed {}",
            uniform.elapsed(),
            skewed.elapsed()
        );
    }

    #[test]
    fn smp_moves_everything_over_the_loop() {
        let r = Simulation::new(Architecture::smp(16)).run(TaskKind::Select);
        // Reads cross the I/O interconnect on an SMP.
        assert!(
            r.phases[0].interconnect_bytes >= TaskKind::Select.dataset().total_bytes,
            "got {}",
            r.phases[0].interconnect_bytes
        );
        // Active Disks filter at the disk: only results move.
        let a = Simulation::new(Architecture::active_disks(16)).run(TaskKind::Select);
        assert!(a.frontend_bytes() < r.phases[0].interconnect_bytes / 10);
    }
}
