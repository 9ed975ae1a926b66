//! The three workloads. Each has inputs built at set-up, a pass whose
//! calls into the simulator are timed, and checks on the pass's outputs
//! that run with the clock paused.
//!
//! - `figures`: the `--quick` fig1–fig5 suite through `experiments`,
//!   serial, cold in-memory result cache, no disk tier.
//! - `whatif`: the `--quick` availability study and scan-mix load ladder
//!   at 16 disks, driven here through the fork API with seeded inputs.
//! - `observe`: `howsim profile --trace-events --trace-out --metrics-out`
//!   for the 64-disk join on each architecture.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use arch::Architecture;
use experiments::{availability, fig1, fig2, fig3, fig4, fig5, loadsweep};
use howsim::manifest::{fnv1a64, HostInfo, RunManifest};
use howsim::{
    AdmissionPolicy, DeadlinePolicy, FaultPlan, LoadReport, MetricsBuilder, QueryStatus,
    RecoveryPolicy, Report, Simulation, Trace, WarmStart, WorkloadSpec,
};
use simcore::{Duration, SimTime};
use tasks::{plan_task, TaskKind, TaskPlan};

use crate::sampler;
use crate::spans::{self, span};

/// The seed at which `whatif`'s outputs equal the experiments crate's
/// (`availability::SEED`, `loadsweep::SEED`) and are checked by digest.
pub const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    Whatif,
    Observe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Figures, Workload::Whatif, Workload::Observe];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Whatif => "whatif",
            Workload::Observe => "observe",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operations attempted and failed. An operation is one simulation
/// point, query or export; a panic or a wrong output fails it.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn ops(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            self.problems.push(what());
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Per-layer counts a pass observes in its outputs.
#[derive(Debug, Default, Clone)]
pub struct Facts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub mq_events: u64,
    pub mq_offered: u64,
    pub mq_completed: u64,
    pub mq_shed: u64,
    pub mq_timed_out: u64,
    pub mq_retries: u64,
    pub prefix_runs: u64,
    pub forked_runs: u64,
    pub faults_injected: u64,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
    pub trace_dropped: u64,
    pub metrics_samples: u64,
    pub chrome_bytes: u64,
    pub jsonl_bytes: u64,
    pub manifest_bytes: u64,
}

/// The timed part of a pass: host seconds, less the time the host-speed
/// sampler's handler took in them, and what the sampler saw meanwhile.
#[derive(Clone, Copy)]
pub struct Timing {
    pub seconds: f64,
    pub window: sampler::Window,
}

/// Accumulates the timed part of a pass.
struct Clock {
    total: std::time::Duration,
    since: Option<(Instant, sampler::Mark)>,
    window: sampler::Window,
}

impl Clock {
    fn start() -> Self {
        Clock {
            total: std::time::Duration::ZERO,
            since: Some((Instant::now(), sampler::mark())),
            window: sampler::Window::default(),
        }
    }

    fn pause(&mut self) {
        if let Some((t, mark)) = self.since.take() {
            self.total += t.elapsed();
            self.window.add_since(mark);
        }
    }

    fn resume(&mut self) {
        self.since = Some((Instant::now(), sampler::mark()));
    }

    fn finish(mut self) -> Timing {
        self.pause();
        Timing {
            seconds: self.total.as_secs_f64() - self.window.handler_s,
            window: self.window,
        }
    }
}

fn digest_ok(tag: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{tag}: digest {got:016x}, pinned {want:016x}"))
    }
}

/// A workload's inputs, built at set-up: the architectures, plans,
/// simulations and task mix a pass uses.
pub enum Inputs {
    Figures(FiguresIn),
    Whatif(WhatifIn),
    Observe(Vec<ObservePoint>),
}

/// Reference results the checks compare a pass's outputs against. They
/// come from plain runs of the simulator, made once per process and
/// outside every timed region.
#[derive(Default)]
pub struct Oracle {
    /// `figures`: elapsed seconds of each direct Figure 1 point.
    direct: Vec<f64>,
    /// `observe`: each architecture's report with every recorder off.
    plain: Vec<Report>,
}

impl Oracle {
    pub fn new(inputs: &Inputs) -> Self {
        match inputs {
            Inputs::Figures(f) => Oracle {
                direct: f
                    .direct
                    .iter()
                    .map(|(_, p)| Simulation::new(p.arch.clone()).run_plan(&p.plan))
                    .map(|r| r.elapsed().as_secs_f64())
                    .collect(),
                ..Oracle::default()
            },
            Inputs::Whatif(_) => Oracle::default(),
            Inputs::Observe(points) => Oracle {
                plain: points.iter().map(|p| p.sim.run_plan(&p.plan)).collect(),
                ..Oracle::default()
            },
        }
    }
}

impl Inputs {
    /// Builds every architecture, plan, simulation and task mix a pass
    /// uses; `seed` drives `whatif`'s seeded inputs.
    pub fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::Figures => Inputs::Figures(FiguresIn::new()),
            Workload::Whatif => Inputs::Whatif(WhatifIn::new(seed)),
            Workload::Observe => Inputs::Observe(
                architectures(64)
                    .into_iter()
                    .map(|(_, arch)| ObservePoint {
                        plan: plan_task(TaskKind::Join, &arch),
                        sim: Simulation::new(arch.clone()),
                        arch,
                    })
                    .collect(),
            ),
        }
    }

    /// Operations in one pass (all count as failed when a pass panics).
    fn operations(&self) -> u64 {
        match self {
            Inputs::Figures(_) => FIGURES.iter().map(|f| f.1).sum(),
            Inputs::Whatif(w) => w.operations(),
            Inputs::Observe(points) => 5 * points.len() as u64,
        }
    }

    /// Runs one pass: returns its timing, or `None` if it panicked
    /// (every operation of the pass then counts as failed).
    pub fn pass(&self, oracle: &Oracle, tally: &mut Tally, facts: &mut Facts) -> Option<Timing> {
        let mut local = Tally::default();
        // The root span's self time is the benchmark's own work in a pass.
        let outcome = catch_unwind(AssertUnwindSafe(|| match self {
            Inputs::Figures(f) => span("bench.figures", || f.pass(oracle, &mut local, facts)),
            Inputs::Whatif(w) => span("bench.whatif", || w.pass(&mut local, facts)),
            Inputs::Observe(points) => span("bench.observe", || {
                observe_pass(points, oracle, &mut local, facts)
            }),
        }));
        match outcome {
            Ok(timing) => {
                tally.merge(local);
                Some(timing)
            }
            Err(_) => {
                spans::close_open();
                let n = self.operations();
                tally.ops(n, false, || "pass panicked".to_string());
                None
            }
        }
    }
}

/// The three architectures at `disks`, in the order every table uses.
pub fn architectures(disks: usize) -> [(&'static str, Architecture); 3] {
    [
        ("Active", Architecture::active_disks(disks)),
        ("Cluster", Architecture::cluster(disks)),
        ("SMP", Architecture::smp(disks)),
    ]
}

// ---------------------------------------------------------------- figures

/// The `--quick` sizes of the experiments binary.
const QUICK: [usize; 2] = [16, 64];

/// Per figure: name, sweep points, and the pinned FNV-1a digest of its
/// rendered table followed by the `Debug` form of its cells.
const FIGURES: [(&str, u64, u64); 5] = [
    ("fig1", 48, 0x320a_b597_3bcd_5661),
    ("fig2", 32, 0x5c41_2994_d0fc_5402),
    ("fig3", 6, 0xf08e_96b8_8c13_a969),
    ("fig4", 16, 0xbd8b_a2c9_da5a_f9f7),
    ("fig5", 8, 0xe315_35cb_77f1_562b),
];

/// One point of Figure 1's grid (sizes × tasks × architectures, in the
/// order `fig1::run_sizes` returns its cells).
pub struct GridPoint {
    /// Index into `active`, `cluster`, `smp`.
    pub arch_ix: usize,
    pub arch: Architecture,
    pub plan: TaskPlan,
}

/// The figures grid: the quick sizes × the eight tasks × the three
/// architectures.
pub fn figures_grid() -> Vec<GridPoint> {
    QUICK
        .iter()
        .flat_map(|&disks| {
            TaskKind::ALL.into_iter().flat_map(move |task| {
                architectures(disks)
                    .into_iter()
                    .enumerate()
                    .map(move |(arch_ix, (_, arch))| GridPoint {
                        arch_ix,
                        plan: plan_task(task, &arch),
                        arch,
                    })
            })
        })
        .collect()
}

/// The 16-disk Active Disk points of the figures grid, with their index
/// in Figure 1's cells: those cells must equal a direct
/// `Simulation::run_plan` of the point, whatever the sweep engine and
/// result cache did. The figure functions build their own plans inside
/// the timed pass, so these are all of `figures`' set-up.
pub struct FiguresIn {
    direct: Vec<(usize, GridPoint)>,
}

impl FiguresIn {
    fn new() -> Self {
        let direct = figures_grid()
            .into_iter()
            .enumerate()
            .filter(|(_, p)| p.arch_ix == 0 && p.arch.disks() == QUICK[0])
            .collect();
        FiguresIn { direct }
    }

    fn pass(&self, oracle: &Oracle, tally: &mut Tally, facts: &mut Facts) -> Timing {
        howsim::cache::clear();
        howsim::cache::reset_stats();
        let mut clock = Clock::start();
        let f1 = span("fig1.run_sizes", || fig1::run_sizes(&QUICK));
        let t1 = span("fig1.render", || fig1::render(&f1));
        let f2 = span("fig2.run_sizes", || fig2::run_sizes(&QUICK[1..]));
        let t2 = span("fig2.render", || fig2::render(&f2));
        let f3 = span("fig3.run_sizes", || fig3::run_sizes(&QUICK));
        let t3 = span("fig3.render", || fig3::render(&f3));
        let f4 = span("fig4.run_memory", || fig4::run_memory(&QUICK, 64));
        let t4 = span("fig4.render", || fig4::render(&f4));
        let f5 = span("fig5.run_sizes", || fig5::run_sizes(&QUICK[1..]));
        let t5 = span("fig5.render", || fig5::render(&f5));
        clock.pause();

        let stats = howsim::cache::stats();
        facts.cache_hits = stats.hits;
        facts.cache_misses = stats.misses;
        let direct = self.direct.len() == oracle.direct.len()
            && self
                .direct
                .iter()
                .zip(&oracle.direct)
                .all(|((ix, _), &secs)| f1.get(*ix).is_some_and(|c| c.seconds == secs));
        let outputs = [
            (f1.len(), format!("{t1}{f1:?}")),
            (f2.len(), format!("{t2}{f2:?}")),
            (f3.len(), format!("{t3}{f3:?}")),
            (f4.len(), format!("{t4}{f4:?}")),
            (f5.len(), format!("{t5}{f5:?}")),
        ];
        for ((name, points, pinned), (len, text)) in FIGURES.iter().zip(&outputs) {
            let check = span("check.digest", || {
                if *name == "fig1" && !direct {
                    return Err("fig1: cells differ from direct runs".to_string());
                }
                if *len as u64 != *points {
                    return Err(format!("{name}: {len} points, expected {points}"));
                }
                digest_ok(name, fnv1a64(text.as_bytes()), *pinned)
            });
            tally.ops(*points, check.is_ok(), || check.unwrap_err());
        }
        clock.finish()
    }
}

// ----------------------------------------------------------------- whatif

const WHATIF_DISKS: usize = 16;
const AVAIL_TASKS: [TaskKind; 2] = [TaskKind::Select, TaskKind::Sort];
const FAULT_NODE: usize = 1;
const LOAD_QUERIES: u32 = 8;
const LOAD_RATES: [f64; 2] = [0.5, 2.0];
const WARMUP_CLIENTS: u32 = 2;
const CLOSED_CLIENTS: u32 = 4;
const ADMISSION: AdmissionPolicy = AdmissionPolicy {
    max_concurrent: 2,
    queue_limit: 8,
};
/// Completed share of arrivals at which an offered rate is sustained.
const SUSTAINED_FRACTION: f64 = 0.9;

/// Pinned digests at [`DEFAULT_SEED`]: the rendered availability table
/// plus its rows, and the rendered load table plus rows and summaries.
const AVAIL_DIGEST: u64 = 0x6602_7303_2983_83a2;
const LOAD_DIGEST: u64 = 0x62bf_b642_84ef_151e;

#[derive(Clone, Copy)]
enum FaultShape {
    MediaBurst,
    DiskFail,
    LinkFault,
}

/// One availability fault scenario (the experiments crate's table,
/// ordered by fault fraction so one prefix run serves them all).
struct Scenario {
    label: &'static str,
    shape: FaultShape,
    frac: f64,
    policy: RecoveryPolicy,
    rerun: bool,
}

const fn scenario(
    label: &'static str,
    shape: FaultShape,
    frac: f64,
    policy: RecoveryPolicy,
) -> Scenario {
    Scenario {
        label,
        shape,
        frac,
        policy,
        rerun: matches!(policy, RecoveryPolicy::FailStop),
    }
}

const SCENARIOS: [Scenario; 12] = {
    use FaultShape::*;
    use RecoveryPolicy::*;
    [
        scenario("media-burst@25%", MediaBurst, 0.25, Redistribute),
        scenario("disk-fail@50%", DiskFail, 0.50, Redistribute),
        scenario("disk-fail@50%/reconstruct", DiskFail, 0.50, ReconstructRead),
        scenario("disk-fail@50%/abort+rerun", DiskFail, 0.50, FailStop),
        scenario("media-burst@50%", MediaBurst, 0.50, Redistribute),
        scenario("link-fault@50%", LinkFault, 0.50, Redistribute),
        scenario("disk-fail@75%", DiskFail, 0.75, Redistribute),
        scenario("disk-fail@75%/reconstruct", DiskFail, 0.75, ReconstructRead),
        scenario("disk-fail@75%/abort+rerun", DiskFail, 0.75, FailStop),
        scenario("media-burst@75%", MediaBurst, 0.75, Redistribute),
        scenario("link-fault@75%", LinkFault, 0.75, Redistribute),
        scenario("disk-fail@90%", DiskFail, 0.90, Redistribute),
    ]
};

impl Scenario {
    fn at(&self, healthy_secs: f64) -> Duration {
        Duration::from_secs_f64(healthy_secs * self.frac)
    }

    fn plan(&self, healthy_secs: f64) -> FaultPlan {
        let at = self.at(healthy_secs);
        match self.shape {
            FaultShape::MediaBurst => FaultPlan::new().media_burst(FAULT_NODE, at, 2_000),
            FaultShape::DiskFail => FaultPlan::new().disk_fail_stop(FAULT_NODE, at),
            FaultShape::LinkFault => FaultPlan::new().link_fault(FAULT_NODE, at, 0.5),
        }
    }
}

pub struct AvailPoint {
    arch_name: &'static str,
    task: TaskKind,
    plan: TaskPlan,
    sim: Simulation,
}

/// One offered-load point of a ladder (measured after the warmup).
struct LoadPoint {
    label: String,
    offered_qps: f64,
    spec: WorkloadSpec,
}

pub struct LoadGroup {
    arch_name: &'static str,
    mix_name: &'static str,
    sim: Simulation,
    mix: Vec<(TaskKind, u32)>,
    /// One plan per distinct task of the mix, for its solo run.
    solo_plans: Vec<(TaskKind, TaskPlan)>,
}

/// What a pass derives from a load group's solo runs: the specs and
/// deadline policy, all scaled to the mix's mean solo latency.
struct Ladder {
    warmup: WorkloadSpec,
    deadline: DeadlinePolicy,
    points: Vec<LoadPoint>,
}

impl LoadGroup {
    /// Runs each mix task solo and builds the ladder from the results,
    /// as the experiments crate's load sweep does.
    fn ladder(&self, seed: u64) -> Ladder {
        let solo: Vec<(TaskKind, f64)> = self
            .solo_plans
            .iter()
            .map(|(task, plan)| {
                let report = span("exec.run_plan", || self.sim.run_plan(plan));
                (*task, report.elapsed().as_secs_f64())
            })
            .collect();
        let solo_secs = |task: TaskKind| {
            solo.iter()
                .find(|(t, _)| *t == task)
                .map(|(_, s)| *s)
                .expect("every mix task has a solo run")
        };
        let mix = &self.mix;
        let weight: u32 = mix.iter().map(|&(_, w)| w).sum();
        let mean_secs = mix
            .iter()
            .map(|&(t, w)| solo_secs(t) * f64::from(w))
            .sum::<f64>()
            / f64::from(weight);
        let capacity_qps = 1.0 / mean_secs;
        let mut points: Vec<LoadPoint> = LOAD_RATES
            .iter()
            .map(|&x| LoadPoint {
                label: format!("{x:.1}x"),
                offered_qps: capacity_qps * x,
                spec: WorkloadSpec::poisson(capacity_qps * x, LOAD_QUERIES)
                    .with_mix(mix.clone())
                    .with_seed(seed),
            })
            .collect();
        points.push(LoadPoint {
            label: format!("closed:{CLOSED_CLIENTS}"),
            offered_qps: 0.0,
            spec: WorkloadSpec::closed(CLOSED_CLIENTS, LOAD_QUERIES)
                .with_mix(mix.clone())
                .with_seed(seed),
        });
        Ladder {
            warmup: WorkloadSpec::closed(WARMUP_CLIENTS, loadsweep::WARMUP_QUERIES)
                .with_mix(mix.clone())
                .with_seed(seed),
            deadline: DeadlinePolicy {
                deadline: Some(Duration::from_secs_f64(mean_secs * 4.0)),
                max_retries: 1,
                backoff: Duration::from_secs_f64(mean_secs * 0.25),
            },
            points,
        }
    }
}

pub struct WhatifIn {
    seed: u64,
    avail: Vec<AvailPoint>,
    groups: Vec<LoadGroup>,
}

impl WhatifIn {
    /// Builds the seeded simulations, the plans, and the scan mix. The
    /// fault plans and workload specs derive from healthy and solo runs
    /// (fault times are fractions of the healthy elapsed time; offered
    /// rates, deadlines and backoffs are multiples of the mix's mean solo
    /// latency), so a pass makes them, as the experiments crate does.
    fn new(seed: u64) -> Self {
        let archs = architectures(WHATIF_DISKS);
        let avail = AVAIL_TASKS
            .iter()
            .flat_map(|&task| archs.iter().map(move |(name, arch)| (task, *name, arch)))
            .map(|(task, arch_name, arch)| AvailPoint {
                arch_name,
                task,
                plan: plan_task(task, arch),
                sim: Simulation::new(arch.clone()).with_seed(seed),
            })
            .collect();
        let (mix_name, mix_spec) = loadsweep::MIXES[0];
        let mix = WorkloadSpec::parse_mix(mix_spec).expect("the scan mix parses");
        let groups = archs
            .iter()
            .map(|(arch_name, arch)| {
                let mut solo_plans: Vec<(TaskKind, TaskPlan)> = Vec::new();
                for &(task, _) in &mix {
                    if !solo_plans.iter().any(|(t, _)| *t == task) {
                        solo_plans.push((task, plan_task(task, arch)));
                    }
                }
                LoadGroup {
                    arch_name,
                    mix_name,
                    sim: Simulation::new(arch.clone()).with_seed(seed),
                    mix: mix.clone(),
                    solo_plans,
                }
            })
            .collect();
        WhatifIn {
            seed,
            avail,
            groups,
        }
    }

    fn offered_per_point() -> u64 {
        u64::from(loadsweep::WARMUP_QUERIES + LOAD_QUERIES)
    }

    fn operations(&self) -> u64 {
        let rows = self.avail.len() as u64 * (1 + SCENARIOS.len() as u64);
        let points = self.groups.len() as u64 * (LOAD_RATES.len() as u64 + 1);
        // Plus the two sampled fork-versus-scratch comparisons.
        rows + points * Self::offered_per_point() + 2
    }

    fn pass(&self, tally: &mut Tally, facts: &mut Facts) -> Timing {
        let mut clock = Clock::start();

        // Availability: a healthy run per point sets the fault times; one
        // healthy prefix per point is then forked at each fault time with
        // the scenario's fault plan swapped in.
        // Per point, one fault plan per entry of [`SCENARIOS`].
        let mut faults = Vec::with_capacity(self.avail.len());
        let mut rows = Vec::with_capacity(self.avail.len() * (1 + SCENARIOS.len()));
        let mut forked = Vec::with_capacity(self.avail.len() * SCENARIOS.len());
        for p in &self.avail {
            let healthy = span("exec.run_plan", || p.sim.run_plan(&p.plan));
            let h = healthy.elapsed().as_secs_f64();
            let plans: Vec<FaultPlan> = SCENARIOS.iter().map(|s| s.plan(h)).collect();
            rows.push(availability::Row {
                task: p.task.name(),
                arch: p.arch_name,
                scenario: "healthy",
                seconds: h,
                slowdown: 1.0,
                faults: 0,
            });
            let mut prefix = span("exec.start", || p.sim.start(&p.plan));
            facts.prefix_runs += 1;
            for (s, plan) in SCENARIOS.iter().zip(&plans) {
                let at = SimTime::ZERO + s.at(h);
                span("exec.run_until", || prefix.run_until(at));
                let fork = span("fork.fork_with_faults", || {
                    prefix.fork_with_faults(plan.clone(), s.policy)
                });
                let report = span("exec.finish", || fork.finish());
                facts.forked_runs += 1;
                facts.faults_injected += report.faults_injected;
                let secs = report.elapsed().as_secs_f64() + if s.rerun { h } else { 0.0 };
                rows.push(availability::Row {
                    task: p.task.name(),
                    arch: p.arch_name,
                    scenario: s.label,
                    seconds: secs,
                    slowdown: secs / h,
                    faults: report.faults_injected,
                });
                forked.push(report);
            }
            faults.push(plans);
        }
        let avail_text = span("experiments.render", || availability::render(&rows));

        // Load ladder: solo runs per architecture set the offered rates;
        // one warmed prefix per architecture is then forked and extended
        // with each offered-load point.
        let mut load_rows = Vec::new();
        let mut summaries = Vec::new();
        let mut ladders = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            let ladder = g.ladder(self.seed);
            let mut prefix = span("mqexec.start_workload", || {
                g.sim
                    .start_workload(&ladder.warmup, ADMISSION, ladder.deadline)
            });
            span("mqexec.run_to_idle", || prefix.run_to_idle());
            facts.prefix_runs += 1;
            let mut reports = Vec::with_capacity(ladder.points.len());
            let mut best = (0.0, 0.0);
            let rates = LOAD_RATES.iter().map(Some).chain([None]);
            for (p, x) in ladder.points.iter().zip(rates) {
                let mut cont = span("fork.warm_fork", || prefix.fork());
                span("mqexec.extend", || cont.extend(&p.spec));
                let report = span("mqexec.finish", || cont.finish());
                facts.forked_runs += 1;
                let row = measured_row(g, p, &report);
                let total = row.completed + row.shed + row.timed_out + row.aborted;
                let done = row.completed as f64 / total.max(1) as f64;
                if let Some(&x) = x {
                    if done >= SUSTAINED_FRACTION && p.offered_qps > best.0 {
                        best = (p.offered_qps, x);
                    }
                }
                load_rows.push(row);
                reports.push(report);
            }
            summaries.push(loadsweep::Summary {
                arch: g.arch_name,
                mix: g.mix_name,
                max_sustainable_qps: best.0,
                max_sustainable_x: best.1,
            });
            ladders.push((ladder, prefix, reports));
        }
        let load_text = span("experiments.render", || {
            loadsweep::render(&load_rows, &summaries)
        });
        clock.pause();

        self.check_availability(&faults, &forked, &rows, &avail_text, tally);
        self.check_ladders(&ladders, &load_rows, &summaries, &load_text, tally, facts);
        clock.finish()
    }

    fn check_availability(
        &self,
        faults: &[Vec<FaultPlan>],
        forked: &[Report],
        rows: &[availability::Row],
        text: &str,
        tally: &mut Tally,
    ) {
        let digest = if self.seed == DEFAULT_SEED {
            span("check.digest", || {
                digest_ok(
                    "availability",
                    fnv1a64(format!("{text}{rows:?}").as_bytes()),
                    AVAIL_DIGEST,
                )
            })
        } else {
            Ok(())
        };
        for (ix, p) in self.avail.iter().enumerate() {
            tally.ops(1, digest.is_ok(), || digest.clone().unwrap_err());
            for (six, s) in SCENARIOS.iter().enumerate() {
                let r = &forked[ix * SCENARIOS.len() + six];
                let what = || {
                    let (arch, task) = (p.arch_name, p.task.name());
                    format!(
                        "availability {arch}/{task}/{}: aborted = {}",
                        s.label, r.aborted
                    )
                };
                if r.aborted == s.rerun {
                    tally.ops(1, digest.is_ok(), || digest.clone().unwrap_err());
                } else {
                    tally.ops(1, false, what);
                }
            }
        }

        // One seed-chosen forked scenario must equal its from-scratch run.
        let k = (self.seed % forked.len() as u64) as usize;
        let (ix, six) = (k / SCENARIOS.len(), k % SCENARIOS.len());
        let p = &self.avail[ix];
        let scratch = span("check.scratch", || {
            p.sim
                .clone()
                .with_fault_plan(faults[ix][six].clone())
                .with_recovery(SCENARIOS[six].policy)
                .run_plan(&p.plan)
        });
        tally.ops(1, scratch == forked[k], || {
            let (arch, task) = (p.arch_name, p.task.name());
            format!(
                "availability {arch}/{task}/{}: forked report differs from scratch",
                SCENARIOS[six].label
            )
        });
    }

    fn check_ladders(
        &self,
        ladders: &[(Ladder, WarmStart, Vec<LoadReport>)],
        rows: &[loadsweep::Row],
        summaries: &[loadsweep::Summary],
        text: &str,
        tally: &mut Tally,
        facts: &mut Facts,
    ) {
        let digest = if self.seed == DEFAULT_SEED {
            span("check.digest", || {
                digest_ok(
                    "load ladder",
                    fnv1a64(format!("{text}{rows:?}{summaries:?}").as_bytes()),
                    LOAD_DIGEST,
                )
            })
        } else {
            Ok(())
        };
        let offered = Self::offered_per_point();
        for (g, (ladder, prefix, reports)) in self.groups.iter().zip(ladders) {
            // Events the shared warmup processed, to count each event once.
            let warm_events = span("check.warm_events", || prefix.fork().finish().events);
            facts.mq_events += warm_events;
            for (p, r) in ladder.points.iter().zip(reports) {
                facts.mq_events += r.events.saturating_sub(warm_events);
                // Every offered query ends in exactly one outcome.
                let mut seen = vec![0u32; offered as usize];
                for o in &r.outcomes {
                    if let Some(n) = seen.get_mut(o.query as usize) {
                        *n += 1;
                    }
                }
                let exact = seen.iter().filter(|&&n| n == 1).count() as u64;
                if exact == offered && r.outcomes.len() as u64 == offered {
                    tally.ops(offered, digest.is_ok(), || digest.clone().unwrap_err());
                } else {
                    tally.ops(offered, false, || {
                        format!(
                            "load {}/{}: {exact} of {offered} queries ended in exactly one status",
                            g.arch_name, p.label
                        )
                    });
                }
            }
        }
        for row in rows {
            facts.mq_offered += u64::from(LOAD_QUERIES);
            facts.mq_completed += row.completed as u64;
            facts.mq_shed += row.shed as u64;
            facts.mq_timed_out += row.timed_out as u64;
            facts.mq_retries += row.retries;
        }

        // One seed-chosen ladder point must equal its from-scratch run.
        let per = LOAD_RATES.len() + 1;
        let j = (self.seed % (self.groups.len() * per) as u64) as usize;
        let (g, (ladder, _, reports)) = (&self.groups[j / per], &ladders[j / per]);
        let point = &ladder.points[j % per];
        let scratch = span("check.scratch", || {
            let mut run = g
                .sim
                .start_workload(&ladder.warmup, ADMISSION, ladder.deadline);
            run.run_to_idle();
            run.extend(&point.spec);
            run.finish()
        });
        tally.ops(1, scratch == reports[j % per], || {
            format!(
                "load {}/{}: forked report differs from scratch",
                g.arch_name, point.label
            )
        });
    }
}

/// One load-ladder row from the measured (post-warmup) slice of a
/// report, as the experiments crate builds it.
fn measured_row(g: &LoadGroup, p: &LoadPoint, report: &LoadReport) -> loadsweep::Row {
    let measured = &report.outcomes[loadsweep::WARMUP_QUERIES as usize..];
    let count = |s: QueryStatus| measured.iter().filter(|o| o.status == s).count();
    let mut lats: Vec<Duration> = measured
        .iter()
        .filter(|o| o.status == QueryStatus::Completed)
        .map(|o| o.latency())
        .collect();
    lats.sort();
    let pct = |p: f64| -> Option<f64> {
        if lats.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * lats.len() as f64).ceil() as usize;
        Some(lats[rank.clamp(1, lats.len()) - 1].as_secs_f64())
    };
    let completed = count(QueryStatus::Completed);
    let start = measured.iter().map(|o| o.arrival).min();
    let end = measured.iter().map(|o| o.finished).max();
    let goodput_qps = match (start, end) {
        (Some(s), Some(e)) if e > s && completed > 0 => completed as f64 / e.since(s).as_secs_f64(),
        _ => 0.0,
    };
    loadsweep::Row {
        arch: g.arch_name,
        mix: g.mix_name,
        load: p.label.clone(),
        offered_qps: p.offered_qps,
        completed,
        shed: count(QueryStatus::Shed),
        timed_out: count(QueryStatus::TimedOut),
        aborted: count(QueryStatus::Aborted),
        retries: measured.iter().map(|o| u64::from(o.retries)).sum(),
        p50_s: pct(50.0),
        p95_s: pct(95.0),
        p99_s: pct(99.0),
        goodput_qps,
    }
}

// ---------------------------------------------------------------- observe

pub struct ObservePoint {
    arch: Architecture,
    plan: TaskPlan,
    sim: Simulation,
}

/// Pinned digests per architecture (Active, Cluster, SMP): the run
/// manifest without `.host` and `git_rev` (both depend on where it
/// runs), and the Chrome trace bytes.
const OBSERVE_DIGESTS: [(u64, u64); 3] = [
    (0xddf4_f7e6_9547_46c1, 0x7b6d_30b0_fd24_1e20),
    (0xd7ae_e496_05b8_59f8, 0x23c8_a172_1aed_4da4),
    (0x28df_f662_6ef9_deef, 0x55f2_39d2_2678_cda1),
];

fn observe_pass(
    points: &[ObservePoint],
    oracle: &Oracle,
    tally: &mut Tally,
    facts: &mut Facts,
) -> Timing {
    let mut clock = Clock::start();
    let pins = OBSERVE_DIGESTS.iter().zip(&oracle.plain);
    for (p, (&(manifest_pin, chrome_pin), plain)) in points.iter().zip(pins) {
        let mut trace = Trace::new();
        let mut metrics = MetricsBuilder::new();
        let started = Instant::now();
        let (report, span_trace) = span("exec.run_plan_observed", || {
            p.sim
                .run_plan_observed(&p.plan, Some(&mut trace), Some(&mut metrics), true)
        });
        let wall = started.elapsed();
        let span_trace = span_trace.expect("a profiled run returns its spans");
        let cp = span("profile.critical_path", || span_trace.critical_path());
        let chrome = span("profile.chrome_trace_json", || {
            span_trace.chrome_trace_json()
        });
        let jsonl = span("trace.to_jsonl", || trace.to_jsonl());
        let run_metrics = span("metrics.finish", || metrics.finish(report.events));
        let samples = run_metrics.queue_depth.samples().len() as u64;
        let manifest = span("manifest.new", || {
            RunManifest::new(&p.arch, &report)
                .with_seed(0)
                .with_faults(&FaultPlan::new(), RecoveryPolicy::default())
                .with_host(HostInfo::capture(report.events, wall))
                .with_metrics(run_metrics)
                .with_trace(trace.summary())
                .with_critical_path(cp.clone())
        });
        let json = span("manifest.to_json", || manifest.to_json());
        clock.pause();

        facts.spans_recorded += span_trace.arena.len() as u64;
        facts.spans_dropped += span_trace.arena.dropped();
        facts.trace_dropped += trace.dropped();
        facts.metrics_samples += samples;
        facts.chrome_bytes += chrome.len() as u64;
        facts.jsonl_bytes += jsonl.len() as u64;
        facts.manifest_bytes += json.len() as u64;

        let name = report.architecture;
        tally.ops(1, report == *plain, || {
            format!("observe {name}: recorders changed the report")
        });
        let segments: Duration = cp.segments.iter().map(|s| s.time).sum();
        tally.ops(
            1,
            cp.total == report.elapsed() && segments == cp.total,
            || format!("observe {name}: critical path differs from elapsed"),
        );
        let chrome_ok = span("check.digest", || {
            digest_ok(
                &format!("{name} chrome trace"),
                fnv1a64(chrome.as_bytes()),
                chrome_pin,
            )
        });
        tally.ops(1, chrome_ok.is_ok(), || chrome_ok.unwrap_err());
        let mut pinned = manifest;
        pinned.host = None;
        pinned.git_rev = String::new();
        let manifest_ok = span("check.digest", || {
            digest_ok(
                &format!("{name} manifest"),
                fnv1a64(pinned.to_json().as_bytes()),
                manifest_pin,
            )
        });
        tally.ops(1, manifest_ok.is_ok(), || manifest_ok.unwrap_err());
        let jsonl_ok = span("check.jsonl", || {
            let lines = jsonl.bytes().filter(|&b| b == b'\n').count();
            jsonl.starts_with("{\"type\":\"summary\"") && lines == trace.events().len() + 1
        });
        tally.ops(1, jsonl_ok, || {
            format!("observe {name}: malformed JSONL trace")
        });
        drop((chrome, jsonl, json, span_trace, trace));
        clock.resume();
    }
    clock.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fork-driven study above reproduces the experiments crate's
    /// `--quick` availability and load-sweep output at the default seed:
    /// both are held to the same pinned digests.
    #[test]
    fn whatif_digests_match_the_experiments_crate() {
        let rows = availability::run_configs(WHATIF_DISKS, &AVAIL_TASKS);
        let text = availability::render(&rows);
        assert_eq!(fnv1a64(format!("{text}{rows:?}").as_bytes()), AVAIL_DIGEST);
        let (rows, summaries) = loadsweep::run_configs(
            WHATIF_DISKS,
            LOAD_QUERIES,
            &loadsweep::MIXES[..1],
            &LOAD_RATES,
        );
        let text = loadsweep::render(&rows, &summaries);
        let digest = fnv1a64(format!("{text}{rows:?}{summaries:?}").as_bytes());
        assert_eq!(digest, LOAD_DIGEST);
    }

    #[test]
    fn whatif_checks_pass_on_default_and_other_seeds() {
        for seed in [DEFAULT_SEED, 7] {
            let mut tally = Tally::default();
            let inputs = Inputs::new(Workload::Whatif, seed);
            let oracle = Oracle::new(&inputs);
            let pass = inputs.pass(&oracle, &mut tally, &mut Facts::default());
            assert!(pass.is_some());
            assert_eq!(tally.attempted, inputs.operations());
            assert_eq!(tally.failed, 0, "seed {seed}: {:?}", tally.problems);
        }
    }
}
