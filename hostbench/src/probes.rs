//! Per-layer probes of the traced run: each times calls into one layer's
//! public functions from here, with the request shapes the workloads
//! use. They are the same whichever workload the run names.

use std::hint::black_box;
use std::time::Instant;

use arch::Architecture;
use howsim::machine::Machine;
use howsim::{Simulation, Trace, BATCH_BYTES};
use simcore::{Duration, EventQueue, QueueBackend, SimTime, SplitMix64};
use tasks::{plan_task, TaskKind};

use crate::host;
use crate::spans::span;
use crate::workloads::{architectures, GridPoint};

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The three architectures in metric order (`active`, `cluster`, `smp`).
pub const ARCHS: [&str; 3] = ["active", "cluster", "smp"];

fn at(disks: usize, ix: usize) -> Architecture {
    architectures(disks)[ix].1.clone()
}

/// Microseconds to plan one task: all eight tasks on each 64-disk
/// architecture, median over rounds.
pub fn plan_us() -> f64 {
    let archs: Vec<Architecture> = (0..3).map(|ix| at(64, ix)).collect();
    let rounds: Vec<f64> = (0..25)
        .map(|_| {
            let (_, s) = time(|| {
                for arch in &archs {
                    for task in TaskKind::ALL {
                        black_box(plan_task(task, arch));
                    }
                }
            });
            s * 1e6 / (archs.len() * TaskKind::ALL.len()) as f64
        })
        .collect();
    median(&rounds)
}

/// Host time and counts of `run_plan` over the figures grid, tracing off.
#[derive(Default)]
pub struct ExecGrid {
    pub seconds: [f64; 3],
    pub events: [u64; 3],
    /// Per-kind event counts (indexed by `TraceKind as usize`), from a
    /// counting-only trace of the same runs.
    pub counts: [[u64; 6]; 3],
    pub mismatches: u64,
    pub runs: u64,
}

pub fn exec_grid(grid: &[GridPoint]) -> ExecGrid {
    let mut out = ExecGrid::default();
    for p in grid {
        let sim = Simulation::new(p.arch.clone());
        let a = p.arch_ix;
        let (report, s) = time(|| span("exec.run_plan", || sim.run_plan(black_box(&p.plan))));
        out.seconds[a] += s;
        out.events[a] += report.events;
        // A zero-capacity trace keeps per-kind counts and no events.
        let mut counter = Trace::with_capacity(0);
        let counted = sim.run_plan_instrumented(&p.plan, Some(&mut counter), None);
        for (c, n) in out.counts[a].iter_mut().zip(counter.summary().counts) {
            *c += n;
        }
        out.runs += 1;
        if counted != report {
            out.mismatches += 1;
        }
    }
    out
}

/// Recorder overheads on the 64-disk join of each architecture: a plain
/// run against one recorder at a time, median over rounds.
#[derive(Default)]
pub struct Recorders {
    pub events: u64,
    pub plain_s: f64,
    pub spans_s: f64,
    pub trace_s: f64,
    pub metrics_s: f64,
    /// Minor page faults and allocated bytes of the span recorder
    /// (profiled minus plain), summed over the three joins.
    pub span_minor_faults: f64,
    pub span_alloc_bytes: f64,
    /// Mean event-queue depth and mean simulated gap between events of
    /// the 64-disk cluster join (the queue probe's shape).
    pub queue_depth: usize,
    pub event_gap_ns: u64,
    pub mismatches: u64,
    pub runs: u64,
}

pub fn recorders() -> Recorders {
    const ROUNDS: usize = 3;
    let mut out = Recorders::default();
    // Per architecture: seconds of the plain, profiled, traced and
    // sampled runs; span-recorder faults and bytes.
    let mut per: [[Vec<f64>; 4]; 3] = Default::default();
    let mut faults: [Vec<f64>; 3] = Default::default();
    let mut allocs: [Vec<f64>; 3] = Default::default();
    let mut events = [0u64; 3];
    for _ in 0..ROUNDS {
        for (ix, times) in per.iter_mut().enumerate() {
            let arch = at(64, ix);
            let plan = plan_task(TaskKind::Join, &arch);
            let sim = Simulation::new(arch);

            let f0 = host::minor_faults();
            let ((plain, s), a_plain) =
                host::count_allocations(|| time(|| span("exec.run_plan", || sim.run_plan(&plan))));
            let f1 = host::minor_faults();
            times[0].push(s);
            let (((profiled, _spans), s), a_profiled) = host::count_allocations(|| {
                time(|| span("exec.run_plan_profiled", || sim.run_plan_profiled(&plan)))
            });
            let f2 = host::minor_faults();
            times[1].push(s);
            faults[ix].push((f2 - f1) as f64 - (f1 - f0) as f64);
            allocs[ix].push(a_profiled as f64 - a_plain as f64);
            let ((traced, _trace), s) =
                time(|| span("exec.run_plan_traced", || sim.run_plan_traced(&plan)));
            times[2].push(s);
            let ((sampled, metrics), s) = time(|| {
                span("exec.run_plan_with_metrics", || {
                    sim.run_plan_with_metrics(&plan)
                })
            });
            times[3].push(s);

            out.runs += 4;
            out.mismatches += [&profiled, &traced, &sampled]
                .iter()
                .filter(|r| ***r != plain)
                .count() as u64;
            events[ix] = plain.events;
            if ix == 1 {
                let depth = metrics.queue_depth.mean().round().max(1.0) as usize;
                out.queue_depth = depth;
                out.event_gap_ns = (plain.elapsed().as_nanos() / plain.events.max(1)).max(1);
            }
        }
    }
    out.events = events.iter().sum();
    for ix in 0..3 {
        out.plain_s += median(&per[ix][0]);
        out.spans_s += median(&per[ix][1]);
        out.trace_s += median(&per[ix][2]);
        out.metrics_s += median(&per[ix][3]);
        out.span_minor_faults += median(&faults[ix]);
        out.span_alloc_bytes += median(&allocs[ix]);
    }
    out
}

/// Nanoseconds per `pop` + `push` pair on `backend` holding `depth`
/// events whose simulated gaps average `gap_ns` per pending event (the
/// hold model: each popped event schedules one successor).
pub fn queue_push_pop_ns(backend: QueueBackend, depth: usize, gap_ns: u64) -> f64 {
    const OPS: usize = 200_000;
    let horizon = 2 * gap_ns * depth as u64;
    let mut rng = SplitMix64::new(0x5eed);
    let mut q: EventQueue<[u64; 5]> = EventQueue::with_backend_capacity(backend, depth);
    for i in 0..depth {
        q.push(SimTime::from_nanos(rng.next_below(horizon)), [i as u64; 5]);
    }
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let (_, s) = time(|| {
                for _ in 0..OPS {
                    let (t, ev) = q.pop().expect("the queue holds `depth` events");
                    let next = t + Duration::from_nanos(1 + rng.next_below(horizon));
                    q.push(next, black_box(ev));
                }
            });
            s * 1e9 / OPS as f64
        })
        .collect();
    median(&rounds)
}

/// The machine-model call a probe times.
#[derive(Clone, Copy)]
pub enum MachineCall {
    Read,
    PeerTransfer,
    FeTransfer,
    CpuWork,
}

/// Nanoseconds per `Machine` call of `BATCH_BYTES` (or one CPU burst) on
/// the 64-disk `arch_ix` architecture: each node issues its next request
/// when its previous one completes, round-robin over nodes.
pub fn machine_ns(arch_ix: usize, call: MachineCall) -> f64 {
    const CALLS: usize = 20_000;
    let arch = at(64, arch_ix);
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut m = Machine::new(&arch);
            m.begin_phase(0);
            let n = m.nodes();
            let mut ready = vec![SimTime::ZERO; n];
            let (_, s) = time(|| {
                for i in 0..CALLS {
                    let node = i % n;
                    let now = ready[node];
                    ready[node] = match call {
                        MachineCall::Read => m.read(node, now, BATCH_BYTES, 0, false),
                        MachineCall::PeerTransfer => {
                            let dst = (node + 1 + (i / n) % (n - 1)) % n;
                            m.peer_transfer(now, node, dst, BATCH_BYTES)
                        }
                        MachineCall::FeTransfer => m.fe_transfer(now, node, BATCH_BYTES),
                        MachineCall::CpuWork => {
                            m.node_cpu_work(node, now, Duration::from_micros(500), "probe")
                        }
                    };
                }
            });
            black_box(&ready);
            s * 1e9 / CALLS as f64
        })
        .collect();
    median(&rounds)
}
