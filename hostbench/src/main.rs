//! Host-time benchmark of the Howsim simulator.
//!
//! ```text
//! python3 hostbench/run.py --workload <figures|whatif|observe> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the named workload up and runs a timed pass
//! on it, over and over for `--seconds`, checks every pass's outputs, and
//! prints the end-to-end metrics, with times scaled to a reference host
//! speed by the sampler (`sampler.rs`). With `--trace 1` it runs traced and untraced
//! passes of every workload (the named one for the whole budget), then
//! the per-layer probes, and prints the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `hostbench/README.md`.

mod host;
mod probes;
mod sampler;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use howsim::TraceKind;
use probes::{median, MachineCall, ARCHS};
use simcore::QueueBackend;
use workloads::{Facts, Inputs, Oracle, Tally, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Timed passes per run, at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-ups timed before each pass of the end-to-end run.
const SETUPS_PER_PASS: usize = 16;
/// No new pass starts after this many seconds, so a run ends in time
/// even when passes are much slower than expected.
const CUTOFF_S: f64 = 120.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Serial sweeps, in-memory result cache only.
    howsim::sweep::set_default_jobs(1);
    howsim::cache::set_enabled(true);
    howsim::cache::set_disk_dir(None);
    std::panic::set_hook(Box::new(|info| eprintln!("hostbench: panic: {info}")));

    let fingerprint = host::Fingerprint::capture();
    let mut tally = Tally::default();
    let Measured {
        metrics,
        samples,
        notes,
    } = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, &mut tally)
    };

    for p in tally.problems.iter().take(20) {
        eprintln!("hostbench: FAILED {p}");
    }
    if args.trace {
        let path = Path::new("hostbench/out").join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written =
            std::fs::create_dir_all("hostbench/out").and_then(|()| spans::write_jsonl(&path));
        if let Err(e) = written {
            eprintln!("hostbench: cannot write the spans: {e}");
        }
    }

    println!("host {}", fingerprint.to_json());
    for line in &notes {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        let n = samples
            .get(name.as_str())
            .map_or(String::new(), |n| format!(" (median of {n})"));
        println!("{name} = {value} {unit}{n}");
    }
    println!(
        "error_rate = {} ({} failed of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", final_line(&tally, &metrics));
    ExitCode::SUCCESS
}

fn final_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// What a run measured: metrics in print order, the sample count behind
/// each median, and extra lines for the human-readable output.
struct Measured {
    metrics: Vec<Metric>,
    samples: BTreeMap<String, usize>,
    notes: Vec<String>,
}

/// The end-to-end run, tracing off: set-up, then a timed pass on the
/// inputs just built, repeated until `--seconds` have gone by (at least
/// [`MIN_PASSES`] times). Each round sets up [`SETUPS_PER_PASS`] times,
/// so set-up samples are spread over the run as the pass samples are.
///
/// The host-speed sampler runs throughout. `wall_s` is the median over
/// passes of each pass's seconds scaled to the reference host speed by
/// the probes taken during it; `setup_s` is the median set-up scaled by
/// the probes of the whole run. The raw medians are printed alongside.
fn untraced(args: &Args, tally: &mut Tally) -> Measured {
    let start = Instant::now();
    // The checks' reference results: made once, never timed.
    let oracle = Oracle::new(&Inputs::new(args.workload, args.seed));
    sampler::start();
    let from = sampler::mark();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut scaled = Vec::new();
    for n in 1.. {
        let mut inputs = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let built = black_box(Inputs::new(args.workload, args.seed));
            setups.push(t.elapsed().as_secs_f64());
            inputs = Some(built);
        }
        let inputs = inputs.expect("at least one set-up per pass");
        if let Some(t) = inputs.pass(&oracle, tally, &mut Facts::default()) {
            walls.push(t.seconds);
            scaled.extend(t.window.scale().map(|k| t.seconds * k));
        }
        drop(inputs);
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= args.seconds && n >= MIN_PASSES) || elapsed >= CUTOFF_S {
            break;
        }
    }
    sampler::stop();
    let mut run = sampler::Window::default();
    run.add_since(from);
    let scale = run.scale().expect("a run lasts many sampler periods");
    let (wall, setup) = (median(&walls), median(&setups));
    // The sampler's table is resident for the whole run: not the program's.
    let peak_mb = host::peak_rss_mb() - sampler::TABLE_BYTES as f64 / 1e6;
    Measured {
        metrics: vec![
            ("wall_s".to_string(), median(&scaled), "s"),
            ("peak_rss_mb".to_string(), peak_mb, "MB"),
            ("setup_s".to_string(), setup * scale, "s"),
        ],
        samples: BTreeMap::from([
            ("wall_s".to_string(), scaled.len()),
            ("setup_s".to_string(), setups.len()),
        ]),
        notes: vec![
            format!(
                "host speed: {} probes, mean reference/probe time {scale}",
                run.probes
            ),
            format!("raw wall_s = {wall} s, raw setup_s = {setup} s"),
        ],
    }
}

/// What the traced run measured of one workload.
struct TracedWorkload {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Traced minus untraced seconds, one per pair of passes.
    overheads: Vec<f64>,
    /// Self nanoseconds per layer, one map per traced pass.
    self_ns: Vec<BTreeMap<&'static str, u64>>,
    spans: Vec<spans::Span>,
    facts: Facts,
}

impl TracedWorkload {
    /// Mean over traced passes of the summed durations (ns) of the spans
    /// named `name` in one pass.
    fn per_pass_ns(&self, name: &str) -> f64 {
        let passes = self.traced.len().max(1) as f64;
        spans::durations(&self.spans, name).iter().sum::<u64>() as f64 / passes
    }

    /// Median duration (ns) of one call to the spans named `name`.
    fn per_call_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = spans::durations(&self.spans, name)
            .into_iter()
            .map(|ns| ns as f64)
            .collect();
        median(&d)
    }

    fn self_s(&self, layer: &str) -> f64 {
        let per_pass: Vec<f64> = self
            .self_ns
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0) as f64 / 1e9)
            .collect();
        median(&per_pass)
    }
}

fn trace_workload(w: Workload, args: &Args, start: Instant, tally: &mut Tally) -> TracedWorkload {
    let inputs = Inputs::new(w, args.seed);
    let oracle = Oracle::new(&inputs);
    let mut out = TracedWorkload {
        untraced: Vec::new(),
        traced: Vec::new(),
        overheads: Vec::new(),
        self_ns: Vec::new(),
        spans: Vec::new(),
        facts: Facts::default(),
    };
    loop {
        let untraced = inputs
            .pass(&oracle, tally, &mut Facts::default())
            .map(|t| t.seconds);
        spans::set_enabled(true);
        let mark = spans::mark();
        let mut facts = Facts::default();
        let traced = inputs.pass(&oracle, tally, &mut facts).map(|t| t.seconds);
        spans::set_enabled(false);
        if let (Some(u), Some(t)) = (untraced, traced) {
            out.overheads.push(t - u);
        }
        out.untraced.extend(untraced);
        out.traced.extend(traced);
        let recorded = spans::since(mark);
        let mut layers = spans::self_ns_by_layer(&recorded, mark);
        layers.remove("check");
        out.self_ns.push(layers);
        out.spans
            .extend(recorded.into_iter().filter(|s| s.layer() != "check"));
        out.facts = facts;
        let elapsed = start.elapsed().as_secs_f64();
        if w != args.workload || elapsed >= args.seconds || elapsed >= CUTOFF_S {
            break;
        }
    }
    out
}

/// The per-layer run: traced and untraced passes of every workload, then
/// the layer probes.
fn traced(args: &Args, tally: &mut Tally) -> Measured {
    let start = Instant::now();
    let mut by_workload = BTreeMap::new();
    // The named workload goes last so it can use the rest of the budget.
    let order = Workload::ALL
        .into_iter()
        .filter(|w| *w != args.workload)
        .chain([args.workload]);
    for w in order {
        by_workload.insert(w.name(), trace_workload(w, args, start, tally));
    }

    spans::set_enabled(true);
    let plan_us = spans::span("probe.plan", probes::plan_us);
    let grid = workloads::figures_grid();
    let exec = spans::span("probe.exec_grid", || probes::exec_grid(&grid));
    tally.ops(exec.runs, exec.mismatches == 0, || {
        "a counting trace changed a report".into()
    });
    let rec = spans::span("probe.recorders", probes::recorders);
    tally.ops(rec.runs, rec.mismatches == 0, || {
        "a recorder changed a report".into()
    });
    let (depth, gap) = (rec.queue_depth, rec.event_gap_ns);
    let wheel_ns = spans::span("probe.queue", || {
        probes::queue_push_pop_ns(QueueBackend::CalendarWheel, depth, gap)
    });
    let heap_ns = spans::span("probe.queue", || {
        probes::queue_push_pop_ns(QueueBackend::BinaryHeap, depth, gap)
    });
    let machine = |call| -> [f64; 3] {
        std::array::from_fn(|ix| spans::span("probe.machine", || probes::machine_ns(ix, call)))
    };
    let read_ns = machine(MachineCall::Read);
    let peer_ns = machine(MachineCall::PeerTransfer);
    let fe_ns = machine(MachineCall::FeTransfer);
    let cpu_ns = median(&machine(MachineCall::CpuWork));
    spans::set_enabled(false);

    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // howsim::exec, with the dispatch share left after the probes.
    let k = |kind: TraceKind| kind as usize;
    for (ix, arch) in ARCHS.iter().enumerate() {
        let events = exec.events[ix].max(1) as f64;
        let ns_per_event = exec.seconds[ix] * 1e9 / events;
        let c = &exec.counts[ix];
        let transfers = c[k(TraceKind::PeerArrive)] + c[k(TraceKind::FeArrive)];
        let cpu_calls =
            c[k(TraceKind::BatchProcessed)] + c[k(TraceKind::RecvProcessed)] + transfers;
        let machine_ns = read_ns[ix] * c[k(TraceKind::ReadDone)] as f64
            + peer_ns[ix] * c[k(TraceKind::PeerArrive)] as f64
            + fe_ns[ix] * c[k(TraceKind::FeArrive)] as f64
            + cpu_ns * cpu_calls as f64;
        put(&format!("exec.ns_per_event.{arch}"), ns_per_event, "ns");
        put(
            &format!("exec.dispatch_ns_per_event.{arch}"),
            ns_per_event - wheel_ns - machine_ns / events,
            "ns",
        );
    }
    put(
        "exec.events",
        exec.events.iter().sum::<u64>() as f64,
        "count",
    );

    // simcore::queue and the machine models.
    put("queue.push_pop_ns.wheel", wheel_ns, "ns");
    put("queue.push_pop_ns.heap", heap_ns, "ns");
    put("queue.depth", depth as f64, "count");
    for (ix, arch) in ARCHS.iter().enumerate() {
        put(&format!("machine.read_ns.{arch}"), read_ns[ix], "ns");
        put(
            &format!("machine.peer_transfer_ns.{arch}"),
            peer_ns[ix],
            "ns",
        );
        put(&format!("machine.fe_transfer_ns.{arch}"), fe_ns[ix], "ns");
    }
    put("machine.cpu_work_ns", cpu_ns, "ns");
    put("tasks.plan_us", plan_us, "us");

    // howsim::cache, from the figures passes.
    let fig = &by_workload["figures"].facts;
    let lookups = (fig.cache_hits + fig.cache_misses).max(1) as f64;
    put("cache.hits", fig.cache_hits as f64, "count");
    put("cache.misses", fig.cache_misses as f64, "count");
    put("cache.hit_ratio", fig.cache_hits as f64 / lookups, "ratio");

    // mqexec, fork paths and faults, from the whatif passes.
    let wi = &by_workload["whatif"];
    let f = &wi.facts;
    let mq_ns: f64 = [
        "mqexec.start_workload",
        "mqexec.run_to_idle",
        "mqexec.extend",
        "mqexec.finish",
    ]
    .iter()
    .map(|n| wi.per_pass_ns(n))
    .sum();
    put(
        "mqexec.ns_per_event",
        mq_ns / f.mq_events.max(1) as f64,
        "ns",
    );
    put("mqexec.events", f.mq_events as f64, "count");
    put("mqexec.completed", f.mq_completed as f64, "count");
    put("mqexec.shed", f.mq_shed as f64, "count");
    put("mqexec.timed_out", f.mq_timed_out as f64, "count");
    put("mqexec.retries", f.mq_retries as f64, "count");
    put(
        "mqexec.goodput_ratio",
        f.mq_completed as f64 / f.mq_offered.max(1) as f64,
        "ratio",
    );
    put(
        "fork.exec_clone_us",
        wi.per_call_ns("fork.fork_with_faults") / 1e3,
        "us",
    );
    put(
        "fork.warm_clone_us",
        wi.per_call_ns("fork.warm_fork") / 1e3,
        "us",
    );
    put("fork.prefix_runs", f.prefix_runs as f64, "count");
    put("fork.forked_runs", f.forked_runs as f64, "count");
    put("faults.injected", f.faults_injected as f64, "count");

    // Recorders: overheads from the probes, outputs from the observe passes.
    let ob = &by_workload["observe"];
    let f = &ob.facts;
    let per_event = |s: f64| (s - rec.plain_s) * 1e9 / rec.events.max(1) as f64;
    put("span.overhead_ns_per_event", per_event(rec.spans_s), "ns");
    put("span.recorded", f.spans_recorded as f64, "count");
    put("span.dropped", f.spans_dropped as f64, "count");
    put("span.minor_faults", rec.span_minor_faults, "count");
    put("span.alloc_mb", rec.span_alloc_bytes / 1e6, "MB");
    put("trace.overhead_ns_per_event", per_event(rec.trace_s), "ns");
    put("trace.jsonl_s", ob.per_pass_ns("trace.to_jsonl") / 1e9, "s");
    put("trace.jsonl_mb", f.jsonl_bytes as f64 / 1e6, "MB");
    put("trace.dropped", f.trace_dropped as f64, "count");
    put(
        "metrics.overhead_ns_per_event",
        per_event(rec.metrics_s),
        "ns",
    );
    put("metrics.samples", f.metrics_samples as f64, "count");
    put(
        "profile.critical_path_us",
        ob.per_pass_ns("profile.critical_path") / 1e3,
        "us",
    );
    put(
        "profile.chrome_s",
        ob.per_pass_ns("profile.chrome_trace_json") / 1e9,
        "s",
    );
    put("profile.chrome_mb", f.chrome_bytes as f64 / 1e6, "MB");
    put(
        "manifest.to_json_us",
        ob.per_pass_ns("manifest.to_json") / 1e3,
        "us",
    );
    put("manifest.bytes", f.manifest_bytes as f64, "bytes");

    // Per workload: tracing overhead and self time per layer.
    let mut samples = BTreeMap::new();
    for (name, tw) in &by_workload {
        let metric = format!("tracing.{name}.overhead_s");
        put(&metric, median(&tw.overheads), "s");
        samples.insert(metric, tw.overheads.len());
        let layers: &[&str] = match *name {
            "figures" => &["fig1", "fig2", "fig3", "fig4", "fig5", "bench"],
            "whatif" => &["exec", "fork", "mqexec", "experiments", "bench"],
            _ => &["exec", "profile", "trace", "metrics", "manifest", "bench"],
        };
        for layer in layers {
            put(&format!("self_s.{name}.{layer}"), tw.self_s(layer), "s");
        }
    }
    Measured {
        metrics: m,
        samples,
        notes: Vec::new(),
    }
}
