//! Causal profiling: critical-path analysis and Chrome-trace export over
//! the span arena recorded by a profiled run.
//!
//! The executor (see [`crate::Simulation::run_profiled`]) emits one
//! [`Span`] per unit of attributable work — a batch read, a CPU burst, a
//! wire transfer — each linked to the span whose completion caused it.
//! Because the event loop schedules every child at its parent's
//! completion time, walking the parent chain backward from the span that
//! ends a phase tiles the phase's elapsed time exactly: the per-resource
//! critical-path decomposition sums to the run's elapsed time in integer
//! nanoseconds, with any uncovered interval attributed to the synthetic
//! `"unattributed"` resource rather than silently dropped.

use std::collections::BTreeMap;
use std::io;

use simcore::span::{Span, SpanArena, SpanId, FRONT_END_NODE};
use simcore::{Duration, SimTime};
use tasks::TaskKind;

use crate::export::{ExportBuf, Sink};

/// Synthetic critical-path resource for intervals no span covers (e.g. a
/// node idling for a straggler inside a phase when spans were dropped).
pub const UNATTRIBUTED: &str = "unattributed";

/// One phase's window and the span that determined its end.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpans {
    /// Phase name (paper spelling).
    pub name: &'static str,
    /// When the phase began.
    pub start: SimTime,
    /// When the phase ended (its barrier completed, or the abort clock).
    pub end: SimTime,
    /// The last span to finish in the phase — the barrier span on healthy
    /// phases — from which the critical path walks backward.
    pub anchor: SpanId,
}

/// The spans of one profiled run, grouped by phase.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    /// All recorded spans ([`SpanId`] indexes into the arena).
    pub arena: SpanArena,
    /// Per-phase windows and critical-path anchors, in execution order.
    pub phases: Vec<PhaseSpans>,
}

/// Time one resource contributed to the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Resource key (`"disk_media"`, `"barrier"`, [`UNATTRIBUTED`]...).
    pub resource: &'static str,
    /// Critical-path time attributed to the resource.
    pub time: Duration,
}

/// Per-resource decomposition of a run's elapsed time along the longest
/// dependency chain. `segments` always sums to `total` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The run's total elapsed simulated time.
    pub total: Duration,
    /// Per-resource critical-path time, longest first (ties broken by
    /// resource name for determinism).
    pub segments: Vec<PathSegment>,
}

impl SpanTrace {
    /// Walks the longest dependency chain of every phase and returns the
    /// per-resource critical-path decomposition.
    ///
    /// Within a phase the walk starts at the anchor span and follows
    /// parents backward, maintaining a time cursor that starts at the
    /// phase end. Each span claims the interval from its start to the
    /// cursor (clamped so overlapping ancestors never double-count);
    /// gaps between a child's start and its parent's end — which only
    /// appear when spans were dropped by a full arena — are charged to
    /// [`UNATTRIBUTED`]. The invariant that makes the total exact: every
    /// nanosecond of `[phase.start, phase.end]` is claimed exactly once.
    pub fn critical_path(&self) -> CriticalPath {
        critical_path_over(&self.arena, &self.phases)
    }

    /// The `k` longest spans, by duration descending (ties broken by
    /// record order, which is deterministic across queue backends).
    pub fn top_spans(&self, k: usize) -> Vec<(SpanId, &Span)> {
        let spans = self.arena.spans();
        // (duration desc, index asc) keys are unique, so selecting the k
        // winners and sorting only them gives the full sort's prefix.
        let order = |&a: &usize, &b: &usize| {
            spans[b]
                .duration()
                .cmp(&spans[a].duration())
                .then(a.cmp(&b))
        };
        let mut ix: Vec<usize> = (0..spans.len()).collect();
        if k < ix.len() {
            if k > 0 {
                ix.select_nth_unstable_by(k - 1, order);
            }
            ix.truncate(k);
        }
        ix.sort_unstable_by(order);
        ix.into_iter()
            .map(|i| (SpanId::from_index(i), &spans[i]))
            .collect()
    }

    /// Serializes the arena as Chrome trace-event JSON (the format
    /// `chrome://tracing` and Perfetto load).
    ///
    /// Every span becomes a matched `B`/`E` pair; a span's `pid` is its
    /// query lane (0 for single-query runs), `tid` 0 is the front-end,
    /// worker node `n` is `tid` `n + 1`. Timestamps are microseconds
    /// with nanosecond precision (three decimals), emitted in
    /// nondecreasing order with `E` events sorted before `B` events at
    /// the same instant so stacks nest correctly. The bytes are a pure
    /// function of the arena, hence identical across queue backends,
    /// worker counts, and cache states.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_of(&self.arena)
    }

    /// Streams [`Self::chrome_trace_json`]'s bytes to `w` in chunks,
    /// without holding the whole document.
    ///
    /// # Errors
    ///
    /// Returns the first error `w` reports.
    pub fn write_chrome_trace(&self, w: impl io::Write) -> io::Result<()> {
        stream_chrome_trace(&self.arena, w)
    }
}

/// Walks each phase's longest dependency chain — the shared body of
/// [`SpanTrace::critical_path`] and [`LoadSpanTrace::critical_path`].
fn critical_path_over(arena: &SpanArena, phases: &[PhaseSpans]) -> CriticalPath {
    let mut by_resource: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut total = Duration::ZERO;
    for phase in phases {
        total += phase.end.since(phase.start);
        let mut cursor = phase.end;
        let mut id = phase.anchor;
        while let Some(span) = arena.get(id) {
            if span.end < cursor {
                *by_resource.entry(UNATTRIBUTED).or_default() += cursor.since(span.end);
                cursor = span.end;
            }
            let claim_from = span.start.min(cursor);
            *by_resource.entry(span.resource.name()).or_default() += cursor.since(claim_from);
            cursor = claim_from;
            id = span.parent;
        }
        if cursor > phase.start {
            *by_resource.entry(UNATTRIBUTED).or_default() += cursor.since(phase.start);
        }
    }
    let mut segments: Vec<PathSegment> = by_resource
        .into_iter()
        .map(|(resource, time)| PathSegment { resource, time })
        .collect();
    // BTreeMap iteration is already name-sorted; a stable sort by
    // descending time keeps the name order as the tie-break.
    segments.sort_by_key(|s| std::cmp::Reverse(s.time));
    segments.retain(|s| !s.time.is_zero());
    CriticalPath { total, segments }
}

/// Chrome output bytes reserved per B/E event: the 64-disk join's lines
/// average about 123 bytes, and a line rarely runs much longer.
const CHROME_EVENT_BYTES: usize = 136;

/// Chrome trace-event JSON of `arena`, in memory.
fn chrome_trace_of(arena: &SpanArena) -> String {
    let keys = chrome_keys(arena);
    let capacity = keys.len() * CHROME_EVENT_BYTES + 64;
    ExportBuf::collect(capacity, |out| chrome_trace_into(arena, &keys, out))
}

/// Chrome trace-event JSON of `arena`, streamed to `w` in chunks.
fn stream_chrome_trace(arena: &SpanArena, w: impl io::Write) -> io::Result<()> {
    let keys = chrome_keys(arena);
    ExportBuf::stream(w, |out| chrome_trace_into(arena, &keys, out))
}

/// One packed sort key per B/E event, sorted: the clock in the high 64
/// bits, then an is-begin bit (E sorts before B at the same instant),
/// then the span index for a B (earlier spans open first) or
/// `u32::MAX - index` for an E (later spans close first, so stacks
/// nest). Keys are unique, so the unstable sort is deterministic.
fn chrome_keys(arena: &SpanArena) -> Vec<u128> {
    let spans = arena.spans();
    let mut keys: Vec<u128> = Vec::with_capacity(spans.len() * 2);
    for (ix, s) in spans.iter().enumerate() {
        let ix = u32::try_from(ix).expect("span index fits u32");
        keys.push(u128::from(s.start.as_nanos()) << 64 | 1 << 32 | u128::from(ix));
        keys.push(u128::from(s.end.as_nanos()) << 64 | u128::from(u32::MAX - ix));
    }
    keys.sort_unstable();
    keys
}

/// Chrome trace-event serialization of `arena` in `keys` order, shared
/// by [`SpanTrace`] and [`LoadSpanTrace`], in memory or streamed: each
/// span's `pid` is its query lane, so Perfetto renders concurrent
/// queries as separate processes.
fn chrome_trace_into<S: Sink>(
    arena: &SpanArena,
    keys: &[u128],
    out: &mut ExportBuf<S>,
) -> io::Result<()> {
    let spans = arena.spans();
    out.line_end("{\"traceEvents\": [\n")?;
    for (n, &key) in keys.iter().enumerate() {
        let ts = (key >> 64) as u64;
        let is_begin = key >> 32 & 1 == 1;
        let span_ix = if is_begin {
            key as u32
        } else {
            u32::MAX - key as u32
        };
        let s = &spans[span_ix as usize];
        out.str("{\"name\": \"");
        out.str(s.kind.name());
        out.str("\", \"cat\": \"");
        out.str(s.resource.name());
        out.str(if is_begin {
            "\", \"ph\": \"B\", \"ts\": "
        } else {
            "\", \"ph\": \"E\", \"ts\": "
        });
        out.micros(ts);
        out.str(", \"pid\": ");
        out.u64(u64::from(s.query));
        out.str(", \"tid\": ");
        out.u64(trace_tid(s.node));
        if is_begin {
            out.str(", \"args\": {\"span\": ");
            out.u64(u64::from(span_ix));
            out.str(", \"parent\": ");
            match s.parent.index() {
                Some(p) => out.u64(p as u64),
                None => out.str("-1"),
            }
            out.str(", \"bytes\": ");
            out.u64(s.bytes);
            out.str("}}");
        } else {
            out.str("}");
        }
        out.line_end(if n + 1 < keys.len() { ",\n" } else { "\n" })?;
    }
    out.line_end("], \"displayTimeUnit\": \"ms\"}\n")
}

/// One query's phase windows within a loaded run's shared span arena.
#[derive(Debug, Clone)]
pub struct QuerySpans {
    /// The query lane (index in arrival order).
    pub query: u32,
    /// The DSS task the query ran.
    pub task: TaskKind,
    /// Phase windows of the query's final attempt, in execution order.
    pub phases: Vec<PhaseSpans>,
}

/// The spans of one profiled multi-query run: a single shared arena
/// (every span stamped with its query lane) plus each query's phase
/// windows, so the critical path of any individual query can be walked
/// even though the queries interleaved on one machine.
#[derive(Debug, Clone, Default)]
pub struct LoadSpanTrace {
    /// All recorded spans across every query, in record order.
    pub arena: SpanArena,
    /// Per-query phase windows, indexed by query id.
    pub queries: Vec<QuerySpans>,
}

impl LoadSpanTrace {
    /// The critical-path decomposition of one query's final attempt.
    /// Sums exactly to the attempt's elapsed time — the same invariant
    /// as the single-query walker, per lane.
    pub fn critical_path(&self, query: u32) -> Option<CriticalPath> {
        self.queries
            .iter()
            .find(|q| q.query == query)
            .map(|q| critical_path_over(&self.arena, &q.phases))
    }

    /// Spans dropped from this query's lane by arena overflow.
    pub fn dropped_for(&self, query: u32) -> u64 {
        self.arena.dropped_for(query)
    }

    /// Chrome trace-event JSON with one `pid` per query, so Perfetto
    /// shows each concurrent query as its own process track.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_of(&self.arena)
    }

    /// Streams [`Self::chrome_trace_json`]'s bytes to `w` in chunks,
    /// without holding the whole document.
    ///
    /// # Errors
    ///
    /// Returns the first error `w` reports.
    pub fn write_chrome_trace(&self, w: impl io::Write) -> io::Result<()> {
        stream_chrome_trace(&self.arena, w)
    }
}

/// Chrome-trace thread id for a span's node (front-end is thread 0,
/// worker `n` is thread `n + 1`).
fn trace_tid(node: u32) -> u64 {
    if node == FRONT_END_NODE {
        0
    } else {
        u64::from(node) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::span::{SpanKind, SpanResource};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// A two-phase trace: phase 0 is a read→cpu chain with a barrier,
    /// phase 1 a single cpu span ending at the phase end.
    fn sample() -> SpanTrace {
        let mut arena = SpanArena::with_capacity(16);
        let read = arena.record(
            SpanId::NONE,
            SpanResource::DiskMedia,
            SpanKind::DiskRead,
            0,
            t(0),
            t(60),
            100,
        );
        let cpu = arena.record(
            read,
            SpanResource::WorkerCpu,
            SpanKind::Cpu,
            0,
            t(60),
            t(90),
            100,
        );
        let barrier = arena.record(
            cpu,
            SpanResource::Barrier,
            SpanKind::Barrier,
            FRONT_END_NODE,
            t(90),
            t(100),
            0,
        );
        let cpu2 = arena.record(
            SpanId::NONE,
            SpanResource::WorkerCpu,
            SpanKind::Cpu,
            1,
            t(100),
            t(140),
            7,
        );
        SpanTrace {
            arena,
            phases: vec![
                PhaseSpans {
                    name: "scan",
                    start: t(0),
                    end: t(100),
                    anchor: barrier,
                },
                PhaseSpans {
                    name: "merge",
                    start: t(100),
                    end: t(140),
                    anchor: cpu2,
                },
            ],
        }
    }

    #[test]
    fn critical_path_total_equals_elapsed_and_decomposes() {
        let trace = sample();
        let cp = trace.critical_path();
        assert_eq!(cp.total, Duration::from_nanos(140));
        let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, cp.total, "segments tile the elapsed time exactly");
        let get = |r: &str| {
            cp.segments
                .iter()
                .find(|s| s.resource == r)
                .map(|s| s.time.as_nanos())
        };
        assert_eq!(get("disk_media"), Some(60));
        assert_eq!(get("worker_cpu"), Some(70)); // 30 in scan + 40 in merge
        assert_eq!(get("barrier"), Some(10));
        assert_eq!(get(UNATTRIBUTED), None, "healthy chains leave no gap");
    }

    #[test]
    fn gaps_from_broken_chains_are_surfaced_not_lost() {
        let mut arena = SpanArena::with_capacity(4);
        // A lone span covering [40, 70] of a [0, 100] phase: the walker
        // must charge 30ns (tail) + 40ns (head) to UNATTRIBUTED.
        let lone = arena.record(
            SpanId::NONE,
            SpanResource::WorkerCpu,
            SpanKind::Cpu,
            0,
            t(40),
            t(70),
            0,
        );
        let trace = SpanTrace {
            arena,
            phases: vec![PhaseSpans {
                name: "scan",
                start: t(0),
                end: t(100),
                anchor: lone,
            }],
        };
        let cp = trace.critical_path();
        assert_eq!(cp.total, Duration::from_nanos(100));
        let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, cp.total);
        assert!(cp
            .segments
            .iter()
            .any(|s| s.resource == UNATTRIBUTED && s.time == Duration::from_nanos(70)));
    }

    #[test]
    fn overlapping_ancestors_never_double_count() {
        let mut arena = SpanArena::with_capacity(4);
        // Parent [0, 80] overlaps child [50, 100]: the child claims
        // [50, 100], the parent only the uncovered [0, 50].
        let parent = arena.record(
            SpanId::NONE,
            SpanResource::DiskMedia,
            SpanKind::DiskRead,
            0,
            t(0),
            t(80),
            0,
        );
        let child = arena.record(
            parent,
            SpanResource::WorkerCpu,
            SpanKind::Cpu,
            0,
            t(50),
            t(100),
            0,
        );
        let trace = SpanTrace {
            arena,
            phases: vec![PhaseSpans {
                name: "scan",
                start: t(0),
                end: t(100),
                anchor: child,
            }],
        };
        let cp = trace.critical_path();
        let sum: Duration = cp.segments.iter().map(|s| s.time).sum();
        assert_eq!(sum, Duration::from_nanos(100));
        // Both claim exactly 50ns; the tie breaks by resource name.
        assert_eq!(cp.segments[0].resource, "disk_media");
        assert_eq!(cp.segments[0].time, Duration::from_nanos(50));
        assert_eq!(cp.segments[1].resource, "worker_cpu");
        assert_eq!(cp.segments[1].time, Duration::from_nanos(50));
    }

    #[test]
    fn top_spans_orders_by_duration_then_record_order() {
        let trace = sample();
        let top = trace.top_spans(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1.duration(), Duration::from_nanos(60)); // disk read
        assert_eq!(top[1].1.duration(), Duration::from_nanos(40)); // merge cpu
        assert!(trace.top_spans(0).is_empty());
        assert_eq!(trace.top_spans(99).len(), trace.arena.len());

        // Equal durations break the tie by record order, for every k.
        let mut arena = SpanArena::with_capacity(8);
        for (start, len) in [(0, 5), (3, 9), (1, 5), (0, 9), (7, 0), (2, 5)] {
            arena.record(
                SpanId::NONE,
                SpanResource::WorkerCpu,
                SpanKind::Cpu,
                0,
                t(start),
                t(start + len),
                0,
            );
        }
        let trace = SpanTrace {
            arena,
            phases: Vec::new(),
        };
        let order = [1, 3, 0, 2, 5, 4];
        for k in 0..=order.len() + 1 {
            let ids: Vec<usize> = trace
                .top_spans(k)
                .iter()
                .map(|(id, _)| id.index().unwrap())
                .collect();
            assert_eq!(ids, order[..k.min(order.len())], "k = {k}");
        }
    }

    #[test]
    fn chrome_export_is_sorted_with_matched_pairs() {
        let trace = sample();
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\": \"ms\"}"));
        let begins = json.matches("\"ph\": \"B\"").count();
        let ends = json.matches("\"ph\": \"E\"").count();
        assert_eq!(begins, trace.arena.len());
        assert_eq!(ends, begins, "every B has a matching E");
        // ts values appear in nondecreasing order.
        let ts: Vec<f64> = json
            .lines()
            .filter_map(|l| {
                let rest = l.split("\"ts\": ").nth(1)?;
                rest.split(',').next()?.parse().ok()
            })
            .collect();
        assert_eq!(ts.len(), begins + ends);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted by ts");
        // Front-end barrier span runs on tid 0.
        assert!(json.contains("\"name\": \"barrier\""));
        assert!(json.contains("\"tid\": 0"));
    }

    #[test]
    fn empty_trace_profiles_cleanly() {
        let trace = SpanTrace::default();
        let cp = trace.critical_path();
        assert_eq!(cp.total, Duration::ZERO);
        assert!(cp.segments.is_empty());
        assert!(trace.top_spans(5).is_empty());
        let json = trace.chrome_trace_json();
        assert!(json.contains("\"traceEvents\": [\n]"));
    }
}
