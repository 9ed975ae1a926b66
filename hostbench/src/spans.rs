//! The traced run's span recorder: one span around each call the
//! benchmark makes into a simulator layer, kept in memory and written
//! out when the run ends. Nothing is recorded inside the simulator.
//!
//! A span's name is `<layer>.<call>`; a layer's self time is the time
//! its spans cover minus the part their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off; off costs one branch per span site.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name` (when recording is on).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let id = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.origin.elapsed().as_nanos() as u64;
            r.spans[id].end_ns = end_ns;
            r.open.pop();
        });
    }
    out
}

/// Number of spans recorded so far (a mark for [`since`]).
pub fn mark() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// The spans recorded after `mark`.
pub fn since(mark: usize) -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans[mark..].to_vec())
}

/// Closes the spans a panic unwound through, at the current time.
pub fn close_open() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.origin.elapsed().as_nanos() as u64;
        while let Some(id) = r.open.pop() {
            r.spans[id].end_ns = now;
        }
    });
}

/// Self time in nanoseconds per layer over `spans` (a contiguous slice
/// of the recorder, so parents index relative to `base`).
pub fn self_ns_by_layer(spans: &[Span], base: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.duration_ns().saturating_sub(*child);
    }
    out
}

/// Durations in nanoseconds of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Writes every recorded span as JSON Lines (name, start, end, parent).
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    let spans = since(0);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
