//! The byte writer behind the trace exporters (Chrome trace-event JSON,
//! JSON Lines and CSV).
//!
//! A traced 64-disk join exports over a million events, so the writers
//! skip `fmt` entirely: every line is static pieces plus decimal
//! integers appended to one pre-sized buffer. Everything appended is a
//! `&str` or ASCII digits, so the buffer is valid UTF-8 by construction.
//! The same writers stream to any `io::Write` in 64 KiB chunks (the
//! CLI's export files), so a file export never holds the whole text.

use std::io::{self, Write};

/// `"00" "01" … "99"`: two decimal digits per table entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Where an [`ExportBuf`] sends its bytes at each line end: nowhere
/// (`()`: the whole export stays in the buffer, for the `String`
/// exporters) or out to a writer in chunks ([`Chunked`]).
pub(crate) trait Sink {
    /// Called after every complete line with the bytes buffered so far.
    fn spill(&mut self, bytes: &mut Vec<u8>) -> io::Result<()>;
}

impl Sink for () {
    #[inline(always)]
    fn spill(&mut self, _: &mut Vec<u8>) -> io::Result<()> {
        Ok(())
    }
}

/// Bytes a streaming export buffers before writing them out.
const CHUNK_BYTES: usize = 64 * 1024;

/// A [`Sink`] that writes each full chunk to `W` and reuses the buffer,
/// so a streamed export holds at most one chunk plus one line.
pub(crate) struct Chunked<W>(W);

impl<W: Write> Sink for Chunked<W> {
    #[inline]
    fn spill(&mut self, bytes: &mut Vec<u8>) -> io::Result<()> {
        if bytes.len() >= CHUNK_BYTES {
            self.0.write_all(bytes)?;
            bytes.clear();
        }
        Ok(())
    }
}

/// An append-only export buffer over a [`Sink`].
pub(crate) struct ExportBuf<S = ()> {
    bytes: Vec<u8>,
    sink: S,
}

impl ExportBuf {
    /// An empty in-memory buffer with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        ExportBuf {
            bytes: Vec::with_capacity(bytes),
            sink: (),
        }
    }

    /// The finished export.
    pub(crate) fn into_string(self) -> String {
        String::from_utf8(self.bytes).expect("exporters append UTF-8 pieces only")
    }

    /// Runs an in-memory export (which cannot fail) into a `String`.
    pub(crate) fn collect(
        capacity: usize,
        export: impl FnOnce(&mut ExportBuf) -> io::Result<()>,
    ) -> String {
        let mut out = ExportBuf::with_capacity(capacity);
        export(&mut out).expect("an in-memory export cannot fail");
        out.into_string()
    }
}

impl<W: Write> ExportBuf<Chunked<W>> {
    /// Streams `export` to `w` in chunks of [`CHUNK_BYTES`], then
    /// flushes `w`.
    pub(crate) fn stream(w: W, export: impl FnOnce(&mut Self) -> io::Result<()>) -> io::Result<()> {
        let mut out = ExportBuf {
            bytes: Vec::with_capacity(CHUNK_BYTES + 4096),
            sink: Chunked(w),
        };
        export(&mut out)?;
        let Chunked(mut w) = out.sink;
        w.write_all(&out.bytes)?;
        w.flush()
    }
}

impl<S: Sink> ExportBuf<S> {
    /// Appends `s` verbatim.
    #[inline]
    pub(crate) fn str(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Appends `s` verbatim and ends a line: a streaming buffer may
    /// write out what it holds.
    #[inline]
    pub(crate) fn line_end(&mut self, s: &str) -> io::Result<()> {
        self.str(s);
        self.sink.spill(&mut self.bytes)
    }

    /// Appends `v` in decimal.
    #[inline]
    pub(crate) fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            i -= 2;
            digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            i -= 1;
            digits[i] = b'0' + v as u8;
        }
        self.bytes.extend_from_slice(&digits[i..]);
    }

    /// Appends a nanosecond clock as microseconds with three decimals
    /// (`<ns / 1000>.<ns % 1000, zero-padded>`).
    #[inline]
    pub(crate) fn micros(&mut self, ns: u64) {
        self.u64(ns / 1_000);
        let frac = (ns % 1_000) as usize;
        let pair = frac % 100 * 2;
        self.bytes.extend_from_slice(&[
            b'.',
            b'0' + (frac / 100) as u8,
            DIGIT_PAIRS[pair],
            DIGIT_PAIRS[pair + 1],
        ]);
    }
}

#[cfg(test)]
mod tests {
    //! Exporter goldens and the differential check against the
    //! `fmt`-based serializers the byte writer replaced, which stay here
    //! as the oracle.

    use std::fmt::Write as _;

    use proptest::prelude::*;
    use simcore::span::{SpanArena, SpanId, SpanKind, SpanResource, FRONT_END_NODE};
    use simcore::{SimTime, SplitMix64};

    use super::ExportBuf;
    use crate::profile::{LoadSpanTrace, SpanTrace};
    use crate::trace::{NodeId, Trace, TraceEvent, TraceKind};

    /// Chrome trace-event JSON, one `write!` per event.
    fn oracle_chrome(arena: &SpanArena) -> String {
        let spans = arena.spans();
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
        for (ix, s) in spans.iter().enumerate() {
            events.push((s.start.as_nanos(), true, ix));
            events.push((s.end.as_nanos(), false, ix));
        }
        events.sort_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then_with(|| {
                if a.1 {
                    a.2.cmp(&b.2)
                } else {
                    b.2.cmp(&a.2)
                }
            })
        });
        let tid = |node: u32| {
            if node == FRONT_END_NODE {
                0
            } else {
                u64::from(node) + 1
            }
        };
        let mut out = String::new();
        out.push_str("{\"traceEvents\": [\n");
        for (ix, &(ts, is_begin, span_ix)) in events.iter().enumerate() {
            let s = &spans[span_ix];
            if is_begin {
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"B\", \
                     \"ts\": {}.{:03}, \"pid\": {}, \"tid\": {}, \
                     \"args\": {{\"span\": {}, \"parent\": {}, \"bytes\": {}}}}}",
                    s.kind.name(),
                    s.resource.name(),
                    ts / 1_000,
                    ts % 1_000,
                    s.query,
                    tid(s.node),
                    span_ix,
                    s.parent
                        .index()
                        .map_or(-1i64, |p| i64::try_from(p).expect("span index fits i64")),
                    s.bytes,
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"E\", \
                     \"ts\": {}.{:03}, \"pid\": {}, \"tid\": {}}}",
                    s.kind.name(),
                    s.resource.name(),
                    ts / 1_000,
                    ts % 1_000,
                    s.query,
                    tid(s.node),
                );
            }
            out.push_str(if ix + 1 < events.len() { ",\n" } else { "\n" });
        }
        out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// CSV, one `format!` per event.
    fn oracle_csv(trace: &Trace) -> String {
        let mut out = String::from("time_ns,phase,node,kind,bytes\n");
        for e in trace.events() {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.time.as_nanos(),
                e.phase,
                e.node,
                e.kind.name(),
                e.bytes
            ));
        }
        out
    }

    /// JSON Lines, two allocations per event.
    fn oracle_jsonl(trace: &Trace) -> String {
        let s = trace.summary();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"total\":{},\"retained\":{},\"dropped\":{},\"truncated\":{}",
            s.total, s.retained, s.dropped, s.truncated
        ));
        out.push_str(",\"counts\":{");
        for (i, kind) in TraceKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", kind.name(), s.counts[i]));
        }
        out.push_str("}}\n");
        for e in trace.events() {
            let node = match e.node {
                NodeId::Node(i) => i.to_string(),
                NodeId::FrontEnd => "\"fe\"".to_string(),
            };
            out.push_str(&format!(
                "{{\"type\":\"event\",\"time_ns\":{},\"phase\":{},\"node\":{},\"kind\":\"{}\",\"bytes\":{}}}\n",
                e.time.as_nanos(),
                e.phase,
                node,
                e.kind.name(),
                e.bytes
            ));
        }
        out
    }

    /// The golden arena: B and E at one instant, LIFO closes, a
    /// zero-length span, front-end and `NONE`-parent spans, ns remainders
    /// 0, 5 and 999, `u64::MAX` bytes and clock, and several query lanes.
    fn golden_arena() -> SpanArena {
        use SpanKind as K;
        use SpanResource as R;
        // (parent, resource, kind, node, start ns, end ns, bytes, query)
        #[rustfmt::skip]
        let table = [
            (None, R::DiskMedia, K::DiskRead, 0, 0, 5, 4096, 0),
            (Some(0), R::WorkerCpu, K::Cpu, 0, 5, 1_999, 0, 0),
            (Some(1), R::Barrier, K::Barrier, FRONT_END_NODE, 1_999, 3_000, 0, 0),
            (None, R::Interconnect, K::Transfer, 2, 3_000, 3_000, 17, 0),
            (Some(2), R::FrontEndLink, K::Transfer, FRONT_END_NODE, 6_000, 10_000, 1, 0),
            (Some(4), R::FrontEndCpu, K::FrontEnd, FRONT_END_NODE, 7_000, 10_000, 2, 0),
            (Some(5), R::MemoryFabric, K::DiskWrite, 63, 10_000, 10_005, 999, 1),
            (Some(3), R::Recovery, K::DiskRead, 1, 10_000, 12_345_678_999, u64::MAX, 1),
            (None, R::Positioning, K::Positioning, 4_000_000_000, 10_000, 10_000, 0, 1),
            (Some(8), R::WorkerCpu, K::Cpu, 7, 12_345_678_999, u64::MAX, 5, 4_000_000_000),
        ];
        let mut arena = SpanArena::with_capacity(table.len());
        for (parent, resource, kind, node, start, end, bytes, query) in table {
            arena.set_query(query);
            arena.record(
                parent.map_or(SpanId::NONE, SpanId::from_index),
                resource,
                kind,
                node,
                SimTime::from_nanos(start),
                SimTime::from_nanos(end),
                bytes,
            );
        }
        arena
    }

    /// The golden trace events: every kind, a front-end node, `u64::MAX`
    /// bytes, clock, phase and node, and ns values 0, 5 and 999.
    fn golden_trace(capacity: usize) -> Trace {
        use TraceKind as K;
        #[rustfmt::skip]
        let events: [(u64, usize, Option<usize>, K, u64); 7] = [
            (0, 0, Some(0), K::ReadDone, 0),
            (5, 1, Some(12), K::BatchProcessed, 1_048_576),
            (999, 2, None, K::FeArrive, u64::MAX),
            (1_000_000_000, 3, Some(usize::MAX), K::PeerArrive, 7),
            (u64::MAX, usize::MAX, Some(63), K::RecvProcessed, 1),
            (42, 0, None, K::WriteDone, 10),
            (43, 0, Some(1), K::WriteDone, 11),
        ];
        let mut trace = Trace::with_capacity(capacity);
        for (time, phase, node, kind, bytes) in events {
            trace.record(TraceEvent {
                time: SimTime::from_nanos(time),
                phase,
                node: node.map_or(NodeId::FrontEnd, NodeId::Node),
                kind,
                bytes,
            });
        }
        trace
    }

    #[test]
    fn chrome_export_matches_the_golden_bytes() {
        let arena = golden_arena();
        let golden = include_str!("../testdata/export/chrome.json");
        assert_eq!(oracle_chrome(&arena), golden);
        let trace = SpanTrace {
            arena: arena.clone(),
            phases: Vec::new(),
        };
        assert_eq!(trace.chrome_trace_json(), golden);
        // The longest-span ranking over the same arena, as the full sort
        // ordered it (two duration ties, broken by record order).
        let top: Vec<usize> = trace
            .top_spans(99)
            .iter()
            .map(|(id, _)| id.index().unwrap())
            .collect();
        assert_eq!(top, [9, 7, 4, 5, 1, 2, 0, 6, 3, 8]);
        let load = LoadSpanTrace {
            arena,
            queries: Vec::new(),
        };
        assert_eq!(load.chrome_trace_json(), golden);
        let empty = include_str!("../testdata/export/chrome_empty.json");
        assert_eq!(SpanTrace::default().chrome_trace_json(), empty);
        let enabled_empty = SpanTrace {
            arena: SpanArena::with_capacity(4),
            phases: Vec::new(),
        };
        assert_eq!(enabled_empty.chrome_trace_json(), empty);
    }

    #[test]
    fn trace_exports_match_the_golden_bytes() {
        let cases = [
            (
                golden_trace(64),
                include_str!("../testdata/export/full.jsonl"),
                include_str!("../testdata/export/full.csv"),
            ),
            (
                golden_trace(4),
                include_str!("../testdata/export/truncated.jsonl"),
                include_str!("../testdata/export/truncated.csv"),
            ),
            (
                golden_trace(0),
                include_str!("../testdata/export/zero.jsonl"),
                include_str!("../testdata/export/zero.csv"),
            ),
            (
                Trace::new(),
                include_str!("../testdata/export/empty.jsonl"),
                include_str!("../testdata/export/empty.csv"),
            ),
        ];
        for (trace, jsonl, csv) in cases {
            assert_eq!(oracle_jsonl(&trace), jsonl);
            assert_eq!(oracle_csv(&trace), csv);
            assert_eq!(trace.to_jsonl(), jsonl);
            assert_eq!(trace.to_csv(), csv);
        }
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut buf = ExportBuf::with_capacity(0);
        let mut want = String::new();
        let mut v = 1u64;
        for x in [0, 9, 10, 99, 100, 101, 999, 1_000, u64::MAX - 1, u64::MAX] {
            buf.u64(x);
            buf.micros(x);
            let _ = write!(want, "{x}{}.{:03}", x / 1_000, x % 1_000);
        }
        // Every power of ten and its neighbours.
        while let Some(next) = v.checked_mul(10) {
            for x in [v - 1, v, v + 1] {
                buf.u64(x);
                let _ = write!(want, "{x}");
            }
            v = next;
        }
        assert_eq!(buf.into_string(), want);
    }

    /// A random arena: clocks clustered so B/E ties and LIFO closes are
    /// common, random parents (some `NONE`), lanes and resources.
    fn random_arena(seed: u64, len: usize) -> SpanArena {
        let mut rng = SplitMix64::new(seed);
        let mut arena = SpanArena::with_capacity(len);
        for ix in 0..len as u64 {
            let start = rng.next_below(40) * 500 + rng.next_below(3) * 999;
            let end = match rng.next_below(8) {
                0 => u64::MAX,
                1 => start,
                _ => start + rng.next_below(4) * 500,
            };
            let parent = match rng.next_below(ix + 1) {
                0 => SpanId::NONE,
                p => SpanId::from_index((p - 1) as usize),
            };
            let node = match rng.next_below(5) {
                0 => FRONT_END_NODE,
                1 => u32::MAX - 1,
                _ => rng.next_below(70) as u32,
            };
            let bytes = match rng.next_below(6) {
                0 => u64::MAX,
                _ => rng.next_u64() >> rng.next_below(64),
            };
            arena.set_query(rng.next_below(3) as u32);
            let kinds = [
                SpanKind::DiskRead,
                SpanKind::DiskWrite,
                SpanKind::Cpu,
                SpanKind::Transfer,
                SpanKind::FrontEnd,
                SpanKind::Barrier,
                SpanKind::Positioning,
            ];
            arena.record(
                parent,
                SpanResource::ALL[rng.next_below(9) as usize],
                kinds[rng.next_below(7) as usize],
                node,
                SimTime::from_nanos(start),
                SimTime::from_nanos(end),
                bytes,
            );
        }
        arena
    }

    /// A random trace, possibly truncated by a small capacity.
    fn random_trace(seed: u64, len: usize, capacity: usize) -> Trace {
        let mut rng = SplitMix64::new(seed);
        let mut trace = Trace::with_capacity(capacity);
        for _ in 0..len {
            let shift = rng.next_below(64);
            trace.record(TraceEvent {
                time: SimTime::from_nanos(rng.next_u64() >> shift),
                phase: rng.next_below(5) as usize,
                node: match rng.next_below(4) {
                    0 => NodeId::FrontEnd,
                    1 => NodeId::Node(usize::MAX),
                    _ => NodeId::Node(rng.next_below(128) as usize),
                },
                kind: TraceKind::ALL[rng.next_below(6) as usize],
                bytes: rng.next_u64() >> rng.next_below(64),
            });
        }
        trace
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn chrome_writer_equals_the_fmt_oracle(seed in 0u64..u64::MAX, len in 0usize..120) {
            let arena = random_arena(seed, len);
            let trace = SpanTrace { arena, phases: Vec::new() };
            prop_assert_eq!(trace.chrome_trace_json(), oracle_chrome(&trace.arena));
        }

        #[test]
        fn trace_writers_equal_the_fmt_oracle(
            seed in 0u64..u64::MAX,
            len in 0usize..120,
            capacity in 0usize..150,
        ) {
            let trace = random_trace(seed, len, capacity);
            prop_assert_eq!(trace.to_jsonl(), oracle_jsonl(&trace));
            prop_assert_eq!(trace.to_csv(), oracle_csv(&trace));
        }
    }
}
