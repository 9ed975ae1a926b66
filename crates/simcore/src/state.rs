//! Exact-integer state serialization for simulation checkpoints.
//!
//! Checkpointing (PR 9) snapshots live simulator state — server queues,
//! disk arms, RNG streams, pending events — so a run can be forked or
//! resumed without replaying its prefix. The non-negotiable requirement is
//! that a restored run is *bit-identical* to one that never paused, so this
//! codec never round-trips through decimal floats: every quantity is
//! written as an integer (`SimTime`/`Duration` as nanoseconds, `f64` via
//! [`f64::to_bits`]), one `key value` line per field.
//!
//! The format is deliberately dumb: a flat sequence of lines consumed in
//! writing order by [`StateReader`]. There is no schema negotiation —
//! checkpoint files carry a schema string at a higher layer and are simply
//! discarded on mismatch (a checkpoint is a cache entry, never the only
//! copy of anything).
//!
//! # Example
//!
//! ```
//! use simcore::state::{StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.field("cursor", 42u64);
//! w.f64_field("credit", 0.1 + 0.2); // bit-exact, not "0.30000000000000004"
//! w.list("lanes", [3u64, 1, 4]);
//! let text = w.finish();
//!
//! let mut r = StateReader::new(&text);
//! assert_eq!(r.num::<u64>("cursor").unwrap(), 42);
//! assert_eq!(r.f64_field("credit").unwrap(), 0.1 + 0.2);
//! assert_eq!(r.nums::<u64>("lanes").unwrap(), vec![3, 1, 4]);
//! assert!(r.done());
//! ```

use std::collections::HashMap;
use std::fmt::{self, Display, Write as _};
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

/// Error raised when checkpoint text does not match the expected shape.
///
/// Restores treat any `StateError` as "this checkpoint is unusable" — the
/// caller falls back to simulating from scratch, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(String);

impl StateError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        StateError(msg.into())
    }
}

impl Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state decode error: {}", self.0)
    }
}

impl std::error::Error for StateError {}

/// Serializes state as a flat sequence of `key value` lines.
///
/// Field order is the schema: [`StateReader`] consumes lines in the same
/// order they were written. Keys are for human debuggability and as a
/// cheap corruption check (a reader verifies each key it consumes).
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: String,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `key value` for any `Display` value (integers, mostly).
    pub fn field(&mut self, key: &str, value: impl Display) {
        debug_assert!(!key.contains([' ', '\n']), "key {key:?} must be atomic");
        let _ = writeln!(self.buf, "{key} {value}");
    }

    /// Writes a string field. The value must not contain newlines (tags
    /// and resource names in this repository never do).
    pub fn str_field(&mut self, key: &str, value: &str) {
        assert!(
            !value.contains('\n'),
            "string field {key:?} contains newline"
        );
        self.field(key, value);
    }

    /// Writes an `f64` exactly, as its IEEE-754 bit pattern.
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.field(key, value.to_bits());
    }

    /// Writes a whitespace-separated list on one line: `key v1 v2 ...`.
    /// An empty list writes just the key.
    pub fn list<T: Display>(&mut self, key: &str, values: impl IntoIterator<Item = T>) {
        debug_assert!(!key.contains([' ', '\n']), "key {key:?} must be atomic");
        let _ = write!(self.buf, "{key}");
        for v in values {
            let _ = write!(self.buf, " {v}");
        }
        self.buf.push('\n');
    }

    /// Consumes the writer, returning the serialized text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sequential reader over text produced by [`StateWriter`].
///
/// Each accessor consumes exactly one line and verifies its key; a key
/// mismatch, parse failure, or premature end of input yields a
/// [`StateError`].
#[derive(Debug)]
pub struct StateReader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over serialized state text.
    pub fn new(text: &'a str) -> Self {
        StateReader {
            lines: text.lines(),
        }
    }

    /// Consumes one line, verifying its key; returns the raw value text
    /// (empty for a bare key).
    pub fn field(&mut self, key: &str) -> Result<&'a str, StateError> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| StateError(format!("missing field {key:?}")))?;
        match line.strip_prefix(key) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            _ => Err(StateError(format!("expected field {key:?}, got {line:?}"))),
        }
    }

    /// Consumes one `key value` line and parses the value.
    pub fn num<T: FromStr>(&mut self, key: &str) -> Result<T, StateError> {
        let raw = self.field(key)?;
        raw.parse()
            .map_err(|_| StateError(format!("field {key:?} has unparsable value {raw:?}")))
    }

    /// Consumes an `f64` written by [`StateWriter::f64_field`].
    pub fn f64_field(&mut self, key: &str) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.num::<u64>(key)?))
    }

    /// Consumes a list written by [`StateWriter::list`].
    pub fn nums<T: FromStr>(&mut self, key: &str) -> Result<Vec<T>, StateError> {
        let raw = self.field(key)?;
        raw.split_ascii_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|_| StateError(format!("list {key:?} has unparsable item {tok:?}")))
            })
            .collect()
    }

    /// Consumes a list of exactly `N` values written by
    /// [`StateWriter::list`].
    pub fn array<T: FromStr, const N: usize>(&mut self, key: &str) -> Result<[T; N], StateError> {
        self.nums(key)?
            .try_into()
            .map_err(|_| StateError(format!("list {key:?} needs {N} values")))
    }

    /// Consumes a flag written as `key 0` or `key 1`.
    pub fn flag(&mut self, key: &str) -> Result<bool, StateError> {
        match self.field(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            raw => Err(StateError(format!(
                "flag {key:?} must be 0 or 1, got {raw:?}"
            ))),
        }
    }

    /// True when every line has been consumed.
    pub fn done(&mut self) -> bool {
        self.lines.clone().next().is_none()
    }

    /// Fails unless every line has been consumed (trailing-data check).
    pub fn expect_done(&mut self) -> Result<(), StateError> {
        match self.lines.clone().next() {
            None => Ok(()),
            Some(line) => Err(StateError(format!("trailing data: {line:?}"))),
        }
    }
}

/// Interns a string, returning a `&'static str` with stable content.
///
/// Resource tags and span labels are `&'static str` throughout the
/// simulator (so hot-path accounting can compare pointers); state restored
/// from a checkpoint must materialize equivalent statics. The interner
/// leaks one copy of each distinct string per process — checkpoints carry
/// a small, closed set of tag names, so the leak is bounded.
///
/// Interning the same content twice returns the same pointer, and interned
/// copies of compile-time literals compare equal by content everywhere the
/// simulator falls back from pointer identity to string comparison.
pub fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = table.lock().expect("intern table poisoned");
    if let Some(&interned) = map.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_fields_lists_and_floats() {
        let mut w = StateWriter::new();
        w.field("a", 7u64);
        w.str_field("name", "disk read");
        w.f64_field("x", -0.0);
        w.f64_field("y", f64::MAX);
        w.list("empty", std::iter::empty::<u64>());
        w.list("vals", [1u64, 2, 3]);
        let text = w.finish();

        let mut r = StateReader::new(&text);
        assert_eq!(r.num::<u64>("a").unwrap(), 7);
        assert_eq!(r.field("name").unwrap(), "disk read");
        assert_eq!(r.f64_field("x").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_field("y").unwrap(), f64::MAX);
        assert_eq!(r.nums::<u64>("empty").unwrap(), Vec::<u64>::new());
        assert_eq!(r.nums::<u64>("vals").unwrap(), vec![1, 2, 3]);
        assert!(r.done());
        assert!(r.expect_done().is_ok());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308] {
            let mut w = StateWriter::new();
            w.f64_field("v", v);
            let text = w.finish();
            let got = StateReader::new(&text).f64_field("v").unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn key_mismatch_and_missing_fields_error() {
        let mut w = StateWriter::new();
        w.field("a", 1u64);
        let text = w.finish();

        let mut r = StateReader::new(&text);
        assert!(r.num::<u64>("b").is_err());

        let mut r = StateReader::new(&text);
        r.num::<u64>("a").unwrap();
        assert!(r.num::<u64>("a").is_err(), "input exhausted");
    }

    #[test]
    fn prefix_keys_do_not_alias() {
        // "ab 1" must not satisfy a request for key "a".
        let mut w = StateWriter::new();
        w.field("ab", 1u64);
        let text = w.finish();
        assert!(StateReader::new(&text).num::<u64>("a").is_err());
    }

    #[test]
    fn trailing_data_is_detected() {
        let mut w = StateWriter::new();
        w.field("a", 1u64);
        w.field("b", 2u64);
        let text = w.finish();
        let mut r = StateReader::new(&text);
        r.num::<u64>("a").unwrap();
        assert!(!r.done());
        assert!(r.expect_done().is_err());
    }

    #[test]
    fn garbage_values_error_instead_of_panicking() {
        let mut r = StateReader::new("a not-a-number\n");
        assert!(r.num::<u64>("a").is_err());
        let mut r = StateReader::new("vals 1 x 3\n");
        assert!(r.nums::<u64>("vals").is_err());
    }

    #[test]
    fn intern_is_stable_and_content_equal() {
        let a = intern("howsim-test-tag");
        let b = intern("howsim-test-tag");
        assert!(std::ptr::eq(a, b), "same content interns to same pointer");
        assert_eq!(a, "howsim-test-tag");
    }
}
