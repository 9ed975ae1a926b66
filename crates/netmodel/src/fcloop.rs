//! Fibre Channel Arbitrated Loop model.
//!
//! The Active Disk configurations attach every disk (and the front-end) to
//! a **dual-loop** FC-AL: two independent 100 MB/s arbitrated loops, 200
//! MB/s aggregate. An arbitrated loop is a *shared medium*: one
//! transmission at a time per loop, so the effective bisection bandwidth is
//! fixed at the aggregate loop rate no matter how many devices attach —
//! this is why the paper finds the dual loop sufficient up to 64 disks but
//! saturating at 128 for repartitioning tasks (Figure 3), and why it
//! recommends a FibreSwitch beyond that.
//!
//! Each tenancy pays an arbitration overhead before transferring; frames
//! carry protocol overhead captured by an efficiency factor.

use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Bandwidth, Duration, FifoServer, SimTime};

/// Default arbitration time to win a loop tenancy.
pub const DEFAULT_ARBITRATION: Duration = Duration::from_micros(8);

/// Default payload efficiency of FC framing (2,048-byte payloads plus
/// headers/CRC/primitives).
pub const DEFAULT_EFFICIENCY: f64 = 0.95;

/// A dual (or n-way) Fibre Channel Arbitrated Loop.
///
/// # Example
///
/// ```
/// use netmodel::FcLoop;
/// use simcore::{Bandwidth, SimTime};
///
/// // The paper's baseline: dual loop, 200 MB/s aggregate.
/// let mut fc = FcLoop::dual(Bandwidth::from_mb_per_sec(200.0));
/// let arrival = fc.transfer(SimTime::ZERO, 0, 2_000_000, "results");
/// assert!(arrival.as_secs_f64() > 0.02, "2 MB at ~95 MB/s per loop");
/// ```
#[derive(Debug, Clone)]
pub struct FcLoop {
    loops: Vec<FifoServer>,
    /// Indices of loops still carrying traffic; a dropped loop keeps its
    /// server (so busy accounting survives) but receives no new tenancies.
    active: Vec<usize>,
    per_loop: Bandwidth,
    arbitration: Duration,
    efficiency: f64,
    bytes: u64,
    /// Memoized `(bytes, wire_time(bytes))` of the last transfer.
    cached: Option<(u64, Duration)>,
}

impl FcLoop {
    /// A dual loop with the given aggregate bandwidth (each loop carries
    /// half), default arbitration and framing efficiency.
    pub fn dual(aggregate: Bandwidth) -> Self {
        Self::with_loops(2, aggregate, DEFAULT_ARBITRATION, DEFAULT_EFFICIENCY)
    }

    /// A loop set with `n` loops sharing `aggregate` bandwidth equally.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `efficiency` is not in `(0, 1]`.
    pub fn with_loops(
        n: usize,
        aggregate: Bandwidth,
        arbitration: Duration,
        efficiency: f64,
    ) -> Self {
        assert!(n > 0, "need at least one loop");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        FcLoop {
            loops: vec![FifoServer::new(); n],
            active: (0..n).collect(),
            per_loop: Bandwidth::from_bytes_per_sec(aggregate.bytes_per_sec() / n as f64),
            arbitration,
            efficiency,
            bytes: 0,
            cached: None,
        }
    }

    /// Drops loop `ix` from service: devices formerly assigned to it fail
    /// over to the surviving loops, which now carry all traffic.
    ///
    /// Dropping an already-dropped loop is a no-op; the last active loop
    /// refuses to drop (a totally dead interconnect would deadlock the
    /// simulation rather than model anything).
    pub fn fail_loop(&mut self, ix: usize) {
        if self.active.len() <= 1 {
            return;
        }
        self.active.retain(|&a| a != ix % self.loops.len());
    }

    /// Transfers `bytes` from device `src` at `now`; returns delivery time.
    ///
    /// The source's loop is chosen statically by device parity, the usual
    /// dual-loop assignment for drives with two ports.
    pub fn transfer(&mut self, now: SimTime, src: usize, bytes: u64, tag: &'static str) -> SimTime {
        let loop_ix = self.active[src % self.active.len()];
        // Memoized for the dominant fixed-size batch traffic: identical
        // expression, identical result, so reports stay bit-identical.
        let wire_time = match self.cached {
            Some((b, d)) if b == bytes => d,
            _ => {
                let d = self.per_loop.scale(self.efficiency).transfer_time(bytes);
                self.cached = Some((bytes, d));
                d
            }
        };
        let grant = self.loops[loop_ix].offer(now, self.arbitration + wire_time, tag);
        self.bytes += bytes;
        grant.end
    }

    /// Aggregate nominal bandwidth across loops.
    pub fn aggregate_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.per_loop.bytes_per_sec() * self.loops.len() as f64)
    }

    /// Number of loops.
    pub fn loop_count(&self) -> usize {
        self.loops.len()
    }

    /// Total bytes carried across all loops.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes
    }

    /// Earliest time any loop is free.
    pub fn free_at(&self) -> SimTime {
        self.loops
            .iter()
            .map(FifoServer::free_at)
            .min()
            .expect("at least one loop")
    }

    /// Cumulative busy (tenancy) time summed across all loops.
    pub fn busy_total(&self) -> Duration {
        self.loops.iter().map(FifoServer::busy_total).sum()
    }

    /// Cumulative queueing time summed across all loops
    /// (request→arbitration-grant).
    pub fn wait_total(&self) -> Duration {
        self.loops.iter().map(FifoServer::wait_total).sum()
    }

    /// Serializes the loop set's mutable state for checkpointing: the
    /// active-loop set (mutated by [`FcLoop::fail_loop`]), byte counter,
    /// and every loop's server. Rates and arbitration are configuration.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("bytes", self.bytes);
        w.list("active", self.active.iter().copied());
        w.field("loops", self.loops.len());
        for l in &self.loops {
            l.save_state(w);
        }
    }

    /// Restores state saved by [`FcLoop::save_state`] into a loop set
    /// built with the same configuration. The wire-time memo is dropped;
    /// it repopulates with identical values.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input, a loop-count mismatch,
    /// or an invalid active set.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let bytes = r.num("bytes")?;
        let active: Vec<usize> = r.nums("active")?;
        let n: usize = r.num("loops")?;
        if n != self.loops.len() {
            return Err(StateError::new("loop count mismatch"));
        }
        if active.is_empty() || active.iter().any(|&a| a >= n) {
            return Err(StateError::new("invalid active loop set"));
        }
        let mut loops = Vec::with_capacity(n);
        for _ in 0..n {
            loops.push(FifoServer::load_state(r)?);
        }
        self.loops = loops;
        self.active = active;
        self.bytes = bytes;
        self.cached = None;
        Ok(())
    }

    /// Aggregate utilization over `elapsed`.
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let busy = self.busy_total();
        (busy.as_secs_f64() / (elapsed.as_secs_f64() * self.loops.len() as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dual200() -> FcLoop {
        FcLoop::dual(Bandwidth::from_mb_per_sec(200.0))
    }

    #[test]
    fn loops_split_aggregate_bandwidth() {
        let fc = dual200();
        assert_eq!(fc.loop_count(), 2);
        assert!((fc.aggregate_bandwidth().mb_per_sec() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn same_parity_sources_contend() {
        let mut fc = dual200();
        let a = fc.transfer(SimTime::ZERO, 0, 1_000_000, "x");
        let b = fc.transfer(SimTime::ZERO, 2, 1_000_000, "x");
        // Both on loop 0: serialized.
        assert!(b > a);
        assert!(b.as_secs_f64() >= 2.0 * 1_000_000.0 / (100e6 * DEFAULT_EFFICIENCY));
    }

    #[test]
    fn opposite_parity_sources_run_in_parallel() {
        let mut fc = dual200();
        let a = fc.transfer(SimTime::ZERO, 0, 1_000_000, "x");
        let b = fc.transfer(SimTime::ZERO, 1, 1_000_000, "x");
        assert_eq!(a, b, "different loops do not contend");
    }

    #[test]
    fn bisection_does_not_grow_with_devices() {
        // 16 or 128 senders: total time for the same aggregate volume is
        // identical — the defining FC-AL property.
        let volume_each = 1_000_000u64;
        let run = |senders: usize| {
            let mut fc = dual200();
            let mut last = SimTime::ZERO;
            for s in 0..senders {
                let t = fc.transfer(SimTime::ZERO, s, volume_each * 16 / senders as u64, "x");
                last = last.max(t);
            }
            last
        };
        let t16 = run(16);
        let t128 = run(128);
        let ratio = t16.as_secs_f64() / t128.as_secs_f64();
        assert!(
            (0.9..1.1).contains(&ratio),
            "same volume, same time regardless of fan-in: {ratio}"
        );
    }

    #[test]
    fn doubling_bandwidth_halves_transfer_time() {
        let mut fc200 = dual200();
        let mut fc400 = FcLoop::dual(Bandwidth::from_mb_per_sec(400.0));
        let t200 = fc200.transfer(SimTime::ZERO, 0, 50_000_000, "x");
        let t400 = fc400.transfer(SimTime::ZERO, 0, 50_000_000, "x");
        let ratio = t200.as_secs_f64() / t400.as_secs_f64();
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn dropped_loop_forces_survivor_contention() {
        let mut fc = dual200();
        fc.fail_loop(1);
        // Both parities now land on loop 0 and serialize.
        let a = fc.transfer(SimTime::ZERO, 0, 1_000_000, "x");
        let b = fc.transfer(SimTime::ZERO, 1, 1_000_000, "x");
        assert!(b > a, "survivor loop serializes all traffic");
    }

    #[test]
    fn last_active_loop_refuses_to_drop() {
        let mut fc = dual200();
        fc.fail_loop(0);
        fc.fail_loop(1);
        fc.fail_loop(1);
        // Still functional: one loop survives.
        let t = fc.transfer(SimTime::ZERO, 3, 1_000, "x");
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn state_round_trips_after_loop_failure() {
        let mut live = dual200();
        live.transfer(SimTime::ZERO, 0, 1_000_000, "x");
        live.transfer(SimTime::ZERO, 1, 500_000, "y");
        live.fail_loop(1);

        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();

        let mut restored = dual200();
        restored
            .load_state(&mut StateReader::new(&text))
            .expect("restore");

        // Post-failure routing (all parities on loop 0) must carry over.
        let now = SimTime::ZERO + Duration::from_millis(50);
        for src in [0usize, 1, 2, 3] {
            assert_eq!(
                live.transfer(now, src, 123_456, "z"),
                restored.transfer(now, src, 123_456, "z"),
                "continuation diverged for src {src}"
            );
        }
        assert_eq!(live.bytes_carried(), restored.bytes_carried());
        assert_eq!(live.busy_total(), restored.busy_total());
        assert_eq!(live.wait_total(), restored.wait_total());
    }

    #[test]
    fn load_state_rejects_mismatched_loop_count() {
        let live = dual200();
        let mut w = StateWriter::new();
        live.save_state(&mut w);
        let text = w.finish();
        let mut four = FcLoop::with_loops(
            4,
            Bandwidth::from_mb_per_sec(200.0),
            DEFAULT_ARBITRATION,
            DEFAULT_EFFICIENCY,
        );
        assert!(four.load_state(&mut StateReader::new(&text)).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one loop")]
    fn zero_loops_rejected() {
        FcLoop::with_loops(0, Bandwidth::from_mb_per_sec(100.0), Duration::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn bad_efficiency_rejected() {
        FcLoop::with_loops(2, Bandwidth::from_mb_per_sec(100.0), Duration::ZERO, 1.5);
    }

    proptest! {
        /// Delivery time is never earlier than the wire time of the
        /// message itself.
        #[test]
        fn prop_wire_time_lower_bound(src in 0usize..64, bytes in 1u64..10_000_000) {
            let mut fc = dual200();
            let t = fc.transfer(SimTime::ZERO, src, bytes, "x");
            let wire = bytes as f64 / (100e6 * DEFAULT_EFFICIENCY);
            prop_assert!(t.as_secs_f64() >= wire);
        }
    }
}
