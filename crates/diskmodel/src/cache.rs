//! Segmented drive cache with sequential read-ahead.
//!
//! Drives of the Cheetah era used a cache split into segments, each tracking
//! one sequential stream. After serving a read the drive keeps reading
//! ("prefetch") into the stream's segment, so the *next* sequential request
//! is served from buffer — at media rate rather than seek+rotation cost.
//! This is the mechanism that lets decision-support table scans run at the
//! zone media rate, which the paper's results depend on.
//!
//! The model tracks, per segment, the media read-ahead position as a
//! function of time: a segment installed at time `t0` with the head at LBA
//! `p0` has prefetched up to `p0 + rate·(t − t0)` by time `t`, capped by the
//! segment capacity ahead of the last consumed LBA.

use simcore::state::{StateError, StateReader, StateWriter};
use simcore::{Duration, SimTime};

use crate::geometry::{Geometry, SECTOR_BYTES};

/// Outcome of a cache lookup for a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The request continues a tracked sequential stream; the final byte is
    /// (or will be) in the buffer at `data_ready`.
    Hit {
        /// When the last sector of the request has arrived in the buffer.
        data_ready: SimTime,
    },
    /// Mechanical access required.
    Miss,
}

#[derive(Debug, Clone)]
struct Segment {
    /// Next LBA the host will consume (stream position).
    next_lba: u64,
    /// Media read-ahead position at `as_of`.
    media_pos: u64,
    /// Time at which `media_pos` was observed.
    as_of: SimTime,
    /// LRU stamp.
    last_use: u64,
    /// Memoized zone window `[zone_lo, zone_hi)` with its media-rate
    /// constants: a sequential stream stays inside one zone for ~10^6
    /// sectors, so revalidating with two compares replaces the per-request
    /// zone binary search. Initialized empty (`lo > hi`) to force a fetch.
    zone_lo: u64,
    zone_hi: u64,
    /// Media rate of the memoized zone in bytes per second.
    bps: f64,
    /// Seconds per sector at `bps` (`SECTOR_BYTES / bps`, precomputed).
    sector_secs: f64,
    /// Certified integer nanoseconds per sector (see [`Segment::advance`]).
    sector_ns_hi: u64,
}

impl Segment {
    /// A segment whose stream consumed up to `end` at `done`, with an
    /// empty zone memo (`lo > hi`) that forces a fetch on first use.
    fn new(end: u64, done: SimTime, last_use: u64) -> Self {
        Segment {
            next_lba: end,
            media_pos: end,
            as_of: done,
            last_use,
            zone_lo: 1,
            zone_hi: 0,
            bps: 0.0,
            sector_secs: 0.0,
            sector_ns_hi: 0,
        }
    }

    /// Points the zone memo (and so `bps`, `sector_secs` and
    /// `sector_ns_hi`) at the zone of `pos`; a no-op while `pos` stays
    /// inside the memoized window.
    fn load_zone(&mut self, pos: u64, geo: &Geometry) {
        if !(self.zone_lo <= pos && pos < self.zone_hi) {
            let (lo, hi, bps, sector_secs, sector_ns_hi) = geo.zone_window(pos);
            self.zone_lo = lo;
            self.zone_hi = hi;
            self.bps = bps;
            self.sector_secs = sector_secs;
            self.sector_ns_hi = sector_ns_hi;
        }
    }

    /// `min(media_pos + ⌊elapsed / sector_secs⌋, lim)`: the read-ahead
    /// position `elapsed` after `as_of`, clamped at `lim`, for a stream
    /// whose memo holds the zone of `media_pos`. When `elapsed` is
    /// certain to carry the head to `lim` (at least `lim − media_pos`
    /// sectors at the certified rate), the float divide is skipped; it
    /// would be clamped away.
    #[inline]
    fn advance(&self, elapsed: Duration, lim: u64) -> u64 {
        let need = lim.saturating_sub(self.media_pos);
        if need
            .checked_mul(self.sector_ns_hi)
            .is_some_and(|ns| elapsed.as_nanos() >= ns)
        {
            return lim;
        }
        (self.media_pos + (elapsed.as_secs_f64() / self.sector_secs) as u64).min(lim)
    }
}

/// A segmented read cache with sequential prefetch.
///
/// # Example
///
/// ```
/// use diskmodel::cache::{SegmentedCache, Lookup};
/// use diskmodel::{DiskSpec, Geometry};
/// use simcore::SimTime;
///
/// let spec = DiskSpec::cheetah_9lp();
/// let geo = Geometry::from_spec(&spec);
/// let mut cache = SegmentedCache::new(&spec);
/// // Nothing cached yet: miss.
/// assert_eq!(cache.lookup(SimTime::ZERO, 0, 64, &geo), Lookup::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedCache {
    segments: Vec<Segment>,
    max_segments: usize,
    capacity_sectors: u64,
    clock: u64,
}

impl SegmentedCache {
    /// Creates a cache sized from a drive spec.
    pub fn new(spec: &crate::spec::DiskSpec) -> Self {
        let total_sectors = spec.cache_bytes / SECTOR_BYTES;
        let max_segments = spec.cache_segments.max(1) as usize;
        SegmentedCache {
            segments: Vec::with_capacity(max_segments),
            max_segments,
            capacity_sectors: (total_sectors / max_segments as u64).max(1),
            clock: 0,
        }
    }

    /// Sectors of read-ahead one segment can hold.
    pub fn segment_capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Media read-ahead position of `seg` at time `now`, capped by segment
    /// capacity ahead of the stream position.
    fn media_pos_at(seg: &mut Segment, now: SimTime, geo: &Geometry, cap: u64) -> u64 {
        let elapsed = now.saturating_since(seg.as_of);
        if seg.media_pos >= geo.total_sectors() {
            return geo.total_sectors();
        }
        seg.load_zone(seg.media_pos, geo);
        seg.advance(elapsed, (seg.next_lba + cap).min(geo.total_sectors()))
    }

    /// Looks up a read of `sectors` at `lba`. On a hit, returns when the
    /// data is fully buffered; the caller adds bus transfer.
    pub fn lookup(&mut self, now: SimTime, lba: u64, sectors: u64, geo: &Geometry) -> Lookup {
        let cap = self.capacity_sectors;
        let stamp = self.tick();
        let Some(seg) = self
            .segments
            .iter_mut()
            .find(|s| lba == s.next_lba || (lba >= s.next_lba && lba < s.next_lba + cap))
        else {
            return Lookup::Miss;
        };
        let end = lba + sectors;
        let total = geo.total_sectors();
        // Inlined [`Self::media_pos_at`], sharing `elapsed` with the
        // post-hit position update below. Each read-ahead position skips
        // its divide when the segment capacity is sure to clamp it.
        let at_end = seg.media_pos >= total;
        let elapsed = now.saturating_since(seg.as_of);
        let pos_now = if at_end {
            total
        } else {
            seg.load_zone(seg.media_pos, geo);
            seg.advance(elapsed, (seg.next_lba + cap).min(total))
        };
        if lba > pos_now {
            // Skipped ahead of the read-ahead head: treat as a miss.
            return Lookup::Miss;
        }
        let data_ready = if end <= pos_now {
            now
        } else {
            let remaining = end - pos_now;
            if end > total {
                return Lookup::Miss;
            }
            seg.load_zone(pos_now.min(total - 1), geo);
            let t = Duration::from_secs_f64(remaining as f64 * SECTOR_BYTES as f64 / seg.bps);
            now + t
        };
        // Advance the stream: prefetch continues from max(end, pos at
        // ready). The memo may have moved to `pos_now`'s zone above, so
        // refetch `media_pos`'s (a no-op inside one zone).
        let lim = (end + cap).min(total);
        let pos_ready = if at_end {
            total
        } else if data_ready == now && pos_now < (seg.next_lba + cap).min(total) {
            // Unclamped above, so `pos_now` is the exact advance; `lim`
            // is no tighter (`end > next_lba`).
            pos_now
        } else {
            seg.load_zone(seg.media_pos, geo);
            seg.advance(data_ready.saturating_since(seg.as_of), lim)
        };
        seg.next_lba = end;
        seg.media_pos = end.max(pos_ready);
        seg.as_of = data_ready;
        seg.last_use = stamp;
        Lookup::Hit { data_ready }
    }

    /// Installs (or refreshes) a segment after a mechanical read of
    /// `sectors` at `lba` completing at `done`: read-ahead continues from
    /// the end of the transfer.
    pub fn install(&mut self, done: SimTime, lba: u64, sectors: u64) {
        let stamp = self.tick();
        let end = lba + sectors;
        // Reuse a segment for the same stream if one exists.
        if let Some(seg) = self
            .segments
            .iter_mut()
            .find(|s| s.next_lba == lba || s.next_lba == end)
        {
            seg.next_lba = end;
            seg.media_pos = end;
            seg.as_of = done;
            seg.last_use = stamp;
            return;
        }
        let seg = Segment::new(end, done, stamp);
        if self.segments.len() < self.max_segments {
            self.segments.push(seg);
        } else {
            let victim = self
                .segments
                .iter_mut()
                .min_by_key(|s| s.last_use)
                .expect("max_segments >= 1");
            *victim = seg;
        }
    }

    /// Invalidates any segment overlapping a written extent (write-through,
    /// no write caching — the paper's tasks use raw-disk writes).
    pub fn invalidate(&mut self, lba: u64, sectors: u64) {
        let end = lba + sectors;
        self.segments.retain(|s| {
            s.next_lba + self.capacity_sectors <= lba
                || s.next_lba.saturating_sub(self.capacity_sectors) >= end
        });
    }

    /// Number of active segments.
    pub fn active_segments(&self) -> usize {
        self.segments.len()
    }

    /// Pauses read-ahead across an arm excursion `[from, until]`: each
    /// segment's prefetch position is frozen at its `from` value, since
    /// the head is elsewhere and cannot feed the buffers.
    pub fn pause(&mut self, from: SimTime, until: SimTime, geo: &Geometry) {
        let cap = self.capacity_sectors;
        for seg in &mut self.segments {
            let pos = Self::media_pos_at(seg, from, geo, cap);
            seg.media_pos = pos;
            seg.as_of = seg.as_of.max(until);
        }
    }

    /// Serializes the cache's mutable state for checkpointing. The zone
    /// memo (floating-point rate constants) is deliberately excluded: it
    /// is a pure function of geometry and position and is refetched on
    /// first use after restore, reproducing the same values bit-exactly.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("cache_clock", self.clock);
        w.field("segments", self.segments.len());
        for s in &self.segments {
            w.list(
                "seg",
                [s.next_lba, s.media_pos, s.as_of.as_nanos(), s.last_use],
            );
        }
    }

    /// Restores mutable state into a cache freshly built from the same
    /// spec ([`SegmentedCache::new`] supplies the configuration).
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.clock = r.num("cache_clock")?;
        let n: usize = r.num("segments")?;
        if n > self.max_segments {
            return Err(StateError::new("more segments than the spec allows"));
        }
        self.segments.clear();
        for _ in 0..n {
            let [next_lba, media_pos, as_of, last_use] = r.array("seg")?;
            self.segments.push(Segment {
                media_pos,
                ..Segment::new(next_lba, SimTime::from_nanos(as_of), last_use)
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DiskSpec;

    fn setup() -> (SegmentedCache, Geometry) {
        let spec = DiskSpec::cheetah_9lp();
        (SegmentedCache::new(&spec), Geometry::from_spec(&spec))
    }

    #[test]
    fn cold_cache_misses() {
        let (mut c, geo) = setup();
        assert_eq!(c.lookup(SimTime::ZERO, 0, 8, &geo), Lookup::Miss);
        assert_eq!(c.active_segments(), 0);
    }

    #[test]
    fn sequential_read_hits_after_install() {
        let (mut c, geo) = setup();
        let t0 = SimTime::from_nanos(1_000_000);
        c.install(t0, 0, 512);
        match c.lookup(t0, 512, 64, &geo) {
            Lookup::Hit { data_ready } => {
                // Data arrives after t0 (media still reading ahead).
                assert!(data_ready >= t0);
            }
            Lookup::Miss => panic!("sequential continuation should hit"),
        }
    }

    #[test]
    fn hit_after_long_idle_is_fully_buffered() {
        let (mut c, geo) = setup();
        let t0 = SimTime::ZERO;
        c.install(t0, 0, 64);
        // Wait long enough for the prefetch to fill the segment.
        let later = t0 + Duration::from_millis(100);
        match c.lookup(later, 64, 64, &geo) {
            Lookup::Hit { data_ready } => assert_eq!(data_ready, later),
            Lookup::Miss => panic!("should hit"),
        }
    }

    #[test]
    fn far_random_read_misses() {
        let (mut c, geo) = setup();
        c.install(SimTime::ZERO, 0, 512);
        assert_eq!(
            c.lookup(SimTime::ZERO, 5_000_000, 64, &geo),
            Lookup::Miss,
            "a distant LBA is not covered by the stream segment"
        );
    }

    #[test]
    fn prefetch_is_capped_by_segment_capacity() {
        let (mut c, geo) = setup();
        c.install(SimTime::ZERO, 0, 64);
        let cap = c.segment_capacity_sectors();
        // Even after a very long idle, read-ahead cannot exceed capacity.
        let much_later = SimTime::ZERO + Duration::from_secs(10);
        let beyond = 64 + cap + 1;
        assert_eq!(c.lookup(much_later, beyond, 8, &geo), Lookup::Miss);
    }

    #[test]
    fn lru_eviction_bounds_segments() {
        let (mut c, _geo) = setup();
        for i in 0..100 {
            c.install(SimTime::ZERO, i * 1_000_000, 64);
        }
        assert!(c.active_segments() <= 16);
    }

    #[test]
    fn write_invalidates_overlapping_stream() {
        let (mut c, geo) = setup();
        c.install(SimTime::ZERO, 0, 512);
        c.invalidate(256, 512);
        assert_eq!(c.lookup(SimTime::ZERO, 512, 64, &geo), Lookup::Miss);
    }

    #[test]
    fn two_interleaved_streams_both_hit() {
        let (mut c, geo) = setup();
        let a = 0u64;
        let b = 8_000_000u64;
        c.install(SimTime::ZERO, a, 512);
        c.install(SimTime::ZERO, b, 512);
        let later = SimTime::ZERO + Duration::from_millis(50);
        assert!(matches!(
            c.lookup(later, a + 512, 64, &geo),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup(later, b + 512, 64, &geo),
            Lookup::Hit { .. }
        ));
    }

    impl SegmentedCache {
        /// The float reference for [`SegmentedCache::lookup`]: both
        /// read-ahead positions computed with the divide, always.
        fn lookup_reference(
            &mut self,
            now: SimTime,
            lba: u64,
            sectors: u64,
            geo: &Geometry,
        ) -> Lookup {
            let cap = self.capacity_sectors;
            let stamp = self.tick();
            let Some(seg) = self
                .segments
                .iter_mut()
                .find(|s| lba == s.next_lba || (lba >= s.next_lba && lba < s.next_lba + cap))
            else {
                return Lookup::Miss;
            };
            let end = lba + sectors;
            let total = geo.total_sectors();
            let (at_end, sector_secs, advanced) = if seg.media_pos >= total {
                (true, 0.0, 0)
            } else {
                seg.load_zone(seg.media_pos.min(total - 1), geo);
                let (ss, elapsed) = (seg.sector_secs, now.saturating_since(seg.as_of));
                (false, ss, (elapsed.as_secs_f64() / ss) as u64)
            };
            let pos_now = if at_end {
                total
            } else {
                (seg.media_pos + advanced)
                    .min(seg.next_lba + cap)
                    .min(total)
            };
            if lba > pos_now {
                return Lookup::Miss;
            }
            let data_ready = if end <= pos_now {
                now
            } else {
                let remaining = end - pos_now;
                if end > total {
                    return Lookup::Miss;
                }
                seg.load_zone(pos_now.min(total - 1), geo);
                let t = Duration::from_secs_f64(remaining as f64 * SECTOR_BYTES as f64 / seg.bps);
                now + t
            };
            let pos_ready = if at_end {
                total
            } else if data_ready == now {
                (seg.media_pos + advanced).min(end + cap).min(total)
            } else {
                let elapsed = data_ready.saturating_since(seg.as_of);
                let advanced = (elapsed.as_secs_f64() / sector_secs) as u64;
                (seg.media_pos + advanced).min(end + cap).min(total)
            };
            seg.next_lba = end;
            seg.media_pos = end.max(pos_ready);
            seg.as_of = data_ready;
            seg.last_use = stamp;
            Lookup::Hit { data_ready }
        }

        /// The checkpointed state of every segment, for comparisons.
        fn state(&self) -> Vec<[u64; 4]> {
            self.segments
                .iter()
                .map(|s| [s.next_lba, s.media_pos, s.as_of.as_nanos(), s.last_use])
                .collect()
        }
    }

    /// Replays one random stream workload on two caches, one through
    /// `lookup` and one through the float reference, asserting equal
    /// outcomes and equal segment state after every step. Streams start
    /// near zone boundaries and the end of the disk; gaps range from
    /// back-to-back (`as_of > now` after a slow hit) to long idles that
    /// fill the segment.
    fn replay_against_reference(seed: u64, steps: usize) {
        let (mut fast, geo) = setup();
        let mut slow = fast.clone();
        let mut rng = simcore::SplitMix64::new(seed);
        let total = geo.total_sectors();
        let zones = geo.zones();
        let mut now = SimTime::ZERO;
        let mut streams: Vec<u64> = Vec::new();
        for _ in 0..steps {
            let gap = match rng.next_below(4) {
                0 => 0,
                1 => rng.next_below(200_000),
                2 => rng.next_below(20_000_000),
                _ => rng.next_below(2_000_000_000),
            };
            now += Duration::from_nanos(gap);
            let sectors = [8, 128, 512, 1_024][rng.next_below(4) as usize];
            if streams.is_empty() || rng.next_below(8) == 0 {
                let z = &zones[rng.next_below(zones.len() as u64) as usize];
                let start = match rng.next_below(3) {
                    0 => z.first_lba + z.sectors - rng.next_below(4_096).min(z.sectors),
                    1 => total - rng.next_below(4_096) - sectors,
                    _ => z.first_lba + rng.next_below(z.sectors),
                }
                .min(total - sectors);
                // A mechanical read finishing in the future (`as_of > now`).
                let done = now + Duration::from_nanos(rng.next_below(30_000_000));
                fast.install(done, start, sectors);
                slow.install(done, start, sectors);
                streams.push(start + sectors);
                continue;
            }
            let i = rng.next_below(streams.len() as u64) as usize;
            let lba = streams[i] + rng.next_below(3) * rng.next_below(64);
            if lba + sectors > total {
                streams.swap_remove(i);
                continue;
            }
            let a = fast.lookup(now, lba, sectors, &geo);
            let b = slow.lookup_reference(now, lba, sectors, &geo);
            assert_eq!(a, b, "seed {seed}: lookup at {lba} +{sectors} @ {now}");
            assert_eq!(fast.state(), slow.state(), "seed {seed}");
            if let Lookup::Hit { .. } = a {
                streams[i] = lba + sectors;
            }
            if rng.next_below(16) == 0 {
                let until = now + Duration::from_nanos(rng.next_below(50_000_000));
                fast.pause(now, until, &geo);
                slow.pause(now, until, &geo);
                assert_eq!(fast.state(), slow.state(), "seed {seed}: pause");
            }
        }
    }

    #[test]
    fn lookup_matches_float_reference_on_scan_streams() {
        for seed in 0..40 {
            replay_against_reference(seed, 400);
        }
    }

    #[test]
    fn lookup_matches_float_reference_at_end_of_disk() {
        // A stream whose read-ahead already reached the last sector
        // (`at_end`) and one that reaches it during the lookup.
        let (mut fast, geo) = setup();
        let total = geo.total_sectors();
        for start in [total - 64, total - 1_024, total - 40_000] {
            let mut slow = fast.clone();
            fast.install(SimTime::ZERO, start, 64);
            slow.install(SimTime::ZERO, start, 64);
            let mut now = SimTime::ZERO;
            let mut lba = start + 64;
            while lba + 8 <= total {
                now += Duration::from_millis(3);
                let a = fast.lookup(now, lba, 8, &geo);
                assert_eq!(a, slow.lookup_reference(now, lba, 8, &geo));
                assert_eq!(fast.state(), slow.state());
                lba += 8 * 97;
            }
        }
    }

    #[test]
    fn certified_bound_is_never_looser_than_the_divide() {
        // At exactly `need × sector_ns_hi` ns, the divide must already
        // reach `need`; one bound-width below, it may or may not.
        let geo = setup().1;
        for zn_lba in geo.zones().iter().map(|z| z.first_lba) {
            let (_, _, _, ss, hi) = geo.zone_window(zn_lba);
            for need in [1u64, 2, 7, 64, 1_000, 24_576, 1 << 20, 17_000_000] {
                let ns = need * hi;
                let q = (Duration::from_nanos(ns).as_secs_f64() / ss) as u64;
                assert!(q >= need, "need {need}: {q} at {ns} ns");
            }
        }
    }

    proptest::proptest! {
        /// Random stream workloads: `lookup` equals the float reference.
        #[test]
        fn prop_lookup_matches_float_reference(seed in 1_000u64..1_000_000) {
            replay_against_reference(seed, 200);
        }
    }
}
