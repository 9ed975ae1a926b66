//! Defect management: grown defects remapped to a spare region.
//!
//! DiskSim (which the paper's Howsim embeds) models "zoned disks, spare
//! regions, defect management...". Drives reserve spare sectors; when a
//! sector grows a defect it is remapped there, so a logically sequential
//! transfer that crosses a remapped sector physically detours to the spare
//! region and back — turning one smooth transfer into several fragments
//! with seeks in between. [`DefectMap`] tracks the remapping and splits
//! logical extents into physical fragments.

use std::collections::BTreeMap;

use simcore::state::{StateError, StateReader, StateWriter};

/// A drive's grown-defect table and spare-region allocator.
///
/// # Example
///
/// ```
/// use diskmodel::defects::DefectMap;
///
/// let mut defects = DefectMap::new(1_000_000, 1_024);
/// defects.grow_defect(500).expect("spare available");
/// // A 4-sector read over the defect splits into three fragments:
/// // [498,500), the remapped sector, and [501,502).
/// let frags = defects.translate(498, 4);
/// assert_eq!(frags.len(), 3);
/// assert_eq!(frags[0], (498, 2));
/// assert_eq!(frags[1], (1_000_000, 1));
/// assert_eq!(frags[2], (501, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DefectMap {
    /// Defective LBA → spare-region LBA.
    remapped: BTreeMap<u64, u64>,
    spare_start: u64,
    spare_len: u64,
    spare_used: u64,
}

/// The spare region is exhausted; the drive would be failed in the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpareExhausted;

impl std::fmt::Display for SpareExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spare region exhausted")
    }
}

impl std::error::Error for SpareExhausted {}

impl DefectMap {
    /// Creates a defect map with a spare region of `spare_len` sectors
    /// starting at `spare_start`.
    pub fn new(spare_start: u64, spare_len: u64) -> Self {
        DefectMap {
            remapped: BTreeMap::new(),
            spare_start,
            spare_len,
            spare_used: 0,
        }
    }

    /// Marks `lba` defective, remapping it to the next spare sector.
    /// Re-growing an already remapped sector is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`SpareExhausted`] if no spare sectors remain.
    pub fn grow_defect(&mut self, lba: u64) -> Result<(), SpareExhausted> {
        if self.remapped.contains_key(&lba) {
            return Ok(());
        }
        if self.spare_used >= self.spare_len {
            return Err(SpareExhausted);
        }
        let spare = self.spare_start + self.spare_used;
        self.spare_used += 1;
        self.remapped.insert(lba, spare);
        Ok(())
    }

    /// Number of remapped sectors.
    pub fn grown(&self) -> usize {
        self.remapped.len()
    }

    /// Spare sectors still available.
    pub fn spare_remaining(&self) -> u64 {
        self.spare_len - self.spare_used
    }

    /// Splits a logical extent `[lba, lba+sectors)` into physical
    /// fragments `(physical_lba, sectors)` in logical order, detouring
    /// through the spare region for each remapped sector.
    ///
    /// # Panics
    ///
    /// Panics if `sectors` is zero.
    pub fn translate(&self, lba: u64, sectors: u64) -> Vec<(u64, u64)> {
        assert!(sectors > 0, "empty extent");
        let end = lba + sectors;
        let mut frags: Vec<(u64, u64)> = Vec::new();
        let mut at = lba;
        for (&bad, &spare) in self.remapped.range(lba..end) {
            if bad > at {
                frags.push((at, bad - at));
            }
            frags.push((spare, 1));
            at = bad + 1;
        }
        if at < end {
            frags.push((at, end - at));
        }
        // Merge adjacent physical fragments (consecutive spares).
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(frags.len());
        for (p, n) in frags {
            match merged.last_mut() {
                Some((lp, ln)) if *lp + *ln == p => *ln += n,
                _ => merged.push((p, n)),
            }
        }
        merged
    }

    /// Serializes the grown-defect table for checkpointing.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.field("spare_used", self.spare_used);
        w.field("defects", self.remapped.len());
        for (&bad, &spare) in &self.remapped {
            w.list("remap", [bad, spare]);
        }
    }

    /// Restores the grown-defect table into a map freshly built with the
    /// same spare-region configuration ([`DefectMap::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on malformed input or an out-of-range
    /// spare count.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let spare_used: u64 = r.num("spare_used")?;
        if spare_used > self.spare_len {
            return Err(StateError::new("spare_used exceeds spare region"));
        }
        let n: usize = r.num("defects")?;
        self.remapped.clear();
        for _ in 0..n {
            let [bad, spare] = r.array("remap")?;
            self.remapped.insert(bad, spare);
        }
        self.spare_used = spare_used;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clean_extent_is_one_fragment() {
        let d = DefectMap::new(1_000, 16);
        assert_eq!(d.translate(0, 100), vec![(0, 100)]);
    }

    #[test]
    fn defect_splits_extent() {
        let mut d = DefectMap::new(1_000, 16);
        d.grow_defect(50).unwrap();
        let frags = d.translate(40, 20);
        assert_eq!(frags, vec![(40, 10), (1_000, 1), (51, 9)]);
    }

    #[test]
    fn defect_at_extent_edges() {
        let mut d = DefectMap::new(1_000, 16);
        d.grow_defect(10).unwrap();
        d.grow_defect(19).unwrap();
        let frags = d.translate(10, 10);
        assert_eq!(frags, vec![(1_000, 1), (11, 8), (1_001, 1)]);
    }

    #[test]
    fn adjacent_spares_merge() {
        let mut d = DefectMap::new(1_000, 16);
        d.grow_defect(5).unwrap();
        d.grow_defect(6).unwrap();
        // Two consecutive bad sectors remap to consecutive spares: one
        // physical fragment.
        let frags = d.translate(5, 2);
        assert_eq!(frags, vec![(1_000, 2)]);
    }

    #[test]
    fn regrowing_is_idempotent() {
        let mut d = DefectMap::new(1_000, 2);
        d.grow_defect(7).unwrap();
        d.grow_defect(7).unwrap();
        assert_eq!(d.grown(), 1);
        assert_eq!(d.spare_remaining(), 1);
    }

    #[test]
    fn spares_exhaust() {
        let mut d = DefectMap::new(1_000, 2);
        d.grow_defect(1).unwrap();
        d.grow_defect(2).unwrap();
        assert_eq!(d.grow_defect(3), Err(SpareExhausted));
        assert!(!SpareExhausted.to_string().is_empty());
    }

    #[test]
    fn regrowing_keeps_the_original_spare_mapping() {
        let mut d = DefectMap::new(1_000, 16);
        d.grow_defect(7).unwrap();
        let first = d.translate(7, 1);
        d.grow_defect(8).unwrap();
        // Re-growing 7 must not move it to a new spare sector.
        d.grow_defect(7).unwrap();
        assert_eq!(d.translate(7, 1), first);
        assert_eq!(first, vec![(1_000, 1)]);
        assert_eq!(d.translate(8, 1), vec![(1_001, 1)]);
    }

    #[test]
    fn translate_spans_multiple_scattered_remaps() {
        let mut d = DefectMap::new(1_000, 16);
        // Non-adjacent defects inside one extent: each forces its own
        // detour to a spare sector that is NOT adjacent to the previous
        // fragment, so nothing merges.
        d.grow_defect(12).unwrap();
        d.grow_defect(15).unwrap();
        d.grow_defect(19).unwrap();
        let frags = d.translate(10, 12);
        assert_eq!(
            frags,
            vec![
                (10, 2),
                (1_000, 1),
                (13, 2),
                (1_001, 1),
                (16, 3),
                (1_002, 1),
                (20, 2),
            ]
        );
        let total: u64 = frags.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 12, "translation conserves the extent");
    }

    #[test]
    fn exhausted_map_still_translates_and_tolerates_regrowth() {
        let mut d = DefectMap::new(1_000, 2);
        d.grow_defect(4).unwrap();
        d.grow_defect(9).unwrap();
        assert_eq!(d.grow_defect(5), Err(SpareExhausted));
        // The failed growth must not corrupt the table: existing remaps
        // hold, the rejected LBA stays un-remapped, and re-growing an
        // already-remapped sector is still the documented no-op even
        // with zero spares left.
        assert_eq!(d.grown(), 2);
        assert_eq!(d.spare_remaining(), 0);
        assert_eq!(d.grow_defect(4), Ok(()));
        assert_eq!(d.translate(4, 1), vec![(1_000, 1)]);
        assert_eq!(d.translate(5, 1), vec![(5, 1)]);
        assert_eq!(
            d.translate(3, 8),
            vec![(3, 1), (1_000, 1), (5, 4), (1_001, 1), (10, 1)]
        );
        // A second exhausted growth keeps failing deterministically.
        assert_eq!(d.grow_defect(6), Err(SpareExhausted));
        assert_eq!(d.grown(), 2);
    }

    proptest! {
        /// Translation conserves sector count and never emits the
        /// defective LBAs themselves.
        #[test]
        fn prop_translation_conserves(
            defects in proptest::collection::btree_set(0u64..500, 0..30),
            start in 0u64..400,
            len in 1u64..100,
        ) {
            let mut d = DefectMap::new(10_000, 64);
            for &bad in &defects {
                d.grow_defect(bad).unwrap();
            }
            let frags = d.translate(start, len);
            let total: u64 = frags.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(total, len);
            for &(p, n) in &frags {
                for s in p..p + n {
                    if s < 10_000 {
                        prop_assert!(!defects.contains(&s), "emitted bad sector {s}");
                    }
                }
            }
        }

        /// Fragments appear in logical order and cover the extent exactly
        /// once (no physical overlap within the data region).
        #[test]
        fn prop_fragments_tile(start in 0u64..1_000, len in 1u64..200) {
            let mut d = DefectMap::new(100_000, 64);
            for bad in (start..start + len).step_by(7) {
                d.grow_defect(bad).unwrap();
            }
            let frags = d.translate(start, len);
            let total: u64 = frags.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(total, len);
            prop_assert!(!frags.is_empty());
        }
    }
}
