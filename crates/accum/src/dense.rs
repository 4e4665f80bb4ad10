//! The dense marker-based accumulator (§III-C).
//!
//! A value array of length `ncols` plus a marker array of the same length.
//! State per slot `j` for the current row epoch `cur`:
//!
//! * `marks[j] < cur` (stale) — slot not used this row;
//! * `marks[j] == cur` — `j` is in the mask but unwritten;
//! * `marks[j] == cur + 1` — `j` has an accumulated value in `vals[j]`.
//!
//! Between rows only the epoch is bumped (O(1) reset); a narrow marker
//! overflows periodically and forces an O(ncols) clear, the trade-off the
//! paper's Fig. 13 measures.
//!
//! The masked linear scan ([`Accumulator::accumulate_masked_run`]) can
//! filter eight B columns at a time on AVX2: it gathers `marks[j]` for
//! eight columns, drops the stale lanes (columns outside the mask) and
//! updates the fresh ones in column order. Every marker width is covered;
//! the marks array carries a few bytes of padding past `ncols` so narrow
//! marks can be read as 32-bit lanes.

use crate::lanes;
use crate::marker::{advance_epoch, Marker};
use crate::Accumulator;
use mspgemm_rt::{failpoint, obs};
use mspgemm_sparse::{Idx, Semiring};

/// Dense accumulator with `M`-typed epoch markers.
///
/// "The dense accumulator may be preferred when the dimension of the matrix
/// is small, or when there is significant spatial locality in the writes"
/// (§III-C) — the com-Orkut discussion in §V-B shows exactly that effect.
///
/// `METER` selects the observability instantiation at compile time: the
/// default `false` build carries no counting code at all (the hot loops
/// are instruction-identical to an uninstrumented accumulator), while the
/// driver swaps in the `true` instantiation when metrics are armed.
pub struct DenseAccumulator<S: Semiring, M: Marker, const METER: bool = false> {
    vals: Vec<S::T>,
    marks: Vec<M>,
    /// Current row's "in mask" epoch; `cur + 1` is "written".
    cur: u64,
    full_resets: u64,
    /// Whether the masked-scan filter may engage: AVX2 was detected and
    /// `1 ≤ ncols ≤ i32::MAX`, so every column is a signed 32-bit gather
    /// index.
    filter_ok: bool,
    /// Plain (non-atomic) observability scratch, only ever touched by the
    /// `METER = true` instantiation and folded into the global registry by
    /// [`Accumulator::flush_metrics`] once per tile.
    mask_hits: u64,
    mask_misses: u64,
    unflushed_resets: u64,
}

impl<S: Semiring, M: Marker, const METER: bool> DenseAccumulator<S, M, METER> {
    /// Create an accumulator for outputs with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        DenseAccumulator {
            vals: vec![S::zero(); ncols],
            marks: vec![M::default(); ncols + lanes::mark_pad::<M>()],
            cur: 0, // first begin_row() advances to 2
            full_resets: 0,
            filter_ok: (1..=i32::MAX as usize).contains(&ncols) && lanes::avx2_available(),
            mask_hits: 0,
            mask_misses: 0,
            unflushed_resets: 0,
        }
    }

    /// Number of columns this accumulator covers.
    pub fn ncols(&self) -> usize {
        self.vals.len()
    }

    /// The masked linear scan with the 8-lane mark filter (see the module
    /// docs). Tallies stay exact under `METER`: one hit per fresh lane, one
    /// miss per stale lane. A group holding a column `≥ ncols` falls back
    /// to the bounds-checked scalar loop.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    /// # Safety
    /// AVX2 is available and `1 ≤ ncols ≤ i32::MAX` (`filter_ok`).
    unsafe fn masked_run_avx2(&mut self, a: S::T, bcols: &[Idx], bvals: &[S::T]) {
        use std::arch::x86_64::*;
        let n = bcols.len().min(bvals.len());
        let written = M::from_epoch(self.cur + 1);
        let last = _mm256_set1_epi32((self.vals.len() - 1) as i32);
        let mut c = 0;
        while c + 8 <= n {
            // SAFETY: c + 8 <= n <= bcols.len(); unaligned load is fine
            let vj = unsafe { _mm256_loadu_si256(bcols.as_ptr().add(c).cast()) };
            // all eight columns ≤ ncols - 1 (unsigned) ⇔ max(vj, last) == last
            let in_range = _mm256_cmpeq_epi32(_mm256_max_epu32(vj, last), last);
            if _mm256_movemask_ps(_mm256_castsi256_ps(in_range)) != 0xff {
                for l in c..c + 8 {
                    self.accumulate_masked(bcols[l], a, bvals[l]);
                }
                c += 8;
                continue;
            }
            // SAFETY: every lane is a column < ncols ≤ i32::MAX, and
            // `marks` carries `mark_pad` elements past ncols
            let fresh = unsafe { lanes::fresh_lanes(self.marks.as_ptr(), vj, self.cur) };
            if METER {
                self.mask_hits += u64::from(fresh.count_ones());
                self.mask_misses += 8 - u64::from(fresh.count_ones());
            }
            let mut live = fresh;
            while live != 0 {
                let l = c + live.trailing_zeros() as usize;
                live &= live - 1;
                let j = bcols[l] as usize;
                if self.marks[j] == written {
                    self.vals[j] = S::fma(self.vals[j], a, bvals[l]);
                } else {
                    self.marks[j] = written;
                    self.vals[j] = S::mul(a, bvals[l]);
                }
            }
            c += 8;
        }
        for (&j, &b) in bcols[c..n].iter().zip(&bvals[c..n]) {
            self.accumulate_masked(j, a, b);
        }
    }
}

impl<S: Semiring, M: Marker, const METER: bool> Accumulator<S> for DenseAccumulator<S, M, METER> {
    #[inline]
    fn begin_row(&mut self) {
        failpoint::maybe_fire(failpoint::ACCUM_RESET, self.cur);
        let (next, overflow) = advance_epoch::<M>(self.cur);
        if overflow {
            // Fig. 13's trade-off: the narrow marker just overflowed, so
            // every slot must be cleared before epochs can be reused.
            self.marks.fill(M::default());
            self.full_resets += 1;
            if METER {
                self.unflushed_resets += 1;
            }
        }
        self.cur = next;
    }

    #[inline(always)]
    fn set_mask(&mut self, j: Idx) {
        let ju = j as usize;
        // idempotent admit: never downgrade a slot already written this row
        if self.marks[ju] != M::from_epoch(self.cur + 1) {
            self.marks[ju] = M::from_epoch(self.cur);
        }
    }

    #[inline(always)]
    fn accumulate_masked(&mut self, j: Idx, a: S::T, b: S::T) -> bool {
        let j = j as usize;
        let mark = self.marks[j];
        if mark == M::from_epoch(self.cur + 1) {
            // already written this row: accumulate
            self.vals[j] = S::fma(self.vals[j], a, b);
            if METER {
                self.mask_hits += 1;
            }
            true
        } else if mark == M::from_epoch(self.cur) {
            // in mask, first write
            self.marks[j] = M::from_epoch(self.cur + 1);
            self.vals[j] = S::mul(a, b);
            if METER {
                self.mask_hits += 1;
            }
            true
        } else {
            // not in the mask: discard (Fig. 5 line 13)
            if METER {
                self.mask_misses += 1;
            }
            false
        }
    }

    #[inline(always)]
    fn accumulate_masked_run(&mut self, a: S::T, bcols: &[Idx], bvals: &[S::T], simd: bool) {
        if simd && self.filter_ok && bcols.len() >= lanes::FILTER_MIN_LEN {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `filter_ok` holds only when AVX2 was detected at
                // runtime and every in-range column fits an i32 index
                unsafe { self.masked_run_avx2(a, bcols, bvals) };
                return;
            }
        }
        for (&j, &b) in bcols.iter().zip(bvals) {
            self.accumulate_masked(j, a, b);
        }
    }

    #[inline(always)]
    fn accumulate_any(&mut self, j: Idx, a: S::T, b: S::T) {
        let j = j as usize;
        if self.marks[j] == M::from_epoch(self.cur + 1) {
            self.vals[j] = S::fma(self.vals[j], a, b);
        } else {
            self.marks[j] = M::from_epoch(self.cur + 1);
            self.vals[j] = S::mul(a, b);
        }
    }

    #[inline(always)]
    fn written(&self, j: Idx) -> Option<S::T> {
        let j = j as usize;
        if self.marks[j] == M::from_epoch(self.cur + 1) {
            Some(self.vals[j])
        } else {
            None
        }
    }

    fn gather_into<W: crate::RowSink<S::T> + ?Sized>(&mut self, mask_cols: &[Idx], out: &mut W) {
        let written = M::from_epoch(self.cur + 1);
        for &j in mask_cols {
            if self.marks[j as usize] == written {
                out.push(j, self.vals[j as usize]);
            }
        }
    }

    fn full_resets(&self) -> u64 {
        self.full_resets
    }

    fn state_bytes(&self) -> usize {
        self.vals.len() * (std::mem::size_of::<S::T>() + std::mem::size_of::<M>())
    }

    fn flush_metrics(&mut self) {
        if METER {
            obs::add(obs::Counter::AccumDenseFullResets, self.unflushed_resets);
            obs::add(obs::Counter::AccumMaskHits, self.mask_hits);
            obs::add(obs::Counter::AccumMaskMisses, self.mask_misses);
            self.mask_hits = 0;
            self.mask_misses = 0;
            self.unflushed_resets = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::PlusTimes;

    type Acc = DenseAccumulator<PlusTimes, u32>;

    #[test]
    fn masked_accumulation_respects_mask() {
        let mut acc = Acc::new(8);
        acc.begin_row();
        acc.set_mask(2);
        acc.set_mask(5);
        assert!(acc.accumulate_masked(2, 3.0, 4.0)); // 12
        assert!(acc.accumulate_masked(2, 1.0, 1.0)); // 13
        assert!(!acc.accumulate_masked(3, 9.0, 9.0)); // not in mask
        assert_eq!(acc.written(2), Some(13.0));
        assert_eq!(acc.written(5), None); // masked but never written
        assert_eq!(acc.written(3), None);
    }

    #[test]
    fn gather_emits_only_written_mask_entries_in_order() {
        let mut acc = Acc::new(8);
        acc.begin_row();
        for j in [1, 4, 6] {
            acc.set_mask(j);
        }
        acc.accumulate_masked(6, 2.0, 2.0);
        acc.accumulate_masked(1, 1.0, 5.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        acc.gather(&[1, 4, 6], &mut cols, &mut vals);
        assert_eq!(cols, vec![1, 6]);
        assert_eq!(vals, vec![5.0, 4.0]);
    }

    #[test]
    fn rows_are_isolated_by_epoch() {
        let mut acc = Acc::new(4);
        acc.begin_row();
        acc.set_mask(1);
        acc.accumulate_masked(1, 2.0, 2.0);
        assert_eq!(acc.written(1), Some(4.0));

        acc.begin_row();
        // previous row's state must be invisible
        assert_eq!(acc.written(1), None);
        assert!(!acc.accumulate_masked(1, 1.0, 1.0), "mask not set this row");
        acc.set_mask(1);
        assert!(acc.accumulate_masked(1, 1.0, 1.0));
        assert_eq!(acc.written(1), Some(1.0));
    }

    #[test]
    fn accumulate_any_ignores_mask() {
        let mut acc = Acc::new(4);
        acc.begin_row();
        acc.accumulate_any(3, 2.0, 5.0);
        acc.accumulate_any(3, 1.0, 1.0);
        assert_eq!(acc.written(3), Some(11.0));
        // vanilla gather: intersect with a mask that excludes 3
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        acc.gather(&[0, 1], &mut cols, &mut vals);
        assert!(cols.is_empty() && vals.is_empty());
        acc.gather(&[3], &mut cols, &mut vals);
        assert_eq!(cols, vec![3]);
    }

    #[test]
    fn u8_marker_overflow_resets_transparently() {
        let mut acc: DenseAccumulator<PlusTimes, u8> = DenseAccumulator::new(4);
        // run enough rows to force several overflows
        for row in 0..1000u64 {
            acc.begin_row();
            acc.set_mask(0);
            acc.accumulate_masked(0, row as f64, 1.0);
            assert_eq!(acc.written(0), Some(row as f64), "row {row}");
            assert_eq!(acc.written(1), None);
        }
        assert!(acc.full_resets() > 5, "expected overflows, got {}", acc.full_resets());
    }

    #[test]
    fn u64_marker_never_resets() {
        let mut acc: DenseAccumulator<PlusTimes, u64> = DenseAccumulator::new(4);
        for _ in 0..10_000 {
            acc.begin_row();
        }
        assert_eq!(acc.full_resets(), 0);
    }

    #[test]
    fn state_bytes_scales_with_marker_width() {
        let a8: DenseAccumulator<PlusTimes, u8> = DenseAccumulator::new(100);
        let a64: DenseAccumulator<PlusTimes, u64> = DenseAccumulator::new(100);
        assert_eq!(a8.state_bytes(), 100 * 8 + 100);
        assert_eq!(a64.state_bytes(), 100 * 8 + 100 * 8);
    }

    #[test]
    fn marker_boundary_cycles_stay_isolated_for_every_width() {
        // pin the epoch just below each width's boundary and drive ≥ 2 full
        // overflow-reset cycles, covering the exact rows where the written
        // epoch equals MAX_EPOCH and where the reset restarts at 2 — the
        // rows the old additive overflow check got wrong for u64
        fn cycle<M: Marker>() {
            let mut acc: DenseAccumulator<PlusTimes, M> = DenseAccumulator::new(4);
            for cycle in 0..2 {
                acc.cur = M::MAX_EPOCH - 5;
                let resets_before = acc.full_resets();
                for row in 0..4u64 {
                    acc.begin_row();
                    acc.set_mask(1);
                    acc.set_mask(3);
                    assert!(acc.accumulate_masked(1, row as f64 + 1.0, 2.0));
                    assert_eq!(acc.written(1), Some((row as f64 + 1.0) * 2.0));
                    // slot 3 is in-mask but unwritten; slot 0 out-of-mask
                    assert_eq!(acc.written(3), None, "cycle {cycle} row {row}");
                    assert!(!acc.accumulate_masked(0, 1.0, 1.0));
                }
                // rows at epochs MAX-3, MAX-1, then reset → 2, 4
                assert_eq!(acc.full_resets(), resets_before + 1, "{} bits", M::BITS);
                assert_eq!(acc.cur, 4, "{} bits", M::BITS);
            }
            assert_eq!(acc.full_resets(), 2);
        }
        cycle::<u8>();
        cycle::<u16>();
        cycle::<u32>();
        cycle::<u64>();
    }

    fn lcg(state: &mut u64) -> u32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 33) as u32
    }

    /// Drive two metered accumulators through the same rows, one scanning
    /// B runs with `accumulate_masked_run(.., simd = true)` and one with
    /// the scalar `accumulate_masked` loop, and require identical marks,
    /// values and `written()` bits after every row and identical tallies.
    /// Runs are 0..=40 columns long and reach column `ncols - 1`, so the
    /// 8-lane groups, their tails and the engage cutoff are all crossed.
    /// Returns the full resets taken.
    fn run_matches_scalar<M: Marker>(ncols: u32, rows: usize) -> u64 {
        let mut fast: DenseAccumulator<PlusTimes, M, true> = DenseAccumulator::new(ncols as usize);
        let mut slow: DenseAccumulator<PlusTimes, M, true> = DenseAccumulator::new(ncols as usize);
        let mut st = 0xd15e_u64 + M::BITS as u64;
        for row in 0..rows {
            fast.begin_row();
            slow.begin_row();
            for _ in 0..lcg(&mut st) % ncols {
                let j = lcg(&mut st) % ncols;
                fast.set_mask(j);
                slow.set_mask(j);
            }
            for len in 0..=40usize {
                let mut cols: Vec<Idx> = (0..len).map(|_| lcg(&mut st) % ncols).collect();
                cols.push(ncols - 1);
                cols.sort_unstable();
                cols.dedup();
                let vals: Vec<f64> =
                    cols.iter().map(|_| f64::from(lcg(&mut st) % 1000) / 7.0 + 0.1).collect();
                let a = 1.0 + row as f64 / 3.0;
                fast.accumulate_masked_run(a, &cols, &vals, true);
                for (&j, &b) in cols.iter().zip(&vals) {
                    slow.accumulate_masked(j, a, b);
                }
            }
            assert!(fast.marks == slow.marks, "{} bits, row {row}", M::BITS);
            let bits = |acc: &DenseAccumulator<PlusTimes, M, true>| -> Vec<u64> {
                acc.vals.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&fast), bits(&slow), "{} bits, row {row}", M::BITS);
            for j in 0..ncols {
                assert_eq!(
                    fast.written(j).map(f64::to_bits),
                    slow.written(j).map(f64::to_bits),
                    "{} bits, row {row}, column {j}",
                    M::BITS
                );
            }
        }
        assert_eq!(fast.full_resets(), slow.full_resets());
        assert_eq!(
            (fast.mask_hits, fast.mask_misses, fast.unflushed_resets),
            (slow.mask_hits, slow.mask_misses, slow.unflushed_resets),
            "{} bits: metered tallies",
            M::BITS
        );
        fast.full_resets()
    }

    #[test]
    fn masked_run_matches_scalar_loop_at_every_marker_width() {
        run_matches_scalar::<u8>(97, 20);
        run_matches_scalar::<u16>(97, 20);
        run_matches_scalar::<u32>(97, 20);
        run_matches_scalar::<u64>(97, 20);
    }

    #[test]
    fn masked_run_matches_scalar_loop_across_u8_epoch_overflow() {
        // 300 rows at 2 epochs per row wrap the u8 marker twice; each
        // wrap fully resets the marks between two compared rows
        assert_eq!(run_matches_scalar::<u8>(64, 300), 2);
    }

    #[test]
    #[should_panic]
    fn masked_run_sends_out_of_range_columns_to_the_bounds_check() {
        // a group holding a column past ncols falls back to the scalar
        // loop, whose bounds check fires
        let mut acc = Acc::new(20);
        acc.begin_row();
        acc.set_mask(3);
        let cols: Vec<Idx> = (0..15).chain([1000]).collect();
        acc.accumulate_masked_run(1.0, &cols, &[1.0; 16], true);
    }

    #[test]
    fn set_mask_is_idempotent_and_preserves_written_state() {
        // kernels load the whole mask before updating, but set_mask must
        // be a pure "admit" either way: re-admitting a written slot keeps
        // its value (uniform semantics across all accumulator families)
        let mut acc = Acc::new(4);
        acc.begin_row();
        acc.set_mask(1);
        acc.set_mask(1);
        acc.accumulate_masked(1, 2.0, 3.0);
        acc.set_mask(1);
        assert_eq!(acc.written(1), Some(6.0));
    }
}
