//! The 8-lane mask filter behind
//! [`Accumulator::accumulate_masked_run`](crate::Accumulator::accumulate_masked_run),
//! shared by the dense and hash families.
//!
//! The masked linear scan (Fig. 5 and Fig. 9 lines 20-26) probes every
//! column of a fetched `B[k,:]` against the mask, and most probes miss.
//! The filter gathers the marks of eight candidate slots at once and
//! compares them against the row's two fresh epochs (`cur` = in mask,
//! `cur + 1` = written). A stale lane is a column the mask rejects: the
//! scalar probe would also stop at that slot and report a miss. Only the
//! fresh lanes go on to a per-lane update, in lane (= column) order, so the
//! fold order and the first-touch `mul` / later `fma` split are those of
//! the scalar loop.
//!
//! Gathers take signed 32-bit indices; callers engage the filter only
//! when every index they can form fits (see each family's `filter_ok`).

use crate::marker::Marker;

/// Shortest `B[k,:]` worth the vector filter. The filter carries
/// `#[target_feature]`, so it cannot inline into its callers: each
/// engagement is a real call plus the broadcast setup, and rows below this
/// length run faster in the inlined scalar loop. 16 is the measured hash
/// crossover at a 15 % mask hit rate (EXPERIMENTS.md, "masked-scan
/// filter"); it also keeps every `GAP-road` row (max degree 7) on the
/// scalar loop.
pub(crate) const FILTER_MIN_LEN: usize = 16;

/// Extra marker elements past the last slot, so that a 32-bit gather at
/// the marker's byte scale never reads past the array. A `u8` mark read
/// as a 32-bit lane spans 3 bytes past it, a `u16` mark 2 bytes (one
/// element); 32- and 64-bit marks are read at their own width.
pub(crate) const fn mark_pad<M: Marker>() -> usize {
    let size = std::mem::size_of::<M>();
    4usize.saturating_sub(size).div_ceil(size)
}

/// Whether the vector filter is usable on this CPU (AVX2 on x86-64).
/// Detected once, cached; instances snapshot it into a plain `bool`.
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
/// Bit `l` set iff `marks[idx[l]]` holds `cur` or `cur + 1` — the lanes
/// whose slot is fresh this row (`cur + 1` must fit `M`).
///
/// # Safety
/// AVX2 is available; every lane of `idx` is a non-negative slot index,
/// and the array behind `marks` extends [`mark_pad`] elements past it.
pub(crate) unsafe fn fresh_lanes<M: Marker>(
    marks: *const M,
    idx: std::arch::x86_64::__m256i,
    cur: u64,
) -> u32 {
    use std::arch::x86_64::*;
    let size = std::mem::size_of::<M>();
    if size == 8 {
        // two 4-lane 64-bit gathers, one per half of the index vector
        let vm = _mm256_set1_epi64x(cur as i64);
        let vw = _mm256_set1_epi64x(cur.wrapping_add(1) as i64);
        let base = marks as *const i64;
        let lo = _mm256_i32gather_epi64::<8>(base, _mm256_castsi256_si128(idx));
        let hi = _mm256_i32gather_epi64::<8>(base, _mm256_extracti128_si256::<1>(idx));
        let fresh = |g| {
            let f = _mm256_or_si256(_mm256_cmpeq_epi64(g, vm), _mm256_cmpeq_epi64(g, vw));
            _mm256_movemask_pd(_mm256_castsi256_pd(f)) as u32
        };
        return fresh(lo) | fresh(hi) << 4;
    }
    // 8-, 16- and 32-bit marks: one 32-bit gather at the marker's byte
    // scale, then keep the low `8 · size` bits of each lane
    let base = marks as *const i32;
    let g = match size {
        1 => _mm256_and_si256(
            _mm256_i32gather_epi32::<1>(base, idx),
            _mm256_set1_epi32(0xff),
        ),
        2 => _mm256_and_si256(
            _mm256_i32gather_epi32::<2>(base, idx),
            _mm256_set1_epi32(0xffff),
        ),
        _ => _mm256_i32gather_epi32::<4>(base, idx),
    };
    let vm = _mm256_set1_epi32(cur as i32);
    let vw = _mm256_set1_epi32(cur.wrapping_add(1) as i32);
    let f = _mm256_or_si256(_mm256_cmpeq_epi32(g, vm), _mm256_cmpeq_epi32(g, vw));
    _mm256_movemask_ps(_mm256_castsi256_ps(f)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_covers_a_32_bit_read_at_every_width() {
        assert_eq!(mark_pad::<u8>(), 3);
        assert_eq!(mark_pad::<u16>(), 1);
        assert_eq!(mark_pad::<u32>(), 0);
        assert_eq!(mark_pad::<u64>(), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fresh_lanes_matches_scalar_compare_at_every_width() {
        fn check<M: Marker + From<u8>>() {
            if !avx2_available() {
                return;
            }
            let n = 13usize;
            let cur = 6u64;
            // marks cycle through stale, in-mask and written values, with
            // non-zero neighbours so an unmasked byte-scale read would show
            let mut marks: Vec<M> =
                (0..n).map(|s| M::from([0xffu8, 5, 6, 7, 4][s % 5])).collect();
            marks.resize(n + mark_pad::<M>(), M::from(0xff));
            let idx: [i32; 8] = [12, 0, 1, 2, 3, 4, 7, 12];
            let want = idx.iter().enumerate().fold(0u32, |acc, (l, &s)| {
                let m = marks[s as usize];
                let fresh = m == M::from_epoch(cur) || m == M::from_epoch(cur + 1);
                acc | (fresh as u32) << l
            });
            // SAFETY: AVX2 checked above; every index is < n and the
            // array carries `mark_pad` elements past n
            let got = unsafe {
                let v = std::arch::x86_64::_mm256_loadu_si256(idx.as_ptr().cast());
                fresh_lanes(marks.as_ptr(), v, cur)
            };
            assert_eq!(got, want, "{} bits", M::BITS);
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
        check::<u64>();
    }
}
