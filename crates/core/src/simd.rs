//! SIMD-lane variants of the kernels' hot search loop, with portable
//! scalar twins.
//!
//! The co-iteration kernels (Fig. 7 / Fig. 9) spend their time binary
//! searching mask columns inside sorted B-row column slices. On x86-64
//! with AVX2 the tail of that search — the last handful of halving steps,
//! where the branch predictor is hopeless — is replaced by one 8-lane
//! compare: halve down to a window of ≤ 16 candidates, then test eight
//! keys per instruction. Column slices are sorted and duplicate-free
//! (CSR invariant), so "any lane equal" is exactly "binary search hit",
//! and the two paths return identical results on every input.
//!
//! Selection is a *runtime* flag threaded from the plan
//! ([`crate::SimdMode`] resolved once at plan time), not a const
//! parameter: the search sits behind an unpredictable data-dependent
//! branch anyway, so one well-predicted `if` costs nothing measurable,
//! and it keeps the kernels' monomorphisation count down.
//!
//! This module is allocation-free and panic-free on every path (it is in
//! the CI grep gates for both), and safe to call from any thread.

use mspgemm_sparse::Idx;

/// Whether the vector search paths are usable on this CPU (AVX2 on
/// x86-64; `false` elsewhere). Detected once, cached.
pub fn simd_available() -> bool {
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

/// Shortest slice worth the vector search. `find_avx2` carries
/// `#[target_feature]`, so it can never inline into scalar callers: every
/// engagement costs a real call plus vector setup, against savings that
/// grow with the halving depth. Slices under this length finish faster in
/// the *inlined* scalar `binary_search` — engaging the vector path at 8
/// (one lane-width) measurably slowed co-iteration over short B rows.
const FIND_SIMD_MIN_LEN: usize = 32;

/// Find `j` in the sorted, duplicate-free column slice `xs`.
///
/// With `simd` false (or unsupported hardware, or a short slice) this is
/// `xs.binary_search(&j)` — the kernels' historical loop. With `simd`
/// true on an AVX2 machine and at least `FIND_SIMD_MIN_LEN` candidates,
/// the search halves down to a small window and finishes with 8-lane
/// compares; the result is identical.
#[inline(always)]
pub fn find(xs: &[Idx], j: Idx, simd: bool) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if simd && xs.len() >= FIND_SIMD_MIN_LEN && simd_available() {
        // SAFETY: AVX2 presence was just checked at runtime.
        return unsafe { find_avx2(xs, j) };
    }
    xs.binary_search(&j).ok()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
/// The AVX2 search: branchless halving to a ≤ 16-wide window, then 8-lane
/// equality scans.
///
/// # Safety
/// AVX2 is available and `xs.len() >= 8`.
unsafe fn find_avx2(xs: &[Idx], j: Idx) -> Option<usize> {
    use std::arch::x86_64::*;
    let ptr = xs.as_ptr();
    let mut lo = 0usize;
    let mut len = xs.len();
    // Lower-bound halving: keep the window containing the first element
    // >= j. Reading through the raw pointer (indices are < xs.len() by
    // construction) keeps this loop free of bounds-check branches.
    while len > 16 {
        let half = len / 2;
        // SAFETY: lo + half < lo + len <= xs.len()
        if *ptr.add(lo + half) < j {
            lo += half + 1;
            len -= half + 1;
        } else {
            len = half + 1;
        }
    }
    let vj = _mm256_set1_epi32(j as i32);
    let end = lo + len;
    let mut s = lo;
    while s + 8 <= end {
        // SAFETY: s + 8 <= end <= xs.len(); unaligned load is fine
        let k = _mm256_loadu_si256(ptr.add(s) as *const __m256i);
        let eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(k, vj))) as u32;
        if eq != 0 {
            return Some(s + eq.trailing_zeros() as usize);
        }
        s += 8;
    }
    if s < end {
        // fewer than 8 candidates left: back the load up so one full
        // vector covers them. Lanes outside the window are harmless — the
        // halving invariant puts any occurrence of `j` inside [lo, end),
        // so out-of-window lanes can never equal `j` (columns are
        // duplicate-free), and `xs.len() >= 8` keeps the load in bounds.
        let base = end.saturating_sub(8);
        // SAFETY: base + 8 <= max(end, 8) <= xs.len()
        let k = _mm256_loadu_si256(ptr.add(base) as *const __m256i);
        let eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(k, vj))) as u32;
        if eq != 0 {
            return Some(base + eq.trailing_zeros() as usize);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_find_matches_binary_search() {
        let xs: Vec<Idx> = (0..100).map(|i| i * 3).collect();
        for j in 0..320u32 {
            assert_eq!(find(&xs, j, false), xs.binary_search(&j).ok(), "j={j}");
        }
        assert_eq!(find(&[], 5, false), None);
    }

    #[test]
    fn simd_find_matches_scalar_on_every_query() {
        // exhaustive over hits, misses, ends, and every slice length
        // around the 8-lane / 16-window boundaries and the engage cutoff
        for n in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 257] {
            let xs: Vec<Idx> = (0..n as u32).map(|i| i * 5 + 2).collect();
            let hi = xs.last().copied().unwrap_or(0) + 7;
            for j in 0..=hi {
                assert_eq!(
                    find(&xs, j, true),
                    xs.binary_search(&j).ok(),
                    "n={n} j={j}"
                );
            }
        }
    }

    #[test]
    fn simd_find_handles_adversarial_values() {
        // values straddling the i32 sign bit: cmpeq is bit-equality, so
        // signedness must not matter. Padded past the engage cutoff so
        // the queries actually reach the vector path.
        let mut xs: Vec<Idx> =
            vec![0, 1, 0x7fff_ffff, 0x8000_0000, 0x8000_0001, 0xffff_fffe, 0xffff_ffff, 3];
        xs.extend((1..=40u32).map(|i| 0x100 + i * 8));
        xs.sort_unstable();
        xs.dedup();
        for &j in &xs {
            assert_eq!(find(&xs, j, true), xs.binary_search(&j).ok(), "j={j:#x}");
        }
        assert_eq!(find(&xs, 2, true), None);
    }

    #[test]
    fn availability_is_stable() {
        assert_eq!(simd_available(), simd_available());
    }
}
