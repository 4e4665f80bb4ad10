//! The hash accumulator (§III-C).
//!
//! An open-addressing (linear probing) table whose capacity is derived from
//! `max_i nnz(M[i,:])` — the paper's sizing choice: "with masking, we can
//! have at most `max_i nnz(M[i,:])` output nonzeros", tighter than the
//! operation-count bound GrB and SuiteSparse:GraphBLAS use. "The hash
//! accumulator is often more space efficient when the dimensions are large,
//! which can increase cache locality."
//!
//! Slots carry the same epoch markers as the dense accumulator, so between-
//! row resets are O(1) and narrow markers trade locality against periodic
//! full clears (Fig. 13 applies to both families).
//!
//! The masked linear scan ([`Accumulator::accumulate_masked_run`]) can
//! filter eight B columns at a time on AVX2: it hashes eight columns with
//! vector multiplies and shifts, gathers the marks of their first slots and
//! drops every lane whose first slot is stale. That is exact: no insertion
//! happens during the scan, so a stale first slot is precisely where the
//! scalar probe stops with a miss. A fresh first slot holding the column is
//! updated directly; one holding another key walks the unchanged scalar
//! chain. Every marker width is covered (the marks array carries a few
//! bytes of padding so narrow marks can be read as 32-bit lanes).

use crate::lanes;
use crate::marker::{advance_epoch, Marker};
use crate::Accumulator;
use mspgemm_rt::{failpoint, obs};
use mspgemm_sparse::{Idx, Semiring};

/// Fibonacci multiplicative hash of a column index into `cap` buckets:
/// the **top** `log2(cap)` bits of the 32-bit product, selected by a
/// capacity-derived right shift. (A fixed `>> 16` shift kept only bits
/// 16..32 of the product: for capacities above 2^16 the initial probe
/// could never reach the upper slots, and for small capacities it threw
/// away the best-mixed high bits.)
#[inline(always)]
fn bucket_of(j: Idx, hash_shift: u32, cap_mask: usize) -> usize {
    (j.wrapping_mul(FIB) >> hash_shift) as usize & cap_mask
}

/// 2^32 / φ rounded to odd — the classic Fibonacci constant.
const FIB: Idx = 2_654_435_769;

/// Hash-table accumulator with `M`-typed epoch markers.
///
/// `METER` selects the observability instantiation at compile time. A
/// probe is a handful of ns, so even a well-predicted `if armed` branch
/// per slot is measurable there; the default `false` build therefore
/// carries no counting code at all, and the driver swaps in the `true`
/// instantiation only when metrics are armed.
///
/// `SIMD` selects the AVX2 group-probe instantiation: eight slots are
/// compared per step instead of one, with results identical to the scalar
/// probe (same slot, same found/stale verdict, same inspected-slot count).
/// It is a request, not a promise — the constructor re-checks the CPU at
/// runtime and quietly falls back to the scalar loop when AVX2 is absent
/// or the marker is not 32-bit, so a `SIMD = true` instantiation is always
/// safe to build.
pub struct HashAccumulator<S: Semiring, M: Marker, const METER: bool = false, const SIMD: bool = false>
{
    keys: Vec<Idx>,
    vals: Vec<S::T>,
    marks: Vec<M>,
    cap_mask: usize,
    /// `32 - log2(capacity)`: selects the top bits of the 32-bit hash.
    hash_shift: u32,
    cur: u64,
    full_resets: u64,
    /// Distinct keys this row may claim before the table reports overflow
    /// — the `max_row_entries` the constructor was sized with. Inserting
    /// past it would break the ≤ 50 % load factor that guarantees probe
    /// termination, so the insert paths drop the update and latch
    /// [`Accumulator::take_overflow`] instead; the driver's spill path
    /// recomputes the row at the full bound.
    limit: usize,
    /// Distinct keys claimed since [`Accumulator::begin_row`].
    inserted: usize,
    /// Latched when an insert was refused this row (see `limit`).
    overflowed: bool,
    /// Runtime half of the `SIMD` request: true only when AVX2 was
    /// actually detected on this CPU.
    simd_ok: bool,
    /// Whether the masked-scan filter may engage: AVX2 was detected and
    /// every slot index fits a signed 32-bit gather index (`cap ≤ 2^31`).
    filter_ok: bool,
    /// Plain (non-atomic) observability scratch, only ever touched by the
    /// `METER = true` instantiation and folded into the global registry by
    /// [`Accumulator::flush_metrics`]; never atomic traffic. Boxed so the
    /// unmetered accumulator stays as small as the uninstrumented one.
    scratch: Box<ObsScratch>,
}

/// Instance-local observability scratch for [`HashAccumulator`].
#[derive(Default)]
struct ObsScratch {
    probe_hist: obs::LocalHist,
    probes: u64,
    probe_steps: u64,
    mask_hits: u64,
    mask_misses: u64,
    unflushed_resets: u64,
}

impl<S: Semiring, M: Marker, const METER: bool, const SIMD: bool>
    HashAccumulator<S, M, METER, SIMD>
{
    /// Create an accumulator able to hold `max_row_entries` distinct
    /// columns per row. Capacity is the next power of two at ≤ 50 % load;
    /// a row that tries to claim more distinct columns than requested
    /// latches [`Accumulator::take_overflow`] instead of degrading the
    /// load factor.
    ///
    /// For mask-preload kernels pass `max_i nnz(M[i,:])` (or the plan's
    /// overbooked quantile bound); for the vanilla kernel pass an upper
    /// bound on distinct intermediate columns
    /// (`min(ncols, max_i Σ_{A[i,k]≠0} nnz(B[k,:]))`).
    pub fn with_row_capacity(max_row_entries: usize) -> Self {
        Self::with_row_capacity_slack(max_row_entries, 2)
    }

    /// Like [`Self::with_row_capacity`] but with an explicit slack factor:
    /// the table holds `slack ×` the entry limit (rounded up to a power of
    /// two) while still latching overflow past `max_row_entries`.
    ///
    /// This exists for *overbooked* tables. A table sized at the plan's
    /// max bound runs at a vanishing load factor on typical rows, so the
    /// probe's freshness branch is essentially never taken and predicts
    /// perfectly. A quantile-sized table at the default 50 % load turns
    /// that branch into a per-probe coin flip, and on miss-heavy masked
    /// workloads the misprediction tax can triple the probe cost — wiping
    /// out the cache-residency win overbooking exists for. Extra slack
    /// (8× in the driver) keeps the overbooked table's load factor in the
    /// same near-empty regime while remaining orders of magnitude smaller
    /// than the max-bound table. The spill threshold is unaffected: it is
    /// the entry `limit`, not the table capacity.
    pub fn with_row_capacity_slack(max_row_entries: usize, slack: usize) -> Self {
        let limit = max_row_entries.max(1);
        let cap = (limit * slack.max(2)).next_power_of_two();
        let simd_ok = SIMD && std::mem::size_of::<M>() == 4 && lanes::avx2_available();
        HashAccumulator {
            keys: vec![0; cap],
            vals: vec![S::zero(); cap],
            marks: vec![M::default(); cap + lanes::mark_pad::<M>()],
            cap_mask: cap - 1,
            hash_shift: (Idx::BITS).saturating_sub(cap.trailing_zeros()),
            cur: 0,
            full_resets: 0,
            limit,
            inserted: 0,
            overflowed: false,
            simd_ok,
            filter_ok: cap <= 1 << 31 && lanes::avx2_available(),
            scratch: Box::default(),
        }
    }

    /// Table capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Initial bucket for key `j` (exposed for distribution tests).
    #[inline]
    pub fn initial_bucket(&self, j: Idx) -> usize {
        bucket_of(j, self.hash_shift, self.cap_mask)
    }

    /// The probe-length distribution recorded since the last
    /// [`Accumulator::flush_metrics`] (power-of-two buckets; a probe that
    /// inspects one slot lands in bucket 1).
    pub fn probe_length_buckets(&self) -> &[u64; obs::HIST_BUCKETS] {
        &self.scratch.probe_hist.buckets
    }

    /// Find the slot holding `j` this row, or the first stale slot where it
    /// would be inserted. Returns `(slot, found, slots_inspected)`; the
    /// step count is only maintained when metered (or in debug builds,
    /// where the overfill assertion needs it) — otherwise the counting
    /// compiles out and the loop is the uninstrumented baseline.
    #[inline(always)]
    fn probe(&self, j: Idx) -> (usize, bool, u64) {
        let fresh_mask = M::from_epoch(self.cur);
        let fresh_written = M::from_epoch(self.cur + 1);
        let mut s = bucket_of(j, self.hash_shift, self.cap_mask);
        #[cfg(target_arch = "x86_64")]
        if SIMD && std::mem::size_of::<M>() == 4 && self.simd_ok {
            // Walk the first group of slots inline: at ≤ 50 % load almost
            // every probe terminates within a handful of slots, and the
            // vector path's per-call overhead (broadcast setup behind a
            // non-inlinable `target_feature` call) would dominate those
            // short probes. Only a chain that outlives a full group — a
            // genuinely clustered pathology, the case group-scanning is
            // for — takes the AVX2 tail.
            let mut steps = 0u64;
            for _ in 0..8 {
                if METER || cfg!(debug_assertions) {
                    steps += 1;
                }
                let mark = self.marks[s];
                if mark == fresh_mask || mark == fresh_written {
                    if self.keys[s] == j {
                        return (s, true, steps);
                    }
                } else {
                    return (s, false, steps);
                }
                s = (s + 1) & self.cap_mask;
            }
            // SAFETY: `simd_ok` is only set when AVX2 was detected at
            // runtime (and the marker is 32-bit, which the group loads
            // rely on).
            return unsafe { self.probe_avx2(j, s, steps) };
        }
        let mut steps = 0u64;
        loop {
            if METER || cfg!(debug_assertions) {
                steps += 1;
                debug_assert!(
                    steps as usize <= self.keys.len(),
                    "hash accumulator overfilled: capacity {} too small for this row \
                     (size with the vanilla kernel's distinct-column bound)",
                    self.keys.len()
                );
            }
            // Keep this branchy: on a miss-heavy masked workload the
            // stale exit means only the marks array is ever touched (the
            // keys load sits behind the `fresh` branch), which is what
            // keeps big near-empty tables cheap to probe. Folding the two
            // checks branchlessly forces the keys load on every probe and
            // doubles the cache traffic. The predictability of `fresh` is
            // instead handled where it is lost — overbooked tables are
            // allocated with extra slack (see `with_row_capacity_slack`)
            // so their load factor stays in the same regime.
            let mark = self.marks[s];
            let fresh = mark == fresh_mask || mark == fresh_written;
            if fresh {
                if self.keys[s] == j {
                    return (s, true, steps);
                }
            } else {
                // stale slot: an insertion of j this row would have claimed
                // it, so j is absent; it is also the insertion point
                return (s, false, steps);
            }
            s = (s + 1) & self.cap_mask;
        }
    }

    /// AVX2 group probe over the collision chain starting at `start`
    /// (the slot after the chain prefix the caller already inspected
    /// inline; `steps_base` is that prefix's inspected-slot count):
    /// inspects eight slots per step. Lane order within a group is probe
    /// order, so "first stop lane" reproduces the scalar probe's exit
    /// exactly — same slot, same verdict, and the same inspected-slot
    /// count (a full group only advances when all eight lanes are fresh
    /// non-matches, i.e. exactly when the scalar loop would also walk all
    /// eight).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    /// # Safety
    /// Caller must guarantee AVX2 is available and `size_of::<M>() == 4`.
    unsafe fn probe_avx2(&self, j: Idx, start: usize, steps_base: u64) -> (usize, bool, u64) {
        use std::arch::x86_64::*;
        debug_assert_eq!(std::mem::size_of::<M>(), 4);
        let fresh_mask: u32 = std::mem::transmute_copy(&M::from_epoch(self.cur));
        let fresh_written: u32 = std::mem::transmute_copy(&M::from_epoch(self.cur + 1));
        let cap = self.keys.len();
        let keys = self.keys.as_ptr();
        let marks = self.marks.as_ptr() as *const u32;
        let vj = _mm256_set1_epi32(j as i32);
        let vm = _mm256_set1_epi32(fresh_mask as i32);
        let vw = _mm256_set1_epi32(fresh_written as i32);
        let ones = _mm256_set1_epi32(-1);
        let mut s = start;
        let mut steps = steps_base;
        loop {
            if METER || cfg!(debug_assertions) {
                debug_assert!(
                    steps as usize <= cap,
                    "hash accumulator overfilled: capacity {cap} too small for this row"
                );
            }
            if s + 8 <= cap {
                let k = _mm256_loadu_si256(keys.add(s) as *const __m256i);
                let m = _mm256_loadu_si256(marks.add(s) as *const __m256i);
                let fresh =
                    _mm256_or_si256(_mm256_cmpeq_epi32(m, vm), _mm256_cmpeq_epi32(m, vw));
                let eq = _mm256_and_si256(_mm256_cmpeq_epi32(k, vj), fresh);
                // stop at the first stale lane (insertion point) or fresh
                // key match — the scalar probe's exit condition
                let stale = _mm256_andnot_si256(fresh, ones);
                let stop =
                    _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(eq, stale))) as u32;
                if stop != 0 {
                    let lane = stop.trailing_zeros() as usize;
                    let hit =
                        (_mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32 >> lane) & 1 == 1;
                    if METER || cfg!(debug_assertions) {
                        steps += lane as u64 + 1;
                    }
                    return (s + lane, hit, steps);
                }
                if METER || cfg!(debug_assertions) {
                    steps += 8;
                }
                s += 8;
                if s == cap {
                    s = 0;
                }
            } else {
                // fewer than eight slots to the wrap point: single-step
                if METER || cfg!(debug_assertions) {
                    steps += 1;
                }
                let mark = *marks.add(s);
                if mark == fresh_mask || mark == fresh_written {
                    if *keys.add(s) == j {
                        return (s, true, steps);
                    }
                } else {
                    return (s, false, steps);
                }
                s += 1;
                if s == cap {
                    s = 0;
                }
            }
        }
    }

    /// Probe and, when metrics are armed, note the probe length in the
    /// instance-local scratch.
    #[inline(always)]
    fn probe_noted(&mut self, j: Idx) -> (usize, bool) {
        let (s, found, steps) = self.probe(j);
        if METER {
            self.scratch.probes += 1;
            self.scratch.probe_steps += steps;
            self.scratch.probe_hist.record(steps);
        }
        (s, found)
    }

    /// The masked linear scan with the 8-lane first-slot filter (see the
    /// module docs). Tallies stay exact under `METER`: a stale lane is one
    /// probe of one step and a miss, a direct hit one probe of one step and
    /// a hit, and a lane that walks the chain is counted by
    /// `accumulate_masked` itself.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    /// # Safety
    /// AVX2 is available and `capacity() ≤ 2^31` (`filter_ok`).
    unsafe fn masked_run_avx2(&mut self, a: S::T, bcols: &[Idx], bvals: &[S::T]) {
        use std::arch::x86_64::*;
        let n = bcols.len().min(bvals.len());
        let written = M::from_epoch(self.cur + 1);
        let fib = _mm256_set1_epi32(FIB as i32);
        let shift = _mm_cvtsi32_si128(self.hash_shift as i32);
        let cap_mask = _mm256_set1_epi32(self.cap_mask as i32);
        let mut slots = [0u32; 8];
        let mut c = 0;
        while c + 8 <= n {
            // SAFETY: c + 8 <= n <= bcols.len(); unaligned load is fine
            let vj = unsafe { _mm256_loadu_si256(bcols.as_ptr().add(c).cast()) };
            // `bucket_of`, eight lanes at once: wrapping 32-bit multiply,
            // logical shift, mask
            let vs =
                _mm256_and_si256(_mm256_srl_epi32(_mm256_mullo_epi32(vj, fib), shift), cap_mask);
            // SAFETY: every lane is `& cap_mask`, so a slot index below
            // cap ≤ 2^31, and `marks` carries `mark_pad` elements past cap
            let fresh = unsafe { lanes::fresh_lanes(self.marks.as_ptr(), vs, self.cur) };
            if METER {
                let stale = 8 - u64::from(fresh.count_ones());
                let sc = &mut *self.scratch;
                sc.probes += stale;
                sc.probe_steps += stale;
                sc.mask_misses += stale;
                sc.probe_hist.record_n(1, stale);
            }
            if fresh != 0 {
                // SAFETY: `slots` is 8 u32s = 32 bytes; unaligned store
                unsafe { _mm256_storeu_si256(slots.as_mut_ptr().cast(), vs) };
                let mut live = fresh;
                while live != 0 {
                    let l = live.trailing_zeros() as usize;
                    live &= live - 1;
                    let (j, b, s) = (bcols[c + l], bvals[c + l], slots[l] as usize);
                    if self.keys[s] != j {
                        // a fresh slot holding another key: walk the chain
                        self.accumulate_masked(j, a, b);
                        continue;
                    }
                    if METER {
                        let sc = &mut *self.scratch;
                        sc.probes += 1;
                        sc.probe_steps += 1;
                        sc.mask_hits += 1;
                        sc.probe_hist.record(1);
                    }
                    if self.marks[s] == written {
                        self.vals[s] = S::fma(self.vals[s], a, b);
                    } else {
                        self.marks[s] = written;
                        self.vals[s] = S::mul(a, b);
                    }
                }
            }
            c += 8;
        }
        for (&j, &b) in bcols[c..n].iter().zip(&bvals[c..n]) {
            self.accumulate_masked(j, a, b);
        }
    }
}

impl<S: Semiring, M: Marker, const METER: bool, const SIMD: bool> Accumulator<S>
    for HashAccumulator<S, M, METER, SIMD>
{
    #[inline]
    fn begin_row(&mut self) {
        failpoint::maybe_fire(failpoint::ACCUM_RESET, self.cur);
        let (next, overflow) = advance_epoch::<M>(self.cur);
        if overflow {
            self.marks.fill(M::default());
            self.full_resets += 1;
            if METER {
                self.scratch.unflushed_resets += 1;
            }
        }
        self.cur = next;
        self.inserted = 0;
        self.overflowed = false;
    }

    #[inline(always)]
    fn set_mask(&mut self, j: Idx) {
        let (s, found) = self.probe_noted(j);
        if !found {
            if self.inserted == self.limit {
                self.overflowed = true;
                return;
            }
            self.inserted += 1;
            self.keys[s] = j;
            self.marks[s] = M::from_epoch(self.cur);
        }
        // re-inserting an existing key leaves its state unchanged
    }

    #[inline(always)]
    fn accumulate_masked(&mut self, j: Idx, a: S::T, b: S::T) -> bool {
        let (s, found) = self.probe_noted(j);
        if !found {
            if METER {
                self.scratch.mask_misses += 1;
            }
            return false;
        }
        if METER {
            self.scratch.mask_hits += 1;
        }
        if self.marks[s] == M::from_epoch(self.cur + 1) {
            self.vals[s] = S::fma(self.vals[s], a, b);
        } else {
            self.marks[s] = M::from_epoch(self.cur + 1);
            self.vals[s] = S::mul(a, b);
        }
        true
    }

    #[inline(always)]
    fn accumulate_masked_run(&mut self, a: S::T, bcols: &[Idx], bvals: &[S::T], simd: bool) {
        if simd && self.filter_ok && bcols.len() >= lanes::FILTER_MIN_LEN {
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: `filter_ok` holds only when AVX2 was detected at
                // runtime and the capacity keeps slot indices below 2^31
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
        let (s, found) = self.probe_noted(j);
        if found && self.marks[s] == M::from_epoch(self.cur + 1) {
            self.vals[s] = S::fma(self.vals[s], a, b);
        } else {
            if !found {
                if self.inserted == self.limit {
                    self.overflowed = true;
                    return;
                }
                self.inserted += 1;
            }
            debug_assert!(
                found || self.marks[s] != M::from_epoch(self.cur + 1),
                "claiming a written slot"
            );
            self.keys[s] = j;
            self.marks[s] = M::from_epoch(self.cur + 1);
            self.vals[s] = S::mul(a, b);
        }
    }

    #[inline(always)]
    fn written(&self, j: Idx) -> Option<S::T> {
        let (s, found, _) = self.probe(j);
        if found && self.marks[s] == M::from_epoch(self.cur + 1) {
            Some(self.vals[s])
        } else {
            None
        }
    }

    fn gather_into<W: crate::RowSink<S::T> + ?Sized>(&mut self, mask_cols: &[Idx], out: &mut W) {
        for &j in mask_cols {
            let (s, found) = self.probe_noted(j);
            if found && self.marks[s] == M::from_epoch(self.cur + 1) {
                out.push(j, self.vals[s]);
            }
        }
    }

    fn full_resets(&self) -> u64 {
        self.full_resets
    }

    #[inline]
    fn take_overflow(&mut self) -> bool {
        std::mem::take(&mut self.overflowed)
    }

    fn flush_metrics(&mut self) {
        if METER {
            let s = &mut *self.scratch;
            obs::add(obs::Counter::AccumHashProbes, s.probes);
            obs::add(obs::Counter::AccumHashProbeSteps, s.probe_steps);
            obs::add(obs::Counter::AccumMaskHits, s.mask_hits);
            obs::add(obs::Counter::AccumMaskMisses, s.mask_misses);
            obs::add(obs::Counter::AccumHashFullResets, s.unflushed_resets);
            s.probe_hist.flush_into(obs::Hist::HashProbeLen);
            s.probes = 0;
            s.probe_steps = 0;
            s.mask_hits = 0;
            s.mask_misses = 0;
            s.unflushed_resets = 0;
        }
    }

    fn state_bytes(&self) -> usize {
        self.keys.len()
            * (std::mem::size_of::<Idx>()
                + std::mem::size_of::<S::T>()
                + std::mem::size_of::<M>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::PlusTimes;

    type Acc = HashAccumulator<PlusTimes, u32>;

    #[test]
    fn capacity_is_power_of_two_at_half_load() {
        let acc = Acc::with_row_capacity(100);
        assert_eq!(acc.capacity(), 256);
        let acc = Acc::with_row_capacity(0);
        assert!(acc.capacity() >= 2);
    }

    #[test]
    fn masked_accumulation_respects_mask() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        acc.set_mask(200);
        acc.set_mask(5_000_000);
        assert!(acc.accumulate_masked(200, 3.0, 4.0));
        assert!(acc.accumulate_masked(200, 1.0, 1.0));
        assert!(!acc.accumulate_masked(3, 9.0, 9.0));
        assert_eq!(acc.written(200), Some(13.0));
        assert_eq!(acc.written(5_000_000), None);
    }

    #[test]
    fn rows_are_isolated_by_epoch() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        acc.set_mask(7);
        acc.accumulate_masked(7, 2.0, 2.0);
        acc.begin_row();
        assert_eq!(acc.written(7), None);
        assert!(!acc.accumulate_masked(7, 1.0, 1.0));
    }

    #[test]
    fn colliding_keys_coexist() {
        // keys j and j + cap collide under any mask-based bucketing of
        // Fibonacci hashing only sometimes; force collisions by filling
        // more than half of a tiny table's buckets
        let mut acc = Acc::with_row_capacity(4); // cap = 8
        acc.begin_row();
        let keys = [0u32, 8, 16, 24]; // likely same/nearby buckets
        for &k in &keys {
            acc.set_mask(k);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert!(acc.accumulate_masked(k, n as f64 + 1.0, 1.0), "key {k}");
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(acc.written(k), Some(n as f64 + 1.0), "key {k}");
        }
    }

    #[test]
    fn gather_in_mask_order() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        for j in [3, 9, 27] {
            acc.set_mask(j);
        }
        acc.accumulate_masked(27, 1.0, 2.0);
        acc.accumulate_masked(3, 1.0, 1.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        acc.gather(&[3, 9, 27], &mut cols, &mut vals);
        assert_eq!(cols, vec![3, 27]);
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn accumulate_any_inserts_new_keys() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        acc.accumulate_any(42, 2.0, 3.0);
        acc.accumulate_any(42, 1.0, 4.0);
        assert_eq!(acc.written(42), Some(10.0));
    }

    #[test]
    fn u8_marker_overflow_resets_transparently() {
        let mut acc: HashAccumulator<PlusTimes, u8> = HashAccumulator::with_row_capacity(4);
        for row in 0..500u64 {
            acc.begin_row();
            acc.set_mask(1);
            acc.accumulate_masked(1, row as f64, 1.0);
            assert_eq!(acc.written(1), Some(row as f64));
            assert_eq!(acc.written(2), None);
        }
        assert!(acc.full_resets() > 2);
    }

    #[test]
    fn initial_buckets_reach_the_whole_table() {
        // regression for the fixed `>> 16` shift: with capacity 2^17 the
        // 32-bit Fibonacci product shifted right by 16 is < 2^16, so no
        // key could ever *start* probing in the upper half of the table
        let acc = Acc::with_row_capacity(1 << 16); // cap = 2^17
        let cap = acc.capacity();
        assert_eq!(cap, 1 << 17);
        let half = cap / 2;
        let upper = (0..cap as u32).filter(|&j| acc.initial_bucket(j) >= half).count();
        // Fibonacci hashing is close to uniform: expect ~50 % upper-half
        assert!(
            upper > cap * 4 / 10 && upper < cap * 6 / 10,
            "upper-half initial buckets: {upper}/{cap}"
        );
        // and small tables still use the well-mixed top bits
        let small = Acc::with_row_capacity(4); // cap 8
        let distinct: std::collections::BTreeSet<usize> =
            (0..64u32).map(|j| small.initial_bucket(j)).collect();
        assert_eq!(distinct.len(), 8, "all 8 buckets reachable");
    }

    #[test]
    fn probe_lengths_stay_short_at_half_load() {
        // distribution regression via the probe-length histogram: insert a
        // half-load of spread-out keys and require the bulk of probes to
        // finish in one or two slots — the fixed-shift bug funneled every
        // key of a large table into the low half and exploded probe chains
        // the metered instantiation records probe lengths without arming
        // the global registry
        let mut acc: HashAccumulator<PlusTimes, u32, true> =
            HashAccumulator::with_row_capacity(1 << 12); // cap = 2^13
        acc.begin_row();
        for i in 0..(1 << 12) as u64 {
            // well-mixed deterministic keys (splitmix-style multiply)
            let key = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
            acc.accumulate_any(key, 1.0, 1.0);
        }
        let h = *acc.probe_length_buckets();
        let total: u64 = h.iter().sum();
        assert_eq!(total, 1 << 12);
        // mean probe length stays near the half-load linear-probing ideal
        // (~1.5); the fixed-shift bug produced long clustered chains
        assert!(
            acc.scratch.probe_steps * 2 <= total * 5,
            "mean probe length {} over {total} probes, histogram {h:?}",
            acc.scratch.probe_steps as f64 / total as f64
        );
        // and the tail is bounded: no probe walked 32+ slots
        // (buckets 6.. cover lengths ≥ 32)
        let long: u64 = h[6..].iter().sum();
        assert_eq!(long, 0, "probes ≥ 32 slots: {long}, histogram {h:?}");
    }

    #[test]
    fn probe_metrics_accumulate_and_flush() {
        // metered instantiation: records without arming globally
        let mut acc: HashAccumulator<PlusTimes, u32, true> =
            HashAccumulator::with_row_capacity(8);
        acc.begin_row();
        acc.set_mask(3);
        acc.accumulate_masked(3, 1.0, 1.0);
        acc.accumulate_masked(4, 1.0, 1.0); // miss
        assert_eq!(acc.scratch.probes, 3);
        assert_eq!(acc.scratch.mask_hits, 1);
        assert_eq!(acc.scratch.mask_misses, 1);
        assert!(acc.scratch.probe_steps >= 3);
        assert_eq!(acc.probe_length_buckets().iter().sum::<u64>(), 3);
        acc.flush_metrics(); // unarmed: must still clear the scratch
        assert_eq!(acc.scratch.probes, 0);
        assert_eq!(acc.scratch.probe_steps, 0);
        assert_eq!(acc.scratch.mask_hits + acc.scratch.mask_misses, 0);
        assert_eq!(acc.probe_length_buckets().iter().sum::<u64>(), 0);
    }

    #[test]
    fn marker_boundary_cycles_stay_isolated_for_every_width() {
        // drive ≥ 2 full overflow-reset cycles per width by pinning the
        // epoch just below the boundary, exercising the exact rows where
        // `cur + 1` equals MAX_EPOCH and where the reset lands
        fn cycle<M: Marker>() {
            let mut acc: HashAccumulator<PlusTimes, M> = HashAccumulator::with_row_capacity(8);
            for cycle in 0..2 {
                // place the next begin_row at MAX-3, the one after at the
                // boundary row (cur = MAX-1, written epoch = MAX)
                acc.cur = M::MAX_EPOCH - 5;
                let resets_before = acc.full_resets();
                for row in 0..4u64 {
                    acc.begin_row();
                    acc.set_mask(9);
                    acc.set_mask(17);
                    assert!(acc.accumulate_masked(9, row as f64 + 1.0, 2.0));
                    assert_eq!(acc.written(9), Some((row as f64 + 1.0) * 2.0));
                    // key 17 is in-mask but unwritten; key 1 is out-of-mask
                    assert_eq!(acc.written(17), None, "cycle {cycle} row {row}");
                    assert!(!acc.accumulate_masked(1, 1.0, 1.0));
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

    #[test]
    fn stale_entries_reusable_after_epoch_bump() {
        // fill row 1 to the insertion limit, then verify row 2 can insert
        // again (stale slots must be treated as free)
        let mut acc = Acc::with_row_capacity(4); // cap 8
        acc.begin_row();
        for j in 0..4u32 {
            acc.accumulate_any(j, 1.0, 1.0);
        }
        acc.begin_row();
        for j in 100..104u32 {
            acc.set_mask(j);
            assert!(acc.accumulate_masked(j, 1.0, j as f64));
        }
        for j in 100..104u32 {
            assert_eq!(acc.written(j), Some(j as f64));
        }
    }

    #[test]
    fn overflow_latches_once_and_resets_per_row() {
        let mut acc = Acc::with_row_capacity(4); // limit 4, cap 8
        acc.begin_row();
        for j in 0..4u32 {
            acc.accumulate_any(j, 1.0, 1.0);
        }
        assert!(!acc.take_overflow(), "at the limit is not over it");
        // the fifth distinct key is refused, not inserted
        acc.accumulate_any(99, 1.0, 1.0);
        assert_eq!(acc.written(99), None);
        // but updates to already-claimed keys still land
        acc.accumulate_any(0, 1.0, 1.0);
        assert_eq!(acc.written(0), Some(2.0));
        assert!(acc.take_overflow());
        assert!(!acc.take_overflow(), "take clears the latch");
        // a fresh row starts clean
        acc.begin_row();
        acc.accumulate_any(7, 1.0, 1.0);
        assert!(!acc.take_overflow());
    }

    #[test]
    fn set_mask_overflow_latches_too() {
        let mut acc = Acc::with_row_capacity(2); // limit 2, cap 4
        acc.begin_row();
        for j in [10u32, 20, 30] {
            acc.set_mask(j);
        }
        // the refused key behaves as out-of-mask
        assert!(!acc.accumulate_masked(30, 1.0, 1.0));
        assert!(acc.accumulate_masked(10, 1.0, 1.0));
        assert!(acc.take_overflow());
    }

    #[test]
    fn simd_probe_matches_scalar() {
        // Drive the scalar and SIMD instantiations through an identical
        // collision-heavy workload and require identical observable state.
        // On CPUs without AVX2 the SIMD instantiation falls back to the
        // scalar loop, so the test stays meaningful (if trivial) there.
        fn run<const SIMD: bool>() -> (Vec<Option<f64>>, u64) {
            let mut acc: HashAccumulator<PlusTimes, u32, true, SIMD> =
                HashAccumulator::with_row_capacity(64); // cap 128
            let mut out = Vec::new();
            for row in 0..5u64 {
                acc.begin_row();
                // clustered keys force long probe chains; stride 128
                // aliases buckets in a 128-slot table
                for i in 0..48u32 {
                    acc.set_mask(i % 6 + (i / 6) * 128 + row as u32);
                }
                for i in 0..96u32 {
                    let j = i % 8 + (i / 8) * 128 + row as u32;
                    acc.accumulate_masked(j, (i + 1) as f64, 0.5);
                }
                for i in 0..64u32 {
                    acc.accumulate_any(i % 10 + (i / 10) * 64 + row as u32, 1.0, 2.0);
                }
                for j in 0..1024u32 {
                    out.push(acc.written(j));
                }
            }
            (out, acc.scratch.probe_steps)
        }
        let (scalar, scalar_steps) = run::<false>();
        let (simd, simd_steps) = run::<true>();
        assert_eq!(scalar, simd);
        // the group probe must inspect exactly the slots the scalar one does
        assert_eq!(scalar_steps, simd_steps);
    }

    fn lcg(state: &mut u64) -> u32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (*state >> 33) as u32
    }

    /// Drive two metered tables through the same rows, one scanning B
    /// runs with `accumulate_masked_run(.., simd = true)` and one with the
    /// scalar `accumulate_masked` loop, and require identical state,
    /// `written()` values (to the bit) and tallies after every row. Runs
    /// are 0..=40 columns long, so the 8-lane groups, their tails and the
    /// engage cutoff are all crossed. Returns the number of run columns
    /// whose first slot was fresh but held another key (the lanes that
    /// must walk the scalar chain) and the full resets taken.
    fn run_matches_scalar<M: Marker>(row_cap: usize, universe: u32, rows: usize) -> (usize, u64) {
        let mut fast: HashAccumulator<PlusTimes, M, true> =
            HashAccumulator::with_row_capacity(row_cap);
        let mut slow: HashAccumulator<PlusTimes, M, true> =
            HashAccumulator::with_row_capacity(row_cap);
        let mut st = 0x5eed_u64 + M::BITS as u64;
        let mut chained = 0;
        for row in 0..rows {
            fast.begin_row();
            slow.begin_row();
            for _ in 0..lcg(&mut st) as usize % (row_cap + 1) {
                let j = lcg(&mut st) % universe;
                fast.set_mask(j);
                slow.set_mask(j);
            }
            for len in 0..=40usize {
                let mut cols: Vec<Idx> = (0..len).map(|_| lcg(&mut st) % universe).collect();
                cols.sort_unstable();
                cols.dedup();
                let vals: Vec<f64> =
                    cols.iter().map(|_| f64::from(lcg(&mut st) % 1000) / 7.0 + 0.1).collect();
                let a = 1.0 + row as f64 / 3.0;
                chained += cols
                    .iter()
                    .filter(|&&j| {
                        let s = fast.initial_bucket(j);
                        let m = fast.marks[s];
                        (m == M::from_epoch(fast.cur) || m == M::from_epoch(fast.cur + 1))
                            && fast.keys[s] != j
                    })
                    .count();
                fast.accumulate_masked_run(a, &cols, &vals, true);
                for (&j, &b) in cols.iter().zip(&vals) {
                    slow.accumulate_masked(j, a, b);
                }
            }
            assert_eq!(fast.keys, slow.keys, "{} bits, row {row}", M::BITS);
            assert!(fast.marks == slow.marks, "{} bits, row {row}", M::BITS);
            let bits = |acc: &HashAccumulator<PlusTimes, M, true>| -> Vec<u64> {
                acc.vals.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&fast), bits(&slow), "{} bits, row {row}", M::BITS);
            for j in 0..universe {
                assert_eq!(
                    fast.written(j).map(f64::to_bits),
                    slow.written(j).map(f64::to_bits),
                    "{} bits, row {row}, column {j}",
                    M::BITS
                );
            }
        }
        assert_eq!(fast.full_resets(), slow.full_resets());
        let (f, s) = (&*fast.scratch, &*slow.scratch);
        assert_eq!(
            (f.probes, f.probe_steps, f.mask_hits, f.mask_misses),
            (s.probes, s.probe_steps, s.mask_hits, s.mask_misses),
            "{} bits: metered tallies",
            M::BITS
        );
        assert_eq!(f.probe_hist.buckets, s.probe_hist.buckets, "{} bits", M::BITS);
        (chained, fast.full_resets())
    }

    #[test]
    fn masked_run_matches_scalar_loop_at_every_marker_width() {
        run_matches_scalar::<u8>(48, 512, 20);
        run_matches_scalar::<u16>(48, 512, 20);
        run_matches_scalar::<u32>(48, 512, 20);
        run_matches_scalar::<u64>(48, 512, 20);
    }

    #[test]
    fn masked_run_matches_scalar_loop_across_u8_epoch_overflow() {
        // 300 rows at 2 epochs per row wrap the u8 marker twice; each
        // wrap fully resets the marks between two compared rows
        let (_, resets) = run_matches_scalar::<u8>(16, 256, 300);
        assert_eq!(resets, 2);
    }

    #[test]
    fn masked_run_walks_the_chain_for_fresh_slots_of_other_keys() {
        // cap-8 table at half load over a 64-column universe: many run
        // columns land on a fresh first slot holding a different key and
        // must take the scalar probe chain
        let (chained, _) = run_matches_scalar::<u32>(4, 64, 40);
        assert!(chained > 100, "only {chained} chained lanes exercised");
        assert_eq!(Acc::with_row_capacity(4).capacity(), 8);
    }

    #[test]
    fn simd_probe_handles_wrap_and_tail() {
        // tiny table: every group load straddles the wrap point, forcing
        // the scalar tail path; keys collide into one cluster
        fn run<const SIMD: bool>() -> Vec<Option<f64>> {
            let mut acc: HashAccumulator<PlusTimes, u32, false, SIMD> =
                HashAccumulator::with_row_capacity(2); // cap 4
            acc.begin_row();
            for j in [0u32, 4, 8] {
                acc.accumulate_any(j, j as f64 + 1.0, 1.0);
            }
            (0..16u32).map(|j| acc.written(j)).collect()
        }
        assert_eq!(run::<false>(), run::<true>());
    }
}
