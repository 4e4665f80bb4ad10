//! The dot-product (output-driven) masked SpGEMM.
//!
//! The paper's analysis is restricted to the row-wise saxpy family
//! (§II-A); Milaković et al. — the codebase the paper starts from —
//! "explore a large space of sparse accumulators and higher-level
//! algorithms beyond row-wise saxpy" (§VI-B). The most important of those
//! is the inner-product formulation: iterate the **mask** entries and
//! compute each admitted output directly,
//!
//! ```text
//! for each stored M[i,j]:  C[i,j] = ⊕_k A[i,k] ⊗ B[k,j]
//! ```
//!
//! with `A` in CSR and `B` in CSC so both operands of the sparse dot
//! product are sorted index lists. Work is `O(Σ_{M[i,j]} (nnz(A[i,:]) +
//! nnz(B[:,j])))` — *independent of the unmasked product's size* — so it
//! beats every saxpy variant when the mask is much sparser than the
//! product, and loses when the mask is as dense as `A` (triangle
//! counting's `M = A` case, which is why the paper's saxpy focus is the
//! right one for its workload). The `dot_vs_saxpy` ablation bench
//! measures exactly this crossover.

use crate::config::Config;
use crate::engine::pool_error;
use crate::executor::Executor;
use mspgemm_sched::{tile::uniform_tiles, MultiRun, WorkerScratch};
use mspgemm_sparse::{Csc, Csr, Idx, Semiring, SparseError};
use std::sync::OnceLock;

/// Sparse dot product of two sorted index/value lists.
#[inline]
fn sparse_dot<S: Semiring>(
    acols: &[Idx],
    avals: &[S::T],
    brows: &[Idx],
    bvals: &[S::T],
) -> Option<S::T> {
    let (mut p, mut q) = (0usize, 0usize);
    let mut acc: Option<S::T> = None;
    while p < acols.len() && q < brows.len() {
        match acols[p].cmp(&brows[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                let prod = S::mul(avals[p], bvals[q]);
                acc = Some(match acc {
                    Some(x) => S::add(x, prod),
                    None => prod,
                });
                p += 1;
                q += 1;
            }
        }
    }
    acc
}

/// Masked SpGEMM by per-output dot products: `C = M ⊙ (A × Bᶜˢᶜ)`.
///
/// `b` is supplied in CSC (build once with [`Csc::from_csr`]); the output
/// keeps GraphBLAS structural-mask semantics: a mask position with **no**
/// structural match in `A[i,:] ∩ B[:,j]` produces no stored entry, which
/// matches the saxpy kernels exactly (an output is stored iff it was
/// written).
pub fn masked_spgemm_dot<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csc<S::T>,
    mask: &Csr<S::T>,
    config: &Config,
) -> Result<Csr<S::T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.ncols(), b.ncols()),
            found: (b.nrows(), b.ncols()),
            context: "masked_spgemm_dot: A×B inner dimension",
        });
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.nrows(), b.ncols()),
            found: (mask.nrows(), mask.ncols()),
            context: "masked_spgemm_dot: mask shape",
        });
    }

    let n_threads = config.resolved_threads();
    let n_tiles = config.resolved_tiles(a.nrows());
    // the natural work estimate here is per-mask-entry, but uniform row
    // tiles + dynamic scheduling carry the same load-balance guarantees
    // the paper establishes for saxpy, so reuse the row-tile machinery
    let tiles = uniform_tiles(a.nrows(), n_tiles);

    struct TileOut<T> {
        row_nnz: Vec<u32>,
        cols: Vec<Idx>,
        vals: Vec<T>,
    }
    let results: Vec<OnceLock<TileOut<S::T>>> =
        (0..tiles.len()).map(|_| OnceLock::new()).collect();

    // runs on the global executor's persistent pool, under its run lock
    // like every other pool run (per-run metric deltas never interleave)
    let exec = Executor::global().shared();
    let body = |_: usize, _: &mut WorkerScratch, t: usize| {
        let tile = tiles[t];
        let mut row_nnz = Vec::with_capacity(tile.len());
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in tile.rows() {
            let before = cols.len();
            let (acols, avals) = a.row(i);
            let (mcols, _) = mask.row(i);
            if !acols.is_empty() {
                for &j in mcols {
                    let (brows, bvals) = b.col(j as usize);
                    if let Some(v) = sparse_dot::<S>(acols, avals, brows, bvals) {
                        cols.push(j);
                        vals.push(v);
                    }
                }
            }
            row_nnz.push((cols.len() - before) as u32);
        }
        let _ = results[t].set(TileOut { row_nnz, cols, vals });
    };
    let run = MultiRun { n_tiles: tiles.len(), weight: 1, cancel: None, body: &body };
    let outcome = {
        let _run = exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
        exec.pool.run_tiles_multi(n_threads, config.schedule, &[run]).map_err(pool_error)?
    };

    // No degraded retry here: the dot kernel has no alternative
    // configuration to fall back across, so a failed tile surfaces
    // directly (the first failure names the tile).
    if let Some(first) = outcome.failures.iter().flatten().next() {
        return Err(SparseError::TileFailed {
            tile: first.tile,
            rows: tiles.get(first.tile).map_or((0, a.nrows()), |t| (t.lo, t.hi)),
            detail: first.payload.clone(),
        });
    }

    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    row_ptr.push(0usize);
    let mut out_cols = Vec::new();
    let mut out_vals = Vec::new();
    let mut acc = 0usize;
    for (idx, r) in results.iter().enumerate() {
        let Some(t) = r.get() else {
            return Err(SparseError::Internal {
                detail: format!("dot: fragment {idx} missing after successful run"),
            });
        };
        for &rn in &t.row_nnz {
            acc += rn as usize;
            row_ptr.push(acc);
        }
        out_cols.extend_from_slice(&t.cols);
        out_vals.extend_from_slice(&t.vals);
    }
    Ok(Csr::from_parts_unchecked(a.nrows(), b.ncols(), row_ptr, out_cols, out_vals))
}

/// Column-wise saxpy over CSC operands — the paper's §II-A symmetry made
/// executable: `C = M ⊙ (A × B)` with everything column-compressed is the
/// row-wise kernel applied to the transposes, `Cᵀ = Mᵀ ⊙ (Bᵀ × Aᵀ)`.
/// All of `config` (tiling now over *columns* of `C`, accumulators,
/// iteration spaces) applies unchanged.
pub fn masked_spgemm_csc<S: Semiring>(
    a: &Csc<S::T>,
    b: &Csc<S::T>,
    mask: &Csc<S::T>,
    config: &Config,
) -> Result<Csc<S::T>, SparseError> {
    let (ct, _) = crate::driver::spgemm::<S>(
        b.transposed_csr(),
        a.transposed_csr(),
        mask.transposed_csr(),
        config,
    )?;
    Ok(Csc::from_transposed_csr(ct))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::{Coo, Dense, PlusPair, PlusTimes};

    fn lcg_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = Coo::new(nrows, ncols);
        for i in 0..nrows {
            for _ in 0..per_row {
                coo.push(i, next() % ncols, ((next() % 9) + 1) as f64);
            }
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn dot_matches_oracle() {
        let a = lcg_matrix(35, 30, 4, 1);
        let b = lcg_matrix(30, 25, 3, 2);
        let m = lcg_matrix(35, 25, 5, 3);
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &b, &m);
        let cfg = Config { n_threads: 2, n_tiles: 6, ..Config::default() };
        let got = masked_spgemm_dot::<PlusTimes>(&a, &Csc::from_csr(&b), &m, &cfg).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn dot_matches_saxpy_on_triangle_workload() {
        let a = lcg_matrix(50, 50, 5, 7);
        let cfg = Config { n_threads: 2, ..Config::default() };
        let (saxpy, _) = crate::spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let dot = masked_spgemm_dot::<PlusTimes>(&a, &Csc::from_csr(&a), &a, &cfg).unwrap();
        assert_eq!(dot, saxpy);
    }

    #[test]
    fn dot_with_empty_mask_and_empty_a() {
        let a = lcg_matrix(10, 10, 3, 9);
        let empty: Csr<f64> = Csr::zeros(10, 10);
        let cfg = Config { n_threads: 1, ..Config::default() };
        let c = masked_spgemm_dot::<PlusTimes>(&a, &Csc::from_csr(&a), &empty, &cfg).unwrap();
        assert_eq!(c.nnz(), 0);
        let c = masked_spgemm_dot::<PlusTimes>(&empty, &Csc::from_csr(&a), &a, &cfg).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn dot_shape_mismatch_rejected() {
        let a = lcg_matrix(4, 5, 2, 1);
        let b = lcg_matrix(6, 4, 2, 2);
        let m = lcg_matrix(4, 4, 2, 3);
        let cfg = Config::default();
        assert!(masked_spgemm_dot::<PlusTimes>(&a, &Csc::from_csr(&b), &m, &cfg).is_err());
    }

    #[test]
    fn csc_driver_is_the_transposed_row_driver() {
        let a = lcg_matrix(30, 30, 4, 4).spones(1u64);
        let cfg = Config { n_threads: 2, n_tiles: 8, ..Config::default() };
        let (row_result, _) = crate::spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap();
        let col_result = masked_spgemm_csc::<PlusPair>(
            &Csc::from_csr(&a),
            &Csc::from_csr(&a),
            &Csc::from_csr(&a),
            &cfg,
        )
        .unwrap();
        assert_eq!(col_result.to_csr(), row_result);
    }

    #[test]
    fn sparse_dot_basics() {
        let acols = [1u32, 3, 5];
        let avals = [2.0, 3.0, 4.0];
        let brows = [0u32, 3, 5, 9];
        let bvals = [9.0, 10.0, 11.0, 12.0];
        let d = sparse_dot::<PlusTimes>(&acols, &avals, &brows, &bvals);
        assert_eq!(d, Some(3.0 * 10.0 + 4.0 * 11.0));
        let none = sparse_dot::<PlusTimes>(&[1], &[1.0], &[2], &[1.0]);
        assert_eq!(none, None);
    }
}
