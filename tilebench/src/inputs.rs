//! Seeded workload inputs from the repository's Table I generators.

use mspgemm_gen::{suite_graph, suite_specs};
use mspgemm_rt::rng::SplitMix64;
use mspgemm_sparse::Csr;

/// Derive an independent stream seed from the benchmark seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.rotate_left(29)).next_u64()
}

/// A uniform draw in `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The suite graph `name` at `scale`, its generator re-seeded from the
/// benchmark seed through the public `SuiteSpec::seed`, as `u64` ones
/// ready for `PlusPair`.
pub fn suite_input(name: &str, scale: f64, seed: u64) -> Csr<u64> {
    let mut spec = suite_specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("workload names a Table I graph");
    spec.seed = mix(seed, spec.seed);
    suite_graph(&spec, scale).spones(1u64)
}

/// Bytes a CSR matrix occupies: row pointers, column indices, values.
pub fn csr_bytes<T: Copy>(m: &Csr<T>) -> u64 {
    use std::mem::size_of_val;
    (size_of_val(m.row_ptr()) + size_of_val(m.col_idx()) + size_of_val(m.values())) as u64
}

/// Order-sensitive FNV-1a digest of a matrix's structure and values, for
/// the notes printed beside each run.
pub fn checksum(m: &Csr<u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    m.row_ptr().iter().for_each(|&p| eat(p as u64));
    m.col_idx().iter().for_each(|&c| eat(u64::from(c)));
    m.values().iter().for_each(|&v| eat(v));
    h
}
