//! Order statistics and output hashing shared by every workload.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p` percent of the samples at or below it.
/// `p` is clamped to `(0, 100]`; an empty slice has no percentile.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sort a copy of `values` ascending (NaN-safe total order).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    nearest_rank(&sorted(values), p).unwrap_or(0.0)
}

/// Median of unsorted samples: the mean of the two middle values for
/// an even count (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a, the digest every correctness check compares. Stable
/// across processes and hosts (unlike `std`'s randomly keyed hasher).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a value's `Debug` rendering (simulated statistics are plain
    /// integer/float structs whose rendering is exact and stable).
    pub fn debug<T: std::fmt::Debug>(&mut self, v: &T) {
        self.bytes(format!("{v:?}").as_bytes());
        self.bytes(b"\n");
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn fnv(b: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(b);
    h.finish()
}

/// splitmix64 step: the benchmark's own seeded stream for request
/// mixes and argument draws.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 10.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.9), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn percentile_sorts_and_median_averages_even_counts() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 20.0), 1.0);
        assert_eq!(percentile(&v, 21.0), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn fnv_is_the_reference_fnv1a() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
