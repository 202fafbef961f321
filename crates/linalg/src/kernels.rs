//! Unrolled BLAS-1 kernels with a *fixed* summation order.
//!
//! Every reduction here accumulates into four independent lanes over
//! stride-4 chunks and combines them as `((s0 + s1) + (s2 + s3)) + tail`.
//! The order never depends on alignment, thread count, or call site, so the
//! results are bitwise reproducible run to run — which is what the durable
//! store's recovery proptests and the sharded-aggregation determinism tests
//! rely on. The four lanes break the sequential add dependency chain, letting
//! the CPU retire ~4 FLOPs per cycle instead of stalling on one accumulator.
//!
//! The element-wise kernels (`axpy`, `add_assign`, `scale`, `scatter_add`)
//! are bitwise identical to their naive loops (each element is independent);
//! only the reductions (`dot`, `sum_sq`, `sum_abs`) differ from a
//! left-to-right fold — by design, and identically on every run. A WAL
//! written by an older binary is replayed through these reductions, so the
//! bracketing is pinned by `reduction_bits_are_frozen` below. `max_abs`
//! folds four lanes too, but `max` is exact, so it equals the serial fold.

/// Dot product `a · b` over equal-length slices, four-lane unrolled.
///
/// Callers are responsible for the length check; mismatched tails are ignored
/// in release builds.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernel dot length mismatch");
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// Sum of squares `Σ aᵢ²`, four-lane unrolled (the L2 norm is its sqrt).
#[inline]
pub fn sum_sq(a: &[f64]) -> f64 {
    let mut chunks = a.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for c in &mut chunks {
        s0 += c[0] * c[0];
        s1 += c[1] * c[1];
        s2 += c[2] * c[2];
        s3 += c[3] * c[3];
    }
    let mut tail = 0.0;
    for x in chunks.remainder() {
        tail += x * x;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// Sum of absolute values `Σ |aᵢ|`, four-lane unrolled.
#[inline]
pub fn sum_abs(a: &[f64]) -> f64 {
    let mut chunks = a.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for c in &mut chunks {
        s0 += c[0].abs();
        s1 += c[1].abs();
        s2 += c[2].abs();
        s3 += c[3].abs();
    }
    let mut tail = 0.0;
    for x in chunks.remainder() {
        tail += x.abs();
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// Largest absolute value `max |aᵢ|` (0 for an empty slice), four-lane
/// unrolled, and whether every element is finite.
///
/// Bitwise identical to the serial fold
/// `a.iter().fold(0.0, |m, v| m.max(v.abs()))`: `max` rounds nothing, every
/// `|aᵢ|` and the `+0.0` start are non-negative with a positive zero, and
/// `f64::max` skips a NaN operand, so no lane split can change the result.
/// A NaN never wins the max; it only clears the flag.
#[inline]
pub fn max_abs(a: &[f64]) -> (f64, bool) {
    let mut chunks = a.chunks_exact(4);
    let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut finite = true;
    for c in &mut chunks {
        m0 = m0.max(c[0].abs());
        m1 = m1.max(c[1].abs());
        m2 = m2.max(c[2].abs());
        m3 = m3.max(c[3].abs());
        finite &= c[0].is_finite() & c[1].is_finite() & c[2].is_finite() & c[3].is_finite();
    }
    let mut tail = 0.0f64;
    for x in chunks.remainder() {
        tail = tail.max(x.abs());
        finite &= x.is_finite();
    }
    (m0.max(m1).max(m2.max(m3)).max(tail), finite)
}

/// In-place `y += alpha * x`, unrolled. Bitwise identical to the naive loop.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "kernel axpy length mismatch");
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (ya, xa) in (&mut cy).zip(&mut cx) {
        ya[0] += alpha * xa[0];
        ya[1] += alpha * xa[1];
        ya[2] += alpha * xa[2];
        ya[3] += alpha * xa[3];
    }
    for (yv, xv) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yv += alpha * xv;
    }
}

/// In-place `y += x`, unrolled. Bitwise identical to the naive loop.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    debug_assert_eq!(x.len(), y.len(), "kernel add length mismatch");
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (ya, xa) in (&mut cy).zip(&mut cx) {
        ya[0] += xa[0];
        ya[1] += xa[1];
        ya[2] += xa[2];
        ya[3] += xa[3];
    }
    for (yv, xv) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yv += xv;
    }
}

/// In-place `y *= alpha`, unrolled. Bitwise identical to the naive loop.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    let mut cy = y.chunks_exact_mut(4);
    for ya in &mut cy {
        ya[0] *= alpha;
        ya[1] *= alpha;
        ya[2] *= alpha;
        ya[3] *= alpha;
    }
    for yv in cy.into_remainder() {
        *yv *= alpha;
    }
}

/// Sparse scatter-add `out[indices[k]] += values[k]` in index order.
///
/// Bitwise identical to the naive loop: the adds happen one element at a
/// time, in index order. Every index is bounds-checked against `out.len()`
/// (`SparseVector` already guarantees the invariant), so an out-of-range
/// entry panics.
#[inline]
pub fn scatter_add(indices: &[u32], values: &[f64], out: &mut [f64]) {
    for (&i, &v) in indices.iter().zip(values) {
        out[i as usize] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn dot_matches_reference_within_rounding() {
        for n in [0usize, 1, 3, 4, 7, 8, 100, 1001] {
            let a = seq(n, |i| (i as f64 * 0.37).sin());
            let b = seq(n, |i| (i as f64 * 0.11).cos());
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot(&a, &b);
            assert!(
                (got - naive).abs() <= 1e-12 * naive.abs().max(1.0),
                "n={n}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn dot_is_deterministic_across_calls() {
        let a = seq(1001, |i| (i as f64 * 0.73).sin() * 1e3);
        let b = seq(1001, |i| (i as f64 * 0.19).cos() * 1e-3);
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
        }
    }

    /// The exact bits of the reductions and of `axpy` on fixed inputs.
    /// Durable state written by an older binary is replayed through these
    /// kernels, so a change to the `((s0 + s1) + (s2 + s3)) + tail`
    /// bracketing must fail here.
    #[test]
    fn reduction_bits_are_frozen() {
        let a = seq(1027, |i| (i as f64 * 0.37).sin() * 1e3);
        let b = seq(1027, |i| (i as f64 * 0.19).cos() * 1e-3);
        assert_eq!(dot(&a, &b).to_bits(), 0x401b_7348_27a2_f2f6);
        assert_eq!(sum_sq(&a).to_bits(), 0x41be_9e00_c8e6_bcfc);
        // `a · b` happens to round alike under other lane combines; `a · a`
        // shares `sum_sq`'s order and its bits, and does not.
        assert_eq!(dot(&a, &a).to_bits(), 0x41be_9e00_c8e6_bcfc);
        let mut y = b.clone();
        axpy(0.37, &a, &mut y);
        // FNV-1a over the output's bit patterns, in index order.
        let digest = y.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0xb12e_c356_32f3_34e3);
    }

    #[test]
    fn sums_match_reference() {
        for n in [0usize, 2, 4, 9, 257] {
            let a = seq(n, |i| i as f64 - 3.5);
            let sq: f64 = a.iter().map(|x| x * x).sum();
            let ab: f64 = a.iter().map(|x| x.abs()).sum();
            assert!((sum_sq(&a) - sq).abs() <= 1e-12 * sq.max(1.0));
            assert!((sum_abs(&a) - ab).abs() <= 1e-12 * ab.max(1.0));
        }
    }

    #[test]
    fn axpy_and_add_are_bitwise_naive() {
        for n in [0usize, 1, 5, 64, 103] {
            let x = seq(n, |i| (i as f64 * 0.3).sin());
            let mut y = seq(n, |i| (i as f64 * 0.7).cos());
            let mut naive = y.clone();
            axpy(0.37, &x, &mut y);
            for (nv, xv) in naive.iter_mut().zip(&x) {
                *nv += 0.37 * xv;
            }
            assert_eq!(y, naive, "axpy n={n}");
            add_assign(&mut y, &x);
            for (nv, xv) in naive.iter_mut().zip(&x) {
                *nv += xv;
            }
            assert_eq!(y, naive, "add n={n}");
            scale(1.7, &mut y);
            for nv in naive.iter_mut() {
                *nv *= 1.7;
            }
            assert_eq!(y, naive, "scale n={n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `max_abs` equals the serial `f64::max` fold bit for bit, and its
        /// flag equals `all(is_finite)`, on inputs mixing ±0, subnormals,
        /// ±inf and NaN into ordinary values.
        #[test]
        fn max_abs_is_bitwise_the_serial_fold(
            picks in prop::collection::vec((0u64..24, any::<f64>()), 0..40),
        ) {
            let special = [
                0.0,
                -0.0,
                f64::from_bits(1),
                -f64::MIN_POSITIVE / 3.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                -f64::NAN,
            ];
            let a: Vec<f64> = picks
                .iter()
                .map(|&(k, v)| special.get(k as usize).copied().unwrap_or(v))
                .collect();
            let serial = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let (got, finite) = max_abs(&a);
            prop_assert_eq!(got.to_bits(), serial.to_bits());
            prop_assert_eq!(finite, a.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn scatter_add_matches_naive_bitwise() {
        let idx = [1u32, 3, 4, 9, 10, 11, 12, 15];
        let vals = [0.5, -1.5, 2.0, -0.0, 3.25, 1e-300, -7.0, 0.125];
        let mut out = seq(16, |i| i as f64 * 0.1);
        let mut naive = out.clone();
        scatter_add(&idx, &vals, &mut out);
        for (&i, &v) in idx.iter().zip(&vals) {
            naive[i as usize] += v;
        }
        for (a, b) in out.iter().zip(&naive) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
