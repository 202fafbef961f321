//! Stochastic fixed-point quantization for DP-noised gradient transport.
//!
//! Once a gradient has been through the local Laplace mechanism, its useful
//! precision is bounded by the noise scale λ — shipping 52 mantissa bits per
//! coordinate is waste. [`QuantizedVector`] stores each coordinate as a
//! signed 16-bit level times one shared per-message `scale`, cutting the wire
//! cost from 8 to 2 bytes per coordinate (~4× on dense uploads).
//!
//! Rounding is *stochastic*: a value `v` with `t = v/scale` rounds to
//! `⌊t⌋ + Bernoulli(t − ⌊t⌋)`, so the quantizer is unbiased
//! (`E[q·scale] = v`) and quantization acts as zero-mean noise with per-
//! coordinate error `< scale`, bounded well under the DP noise floor by the
//! transport selection rule (`crowd_learning::dp::noise_dominates_quantization`). The
//! Bernoulli draws come from the caller's seeded RNG — the same replayable
//! stream that drew the DP noise — so a device checkin remains a pure
//! function of `(seed, data)` and every determinism suite still holds.
//!
//! Dequantization (`levels[i] as f64 * scale`, element-wise, in index order)
//! is exact integer-times-power-free arithmetic with one rounding per
//! coordinate, identical on every run and every platform.

use crate::error::LinalgError;
use crate::kernels;
use crate::vector::Vector;
use crate::Result;
use rand::Rng;

/// Largest quantization level: levels live in `[-QMAX, QMAX]`.
pub const QMAX: i16 = i16::MAX;

/// A dense vector stored as `i16` levels times one shared `f64` scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVector {
    scale: f64,
    levels: Vec<i16>,
}

impl QuantizedVector {
    /// Quantizes a dense slice with stochastic rounding.
    ///
    /// `scale` is `max|v| / QMAX`, so the largest coordinate uses the full
    /// level range. All-zero inputs get `scale = 0.0` and all-zero levels.
    /// Errors on non-finite input — callers quantize only sanitized, finite
    /// gradients.
    pub fn quantize_stochastic<R: Rng + ?Sized>(dense: &[f64], rng: &mut R) -> Result<Self> {
        let (max_abs, finite) = kernels::max_abs(dense);
        if !finite {
            return Err(LinalgError::invalid(
                "quantize",
                "non-finite coordinate cannot be quantized",
            ));
        }
        let scale = max_abs / f64::from(QMAX);
        let mut levels = Vec::with_capacity(dense.len());
        if scale == 0.0 {
            levels.resize(dense.len(), 0);
        } else {
            let limit = f64::from(QMAX);
            for &v in dense {
                let t = v / scale;
                let floor = t.floor();
                // One Bernoulli draw per coordinate, unconditionally, so the
                // RNG stream position is a function of `dim` alone.
                let up = rng.gen::<f64>() < (t - floor);
                let q = (floor + f64::from(u8::from(up))).clamp(-limit, limit);
                levels.push(q as i16);
            }
        }
        Ok(QuantizedVector { scale, levels })
    }

    /// Rebuilds a quantized vector from wire parts, validating the scale.
    pub fn from_parts(scale: f64, levels: Vec<i16>) -> Result<Self> {
        if !scale.is_finite() || scale < 0.0 {
            return Err(LinalgError::invalid(
                "quantize",
                format!("scale {scale} is not a finite non-negative number"),
            ));
        }
        Ok(QuantizedVector { scale, levels })
    }

    /// Logical dimension (quantization keeps every coordinate).
    pub fn dim(&self) -> usize {
        self.levels.len()
    }

    /// The shared step size: one level equals `scale` in value.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The raw levels, aligned with the original coordinates.
    pub fn levels(&self) -> &[i16] {
        &self.levels
    }

    /// Decomposes into `(scale, levels)` without copying.
    pub fn into_parts(self) -> (f64, Vec<i16>) {
        (self.scale, self.levels)
    }

    /// Dequantizes and adds into a dense accumulator, element-wise in index
    /// order — one deterministic rounding per coordinate.
    pub fn add_into(&self, out: &mut [f64]) -> Result<()> {
        if out.len() != self.levels.len() {
            return Err(LinalgError::vector_mismatch(
                "quantized add",
                out.len(),
                self.levels.len(),
            ));
        }
        for (o, &q) in out.iter_mut().zip(self.levels.iter()) {
            *o += f64::from(q) * self.scale;
        }
        Ok(())
    }

    /// Materializes the dequantized dense form.
    pub fn to_dense(&self) -> Vector {
        Vector::from_vec(
            self.levels
                .iter()
                .map(|&q| f64::from(q) * self.scale)
                .collect(),
        )
    }

    /// Bytes this vector occupies in the checkin wire encoding body
    /// (`u32` dim + `f64` scale + `i16` per coordinate).
    pub fn wire_bytes(&self) -> usize {
        12 + 2 * self.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_error_is_bounded_by_one_step() {
        let mut rng = StdRng::seed_from_u64(7);
        let dense: Vec<f64> = (0..257).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
        let q = QuantizedVector::quantize_stochastic(&dense, &mut rng).unwrap();
        assert_eq!(q.dim(), dense.len());
        let back = q.to_dense();
        for (orig, deq) in dense.iter().zip(back.iter()) {
            assert!(
                (orig - deq).abs() <= q.scale(),
                "error {} exceeds step {}",
                (orig - deq).abs(),
                q.scale()
            );
        }
    }

    #[test]
    fn quantization_is_deterministic_per_seed() {
        let dense: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.71).cos()).collect();
        let a =
            QuantizedVector::quantize_stochastic(&dense, &mut StdRng::seed_from_u64(3)).unwrap();
        let b =
            QuantizedVector::quantize_stochastic(&dense, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
        let c =
            QuantizedVector::quantize_stochastic(&dense, &mut StdRng::seed_from_u64(4)).unwrap();
        // A different seed may round some coordinates the other way.
        assert_eq!(c.dim(), a.dim());
    }

    #[test]
    fn stochastic_rounding_is_unbiased_on_average() {
        let mut rng = StdRng::seed_from_u64(11);
        let v = [0.3f64; 1];
        let trials = 4000;
        let mut sum = 0.0;
        for _ in 0..trials {
            let q = QuantizedVector::quantize_stochastic(&v, &mut rng).unwrap();
            sum += q.to_dense().as_slice()[0];
        }
        let mean = sum / trials as f64;
        assert!((mean - 0.3).abs() < 1e-3, "biased mean {mean}");
    }

    #[test]
    fn zero_and_extreme_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = QuantizedVector::quantize_stochastic(&[0.0, -0.0, 0.0], &mut rng).unwrap();
        assert_eq!(z.scale(), 0.0);
        assert_eq!(z.levels(), &[0, 0, 0]);
        let mut acc = [1.0, 2.0, 3.0];
        z.add_into(&mut acc).unwrap();
        assert_eq!(acc, [1.0, 2.0, 3.0]);
        // The max-magnitude coordinate saturates at ±QMAX, never overflows.
        let m = QuantizedVector::quantize_stochastic(&[-5.0, 5.0], &mut rng).unwrap();
        assert!(m.levels().iter().all(|&q| q.abs() >= QMAX - 1));
        assert!(QuantizedVector::quantize_stochastic(&[f64::NAN], &mut rng).is_err());
        assert!(QuantizedVector::quantize_stochastic(&[f64::INFINITY], &mut rng).is_err());
        assert!(QuantizedVector::from_parts(f64::NAN, vec![0]).is_err());
        assert!(QuantizedVector::from_parts(-1.0, vec![0]).is_err());
        assert!(z.add_into(&mut [0.0; 2]).is_err());
    }

    #[test]
    fn wire_bytes_counts_body() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = QuantizedVector::quantize_stochastic(&[1.0; 10], &mut rng).unwrap();
        assert_eq!(q.wire_bytes(), 12 + 20);
    }
}
