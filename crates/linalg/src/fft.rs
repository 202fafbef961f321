//! Iterative radix-2 fast Fourier transform and spectral feature extraction.
//!
//! The activity-recognition workload of the paper (§V-B) computes a 64-bin FFT of
//! accelerometer magnitude windows as its feature vector. This module provides the
//! complex FFT used for that feature extraction plus the convenience function
//! [`magnitude_spectrum`] that maps a real window directly to the first
//! `n/2` magnitude bins.

use crate::error::LinalgError;
use crate::Result;

/// A minimal complex number type sufficient for the FFT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// Magnitude (modulus).
    pub fn abs(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, other: Complex) -> Complex {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, other: Complex) -> Complex {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }
}

fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `invert = false` computes the forward transform; `invert = true` computes the
/// inverse transform (including the `1/n` scaling). The length must be a power of
/// two.
pub fn fft_in_place(data: &mut [Complex], invert: bool) -> Result<()> {
    let n = data.len();
    if n == 0 {
        return Ok(());
    }
    if !is_power_of_two(n) {
        return Err(LinalgError::invalid(
            "fft",
            format!("length {n} is not a power of two"),
        ));
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let angle = 2.0 * std::f64::consts::PI / len as f64 * if invert { 1.0 } else { -1.0 };
        let wlen = Complex::new(angle.cos(), angle.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }

    if invert {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.re *= scale;
            x.im *= scale;
        }
    }
    Ok(())
}

/// Forward FFT of a real signal, returning the full complex spectrum.
///
/// The signal length must be a power of two.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_in_place(&mut data, false)?;
    Ok(data)
}

/// Magnitude spectrum of a real signal: the first `n/2` bins of `|FFT(x)|`,
/// normalized by the window length.
///
/// This is the feature extractor used for the activity-recognition task: a 128-sample
/// acceleration-magnitude window yields a 64-bin feature vector.
pub fn magnitude_spectrum(signal: &[f64]) -> Result<Vec<f64>> {
    let n = signal.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let spectrum = fft_real(signal)?;
    let scale = 1.0 / n as f64;
    Ok(spectrum[..n / 2].iter().map(|c| c.abs() * scale).collect())
}

/// Inverse FFT returning only the real parts: the round-trip test's oracle.
#[cfg(test)]
fn ifft_real(spectrum: &[Complex]) -> Result<Vec<f64>> {
    let mut data = spectrum.to_vec();
    fft_in_place(&mut data, true)?;
    Ok(data.into_iter().map(|c| c.re).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::approx_eq;

    fn naive_dft(signal: &[f64]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::zero();
                for (t, &x) in signal.iter().enumerate() {
                    let angle = -2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64;
                    acc = acc + Complex::new(x * angle.cos(), x * angle.sin());
                }
                acc
            })
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(fft_real(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(fft_real(&[]).unwrap().is_empty());
        let one = fft_real(&[5.0]).unwrap();
        assert!(approx_eq(one[0].re, 5.0, 1e-12));
    }

    #[test]
    fn matches_naive_dft() {
        let signal = [0.1, 0.9, -0.4, 0.3, 0.0, -1.2, 0.7, 0.5];
        let fast = fft_real(&signal).unwrap();
        let slow = naive_dft(&signal);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!(approx_eq(a.re, b.re, 1e-9));
            assert!(approx_eq(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let signal = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let spectrum = fft_real(&signal).unwrap();
        let recovered = ifft_real(&spectrum).unwrap();
        for (a, b) in signal.iter().zip(recovered.iter()) {
            assert!(approx_eq(*a, *b, 1e-9));
        }
    }

    #[test]
    fn pure_tone_concentrates_energy() {
        // A pure cosine at bin 4 of a 64-sample window should place its energy in
        // exactly that bin of the magnitude spectrum.
        let n = 64;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * 4.0 * t as f64 / n as f64).cos())
            .collect();
        let mags = magnitude_spectrum(&signal).unwrap();
        assert_eq!(mags.len(), 32);
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 4);
        // Energy away from the tone should be negligible.
        assert!(mags[10] < 1e-9);
    }

    #[test]
    fn dc_signal_has_only_dc_component() {
        let signal = vec![2.0; 16];
        let mags = magnitude_spectrum(&signal).unwrap();
        assert!(approx_eq(mags[0], 2.0, 1e-9));
        assert!(mags[1..].iter().all(|&m| m < 1e-9));
    }

    #[test]
    fn linearity_of_transform() {
        let a = [1.0, 0.0, -1.0, 0.5, 0.25, -0.5, 0.75, 0.0];
        let b = [0.3, 0.6, 0.9, -0.3, -0.6, -0.9, 0.1, 0.2];
        let sum: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
        let fa = fft_real(&a).unwrap();
        let fb = fft_real(&b).unwrap();
        let fsum = fft_real(&sum).unwrap();
        for i in 0..a.len() {
            assert!(approx_eq(fsum[i].re, fa[i].re + fb[i].re, 1e-9));
            assert!(approx_eq(fsum[i].im, fa[i].im + fb[i].im, 1e-9));
        }
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let prod = a * b;
        assert!(approx_eq(prod.re, 5.0, 1e-12));
        assert!(approx_eq(prod.im, 5.0, 1e-12));
        assert!(approx_eq(a.abs(), 5.0_f64.sqrt(), 1e-12));
        let diff = a - b;
        assert!(approx_eq(diff.re, -2.0, 1e-12));
        assert!(approx_eq(diff.im, 3.0, 1e-12));
    }
}
