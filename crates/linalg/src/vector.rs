//! Owned dense vector type and BLAS-1 style operations.

use crate::error::LinalgError;
use crate::Result;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// An owned, dense, `f64` vector.
///
/// `Vector` is the fundamental container used for model parameters, gradients, and
/// feature vectors throughout the workspace. It intentionally exposes a small,
/// explicit API rather than operator overloading for every operation; the most
/// common arithmetic (`+`, `-`, scalar `*`) is overloaded for readability in the
/// learning code.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` ones.
    pub fn ones(len: usize) -> Self {
        Vector {
            data: vec![1.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product `self · other` (four-lane unrolled, fixed summation order).
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::vector_mismatch("dot", self.len(), other.len()));
        }
        Ok(crate::kernels::dot(&self.data, &other.data))
    }

    /// In-place `self += alpha * other` (the classic `axpy`).
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::vector_mismatch(
                "axpy",
                self.len(),
                other.len(),
            ));
        }
        crate::kernels::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// In-place scatter-add of a sparse vector's stored coordinates.
    pub fn add_sparse(&mut self, other: &crate::sparse::SparseVector) -> Result<()> {
        other.add_into(&mut self.data)
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        crate::kernels::scale(alpha, &mut self.data);
    }

    /// Returns a scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Vector {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Element-wise sum of the vector.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of the elements; `0.0` for an empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// L1 norm `‖v‖₁`.
    pub fn norm_l1(&self) -> f64 {
        crate::kernels::sum_abs(&self.data)
    }

    /// L2 norm `‖v‖₂`.
    pub fn norm_l2(&self) -> f64 {
        crate::kernels::sum_sq(&self.data).sqrt()
    }

    /// Squared L2 norm.
    pub fn norm_l2_squared(&self) -> f64 {
        crate::kernels::sum_sq(&self.data)
    }

    /// Returns the index of the maximum element; ties resolve to the smallest index.
    ///
    /// Returns `None` for an empty vector.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, v) in self.data.iter().enumerate() {
            if *v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Euclidean distance between two vectors.
    pub fn distance(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::vector_mismatch(
                "distance",
                self.len(),
                other.len(),
            ));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    /// Returns `true` when every element is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Returns a new vector with `f` applied element-wise.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Vector {
        Vector::from_vec(self.data.iter().copied().map(f).collect())
    }

    /// Fills the vector with zeros without reallocating.
    pub fn set_zero(&mut self) {
        for a in &mut self.data {
            *a = 0.0;
        }
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector::from_vec(data)
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Vector::from_vec(data.to_vec())
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Vector::from_vec(iter.into_iter().collect())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition length mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction length mismatch");
        Vector::from_vec(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector += length mismatch");
        crate::kernels::add_assign(&mut self.data, &rhs.data);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector -= length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::ones(2).as_slice(), &[1.0, 1.0]);
        assert_eq!(Vector::filled(2, 2.5).as_slice(), &[2.5, 2.5]);
    }

    #[test]
    fn dot_product_and_mismatch() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        let c = Vector::zeros(2);
        assert!(a.dot(&c).is_err());
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from_vec(vec![1.0, 1.0]);
        let b = Vector::from_vec(vec![2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0, -4.0]);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(v.norm_l2(), 5.0);
        assert_eq!(v.norm_l2_squared(), 25.0);
    }

    #[test]
    fn argmax_ties_resolve_low() {
        let v = Vector::from_vec(vec![0.5, 2.0, -1.0, 2.0]);
        assert_eq!(v.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn operators() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 4.0]);
        assert!((a.distance(&b).unwrap() - 8.0_f64.sqrt()).abs() < 1e-12);
        assert!(a.distance(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn map_and_finite() {
        let mut v = Vector::from_vec(vec![1.0, -2.0]);
        v.map_in_place(f64::abs);
        assert_eq!(v.as_slice(), &[1.0, 2.0]);
        assert!(v.is_finite());
        let w = v.map(|x| x * 10.0);
        assert_eq!(w.as_slice(), &[10.0, 20.0]);
        let mut nan = Vector::from_vec(vec![f64::NAN]);
        assert!(!nan.is_finite());
        nan.set_zero();
        assert!(nan.is_finite());
    }

    #[test]
    fn mean_and_sum() {
        let v = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.sum(), 6.0);
        assert_eq!(v.mean(), 2.0);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn from_iterator_and_conversions() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let w = Vector::from(vec![5.0]);
        assert_eq!(w.into_vec(), vec![5.0]);
    }
}
