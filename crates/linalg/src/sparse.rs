//! Sparse gradient carriers for bandwidth-proportional transport.
//!
//! A device whose minibatch only touched a few features (or whose model zeroes
//! most coordinates, as hinge losses and per-class logistic rows do) produces a
//! gradient that is mostly *exact* zeros. [`SparseVector`] stores just the
//! non-zero coordinates; [`GradientUpdate`] is the either/or carrier the
//! checkin path hands from the wire decoder to the aggregation shards, which
//! scatter-add it without ever materializing the dense form.
//!
//! Exact zeros only — no thresholding, rounding, or quantization. Skipping an
//! exactly-zero addend is a bitwise no-op on any accumulator that started at
//! `+0.0` and only ever gained addends (IEEE-754 addition only produces `-0.0`
//! from `(-0.0) + (-0.0)`), so sparse and dense checkins fold into bitwise
//! identical aggregates.

use crate::error::LinalgError;
use crate::vector::Vector;
use crate::Result;

/// A sparse `f64` vector: strictly increasing coordinate indices plus values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Builds a sparse vector, validating that `indices` are strictly
    /// increasing, in range for `dim`, and aligned with `values`.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Result<Self> {
        if indices.len() != values.len() {
            return Err(LinalgError::invalid(
                "sparse",
                format!("{} indices but {} values", indices.len(), values.len()),
            ));
        }
        let mut prev: Option<u32> = None;
        for &i in &indices {
            if (i as usize) >= dim {
                return Err(LinalgError::invalid(
                    "sparse",
                    format!("index {i} out of range for dimension {dim}"),
                ));
            }
            if let Some(p) = prev {
                if i <= p {
                    return Err(LinalgError::invalid(
                        "sparse",
                        format!("indices not strictly increasing at {i}"),
                    ));
                }
            }
            prev = Some(i);
        }
        Ok(SparseVector {
            dim,
            indices,
            values,
        })
    }

    /// Extracts the non-zero coordinates of a dense slice.
    ///
    /// "Zero" means the bit pattern of `+0.0`: a negative zero is kept as an
    /// explicit entry so densifying reproduces the input bit for bit.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v.to_bits() != 0 {
                indices.push(i as u32);
                values.push(v);
            }
        }
        SparseVector {
            dim: dense.len(),
            indices,
            values,
        }
    }

    /// Logical dimension of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) coordinates.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The stored coordinate indices, strictly increasing.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The stored coordinate values, aligned with [`SparseVector::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Scatter-adds the stored coordinates into `out` (ascending index order,
    /// so the fold order is fixed and reproducible).
    pub fn add_into(&self, out: &mut [f64]) -> Result<()> {
        if out.len() != self.dim {
            return Err(LinalgError::vector_mismatch(
                "sparse add",
                out.len(),
                self.dim,
            ));
        }
        crate::kernels::scatter_add(&self.indices, &self.values, out);
        Ok(())
    }

    /// Materializes the dense form.
    pub fn to_dense(&self) -> Vector {
        let mut out = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
        Vector::from_vec(out)
    }

    /// Decomposes into `(dim, indices, values)` without copying.
    pub fn into_parts(self) -> (usize, Vec<u32>, Vec<f64>) {
        (self.dim, self.indices, self.values)
    }

    /// Bytes this vector would occupy in the checkin wire encoding
    /// (`u32` dim + `u32` nnz + `u32` index + `f64` value per entry).
    pub fn wire_bytes(&self) -> usize {
        8 + 12 * self.nnz()
    }
}

/// A gradient in whichever representation crossed (or will cross) the wire.
///
/// The aggregation path consumes this without densifying: dense updates fold
/// element-wise, sparse updates scatter-add — both in a fixed order, so the
/// merged epoch aggregate is bitwise independent of which encoding each
/// contributing device chose.
#[derive(Debug, Clone, PartialEq)]
pub enum GradientUpdate {
    /// All coordinates, as uploaded by a device with a dense gradient.
    Dense(Vector),
    /// Non-zero coordinates only.
    Sparse(SparseVector),
    /// Stochastically quantized fixed-point coordinates (DP-noised uploads
    /// whose noise floor dominates the quantization step — see
    /// [`crate::quant`]). Folds by dequantizing element-wise in index order,
    /// so the merge stays bitwise deterministic without densifying first.
    Quantized(crate::quant::QuantizedVector),
}

impl GradientUpdate {
    /// Wire-size break-even: the sparse checkin encoding (`8 + 12·nnz` bytes)
    /// is strictly smaller than the dense one (`4 + 8·dim` bytes) exactly when
    /// `12·nnz + 4 < 8·dim`.
    pub fn sparse_is_smaller(dim: usize, nnz: usize) -> bool {
        12 * nnz + 4 < 8 * dim
    }

    /// Wraps a dense gradient, switching to the sparse representation when its
    /// measured density makes that strictly smaller on the wire.
    pub fn from_dense_auto(dense: Vector) -> Self {
        let nnz = dense.as_slice().iter().filter(|v| v.to_bits() != 0).count();
        Self::from_dense_counted(dense, nnz)
    }

    /// [`GradientUpdate::from_dense_auto`] for a gradient whose coordinates
    /// that are not `+0.0` were already counted (`nnz`, a `−0.0` counting),
    /// so the choice takes no pass of its own.
    pub fn from_dense_counted(dense: Vector, nnz: usize) -> Self {
        debug_assert_eq!(
            nnz,
            dense.as_slice().iter().filter(|v| v.to_bits() != 0).count(),
            "stale non-zero count"
        );
        if Self::sparse_is_smaller(dense.len(), nnz) {
            GradientUpdate::Sparse(SparseVector::from_dense(dense.as_slice()))
        } else {
            GradientUpdate::Dense(dense)
        }
    }

    /// Logical dimension.
    pub fn dim(&self) -> usize {
        match self {
            GradientUpdate::Dense(v) => v.len(),
            GradientUpdate::Sparse(s) => s.dim(),
            GradientUpdate::Quantized(q) => q.dim(),
        }
    }

    /// Number of stored coordinates (the dense form stores all of them).
    pub fn nnz(&self) -> usize {
        match self {
            GradientUpdate::Dense(v) => v.len(),
            GradientUpdate::Sparse(s) => s.nnz(),
            GradientUpdate::Quantized(q) => q.dim(),
        }
    }

    /// `true` for the sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, GradientUpdate::Sparse(_))
    }

    /// Adds this update into a dense accumulator: element-wise for dense,
    /// scatter-add for sparse. Bitwise equivalent for accumulators that
    /// started at `+0.0` (see the module docs).
    pub fn add_into(&self, out: &mut Vector) -> Result<()> {
        match self {
            GradientUpdate::Dense(v) => {
                if out.len() != v.len() {
                    return Err(LinalgError::vector_mismatch(
                        "gradient add",
                        out.len(),
                        v.len(),
                    ));
                }
                crate::kernels::add_assign(out.as_mut_slice(), v.as_slice());
                Ok(())
            }
            GradientUpdate::Sparse(s) => out.add_sparse(s),
            GradientUpdate::Quantized(q) => q.add_into(out.as_mut_slice()),
        }
    }

    /// Materializes the dense form (cloning for the dense variant).
    pub fn to_dense(&self) -> Vector {
        match self {
            GradientUpdate::Dense(v) => v.clone(),
            GradientUpdate::Sparse(s) => s.to_dense(),
            GradientUpdate::Quantized(q) => q.to_dense(),
        }
    }

    /// The dense form, moving the dense variant's storage instead of
    /// cloning it.
    pub fn into_dense(self) -> Vector {
        match self {
            GradientUpdate::Dense(v) => v,
            other => other.to_dense(),
        }
    }
}

impl From<Vector> for GradientUpdate {
    fn from(v: Vector) -> Self {
        GradientUpdate::Dense(v)
    }
}

impl From<SparseVector> for GradientUpdate {
    fn from(s: SparseVector) -> Self {
        GradientUpdate::Sparse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_keeps_only_nonzero_bits() {
        let s = SparseVector::from_dense(&[0.0, 1.5, 0.0, -2.0, 0.0]);
        assert_eq!(s.dim(), 5);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.values(), &[1.5, -2.0]);
        assert_eq!(s.to_dense().as_slice(), &[0.0, 1.5, 0.0, -2.0, 0.0]);
        // Negative zero has a non-zero bit pattern and must survive.
        let nz = SparseVector::from_dense(&[0.0, -0.0]);
        assert_eq!(nz.nnz(), 1);
        assert_eq!(nz.to_dense().as_slice()[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn validation_rejects_malformed_input() {
        assert!(SparseVector::new(4, vec![0, 2], vec![1.0]).is_err());
        assert!(SparseVector::new(4, vec![0, 4], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(4, vec![2, 2], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(4, vec![2, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(4, vec![1, 3], vec![1.0, 2.0]).is_ok());
        assert!(SparseVector::new(0, vec![], vec![]).is_ok());
    }

    #[test]
    fn sparse_add_matches_dense_add_bitwise() {
        let dense = [0.0, 0.25, 0.0, 0.0, -1.75, 0.0, 3.5, 0.0];
        let sparse = SparseVector::from_dense(&dense);
        let mut via_dense = Vector::zeros(8);
        let mut via_sparse = Vector::zeros(8);
        // Two rounds of accumulation, as a shard would do across checkins.
        for _ in 0..2 {
            crate::kernels::add_assign(via_dense.as_mut_slice(), &dense);
            sparse.add_into(via_sparse.as_mut_slice()).unwrap();
        }
        for (a, b) in via_dense.iter().zip(via_sparse.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(sparse.add_into(&mut [0.0; 3]).is_err());
    }

    #[test]
    fn auto_selection_follows_wire_size() {
        // 95% zeros at dim 1000: nnz = 50, 12·50+4 = 604 < 8000 → sparse.
        let mut mostly_zero = vec![0.0; 1000];
        for i in (0..1000).step_by(20) {
            mostly_zero[i] = 1.0;
        }
        let sparse = GradientUpdate::from_dense_auto(Vector::from_vec(mostly_zero));
        assert!(sparse.is_sparse());
        assert_eq!(sparse.nnz(), 50);
        // A fully dense gradient stays dense.
        let dense = GradientUpdate::from_dense_auto(Vector::ones(1000));
        assert!(!dense.is_sparse());
        // Break-even boundary: dim 3, nnz 2 → 28 ≥ 24 keeps dense.
        let v = GradientUpdate::from_dense_auto(Vector::from_vec(vec![1.0, 0.0, 2.0]));
        assert!(!v.is_sparse());
    }

    #[test]
    fn update_api_round_trips() {
        let v = Vector::from_vec(vec![1.0, 0.0, 2.0]);
        let dense = GradientUpdate::from(v.clone());
        assert_eq!(dense.dim(), 3);
        assert_eq!(dense.to_dense(), v);
        let sparse = GradientUpdate::from(SparseVector::from_dense(v.as_slice()));
        assert_eq!(sparse.dim(), 3);
        assert_eq!(sparse.nnz(), 2);
        assert_eq!(sparse.to_dense(), v);
        let mut acc = Vector::zeros(3);
        dense.add_into(&mut acc).unwrap();
        sparse.add_into(&mut acc).unwrap();
        assert_eq!(acc.as_slice(), &[2.0, 0.0, 4.0]);
        let mut short = Vector::zeros(2);
        assert!(dense.add_into(&mut short).is_err());
        assert!(sparse.add_into(&mut short).is_err());
        let (dim, idx, vals) = SparseVector::from_dense(v.as_slice()).into_parts();
        assert_eq!((dim, idx.len(), vals.len()), (3, 2, 2));
        assert_eq!(SparseVector::from_dense(v.as_slice()).wire_bytes(), 32);
    }
}
