//! Labeled dataset container shared by every workload and learning algorithm.

use crate::error::DataError;
use crate::Result;
use crowd_linalg::Vector;
use rand::Rng;

/// One labeled sample: a feature vector and its class label.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature vector `x ∈ R^D`.
    pub features: Vector,
    /// Class label `y ∈ {0, …, C−1}`.
    pub label: usize,
}

impl Sample {
    /// Creates a sample.
    pub fn new(features: Vector, label: usize) -> Self {
        Sample { features, label }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.len()
    }
}

/// A labeled classification dataset (the `D = {(x_i, y_i)}` of Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    samples: Vec<Sample>,
    num_classes: usize,
    dim: usize,
}

impl Dataset {
    /// Creates a dataset from samples, validating label range and consistent
    /// dimensionality.
    pub fn new(samples: Vec<Sample>, num_classes: usize) -> Result<Self> {
        if num_classes == 0 {
            return Err(DataError::InvalidArgument(
                "num_classes must be at least 1".into(),
            ));
        }
        let dim = samples.first().map(|s| s.dim()).unwrap_or(0);
        for (i, s) in samples.iter().enumerate() {
            if s.dim() != dim {
                return Err(DataError::ShapeMismatch {
                    reason: format!("sample {i} has dimension {}, expected {dim}", s.dim()),
                });
            }
            if s.label >= num_classes {
                return Err(DataError::InvalidLabel {
                    label: s.label,
                    num_classes,
                });
            }
        }
        Ok(Dataset {
            samples,
            num_classes,
            dim,
        })
    }

    /// Creates an empty dataset with a declared shape (useful as an accumulator).
    pub fn empty(dim: usize, num_classes: usize) -> Result<Self> {
        if num_classes == 0 {
            return Err(DataError::InvalidArgument(
                "num_classes must be at least 1".into(),
            ));
        }
        Ok(Dataset {
            samples: Vec::new(),
            num_classes,
            dim,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feature dimensionality (zero for an empty dataset constructed from samples).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes `C`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The samples as a slice.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Sample accessor.
    pub fn get(&self, i: usize) -> &Sample {
        &self.samples[i]
    }

    /// Appends a sample, validating its shape and label.
    pub fn push(&mut self, sample: Sample) -> Result<()> {
        if self.samples.is_empty() && self.dim == 0 {
            self.dim = sample.dim();
        }
        if sample.dim() != self.dim {
            return Err(DataError::ShapeMismatch {
                reason: format!(
                    "sample has dimension {}, expected {}",
                    sample.dim(),
                    self.dim
                ),
            });
        }
        if sample.label >= self.num_classes {
            return Err(DataError::InvalidLabel {
                label: sample.label,
                num_classes: self.num_classes,
            });
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Iterator over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Class frequencies (counts per label).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for s in &self.samples {
            counts[s.label] += 1;
        }
        counts
    }

    /// Returns the labels as a vector (copies).
    pub fn labels(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.label).collect()
    }

    /// Returns a new dataset containing the samples at `indices` (cloned).
    pub fn subset(&self, indices: &[usize]) -> Result<Self> {
        let mut samples = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::InvalidArgument(format!(
                    "index {i} out of range for {} samples",
                    self.len()
                )));
            }
            samples.push(self.samples[i].clone());
        }
        Ok(Dataset {
            samples,
            num_classes: self.num_classes,
            dim: self.dim,
        })
    }

    /// Shuffles the samples in place.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.samples.len();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            self.samples.swap(i, j);
        }
    }

    /// Splits into `(train, test)` with `test_fraction` of the samples (rounded
    /// down) going to the test set, after an in-place shuffle with `rng`.
    pub fn split<R: Rng + ?Sized>(
        mut self,
        test_fraction: f64,
        rng: &mut R,
    ) -> Result<(Dataset, Dataset)> {
        if !(0.0..1.0).contains(&test_fraction) {
            return Err(DataError::InvalidArgument(format!(
                "test_fraction {test_fraction} must be in [0, 1)"
            )));
        }
        self.shuffle(rng);
        let test_len = (self.len() as f64 * test_fraction).floor() as usize;
        let test_samples = self.samples.split_off(self.len() - test_len);
        let train = Dataset {
            samples: self.samples,
            num_classes: self.num_classes,
            dim: self.dim,
        };
        let test = Dataset {
            samples: test_samples,
            num_classes: self.num_classes,
            dim: self.dim,
        };
        Ok((train, test))
    }

    /// Concatenates two datasets with matching shape.
    pub fn concat(mut self, other: Dataset) -> Result<Dataset> {
        if self.num_classes != other.num_classes {
            return Err(DataError::ShapeMismatch {
                reason: format!(
                    "class counts differ: {} vs {}",
                    self.num_classes, other.num_classes
                ),
            });
        }
        if !self.is_empty() && !other.is_empty() && self.dim != other.dim {
            return Err(DataError::ShapeMismatch {
                reason: format!("dimensions differ: {} vs {}", self.dim, other.dim),
            });
        }
        if self.is_empty() {
            self.dim = other.dim;
        }
        self.samples.extend(other.samples);
        Ok(self)
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Sample;
    type IntoIter = std::slice::Iter<'a, Sample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Dataset {
        Dataset::new(
            vec![
                Sample::new(Vector::from_vec(vec![1.0, 0.0]), 0),
                Sample::new(Vector::from_vec(vec![0.0, 1.0]), 1),
                Sample::new(Vector::from_vec(vec![1.0, 1.0]), 1),
                Sample::new(Vector::from_vec(vec![0.5, 0.5]), 2),
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Dataset::new(vec![], 0).is_err());
        let bad_label = Dataset::new(vec![Sample::new(Vector::from_vec(vec![1.0]), 5)], 3);
        assert!(bad_label.is_err());
        let bad_dim = Dataset::new(
            vec![
                Sample::new(Vector::from_vec(vec![1.0]), 0),
                Sample::new(Vector::from_vec(vec![1.0, 2.0]), 0),
            ],
            2,
        );
        assert!(bad_dim.is_err());
    }

    #[test]
    fn basic_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.class_counts(), vec![1, 2, 1]);
        assert_eq!(d.labels(), vec![0, 1, 1, 2]);
        assert_eq!(d.get(2).label, 1);
    }

    #[test]
    fn push_validates_shape_and_label() {
        let mut d = Dataset::empty(2, 3).unwrap();
        d.push(Sample::new(Vector::from_vec(vec![1.0, 2.0]), 1))
            .unwrap();
        assert!(d.push(Sample::new(Vector::from_vec(vec![1.0]), 1)).is_err());
        assert!(d
            .push(Sample::new(Vector::from_vec(vec![1.0, 2.0]), 7))
            .is_err());
        assert_eq!(d.len(), 1);
        // Empty accumulator with dim 0 adopts the first sample's dimension.
        let mut e = Dataset::empty(0, 2).unwrap();
        e.push(Sample::new(Vector::from_vec(vec![1.0, 2.0, 3.0]), 0))
            .unwrap();
        assert_eq!(e.dim(), 3);
    }

    #[test]
    fn subset_and_errors() {
        let d = tiny();
        let s = d.subset(&[0, 3]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).label, 2);
        assert!(d.subset(&[9]).is_err());
    }

    #[test]
    fn shuffle_preserves_contents() {
        let mut d = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let before = d.class_counts();
        d.shuffle(&mut rng);
        assert_eq!(d.class_counts(), before);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn split_respects_fraction() {
        let d = tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = d.split(0.25, &mut rng).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(train.num_classes(), 3);
        let bad = tiny().split(1.5, &mut rng);
        assert!(bad.is_err());
    }

    #[test]
    fn concat_validates_shapes() {
        let a = tiny();
        let b = tiny();
        let merged = a.concat(b).unwrap();
        assert_eq!(merged.len(), 8);
        let other_classes = Dataset::empty(2, 5).unwrap();
        assert!(tiny().concat(other_classes).is_err());
        let other_dim = Dataset::new(
            vec![Sample::new(Vector::from_vec(vec![1.0, 2.0, 3.0]), 0)],
            3,
        )
        .unwrap();
        assert!(tiny().concat(other_dim).is_err());
        // Concatenating onto an empty dataset adopts the other's dimension.
        let empty = Dataset::empty(0, 3).unwrap();
        let merged2 = empty.concat(tiny()).unwrap();
        assert_eq!(merged2.dim(), 2);
    }

    #[test]
    fn iteration() {
        let d = tiny();
        assert_eq!(d.iter().count(), 4);
        assert_eq!((&d).into_iter().count(), 4);
    }
}
