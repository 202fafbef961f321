//! The epoch accumulator: per-device running gradient sums, folded in a
//! fixed device order when the epoch closes.
//!
//! The accumulator is part of what `agg.core` guards (`runtime::Core`), next
//! to the server it feeds. Checkins reach it only with `epoch_size > 1`
//! (per-checkin epochs and masked round submissions bypass it), and every one
//! of those already runs under the core lock, so the accumulator takes
//! `&mut self` and needs no lock of its own.
//!
//! Determinism: the accumulator keeps a *per-device* running sum (a device's
//! own checkins are ingested in the order it sent them, so that sum is
//! reproducible), and [`EpochAccumulator::drain`] folds the per-device sums
//! left to right in ascending device-id order into one buffer. How the
//! devices' checkins interleave therefore cannot change a single bit of the
//! merged [`EpochAggregate`]. Sparse checkins scatter-add into the same
//! accumulators (never densified), which is bitwise equivalent because
//! skipping an exact-zero addend cannot change an accumulator that started at
//! `+0.0`.
//!
//! The fold order is not an on-disk format: WAL records and snapshots store
//! the merged sum, never the per-device terms. An earlier version summed
//! 16-device blocks before folding the block sums; that gives the same bits
//! for every epoch of at most 16 devices and may round differently above it.
//!
//! Allocation: the parameter-dimension accumulators cycle through a small
//! buffer pool instead of being freshly allocated every epoch — ingest takes a
//! zeroed buffer from the pool, and the runtime returns the merged epoch's
//! storage (plus each device's drained accumulator) after the epoch is
//! applied.

use crate::reply::Reply;
use crowd_core::device::CheckinPayload;
use crowd_core::server::{DeviceEpochStats, EpochAggregate};
use crowd_linalg::Vector;
use std::collections::BTreeMap;

/// Upper bound on pooled accumulator buffers; beyond this, drained buffers are
/// simply dropped (the pool exists to serve the steady state, not bursts).
const MAX_POOLED_BUFFERS: usize = 64;

/// A checkin waiting for its epoch to be applied; the merge sends the outcome
/// to its [`Reply`].
pub(crate) struct Waiter {
    pub(crate) checkout_iteration: u64,
    /// The submitting device, for recording the outcome in the dedup table.
    pub(crate) device_id: u64,
    /// The checkin's dedup nonce (0 = no dedup requested).
    pub(crate) nonce: u64,
    pub(crate) reply: Reply,
    /// When the checkin was admitted, redeemed for `checkin_latency_us` at ack.
    pub(crate) submitted: crowd_telemetry::Tick,
}

/// Running per-device accumulation within the current epoch.
struct DeviceAccum {
    gradient_sum: Vector,
    checkins: u64,
    samples: u64,
    errors: i64,
    label_counts: Vec<i64>,
}

/// The open epoch: per-device accumulators plus the checkins waiting on it.
struct OpenEpoch {
    devices: BTreeMap<u64, DeviceAccum>,
    waiters: Vec<Waiter>,
    payloads: u64,
    min_checkout_iteration: u64,
}

impl OpenEpoch {
    fn new() -> Self {
        OpenEpoch {
            devices: BTreeMap::new(),
            waiters: Vec::new(),
            payloads: 0,
            min_checkout_iteration: u64::MAX,
        }
    }
}

/// Everything removed from the accumulator by one
/// [`EpochAccumulator::drain`] call.
pub(crate) struct DrainedEpoch {
    /// The merged aggregate, or `None` when nothing was pending.
    pub(crate) epoch: Option<EpochAggregate>,
    /// The checkins waiting on this epoch.
    pub(crate) waiters: Vec<Waiter>,
    /// Number of checkins merged.
    pub(crate) count: u64,
}

/// The open epoch's gradient accumulator.
pub(crate) struct EpochAccumulator {
    open: OpenEpoch,
    param_dim: usize,
    num_classes: usize,
    /// Recycled parameter-dimension buffers, shared by the per-device
    /// accumulators and the merged sum.
    pool: Vec<Vec<f64>>,
}

/// A zeroed `dim` accumulator, reusing pooled storage when possible.
fn take_zeroed(pool: &mut Vec<Vec<f64>>, dim: usize) -> Vector {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.resize(dim, 0.0);
    Vector::from_vec(buf)
}

/// Returns an accumulator's storage to the pool.
fn put_back(pool: &mut Vec<Vec<f64>>, v: Vector) {
    if pool.len() < MAX_POOLED_BUFFERS {
        pool.push(v.into_vec());
    }
}

impl EpochAccumulator {
    /// An empty accumulator for gradients of dimension `param_dim`.
    pub(crate) fn new(param_dim: usize, num_classes: usize) -> Self {
        EpochAccumulator {
            open: OpenEpoch::new(),
            param_dim,
            num_classes,
            pool: Vec::new(),
        }
    }

    /// Recycles an applied epoch's merged gradient buffer so the next
    /// [`EpochAccumulator::drain`] reuses it instead of allocating.
    pub(crate) fn recycle_epoch(&mut self, epoch: EpochAggregate) {
        put_back(&mut self.pool, epoch.gradient_sum);
    }

    /// Number of buffers currently parked in the pool (test hook).
    #[cfg(test)]
    fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Folds one (pre-validated) checkin into its device's accumulator and
    /// returns how many checkins the open epoch now holds.
    ///
    /// A payload whose dimensions do not match the configured model is handed
    /// back with its waiter (`Err`) so the caller can fail that one checkin
    /// instead of panicking the thread — submit-time validation makes this
    /// unreachable in practice, but a panic under the core lock would take
    /// the whole server down with it.
    pub(crate) fn ingest(
        &mut self,
        payload: &CheckinPayload,
        waiter: Waiter,
    ) -> std::result::Result<u64, Waiter> {
        if payload.gradient.dim() != self.param_dim
            || payload.label_counts.len() != self.num_classes
        {
            return Err(waiter);
        }
        let open = &mut self.open;
        let accum = open
            .devices
            .entry(payload.device_id)
            .or_insert_with(|| DeviceAccum {
                gradient_sum: take_zeroed(&mut self.pool, self.param_dim),
                checkins: 0,
                samples: 0,
                errors: 0,
                label_counts: vec![0; self.num_classes],
            });
        // Dense updates fold element-wise, sparse updates scatter-add — both
        // bitwise identical to `axpy(1.0, ·)` on these accumulators (skipping
        // an exact-zero addend is a no-op on a sum that started at `+0.0`).
        // The dimension check above and the pool invariant (accumulators are
        // always `param_dim`) make this unreachable; hand the checkin back
        // rather than panic the thread. `add_into` checks before mutating, so
        // the freshly inserted (or existing) accumulator is untouched on the
        // error path and no counter below has moved yet.
        if payload.gradient.add_into(&mut accum.gradient_sum).is_err() {
            return Err(waiter);
        }
        accum.checkins += 1;
        accum.samples += payload.num_samples as u64;
        accum.errors += payload.error_count;
        for (acc, &c) in accum
            .label_counts
            .iter_mut()
            .zip(payload.label_counts.iter())
        {
            *acc += c;
        }
        open.payloads += 1;
        open.min_checkout_iteration = open.min_checkout_iteration.min(payload.checkout_iteration);
        open.waiters.push(waiter);
        Ok(open.payloads)
    }

    /// How many checkins the open epoch holds.
    pub(crate) fn pending(&self) -> u64 {
        self.open.payloads
    }

    /// Takes everything accumulated so far and merges it into one epoch.
    ///
    /// The open epoch is swapped out for an empty one; the per-device sums
    /// are then folded left to right, in ascending device-id order, into one
    /// pooled buffer, and each drained per-device buffer returns to the pool.
    pub(crate) fn drain(&mut self) -> DrainedEpoch {
        let taken = std::mem::replace(&mut self.open, OpenEpoch::new());
        if taken.payloads == 0 {
            return DrainedEpoch {
                epoch: None,
                waiters: taken.waiters,
                count: 0,
            };
        }
        let mut gradient_sum = take_zeroed(&mut self.pool, self.param_dim);
        let mut device_stats = Vec::with_capacity(taken.devices.len());
        for (device_id, accum) in taken.devices {
            // Accumulators are all created at `param_dim`, so the elementwise
            // fold is total; `+=` matches `axpy(1.0, ·)` bit for bit without
            // a fallible call in the merge path.
            crowd_linalg::kernels::add_assign(
                gradient_sum.as_mut_slice(),
                accum.gradient_sum.as_slice(),
            );
            put_back(&mut self.pool, accum.gradient_sum);
            device_stats.push(DeviceEpochStats {
                device_id,
                checkins: accum.checkins,
                samples: accum.samples,
                errors: accum.errors,
                label_counts: accum.label_counts,
            });
        }
        DrainedEpoch {
            epoch: Some(EpochAggregate {
                gradient_sum,
                checkin_count: taken.payloads,
                min_checkout_iteration: taken.min_checkout_iteration,
                device_stats,
            }),
            waiters: taken.waiters,
            count: taken.payloads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn payload(device_id: u64, grad: Vec<f64>, checkout: u64) -> CheckinPayload {
        CheckinPayload {
            device_id,
            checkout_iteration: checkout,
            nonce: 0,
            gradient: Vector::from_vec(grad).into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        }
    }

    fn waiter() -> Waiter {
        Waiter {
            checkout_iteration: 0,
            device_id: 0,
            nonce: 0,
            reply: Reply::returned(),
            submitted: crowd_telemetry::Clock::logical().start(),
        }
    }

    #[test]
    fn drain_merges_devices_in_id_order() {
        let mut set = EpochAccumulator::new(3, 2);
        for device in [9u64, 2, 5] {
            let w = waiter();
            assert!(set
                .ingest(&payload(device, vec![device as f64, 0.0, 0.0], device), w)
                .is_ok());
        }
        let drained = set.drain();
        let epoch = drained.epoch.unwrap();
        assert_eq!(drained.count, 3);
        assert_eq!(epoch.checkin_count, 3);
        assert_eq!(epoch.min_checkout_iteration, 2);
        let ids: Vec<u64> = epoch.device_stats.iter().map(|d| d.device_id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(epoch.gradient_sum.as_slice(), &[16.0, 0.0, 0.0]);
        assert_eq!(drained.waiters.len(), 3);
        // A second drain finds nothing.
        assert!(set.drain().epoch.is_none());
    }

    #[test]
    fn repeat_checkins_accumulate_per_device() {
        let mut set = EpochAccumulator::new(2, 2);
        for step in 0..3u64 {
            let w = waiter();
            assert!(set.ingest(&payload(7, vec![1.0, 2.0], step), w).is_ok());
        }
        let epoch = set.drain().epoch.unwrap();
        assert_eq!(epoch.device_stats.len(), 1);
        let stats = &epoch.device_stats[0];
        assert_eq!(stats.checkins, 3);
        assert_eq!(stats.samples, 6);
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.label_counts, vec![3, 3]);
        assert_eq!(epoch.gradient_sum.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn mismatched_payload_is_handed_back_not_panicked() {
        let mut set = EpochAccumulator::new(3, 2);
        // Wrong gradient dimension: the waiter comes back so the caller can
        // fail that checkin, and nothing lands on the accumulator.
        assert!(set.ingest(&payload(0, vec![1.0; 5], 0), waiter()).is_err());
        let mut bad_counts = payload(0, vec![1.0, 2.0, 3.0], 0);
        bad_counts.label_counts = vec![1];
        assert!(set.ingest(&bad_counts, waiter()).is_err());
        assert!(set.drain().epoch.is_none());
    }

    /// Sparse and dense encodings of the same gradient must fold into bitwise
    /// identical epoch aggregates — the sparse path never densifies, it
    /// scatter-adds.
    #[test]
    fn sparse_ingest_matches_dense_ingest_bitwise() {
        use crowd_linalg::SparseVector;
        let dim = 16;
        let grads: Vec<Vec<f64>> = (0..6u64)
            .map(|step| {
                (0..dim)
                    .map(|i| {
                        if (i + step as usize).is_multiple_of(5) {
                            (i as f64 - 3.0) * 0.125
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut dense_set = EpochAccumulator::new(dim, 2);
        let mut sparse_set = EpochAccumulator::new(dim, 2);
        for (step, g) in grads.iter().enumerate() {
            let device = step as u64 % 2;
            let w = waiter();
            assert!(dense_set
                .ingest(&payload(device, g.clone(), step as u64), w)
                .is_ok());
            let w = waiter();
            let mut sparse_payload = payload(device, g.clone(), step as u64);
            sparse_payload.gradient =
                crowd_linalg::GradientUpdate::Sparse(SparseVector::from_dense(g));
            assert!(sparse_set.ingest(&sparse_payload, w).is_ok());
        }
        let dense_epoch = dense_set.drain().epoch.unwrap();
        let sparse_epoch = sparse_set.drain().epoch.unwrap();
        assert_eq!(dense_epoch.device_stats, sparse_epoch.device_stats);
        for (a, b) in dense_epoch
            .gradient_sum
            .iter()
            .zip(sparse_epoch.gradient_sum.iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The merge scratch and per-device accumulators cycle through the pool
    /// instead of being reallocated every epoch.
    #[test]
    fn drained_buffers_return_to_the_pool_and_get_reused() {
        let mut set = EpochAccumulator::new(4, 2);
        assert_eq!(set.pooled_buffers(), 0);
        for epoch in 0..3 {
            for device in 0..4u64 {
                let w = waiter();
                assert!(set
                    .ingest(&payload(device, vec![1.0, 0.0, 2.0, 0.0], epoch), w)
                    .is_ok());
            }
            let drained = set.drain();
            let agg = drained.epoch.unwrap();
            assert_eq!(agg.gradient_sum.as_slice(), &[4.0, 0.0, 8.0, 0.0]);
            // Device accumulators returned at drain; the merge buffer after
            // the (simulated) apply.
            assert_eq!(set.pooled_buffers(), 4);
            set.recycle_epoch(agg);
            assert_eq!(set.pooled_buffers(), 5);
        }
    }

    /// The drained sum is one left-to-right fold in ascending device-id
    /// order, also past 16 devices. The gradients make the order visible:
    /// folding `2^-53` into `1.0` rounds back to `1.0` each time, while
    /// summing the four of them first gives `1.0 + 2^-51`. A combine tree
    /// that summed devices 16..20 as their own block (as this module once
    /// did) fails this test.
    #[test]
    fn drain_folds_past_sixteen_devices_left_to_right() {
        let tiny = f64::EPSILON / 2.0;
        let grads: Vec<f64> = (0..20u64)
            .map(|device| match device {
                0 => 1.0,
                16.. => tiny,
                _ => 0.0,
            })
            .collect();
        let mut set = EpochAccumulator::new(1, 2);
        for device in (0..20u64).rev() {
            let p = payload(device, vec![grads[device as usize]], 0);
            assert!(set.ingest(&p, waiter()).is_ok());
        }
        let epoch = set.drain().epoch.unwrap();

        let mut ascending = 0.0f64;
        for &g in &grads {
            ascending += g;
        }
        let first_block: f64 = grads[..16].iter().fold(0.0, |acc, &g| acc + g);
        let last_block: f64 = grads[16..].iter().fold(0.0, |acc, &g| acc + g);
        assert_ne!(
            ascending.to_bits(),
            (first_block + last_block).to_bits(),
            "the gradients must tell the two orders apart"
        );
        assert_eq!(epoch.gradient_sum[0].to_bits(), ascending.to_bits());
        assert_eq!(epoch.device_stats.len(), 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The determinism contract: however the devices' checkins
        /// interleave, as long as each device's own arrive in the order it
        /// sent them, the drained epoch is bitwise the device-major one. Up
        /// to 24 devices, so epochs past 16 devices, where a blocked fold
        /// would round differently, are covered. (Ingest runs under the core
        /// lock, so an interleaving is all that concurrent submitters vary.)
        #[test]
        fn concurrent_sharded_ingest_matches_sequential_single_lock_bitwise(
            checkins in prop::collection::vec(1..5u64, 1..25),
            seed in any::<u64>(),
        ) {
            let dim = 8;
            // A device's `step`-th checkin. Magnitudes spread over 2^±20, so
            // folding in another order changes the bits.
            let make = |device: usize, step: u64| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((device as u64) << 32 | step));
                let grad = (0..dim)
                    .map(|_| rng.gen_range(-1.0..1.0) * 2f64.powi(rng.gen_range(-20..21)))
                    .collect();
                let mut p = payload(3 * device as u64 + 1, grad, step);
                p.num_samples = rng.gen_range(1..5);
                p.error_count = rng.gen_range(0..3);
                p.label_counts = vec![rng.gen_range(0..3), rng.gen_range(0..3)];
                p
            };

            let mut reference = EpochAccumulator::new(dim, 2);
            for (device, &n) in checkins.iter().enumerate() {
                for step in 0..n {
                    prop_assert!(reference.ingest(&make(device, step), waiter()).is_ok());
                }
            }
            let expected = reference.drain().epoch.unwrap();

            let mut interleaved = EpochAccumulator::new(dim, 2);
            let mut order = StdRng::seed_from_u64(!seed);
            let mut sent = vec![0u64; checkins.len()];
            let mut open: Vec<usize> = (0..checkins.len()).collect();
            while !open.is_empty() {
                let slot = order.gen_range(0..open.len());
                let device = open[slot];
                prop_assert!(interleaved.ingest(&make(device, sent[device]), waiter()).is_ok());
                sent[device] += 1;
                if sent[device] == checkins[device] {
                    open.swap_remove(slot);
                }
            }
            let merged = interleaved.drain().epoch.unwrap();

            prop_assert_eq!(merged.checkin_count, expected.checkin_count);
            prop_assert_eq!(&merged.device_stats, &expected.device_stats);
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&merged.gradient_sum), bits(&expected.gradient_sum));
        }
    }
}
