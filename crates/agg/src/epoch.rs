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
//! in ascending device-id order, every coordinate starting at `+0.0`. How the
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
//! The drain works through the coordinates in blocks of [`FOLD_BLOCK`], so
//! the block of the merged sum stays in L1 while every device is added into
//! it; each coordinate still takes the same additions in the same order.
//!
//! Allocation: a device's first dense checkin of an epoch *becomes* its
//! accumulator: the decoded gradient is adopted, with no zeroed buffer and no
//! add (the proof that this is exact is at [`EpochAccumulator::ingest`]).
//! A first sparse or quantized checkin takes a zeroed buffer from a small
//! pool, and so does the drain for the merged sum; the runtime returns the
//! merged epoch's storage after the epoch is applied. The pool keeps only as
//! many buffers as the last epoch took from it, so adopted gradients are
//! freed at the drain rather than parked.

// Request path: a panic here would tear down a server worker mid-epoch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use crate::reply::Reply;
use crowd_core::device::CheckinPayload;
use crowd_core::server::{DeviceEpochStats, EpochAggregate};
use crowd_linalg::{GradientUpdate, Vector};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Coordinates per block of [`EpochAccumulator::drain`]'s fold: 2 KB of the
/// merged sum, which stays in L1 while every device's block is added to it.
const FOLD_BLOCK: usize = 256;

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
    /// Recycled parameter-dimension buffers for the accumulators that cannot
    /// adopt a checkin's gradient and for the merged sum.
    pool: BufferPool,
}

/// The accumulator's buffer pool. It keeps only as many buffers as the last
/// drained epoch took from it: the steady state's, not a burst's.
#[derive(Default)]
struct BufferPool {
    buffers: Vec<Vec<f64>>,
    /// Buffers the open epoch has taken so far.
    taken: usize,
    /// How many buffers the pool keeps.
    cap: usize,
}

impl BufferPool {
    /// A `dim` buffer from the pool (or a fresh one), its contents
    /// unspecified.
    fn take(&mut self, dim: usize) -> Vec<f64> {
        self.taken += 1;
        let mut buf = self.buffers.pop().unwrap_or_default();
        buf.resize(dim, 0.0);
        buf
    }

    /// Returns a buffer to the pool if it keeps one more, leaving room for
    /// `in_flight` buffers still to come back.
    fn put_back(&mut self, buf: Vec<f64>, in_flight: usize) {
        if self.buffers.len() + in_flight < self.cap {
            self.buffers.push(buf);
        }
    }

    /// Closes an epoch's count: from now on the pool keeps what it took.
    fn close_epoch(&mut self) {
        self.cap = std::mem::take(&mut self.taken);
    }
}

impl EpochAccumulator {
    /// An empty accumulator for gradients of dimension `param_dim`.
    pub(crate) fn new(param_dim: usize, num_classes: usize) -> Self {
        EpochAccumulator {
            open: OpenEpoch::new(),
            param_dim,
            num_classes,
            pool: BufferPool::default(),
        }
    }

    /// Recycles an applied epoch's merged gradient buffer so the next
    /// [`EpochAccumulator::drain`] reuses it instead of allocating.
    pub(crate) fn recycle_epoch(&mut self, epoch: EpochAggregate) {
        self.pool.put_back(epoch.gradient_sum.into_vec(), 0);
    }

    /// Number of buffers currently parked in the pool (test hook).
    #[cfg(test)]
    fn pooled_buffers(&self) -> usize {
        self.pool.buffers.len()
    }

    /// Folds one (pre-validated) checkin into its device's accumulator and
    /// returns how many checkins the open epoch now holds.
    ///
    /// A device's first checkin of the epoch starts its accumulator. A dense
    /// gradient is adopted as it is instead of being added into a zeroed
    /// buffer. That is exact: `+0.0 + g` is `g` for every `g` but
    /// `−0.0`, which it turns into `+0.0`, so the adopted sum can differ from
    /// the added one only in the sign of a zero, and adding the device's
    /// later checkins keeps it that way (`±0.0 + y` is `y` for `y ≠ ±0.0`).
    /// [`EpochAccumulator::drain`] starts every coordinate at `+0.0`, and a
    /// round-to-nearest sum that starts at `+0.0` is never `−0.0`, so adding
    /// `+0.0` or `−0.0` to it gives the same bits. The merged sum cannot tell
    /// the two accumulators apart. (A NaN's payload and sign are outside
    /// this, as they are for any two compilations of one fold: IEEE 754
    /// leaves open which of two NaN operands a sum returns, and LLVM may
    /// commute an addition's operands.)
    ///
    /// A payload whose dimensions do not match the configured model is handed
    /// back with its waiter (`Err`) so the caller can fail that one checkin
    /// instead of panicking the thread — submit-time validation makes this
    /// unreachable in practice, but a panic under the core lock would take
    /// the whole server down with it.
    pub(crate) fn ingest(
        &mut self,
        payload: CheckinPayload,
        waiter: Waiter,
    ) -> std::result::Result<u64, Waiter> {
        if payload.gradient.dim() != self.param_dim
            || payload.label_counts.len() != self.num_classes
        {
            return Err(waiter);
        }
        let CheckinPayload {
            device_id,
            checkout_iteration,
            gradient,
            num_samples,
            error_count,
            label_counts,
            ..
        } = payload;
        // Dense updates fold element-wise, sparse updates scatter-add — both
        // bitwise identical to `axpy(1.0, ·)` on these accumulators (skipping
        // an exact-zero addend is a no-op on a sum that started at `+0.0`).
        // The dimension check above and the pool invariant (accumulators are
        // always `param_dim`) make the `add_into` errors unreachable; hand the
        // checkin back rather than panic the thread. `add_into` checks before
        // mutating, so no accumulator or counter has moved on the error path.
        match self.open.devices.entry(device_id) {
            Entry::Vacant(slot) => {
                let gradient_sum = match gradient {
                    GradientUpdate::Dense(adopted) => adopted,
                    other => {
                        let mut zeroed = self.pool.take(self.param_dim);
                        zeroed.fill(0.0);
                        let mut sum = Vector::from_vec(zeroed);
                        if other.add_into(&mut sum).is_err() {
                            return Err(waiter);
                        }
                        sum
                    }
                };
                // The counters start at 0, so adopting the first checkin's
                // is the same as adding them.
                slot.insert(DeviceAccum {
                    gradient_sum,
                    checkins: 1,
                    samples: num_samples as u64,
                    errors: error_count,
                    label_counts,
                });
            }
            Entry::Occupied(slot) => {
                let accum = slot.into_mut();
                if gradient.add_into(&mut accum.gradient_sum).is_err() {
                    return Err(waiter);
                }
                accum.checkins += 1;
                accum.samples += num_samples as u64;
                accum.errors += error_count;
                for (acc, c) in accum.label_counts.iter_mut().zip(label_counts) {
                    *acc += c;
                }
            }
        }
        let open = &mut self.open;
        open.payloads += 1;
        open.min_checkout_iteration = open.min_checkout_iteration.min(checkout_iteration);
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
    /// are then folded, in ascending device-id order and block by block over
    /// the coordinates, into one pooled buffer. Every coordinate starts at
    /// `+0.0` and takes the devices' additions in that order, exactly as a
    /// left-to-right fold of full-length vectors would. The drained
    /// per-device buffers go back to the pool as far as it keeps them.
    pub(crate) fn drain(&mut self) -> DrainedEpoch {
        let taken = std::mem::replace(&mut self.open, OpenEpoch::new());
        if taken.payloads == 0 {
            return DrainedEpoch {
                epoch: None,
                waiters: taken.waiters,
                count: 0,
            };
        }
        let mut merged = self.pool.take(self.param_dim);
        let sums: Vec<&[f64]> = taken
            .devices
            .values()
            .map(|accum| accum.gradient_sum.as_slice())
            .collect();
        fold_in_blocks(&mut merged, &sums);
        // The pool keeps what this epoch took, one slot of it for the merged
        // buffer that `recycle_epoch` brings back.
        self.pool.close_epoch();
        let mut device_stats = Vec::with_capacity(taken.devices.len());
        for (device_id, accum) in taken.devices {
            self.pool.put_back(accum.gradient_sum.into_vec(), 1);
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
                gradient_sum: Vector::from_vec(merged),
                checkin_count: taken.payloads,
                min_checkout_iteration: taken.min_checkout_iteration,
                device_stats,
            }),
            waiters: taken.waiters,
            count: taken.payloads,
        }
    }
}

/// `out = Σ sums`, left to right from `+0.0` in every coordinate, worked
/// through [`FOLD_BLOCK`] coordinates at a time. Starting from `+0.0` rather
/// than from the first sum is what makes adopted accumulators exact (see
/// [`EpochAccumulator::ingest`]).
fn fold_in_blocks(out: &mut [f64], sums: &[&[f64]]) {
    for (block, out) in out.chunks_mut(FOLD_BLOCK).enumerate() {
        let start = block * FOLD_BLOCK;
        out.fill(0.0);
        for sum in sums {
            crowd_linalg::kernels::add_assign(out, &sum[start..start + out.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
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
                .ingest(payload(device, vec![device as f64, 0.0, 0.0], device), w)
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
            assert!(set.ingest(payload(7, vec![1.0, 2.0], step), w).is_ok());
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
        assert!(set.ingest(payload(0, vec![1.0; 5], 0), waiter()).is_err());
        let mut bad_counts = payload(0, vec![1.0, 2.0, 3.0], 0);
        bad_counts.label_counts = vec![1];
        assert!(set.ingest(bad_counts, waiter()).is_err());
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
                .ingest(payload(device, g.clone(), step as u64), w)
                .is_ok());
            let w = waiter();
            let mut sparse_payload = payload(device, g.clone(), step as u64);
            sparse_payload.gradient =
                crowd_linalg::GradientUpdate::Sparse(SparseVector::from_dense(g));
            assert!(sparse_set.ingest(sparse_payload, w).is_ok());
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

    /// The merge buffer cycles through the pool instead of being reallocated
    /// every epoch, and the pool does not grow.
    #[test]
    fn drained_buffers_return_to_the_pool_and_get_reused() {
        let mut set = EpochAccumulator::new(4, 2);
        assert_eq!(set.pooled_buffers(), 0);
        for epoch in 0..3 {
            for device in 0..4u64 {
                let w = waiter();
                assert!(set
                    .ingest(payload(device, vec![1.0, 0.0, 2.0, 0.0], epoch), w)
                    .is_ok());
            }
            let drained = set.drain();
            let agg = drained.epoch.unwrap();
            assert_eq!(agg.gradient_sum.as_slice(), &[4.0, 0.0, 8.0, 0.0]);
            // The dense accumulators were adopted, so the pool keeps only the
            // merge buffer, which comes back after the (simulated) apply.
            assert_eq!(set.pooled_buffers(), 0);
            set.recycle_epoch(agg);
            assert_eq!(set.pooled_buffers(), 1);
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
            assert!(set.ingest(p, waiter()).is_ok());
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

    /// An adopted accumulator keeps a checkin's `−0.0`, which the spec's
    /// `+0.0`-started device sum turns into `+0.0`; the drain's `+0.0` start
    /// makes the merged sum `+0.0` again. A fold that started from the first
    /// device's sum instead would return `−0.0` here.
    #[test]
    fn adopted_negative_zeros_drain_to_positive_zeros() {
        let grads = [vec![-0.0, 1.5, -0.0], vec![-0.0, -0.0, 2.0]];
        for devices in 1..=grads.len() {
            let mut set = EpochAccumulator::new(3, 2);
            let mut checkins = Vec::new();
            for (device, g) in grads[..devices].iter().enumerate() {
                let p = payload(device as u64, g.clone(), 0);
                checkins.push(p.clone());
                assert!(set.ingest(p, waiter()).is_ok());
            }
            let merged = set.drain().epoch.unwrap().gradient_sum;
            let expected = spec::epoch(&checkins, 3, 2).unwrap().gradient_sum;
            assert_eq!(merged[0].to_bits(), 0.0f64.to_bits());
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&merged), bits(&expected));
        }
    }

    /// One coordinate of an oracle-test gradient: `±0.0`, a subnormal, `±∞`,
    /// a quiet NaN with a random payload, or a magnitude within `2^±20` —
    /// zeros at rate `zeros`, the non-finite values at rate `specials`.
    fn coordinate(rng: &mut StdRng, zeros: f64, specials: f64) -> f64 {
        let sign = if rng.gen() { 1.0 } else { -1.0 };
        if rng.gen_bool(zeros) {
            return sign * 0.0;
        }
        if rng.gen_bool(specials) {
            return match rng.gen_range(0..3) {
                0 => sign * f64::INFINITY,
                1 => sign * f64::from_bits(0x7ff8_0000_0000_0000 | rng.gen_range(0..1u64 << 51)),
                _ => sign * f64::from_bits(rng.gen_range(1..1u64 << 52)),
            };
        }
        if rng.gen_bool(0.1) {
            return sign * f64::from_bits(rng.gen_range(1..1u64 << 52));
        }
        rng.gen_range(-1.0..1.0) * 2f64.powi(rng.gen_range(-20..21))
    }

    /// A checkin in one of the three encodings: dense, sparse (the same
    /// coordinates, `+0.0`s left out) or quantized (finite levels times a
    /// shared scale).
    fn oracle_payload(
        rng: &mut StdRng,
        device_id: u64,
        dim: usize,
        zeros: f64,
        specials: f64,
    ) -> CheckinPayload {
        let dense: Vec<f64> = (0..dim).map(|_| coordinate(rng, zeros, specials)).collect();
        let gradient = match rng.gen_range(0..4) {
            0 => {
                crowd_linalg::GradientUpdate::Sparse(crowd_linalg::SparseVector::from_dense(&dense))
            }
            1 => {
                let scale = 2f64.powi(rng.gen_range(-40..5)) * rng.gen_range(0.5..1.0);
                let levels = (0..dim).map(|_| rng.gen_range(-300..300)).collect();
                crowd_linalg::GradientUpdate::Quantized(
                    crowd_linalg::QuantizedVector::from_parts(scale, levels).unwrap(),
                )
            }
            _ => Vector::from_vec(dense).into(),
        };
        CheckinPayload {
            device_id,
            checkout_iteration: rng.gen_range(0..50),
            nonce: 0,
            gradient,
            num_samples: rng.gen_range(1..5),
            error_count: rng.gen_range(-2..3),
            label_counts: vec![rng.gen_range(-2..3), rng.gen_range(0..3)],
        }
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
                    prop_assert!(reference.ingest(make(device, step), waiter()).is_ok());
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
                prop_assert!(interleaved.ingest(make(device, sent[device]), waiter()).is_ok());
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

        /// The accumulator against `spec::epoch`, bit for bit, over several
        /// epochs on one accumulator (so pooled buffers are reused): dims 0,
        /// 1 and around the fold block, 1–40 devices with repeat checkins,
        /// dense, sparse and quantized payloads, and coordinates from
        /// `±0.0`, subnormals, `±∞`, NaN and `2^±20`.
        ///
        /// A NaN matches any NaN: IEEE 754 leaves open which operand's
        /// payload and sign a sum of two NaNs carries, and LLVM may commute
        /// an addition's operands, so two compilations of the same fold can
        /// differ there (the baseline x86-64 build of these two does).
        #[test]
        fn accumulator_is_bitwise_the_frozen_oracle(
            seed in any::<u64>(),
            dim in 0usize..8,
            devices in 1u64..=40,
            zeros in 0usize..3,
            specials in 0usize..3,
        ) {
            let dim = [0, 1, 2, 7, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1, 600][dim];
            let zeros = [0.0, 0.3, 0.9][zeros];
            let specials = [0.0, 0.01, 0.2][specials];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = EpochAccumulator::new(dim, 2);
            for _epoch in 0..3 {
                let mut checkins = Vec::new();
                for _ in 0..rng.gen_range(1..=2 * devices) {
                    let device = rng.gen_range(0..devices) * 7;
                    let p = oracle_payload(&mut rng, device, dim, zeros, specials);
                    checkins.push(p.clone());
                    prop_assert_eq!(set.ingest(p, waiter()).ok(), Some(checkins.len() as u64));
                }
                prop_assert_eq!(set.pending(), checkins.len() as u64);
                let merged = set.drain();
                prop_assert_eq!(merged.count, checkins.len() as u64);
                prop_assert_eq!(merged.waiters.len(), checkins.len());
                let merged = merged.epoch.unwrap();
                let expected = spec::epoch(&checkins, dim, 2).unwrap();
                prop_assert_eq!(merged.checkin_count, expected.checkin_count);
                prop_assert_eq!(merged.min_checkout_iteration, expected.min_checkout_iteration);
                prop_assert_eq!(&merged.device_stats, &expected.device_stats);
                let bits = |v: &Vector| {
                    v.iter()
                        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&merged.gradient_sum), bits(&expected.gradient_sum));
                set.recycle_epoch(merged);
            }
        }
    }
}
