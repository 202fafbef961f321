//! The epoch accumulator `epoch::EpochAccumulator` replaced, frozen as the
//! oracle of the differential tests in `epoch::tests`: every device's
//! accumulator starts as a zeroed pooled buffer that each checkin is added
//! into, and `drain` folds the per-device sums into one zeroed buffer with a
//! full-length `add_assign` per device, in ascending device-id order. The
//! pool keeps up to 64 buffers. Test-only — nothing outside `#[cfg(test)]`
//! may call it.

use crate::epoch::{DrainedEpoch, Waiter};
use crowd_core::device::CheckinPayload;
use crowd_core::server::{DeviceEpochStats, EpochAggregate};
use crowd_linalg::Vector;
use std::collections::BTreeMap;

/// Upper bound on pooled accumulator buffers; beyond this, drained buffers are
/// simply dropped (the pool exists to serve the steady state, not bursts).
const MAX_POOLED_BUFFERS: usize = 64;

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
