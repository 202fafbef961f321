//! Sharded gradient accumulators with a deterministic merge.
//!
//! Checkins hash to one of N lock stripes by device id, so concurrent devices
//! almost never contend on the same lock, and the expensive O(d) work of a
//! checkin — summing its gradient into a running accumulator — happens under
//! the stripe lock, not a global one.
//!
//! Determinism: every stripe keeps a *per-device* running sum (a device's own
//! checkins are sequential, so that sum is reproducible), and `ShardSet::drain`
//! folds the per-device sums in ascending device-id order regardless of which
//! stripe held them. The merged [`EpochAggregate`] is therefore bitwise
//! identical to what a single-lock sequential accumulator would produce from
//! the same per-device contributions — shard count and thread interleaving
//! cannot change a single bit of the aggregate. Sparse checkins scatter-add
//! into the same accumulators (never densified), which is bitwise equivalent
//! because skipping an exact-zero addend cannot change an accumulator that
//! started at `+0.0`.
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
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Upper bound on pooled accumulator buffers; beyond this, drained buffers are
/// simply dropped (the pool exists to serve the steady state, not bursts).
const MAX_POOLED_BUFFERS: usize = 64;

/// Devices per leaf block of the fixed merge combine tree. A compile-time
/// constant on purpose: the tree *shape* is a function of the device count
/// alone, never of worker count or thread scheduling, so parallel and
/// sequential merges are bitwise identical by construction.
const MERGE_BLOCK: usize = 16;

/// Fan the merge out to threads only past this many summed elements
/// (`device count × param_dim`); below it, thread spawn overhead dominates.
/// Purely a latency knob — crossing it cannot change a single output bit,
/// because the combine tree is the same either way.
const PARALLEL_MERGE_MIN_ELEMS: usize = 1 << 18;

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

/// One lock stripe: per-device accumulators plus the epoch's pending waiters.
#[derive(Default)]
struct Shard {
    devices: BTreeMap<u64, DeviceAccum>,
    waiters: Vec<Waiter>,
    payloads: u64,
    min_checkout_iteration: u64,
}

/// Everything removed from the stripes by one [`ShardSet::drain`] call.
pub(crate) struct DrainedEpoch {
    /// The merged aggregate, or `None` when nothing was pending.
    pub(crate) epoch: Option<EpochAggregate>,
    /// The handler threads waiting on this epoch.
    pub(crate) waiters: Vec<Waiter>,
    /// Number of checkins merged.
    pub(crate) count: u64,
}

/// N independently locked gradient accumulators.
pub struct ShardSet {
    // audit:lock(agg.shard, 20)
    shards: Vec<Mutex<Shard>>,
    param_dim: usize,
    num_classes: usize,
    /// Recycled parameter-dimension buffers, shared by the per-device
    /// accumulators and the merge scratch.
    // audit:lock(agg.shard-scratch, 25)
    scratch: Mutex<Vec<Vec<f64>>>,
    /// Threads the epoch merge may fan block sums across (1 = sequential).
    merge_workers: usize,
    /// Minimum summed elements before the merge actually goes parallel.
    parallel_min_elems: usize,
}

impl ShardSet {
    /// Creates `shard_count` stripes for gradients of dimension `param_dim`.
    pub fn new(shard_count: usize, param_dim: usize, num_classes: usize) -> Self {
        let shards = (0..shard_count.max(1))
            .map(|_| {
                Mutex::new(Shard {
                    min_checkout_iteration: u64::MAX,
                    ..Shard::default()
                })
            })
            .collect();
        ShardSet {
            shards,
            param_dim,
            num_classes,
            scratch: Mutex::new(Vec::new()),
            merge_workers: 1,
            parallel_min_elems: PARALLEL_MERGE_MIN_ELEMS,
        }
    }

    /// Lets the epoch merge fan its fixed combine tree across up to `n`
    /// scoped threads. The tree shape never depends on `n`, so any worker
    /// count (including 1) produces the identical aggregate; this only cuts
    /// merge latency once an epoch is large enough to clear the
    /// parallelism threshold.
    pub fn with_merge_workers(mut self, n: usize) -> Self {
        self.merge_workers = n.max(1);
        self
    }

    /// Overrides the parallel-merge size threshold (elements = devices ×
    /// `param_dim`). Exposed for tests and tuning; values at or below 0 make
    /// every multi-block merge parallel.
    pub fn with_parallel_min_elems(mut self, elems: usize) -> Self {
        self.parallel_min_elems = elems;
        self
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A zeroed `param_dim` accumulator, reusing pooled storage when possible.
    fn take_zeroed(&self) -> Vector {
        let mut buf = self.scratch.lock().pop().unwrap_or_default();
        buf.clear();
        buf.resize(self.param_dim, 0.0);
        Vector::from_vec(buf)
    }

    /// Returns an accumulator's storage to the pool.
    fn put_back(&self, v: Vector) {
        let mut shelf = self.scratch.lock();
        if shelf.len() < MAX_POOLED_BUFFERS {
            shelf.push(v.into_vec());
        }
    }

    /// Recycles an applied epoch's merged gradient buffer so the next
    /// [`ShardSet::drain`] reuses it instead of allocating.
    pub(crate) fn recycle_epoch(&self, epoch: EpochAggregate) {
        self.put_back(epoch.gradient_sum);
    }

    /// Number of buffers currently parked in the pool (test hook).
    #[cfg(test)]
    fn pooled_buffers(&self) -> usize {
        self.scratch.lock().len()
    }

    /// Folds one (pre-validated) checkin into its device's stripe accumulator.
    ///
    /// A payload whose dimensions do not match the configured model is handed
    /// back with its waiter (`Err`) so the caller can fail that one checkin
    /// instead of panicking the worker — submit-time validation makes this
    /// unreachable in practice, but a poisoned worker would take the whole
    /// server down with it.
    pub(crate) fn ingest(
        &self,
        payload: &CheckinPayload,
        waiter: Waiter,
    ) -> std::result::Result<(), Waiter> {
        if payload.gradient.dim() != self.param_dim
            || payload.label_counts.len() != self.num_classes
        {
            return Err(waiter);
        }
        let idx = (payload.device_id % self.shards.len() as u64) as usize;
        let mut shard = self.shards[idx].lock();
        let accum = shard
            .devices
            .entry(payload.device_id)
            .or_insert_with(|| DeviceAccum {
                gradient_sum: self.take_zeroed(),
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
        // rather than panic the worker. `add_into` checks before mutating, so
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
        shard.payloads += 1;
        shard.min_checkout_iteration = shard.min_checkout_iteration.min(payload.checkout_iteration);
        shard.waiters.push(waiter);
        Ok(())
    }

    /// Sums one leaf block of the combine tree: device accumulators fold
    /// left-to-right (ascending device id) into a pool-zeroed buffer, and the
    /// drained per-device storage returns to the pool. Runs on the draining
    /// thread or a merge worker — the fold order is identical either way.
    fn block_sum(&self, block: Vec<(u64, DeviceAccum)>) -> (Vector, Vec<DeviceEpochStats>) {
        let mut sum = self.take_zeroed();
        let mut stats = Vec::with_capacity(block.len());
        for (device_id, accum) in block {
            // Accumulators are all created at `param_dim`, so the elementwise
            // fold is total; `+=` matches `axpy(1.0, ·)` bit for bit without
            // a fallible call in the merge path.
            crowd_linalg::kernels::add_assign(sum.as_mut_slice(), accum.gradient_sum.as_slice());
            self.put_back(accum.gradient_sum);
            stats.push(DeviceEpochStats {
                device_id,
                checkins: accum.checkins,
                samples: accum.samples,
                errors: accum.errors,
                label_counts: accum.label_counts,
            });
        }
        (sum, stats)
    }

    /// Takes everything accumulated so far and merges it into one epoch.
    ///
    /// Stripes are locked one at a time (their contents moved out), then the
    /// per-device sums are folded through a *fixed combine tree*: ascending
    /// device-id order, grouped into [`MERGE_BLOCK`]-sized leaf blocks whose
    /// sums fold left-to-right into the aggregate. The tree shape depends
    /// only on the device count — never on shard count, worker count, or
    /// thread interleaving — so the merged epoch is bitwise reproducible,
    /// and large epochs can compute their block sums on scoped threads
    /// (see [`ShardSet::with_merge_workers`]) with zero effect on the bits.
    pub(crate) fn drain(&self) -> DrainedEpoch {
        let mut combined: BTreeMap<u64, DeviceAccum> = BTreeMap::new();
        let mut waiters = Vec::new();
        let mut count = 0u64;
        let mut min_checkout = u64::MAX;
        for stripe in &self.shards {
            let mut shard = stripe.lock();
            if shard.payloads == 0 {
                continue;
            }
            count += shard.payloads;
            min_checkout = min_checkout.min(shard.min_checkout_iteration);
            combined.append(&mut shard.devices);
            waiters.append(&mut shard.waiters);
            shard.payloads = 0;
            shard.min_checkout_iteration = u64::MAX;
        }
        if count == 0 {
            return DrainedEpoch {
                epoch: None,
                waiters,
                count: 0,
            };
        }
        // Group the device-ordered accumulators into the tree's leaf blocks.
        let device_count = combined.len();
        let mut blocks: Vec<Vec<(u64, DeviceAccum)>> =
            Vec::with_capacity(device_count.div_ceil(MERGE_BLOCK));
        for entry in combined {
            match blocks.last_mut() {
                Some(block) if block.len() < MERGE_BLOCK => block.push(entry),
                _ => {
                    let mut block = Vec::with_capacity(MERGE_BLOCK);
                    block.push(entry);
                    blocks.push(block);
                }
            }
        }
        // Block sums land in order-preserving slots; whether a scoped worker
        // or this thread fills a slot cannot matter, because each block's
        // fold and the final left-to-right fold over slots are both fixed.
        let mut slots: Vec<Option<(Vector, Vec<DeviceEpochStats>)>> =
            blocks.iter().map(|_| None).collect();
        let workers = self.merge_workers.min(blocks.len()).max(1);
        if workers > 1 && device_count.saturating_mul(self.param_dim) >= self.parallel_min_elems {
            let per = blocks.len().div_ceil(workers);
            // Hand each worker an owned run of blocks plus the matching
            // `&mut` run of result slots (disjoint, so no locks needed).
            let mut groups: Vec<Vec<Vec<(u64, DeviceAccum)>>> = Vec::with_capacity(workers);
            let mut group = Vec::with_capacity(per);
            for block in blocks {
                group.push(block);
                if group.len() == per {
                    groups.push(std::mem::take(&mut group));
                    group = Vec::with_capacity(per);
                }
            }
            if !group.is_empty() {
                groups.push(group);
            }
            std::thread::scope(|scope| {
                let mut rest = slots.as_mut_slice();
                for group in groups {
                    let take = group.len().min(rest.len());
                    let (mine, tail) = std::mem::take(&mut rest).split_at_mut(take);
                    rest = tail;
                    scope.spawn(move || {
                        for (slot, block) in mine.iter_mut().zip(group) {
                            *slot = Some(self.block_sum(block));
                        }
                    });
                }
            });
        } else {
            for (slot, block) in slots.iter_mut().zip(blocks) {
                *slot = Some(self.block_sum(block));
            }
        }
        // Root fold, left to right over block sums. A single block (≤ 16
        // devices, the common small-epoch case) short-circuits: its sum IS
        // the aggregate, with no extra zero-buffer add. The merge scratch
        // comes from (and returns to) the buffer pool: no parameter-sized
        // allocation on the steady-state epoch path.
        let mut filled = slots.into_iter().flatten();
        let (mut gradient_sum, mut device_stats) = match filled.next() {
            Some((sum, stats)) => (sum, stats),
            // Unreachable (count > 0 ⇒ ≥ 1 block), but the merge path must
            // not panic a worker: report an empty epoch instead.
            None => (self.take_zeroed(), Vec::new()),
        };
        device_stats.reserve(device_count.saturating_sub(device_stats.len()));
        for (block_sum, stats) in filled {
            crowd_linalg::kernels::add_assign(gradient_sum.as_mut_slice(), block_sum.as_slice());
            self.put_back(block_sum);
            device_stats.extend(stats);
        }
        DrainedEpoch {
            epoch: Some(EpochAggregate {
                gradient_sum,
                checkin_count: count,
                min_checkout_iteration: min_checkout,
                device_stats,
            }),
            waiters,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_core::server::CheckinReceipt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc;
    use std::sync::Arc;

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

    fn waiter() -> (Waiter, mpsc::Receiver<CheckinReceipt>) {
        let (tx, rx) = mpsc::channel();
        (
            Waiter {
                checkout_iteration: 0,
                device_id: 0,
                nonce: 0,
                reply: Reply::caller(tx),
                submitted: crowd_telemetry::Clock::logical().start(),
            },
            rx,
        )
    }

    #[test]
    fn drain_merges_devices_in_id_order() {
        let set = ShardSet::new(4, 3, 2);
        for device in [9u64, 2, 5] {
            let (w, _rx) = waiter();
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
        let set = ShardSet::new(2, 2, 2);
        for step in 0..3u64 {
            let (w, _rx) = waiter();
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
        let set = ShardSet::new(2, 3, 2);
        let (w, rx) = waiter();
        // Wrong gradient dimension: the waiter comes back so the caller can
        // fail that checkin, and nothing lands on any shard.
        assert!(set.ingest(&payload(0, vec![1.0; 5], 0), w).is_err());
        let (w, _rx2) = waiter();
        let mut bad_counts = payload(0, vec![1.0, 2.0, 3.0], 0);
        bad_counts.label_counts = vec![1];
        assert!(set.ingest(&bad_counts, w).is_err());
        assert!(set.drain().epoch.is_none());
        drop(rx);
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
        let dense_set = ShardSet::new(3, dim, 2);
        let sparse_set = ShardSet::new(3, dim, 2);
        for (step, g) in grads.iter().enumerate() {
            let device = step as u64 % 2;
            let (w, _rx) = waiter();
            assert!(dense_set
                .ingest(&payload(device, g.clone(), step as u64), w)
                .is_ok());
            let (w, _rx) = waiter();
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
        let set = ShardSet::new(2, 4, 2);
        assert_eq!(set.pooled_buffers(), 0);
        for epoch in 0..3 {
            for device in 0..4u64 {
                let (w, _rx) = waiter();
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

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The combine-tree contract: a parallel merge (many workers, tiny
        /// threshold so it really runs on threads) is bitwise identical to
        /// the sequential merge at any shard count, device count, and
        /// dimension — including device counts straddling block boundaries.
        #[test]
        fn parallel_merge_matches_sequential_merge_bitwise(
            shard_count in 1usize..9,
            devices in 1u64..70,
            dim in 1usize..40,
            checkins_per_device in 1u64..4,
            seed in any::<u64>(),
        ) {
            let make_grad = |device: u64, step: u64| -> Vec<f64> {
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (device.wrapping_mul(1000) + step),
                );
                (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
            };
            let fill = |set: &ShardSet| {
                for device in 0..devices {
                    for step in 0..checkins_per_device {
                        let (tx, _rx) = mpsc::channel();
                        let mut p = payload(device, make_grad(device, step), step);
                        p.label_counts = vec![1, 1];
                        assert!(set
                            .ingest(
                                &p,
                                Waiter {
                                    checkout_iteration: step,
                                    device_id: device,
                                    nonce: 0,
                                    reply: Reply::caller(tx),
                                    submitted: crowd_telemetry::Clock::logical().start(),
                                },
                            )
                            .is_ok());
                    }
                }
            };
            let sequential = ShardSet::new(shard_count, dim, 2);
            fill(&sequential);
            let expected = sequential.drain().epoch.unwrap();

            let parallel = ShardSet::new(shard_count, dim, 2)
                .with_merge_workers(4)
                .with_parallel_min_elems(0);
            fill(&parallel);
            let merged = parallel.drain().epoch.unwrap();

            prop_assert_eq!(merged.checkin_count, expected.checkin_count);
            prop_assert_eq!(&merged.device_stats, &expected.device_stats);
            for (a, b) in merged.gradient_sum.iter().zip(expected.gradient_sum.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The determinism contract: concurrent ingest through many shards yields an
    /// aggregate bitwise identical to sequential ingest through a single lock.
    #[test]
    fn concurrent_sharded_ingest_matches_sequential_single_lock_bitwise() {
        let dim = 24;
        let devices = 12u64;
        let checkins_per_device = 5u64;
        let make_grad = move |device: u64, step: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(device * 1000 + step);
            (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
        };

        // Sequential reference: one stripe, one thread, device-major order.
        let reference = ShardSet::new(1, dim, 2);
        for device in 0..devices {
            for step in 0..checkins_per_device {
                let (w, _rx) = waiter();
                assert!(reference
                    .ingest(&payload(device, make_grad(device, step), step), w)
                    .is_ok());
            }
        }
        let expected = reference.drain().epoch.unwrap();

        // Concurrent sharded run: one thread per device, 5 stripes.
        let sharded = Arc::new(ShardSet::new(5, dim, 2));
        let mut handles = Vec::new();
        for device in 0..devices {
            let set = Arc::clone(&sharded);
            handles.push(std::thread::spawn(move || {
                for step in 0..checkins_per_device {
                    let (tx, _rx) = mpsc::channel();
                    assert!(set
                        .ingest(
                            &payload(device, make_grad(device, step), step),
                            Waiter {
                                checkout_iteration: step,
                                device_id: device,
                                nonce: 0,
                                reply: Reply::caller(tx),
                                submitted: crowd_telemetry::Clock::logical().start(),
                            },
                        )
                        .is_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let merged = sharded.drain().epoch.unwrap();

        assert_eq!(merged.checkin_count, expected.checkin_count);
        assert_eq!(merged.device_stats, expected.device_stats);
        // Bit-for-bit: compare the raw f64 slices with exact equality.
        assert_eq!(
            merged.gradient_sum.as_slice(),
            expected.gradient_sum.as_slice()
        );
    }
}
