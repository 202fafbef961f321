//! The epoch merge stated plainly, as a pure function of one epoch's
//! checkins: bit for bit what the runtime's epoch accumulator drains (a NaN
//! sum's sign and payload aside, which IEEE 754 leaves open). Only tests,
//! and other crates' `spec` functions, call it.

use crowd_core::device::CheckinPayload;
use crowd_core::server::{DeviceEpochStats, EpochAggregate};
use crowd_linalg::Vector;
use std::collections::BTreeMap;

/// The aggregate Server Routine 2 applies for one epoch (Eq. 3's `Σĝ` and
/// `k`), or `None` for an empty epoch.
///
/// Each device's gradients are summed from `+0.0` in arrival order; the
/// device sums are then added from `+0.0` in ascending device id. A device's
/// counters are the totals of its checkins, and `min_checkout_iteration` is
/// the oldest checkout any checkin read. Every payload has `dim` gradient
/// coordinates and `classes` label counts.
pub fn epoch(checkins: &[CheckinPayload], dim: usize, classes: usize) -> Option<EpochAggregate> {
    let min_checkout_iteration = checkins.iter().map(|p| p.checkout_iteration).min()?;
    let mut devices: BTreeMap<u64, (Vec<f64>, DeviceEpochStats)> = BTreeMap::new();
    for p in checkins {
        let (sum, stats) = devices.entry(p.device_id).or_insert_with(|| {
            let stats = DeviceEpochStats {
                device_id: p.device_id,
                checkins: 0,
                samples: 0,
                errors: 0,
                label_counts: vec![0; classes],
            };
            (vec![0.0; dim], stats)
        });
        for (s, g) in sum.iter_mut().zip(p.gradient.to_dense().iter()) {
            *s += g;
        }
        stats.checkins += 1;
        stats.samples += p.num_samples as u64;
        stats.errors += p.error_count;
        for (total, c) in stats.label_counts.iter_mut().zip(&p.label_counts) {
            *total += c;
        }
    }
    let mut gradient_sum = vec![0.0; dim];
    for (sum, _) in devices.values() {
        for (total, s) in gradient_sum.iter_mut().zip(sum) {
            *total += s;
        }
    }
    Some(EpochAggregate {
        gradient_sum: Vector::from_vec(gradient_sum),
        checkin_count: checkins.len() as u64,
        min_checkout_iteration,
        device_stats: devices.into_values().map(|(_, stats)| stats).collect(),
    })
}
