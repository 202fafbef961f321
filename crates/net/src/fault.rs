//! Deterministic, seed-driven fault and churn planning.
//!
//! The paper's crowd is made of unreliable smart devices: connections drop,
//! uploads arrive twice or half-finished, devices join late, disappear
//! mid-task, or straggle behind everyone else, and the server itself can die
//! and restart. A [`FaultPlan`] compresses all of that into a single `u64`
//! seed: every decision — whether a particular wire exchange is dropped,
//! delayed, duplicated, or truncated; when a device joins, retires, or
//! straggles; at which server iterations a crash is scripted — is a pure
//! function of `(seed, device, op)` through the vendored deterministic rng.
//! Replaying a seed replays the exact fault schedule, which is what lets the
//! chaos suite print `CHAOS_SEED=n` as a complete repro for any failure.
//!
//! The plan only *decides*; injecting the faults is the
//! [`client`](crate::client)'s job, and applying churn/crashes is the
//! [`chaos`](crate::chaos) driver's. Keeping
//! the decisions here, behind pure functions, means the decisions cannot be
//! perturbed by thread timing: two runs with the same seed and the same
//! per-device operation sequence see identical faults.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the transport layer should do to one wire exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the exchange untouched.
    None,
    /// Fail before anything reaches the wire: the server never sees the
    /// request (a connection that died on dial).
    DropBeforeSend,
    /// Transmit the full request, then fail before reading the reply: the
    /// server *does* process the request, but the client cannot know it did.
    /// This is the case that makes retried checkins need a dedup nonce.
    DropAfterSend,
    /// Sleep this long before sending (a straggling radio), then deliver.
    DelaySend {
        /// Milliseconds to stall before the send.
        ms: u64,
    },
    /// Transmit the request frame twice on one connection: the server sees
    /// the checkin two times and must deduplicate.
    DuplicateFrame,
    /// Transmit a strict prefix of the frame and hang up mid-payload; the
    /// server must discard the partial frame without desynchronizing.
    TruncateFrame,
}

/// Mixes `(seed, device, op)` into an independent stream seed (SplitMix64
/// finalizer over the xor-combined words, applied twice to decorrelate the
/// low-entropy inputs).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(32);
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Seed-derived per-exchange transport faults.
///
/// Each wire exchange a device performs gets an operation number (0, 1, 2, …
/// in the order the device issues them); [`TransportFaults::decide`] maps
/// `(device, op)` to a [`FaultAction`] deterministically. The overall fault
/// rate and the mix of fault kinds are themselves derived from the seed, so a
/// seed sweep covers gentle and hostile networks alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaults {
    seed: u64,
    /// Probability that any given exchange is faulted at all.
    fault_rate: f64,
    /// Upper bound for sampled [`FaultAction::DelaySend`] stalls.
    max_delay_ms: u64,
}

impl TransportFaults {
    /// Derives the fault intensity from the seed: fault rates between 5% and
    /// 30%, delays up to `max_delay_ms`.
    pub fn from_seed(seed: u64, max_delay_ms: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xFA417, 0));
        TransportFaults {
            seed,
            fault_rate: rng.gen_range(0.05..0.30),
            max_delay_ms: max_delay_ms.max(1),
        }
    }

    /// A shim that never faults (the fault-free reference configuration).
    pub fn none() -> Self {
        TransportFaults {
            seed: 0,
            fault_rate: 0.0,
            max_delay_ms: 1,
        }
    }

    /// The fraction of exchanges that will be faulted.
    pub fn fault_rate(&self) -> f64 {
        self.fault_rate
    }

    /// The fault for device `device_id`'s `op`-th wire exchange. Pure: the
    /// same arguments always produce the same action.
    pub fn decide(&self, device_id: u64, op: u64) -> FaultAction {
        if self.fault_rate <= 0.0 {
            return FaultAction::None;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, device_id, op));
        if !rng.gen_bool(self.fault_rate) {
            return FaultAction::None;
        }
        match rng.gen_range(0..5u32) {
            0 => FaultAction::DropBeforeSend,
            1 => FaultAction::DropAfterSend,
            2 => FaultAction::DelaySend {
                ms: rng.gen_range(1..=self.max_delay_ms),
            },
            3 => FaultAction::DuplicateFrame,
            _ => FaultAction::TruncateFrame,
        }
    }
}

/// Seed-derived device churn: late joiners, mid-experiment retirement, and
/// stragglers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSchedule {
    seed: u64,
    /// Latest round (exclusive) at which a late joiner may first appear.
    max_join_round: u64,
    /// Straggler stall per checkin, milliseconds (0 = device never straggles).
    max_straggle_ms: u64,
}

impl ChurnSchedule {
    /// Derives a churn schedule. `max_join_round` bounds how late a device may
    /// join; `max_straggle_ms` bounds per-checkin straggler stalls.
    pub fn from_seed(seed: u64, max_join_round: u64, max_straggle_ms: u64) -> Self {
        ChurnSchedule {
            seed,
            max_join_round,
            max_straggle_ms,
        }
    }

    /// The round at which the device starts observing samples. About a third
    /// of devices join late; the rest are present from round 0.
    pub fn join_round(&self, device_id: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, device_id, 0x10));
        if self.max_join_round > 0 && rng.gen_bool(1.0 / 3.0) {
            rng.gen_range(1..=self.max_join_round)
        } else {
            0
        }
    }

    /// After how many acknowledged checkins the device retires (leaves the
    /// experiment with data still unseen), or `None` if it stays to the end.
    /// About a quarter of devices retire early.
    pub fn retire_after_checkins(&self, device_id: u64) -> Option<u64> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, device_id, 0x20));
        if rng.gen_bool(0.25) {
            Some(rng.gen_range(1..=4u64))
        } else {
            None
        }
    }

    /// Whether the device drops out of cohort round `round_id` mid-round: it
    /// checks out, derives a Selected role, and then vanishes without ever
    /// submitting its masked share. About a fifth of `(device, round)` pairs
    /// drop; the aggregator must finalize such rounds at their deadline from
    /// the survivors alone, compensating the missing pairwise masks.
    pub fn round_dropout(&self, device_id: u64, round_id: u64) -> bool {
        let mut rng =
            StdRng::seed_from_u64(mix(self.seed, device_id ^ round_id.rotate_left(16), 0x40));
        rng.gen_bool(0.2)
    }

    /// Milliseconds this device stalls before every checkin (its straggler
    /// latency). About a quarter of devices straggle; their slow checkins are
    /// what pushes partially filled epochs onto the aggregator's idle-flush
    /// path.
    pub fn straggle_ms(&self, device_id: u64) -> u64 {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, device_id, 0x30));
        if self.max_straggle_ms > 0 && rng.gen_bool(0.25) {
            rng.gen_range(1..=self.max_straggle_ms)
        } else {
            0
        }
    }
}

/// Scripted server crash points: after the server's applied-epoch count
/// reaches each listed iteration, the driver crash-stops (`kill()`) and
/// restarts it from its data directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Ascending iteration counts at which to crash.
    pub points: Vec<u64>,
}

impl CrashPlan {
    /// Derives 1–3 ascending crash points within `max_iterations`.
    pub fn from_seed(seed: u64, max_iterations: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xC4A54, 0));
        let crashes = rng.gen_range(1..=3usize);
        let mut points: Vec<u64> = (0..crashes)
            .map(|_| rng.gen_range(1..max_iterations.max(2)))
            .collect();
        points.sort_unstable();
        points.dedup();
        CrashPlan { points }
    }
}

/// A complete seeded fault schedule: transport faults, optional churn, and
/// optional scripted crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed everything is derived from.
    pub seed: u64,
    /// Per-exchange transport faults.
    pub transport: TransportFaults,
    /// Device churn (late join / retirement / stragglers); `None` = a stable
    /// fleet.
    pub churn: Option<ChurnSchedule>,
    /// Scripted server crash/restart points; `None` = the server stays up.
    pub crash: Option<CrashPlan>,
}

impl FaultPlan {
    /// No faults at all — the reference schedule every chaotic run is compared
    /// against.
    pub fn fault_free(seed: u64) -> Self {
        FaultPlan {
            seed,
            transport: TransportFaults::none(),
            churn: None,
            crash: None,
        }
    }

    /// Faults confined to the transport layer: drops, delays, duplicates, and
    /// truncations, but a stable fleet and an always-up server. Retries plus
    /// checkin dedup must make such a run land bitwise on the fault-free
    /// reference.
    pub fn transport_only(seed: u64) -> Self {
        FaultPlan {
            seed,
            transport: TransportFaults::from_seed(seed, 10),
            churn: None,
            crash: None,
        }
    }

    /// The round-mode storm: transport faults plus churn (whose schedule also
    /// scripts mid-round cohort dropouts via
    /// [`ChurnSchedule::round_dropout`]), but an always-up server. Used by the
    /// chaos suite when cohort rounds are enabled.
    pub fn rounds(seed: u64) -> Self {
        FaultPlan {
            seed,
            transport: TransportFaults::from_seed(seed, 10),
            churn: Some(ChurnSchedule::from_seed(seed, 6, 8)),
            crash: None,
        }
    }

    /// The full storm: transport faults, churn, and scripted server crashes
    /// (the crash points are capped by `max_iterations` of the run).
    pub fn full(seed: u64, max_iterations: u64) -> Self {
        FaultPlan {
            seed,
            transport: TransportFaults::from_seed(seed, 10),
            churn: Some(ChurnSchedule::from_seed(seed, 6, 8)),
            crash: Some(CrashPlan::from_seed(seed, max_iterations)),
        }
    }

    /// `true` when every fault the plan can inject lives in the transport
    /// layer (no churn, no crashes).
    pub fn is_transport_only(&self) -> bool {
        self.churn.is_none() && self.crash.is_none()
    }

    /// One-line human-readable anatomy of the plan, for trace headers.
    pub fn describe(&self) -> String {
        format!(
            "FaultPlan {{ seed: {}, transport_fault_rate: {:.3}, churn: {}, crash_points: {:?} }}",
            self.seed,
            self.transport.fault_rate(),
            self.churn.is_some(),
            self.crash
                .as_ref()
                .map(|c| c.points.as_slice())
                .unwrap_or(&[]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = TransportFaults::from_seed(42, 10);
        let b = TransportFaults::from_seed(42, 10);
        for device in 0..8u64 {
            for op in 0..64u64 {
                assert_eq!(a.decide(device, op), b.decide(device, op));
            }
        }
        let plan1 = FaultPlan::full(7, 100);
        let plan2 = FaultPlan::full(7, 100);
        assert_eq!(plan1, plan2);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = TransportFaults::from_seed(1, 10);
        let b = TransportFaults::from_seed(2, 10);
        let differs = (0..256u64).any(|op| a.decide(0, op) != b.decide(0, op));
        assert!(differs, "two seeds produced identical 256-op schedules");
    }

    #[test]
    fn fault_rate_is_bounded_and_realized() {
        for seed in 0..20u64 {
            let faults = TransportFaults::from_seed(seed, 10);
            assert!((0.05..0.30).contains(&faults.fault_rate()));
            let hits = (0..1000u64)
                .filter(|&op| faults.decide(3, op) != FaultAction::None)
                .count();
            let expected = faults.fault_rate() * 1000.0;
            assert!(
                (hits as f64) > expected * 0.4 && (hits as f64) < expected * 2.0,
                "seed {seed}: {hits} faults vs expected ~{expected:.0}"
            );
        }
    }

    #[test]
    fn fault_free_plan_never_faults() {
        let plan = FaultPlan::fault_free(9);
        assert!(plan.is_transport_only());
        for op in 0..512u64 {
            assert_eq!(plan.transport.decide(0, op), FaultAction::None);
        }
    }

    #[test]
    fn churn_schedule_spans_all_behaviours() {
        let churn = ChurnSchedule::from_seed(11, 6, 8);
        let mut late = 0;
        let mut retired = 0;
        let mut stragglers = 0;
        for device in 0..64u64 {
            let join = churn.join_round(device);
            assert!(join <= 6);
            if join > 0 {
                late += 1;
            }
            if let Some(k) = churn.retire_after_checkins(device) {
                assert!((1..=4).contains(&k));
                retired += 1;
            }
            let stall = churn.straggle_ms(device);
            assert!(stall <= 8);
            if stall > 0 {
                stragglers += 1;
            }
        }
        assert!(late > 0, "no late joiners across 64 devices");
        assert!(retired > 0, "no retirements across 64 devices");
        assert!(stragglers > 0, "no stragglers across 64 devices");
    }

    #[test]
    fn round_dropouts_are_deterministic_and_realized() {
        let churn = ChurnSchedule::from_seed(17, 6, 8);
        let again = ChurnSchedule::from_seed(17, 6, 8);
        let mut drops = 0;
        for device in 0..16u64 {
            for round in 1..=16u64 {
                assert_eq!(
                    churn.round_dropout(device, round),
                    again.round_dropout(device, round)
                );
                if churn.round_dropout(device, round) {
                    drops += 1;
                }
            }
        }
        // ~20% of 256 pairs; loose bounds so the test is not seed-brittle.
        assert!(
            (10..120).contains(&drops),
            "{drops} dropouts across 256 (device, round) pairs"
        );
        let plan = FaultPlan::rounds(17);
        assert!(plan.churn.is_some() && plan.crash.is_none());
        assert!(!plan.is_transport_only());
    }

    #[test]
    fn crash_plan_is_sorted_and_bounded() {
        for seed in 0..20u64 {
            let plan = CrashPlan::from_seed(seed, 40);
            assert!(!plan.points.is_empty() && plan.points.len() <= 3);
            assert!(plan.points.windows(2).all(|w| w[0] < w[1]));
            assert!(plan.points.iter().all(|&p| (1..40).contains(&p)));
        }
    }

    #[test]
    fn describe_names_the_seed() {
        let plan = FaultPlan::transport_only(123);
        let text = plan.describe();
        assert!(text.contains("123"));
        assert!(plan.is_transport_only());
        let full = FaultPlan::full(123, 50);
        assert!(!full.is_transport_only());
        assert!(full.describe().contains("churn: true"));
    }
}
