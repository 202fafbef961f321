//! Golden bytes of the WAL record and snapshot body formats. The `CMLWAL02`
//! magic versions the segment header; these pin the byte layout of what goes
//! inside. Each fixed instance (vectors of dimension 6) must encode to
//! exactly the hex below, and that hex must decode back to the instance, so a
//! codec change that moves a single byte cannot strand a durable directory.

use crowd_core::server::{
    DeviceEpochStats, DeviceProgress, EpochAggregate, PendingSubmission, RoundStateSnapshot,
    ServerState,
};
use crowd_learning::LearningRate;
use crowd_linalg::Vector;
use crowd_store::codec::{
    decode_record, decode_state, encode_epoch_record, encode_round_advance_record,
    encode_round_submit_record, encode_state, EpochRecord, WalRecord,
};

const D6: [f64; 6] = [0.5, -1.25, 3.75, f64::MIN_POSITIVE, -0.0, 1e300];

fn submission() -> PendingSubmission {
    PendingSubmission {
        device_id: 12,
        nonce: 0x0102_0304,
        checkout_iteration: 55,
        words: vec![0, u64::MAX, 0x0807_0605_0403_0201, 1, 2, 3],
        num_samples: 8,
        error_count: -2,
        label_counts: vec![3, 5],
    }
}

fn epoch_record() -> EpochRecord {
    EpochRecord {
        pre_iteration: 17,
        epoch: EpochAggregate {
            gradient_sum: Vector::from_vec(D6.to_vec()),
            checkin_count: 3,
            min_checkout_iteration: 15,
            device_stats: vec![
                DeviceEpochStats {
                    device_id: 1,
                    checkins: 2,
                    samples: 8,
                    errors: -1,
                    label_counts: vec![3, 5],
                },
                DeviceEpochStats {
                    device_id: 4,
                    checkins: 1,
                    samples: 4,
                    errors: 0,
                    label_counts: vec![],
                },
            ],
        },
        charges: vec![(1, 0.2), (4, 0.1)],
    }
}

fn state() -> ServerState {
    ServerState {
        params: Vector::from_vec(D6.to_vec()),
        iteration: 42,
        total_samples: 1234,
        total_errors: -7,
        progress: vec![(
            3,
            DeviceProgress {
                samples: 10,
                errors: 2,
                label_counts: vec![4, -1],
                checkins: 5,
            },
        )],
        schedule: LearningRate::AdaGrad {
            c: 0.5,
            delta: 1e-8,
            accumulated: Vector::from_vec(vec![0.125, 2.0, 0.0, 3.5, 1.0, 0.25]),
        },
        budget_ledger: vec![(3, 1.25)],
        round: Some(RoundStateSnapshot {
            round_id: 4,
            opened_iteration: 40,
            pending: vec![submission()],
        }),
        last_round: vec![(3, 3, 99)],
    }
}

const EPOCH_RECORD: &str = "01110000000000000006000000000000000000e03f000000000000f4bf0000000000000e40000000000000100000000000000000809c7500883ce4377e03000000000000000f0000000000000002000000010000000000000002000000000000000800000000000000ffffffffffffffff02000000030000000000000005000000000000000400000000000000010000000000000004000000000000000000000000000000000000000200000001000000000000009a9999999999c93f04000000000000009a9999999999b93f";
const ROUND_SUBMIT_RECORD: &str = "0206000000000000000c0000000000000004030201000000003700000000000000060000000000000000000000ffffffffffffffff010203040506070801000000000000000200000000000000030000000000000008000000feffffffffffffff0200000003000000000000000500000000000000";
const ROUND_ADVANCE_RECORD: &str = "030600000000000000";
const STATE: &str = "06000000000000000000e03f000000000000f4bf0000000000000e40000000000000100000000000000000809c7500883ce4377e2a00000000000000d204000000000000f9ffffffffffffff0100000003000000000000000a0000000000000002000000000000000500000000000000020000000400000000000000ffffffffffffffff03000000000000e03f3a8c30e28e79453e06000000000000000000c03f000000000000004000000000000000000000000000000c40000000000000f03f000000000000d03f010000000300000000000000000000000000f43f0104000000000000002800000000000000010000000c0000000000000004030201000000003700000000000000060000000000000000000000ffffffffffffffff010203040506070801000000000000000200000000000000030000000000000008000000feffffffffffffff020000000300000000000000050000000000000001000000030000000000000003000000000000006300000000000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex parses"))
        .collect()
}

#[test]
fn wal_records_encode_to_their_golden_bytes() {
    let record = epoch_record();
    let epoch = encode_epoch_record(record.pre_iteration, &record.epoch, &record.charges);
    assert_eq!(hex(&epoch), EPOCH_RECORD, "epoch record");
    assert_eq!(
        hex(&encode_round_submit_record(6, &submission())),
        ROUND_SUBMIT_RECORD,
        "round submit record"
    );
    assert_eq!(
        hex(&encode_round_advance_record(6)),
        ROUND_ADVANCE_RECORD,
        "round advance record"
    );
}

#[test]
fn golden_wal_records_decode_to_their_instances() {
    assert_eq!(
        decode_record(&unhex(EPOCH_RECORD)).unwrap(),
        WalRecord::Epoch(epoch_record())
    );
    assert_eq!(
        decode_record(&unhex(ROUND_SUBMIT_RECORD)).unwrap(),
        WalRecord::RoundSubmit {
            round_id: 6,
            submission: submission(),
        }
    );
    assert_eq!(
        decode_record(&unhex(ROUND_ADVANCE_RECORD)).unwrap(),
        WalRecord::RoundAdvance { closed_round_id: 6 }
    );
}

#[test]
fn the_snapshot_body_encodes_to_its_golden_bytes_and_back() {
    assert_eq!(hex(&encode_state(&state())), STATE);
    let decoded = decode_state(&unhex(STATE)).unwrap();
    assert_eq!(decoded, state());
    // `-0.0 == 0.0`: compare the re-encoding to catch a lost sign.
    assert_eq!(hex(&encode_state(&decoded)), STATE);
}
