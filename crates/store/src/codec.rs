//! Deterministic binary encoding of persisted state, plus CRC-32 framing
//! support.
//!
//! The bytes go through `crowd_proto::le`, the reader and writer the wire
//! codec shares: all integers little-endian, `f64` as IEEE-754 bit patterns
//! (bitwise, never printed and re-parsed), vectors prefixed by a `u32`
//! element count. This codec keeps its own cap ([`MAX_VEC_LEN`]), its own
//! error type ([`DecodeError`]) and the CRC-32 its framing seals records
//! with. Everything here is pure byte-level code; file handling lives in
//! [`crate::wal`] and [`crate::snapshot`].

use crowd_core::server::{
    DeviceEpochStats, DeviceProgress, EpochAggregate, PendingSubmission, RoundStateSnapshot,
    ServerState,
};
use crowd_learning::LearningRate;
use crowd_linalg::Vector;
use crowd_proto::le::{
    get_count, get_f64, get_i64, get_u32, get_u64, get_u8, get_vec, put_f64, put_i64, put_u32,
    put_u64, put_u8, put_vec, LeError,
};

/// Maximum element count accepted for any decoded vector. Prevents a corrupt
/// length prefix from triggering a huge allocation.
pub const MAX_VEC_LEN: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the polynomial used by zip/png/ethernet)
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Folds `bytes` into a running (pre-inverted) CRC-32 register.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// CRC-32 (IEEE) of `salt.to_le_bytes()` followed by `bytes`, without
/// building the concatenation. The WAL salts each frame with its segment's
/// sequence number.
pub fn crc32_salted(salt: u64, bytes: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, &salt.to_le_bytes()), bytes)
}

/// The bytewise reference the sliced CRC is tested against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Decode errors and minimum record widths
// ---------------------------------------------------------------------------

/// Why a decode failed. Converted to [`crate::StoreError`] by the callers,
/// which know whether they are reading a snapshot or a WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    fn truncated(what: &str) -> Self {
        DecodeError(format!("truncated while reading {what}"))
    }
}

impl From<LeError> for DecodeError {
    fn from(e: LeError) -> Self {
        match e {
            LeError::Truncated(what) => DecodeError::truncated(what),
            LeError::OverCap { what, len, cap } => {
                DecodeError(format!("{what} declares {len} elements, cap is {cap}"))
            }
        }
    }
}

/// Decode result alias.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// Fewest bytes a per-device record can take (an epoch's `DeviceEpochStats`
/// or a snapshot's `DeviceProgress`): four 8-byte scalars and an empty
/// label-count vector's prefix.
const DEVICE_STATS_MIN: usize = 4 * 8 + 4;

/// Fewest bytes a `PendingSubmission` can take: its scalars and two empty
/// vectors' prefixes.
const SUBMISSION_MIN: usize = 3 * 8 + 4 + 4 + 8 + 4;

// ---------------------------------------------------------------------------
// EpochAggregate
// ---------------------------------------------------------------------------

pub(crate) fn put_epoch(buf: &mut Vec<u8>, epoch: &EpochAggregate) {
    put_vec(buf, epoch.gradient_sum.as_slice());
    put_u64(buf, epoch.checkin_count);
    put_u64(buf, epoch.min_checkout_iteration);
    put_u32(buf, epoch.device_stats.len() as u32);
    for stats in &epoch.device_stats {
        put_u64(buf, stats.device_id);
        put_u64(buf, stats.checkins);
        put_u64(buf, stats.samples);
        put_i64(buf, stats.errors);
        put_vec(buf, &stats.label_counts);
    }
}

pub(crate) fn get_epoch(buf: &mut &[u8]) -> DecodeResult<EpochAggregate> {
    let gradient_sum = Vector::from_vec(get_vec(buf, MAX_VEC_LEN, "epoch gradient")?);
    let checkin_count = get_u64(buf, "epoch checkin_count")?;
    let min_checkout_iteration = get_u64(buf, "epoch min_checkout_iteration")?;
    let devices = get_count(buf, MAX_VEC_LEN, DEVICE_STATS_MIN, "epoch device count")?;
    let mut device_stats = Vec::with_capacity(devices);
    for _ in 0..devices {
        device_stats.push(DeviceEpochStats {
            device_id: get_u64(buf, "device id")?,
            checkins: get_u64(buf, "device checkins")?,
            samples: get_u64(buf, "device samples")?,
            errors: get_i64(buf, "device errors")?,
            label_counts: get_vec(buf, MAX_VEC_LEN, "device label counts")?,
        });
    }
    Ok(EpochAggregate {
        gradient_sum,
        checkin_count,
        min_checkout_iteration,
        device_stats,
    })
}

// ---------------------------------------------------------------------------
// WAL record payload
// ---------------------------------------------------------------------------

/// One decoded WAL record: an epoch that was (about to be) applied at
/// `pre_iteration`, together with the ε charges the apply incurs.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Server iteration immediately before the epoch was applied.
    pub pre_iteration: u64,
    /// The merged aggregate, exactly as handed to `apply_aggregate`.
    pub epoch: EpochAggregate,
    /// Per-device ε charges `(device_id, ε)`, ascending by device id. Replay
    /// recomputes these from the epoch and the server config and refuses to
    /// proceed if they differ — catching a restart under a different budget
    /// configuration before it silently corrupts the ledger.
    pub charges: Vec<(u64, f64)>,
}

/// One decoded WAL record of any kind (wire of the round protocol's
/// durability: submissions and round advances are logged alongside epochs so
/// a crash mid-round recovers the pending cohort exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An applied (or about-to-be-applied) aggregation epoch.
    Epoch(EpochRecord),
    /// A masked round submission accepted into the open round.
    RoundSubmit {
        /// The round the submission was accepted into.
        round_id: u64,
        /// The submission exactly as the server holds it pending.
        submission: PendingSubmission,
    },
    /// The open round closed (finalized or expired); its successor opened.
    /// The finalization epoch, when non-empty, is the following
    /// [`WalRecord::Epoch`].
    RoundAdvance {
        /// The round that closed.
        closed_round_id: u64,
    },
}

const RECORD_KIND_EPOCH: u8 = 1;
const RECORD_KIND_ROUND_SUBMIT: u8 = 2;
const RECORD_KIND_ROUND_ADVANCE: u8 = 3;

/// Encodes an epoch record into a fresh WAL payload (see
/// [`encode_epoch_record_into`], which the write path uses).
pub fn encode_epoch_record(
    pre_iteration: u64,
    epoch: &EpochAggregate,
    charges: &[(u64, f64)],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + epoch_dim_hint(epoch));
    encode_epoch_record_into(&mut buf, pre_iteration, epoch, charges);
    buf
}

/// Appends an epoch record's payload to `buf`. Takes the parts by reference
/// and writes in place — this runs on the durable write path under the core
/// server lock, so it must neither clone the gradient vector nor allocate a
/// record buffer of its own.
pub fn encode_epoch_record_into(
    buf: &mut Vec<u8>,
    pre_iteration: u64,
    epoch: &EpochAggregate,
    charges: &[(u64, f64)],
) {
    put_u8(buf, RECORD_KIND_EPOCH);
    put_u64(buf, pre_iteration);
    put_epoch(buf, epoch);
    put_u32(buf, charges.len() as u32);
    for &(device_id, eps) in charges {
        put_u64(buf, device_id);
        put_f64(buf, eps);
    }
}

fn epoch_dim_hint(epoch: &EpochAggregate) -> usize {
    8 * epoch.gradient_sum.len() + 64 * epoch.device_stats.len()
}

fn put_submission(buf: &mut Vec<u8>, sub: &PendingSubmission) {
    put_u64(buf, sub.device_id);
    put_u64(buf, sub.nonce);
    put_u64(buf, sub.checkout_iteration);
    put_vec(buf, &sub.words);
    put_u32(buf, sub.num_samples);
    put_i64(buf, sub.error_count);
    put_vec(buf, &sub.label_counts);
}

fn get_submission(buf: &mut &[u8]) -> DecodeResult<PendingSubmission> {
    Ok(PendingSubmission {
        device_id: get_u64(buf, "submission device id")?,
        nonce: get_u64(buf, "submission nonce")?,
        checkout_iteration: get_u64(buf, "submission checkout iteration")?,
        words: get_vec(buf, MAX_VEC_LEN, "submission words")?,
        num_samples: get_u32(buf, "submission num_samples")?,
        error_count: get_i64(buf, "submission error_count")?,
        label_counts: get_vec(buf, MAX_VEC_LEN, "submission label counts")?,
    })
}

/// Encodes a round-submission record into a fresh WAL payload.
pub fn encode_round_submit_record(round_id: u64, submission: &PendingSubmission) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 8 * submission.words.len());
    encode_round_submit_record_into(&mut buf, round_id, submission);
    buf
}

/// Appends a round-submission record's payload to `buf`.
pub fn encode_round_submit_record_into(
    buf: &mut Vec<u8>,
    round_id: u64,
    submission: &PendingSubmission,
) {
    put_u8(buf, RECORD_KIND_ROUND_SUBMIT);
    put_u64(buf, round_id);
    put_submission(buf, submission);
}

/// Encodes a round-advance record into a fresh WAL payload.
pub fn encode_round_advance_record(closed_round_id: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9);
    encode_round_advance_record_into(&mut buf, closed_round_id);
    buf
}

/// Appends a round-advance record's payload to `buf`.
pub fn encode_round_advance_record_into(buf: &mut Vec<u8>, closed_round_id: u64) {
    put_u8(buf, RECORD_KIND_ROUND_ADVANCE);
    put_u64(buf, closed_round_id);
}

/// Decodes any WAL payload produced by the `encode_*_record` functions.
pub fn decode_record(mut buf: &[u8]) -> DecodeResult<WalRecord> {
    let kind = get_u8(&mut buf, "record kind")?;
    let record = match kind {
        RECORD_KIND_EPOCH => {
            let pre_iteration = get_u64(&mut buf, "record pre_iteration")?;
            let epoch = get_epoch(&mut buf)?;
            let count = get_count(&mut buf, MAX_VEC_LEN, 16, "charge count")?;
            let mut charges = Vec::with_capacity(count);
            for _ in 0..count {
                let device_id = get_u64(&mut buf, "charge device id")?;
                let eps = get_f64(&mut buf, "charge epsilon")?;
                charges.push((device_id, eps));
            }
            WalRecord::Epoch(EpochRecord {
                pre_iteration,
                epoch,
                charges,
            })
        }
        RECORD_KIND_ROUND_SUBMIT => WalRecord::RoundSubmit {
            round_id: get_u64(&mut buf, "record round id")?,
            submission: get_submission(&mut buf)?,
        },
        RECORD_KIND_ROUND_ADVANCE => WalRecord::RoundAdvance {
            closed_round_id: get_u64(&mut buf, "record closed round id")?,
        },
        other => return Err(DecodeError(format!("unknown WAL record kind {other}"))),
    };
    if !buf.is_empty() {
        return Err(DecodeError(format!(
            "{} trailing bytes after WAL record",
            buf.len()
        )));
    }
    Ok(record)
}

/// Decodes a WAL payload produced by [`encode_epoch_record`].
pub fn decode_epoch_record(buf: &[u8]) -> DecodeResult<EpochRecord> {
    match decode_record(buf)? {
        WalRecord::Epoch(record) => Ok(record),
        other => Err(DecodeError(format!(
            "expected an epoch record, found {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// ServerState
// ---------------------------------------------------------------------------

const SCHEDULE_CONSTANT: u8 = 0;
const SCHEDULE_INV_SQRT: u8 = 1;
const SCHEDULE_INV_T: u8 = 2;
const SCHEDULE_ADAGRAD: u8 = 3;

fn put_schedule(buf: &mut Vec<u8>, schedule: &LearningRate) {
    match schedule {
        LearningRate::Constant { c } => {
            put_u8(buf, SCHEDULE_CONSTANT);
            put_f64(buf, *c);
        }
        LearningRate::InvSqrt { c } => {
            put_u8(buf, SCHEDULE_INV_SQRT);
            put_f64(buf, *c);
        }
        LearningRate::InvT { c } => {
            put_u8(buf, SCHEDULE_INV_T);
            put_f64(buf, *c);
        }
        LearningRate::AdaGrad {
            c,
            delta,
            accumulated,
        } => {
            put_u8(buf, SCHEDULE_ADAGRAD);
            put_f64(buf, *c);
            put_f64(buf, *delta);
            put_vec(buf, accumulated.as_slice());
        }
    }
}

fn get_schedule(buf: &mut &[u8]) -> DecodeResult<LearningRate> {
    let tag = get_u8(buf, "schedule tag")?;
    Ok(match tag {
        SCHEDULE_CONSTANT => LearningRate::Constant {
            c: get_f64(buf, "schedule c")?,
        },
        SCHEDULE_INV_SQRT => LearningRate::InvSqrt {
            c: get_f64(buf, "schedule c")?,
        },
        SCHEDULE_INV_T => LearningRate::InvT {
            c: get_f64(buf, "schedule c")?,
        },
        SCHEDULE_ADAGRAD => LearningRate::AdaGrad {
            c: get_f64(buf, "schedule c")?,
            delta: get_f64(buf, "schedule delta")?,
            accumulated: Vector::from_vec(get_vec(buf, MAX_VEC_LEN, "schedule accumulator")?),
        },
        other => return Err(DecodeError(format!("unknown schedule tag {other}"))),
    })
}

/// Encodes a full [`ServerState`] (the snapshot body, without file framing).
pub fn encode_state(state: &ServerState) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + 8 * state.params.len());
    put_vec(&mut buf, state.params.as_slice());
    put_u64(&mut buf, state.iteration);
    put_u64(&mut buf, state.total_samples);
    put_i64(&mut buf, state.total_errors);
    put_u32(&mut buf, state.progress.len() as u32);
    for (device_id, progress) in &state.progress {
        put_u64(&mut buf, *device_id);
        put_u64(&mut buf, progress.samples);
        put_i64(&mut buf, progress.errors);
        put_u64(&mut buf, progress.checkins);
        put_vec(&mut buf, &progress.label_counts);
    }
    put_schedule(&mut buf, &state.schedule);
    put_u32(&mut buf, state.budget_ledger.len() as u32);
    for &(device_id, spent) in &state.budget_ledger {
        put_u64(&mut buf, device_id);
        put_f64(&mut buf, spent);
    }
    match &state.round {
        None => put_u8(&mut buf, 0),
        Some(round) => {
            put_u8(&mut buf, 1);
            put_u64(&mut buf, round.round_id);
            put_u64(&mut buf, round.opened_iteration);
            put_u32(&mut buf, round.pending.len() as u32);
            for sub in &round.pending {
                put_submission(&mut buf, sub);
            }
        }
    }
    put_u32(&mut buf, state.last_round.len() as u32);
    for &(device_id, round_id, nonce) in &state.last_round {
        put_u64(&mut buf, device_id);
        put_u64(&mut buf, round_id);
        put_u64(&mut buf, nonce);
    }
    buf
}

/// Decodes a snapshot body produced by [`encode_state`].
pub fn decode_state(mut buf: &[u8]) -> DecodeResult<ServerState> {
    let params = Vector::from_vec(get_vec(&mut buf, MAX_VEC_LEN, "state params")?);
    let iteration = get_u64(&mut buf, "state iteration")?;
    let total_samples = get_u64(&mut buf, "state total_samples")?;
    let total_errors = get_i64(&mut buf, "state total_errors")?;
    let devices = get_count(
        &mut buf,
        MAX_VEC_LEN,
        DEVICE_STATS_MIN,
        "state device count",
    )?;
    let mut progress = Vec::with_capacity(devices);
    for _ in 0..devices {
        let device_id = get_u64(&mut buf, "progress device id")?;
        let samples = get_u64(&mut buf, "progress samples")?;
        let errors = get_i64(&mut buf, "progress errors")?;
        let checkins = get_u64(&mut buf, "progress checkins")?;
        let label_counts = get_vec(&mut buf, MAX_VEC_LEN, "progress label counts")?;
        progress.push((
            device_id,
            DeviceProgress {
                samples,
                errors,
                label_counts,
                checkins,
            },
        ));
    }
    let schedule = get_schedule(&mut buf)?;
    let entries = get_count(&mut buf, MAX_VEC_LEN, 16, "ledger entry count")?;
    let mut budget_ledger = Vec::with_capacity(entries);
    for _ in 0..entries {
        let device_id = get_u64(&mut buf, "ledger device id")?;
        let spent = get_f64(&mut buf, "ledger spent")?;
        budget_ledger.push((device_id, spent));
    }
    let round = match get_u8(&mut buf, "round presence")? {
        0 => None,
        1 => {
            let round_id = get_u64(&mut buf, "round id")?;
            let opened_iteration = get_u64(&mut buf, "round opened iteration")?;
            let count = get_count(&mut buf, MAX_VEC_LEN, SUBMISSION_MIN, "round pending count")?;
            let mut pending = Vec::with_capacity(count);
            for _ in 0..count {
                pending.push(get_submission(&mut buf)?);
            }
            Some(RoundStateSnapshot {
                round_id,
                opened_iteration,
                pending,
            })
        }
        other => return Err(DecodeError(format!("invalid round presence byte {other}"))),
    };
    let entries = get_count(&mut buf, MAX_VEC_LEN, 24, "last-round entry count")?;
    let mut last_round = Vec::with_capacity(entries);
    for _ in 0..entries {
        let device_id = get_u64(&mut buf, "last-round device id")?;
        let round_id = get_u64(&mut buf, "last-round round id")?;
        let nonce = get_u64(&mut buf, "last-round nonce")?;
        last_round.push((device_id, round_id, nonce));
    }
    if !buf.is_empty() {
        return Err(DecodeError(format!(
            "{} trailing bytes after server state",
            buf.len()
        )));
    }
    Ok(ServerState {
        params,
        iteration,
        total_samples,
        total_errors,
        progress,
        schedule,
        budget_ledger,
        round,
        last_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    // The per-type spellings the block-write test below goes through: the
    // shared count-prefixed runs, read back under this codec's cap.
    fn put_f64_slice(buf: &mut Vec<u8>, values: &[f64]) {
        put_vec(buf, values);
    }

    fn put_i64_slice(buf: &mut Vec<u8>, values: &[i64]) {
        put_vec(buf, values);
    }

    fn put_u64_slice(buf: &mut Vec<u8>, values: &[u64]) {
        put_vec(buf, values);
    }

    fn get_f64_vec(buf: &mut &[u8], what: &'static str) -> DecodeResult<Vec<f64>> {
        Ok(get_vec(buf, MAX_VEC_LEN, what)?)
    }

    fn get_i64_vec(buf: &mut &[u8], what: &'static str) -> DecodeResult<Vec<i64>> {
        Ok(get_vec(buf, MAX_VEC_LEN, what)?)
    }

    fn get_u64_vec(buf: &mut &[u8], what: &'static str) -> DecodeResult<Vec<u64>> {
        Ok(get_vec(buf, MAX_VEC_LEN, what)?)
    }

    fn sample_state() -> ServerState {
        ServerState {
            params: Vector::from_vec(vec![0.25, -1.5, f64::MIN_POSITIVE, 0.0]),
            iteration: 42,
            total_samples: 1234,
            total_errors: -7,
            progress: vec![
                (
                    3,
                    DeviceProgress {
                        samples: 10,
                        errors: 2,
                        label_counts: vec![4, -1, 7],
                        checkins: 5,
                    },
                ),
                (
                    9,
                    DeviceProgress {
                        samples: 1,
                        errors: 0,
                        label_counts: vec![1, 0, 0],
                        checkins: 1,
                    },
                ),
            ],
            schedule: LearningRate::AdaGrad {
                c: 0.5,
                delta: 1e-8,
                accumulated: Vector::from_vec(vec![0.125, 2.0, 0.0, 3.5]),
            },
            budget_ledger: vec![(3, 1.25), (9, 0.25)],
            round: Some(RoundStateSnapshot {
                round_id: 4,
                opened_iteration: 40,
                pending: vec![PendingSubmission {
                    device_id: 9,
                    nonce: 0x0102_0304,
                    checkout_iteration: 41,
                    words: vec![0, u64::MAX, 0x0807_0605_0403_0201],
                    num_samples: 16,
                    error_count: 3,
                    label_counts: vec![7, 9],
                }],
            }),
            last_round: vec![(3, 3, 99), (9, 4, 0x0102_0304)],
        }
    }

    fn sample_record() -> EpochRecord {
        EpochRecord {
            pre_iteration: 17,
            epoch: EpochAggregate {
                gradient_sum: Vector::from_vec(vec![1.0, -2.5, 0.75]),
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
                        label_counts: vec![2, 2],
                    },
                ],
            },
            charges: vec![(1, 0.2), (4, 0.1)],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sliced CRC (plain and salted) equals the bytewise loop at every
        /// length up to 4 KiB and every alignment of the input within a word.
        #[test]
        fn sliced_crc32_matches_the_bytewise_oracle(
            len in 0usize..4097,
            seed in any::<u64>(),
            salt in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = vec![0u8; len + 7];
            rng.fill_bytes(&mut buf);
            // Uniform lengths seldom land below one 8-byte chunk, where only
            // the remainder loop runs; check a short prefix every case too.
            for n in [len, len % 24] {
                for start in 0..8 {
                    let bytes = &buf[start..start + n];
                    prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
                    let salted = [&salt.to_le_bytes()[..], bytes].concat();
                    prop_assert_eq!(crc32_salted(salt, bytes), crc32_bytewise(&salted));
                }
            }
        }
    }

    #[test]
    fn state_round_trips_bitwise() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).unwrap();
        assert_eq!(decoded, state);
        // Encoding is deterministic: same state, same bytes.
        assert_eq!(encode_state(&decoded), bytes);
    }

    #[test]
    fn scalar_schedules_round_trip() {
        for schedule in [
            LearningRate::Constant { c: 0.5 },
            LearningRate::InvSqrt { c: 2.0 },
            LearningRate::InvT { c: 1.5 },
        ] {
            let mut state = sample_state();
            state.schedule = schedule.clone();
            let decoded = decode_state(&encode_state(&state)).unwrap();
            assert_eq!(decoded.schedule, schedule);
        }
    }

    #[test]
    fn epoch_record_round_trips_bitwise() {
        let record = sample_record();
        let bytes = encode_epoch_record(record.pre_iteration, &record.epoch, &record.charges);
        assert_eq!(decode_epoch_record(&bytes).unwrap(), record);
    }

    #[test]
    fn round_records_round_trip() {
        let submission = PendingSubmission {
            device_id: 12,
            nonce: 777,
            checkout_iteration: 55,
            words: vec![1, 2, u64::MAX],
            num_samples: 8,
            error_count: -2,
            label_counts: vec![3, 5],
        };
        let bytes = encode_round_submit_record(6, &submission);
        assert_eq!(
            decode_record(&bytes).unwrap(),
            WalRecord::RoundSubmit {
                round_id: 6,
                submission,
            }
        );
        // A submit record is not an epoch record.
        assert!(decode_epoch_record(&bytes).is_err());

        let bytes = encode_round_advance_record(6);
        assert_eq!(
            decode_record(&bytes).unwrap(),
            WalRecord::RoundAdvance { closed_round_id: 6 }
        );
        assert!(decode_record(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn stateless_round_state_round_trips() {
        let mut state = sample_state();
        state.round = None;
        state.last_round.clear();
        let decoded = decode_state(&encode_state(&state)).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let bytes = encode_state(&sample_state());
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_state(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_state(&padded).is_err());

        let sample = sample_record();
        let record = encode_epoch_record(sample.pre_iteration, &sample.epoch, &sample.charges);
        assert!(decode_epoch_record(&record[..record.len() - 1]).is_err());
        let mut padded = record.clone();
        padded.push(9);
        assert!(decode_epoch_record(&padded).is_err());
        // Unknown record kind.
        let mut bad_kind = record;
        bad_kind[0] = 99;
        assert!(decode_epoch_record(&bad_kind).is_err());
    }

    /// Replaces the count prefix at `offset` (which must currently read
    /// `count`, pinning the offset to the layout) with `declared`.
    fn redeclare(bytes: &[u8], offset: usize, count: u32, declared: u32) -> Vec<u8> {
        let mut patched = bytes.to_vec();
        assert_eq!(
            patched[offset..offset + 4],
            count.to_le_bytes(),
            "no count of {count} at offset {offset}"
        );
        patched[offset..offset + 4].copy_from_slice(&declared.to_le_bytes());
        patched
    }

    #[test]
    fn absurd_length_prefixes_are_capped() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(decode_state(&buf).is_err());

        // Under the cap but over the buffer: 64 Mi elements would reserve
        // 512 MiB (more for records) if the count were trusted before the
        // bytes behind it were. Every count in an epoch record and in a
        // snapshot must be refused as truncated, naming its field.
        let under_cap = MAX_VEC_LEN as u32;
        let sample = sample_record();
        let record = encode_epoch_record(sample.pre_iteration, &sample.epoch, &sample.charges);
        for (offset, count, what) in [
            (9, 3, "epoch gradient"),
            (53, 2, "epoch device count"),
            (89, 2, "device label counts"),
            (141, 2, "device label counts"),
            (161, 2, "charge count"),
        ] {
            let err =
                decode_epoch_record(&redeclare(&record, offset, count, under_cap)).expect_err(what);
            assert_eq!(err, DecodeError::truncated(what));
        }

        let submission = PendingSubmission {
            device_id: 12,
            nonce: 777,
            checkout_iteration: 55,
            words: vec![1, 2, u64::MAX],
            num_samples: 8,
            error_count: -2,
            label_counts: vec![3, 5],
        };
        let submit = encode_round_submit_record(6, &submission);
        for (offset, count, what) in [
            (33, 3, "submission words"),
            (73, 2, "submission label counts"),
        ] {
            let err = decode_record(&redeclare(&submit, offset, count, under_cap)).expect_err(what);
            assert_eq!(err, DecodeError::truncated(what));
        }

        let state = encode_state(&sample_state());
        for (offset, count, what) in [
            (0, 4, "state params"),
            (60, 2, "state device count"),
            (96, 3, "progress label counts"),
            (156, 3, "progress label counts"),
            (201, 4, "schedule accumulator"),
            (237, 2, "ledger entry count"),
            (290, 1, "round pending count"),
            (318, 3, "submission words"),
            (358, 2, "submission label counts"),
            (378, 2, "last-round entry count"),
        ] {
            let err = decode_state(&redeclare(&state, offset, count, under_cap)).expect_err(what);
            assert_eq!(err, DecodeError::truncated(what));
        }
    }

    /// The block writers produce the bytes of one `put_*` per element, on
    /// both sides of the 256-element block.
    #[test]
    fn bulk_slice_writes_match_per_element_writes() {
        for len in [0usize, 1, 7, 255, 256, 257, 1000] {
            let u64s: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x0102_0304_0506_0709))
                .collect();
            let i64s: Vec<i64> = u64s.iter().map(|&w| (w as i64).wrapping_neg()).collect();
            // Raw bit patterns: NaN payloads, subnormals and both zeros.
            let f64s: Vec<f64> = u64s
                .iter()
                .map(|&w| f64::from_bits(w.rotate_left(7)))
                .collect();

            let mut per_element = vec![0xAA];
            put_u32(&mut per_element, len as u32);
            f64s.iter().for_each(|&v| put_f64(&mut per_element, v));
            put_u32(&mut per_element, len as u32);
            i64s.iter().for_each(|&v| put_i64(&mut per_element, v));
            put_u32(&mut per_element, len as u32);
            u64s.iter().for_each(|&v| put_u64(&mut per_element, v));

            let mut bulk = vec![0xAA];
            put_f64_slice(&mut bulk, &f64s);
            put_i64_slice(&mut bulk, &i64s);
            put_u64_slice(&mut bulk, &u64s);
            assert_eq!(bulk, per_element, "bulk diverged at {len}");

            let mut cursor = &bulk[1..];
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&get_f64_vec(&mut cursor, "f64s").unwrap()),
                bits(&f64s)
            );
            assert_eq!(get_i64_vec(&mut cursor, "i64s").unwrap(), i64s);
            assert_eq!(get_u64_vec(&mut cursor, "u64s").unwrap(), u64s);
            assert!(cursor.is_empty());
        }
    }
}
