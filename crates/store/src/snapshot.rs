//! Atomic full-state snapshots.
//!
//! A snapshot file is `[8-byte magic][wal_seq: u64][state body][crc32: u32]`
//! where the CRC covers `wal_seq` and the body. It is written to a temporary
//! sibling and atomically renamed into place, so `snapshot.bin` is always
//! either the previous complete snapshot or the new complete snapshot — never
//! a torn hybrid. `wal_seq` names the WAL segment that logically *follows*
//! the snapshot: recovery restores the snapshot state and replays only
//! segments with `seq >= wal_seq`.

use crate::codec::{self, crc32, DecodeError};
use crate::{Result, StoreError};
use crowd_core::ServerState;
use crowd_proto::le::{get_u32, get_u64};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CMLSNAP1";

/// File name of the live snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

pub(crate) const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// A decoded snapshot: the state plus the WAL segment that follows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// First WAL segment whose records are *not* covered by this snapshot.
    pub wal_seq: u64,
    /// The full server state at the moment of the snapshot.
    pub state: ServerState,
}

/// Writes a snapshot of `state` (followed by WAL segment `wal_seq`) atomically
/// into `dir`; with `fsync`, the rename is durable on return.
pub fn write(dir: &Path, wal_seq: u64, state: &ServerState, fsync: bool) -> Result<()> {
    install(dir, wal_seq, state, fsync)?;
    if fsync {
        crate::wal::sync_dir(dir)?;
    }
    Ok(())
}

/// The first half of [`write`]: temporary file, then the atomic rename. On
/// `Err` the live snapshot is untouched; on `Ok` the new one is visible but its
/// directory entry is not yet synced.
pub(crate) fn install(dir: &Path, wal_seq: u64, state: &ServerState, fsync: bool) -> Result<()> {
    let mut bytes = Vec::with_capacity(64 + 8 * state.params.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&wal_seq.to_le_bytes());
    bytes.extend_from_slice(&codec::encode_state(state));
    let crc = crc32(&bytes[SNAPSHOT_MAGIC.len()..]);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let tmp = dir.join(SNAPSHOT_TMP);
    let live = dir.join(SNAPSHOT_FILE);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        if fsync {
            file.sync_data()?;
        }
    }
    std::fs::rename(&tmp, &live)?;
    Ok(())
}

/// Reads the live snapshot from `dir`. `Ok(None)` when no snapshot exists yet;
/// an unreadable snapshot is an error (snapshots are written atomically, so a
/// bad one means external damage, and silently restarting from scratch would
/// forget spent privacy budget).
pub fn read(dir: &Path) -> Result<Option<Snapshot>> {
    let live = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&live) {
        Ok(mut file) => file.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let min_len = SNAPSHOT_MAGIC.len() + 8 + 4;
    if bytes.len() < min_len {
        return Err(StoreError::CorruptSnapshot(format!(
            "{} bytes is shorter than the fixed header",
            bytes.len()
        )));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StoreError::CorruptSnapshot("bad magic".into()));
    }
    let crc_offset = bytes.len() - 4;
    let corrupt = |e: DecodeError| StoreError::CorruptSnapshot(e.0);
    let declared = get_u32(&mut &bytes[crc_offset..], "CRC").map_err(|e| corrupt(e.into()))?;
    let actual = crc32(&bytes[SNAPSHOT_MAGIC.len()..crc_offset]);
    if declared != actual {
        return Err(StoreError::CorruptSnapshot(format!(
            "CRC mismatch: declared {declared:#010x}, computed {actual:#010x}"
        )));
    }
    let mut body = &bytes[SNAPSHOT_MAGIC.len()..crc_offset];
    let wal_seq = get_u64(&mut body, "wal_seq").map_err(|e| corrupt(e.into()))?;
    let state = codec::decode_state(body).map_err(corrupt)?;
    Ok(Some(Snapshot { wal_seq, state }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;
    use crowd_learning::LearningRate;
    use crowd_linalg::Vector;

    fn sample(wal_seq: u64) -> Snapshot {
        Snapshot {
            wal_seq,
            state: ServerState {
                params: Vector::from_vec(vec![1.5, -0.25, 0.0]),
                iteration: 11,
                total_samples: 100,
                total_errors: 3,
                progress: vec![],
                schedule: LearningRate::InvSqrt { c: 2.0 },
                budget_ledger: vec![(0, 0.5)],
                round: None,
                last_round: vec![],
            },
        }
    }

    #[test]
    fn missing_snapshot_reads_as_none() {
        let dir = temp_dir("snap-none");
        assert_eq!(read(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_read_round_trips() {
        let dir = temp_dir("snap-roundtrip");
        let snapshot = sample(4);
        write(&dir, snapshot.wal_seq, &snapshot.state, false).unwrap();
        assert_eq!(read(&dir).unwrap(), Some(snapshot));
        // A second write atomically replaces the first.
        let newer = sample(9);
        write(&dir, newer.wal_seq, &newer.state, true).unwrap();
        assert_eq!(read(&dir).unwrap(), Some(newer));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_reported_not_ignored() {
        let dir = temp_dir("snap-corrupt");
        let snapshot = sample(2);
        write(&dir, snapshot.wal_seq, &snapshot.state, false).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read(&dir), Err(StoreError::CorruptSnapshot(_))));

        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(read(&dir), Err(StoreError::CorruptSnapshot(_))));

        let mut bad_magic = std::fs::read(&path).unwrap();
        bad_magic.clear();
        bad_magic.extend_from_slice(b"WRONGMAG");
        bad_magic.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(read(&dir), Err(StoreError::CorruptSnapshot(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
