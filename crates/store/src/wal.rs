//! CRC-framed append-only write-ahead log segments (format v2).
//!
//! A segment opens with a 16-byte header, `CMLWAL02` followed by the
//! segment's own sequence number (`u64`, little-endian), and continues with
//! frames of `[len: u32][crc: u32][payload: len bytes]`. A frame's CRC-32
//! covers the sequence number's eight bytes followed by the payload, so a
//! frame is valid only in the segment it was written for.
//!
//! That salt is what lets [`crate::Store`] recycle segment files: a spare is
//! renamed to its successor's name ([`WalWriter::recycle`]) and overwritten in
//! place, so appends land on already-allocated blocks and `sync_data` has no
//! size change to journal. A frame left over from the file's previous life
//! fails its check exactly as a torn tail does, and reading stops there; a
//! header that still names the old sequence number (a crash between the
//! rename and the header rewrite) makes the whole segment count as empty.
//!
//! Frames are built in memory ([`frame_into`], which writes only the length)
//! in the order their epochs are applied, and reach the file a commit group
//! at a time ([`WalWriter::append_batch`]: every CRC sealed, then one
//! `write_all` and one `sync_data`); nothing a group covers is acknowledged
//! before that call returns. After a crash the log is therefore a prefix of
//! what was applied that contains every acknowledged epoch: the lost suffix
//! was never acknowledged, and at most the last frame written is torn.
//! Reading stops at the first frame whose length or CRC does not check out
//! and reports the byte offset of the last valid frame so the writer can
//! truncate the tail before appending again.
//!
//! A segment in another format of this log (`CMLWAL01`, whose frames carry
//! unsalted CRCs) is refused with [`StoreError::UnsupportedWal`] rather than
//! read as empty, which would silently drop acknowledged epochs and their ε
//! charges.

use crate::codec::crc32_salted;
use crate::{Result, StoreError};
use crowd_proto::le::{get_bytes, get_u32};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"CMLWAL02";

/// The magic's format-independent prefix: a segment that carries it with
/// another version is a log this build cannot read.
const WAL_MAGIC_FAMILY: &[u8] = b"CMLWAL";

/// Segment header: the magic, then the segment's sequence number.
pub(crate) const WAL_HEADER: usize = WAL_MAGIC.len() + 8;

/// Upper bound on a single record's payload (a merged epoch of a very large
/// model is tens of megabytes; anything near this cap is corruption).
pub const MAX_RECORD_LEN: usize = 1 << 30;

pub(crate) const FRAME_HEADER: usize = 8; // len + crc

/// Appends one unsealed frame to `buf`: reserves the `[len][crc]` header,
/// lets `encode` write the payload straight behind it, then patches the
/// length in place — no intermediate payload buffer. The CRC slot stays zero
/// until [`WalWriter::append_batch`] seals it, off the caller's lock.
pub fn frame_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    encode(buf);
    let len = (buf.len() - header - FRAME_HEADER) as u32;
    buf[header..header + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes each frame's CRC (salted with `seq`) into its header.
fn seal(seq: u64, frames: &mut [u8]) -> std::io::Result<()> {
    let mut offset = 0;
    while offset < frames.len() {
        let payload = offset + FRAME_HEADER;
        let len = frames
            .get(offset..offset + 4)
            .and_then(|b| b.try_into().ok())
            .map(|b| u32::from_le_bytes(b) as usize);
        let Some(end) = len.map(|len| payload + len).filter(|&e| e <= frames.len()) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "commit group does not end on a frame boundary",
            ));
        };
        let crc = crc32_salted(seq, &frames[payload..end]);
        frames[offset + 4..payload].copy_from_slice(&crc.to_le_bytes());
        offset = end;
    }
    Ok(())
}

/// The header of segment `seq`.
fn segment_header(seq: u64) -> [u8; WAL_HEADER] {
    let mut header = [0; WAL_HEADER];
    header[..WAL_MAGIC.len()].copy_from_slice(WAL_MAGIC);
    header[WAL_MAGIC.len()..].copy_from_slice(&seq.to_le_bytes());
    header
}

/// Makes a directory entry (a created or renamed file) survive power loss.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Everything read back from one segment.
#[derive(Debug)]
pub struct SegmentContents {
    /// The valid record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset just past the last valid frame (where appending resumes).
    pub valid_len: u64,
    /// `true` when bytes after the last valid frame were present: a torn
    /// final append (the expected crash artifact) or, in a recycled segment,
    /// frames from the file's previous life.
    pub torn: bool,
}

/// Reads a segment, tolerating a torn tail. The segment's sequence number
/// comes from its file name ([`segment_file_name`]).
///
/// A header that is missing, too short, or names another sequence number
/// makes the whole segment count as empty (`valid_len` = 0), which the writer
/// repairs by rewriting the header. A `CMLWAL` magic of another version is
/// [`StoreError::UnsupportedWal`].
pub fn read_segment(path: &Path) -> Result<SegmentContents> {
    let seq = path
        .file_name()
        .and_then(|name| name.to_str())
        .and_then(parse_segment_seq)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{} is not a WAL segment name", path.display()),
            )
        })?;
    let bytes = std::fs::read(path)?;
    if let Some(magic) = bytes.get(..WAL_MAGIC.len()) {
        if magic.starts_with(WAL_MAGIC_FAMILY) && magic != WAL_MAGIC {
            return Err(StoreError::UnsupportedWal {
                segment: path.to_path_buf(),
                found: String::from_utf8_lossy(magic).into_owned(),
            });
        }
    }
    if bytes.get(..WAL_HEADER) != Some(&segment_header(seq)[..]) {
        return Ok(SegmentContents {
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        });
    }
    let mut records = Vec::new();
    let mut rest = &bytes[WAL_HEADER..];
    while let Some(payload) = next_frame(&mut rest, seq) {
        records.push(payload.to_vec());
    }
    Ok(SegmentContents {
        records,
        valid_len: (bytes.len() - rest.len()) as u64,
        torn: !rest.is_empty(),
    })
}

/// Splits the next frame off `rest` and returns its payload, or `None` —
/// leaving `rest` where it was — at a frame that is short, over-long or
/// fails its CRC: where the valid log ends.
fn next_frame<'a>(rest: &mut &'a [u8], seq: u64) -> Option<&'a [u8]> {
    let mut cursor = *rest;
    let len = get_u32(&mut cursor, "frame length").ok()? as usize;
    let crc = get_u32(&mut cursor, "frame crc").ok()?;
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = get_bytes(&mut cursor, len, "frame payload").ok()?;
    (crc32_salted(seq, payload) == crc).then(|| {
        *rest = cursor;
        payload
    })
}

/// An open segment accepting appends.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    fsync: bool,
}

/// The file name of segment `seq` (zero-padded so lexicographic order is
/// numeric order).
pub fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

/// Parses a segment sequence number back out of a file name.
pub fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl WalWriter {
    /// Creates (or truncates) segment `seq` in `dir` and writes its header.
    /// With `fsync`, the file and its directory entry are synced: a segment
    /// whose name can vanish in a power loss takes every synced frame with it.
    pub fn create(dir: &Path, seq: u64, fsync: bool) -> std::io::Result<Self> {
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&segment_header(seq))?;
        if fsync {
            file.sync_data()?;
            sync_dir(dir)?;
        }
        Ok(WalWriter {
            file,
            path,
            seq,
            fsync,
        })
    }

    /// Turns segment `spare` into segment `seq` without freeing its blocks:
    /// renames the file, then rewrites its header and invalidates the first
    /// old frame header (a length past [`MAX_RECORD_LEN`]) in one write. With
    /// `fsync`, the data and then the directory are synced, so the successor
    /// is in place before any snapshot names it. Appends then overwrite the
    /// old frames, which the new salt already rejects.
    pub fn recycle(dir: &Path, spare: u64, seq: u64, fsync: bool) -> std::io::Result<Self> {
        let path = dir.join(segment_file_name(seq));
        std::fs::rename(dir.join(segment_file_name(spare)), &path)?;
        let mut file = OpenOptions::new().write(true).open(&path)?;
        let mut head = [0xFF; WAL_HEADER + FRAME_HEADER];
        head[..WAL_HEADER].copy_from_slice(&segment_header(seq));
        file.write_all(&head)?;
        if fsync {
            file.sync_data()?;
            sync_dir(dir)?;
        }
        file.seek(SeekFrom::Start(WAL_HEADER as u64))?;
        Ok(WalWriter {
            file,
            path,
            seq,
            fsync,
        })
    }

    /// Reopens an existing segment for appending after recovery, truncating a
    /// torn tail at `valid_len` first. A `valid_len` short of the header
    /// (unreadable or stale header) rewrites the segment from scratch.
    pub fn reopen(dir: &Path, seq: u64, valid_len: u64, fsync: bool) -> std::io::Result<Self> {
        if valid_len < WAL_HEADER as u64 {
            return Self::create(dir, seq, fsync);
        }
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        if fsync {
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            file,
            path,
            seq,
            fsync,
        })
    }

    /// Swaps the segment's handle for a read-only one, so the next append is
    /// refused by the OS (see [`crate::testutil::break_wal`]).
    pub(crate) fn break_writes(&mut self) -> std::io::Result<()> {
        self.file = File::open(&self.path)?;
        Ok(())
    }

    /// This segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// This segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a commit group of its own.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame_into(&mut frame, |buf| buf.extend_from_slice(payload));
        self.append_batch(&mut frame)
    }

    /// Appends a commit group — whole frames built by [`frame_into`], back to
    /// back — sealing every frame's CRC in place and then writing the group
    /// with a single `write_all` and (optionally) a single `sync_data`. A
    /// crash mid-write loses a suffix of the group and tears at most one
    /// frame. After an error the segment's tail is unknown, so the writer must
    /// not be appended to again (recovery truncates the tear).
    pub fn append_batch(&mut self, frames: &mut [u8]) -> std::io::Result<()> {
        seal(self.seq, frames)?;
        self.file.write_all(frames)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32_bytewise;
    use crate::testutil::temp_dir;

    #[test]
    fn append_and_read_round_trip() {
        let dir = temp_dir("wal-roundtrip");
        let mut wal = WalWriter::create(&dir, 0, false).unwrap();
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        drop(wal);
        let contents = read_segment(&dir.join(segment_file_name(0))).unwrap();
        assert_eq!(contents.records, payloads);
        assert!(!contents.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_frames_match_single_appends_byte_for_byte() {
        let payloads: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i ^ 0x5A; i as usize * 7]).collect();
        let (single_dir, batch_dir) = (temp_dir("wal-single"), temp_dir("wal-batch"));
        let seq = 5;
        let mut one_by_one = WalWriter::create(&single_dir, seq, false).unwrap();
        for p in &payloads {
            one_by_one.append(p).unwrap();
        }
        let mut group = Vec::new();
        let mut expected = Vec::new();
        for p in &payloads {
            // The reference framing, assembled the long way round: the CRC
            // covers the segment's sequence number, then the payload.
            let salted = [&seq.to_le_bytes()[..], p].concat();
            expected.extend_from_slice(&(p.len() as u32).to_le_bytes());
            expected.extend_from_slice(&crc32_bytewise(&salted).to_le_bytes());
            expected.extend_from_slice(p);
            let start = group.len();
            frame_into(&mut group, |buf| buf.extend_from_slice(p));
            // Staged frames carry their length and no CRC yet.
            assert_eq!(group[start..start + 4], (p.len() as u32).to_le_bytes());
            assert_eq!(group[start + 4..start + FRAME_HEADER], [0; 4]);
        }
        let mut batched = WalWriter::create(&batch_dir, seq, true).unwrap();
        batched.append_batch(&mut group).unwrap();
        assert_eq!(
            group, expected,
            "the commit seals the staged frames in place"
        );
        drop((one_by_one, batched));
        let path = |dir: &Path| dir.join(segment_file_name(seq));
        let single = std::fs::read(path(&single_dir)).unwrap();
        assert_eq!(single, std::fs::read(path(&batch_dir)).unwrap());
        assert_eq!(single[..WAL_HEADER], segment_header(seq));
        assert_eq!(single[WAL_HEADER..], expected);
        let contents = read_segment(&path(&batch_dir)).unwrap();
        assert_eq!(contents.records, payloads);
        assert!(!contents.torn);
        std::fs::remove_dir_all(&single_dir).unwrap();
        std::fs::remove_dir_all(&batch_dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let dir = temp_dir("wal-torn");
        let mut wal = WalWriter::create(&dir, 3, false).unwrap();
        wal.append(&[1, 2, 3]).unwrap();
        wal.append(&[4, 5, 6, 7]).unwrap();
        drop(wal);
        let path = dir.join(segment_file_name(3));
        // Simulate a crash mid-append: chop bytes off the final frame.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 2).unwrap();
        drop(file);

        let contents = read_segment(&path).unwrap();
        assert_eq!(contents.records, vec![vec![1, 2, 3]]);
        assert!(contents.torn);

        // Reopen truncates the tear; a new append lands cleanly after it.
        let mut wal = WalWriter::reopen(&dir, 3, contents.valid_len, false).unwrap();
        wal.append(&[9, 9]).unwrap();
        drop(wal);
        let contents = read_segment(&path).unwrap();
        assert_eq!(contents.records, vec![vec![1, 2, 3], vec![9, 9]]);
        assert!(!contents.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay_at_last_valid_record() {
        let dir = temp_dir("wal-crc");
        let mut wal = WalWriter::create(&dir, 0, false).unwrap();
        wal.append(&[10; 8]).unwrap();
        wal.append(&[20; 8]).unwrap();
        drop(wal);
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second frame's payload.
        let len = bytes.len();
        bytes[len - 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_segment(&path).unwrap();
        assert_eq!(contents.records, vec![vec![10; 8]]);
        assert!(contents.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_counts_as_empty() {
        let dir = temp_dir("wal-magic");
        let path = dir.join(segment_file_name(0));
        std::fs::write(&path, b"garbage-not-a-wal").unwrap();
        let contents = read_segment(&path).unwrap();
        assert!(contents.records.is_empty());
        assert_eq!(contents.valid_len, 0);
        assert!(contents.torn);
        // Reopen with valid_len 0 rewrites a fresh, valid segment.
        let mut wal = WalWriter::reopen(&dir, 0, 0, false).unwrap();
        wal.append(&[1]).unwrap();
        drop(wal);
        let contents = read_segment(&path).unwrap();
        assert_eq!(contents.records, vec![vec![1]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn frames_are_valid_only_in_the_segment_they_were_written_for() {
        let dir = temp_dir("wal-salt");
        let mut wal = WalWriter::create(&dir, 1, false).unwrap();
        wal.append(&[7; 12]).unwrap();
        wal.append(&[8; 12]).unwrap();
        drop(wal);
        // Renamed but not yet rewritten (a crash mid-recycle): the header
        // names another segment, so nothing in it counts.
        let reborn = dir.join(segment_file_name(3));
        std::fs::rename(dir.join(segment_file_name(1)), &reborn).unwrap();
        let contents = read_segment(&reborn).unwrap();
        assert!(contents.records.is_empty());
        assert_eq!(contents.valid_len, 0);
        assert!(contents.torn);
        // With the header rewritten, the old frames fail the new salt.
        let mut bytes = std::fs::read(&reborn).unwrap();
        bytes[..WAL_HEADER].copy_from_slice(&segment_header(3));
        std::fs::write(&reborn, &bytes).unwrap();
        let contents = read_segment(&reborn).unwrap();
        assert!(contents.records.is_empty());
        assert_eq!(contents.valid_len, WAL_HEADER as u64);
        assert!(contents.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_file_name(7), "wal-00000007.log");
        assert_eq!(parse_segment_seq("wal-00000007.log"), Some(7));
        assert_eq!(parse_segment_seq("wal-123.log"), Some(123));
        assert_eq!(parse_segment_seq("snapshot.bin"), None);
        assert_eq!(parse_segment_seq("wal-x.log"), None);
    }

    #[test]
    fn fsync_mode_appends_are_readable() {
        let dir = temp_dir("wal-fsync");
        let mut wal = WalWriter::create(&dir, 0, true).unwrap();
        wal.append(&[42; 16]).unwrap();
        drop(wal);
        let contents = read_segment(&dir.join(segment_file_name(0))).unwrap();
        assert_eq!(contents.records, vec![vec![42; 16]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
