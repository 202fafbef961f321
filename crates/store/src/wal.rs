//! CRC-framed append-only write-ahead log segments.
//!
//! A segment is `[8-byte magic]` followed by frames of
//! `[len: u32][crc32(payload): u32][payload: len bytes]`. Frames are built in
//! memory ([`frame_into`]) in the order their epochs are applied and reach the
//! file a commit group at a time ([`WalWriter::append_batch`]: one `write_all`,
//! one `sync_data`); nothing a group covers is acknowledged before that call
//! returns. After a crash the log is therefore a prefix of what was applied
//! that contains every acknowledged epoch: the lost suffix was never
//! acknowledged, and at most the last frame written is torn. Reading stops at
//! the first frame whose length or CRC does not check out and reports the
//! byte offset of the last valid frame so the writer can truncate the torn
//! tail before appending again.

use crate::codec::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"CMLWAL01";

/// Upper bound on a single record's payload (a merged epoch of a very large
/// model is tens of megabytes; anything near this cap is corruption).
pub const MAX_RECORD_LEN: usize = 1 << 30;

pub(crate) const FRAME_HEADER: usize = 8; // len + crc

/// Appends one frame to `buf`: reserves the `[len][crc]` header, lets `encode`
/// write the payload straight behind it, then patches the header in place —
/// no intermediate payload buffer.
pub fn frame_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    encode(buf);
    let payload = header + FRAME_HEADER;
    let len = (buf.len() - payload) as u32;
    let crc = crc32(&buf[payload..]);
    buf[header..header + 4].copy_from_slice(&len.to_le_bytes());
    buf[header + 4..payload].copy_from_slice(&crc.to_le_bytes());
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
    /// `true` when trailing bytes after the last valid frame were present
    /// (a torn final append — the expected crash artifact).
    pub torn: bool,
}

/// Reads a segment, tolerating a torn tail.
///
/// A missing or too-short magic makes the whole segment count as empty
/// (`valid_len` = 0), which the writer repairs by rewriting the header.
pub fn read_segment(path: &Path) -> std::io::Result<SegmentContents> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(SegmentContents {
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        });
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    loop {
        let remaining = &bytes[offset..];
        if remaining.len() < FRAME_HEADER {
            break;
        }
        // The length check above guarantees 4-byte slices here, but a decode
        // path never panics on principle: treat any failure as a torn tail.
        let Ok(len_bytes) = remaining[..4].try_into() else {
            break;
        };
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_RECORD_LEN || remaining.len() < FRAME_HEADER + len {
            break;
        }
        let Ok(crc_bytes) = remaining[4..8].try_into() else {
            break;
        };
        let crc = u32::from_le_bytes(crc_bytes);
        let payload = &remaining[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        offset += FRAME_HEADER + len;
    }
    Ok(SegmentContents {
        records,
        valid_len: offset as u64,
        torn: offset < bytes.len(),
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
    /// Creates (or truncates) segment `seq` in `dir` and writes the magic.
    /// With `fsync`, the file and its directory entry are synced: a segment
    /// whose name can vanish in a power loss takes every synced frame with it.
    pub fn create(dir: &Path, seq: u64, fsync: bool) -> std::io::Result<Self> {
        let path = dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(WAL_MAGIC)?;
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

    /// Reopens an existing segment for appending after recovery, truncating a
    /// torn tail at `valid_len` first. `valid_len` = 0 (unreadable header)
    /// rewrites the segment from scratch.
    pub fn reopen(dir: &Path, seq: u64, valid_len: u64, fsync: bool) -> std::io::Result<Self> {
        if valid_len < WAL_MAGIC.len() as u64 {
            return Self::create(dir, seq, fsync);
        }
        let path = dir.join(segment_file_name(seq));
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        if fsync {
            file.sync_data()?;
        }
        let mut writer = WalWriter {
            file,
            path,
            seq,
            fsync,
        };
        writer.seek_end(valid_len)?;
        Ok(writer)
    }

    fn seek_end(&mut self, pos: u64) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(pos))?;
        Ok(())
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
        self.append_batch(&frame)
    }

    /// Appends a commit group — whole frames built by [`frame_into`], back to
    /// back — with a single `write_all` and (optionally) a single `sync_data`.
    /// A crash mid-write loses a suffix of the group and tears at most one
    /// frame. After an error the segment's tail is unknown, so the writer must
    /// not be appended to again (recovery truncates the tear).
    pub fn append_batch(&mut self, frames: &[u8]) -> std::io::Result<()> {
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
        let dir = temp_dir("wal-batch");
        let mut one_by_one = WalWriter::create(&dir, 0, false).unwrap();
        for p in &payloads {
            one_by_one.append(p).unwrap();
        }
        let mut group = Vec::new();
        for p in &payloads {
            // The reference framing, assembled the long way round.
            let mut frame = (p.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(p).to_le_bytes());
            frame.extend_from_slice(p);
            let start = group.len();
            frame_into(&mut group, |buf| buf.extend_from_slice(p));
            assert_eq!(&group[start..], frame.as_slice());
        }
        let mut batched = WalWriter::create(&dir, 1, true).unwrap();
        batched.append_batch(&group).unwrap();
        drop((one_by_one, batched));
        let single = std::fs::read(dir.join(segment_file_name(0))).unwrap();
        assert_eq!(
            single,
            std::fs::read(dir.join(segment_file_name(1))).unwrap()
        );
        let contents = read_segment(&dir.join(segment_file_name(1))).unwrap();
        assert_eq!(contents.records, payloads);
        assert!(!contents.torn);
        std::fs::remove_dir_all(&dir).unwrap();
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
