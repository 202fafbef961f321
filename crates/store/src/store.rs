//! The store: snapshot + WAL orchestration, recovery, rotation, compaction.
//!
//! Disk layout inside the configured data directory:
//!
//! ```text
//! data_dir/
//!   snapshot.bin      latest full snapshot (atomic-rename; may be absent)
//!   wal-XXXXXXXX.log  the active WAL segment (sequence-numbered), and at
//!                     most one spare: the segment the latest snapshot
//!                     superseded, kept for the next rotation to recycle
//! ```
//!
//! The write path is a two-step group commit. Records are *staged* — encoded
//! and length-framed into an in-memory [`WalStage`], in the order their
//! epochs are applied, which costs no syscall and no checksum — and a stage
//! is *committed* by [`Store::commit`]: every frame's CRC sealed, then one
//! `write_all` and (with `persist.fsync`) one `sync_data` for everything
//! staged since the previous commit. Nothing a stage holds may be
//! acknowledged before the commit that covers it returns, so a crash loses
//! at most a suffix of unacknowledged records. The
//! aggregation runtime stages under its core lock and commits outside it (see
//! `crowd_agg::runtime`); a single caller can use the one-call form, per epoch:
//!
//! 1. [`Store::log_epoch`] — stage the epoch (and its ε charges) and commit
//!    it; durable on return, *before* applying it or acknowledging its
//!    checkins (write-ahead).
//! 2. apply the epoch to the server.
//! 3. [`Store::note_applied`] — when it reports a snapshot is due,
//!    [`Store::snapshot`] the server's exported state, which also rotates the
//!    log to a successor segment.
//!
//! Rotation recycles. The spare (a segment the latest durable snapshot
//! already superseded, so none of its frames is needed) is renamed to the
//! successor's name, its header is rewritten and its first old frame header
//! invalidated, and the data and then the directory are synced — all
//! *before* the snapshot that names the successor is installed. Once that
//! snapshot is durable, the segment it superseded becomes the new spare and
//! anything older is deleted. Appends to a recycled segment overwrite
//! allocated blocks, so their `sync_data` has no file growth to journal, and
//! the old frames never replay: each frame's CRC is salted with its
//! segment's sequence number (see [`crate::wal`]). A crash before the
//! install recovers under the previous snapshot, which still names the old
//! active segment (Pillai et al., "All File Systems Are Not Created Equal",
//! OSDI 2014, for the rename/fsync ordering).
//!
//! [`Store::open`] inverts this on startup: restore the snapshot, replay the
//! surviving WAL records through `Server::apply_aggregate` (the same
//! deterministic code path the live run used, so the result is bitwise
//! identical), truncate any torn tail, and resume appending where the log
//! left off.

use crate::codec;
use crate::snapshot;
use crate::wal::{self, WalWriter};
use crate::{Result, StoreError};
use crowd_core::config::ServerConfig;
use crowd_core::server::{EpochAggregate, PendingSubmission, RoundAdmission, Server};
use crowd_core::ServerState;
use crowd_learning::model::Model;
use crowd_telemetry::{CounterId, HistogramId, Registry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What [`Store::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot was loaded.
    pub from_snapshot: bool,
    /// WAL epochs replayed on top of the snapshot (or from scratch).
    pub replayed_epochs: u64,
    /// Logged epochs whose apply was refused (identically refused in the
    /// original run — e.g. malformed but logged; normally 0).
    pub skipped_epochs: u64,
    /// Masked round submissions replayed into the open round.
    pub replayed_submissions: u64,
    /// Round boundaries (finalize or expiry) replayed.
    pub replayed_rounds: u64,
    /// A torn WAL tail (the expected crash artifact) was truncated.
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// `true` when any prior state was recovered (vs. a fresh start).
    pub fn recovered(&self) -> bool {
        self.from_snapshot
            || self.replayed_epochs > 0
            || self.skipped_epochs > 0
            || self.replayed_submissions > 0
            || self.replayed_rounds > 0
    }
}

/// WAL records staged for the next commit: whole frames, back to back, in
/// the order they were staged, their CRCs left for the commit to seal.
/// Staging only writes memory; [`Store::commit`] makes a stage durable and
/// empties it (keeping its buffer), so a stage that is swapped with a spare
/// and reused allocates nothing per record.
#[derive(Debug, Default)]
pub struct WalStage {
    frames: Vec<u8>,
    count: u64,
}

impl WalStage {
    /// An empty stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one epoch (and its ε charges). Must happen *before* the epoch is
    /// applied, so that the log's order is the apply order.
    pub fn stage_epoch(
        &mut self,
        pre_iteration: u64,
        epoch: &EpochAggregate,
        charges: &[(u64, f64)],
    ) {
        wal::frame_into(&mut self.frames, |buf| {
            codec::encode_epoch_record_into(buf, pre_iteration, epoch, charges)
        });
        self.count += 1;
    }

    /// Stages one accepted round submission.
    pub fn stage_round_submit(&mut self, round_id: u64, submission: &PendingSubmission) {
        wal::frame_into(&mut self.frames, |buf| {
            codec::encode_round_submit_record_into(buf, round_id, submission)
        });
        self.count += 1;
    }

    /// Stages a round boundary (finalize or expiry). Staged *before* the
    /// finalization epoch record, so replay advances the round (clearing its
    /// pending cohort) and then applies the epoch the live run produced from
    /// it.
    pub fn stage_round_advance(&mut self, closed_round_id: u64) {
        wal::frame_into(&mut self.frames, |buf| {
            codec::encode_round_advance_record_into(buf, closed_round_id)
        });
        self.count += 1;
    }

    /// Records staged and not yet committed.
    pub fn frames(&self) -> u64 {
        self.count
    }

    /// `true` when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The staged frames: what a commit writes once it has sealed their CRCs.
    pub fn as_bytes(&self) -> &[u8] {
        &self.frames
    }

    /// Drops everything staged, keeping the buffer.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.count = 0;
    }
}

/// A server's durable backing: one snapshot file plus the active WAL segment.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    snapshot_every: u64,
    fsync: bool,
    wal: WalWriter,
    /// The stage behind the one-call `log_*` methods.
    stage: WalStage,
    /// A segment the latest durable snapshot superseded, which the next
    /// rotation recycles as its successor.
    spare: Option<u64>,
    epochs_since_snapshot: u64,
    /// When attached (by the aggregation runtime), WAL append bytes/latency
    /// and snapshot durations are recorded here alongside the runtime's own
    /// metrics, so one scrape covers the whole durability path.
    metrics: Option<Arc<Registry>>,
}

impl Store {
    /// Opens (creating if necessary) the store configured by `config.persist`
    /// and recovers the server state from it: latest snapshot, then the WAL
    /// tail replayed through the same deterministic apply path as a live run.
    ///
    /// `model` and `config` must match the ones the persisted server ran with;
    /// a budget-configuration mismatch is detected (the logged ε charges no
    /// longer match) and reported as [`StoreError::ReplayDiverged`].
    pub fn open<M: Model>(
        model: M,
        config: ServerConfig,
    ) -> Result<(Store, Server<M>, RecoveryReport)> {
        let persist = config.persist.clone();
        let dir = persist.data_dir.clone().ok_or_else(|| {
            StoreError::Core(crowd_core::CoreError::Config(
                "Store::open requires persist.data_dir".into(),
            ))
        })?;
        std::fs::create_dir_all(&dir)?;
        // A leftover temporary from a snapshot that crashed pre-rename is
        // garbage by construction.
        let _ = std::fs::remove_file(dir.join(snapshot::SNAPSHOT_TMP));

        let mut report = RecoveryReport::default();
        let (mut server, first_seq) = match snapshot::read(&dir)? {
            Some(snap) => {
                report.from_snapshot = true;
                (Server::restore(model, config, snap.state)?, snap.wal_seq)
            }
            None => (Server::new(model, config)?, 0),
        };

        // Segments below `first_seq` are fully covered by the snapshot and
        // never replayed (that would double-apply their epochs). The newest is
        // kept as the spare; the rest may survive a crash between
        // snapshot-rename and cleanup, and are deleted.
        let (mut superseded, live_segments): (Vec<u64>, Vec<u64>) = list_segments(&dir)?
            .into_iter()
            .partition(|&seq| seq < first_seq);
        let spare = superseded.pop();
        for seq in superseded {
            let _ = std::fs::remove_file(dir.join(wal::segment_file_name(seq)));
        }
        // A spare may only be overwritten once the snapshot that supersedes
        // it is durable; the run that installed it may have died before its
        // directory sync.
        if persist.fsync && spare.is_some() {
            wal::sync_dir(&dir)?;
        }

        let mut active = None;
        for &seq in &live_segments {
            let contents = wal::read_segment(&dir.join(wal::segment_file_name(seq)))?;
            report.torn_tail |= contents.torn;
            for payload in &contents.records {
                replay_record(&mut server, payload, &mut report)?;
            }
            active = Some((seq, contents.valid_len));
        }

        let wal = match active {
            Some((seq, valid_len)) => WalWriter::reopen(&dir, seq, valid_len, persist.fsync)?,
            None => WalWriter::create(&dir, first_seq, persist.fsync)?,
        };

        Ok((
            Store {
                dir,
                snapshot_every: persist.snapshot_every_epochs,
                fsync: persist.fsync,
                wal,
                stage: WalStage::new(),
                spare,
                epochs_since_snapshot: 0,
                metrics: None,
            },
            server,
            report,
        ))
    }

    /// The data directory backing this store.
    pub fn data_dir(&self) -> &Path {
        &self.dir
    }

    /// The active WAL segment's sequence number.
    pub fn wal_seq(&self) -> u64 {
        self.wal.seq()
    }

    pub(crate) fn wal_mut(&mut self) -> &mut WalWriter {
        &mut self.wal
    }

    /// Attaches a crowd-scope registry; subsequent commits and snapshots
    /// record `wal_appends`, `wal_append_bytes`, `wal_append_us`, `wal_frames`,
    /// `wal_group_frames`, `wal_segments_recycled` and `snapshot_us` into it.
    pub fn set_metrics(&mut self, metrics: Arc<Registry>) {
        self.metrics = Some(metrics);
    }

    /// Commits a stage: its frames' CRCs are sealed, and everything in it
    /// reaches the active segment with one `write_all` and (with
    /// `persist.fsync`) one `sync_data`, and is durable on `Ok`. The stage
    /// comes back empty either way. An `Err` may have left a torn frame at the
    /// segment's tail, so nothing may be committed to this store afterwards
    /// (a restart truncates the tear); the caller must treat it as fatal and
    /// acknowledge nothing the stage covered.
    pub fn commit(&mut self, stage: &mut WalStage) -> Result<()> {
        commit_stage(&mut self.wal, self.metrics.as_deref(), stage)
    }

    /// Commits the store's own stage (the one behind the `log_*` methods).
    fn commit_own(&mut self) -> Result<()> {
        commit_stage(&mut self.wal, self.metrics.as_deref(), &mut self.stage)
    }

    /// Stages and commits one epoch (and its ε charges); durable on return.
    /// Must be called *before* the epoch is applied and its checkins
    /// acknowledged; a failure here means the epoch must not be applied (no
    /// ack without durability).
    pub fn log_epoch(
        &mut self,
        pre_iteration: u64,
        epoch: &EpochAggregate,
        charges: &[(u64, f64)],
    ) -> Result<()> {
        self.stage.stage_epoch(pre_iteration, epoch, charges);
        self.commit_own()
    }

    /// Stages and commits one accepted round submission. Must be called
    /// *before* the submission is acknowledged — a crash mid-round then
    /// recovers the pending cohort exactly, and the later finalization epoch
    /// charges each contribution once.
    pub fn log_round_submit(
        &mut self,
        round_id: u64,
        submission: &PendingSubmission,
    ) -> Result<()> {
        self.stage.stage_round_submit(round_id, submission);
        self.commit_own()
    }

    /// Stages and commits a round boundary (finalize or expiry); see
    /// [`WalStage::stage_round_advance`] for its place in the log.
    pub fn log_round_advance(&mut self, closed_round_id: u64) -> Result<()> {
        self.stage.stage_round_advance(closed_round_id);
        self.commit_own()
    }

    /// Notes that a logged epoch has been applied; returns `true` when a
    /// periodic snapshot is now due.
    pub fn note_applied(&mut self) -> bool {
        self.epochs_since_snapshot += 1;
        self.snapshot_every > 0 && self.epochs_since_snapshot >= self.snapshot_every
    }

    /// Writes a full snapshot of `state` and rotates the log to a successor
    /// segment (recycling the spare when there is one); once the snapshot is
    /// durable, the segment it superseded becomes the spare and every older
    /// segment is deleted (compaction).
    ///
    /// Failure ordering matters: the successor segment is in place *before*
    /// the snapshot that names it, and the store only switches its writer
    /// once the snapshot naming it is in place. If either step fails, the old
    /// segment stays active and the old snapshot stays authoritative —
    /// recovery never sees a snapshot whose `wal_seq` points past segments
    /// that still receive acknowledged epochs (which it would delete as
    /// superseded). Everything `state` reflects must already be committed to
    /// the old segment: nothing staged before the snapshot may be committed
    /// after it, or it would land in the successor and replay twice.
    pub fn snapshot(&mut self, state: &ServerState) -> Result<()> {
        let start = self.metrics.as_ref().map(|m| m.start());
        let new_wal = self.open_successor()?;
        let next_seq = new_wal.seq();
        snapshot::install(&self.dir, next_seq, state, self.fsync)?;
        // The renamed snapshot is visible from here on, so appends belong to
        // the successor whatever happens next; but until the rename is known
        // durable the superseded segments stay (a power loss that drops it
        // replays them under the old snapshot), and the next rotation creates
        // its successor afresh.
        self.wal = new_wal;
        if self.fsync {
            wal::sync_dir(&self.dir)?;
        }
        let mut superseded: Vec<u64> = list_segments(&self.dir)?
            .into_iter()
            .filter(|&seq| seq < next_seq)
            .collect();
        self.spare = superseded.pop();
        for seq in superseded {
            let _ = std::fs::remove_file(self.dir.join(wal::segment_file_name(seq)));
        }
        self.epochs_since_snapshot = 0;
        if let (Some(metrics), Some(start)) = (&self.metrics, start) {
            metrics.observe_since(HistogramId::SnapshotUs, start);
        }
        Ok(())
    }

    /// The successor of the active segment, ready for appends: the spare
    /// recycled under the successor's name, or a fresh segment when there is
    /// no spare. The spare is used up either way, so a failed rotation never
    /// recycles a file twice.
    pub(crate) fn open_successor(&mut self) -> Result<WalWriter> {
        let next_seq = self.wal.seq() + 1;
        let Some(spare) = self.spare.take() else {
            return Ok(WalWriter::create(&self.dir, next_seq, self.fsync)?);
        };
        let recycled = WalWriter::recycle(&self.dir, spare, next_seq, self.fsync)?;
        if let Some(metrics) = &self.metrics {
            metrics.incr(CounterId::WalSegmentsRecycled);
        }
        Ok(recycled)
    }
}

/// Seals a stage's frames and writes them to `wal` as one commit group,
/// records it, and empties it.
fn commit_stage(
    wal: &mut WalWriter,
    metrics: Option<&Registry>,
    stage: &mut WalStage,
) -> Result<()> {
    if stage.is_empty() {
        return Ok(());
    }
    let start = metrics.map(|m| m.start());
    let written = wal.append_batch(&mut stage.frames);
    if let (Ok(()), Some(metrics), Some(start)) = (&written, metrics, start) {
        metrics.incr(CounterId::WalAppends);
        // Payload bytes, as before group commit: frame headers excluded.
        let headers = wal::FRAME_HEADER as u64 * stage.frames();
        metrics.add(
            CounterId::WalAppendBytes,
            stage.as_bytes().len() as u64 - headers,
        );
        metrics.add(CounterId::WalFrames, stage.frames());
        metrics.observe(HistogramId::WalGroupFrames, stage.frames());
        metrics.observe_since(HistogramId::WalAppendUs, start);
    }
    stage.clear();
    Ok(written?)
}

/// Replays one WAL payload into `server`, enforcing the log's invariants.
fn replay_record<M: Model>(
    server: &mut Server<M>,
    payload: &[u8],
    report: &mut RecoveryReport,
) -> Result<()> {
    match codec::decode_record(payload).map_err(|e| StoreError::CorruptWal(e.0))? {
        codec::WalRecord::Epoch(record) => {
            if record.pre_iteration != server.iteration() {
                return Err(StoreError::CorruptWal(format!(
                    "record expects pre-apply iteration {}, server is at {}",
                    record.pre_iteration,
                    server.iteration()
                )));
            }
            let recomputed = server.epoch_charges(&record.epoch);
            if !charges_bitwise_equal(&recomputed, &record.charges) {
                return Err(StoreError::ReplayDiverged(format!(
                    "ε charges recomputed as {recomputed:?} but logged as {:?} — was the \
                     server restarted with a different budget configuration?",
                    record.charges
                )));
            }
            match server.apply_aggregate(&record.epoch) {
                Ok(_) => report.replayed_epochs += 1,
                // The live run logged this epoch and then identically refused
                // it; replay preserves that behavior (and its counter side
                // effects are zero, because apply_aggregate validates before
                // mutating).
                Err(_) => report.skipped_epochs += 1,
            }
        }
        codec::WalRecord::RoundSubmit {
            round_id,
            submission,
        } => {
            // The live run accepted this submission before logging it; replay
            // from the same pre-state must accept it identically.
            match server.round_submit(round_id, submission) {
                Ok(RoundAdmission::Accepted { .. }) => report.replayed_submissions += 1,
                Ok(other) => {
                    return Err(StoreError::CorruptWal(format!(
                        "logged round-{round_id} submission replayed as {other:?}"
                    )))
                }
                Err(e) => {
                    return Err(StoreError::CorruptWal(format!(
                        "logged round-{round_id} submission refused on replay: {e}"
                    )))
                }
            }
        }
        codec::WalRecord::RoundAdvance { closed_round_id } => {
            server.advance_round(closed_round_id).map_err(|e| {
                StoreError::CorruptWal(format!("round advance refused on replay: {e}"))
            })?;
            report.replayed_rounds += 1;
        }
    }
    Ok(())
}

fn charges_bitwise_equal(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(&(id_a, eps_a), &(id_b, eps_b))| {
                id_a == id_b && eps_a.to_bits() == eps_b.to_bits()
            })
}

/// The sequence numbers of the segments in `dir`, ascending.
fn list_segments(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(wal::parse_segment_seq) {
            segments.push(seq);
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;
    use crowd_core::device::CheckinPayload;
    use crowd_core::server::EpochAggregate;
    use crowd_learning::MulticlassLogistic;
    use crowd_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 3;
    const CLASSES: usize = 2;

    fn model() -> MulticlassLogistic {
        MulticlassLogistic::new(DIM, CLASSES).unwrap()
    }

    fn config(dir: &Path) -> ServerConfig {
        ServerConfig::new()
            .with_rate_constant(1.0)
            .with_budget(0.25, f64::INFINITY)
            .with_data_dir(dir)
            .with_snapshot_every(4)
    }

    fn payload(device_id: u64, step: u64, rng: &mut StdRng) -> CheckinPayload {
        CheckinPayload {
            device_id,
            checkout_iteration: step,
            nonce: 0,
            gradient: Vector::from_vec(
                (0..DIM * CLASSES)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
            )
            .into(),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        }
    }

    /// Logs and applies one singleton epoch through the store protocol.
    fn durable_checkin(
        store: &mut Store,
        server: &mut Server<MulticlassLogistic>,
        p: &CheckinPayload,
    ) {
        let epoch = EpochAggregate::from_payload(p);
        let charges = server.epoch_charges(&epoch);
        store
            .log_epoch(server.iteration(), &epoch, &charges)
            .unwrap();
        server.apply_aggregate(&epoch).unwrap();
        if store.note_applied() {
            store.snapshot(&server.export_state()).unwrap();
        }
    }

    /// The reference: the same checkin stream applied to a volatile server.
    fn reference_state(n: usize) -> ServerState {
        let mut server = Server::new(
            model(),
            ServerConfig::new()
                .with_rate_constant(1.0)
                .with_budget(0.25, f64::INFINITY),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..n {
            let p = payload(step as u64 % 5, step as u64, &mut rng);
            server
                .apply_aggregate(&EpochAggregate::from_payload(&p))
                .unwrap();
        }
        server.export_state()
    }

    #[test]
    fn fresh_store_recovers_nothing() {
        let dir = temp_dir("store-fresh");
        let (store, server, report) = Store::open(model(), config(&dir)).unwrap();
        assert!(!report.recovered());
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(server.iteration(), 0);
        assert_eq!(store.wal_seq(), 0);
        assert_eq!(store.data_dir(), dir.as_path());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A staged frame built the long way round: the allocating encoder's
    /// payload behind a freshly built header whose CRC the commit has yet to
    /// seal.
    fn reference_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0; 4]);
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn staged_frames_are_byte_identical_to_the_allocating_encoders() {
        let dir = temp_dir("store-stage-bytes");
        let (_store, server, _) = Store::open(model(), round_config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let p = payload(2, 9, &mut rng);
        let epoch = EpochAggregate::from_payload(&p);
        let charges = server.epoch_charges(&epoch);
        let submission = round_submission(&server, 1);

        let mut stage = WalStage::new();
        assert!(stage.is_empty());
        stage.stage_round_submit(4, &submission);
        stage.stage_round_advance(4);
        stage.stage_epoch(17, &epoch, &charges);
        assert_eq!(stage.frames(), 3);

        let mut expected = reference_frame(&codec::encode_round_submit_record(4, &submission));
        expected.extend(reference_frame(&codec::encode_round_advance_record(4)));
        expected.extend(reference_frame(&codec::encode_epoch_record(
            17, &epoch, &charges,
        )));
        assert_eq!(stage.as_bytes(), expected.as_slice());

        stage.clear();
        assert!(stage.is_empty() && stage.as_bytes().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_commit_covers_every_staged_epoch() {
        let dir = temp_dir("store-group");
        let metrics = Arc::new(Registry::new());
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        store.set_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(7);
        let mut stage = WalStage::new();
        for step in 0..5u64 {
            let epoch = EpochAggregate::from_payload(&payload(step % 5, step, &mut rng));
            let charges = server.epoch_charges(&epoch);
            stage.stage_epoch(server.iteration(), &epoch, &charges);
            server.apply_aggregate(&epoch).unwrap();
        }
        // Staged is not durable: a crash here recovers nothing.
        let (_, recovered, _) = Store::open(model(), config(&dir)).unwrap();
        assert_eq!(recovered.iteration(), 0);

        store.commit(&mut stage).unwrap();
        assert!(stage.is_empty());
        // An empty stage is not an append.
        store.commit(&mut stage).unwrap();
        let stats = metrics.snapshot();
        assert_eq!(stats.get("wal_appends"), 1);
        assert_eq!(stats.get("wal_frames"), 5);
        let group = stats.histogram("wal_group_frames").unwrap();
        assert_eq!((group.count(), group.sum()), (1, 5));
        assert_eq!(stats.histogram("wal_append_us").unwrap().count(), 1);
        drop(store);

        let (_, recovered, report) = Store::open(model(), config(&dir)).unwrap();
        assert_eq!(report.replayed_epochs, 5);
        assert_eq!(recovered.export_state(), reference_state(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_commit_writes_nothing_and_empties_the_stage() {
        let dir = temp_dir("store-broken");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        durable_checkin(&mut store, &mut server, &payload(0, 0, &mut rng));
        crate::testutil::break_wal(&mut store).unwrap();
        let epoch = EpochAggregate::from_payload(&payload(1, 1, &mut rng));
        let charges = server.epoch_charges(&epoch);
        assert!(matches!(
            store.log_epoch(server.iteration(), &epoch, &charges),
            Err(StoreError::Io(_))
        ));
        drop(store);
        let (_, recovered, report) = Store::open(model(), config(&dir)).unwrap();
        assert_eq!(report.replayed_epochs, 1);
        assert!(!report.torn_tail);
        assert_eq!(recovered.export_state(), reference_state(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_mode_creates_rotates_and_recovers() {
        // With fsync on, segment creation and snapshot rotation also sync the
        // directory entry; the observable contract is unchanged.
        let dir = temp_dir("store-fsync");
        let fsync_config = config(&dir).with_fsync(true);
        let (mut store, mut server, _) = Store::open(model(), fsync_config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..6 {
            let p = payload(step as u64 % 5, step as u64, &mut rng);
            durable_checkin(&mut store, &mut server, &p);
        }
        assert_eq!(store.wal_seq(), 1);
        // Segment 0 stays as the spare the next rotation recycles.
        assert_eq!(list_segments(&dir).unwrap(), vec![0, 1]);
        drop(store);
        let (_, recovered, report) = Store::open(model(), fsync_config).unwrap();
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 2);
        assert_eq!(recovered.export_state(), reference_state(6));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_recovery_is_bitwise_identical_at_every_point() {
        // 11 checkins crosses two snapshot boundaries (snapshot_every = 4), so
        // the crash points cover: WAL-only, snapshot-only, snapshot + tail.
        let total = 11usize;
        for crash_after in [1usize, 3, 4, 5, 8, 10, 11] {
            let dir = temp_dir(&format!("store-crash-{crash_after}"));
            let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            for step in 0..crash_after {
                let p = payload(step as u64 % 5, step as u64, &mut rng);
                durable_checkin(&mut store, &mut server, &p);
            }
            let at_crash = server.export_state();
            // Crash: drop both without any graceful checkpoint.
            drop(store);
            drop(server);

            let (mut store, mut server, report) = Store::open(model(), config(&dir)).unwrap();
            assert!(report.recovered());
            assert_eq!(report.skipped_epochs, 0);
            assert_eq!(
                server.export_state(),
                at_crash,
                "recovery at crash point {crash_after} must be bitwise identical"
            );
            assert_eq!(server.params().as_slice(), at_crash.params.as_slice());

            // Resuming the stream lands exactly on the uninterrupted run.
            for step in crash_after..total {
                let p = payload(step as u64 % 5, step as u64, &mut rng);
                durable_checkin(&mut store, &mut server, &p);
            }
            assert_eq!(server.export_state(), reference_state(total));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_epoch() {
        let dir = temp_dir("store-torn");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut states = vec![server.export_state()];
        for step in 0..3 {
            let p = payload(step as u64, step as u64, &mut rng);
            durable_checkin(&mut store, &mut server, &p);
            states.push(server.export_state());
        }
        let wal_path = dir.join(wal::segment_file_name(store.wal_seq()));
        drop(store);
        drop(server);
        // Tear bytes off the final record, as a crash mid-append would.
        let len = std::fs::metadata(&wal_path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let (_store, server, report) = Store::open(model(), config(&dir)).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed_epochs, 2);
        assert_eq!(server.export_state(), states[2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rotation_compacts_the_log() {
        let dir = temp_dir("store-rotate");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..9 {
            let p = payload(step as u64, step as u64, &mut rng);
            durable_checkin(&mut store, &mut server, &p);
        }
        // Two snapshots happened (after epochs 4 and 8): the second recycled
        // segment 0 as segment 2, which holds exactly the one post-snapshot
        // epoch, and segment 1 stays as the spare.
        assert_eq!(store.wal_seq(), 2);
        assert_eq!(list_segments(&dir).unwrap(), vec![1, 2]);
        let contents = wal::read_segment(&dir.join(wal::segment_file_name(2))).unwrap();
        assert_eq!(contents.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_frames_of_a_recycled_segment_never_replay() {
        let dir = temp_dir("store-recycle-stale");
        let manual = config(&dir).with_snapshot_every(0);
        let metrics = Arc::new(Registry::new());
        let (mut store, mut server, _) = Store::open(model(), manual.clone()).unwrap();
        store.set_metrics(Arc::clone(&metrics));
        let mut rng = StdRng::seed_from_u64(7);
        let mut log = |store: &mut Store, server: &mut Server<_>, steps: std::ops::Range<u64>| {
            for step in steps {
                durable_checkin(store, server, &payload(step % 5, step, &mut rng));
            }
        };
        // Many frames in segment 0, then two rotations: 0 → 1 keeps 0 as the
        // spare, 1 → 2 recycles it.
        log(&mut store, &mut server, 0..10);
        store.snapshot(&server.export_state()).unwrap();
        log(&mut store, &mut server, 10..11);
        store.snapshot(&server.export_state()).unwrap();
        assert_eq!(store.wal_seq(), 2);
        assert_eq!(metrics.snapshot().get("wal_segments_recycled"), 1);
        // Fewer frames in the reborn segment than its first life held, then
        // a crash with no snapshot.
        log(&mut store, &mut server, 11..13);
        let at_crash = server.export_state();
        drop(store);
        drop(server);

        let (_store, server, report) = Store::open(model(), manual).unwrap();
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 2);
        assert!(
            report.torn_tail,
            "the first life's frames follow the new ones"
        );
        assert_eq!(server.export_state(), at_crash);
        assert_eq!(at_crash, reference_state(13));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_mid_rotation_recovers_under_the_previous_snapshot() {
        let dir = temp_dir("store-recycle-crash");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        // Snapshots after epochs 4 and 8 leave segment 2 active and 1 spare.
        let total = 14;
        for step in 0..9 {
            durable_checkin(&mut store, &mut server, &payload(step % 5, step, &mut rng));
        }
        assert_eq!(list_segments(&dir).unwrap(), vec![1, 2]);
        let at_crash = server.export_state();
        // The spare is renamed to segment 3 and rewritten; the process dies
        // before the snapshot naming segment 3 is installed.
        crate::testutil::rotate_without_snapshot(&mut store).unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![2, 3]);
        drop(store);
        drop(server);

        let (mut store, server, report) = Store::open(model(), config(&dir)).unwrap();
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(server.export_state(), at_crash);
        // The half-rotated segment is where appending resumes. Segment 2 is
        // still the snapshot's, so the next rotation must not recycle it:
        // crash mid-rotation again and recover the same state.
        assert_eq!(store.wal_seq(), 3);
        crate::testutil::rotate_without_snapshot(&mut store).unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![2, 3, 4]);
        drop(store);
        drop(server);
        let (mut store, mut server, report) = Store::open(model(), config(&dir)).unwrap();
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(server.export_state(), at_crash);
        for step in 9..total {
            durable_checkin(&mut store, &mut server, &payload(step % 5, step, &mut rng));
        }
        assert_eq!(server.export_state(), reference_state(total as usize));
        drop(store);
        drop(server);
        let (_store, server, _) = Store::open(model(), config(&dir)).unwrap();
        assert_eq!(server.export_state(), reference_state(total as usize));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn at_rest_the_directory_holds_the_active_segment_one_spare_and_the_snapshot() {
        let dir = temp_dir("store-recycle-disk");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..30 {
            durable_checkin(&mut store, &mut server, &payload(step % 5, step, &mut rng));
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            let active = wal::segment_file_name(store.wal_seq());
            let mut allowed = vec![active.clone(), snapshot::SNAPSHOT_FILE.to_string()];
            if let Some(spare) = store.spare {
                allowed.push(wal::segment_file_name(spare));
            }
            assert!(names.contains(&active), "after step {step}: {names:?}");
            assert!(
                names.len() <= 3 && names.iter().all(|name| allowed.contains(name)),
                "after step {step}: {names:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_segment_is_refused_by_name_and_format() {
        let dir = temp_dir("store-wal-v1");
        let (_, server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let epoch = EpochAggregate::from_payload(&payload(0, 0, &mut rng));
        let charges = server.epoch_charges(&epoch);
        // A v1 segment: the old magic, then frames whose CRC covers the
        // payload alone.
        let record = codec::encode_epoch_record(0, &epoch, &charges);
        let mut v1 = b"CMLWAL01".to_vec();
        v1.extend_from_slice(&(record.len() as u32).to_le_bytes());
        v1.extend_from_slice(&codec::crc32(&record).to_le_bytes());
        v1.extend_from_slice(&record);
        let segment = dir.join(wal::segment_file_name(0));
        std::fs::write(&segment, &v1).unwrap();
        match Store::open(model(), config(&dir)) {
            Err(StoreError::UnsupportedWal {
                segment: named,
                found,
            }) => {
                assert_eq!(named, segment);
                assert_eq!(found, "CMLWAL01");
            }
            other => panic!("expected UnsupportedWal, got {other:?}"),
        }
        // Refused, not repaired: the acknowledged epoch is still on disk.
        assert_eq!(std::fs::read(&segment).unwrap(), v1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_config_mismatch_is_detected_on_replay() {
        let dir = temp_dir("store-diverge");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let p = payload(0, 0, &mut rng);
        durable_checkin(&mut store, &mut server, &p);
        drop(store);
        drop(server);
        // Restart with a different per-checkin ε: the logged charges no longer
        // match what replay recomputes.
        let altered = config(&dir).with_budget(0.5, f64::INFINITY);
        match Store::open(model(), altered) {
            Err(StoreError::ReplayDiverged(_)) => {}
            other => panic!("expected ReplayDiverged, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_sequencing_violation_is_corruption() {
        let dir = temp_dir("store-seq");
        let (mut store, server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let p = payload(0, 0, &mut rng);
        let epoch = EpochAggregate::from_payload(&p);
        let charges = server.epoch_charges(&epoch);
        // Log an epoch claiming the wrong pre-apply iteration.
        store.log_epoch(5, &epoch, &charges).unwrap();
        drop(store);
        drop(server);
        match Store::open(model(), config(&dir)) {
            Err(StoreError::CorruptWal(_)) => {}
            other => panic!("expected CorruptWal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_without_data_dir_is_an_error() {
        let no_dir = ServerConfig::new();
        assert!(Store::open(model(), no_dir).is_err());
    }

    fn round_config(dir: &Path) -> ServerConfig {
        config(dir).with_rounds(
            crowd_core::RoundSettings::new(5)
                .with_select_fraction(1.0)
                .with_deadline_epochs(100),
        )
    }

    /// A well-formed masked submission for the open round.
    fn round_submission(server: &Server<MulticlassLogistic>, device_id: u64) -> PendingSubmission {
        let info = server.round_info().unwrap();
        let cohort = server.round_cohort().unwrap().to_vec();
        let dim = DIM * CLASSES;
        let gradient: Vec<f64> = (0..dim)
            .map(|i| (device_id as f64 + 1.0) * 0.25 + i as f64 * 0.125)
            .collect();
        let masks = crowd_rounds::net_mask(info.seed, device_id, &cohort, dim);
        PendingSubmission {
            device_id,
            nonce: 1000 + device_id,
            checkout_iteration: server.iteration(),
            words: crowd_rounds::mask(&gradient, &masks),
            num_samples: 2,
            error_count: 1,
            label_counts: vec![1, 1],
        }
    }

    /// Accepts a submission into the open round and logs it (the live
    /// runtime's order: admit, then make durable, then acknowledge).
    fn durable_round_submit(
        store: &mut Store,
        server: &mut Server<MulticlassLogistic>,
        device_id: u64,
    ) {
        let info = server.round_info().unwrap();
        let sub = round_submission(server, device_id);
        match server.round_submit(info.round_id, sub.clone()).unwrap() {
            RoundAdmission::Accepted { .. } => {}
            other => panic!("expected acceptance, got {other:?}"),
        }
        store.log_round_submit(info.round_id, &sub).unwrap();
    }

    /// Finalizes the open round through the store protocol: advance record,
    /// then the finalization epoch, then the apply.
    fn durable_round_finalize(store: &mut Store, server: &mut Server<MulticlassLogistic>) {
        let (closed, epoch) = server.finalize_round().unwrap();
        store.log_round_advance(closed).unwrap();
        if let Some(epoch) = epoch {
            let charges = server.epoch_charges(&epoch);
            store
                .log_epoch(server.iteration(), &epoch, &charges)
                .unwrap();
            server.apply_aggregate(&epoch).unwrap();
        }
    }

    #[test]
    fn mid_round_crash_recovers_the_pending_cohort() {
        let dir = temp_dir("store-round-crash");
        let (mut store, mut server, _) = Store::open(model(), round_config(&dir)).unwrap();
        for device_id in 0..3u64 {
            durable_round_submit(&mut store, &mut server, device_id);
        }
        let at_crash = server.export_state();
        assert_eq!(at_crash.round.as_ref().unwrap().pending.len(), 3);
        drop(store);
        drop(server);

        let (mut store, mut server, report) = Store::open(model(), round_config(&dir)).unwrap();
        assert!(report.recovered());
        assert_eq!(report.replayed_submissions, 3);
        assert_eq!(server.export_state(), at_crash);

        // The recovered round finalizes exactly as the uninterrupted one.
        for device_id in 3..5u64 {
            durable_round_submit(&mut store, &mut server, device_id);
        }
        durable_round_finalize(&mut store, &mut server);
        let finalized = server.export_state();
        assert_eq!(server.iteration(), 1);
        assert_eq!(finalized.round.as_ref().unwrap().round_id, 2);
        assert!(finalized.round.as_ref().unwrap().pending.is_empty());

        // Crash again after finalization: advance + epoch replay on top of
        // the submissions.
        drop(store);
        drop(server);
        let (_store, server, report) = Store::open(model(), round_config(&dir)).unwrap();
        assert_eq!(report.replayed_submissions, 5);
        assert_eq!(report.replayed_rounds, 1);
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(server.export_state(), finalized);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_round_snapshot_captures_pending_submissions() {
        let dir = temp_dir("store-round-snapshot");
        let (mut store, mut server, _) = Store::open(model(), round_config(&dir)).unwrap();
        for device_id in 0..2u64 {
            durable_round_submit(&mut store, &mut server, device_id);
        }
        // Snapshot mid-round: the WAL compaction must not lose the cohort.
        store.snapshot(&server.export_state()).unwrap();
        let at_crash = server.export_state();
        drop(store);
        drop(server);

        let (_store, server, report) = Store::open(model(), round_config(&dir)).unwrap();
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_submissions, 0);
        assert_eq!(server.export_state(), at_crash);
        assert_eq!(
            server.export_state().round.unwrap().pending.len(),
            2,
            "pending submissions must survive snapshot compaction"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_shutdown_checkpoint_makes_recovery_snapshot_only() {
        let dir = temp_dir("store-clean");
        let (mut store, mut server, _) = Store::open(model(), config(&dir)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..3 {
            let p = payload(step as u64, step as u64, &mut rng);
            durable_checkin(&mut store, &mut server, &p);
        }
        // Clean shutdown: checkpoint, which compacts the WAL away.
        store.snapshot(&server.export_state()).unwrap();
        let expected = server.export_state();
        drop(store);
        drop(server);
        let (_store, recovered, report) = Store::open(model(), config(&dir)).unwrap();
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_epochs, 0);
        assert!(!report.torn_tail);
        assert_eq!(recovered.export_state(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
