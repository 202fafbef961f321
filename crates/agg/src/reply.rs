//! Where a checkin's outcome goes once its epoch is settled.
//!
//! A caller blocked in [`crate::AggRuntime::checkin`] (or holding a
//! [`crate::CompletionHandle`]) is answered over a channel. An event-driven
//! caller has nobody waiting: it hands the runtime an [`OutcomeSink`], and
//! the thread that settles the checkin — the worker (or submitter) that
//! applied its epoch on a volatile runtime, the committer after `sync_data`
//! on a durable one — runs it.

use crate::{AggError, Result};
use crowd_core::server::CheckinReceipt;
use std::sync::mpsc;

/// Receives one checkin's outcome on the thread that settled it.
///
/// Run exactly once: with the outcome, or with [`AggError::ShuttingDown`]
/// when the runtime drops the checkin unanswered (a kill, a halted durable
/// runtime) — the same thing a [`crate::CompletionHandle`] reports then. A
/// queued round submission's sink may also get the error that refused it
/// (say, [`AggError::RoundOutdated`]). It
/// may run while that thread holds aggregation locks, so it must be quick
/// and must not call back into the runtime.
pub type OutcomeSink = Box<dyn FnOnce(Result<CheckinReceipt>) + Send + 'static>;

enum Route {
    Caller(mpsc::Sender<CheckinReceipt>),
    Sink(OutcomeSink),
}

/// One checkin's way back to whoever submitted it.
pub(crate) struct Reply(Option<Route>);

impl Reply {
    /// To a blocked caller, which learns of a dropped reply from the
    /// disconnected channel.
    pub(crate) fn caller(tx: mpsc::Sender<CheckinReceipt>) -> Reply {
        Reply(Some(Route::Caller(tx)))
    }

    pub(crate) fn sink(sink: OutcomeSink) -> Reply {
        Reply(Some(Route::Sink(sink)))
    }

    /// Nowhere: the submitter is running the checkin itself and reads the
    /// outcome off the return value.
    pub(crate) fn returned() -> Reply {
        Reply(None)
    }

    pub(crate) fn send(mut self, outcome: CheckinReceipt) {
        match self.0.take() {
            Some(Route::Caller(tx)) => {
                let _ = tx.send(outcome);
            }
            Some(Route::Sink(sink)) => sink(Ok(outcome)),
            None => {}
        }
    }

    /// Answers with `result`. An error reaches a sink as is; a blocked
    /// caller learns of it from the disconnected channel.
    pub(crate) fn settle(mut self, result: Result<CheckinReceipt>) {
        match result {
            Ok(outcome) => self.send(outcome),
            Err(e) => {
                if let Some(Route::Sink(sink)) = self.0.take() {
                    sink(Err(e));
                }
            }
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(Route::Sink(sink)) = self.0.take() {
            sink(Err(AggError::ShuttingDown));
        }
    }
}
