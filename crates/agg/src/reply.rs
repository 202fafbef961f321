//! Where a checkin's outcome goes once its epoch is settled.
//!
//! Every waiting caller hands the runtime an [`OutcomeSink`], and the thread
//! that settles the checkin — on a volatile runtime whichever holder of the
//! core lock applied its epoch, on a durable one `crowd-agg` after
//! `sync_data` — runs it. A caller blocked in [`crate::AggRuntime::checkin`]
//! (or holding a [`crate::CompletionHandle`]) is one whose sink sends down a
//! channel.

use crate::{AggError, Result};
use crowd_core::server::CheckinReceipt;

/// Receives one checkin's outcome on the thread that settled it.
///
/// Run exactly once: with the outcome, or with [`AggError::ShuttingDown`]
/// when the runtime drops the checkin unanswered (a kill, a halted durable
/// runtime) — the same thing a [`crate::CompletionHandle`] reports then. A
/// queued round submission's sink may also get the error that refused it
/// (say, [`AggError::RoundOutdated`]). It may run while that thread holds
/// aggregation locks — a holder of the core lock runs other threads' jobs —
/// so it must be quick and must not call back into the runtime.
pub type OutcomeSink = Box<dyn FnOnce(Result<CheckinReceipt>) + Send + 'static>;

/// One checkin's way back to whoever submitted it: a sink, or nobody.
pub(crate) struct Reply(Option<OutcomeSink>);

impl Reply {
    pub(crate) fn sink(sink: OutcomeSink) -> Reply {
        Reply(Some(sink))
    }

    /// Nowhere: the submitter is running the checkin itself and reads the
    /// outcome off the return value.
    pub(crate) fn returned() -> Reply {
        Reply(None)
    }

    pub(crate) fn send(self, outcome: CheckinReceipt) {
        self.settle(Ok(outcome));
    }

    /// Answers with `result`.
    pub(crate) fn settle(mut self, result: Result<CheckinReceipt>) {
        if let Some(sink) = self.0.take() {
            sink(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(sink) = self.0.take() {
            sink(Err(AggError::ShuttingDown));
        }
    }
}
