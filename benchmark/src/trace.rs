//! Span trace of the generator's own calls — tracing from *outside* the
//! program. Every span brackets a call the generator makes into a public
//! function of a workspace crate, or a wait it observes on a socket; nothing is
//! recorded inside the server.
//!
//! One `round` span per device round is the parent of everything the
//! generator did or waited for on that round's behalf. A span's self time is
//! its duration minus the part its children cover; for a `round` span that is
//! generator work no child span accounts for, and the closure rule says it
//! stays under 2 % of the round latency.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Rounds whose spans are kept for the trace file; later rounds only feed the
/// per-name totals.
pub const STORED_ROUNDS: usize = 20_000;

macro_rules! span_kinds {
    ($($Variant:ident => $name:literal,)+) => {
        /// What a span brackets. The names are the trace schema's `name` values.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum SpanKind { $($Variant,)+ }

        impl SpanKind {
            /// Number of span kinds.
            pub const COUNT: usize = [$($name),+].len();
            /// Every kind, in declaration order.
            pub const ALL: [SpanKind; Self::COUNT] = [$(SpanKind::$Variant),+];
            /// The kind's name in the trace file.
            pub fn name(self) -> &'static str {
                const NAMES: [&str; SpanKind::COUNT] = [$($name),+];
                NAMES[self as usize]
            }
        }
    };
}

span_kinds! {
    // Round start (before `connect()` on `reconnect`) → ack decoded.
    Round => "round",
    // connect + FrameReader/FrameWriter allocation + poller add.
    Connect => "net.connect",
    // observe×b + begin_checkout, then params → compute_checkin.
    Device => "core.device_checkin",
    // cohort + role, and net_mask + mask when the device submits.
    Mask => "rounds.mask",
    // GradientUpdate → GradientPayload and the request struct around it.
    WireMap => "net.wire_map",
    // FrameWriter::enqueue (message encode into a pooled buffer).
    Enqueue => "reactor.frame_enqueue",
    // FrameWriter::poll_write (the write syscalls).
    Write => "reactor.frame_write",
    // Poller add/modify re-arming the oneshot interest.
    Arm => "gen.arm",
    // Checkout request flushed → poller reports the socket readable.
    CheckoutWait => "net.checkout_wait",
    // Checkin request flushed → poller reports the socket readable.
    CheckinWait => "net.checkin_wait",
    // Poller woke → the generator reaches this device.
    Queue => "gen.queue",
    // FrameReader::poll_read (read syscalls + message decode).
    Read => "reactor.frame_read",
}

/// One recorded span. `id` is the 1-based position in the trace; `parent` is
/// the id of the enclosing `round` span (0 for a `round` span itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub parent: u32,
    /// 1-based ordinal of the device round among the traced rounds.
    pub round: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    /// 0 while a `round` span is still open.
    pub end_ns: u64,
}

/// Per-round accumulator of child span time by kind, folded into the tracer's
/// totals only when the round completes — so totals and round latency cover
/// exactly the same set of rounds and closure is exact at window edges.
pub type RoundAcc = [u64; SpanKind::COUNT];

/// In-memory span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    rounds_opened: u32,
    /// Completed traced rounds.
    pub rounds_closed: u64,
    /// Total nanoseconds by span kind over completed traced rounds
    /// (`Round` holds the summed round latency).
    pub totals: [u64; SpanKind::COUNT],
}

/// Handle to an open traced round.
#[derive(Debug, Clone, Copy)]
pub struct OpenRound {
    ordinal: u32,
    /// Index of the stored `round` span, if this round is within the stored
    /// prefix.
    slot: Option<u32>,
    start_ns: u64,
}

impl Tracer {
    /// Starts recording rounds opened from now on.
    pub fn enable(&mut self) {
        self.on = true;
        self.spans.reserve(STORED_ROUNDS * 24);
    }

    /// Whether new rounds are being traced.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a traced round at `start_ns`; `None` when tracing is off.
    pub fn open_round(&mut self, start_ns: u64) -> Option<OpenRound> {
        if !self.on {
            return None;
        }
        self.rounds_opened += 1;
        let ordinal = self.rounds_opened;
        let slot = ((ordinal as usize) <= STORED_ROUNDS).then(|| {
            self.spans.push(Span {
                parent: 0,
                round: ordinal,
                kind: SpanKind::Round,
                start_ns,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        Some(OpenRound {
            ordinal,
            slot,
            start_ns,
        })
    }

    /// Records one child span of an open round.
    pub fn child(
        &mut self,
        round: &OpenRound,
        acc: &mut RoundAcc,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) {
        acc[kind as usize] += end_ns - start_ns;
        if let Some(slot) = round.slot {
            self.spans.push(Span {
                parent: slot + 1,
                round: round.ordinal,
                kind,
                start_ns,
                end_ns,
            });
        }
    }

    /// Closes a round that ended in an ack at `end_ns` and folds its
    /// accumulator into the totals.
    pub fn close_round(&mut self, round: OpenRound, acc: &RoundAcc, end_ns: u64) {
        if let Some(slot) = round.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
        self.rounds_closed += 1;
        for (total, part) in self.totals.iter_mut().zip(acc) {
            *total += part;
        }
        self.totals[SpanKind::Round as usize] += end_ns - round.start_ns;
    }

    /// Mean microseconds per completed traced round spent in spans of `kind`.
    pub fn mean_us(&self, kind: SpanKind) -> f64 {
        if self.rounds_closed == 0 {
            return 0.0;
        }
        self.totals[kind as usize] as f64 / self.rounds_closed as f64 / 1e3
    }

    /// Share of the summed round latency that no child span covers.
    pub fn uncovered_share(&self) -> f64 {
        let round = self.totals[SpanKind::Round as usize];
        if round == 0 {
            return 0.0;
        }
        let children: u64 = SpanKind::ALL[1..]
            .iter()
            .map(|&k| self.totals[k as usize])
            .sum();
        1.0 - children as f64 / round as f64
    }

    /// The stored spans of completed rounds (open rounds and their children
    /// are left out), with ids renumbered to the positions in the result.
    pub fn completed_spans(&self) -> Vec<(u32, Span)> {
        let mut ids = vec![0u32; self.spans.len()];
        let mut out = Vec::with_capacity(self.spans.len());
        for (i, span) in self.spans.iter().enumerate() {
            let keep = match span.kind {
                SpanKind::Round => span.end_ns != 0,
                _ => ids[(span.parent - 1) as usize] != 0,
            };
            if keep {
                let id = out.len() as u32 + 1;
                ids[i] = id;
                let parent = match span.kind {
                    SpanKind::Round => 0,
                    _ => ids[(span.parent - 1) as usize],
                };
                out.push((id, Span { parent, ..*span }));
            }
        }
        out
    }

    /// Writes the stored spans as JSON. Rows are arrays in `columns` order to
    /// keep a 20,000-round trace around 15 MB; `name` indexes `names`.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let spans = self.completed_spans();
        let mut out = String::with_capacity(spans.len() * 40 + 512);
        let names: Vec<String> = SpanKind::ALL
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\
             \"columns\":[\"id\",\"parent\",\"round\",\"name\",\"start_ns\",\"end_ns\"],\
             \"names\":[{}],\"spans\":[",
            names.join(",")
        );
        for (i, (id, s)) in spans.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{comma}\n[{id},{},{},{},{},{}]",
                s.parent, s.round, s.kind as usize, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_cover_completed_rounds_only_and_ids_are_renumbered() {
        let mut t = Tracer::default();
        assert!(t.open_round(0).is_none(), "off until enabled");
        t.enable();
        let (mut acc_a, mut acc_b) = ([0; SpanKind::COUNT], [0; SpanKind::COUNT]);
        let a = t.open_round(100).unwrap();
        let b = t.open_round(110).unwrap();
        t.child(&a, &mut acc_a, SpanKind::Device, 100, 130);
        t.child(&b, &mut acc_b, SpanKind::Device, 130, 150);
        t.child(&a, &mut acc_a, SpanKind::CheckinWait, 130, 195);
        t.close_round(a, &acc_a, 200);
        // Round b never completes: its spans must not leak into totals/file.
        assert_eq!(t.rounds_closed, 1);
        assert_eq!(t.totals[SpanKind::Round as usize], 100);
        assert_eq!(t.totals[SpanKind::Device as usize], 30);
        assert!((t.uncovered_share() - 0.05).abs() < 1e-12);
        assert!((t.mean_us(SpanKind::CheckinWait) - 0.065).abs() < 1e-12);
        let spans = t.completed_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].1.kind, SpanKind::Round);
        assert!(spans.iter().all(|(_, s)| s.round == 1));
        assert_eq!(spans[1].1.parent, spans[0].0);
        assert_eq!(spans[2].0, 3);
    }
}
