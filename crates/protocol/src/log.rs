//! The message log: a byte-exact transcript of every transport decision.
//!
//! Every send (with its fate: delivered at a time, dropped by fault
//! injection, or dropped by a partition), every delivery and every timer
//! armed by the actor runtime is appended to a [`MessageLog`]. The log has
//! a stable text serialization in which times are encoded as the hex bits
//! of their `f64` minute value, so a round trip through text is *exact* —
//! no decimal rounding.
//!
//! Replaying a log (see [`ReplayCursor`] and
//! [`LogMode::Replay`](crate::network::LogMode)) re-executes a run taking
//! every drop/latency decision from the log instead of the RNG, and
//! validates each decision against the recorded one: any divergence —
//! including a truncated or corrupted log — fails loudly with a
//! diagnostic naming the first diverging record, never silently.
//!
//! ```
//! use themis_cluster::time::Time;
//! use themis_protocol::actor::ActorId;
//! use themis_protocol::log::{LogRecord, MessageLog, SendFate};
//!
//! let mut log = MessageLog::new();
//! log.push(LogRecord::Send {
//!     seq: 0,
//!     at: Time::ZERO,
//!     src: ActorId::ARBITER,
//!     dst: ActorId(3),
//!     tag: "offer".to_string(),
//!     fate: SendFate::Deliver {
//!         at: Time::seconds(5.0),
//!     },
//! });
//! log.push(LogRecord::Deliver {
//!     seq: 0,
//!     at: Time::seconds(5.0),
//! });
//!
//! // The text form round-trips exactly, bit for bit.
//! let text = log.to_text();
//! assert_eq!(MessageLog::parse(&text).unwrap(), log);
//!
//! // A truncated log is a parse error, not a silent prefix.
//! let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
//! assert!(MessageLog::parse(&truncated).unwrap_err().to_string().contains("truncated"));
//! ```

use crate::actor::ActorId;
use std::fmt;
use themis_cluster::time::Time;

/// Magic first line of the text serialization.
const HEADER: &str = "themis-msglog v1";

/// What happened to a sent message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendFate {
    /// The message will be delivered at this (simulated) time.
    Deliver {
        /// Delivery time: send time + bandwidth transfer + delay + jitter.
        at: Time,
    },
    /// Dropped by random fault injection (the `drop_probability` axis).
    DropFault,
    /// Dropped because the link crossed an active network partition.
    DropPartition,
}

/// One transport decision.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A message was handed to the network.
    Send {
        /// Globally unique, monotonically increasing message id.
        seq: u64,
        /// Simulated time of the send.
        at: Time,
        /// Sending actor.
        src: ActorId,
        /// Receiving actor.
        dst: ActorId,
        /// Stable, whitespace-free message tag (e.g. `offer:r3`).
        tag: String,
        /// What the network decided to do with it.
        fate: SendFate,
    },
    /// A previously sent message was delivered to its destination.
    Deliver {
        /// Message id of the corresponding `Send` record.
        seq: u64,
        /// The scheduled delivery time.
        at: Time,
    },
    /// The actor runtime armed a timer.
    Timer {
        /// Simulated time the timer was armed.
        at: Time,
        /// Simulated time the timer fires.
        fire_at: Time,
        /// Stable, whitespace-free timer tag (e.g. `bid-deadline:r3`).
        tag: String,
    },
}

/// Error produced when parsing a textual message log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "message log: {}", self.message)
        } else {
            write!(f, "message log line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for LogParseError {}

/// The append-only transcript of one distributed-mode run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageLog {
    records: Vec<LogRecord>,
}

/// Encodes a time as the hex bits of its `f64` minute value (exact).
fn time_to_hex(t: Time) -> String {
    format!("{:016x}", t.as_minutes().to_bits())
}

/// Decodes a [`time_to_hex`]-encoded time.
fn time_from_hex(s: &str) -> Option<Time> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16)
        .ok()
        .map(|bits| Time::minutes(f64::from_bits(bits)))
}

impl MessageLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// The recorded decisions, in order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes to the stable text form (see module docs). Times are
    /// hex-encoded `f64` bits, so `parse(to_text(log)) == log` exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("records {}\n", self.records.len()));
        for record in &self.records {
            match record {
                LogRecord::Send {
                    seq,
                    at,
                    src,
                    dst,
                    tag,
                    fate,
                } => {
                    debug_assert!(
                        !tag.contains(char::is_whitespace),
                        "message tags must be whitespace-free: {tag:?}"
                    );
                    out.push_str(&format!(
                        "send {seq} {} {src} {dst} {tag} ",
                        time_to_hex(*at)
                    ));
                    match fate {
                        SendFate::Deliver { at } => {
                            out.push_str(&format!("deliver {}", time_to_hex(*at)));
                        }
                        SendFate::DropFault => out.push_str("drop-fault"),
                        SendFate::DropPartition => out.push_str("drop-partition"),
                    }
                    out.push('\n');
                }
                LogRecord::Deliver { seq, at } => {
                    out.push_str(&format!("deliver {seq} {}\n", time_to_hex(*at)));
                }
                LogRecord::Timer { at, fire_at, tag } => {
                    debug_assert!(
                        !tag.contains(char::is_whitespace),
                        "timer tags must be whitespace-free: {tag:?}"
                    );
                    out.push_str(&format!(
                        "timer {} {} {tag}\n",
                        time_to_hex(*at),
                        time_to_hex(*fire_at)
                    ));
                }
            }
        }
        out
    }

    /// Parses the text form. Truncated logs (fewer records than the header
    /// promises), trailing garbage and corrupted lines are all rejected
    /// with a diagnostic naming the line — never silently accepted.
    pub fn parse(text: &str) -> Result<Self, LogParseError> {
        let err = |line: usize, message: String| LogParseError { line, message };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, l)) if l == HEADER => {}
            Some((_, l)) => {
                return Err(err(1, format!("bad header {l:?}, expected {HEADER:?}")));
            }
            None => return Err(err(0, "empty input".to_string())),
        }
        let expected: usize = match lines.next() {
            Some((_, l)) => match l.strip_prefix("records ") {
                Some(n) => n
                    .parse()
                    .map_err(|_| err(2, format!("bad record count {n:?}")))?,
                None => return Err(err(2, format!("expected `records N`, got {l:?}"))),
            },
            None => return Err(err(0, "log truncated: missing record count".to_string())),
        };
        // Sized by the lines present, never by the header alone: a hostile
        // count must reach the truncation error, not the allocator.
        let mut records = Vec::with_capacity(expected.min(lines.clone().count()));
        for (idx, line) in lines {
            let lineno = idx + 1;
            if records.len() == expected {
                return Err(err(
                    lineno,
                    format!("trailing garbage after {expected} records: {line:?}"),
                ));
            }
            let fields: Vec<&str> = line.split(' ').collect();
            let time_field = |pos: usize| {
                fields
                    .get(pos)
                    .and_then(|s| time_from_hex(s))
                    .ok_or_else(|| err(lineno, format!("bad time field in {line:?}")))
            };
            let seq_field = |pos: usize| {
                fields
                    .get(pos)
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| err(lineno, format!("bad seq field in {line:?}")))
            };
            let actor_field = |pos: usize| {
                fields
                    .get(pos)
                    .and_then(|s| s.parse::<ActorId>().ok())
                    .ok_or_else(|| err(lineno, format!("bad actor field in {line:?}")))
            };
            let record = match fields.first().copied() {
                Some("send") => {
                    let fate = match fields.get(6).copied() {
                        Some("deliver") if fields.len() == 8 => {
                            SendFate::Deliver { at: time_field(7)? }
                        }
                        Some("drop-fault") if fields.len() == 7 => SendFate::DropFault,
                        Some("drop-partition") if fields.len() == 7 => SendFate::DropPartition,
                        _ => return Err(err(lineno, format!("bad send fate in {line:?}"))),
                    };
                    LogRecord::Send {
                        seq: seq_field(1)?,
                        at: time_field(2)?,
                        src: actor_field(3)?,
                        dst: actor_field(4)?,
                        tag: fields[5].to_string(),
                        fate,
                    }
                }
                Some("deliver") if fields.len() == 3 => LogRecord::Deliver {
                    seq: seq_field(1)?,
                    at: time_field(2)?,
                },
                Some("timer") if fields.len() == 4 => LogRecord::Timer {
                    at: time_field(1)?,
                    fire_at: time_field(2)?,
                    tag: fields[3].to_string(),
                },
                _ => return Err(err(lineno, format!("unrecognized record {line:?}"))),
            };
            records.push(record);
        }
        if records.len() != expected {
            return Err(err(
                0,
                format!(
                    "log truncated: header promises {expected} records, found {}",
                    records.len()
                ),
            ));
        }
        Ok(MessageLog { records })
    }
}

/// A read head over a [`MessageLog`] used by replay mode: every transport
/// decision the re-executed run makes is matched against the next record,
/// and the recorded fate is returned in place of a fresh RNG draw.
///
/// Divergence is a **panic**, by design: a replay that does not match its
/// log byte for byte is a broken invariant, not a recoverable condition.
#[derive(Debug, Clone)]
pub struct ReplayCursor {
    log: std::sync::Arc<MessageLog>,
    pos: usize,
}

impl ReplayCursor {
    /// Creates a cursor at the start of the log.
    pub fn new(log: std::sync::Arc<MessageLog>) -> Self {
        ReplayCursor { log, pos: 0 }
    }

    /// Records consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn next(&mut self, what: &str) -> &LogRecord {
        let record = self.log.records.get(self.pos).unwrap_or_else(|| {
            panic!(
                "replay log exhausted at record {}: the run performed `{what}` \
                 but the log has no more records (truncated log?)",
                self.pos
            )
        });
        self.pos += 1;
        record
    }

    /// Matches a send against the log and returns its recorded fate.
    pub fn expect_send(
        &mut self,
        seq: u64,
        at: Time,
        src: ActorId,
        dst: ActorId,
        tag: &str,
    ) -> SendFate {
        let pos = self.pos;
        let record = self.next("send").clone();
        match record {
            LogRecord::Send {
                seq: lseq,
                at: lat,
                src: lsrc,
                dst: ldst,
                tag: ltag,
                fate,
            } if lseq == seq && lat == at && lsrc == src && ldst == dst && ltag == tag => fate,
            other => panic!(
                "replay divergence at record {pos}: run sent \
                 seq={seq} at={at:?} {src}->{dst} tag={tag}, log has {other:?}"
            ),
        }
    }

    /// Matches a delivery against the log.
    pub fn expect_deliver(&mut self, seq: u64, at: Time) {
        let pos = self.pos;
        let record = self.next("deliver");
        match record {
            LogRecord::Deliver { seq: lseq, at: lat } if *lseq == seq && *lat == at => {}
            other => panic!(
                "replay divergence at record {pos}: run delivered \
                 seq={seq} at={at:?}, log has {other:?}"
            ),
        }
    }

    /// Matches an armed timer against the log.
    pub fn expect_timer(&mut self, at: Time, fire_at: Time, tag: &str) {
        let pos = self.pos;
        let record = self.next("timer");
        match record {
            LogRecord::Timer {
                at: lat,
                fire_at: lfire,
                tag: ltag,
            } if *lat == at && *lfire == fire_at && ltag == tag => {}
            other => panic!(
                "replay divergence at record {pos}: run armed timer \
                 at={at:?} fire_at={fire_at:?} tag={tag}, log has {other:?}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample() -> MessageLog {
        let mut log = MessageLog::new();
        log.push(LogRecord::Send {
            seq: 0,
            at: Time::minutes(1.5),
            src: ActorId::ARBITER,
            dst: ActorId(2),
            tag: "query-rho:r1".to_string(),
            fate: SendFate::Deliver {
                at: Time::minutes(1.75),
            },
        });
        log.push(LogRecord::Send {
            seq: 1,
            at: Time::minutes(1.5),
            src: ActorId::ARBITER,
            dst: ActorId(3),
            tag: "query-rho:r1".to_string(),
            fate: SendFate::DropFault,
        });
        log.push(LogRecord::Timer {
            at: Time::minutes(1.5),
            fire_at: Time::minutes(1.75),
            tag: "rho-deadline:r1".to_string(),
        });
        log.push(LogRecord::Deliver {
            seq: 0,
            at: Time::minutes(1.75),
        });
        log.push(LogRecord::Send {
            seq: 2,
            at: Time::minutes(2.0),
            src: ActorId(2),
            dst: ActorId::ARBITER,
            tag: "rho:r1".to_string(),
            fate: SendFate::DropPartition,
        });
        log
    }

    #[test]
    fn text_round_trip_is_exact() {
        let log = sample();
        let text = log.to_text();
        assert_eq!(MessageLog::parse(&text).unwrap(), log);
        // Including awkward float times that decimal formatting would lose.
        let mut odd = MessageLog::new();
        odd.push(LogRecord::Deliver {
            seq: 7,
            at: Time::minutes(0.1 + 0.2),
        });
        assert_eq!(MessageLog::parse(&odd.to_text()).unwrap(), odd);
    }

    #[test]
    fn truncated_log_is_rejected_with_diagnostic() {
        let text = sample().to_text();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        for input in [
            truncated.as_str(),
            // Hostile counts: past `isize::MAX` records, and near 10^17.
            "themis-msglog v1\nrecords 18446744073709551615\n",
            "themis-msglog v1\nrecords 100000000000000000\n",
        ] {
            let e = MessageLog::parse(input).unwrap_err();
            assert!(e.to_string().contains("truncated"), "{input:?}: {e}");
        }
    }

    #[test]
    fn corrupted_lines_are_rejected_with_line_numbers() {
        let text = sample().to_text();
        // Flip a record line into garbage.
        let corrupted = text.replace("drop-fault", "drop-gremlin");
        let e = MessageLog::parse(&corrupted).unwrap_err();
        assert!(e.line > 0, "line-level error expected, got {e}");
        assert!(e.to_string().contains("line"), "{e}");
        // Bad header.
        assert!(MessageLog::parse("themis-msglog v9\nrecords 0\n").is_err());
        // Trailing garbage after the promised record count.
        let extra = format!("{text}deliver 9 {}\n", super::time_to_hex(Time::ZERO));
        let e = MessageLog::parse(&extra).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        // Empty input.
        assert!(MessageLog::parse("").is_err());
    }

    #[test]
    fn replay_cursor_returns_recorded_fates() {
        let log = sample();
        let mut cursor = ReplayCursor::new(Arc::new(log));
        let fate = cursor.expect_send(
            0,
            Time::minutes(1.5),
            ActorId::ARBITER,
            ActorId(2),
            "query-rho:r1",
        );
        assert_eq!(
            fate,
            SendFate::Deliver {
                at: Time::minutes(1.75)
            }
        );
        let fate = cursor.expect_send(
            1,
            Time::minutes(1.5),
            ActorId::ARBITER,
            ActorId(3),
            "query-rho:r1",
        );
        assert_eq!(fate, SendFate::DropFault);
        cursor.expect_timer(Time::minutes(1.5), Time::minutes(1.75), "rho-deadline:r1");
        cursor.expect_deliver(0, Time::minutes(1.75));
        assert_eq!(cursor.position(), 4);
    }

    #[test]
    #[should_panic(expected = "replay divergence at record 0")]
    fn replay_divergence_panics_loudly() {
        let mut cursor = ReplayCursor::new(Arc::new(sample()));
        let _ = cursor.expect_send(0, Time::minutes(9.9), ActorId(5), ActorId(6), "bogus");
    }

    #[test]
    #[should_panic(expected = "replay log exhausted")]
    fn replay_past_the_end_panics_loudly() {
        let mut cursor = ReplayCursor::new(Arc::new(MessageLog::new()));
        cursor.expect_deliver(0, Time::ZERO);
    }
}
