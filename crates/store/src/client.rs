//! The one-shot client primitive: one connection per call, one frame
//! out, one frame back, under a hard deadline — hardened so that no
//! call ever hangs on a dead or wedged daemon.
//!
//! [`exchange`] is the only function in the crate that opens a
//! connection for a single exchange (resolve + connect + write + read,
//! all charged to one absolute [`Deadline`]) and it fails *fast and
//! typed*: [`ClientError::Unreachable`] the moment the daemon is
//! plainly gone (connection refused/reset), [`ClientError::Timeout`]
//! when the deadline expires, [`ClientError::Protocol`] on bytes that
//! are not a frame. It never retries. [`request_deadline`] is
//! `exchange` + [`decode_outcome`] for callers that speak client
//! frames (`dynvote-ctl`, fleet boot polls, the campaign monitor);
//! the daemon's wedge probe calls `exchange` directly because it
//! speaks peer frames.
//!
//! The other primitive is [`crate::conn::Connection`]: a persistent,
//! pipelined stream that owns the crate's only reconnect-and-backoff
//! loop. The two are not one type because they disagree on what a
//! refused connection means — here it is an answer (`dynvote-ctl`
//! exits 2 for it, a boot poll tries again at once), there it is
//! weather to be ridden out until the deadline.

use std::fmt;
use std::io::{self, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::wire::{read_frame, write_frame, Frame, UnavailableReason};

/// A hard deadline as an *absolute* instant, shared by every phase of
/// an exchange — resolve, connect, write, read, and (for the pipelined
/// [`crate::conn::Connection`]) the wait for an out-of-order reply.
///
/// Phases never re-arm from a fresh duration: each asks the deadline
/// what is left *now*, so time one phase consumes (or time spent parked
/// behind other in-flight replies) is charged against the same budget.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    started: Instant,
    ends: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    #[must_use]
    pub fn within(budget: Duration) -> Self {
        let started = Instant::now();
        Deadline {
            started,
            ends: started + budget,
        }
    }

    /// The absolute instant the deadline expires.
    #[must_use]
    pub(crate) fn ends(&self) -> Instant {
        self.ends
    }

    /// Time since the deadline was armed.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The typed expiry, attributing the full span since arming.
    #[must_use]
    pub fn timeout(&self) -> ClientError {
        ClientError::Timeout {
            elapsed: self.elapsed(),
        }
    }

    /// What is left, or the typed [`ClientError::Timeout`] when the
    /// deadline has passed.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] once the absolute instant is reached.
    pub fn remaining(&self) -> Result<Duration, ClientError> {
        let left = self.ends.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(self.timeout());
        }
        Ok(left)
    }
}

/// A [`Read`] adapter that re-arms the socket read timeout from the
/// absolute deadline before *every* read call. `read_frame` issues
/// separate reads for the length prefix and the body; arming the socket
/// once before the frame (the old behaviour) let each partial read
/// start a fresh window, so a responder dribbling one field per window
/// could hold the caller past the deadline. Re-arming per read caps the
/// whole frame at what the deadline has left.
struct DeadlineRead<'a> {
    stream: &'a TcpStream,
    deadline: &'a Deadline,
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self
            .deadline
            .remaining()
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "deadline expired"))?;
        self.stream.set_read_timeout(Some(left))?;
        (&mut &*self.stream).read(buf)
    }
}

/// The outcome of one client command, decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The command succeeded.
    Done(String),
    /// A read's value, with the serving site's version.
    Value {
        /// The version number at the serving site.
        version: u64,
        /// The file contents.
        value: Vec<u8>,
    },
    /// The access was refused (the paper's ABORT), with the clause.
    Refused(String),
    /// The site answered promptly that it cannot serve the operation
    /// right now — graceful degradation, with a typed cause.
    Unavailable {
        /// Why the operation cannot be served.
        reason: UnavailableReason,
        /// The refusal prose, with the clause that fired.
        message: String,
    },
    /// A status report (key=value lines).
    Report(String),
    /// The daemon's shard map, as encoded `dynvote-control` bytes.
    ShardMap(Vec<u8>),
    /// The keyed operation routed by a map epoch the daemon no longer
    /// holds. Retryable: refetch the map and reissue.
    Stale {
        /// The daemon's current map epoch.
        epoch: u64,
    },
}

impl Outcome {
    /// Whether the cluster granted the command. A stale-map answer is
    /// not a grant — the operation did not happen — but routers treat
    /// it as retryable rather than failed.
    #[must_use]
    pub fn granted(&self) -> bool {
        !matches!(
            self,
            Outcome::Refused(_) | Outcome::Unavailable { .. } | Outcome::Stale { .. }
        )
    }
}

/// Why one client exchange failed — typed, so callers can distinguish
/// "took too long" from "nobody listening" without parsing strings.
#[derive(Debug)]
pub enum ClientError {
    /// The hard deadline expired before a response frame arrived.
    Timeout {
        /// Time spent before giving up.
        elapsed: Duration,
    },
    /// The daemon is plainly not there: connection refused, reset, or
    /// the address did not resolve. Resolves fast — retrying is the
    /// caller's choice.
    Unreachable {
        /// The underlying failure.
        detail: String,
    },
    /// The daemon answered with bytes that do not decode to a response
    /// frame (or to any frame a client expects).
    Protocol {
        /// The underlying failure.
        detail: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Timeout { elapsed } => {
                write!(f, "request timed out after {}ms", elapsed.as_millis())
            }
            ClientError::Unreachable { detail } => write!(f, "daemon unreachable: {detail}"),
            ClientError::Protocol { detail } => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for io::Error {
    fn from(error: ClientError) -> io::Error {
        let kind = match &error {
            ClientError::Timeout { .. } => io::ErrorKind::TimedOut,
            ClientError::Unreachable { .. } => io::ErrorKind::ConnectionRefused,
            ClientError::Protocol { .. } => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, error.to_string())
    }
}

/// Decodes a response frame into an [`Outcome`] — shared by
/// [`request_deadline`] and the pipelined [`crate::conn::Connection`].
///
/// # Errors
///
/// [`ClientError::Protocol`] when the frame is not a response type.
pub fn decode_outcome(frame: Frame) -> Result<Outcome, ClientError> {
    match frame {
        Frame::Done { detail } => Ok(Outcome::Done(detail)),
        Frame::Value { version, value } => Ok(Outcome::Value { version, value }),
        Frame::Refused { message } => Ok(Outcome::Refused(message)),
        Frame::Unavailable { reason, message } => Ok(Outcome::Unavailable { reason, message }),
        Frame::Report { text } => Ok(Outcome::Report(text)),
        Frame::ShardMapRep { map } => Ok(Outcome::ShardMap(map)),
        Frame::StaleShardMap { epoch } => Ok(Outcome::Stale { epoch }),
        unexpected => Err(ClientError::Protocol {
            detail: format!("unexpected response frame {unexpected:?}"),
        }),
    }
}

/// Classifies an I/O failure of an exchange armed under `deadline`.
fn classify(error: &io::Error, deadline: &Deadline) -> ClientError {
    match error.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => deadline.timeout(),
        io::ErrorKind::InvalidData => ClientError::Protocol {
            detail: error.to_string(),
        },
        // Refused before the connection, reset or EOF after it: either
        // way the daemon is gone *now*, which is what Unreachable means.
        _ => ClientError::Unreachable {
            detail: error.to_string(),
        },
    }
}

/// Connects, sends one frame, reads one frame — all under one *hard*
/// deadline. Each socket phase gets only the time the deadline has
/// left, so a daemon that accepts the connection and then goes silent,
/// or dribbles its reply a byte per window, still cannot hold the
/// caller past it. The reply is returned undecoded: client frames go
/// through [`decode_outcome`] ([`request_deadline`]), the wedge probe
/// matches peer frames on it.
///
/// # Errors
///
/// [`ClientError`], typed; never retried here.
pub fn exchange(addr: &str, frame: &Frame, deadline: &Deadline) -> Result<Frame, ClientError> {
    let fail = |error: io::Error| classify(&error, deadline);
    let target = addr
        .to_socket_addrs()
        .map_err(fail)?
        .next()
        .ok_or_else(|| ClientError::Unreachable {
            detail: format!("{addr}: no address"),
        })?;
    let mut stream = TcpStream::connect_timeout(&target, deadline.remaining()?).map_err(fail)?;
    let _ = stream.set_nodelay(true);
    stream
        .set_write_timeout(Some(deadline.remaining()?))
        .map_err(fail)?;
    write_frame(&mut stream, frame).map_err(fail)?;
    // Read through the deadline adapter: every partial read re-arms
    // from the *absolute* deadline, so the whole response frame —
    // prefix and body, however many reads it takes — shares one budget.
    read_frame(&mut DeadlineRead {
        stream: &stream,
        deadline,
    })
    .map_err(fail)
}

/// One [`exchange`] of client frames: the reply decoded into an
/// [`Outcome`].
///
/// # Errors
///
/// [`ClientError`], typed; a refusal or unavailability answer is *not*
/// an error.
pub fn request_deadline(
    addr: &str,
    frame: &Frame,
    deadline: Duration,
) -> Result<Outcome, ClientError> {
    decode_outcome(exchange(addr, frame, &Deadline::within(deadline))?)
}

/// [`request_deadline`] behind an `io::Result`: the deadline is just
/// as hard, the failure is an [`io::Error`] of the matching kind.
///
/// # Errors
///
/// Connection or framing failures; a daemon refusal is *not* an error
/// (it decodes to [`Outcome::Refused`] / [`Outcome::Unavailable`]).
pub fn request(addr: &str, frame: &Frame, timeout: Duration) -> io::Result<Outcome> {
    request_deadline(addr, frame, timeout).map_err(io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A port with nothing listening: bind, learn the port, release.
    fn dead_addr() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }

    #[test]
    fn unreachable_daemon_resolves_fast_and_typed() {
        let addr = dead_addr();
        let started = Instant::now();
        let result = request_deadline(&addr, &Frame::get_file(1, 0), Duration::from_secs(5));
        assert!(
            matches!(result, Err(ClientError::Unreachable { .. })),
            "expected Unreachable, got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "a refused connection must not consume the deadline"
        );
    }

    #[test]
    fn accepted_but_silent_daemon_times_out_at_the_deadline() {
        // A listener that accepts and never answers: the classic hang.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let started = Instant::now();
        let result = request_deadline(&addr, &Frame::get_file(1, 0), Duration::from_millis(300));
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(ClientError::Timeout { .. })),
            "expected Timeout, got {result:?}"
        );
        assert!(
            elapsed < Duration::from_secs(3),
            "deadline 300ms but the call took {elapsed:?}"
        );
        drop(hold);
    }

    /// A responder that drains the request and then answers `reply` one
    /// byte at a time, each gap shorter than the deadline.
    fn dribbling_responder(reply: &Frame) -> String {
        use std::io::Write;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let bytes = reply.encode();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 256];
            let _ = stream.read(&mut sink);
            for byte in bytes {
                if stream.write_all(&[byte]).is_err() {
                    return;
                }
                let _ = stream.flush();
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        addr
    }

    #[test]
    fn dribbling_responder_cannot_extend_the_deadline() {
        use dynvote_types::{SiteId, SiteSet};

        // With the read timeout armed once per frame every dribbled
        // byte restarts the clock and the exchange runs for seconds;
        // with absolute-deadline re-arming the caller is released once
        // the overall budget is spent. Checked on both callers of
        // `exchange`: a client frame through `request_deadline`, and
        // the wedge probe's `VoteProbe` answered by a peer frame.
        let budget = Duration::from_millis(400);
        let assert_released = |result: Result<(), ClientError>, took: Duration| {
            assert!(
                took < Duration::from_millis(1500),
                "dribbled bytes re-armed the deadline: took {took:?} for a 400ms budget"
            );
            match result {
                Err(ClientError::Timeout { elapsed }) => assert!(
                    elapsed >= Duration::from_millis(350),
                    "timeout under-attributes time spent waiting: {elapsed:?}"
                ),
                other => panic!("expected Timeout, got {other:?}"),
            }
        };

        let addr = dribbling_responder(&Frame::Done {
            detail: "x".repeat(64),
        });
        let started = Instant::now();
        let result = request_deadline(&addr, &Frame::get_file(1, 0), budget);
        assert_released(result.map(drop), started.elapsed());

        let (coordinator, wedged) = (SiteId::new(0), SiteId::new(1));
        let addr = dribbling_responder(&Frame::Release {
            ticket: 77,
            from: coordinator,
            keep: SiteSet::EMPTY,
        });
        let probe = Frame::VoteProbe {
            ticket: 77,
            from: wedged,
            to: coordinator,
        }
        .for_shard(0);
        let started = Instant::now();
        let result = exchange(&addr, &probe, &Deadline::within(budget));
        assert_released(result.map(drop), started.elapsed());
    }

    #[test]
    fn client_error_maps_to_io_kinds() {
        let timeout = ClientError::Timeout {
            elapsed: Duration::from_millis(10),
        };
        assert_eq!(io::Error::from(timeout).kind(), io::ErrorKind::TimedOut);
        let gone = ClientError::Unreachable {
            detail: "refused".into(),
        };
        assert_eq!(
            io::Error::from(gone).kind(),
            io::ErrorKind::ConnectionRefused
        );
    }
}
