//! The pipelined client primitive: one persistent connection per
//! daemon, N outstanding requests matched back by correlation id.
//!
//! [`crate::client::exchange`] pays resolve + connect + one round trip
//! per call and fails fast when the daemon is gone — right for
//! `dynvote-ctl`'s one-shot commands and boot polls, hopeless for load.
//! A [`Connection`] instead:
//!
//! * keeps a single TCP stream open and sends every data request
//!   wrapped in a [`Frame::Tagged`] envelope with a fresh id;
//! * runs one background *demux* thread that reads tagged replies and
//!   routes each to the waiter registered under its id — replies may
//!   arrive in any order (the daemon completes batched data operations
//!   asynchronously from admin answers);
//! * owns the crate's **only** client-side reconnect loop:
//!   [`Connection::submit`] redials with the same jittered
//!   capped-exponential backoff the peer links use
//!   ([`crate::jitter::Jitter`]) until the deadline rules, so a refused
//!   connection never surfaces as `Unreachable` here. What does surface
//!   as `Unreachable` is a stream that died with requests in flight:
//!   exactly those requests fail (their ids die with the stream — the
//!   daemon may or may not have served them, the usual
//!   at-most-once/at-least-once line) and reissuing is the caller's
//!   choice — the shard router re-routes, the nemesis workload calls
//!   again under the same deadline;
//! * charges every wait against an *absolute* [`Deadline`], so time
//!   spent parked behind other in-flight replies counts — the deadline
//!   attribution rule `client.rs` documents.
//!
//! Writes are buffered: [`Connection::submit`] queues bytes and
//! returns; [`Connection::flush`] pushes the whole buffer in one
//! syscall, and [`Connection::wait`] flushes only when the request it
//! waits for is still in the buffer. A closed loop at depth d therefore
//! sends its window as one burst — it waits out the requests already
//! sent while the new ones collect behind them — and the daemon's batch
//! worker drains that burst into one quorum round. An open loop that
//! wants each request on the wire at once calls `flush` itself. That,
//! plus pipelining itself, is where the throughput comes from — on a
//! loopback the alternative is one connect + four syscalls per request.
//!
//! Writes honour the deadline too: a send that blocks because the
//! daemon stopped reading gives up at the deadline of the call that
//! makes it (a `flush` at the latest deadline among the requests it
//! carries), and a timed-out write retires the stream, since part of a
//! frame may be on the wire.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::{decode_outcome, ClientError, Deadline, Outcome};
use crate::jitter::Jitter;
use crate::wire::{read_frame, Frame};

/// Tuning for one [`Connection`]: connect budget and reconnect backoff.
#[derive(Clone, Copy, Debug)]
pub struct ConnOptions {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// First reconnect backoff window.
    pub backoff_floor: Duration,
    /// Ceiling the backoff window doubles toward.
    pub backoff_cap: Duration,
}

impl Default for ConnOptions {
    fn default() -> Self {
        ConnOptions {
            connect_timeout: Duration::from_millis(500),
            backoff_floor: Duration::from_millis(25),
            backoff_cap: Duration::from_millis(400),
        }
    }
}

/// A waiter parked under a correlation id. The generation names the
/// stream the request went out on: when that stream dies, exactly its
/// waiters are failed — requests pipelined onto the replacement stream
/// keep waiting.
struct Slot {
    generation: u64,
    reply: SyncSender<Frame>,
}

/// The live stream, if any.
struct Wire {
    /// Buffered writer (its handle of the stream).
    writer: BufWriter<TcpStream>,
    /// A raw handle to arm the write timeout on and to shut the socket
    /// down with.
    raw: TcpStream,
    /// Which reader-thread generation owns this stream.
    generation: u64,
}

impl Wire {
    /// Writes `bytes` into the buffer — or through it, when they do not
    /// fit — giving a blocked send until `until`.
    fn write(&mut self, bytes: &[u8], until: Instant) -> io::Result<()> {
        let spare = self.writer.capacity() - self.writer.buffer().len();
        if bytes.len() > spare {
            self.arm(until)?;
        }
        self.writer.write_all(bytes)
    }

    /// Pushes the buffer to the socket, giving a blocked send until
    /// `until`.
    fn flush(&mut self, until: Instant) -> io::Result<()> {
        if self.writer.buffer().is_empty() {
            return Ok(());
        }
        self.arm(until)?;
        self.writer.flush()
    }

    /// Arms the socket's write timeout with what is left until `until`
    /// (at least a millisecond: a zero timeout is no timeout).
    fn arm(&self, until: Instant) -> io::Result<()> {
        let left = until.saturating_duration_since(Instant::now());
        self.raw
            .set_write_timeout(Some(left.max(Duration::from_millis(1))))
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        // Shut the socket down first: the buffered writer flushes on
        // drop, which must fail at once rather than block on a daemon
        // that stopped reading — and the demux thread reads EOF.
        let _ = self.raw.shutdown(Shutdown::Both);
    }
}

struct LiveState {
    wire: Option<Wire>,
    /// The last id written into the write buffer, and the last id
    /// pushed out of it: a wait flushes only when its request is still
    /// buffered.
    buffered: u64,
    flushed: u64,
    /// The latest deadline among the requests buffered since the last
    /// flush — when a [`Connection::flush`] gives up.
    write_by: Option<Instant>,
    /// Monotonic stream counter; each (re)connect bumps it.
    generations: u64,
    /// Reconnect pacing.
    jitter: Jitter,
    window: Duration,
    /// Do not redial before this instant.
    retry_at: Option<Instant>,
}

struct Inner {
    addr: String,
    opts: ConnOptions,
    next_id: AtomicU64,
    slots: Mutex<HashMap<u64, Slot>>,
    live: Mutex<LiveState>,
}

/// A persistent, pipelined connection to one daemon.
pub struct Connection {
    inner: Arc<Inner>,
}

/// A submitted request: hold it, then [`Connection::wait`] on it.
#[derive(Debug)]
pub struct Pending {
    id: u64,
    reply: Receiver<Frame>,
}

impl Pending {
    /// The correlation id this request went out under.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Connection {
    /// A connection handle for `addr`. Dialing is lazy: the first
    /// [`submit`](Connection::submit) connects.
    #[must_use]
    pub fn new(addr: &str, opts: ConnOptions) -> Connection {
        Connection {
            inner: Arc::new(Inner {
                addr: addr.to_string(),
                opts,
                next_id: AtomicU64::new(1),
                slots: Mutex::new(HashMap::new()),
                live: Mutex::new(LiveState {
                    wire: None,
                    buffered: 0,
                    flushed: 0,
                    write_by: None,
                    generations: 0,
                    jitter: Jitter::from_entropy(&addr),
                    window: opts.backoff_floor.max(Duration::from_millis(1)),
                    retry_at: None,
                }),
            }),
        }
    }

    /// Sends `frame` tagged with a fresh correlation id, (re)connecting
    /// if needed, and returns the [`Pending`] to wait on. The bytes may
    /// sit in the write buffer until [`flush`](Connection::flush) or a
    /// [`wait`](Connection::wait) on this request.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the deadline expires before the
    /// request is written — a send blocked on a daemon that stopped
    /// reading included; [`ClientError::Unreachable`] never surfaces
    /// here directly — connect failures back off and retry until the
    /// deadline rules.
    pub fn submit(&self, frame: &Frame, deadline: &Deadline) -> Result<Pending, ClientError> {
        loop {
            let mut live = self.inner.live.lock().expect("connection state poisoned");
            if live.wire.is_none() {
                // Honor the backoff window before redialing.
                if let Some(at) = live.retry_at {
                    let hold = at.saturating_duration_since(Instant::now());
                    if !hold.is_zero() {
                        drop(live);
                        std::thread::sleep(hold.min(deadline.remaining()?));
                        continue;
                    }
                }
                match self.dial(&mut live, deadline) {
                    Ok(()) => {}
                    Err(()) => {
                        let window = live.window;
                        let wait = live.jitter.equal_jitter(window);
                        live.retry_at = Some(Instant::now() + wait);
                        live.window = (live.window * 2).min(self.inner.opts.backoff_cap);
                        continue; // next iteration sleeps out the window
                    }
                }
            }
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            let generation = live
                .wire
                .as_ref()
                .map(|w| w.generation)
                .expect("dialed above");
            // Register the waiter BEFORE the bytes go out: the reply
            // can race back before this thread does anything else.
            let (tx, rx) = mpsc::sync_channel(1);
            self.inner
                .slots
                .lock()
                .expect("slot table poisoned")
                .insert(
                    id,
                    Slot {
                        generation,
                        reply: tx,
                    },
                );
            let bytes = frame.encode_tagged(id);
            let wire = live.wire.as_mut().expect("dialed above");
            if wire.write(&bytes, deadline.ends()).is_err() {
                // Dead stream, or a daemon that stopped reading: retire
                // it (failing its waiters, ours included) and go around
                // — the loop redials under the same deadline.
                let generation = wire.generation;
                self.retire(&mut live, generation);
                continue;
            }
            live.buffered = id;
            live.write_by = live.write_by.max(Some(deadline.ends()));
            return Ok(Pending { id, reply: rx });
        }
    }

    /// Pushes buffered request bytes to the socket. A send blocked on a
    /// daemon that stopped reading gives up at the latest deadline among
    /// the requests in the buffer.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unreachable`] when the stream died or the send
    /// timed out; in-flight requests on it fail, and the next submit
    /// reconnects.
    pub fn flush(&self) -> Result<(), ClientError> {
        let mut live = self.inner.live.lock().expect("connection state poisoned");
        let until = live.write_by.unwrap_or_else(Instant::now);
        self.flush_until(&mut live, until)
    }

    /// [`Connection::flush`] with the give-up instant spelled out.
    fn flush_until(&self, live: &mut LiveState, until: Instant) -> Result<(), ClientError> {
        let Some(wire) = live.wire.as_mut() else {
            return Ok(());
        };
        if let Err(error) = wire.flush(until) {
            let generation = wire.generation;
            self.retire(live, generation);
            return Err(ClientError::Unreachable {
                detail: format!("flush failed: {error}"),
            });
        }
        live.flushed = live.buffered;
        live.write_by = None;
        Ok(())
    }

    /// Waits for `pending`'s reply, flushing first when the request is
    /// still in the write buffer (by `deadline`). The wait is charged
    /// against the absolute `deadline` — however long the demux thread
    /// spends delivering *other* requests' replies counts too.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] at the deadline (the id is forgotten: a
    /// late reply is dropped on the floor); [`ClientError::Unreachable`]
    /// when the stream died with the request outstanding;
    /// [`ClientError::Protocol`] on a non-response reply frame.
    pub fn wait(&self, pending: &Pending, deadline: &Deadline) -> Result<Outcome, ClientError> {
        {
            let mut live = self.inner.live.lock().expect("connection state poisoned");
            if pending.id > live.flushed {
                // A failed flush fails this request's slot: the receive
                // below reports it.
                let _ = self.flush_until(&mut live, deadline.ends());
            }
        }
        match pending.reply.recv_timeout(
            deadline
                .remaining()
                .map_err(|_| self.forget(pending.id, deadline))?,
        ) {
            Ok(frame) => decode_outcome(frame),
            Err(RecvTimeoutError::Timeout) => Err(self.forget(pending.id, deadline)),
            Err(RecvTimeoutError::Disconnected) => Err(ClientError::Unreachable {
                detail: "connection lost with the request in flight".to_string(),
            }),
        }
    }

    /// One full exchange: submit, flush, wait.
    ///
    /// # Errors
    ///
    /// As [`Connection::submit`] and [`Connection::wait`].
    pub fn call(&self, frame: &Frame, deadline: &Deadline) -> Result<Outcome, ClientError> {
        let pending = self.submit(frame, deadline)?;
        self.wait(&pending, deadline)
    }

    /// Drops a timed-out waiter's slot and returns the typed timeout.
    fn forget(&self, id: u64, deadline: &Deadline) -> ClientError {
        self.inner
            .slots
            .lock()
            .expect("slot table poisoned")
            .remove(&id);
        deadline.timeout()
    }

    /// Dials the daemon once and installs the stream + demux thread.
    fn dial(&self, live: &mut LiveState, deadline: &Deadline) -> Result<(), ()> {
        let budget = match deadline.remaining() {
            Ok(left) => left.min(self.inner.opts.connect_timeout),
            Err(_) => return Err(()),
        };
        let Some(target) = self
            .inner
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
        else {
            return Err(());
        };
        let Ok(stream) = TcpStream::connect_timeout(&target, budget) else {
            return Err(());
        };
        let _ = stream.set_nodelay(true);
        let (Ok(raw), Ok(read_half)) = (stream.try_clone(), stream.try_clone()) else {
            return Err(());
        };
        live.generations += 1;
        let generation = live.generations;
        live.wire = Some(Wire {
            writer: BufWriter::with_capacity(64 * 1024, stream),
            raw,
            generation,
        });
        live.window = self.inner.opts.backoff_floor.max(Duration::from_millis(1));
        live.retry_at = None;
        let inner = Arc::clone(&self.inner);
        let _ = std::thread::Builder::new()
            .name("dynvote-conn-demux".to_string())
            .spawn(move || demux_loop(&inner, read_half, generation));
        Ok(())
    }

    /// Retires a dead stream: drops it and fails exactly the waiters
    /// whose requests went out on it (dropping a slot's sender wakes
    /// its receiver with `Disconnected`).
    fn retire(&self, live: &mut LiveState, generation: u64) {
        if live
            .wire
            .as_ref()
            .is_some_and(|w| w.generation == generation)
        {
            live.wire = None;
        }
        self.inner
            .slots
            .lock()
            .expect("slot table poisoned")
            .retain(|_, slot| slot.generation != generation);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Dropping the wire shuts the socket down, so the demux thread
        // (which holds its own Arc to the shared state) reads EOF and
        // exits.
        let mut live = self.inner.live.lock().expect("connection state poisoned");
        live.wire = None;
    }
}

/// The demux thread: reads tagged replies off one stream generation and
/// routes each to its registered waiter. On any read error it fails the
/// generation's outstanding waiters and retires the stream — the next
/// submit reconnects.
fn demux_loop(inner: &Arc<Inner>, stream: TcpStream, generation: u64) {
    let mut reader = BufReader::with_capacity(128 * 1024, stream);
    // Any read error — and any *untagged* frame, which on a pipelined
    // stream is protocol confusion — ends the generation.
    while let Ok(Frame::Tagged { id, inner: reply }) = read_frame(&mut reader) {
        let slot = inner.slots.lock().expect("slot table poisoned").remove(&id);
        if let Some(slot) = slot {
            // A full reply channel cannot happen (capacity 1,
            // one reply per id); a dropped receiver just means
            // the waiter gave up — both are fine to ignore.
            let _ = slot.reply.send(*reply);
        }
    }
    let mut live = inner.live.lock().expect("connection state poisoned");
    if live
        .wire
        .as_ref()
        .is_some_and(|w| w.generation == generation)
    {
        live.wire = None;
    }
    drop(live);
    inner
        .slots
        .lock()
        .expect("slot table poisoned")
        .retain(|_, slot| slot.generation != generation);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::write_frame;
    use std::io::Read as _;
    use std::net::TcpListener;

    /// A hand-rolled daemon stand-in that reads tagged frames and
    /// replies according to `answer` — out of order, selectively, or
    /// not at all.
    fn scripted_server<F>(answer: F) -> String
    where
        F: Fn(u64, Frame) -> Vec<(u64, Frame)> + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            loop {
                let Ok(Frame::Tagged { id, inner }) = read_frame(&mut stream) else {
                    return;
                };
                for (reply_id, reply) in answer(id, *inner) {
                    let tagged = Frame::Tagged {
                        id: reply_id,
                        inner: Box::new(reply),
                    };
                    if write_frame(&mut stream, &tagged).is_err() {
                        return;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn replies_match_requests_regardless_of_order() {
        // Hold every odd id until the next even id arrives, then answer
        // the even one FIRST — sustained out-of-order completion.
        let held: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let addr = scripted_server(move |id, _| {
            if id % 2 == 1 {
                held.lock().unwrap().push(id);
                Vec::new()
            } else {
                let mut out = vec![(
                    id,
                    Frame::Done {
                        detail: format!("id-{id}"),
                    },
                )];
                for odd in held.lock().unwrap().drain(..) {
                    out.push((
                        odd,
                        Frame::Done {
                            detail: format!("id-{odd}"),
                        },
                    ));
                }
                out
            }
        });
        let conn = Connection::new(&addr, ConnOptions::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let pendings: Vec<Pending> = (0..6)
            .map(|_| conn.submit(&Frame::get_file(1, 0), &deadline).unwrap())
            .collect();
        for pending in &pendings {
            let outcome = conn.wait(pending, &deadline).unwrap();
            assert_eq!(
                outcome,
                Outcome::Done(format!("id-{}", pending.id())),
                "reply routed to the wrong correlation id"
            );
        }
    }

    #[test]
    fn pipelined_wait_charges_the_absolute_deadline() {
        // The server answers every id but 1 — traffic keeps flowing
        // through the demux thread the whole time the caller waits, and
        // none of it may extend id 1's deadline.
        let addr = scripted_server(|id, _| {
            if id == 1 {
                Vec::new()
            } else {
                vec![(
                    id,
                    Frame::Done {
                        detail: "ok".into(),
                    },
                )]
            }
        });
        let conn = Connection::new(&addr, ConnOptions::default());
        let starved_deadline = Deadline::within(Duration::from_millis(400));
        let starved = conn
            .submit(&Frame::get_file(1, 0), &starved_deadline)
            .unwrap();
        assert_eq!(starved.id(), 1);
        // Background chatter: keep replies arriving during the wait.
        let chatter_deadline = Deadline::within(Duration::from_secs(5));
        let chatter: Vec<Pending> = (0..4)
            .map(|_| {
                conn.submit(&Frame::get_file(1, 0), &chatter_deadline)
                    .unwrap()
            })
            .collect();
        for pending in &chatter {
            conn.wait(pending, &chatter_deadline).unwrap();
        }
        let started = Instant::now();
        let result = conn.wait(&starved, &starved_deadline);
        assert!(
            matches!(result, Err(ClientError::Timeout { .. })),
            "expected Timeout, got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "pipelined wait overran its absolute deadline"
        );
    }

    #[test]
    fn dead_stream_fails_in_flight_requests_then_reconnects() {
        // First connection: accept and slam the door with the request
        // in flight. Second connection: serve normally.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                // Read one frame's worth of bytes, then reset.
                let mut first = stream;
                let mut buf = [0u8; 64];
                let _ = first.read(&mut buf);
                drop(first);
            }
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            while let Ok(Frame::Tagged { id, .. }) = read_frame(&mut stream) {
                let tagged = Frame::Tagged {
                    id,
                    inner: Box::new(Frame::Done {
                        detail: "recovered".into(),
                    }),
                };
                if write_frame(&mut stream, &tagged).is_err() {
                    return;
                }
            }
        });
        let conn = Connection::new(&addr, ConnOptions::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let doomed = conn.submit(&Frame::get_file(1, 0), &deadline).unwrap();
        let result = conn.wait(&doomed, &deadline);
        assert!(
            matches!(result, Err(ClientError::Unreachable { .. })),
            "a request on a dead stream must fail typed, got {result:?}"
        );
        // The connection heals itself on the next call.
        let outcome = conn.call(&Frame::get_file(1, 0), &deadline).unwrap();
        assert_eq!(outcome, Outcome::Done("recovered".into()));
    }

    /// How long [`counting_server`] keeps reading after a frame before
    /// it answers.
    const GRACE: Duration = Duration::from_millis(200);

    /// A daemon stand-in that, after each frame it reads, keeps reading
    /// for [`GRACE`] and then answers every frame read so far with
    /// `seen=N`: the number of frames the client had put on the wire
    /// by the time it answered.
    fn counting_server() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut seen = 0;
            loop {
                stream.set_read_timeout(None).unwrap();
                let Ok(Frame::Tagged { id, .. }) = read_frame(&mut stream) else {
                    return;
                };
                let mut unanswered = vec![id];
                stream.set_read_timeout(Some(GRACE)).unwrap();
                while let Ok(Frame::Tagged { id, .. }) = read_frame(&mut stream) {
                    unanswered.push(id);
                }
                seen += unanswered.len();
                for id in unanswered {
                    let tagged = Frame::Tagged {
                        id,
                        inner: Box::new(Frame::Done {
                            detail: format!("seen={seen}"),
                        }),
                    };
                    if write_frame(&mut stream, &tagged).is_err() {
                        return;
                    }
                }
            }
        });
        addr
    }

    fn seen(frames: usize) -> Outcome {
        Outcome::Done(format!("seen={frames}"))
    }

    #[test]
    fn a_wait_on_a_flushed_request_leaves_later_submits_unsent() {
        let conn = Connection::new(&counting_server(), ConnOptions::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let sent = conn.submit(&Frame::get_file(1, 0), &deadline).unwrap();
        conn.flush().unwrap();
        let held = conn.submit(&Frame::get_file(1, 0), &deadline).unwrap();
        assert_eq!(
            conn.wait(&sent, &deadline).unwrap(),
            seen(1),
            "waiting on a request already sent pushed a later one out"
        );
        // The held request goes out with the wait on it.
        assert_eq!(conn.wait(&held, &deadline).unwrap(), seen(2));
    }

    #[test]
    fn a_wait_on_a_buffered_request_sends_it_and_everything_before_it() {
        let conn = Connection::new(&counting_server(), ConnOptions::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let first = conn.submit(&Frame::get_file(1, 0), &deadline).unwrap();
        let second = conn.submit(&Frame::get_file(1, 0), &deadline).unwrap();
        assert_eq!(conn.wait(&second, &deadline).unwrap(), seen(2));
        assert_eq!(conn.wait(&first, &deadline).unwrap(), seen(2));
    }

    #[test]
    fn flush_sends_everything_buffered() {
        let conn = Connection::new(&counting_server(), ConnOptions::default());
        let deadline = Deadline::within(Duration::from_secs(5));
        let pendings: Vec<Pending> = (0..3)
            .map(|_| conn.submit(&Frame::get_file(1, 0), &deadline).unwrap())
            .collect();
        conn.flush().unwrap();
        for pending in &pendings {
            assert_eq!(conn.wait(pending, &deadline).unwrap(), seen(3));
        }
    }

    #[test]
    fn a_daemon_that_stops_reading_cannot_hold_a_submit_past_its_deadline() {
        const BUDGET: Duration = Duration::from_millis(500);
        // An acceptor that never reads: once the kernel's buffers fill,
        // every send blocks. It holds the socket open until the test
        // ends.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (hold, held) = mpsc::channel::<()>();
        let acceptor = std::thread::spawn(move || {
            let accepted = listener.accept();
            let _ = held.recv();
            drop(accepted);
        });
        let (report, reported) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let conn = Connection::new(&addr, ConnOptions::default());
            let deadline = Deadline::within(BUDGET);
            let big = Frame::PutKey {
                epoch: 1,
                shard: 0,
                key: "big".to_string(),
                value: vec![0x5a; 1 << 20],
            };
            let error = loop {
                if let Err(error) = conn.submit(&big, &deadline) {
                    break error;
                }
            };
            let _ = report.send((error, deadline.elapsed()));
        });
        // The watchdog: a send that ignores the deadline blocks until
        // the acceptor closes, which it does only when this test ends.
        let (error, took) = reported
            .recv_timeout(Duration::from_secs(10))
            .expect("a submit blocked on a daemon that stopped reading for 10 s");
        client.join().expect("the client thread");
        drop(hold);
        acceptor.join().expect("the acceptor thread");
        assert!(
            matches!(error, ClientError::Timeout { .. }),
            "expected Timeout, got {error:?}"
        );
        assert!(
            took < BUDGET + Duration::from_secs(1),
            "submit gave up {took:?} into a {BUDGET:?} deadline"
        );
    }
}
