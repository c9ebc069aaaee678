//! A TCP relay that gives one peer link a stated one-way delay and can
//! be told to go silent.
//!
//! The loopback fleet delivers instantly, so without it latency is
//! processor and fsync time only. The coordinator's peer addresses
//! point at one relay per peer; each accepted connection gets a
//! connection to the real daemon and one forwarding thread per
//! direction: read, sleep until arrival + delay, write. A peer link
//! carries one request and its reply at a time, so the sleeping never
//! queues a second message behind the first.
//!
//! A silent relay still accepts and still reads, and forwards nothing:
//! the peer looks alive to `connect` and dead to every exchange — the
//! fault a read timeout is for.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Shared {
    upstream: String,
    delay: Duration,
    silent: AtomicBool,
    stopping: AtomicBool,
    /// A handle of every socket ever opened, so `stop` can wake the
    /// threads blocked reading them.
    sockets: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

pub struct Relay {
    addr: String,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl Relay {
    /// Starts relaying an ephemeral loopback port to `upstream`.
    pub fn start(upstream: &str, delay: Duration) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let shared = Arc::new(Shared {
            upstream: upstream.to_string(),
            delay,
            silent: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            sockets: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("bench-relay-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Relay {
            addr,
            shared,
            acceptor,
        })
    }

    /// The address to give the coordinator in place of the peer's.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// From now on, forward nothing (`true`) or forward again.
    pub fn set_silent(&self, silent: bool) {
        // SeqCst: the caller times what follows against this store.
        self.shared.silent.store(silent, Ordering::SeqCst);
    }

    /// Closes every connection and joins every thread.
    pub fn stop(self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr); // wake the acceptor
        self.acceptor.join().expect("relay acceptor panicked");
        // The acceptor is gone, so both lists are final.
        for socket in self
            .shared
            .sockets
            .lock()
            .expect("relay poisoned")
            .drain(..)
        {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let pumps: Vec<_> = self
            .shared
            .pumps
            .lock()
            .expect("relay poisoned")
            .drain(..)
            .collect();
        for pump in pumps {
            pump.join().expect("relay pump panicked");
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for client in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let Ok(client) = client else { continue };
        // A daemon that is gone refuses at once on loopback; the
        // coordinator then sees its connection close, as it should.
        let Ok(server) = TcpStream::connect(&shared.upstream) else {
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (Ok(client_read), Ok(server_read), Ok(client_keep), Ok(server_keep)) = (
            client.try_clone(),
            server.try_clone(),
            client.try_clone(),
            server.try_clone(),
        ) else {
            continue;
        };
        shared
            .sockets
            .lock()
            .expect("relay poisoned")
            .extend([client_keep, server_keep]);
        let mut pumps = shared.pumps.lock().expect("relay poisoned");
        for (from, to) in [(client_read, server), (server_read, client)] {
            let pump_shared = Arc::clone(shared);
            let spawned = std::thread::Builder::new()
                .name("bench-relay-pump".to_string())
                .spawn(move || pump(from, to, &pump_shared));
            pumps.push(spawned.expect("spawning a relay pump"));
        }
    }
}

/// Forwards one direction until either side closes, then closes both
/// so the opposite pump ends too.
fn pump(mut from: TcpStream, mut to: TcpStream, shared: &Shared) {
    let mut buffer = vec![0u8; 64 * 1024];
    loop {
        let read = match from.read(&mut buffer) {
            Ok(0) | Err(_) => break,
            Ok(read) => read,
        };
        let due = Instant::now() + shared.delay;
        if shared.silent.load(Ordering::SeqCst) {
            continue;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if to.write_all(&buffer[..read]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An upstream that echoes every byte back, on its own thread; the
    /// returned closure stops it.
    fn echo_server() -> (String, impl FnOnce()) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let (stop_flag, wake) = (Arc::clone(&stop), addr.clone());
        let server = std::thread::spawn(move || {
            let mut sessions = Vec::new();
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let mut stream = stream.unwrap();
                sessions.push(std::thread::spawn(move || {
                    let mut buffer = [0u8; 1024];
                    while let Ok(read @ 1..) = stream.read(&mut buffer) {
                        if stream.write_all(&buffer[..read]).is_err() {
                            break;
                        }
                    }
                }));
            }
            for session in sessions {
                session.join().unwrap();
            }
        });
        (addr, move || {
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(wake);
            server.join().unwrap();
        })
    }

    #[test]
    fn delivers_no_earlier_than_the_delay_and_goes_silent_on_command() {
        let (upstream, stop_echo) = echo_server();
        let delay = Duration::from_millis(20);
        let relay = Relay::start(&upstream, delay).unwrap();
        let mut client = TcpStream::connect(relay.addr()).unwrap();
        client.set_nodelay(true).unwrap();
        let mut reply = [0u8; 4];

        for _ in 0..3 {
            let sent = Instant::now();
            client.write_all(b"ping").unwrap();
            client.read_exact(&mut reply).unwrap();
            assert_eq!(&reply, b"ping");
            // One delay on the way out, one on the way back.
            assert!(
                sent.elapsed() >= 2 * delay,
                "round trip took {:?}",
                sent.elapsed()
            );
        }

        relay.set_silent(true);
        client.write_all(b"lost").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(150)))
            .unwrap();
        let error = client.read_exact(&mut reply).unwrap_err();
        assert!(
            matches!(
                error.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "a silent relay answered or closed: {error}"
        );
        // Still accepting while silent.
        let second = TcpStream::connect(relay.addr());
        assert!(second.is_ok(), "a silent relay must still accept");

        relay.set_silent(false);
        client.set_read_timeout(None).unwrap();
        client.write_all(b"back").unwrap();
        client.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"back", "the swallowed bytes must not reappear");

        drop(client);
        drop(second);
        relay.stop();
        stop_echo();
    }
}
