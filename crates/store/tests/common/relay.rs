//! Recording relays: every peer address in a fleet's `--peers` list is
//! a relay in front of the real daemon, so every peer frame any daemon
//! sends is seen, decoded, by the relay of the site it is addressed
//! to, and then passed on unchanged — or dropped, when the tap's drop
//! rule says so. Replies pass back the same way and are never dropped.

use std::collections::BTreeMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dynvote_control::{decode_kv, KvPuts};
use dynvote_store::wire::{read_frame, write_frame, Frame};
use dynvote_types::SiteSet;

use super::{Fleet, TIMEOUT};

/// One frame a relay passed on (or dropped).
#[derive(Clone, Debug)]
pub struct Seen {
    /// The site whose relay saw it.
    pub site: usize,
    /// `true` for a request into the site, `false` for its reply.
    pub request: bool,
    pub frame: Frame,
}

/// Which requests into which site a relay drops.
type DropRule = Box<dyn Fn(usize, &Frame) -> bool + Send>;

/// What the relays saw, the gate that can hold requests back, and the
/// rule that drops them.
#[derive(Default)]
pub struct Tap {
    seen: Mutex<Vec<Seen>>,
    held: Mutex<bool>,
    released: Condvar,
    dropping: Mutex<Option<DropRule>>,
}

impl Tap {
    fn record(&self, site: usize, request: bool, frame: &Frame) {
        self.seen.lock().unwrap().push(Seen {
            site,
            request,
            frame: frame.clone(),
        });
    }

    /// Blocks a relayed request while the gate is held.
    fn pass(&self) {
        let mut held = self.held.lock().unwrap();
        while *held {
            held = self.released.wait(held).unwrap();
        }
    }

    pub fn hold(&self, hold: bool) {
        *self.held.lock().unwrap() = hold;
        self.released.notify_all();
    }

    /// From now on, the relay of site `site` drops every request
    /// `rule(site, frame)` holds for (the frame unwrapped from its
    /// shard envelope). The frame is still recorded as seen.
    pub fn drop_requests(&self, rule: impl Fn(usize, &Frame) -> bool + Send + 'static) {
        *self.dropping.lock().unwrap() = Some(Box::new(rule));
    }

    fn drops(&self, site: usize, frame: &Frame) -> bool {
        self.dropping
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(|rule| rule(site, frame))
    }

    /// Everything seen since the last drain, once nothing new has come
    /// in for a while (a RELEASE is sent without waiting for a reply).
    pub fn drain(&self) -> Vec<Seen> {
        let mut count = usize::MAX;
        let began = Instant::now();
        loop {
            let now = self.seen.lock().unwrap().len();
            if now == count || began.elapsed() > TIMEOUT {
                break;
            }
            count = now;
            thread::sleep(Duration::from_millis(150));
        }
        std::mem::take(&mut *self.seen.lock().unwrap())
    }

    /// The requests each peer received since the last drain, rendered.
    pub fn received(&self) -> BTreeMap<usize, Vec<String>> {
        let mut by_site = BTreeMap::new();
        for seen in self.drain().into_iter().filter(|seen| seen.request) {
            by_site
                .entry(seen.site)
                .or_insert_with(Vec::new)
                .push(render(&seen.frame));
        }
        by_site
    }
}

fn sites(set: SiteSet) -> String {
    let ids: Vec<String> = set.iter().map(|s| s.index().to_string()).collect();
    format!("{{{}}}", ids.join(","))
}

/// A peer request without its ticket.
pub fn render(frame: &Frame) -> String {
    match frame {
        Frame::StartReq {
            from,
            to,
            mark_pending,
            ..
        } => format!(
            "START S{}->S{} pending={mark_pending}",
            from.index(),
            to.index()
        ),
        Frame::Commit {
            from,
            to,
            state,
            value,
            ..
        } => format!(
            "COMMIT S{}->S{} o={} v={} P={} value={}",
            from.index(),
            to.index(),
            state.op,
            state.version,
            sites(state.partition),
            match value {
                Some(bytes) => format!("{:?}", decode_kv(bytes).expect("a KV image")),
                None => "none".to_string(),
            }
        ),
        Frame::CommitDelta {
            from,
            to,
            state,
            base,
            puts,
            ..
        } => format!(
            "COMMIT-DELTA S{}->S{} o={} v={} P={} base={base} puts={:?}",
            from.index(),
            to.index(),
            state.op,
            state.version,
            sites(state.partition),
            KvPuts::decode(puts).expect("a put list").0
        ),
        Frame::CopyReq { from, to, .. } => {
            format!("COPY-REQ S{}->S{}", from.index(), to.index())
        }
        Frame::Release { from, keep, .. } => {
            format!("RELEASE from S{} keep={}", from.index(), sites(*keep))
        }
        Frame::VoteProbe { from, to, .. } => {
            format!("VOTE-PROBE S{}->S{}", from.index(), to.index())
        }
        other => format!("{other:?}"),
    }
}

/// Passes frames both ways between one accepted connection and the
/// daemon behind the relay, recording each.
fn relay(tap: &Arc<Tap>, site: usize, client: TcpStream, daemon: &str) {
    let Ok(upstream) = TcpStream::connect(daemon) else {
        return;
    };
    let (mut client_in, mut upstream_out) =
        (client.try_clone().unwrap(), upstream.try_clone().unwrap());
    let (mut upstream_in, mut client_out) = (upstream, client);
    let requests = {
        let tap = Arc::clone(tap);
        thread::spawn(move || {
            while let Ok(frame) = read_frame(&mut client_in) {
                let inner = match &frame {
                    Frame::Shard { inner, .. } => inner.as_ref().clone(),
                    other => other.clone(),
                };
                tap.record(site, true, &inner);
                tap.pass();
                if tap.drops(site, &inner) {
                    continue;
                }
                if write_frame(&mut upstream_out, &frame).is_err() {
                    break;
                }
            }
            let _ = upstream_out.shutdown(Shutdown::Both);
        })
    };
    while let Ok(frame) = read_frame(&mut upstream_in) {
        tap.record(site, false, &frame);
        if write_frame(&mut client_out, &frame).is_err() {
            break;
        }
    }
    let _ = client_out.shutdown(Shutdown::Both);
    let _ = requests.join();
}

/// `sites` daemons started with `flags` whose peer links all run
/// through recording relays, and the relays' tap.
pub fn boot(sites: usize, flags: &str) -> (Fleet, Arc<Tap>) {
    let tap = Arc::new(Tap::default());
    let relayed = |addrs: &[String]| {
        let mut relays = Vec::new();
        for (site, daemon) in addrs.iter().enumerate() {
            let front = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            relays.push(front.local_addr().expect("bound").to_string());
            let (tap, daemon) = (Arc::clone(&tap), daemon.clone());
            thread::spawn(move || {
                for client in front.incoming().flatten() {
                    let (tap, daemon) = (Arc::clone(&tap), daemon.clone());
                    thread::spawn(move || relay(&tap, site, client, &daemon));
                }
            });
        }
        relays
    };
    (Fleet::boot_behind(sites, flags, relayed), tap)
}
