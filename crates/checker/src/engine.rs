//! The shared exploration engine: layered breadth-first search with
//! work-stealing parallel expansion, sharded fingerprint deduplication,
//! and optional symmetry quotienting.
//!
//! Both the invariant checker ([`crate::explore`]) and the differential
//! checker ([`crate::diff`]) run on this engine; each provides a
//! [`Space`] (its notion of state, successor events, and terminal
//! hits).
//!
//! # Why layered BFS (and not parallel DFS)
//!
//! Deduplication uses *depth-left dominance*: a state revisited with
//! less remaining depth than a previous visit can only reach a subset
//! of what that visit covered, so it is skipped. Under DFS the same
//! state can be reached first with *less* depth-left and later with
//! more, forcing a re-expansion ("upgrade") whose bookkeeping depends
//! on visit order — which a parallel schedule does not preserve.
//! Layered BFS removes upgrades *by construction*: all states with
//! depth-left `D` are expanded before any state with `D - 1`, so the
//! first time a fingerprint is inserted is always its maximal-depth
//! visit, and every later encounter is dominated. Dominance then needs
//! no ordering argument at all — which is exactly what makes the
//! parallel run's state counts equal to the sequential run's (see
//! `tests/parallel_equivalence.rs`).
//!
//! # Determinism under work stealing
//!
//! Workers steal frontier slots from a shared atomic cursor, so *which*
//! worker expands a state — and which worker's insert wins when two
//! same-layer parents generate the same child — is scheduling noise.
//! The merge step erases it:
//!
//! * every generated child is recorded as a 24-byte [`ChildRec`] keyed
//!   by its canonical generation coordinates `(job, event index)`;
//! * per fingerprint, the **canonical parent** is the minimum
//!   `(job, event index)` over all same-layer generators (the insert
//!   winner only contributes the state, boxed once and never moved);
//! * new states are appended to the arena and the next frontier in
//!   canonical-coordinate order, and terminal hits are sorted the same
//!   way.
//!
//! Totals, frontier order, parent pointers, and hit traces are
//! therefore identical for every thread count; only wall-clock-budget
//! truncation is machine-dependent (as it already was sequentially).
//!
//! # Budget under concurrency
//!
//! The wall clock is polled against a deadline every
//! [`crate::explore::BUDGET_POLL_MASK`]-masked transition of a *shared*
//! atomic transition counter, and expiry raises a shared flag that all
//! workers observe per transition — one slow worker cannot overrun the
//! deadline unobserved, and small layers cannot dodge the poll (the
//! counter never resets). After truncation the hits the workers already
//! produced are still recorded — so a truncated report is well-formed:
//! counts are consistent and every recorded hit has a replayable trace
//! — but the never-to-be-expanded next frontier is not built, and the
//! merge loop re-polls the deadline so it cannot overrun the budget on
//! a huge layer. What remains outside the deadline's reach is teardown:
//! freeing a multi-gigabyte frontier costs wall clock proportional to
//! the memory the run allocated, not to the budget.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::CheckEvent;
use crate::explore::BUDGET_POLL_MASK;
use crate::symmetry::SymmetryGroup;

/// A state space the engine can explore: cloneable states, a canonical
/// event enumeration, a step function whose non-empty result marks the
/// transition terminal, and a fingerprint canonical under a symmetry
/// group.
///
/// Each child is stepped in a spare state its parent is `clone_from`'d
/// into, so a `clone_from` that reuses the spare's buffers is what lets
/// a child the engine does not keep cost no allocation.
pub(crate) trait Space: Clone + Send + Sync {
    /// What a terminal transition yields (violations, mismatches, …).
    type Hit: Clone + Send;

    /// Buffers a step or a fingerprint fills and forgets. Each worker
    /// keeps one for a whole layer, so neither allocates them per
    /// transition.
    type Scratch: Default;

    /// Applicable events, in canonical order.
    fn events(&self) -> Vec<CheckEvent>;

    /// Applies `event` in place. A non-empty result makes the resulting
    /// state terminal: it is recorded and never expanded or
    /// fingerprinted.
    fn step(&mut self, event: CheckEvent, scratch: &mut Self::Scratch) -> Vec<Self::Hit>;

    /// The state's deduplication fingerprint, canonical under `group`
    /// (with the trivial group: the plain fingerprint).
    fn fingerprint(&self, group: &SymmetryGroup, scratch: &mut Self::Scratch) -> u64;
}

/// Engine parameters, independent of the particular [`Space`].
pub(crate) struct EngineConfig {
    /// Maximum number of events per path. A byte, because the seen map
    /// stores depth-left in one: a deeper bound would alias states seen
    /// at different remaining depths.
    pub depth: u8,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
    /// Quotient fingerprints under this symmetry group
    /// ([`SymmetryGroup::trivial`] merges only equal states).
    pub symmetry: SymmetryGroup,
    /// Wall-clock deadline; `None` explores exhaustively.
    pub deadline: Option<Instant>,
    /// At most this many hits keep their traces (all are counted).
    pub max_traced: usize,
}

/// One terminal transition, in canonical discovery order.
pub(crate) struct HitRec<H> {
    /// Everything the terminal step reported.
    pub hits: Vec<H>,
    /// The event path that reached the hit; `None` past `max_traced`.
    pub trace: Option<Vec<CheckEvent>>,
}

/// What an exploration returns.
pub(crate) struct EngineReport<H> {
    /// Distinct states visited (the root included).
    pub states_explored: u64,
    /// Transitions that landed on an already-covered state.
    pub dedup_hits: u64,
    /// Total transitions applied.
    pub transitions: u64,
    /// Whether the wall-clock budget truncated the search.
    pub truncated: bool,
    /// Terminal transitions, canonically ordered.
    pub hits: Vec<HitRec<H>>,
}

/// Hashes a fingerprint with one multiply. A [`Space`] fingerprint is
/// already a finished hash — `symmetry`'s `Mixer` ends on an avalanche,
/// so every input bit reaches every output bit — and it is computed in
/// this process, never read from outside it, so SipHash's keyed rounds
/// would hash it a second time for nothing. The multiply only spreads
/// it over the bits a table takes its bucket and tag from.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a fingerprint hashes as one u64");
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by fingerprint.
type FingerprintMap<V> = HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>;

/// The fingerprint memo, sharded so concurrent workers rarely contend:
/// fingerprint → largest depth-left the state was seen with, with
/// insert-or-max semantics applied atomically under the shard lock.
pub(crate) struct ShardedSeen {
    shards: Vec<Mutex<FingerprintMap<u8>>>,
}

/// What a [`ShardedSeen::probe`] found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Probe {
    /// First visit at a dominant depth — the caller owns expansion.
    New,
    /// Already seen *at the same depth-left* — a same-layer collision;
    /// the caller is a canonical-parent candidate but not the owner.
    Tied,
    /// Already seen with at least as much depth-left — skip.
    Covered,
}

impl ShardedSeen {
    const SHARDS: usize = 64;

    pub(crate) fn new() -> ShardedSeen {
        ShardedSeen {
            shards: (0..ShardedSeen::SHARDS)
                .map(|_| Mutex::new(FingerprintMap::default()))
                .collect(),
        }
    }

    /// Records that `fingerprint` is being visited with `depth_left`
    /// remaining and classifies the visit. The max update is atomic
    /// with the read (both happen under the shard lock), so two
    /// concurrent visitors agree on exactly one `New` owner per
    /// (fingerprint, dominant depth).
    pub(crate) fn probe(&self, fingerprint: u64, depth_left: u8) -> Probe {
        let shard = (fingerprint ^ (fingerprint >> 32)) as usize % ShardedSeen::SHARDS;
        let mut map = self.shards[shard].lock().expect("seen shard poisoned");
        match map.get_mut(&fingerprint) {
            None => {
                map.insert(fingerprint, depth_left);
                Probe::New
            }
            Some(covered) if *covered == depth_left => Probe::Tied,
            Some(covered) if *covered > depth_left => Probe::Covered,
            Some(covered) => {
                // Unreachable under layered BFS (depth-left only ever
                // shrinks across layers); kept correct regardless.
                *covered = depth_left;
                Probe::New
            }
        }
    }

    /// Total distinct fingerprints recorded.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("seen shard poisoned").len())
            .sum()
    }
}

/// A `CheckEvent` packed into one byte for the parent arena: 3-bit tag,
/// 5-bit argument (site index or partition index — both < 32 at the
/// checker's scope).
#[derive(Clone, Copy)]
struct PackedEvent(u8);

impl PackedEvent {
    fn pack(event: CheckEvent) -> PackedEvent {
        let (tag, arg) = match event {
            CheckEvent::Crash(site) => (0, site.index()),
            CheckEvent::Repair(site) => (1, site.index()),
            CheckEvent::Recover(site) => (2, site.index()),
            CheckEvent::Partition(index) => (3, index),
            CheckEvent::Heal => (4, 0),
            CheckEvent::Read(site) => (5, site.index()),
            CheckEvent::Write(site) => (6, site.index()),
        };
        debug_assert!(arg < 32, "packed event argument out of range");
        PackedEvent(((tag as u8) << 5) | (arg as u8 & 0x1F))
    }

    fn unpack(self) -> CheckEvent {
        let arg = usize::from(self.0 & 0x1F);
        match self.0 >> 5 {
            0 => CheckEvent::Crash(dynvote_types::SiteId::new(arg)),
            1 => CheckEvent::Repair(dynvote_types::SiteId::new(arg)),
            2 => CheckEvent::Recover(dynvote_types::SiteId::new(arg)),
            3 => CheckEvent::Partition(arg),
            4 => CheckEvent::Heal,
            5 => CheckEvent::Read(dynvote_types::SiteId::new(arg)),
            _ => CheckEvent::Write(dynvote_types::SiteId::new(arg)),
        }
    }
}

/// One arena entry: enough to reconstruct the event path to any
/// explored state (parent id + the event that produced it).
struct ArenaEntry {
    parent: u32,
    event: PackedEvent,
}

const NO_PARENT: u32 = u32::MAX;

/// One generated (non-terminal) child, keyed by canonical generation
/// coordinates: 24 bytes, so putting a layer into canonical order
/// never moves a state. `state` is `Some` iff this record's probe
/// owned the seen-map insertion; that box is the state's only home,
/// from the step that produced it to the frontier that expands it.
struct ChildRec<S> {
    fingerprint: u64,
    state: Option<Box<S>>,
    job: u32,
    event_idx: u16,
    event: PackedEvent,
}

/// One terminal transition as a worker saw it.
struct RawHit<H> {
    job: u32,
    event_idx: u16,
    event: CheckEvent,
    hits: Vec<H>,
}

/// Everything one worker produced over one layer.
struct WorkerOut<S: Space> {
    children: Vec<ChildRec<S>>,
    raw_hits: Vec<RawHit<S::Hit>>,
    dedup_old: u64,
}

/// What every worker of every layer shares.
struct Shared<'a> {
    seen: ShardedSeen,
    symmetry: &'a SymmetryGroup,
    transitions: AtomicU64,
    truncated: AtomicBool,
    deadline: Option<Instant>,
}

impl Shared<'_> {
    /// Whether the wall clock has reached the deadline.
    fn out_of_time(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Expands frontier slots stolen from `next_job` until the layer (or
/// the budget) is exhausted; `child_depth` is the depth left at the
/// children.
fn expand_layer<S: Space>(
    shared: &Shared<'_>,
    frontier: &[(u32, Box<S>)],
    next_job: &AtomicUsize,
    child_depth: u8,
) -> WorkerOut<S> {
    let mut out = WorkerOut {
        children: Vec::new(),
        raw_hits: Vec::new(),
        dedup_old: 0,
    };
    let mut scratch = S::Scratch::default();
    // The box the next child is stepped in. A transition copies its
    // parent into it (`clone_from`, into buffers the box already has);
    // only a child that becomes a frontier state keeps it, and every
    // other child hands it on to the next transition.
    let mut spare: Option<Box<S>> = None;
    loop {
        let slot = next_job.fetch_add(1, Ordering::Relaxed);
        if slot >= frontier.len() || shared.truncated.load(Ordering::Relaxed) {
            break;
        }
        let job = u32::try_from(slot).expect("frontier fits u32");
        let state = &*frontier[slot].1;
        for (event_idx, &event) in state.events().iter().enumerate() {
            let total = shared.transitions.fetch_add(1, Ordering::Relaxed);
            if total & BUDGET_POLL_MASK == 0 && shared.out_of_time() {
                shared.truncated.store(true, Ordering::Relaxed);
            }
            if shared.truncated.load(Ordering::Relaxed) {
                break;
            }
            let event_idx = u16::try_from(event_idx).expect("alphabet fits u16");
            let mut child = match spare.take() {
                Some(mut child) => {
                    S::clone_from(&mut child, state);
                    child
                }
                None => Box::new(state.clone()),
            };
            let hits = child.step(event, &mut scratch);
            if !hits.is_empty() {
                // Terminal: record, never fingerprint or expand.
                out.raw_hits.push(RawHit {
                    job,
                    event_idx,
                    event,
                    hits,
                });
                spare = Some(child);
                continue;
            }
            let fingerprint = child.fingerprint(shared.symmetry, &mut scratch);
            let probe = shared.seen.probe(fingerprint, child_depth);
            let kept = if probe == Probe::New {
                Some(child)
            } else {
                spare = Some(child);
                None
            };
            match probe {
                Probe::Covered => out.dedup_old += 1,
                Probe::New | Probe::Tied => out.children.push(ChildRec {
                    fingerprint,
                    state: kept,
                    job,
                    event_idx,
                    event: PackedEvent::pack(event),
                }),
            }
        }
    }
    out
}

/// Reconstructs the event path from the root (which carries no event)
/// to arena entry `id`.
fn path_of(arena: &[ArenaEntry], mut id: u32) -> Vec<CheckEvent> {
    let mut path = Vec::new();
    while arena[id as usize].parent != NO_PARENT {
        path.push(arena[id as usize].event.unpack());
        id = arena[id as usize].parent;
    }
    path.reverse();
    path
}

/// Explores `root` to `config.depth`, layer by layer.
pub(crate) fn explore<S: Space>(root: S, config: &EngineConfig) -> EngineReport<S::Hit> {
    let shared = Shared {
        seen: ShardedSeen::new(),
        symmetry: &config.symmetry,
        transitions: AtomicU64::new(0),
        truncated: AtomicBool::new(false),
        deadline: config.deadline,
    };
    let root_fingerprint = root.fingerprint(shared.symmetry, &mut S::Scratch::default());
    shared.seen.probe(root_fingerprint, config.depth);

    let mut arena = vec![ArenaEntry {
        parent: NO_PARENT,
        event: PackedEvent(0),
    }];
    let mut states_explored: u64 = 1;
    let mut dedup_hits: u64 = 0;
    let mut hit_recs: Vec<HitRec<S::Hit>> = Vec::new();
    let mut frontier: Vec<(u32, Box<S>)> = vec![(0, Box::new(root))];

    let mut depth_left = config.depth;
    while depth_left > 0 && !frontier.is_empty() && !shared.truncated.load(Ordering::Relaxed) {
        depth_left -= 1;
        let next_job = AtomicUsize::new(0);
        let expand = || expand_layer(&shared, &frontier, &next_job, depth_left);
        // One worker expands on this thread: most layers of a small
        // scope are a handful of states, less work than a spawn and a
        // join.
        let workers = config.threads.clamp(1, frontier.len());
        let outs: Vec<WorkerOut<S>> = if workers == 1 {
            vec![expand()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(expand)).collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("engine worker panicked"))
                    .collect()
            })
        };

        // Deterministic merge: canonical-coordinate order erases the
        // worker schedule.
        let mut children = Vec::new();
        let mut raw_hits = Vec::new();
        for mut out in outs {
            dedup_hits += out.dedup_old;
            children.append(&mut out.children);
            raw_hits.append(&mut out.raw_hits);
        }
        children.sort_unstable_by_key(|c| (c.job, c.event_idx));
        raw_hits.sort_by_key(|r| (r.job, r.event_idx));

        // Once the budget has expired, inserting the surviving children
        // into the arena buys nothing — the next layer will never be
        // expanded — and on a large layer it can cost multiples of the
        // budget itself. Skip straight to recording this layer's hits.
        let mut next_frontier: Vec<(u32, Box<S>)> = Vec::new();
        if !shared.truncated.load(Ordering::Relaxed) {
            // Each state this layer first reached, keyed by fingerprint
            // until the walk meets its canonical parent: the first
            // record, in canonical order, that generated it. Later
            // records of that fingerprint are same-layer collisions.
            let mut unplaced: FingerprintMap<Box<S>> = children
                .iter_mut()
                .filter_map(|child| Some((child.fingerprint, child.state.take()?)))
                .collect();
            next_frontier.reserve(unplaced.len());
            for (merged, child) in children.iter().enumerate() {
                // A merge that starts inside the budget must not
                // overrun it unboundedly either.
                if merged & 0x1FFF == 0 && shared.out_of_time() {
                    shared.truncated.store(true, Ordering::Relaxed);
                    break;
                }
                let Some(state) = unplaced.remove(&child.fingerprint) else {
                    dedup_hits += 1;
                    continue;
                };
                let id = u32::try_from(arena.len()).expect("arena fits u32");
                arena.push(ArenaEntry {
                    parent: frontier[child.job as usize].0,
                    event: child.event,
                });
                states_explored += 1;
                next_frontier.push((id, state));
            }
        }
        for raw in raw_hits {
            let trace = (hit_recs.len() < config.max_traced).then(|| {
                let mut path = path_of(&arena, frontier[raw.job as usize].0);
                path.push(raw.event);
                path
            });
            hit_recs.push(HitRec {
                hits: raw.hits,
                trace,
            });
        }

        frontier = next_frontier;
    }

    EngineReport {
        states_explored,
        dedup_hits,
        transitions: shared.transitions.into_inner(),
        truncated: shared.truncated.into_inner(),
        hits: hit_recs,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    /// A toy space over a small integer graph: the state is a node, the
    /// event `Partition(i)` follows the node's `i`-th edge, and landing
    /// on a terminal node is a hit carrying that node.
    #[derive(Clone)]
    struct Toy {
        at: usize,
        graph: Arc<Graph>,
    }

    struct Graph {
        edges: Vec<Vec<usize>>,
        terminal: Vec<usize>,
    }

    impl Space for Toy {
        type Hit = usize;
        type Scratch = ();

        fn events(&self) -> Vec<CheckEvent> {
            (0..self.graph.edges[self.at].len())
                .map(CheckEvent::Partition)
                .collect()
        }

        fn step(&mut self, event: CheckEvent, (): &mut ()) -> Vec<usize> {
            let CheckEvent::Partition(edge) = event else {
                unreachable!("the toy alphabet is edge indices");
            };
            self.at = self.graph.edges[self.at][edge];
            if self.graph.terminal.contains(&self.at) {
                vec![self.at]
            } else {
                Vec::new()
            }
        }

        fn fingerprint(&self, _: &SymmetryGroup, (): &mut ()) -> u64 {
            (self.at as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
    }

    /// Everything a report says, in a form two reports compare by.
    type Summary = (u64, u64, u64, bool, Vec<(Vec<usize>, Option<Vec<usize>>)>);

    fn run(graph: &Arc<Graph>, depth: u8, threads: usize, max_traced: usize) -> Summary {
        run_until(graph, depth, threads, max_traced, None)
    }

    fn run_until(
        graph: &Arc<Graph>,
        depth: u8,
        threads: usize,
        max_traced: usize,
        deadline: Option<Instant>,
    ) -> Summary {
        let root = Toy {
            at: 0,
            graph: Arc::clone(graph),
        };
        let config = EngineConfig {
            depth,
            threads,
            symmetry: SymmetryGroup::trivial(0),
            deadline,
            max_traced,
        };
        let report = explore(root, &config);
        let edge = |event: CheckEvent| match event {
            CheckEvent::Partition(edge) => edge,
            other => panic!("not a toy event: {other}"),
        };
        let hits = report
            .hits
            .into_iter()
            .map(|rec| {
                let trace = rec.trace.map(|t| t.into_iter().map(edge).collect());
                (rec.hits, trace)
            })
            .collect();
        (
            report.states_explored,
            report.dedup_hits,
            report.transitions,
            report.truncated,
            hits,
        )
    }

    /// Thirty parents in one layer all generate node 100; each also
    /// generates a node of its own and steps back to the root.
    fn fan_in() -> Arc<Graph> {
        let mut edges = vec![Vec::new(); 1000];
        edges[0] = (1..=30).collect();
        for (parent, out) in edges.iter_mut().enumerate().skip(1).take(30) {
            *out = vec![100, 100 + parent, 0];
        }
        edges[100] = vec![999];
        Arc::new(Graph {
            edges,
            terminal: vec![999],
        })
    }

    #[test]
    fn shared_child_hangs_off_its_first_generator() {
        for threads in [1, 2, 4] {
            let (states, dedup, transitions, truncated, hits) = run(&fan_in(), 3, threads, 8);
            // Root, thirty parents, node 100 and thirty private nodes.
            assert_eq!(states, 62, "{threads} threads");
            // Depth 1: 30. Depth 2: 30 × 3. Depth 3: node 100's one edge.
            assert_eq!(transitions, 121);
            // Twenty-nine later generators of node 100 and thirty steps
            // back to the root.
            assert_eq!(dedup, 59);
            assert!(!truncated);
            // Whichever worker's probe owned node 100, its parent is
            // node 1: job 0, event 0.
            assert_eq!(hits, vec![(vec![999], Some(vec![0, 0, 0]))]);
        }
    }

    #[test]
    fn hits_come_out_in_canonical_order_and_past_the_cap_untraced() {
        // Three parents, each with a terminal edge either side of a
        // live one.
        let mut edges = vec![Vec::new(); 40];
        edges[0] = vec![1, 2, 3];
        for (parent, out) in edges.iter_mut().enumerate().skip(1).take(3) {
            *out = vec![10 * parent, 5, 10 * parent + 1];
        }
        let graph = Arc::new(Graph {
            edges,
            terminal: vec![10, 11, 20, 21, 30, 31],
        });
        for threads in [1, 2, 4] {
            let (states, _, transitions, _, hits) = run(&graph, 2, threads, 4);
            assert_eq!((states, transitions), (5, 12));
            assert_eq!(
                hits,
                vec![
                    (vec![10], Some(vec![0, 0])),
                    (vec![11], Some(vec![0, 2])),
                    (vec![20], Some(vec![1, 0])),
                    (vec![21], Some(vec![1, 2])),
                    (vec![30], None),
                    (vec![31], None),
                ],
                "{threads} threads"
            );
        }
    }

    /// `nodes` nodes, five edges each, a few of them terminal.
    fn tangle(nodes: usize) -> Arc<Graph> {
        let edges = (0..nodes)
            .map(|node| {
                (0..5)
                    .map(|k| (node * 7 + k * 13 + node * node % 31) % nodes)
                    .collect()
            })
            .collect();
        Arc::new(Graph {
            edges,
            terminal: (1..nodes.min(400)).filter(|node| node % 10 == 9).collect(),
        })
    }

    #[test]
    fn thread_count_changes_nothing_in_a_report() {
        let graph = tangle(200);
        let base = run(&graph, 6, 1, 16);
        assert!(base.0 > 50 && base.4.len() > 16, "the graph is too tame");
        for threads in [2, 4] {
            assert_eq!(run(&graph, 6, threads, 16), base, "{threads} threads");
        }
    }

    #[test]
    fn a_truncated_run_is_still_well_formed() {
        // Out of time at the first poll, which is the first transition.
        let graph = tangle(20_000);
        let spent = Instant::now() - Duration::from_millis(1);
        let (states, dedup, transitions, truncated, hits) =
            run_until(&graph, 8, 4, 16, Some(spent));
        assert!(truncated);
        assert_eq!((states, dedup, transitions), (1, 0, 1));
        assert!(hits.is_empty());

        // Out of time somewhere inside a search of ~10^5 transitions.
        let full = run(&graph, 8, 1, usize::MAX);
        assert!(full.2 > 50_000, "the graph is too small to outlast 200 µs");
        let soon = Instant::now() + Duration::from_micros(200);
        let (states, dedup, transitions, truncated, hits) =
            run_until(&graph, 8, 2, usize::MAX, Some(soon));
        assert!(truncated);
        assert!(states <= full.0 && dedup <= full.1 && transitions <= full.2);
        for (found, trace) in &hits {
            let trace = trace.as_ref().expect("every hit under the cap is traced");
            let end = trace.iter().fold(0, |at, &edge| graph.edges[at][edge]);
            assert_eq!(found, &vec![end], "the trace replays to its hit");
        }
    }

    #[test]
    fn packed_event_roundtrips() {
        for event in [
            CheckEvent::Crash(dynvote_types::SiteId::new(7)),
            CheckEvent::Repair(dynvote_types::SiteId::new(0)),
            CheckEvent::Recover(dynvote_types::SiteId::new(15)),
            CheckEvent::Partition(3),
            CheckEvent::Heal,
            CheckEvent::Read(dynvote_types::SiteId::new(2)),
            CheckEvent::Write(dynvote_types::SiteId::new(31)),
        ] {
            assert_eq!(PackedEvent::pack(event).unpack(), event);
        }
    }

    #[test]
    fn sharded_seen_dominance() {
        let seen = ShardedSeen::new();
        assert_eq!(seen.probe(42, 5), Probe::New);
        assert_eq!(seen.probe(42, 5), Probe::Tied);
        assert_eq!(seen.probe(42, 4), Probe::Covered);
        assert_eq!(seen.probe(42, 6), Probe::New, "deeper visit re-owns");
        assert_eq!(seen.probe(42, 5), Probe::Covered);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen.probe(7, 1), Probe::New);
        assert_eq!(seen.len(), 2);
    }
}
