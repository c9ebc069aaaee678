//! Spans and counter scrapes of a traced run, held in memory and
//! written to `out/trace-<workload>.json` when the workload ends.
//!
//! Every span is recorded from the benchmark's side of a call into a
//! layer; spans inside the daemon are a later change (ROADMAP item 1).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one; 0 for the root.
    pub parent: u64,
    /// What the spans of one request share; 0 outside requests.
    pub correlation: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Recorded {
    spans: Vec<Span>,
    counters: Vec<(String, u64, BTreeMap<String, f64>)>,
    next_id: u64,
}

/// The recorder. A disabled tracer (an untraced run) drops everything.
pub struct Tracer {
    origin: Instant,
    recorded: Option<Mutex<Recorded>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recorded: enabled.then(|| Mutex::new(Recorded::default())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.recorded.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        correlation: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let Some(recorded) = &self.recorded else {
            return 0;
        };
        let mut recorded = recorded.lock().expect("tracer poisoned");
        recorded.next_id += 1;
        let id = recorded.next_id;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        recorded.spans.push(Span {
            name,
            id,
            parent,
            correlation,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose end is not known yet: reserves its id so
    /// children can name it, and records it when `close` is called.
    pub fn open(&self, name: &'static str, parent: u64) -> OpenSpan {
        let id = match &self.recorded {
            Some(recorded) => {
                let mut recorded = recorded.lock().expect("tracer poisoned");
                recorded.next_id += 1;
                recorded.next_id
            }
            None => 0,
        };
        OpenSpan {
            name,
            id,
            parent,
            start: Instant::now(),
        }
    }

    pub fn close(&self, span: OpenSpan) {
        if let Some(recorded) = &self.recorded {
            let (start_ns, end_ns) = (self.ns(span.start), self.ns(Instant::now()));
            recorded.lock().expect("tracer poisoned").spans.push(Span {
                name: span.name,
                id: span.id,
                parent: span.parent,
                correlation: 0,
                start_ns,
                end_ns,
            });
        }
    }

    /// A counter scrape at a boundary (`Status`, `/proc`).
    pub fn counters(&self, at: &str, values: BTreeMap<String, f64>) {
        if let Some(recorded) = &self.recorded {
            let now = self.ns(Instant::now());
            recorded
                .lock()
                .expect("tracer poisoned")
                .counters
                .push((at.to_string(), now, values));
        }
    }

    /// Self time per span name, as (spans, nanoseconds): each span's
    /// duration minus the part of that interval its children cover.
    /// Pipelined requests overlap one another, so the children's
    /// intervals are merged before they are subtracted.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let Some(recorded) = &self.recorded else {
            return by_name;
        };
        let recorded = recorded.lock().expect("tracer poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &recorded.spans {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
        for span in &recorded.spans {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end_ns - span.start_ns) - covered;
        }
        by_name
    }

    /// Writes the trace file. Nothing to do for a disabled tracer.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let Some(recorded) = &self.recorded else {
            return Ok(());
        };
        let self_time = Json::Obj(
            self.self_time_ns()
                .into_iter()
                .map(|(name, (count, ns))| {
                    let entry = Json::obj([
                        ("count", Json::Num(count as f64)),
                        ("self_ns", Json::Num(ns as f64)),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        );
        let recorded = recorded.lock().expect("tracer poisoned");
        // One span per line: the file of a peak phase holds a few
        // hundred thousand, and a line-oriented file can still be cut.
        let mut out = String::with_capacity(recorded.spans.len() * 96 + 4096);
        out.push_str(&format!(
            "{{\"workload\": \"{workload}\", \"unit\": \"ns since trace start\",\n\"self_time\": {},\n\"counters\": [\n",
            self_time.render()
        ));
        for (i, (at, now, values)) in recorded.counters.iter().enumerate() {
            let values = Json::Obj(
                values
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            );
            let line = Json::obj([
                ("at", Json::str(at)),
                ("t", Json::Num(*now as f64)),
                ("values", values),
            ]);
            out.push_str(&line.render());
            out.push_str(if i + 1 < recorded.counters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, span) in recorded.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"corr\": {}, \"start\": {}, \"end\": {}}}",
                span.name, span.id, span.parent, span.correlation, span.start_ns, span.end_ns
            ));
            out.push_str(if i + 1 < recorded.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

pub struct OpenSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
}

impl OpenSpan {
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let request = tracer.span("request", 0, 7, at(0), at(10));
        tracer.span("submit", request, 7, at(0), at(2));
        tracer.span("await", request, 7, at(2), at(9));
        let own = tracer.self_time_ns();
        assert_eq!(own["request"], (1, 1_000_000));
        assert_eq!(own["submit"], (1, 2_000_000));
        assert_eq!(own["await"], (1, 7_000_000));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let phase = tracer.span("peak", 0, 0, at(0), at(20));
        // Two pipelined requests cover 2..12 between them; a third
        // runs past the end of its parent and counts up to it only.
        tracer.span("request", phase, 1, at(2), at(10));
        tracer.span("request", phase, 2, at(4), at(12));
        tracer.span("request", phase, 3, at(18), at(25));
        assert_eq!(tracer.self_time_ns()["peak"], (1, 8_000_000));
    }

    #[test]
    fn written_trace_parses_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        let root = tracer.open("workload", 0);
        let t = Instant::now();
        tracer.span(
            "kv.encode_kv",
            root.id(),
            0,
            t,
            t + Duration::from_micros(5),
        );
        tracer.counters(
            "phase:serial",
            BTreeMap::from([("writes_ok".to_string(), 3.0)]),
        );
        tracer.close(root);
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        tracer.write(&path, "put_small").unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("counters").and_then(Json::as_arr).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, 0, t, t), 0);
        assert!(off.self_time_ns().is_empty());
    }
}
