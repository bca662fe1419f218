//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions. Each span carries its name, start, end,
//! parent and the id of the operation (request) it belongs to. They stay
//! in memory and are written once, at the end, as Chrome trace-event
//! JSON. A layer's self time is its span's duration minus the part its
//! child spans cover.
//!
//! Two span flavours sit beside the plain ones:
//! - *reported* spans are children whose duration a crate reported
//!   itself (the engine report's per-stage walls inside a service
//!   request); they are laid end to end from the parent's start;
//! - *probe* spans time a separate call that the operation also makes
//!   internally (for example the race checker inside `run_checks`). They
//!   have no parent and stay out of the accounting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub probe: bool,
}

/// Collects spans; see the module docs.
pub struct Recorder {
    /// A disabled recorder runs the same code paths and records nothing,
    /// which is how the traced run measures its own overhead.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &str, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
            probe: false,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now();
        self.spans[id].end = end;
        Duration::from_nanos(end - self.spans[id].start)
    }

    /// Times `f` as a span under the innermost open span.
    pub fn time<T>(&mut self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Times `f` as a probe span (see the module docs).
    pub fn probe<T>(&mut self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: None,
            req,
            probe: true,
        });
        out
    }

    /// Adds children of the closed span `parent` whose durations the
    /// program reported, end to end from the parent's start and clipped
    /// to its end.
    pub fn reported(&mut self, parent: usize, children: &[(&str, Duration)]) {
        if !self.enabled {
            return;
        }
        let (mut at, stop, req) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.req)
        };
        for (name, d) in children {
            let end = (at + d.as_nanos() as u64).min(stop);
            self.spans.push(Span {
                name: name.to_string(),
                start: at,
                end,
                parent: Some(parent),
                req,
                probe: false,
            });
            at = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds, over non-probe spans.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            if !s.probe {
                *out.entry(s.name.clone()).or_insert(0) += (s.end - s.start).saturating_sub(*c);
            }
        }
        out
    }

    /// Total time per probe span name, in nanoseconds.
    pub fn probe_times(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.probe) {
            *out.entry(s.name.clone()).or_insert(0) += s.end - s.start;
        }
        out
    }

    /// Chrome trace-event JSON: one complete ("X") event per span,
    /// probes on their own thread row.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                if s.probe { 2 } else { 1 },
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.req,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_probes() {
        let mut r = Recorder::new(true);
        let root = r.begin("op", 7);
        r.time("child", 7, || std::thread::sleep(Duration::from_millis(2)));
        r.end(root);
        r.probe("probe", 7, || ());
        let st = r.self_times();
        let total = r.spans()[root].end - r.spans()[root].start;
        assert_eq!(st["op"] + st["child"], total);
        assert!(st["child"] >= 2_000_000);
        assert!(!st.contains_key("probe"));
        assert!(r.probe_times().contains_key("probe"));
        assert_eq!(r.spans()[1].parent, Some(root));
        assert!(r.spans().iter().all(|s| s.req == 7));
    }

    #[test]
    fn reported_children_are_clipped_to_the_parent() {
        let mut r = Recorder::new(true);
        let root = r.begin("handle", 1);
        std::thread::sleep(Duration::from_millis(1));
        r.end(root);
        let long = Duration::from_secs(5);
        r.reported(root, &[("a", Duration::from_nanos(10)), ("b", long)]);
        let st = r.self_times();
        let total = r.spans()[root].end - r.spans()[root].start;
        assert_eq!(st["a"], 10);
        assert_eq!(st["a"] + st["b"], total);
        assert_eq!(st["handle"], 0);
    }

    #[test]
    fn disabled_recorder_runs_the_code_and_records_nothing() {
        let mut r = Recorder::new(false);
        let root = r.begin("op", 1);
        assert_eq!(r.time("child", 1, || 5), 5);
        assert_eq!(r.probe("probe", 1, || 6), 6);
        r.end(root);
        r.reported(root, &[("a", Duration::from_nanos(3))]);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn chrome_json_is_valid_json() {
        let mut r = Recorder::new(true);
        let root = r.begin("op \"quoted\"", 1);
        r.time("child", 1, || ());
        r.end(root);
        let v = proto::json::Value::parse(&r.chrome_json()).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
    }
}
