//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, start, end, the span that caused it and the step or
//! request id it belongs to. Spans are kept in memory and written once, at
//! the end of a traced run, as Chrome trace-event JSON: complete (`"X"`)
//! events with microsecond timestamps, the layout
//! `dcf_device::chrome_trace_json` uses for step statistics.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `"runtime.run"`.
    pub name: &'static str,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// End, µs since the recorder's epoch.
    pub end_us: f64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Step or request id.
    pub id: u64,
    /// Recording thread's track (0 = client or generator, 1 = collector).
    pub track: u32,
}

/// In-memory span store shared by the load threads. A disabled recorder
/// records nothing.
#[derive(Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Option<Arc<Mutex<Vec<Span>>>>,
}

impl Spans {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans { epoch: Instant::now(), spans: enabled.then(|| Arc::new(Mutex::new(Vec::new()))) }
    }

    /// Records a span from `start` to `end`; returns its index for use as a
    /// parent (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
        track: u32,
    ) -> Option<usize> {
        let spans = self.spans.as_ref()?;
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut v = spans.lock().expect("span store poisoned");
        v.push(Span { name, start_us: us(start), end_us: us(end), parent, id, track });
        Some(v.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        let start = Instant::now();
        let r = f();
        let idx = self.record(name, start, Instant::now(), parent, id, 0);
        (r, idx)
    }

    /// A copy of every recorded span.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span store poisoned").clone())
            .unwrap_or_default()
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn chrome_json(&self, process: &str) -> String {
        let spans = self.snapshot();
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.track,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.name,
                s.id
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let s = Spans::new(false);
        let (v, idx) = s.time("x", None, 1, || 5);
        assert_eq!((v, idx), (5, None));
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn spans_link_to_parents_and_render() {
        let s = Spans::new(true);
        let (_, root) = s.time("bench.step", None, 7, || ());
        let (_, child) = s.time("runtime.run", root, 7, || ());
        let spans = s.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child.unwrap()].parent, root);
        let json = s.chrome_json("perfbench");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"runtime.run\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.ends_with("]}"));
    }
}
