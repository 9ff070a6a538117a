//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are kept in memory around each public call the benchmark makes
//! into a layer; every layer span's parent is the span of the program
//! it works on. At the end they are written out as Chrome-trace JSON
//! and folded into per-layer self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The harness layer: time inside a program span not covered by any
/// layer call.
pub const HARNESS: &str = "bench";

struct Span {
    layer: &'static str,
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, layer: &'static str, name: String, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name` under `parent`, returning its
    /// result and the span's duration in seconds.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(layer, name.to_string(), Some(parent));
        let out = f();
        (out, self.close(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as Chrome-trace JSON (complete `X` events on one
    /// thread; `args.parent` names the parent span's index).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name.replace(['"', '\\'], "_"),
                s.layer,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Times `f`, inside a span under `parent` when recording.
pub fn timed<T>(
    rec: Option<&mut Recorder>,
    layer: &'static str,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match rec {
        Some(r) => r.time(layer, name, parent, f),
        None => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::new();
        let program = r.open(HARNESS, "P".to_string(), None);
        let ((), _) = r.time("ir", "parse_module", program, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let total = r.close(program);
        let selfs = r.self_times();
        let ir = selfs["ir"];
        assert!(ir >= 0.005);
        assert!((selfs[HARNESS] + ir - total).abs() < 1e-6);
        let json = r.chrome_trace();
        assert!(json.contains("\"name\":\"parse_module\""));
        assert!(json.contains("\"parent\":0"));
    }
}
