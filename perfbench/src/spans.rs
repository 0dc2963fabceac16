//! The benchmark's own span recorder. Spans are opened around calls into
//! the library's public functions only — nothing inside the program is
//! instrumented — kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval of host time, in seconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `search.optimize`.
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Times calls and, when enabled, records each as a [`Span`]. A disabled
/// recorder still returns the elapsed seconds (the end-to-end metrics need
/// them) but keeps nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span that encloses the spans recorded until [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let start_s = self.now_s();
            self.spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_s = self.now_s();
        }
    }

    /// Runs `f`, returning its result and its host seconds; records a span
    /// named `name` under the innermost open span when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        if self.enabled {
            let end_s = self.now_s();
            self.spans.push(Span {
                name,
                start_s: end_s - elapsed,
                end_s,
                parent: self.open.last().copied(),
            });
        }
        (out, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer over the spans recorded since index `from`: each
    /// span's duration minus the part its direct children cover.
    pub fn self_time_by_layer(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans[from..] {
            if let Some(p) = span.parent {
                child_s[p] += span.duration_s();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(from) {
            *by_layer.entry(span.layer()).or_insert(0.0) += span.duration_s() - child_s[i];
        }
        by_layer
    }

    /// The spans as one JSON document (`name`, `start_s`, `end_s`,
    /// `parent`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{}}}",
                    s.name,
                    s.start_s,
                    s.end_s,
                    s.parent
                        .map_or_else(|| "null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}
