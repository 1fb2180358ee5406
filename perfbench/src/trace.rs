//! Benchmark-side spans around calls into the program's layers.
//!
//! Each span records its name, start, end, parent span and the run (job) it
//! belongs to. Spans stay in memory and are written as JSON lines when the
//! benchmark ends. A span's self time is its duration minus the time its
//! child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    run: u64,
}

/// An in-memory span recorder; records nothing when disabled, but still
/// returns each timed call's duration.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` belonging to `run`; returns its
    /// result and wall duration in seconds. Spans opened inside `f` (through
    /// the recorder handed to it) become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        run: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
                run,
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.open.push(i);
        }
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end = end;
        }
        (out, end - start)
    }

    /// Self time of every recorded span, in recording order.
    fn all_self_times(&self) -> Vec<f64> {
        let mut self_time: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_time[p] -= span.end - span.start;
            }
        }
        self_time
    }

    /// Self time of every recorded span named `name`, in seconds.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.all_self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_time = self.all_self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                s.name, s.run, s.start, s.end, self_time[i]
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        let ((), outer) = rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let inner = rec.self_times("inner")[0];
        let outer_self = rec.self_times("outer")[0];
        assert!(inner >= 0.005);
        assert!((outer_self + inner - outer).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_still_times() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.self_times("x").is_empty());
    }
}
