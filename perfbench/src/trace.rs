//! In-memory spans around the benchmark's calls into the program's layers.
//!
//! A span records a name, host start and end, the enclosing span and the
//! repetition ("run") it belongs to, plus any counts attached while it was
//! open.  Spans stay in memory until the benchmark ends and are then
//! written out as JSON lines.  With tracing off, [`Tracer::span`] only calls
//! its closure, so untraced repetitions pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or, after a panic, force-closed) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name, e.g. `sim.run_for`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub run: u32,
    /// Counts attached while the span was the innermost open one.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Host nanoseconds between start and end.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, initially recording iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off and starts repetition `run`.  Spans left
    /// open by a panic are closed now.
    pub fn start_run(&mut self, run: u32, on: bool) {
        let now = self.now_ns();
        for i in self.open.drain(..) {
            self.spans[i].end_ns = now;
        }
        self.run = run;
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            counts: Vec::new(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Attaches a count to the innermost open span (no-op when off).
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].counts.push((key, value));
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration (ns) and summed count `key` over spans called `name`.
    pub fn total(&self, name: &str, key: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| {
                let k: u64 = s
                    .counts
                    .iter()
                    .filter(|(n, _)| *n == key)
                    .map(|p| p.1)
                    .sum();
                (d + s.dur_ns(), c + k)
            })
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((i, s), self_ns) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"parent\":{parent},\"counts\":{{{}}}}}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                counts.join(",")
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |t| t.count("n", 3));
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns());
        assert_eq!(t.total("inner", "n").1, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
