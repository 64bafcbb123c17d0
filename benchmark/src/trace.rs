//! Spans recorded by the benchmark's own code around each public call
//! into the simulator (choosing-metrics §4). Kept in memory; written out
//! once, when the traced pass ends. With the tracer off, `begin`/`end`
//! still time the interval (the untraced pass needs `setup_s` and
//! `wall_s`) but record nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.slice`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work done inside the span in the layer's own unit (simulated
    /// cycles for `sim.*`, runs for `fleet.*`, 1 otherwise).
    pub count: u64,
}

/// An open interval; hand it back to [`Tracer::end`].
#[derive(Debug)]
pub struct Token {
    start: Instant,
    index: Option<usize>,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that times but records nothing (the untraced pass).
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A recording tracer (the traced pass).
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Is this the traced pass?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Token {
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                count: 1,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        if let Some(i) = index {
            self.spans[i].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        Token { start, index }
    }

    /// Close `token`'s span; returns its duration in seconds.
    pub fn end(&mut self, token: Token) -> f64 {
        self.end_counted(token, 1)
    }

    /// As [`Tracer::end`], recording how much work the span covered.
    pub fn end_counted(&mut self, token: Token, count: u64) -> f64 {
        let now = Instant::now();
        if let Some(i) = token.index {
            assert_eq!(self.open.pop(), Some(i), "spans must nest");
            self.spans[i].end_ns = (now - self.epoch).as_nanos() as u64;
            self.spans[i].count = count;
        }
        (now - token.start).as_secs_f64()
    }

    /// How many spans are open; see [`Tracer::unwind_to`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened since [`Tracer::depth`] returned `depth` —
    /// for the caller that caught a panic thrown between `begin` and `end`.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        while self.open.len() > depth {
            let i = self.open.pop().expect("len checked");
            self.spans[i].end_ns = now;
        }
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every closed span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The spans as a JSON document: `{"workload": .., "spans": [..]}`,
    /// one span per line.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"time_base\": \"host ns since trace start\", \"spans\": [\n",
            crate::json::quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"workload\": {}, \"count\": {}}}",
                crate::json::quote(s.name),
                s.start_ns,
                s.end_ns,
                crate::json::quote(workload),
                s.count
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::on();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = t.end_counted(inner, 40);
        let outer_s = t.end(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.002);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count, 40);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations_s("inner").len(), 1);
    }

    #[test]
    fn unwinding_closes_abandoned_spans() {
        let mut t = Tracer::on();
        let outer = t.begin("outer");
        let depth = t.depth();
        let _lost = t.begin("lost");
        let _lost_too = t.begin("lost.child");
        t.unwind_to(depth);
        t.end(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::off();
        let token = t.begin("x");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(t.end(token) >= 0.001);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn span_file_parses_back() {
        let mut t = Tracer::on();
        let a = t.begin("topology.build");
        let b = t.begin("routing.table_build");
        t.end(b);
        t.end(a);
        let doc = crate::json::parse(&t.to_json("low_load")).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).expect("array");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("name").and_then(|n| n.as_str()),
            Some("routing.table_build")
        );
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert!(spans[0].get("parent").is_some_and(|p| p.is_null()));
    }
}
