//! In-memory spans recorded by the benchmark around its calls into each
//! layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans of one workload repetition share a run id.
//! Spans are kept in memory and written out once, at the end of the run;
//! a layer's self time is its span minus the spans of its children.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The repetition the span belongs to.
    pub run: u32,
    /// Index of the span in the tracer.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `transport.deliver`.
    pub name: &'static str,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; costs one branch per boundary when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Starts a new repetition: later spans carry the next run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.offset_ns(Instant::now());
        self.spans.push(Span {
            run: self.run,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.offset_ns(Instant::now());
        result
    }

    /// Records an already finished span as a child of the open span (used
    /// for the deliveries the timing transport observed).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            run: self.run,
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.push(span);
    }

    /// Self time of every span, in recording order: its
    /// duration minus the durations of its children (children never
    /// overlap: the benchmark is one thread of control).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations, in seconds, of the spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self times, in seconds, of the spans named `name`.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| own[span.id] as f64 * 1e-9)
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"run\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.run, span.id, span.name, span.start_ns, span.end_ns, own[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tracer = Tracer::on();
        tracer.span("outer", |tracer| {
            tracer.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let now = Instant::now();
            tracer.record("leaf", now, now);
        });
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = tracer.self_times_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |_| 7), 7);
        assert!(off.spans.is_empty());
    }
}
