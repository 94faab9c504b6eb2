//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once at the end of a traced run.
//!
//! A disabled tracer costs one branch per span, so the untraced and
//! traced runs share one code path.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers (`world`, `start`, `tick`, `run_det`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f();
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Opens a span that stays open until [`Tracer::close`]; spans
    /// opened meanwhile nest inside it.
    pub fn open(&mut self, name: &'static str) {
        if self.enabled {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            self.open.push(id);
        }
    }

    /// Closes the innermost span opened with [`Tracer::open`].
    pub fn close(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is a
    /// span's duration minus the time its direct children cover. Sorted
    /// by name.
    #[must_use]
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect()
    }

    /// The spans as Chrome `trace_event` entries (complete events, one
    /// lane), loadable in Perfetto.
    #[must_use]
    pub fn chrome_events(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        t.open("b");
        t.close();
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", || {});
        t.open("round");
        t.span("tick", || std::hint::black_box(0));
        t.span("tick", || std::hint::black_box(0));
        t.close();
        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        let times = t.self_times();
        let round = times.iter().find(|e| e.0 == "round").unwrap();
        let ticks = times.iter().find(|e| e.0 == "tick").unwrap();
        assert_eq!(ticks.1, 2);
        assert_eq!(
            round.2 - round.3,
            ticks.2,
            "children leave the parent's self time"
        );
        assert!(t.chrome_events().contains("\"parent\":1"));
    }
}
