//! In-memory span recorder, driven from the benchmark's own call sites.
//!
//! Every span has a name, a start and end (ns since the tracer's epoch),
//! the span that caused it, and a request id (one oracle test, one
//! attribution rerun, one SQL statement). Spans stay in memory; the
//! workload loop folds each round's spans into per-name self time and
//! writes the spans of one round to a JSONL file when the run ends.
//!
//! Self time of a span is its duration minus the durations of its direct
//! children, so the self times of one round add up to the round's wall
//! time exactly.
//!
//! A disabled tracer records nothing: `begin` returns a dummy id and `end`
//! is a no-op, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the current round, or `NONE`.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub req: u64,
    /// Sum of the durations of the direct children.
    pub child_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            child_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        let (parent, dur) = (span.parent, end_ns - span.start_ns);
        if parent != NONE {
            self.spans[parent].child_ns += dur;
        }
    }

    /// Record a finished span measured elsewhere (`start_ns`/`end_ns` from
    /// [`Tracer::stamp`]) as a child of `parent`. Used where the engine
    /// does the work inside a call the benchmark cannot split: the
    /// duration was measured by a separate call, and the parent's self
    /// time shrinks by it.
    pub fn record_child(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            child_ns: 0,
        });
        if parent != NONE {
            self.spans[parent].child_ns += end_ns - start_ns;
        }
    }

    /// Current time on the tracer's clock (0 when disabled).
    pub fn stamp(&self) -> u64 {
        if self.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    /// Take this round's spans, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "round ended with open spans");
        std::mem::take(&mut self.spans)
    }
}

/// Per-name totals of one or more rounds' spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub busy_ns: BTreeMap<&'static str, u64>,
    pub max_ns: BTreeMap<&'static str, u64>,
}

impl LayerTimes {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            *self.self_ns.entry(s.name).or_default() += dur.saturating_sub(s.child_ns);
            *self.busy_ns.entry(s.name).or_default() += dur;
            let m = self.max_ns.entry(s.name).or_default();
            *m = (*m).max(dur);
        }
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    pub fn busy_ns(&self, name: &str) -> u64 {
        self.busy_ns.get(name).copied().unwrap_or(0)
    }

    pub fn max_ns(&self, name: &str) -> u64 {
        self.max_ns.get(name).copied().unwrap_or(0)
    }
}

/// Render spans as JSONL: one object per span with its id and parent id.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name,
            s.req,
            s.start_ns,
            s.end_ns,
            (s.end_ns - s.start_ns).saturating_sub(s.child_ns)
        );
    }
    out
}
