//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer's public functions.
//!
//! A span is `(name, start, end, parent, rep)` plus the allocations made
//! while it was open. Spans are kept in memory and written out when the
//! benchmark ends. A span's self time is its duration minus its children's.
//! With the tracer off, `begin` and `end` cost one branch each, so the
//! traced and the untraced run execute the same workload code.

use crate::{alloc, clock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which timed repetition the span belongs to.
    pub rep: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: clock::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording (and allocation counting) on or off for the next
    /// repetition, which gets identifier `rep`.
    pub fn set(&mut self, on: bool, rep: u32) {
        assert!(self.stack.is_empty(), "span left open across repetitions");
        self.on = on;
        self.rep = rep;
        alloc::arm(on);
    }

    fn ns(&self) -> u64 {
        clock::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested in whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let (allocs, alloc_bytes) = alloc::snapshot();
        let idx = self.spans.len();
        let start_ns = self.ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
            allocs,
            alloc_bytes,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.ns();
        let (allocs, alloc_bytes) = alloc::snapshot();
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }
}
