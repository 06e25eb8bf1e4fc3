//! In-memory spans around the public calls the benchmark makes.
//!
//! A span records a name, its start and end relative to the run's
//! epoch, the span that caused it, the operation it belongs to, and the
//! thread that ran it. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A tracer that is off
//! records nothing; [`Tracer::span`] still times the call, because the
//! untraced run needs per-operation latencies.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in its tracer.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Which thread ran it (0 = main).
    pub thread: u32,
    /// Layer call name, e.g. `ingest.profile_rdxt`.
    pub name: &'static str,
    /// Start, relative to the epoch.
    pub start: Duration,
    /// End, relative to the epoch.
    pub end: Duration,
}

impl Span {
    /// Length of the span in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `thread`; it records only when `on`.
    #[must_use]
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// The instant span times are relative to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether this tracer records.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span and returns its id (`None` when off). Close it
    /// with [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            id,
            parent,
            op,
            thread: self.thread,
            name,
            start: now,
            end: now,
        });
        Some(id)
    }

    /// Closes a span opened by [`open`](Tracer::open) and returns its
    /// length in seconds (0 when off).
    pub fn close(&mut self, id: Option<u32>) -> f64 {
        let Some(id) = id else { return 0.0 };
        let now = self.epoch.elapsed();
        let span = &mut self.spans[id as usize];
        span.end = now;
        span.secs()
    }

    /// Runs `f` inside a span and returns its result with its length
    /// in seconds, measured whether or not the tracer records.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, op);
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (r, secs)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans into this one, renumbering their
    /// ids so parents still resolve and tagging their operation ids
    /// with `op_tag` (in the top byte) so they stay distinct.
    pub fn absorb(&mut self, other: Tracer, op_tag: u64) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s.op |= op_tag << 56;
            s
        }));
    }

    /// Total seconds of spans whose parent is a root span: the public
    /// calls made inside each operation.
    #[must_use]
    pub fn call_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p as usize].parent.is_none())
            })
            .map(Span::secs)
            .sum()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"thread\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                parent,
                s.op,
                s.thread,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}
