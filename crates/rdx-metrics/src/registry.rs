//! The collectors, always compiled in.
//!
//! One process-global registry interns counters and timers by name.
//! Handles borrow leaked cells (`&'static AtomicU64`), so the lock is
//! taken by each name lookup ([`counter`], [`span`], the explicit
//! records) and by snapshot/reset — never on the increment path of a
//! cached [`Counter`]. That lookup is why call sites sit per chunk,
//! per frame or per finished profile, never per access or event. The
//! number of distinct metric names is small and static, so the leak is
//! bounded.

use crate::snapshot::{Snapshot, TimerStat};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Default)]
struct TimerCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl TimerCell {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<&'static str, &'static AtomicU64>>,
    timers: Mutex<HashMap<String, &'static TimerCell>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A handle on a named monotonically increasing counter.
///
/// Cheap to copy; increments are single relaxed atomic adds. Cache the
/// handle outside loops to skip the name lookup.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The counter's current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Returns the counter registered under `name`, creating it at zero on
/// first use.
#[must_use]
pub fn counter(name: &'static str) -> Counter {
    let mut map = registry().counters.lock().expect("counter registry");
    Counter(
        map.entry(name)
            .or_insert_with(|| &*Box::leak(Box::new(AtomicU64::new(0)))),
    )
}

fn timer_cell(name: &str) -> &'static TimerCell {
    let mut map = registry().timers.lock().expect("timer registry");
    if let Some(cell) = map.get(name) {
        return cell;
    }
    let cell: &'static TimerCell = Box::leak(Box::new(TimerCell {
        min_ns: AtomicU64::new(u64::MAX),
        ..TimerCell::default()
    }));
    map.insert(name.to_owned(), cell);
    cell
}

/// Records one duration under timer `name` (no span nesting applied).
pub fn record_duration_ns(name: &'static str, ns: u64) {
    timer_cell(name).record(ns);
}

/// Records one unitless value under `name` — timers double as generic
/// count/total/min/max distributions (queue depths, batch sizes, …).
pub fn record_value(name: &'static str, value: u64) {
    timer_cell(name).record(value);
}

/// RAII guard of an open [`span`]; records its elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    cell: &'static TimerCell,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.cell.record(ns);
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Opens a timed span named `name`.
///
/// The span records wall time from this call until the returned guard
/// drops, under the `/`-joined path of all spans open on this thread
/// (`span("a")` then `span("b")` records timer `a/b`). Spans on
/// different threads are independent.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    SpanGuard {
        cell: timer_cell(&path),
        start: Instant::now(),
    }
}

/// Captures every counter and timer into a sorted [`Snapshot`].
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .lock()
        .expect("counter registry")
        .iter()
        .map(|(name, cell)| ((*name).to_owned(), cell.load(Ordering::Relaxed)))
        .collect();
    counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut timers: Vec<TimerStat> = reg
        .timers
        .lock()
        .expect("timer registry")
        .iter()
        .filter(|(_, cell)| cell.count.load(Ordering::Relaxed) > 0)
        .map(|(name, cell)| TimerStat {
            name: name.clone(),
            count: cell.count.load(Ordering::Relaxed),
            total_ns: cell.total_ns.load(Ordering::Relaxed),
            min_ns: cell.min_ns.load(Ordering::Relaxed),
            max_ns: cell.max_ns.load(Ordering::Relaxed),
        })
        .collect();
    timers.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    Snapshot { counters, timers }
}

/// Zeroes every counter and timer. Existing [`Counter`] handles stay
/// valid and keep counting into the zeroed cells.
pub fn reset() {
    let reg = registry();
    for cell in reg.counters.lock().expect("counter registry").values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.timers.lock().expect("timer registry").values() {
        cell.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that assert on absolute
    /// values (or reset it) must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("serial test lock")
    }

    #[test]
    fn counters_accumulate_and_intern() {
        let _guard = serial();
        reset();
        let a = counter("test.reg.a");
        let b = counter("test.reg.a");
        a.add(2);
        b.incr();
        assert_eq!(counter("test.reg.a").get(), 3);
        assert_eq!(snapshot().counter("test.reg.a"), Some(3));
    }

    #[test]
    fn spans_nest_into_paths() {
        let _guard = serial();
        reset();
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let _second = span("inner");
        }
        let snap = snapshot();
        assert_eq!(snap.timer("test.outer").unwrap().count, 1);
        let inner = snap.timer("test.outer/inner").unwrap();
        assert_eq!(inner.count, 2);
        assert!(inner.total_ns >= inner.max_ns);
        assert!(inner.min_ns <= inner.max_ns);
        let outer = snap.timer("test.outer").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn explicit_durations_record() {
        let _guard = serial();
        reset();
        record_duration_ns("test.explicit", 5);
        record_duration_ns("test.explicit", 11);
        let t = snapshot();
        let t = t.timer("test.explicit").unwrap();
        assert_eq!((t.count, t.total_ns, t.min_ns, t.max_ns), (2, 16, 5, 11));
        assert_eq!(t.mean_ns(), 8);
    }

    #[test]
    fn reset_zeroes_but_handles_survive() {
        let _guard = serial();
        let c = counter("test.reset");
        c.add(9);
        reset();
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(snapshot().counter("test.reset"), Some(1));
        // zeroed timers drop out of snapshots entirely
        record_duration_ns("test.reset.timer", 1);
        reset();
        assert!(snapshot().timer("test.reset.timer").is_none());
    }

    #[test]
    fn counters_sum_across_threads() {
        let _guard = serial();
        reset();
        let c = counter("test.threads");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
