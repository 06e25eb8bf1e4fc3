//! Point-in-time captures of the metric registry, and their JSON form.

use std::fmt::Write as _;

/// Aggregated statistics of one named timer (a span path or an explicit
/// duration record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerStat {
    /// Timer name; span paths join nesting levels with `/`.
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all recorded durations in nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded duration in nanoseconds.
    pub min_ns: u64,
    /// Longest recorded duration in nanoseconds.
    pub max_ns: u64,
}

impl TimerStat {
    /// Mean recorded duration in nanoseconds (0 when nothing recorded).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A consistent point-in-time capture of every counter and timer.
///
/// Entries are sorted by name, so two snapshots of identical state
/// compare equal and serialize to identical JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs of all counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Statistics of all timers, sorted by name.
    pub timers: Vec<TimerStat>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a timer's statistics by name.
    #[must_use]
    pub fn timer(&self, name: &str) -> Option<&TimerStat> {
        self.timers
            .binary_search_by(|t| t.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.timers[i])
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timers.is_empty()
    }

    /// Serializes the snapshot as a self-describing JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"rdx.profiler.samples": 61},
    ///   "timers": {"profile/machine": {"count": 1, "total_ns": 9,
    ///              "min_ns": 9, "max_ns": 9, "mean_ns": 9}}
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 48 * (self.counters.len() + self.timers.len()));
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"timers\":{");
        for (i, t) in self.timers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, &t.name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
                t.count,
                t.total_ns,
                t.min_ns,
                t.max_ns,
                t.mean_ns()
            );
        }
        out.push_str("}}");
        out
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("a.count".into(), 7), ("b.count".into(), 0)],
            timers: vec![TimerStat {
                name: "outer/inner".into(),
                count: 2,
                total_ns: 10,
                min_ns: 3,
                max_ns: 7,
            }],
        }
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.counter("a.count"), Some(7));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.timer("outer/inner").unwrap().mean_ns(), 5);
        assert!(s.timer("outer").is_none());
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"counters\":{"));
        assert!(j.contains("\"a.count\":7"));
        assert!(j.contains("\"outer/inner\":{\"count\":2,\"total_ns\":10"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn json_escapes_specials() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn empty_snapshot() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert!(s.to_json().contains("\"counters\":{}"));
    }
}
