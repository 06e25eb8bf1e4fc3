//! Schedule decisions: who runs next, how far, where a fault lands.
//!
//! Every nondeterministic decision a real execution would leave to the
//! OS scheduler is funneled through one interface: [`Picker::pick`],
//! "choose one of `bound` branches". Two implementations cover the two
//! exploration modes the tentpole needs:
//!
//! * [`SeededPicker`] — decisions from a [`SplitMix64`] stream, so a
//!   64-bit seed names an entire schedule.
//! * [`RecordingPicker`] — replays a fixed choice prefix then takes
//!   branch 0, logging every `(choice, bound)`; [`explore_exhaustive`]
//!   uses the log to enumerate *all* schedules of a scenario,
//!   depth-first.
//!
//! Scenarios receive their picker as a [`SharedPicker`] so the
//! harness keeps a handle to the recorded log.

use crate::rng::SplitMix64;
use crate::Violation;
use std::sync::{Arc, Mutex};

/// One schedule decision: a branch in `0..bound` (`bound ≥ 1`).
pub trait Picker {
    /// Chooses a branch in `0..bound`.
    fn pick(&mut self, bound: usize) -> usize;
}

/// A picker handle shareable between the harness and a scenario.
pub type SharedPicker = Arc<Mutex<dyn Picker + Send>>;

/// Wraps a picker for sharing.
pub fn shared(picker: impl Picker + Send + 'static) -> SharedPicker {
    Arc::new(Mutex::new(picker))
}

/// Picks one decision from a shared picker; branch 0 if the lock is
/// poisoned (cannot happen single-threaded, and 0 keeps the schedule
/// well-defined rather than panicking inside a component).
pub(crate) fn pick_shared(picker: &SharedPicker, bound: usize) -> usize {
    match picker.lock() {
        Ok(mut p) => p.pick(bound),
        Err(_) => 0,
    }
}

/// Seed-driven schedule: every decision comes from a SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SeededPicker {
    rng: SplitMix64,
}

impl SeededPicker {
    /// The schedule named by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededPicker {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Picker for SeededPicker {
    fn pick(&mut self, bound: usize) -> usize {
        self.rng.below(bound)
    }
}

/// Replays a fixed choice prefix, then takes branch 0, logging every
/// decision point's `(choice, bound)` — the building block of
/// exhaustive DFS over the schedule tree.
#[derive(Debug)]
pub struct RecordingPicker {
    prefix: Vec<usize>,
    /// Every decision made: `(chosen branch, branching degree)`.
    pub log: Vec<(usize, usize)>,
}

impl RecordingPicker {
    /// A picker that replays `prefix` then defaults to branch 0.
    #[must_use]
    pub fn new(prefix: Vec<usize>) -> Self {
        RecordingPicker {
            prefix,
            log: Vec::new(),
        }
    }
}

impl Picker for RecordingPicker {
    fn pick(&mut self, bound: usize) -> usize {
        let depth = self.log.len();
        let choice = match self.prefix.get(depth) {
            Some(&c) => c.min(bound.saturating_sub(1)),
            None => 0,
        };
        self.log.push((choice, bound));
        choice
    }
}

/// Depth-first exhaustive exploration of a scenario's schedule tree.
///
/// `run` executes the scenario once under the given picker; the
/// recorded branching degrees spawn sibling schedules until the tree
/// is exhausted or `limit` schedules have run (the return value says
/// how many ran). Scenario determinism is required: the same choice
/// prefix must reach the same decision points.
///
/// # Errors
///
/// The first [`Violation`] any schedule produces.
pub fn explore_exhaustive(
    limit: usize,
    mut run: impl FnMut(SharedPicker) -> Result<(), Violation>,
) -> Result<usize, Violation> {
    let mut pending: Vec<Vec<usize>> = vec![Vec::new()];
    let mut executed = 0usize;
    while let Some(prefix) = pending.pop() {
        if executed >= limit {
            break;
        }
        let prefix_len = prefix.len();
        let recorder = Arc::new(Mutex::new(RecordingPicker::new(prefix)));
        run(recorder.clone())?;
        executed += 1;
        let log = match recorder.lock() {
            Ok(r) => r.log.clone(),
            Err(_) => Vec::new(),
        };
        // Each decision point at or past the replayed prefix owns its
        // untaken siblings; queue them as new prefixes. Every schedule
        // in the tree is enumerated exactly once.
        for depth in prefix_len..log.len() {
            let (choice, bound) = log[depth];
            for alt in choice + 1..bound {
                let mut sibling: Vec<usize> = log[..depth].iter().map(|&(c, _)| c).collect();
                sibling.push(alt);
                pending.push(sibling);
            }
        }
    }
    Ok(executed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_counts_binary_tree() {
        // Three binary decisions → exactly 8 schedules.
        let mut seen = Vec::new();
        let n = explore_exhaustive(64, |picker| {
            let mut path = Vec::new();
            for _ in 0..3 {
                path.push(pick_shared(&picker, 2));
            }
            seen.push(path);
            Ok(())
        })
        .expect("no violations");
        assert_eq!(n, 8);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "every schedule distinct");
    }

    #[test]
    fn exhaustive_handles_data_dependent_branching() {
        // The second decision's degree depends on the first: the tree
        // is 1*3 + (branch0: 2) + (branch1: 1) + (branch2: 4) leaves.
        let n = explore_exhaustive(64, |picker| {
            let first = pick_shared(&picker, 3);
            let degree = match first {
                0 => 2,
                1 => 1,
                _ => 4,
            };
            let _ = pick_shared(&picker, degree);
            Ok(())
        })
        .expect("no violations");
        assert_eq!(n, 2 + 1 + 4);
    }

    #[test]
    fn exhaustive_respects_limit() {
        let n = explore_exhaustive(5, |picker| {
            for _ in 0..4 {
                let _ = pick_shared(&picker, 2);
            }
            Ok(())
        })
        .expect("no violations");
        assert_eq!(n, 5);
    }

    #[test]
    fn seeded_picker_is_replayable() {
        let mut a = SeededPicker::new(99);
        let mut b = SeededPicker::new(99);
        for bound in [2, 3, 5, 7, 2, 9] {
            assert_eq!(a.pick(bound), b.pick(bound));
        }
    }
}
