//! Static models of the affine registry kernels.
//!
//! Each builder mirrors the corresponding generator in
//! `rdx-workloads::kernels` *structurally*: same derived sizes, same
//! loop order, same lane order, same store lanes. The structural
//! consistency proptest holds these models to the generated streams
//! (access counts, store counts, footprints must match exactly), so a
//! drift in either side fails the build.

use crate::analysis::{ClassSource, KernelModel, ReuseClass};
use crate::ir::{ArrayRef, Coord, KernelIr, LoopNest, Wrap};
use rdx_workloads::Params;

fn coord(pitch: u64, bound: u64, coeffs: &[i64], offset: i64, wrap: Wrap) -> Coord {
    Coord {
        pitch,
        bound,
        coeffs: coeffs.to_vec(),
        offset,
        wrap,
    }
}

fn load(array: u64, coords: Vec<Coord>) -> ArrayRef {
    ArrayRef {
        array,
        store: false,
        coords,
    }
}

fn store(array: u64, coords: Vec<Coord>) -> ArrayRef {
    ArrayRef {
        array,
        store: true,
        coords,
    }
}

fn derived(name: &'static str, nest: LoopNest) -> KernelModel {
    KernelModel {
        ir: KernelIr {
            name,
            nests: vec![nest],
        },
        source: ClassSource::Derived,
    }
}

/// `a[i] = b[i] + s·c[i]` over three arrays: lanes load b, load c,
/// store a, advancing `i` cyclically.
#[must_use]
pub fn stream_triad(p: &Params) -> KernelModel {
    let n = (p.elements / 3).max(1);
    let idx = || coord(1, n, &[1], 0, Wrap::None);
    derived(
        "stream_triad",
        LoopNest {
            extents: vec![n],
            refs: vec![
                load(1, vec![idx()]),
                load(2, vec![idx()]),
                store(0, vec![idx()]),
            ],
        },
    )
}

/// Stride-8 sweeps with rotating offset. The eight passes form a
/// permutation of `[0, n)` in which every element occupies a fixed
/// position, so the schedule is reuse-equivalent to a pure cycle of
/// length `n` — which is what this reduced IR encodes.
#[must_use]
pub fn strided(p: &Params) -> KernelModel {
    let n = p.elements.max(8);
    derived(
        "strided",
        LoopNest {
            extents: vec![n],
            refs: vec![load(0, vec![coord(1, n, &[1], 0, Wrap::None)])],
        },
    )
}

/// Triangular sweep `0..n−1, n−1..0` (both turnaround elements are
/// touched twice per period because the generator accesses before it
/// flips direction). Two nests — an ascending and a descending sweep —
/// with closed-form interval classes: element `i` sits at position `i`
/// ascending and `2n−1−i` descending, giving per-period intervals
/// `2n−1−2i` (turn at the top) and `2i+1` (turn at the bottom).
#[must_use]
pub fn sawtooth(p: &Params) -> KernelModel {
    let n = p.elements.max(2);
    let up = LoopNest {
        extents: vec![n],
        refs: vec![load(0, vec![coord(1, n, &[1], 0, Wrap::None)])],
    };
    let down = LoopNest {
        extents: vec![n],
        refs: vec![load(0, vec![coord(1, n, &[-1], n as i64 - 1, Wrap::None)])],
    };
    let mut classes = Vec::with_capacity(2 * n as usize);
    for i in 0..n {
        classes.push(ReuseClass {
            delta: 2 * n - 1 - 2 * i,
            count: 1.0,
        });
        classes.push(ReuseClass {
            delta: 2 * i + 1,
            count: 1.0,
        });
    }
    KernelModel {
        ir: KernelIr {
            name: "sawtooth",
            nests: vec![up, down],
        },
        source: ClassSource::Explicit(classes),
    }
}

/// Triple-loop matmul, `k` innermost: lanes `A[i][k]`, `B[k][j]`,
/// `C[i][j]` load, `C[i][j]` store.
#[must_use]
pub fn matmul_naive(p: &Params) -> KernelModel {
    let n = (((p.elements / 3) as f64).sqrt() as u64).max(2);
    let row = |l: usize| {
        let mut c = [0i64; 3];
        c[l] = 1;
        c
    };
    let dim = |pitch: u64, driver: usize| coord(pitch, n, &row(driver), 0, Wrap::None);
    derived(
        "matmul_naive",
        LoopNest {
            extents: vec![n, n, n], // i, j, k
            refs: vec![
                load(0, vec![dim(n, 0), dim(1, 2)]), // A[i][k]
                load(1, vec![dim(n, 2), dim(1, 1)]), // B[k][j]
                load(2, vec![dim(n, 0), dim(1, 1)]), // C[i][j]
                store(2, vec![dim(n, 0), dim(1, 1)]),
            ],
        },
    )
}

/// 8×8-tiled matmul: six loops (ti, tj, tk, i, j, k), global indices
/// `g• = (t•·tile + •) mod n`. When `n % tile ≠ 0` the modulo folds the
/// overhang tiles back onto the front rows; the engine then counts
/// `T² ≥ n²` element slots and ignores the aliased extra reuses (a
/// documented approximation — the footprint itself stays exact).
#[must_use]
pub fn matmul_blocked(p: &Params) -> KernelModel {
    let n = (((p.elements / 3) as f64).sqrt() as u64).max(2);
    let t = 8u64.min(n);
    let tiles = n.div_ceil(t);
    // coefficient layout over (ti, tj, tk, i, j, k)
    let g = |axis: usize| {
        let mut c = [0i64; 6];
        c[axis] = t as i64;
        c[axis + 3] = 1;
        c
    };
    let dim = |pitch: u64, axis: usize| coord(pitch, n, &g(axis), 0, Wrap::Modulo);
    derived(
        "matmul_blocked",
        LoopNest {
            extents: vec![tiles, tiles, tiles, t, t, t],
            refs: vec![
                load(0, vec![dim(n, 0), dim(1, 2)]), // A[gi][gk]
                load(1, vec![dim(n, 2), dim(1, 1)]), // B[gk][gj]
                load(2, vec![dim(n, 0), dim(1, 1)]), // C[gi][gj]
                store(2, vec![dim(n, 0), dim(1, 1)]),
            ],
        },
    )
}

/// 5-point 2-D stencil: five in-grid loads (center, N, S, W, E with
/// clamped borders) and one out-grid store per cell, `j` innermost.
#[must_use]
pub fn stencil2d(p: &Params) -> KernelModel {
    let g = (((p.elements / 2) as f64).sqrt() as u64).max(2);
    let cell = |dr: i64, dc: i64| {
        let wrap = |d: i64| if d == 0 { Wrap::None } else { Wrap::Clamp };
        vec![
            coord(g, g, &[1, 0], dr, wrap(dr)),
            coord(1, g, &[0, 1], dc, wrap(dc)),
        ]
    };
    derived(
        "stencil2d",
        LoopNest {
            extents: vec![g, g], // i, j
            refs: vec![
                load(0, cell(0, 0)),
                load(0, cell(-1, 0)),
                load(0, cell(1, 0)),
                load(0, cell(0, -1)),
                load(0, cell(0, 1)),
                store(1, cell(0, 0)),
            ],
        },
    )
}

/// 7-point 3-D stencil: center plus ±1 along each axis (clamped), and
/// an out-grid store, `z` innermost.
#[must_use]
pub fn stencil3d(p: &Params) -> KernelModel {
    let g = (((p.elements / 2) as f64).cbrt() as u64).max(2);
    let cell = |dx: i64, dy: i64, dz: i64| {
        let wrap = |d: i64| if d == 0 { Wrap::None } else { Wrap::Clamp };
        vec![
            coord(g * g, g, &[1, 0, 0], dx, wrap(dx)),
            coord(g, g, &[0, 1, 0], dy, wrap(dy)),
            coord(1, g, &[0, 0, 1], dz, wrap(dz)),
        ]
    };
    derived(
        "stencil3d",
        LoopNest {
            extents: vec![g, g, g], // x, y, z
            refs: vec![
                load(0, cell(0, 0, 0)),
                load(0, cell(-1, 0, 0)),
                load(0, cell(1, 0, 0)),
                load(0, cell(0, -1, 0)),
                load(0, cell(0, 1, 0)),
                load(0, cell(0, 0, -1)),
                load(0, cell(0, 0, 1)),
                store(1, cell(0, 0, 0)),
            ],
        },
    )
}

/// Cyclic scan of the whole footprint — trivially affine; every reuse
/// sits at distance `n − 1`, the LRU worst case.
#[must_use]
pub fn lru_adversary(p: &Params) -> KernelModel {
    let n = p.elements.max(2);
    derived(
        "lru_adversary",
        LoopNest {
            extents: vec![n],
            refs: vec![load(0, vec![coord(1, n, &[1], 0, Wrap::None)])],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(accesses: u64, elements: u64) -> Params {
        Params::default()
            .with_accesses(accesses)
            .with_elements(elements)
    }

    #[test]
    fn model_periods_and_footprints() {
        let p = params(1_000_000, 3 * 16 * 16);
        let mm = matmul_naive(&p); // n = 16
        assert_eq!(mm.ir.period_accesses(), 4 * 16 * 16 * 16);
        assert_eq!(mm.ir.footprint().unwrap(), 3 * 16 * 16);

        let st = stencil2d(&params(1_000_000, 2 * 12 * 12)); // g = 12
        assert_eq!(st.ir.period_accesses(), 6 * 12 * 12);
        assert_eq!(st.ir.footprint().unwrap(), 2 * 12 * 12);

        let tri = stream_triad(&params(1000, 300)); // n = 100
        assert_eq!(tri.ir.period_accesses(), 300);
        assert_eq!(tri.ir.footprint().unwrap(), 300);
    }

    #[test]
    fn every_model_derives_classes() {
        let p = params(100_000, 512);
        for build in [
            stream_triad,
            strided,
            sawtooth,
            matmul_naive,
            matmul_blocked,
            stencil2d,
            stencil3d,
            lru_adversary,
        ] {
            let m = build(&p);
            let classes = m.classes().expect(m.ir.name);
            assert!(!classes.is_empty(), "{}", m.ir.name);
            let mass: f64 = classes.iter().map(|c| c.count).sum();
            assert_eq!(
                mass,
                m.ir.period_accesses() as f64,
                "{}: class mass must equal the period",
                m.ir.name
            );
            assert!(classes.iter().all(|c| c.delta >= 1), "{}", m.ir.name);
        }
    }

    #[test]
    fn sawtooth_turnaround_classes() {
        let m = sawtooth(&params(1000, 4)); // n = 4, period 8
        let ClassSource::Explicit(classes) = &m.source else {
            panic!("sawtooth supplies explicit classes");
        };
        // element 3 (top turnaround): intervals 1 and 7; element 0: 7 and 1
        assert!(classes.contains(&ReuseClass {
            delta: 1,
            count: 1.0
        }));
        assert!(classes.contains(&ReuseClass {
            delta: 7,
            count: 1.0
        }));
        assert_eq!(classes.len(), 8);
    }

    #[test]
    fn blocked_handles_overhang_tiles() {
        // n = 12, t = 8, tiles = 2, T = 16 > n: modulo folding
        let p = params(1_000_000, 3 * 12 * 12);
        let m = matmul_blocked(&p);
        assert_eq!(m.ir.footprint().unwrap(), 3 * 12 * 12);
        assert!(m.classes().is_ok());
    }
}
