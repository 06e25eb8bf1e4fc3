//! The kernel implementations.
//!
//! Every kernel is an infinite, deterministic loop nest, written as a
//! closure over its loop state that appends one whole loop iteration
//! per call; [`KernelStream`] caps it at `params.accesses`. Addresses
//! are 8-byte elements laid out in per-array regions 4 GiB apart so
//! arrays never alias.

use crate::dist::{sattolo_cycle, standard_normal, Zipf};
use crate::params::Params;
use crate::registry::DynStream;
use crate::stream::KernelStream;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rdx_trace::AccessAppender;

/// Base byte address of array region `r`.
fn region(r: u64) -> u64 {
    r << 32
}

/// Byte address of element `idx` in region `r`.
fn elem(r: u64, idx: u64) -> u64 {
    region(r) + idx * 8
}

/// Appends a load of element `idx` in region `r`.
#[inline(always)]
fn load(out: &mut AccessAppender<'_>, r: u64, idx: u64) {
    out.push(elem(r, idx), false);
}

/// Appends a store to element `idx` in region `r`.
#[inline(always)]
fn store(out: &mut AccessAppender<'_>, r: u64, idx: u64) {
    out.push(elem(r, idx), true);
}

fn rng_for(p: &Params, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(p.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The stream of a kernel whose `step` appends one loop iteration of
/// at most `STEP` accesses per call.
fn kernel<const STEP: usize>(
    p: &Params,
    step: impl FnMut(&mut AccessAppender<'_>) + Send + 'static,
) -> DynStream {
    Box::new(KernelStream::<_, STEP>::new(p.accesses, step))
}

/// STREAM-triad style: `a[i] = b[i] + s·c[i]` over three arrays.
pub(crate) fn stream_triad(p: &Params) -> DynStream {
    let n = (p.elements / 3).max(1);
    let mut i = 0u64;
    kernel::<3>(p, move |out| {
        load(out, 1, i); // b[i]
        load(out, 2, i); // c[i]
        store(out, 0, i); // a[i]
        i += 1;
        if i == n {
            i = 0;
        }
    })
}

/// Stride-8 sweeps: each pass visits every 8th element, with the pass
/// offset rotating so all elements are touched across 8 passes.
pub(crate) fn strided(p: &Params) -> DynStream {
    let n = p.elements.max(8);
    let mut off = 0u64;
    let mut idx = 0u64; // off + 8·i, always below n
    kernel::<1>(p, move |out| {
        load(out, 0, idx);
        idx += 8;
        if idx >= n {
            off = (off + 1) % 8;
            idx = off;
        }
    })
}

/// Triangular sweep 0→n−1→0…: produces a broad spread of reuse distances.
pub(crate) fn sawtooth(p: &Params) -> DynStream {
    let n = p.elements.max(2);
    let mut i = 0u64;
    let mut up = true;
    kernel::<1>(p, move |out| {
        load(out, 0, i);
        if up {
            if i + 1 == n {
                up = false;
            } else {
                i += 1;
            }
        } else if i == 0 {
            up = true;
        } else {
            i -= 1;
        }
    })
}

/// Producer/consumer ring buffer: tiny, cache-resident footprint.
pub(crate) fn fifo_queue(p: &Params) -> DynStream {
    let n = p.elements.clamp(2, 3000); // queues are small by nature
    let mut head = 0u64;
    kernel::<2>(p, move |out| {
        store(out, 0, head); // produce
        load(out, 0, (head + n / 2) % n); // consume
        head = (head + 1) % n;
    })
}

/// Uniform random accesses over the whole footprint (10 % stores).
pub(crate) fn random_uniform(p: &Params) -> DynStream {
    let n = p.elements;
    let mut rng = rng_for(p, 1);
    kernel::<1>(p, move |out| {
        let idx = rng.random_range(0..n);
        out.push(elem(0, idx), rng.random_range(0..10u32) == 0);
    })
}

/// Zipf(0.99)-popular accesses: a compact hot set with a long cold tail.
pub(crate) fn zipf(p: &Params) -> DynStream {
    let z = Zipf::new(p.elements, 0.99);
    let mut rng = rng_for(p, 2);
    kernel::<1>(p, move |out| load(out, 0, z.sample(&mut rng)))
}

/// A Gaussian hot set whose center drifts slowly across the footprint.
pub(crate) fn gauss_hotset(p: &Params) -> DynStream {
    let n = p.elements.max(2);
    let sigma = (n / 64).max(1) as f64;
    let drift_every = (n / 16).max(1);
    let mut rng = rng_for(p, 3);
    // The center moves one element every `drift_every` accesses.
    let mut center = 0u64;
    let mut until_drift = drift_every;
    kernel::<1>(p, move |out| {
        let jump = standard_normal(&mut rng) * sigma;
        load(
            out,
            0,
            (center as i64 + jump as i64).rem_euclid(n as i64) as u64,
        );
        until_drift -= 1;
        if until_drift == 0 {
            until_drift = drift_every;
            center = (center + 1) % n;
        }
    })
}

/// Open-addressing hash-table probes with geometric probe lengths.
pub(crate) fn hash_probe(p: &Params) -> DynStream {
    let m = p.elements.next_power_of_two();
    let mut rng = rng_for(p, 4);
    // One step is one lookup: a hashed slot, then 1–8 linear probes,
    // the last of which inserts a quarter of the time.
    kernel::<8>(p, move |out| {
        let mut slot = rng.random_range(0..m);
        let mut len = 1;
        while len < 8 && rng.random_range(0..2u32) == 0 {
            len += 1;
        }
        for _ in 1..len {
            load(out, 0, slot);
            slot = (slot + 1) & (m - 1);
        }
        out.push(elem(0, slot), rng.random_range(0..4u32) == 0);
    })
}

/// Pointer chasing around a random single-cycle permutation: the classic
/// LLC-defeating pattern (505.mcf's core loop).
pub(crate) fn pointer_chase(p: &Params) -> DynStream {
    let n = usize::try_from(p.elements.min(1 << 22)).expect("footprint fits usize");
    let next = sattolo_cycle(n.max(1), &mut rng_for(p, 5));
    let mut cur = 0u32;
    kernel::<1>(p, move |out| {
        load(out, 0, u64::from(cur));
        cur = next[cur as usize];
    })
}

/// Random searches down an implicit (array-embedded) binary search tree.
pub(crate) fn bst_search(p: &Params) -> DynStream {
    let n = p.elements.max(1);
    let mut rng = rng_for(p, 6);
    let mut node = 1u64; // 1-based heap indexing
    kernel::<1>(p, move |out| {
        load(out, 0, node - 1);
        node = 2 * node + u64::from(rng.random_range(0..2u32));
        if node > n {
            node = 1; // next search
        }
    })
}

/// CSR sparse matrix–vector product: sequential index/value streams plus
/// random gathers from the dense vector.
pub(crate) fn spmv(p: &Params) -> DynStream {
    let x_len = (p.elements / 2).max(1); // dense vector
    let nnz_stream = (p.elements / 4).max(1); // col + val arrays (cycled)
    let rows = (x_len / 8).max(1);
    let mut rng = rng_for(p, 7);
    let mut k = 0u64; // nonzero index, modulo nnz_stream
    let mut row = 0u64;
    // One step is one row: 8 nonzeros, then the row's result store.
    kernel::<25>(p, move |out| {
        for _ in 0..8 {
            load(out, 1, k); // col[k]
            load(out, 2, k); // val[k]
            load(out, 0, rng.random_range(0..x_len)); // x[col]
            k += 1;
            if k == nnz_stream {
                k = 0;
            }
        }
        row = (row + 1) % rows;
        store(out, 3, row); // y[row]
    })
}

/// Naive triple-loop matrix multiply: A row-streams, B column-strides, C
/// accumulates — the canonical capacity-miss generator.
pub(crate) fn matmul_naive(p: &Params) -> DynStream {
    let n = (((p.elements / 3) as f64).sqrt() as u64).max(2);
    let (mut i, mut j, mut k) = (0u64, 0u64, 0u64);
    kernel::<4>(p, move |out| {
        load(out, 0, i * n + k); // A[i][k]
        load(out, 1, k * n + j); // B[k][j]
        load(out, 2, i * n + j); // C[i][j]
        store(out, 2, i * n + j);
        k += 1;
        if k == n {
            k = 0;
            j += 1;
            if j == n {
                j = 0;
                i = (i + 1) % n;
            }
        }
    })
}

/// Tiled matrix multiply (8×8 tiles): the locality-optimized variant of
/// [`matmul_naive`], included so the suite contains both sides of the
/// classic optimization the paper's tooling is meant to guide.
pub(crate) fn matmul_blocked(p: &Params) -> DynStream {
    let n = (((p.elements / 3) as f64).sqrt() as u64).max(2);
    let t = 8u64.min(n);
    let tiles = n.div_ceil(t);
    // loop state: tile coords (ti, tj, tk), intra coords (i, j, k)
    let mut s = [0u64; 6];
    kernel::<4>(p, move |out| {
        let [ti, tj, tk, i, j, k] = s;
        let (gi, gj, gk) = ((ti * t + i) % n, (tj * t + j) % n, (tk * t + k) % n);
        load(out, 0, gi * n + gk);
        load(out, 1, gk * n + gj);
        load(out, 2, gi * n + gj);
        store(out, 2, gi * n + gj);
        // advance k, j, i within tile, then tk, tj, ti
        s[5] += 1;
        if s[5] == t {
            s[5] = 0;
            s[4] += 1;
            if s[4] == t {
                s[4] = 0;
                s[3] += 1;
                if s[3] == t {
                    s[3] = 0;
                    s[2] += 1;
                    if s[2] == tiles {
                        s[2] = 0;
                        s[1] += 1;
                        if s[1] == tiles {
                            s[1] = 0;
                            s[0] = (s[0] + 1) % tiles;
                        }
                    }
                }
            }
        }
    })
}

/// 5-point 2-D stencil sweeps over an in/out grid pair.
pub(crate) fn stencil2d(p: &Params) -> DynStream {
    let g = (((p.elements / 2) as f64).sqrt() as u64).max(2);
    let (mut i, mut j) = (0u64, 0u64);
    kernel::<6>(p, move |out| {
        // Neighbours clamp to the grid edge.
        let (up, down) = (i.saturating_sub(1), (i + 1).min(g - 1));
        let (left, right) = (j.saturating_sub(1), (j + 1).min(g - 1));
        load(out, 0, i * g + j);
        load(out, 0, up * g + j);
        load(out, 0, down * g + j);
        load(out, 0, i * g + left);
        load(out, 0, i * g + right);
        store(out, 1, i * g + j);
        j += 1;
        if j == g {
            j = 0;
            i = (i + 1) % g;
        }
    })
}

/// 7-point 3-D stencil sweeps (the lattice-Boltzmann access shape).
pub(crate) fn stencil3d(p: &Params) -> DynStream {
    let g = (((p.elements / 2) as f64).cbrt() as u64).max(2);
    let at = move |x: u64, y: u64, z: u64| (x * g + y) * g + z;
    // Neighbours clamp to the grid edge.
    let lo = |v: u64| v.saturating_sub(1);
    let hi = move |v: u64| (v + 1).min(g - 1);
    let mut c = [0u64; 3];
    kernel::<8>(p, move |out| {
        let [x, y, z] = c;
        load(out, 0, at(x, y, z));
        load(out, 0, at(lo(x), y, z));
        load(out, 0, at(hi(x), y, z));
        load(out, 0, at(x, lo(y), z));
        load(out, 0, at(x, hi(y), z));
        load(out, 0, at(x, y, lo(z)));
        load(out, 0, at(x, y, hi(z)));
        store(out, 1, at(x, y, z));
        c[2] += 1;
        if c[2] == g {
            c[2] = 0;
            c[1] += 1;
            if c[1] == g {
                c[1] = 0;
                c[0] = (c[0] + 1) % g;
            }
        }
    })
}

/// Bottom-up merge-sort passes: two sequential read cursors racing into a
/// sequential writer, run length doubling each pass.
pub(crate) fn sort_merge(p: &Params) -> DynStream {
    let n = (p.elements / 2).max(4);
    let mut run = 1u64;
    let mut o = 0u64;
    kernel::<3>(p, move |out| {
        let pair = o / (2 * run);
        let within = o % (2 * run);
        load(out, 0, pair * 2 * run + within / 2); // left
        load(out, 0, (pair * 2 * run + run + within / 2).min(n - 1)); // right
        store(out, 1, o);
        o += 1;
        if o == n {
            o = 0;
            run *= 2;
            if run >= n {
                run = 1;
            }
        }
    })
}

/// Phase-changing hot sets: the working set expands and contracts every
/// eighth of the run, as compiler-like workloads do between passes.
pub(crate) fn phased(p: &Params) -> DynStream {
    const RUN: usize = 64;
    let n = p.elements.max(64);
    let phase_len = (p.accesses / 8).max(1000);
    let sizes = [n, n / 16, n / 2, n / 64].map(|s| s.max(1));
    let mut rng = rng_for(p, 8);
    let mut phase = 0;
    let mut phase_left = phase_len;
    // One step is a run of up to RUN draws within one phase, all from
    // that phase's hot-set size.
    kernel::<RUN>(p, move |out| {
        let hot = sizes[phase];
        let run = phase_left.min(RUN as u64);
        for _ in 0..run {
            load(out, 0, rng.random_range(0..hot));
        }
        phase_left -= run;
        if phase_left == 0 {
            phase = (phase + 1) % sizes.len();
            phase_left = phase_len;
        }
    })
}

/// Cyclic scan over the full footprint: every reuse has distance
/// `elements − 1`, the adversarial worst case for LRU caches.
pub(crate) fn lru_adversary(p: &Params) -> DynStream {
    let n = p.elements.max(2);
    let mut i = 0u64;
    kernel::<1>(p, move |out| {
        load(out, 0, i);
        i += 1;
        if i == n {
            i = 0;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{Granularity, Trace, TraceStats};

    fn stats(f: fn(&Params) -> DynStream, p: &Params) -> TraceStats {
        TraceStats::measure(f(p), Granularity::WORD)
    }

    fn materialize(f: fn(&Params) -> DynStream, p: &Params) -> Trace {
        Trace::from_stream("", f(p))
    }

    fn small() -> Params {
        Params::default()
            .with_accesses(30_000)
            .with_elements(1024)
            .with_seed(7)
    }

    #[test]
    fn exact_access_counts() {
        let p = small();
        for f in [
            stream_triad,
            strided,
            sawtooth,
            fifo_queue,
            random_uniform,
            zipf,
            gauss_hotset,
            hash_probe,
            pointer_chase,
            bst_search,
            spmv,
            matmul_naive,
            matmul_blocked,
            stencil2d,
            stencil3d,
            sort_merge,
            phased,
            lru_adversary,
        ] {
            assert_eq!(stats(f, &p).accesses, p.accesses);
        }
    }

    #[test]
    fn footprints_bounded_by_params() {
        let p = small();
        for (name, f) in [
            ("stream_triad", stream_triad as fn(&Params) -> DynStream),
            ("strided", strided),
            ("sawtooth", sawtooth),
            ("random_uniform", random_uniform),
            ("zipf", zipf),
            ("gauss_hotset", gauss_hotset),
            ("pointer_chase", pointer_chase),
            ("bst_search", bst_search),
            ("lru_adversary", lru_adversary),
            ("phased", phased),
        ] {
            let s = stats(f, &p);
            assert!(
                s.distinct_blocks <= p.elements,
                "{name}: {} distinct > {} elements",
                s.distinct_blocks,
                p.elements
            );
            assert!(s.distinct_blocks > 0, "{name}");
        }
        // hash_probe rounds the table up to a power of two
        assert!(stats(hash_probe, &p).distinct_blocks <= p.elements.next_power_of_two());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = small();
        for f in [random_uniform, zipf, hash_probe, pointer_chase, phased] {
            assert_eq!(materialize(f, &p), materialize(f, &p));
        }
    }

    #[test]
    fn seed_changes_random_kernels() {
        let p = small();
        let q = small().with_seed(8);
        let a = materialize(random_uniform, &p);
        let b = materialize(random_uniform, &q);
        assert_ne!(a.accesses().slice(..100), b.accesses().slice(..100));
    }

    #[test]
    fn pointer_chase_visits_whole_cycle() {
        let p = Params::default()
            .with_accesses(2048)
            .with_elements(2048)
            .with_seed(3);
        let s = stats(pointer_chase, &p);
        // a single cycle of length 2048 visited 2048 times touches all
        assert_eq!(s.distinct_blocks, 2048);
    }

    #[test]
    fn lru_adversary_is_pure_cycle() {
        let p = small();
        let s = stats(lru_adversary, &p);
        assert_eq!(s.distinct_blocks, p.elements);
        assert_eq!(s.stores, 0);
    }

    #[test]
    fn stream_triad_mixes_loads_and_stores() {
        let p = small();
        let s = stats(stream_triad, &p);
        assert!(
            (s.store_ratio() - 1.0 / 3.0).abs() < 0.01,
            "{}",
            s.store_ratio()
        );
    }

    #[test]
    fn zipf_concentrates_accesses() {
        let p = small();
        let t = materialize(zipf, &p);
        let total = t.len();
        let hot = t
            .iter()
            .filter(|a| a.addr.raw() < region(0) + 64 * 8)
            .count();
        // the top 64 of 1024 elements should absorb well over half
        assert!(hot * 2 > total, "{hot}/{total}");
    }

    #[test]
    fn stencil_touches_two_regions() {
        let p = small();
        let regions: std::collections::HashSet<u64> = materialize(stencil2d, &p)
            .iter()
            .map(|a| a.addr.raw() >> 32)
            .collect();
        assert_eq!(regions.len(), 2, "in + out grids");
    }

    #[test]
    fn matmul_blocked_smaller_working_window() {
        // The blocked variant should reuse data sooner: compare mean reuse
        // distance proxies via distinct blocks in a fixed window.
        let p = Params::default()
            .with_accesses(40_000)
            .with_elements(3 * 64 * 64)
            .with_seed(1);
        let words = |f| -> Vec<u64> {
            materialize(f, &p)
                .iter()
                .map(|a| a.addr.raw() >> 3)
                .collect()
        };
        let naive = words(matmul_naive);
        let blocked = words(matmul_blocked);
        let window_distinct = |v: &[u64]| {
            v.chunks(4096)
                .map(|c| {
                    let mut set: Vec<u64> = c.to_vec();
                    set.sort_unstable();
                    set.dedup();
                    set.len()
                })
                .sum::<usize>()
        };
        assert!(
            window_distinct(&blocked) < window_distinct(&naive),
            "blocked should touch fewer distinct blocks per window"
        );
    }

    #[test]
    fn tiny_element_counts_do_not_panic() {
        let p = Params::default().with_accesses(1000).with_elements(1);
        for f in [
            stream_triad,
            strided,
            sawtooth,
            fifo_queue,
            random_uniform,
            zipf,
            gauss_hotset,
            hash_probe,
            pointer_chase,
            bst_search,
            spmv,
            matmul_naive,
            matmul_blocked,
            stencil2d,
            stencil3d,
            sort_merge,
            phased,
            lru_adversary,
        ] {
            assert_eq!(stats(f, &p).accesses, 1000);
        }
    }
}
