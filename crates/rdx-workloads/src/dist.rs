//! Random-variate samplers used by the irregular kernels.
//!
//! `rand` provides uniform sampling; the Zipf and Gaussian variates the
//! kernels need are implemented here (rather than pulling in `rand_distr`)
//! so the whole suite stays within the workspace's minimal dependency set.

use rand::rngs::SmallRng;
use rand::RngExt;

/// A bounded Zipf(θ) sampler over `{0, 1, …, n−1}` (rank 0 is hottest),
/// using Gray et al.'s constant-time rejection-free approximation as used
/// by YCSB and TPC benchmark generators.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// `1 + 0.5^θ`: a draw with `u·ζ(n)` in `[1, rank1_bound)` is
    /// rank 1.
    rank1_bound: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with skew `theta` (0 < θ < 1;
    /// YCSB's default 0.99 approximates classic Zipf's law).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf domain must be non-empty");
        assert!(
            theta > 0.0 && theta < 1.0,
            "zipf skew must lie in (0, 1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            rank1_bound: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; integral approximation for large n keeps
        // construction O(1)-ish without visible accuracy loss for sampling.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{10000}^{n} x^-θ dx
            let a = 10_000f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Draws one rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_bound {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The domain size.
    #[must_use]
    pub fn domain(&self) -> u64 {
        self.n
    }
}

/// Draws a standard-normal variate via the Box–Muller transform.
pub fn standard_normal(rng: &mut SmallRng) -> f64 {
    // Avoid ln(0) by keeping u1 in (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generates a uniformly random cyclic permutation of `0..n` (Sattolo's
/// algorithm), used to build single-cycle pointer-chase rings.
#[must_use]
pub fn sattolo_cycle(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "cycle too large for u32 indices");
    let mut items: Vec<u32> = (0..n as u32).collect();
    let mut i = n;
    while i > 1 {
        i -= 1;
        let j = rng.random_range(0..i);
        items.swap(i, j);
    }
    // `items` is now a random cyclic order; build successor pointers.
    let mut next = vec![0u32; n];
    for k in 0..n {
        next[items[k] as usize] = items[(k + 1) % n];
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut r = rng();
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let s = z.sample(&mut r);
            assert!(s < 1000);
            counts[s as usize] += 1;
        }
        // rank 0 must be much hotter than mid ranks
        assert!(
            counts[0] > 20 * counts[500].max(1),
            "{} vs {}",
            counts[0],
            counts[500]
        );
        // the tail is still reachable
        assert!(counts[500..].iter().sum::<u64>() > 0);
    }

    #[test]
    fn zipf_low_skew_more_uniform() {
        let hot = Zipf::new(100, 0.99);
        let mild = Zipf::new(100, 0.2);
        let mut r1 = rng();
        let mut r2 = rng();
        let mut hot0 = 0;
        let mut mild0 = 0;
        for _ in 0..50_000 {
            if hot.sample(&mut r1) == 0 {
                hot0 += 1;
            }
            if mild.sample(&mut r2) == 0 {
                mild0 += 1;
            }
        }
        assert!(hot0 > 3 * mild0);
    }

    #[test]
    fn zipf_single_item() {
        let z = Zipf::new(1, 0.5);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zipf_empty_domain() {
        let _ = Zipf::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn zipf_bad_theta() {
        let _ = Zipf::new(10, 1.5);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut r);
            assert!(x.is_finite());
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sattolo_is_single_cycle() {
        let mut r = rng();
        for n in [1usize, 2, 3, 17, 1000] {
            let next = sattolo_cycle(n, &mut r);
            let mut seen = vec![false; n];
            let mut cur = 0u32;
            for _ in 0..n {
                assert!(
                    !seen[cur as usize],
                    "revisited {cur} before full cycle (n={n})"
                );
                seen[cur as usize] = true;
                cur = next[cur as usize];
            }
            assert_eq!(cur, 0, "must return to start after n steps");
            assert!(seen.iter().all(|&s| s));
        }
    }
}
