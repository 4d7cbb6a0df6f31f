//! Random-variate samplers built on top of [`rand`].
//!
//! The allowed dependency set does not include `rand_distr`, so the Normal,
//! Gamma and Dirichlet samplers used throughout the reproduction are
//! implemented here. The symmetric Dirichlet `Dir(α)` is the paper's model of
//! label-distribution skew (§II-A): smaller `α` ⇒ more diverse (non-IID)
//! client data.

use rand::Rng;

/// Normal distribution `N(mean, std²)` sampled via the Marsaglia polar method.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use collapois_stats::Normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let n = Normal::new(2.0, 0.5).unwrap();
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] if `std` is negative
    /// or not finite.
    pub fn new(mean: f64, std: f64) -> Result<Self, DistributionError> {
        if std.is_nan() || std < 0.0 || !std.is_finite() || !mean.is_finite() {
            return Err(DistributionError::InvalidParameter {
                what: "normal std must be finite and >= 0",
            });
        }
        Ok(Self { mean, std })
    }

    /// Standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            std: 1.0,
        }
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// One accepted draw of the Marsaglia polar method: the first uniform `u`
/// and the squared radius `s = u² + v²`, with `0 < s < 1`. The variate it
/// maps to is [`PolarPair::value`]; drawing and mapping are separate so a
/// renderer can record a sample's draws and map only the ones it keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolarPair {
    /// First uniform of the accepted pair, in `(-1, 1)`.
    pub u: f64,
    /// Squared radius `u² + v²`, in `(0, 1)`.
    pub s: f64,
}

impl PolarPair {
    /// The standard-normal variate `u·sqrt(−2 ln s / s)`.
    #[inline]
    pub fn value(self) -> f64 {
        self.u * (-2.0 * self.s.ln() / self.s).sqrt()
    }
}

/// Fills `out` with accepted polar pairs, consuming exactly the uniform
/// draws `out.len()` calls of [`standard_normal`] would. Every pair is
/// written to the next free slot and the slot advances only on
/// acceptance, so a rejected pair is overwritten without a branch.
pub fn draw_polar_pairs<R: Rng + ?Sized>(rng: &mut R, out: &mut [PolarPair]) {
    let mut k = 0;
    while k < out.len() {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        out[k] = PolarPair { u, s };
        k += usize::from(s > 0.0 && s < 1.0);
    }
}

/// One standard-normal variate (Marsaglia polar method): one accepted
/// [`PolarPair`] mapped through [`PolarPair::value`].
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut pair = [PolarPair::default()];
    draw_polar_pairs(rng, &mut pair);
    pair[0].value()
}

/// Gamma distribution with shape `k` and scale `θ` (mean `kθ`), sampled with
/// the Marsaglia–Tsang method (shape ≥ 1) plus the standard boost for
/// shape < 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] unless both parameters
    /// are finite and strictly positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistributionError> {
        if !(shape.is_finite() && scale.is_finite() && shape > 0.0 && scale > 0.0) {
            return Err(DistributionError::InvalidParameter {
                what: "gamma shape and scale must be finite and > 0",
            });
        }
        Ok(Self { shape, scale })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: X ~ Gamma(k+1), U^(1/k) * X ~ Gamma(k).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let boosted = Gamma {
                shape: self.shape + 1.0,
                scale: self.scale,
            };
            return boosted.sample(rng) * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return self.scale * d * v;
            }
        }
    }
}

/// Dirichlet distribution over the probability simplex, used to draw each
/// client's label mix (label-distribution skew, §II-A of the paper).
///
/// Sampled as normalized independent Gamma(αᵢ, 1) variates.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alpha: Vec<f64>,
}

impl Dirichlet {
    /// Creates a Dirichlet distribution from a full concentration vector.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] if fewer than two
    /// components are given or any component is not finite and positive.
    pub fn new(alpha: Vec<f64>) -> Result<Self, DistributionError> {
        if alpha.len() < 2 {
            return Err(DistributionError::InvalidParameter {
                what: "dirichlet needs at least 2 components",
            });
        }
        if alpha.iter().any(|&a| !(a.is_finite() && a > 0.0)) {
            return Err(DistributionError::InvalidParameter {
                what: "dirichlet concentrations must be finite and > 0",
            });
        }
        Ok(Self { alpha })
    }

    /// Symmetric Dirichlet `Dir(α)` over `k` components — the paper's non-IID
    /// knob: `α < 1` concentrates mass on few labels, `α > 1` spreads it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dirichlet::new`].
    pub fn symmetric(alpha: f64, k: usize) -> Result<Self, DistributionError> {
        Self::new(vec![alpha; k])
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Whether the distribution has zero components (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Draws one probability vector (sums to 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut draws: Vec<f64> = self
            .alpha
            .iter()
            .map(|&a| {
                Gamma::new(a, 1.0)
                    .expect("validated at construction")
                    .sample(rng)
                    .max(f64::MIN_POSITIVE)
            })
            .collect();
        let sum: f64 = draws.iter().sum();
        for d in &mut draws {
            *d /= sum;
        }
        draws
    }
}

/// Natural log of `n!`, exact summation for small `n` and a Stirling series
/// for the rest (relative error far below f64 epsilon at the switch point).
fn ln_factorial(n: u64) -> f64 {
    if n < 256 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        // ln Γ(x) for x = n + 1, Stirling with three correction terms.
        let x = n as f64 + 1.0;
        (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
            - 1.0 / (360.0 * x.powi(3))
            + 1.0 / (1260.0 * x.powi(5))
    }
}

/// Binomial distribution `B(n, p)`: the number of successes in `n`
/// independent trials of probability `p`.
///
/// Sampled by inverse-CDF chop-down starting at the mode and walking
/// outward with the pmf recurrence — one uniform draw per sample and
/// `O(√(np(1−p)))` expected steps, so counting a paper-scale cohort's
/// sampled clients costs a single draw instead of one Bernoulli per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution over `n` trials of probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] unless `p ∈ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self, DistributionError> {
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(DistributionError::InvalidParameter {
                what: "binomial probability must lie in [0, 1]",
            });
        }
        Ok(Self { n, p })
    }

    /// The number of trials `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The success probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let (n, p) = (self.n, self.p);
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let nf = n as f64;
        let mode = (((nf + 1.0) * p) as u64).min(n);
        let pm = (ln_factorial(n) - ln_factorial(mode) - ln_factorial(n - mode)
            + mode as f64 * p.ln()
            + (nf - mode as f64) * (1.0 - p).ln())
        .exp();
        let odds = p / (1.0 - p);
        let mut u = rng.gen_range(0.0..1.0) - pm;
        if u < 0.0 {
            return mode;
        }
        // Alternate below/above the mode, consuming each pmf value once;
        // the visit order is immaterial to the sampled distribution.
        let (mut lo, mut hi) = (mode, mode);
        let (mut p_lo, mut p_hi) = (pm, pm);
        loop {
            let mut advanced = false;
            if lo > 0 {
                p_lo *= lo as f64 / ((nf - lo as f64 + 1.0) * odds);
                lo -= 1;
                u -= p_lo;
                if u < 0.0 {
                    return lo;
                }
                advanced = true;
            }
            if hi < n {
                p_hi *= (nf - hi as f64) / (hi as f64 + 1.0) * odds;
                hi += 1;
                u -= p_hi;
                if u < 0.0 {
                    return hi;
                }
                advanced = true;
            }
            if !advanced {
                // Residual rounding mass: the support is exhausted, so the
                // mode is as good a tiebreak as any.
                return mode;
            }
        }
    }
}

/// Error produced when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionError {
    /// A parameter was outside the distribution's domain.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameter { what } => write!(f, "invalid distribution parameter: {what}"),
        }
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = Normal::new(3.0, 2.0).unwrap();
        let xs = n.sample_n(&mut rng, 50_000);
        assert!((mean(&xs) - 3.0).abs() < 0.05);
        assert!((variance(&xs).sqrt() - 2.0).abs() < 0.05);
    }

    /// The rejection loop `standard_normal` ran before drawing and mapping
    /// were split.
    fn polar_loop_oracle(rng: &mut StdRng) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    #[test]
    fn polar_pairs_match_the_rejection_loop_bitwise() {
        use rand::RngCore;
        for seed in 0..64u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            let mut pairs = vec![PolarPair::default(); 97];
            draw_polar_pairs(&mut a, &mut pairs);
            for p in &pairs {
                assert_eq!(p.value().to_bits(), polar_loop_oracle(&mut b).to_bits());
            }
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                polar_loop_oracle(&mut b).to_bits()
            );
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}: generator state");
        }
    }

    #[test]
    fn normal_rejects_negative_std() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Gamma::new(4.0, 0.5).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| g.sample(&mut rng)).collect();
        // mean = kθ = 2, var = kθ² = 1
        assert!((mean(&xs) - 2.0).abs() < 0.05, "mean {}", mean(&xs));
        assert!((variance(&xs) - 1.0).abs() < 0.1);
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Gamma::new(0.3, 1.0).unwrap();
        let xs: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng)).collect();
        assert!((mean(&xs) - 0.3).abs() < 0.02, "mean {}", mean(&xs));
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        for alpha in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let d = Dirichlet::symmetric(alpha, 10).unwrap();
            for _ in 0..20 {
                let p = d.sample(&mut rng);
                assert_eq!(p.len(), 10);
                let s: f64 = p.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "alpha={alpha}: sum={s}");
                assert!(p.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn dirichlet_concentration_controls_skew() {
        // With small alpha the max component dominates; with large alpha the
        // vector is near-uniform. This is exactly the non-IID knob.
        let mut rng = StdRng::seed_from_u64(4);
        let sparse = Dirichlet::symmetric(0.05, 10).unwrap();
        let dense = Dirichlet::symmetric(100.0, 10).unwrap();
        let avg_max = |d: &Dirichlet, rng: &mut StdRng| {
            let mut acc = 0.0;
            for _ in 0..200 {
                let p = d.sample(rng);
                acc += p.iter().cloned().fold(0.0, f64::max);
            }
            acc / 200.0
        };
        let sparse_max = avg_max(&sparse, &mut rng);
        let dense_max = avg_max(&dense, &mut rng);
        assert!(
            sparse_max > 0.6 && dense_max < 0.2,
            "sparse_max={sparse_max}, dense_max={dense_max}"
        );
    }

    #[test]
    fn dirichlet_rejects_degenerate() {
        assert!(Dirichlet::symmetric(1.0, 1).is_err());
        assert!(Dirichlet::new(vec![1.0, -0.5]).is_err());
    }

    #[test]
    fn binomial_moments_at_cohort_scale() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = Binomial::new(5000, 0.25).unwrap();
        let xs: Vec<f64> = (0..20_000).map(|_| b.sample(&mut rng) as f64).collect();
        // mean = np = 1250, var = np(1-p) = 937.5
        assert!((mean(&xs) - 1250.0).abs() < 1.0, "mean {}", mean(&xs));
        assert!(
            (variance(&xs) - 937.5).abs() < 30.0,
            "var {}",
            variance(&xs)
        );
        assert!(xs.iter().all(|&x| (0.0..=5000.0).contains(&x)));
    }

    #[test]
    fn binomial_small_n_matches_exact_pmf() {
        // n=4, p=0.5: P(k) = {1,4,6,4,1}/16. A chi-square-ish sanity bound.
        let mut rng = StdRng::seed_from_u64(7);
        let b = Binomial::new(4, 0.5).unwrap();
        let mut counts = [0u32; 5];
        for _ in 0..16_000 {
            counts[b.sample(&mut rng) as usize] += 1;
        }
        let expected = [1000.0, 4000.0, 6000.0, 4000.0, 1000.0];
        for (k, (&c, &e)) in counts.iter().zip(&expected).enumerate() {
            assert!(
                (c as f64 - e).abs() < 5.0 * e.sqrt(),
                "k={k}: got {c}, expected {e}"
            );
        }
    }

    #[test]
    fn binomial_edges_and_determinism() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(Binomial::new(100, 0.0).unwrap().sample(&mut rng), 0);
        assert_eq!(Binomial::new(100, 1.0).unwrap().sample(&mut rng), 100);
        assert_eq!(Binomial::new(0, 0.5).unwrap().sample(&mut rng), 0);
        let b = Binomial::new(3000, 0.1).unwrap();
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..32).map(|_| b.sample(&mut r)).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..32).map(|_| b.sample(&mut r)).collect()
        };
        assert_eq!(a, c);
    }

    #[test]
    fn binomial_rejects_bad_probability() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }

    #[test]
    fn ln_factorial_is_continuous_across_the_stirling_switch() {
        // ln(256!) = ln(255!) + ln 256 must hold across the branch change.
        let exact = ln_factorial(255) + 256f64.ln();
        assert!((ln_factorial(256) - exact).abs() < 1e-9);
    }

    #[test]
    fn error_display_nonempty() {
        let e = Normal::new(0.0, -1.0).unwrap_err();
        assert!(!format!("{e}").is_empty());
        assert!(!format!("{e:?}").is_empty());
    }
}
