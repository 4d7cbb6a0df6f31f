//! Statistical-screening aggregation in the spirit of MESAS
//! [Krauß & Dmitrienko, CCS 2023].
//!
//! The server extracts simple per-update features — l2 magnitude and cosine
//! to the cohort mean — and excludes updates whose features are 3σ outliers
//! against the cohort before averaging the rest. This is the
//! "poisoned update detection by statistical tests" defense category the
//! paper claims CollaPois bypasses (§IV-D): with a suitable ψ range and a
//! clipping bound, malicious updates fall inside the benign feature band,
//! while naive boosted attacks (MRepl) are filtered out.

use super::Aggregator;
use crate::update::{mean_delta, mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use collapois_stats::descriptive::median;
use collapois_stats::geometry::{cosine_similarity, l2_norm};
use rand::rngs::StdRng;

/// 3σ feature screening + FedAvg over the surviving updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatFilter {
    /// Updates excluded across the aggregator's lifetime (for reporting).
    excluded_total: usize,
}

impl StatFilter {
    /// Creates the aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many updates have been excluded so far.
    pub fn excluded_total(&self) -> usize {
        self.excluded_total
    }

    /// Indices of updates flagged by the robust 3σ rule (median ± 3·1.4826·MAD,
    /// the MAD-consistent estimate of σ — immune to the masking effect a
    /// boosted update has on the plain mean/std) on magnitude or direction.
    pub fn flagged(updates: &[ClientUpdate], dim: usize) -> Vec<usize> {
        if updates.len() < 3 {
            return Vec::new();
        }
        let mean = mean_delta(updates, dim);
        let norms: Vec<f64> = updates.iter().map(|u| l2_norm(&u.delta)).collect();
        let cosines: Vec<f64> = updates
            .iter()
            .map(|u| cosine_similarity(&u.delta, &mean).unwrap_or(0.0))
            .collect();
        let mut flagged = robust_three_sigma(&norms);
        flagged.extend(robust_three_sigma(&cosines));
        flagged.sort_unstable();
        flagged.dedup();
        flagged
    }
}

/// Indices whose value deviates from the median by more than
/// `3 · 1.4826 · MAD`.
fn robust_three_sigma(values: &[f64]) -> Vec<usize> {
    let med = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    let mad = median(&deviations);
    if mad <= f64::EPSILON {
        // Degenerate spread: fall back to flagging nothing (a constant
        // cohort has no outliers by this rule).
        return Vec::new();
    }
    let sigma = 1.4826 * mad;
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| (v - med).abs() > 3.0 * sigma)
        .map(|(i, _)| i)
        .collect()
}

impl Aggregator for StatFilter {
    fn name(&self) -> &'static str {
        "stat-filter"
    }

    fn aggregate(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        let flagged = Self::flagged(updates, out.len());
        self.excluded_total += flagged.len();
        let kept: Vec<ClientUpdate> = updates
            .iter()
            .enumerate()
            .filter(|(i, _)| !flagged.contains(i))
            .map(|(_, u)| u.clone())
            .collect();
        mean_delta_pooled_into(&kept, out, &mut Vec::new(), pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::{aggregate, updates};
    use rand::SeedableRng;

    #[test]
    fn filters_magnitude_outlier() {
        let mut agg = StatFilter::new();
        let mut rng = StdRng::seed_from_u64(0);
        // 7 benign-ish updates and one boosted outlier.
        let benign: Vec<Vec<f32>> = (0..7).map(|i| vec![0.1 + 0.01 * i as f32, 0.1]).collect();
        let mut all: Vec<&[f32]> = benign.iter().map(|v| v.as_slice()).collect();
        let boosted = vec![500.0f32, 500.0];
        all.push(&boosted);
        let us = updates(&all);
        let out = aggregate(&mut agg, &us, 2, &mut rng);
        assert!(out[0] < 1.0, "boosted update must be filtered: {out:?}");
        assert_eq!(agg.excluded_total(), 1);
    }

    #[test]
    fn passes_homogeneous_updates() {
        let mut agg = StatFilter::new();
        let mut rng = StdRng::seed_from_u64(1);
        let vs: Vec<Vec<f32>> = (0..6).map(|i| vec![0.1 * (i % 3) as f32, 0.2]).collect();
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let us = updates(&refs);
        let out = aggregate(&mut agg, &us, 2, &mut rng);
        assert_eq!(agg.excluded_total(), 0);
        assert!(out[1] > 0.0);
    }

    #[test]
    fn tiny_cohorts_are_not_screened() {
        let mut agg = StatFilter::new();
        let mut rng = StdRng::seed_from_u64(2);
        let us = updates(&[&[1000.0f32], &[0.1]]);
        let out = aggregate(&mut agg, &us, 1, &mut rng);
        // With < 3 updates there is no statistics to screen against.
        assert!(out[0] > 100.0);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = StatFilter::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(aggregate(&mut agg, &[], 3, &mut rng), vec![0.0; 3]);
    }
}
