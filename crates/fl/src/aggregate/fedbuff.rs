//! FedBuff: staleness-weighted buffered-async merging (Nguyen et al.,
//! AISTATS 2022).
//!
//! In buffered-async mode updates do not belong to a synchronous round:
//! each client trained against whatever global version it fetched, and the
//! buffer flushes when it holds K completions or a virtual deadline
//! passes. A completion that fetched version `v` and lands when the server
//! is at version `v + s` is *s-stale*; FedBuff discounts it by
//! `w = (1 + s)^(-a)` and applies the weighted mean
//! `Δ = Σ wᵢ·Δθᵢ / Σ wᵢ`. Each [`ClientUpdate`] carries its staleness;
//! a synchronous round's updates are all 0-stale, and then FedBuff is
//! exactly FedAvg.
//!
//! The merge reuses the engine's fixed-shape pooled reduction tree
//! ([`crate::update::weighted_mean_delta_pooled_into`]), so it is bitwise
//! identical at every worker count — the property the sim's determinism
//! guarantee leans on.

use super::Aggregator;
use crate::update::{weighted_mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// FedBuff's default staleness exponent.
pub const DEFAULT_STALENESS_DECAY: f64 = 0.5;

/// The FedBuff discount `(1 + staleness)^(-decay)`. `decay = 0` weights
/// all updates equally (pure buffered FedAvg).
pub fn staleness_weight(staleness: u64, decay: f64) -> f64 {
    (1.0 + staleness as f64).powf(-decay)
}

/// Staleness-weighted buffered merge state (reusable accumulators).
#[derive(Debug, Default)]
pub struct FedBuff {
    decay: f64,
    weights: Vec<f64>,
    acc: Vec<f64>,
}

impl FedBuff {
    /// A merger with staleness exponent `decay` (≥ 0).
    pub fn new(decay: f64) -> Self {
        assert!(decay.is_finite() && decay >= 0.0, "invalid decay {decay}");
        Self {
            decay,
            weights: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// The configured staleness exponent.
    pub fn decay(&self) -> f64 {
        self.decay
    }
}

impl Aggregator for FedBuff {
    fn name(&self) -> &'static str {
        "fedbuff"
    }

    /// Merges one flushed buffer: `out = Σ wᵢ·Δθᵢ / Σ wᵢ` with
    /// `wᵢ = (1 + staleness_i)^(-decay)`, fanned over `pool` through the
    /// fixed-shape reduction tree (bitwise worker-count-invariant).
    fn aggregate(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        self.weights.clear();
        self.weights.extend(
            updates
                .iter()
                .map(|u| staleness_weight(u.staleness, self.decay)),
        );
        weighted_mean_delta_pooled_into(updates, &self.weights, out, &mut self.acc, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::{aggregate, updates};
    use crate::aggregate::FedAvg;
    use rand::SeedableRng;

    #[test]
    fn weight_decays_with_staleness() {
        assert_eq!(staleness_weight(0, 0.5), 1.0);
        let w1 = staleness_weight(1, 0.5);
        let w3 = staleness_weight(3, 0.5);
        assert!((w1 - 0.5f64.sqrt() * 2.0 / 2.0).abs() < 1e-12);
        assert!(w3 < w1 && w1 < 1.0);
        assert_eq!(staleness_weight(7, 0.0), 1.0, "decay 0 ignores staleness");
    }

    #[test]
    fn fresh_updates_match_fedavg_bitwise() {
        // A synchronous round is a flush in which every update is 0-stale:
        // FedBuff must then aggregate exactly as FedAvg, at every worker
        // count.
        let us: Vec<ClientUpdate> = (0..21)
            .map(|i| ClientUpdate::new(i, (0..9).map(|j| ((i * 5 + j) as f32).cos()).collect(), 1))
            .collect();
        let mut rng = StdRng::seed_from_u64(0);
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut fedbuff = vec![0.0f32; 9];
            FedBuff::new(DEFAULT_STALENESS_DECAY).aggregate(&us, &mut fedbuff, &mut rng, &pool);
            let mut fedavg = vec![0.0f32; 9];
            FedAvg::new().aggregate(&us, &mut fedavg, &mut rng, &pool);
            let a: Vec<u32> = fedbuff.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = fedavg.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                a, b,
                "all-fresh updates must merge as FedAvg (workers={workers})"
            );
        }
    }

    #[test]
    fn stale_updates_are_discounted() {
        // Second update is 3-stale: w = 1/4; merge = (1 - 0.25)/(1.25).
        let mut us = updates(&[&[1.0], &[-1.0]]);
        us[1].staleness = 3;
        let mut rng = StdRng::seed_from_u64(0);
        let out = aggregate(&mut FedBuff::new(1.0), &us, 1, &mut rng);
        assert!((out[0] - 0.6).abs() < 1e-6, "got {}", out[0]);
    }

    #[test]
    fn merge_is_worker_count_invariant() {
        let mut us: Vec<ClientUpdate> = (0..21)
            .map(|i| ClientUpdate::new(i, (0..9).map(|j| ((i * 3 + j) as f32).sin()).collect(), 1))
            .collect();
        for (i, u) in us.iter_mut().enumerate() {
            u.staleness = (i % 5) as u64;
        }
        let mut rng = StdRng::seed_from_u64(0);
        let serial = aggregate(&mut FedBuff::new(0.5), &us, 9, &mut rng);
        for workers in [2usize, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0.0f32; 9];
            FedBuff::new(0.5).aggregate(&us, &mut out, &mut rng, &pool);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn empty_buffer_merges_to_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = vec![7.0f32; 4];
        FedBuff::new(0.5).aggregate(&[], &mut out, &mut rng, &WorkerPool::new(1));
        assert_eq!(out, vec![0.0; 4]);
    }
}
