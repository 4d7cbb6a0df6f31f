//! FedAvg: plain uniform averaging (Eq. 2 of the paper).

use super::Aggregator;
use crate::update::{mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// Uniform mean of the round's deltas — the paper's Eq. 2 baseline
/// aggregation, vulnerable by construction.
///
/// Keeps a reusable f64 accumulator so steady-state rounds aggregate
/// without allocating.
#[derive(Debug, Clone, Default)]
pub struct FedAvg {
    acc: Vec<f64>,
}

impl FedAvg {
    /// Creates the aggregator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Aggregator for FedAvg {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn aggregate(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        mean_delta_pooled_into(updates, out, &mut self.acc, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::{aggregate, updates};
    use rand::SeedableRng;

    #[test]
    fn averages_uniformly() {
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[2.0, 0.0], &[0.0, 2.0]]);
        assert_eq!(aggregate(&mut agg, &us, 2, &mut rng), vec![1.0, 1.0]);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(aggregate(&mut agg, &[], 3, &mut rng), vec![0.0; 3]);
    }

    #[test]
    fn mean_is_worker_count_invariant() {
        let us: Vec<ClientUpdate> = (0..17)
            .map(|i| {
                let delta: Vec<f32> = (0..6).map(|j| ((i + j * 19) as f32).sin()).collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect();
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        let serial = aggregate(&mut agg, &us, 6, &mut rng);
        for workers in [2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0.0f32; 6];
            agg.aggregate(&us, &mut out, &mut rng, &pool);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn identity_on_single_update() {
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0, -2.0, 3.0]]);
        assert_eq!(aggregate(&mut agg, &us, 3, &mut rng), vec![1.0, -2.0, 3.0]);
    }
}
