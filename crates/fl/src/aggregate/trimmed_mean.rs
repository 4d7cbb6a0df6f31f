//! α-trimmed mean [Yin et al., ICML 2018].

use super::{coordinate_shard, Aggregator, COORD_SHARD};
use crate::update::ClientUpdate;
use collapois_nn::kernels;
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use rand::rngs::StdRng;

/// Per-coordinate trimmed mean: drop the top and bottom `beta` fraction of
/// values, average the rest.
///
/// Each coordinate is gathered into a reusable scratch buffer and reduced
/// by [`kernels::trimmed_mean_inplace`], which partial-selects the trim
/// boundaries instead of fully sorting and sums the kept middle in
/// ascending order — so the result is independent of client order. The
/// pooled path shards the coordinate loop into fixed-width column blocks
/// (coordinates are independent, so any sharding is bitwise exact), each
/// lane gathering into its own persistent scratch buffer.
#[derive(Debug)]
pub struct TrimmedMean {
    beta: f64,
    /// Per-lane gather buffers for the sharded path.
    arenas: WorkerArenas<Vec<f32>>,
}

impl TrimmedMean {
    /// Creates the aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `[0, 0.5)`.
    pub fn new(beta: f64) -> Self {
        assert!((0.0..0.5).contains(&beta), "beta must be in [0, 0.5)");
        Self {
            beta,
            arenas: WorkerArenas::new(),
        }
    }

    /// Values trimmed from each end for `n` updates.
    fn trim(&self, n: usize) -> usize {
        (((n as f64) * self.beta).floor() as usize).min(n / 2)
    }
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        if updates.is_empty() {
            out.fill(0.0);
            return;
        }
        let trim = self.trim(updates.len());
        pool.for_chunks_mut_with_arena(
            &mut self.arenas,
            out,
            COORD_SHARD,
            Vec::new,
            |shard, chunk, scratch| {
                coordinate_shard(updates, shard, chunk, scratch, |buf| {
                    kernels::trimmed_mean_inplace(buf, trim)
                });
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::{aggregate, updates};
    use rand::SeedableRng;

    #[test]
    fn trims_extremes() {
        let mut agg = TrimmedMean::new(0.25);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[-1000.0], &[1.0], &[3.0], &[1000.0]]);
        assert_eq!(aggregate(&mut agg, &us, 1, &mut rng), vec![2.0]);
    }

    #[test]
    fn zero_beta_is_plain_mean() {
        let mut agg = TrimmedMean::new(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(aggregate(&mut agg, &us, 1, &mut rng), vec![2.0]);
    }

    #[test]
    fn bounded_per_coordinate() {
        let mut agg = TrimmedMean::new(0.2);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[
            &[0.0, 5.0],
            &[1.0, 6.0],
            &[2.0, 7.0],
            &[3.0, 8.0],
            &[4.0, 9.0],
        ]);
        let out = aggregate(&mut agg, &us, 2, &mut rng);
        assert!(out[0] >= 0.0 && out[0] <= 4.0);
        assert!(out[1] >= 5.0 && out[1] <= 9.0);
    }

    #[test]
    #[should_panic(expected = "beta must be")]
    fn rejects_bad_beta() {
        let _ = TrimmedMean::new(0.5);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = TrimmedMean::new(0.1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(aggregate(&mut agg, &[], 4, &mut rng), vec![0.0; 4]);
    }

    #[test]
    fn shards_are_worker_count_invariant() {
        // Dimension far beyond one COORD_SHARD so several shards exist.
        let dim = 600;
        let us: Vec<ClientUpdate> = (0..11)
            .map(|i| {
                let delta: Vec<f32> = (0..dim).map(|j| ((i * 13 + j) as f32).sin()).collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect();
        let mut agg = TrimmedMean::new(0.2);
        let mut rng = StdRng::seed_from_u64(0);
        let serial = aggregate(&mut agg, &us, dim, &mut rng);
        for workers in [2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0.0f32; dim];
            agg.aggregate(&us, &mut out, &mut rng, &pool);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }
}
