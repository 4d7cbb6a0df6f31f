//! Coordinate-wise median [Yin et al., ICML 2018].

use super::{coordinate_shard, Aggregator, COORD_SHARD};
use crate::update::ClientUpdate;
use collapois_nn::kernels;
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use rand::rngs::StdRng;

/// Element-wise median of the round's deltas.
///
/// Each coordinate is gathered into a reusable scratch buffer and reduced
/// by [`kernels::median_inplace`] (partial select instead of a full sort;
/// even lengths interpolate the two middle order statistics in `f64`,
/// matching `collapois_stats::descriptive::median`). The pooled path
/// shards the coordinate loop into fixed-width column blocks with per-lane
/// gather buffers — bitwise exact because coordinates are independent.
#[derive(Debug, Default)]
pub struct CoordinateMedian {
    /// Per-lane gather buffers for the sharded path.
    arenas: WorkerArenas<Vec<f32>>,
}

impl CoordinateMedian {
    /// Creates the aggregator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Aggregator for CoordinateMedian {
    fn name(&self) -> &'static str {
        "median"
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
        pool.for_chunks_mut_with_arena(
            &mut self.arenas,
            out,
            COORD_SHARD,
            Vec::new,
            |shard, chunk, scratch| {
                coordinate_shard(updates, shard, chunk, scratch, |buf| {
                    kernels::median_inplace(buf)
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
    fn median_resists_single_outlier() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0], &[2.0], &[1000.0]]);
        assert_eq!(aggregate(&mut agg, &us, 1, &mut rng), vec![2.0]);
    }

    #[test]
    fn bounded_by_min_max_per_coordinate() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0, -4.0], &[3.0, 0.0], &[2.0, -2.0], &[5.0, 1.0]]);
        let out = aggregate(&mut agg, &us, 2, &mut rng);
        assert!(out[0] >= 1.0 && out[0] <= 5.0);
        assert!(out[1] >= -4.0 && out[1] <= 1.0);
    }

    #[test]
    fn even_count_interpolates_middle_pair() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0], &[4.0], &[2.0], &[3.0]]);
        assert_eq!(aggregate(&mut agg, &us, 1, &mut rng), vec![2.5]);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(aggregate(&mut agg, &[], 2, &mut rng), vec![0.0; 2]);
    }

    #[test]
    fn shards_are_worker_count_invariant() {
        let dim = 520;
        let us: Vec<ClientUpdate> = (0..9)
            .map(|i| {
                let delta: Vec<f32> = (0..dim).map(|j| ((i * 7 + j) as f32).cos()).collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect();
        let mut agg = CoordinateMedian::new();
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
