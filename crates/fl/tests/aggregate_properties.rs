//! Property-based tests of the robust aggregation rules' structural
//! invariants, now that their hot paths route through the kernel layer.
//!
//! Exactness expectations mirror the kernel-layer contract
//! (`collapois-nn/src/kernels/mod.rs`):
//!
//! * Coordinate-wise median and trimmed mean are **bitwise** invariant to
//!   client order — the kernels sum the kept order statistics in ascending
//!   sorted order regardless of input order.
//! * Krum's score *vector* permutes exactly with the clients (squared
//!   distances are symmetric and each row is sorted before the partial
//!   sum), so the selection is stable under reordering.
//! * FedAvg accumulates `f64` per-update in client order, so a permutation
//!   may shift the result by `f64` ulps — checked to a 1e-6 relative
//!   tolerance instead.
//! * NormBound with no noise is idempotent on already-bounded updates: the
//!   clip branch never fires, so it degenerates to the exact FedAvg mean.

use collapois_fl::aggregate::{Aggregator, CoordinateMedian, FedAvg, Krum, NormBound, TrimmedMean};
use collapois_fl::update::ClientUpdate;
use collapois_nn::kernels;
use collapois_runtime::pool::WorkerPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `agg` on a one-worker pool (the serial path) into a fresh
/// `dim`-length delta.
fn aggregate(
    agg: &mut dyn Aggregator,
    updates: &[ClientUpdate],
    dim: usize,
    rng: &mut StdRng,
) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    agg.aggregate(updates, &mut out, rng, &WorkerPool::new(1));
    out
}

fn random_updates(rng: &mut StdRng, n: usize, dim: usize) -> Vec<ClientUpdate> {
    (0..n)
        .map(|i| {
            let delta: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            ClientUpdate::new(i, delta, 10)
        })
        .collect()
}

/// Deterministic permutation via seeded Fisher–Yates.
fn permuted(updates: &[ClientUpdate], seed: u64) -> (Vec<ClientUpdate>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..updates.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        order.swap(i, j);
    }
    let shuffled = order.iter().map(|&i| updates[i].clone()).collect();
    (shuffled, order)
}

fn rel_close(a: f32, b: f32) -> bool {
    let denom = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() / denom <= 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Median and trimmed mean: exactly the same output for any client
    /// permutation.
    #[test]
    fn order_statistics_exactly_permutation_invariant(
        seed in 0u64..10_000,
        n in 1usize..20,
        dim in 1usize..30,
        beta in 0.0f64..0.49,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let (shuffled, _) = permuted(&updates, seed ^ 0x5eed);
        let mut srng = StdRng::seed_from_u64(0);

        let mut median = CoordinateMedian::new();
        prop_assert_eq!(
            aggregate(&mut median, &updates, dim, &mut srng),
            aggregate(&mut median, &shuffled, dim, &mut srng)
        );

        let mut tm = TrimmedMean::new(beta);
        prop_assert_eq!(
            aggregate(&mut tm, &updates, dim, &mut srng),
            aggregate(&mut tm, &shuffled, dim, &mut srng)
        );
    }

    /// FedAvg: permutation-invariant to 1e-6 relative (f64 accumulation in
    /// client order reassociates under permutation).
    #[test]
    fn fedavg_permutation_invariant_within_tolerance(
        seed in 0u64..10_000,
        n in 1usize..20,
        dim in 1usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let (shuffled, _) = permuted(&updates, seed ^ 0xfeed);
        let mut srng = StdRng::seed_from_u64(0);
        let mut agg = FedAvg::new();
        let a = aggregate(&mut agg, &updates, dim, &mut srng);
        let b = aggregate(&mut agg, &shuffled, dim, &mut srng);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(rel_close(*x, *y), "fedavg permuted: {x} vs {y}");
        }
    }

    /// Krum scores permute exactly with the clients, so both the selected
    /// update and the score ordering are stable under reordering.
    #[test]
    fn krum_scores_stable_under_client_reordering(
        seed in 0u64..10_000,
        n in 3usize..16,
        dim in 1usize..30,
        f in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates = random_updates(&mut rng, n, dim);
        let (shuffled, order) = permuted(&updates, seed ^ 0xc0de);

        let krum = Krum::new(f);
        let pool = WorkerPool::new(1);
        let base = krum.scores(&updates, &pool);
        let perm = krum.scores(&shuffled, &pool);
        // perm[pos] scored the update that sat at updates[order[pos]].
        for (pos, &orig) in order.iter().enumerate() {
            prop_assert_eq!(perm[pos], base[orig], "score moved under permutation");
        }

        // Classic Krum selects an update of minimal score in both orders.
        // (With exactly tied scores — e.g. n=3 where two scores equal the
        // same pair distance — the stable sort may pick either twin, so we
        // assert minimality rather than identical outputs.)
        let min = base.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut srng = StdRng::seed_from_u64(0);
        for (us, scores) in [(&updates, &base), (&shuffled, &perm)] {
            let out = aggregate(&mut Krum::new(f), us, dim, &mut srng);
            let picked = us
                .iter()
                .position(|u| u.delta == out)
                .expect("krum output must be one of the inputs");
            prop_assert_eq!(scores[picked], min, "selected a non-minimal score");
        }
    }

    /// NormBound (no noise) on updates already within the bound is exactly
    /// FedAvg, and re-applying it to its own output changes nothing.
    #[test]
    fn norm_bound_idempotent_on_bounded_updates(
        seed in 0u64..10_000,
        n in 1usize..12,
        dim in 1usize..30,
        bound in 0.5f64..4.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut updates = random_updates(&mut rng, n, dim);
        // Rescale every update strictly inside the bound.
        for u in &mut updates {
            let norm = kernels::sq_l2_norm(&u.delta).sqrt();
            if norm > 0.0 {
                let s = (0.9 * bound / norm.max(bound)) as f32;
                kernels::scale(&mut u.delta, s);
            }
        }
        let mut srng = StdRng::seed_from_u64(0);
        let mut nb = NormBound::new(bound);
        let out = aggregate(&mut nb, &updates, dim, &mut srng);

        let mut fedavg = FedAvg::new();
        prop_assert_eq!(&out, &aggregate(&mut fedavg, &updates, dim, &mut srng));

        // The mean of vectors within the bound is within the bound, so a
        // second pass must be the identity.
        let again = aggregate(&mut nb, &[ClientUpdate::new(0, out.clone(), 10)], dim, &mut srng);
        prop_assert_eq!(again, out);
    }
}
