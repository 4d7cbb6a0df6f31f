//! Failure-injection and robustness integration tests: extreme adversaries,
//! degenerate cohorts, and numerical sanity of every aggregation rule under
//! attack.

use collapois::core::scenario::{AttackKind, DefenseKind, FlAlgo, Scenario, ScenarioConfig};
use collapois::fl::aggregate::{
    Aggregator, CoordinateMedian, Crfl, DpAggregator, FedAvg, Flare, Krum, NormBound,
    RobustLearningRate, SignSgd, TrimmedMean,
};
use collapois::fl::update::ClientUpdate;
use collapois::runtime::pool::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn all_aggregators() -> Vec<Box<dyn Aggregator>> {
    vec![
        Box::new(FedAvg::new()),
        Box::new(Krum::new(1)),
        Box::new(Krum::multi(1, 2)),
        Box::new(CoordinateMedian::new()),
        Box::new(TrimmedMean::new(0.2)),
        Box::new(NormBound::new(1.0).with_noise(0.01)),
        Box::new(DpAggregator::new(1.0, 0.3)),
        Box::new(RobustLearningRate::new(2)),
        Box::new(SignSgd::new(0.01)),
        Box::new(Flare::new(4.0)),
        Box::new(Crfl::new(10.0, 0.01)),
    ]
}

#[test]
fn every_aggregator_survives_extreme_outliers() {
    // One client submitting a 1e6-scale update among small benign ones
    // (within every rule's declared tolerance — trimmed mean with beta=0.2
    // absorbs 1 outlier per side at n=8): no rule may produce NaN/inf, and
    // the robust rules must not let the aggregate explode to the outlier
    // scale.
    let dim = 64;
    let mut updates: Vec<ClientUpdate> = (0..7)
        .map(|i| ClientUpdate::new(i, vec![0.01 * (i as f32 + 1.0); dim], 8))
        .collect();
    updates.push(ClientUpdate::new(7, vec![1e6; dim], 8));
    let mut rng = StdRng::seed_from_u64(0);
    for mut agg in all_aggregators() {
        let out = aggregate(agg.as_mut(), &updates, dim, &mut rng);
        assert_eq!(out.len(), dim, "{}", agg.name());
        assert!(
            out.iter().all(|v| v.is_finite()),
            "{} produced non-finite output",
            agg.name()
        );
        let robust = matches!(
            agg.name(),
            "krum" | "multi-krum" | "median" | "trimmed-mean" | "norm-bound" | "dp" | "signsgd"
        );
        if robust {
            let max = out.iter().cloned().fold(0.0f32, |a, b| a.max(b.abs()));
            assert!(max < 1e5, "{}: outliers leaked through ({max})", agg.name());
        }
    }
}

#[test]
fn every_aggregator_handles_single_update_and_empty_round() {
    let dim = 16;
    let single = vec![ClientUpdate::new(0, vec![0.5; dim], 4)];
    let mut rng = StdRng::seed_from_u64(1);
    for mut agg in all_aggregators() {
        let out = aggregate(agg.as_mut(), &[], dim, &mut rng);
        assert_eq!(out.len(), dim, "{} empty round", agg.name());
        let out = aggregate(agg.as_mut(), &single, dim, &mut rng);
        assert_eq!(out.len(), dim, "{} single update", agg.name());
        assert!(out.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn mrepl_under_median_does_not_destroy_the_model() {
    let mut cfg = ScenarioConfig::quick_image(0.5, 0.1);
    cfg.num_clients = 16;
    cfg.samples_per_client = 25;
    cfg.rounds = 12;
    cfg.eval_every = 12;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 10;
    cfg.attack = AttackKind::MRepl;
    cfg.defense = DefenseKind::Median;
    cfg.seed = 31;
    let report = Scenario::new(cfg).run();
    assert!(report.final_global.iter().all(|v| v.is_finite()));
    let last = report.final_round();
    assert!(
        last.benign_accuracy > 0.2,
        "median should keep training usable under MRepl: {}",
        last.benign_accuracy
    );
}

#[test]
fn all_defense_algo_combinations_run_without_panicking() {
    // Smoke matrix: every defense × every FL algorithm on a tiny scenario.
    for &defense in DefenseKind::all() {
        for algo in [
            FlAlgo::FedAvg,
            FlAlgo::FedDc,
            FlAlgo::MetaFed,
            FlAlgo::Ditto,
        ] {
            let mut cfg = ScenarioConfig::quick_image(1.0, 0.1);
            cfg.num_clients = 10;
            cfg.samples_per_client = 20;
            cfg.rounds = 3;
            cfg.eval_every = 3;
            cfg.sample_rate = 0.5;
            cfg.trojan.epochs = 4;
            cfg.attack = AttackKind::CollaPois;
            cfg.defense = defense;
            cfg.algo = algo;
            cfg.seed = 13;
            let report = Scenario::new(cfg).run();
            assert!(
                report.final_global.iter().all(|v| v.is_finite()),
                "{:?} x {:?} produced non-finite model",
                defense,
                algo
            );
        }
    }
}

#[test]
fn full_sampling_rate_round_includes_everyone() {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.0);
    cfg.num_clients = 8;
    cfg.samples_per_client = 20;
    cfg.rounds = 1;
    cfg.eval_every = 1;
    cfg.sample_rate = 1.0;
    cfg.attack = AttackKind::None;
    cfg.collect_updates = true;
    let report = Scenario::new(cfg).run();
    let updates = report.records[0].updates.as_ref().expect("collected");
    assert_eq!(updates.len(), 8);
}
