//! Paper-scale cohort engine acceptance tests.
//!
//! Three guarantees back the lazy resident-shard cohort and the
//! work-stealing dispatcher:
//!
//! 1. **Laziness is bitwise-invisible at the data layer.** A client shard
//!    is a pure function of `(seed, client_id)`, so the lazy LRU backing
//!    must hand out bit-identical splits to an eager materialization of
//!    the same `ShardSpec` — including *re-renders* after eviction.
//! 2. **The lazy scenario family is pinned and worker-invariant.** A
//!    lazily-backed run is a distinct scenario family from the legacy
//!    eager Dirichlet partition (it consumes no partition RNG draws), so
//!    its canonical event hash gets its own golden fixture
//!    (`tests/fixtures/golden_lazy_cohort.hash`), asserted at workers
//!    1/2/4/8 — the stealing dispatcher may move work between lanes but
//!    never the result. Regenerate like the other golden fixtures: run,
//!    copy the `actual` hash from the failure message, call it out in the
//!    PR description.
//! 3. **A 4096-client run is memory-bounded.** With a 4 MB shard budget
//!    the resident set must stay under budget for the whole run while the
//!    full shards its set-up and training render (~18 KB each, ~6 MB)
//!    plainly do not fit, let alone the cohort (~70 MB eager) — the
//!    bytes-per-client envelope that makes paper-scale populations
//!    tractable. Evaluation renders test-only views (~3 KB each), which
//!    are never stored. Release-only: the debug round loop is an
//!    order of magnitude slower and CI runs this under the `cohort-scale`
//!    job.
//! 4. **One population pass per evaluation point.** The final evaluation
//!    is the report's client-level metrics, and the same pass computes the
//!    Eq. 9 cosines the cluster analysis uses, so a run reads each benign
//!    client (full shard or test view) once per evaluation point. Pinned
//!    by the count of full renders plus views at workers = 1 (where LRU
//!    tallies are deterministic) and by replaying
//!    the final point and the clusters on the sync, sim and
//!    resume-complete paths.

use collapois::core::scenario::{
    auxiliary_data, AttackKind, CohortMode, DefenseKind, RunOptions, Scenario, ScenarioConfig,
    ScenarioReport, SimKnobs,
};
use collapois::data::{Dataset, FederatedDataset};
use collapois::fl::metrics::{cluster_analysis, population};
use collapois::runtime::digest::fnv1a_f32;

fn assert_datasets_bitwise_eq(a: &Dataset, b: &Dataset, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    for i in 0..a.len() {
        let (fa, fb) = (a.features_of(i), b.features_of(i));
        assert_eq!(fa.len(), fb.len(), "{what}: sample {i} width");
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: sample {i} bits");
        }
    }
}

#[test]
fn lazy_shards_match_eager_materialization_bitwise_even_after_eviction() {
    let mut cfg = ScenarioConfig::quick_image(0.5, 0.1);
    cfg.num_clients = 32;
    cfg.samples_per_client = 12;
    let spec = cfg.shard_spec();
    let eager = FederatedDataset::eager_from_shards(&spec, cfg.num_clients);

    // Budget of ~4 shards: walking all 32 clients forces evictions, and
    // the second pass below re-renders everything from the RNG stream.
    let one_shard = eager.client(0).heap_bytes();
    let lazy = FederatedDataset::lazy(spec, cfg.num_clients, 4 * one_shard);

    for pass in 0..2 {
        for id in 0..cfg.num_clients {
            let (l, e) = (lazy.client(id), eager.client(id));
            let what = format!("pass {pass} client {id}");
            assert_datasets_bitwise_eq(&l.train, &e.train, &format!("{what} train"));
            assert_datasets_bitwise_eq(&l.test, &e.test, &format!("{what} test"));
            assert_datasets_bitwise_eq(&l.val, &e.val, &format!("{what} val"));
        }
    }
    let stats = lazy.shard_stats().expect("lazy backing reports stats");
    assert!(
        stats.evictions > 0,
        "a 4-shard budget over 32 clients must evict (stats: {stats:?})"
    );
    assert!(
        stats.resident_bytes <= stats.budget_bytes,
        "resident {} exceeds budget {}",
        stats.resident_bytes,
        stats.budget_bytes
    );
}

fn lazy_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.1);
    cfg.num_clients = 48;
    cfg.samples_per_client = 16;
    cfg.rounds = 3;
    cfg.eval_every = 3;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 4;
    cfg.attack = AttackKind::CollaPois;
    cfg.defense = DefenseKind::NormBound;
    cfg.cohort = CohortMode::Lazy; // explicit: 48 is below the auto threshold
    cfg
}

#[test]
fn lazy_cohort_event_hash_matches_fixture_at_every_worker_count() {
    let fixture_path = format!(
        "{}/tests/fixtures/golden_lazy_cohort.hash",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|_| panic!("fixture missing: {fixture_path}"))
        .trim()
        .to_string();

    let cfg = lazy_cfg();
    let mut param_hash = None;
    for workers in [1usize, 2, 4, 8] {
        let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
            workers,
            ..RunOptions::default()
        });
        let actual = format!("{:016x}", report.event_hash);
        assert_eq!(
            actual, expected,
            "lazy-cohort event hash diverged from the golden fixture at \
             workers={workers} (actual {actual}, expected {expected}); see \
             the module docs for when/how to regenerate"
        );
        // The stealing dispatcher must also leave the trained model
        // bitwise identical, not just the trace.
        let params = fnv1a_f32(&report.final_global);
        match param_hash {
            None => param_hash = Some(params),
            Some(h) => assert_eq!(
                h, params,
                "final params diverged between worker counts at workers={workers}"
            ),
        }
        assert!(
            report.shard_stats.is_some(),
            "an explicitly lazy run must report shard stats"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: run via the cohort-scale CI job (cargo test --release)"
)]
fn four_thousand_client_run_stays_within_the_shard_budget() {
    // Below the run's full-shard demand (checked below), so training and
    // set-up alone must evict: evaluation renders test-only views, which
    // are never stored and would not pressure a larger budget.
    const BUDGET_MB: usize = 4;
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 4096;
    cfg.samples_per_client = 30;
    cfg.rounds = 2;
    cfg.eval_every = 2;
    cfg.sample_rate = 64.0 / 4096.0;
    cfg.trojan.epochs = 2;
    cfg.attack = AttackKind::CollaPois;
    cfg.shard_budget_mb = BUDGET_MB; // cohort stays Auto: 4096 >= threshold

    let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
        workers: 2,
        ..RunOptions::default()
    });
    let stats = report.shard_stats.expect("4096 clients must run lazily");
    assert_eq!(stats.budget_bytes, BUDGET_MB << 20);
    assert!(
        stats.resident_bytes <= stats.budget_bytes,
        "resident {} bytes exceeds the declared {} byte budget",
        stats.resident_bytes,
        stats.budget_bytes
    );
    // Every client is rendered at least once: as a full shard when
    // set-up or training touches it, as a test view when only evaluation
    // does.
    assert!(
        stats.misses + stats.test_views >= cfg.num_clients as u64,
        "every client is rendered at least once (stats: {stats:?})"
    );
    // The budget must be doing real work: the full shards the run renders
    // do not fit, so renders beyond the envelope are paid with evictions.
    let one_shard = cfg.shard_spec().generate_client(0).heap_bytes();
    assert!(
        stats.misses as usize * one_shard > stats.budget_bytes,
        "the run's full shards must exceed the budget (stats: {stats:?}, {one_shard} B/shard)"
    );
    assert!(
        stats.evictions > 0,
        "a budget below the full-shard demand must evict (stats: {stats:?})"
    );
}

#[test]
fn one_evaluation_point_renders_each_shard_at_most_once() {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 160;
    cfg.samples_per_client = 32;
    cfg.rounds = 2;
    cfg.eval_every = 2; // the final point is the only one

    // Two cohorts of 40 plus the compromised set: more full shards than
    // the budget holds, since evaluation's test views are never stored.
    cfg.sample_rate = 0.25;
    cfg.trojan.epochs = 2;
    cfg.attack = AttackKind::CollaPois;
    cfg.cohort = CohortMode::Lazy;
    cfg.shard_budget_mb = 1; // ~18 KB shards: holds ~55 of 160 clients

    let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
        workers: 1,
        ..RunOptions::default()
    });
    let stats = report.shard_stats.expect("an explicitly lazy run");
    assert!(
        stats.evictions > 0,
        "the budget must hold fewer shards than the population (stats: {stats:?})"
    );
    assert!(
        !report.clusters.is_empty(),
        "an attacked run reports clusters"
    );
    // Set-up touches the compromised clients, training touches each
    // round's cohort, and the one evaluation pass touches every benign
    // client (a full shard or a test view); a second walk of the
    // population would blow this bound.
    let max_cohort = report
        .records
        .iter()
        .map(|r| r.sampled.len())
        .max()
        .expect("rounds ran");
    let bound = (cfg.num_clients + cfg.rounds * max_cohort) as u64;
    assert!(
        stats.misses + stats.test_views <= bound,
        "{} shard misses and {} test views exceed one population pass ({bound})",
        stats.misses,
        stats.test_views
    );
}

/// The final evaluation point is `report.clients`, and the clusters equal
/// a standalone `cluster_analysis` over a fresh copy of the cohort.
fn assert_final_point_is_the_report(cfg: &ScenarioConfig, report: &ScenarioReport, path: &str) {
    let last = report.rounds.last().expect("one evaluation point");
    let pop = population(&report.clients);
    assert_eq!(last.benign_accuracy, pop.benign_ac, "{path}: benign AC");
    assert_eq!(last.attack_success_rate, pop.attack_sr, "{path}: attack SR");
    assert_eq!(pop.clients, cfg.num_clients - report.compromised.len());
    let fed = FederatedDataset::lazy(cfg.shard_spec(), cfg.num_clients, cfg.shard_budget_bytes());
    let aux = auxiliary_data(&fed, &report.compromised);
    assert!(!report.clusters.is_empty(), "{path}: clusters");
    assert_eq!(
        report.clusters,
        cluster_analysis(&fed, &report.clients, &aux),
        "{path}: clusters"
    );
}

#[test]
fn final_evaluation_is_the_report_on_sync_sim_and_resume_paths() {
    let cfg = lazy_cfg();
    let sync = Scenario::new(cfg.clone()).run();
    assert_final_point_is_the_report(&cfg, &sync, "sync");

    let sim = Scenario::new(cfg.clone()).run_with(&RunOptions {
        sim: Some(SimKnobs {
            buffer_k: 8,
            ..SimKnobs::default()
        }),
        ..RunOptions::default()
    });
    assert_final_point_is_the_report(&cfg, &sim, "sim");

    let dir = std::env::temp_dir().join(format!("collapois-one-pass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        ..RunOptions::default()
    };
    Scenario::new(cfg.clone()).run_with(&ckpt);
    let resumed = Scenario::new(cfg.clone()).run_with(&RunOptions {
        resume: true,
        ..ckpt
    });
    assert!(resumed.records.is_empty(), "the resumed run was complete");
    assert_final_point_is_the_report(&cfg, &resumed, "resume-complete");
    assert_eq!(resumed.clients, sync.clients);
    assert_eq!(resumed.clusters, sync.clusters);
    let _ = std::fs::remove_dir_all(&dir);
}
