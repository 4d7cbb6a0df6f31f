//! Client-level and population-level metrics (§V of the paper).
//!
//! * **Benign AC** — accuracy of client `i`'s personalized model on its
//!   clean test split.
//! * **Attack SR** — fraction of client `i`'s trigger-stamped test samples
//!   predicted as the target class `y^Troj`.
//! * **Eq. 8 score** — `Benign AC + Attack SR`, used to rank the top-k%
//!   most-affected clients.
//! * **Clusters** — the paper's 1 %-, 25 %-, 50 %- and bottom-50 %-clusters
//!   (each excluding the preceding ones) with their Eq. 9 cumulative-label
//!   cosine to the attacker's auxiliary data.

use collapois_data::federated::FederatedDataset;
use collapois_data::labels::{cumulative_counts_cosine, cumulative_label_distribution};
use collapois_data::poison::BackdoorEval;
use collapois_data::sample::Dataset;
use collapois_nn::model::Sequential;
use collapois_nn::zoo::ModelSpec;
use collapois_runtime::pool::{WorkerArenas, WorkerPool};

/// Per-client evaluation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientMetrics {
    /// Client id.
    pub client_id: usize,
    /// Accuracy on the clean test split.
    pub benign_ac: f64,
    /// Backdoor success rate on the trigger-stamped test split.
    pub attack_sr: f64,
}

impl ClientMetrics {
    /// The paper's Eq. 8 infection score.
    pub fn score(&self) -> f64 {
        self.benign_ac + self.attack_sr
    }
}

/// Population-level averages over a set of clients.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PopulationMetrics {
    /// Mean Benign AC.
    pub benign_ac: f64,
    /// Mean Attack SR.
    pub attack_sr: f64,
    /// Number of clients averaged.
    pub clients: usize,
}

/// Averages a set of client metrics.
pub fn population(metrics: &[ClientMetrics]) -> PopulationMetrics {
    if metrics.is_empty() {
        return PopulationMetrics::default();
    }
    let n = metrics.len() as f64;
    PopulationMetrics {
        benign_ac: metrics.iter().map(|m| m.benign_ac).sum::<f64>() / n,
        attack_sr: metrics.iter().map(|m| m.attack_sr).sum::<f64>() / n,
        clients: metrics.len(),
    }
}

/// One evaluation pass over the benign population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationEval {
    /// Per-client metrics in ascending client order.
    pub clients: Vec<ClientMetrics>,
    /// Each client's Eq. 9 cumulative-label cosine to the auxiliary data,
    /// parallel to `clients`; `None` when the pass ran without `aux`.
    pub label_cosines: Option<Vec<f64>>,
}

/// Evaluates every benign client in one pass over the population: Benign
/// AC on its clean test split and Attack SR on the backdoored eval set the
/// [`BackdoorEval`] derives from it (trigger-stamped copy for trigger
/// attacks, the clean in-region samples for semantic attacks), using the
/// parameters produced by `eval_params(client_id)` (the personalized
/// model). With `aux`, the same pass also computes each client's Eq. 9
/// cosine to it while the client's data is in hand, so [`cluster_reports`]
/// needs no second walk. Clients are read through
/// [`FederatedDataset::eval_client`]: a lazy cohort serves a resident shard
/// or renders a test-only view, at most once per client and evaluation
/// point, and never evicts a training shard for it.
///
/// Clients in `excluded` (the compromised set; any order, duplicates and
/// out-of-range ids allowed) are skipped. Runs on a caller-owned
/// [`WorkerPool`] with lane-pinned scratch models that persist across
/// calls, so a round loop's periodic evaluation reuses the same buffers
/// every pass. Results are in ascending client order at any worker count —
/// each client's outcome is a pure function of its id.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_population<'p, F>(
    fed: &FederatedDataset,
    model_spec: &ModelSpec,
    eval_params: F,
    backdoor: &dyn BackdoorEval,
    target_class: usize,
    excluded: &[usize],
    aux: Option<&Dataset>,
    pool: &WorkerPool,
    arenas: &mut WorkerArenas<Sequential>,
) -> PopulationEval
where
    F: Fn(usize) -> &'p [f32] + Sync,
{
    let mut skip = vec![false; fed.num_clients()];
    for &id in excluded {
        if let Some(s) = skip.get_mut(id) {
            *s = true;
        }
    }
    let ids: Vec<usize> = (0..fed.num_clients()).filter(|&id| !skip[id]).collect();
    let reference = aux.map(cumulative_label_distribution);
    let out = pool.map_with_arena(
        arenas,
        ids,
        || {
            // Lane scratch model (seed irrelevant: params are always
            // overwritten before use).
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            model_spec.build(&mut rng)
        },
        |_, id, model| {
            model.set_params(eval_params(id));
            let client = fed.eval_client(id);
            let test = client.test();
            let benign_ac = if test.is_empty() {
                0.0
            } else {
                let (x, y) = test.as_batch();
                model.evaluate(&x, &y)
            };
            // An empty eval set (no test data, or no test sample inside a
            // semantic region) reads as SR 0: nothing to attack.
            let backdoored = backdoor.eval_set(test);
            let attack_sr = if backdoored.is_empty() {
                0.0
            } else {
                let (x, _) = backdoored.as_batch();
                let preds = model.predict(&x);
                preds.iter().filter(|&&p| p == target_class).count() as f64 / preds.len() as f64
            };
            let label_cosine = reference
                .as_deref()
                .map(|r| cumulative_counts_cosine(&client.label_histogram(), r));
            let metrics = ClientMetrics {
                client_id: id,
                benign_ac,
                attack_sr,
            };
            (metrics, label_cosine)
        },
    );
    let (clients, cosines): (Vec<ClientMetrics>, Vec<Option<f64>>) = out.into_iter().unzip();
    PopulationEval {
        clients,
        label_cosines: reference.map(|_| cosines.into_iter().flatten().collect()),
    }
}

/// [`evaluate_population`] without the Eq. 9 cosines.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_clients_pooled<'p, F>(
    fed: &FederatedDataset,
    model_spec: &ModelSpec,
    eval_params: F,
    backdoor: &dyn BackdoorEval,
    target_class: usize,
    excluded: &[usize],
    pool: &WorkerPool,
    arenas: &mut WorkerArenas<Sequential>,
) -> Vec<ClientMetrics>
where
    F: Fn(usize) -> &'p [f32] + Sync,
{
    evaluate_population(
        fed,
        model_spec,
        eval_params,
        backdoor,
        target_class,
        excluded,
        None,
        pool,
        arenas,
    )
    .clients
}

/// The top `k` percent of clients by Eq. 8 score, descending.
/// `k` in `(0, 100]`; at least one client is returned.
///
/// # Panics
///
/// Panics if `k` is outside `(0, 100]`.
pub fn top_k_percent(metrics: &[ClientMetrics], k: f64) -> Vec<ClientMetrics> {
    assert!(k > 0.0 && k <= 100.0, "k must be in (0, 100]");
    let mut sorted = metrics.to_vec();
    sorted.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
    let n = ((metrics.len() as f64) * k / 100.0).round().max(1.0) as usize;
    sorted.truncate(n.min(sorted.len()));
    sorted
}

/// One row of the paper's Fig. 12 cluster analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Cluster label ("1%", "25%", "50%", "bottom-50%").
    pub label: String,
    /// Clients in the cluster.
    pub clients: Vec<usize>,
    /// Mean Eq. 9 cumulative-label cosine to the auxiliary data.
    pub label_cosine: f64,
    /// Mean Attack SR of the cluster.
    pub attack_sr: f64,
    /// Mean Benign AC of the cluster.
    pub benign_ac: f64,
}

/// Splits clients into the paper's exclusive risk clusters (1 %, 25 %, 50 %,
/// bottom-50 % — each excludes all preceding clusters) and computes each
/// cluster's `CS_k` against the auxiliary dataset `aux` (Eq. 9).
///
/// Reads every client's label counts through
/// [`FederatedDataset::eval_client`]; a run that already evaluated with
/// `aux` calls [`cluster_reports`] on the pass's cosines instead.
pub fn cluster_analysis(
    fed: &FederatedDataset,
    metrics: &[ClientMetrics],
    aux: &Dataset,
) -> Vec<ClusterReport> {
    let reference = cumulative_label_distribution(aux);
    let cosines: Vec<f64> = metrics
        .iter()
        .map(|m| {
            cumulative_counts_cosine(&fed.eval_client(m.client_id).label_histogram(), &reference)
        })
        .collect();
    cluster_reports(metrics, &cosines)
}

/// [`cluster_analysis`] from precomputed Eq. 9 cosines (`label_cosines[i]`
/// belongs to `metrics[i]`, as [`PopulationEval`] lays them out). Touches
/// no client data. No clients make no clusters.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn cluster_reports(metrics: &[ClientMetrics], label_cosines: &[f64]) -> Vec<ClusterReport> {
    assert_eq!(
        metrics.len(),
        label_cosines.len(),
        "one label cosine per client"
    );
    // A stable sort of indices by the same key orders clients exactly as a
    // stable sort of the metrics themselves would.
    if metrics.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..metrics.len()).collect();
    order.sort_by(|&a, &b| {
        metrics[b]
            .score()
            .partial_cmp(&metrics[a].score())
            .expect("finite scores")
    });
    let n = order.len();
    let cut = |p: f64| -> usize { ((n as f64) * p / 100.0).round().max(1.0) as usize };
    let bounds = [
        ("1%", 0, cut(1.0)),
        ("25%", cut(1.0), cut(25.0)),
        ("50%", cut(25.0), cut(50.0)),
        ("bottom-50%", cut(50.0), n),
    ];
    bounds
        .iter()
        .filter(|(_, lo, hi)| hi > lo)
        .map(|&(label, lo, hi)| {
            let members = &order[lo..hi.min(n)];
            let len = members.len() as f64;
            let mean = |f: &dyn Fn(usize) -> f64| members.iter().map(|&i| f(i)).sum::<f64>() / len;
            ClusterReport {
                label: label.to_string(),
                clients: members.iter().map(|&i| metrics[i].client_id).collect(),
                label_cosine: mean(&|i| label_cosines[i]),
                attack_sr: mean(&|i| metrics[i].attack_sr),
                benign_ac: mean(&|i| metrics[i].benign_ac),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::labels::cumulative_label_cosine;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::PatchTrigger;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fed() -> FederatedDataset {
        let cfg = SyntheticImageConfig {
            samples: 400,
            side: 8,
            classes: 4,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(0);
        FederatedDataset::build(&mut rng, &ds, 8, 1.0)
    }

    fn fake_metrics() -> Vec<ClientMetrics> {
        (0..8)
            .map(|i| ClientMetrics {
                client_id: i,
                benign_ac: 0.5,
                attack_sr: i as f64 / 10.0,
            })
            .collect()
    }

    #[test]
    fn population_averages() {
        let p = population(&fake_metrics());
        assert_eq!(p.clients, 8);
        assert!((p.benign_ac - 0.5).abs() < 1e-12);
        assert!((p.attack_sr - 0.35).abs() < 1e-12);
        assert_eq!(population(&[]).clients, 0);
    }

    #[test]
    fn top_k_selects_highest_scores() {
        let top = top_k_percent(&fake_metrics(), 25.0);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].client_id, 7);
        assert_eq!(top[1].client_id, 6);
        // Always at least one client.
        let one = top_k_percent(&fake_metrics(), 1.0);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn clusters_are_exclusive_and_cover() {
        let f = fed();
        let aux = f.auxiliary(&[0]);
        let reports = cluster_analysis(&f, &fake_metrics(), &aux);
        let all: Vec<usize> = reports.iter().flat_map(|r| r.clients.clone()).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "clusters must be disjoint");
        assert_eq!(all.len(), 8, "clusters must cover all clients");
        for r in &reports {
            assert!(
                (0.0..=1.0).contains(&r.label_cosine),
                "{}: {}",
                r.label,
                r.label_cosine
            );
        }
    }

    #[test]
    fn no_clients_make_no_clusters() {
        assert!(cluster_reports(&[], &[]).is_empty());
    }

    #[test]
    fn pooled_evaluation_is_worker_count_invariant() {
        let f = fed();
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut rng = StdRng::seed_from_u64(1);
        let params = spec.build(&mut rng).params();
        let trigger = PatchTrigger::badnets(8);
        let serial = {
            let pool = WorkerPool::new(1);
            let mut arenas = WorkerArenas::new();
            evaluate_clients_pooled(&f, &spec, |_| &params, &trigger, 0, &[], &pool, &mut arenas)
        };
        for workers in [2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut arenas = WorkerArenas::new();
            // Two passes through the same arenas: results must not depend
            // on reuse.
            for pass in 0..2 {
                let pooled = evaluate_clients_pooled(
                    &f,
                    &spec,
                    |_| &params,
                    &trigger,
                    0,
                    &[],
                    &pool,
                    &mut arenas,
                );
                assert_eq!(pooled, serial, "workers={workers} pass={pass}");
            }
        }
    }

    #[test]
    fn evaluate_clients_produces_sane_ranges() {
        let f = fed();
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut rng = StdRng::seed_from_u64(1);
        let params = spec.build(&mut rng).params();
        let trigger = PatchTrigger::badnets(8);
        let pool = WorkerPool::new(2);
        let mut arenas = WorkerArenas::new();
        let ms = evaluate_clients_pooled(
            &f,
            &spec,
            |_| &params,
            &trigger,
            0,
            &[0],
            &pool,
            &mut arenas,
        );
        assert_eq!(ms.len(), 7); // client 0 excluded
        assert!(ms.iter().all(|m| m.client_id != 0));
        for m in &ms {
            assert!((0.0..=1.0).contains(&m.benign_ac));
            assert!((0.0..=1.0).contains(&m.attack_sr));
        }
    }

    #[test]
    fn excluded_ids_may_come_in_any_order() {
        let f = fed();
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut rng = StdRng::seed_from_u64(1);
        let params = spec.build(&mut rng).params();
        let trigger = PatchTrigger::badnets(8);
        let pool = WorkerPool::new(1);
        let mut arenas = WorkerArenas::new();
        let mut eval = |excluded: &[usize]| {
            evaluate_clients_pooled(
                &f,
                &spec,
                |_| &params,
                &trigger,
                0,
                excluded,
                &pool,
                &mut arenas,
            )
        };
        let sorted = eval(&[1, 4, 6]);
        assert_eq!(
            sorted.iter().map(|m| m.client_id).collect::<Vec<_>>(),
            vec![0, 2, 3, 5, 7]
        );
        // Unsorted, duplicated and out-of-range ids exclude the same set.
        assert_eq!(eval(&[6, 1, 99, 4, 1]), sorted);
    }

    #[test]
    fn one_pass_cosines_match_standalone_cluster_analysis() {
        let f = fed();
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut rng = StdRng::seed_from_u64(1);
        let params = spec.build(&mut rng).params();
        let trigger = PatchTrigger::badnets(8);
        let aux = f.auxiliary(&[2, 5]);
        let pool = WorkerPool::new(2);
        let mut arenas = WorkerArenas::new();
        let pass = evaluate_population(
            &f,
            &spec,
            |_| &params,
            &trigger,
            0,
            &[5, 2],
            Some(&aux),
            &pool,
            &mut arenas,
        );
        let cosines = pass.label_cosines.as_deref().expect("pass ran with aux");
        for (m, &c) in pass.clients.iter().zip(cosines) {
            let standalone = cumulative_label_cosine(&f.client(m.client_id).all(), &aux);
            assert_eq!(c.to_bits(), standalone.to_bits(), "client {}", m.client_id);
        }
        // The cosines ride along; the metrics are the plain pass's.
        let plain = evaluate_clients_pooled(
            &f,
            &spec,
            |_| &params,
            &trigger,
            0,
            &[2, 5],
            &pool,
            &mut arenas,
        );
        assert_eq!(pass.clients, plain);
        assert_eq!(
            cluster_reports(&pass.clients, cosines),
            cluster_analysis(&f, &pass.clients, &aux)
        );
    }
}
