//! A cell's set-up, made through the public calls `Scenario::run_with`
//! makes before its first round, in the same order and from the same seeds.

use crate::spans::Tracer;
use collapois_core::scenario::{auxiliary_data, semantic_source_class, AttackKind};
use collapois_core::trojan::{train_trojan, TrojanedModel};
use collapois_core::{Scenario, ScenarioConfig};
use collapois_data::semantic::SemanticRegion;
use collapois_data::{Dataset, FederatedDataset, Trigger};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

pub struct CellSetup {
    pub fed: FederatedDataset,
    pub compromised: Vec<usize>,
    pub aux: Dataset,
    pub trigger: Box<dyn Trigger>,
    pub trojan: Option<TrojanedModel>,
    pub semantic: Option<SemanticRegion>,
}

/// Milliseconds each set-up layer took for one cell.
#[derive(Default, Clone, Copy)]
pub struct SetupMs {
    pub render: f64,
    /// Pooling the auxiliary data, plus fitting the semantic region on it
    /// (both `data` calls on the attackers' pooled data).
    pub aux: f64,
    pub trojan: f64,
}

/// Renders the cell's data (eager generate + partition, or a lazy cohort
/// with every client touched once), draws the compromised set, pools the
/// auxiliary data, and trains the Trojan or fits the semantic region
/// where the attack needs one. Each step runs in its own span.
pub fn cell_setup(cfg: &ScenarioConfig, cell: usize, t: &mut Tracer) -> (CellSetup, SetupMs) {
    let mut ms = SetupMs::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5CE0);
    let (fed, render) = t.span("data.render", Some(cell), |_| {
        if cfg.uses_lazy_cohort() {
            let fed =
                FederatedDataset::lazy(cfg.shard_spec(), cfg.num_clients, cfg.shard_budget_bytes());
            for id in 0..cfg.num_clients {
                fed.client(id);
            }
            fed
        } else {
            let dataset = Scenario::new(cfg.clone()).generate_dataset();
            FederatedDataset::build(&mut rng, &dataset, cfg.num_clients, cfg.alpha)
        }
    });
    ms.render = render;

    let mut ids: Vec<usize> = (0..cfg.num_clients).collect();
    ids.shuffle(&mut rng);
    let mut compromised: Vec<usize> = ids.into_iter().take(cfg.num_compromised()).collect();
    compromised.sort_unstable();

    let (aux, aux_ms) = t.span("data.aux", Some(cell), |_| {
        auxiliary_data(&fed, &compromised)
    });
    ms.aux = aux_ms;
    let trigger = cfg.build_trigger();
    let trojan = (cfg.attack == AttackKind::CollaPois && !compromised.is_empty()).then(|| {
        let (x, train_ms) = t.span("trojan.train", Some(cell), |_| {
            train_trojan(&cfg.model_spec(), &aux, trigger.as_ref(), &cfg.trojan)
        });
        ms.trojan = train_ms;
        x
    });
    let semantic = (cfg.attack == AttackKind::Semantic && !aux.is_empty()).then(|| {
        let (region, fit_ms) = t.span("semantic.fit", Some(cell), |_| {
            SemanticRegion::fit(
                &aux,
                semantic_source_class(cfg.trojan.target_class, aux.num_classes()),
                cfg.trojan.target_class,
                0.5,
                cfg.seed ^ 0x5E3A,
            )
        });
        ms.aux += fit_ms;
        region
    });
    let setup = CellSetup {
        fed,
        compromised,
        aux,
        trigger,
        trojan,
        semantic,
    };
    (setup, ms)
}
