//! Training the Trojaned model X (Eq. 1, Algorithm 1 line 3).
//!
//! The attacker pools the compromised clients' data into the auxiliary set
//! `D_a`, stamps the trigger onto a copy with labels flipped to the target
//! class (`D_a^Troj`), and trains X centrally on `D_a ∪ D_a^Troj`:
//!
//! `X = argmin_θ L(θ, D_a ∪ D_a^Troj)`
//!
//! X behaves like a clean model on legitimate inputs (high utility — the
//! stealth property of §IV-D) while classifying triggered inputs as the
//! target class.

use collapois_data::poison::poison_all;
use collapois_data::sample::Dataset;
use collapois_data::trigger::Trigger;
use collapois_nn::optim::Sgd;
use collapois_nn::workspace::Workspace;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters for centrally training the Trojaned model X.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrojanConfig {
    /// Training epochs over `D_a ∪ D_a^Troj`.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// The attacker's target class `y^Troj` (the paper uses class 0).
    pub target_class: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrojanConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 32,
            lr: 0.1,
            target_class: 0,
            seed: 0xA77AC,
        }
    }
}

/// Outcome of Trojan training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrojanedModel {
    /// Flat parameters of X.
    pub params: Vec<f32>,
    /// Accuracy of X on the clean auxiliary data.
    pub clean_accuracy: f64,
    /// Backdoor success rate of X on the poisoned auxiliary data.
    pub trigger_success: f64,
}

/// Trains the Trojaned model X on `aux ∪ poison(aux)` (Eq. 1).
///
/// # Panics
///
/// Panics if `aux` is empty or the target class is out of range.
pub fn train_trojan(
    spec: &ModelSpec,
    aux: &Dataset,
    trigger: &dyn Trigger,
    cfg: &TrojanConfig,
) -> TrojanedModel {
    train_on(spec, &training_set(aux, trigger, cfg.target_class), cfg)
}

/// `D_a ∪ D_a^Troj`: the clean auxiliary samples followed by their
/// triggered copies relabelled to `target_class`.
fn training_set(aux: &Dataset, trigger: &dyn Trigger, target_class: usize) -> Dataset {
    assert!(!aux.is_empty(), "auxiliary dataset is empty");
    let mut train = aux.clone();
    train.extend_from(&poison_all(aux, trigger, target_class));
    train
}

/// Trains X on a [`training_set`]: a pure function of `spec`, the set and
/// `cfg`, which is what lets [`TrojanMemo`] key on exactly those three.
fn train_on(spec: &ModelSpec, train: &Dataset, cfg: &TrojanConfig) -> TrojanedModel {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = spec.build(&mut rng);
    let mut opt = Sgd::new(cfg.lr).with_momentum(0.9);
    let mut ws = Workspace::new();
    let steps_per_epoch = train.len().div_ceil(cfg.batch_size).max(1);
    for _ in 0..cfg.epochs {
        for _ in 0..steps_per_epoch {
            // Batches are drawn fresh: keeping their buffers across steps
            // (`minibatch_into`) raised the async-fedbuff benchmark's peak
            // RSS by 2 MB in ~40% of runs (heap layout), for one small
            // allocation saved per step.
            let (x, y) = train.minibatch(&mut rng, cfg.batch_size);
            model.train_batch_ws(&x, &y, &mut opt, &mut ws);
        }
    }

    // The clean half is `aux`, the triggered half its poisoned copy.
    let half = train.len() / 2;
    let (cx, cy) = train.batch_of(&(0..half).collect::<Vec<_>>());
    let clean_accuracy = model.evaluate(&cx, &cy);
    let (px, py) = train.batch_of(&(half..train.len()).collect::<Vec<_>>());
    let trigger_success = model.evaluate(&px, &py);
    TrojanedModel {
        params: model.params(),
        clean_accuracy,
        trigger_success,
    }
}

/// A one-slot memo of X for a run of many scenarios (a grid), owned by the
/// caller so that no state outlives it.
///
/// A lookup hits only when the model spec, the Trojan config and the
/// digest of the exact training set (shape, class count, `f32` bit
/// patterns, labels) all match the stored entry; since training is a pure
/// function of those three, a hit returns the model a fresh training
/// would, barring a 64-bit digest collision. One slot suffices because grids vary the axes that change X
/// (data, seed, attack knobs) outside the ones that do not (defense,
/// algorithm, variant), so equal inputs arrive consecutively.
#[derive(Debug, Default)]
pub struct TrojanMemo {
    slot: Option<(ModelSpec, TrojanConfig, u64, TrojanedModel)>,
}

impl TrojanMemo {
    /// X for these inputs, as [`train_trojan`] returns it, and whether it
    /// came from the memo. A miss trains and replaces the stored entry.
    ///
    /// # Panics
    ///
    /// As [`train_trojan`].
    pub fn train(
        &mut self,
        spec: &ModelSpec,
        aux: &Dataset,
        trigger: &dyn Trigger,
        cfg: &TrojanConfig,
    ) -> (TrojanedModel, bool) {
        let train = training_set(aux, trigger, cfg.target_class);
        let digest = train.digest();
        if let Some((s, c, d, x)) = &self.slot {
            if s == spec && c == cfg && *d == digest {
                return (x.clone(), true);
            }
        }
        let x = train_on(spec, &train, cfg);
        self.slot = Some((spec.clone(), *cfg, digest, x.clone()));
        (x, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::WaNetTrigger;

    #[test]
    fn trojan_learns_both_tasks() {
        let img_cfg = SyntheticImageConfig {
            side: 12,
            classes: 4,
            samples: 240,
            noise: 0.05,
            max_shift: 1,
            seed: 1,
        };
        let aux = SyntheticImage::new(img_cfg).generate();
        let trigger = WaNetTrigger::new(12, 4, 3.0, 99);
        let spec = ModelSpec::mlp(144, &[48], 4);
        let cfg = TrojanConfig {
            epochs: 40,
            ..Default::default()
        };
        let x = train_trojan(&spec, &aux, &trigger, &cfg);
        assert!(
            x.clean_accuracy > 0.85,
            "X must stay accurate on clean data: {}",
            x.clean_accuracy
        );
        assert!(
            x.trigger_success > 0.85,
            "X must learn the trigger: {}",
            x.trigger_success
        );
    }

    #[test]
    fn trojan_training_is_deterministic() {
        let img_cfg = SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 60,
            ..Default::default()
        };
        let aux = SyntheticImage::new(img_cfg).generate();
        let trigger = WaNetTrigger::new(8, 4, 3.0, 1);
        let spec = ModelSpec::mlp(64, &[16], 3);
        let cfg = TrojanConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = train_trojan(&spec, &aux, &trigger, &cfg);
        let b = train_trojan(&spec, &aux, &trigger, &cfg);
        assert_eq!(a.params, b.params);
    }

    #[test]
    #[should_panic(expected = "auxiliary dataset is empty")]
    fn rejects_empty_aux() {
        let aux = Dataset::empty(&[1, 8, 8], 3);
        let trigger = WaNetTrigger::new(8, 4, 3.0, 1);
        let spec = ModelSpec::mlp(64, &[16], 3);
        let _ = train_trojan(&spec, &aux, &trigger, &TrojanConfig::default());
    }
}
