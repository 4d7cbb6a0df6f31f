//! Sentiment-sim: class-conditioned Gaussian embedding vectors.
//!
//! The paper's Sentiment pipeline freezes a BERT tokenizer/encoder and trains
//! only a small fully connected head, so the effective learning problem is a
//! classifier over fixed sentence embeddings. This generator reproduces that
//! regime: each class has a mean embedding direction, and samples are that
//! mean plus isotropic Gaussian noise. Optional sub-topic structure (several
//! cluster centers per class) keeps the task from being linearly trivial.

use super::render::{generate_balanced, Pick, Render};
use crate::sample::Dataset;
use collapois_stats::distribution::{standard_normal, PolarPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic text-embedding dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTextConfig {
    /// Embedding dimension (stand-in for the BERT sentence embedding).
    pub dim: usize,
    /// Number of classes (2 for sentiment).
    pub classes: usize,
    /// Sub-topic clusters per class.
    pub clusters_per_class: usize,
    /// Total number of samples.
    pub samples: usize,
    /// Within-cluster noise std-dev.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticTextConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            classes: 2,
            clusters_per_class: 3,
            samples: 20_000,
            noise: 0.6,
            seed: 11,
        }
    }
}

/// Generator for the Sentiment-sim dataset.
#[derive(Debug, Clone)]
pub struct SyntheticText {
    config: SyntheticTextConfig,
    centers: Vec<Vec<f32>>, // classes * clusters_per_class centers
}

impl SyntheticText {
    /// Builds the generator (draws the cluster centers).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(config: SyntheticTextConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.classes > 0, "classes must be positive");
        assert!(
            config.clusters_per_class > 0,
            "clusters_per_class must be positive"
        );
        assert!(config.samples > 0, "samples must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let centers = (0..config.classes * config.clusters_per_class)
            .map(|_| {
                (0..config.dim)
                    .map(|_| standard_normal(&mut rng) as f32)
                    .collect::<Vec<f32>>()
            })
            .collect();
        Self { config, centers }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &SyntheticTextConfig {
        &self.config
    }

    /// Cluster center `cluster` of `class`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn center(&self, class: usize, cluster: usize) -> &[f32] {
        &self.centers[class * self.config.clusters_per_class + cluster]
    }

    /// Generates the full dataset (shape `[dim]` per sample, class-balanced
    /// up to rounding).
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xBEEF));
        generate_balanced(self, &mut rng, cfg.samples, &[cfg.dim], cfg.classes)
    }
}

/// A sample is the sub-topic center picked as `[cluster, 0]` plus
/// isotropic noise.
impl Render for SyntheticText {
    fn feature_len(&self) -> usize {
        self.config.dim
    }

    fn draw_pick<R: Rng + ?Sized>(&self, rng: &mut R) -> Pick {
        [rng.gen_range(0..self.config.clusters_per_class) as isize, 0]
    }

    fn materialize(&self, class: usize, [cluster, _]: Pick, noise: &[PolarPair], out: &mut [f32]) {
        let center = self.center(class, cluster as usize);
        for ((o, &c), p) in out.iter_mut().zip(center).zip(noise) {
            *o = c + (self.config.noise * p.value()) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::optim::Sgd;
    use collapois_nn::zoo::ModelSpec;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticTextConfig {
            samples: 64,
            ..Default::default()
        };
        assert_eq!(
            SyntheticText::new(cfg).generate(),
            SyntheticText::new(cfg).generate()
        );
    }

    #[test]
    fn shapes_and_balance() {
        let cfg = SyntheticTextConfig {
            samples: 100,
            ..Default::default()
        };
        let ds = SyntheticText::new(cfg).generate();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.sample_shape(), &[64]);
        let ones = ds.labels().iter().filter(|&&y| y == 1).count();
        assert_eq!(ones, 50);
    }

    #[test]
    fn task_is_learnable_by_head() {
        let cfg = SyntheticTextConfig {
            dim: 32,
            samples: 400,
            noise: 0.4,
            ..Default::default()
        };
        let ds = SyntheticText::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = ModelSpec::mlp(32, &[16], 2).build(&mut rng);
        let mut opt = Sgd::new(0.2);
        let (x, y) = ds.as_batch();
        for _ in 0..80 {
            model.train_batch(&x, &y, &mut opt);
        }
        assert!(
            model.evaluate(&x, &y) > 0.95,
            "acc={}",
            model.evaluate(&x, &y)
        );
    }
}
