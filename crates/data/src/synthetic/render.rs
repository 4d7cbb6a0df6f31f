//! The two-phase sample renderer every synthetic source goes through.
//!
//! *Draw* consumes a sample's randomness in the order a per-feature
//! renderer would: the source's per-sample [`Pick`] (image translation or
//! text sub-topic), then one accepted polar pair per feature, recorded
//! instead of mapped. *Materialize* maps the recorded pairs to features —
//! `u·sqrt(−2 ln s / s)`, the prototype or center lookup, the clamp — with
//! the same f64/f32 operations in the same order. Splitting the phases
//! lets a client shard draw every sample and its split shuffle first, then
//! pay the mapping only for the samples it keeps; the features and the
//! generator state are bit-identical either way.

use crate::sample::Dataset;
use collapois_stats::distribution::{draw_polar_pairs, PolarPair};
use rand::Rng;

/// A sample's non-noise randomness: `[dx, dy]` for an image translation,
/// `[cluster, 0]` for a text sub-topic.
pub(crate) type Pick = [isize; 2];

/// A synthetic source the two-phase renderer can drive.
pub(crate) trait Render {
    /// Features per sample (one polar pair each).
    fn feature_len(&self) -> usize;

    /// Draws one sample's [`Pick`]; called right before its noise pairs.
    fn draw_pick<R: Rng + ?Sized>(&self, rng: &mut R) -> Pick;

    /// Writes the features of a sample of `class` with the given pick and
    /// noise pairs (`feature_len` of each) into `out`.
    fn materialize(&self, class: usize, pick: Pick, noise: &[PolarPair], out: &mut [f32]);
}

/// The recorded draws of a run of samples: per sample its class, its pick
/// and `feature_len` accepted polar pairs.
#[derive(Debug, Default)]
pub(crate) struct Draws {
    feature_len: usize,
    labels: Vec<usize>,
    picks: Vec<Pick>,
    noise: Vec<PolarPair>,
}

impl Draws {
    /// Scratch for `samples` draws of `src` (grows if more are drawn).
    pub(crate) fn with_capacity<S: Render>(src: &S, samples: usize) -> Self {
        let feature_len = src.feature_len();
        Self {
            feature_len,
            labels: Vec::with_capacity(samples),
            picks: Vec::with_capacity(samples),
            noise: Vec::with_capacity(samples * feature_len),
        }
    }

    /// Forgets every recorded sample, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.labels.clear();
        self.picks.clear();
        self.noise.clear();
    }

    /// Records one sample of `class`: its pick, then its noise pairs.
    pub(crate) fn draw<S: Render, R: Rng + ?Sized>(&mut self, src: &S, rng: &mut R, class: usize) {
        self.labels.push(class);
        self.picks.push(src.draw_pick(rng));
        let start = self.noise.len();
        self.noise
            .resize(start + self.feature_len, PolarPair::default());
        draw_polar_pairs(rng, &mut self.noise[start..]);
    }

    /// Classes of the recorded samples, in draw order.
    pub(crate) fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Materializes recorded sample `i` into `out`.
    pub(crate) fn materialize<S: Render>(&self, src: &S, i: usize, out: &mut [f32]) {
        let noise = &self.noise[i * self.feature_len..(i + 1) * self.feature_len];
        src.materialize(self.labels[i], self.picks[i], noise, out);
    }

    /// The recorded samples at `indices`, in that order, as a dataset.
    pub(crate) fn dataset<S: Render>(
        &self,
        src: &S,
        sample_shape: &[usize],
        num_classes: usize,
        indices: &[usize],
    ) -> Dataset {
        let mut features = vec![0.0f32; indices.len() * self.feature_len];
        for (out, &i) in features.chunks_exact_mut(self.feature_len).zip(indices) {
            self.materialize(src, i, out);
        }
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset::from_parts(features, labels, sample_shape, num_classes)
    }
}

/// `samples` class-balanced samples (`class = i mod num_classes`), each
/// drawn and materialized in turn through one sample of scratch.
pub(crate) fn generate_balanced<S: Render, R: Rng + ?Sized>(
    src: &S,
    rng: &mut R,
    samples: usize,
    sample_shape: &[usize],
    num_classes: usize,
) -> Dataset {
    let feature_len = src.feature_len();
    let mut draws = Draws::with_capacity(src, 1);
    let mut features = vec![0.0f32; samples * feature_len];
    for (i, out) in features.chunks_exact_mut(feature_len).enumerate() {
        draws.clear();
        draws.draw(src, rng, i % num_classes);
        draws.materialize(src, 0, out);
    }
    let labels = (0..samples).map(|i| i % num_classes).collect();
    Dataset::from_parts(features, labels, sample_shape, num_classes)
}
