//! Federated dataset: per-client train/test/validation splits.
//!
//! The paper divides each client's samples into 70 % training, 15 % testing
//! and 15 % validation; the combined validation sets of the compromised
//! clients form the attacker's auxiliary data `D_a` used to train the
//! Trojaned model X.
//!
//! Client data is served through one of two backings: *eager* (every
//! client materialized up front — the original pooled-then-partitioned
//! path) or *lazy* (per-client shards generated on first touch and kept
//! resident under an LRU byte budget — the paper-scale cohort engine, see
//! [`crate::shard`]). Callers see a single [`FederatedDataset::client`]
//! accessor either way.

use crate::labels::label_histogram;
use crate::partition::dirichlet_partition;
use crate::sample::Dataset;
use crate::shard::{ResidentShards, ShardSpec, ShardStats};
use rand::Rng;
use std::borrow::Cow;
use std::sync::Arc;

/// One client's local data splits.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientData {
    /// Local training split (70 %).
    pub train: Dataset,
    /// Local testing split (15 %) — Benign AC / Attack SR are measured here.
    pub test: Dataset,
    /// Local validation split (15 %) — pooled into `D_a` on compromised
    /// clients.
    pub val: Dataset,
}

impl ClientData {
    /// Total number of local samples across all splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len() + self.val.len()
    }

    /// Whether the client holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All local samples re-combined (used for label-distribution metrics).
    pub fn all(&self) -> Dataset {
        let mut out = self.train.clone();
        out.extend_from(&self.test);
        out.extend_from(&self.val);
        out
    }

    /// Per-class sample counts over all three splits: the histogram of
    /// [`ClientData::all`] without building it (counts do not depend on
    /// sample order).
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut counts = label_histogram(&self.train);
        for &y in self.test.labels().iter().chain(self.val.labels()) {
            counts[y] += 1;
        }
        counts
    }

    /// Heap bytes held by the three splits (what the resident-shard byte
    /// budget accounts against).
    pub fn heap_bytes(&self) -> usize {
        self.train.heap_bytes() + self.test.heap_bytes() + self.val.heap_bytes()
    }
}

/// What evaluation reads of a client with no resident shard: the test
/// split plus per-class counts over all three splits, without the train
/// and validation features ([`crate::shard::ShardSpec::generate_test_view`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TestView {
    /// The client's testing split, bit-identical to its full shard's.
    pub test: Dataset,
    label_counts: Vec<usize>,
}

impl TestView {
    /// A view of `test` whose client holds `label_counts` samples per
    /// class across all splits.
    pub(crate) fn new(test: Dataset, label_counts: Vec<usize>) -> Self {
        Self { test, label_counts }
    }

    /// Per-class sample counts over all three splits: equal to the full
    /// shard's [`ClientData::label_histogram`].
    pub fn label_histogram(&self) -> &[usize] {
        &self.label_counts
    }
}

/// One client as evaluation sees it: the full shard when one is at hand,
/// a [`TestView`] otherwise. Either way it answers the two questions
/// evaluation asks, bit-identically.
#[derive(Debug, Clone)]
pub enum EvalShard {
    /// The client's full shard.
    Full(Arc<ClientData>),
    /// The client's test split and label counts only.
    View(TestView),
}

impl EvalShard {
    /// The client's testing split.
    pub fn test(&self) -> &Dataset {
        match self {
            Self::Full(c) => &c.test,
            Self::View(v) => &v.test,
        }
    }

    /// Per-class sample counts over all three splits.
    pub fn label_histogram(&self) -> Cow<'_, [usize]> {
        match self {
            Self::Full(c) => Cow::Owned(c.label_histogram()),
            Self::View(v) => Cow::Borrowed(v.label_histogram()),
        }
    }
}

/// How client data is stored and served.
#[derive(Debug, Clone)]
enum Backing {
    /// Every client resident from construction.
    Eager(Vec<Arc<ClientData>>),
    /// Shards generated on first touch, LRU-resident under a byte budget.
    Lazy(Arc<ResidentShards>),
}

/// A dataset partitioned across clients with per-client splits.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    backing: Backing,
    sample_shape: Vec<usize>,
    num_classes: usize,
    alpha: f64,
}

impl PartialEq for FederatedDataset {
    fn eq(&self, other: &Self) -> bool {
        if (self.sample_shape != other.sample_shape)
            || self.num_classes != other.num_classes
            || self.alpha != other.alpha
        {
            return false;
        }
        match (&self.backing, &other.backing) {
            (Backing::Eager(a), Backing::Eager(b)) => a == b,
            // Equal specs generate bit-identical shards for every client,
            // so spec equality is data equality.
            (Backing::Lazy(a), Backing::Lazy(b)) => {
                a.spec() == b.spec() && a.num_clients() == b.num_clients()
            }
            _ => false,
        }
    }
}

impl FederatedDataset {
    /// Partitions `dataset` across `n_clients` with Dirichlet(α) label skew
    /// and splits each client 70/15/15.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`dirichlet_partition`].
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        dataset: &Dataset,
        n_clients: usize,
        alpha: f64,
    ) -> Self {
        Self::build_with_split(rng, dataset, n_clients, alpha, 0.7, 0.15)
    }

    /// Same as [`FederatedDataset::build`] with custom train/test fractions
    /// (validation receives the remainder).
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`dirichlet_partition`] and
    /// [`Dataset::split`].
    pub fn build_with_split<R: Rng + ?Sized>(
        rng: &mut R,
        dataset: &Dataset,
        n_clients: usize,
        alpha: f64,
        train_frac: f64,
        test_frac: f64,
    ) -> Self {
        let parts = dirichlet_partition(rng, dataset, n_clients, alpha);
        let clients = parts
            .iter()
            .map(|indices| {
                let local = dataset.subset(indices);
                let (train, test, val) = local.split(rng, train_frac, test_frac);
                Arc::new(ClientData { train, test, val })
            })
            .collect();
        Self {
            backing: Backing::Eager(clients),
            sample_shape: dataset.sample_shape().to_vec(),
            num_classes: dataset.num_classes(),
            alpha,
        }
    }

    /// A lazily materialized cohort: `n_clients` shards generated on first
    /// touch per `spec` and kept resident under `budget_bytes` (see
    /// [`ResidentShards`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0` or `budget_bytes == 0`.
    pub fn lazy(spec: ShardSpec, n_clients: usize, budget_bytes: usize) -> Self {
        let sample_shape = spec.source().sample_shape();
        let num_classes = spec.source().num_classes();
        let alpha = spec.alpha();
        Self {
            backing: Backing::Lazy(Arc::new(ResidentShards::new(spec, n_clients, budget_bytes))),
            sample_shape,
            num_classes,
            alpha,
        }
    }

    /// Every client of `spec` materialized up front — the eager reference
    /// the lazy backing must be bitwise-indistinguishable from (pinned by
    /// the cohort-engine golden fixture).
    pub fn eager_from_shards(spec: &ShardSpec, n_clients: usize) -> Self {
        let clients = (0..n_clients)
            .map(|id| Arc::new(spec.generate_client(id)))
            .collect();
        Self {
            backing: Backing::Eager(clients),
            sample_shape: spec.source().sample_shape(),
            num_classes: spec.source().num_classes(),
            alpha: spec.alpha(),
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        match &self.backing {
            Backing::Eager(clients) => clients.len(),
            Backing::Lazy(store) => store.num_clients(),
        }
    }

    /// The Dirichlet concentration this dataset was partitioned with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Shape of one sample.
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Data of client `id`. Cheap on the eager backing (an `Arc` clone);
    /// on the lazy backing a first touch generates the shard and repeat
    /// touches are resident-cache hits.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn client(&self, id: usize) -> Arc<ClientData> {
        match &self.backing {
            Backing::Eager(clients) => Arc::clone(&clients[id]),
            Backing::Lazy(store) => store.get(id),
        }
    }

    /// What evaluation reads of client `id`. The eager backing hands out
    /// the full shard (an `Arc` clone); the lazy backing a resident shard,
    /// or else renders a [`TestView`] without the train and
    /// validation features (see [`ResidentShards::get_eval`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn eval_client(&self, id: usize) -> EvalShard {
        match &self.backing {
            Backing::Eager(clients) => EvalShard::Full(Arc::clone(&clients[id])),
            Backing::Lazy(store) => store.get_eval(id),
        }
    }

    /// Residency counters of the lazy backing (`None` when eager).
    pub fn shard_stats(&self) -> Option<ShardStats> {
        match &self.backing {
            Backing::Eager(_) => None,
            Backing::Lazy(store) => Some(store.stats()),
        }
    }

    /// The attacker's auxiliary dataset `D_a = ∪_{c∈C} val_c` — the pooled
    /// validation splits of the given (compromised) client ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of bounds.
    pub fn auxiliary(&self, compromised: &[usize]) -> Dataset {
        let mut out = Dataset::empty(&self.sample_shape, self.num_classes);
        for &c in compromised {
            out.extend_from(&self.client(c).val);
            // Compromised clients contribute everything they hold; the paper
            // pools their validation sets for X but the attacker also trains
            // DPois on their full local data. We keep D_a = validation only,
            // matching the paper's configuration.
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardSource;
    use crate::synthetic::{SyntheticImage, SyntheticImageConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fed(alpha: f64, clients: usize) -> FederatedDataset {
        let cfg = SyntheticImageConfig {
            samples: 600,
            side: 8,
            classes: 5,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(9);
        FederatedDataset::build(&mut rng, &ds, clients, alpha)
    }

    fn shard_spec(seed: u64) -> ShardSpec {
        let gen = SyntheticImage::new(SyntheticImageConfig {
            samples: 1,
            side: 8,
            classes: 5,
            ..Default::default()
        });
        ShardSpec::new(ShardSource::Image(gen), 40, 1.0, seed)
    }

    #[test]
    fn splits_cover_all_samples() {
        let f = fed(1.0, 10);
        let total: usize = (0..10).map(|i| f.client(i).len()).sum();
        assert_eq!(total, 600);
        assert_eq!(f.num_clients(), 10);
        assert_eq!(f.num_classes(), 5);
    }

    #[test]
    fn split_ratios_roughly_hold() {
        let f = fed(10.0, 5);
        for i in 0..5 {
            let c = f.client(i);
            let n = c.len() as f64;
            assert!(
                (c.train.len() as f64 / n - 0.7).abs() < 0.1,
                "client {i}: train frac {}",
                c.train.len() as f64 / n
            );
        }
    }

    #[test]
    fn auxiliary_pools_validation_sets() {
        let f = fed(1.0, 10);
        let aux = f.auxiliary(&[0, 3]);
        assert_eq!(aux.len(), f.client(0).val.len() + f.client(3).val.len());
        let empty = f.auxiliary(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn all_recombines_splits() {
        let f = fed(1.0, 4);
        let c = f.client(2);
        assert_eq!(c.all().len(), c.len());
    }

    #[test]
    fn label_histogram_matches_recombined_splits() {
        let f = fed(0.5, 6);
        for i in 0..6 {
            let c = f.client(i);
            assert_eq!(c.label_histogram(), label_histogram(&c.all()), "client {i}");
        }
    }

    #[test]
    fn lazy_and_eager_shard_backings_agree() {
        let lazy = FederatedDataset::lazy(shard_spec(11), 12, 1 << 22);
        let eager = FederatedDataset::eager_from_shards(&shard_spec(11), 12);
        assert_eq!(lazy.num_clients(), eager.num_clients());
        assert_eq!(lazy.sample_shape(), eager.sample_shape());
        // Scrambled lazy access order must not matter.
        for id in [7, 0, 11, 3, 7, 0] {
            assert_eq!(lazy.client(id), eager.client(id));
        }
        // Evaluation reads the same test split and label counts from a
        // lazy view (client 5 was never touched) as from an eager shard.
        for id in [5, 7] {
            let (l, e) = (lazy.eval_client(id), eager.eval_client(id));
            assert_eq!(l.test(), e.test());
            assert_eq!(l.label_histogram(), e.label_histogram());
        }
        assert!(matches!(lazy.eval_client(5), EvalShard::View(_)));
        assert!(matches!(eager.eval_client(5), EvalShard::Full(_)));
        assert_eq!(lazy.auxiliary(&[2, 9]), eager.auxiliary(&[2, 9]));
        assert!(lazy.shard_stats().is_some());
        assert!(eager.shard_stats().is_none());
    }

    #[test]
    fn equality_follows_the_backing() {
        let a = FederatedDataset::lazy(shard_spec(11), 12, 1 << 22);
        let b = FederatedDataset::lazy(shard_spec(11), 12, 1 << 22);
        let c = FederatedDataset::lazy(shard_spec(12), 12, 1 << 22);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Lazy never equals eager, even over the same spec: the comparison
        // would otherwise force full materialization.
        assert_ne!(a, FederatedDataset::eager_from_shards(&shard_spec(11), 12));
    }
}
