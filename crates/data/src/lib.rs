//! Data substrate for the CollaPois reproduction.
//!
//! The paper evaluates on FEMNIST (3,400 clients of handwritten characters)
//! and Sentiment140 (5,600 clients of tweets embedded by a frozen BERT).
//! Neither corpus is available here, so this crate builds the closest
//! synthetic equivalents (documented in `DESIGN.md` §1) together with all the
//! federated-data machinery the paper depends on:
//!
//! * [`sample`] — the [`sample::Dataset`] container (dense features +
//!   integer labels) with batching into [`collapois_nn::Tensor`]s.
//! * [`synthetic`] — the FEMNIST-sim image generator (smooth per-class
//!   prototypes, per-sample jitter/noise) and the Sentiment-sim embedding
//!   generator (class-conditioned Gaussians).
//! * [`partition`] — the symmetric-Dirichlet label-skew partitioner
//!   (`Dir(α)`, §II-A: small α ⇒ highly non-IID clients).
//! * [`labels`] — label histograms and the cumulative label distribution
//!   `P_CL` with its cosine similarity (Eq. 9, the client-risk metric).
//! * [`trigger`] — backdoor triggers: WaNet-style image warping [25],
//!   BadNets corner patches, DBA's four distributed sub-patterns [8], and
//!   the fixed-term text trigger [36].
//! * [`poison`] — applying a trigger plus target-label relabelling to build
//!   `D^Troj` sets.
//! * [`federated`] — per-client 70/15/15 train/test/validation splits and
//!   the attacker's auxiliary dataset (union of compromised clients' data).
//! * [`shard`] — the paper-scale cohort engine's lazy resident client
//!   shards: per-client data generated on first touch from a derived RNG
//!   stream, kept resident under an LRU byte budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federated;
pub mod labels;
pub mod partition;
pub mod poison;
pub mod sample;
pub mod semantic;
pub mod shard;
pub mod synthetic;
pub mod trigger;

pub use federated::{ClientData, EvalShard, FederatedDataset, TestView};
pub use partition::dirichlet_partition;
pub use sample::Dataset;
pub use shard::{ResidentShards, ShardSource, ShardSpec, ShardStats};
pub use trigger::Trigger;
