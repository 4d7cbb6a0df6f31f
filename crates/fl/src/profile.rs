//! Per-phase wall-clock accounting for the round loop.
//!
//! The server accumulates one [`PhaseProfile`] as it runs; callers drain it
//! with `FlServer::take_profile` and print the per-round breakdown (the
//! `--profile-rounds` CLI flag). The dispatch/barrier columns come from the
//! worker pool's own synchronization counters, so the breakdown separates
//! "time the lanes computed" from "time the round loop spent handing off
//! and waiting" — the two costs a scaling regression can hide in.

/// Cumulative wall-clock per round-loop phase, in milliseconds, since the
/// last drain.
///
/// Phases partition a round as: `train` (the benign-training fan-out call,
/// including each lane's local SGD), `commit` (ordered assembly of updates,
/// personalization commits, and adversary crafting), `aggregate` (the
/// defense rule plus the global-model step), `eval` (client evaluation
/// passes, which run every `eval_every` rounds only). `dispatch` and
/// `barrier` are *subsets* of the other phases — the pool's job-publish
/// cost and the dispatcher's wait-for-helpers cost — not additional time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseProfile {
    /// Rounds accumulated into this profile.
    pub rounds: usize,
    /// Benign-training fan-out (dispatch + lane work + barrier).
    pub train_ms: f64,
    /// Ordered update assembly, personalization commits, adversary crafting.
    pub commit_ms: f64,
    /// Aggregation rule, global step, and post-processing.
    pub aggregate_ms: f64,
    /// Client evaluation passes.
    pub eval_ms: f64,
    /// Pool handoff cost (job publish + helper wake-up), all dispatches.
    pub dispatch_ms: f64,
    /// Dispatcher time spent waiting on helper lanes after finishing its
    /// own lane (the barrier cost), all dispatches.
    pub barrier_ms: f64,
    /// Successful work-steal claims across all pool dispatches. Timing
    /// dependent — diagnostic only, never part of deterministic output.
    pub steals: u64,
    /// Items rerouted by work-steal claims across all pool dispatches.
    pub stolen_items: u64,
    /// Clients lost to injected dropout: sampled clients removed before
    /// training, or buffered-async arrivals dropped before their fetch.
    pub dropped_clients: usize,
    /// Stragglers shed because their virtual delay exceeded the round
    /// deadline.
    pub shed_stragglers: usize,
    /// Updates rejected before aggregation for non-finite content.
    pub rejected_updates: usize,
    /// Checkpoint-write attempts that failed (injected or real I/O).
    pub checkpoint_write_failures: usize,
}

impl PhaseProfile {
    /// Adds another profile's totals into this one.
    pub fn accumulate(&mut self, other: &PhaseProfile) {
        self.rounds += other.rounds;
        self.train_ms += other.train_ms;
        self.commit_ms += other.commit_ms;
        self.aggregate_ms += other.aggregate_ms;
        self.eval_ms += other.eval_ms;
        self.dispatch_ms += other.dispatch_ms;
        self.barrier_ms += other.barrier_ms;
        self.steals += other.steals;
        self.stolen_items += other.stolen_items;
        self.dropped_clients += other.dropped_clients;
        self.shed_stragglers += other.shed_stragglers;
        self.rejected_updates += other.rejected_updates;
        self.checkpoint_write_failures += other.checkpoint_write_failures;
    }

    /// Whether any fault counter is nonzero.
    pub fn has_faults(&self) -> bool {
        self.dropped_clients > 0
            || self.shed_stragglers > 0
            || self.rejected_updates > 0
            || self.checkpoint_write_failures > 0
    }

    /// Per-round means as a one-line human-readable breakdown. A fault
    /// section is appended only when some fault counter fired, so fault-free
    /// runs keep the historical format.
    pub fn per_round_summary(&self) -> String {
        let n = self.rounds.max(1) as f64;
        let mut s = format!(
            "train {:.3} ms | commit {:.3} ms | aggregate {:.3} ms | eval {:.3} ms \
             | dispatch {:.4} ms | barrier {:.4} ms  ({} rounds)",
            self.train_ms / n,
            self.commit_ms / n,
            self.aggregate_ms / n,
            self.eval_ms / n,
            self.dispatch_ms / n,
            self.barrier_ms / n,
            self.rounds,
        );
        if self.steals > 0 {
            s.push_str(&format!(
                "  [steals: {} claims, {} items]",
                self.steals, self.stolen_items,
            ));
        }
        if self.has_faults() {
            s.push_str(&format!(
                "  [faults: dropped {} | shed {} | rejected {} | ckpt-fail {}]",
                self.dropped_clients,
                self.shed_stragglers,
                self.rejected_updates,
                self.checkpoint_write_failures,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_fields() {
        let mut a = PhaseProfile {
            rounds: 2,
            train_ms: 1.0,
            commit_ms: 0.5,
            aggregate_ms: 0.25,
            eval_ms: 4.0,
            dispatch_ms: 0.01,
            barrier_ms: 0.02,
            steals: 5,
            stolen_items: 9,
            dropped_clients: 3,
            shed_stragglers: 1,
            rejected_updates: 2,
            checkpoint_write_failures: 1,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.rounds, 4);
        assert_eq!(a.train_ms, 2.0);
        assert_eq!(a.barrier_ms, 0.04);
        assert_eq!(a.steals, 10);
        assert_eq!(a.stolen_items, 18);
        assert_eq!(a.dropped_clients, 6);
        assert_eq!(a.shed_stragglers, 2);
        assert_eq!(a.rejected_updates, 4);
        assert_eq!(a.checkpoint_write_failures, 2);
    }

    #[test]
    fn fault_section_appears_only_when_faults_fired() {
        let clean = PhaseProfile {
            rounds: 3,
            ..Default::default()
        };
        assert!(!clean.has_faults());
        assert!(!clean.per_round_summary().contains("faults"));
        let faulted = PhaseProfile {
            rounds: 3,
            dropped_clients: 2,
            ..Default::default()
        };
        assert!(faulted.has_faults());
        let s = faulted.per_round_summary();
        assert!(s.contains("[faults: dropped 2"), "{s}");
    }

    #[test]
    fn summary_reports_per_round_means() {
        let p = PhaseProfile {
            rounds: 4,
            train_ms: 8.0,
            ..Default::default()
        };
        let s = p.per_round_summary();
        assert!(s.contains("train 2.000 ms"), "{s}");
        assert!(s.contains("(4 rounds)"), "{s}");
    }

    #[test]
    fn empty_profile_does_not_divide_by_zero() {
        let s = PhaseProfile::default().per_round_summary();
        assert!(s.contains("(0 rounds)"), "{s}");
    }
}
