//! Statistical acceptance envelopes for live-backend scenario runs.
//!
//! The simulated backend is compared against golden taxonomies because
//! its outcomes are a pure function of the scenario; the live backend
//! stamps arrivals on the wall clock, where scheduling jitter makes
//! bit-equality impossible. Live coverage therefore asserts *bounds*:
//! an [`Envelope`] declares the fractions and counts a healthy run must
//! stay inside, wide enough to absorb timing noise and tight enough to
//! catch real regressions (a dead branch, a wedged merge barrier, a
//! broken admission path).

use crate::outcome::OutcomeTaxonomy;

/// Bounds a live scenario run's whole-run taxonomy must satisfy.
///
/// Defaults are fully permissive; builder methods tighten individual
/// axes so an envelope states exactly the invariants a scenario cares
/// about.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Minimum fraction of sent requests completed within SLO.
    pub min_goodput_fraction: f64,
    /// Maximum fraction of sent requests completed late.
    pub max_violated_fraction: f64,
    /// Maximum number of requests left unanswered.
    pub max_unanswered: u64,
    /// Inclusive bounds on edge rejections (e.g. the canary count),
    /// `None` leaves them unchecked.
    pub edge_rejects: Option<(u64, u64)>,
    /// Maximum number of requests dropped inside the pipeline.
    pub max_dropped_pipeline: u64,
}

impl Default for Envelope {
    fn default() -> Envelope {
        Envelope {
            min_goodput_fraction: 0.0,
            max_violated_fraction: 1.0,
            max_unanswered: u64::MAX,
            edge_rejects: None,
            max_dropped_pipeline: u64::MAX,
        }
    }
}

impl Envelope {
    /// A fully permissive envelope; tighten it with the builder methods.
    pub fn new() -> Envelope {
        Envelope::default()
    }

    /// Requires at least this fraction of sent requests to complete
    /// within SLO.
    pub fn with_min_goodput_fraction(mut self, fraction: f64) -> Envelope {
        self.min_goodput_fraction = fraction;
        self
    }

    /// Caps the fraction of sent requests that completed late.
    pub fn with_max_violated_fraction(mut self, fraction: f64) -> Envelope {
        self.max_violated_fraction = fraction;
        self
    }

    /// Caps the number of unanswered requests (0 for any healthy run).
    pub fn with_max_unanswered(mut self, count: u64) -> Envelope {
        self.max_unanswered = count;
        self
    }

    /// Requires the edge-rejection count to fall in `[low, high]` —
    /// typically bracketing the scheduled canary count.
    pub fn with_edge_rejects(mut self, low: u64, high: u64) -> Envelope {
        self.edge_rejects = Some((low, high));
        self
    }

    /// Caps the number of in-pipeline drops.
    pub fn with_max_dropped_pipeline(mut self, count: u64) -> Envelope {
        self.max_dropped_pipeline = count;
        self
    }

    /// Checks `taxonomy`'s whole-run totals against the envelope,
    /// returning every violated bound (empty = inside the envelope).
    pub fn check(&self, taxonomy: &OutcomeTaxonomy) -> Vec<String> {
        let total = taxonomy.total();
        let sent = total.sent.max(1) as f64;
        let mut violations = Vec::new();
        let goodput = total.ok as f64 / sent;
        if goodput < self.min_goodput_fraction {
            violations.push(format!(
                "goodput fraction {goodput:.3} < floor {:.3}",
                self.min_goodput_fraction
            ));
        }
        let violated = total.violated as f64 / sent;
        if violated > self.max_violated_fraction {
            violations.push(format!(
                "violated fraction {violated:.3} > cap {:.3}",
                self.max_violated_fraction
            ));
        }
        if total.unanswered > self.max_unanswered {
            violations.push(format!(
                "{} unanswered > cap {}",
                total.unanswered, self.max_unanswered
            ));
        }
        if let Some((low, high)) = self.edge_rejects {
            if total.dropped_edge < low || total.dropped_edge > high {
                violations.push(format!(
                    "{} edge rejections outside [{low}, {high}]",
                    total.dropped_edge
                ));
            }
        }
        if total.dropped_pipeline > self.max_dropped_pipeline {
            violations.push(format!(
                "{} pipeline drops > cap {}",
                total.dropped_pipeline, self.max_dropped_pipeline
            ));
        }
        violations
    }

    /// Panics with every violated bound if `taxonomy` falls outside the
    /// envelope.
    ///
    /// # Panics
    ///
    /// On any violated bound, listing all of them with the full
    /// taxonomy for context.
    pub fn assert(&self, taxonomy: &OutcomeTaxonomy) {
        let violations = self.check(taxonomy);
        assert!(
            violations.is_empty(),
            "scenario {:?} left its envelope:\n  {}\n{taxonomy:?}",
            taxonomy.scenario,
            violations.join("\n  ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::PhaseCounts;

    fn taxonomy(
        ok: u64,
        violated: u64,
        edge: u64,
        pipeline: u64,
        unanswered: u64,
    ) -> OutcomeTaxonomy {
        let sent = ok + violated + edge + pipeline + unanswered;
        OutcomeTaxonomy {
            scenario: "unit".into(),
            seed: 1,
            requests: sent,
            phases: vec![PhaseCounts {
                name: "all".into(),
                from_s: 0,
                to_s: 10,
                sent,
                ok,
                violated,
                dropped_edge: edge,
                dropped_pipeline: pipeline,
                rejected: 0,
                unanswered,
            }],
        }
    }

    #[test]
    fn permissive_envelope_accepts_anything() {
        Envelope::new().assert(&taxonomy(0, 0, 0, 0, 5));
    }

    #[test]
    fn healthy_run_passes_a_tight_envelope() {
        let envelope = Envelope::new()
            .with_min_goodput_fraction(0.8)
            .with_max_violated_fraction(0.1)
            .with_max_unanswered(0)
            .with_edge_rejects(5, 15)
            .with_max_dropped_pipeline(0);
        envelope.assert(&taxonomy(90, 0, 10, 0, 0));
    }

    #[test]
    fn every_violated_bound_is_reported() {
        let envelope = Envelope::new()
            .with_min_goodput_fraction(0.9)
            .with_max_unanswered(0)
            .with_edge_rejects(0, 2);
        let violations = envelope.check(&taxonomy(50, 0, 40, 0, 10));
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("goodput"), "{violations:?}");
        assert!(violations[1].contains("unanswered"), "{violations:?}");
        assert!(violations[2].contains("edge rejections"), "{violations:?}");
    }

    #[test]
    #[should_panic(expected = "left its envelope")]
    fn assert_panics_outside_the_envelope() {
        Envelope::new()
            .with_min_goodput_fraction(0.99)
            .assert(&taxonomy(1, 9, 0, 0, 0));
    }
}
