//! Live reconfiguration: plans and reports.
//!
//! The paper freezes TTRT at 8 ms (§6) and treats β as a per-request
//! search variable, but Jain's TTRT guideline work shows the
//! token-rotation target is the highest-leverage knob for synchronous
//! capacity. A [`ReconfigPlan`] describes a runtime change to the ring
//! parameters — a new TTRT (uniform or per ring), a new protocol
//! overhead Δ (which shrinks or grows the allocatable synchronous
//! budget `TTRT − Δ` at fixed TTRT), and optionally a new β for the
//! renegotiations and all future admissions.
//!
//! [`crate::cac::NetworkState::reconfigure`] applies a plan in place:
//! every admitted connection is renegotiated against the new
//! parameters, in admission (id) order and keeping its id, so the
//! post-reconfig state makes decisions bit-identical to a fresh engine
//! built at the new parameters and fed the surviving specs in the same
//! order (the certification pattern of the snapshot and cache-history
//! tests). The [`ReconfigReport`] classifies every connection as
//! renegotiated (admitted at a bit-different allocation), unchanged
//! (allocation bit-identical), or dropped (no longer fits — the caller
//! decides whether to park and retry it, as the service layer does).

use crate::connection::{ActiveConnection, ConnectionId};
use crate::error::CacError;
use hetnet_fddi::ring::RingConfig;
use hetnet_traffic::units::Seconds;

/// A runtime change to the network's ring parameters (and optionally
/// the admission β). An empty plan is valid and renegotiates every
/// connection at unchanged parameters (all of them land in
/// [`ReconfigReport::unchanged`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReconfigPlan {
    /// New TTRT applied to every ring, before per-ring overrides.
    pub ttrt: Option<Seconds>,
    /// Per-ring TTRT overrides `(ring index, ttrt)`, applied after the
    /// uniform value.
    pub ring_ttrt: Vec<(usize, Seconds)>,
    /// New protocol overhead Δ applied to every ring: at fixed TTRT
    /// this shrinks (larger Δ) or grows (smaller Δ) the allocatable
    /// synchronous budget `TTRT − Δ`.
    pub overhead: Option<Seconds>,
    /// New β for the renegotiations and, at the service layer, for all
    /// subsequent admissions. Must lie in `[0, 1]`.
    pub beta: Option<f64>,
}

impl ReconfigPlan {
    /// A plan that retunes every ring to `ttrt`.
    #[must_use]
    pub fn uniform_ttrt(ttrt: Seconds) -> Self {
        Self {
            ttrt: Some(ttrt),
            ..Self::default()
        }
    }

    /// Adds a per-ring TTRT override.
    #[must_use]
    pub fn with_ring_ttrt(mut self, ring: usize, ttrt: Seconds) -> Self {
        self.ring_ttrt.push((ring, ttrt));
        self
    }

    /// Sets a new uniform protocol overhead Δ (synchronous-budget
    /// shrink/grow at fixed TTRT).
    #[must_use]
    pub fn with_overhead(mut self, overhead: Seconds) -> Self {
        self.overhead = Some(overhead);
        self
    }

    /// Sets a new β for renegotiation and future admissions.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = Some(beta);
        self
    }

    /// Whether the plan changes nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.ttrt.is_none()
            && self.ring_ttrt.is_empty()
            && self.overhead.is_none()
            && self.beta.is_none()
    }

    /// Validates the plan against a ring count: β in range, override
    /// indices in range.
    ///
    /// # Errors
    ///
    /// Returns [`CacError::InvalidRequest`] describing the violation.
    pub fn validate(&self, rings: usize) -> Result<(), CacError> {
        if let Some(b) = self.beta {
            if !(0.0..=1.0).contains(&b) {
                return Err(CacError::InvalidRequest(format!(
                    "reconfig beta {b} outside [0, 1]"
                )));
            }
        }
        for &(ring, _) in &self.ring_ttrt {
            if ring >= rings {
                return Err(CacError::InvalidRequest(format!(
                    "reconfig names ring {ring} of a {rings}-ring network"
                )));
            }
        }
        Ok(())
    }

    /// The ring configurations this plan produces from `rings`. Each
    /// result still has to pass [`RingConfig::validate`] — the caller
    /// (`with_ring_configs`) enforces that, so a plan that drives
    /// Δ ≥ TTRT is refused there rather than silently clamped.
    ///
    /// # Errors
    ///
    /// As for [`ReconfigPlan::validate`].
    pub fn apply(&self, rings: &[RingConfig]) -> Result<Vec<RingConfig>, CacError> {
        self.validate(rings.len())?;
        let mut out = rings.to_vec();
        for r in &mut out {
            if let Some(ttrt) = self.ttrt {
                r.ttrt = ttrt;
            }
            if let Some(overhead) = self.overhead {
                r.overhead = overhead;
            }
        }
        for &(ring, ttrt) in &self.ring_ttrt {
            out[ring].ttrt = ttrt;
        }
        Ok(out)
    }
}

/// What one [`crate::cac::NetworkState::reconfigure`] did to the
/// admitted set, in admission (id) order within each class.
#[derive(Clone, Debug, Default)]
pub struct ReconfigReport {
    /// Re-admitted at a bit-different `(H_S, H_R)` allocation.
    pub renegotiated: Vec<ConnectionId>,
    /// Re-admitted at a bit-identical allocation.
    pub unchanged: Vec<ConnectionId>,
    /// No longer admissible at the new parameters; the full records are
    /// returned so the caller can park and retry them (the service
    /// layer's parked-victim path).
    pub dropped: Vec<ActiveConnection>,
    /// Synchronous time reclaimed from the dropped connections on
    /// source rings.
    pub reclaimed_s: Seconds,
    /// Synchronous time reclaimed from the dropped connections on
    /// destination rings.
    pub reclaimed_r: Seconds,
    /// Allocatable synchronous budget `TTRT − Δ` per ring before the
    /// reconfiguration.
    pub old_allocatable: Vec<Seconds>,
    /// Allocatable synchronous budget per ring after.
    pub new_allocatable: Vec<Seconds>,
}

impl ReconfigReport {
    /// Connections that survived (renegotiated or unchanged).
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.renegotiated.len() + self.unchanged.len()
    }

    /// One-line human summary for logs.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "reconfig: {} renegotiated, {} unchanged, {} dropped",
            self.renegotiated.len(),
            self.unchanged.len(),
            self.dropped.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_applies_uniform_then_overrides() {
        let rings = vec![RingConfig::standard(); 3];
        let plan = ReconfigPlan::uniform_ttrt(Seconds::from_millis(12.0))
            .with_ring_ttrt(2, Seconds::from_millis(6.0))
            .with_overhead(Seconds::from_millis(1.0));
        let out = plan.apply(&rings).unwrap();
        assert_eq!(out[0].ttrt.as_millis(), 12.0);
        assert_eq!(out[1].ttrt.as_millis(), 12.0);
        assert_eq!(out[2].ttrt.as_millis(), 6.0);
        assert!(out.iter().all(|r| r.overhead.as_millis() == 1.0));
        // Bandwidth and propagation are untouched.
        assert_eq!(out[0].bandwidth, rings[0].bandwidth);
        assert_eq!(out[0].propagation, rings[0].propagation);
    }

    #[test]
    fn plan_validation_rejects_bad_inputs() {
        let rings = vec![RingConfig::standard(); 2];
        let bad_beta = ReconfigPlan::default().with_beta(1.5);
        assert!(matches!(
            bad_beta.apply(&rings),
            Err(CacError::InvalidRequest(_))
        ));
        let bad_ring = ReconfigPlan::default().with_ring_ttrt(5, Seconds::from_millis(8.0));
        assert!(matches!(
            bad_ring.apply(&rings),
            Err(CacError::InvalidRequest(_))
        ));
    }

    #[test]
    fn noop_detection() {
        assert!(ReconfigPlan::default().is_noop());
        assert!(!ReconfigPlan::uniform_ttrt(Seconds::from_millis(8.0)).is_noop());
        assert!(!ReconfigPlan::default().with_beta(0.5).is_noop());
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = ReconfigReport::default();
        r.renegotiated.push(ConnectionId(0));
        r.unchanged.push(ConnectionId(1));
        assert_eq!(r.survivors(), 2);
        assert!(r.summary().contains("1 renegotiated"));
        assert!(r.summary().contains("0 dropped"));
    }
}
