//! Output checks run after the timed phase, outside the timing, and
//! the decision-stream digest that ties a traced run to its untraced
//! twin.

use hetnet_cac::cac::{CacConfig, NetworkState};
use hetnet_service::{AuditLog, AuditOutcome};

/// Result of checking one final state.
#[derive(Debug, Default)]
pub struct StateCheck {
    /// Active connections re-evaluated.
    pub connections: usize,
    /// Connections whose recomputed bound exceeds their deadline.
    pub late: u64,
    /// Rings whose allocated synchronous bandwidth exceeds the budget.
    pub overbooked: u64,
    /// Set when the recomputation itself failed.
    pub error: Option<String>,
}

impl StateCheck {
    /// Violations, each counted as one failed operation.
    pub fn failures(&self) -> u64 {
        self.late + self.overbooked + u64::from(self.error.is_some())
    }

    /// Accumulates another state's check (one per pass).
    pub fn merge(&mut self, other: Self) {
        self.connections += other.connections;
        self.late += other.late;
        self.overbooked += other.overbooked;
        self.error = self.error.take().or(other.error);
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"connections\": {}, \"late\": {}, \"overbooked_rings\": {}, \"error\": {}}}",
            self.connections,
            self.late,
            self.overbooked,
            self.error
                .as_ref()
                .map_or_else(|| "null".to_string(), |e| format!("{e:?}")),
        )
    }
}

/// Recomputes every active connection's delay bound on `state` and
/// requires it within the deadline, and every ring's allocated
/// synchronous bandwidth (ΣH_S of its senders plus ΣH_R of its
/// receivers) within the ring's allocatable budget.
pub fn check_state(state: &NetworkState, cac: &CacConfig) -> StateCheck {
    let active = state.active();
    let mut check = StateCheck {
        connections: active.len(),
        ..StateCheck::default()
    };
    match state.current_delays(cac) {
        // `current_delays` reports in `active()` order.
        Ok(delays) => {
            check.late += active.len().abs_diff(delays.len()) as u64;
            for ((id, bound), conn) in delays.iter().zip(active) {
                if *id != conn.id || *bound > conn.spec.deadline {
                    check.late += 1;
                }
            }
        }
        Err(e) => check.error = Some(e.to_string()),
    }
    let rings = state.network().rings();
    let mut held = vec![0.0f64; rings.len()];
    for c in active {
        held[c.spec.source.ring] += c.h_s.per_rotation().value();
        held[c.spec.dest.ring] += c.h_r.per_rotation().value();
    }
    for (h, ring) in held.iter().zip(rings) {
        let budget = ring.allocatable().value();
        // Summation-order slack only: the state sums in its own order.
        if *h > budget * (1.0 + 1e-9) {
            check.overbooked += 1;
        }
    }
    check
}

/// FNV-1a over a canonical, bit-exact rendering of decisions.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn outcome(&mut self, o: &AuditOutcome) {
        match o {
            AuditOutcome::Admitted {
                id,
                h_s,
                h_r,
                delay_bound,
            } => {
                self.bytes(b"A");
                self.u64(id.0);
                self.u64(h_s.to_bits());
                self.u64(h_r.to_bits());
                self.u64(delay_bound.to_bits());
            }
            AuditOutcome::Rejected { class, detail } => {
                self.bytes(b"R");
                self.bytes(class.as_bytes());
                self.bytes(detail.as_bytes());
            }
            AuditOutcome::Reconfigured {
                renegotiated,
                dropped,
                unchanged,
            } => {
                self.bytes(b"C");
                self.u64(*renegotiated);
                self.u64(*dropped);
                self.u64(*unchanged);
            }
        }
    }

    /// Folds a whole audit log's decision stream.
    pub fn audit(&mut self, log: &AuditLog) {
        for e in log.entries() {
            self.u64(e.seq);
            self.bytes(e.kind.name().as_bytes());
            self.u64(e.arrival as u64);
            self.u64(e.at.value().to_bits());
            self.outcome(&e.outcome);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
