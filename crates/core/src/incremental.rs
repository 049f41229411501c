//! Incremental per-server admission state.
//!
//! * [`MuxIndex`] — which admitted connections cross which
//!   multiplexer, kept by [`crate::cac::NetworkState`] in step with its
//!   active set on every admit/release/teardown, and read by the
//!   closure scoping of every untraced decision and by the sharded
//!   engine's speculations.
//! * [`FastPathStats`] — the probe counters of a closed-form decision
//!   ladder that once ran ahead of the dense β-search probe. Measured
//!   end to end, it paid on no benchmark workload and was deleted
//!   (DESIGN.md §11); every probe is now the dense
//!   [`crate::delay::Evaluator::evaluate_candidate`] call, so these
//!   counters are always zero.

use crate::connection::ConnectionId;
use crate::delay::MuxKey;
use crate::error::CacError;
use crate::network::{HetNetwork, HostId};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Fallback causes of the deleted decision ladder, the index into
/// [`FastPathStats::fallback_causes`]. Always-zero counters; kept for
/// the benchmark's `incremental.fallback.*` rows until a benchmark
/// change drops them.
pub const FALLBACK_CAUSES: [&str; 7] = [
    "mux-saturated",
    "mux-horizon",
    "mux-window",
    "receive-saturated",
    "receive-horizon",
    "receive-buffer",
    "ambiguous",
];

/// Skip causes of the deleted decision ladder, the index into
/// [`FastPathStats::skip_causes`]. Always-zero counters; kept for the
/// benchmark until a benchmark change drops them.
pub const SKIP_CAUSES: [&str; 4] = [
    "stage1-unavailable",
    "stale-active-set",
    "non-feedforward",
    "non-fifo-scheduler",
];

/// Probe counters of the deleted decision ladder. Nothing writes them:
/// they are always zero, and are kept only for the benchmark's
/// `incremental.*` rows until a benchmark change drops them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct FastPathStats {
    /// Probes accepted by the ladder (always zero).
    pub fast_accepts: u64,
    /// Probes rejected by the ladder (always zero).
    pub fast_rejects: u64,
    /// Probes the ladder handed to the dense evaluator (always zero).
    pub fallbacks: u64,
    /// `fallbacks` by cause, indexed per [`FALLBACK_CAUSES`].
    pub fallback_causes: [u64; FALLBACK_CAUSES.len()],
    /// Decisions that ran without the ladder (always zero).
    pub no_context: u64,
    /// `no_context` by cause, indexed per [`SKIP_CAUSES`].
    pub skip_causes: [u64; SKIP_CAUSES.len()],
}

impl FastPathStats {
    /// Total probes that consulted the ladder.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.fast_accepts + self.fast_rejects + self.fallbacks
    }

    /// Fraction of probes decided without the dense evaluator
    /// (`0.0` when no probe consulted the ladder).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let probes = self.probes();
        if probes == 0 {
            0.0
        } else {
            (self.fast_accepts + self.fast_rejects) as f64 / probes as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: Self) {
        self.fast_accepts += other.fast_accepts;
        self.fast_rejects += other.fast_rejects;
        self.fallbacks += other.fallbacks;
        for (a, b) in self.fallback_causes.iter_mut().zip(&other.fallback_causes) {
            *a += b;
        }
        self.no_context += other.no_context;
        for (a, b) in self.skip_causes.iter_mut().zip(&other.skip_causes) {
            *a += b;
        }
    }
}

/// Which admitted connections cross which multiplexer: the one fact a
/// decision's scope depends on (eq. 7 ties a connection's delay only to
/// the servers it crosses). Kept by [`crate::cac::NetworkState`] in
/// step with its active set and read by the closure scoping and the
/// sharded engine's speculations.
///
/// Members are kept in connection-id order — admission ids are
/// monotone, so this is also admission order, the canonical order the
/// dense evaluator sums each aggregate in.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct MuxIndex {
    servers: BTreeMap<MuxKey, Vec<ConnectionId>>,
    hops: BTreeMap<ConnectionId, Vec<MuxKey>>,
}

impl MuxIndex {
    /// Registers connection `id` crossing `hops`, in path order.
    pub(crate) fn insert(&mut self, id: ConnectionId, hops: Vec<MuxKey>) {
        for key in &hops {
            let members = self.servers.entry(*key).or_default();
            let pos = members.partition_point(|&mid| mid < id);
            members.insert(pos, id);
        }
        self.hops.insert(id, hops);
    }

    /// Builds the index of `active` from scratch: the reference the
    /// maintained index must stay equal to.
    #[cfg(test)]
    pub(crate) fn rebuild(
        net: &HetNetwork,
        active: &[crate::connection::ActiveConnection],
    ) -> Result<Self, CacError> {
        let mut index = Self::default();
        for c in active {
            index.insert(c.id, hops_for(net, c.spec.source, c.spec.dest)?);
        }
        Ok(index)
    }

    /// Unregisters connection `id`, returning the multiplexers it
    /// crossed (`None` if it was not registered).
    pub(crate) fn remove(&mut self, id: ConnectionId) -> Option<Vec<MuxKey>> {
        let hops = self.hops.remove(&id)?;
        for key in &hops {
            let members = self.servers.get_mut(key).expect("indexed hop has members");
            let pos = members
                .binary_search(&id)
                .expect("indexed connection is a member of its hops");
            members.remove(pos);
            if members.is_empty() {
                self.servers.remove(key);
            }
        }
        Some(hops)
    }

    /// The multiplexers connection `id` crosses, in path order (empty
    /// if it is not registered).
    pub(crate) fn hops(&self, id: ConnectionId) -> &[MuxKey] {
        self.hops.get(&id).map_or(&[], Vec::as_slice)
    }

    /// The connections crossing one multiplexer, in id order.
    pub(crate) fn members(&self, key: MuxKey) -> &[ConnectionId] {
        self.servers.get(&key).map_or(&[], Vec::as_slice)
    }

    /// The dependency closure of a set of seed multiplexers: the least
    /// set of connections containing every member of every seed and
    /// closed under "shares a multiplexer with", together with every
    /// multiplexer those connections cross. Over a closure every
    /// multiplexer a candidate reaches has its full member set, with the
    /// members' upstream hops resolved in turn, so its analyses come out
    /// to the same bits as over the full state (DESIGN.md §12).
    pub(crate) fn closure(
        &self,
        seeds: impl IntoIterator<Item = MuxKey>,
    ) -> (BTreeSet<MuxKey>, BTreeSet<ConnectionId>) {
        let mut muxes: BTreeSet<MuxKey> = BTreeSet::new();
        let mut frontier: Vec<MuxKey> = seeds.into_iter().filter(|&k| muxes.insert(k)).collect();
        let mut flows: BTreeSet<ConnectionId> = BTreeSet::new();
        while let Some(key) = frontier.pop() {
            for &id in self.members(key) {
                if !flows.insert(id) {
                    continue;
                }
                for &hop in self.hops(id) {
                    if muxes.insert(hop) {
                        frontier.push(hop);
                    }
                }
            }
        }
        (muxes, flows)
    }
}

/// The multiplexers a `source → dest` path traverses, in path order.
pub(crate) fn hops_for(
    net: &HetNetwork,
    source: HostId,
    dest: HostId,
) -> Result<Vec<MuxKey>, CacError> {
    let route = net.route_between(source.ring, dest.ring)?;
    let mut hops = Vec::with_capacity(route.len() + 2);
    hops.push(MuxKey::Uplink(source.ring));
    hops.extend(route.iter().map(|l| MuxKey::Backbone(l.0)));
    hops.push(MuxKey::Downlink(dest.ring));
    Ok(hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = FastPathStats {
            fast_accepts: 3,
            fast_rejects: 1,
            ..FastPathStats::default()
        };
        let mut b = FastPathStats {
            fallbacks: 4,
            no_context: 2,
            ..FastPathStats::default()
        };
        b.fallback_causes[0] = 3;
        b.fallback_causes[6] = 1;
        b.skip_causes[2] = 1;
        a.absorb(b);
        assert_eq!(a.probes(), 8);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(a.fallback_causes.iter().sum::<u64>(), a.fallbacks);
        assert_eq!(a.no_context, 2);
        assert_eq!(a.skip_causes, [0, 0, 1, 0]);
        assert_eq!(FastPathStats::default().hit_rate(), 0.0);
    }
}
