//! Incremental per-server admission state and the fast decision ladder.
//!
//! The dense evaluator recomputes every multiplexer and both ring MACs
//! from scratch for each β-search probe, so a probe costs
//! `O(active × path length)` even when only the candidate's allocation
//! moved. This module maintains the cross-request state that makes a
//! probe `O(path length)`:
//!
//! * [`MuxIndex`] — which admitted connections cross which
//!   multiplexer, kept by [`crate::cac::NetworkState`] in step with its
//!   active set on every admit/release/teardown, and shared with the
//!   closure scoping of every untraced decision.
//! * [`FastContext`] — a per-decision snapshot combining that index
//!   with the dense evaluator's cached stage-1 summaries, through which
//!   each probe runs a five-rung decision ladder:
//!
//!   1. **source-stability reject** — the exact comparison the dense
//!      source-MAC analysis performs, on three floats;
//!   2. **stage-1 reject** — the dense (cached) source-MAC analysis of
//!      the candidate alone;
//!   3. **lower-bound reject** — λ-independent fixed delays plus the
//!      source MAC delay already exceed the deadline;
//!   4. **upper-bound accept** — closed-form affine `(σ, ρ)` envelope
//!      arithmetic ([`hetnet_atm::affine`]) over every multiplexer and
//!      the receive MAC, guarded so it provably dominates the dense
//!      analysis;
//!   5. **fallback** — anything not decided by rungs 1–4 goes to the
//!      dense probe.
//!
//! Only the *boolean* feasible-at-λ probes of the β bisection consult
//! the ladder; every numeric quantity that reaches a decision, a trace,
//! or an allocation table still comes from the dense evaluator, which
//! is how decisions stay bit-identical with the fast path on or off
//! (property-tested in `tests/fast_path.rs`).

use crate::connection::{ActiveConnection, ConnectionId};
use crate::delay::{Evaluator, FastStage1, MuxKey, PathInput};
use crate::error::CacError;
use crate::network::{HetNetwork, HostId};
use hetnet_atm::affine::{fifo_bounds, AffineBound};
use hetnet_atm::cell;
use hetnet_fddi::mac::mac_service;
use hetnet_obs as obs;
use hetnet_traffic::service::ServiceCurve;
use hetnet_traffic::units::Seconds;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Relative slack applied to every fast-path comparison, covering the
/// floating-point daylight between this module's sums and the dense
/// evaluator's (same terms, different association order — relative
/// error well under `1e-12` for the path lengths involved).
const GUARD: f64 = 1e-9;

/// The dense busy-period search widens its bracket geometrically (by
/// `2.2×` per step), so it may probe intervals up to that factor beyond
/// the true busy period before converging. The affine busy bound must
/// leave that much headroom below the analysis horizon before the fast
/// path may conclude the dense search would have succeeded.
const BUSY_SEARCH_HEADROOM: f64 = 2.3;

/// The reasons rung 4 (or the receive-side closed forms) can decline to
/// decide a probe, in the order the ladder checks them — the index into
/// [`FastPathStats::fallback_causes`]. `"ambiguous"` means every guard
/// passed but the affine bracket straddled the deadline.
pub const FALLBACK_CAUSES: [&str; 7] = [
    "mux-saturated",
    "mux-horizon",
    "mux-window",
    "receive-saturated",
    "receive-horizon",
    "receive-buffer",
    "ambiguous",
];

/// The reasons [`FastContext`] can fail to assemble at all, making the
/// whole decision run densely without consulting the ladder — the index
/// into [`FastPathStats::skip_causes`].
pub const SKIP_CAUSES: [&str; 4] = [
    "stage1-unavailable",
    "stale-active-set",
    "non-feedforward",
    "non-fifo-scheduler",
];

/// Counters for how β-search probes were decided, per decision (and
/// accumulated per service via the metrics layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Probes accepted by the closed-form upper bound (rung 4).
    pub fast_accepts: u64,
    /// Probes rejected by rungs 1–3.
    pub fast_rejects: u64,
    /// Probes the ladder handed to the dense evaluator (rung 5).
    pub fallbacks: u64,
    /// Rung-5 fallbacks by cause, indexed per [`FALLBACK_CAUSES`]
    /// (sums to `fallbacks`).
    pub fallback_causes: [u64; FALLBACK_CAUSES.len()],
    /// Decisions (not probes) that ran densely because no ladder
    /// context could be assembled. These never enter `probes()` or
    /// `hit_rate()` — the denominators differ — which is exactly why a
    /// low service-level hit rate needs this counter to be explainable.
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
    pub fn merge(&mut self, other: &Self) {
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

    /// Records a decision that ran without a ladder context.
    pub fn record_skip(&mut self, cause: &'static str) {
        self.no_context += 1;
        if let Some(i) = SKIP_CAUSES.iter().position(|&c| c == cause) {
            self.skip_causes[i] += 1;
        }
    }
}

/// Which admitted connections cross which multiplexer: the one fact a
/// decision's scope depends on (eq. 7 ties a connection's delay only to
/// the servers it crosses). Kept by [`crate::cac::NetworkState`] in
/// step with its active set and read by the closure scoping, the
/// sharded engine's speculations, and the fast ladder alike.
///
/// Members are kept in connection-id order — admission ids are
/// monotone, so this is also admission order, the canonical order the
/// dense evaluator sums each aggregate in — each with the hop index at
/// which its path crosses the multiplexer.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct MuxIndex {
    servers: BTreeMap<MuxKey, Vec<(ConnectionId, u32)>>,
    hops: BTreeMap<ConnectionId, Vec<MuxKey>>,
}

impl MuxIndex {
    /// Registers connection `id` crossing `hops`, in path order.
    pub(crate) fn insert(&mut self, id: ConnectionId, hops: Vec<MuxKey>) {
        for (hi, key) in hops.iter().enumerate() {
            let members = self.servers.entry(*key).or_default();
            let pos = members.partition_point(|&(mid, _)| mid < id);
            members.insert(pos, (id, hi as u32));
        }
        self.hops.insert(id, hops);
    }

    /// Builds the index of `active` from scratch: the reference the
    /// maintained index must stay equal to.
    #[cfg(test)]
    pub(crate) fn rebuild(net: &HetNetwork, active: &[ActiveConnection]) -> Result<Self, CacError> {
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
                .binary_search_by_key(&id, |&(mid, _)| mid)
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

    /// The `(connection, hop index)` members of one multiplexer, in
    /// connection-id order.
    pub(crate) fn members(&self, key: MuxKey) -> &[(ConnectionId, u32)] {
        self.servers.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Every occupied multiplexer with its members, in key order.
    pub(crate) fn servers(&self) -> impl Iterator<Item = (&MuxKey, &[(ConnectionId, u32)])> {
        self.servers.iter().map(|(k, m)| (k, m.as_slice()))
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
            for &(id, _) in self.members(key) {
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

/// One multiplexer group of a [`FastContext`]: its service rate and the
/// `(path index, hop index)` members crossing it, with the candidate as
/// the last path index.
#[derive(Clone, Debug)]
struct Group {
    rate: f64,
    members: Vec<(u32, u32)>,
}

/// How a ladder probe came out (see [`FastContext::classify`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LadderOutcome {
    /// `Some(feasible)` when a rung was decisive, `None` on fallback.
    pub(crate) decision: Option<bool>,
    /// Which rung decided (or where the ladder gave up).
    pub(crate) rung: &'static str,
    /// Certain lower bound on the candidate's dense total delay, when
    /// stage 1 completed (seconds).
    pub(crate) lower: Option<f64>,
    /// Affine upper bound on the candidate's dense total delay, when
    /// rung 4 completed (seconds).
    pub(crate) upper: Option<f64>,
}

impl LadderOutcome {
    fn reject(rung: &'static str) -> Self {
        Self {
            decision: Some(false),
            rung,
            lower: None,
            upper: None,
        }
    }

    fn fallback(rung: &'static str, lower: f64) -> Self {
        Self {
            decision: None,
            rung,
            lower: Some(lower),
            upper: None,
        }
    }
}

/// Per-decision snapshot driving the fast ladder: the dense evaluator's
/// cached stage-1 summaries of every active connection, the multiplexer
/// membership (actives from the [`MuxIndex`], candidate appended),
/// in dependency order, and the candidate's λ-independent fixed delays.
#[derive(Debug)]
pub(crate) struct FastContext<'n> {
    net: &'n HetNetwork,
    /// Stage-1 summaries of the active paths, in path (= id) order.
    flows: Vec<FastStage1>,
    /// All multiplexers touched by actives or candidate, in an order
    /// that resolves each path's hops front to back.
    groups: Vec<Group>,
    /// Path index of the candidate (`flows.len()`).
    cand_pi: usize,
    /// The candidate's λ-independent delay terms: propagation, fixed
    /// interface-device delays, and switch fabric latencies.
    consts: f64,
}

impl<'n> FastContext<'n> {
    /// Assembles the snapshot, or `None` when the fast path cannot be
    /// used for this decision (an active's stage-1 summary is
    /// unavailable or infeasible, the state is out of sync with the
    /// active set, or the mux dependencies are not feedforward) — the
    /// caller then runs every probe densely, which is always correct.
    #[cfg(test)]
    pub(crate) fn new(
        ev: &mut Evaluator<'_>,
        net: &'n HetNetwork,
        index: &MuxIndex,
        active: &[ActiveConnection],
        source: HostId,
        dest: HostId,
    ) -> Result<Option<Self>, CacError> {
        Ok(Self::assemble(ev, net, index, active, source, dest)?.ok())
    }

    /// [`FastContext::new`], but a failed assembly names its cause (one
    /// of [`SKIP_CAUSES`]) so the caller can attribute the dense run.
    pub(crate) fn assemble(
        ev: &mut Evaluator<'_>,
        net: &'n HetNetwork,
        index: &MuxIndex,
        active: &[ActiveConnection],
        source: HostId,
        dest: HostId,
    ) -> Result<Result<Self, &'static str>, CacError> {
        // Every rung of the ladder models the port as a FIFO aggregate
        // served at the full link rate; a weighted per-class scheduler
        // gives classes different (and laxer) bounds, so the only sound
        // move is to run the whole decision densely.
        if !net.scheduler().is_fifo() {
            return Ok(Err("non-fifo-scheduler"));
        }
        let mut flows = Vec::with_capacity(active.len());
        for c in active {
            let p = PathInput {
                source: c.spec.source,
                dest: c.spec.dest,
                envelope: Arc::clone(&c.spec.envelope),
                h_s: c.h_s,
                h_r: c.h_r,
                class: c.spec.class,
            };
            match ev.fast_stage1(&p)? {
                Some(summary) => flows.push(summary),
                None => return Ok(Err("stage1-unavailable")),
            }
        }

        let cand_pi = active.len();
        let mut grouped: BTreeMap<MuxKey, Vec<(u32, u32)>> = BTreeMap::new();
        for (key, server) in index.servers() {
            let mut members = Vec::with_capacity(server.len());
            for &(id, hi) in server {
                // Actives are kept in id order, so the position of an id
                // in `active` is its path index.
                match active.binary_search_by_key(&id, |c| c.id) {
                    Ok(pi) => members.push((pi as u32, hi)),
                    Err(_) => return Ok(Err("stale-active-set")),
                }
            }
            grouped.insert(*key, members);
        }
        let cand_hops = hops_for(net, source, dest)?;
        for (hi, key) in cand_hops.iter().enumerate() {
            grouped
                .entry(*key)
                .or_default()
                .push((cand_pi as u32, hi as u32));
        }

        // Order the groups so every path's hops resolve front to back —
        // the same dependency order the dense resolver uses.
        let keys: Vec<MuxKey> = grouped.keys().copied().collect();
        let mut resolved = vec![0u32; cand_pi + 1];
        let mut remaining: Vec<usize> = (0..keys.len()).collect();
        let mut groups = Vec::with_capacity(keys.len());
        while !remaining.is_empty() {
            let mut next = Vec::new();
            let mut progressed = false;
            for gi in remaining {
                let members = &grouped[&keys[gi]];
                if members.iter().all(|&(pi, hi)| hi == resolved[pi as usize]) {
                    for &(pi, _) in members {
                        resolved[pi as usize] += 1;
                    }
                    let rate = match keys[gi] {
                        MuxKey::Uplink(_) | MuxKey::Downlink(_) => net.access_link().rate,
                        MuxKey::Backbone(l) => net.backbone().link(hetnet_atm::LinkId(l)).rate,
                    };
                    groups.push(Group {
                        rate: rate.value(),
                        members: members.clone(),
                    });
                    progressed = true;
                } else {
                    next.push(gi);
                }
            }
            if !progressed {
                return Ok(Err("non-feedforward"));
            }
            remaining = next;
        }

        // λ-independent candidate delay terms, mirroring the dense
        // path-report composition minus the MAC and queueing delays.
        let mut consts = net.ring(source.ring).propagation.value()
            + net.ifdev().sender_fixed_delay().value()
            + net.access_link().propagation.value()
            + net
                .backbone()
                .switch(net.switch_of(source.ring))
                .fabric_latency
                .value();
        for key in &cand_hops[1..] {
            match *key {
                MuxKey::Backbone(l) => {
                    let lid = hetnet_atm::LinkId(l);
                    consts += net.backbone().link(lid).propagation.value()
                        + net
                            .backbone()
                            .switch(net.backbone().link_target(lid))
                            .fabric_latency
                            .value();
                }
                MuxKey::Downlink(_) => consts += net.access_link().propagation.value(),
                MuxKey::Uplink(_) => {}
            }
        }
        consts +=
            net.ifdev().receiver_fixed_delay().value() + net.ring(dest.ring).propagation.value();

        Ok(Ok(Self {
            net,
            flows,
            groups,
            cand_pi,
            consts,
        }))
    }

    /// The stage-1 summary of path `pi` (`cand_pi` → the candidate's).
    fn flow<'s>(&'s self, pi: usize, cand: &'s FastStage1) -> &'s FastStage1 {
        if pi == self.cand_pi {
            cand
        } else {
            &self.flows[pi]
        }
    }

    /// Runs the decision ladder on one β-search probe.
    ///
    /// A `Some(feasible)` decision is sound to substitute for the dense
    /// probe's boolean: rungs 1–2 replicate the dense computation
    /// exactly, rung 3 compares a certain lower bound, and rung 4's
    /// guards ensure its affine arithmetic dominates every dense bound
    /// the probe would have computed (see the module docs).
    pub(crate) fn classify(
        &self,
        ev: &mut Evaluator<'_>,
        cand: &PathInput,
        deadline: Seconds,
    ) -> Result<LadderOutcome, CacError> {
        let margin = ev.config().analysis.stability_margin;
        let horizon = ev.config().analysis.max_horizon.value();

        // Rung 1: the dense source-MAC analysis starts by rejecting
        // allocations whose service rate cannot keep up with the
        // source's sustained rate; replicate that exact comparison
        // before paying for anything else.
        if cand.h_s.per_rotation().value() <= 0.0 {
            return Ok(LadderOutcome::reject("source-unstable"));
        }
        let ring_s = self.net.ring(cand.source.ring);
        let rho = cand.envelope.sustained_rate().value();
        let srv = mac_service(ring_s, cand.h_s).sustained_rate().value();
        if rho >= srv * (1.0 - margin) {
            return Ok(LadderOutcome::reject("source-unstable"));
        }

        // Rung 2: the dense (cached) stage-1 analysis of the candidate.
        let Some(s1) = ev.fast_stage1(cand)? else {
            return Ok(LadderOutcome::reject("stage1-infeasible"));
        };
        if cand.h_r.per_rotation().value() <= 0.0 {
            return Ok(LadderOutcome::reject("zero-receive-allocation"));
        }

        // Rung 3: the dense total is at least the source MAC delay plus
        // the λ-independent fixed terms.
        let lower = s1.chi_s.value() + self.consts;
        if lower * (1.0 - GUARD) > deadline.value() {
            return Ok(LadderOutcome {
                decision: Some(false),
                rung: "lower-bound",
                lower: Some(lower),
                upper: None,
            });
        }

        // Rung 4: affine upper bound. `shift[pi]` accumulates the delay
        // bounds of path `pi`'s already-processed hops — the envelope a
        // flow presents downstream is its wire envelope delayed by that
        // much, which dominates the dense chained envelope as long as
        // every query stays inside the flattening window.
        let mut shift = vec![0.0_f64; self.flows.len() + 1];
        for group in &self.groups {
            let mut agg = AffineBound::ZERO;
            for &(pi, _) in &group.members {
                let flow = self.flow(pi as usize, &s1);
                agg = agg.plus(&flow.wire_affine.delayed(Seconds::new(shift[pi as usize])));
            }
            // Continuing past this guard certifies the dense aggregate
            // (whose rate never exceeds `agg.rho`, modulo summation
            // ulps) is stable too.
            if agg.rho >= group.rate * (1.0 - margin) * (1.0 - GUARD) {
                return Ok(LadderOutcome::fallback("mux-saturated", lower));
            }
            let Some(fb) = fifo_bounds(&agg, hetnet_traffic::units::BitsPerSec::new(group.rate))
            else {
                return Ok(LadderOutcome::fallback("mux-saturated", lower));
            };
            if fb.busy * BUSY_SEARCH_HEADROOM > horizon {
                return Ok(LadderOutcome::fallback("mux-horizon", lower));
            }
            for &(pi, _) in &group.members {
                if fb.busy + shift[pi as usize] > self.flow(pi as usize, &s1).window {
                    return Ok(LadderOutcome::fallback("mux-window", lower));
                }
            }
            for &(pi, _) in &group.members {
                shift[pi as usize] += fb.delay;
            }
        }

        // Receive side of the candidate: reassembly is exactly affine,
        // and the timed-token MAC of the destination ring admits closed
        // forms for an affine arrival `σ + ρt` served by quantum `q`
        // per rotation `T` (latency two rotations):
        //   delay ≤ 2T + σT/q,  backlog ≤ σ + 2q,
        //   busy ≤ (σ + 2q)/(q/T − ρ).
        let arrived = s1.wire_affine.delayed(Seconds::new(shift[self.cand_pi]));
        let cells = cell::cells_for_payload(s1.frame_size) as f64;
        let scale = s1.frame_size.value() / (cells * cell::CELL_BITS);
        let rea = arrived.scaled_padded(scale, s1.frame_size);
        let ring_r = self.net.ring(cand.dest.ring);
        let t_r = ring_r.ttrt.value();
        let q = cand.h_r.quantum(ring_r.bandwidth).value();
        let srv_r = q / t_r;
        if rea.rho >= srv_r * (1.0 - margin) * (1.0 - GUARD) {
            return Ok(LadderOutcome::fallback("receive-saturated", lower));
        }
        let busy_r = (rea.sigma + 2.0 * q) / (srv_r - rea.rho);
        if busy_r * BUSY_SEARCH_HEADROOM > horizon || busy_r + shift[self.cand_pi] > s1.window {
            return Ok(LadderOutcome::fallback("receive-horizon", lower));
        }
        if let Some(buffer) = self.net.device_buffer() {
            if rea.sigma + 2.0 * q > buffer.value() {
                return Ok(LadderOutcome::fallback("receive-buffer", lower));
            }
        }
        let chi_r = 2.0 * t_r + rea.sigma * t_r / q;

        let upper = s1.chi_s.value() + self.consts + shift[self.cand_pi] + chi_r;
        if upper * (1.0 + GUARD) <= deadline.value() {
            return Ok(LadderOutcome {
                decision: Some(true),
                rung: "upper-bound",
                lower: Some(lower),
                upper: Some(upper),
            });
        }
        Ok(LadderOutcome {
            decision: None,
            rung: "ambiguous",
            lower: Some(lower),
            upper: Some(upper),
        })
    }

    /// [`FastContext::classify`] plus bookkeeping: bumps `stats` and
    /// emits a `fast_path` observability event naming the deciding rung.
    pub(crate) fn probe(
        &self,
        ev: &mut Evaluator<'_>,
        cand: &PathInput,
        deadline: Seconds,
        stats: &mut FastPathStats,
    ) -> Result<Option<bool>, CacError> {
        let out = self.classify(ev, cand, deadline)?;
        let label = match out.decision {
            Some(true) => {
                stats.fast_accepts += 1;
                "accept"
            }
            Some(false) => {
                stats.fast_rejects += 1;
                "reject"
            }
            None => {
                stats.fallbacks += 1;
                if let Some(i) = FALLBACK_CAUSES.iter().position(|&c| c == out.rung) {
                    stats.fallback_causes[i] += 1;
                }
                "fallback"
            }
        };
        obs::event(
            "fast_path",
            &[
                ("rung", obs::FieldValue::Str(out.rung)),
                ("decision", obs::FieldValue::Str(label)),
                // Non-finite exports as JSON null (bound not computed).
                (
                    "lower_s",
                    obs::FieldValue::F64(out.lower.unwrap_or(f64::NAN)),
                ),
                (
                    "upper_s",
                    obs::FieldValue::F64(out.upper.unwrap_or(f64::NAN)),
                ),
            ],
        );
        Ok(out.decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::ConnectionSpec;
    use crate::delay::{CandidateOutcome, EvalConfig};
    use hetnet_fddi::frames;
    use hetnet_fddi::ring::SyncBandwidth;
    use hetnet_traffic::models::DualPeriodicEnvelope;
    use hetnet_traffic::units::{Bits, BitsPerSec};
    use proptest::prelude::*;

    fn env(c1_mbit: f64) -> crate::connection::ConnectionSpec {
        ConnectionSpec {
            source: HostId {
                ring: 0,
                station: 0,
            },
            dest: HostId {
                ring: 1,
                station: 0,
            },
            envelope: Arc::new(
                DualPeriodicEnvelope::new(
                    Bits::from_mbits(c1_mbit),
                    Seconds::from_millis(100.0),
                    Bits::from_mbits(c1_mbit / 8.0),
                    Seconds::from_millis(12.5),
                    BitsPerSec::from_mbps(100.0),
                )
                .unwrap(),
            ),
            deadline: Seconds::from_millis(100.0),
            class: 0,
        }
    }

    fn spec_between(c1_mbit: f64, src: usize, dst: usize) -> ConnectionSpec {
        let mut s = env(c1_mbit);
        s.source = HostId {
            ring: src,
            station: 0,
        };
        s.dest = HostId {
            ring: dst,
            station: 0,
        };
        s
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = FastPathStats {
            fast_accepts: 3,
            fast_rejects: 1,
            ..FastPathStats::default()
        };
        let mut b = FastPathStats {
            fallbacks: 4,
            ..FastPathStats::default()
        };
        b.fallback_causes[0] = 3;
        b.fallback_causes[6] = 1;
        b.record_skip("non-feedforward");
        b.record_skip("not-a-real-cause");
        a.merge(&b);
        assert_eq!(a.probes(), 8);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(a.fallback_causes.iter().sum::<u64>(), a.fallbacks);
        assert_eq!(a.no_context, 2);
        assert_eq!(a.skip_causes, [0, 0, 1, 0]);
        assert_eq!(FastPathStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn ladder_decides_easy_cases() {
        let net = HetNetwork::paper_topology();
        let index = MuxIndex::default();
        let mut ev = Evaluator::new(&net, EvalConfig::fast());
        let ctx = FastContext::new(
            &mut ev,
            &net,
            &index,
            &[],
            HostId {
                ring: 0,
                station: 0,
            },
            HostId {
                ring: 1,
                station: 0,
            },
        )
        .unwrap()
        .expect("empty state always builds a context");
        let h = SyncBandwidth::new(Seconds::from_millis(7.2));
        let cand = PathInput {
            source: HostId {
                ring: 0,
                station: 0,
            },
            dest: HostId {
                ring: 1,
                station: 0,
            },
            envelope: Arc::clone(&env(1.0).envelope),
            h_s: h,
            h_r: h,
            class: 0,
        };
        // A microsecond deadline dies on the λ-independent fixed terms.
        let out = ctx
            .classify(&mut ev, &cand, Seconds::from_micros(1.0))
            .unwrap();
        assert_eq!(out.decision, Some(false));
        assert_eq!(out.rung, "lower-bound");
        // A half-second deadline is accepted by the affine upper bound.
        let out = ctx
            .classify(&mut ev, &cand, Seconds::from_millis(500.0))
            .unwrap();
        assert_eq!(out.decision, Some(true), "rung {}", out.rung);
        // Zero allocation is the dense stage-1 stability reject.
        let zero = PathInput {
            h_s: SyncBandwidth::new(Seconds::ZERO),
            ..cand.clone()
        };
        let out = ctx
            .classify(&mut ev, &zero, Seconds::from_millis(500.0))
            .unwrap();
        assert_eq!(out.decision, Some(false));
        assert_eq!(out.rung, "source-unstable");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every decisive ladder answer must agree with the dense probe,
        /// and the bounds must bracket the dense total.
        #[test]
        fn ladder_is_sound_against_the_dense_evaluator(
            c1 in 0.4f64..2.0,
            deadline_ms in 2.0f64..120.0,
            lambda in 0.0f64..1.0,
            n_active in 0usize..3,
        ) {
            let net = HetNetwork::paper_topology();
            let mut active = Vec::new();
            for i in 0..n_active {
                let spec = spec_between(0.5, i % 3, (i + 1) % 3);
                let h = SyncBandwidth::new(Seconds::from_millis(2.0));
                active.push(ActiveConnection {
                    id: ConnectionId(i as u64),
                    spec,
                    h_s: h,
                    h_r: h,
                    delay_bound: Seconds::ZERO,
                });
            }
            let index = MuxIndex::rebuild(&net, &active).unwrap();
            let mut ev = Evaluator::new(&net, EvalConfig::fast());
            let src = HostId { ring: 0, station: 1 };
            let dst = HostId { ring: 2, station: 1 };
            let Some(ctx) =
                FastContext::new(&mut ev, &net, &index, &active, src, dst).unwrap()
            else {
                return;
            };
            let ring = net.ring(0);
            let min_h = frames::min_allocation(ring, 0.9);
            let max_h = SyncBandwidth::new(Seconds::from_millis(7.2));
            let h = min_h.lerp(max_h, lambda);
            let mut spec = spec_between(c1, src.ring, dst.ring);
            spec.deadline = Seconds::from_millis(deadline_ms);
            let cand = PathInput {
                source: src,
                dest: dst,
                envelope: Arc::clone(&spec.envelope),
                h_s: h,
                h_r: h,
                class: 0,
            };
            let out = ctx.classify(&mut ev, &cand, spec.deadline).unwrap();

            // Dense reference: actives plus candidate, candidate last.
            let mut inputs: Vec<PathInput> = active
                .iter()
                .map(|c| PathInput {
                    source: c.spec.source,
                    dest: c.spec.dest,
                    envelope: Arc::clone(&c.spec.envelope),
                    h_s: c.h_s,
                    h_r: c.h_r,
                    class: c.spec.class,
                })
                .collect();
            inputs.push(cand);
            let dense = ev.evaluate_candidate(&inputs).unwrap();
            let dense_total = match &dense {
                CandidateOutcome::Feasible { candidate, .. } => Some(candidate.total.value()),
                CandidateOutcome::Infeasible(_) => None,
            };
            let dense_ok =
                dense_total.is_some_and(|t| t <= spec.deadline.value());
            if let Some(decided) = out.decision {
                prop_assert_eq!(
                    decided, dense_ok,
                    "rung {} disagrees with dense (total {:?})",
                    out.rung, dense_total
                );
            }
            if let (Some(total), Some(lower)) = (dense_total, out.lower) {
                prop_assert!(
                    lower * (1.0 - 10.0 * GUARD) <= total,
                    "lower {lower} above dense total {total}"
                );
            }
            if let (Some(total), Some(upper)) = (dense_total, out.upper) {
                prop_assert!(
                    upper * (1.0 + 10.0 * GUARD) >= total,
                    "upper {upper} below dense total {total}"
                );
            }
        }
    }
}
