//! Connection admission control for FDDI-ATM-FDDI heterogeneous
//! networks — the primary contribution of Chen, Sahoo, Zhao and Raha,
//! *"Connection-Oriented Communications for Real-Time Applications in
//! FDDI-ATM-FDDI Heterogeneous Networks"* (ICDCS 1997).
//!
//! A real-time connection crosses a source FDDI ring, a sender-side
//! interface device, the ATM backbone, a receiver-side interface device,
//! and the destination ring. Admitting it means (1) verifying that the
//! worst-case end-to-end delays of the requesting *and all existing*
//! connections stay within their deadlines, and (2) allocating the right
//! amount of synchronous bandwidth `(H_S, H_R)` on the two rings — enough
//! that deadlines hold with slack against future disturbance, but not so
//! much that future connections find the rings exhausted. The paper's
//! algorithm picks
//!
//! `H = H^{min_need} + β · (H^{max_need} − H^{min_need})`
//!
//! along the proportional line ζ, for a tunable β ∈ [0, 1].
//!
//! * [`network::HetNetwork`] — the heterogeneous topology (rings, edge
//!   devices, backbone);
//! * [`delay`] — the decomposition-based end-to-end worst-case delay of
//!   §4 (eq. 7), coupling connections through shared multiplexers;
//! * [`cac`] — the β-CAC of §5.3 and the admission bookkeeping
//!   ([`cac::NetworkState`]);
//! * [`incremental`] — persistent per-server admission state and the
//!   closed-form decision ladder behind the sub-millisecond fast path;
//! * [`experiment`] — the §6 admission-probability simulation;
//! * [`baselines`] — FDDI-only local allocation applied naively to the
//!   heterogeneous network (the strawman of §5/§7), for ablations.
//!
//! # Quick start
//!
//! ```
//! use hetnet_cac::cac::{AdmissionOptions, CacConfig, Decision, NetworkState};
//! use hetnet_cac::connection::ConnectionSpec;
//! use hetnet_cac::network::HetNetwork;
//! use hetnet_traffic::models::DualPeriodicEnvelope;
//! use hetnet_traffic::units::{Bits, BitsPerSec, Seconds};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = HetNetwork::paper_topology();
//! let mut state = NetworkState::new(net);
//! let opts = AdmissionOptions::beta_search(CacConfig::default());
//!
//! let video = Arc::new(DualPeriodicEnvelope::new(
//!     Bits::from_mbits(2.0), Seconds::from_millis(100.0),
//!     Bits::from_mbits(0.25), Seconds::from_millis(10.0),
//!     BitsPerSec::from_mbps(100.0),
//! )?);
//! let spec = ConnectionSpec::builder()
//!     .source((0, 0))
//!     .dest((1, 2))
//!     .envelope(video)
//!     .deadline(Seconds::from_millis(100.0))
//!     .build()?;
//! match state.admit(spec, &opts)? {
//!     Decision::Admitted { h_s, h_r, delay_bound, .. } => {
//!         assert!(delay_bound <= Seconds::from_millis(100.0));
//!         println!("admitted with H_S = {h_s}, H_R = {h_r}");
//!     }
//!     Decision::Rejected(reason) => println!("rejected: {reason}"),
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod cac;
pub mod connection;
pub mod delay;
pub mod error;
pub mod experiment;
pub mod incremental;
pub mod network;
pub mod reconfig;
pub mod region;
pub mod shard;
pub mod snapshot;
pub mod trace;

pub use cac::{
    AdmissionOptions, AllocationPolicy, CacConfig, Decision, DecisionObserver, DecisionRecord,
    EvalCacheCaps, NetworkState, RejectReason, TeardownReport,
};
pub use connection::{ConnectionId, ConnectionSpec, ConnectionSpecBuilder};
pub use error::CacError;
pub use incremental::FastPathStats;
pub use network::{Component, HetNetwork, HostId, LinkId, RingId, Scheduler, TopologySummary};
pub use reconfig::{ReconfigPlan, ReconfigReport};
pub use shard::{Footprint, ShardedState};
pub use snapshot::{ConnectionSnapshot, StateSnapshot, SNAPSHOT_VERSION};
pub use trace::{BindingConstraint, ConnectionTrace, DecisionTrace, ServerStage};
