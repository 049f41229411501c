//! Event-driven admission *service* over the β-CAC.
//!
//! The core crate decides one request at a time; a deployed controller
//! lives with *churn* — a continuous stream of connection requests and
//! teardowns. This crate closes that gap:
//!
//! * [`engine`] — consumes a seeded churn schedule
//!   ([`hetnet_sim::churn`]) as a merged
//!   connect/disconnect/fault/reconfiguration event stream, driving one
//!   [`hetnet_cac::cac::NetworkState`] with a persistent evaluator
//!   cache; supports checkpointing a run to a
//!   [`hetnet_cac::snapshot::StateSnapshot`] and deterministically
//!   recovering it against the audit-log tail
//!   ([`engine::verify_recovery`]);
//! * [`sharded`] — the same event loop fed by worker threads that
//!   speculate arrivals over their dependency closures; commits are
//!   validated against a conflict log, so decisions match [`engine`]'s;
//! * [`metrics`] — dependency-free structured metrics: decision
//!   counters per reject class, a fixed-bucket HDR-style latency
//!   histogram (p50/p95/p99), evaluator-cache gauges, and a sampled
//!   ring-utilization time series;
//! * [`audit`] — an append-only, decision-ordered audit log detailed
//!   enough to replay the run and check bit-identical outcomes;
//! * [`report`] — the aggregate [`report::ServiceReport`] with a
//!   hand-written JSON rendering for the bench tooling.
//!
//! Every decision the service makes is exactly the decision the bare
//! state machine would make in the same event order — the engine adds
//! scheduling and observability, never policy. The
//! `churn_replay` integration test holds this as a property over
//! random seeds and rates.
//!
//! ```
//! use hetnet_cac::network::HetNetwork;
//! use hetnet_service::{run, ServiceConfig};
//!
//! let cfg = ServiceConfig::paper_style(0.5, 20, 42);
//! let run = run(HetNetwork::paper_topology(), &cfg).unwrap();
//! assert_eq!(run.report.requests, 20);
//! assert_eq!(run.audit.len(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod engine;
pub mod metrics;
pub mod observability;
pub mod report;
pub mod sharded;

pub use audit::{AuditEntry, AuditKind, AuditLog, AuditOutcome};
pub use engine::{
    entries_equivalent, run, verify_recovery, EngineCheckpoint, ReconfigEvent, ServiceConfig,
    ServiceEngine, ServiceRun,
};
pub use metrics::{
    BindingCounters, CacheGauges, DecisionCounters, DelayAttribution, FastPathGauges,
    LatencyHistogram, ReconfigMetrics, RecoveryMetrics, UtilizationSample, UtilizationSeries,
};
pub use observability::{ObsOptions, TelemetryFrame};
pub use report::{LatencySummary, ServiceReport, StageDelaySummary};
pub use sharded::{
    run_sharded, runs_equivalent, sharded_runs_equivalent, ShardedEngine, ShardedRun, ShardingStats,
};
