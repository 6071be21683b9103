//! A simulated message-passing cluster with heterogeneous node speeds.
//!
//! The paper runs on 4 Alpha nodes over MPI, two of them artificially
//! *loaded* to be 4× slower. This crate reproduces that environment
//! in-process:
//!
//! * every node is a task with its own [`pdm::Disk`] and its own virtual
//!   clock ([`clock::NodeClock`]); all tasks run on one thread under a
//!   discrete-event scheduler that always resumes the node with the
//!   smallest virtual clock, so every run is deterministic;
//! * nodes exchange byte messages through [`comm::Endpoint`]s over one
//!   shared mailbox fabric; every message carries a Lamport timestamp,
//!   and a receive merges `max(local, send_time + network_cost)` into the
//!   receiver's clock, so the *makespan* of a run is simply the maximum
//!   node clock at the end;
//! * [`net::NetworkModel`] prices messages (latency + bytes/bandwidth);
//!   presets for the paper's Fast-Ethernet and Myrinet fabrics;
//! * [`charge::Charger`] converts work into virtual time: CPU operations
//!   are priced by a [`cost::CpuModel`] divided by the node's speed factor
//!   (the heterogeneity knob), disk I/O by the disk's service model applied
//!   to metered block counts, and every charge is multiplied by seeded
//!   log-normal jitter so repeated trials show realistic deviations;
//! * [`runtime::run_cluster`] runs the node tasks from a
//!   [`spec::ClusterSpec`] and collects per-node results, clocks, phase
//!   breakdowns and I/O counters.
//!
//! Nothing here knows about sorting; the `hetsort` crate builds the paper's
//! algorithm on top of these primitives.

pub mod bsp;
pub mod charge;
pub mod clock;
pub mod collectives;
pub mod comm;
pub mod cost;
mod events;
pub mod net;
pub mod runtime;
pub mod spec;

pub use charge::Charger;
pub use clock::NodeClock;
pub use comm::{Endpoint, Message, Tag};
pub use cost::CpuModel;
pub use net::NetworkModel;
pub use runtime::{run_cluster, ClusterReport, NodeCtx, NodeOutcome, PhaseBreakdown, PhaseMark};
pub use spec::{ClusterSpec, RuntimeKind, StorageKind, TimePolicy};
