//! Workload generators and the replay harness for the Ditto evaluation.
//!
//! The paper evaluates Ditto with YCSB synthetic workloads and real-world
//! key-value traces (IBM Cloud Object Storage, CloudPhysics, Twitter and the
//! FIU *webmail* trace).  Those traces are proprietary or far too large to
//! ship, so this crate provides:
//!
//! * [`ycsb`] — faithful YCSB core workloads A–D with a Zipfian request
//!   distribution (θ = 0.99), the same mix the paper uses;
//! * [`traces`] — parameterised synthetic generators with controllable
//!   recency/frequency affinity (LRU-friendly drifting working sets,
//!   LFU-friendly skew with scan pollution, and mixtures);
//! * [`corpus`] — named stand-ins for each real-world trace family plus a
//!   74-workload corpus used by the motivation and adaptivity figures;
//! * [`changing`] — the 4-phase LRU↔LFU switching workload of Figure 19;
//! * [`mixer`] — client-interleaving utilities that reproduce how concurrent
//!   clients and application mixes reshape the global access pattern (§3.2);
//! * [`backend`] — the [`CacheBackend`] trait and the one per-request
//!   [`Replay`] step behind [`replay`], shared by Ditto and all baselines so
//!   every system is measured identically.

pub mod backend;
pub mod changing;
pub mod corpus;
pub mod mixer;
pub mod request;
pub mod traces;
pub mod ycsb;
pub mod zipf;

pub use backend::{replay, CacheBackend, Replay, ReplayOptions, ReplayStats};
pub use changing::changing_workload;
pub use request::{Op, Request};
pub use ycsb::{YcsbSpec, YcsbWorkload};
pub use zipf::Zipfian;

/// Default value size used across the evaluation (the paper uses 256-byte
/// key-value pairs).
pub const DEFAULT_VALUE_SIZE: u32 = 256;
