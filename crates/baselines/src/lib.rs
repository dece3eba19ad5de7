//! Baseline caching systems the paper compares Ditto against.
//!
//! * [`cliquemap`] — a re-implementation of CliqueMap (SIGCOMM '21) on the DM
//!   substrate: one-sided `Get`s, RPC-based `Set`s executed by the memory
//!   node's weak CPU, client-buffered access information merged server-side,
//!   and *precise* LRU/LFU maintained by the server (CM-LRU / CM-LFU).
//! * [`shardlru`] — lock-protected caching data structures maintained by
//!   clients with one-sided verbs: the KVC / KVC-S / KVS motivation systems
//!   of Figure 2 and the Shard-LRU baseline of Figure 14.
//! * [`monolithic`] — a Redis-like cluster of monolithic cache VMs (coupled
//!   CPU + DRAM per shard) with data migration on scale-out/in, used by the
//!   elasticity experiments (Figures 1 and 13).
//!
//! All DM-resident baselines implement [`ditto_workloads::CacheBackend`], so
//! every system is driven by the exact same replay harness as Ditto.

pub mod cliquemap;
mod lock;
pub mod monolithic;
pub mod shardlru;

pub use cliquemap::{CliqueMapCache, CliqueMapClient, CliqueMapConfig, ServerPolicy};
pub use monolithic::{RedisLikeCluster, ScaleEvent, TimelinePoint};
pub use shardlru::{ListVariant, LockedListCache, LockedListClient, LockedListConfig};
