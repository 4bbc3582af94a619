//! Multi-BS sharded deployment of the DT-assisted pipeline.
//!
//! The paper models a single edge server; its successor ("Digital Twin
//! Based User-Centric Resource Management for Multicast Short Video
//! Streaming", arXiv 2308.08995) is explicitly multi-BS: users roam
//! across cells and their twins must follow. This crate partitions the
//! *data plane* per base station while keeping the *control plane*
//! (grouping, demand prediction, reservation scoring) global, so a
//! seeded run predicts bit-identically at any shard count, one included:
//!
//! - [`Shard`] owns one cell's twin registry ([`msvs_udt::UdtStore`]
//!   with a disjoint instance-nonce namespace), its slice of the CNN
//!   embedding cache, and a shard-local edge [`msvs_edge::VideoCache`]
//!   tier;
//! - [`ShardRouter`] maps positions to shards deterministically via the
//!   nearest base station;
//! - [`ShardCoordinator`] mirrors the `UdtStore` write API (routed by an
//!   ownership map), merges per-shard snapshots into the canonical
//!   population view on the worker pool, and runs the serial cross-shard
//!   handover sweep — twin, sync-tracker state and cached embedding
//!   migrate together, and a mid-handover lost report degrades (drops
//!   only the cached embedding, forcing a re-encode) but never
//!   duplicates or drops a twin;
//! - [`ShardedEmbeddingBackend`] plugs the per-shard caches into
//!   [`msvs_core::DtAssistedPredictor`] so cache entries live with their
//!   owning shard and stay hit-correct after a move;
//! - [`ReservationAggregator`] folds per-group demand predictions into
//!   per-shard rows that sum back to the global reservation totals.

pub mod aggregate;
pub mod checkpoint;
pub mod coordinator;
pub mod embedding;
pub mod router;
pub mod shard;

pub use aggregate::{ReservationAggregator, ShardDemandRow, ShardSummary};
pub use checkpoint::{CheckpointEntry, ShardCheckpoint, CHECKPOINT_SCHEMA};
pub use coordinator::{
    HandoverStats, HandoverUser, OutagePhase, OutageTransition, ShardCoordinator,
};
pub use embedding::ShardedEmbeddingBackend;
pub use router::ShardRouter;
pub use shard::{Shard, TwinExport};
