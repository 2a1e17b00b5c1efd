//! `isomit-telemetry` — hand-rolled instrumentation for the isomit
//! stack: atomic [`Counter`]s and [`Gauge`]s, log2-bucketed latency
//! [`Histogram`]s with p50/p95/p99 extraction, scoped [`SpanTimer`]s,
//! and a named-metric [`Registry`] that serializes to JSON through the
//! in-repo codec (`isomit_graph::json`). No external metric registries,
//! no macros, no background threads.
//!
//! # Topology
//!
//! Two registries cover the stack:
//!
//! * the **process-global** registry ([`global`]) collects timings from
//!   library code that has no handle-passing path — the RID stages in
//!   `isomit-core` and the Monte-Carlo batches in `isomit-diffusion`;
//! * **per-component** registries (e.g. one per `RidEngine`) collect
//!   serving metrics, keeping unit tests that assert exact counter
//!   values isolated from each other.
//!
//! The service's `stats` verb merges both into one
//! [`RegistrySnapshot`].
//!
//! # Determinism contract
//!
//! Telemetry observes; it never participates in computation. Recording
//! is atomic adds on shared storage, so instrumented results are
//! bit-identical to uninstrumented ones at any thread count — the
//! workspace `tests/telemetry.rs` suite pins this. A registry in
//! [`Registry::disabled`] mode reduces every recording to one relaxed
//! load and makes [`Histogram::span`] skip the clock read entirely.
//!
//! # Naming scheme
//!
//! Dotted `component.metric[_unit]` names, with the unit suffix driving
//! pretty-printing (`*_ns` renders as a duration). The well-known names
//! live in [`names`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod histogram;
mod metrics;
mod registry;

pub use histogram::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, HistogramSnapshot, SpanTimer,
    Stopwatch, BUCKET_COUNT,
};
pub use metrics::{Counter, Gauge};
pub use registry::{Registry, RegistrySnapshot};

use std::sync::OnceLock;

/// Well-known metric names, so producers and consumers cannot drift.
pub mod names {
    /// Wall time of `Rid::extract_stage` (histogram, global registry).
    pub const RID_EXTRACT_STAGE_NS: &str = "rid.extract_stage_ns";
    /// Wall time of `Rid::query_stage` (histogram, global registry).
    pub const RID_QUERY_STAGE_NS: &str = "rid.query_stage_ns";
    /// Wall time of one Monte-Carlo estimation batch (histogram, global).
    pub const MC_BATCH_NS: &str = "mc.batch_ns";
    /// Wall time of one 64-lane wide Monte-Carlo batch (histogram,
    /// global).
    pub const MC_WIDE_BATCH_NS: &str = "mc.wide.batch_ns";
    /// Wide Monte-Carlo batches run (counter); with
    /// [`MC_WIDE_LANES`] this yields the mean lane occupancy
    /// (`lanes / (64 · batches)` — 1.0 means every batch was full).
    pub const MC_WIDE_BATCHES: &str = "mc.wide.batches";
    /// Total lanes (trials) simulated by wide Monte-Carlo batches
    /// (counter).
    pub const MC_WIDE_LANES: &str = "mc.wide.lanes";
    /// End-to-end request latency, receipt to reply (histogram).
    pub const SERVICE_REQUEST_NS: &str = "service.request_ns";
    /// Time a job waited in the bounded queue before a worker picked it
    /// up (histogram).
    pub const SERVICE_QUEUE_WAIT_NS: &str = "service.queue_wait_ns";
    /// Artifact-cache hits (counter).
    pub const SERVICE_CACHE_HITS: &str = "service.cache.hits";
    /// Artifact-cache misses (counter).
    pub const SERVICE_CACHE_MISSES: &str = "service.cache.misses";
    /// Artifact-cache evictions (counter).
    pub const SERVICE_CACHE_EVICTIONS: &str = "service.cache.evictions";
    /// RID requests accepted by the engine (counter).
    pub const SERVICE_RID_REQUESTS: &str = "service.rid_requests";
    /// Simulate requests accepted by the engine (counter).
    pub const SERVICE_SIMULATE_REQUESTS: &str = "service.simulate_requests";
    /// Requests rejected because the queue was full (counter).
    pub const SERVICE_OVERLOADED: &str = "service.overloaded";
    /// Requests dropped at dequeue because their deadline had passed
    /// (counter).
    pub const SERVICE_DEADLINE_EXCEEDED: &str = "service.deadline_exceeded";
    /// Instantaneous depth of the request queue (gauge).
    pub const SERVICE_QUEUE_DEPTH: &str = "service.queue_depth";
    /// Wall time of one rumor-centrality detection pass (histogram,
    /// global registry).
    pub const DETECTOR_RUMOR_CENTRALITY_NS: &str = "detector.rumor_centrality_ns";
    /// Wall time of one Jordan-center detection pass (histogram, global
    /// registry).
    pub const DETECTOR_JORDAN_CENTER_NS: &str = "detector.jordan_center_ns";
    /// Wall time to apply one watch-session delta and (when due) answer
    /// it (histogram).
    pub const WATCH_DELTA_NS: &str = "watch.delta_ns";
    /// Components a watch answer had to recompute (counter, summed
    /// across answers).
    pub const WATCH_DIRTY_COMPONENTS: &str = "watch.dirty_components";
    /// Watch answers that fell back to a full cold recompute (counter).
    pub const WATCH_FULL_RECOMPUTE_FALLBACKS: &str = "watch.full_recompute_fallbacks";
    /// Watch sessions rejected by the admission cap (counter).
    pub const WATCH_SESSIONS_SHED: &str = "watch.sessions_shed";
    /// Artifact-cache entries evicted because a newer snapshot of the
    /// same watch session superseded them (counter).
    pub const SERVICE_CACHE_SUPERSEDED: &str = "service.cache.superseded";
    /// Serialized-result cache hits on the by-fingerprint fast path
    /// (counter).
    pub const SERVICE_RESULT_CACHE_HITS: &str = "service.result_cache.hits";
    /// Serialized-result cache misses on the by-fingerprint fast path
    /// (counter).
    pub const SERVICE_RESULT_CACHE_MISSES: &str = "service.result_cache.misses";
    /// Serialized-result cache evictions (counter).
    pub const SERVICE_RESULT_CACHE_EVICTIONS: &str = "service.result_cache.evictions";
    /// Largest-minus-smallest per-shard request share at the last stats
    /// snapshot, in percent (gauge; 0 means perfectly balanced shards).
    pub const SERVICE_SHARD_IMBALANCE_PCT: &str = "service.shard_imbalance_pct";
    /// Largest reply backlog any connection's outbox held when a write
    /// began, in bytes (gauge; a high-water mark since the daemon
    /// started).
    pub const SERVICE_OUTBOX_BYTES_MAX: &str = "service.outbox_bytes_max";

    /// `shard.<i>.queue_depth` — per-shard admission-queue depth
    /// (gauge alias of that shard's `service.queue_depth`).
    pub fn shard_queue_depth(shard: usize) -> String {
        format!("shard.{shard}.queue_depth")
    }

    /// `shard.<i>.cache.hits` — per-shard artifact-cache hits (counter
    /// alias of that shard's `service.cache.hits`).
    pub fn shard_cache_hits(shard: usize) -> String {
        format!("shard.{shard}.cache.hits")
    }

    /// `shard.<i>.shed` — requests the shard rejected with `overloaded`
    /// (counter alias of that shard's `service.overloaded`).
    pub fn shard_shed(shard: usize) -> String {
        format!("shard.{shard}.shed")
    }

    /// `shard.<i>.requests` — rid requests routed to the shard (counter
    /// alias of that shard's `service.rid_requests`).
    pub fn shard_requests(shard: usize) -> String {
        format!("shard.{shard}.requests")
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry. Library code with no handle-passing path
/// (RID stages, Monte-Carlo batches) records here; services merge it
/// into their own snapshots. Created enabled on first use; flip with
/// [`Registry::set_enabled`].
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("lib.test_counter").inc();
        assert!(global()
            .snapshot()
            .counter("lib.test_counter")
            .is_some_and(|v| v >= 1));
    }
}
