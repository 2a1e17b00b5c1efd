//! # isomit-service
//!
//! The serving subsystem: a persistent RID inference engine and a
//! sharded TCP/JSON-lines daemon, turning the per-invocation pipeline
//! of `isomit-core` into an online, repeated-query service — the
//! setting rumor-source monitoring actually runs in (snapshots of one
//! network arriving over time).
//!
//! Layers:
//!
//! * [`RidEngine`] — thread-safe, process-lifetime engine: loads the
//!   diffusion network once, answers `rid` and `simulate` queries, and
//!   caches per-snapshot [`isomit_core::ForestArtifacts`] in a bounded
//!   LRU ([`LruCache`]) keyed by the request's content [`fingerprint`];
//!   cached answers are bit-identical to cold ones.
//!   [`RidEngine::shard_clone`] stamps out siblings that share the
//!   loaded network but keep private caches and registries — the unit
//!   the server shards over.
//! * [`Server`] — `std::net` daemon speaking the newline-delimited JSON
//!   [`protocol`]. Event-driven io over nonblocking sockets on one io
//!   thread (no thread-per-connection), with requests routed by
//!   rendezvous hashing on the snapshot fingerprint — computed once per
//!   request, and also the key of the shard's caches — to one of N
//!   independent shards, each owning an engine sibling, a
//!   [`BoundedQueue`] admission queue (per-shard `overloaded`
//!   backpressure), a serialized-result cache for the by-fingerprint
//!   fast path, and one worker thread. Watch sessions are pinned to
//!   their owning shard. Per-request deadlines and graceful
//!   drain-on-shutdown carry over from the single-queue design; the
//!   wire protocol is byte-compatible with it.
//! * [`framing`] — the one reading of a request line: a single walk
//!   that reads the `id` and `type` and records the byte span of every
//!   other protocol field, which the io thread routes on and
//!   [`protocol`] decodes every request from. A
//!   full-form `rid`'s snapshot span is hashed, not decoded, on the io
//!   thread.
//! * [`Client`] — blocking client library used by `isomit-cli`, the
//!   `service_load` generator, and the end-to-end tests; speaks both
//!   the full-snapshot and the by-fingerprint request forms.
//!
//! Everything is `std`-only on top of the existing workspace crates; no
//! new external dependencies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod fingerprint;
pub mod framing;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CacheMetrics, LruCache};
pub use client::{Client, ClientError, WatchReply};
pub use engine::{EngineStats, RidEngine};
pub use framing::Frame;
pub use isomit_detectors::DetectorKind;
pub use queue::{BoundedQueue, PushError, QueueMetrics};
pub use server::{Server, ServerConfig};
