//! The persistent RID engine: one loaded diffusion network, many
//! queries, cached per-snapshot artifacts.
//!
//! [`RidEngine`] is the process-lifetime object behind the daemon. It
//! holds the diffusion network (for Monte-Carlo `simulate` queries) and
//! a bounded LRU of [`ForestArtifacts`] keyed by
//! `(snapshot fingerprint, alpha bits)`, so repeated snapshots skip
//! straight to the per-tree DP. The fingerprint is the caller's: the
//! server passes the hash it routed the request on, so each request is
//! hashed once. Caching is invisible in results: extraction is a pure
//! function of `(snapshot, alpha)`, so a cached answer is bit-identical
//! to a cold one (tested below).
//!
//! [`RidEngine::adopt_artifacts`] files artifacts computed outside the
//! engine by [`Rid::extract_stage`]. It is for library callers: the
//! daemon adopts nothing, because keying an entry re-encodes the whole
//! snapshot.

use crate::cache::{CacheMetrics, LruCache};
use crate::fingerprint::snapshot_fingerprint;
use isomit_core::{ForestArtifacts, Rid, RidConfig, RidError, RidResult};
use isomit_detectors::DetectorKind;
use isomit_diffusion::{
    par_estimate_infection_probabilities_wide, DiffusionError, InfectedNetwork, InfectionEstimate,
    Mfc, SeedSet,
};
use isomit_graph::json::{JsonError, Value};
use isomit_graph::SignedDigraph;
use isomit_telemetry::{names, Counter, Registry};
use std::sync::{Arc, Mutex};

/// Point-in-time engine counters, reported by the `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Total `rid` queries answered (including failed ones).
    pub rid_requests: u64,
    /// Total `simulate` queries answered (including failed ones).
    pub simulate_requests: u64,
    /// Artifact-cache lookups that hit.
    pub cache_hits: u64,
    /// Artifact-cache lookups that missed.
    pub cache_misses: u64,
    /// Artifact-cache entries evicted to make room.
    pub cache_evictions: u64,
    /// Artifact-cache entries removed because a newer snapshot of the
    /// same watch session superseded them (not counted as evictions).
    pub cache_superseded: u64,
    /// Artifact-cache entries currently resident.
    pub cache_entries: u64,
}

impl EngineStats {
    /// Fraction of cache lookups that hit, or `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Encodes the stats as a JSON object (includes the derived
    /// `cache_hit_rate`).
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            (
                "rid_requests".into(),
                Value::Number(self.rid_requests as f64),
            ),
            (
                "simulate_requests".into(),
                Value::Number(self.simulate_requests as f64),
            ),
            ("cache_hits".into(), Value::Number(self.cache_hits as f64)),
            (
                "cache_misses".into(),
                Value::Number(self.cache_misses as f64),
            ),
            (
                "cache_evictions".into(),
                Value::Number(self.cache_evictions as f64),
            ),
            (
                "cache_superseded".into(),
                Value::Number(self.cache_superseded as f64),
            ),
            (
                "cache_entries".into(),
                Value::Number(self.cache_entries as f64),
            ),
            ("cache_hit_rate".into(), Value::Number(self.hit_rate())),
        ])
    }

    /// Decodes stats from the encoding of
    /// [`to_json_value`](EngineStats::to_json_value).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let field = |key: &str| -> Result<u64, JsonError> {
            value
                .require(key)?
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("`{key}` must be a non-negative integer")))
        };
        Ok(EngineStats {
            rid_requests: field("rid_requests")?,
            simulate_requests: field("simulate_requests")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            cache_evictions: field("cache_evictions")?,
            cache_superseded: field("cache_superseded")?,
            cache_entries: field("cache_entries")?,
        })
    }
}

/// The most runs one [`RidEngine::simulate`] call accepts: 1,024 wide
/// batches of 64 lanes, enough to put the standard error of every
/// estimated probability at or below 0.002, and a bound on how long one
/// request can hold a shard worker. On the daemon benchmark's served
/// network (39.5k nodes, 3 initiators) a batch takes about 85 ms on a
/// 2-vCPU Xeon VM, so a request at the cap keeps both cores busy for
/// about 44 s.
pub const MAX_SIMULATE_RUNS: usize = 65_536;

/// Thread-safe, long-lived RID inference engine.
///
/// Construct once (loading the diffusion network), share behind an
/// [`Arc`], and call [`rid`](RidEngine::rid) /
/// [`simulate`](RidEngine::simulate) from any number of threads.
#[derive(Debug)]
pub struct RidEngine {
    graph: Arc<SignedDigraph>,
    model: Mfc,
    default_config: RidConfig,
    cache_capacity: usize,
    cache: Mutex<LruCache<(u64, u64), Arc<ForestArtifacts>>>,
    registry: Arc<Registry>,
    rid_requests: Counter,
    simulate_requests: Counter,
    cache_superseded: Counter,
}

impl RidEngine {
    /// Creates an engine over `graph` (edge weights are activation
    /// probabilities) with `default_config` as the detector used when a
    /// request carries no config, caching artifacts for up to
    /// `cache_capacity` distinct `(snapshot, alpha)` pairs. Metrics go
    /// into a fresh per-engine registry.
    ///
    /// # Errors
    ///
    /// Returns [`RidError::InvalidParameter`] if `default_config` fails
    /// [`Rid::from_config`] validation.
    pub fn new(
        graph: SignedDigraph,
        default_config: RidConfig,
        cache_capacity: usize,
    ) -> Result<Self, RidError> {
        Rid::from_config(default_config)?;
        let model = default_config.model()?;
        Ok(RidEngine::assemble(
            Arc::new(graph),
            model,
            default_config,
            cache_capacity,
            Arc::new(Registry::new()),
        ))
    }

    /// A sibling engine for one shard of the sharded server: shares the
    /// loaded network (an [`Arc`] clone, not a copy) but has its own
    /// artifact cache and records into its own `registry` — shards
    /// never contend on each other's cache lock, and per-shard counters
    /// stay attributable.
    pub fn shard_clone(&self, registry: Arc<Registry>) -> RidEngine {
        RidEngine::assemble(
            Arc::clone(&self.graph),
            self.model,
            self.default_config,
            self.cache_capacity,
            registry,
        )
    }

    /// An engine with an empty artifact cache whose request and cache
    /// metrics record into `registry` (under the `service.*` names).
    fn assemble(
        graph: Arc<SignedDigraph>,
        model: Mfc,
        default_config: RidConfig,
        cache_capacity: usize,
        registry: Arc<Registry>,
    ) -> RidEngine {
        RidEngine {
            graph,
            model,
            default_config,
            cache_capacity,
            cache: Mutex::new(LruCache::with_metrics(
                cache_capacity,
                CacheMetrics::registered(&registry),
            )),
            rid_requests: registry.counter(names::SERVICE_RID_REQUESTS),
            simulate_requests: registry.counter(names::SERVICE_SIMULATE_REQUESTS),
            cache_superseded: registry.counter(names::SERVICE_CACHE_SUPERSEDED),
            registry,
        }
    }

    /// The loaded diffusion network.
    pub fn graph(&self) -> &SignedDigraph {
        &self.graph
    }

    /// The registry this engine's metrics record into. The server hands
    /// it to the queue and request timers so one snapshot covers the
    /// whole serving path.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The detector config used when a request carries none.
    pub fn default_config(&self) -> RidConfig {
        self.default_config
    }

    fn cache_lock(&self) -> std::sync::MutexGuard<'_, LruCache<(u64, u64), Arc<ForestArtifacts>>> {
        // Cache operations cannot panic mid-update; recover from poison.
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Answers a `rid` query: detects initiators in `snapshot` with
    /// `detector` (default: the full RID framework) under `config` (or
    /// the engine default).
    ///
    /// `fingerprint` keys the artifact cache and must identify the
    /// snapshot's content: the server passes the hash it routed the
    /// request on, and library callers pass
    /// [`snapshot_fingerprint`]`(snapshot)`. The RID framework reuses
    /// cached forest artifacts when the same fingerprint was seen under
    /// the same `alpha`; other detectors run directly, as they have no
    /// reusable extraction stage worth caching.
    ///
    /// Two threads racing on the same cold snapshot may both extract;
    /// extraction is pure, so whichever insert lands last caches the
    /// same value and the answers are identical.
    ///
    /// # Errors
    ///
    /// Returns [`RidError::InvalidParameter`] for an invalid `config`.
    pub fn rid(
        &self,
        snapshot: &InfectedNetwork,
        fingerprint: u64,
        config: Option<RidConfig>,
        detector: Option<DetectorKind>,
    ) -> Result<RidResult, RidError> {
        self.rid_requests.inc();
        let config = config.unwrap_or(self.default_config);
        let kind = detector.unwrap_or(DetectorKind::Rid);
        if kind != DetectorKind::Rid {
            let detection = isomit_detectors::build(kind, &config)?.detect(snapshot);
            return Ok(RidResult { config, detection });
        }
        let rid = Rid::from_config(config)?;
        let key = (fingerprint, config.alpha.to_bits());
        let cached = self.cache_lock().get(&key);
        let artifacts = match cached {
            Some(artifacts) => artifacts,
            None => {
                // Extract outside the lock so a slow extraction never
                // stalls cache hits on other snapshots.
                let artifacts = Arc::new(rid.extract_stage(snapshot));
                self.cache_lock().insert(key, Arc::clone(&artifacts));
                artifacts
            }
        };
        let detection = rid.query_stage(snapshot, &artifacts)?;
        Ok(RidResult { config, detection })
    }

    /// Answers a `simulate` query: seeded parallel Monte-Carlo
    /// estimation of per-node infection probabilities on the loaded
    /// network under the engine's MFC model, using the 64-lane wide
    /// bitplane engine. Deterministic in `(seeds, runs, master_seed)`
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError`] for out-of-bounds or duplicate seeds,
    /// `runs == 0` or `runs` above [`MAX_SIMULATE_RUNS`].
    pub fn simulate(
        &self,
        seeds: &SeedSet,
        runs: usize,
        master_seed: u64,
    ) -> Result<InfectionEstimate, DiffusionError> {
        self.simulate_requests.inc();
        seeds.validate_against(&self.graph)?;
        if runs > MAX_SIMULATE_RUNS {
            return Err(DiffusionError::InvalidParameter {
                name: "runs",
                value: runs as f64,
                constraint: "must be at most 65536 (MAX_SIMULATE_RUNS)",
            });
        }
        par_estimate_infection_probabilities_wide(
            &self.model,
            &self.graph,
            seeds,
            runs,
            master_seed,
        )
    }

    /// Adopts forest artifacts computed outside the engine by
    /// [`Rid::extract_stage`] into the artifact cache, so a later `rid`
    /// query on the same snapshot is a warm hit. The key is
    /// [`snapshot_fingerprint`], which re-encodes the snapshot; the
    /// daemon does not call this (see the module docs).
    ///
    /// `previous` is the key returned by the caller's last adoption:
    /// the superseded entry is removed in the same lock acquisition
    /// (counted under `cache_superseded`, not as an eviction), so a
    /// caller that adopts each snapshot of a growing outbreak keeps at
    /// most one resident cache entry instead of crowding out unrelated
    /// snapshots. Returns the key the caller should pass back on its
    /// next adoption.
    pub fn adopt_artifacts(
        &self,
        snapshot: &InfectedNetwork,
        config: &RidConfig,
        artifacts: ForestArtifacts,
        previous: Option<(u64, u64)>,
    ) -> (u64, u64) {
        let key = (snapshot_fingerprint(snapshot), config.alpha.to_bits());
        let mut cache = self.cache_lock();
        if let Some(prev) = previous {
            if prev != key && cache.remove(&prev).is_some() {
                self.cache_superseded.inc();
            }
        }
        cache.insert(key, Arc::new(artifacts));
        key
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let cache = self.cache_lock();
        EngineStats {
            rid_requests: self.rid_requests.get(),
            simulate_requests: self.simulate_requests.get(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_superseded: self.cache_superseded.get(),
            cache_entries: cache.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, NodeId, NodeState, Sign};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `rid` keyed by the canonical fingerprint, as library callers key it.
    fn rid(
        engine: &RidEngine,
        snapshot: &InfectedNetwork,
        config: Option<RidConfig>,
    ) -> Result<RidResult, RidError> {
        engine.rid(snapshot, snapshot_fingerprint(snapshot), config, None)
    }

    fn engine(cache: usize) -> RidEngine {
        let mut rng = StdRng::seed_from_u64(5);
        let social = isomit_datasets::epinions_like_scaled(0.02, &mut rng);
        let graph = isomit_datasets::paper_weights(&social, &mut rng);
        RidEngine::new(graph, RidConfig::default(), cache).unwrap()
    }

    fn scenario_snapshot(seed: u64) -> InfectedNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let social = isomit_datasets::epinions_like_scaled(0.02, &mut rng);
        let scenario = isomit_datasets::build_scenario(
            &social,
            &isomit_datasets::ScenarioConfig::small(),
            &mut rng,
        );
        scenario.snapshot
    }

    #[test]
    fn detector_dispatch_default_and_rid_take_the_cached_path() {
        let engine = engine(8);
        let snapshot = scenario_snapshot(1);
        let fingerprint = snapshot_fingerprint(&snapshot);
        let defaulted = engine.rid(&snapshot, fingerprint, None, None).unwrap();
        let explicit = engine
            .rid(&snapshot, fingerprint, None, Some(DetectorKind::Rid))
            .unwrap();
        assert_eq!(defaulted, explicit);
        // Both went through the artifact cache.
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn detector_dispatch_runs_every_kind() {
        let engine = engine(8);
        let snapshot = scenario_snapshot(2);
        let fingerprint = snapshot_fingerprint(&snapshot);
        for kind in DetectorKind::ALL {
            let result = engine
                .rid(&snapshot, fingerprint, None, Some(kind))
                .unwrap();
            assert_eq!(result.config, engine.default_config());
            assert!(result.detection.component_count >= 1, "{kind:?}");
        }
        // Centrality detectors bypass the artifact cache.
        assert_eq!(engine.stats().rid_requests, 5);
        assert_eq!(engine.stats().cache_misses, 1);
    }

    #[test]
    fn cached_answer_is_bit_identical_to_cold() {
        let engine = engine(8);
        let snapshot = scenario_snapshot(1);
        let cold = rid(&engine, &snapshot, None).unwrap();
        let warm = rid(&engine, &snapshot, None).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(
            cold.detection.objective.to_bits(),
            warm.detection.objective.to_bits()
        );
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.rid_requests, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);

        // And identical to a fresh engine that never cached anything.
        let cold_engine = engine_no_cache();
        let reference = rid(&cold_engine, &snapshot, None).unwrap();
        assert_eq!(reference, warm);
    }

    fn engine_no_cache() -> RidEngine {
        let mut rng = StdRng::seed_from_u64(5);
        let social = isomit_datasets::epinions_like_scaled(0.02, &mut rng);
        let graph = isomit_datasets::paper_weights(&social, &mut rng);
        RidEngine::new(graph, RidConfig::default(), 0).unwrap()
    }

    #[test]
    fn beta_override_reuses_cached_artifacts() {
        let engine = engine(8);
        let snapshot = scenario_snapshot(2);
        rid(&engine, &snapshot, None).unwrap();
        let loose_config = RidConfig {
            beta: 0.0,
            ..RidConfig::default()
        };
        rid(&engine, &snapshot, Some(loose_config)).unwrap();
        let stats = engine.stats();
        // Same snapshot + same alpha: the beta override hits the cache.
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn alpha_override_is_a_distinct_cache_key() {
        let engine = engine(8);
        let snapshot = scenario_snapshot(3);
        rid(&engine, &snapshot, None).unwrap();
        let config = RidConfig {
            alpha: 2.0,
            ..RidConfig::default()
        };
        rid(&engine, &snapshot, Some(config)).unwrap();
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn eviction_keeps_answers_correct() {
        let engine = engine(1);
        let a = scenario_snapshot(4);
        let b = scenario_snapshot(5);
        let first_a = rid(&engine, &a, None).unwrap();
        rid(&engine, &b, None).unwrap(); // evicts a
        let again_a = rid(&engine, &a, None).unwrap(); // re-extracts
        assert_eq!(first_a, again_a);
        let stats = engine.stats();
        assert!(stats.cache_evictions >= 1);
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let engine = engine(4);
        let snapshot = scenario_snapshot(6);
        let bad = RidConfig {
            beta: -1.0,
            ..RidConfig::default()
        };
        assert!(rid(&engine, &snapshot, Some(bad)).is_err());
    }

    #[test]
    fn simulate_is_deterministic_and_validated() {
        let engine = engine(4);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let a = engine.simulate(&seeds, 64, 9).unwrap();
        let b = engine.simulate(&seeds, 64, 9).unwrap();
        assert_eq!(a, b);
        let out_of_bounds = SeedSet::single(NodeId(1_000_000), Sign::Positive);
        assert!(engine.simulate(&out_of_bounds, 8, 9).is_err());
        assert_eq!(engine.stats().simulate_requests, 3);
    }

    #[test]
    fn simulate_accepts_runs_up_to_the_cap_and_refuses_one_more() {
        let graph =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)])
                .unwrap();
        let engine = RidEngine::new(graph, RidConfig::default(), 1).unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let estimate = engine.simulate(&seeds, MAX_SIMULATE_RUNS, 3).unwrap();
        assert_eq!(estimate.runs(), MAX_SIMULATE_RUNS);
        let err = engine
            .simulate(&seeds, MAX_SIMULATE_RUNS + 1, 3)
            .unwrap_err();
        assert_eq!(
            err,
            DiffusionError::InvalidParameter {
                name: "runs",
                value: (MAX_SIMULATE_RUNS + 1) as f64,
                constraint: "must be at most 65536 (MAX_SIMULATE_RUNS)",
            }
        );
        assert!(
            err.to_string().contains(&MAX_SIMULATE_RUNS.to_string()),
            "{err}"
        );
    }

    #[test]
    fn watch_adoption_keeps_at_most_one_resident_session_entry() {
        let engine = engine(8);
        // Prewarm the cache with two unrelated snapshots.
        let a = scenario_snapshot(4);
        let b = scenario_snapshot(5);
        rid(&engine, &a, None).unwrap();
        rid(&engine, &b, None).unwrap();
        assert_eq!(engine.stats().cache_entries, 2);

        // A growing outbreak adopts one snapshot after another; each
        // adoption supersedes the previous session entry in place.
        let config = engine.default_config();
        let mut previous = None;
        for seed in 10..18 {
            let snapshot = scenario_snapshot(seed);
            let rid = Rid::from_config(config).unwrap();
            let artifacts = rid.extract_stage(&snapshot);
            previous = Some(engine.adopt_artifacts(&snapshot, &config, artifacts, previous));
        }
        let stats = engine.stats();
        assert_eq!(stats.cache_entries, 3, "two prewarmed + one session entry");
        assert_eq!(stats.cache_superseded, 7);
        assert_eq!(stats.cache_evictions, 0, "supersession displaced nothing");

        // The prewarmed snapshots were never crowded out.
        let hits_before = engine.stats().cache_hits;
        rid(&engine, &a, None).unwrap();
        rid(&engine, &b, None).unwrap();
        assert_eq!(engine.stats().cache_hits, hits_before + 2);
    }

    #[test]
    fn adopted_artifacts_make_the_final_snapshot_a_warm_hit() {
        use isomit_core::{IncrementalRid, RidDelta};

        let engine = engine(8);
        let config = engine.default_config();
        let mut session = IncrementalRid::new(config).unwrap();
        for i in 0..6u32 {
            session
                .apply(&RidDelta::Infect {
                    node: NodeId(i),
                    state: NodeState::Positive,
                })
                .unwrap();
        }
        for i in 0..5u32 {
            session
                .apply(&RidDelta::AddEdge {
                    src: NodeId(i),
                    dst: NodeId(i + 1),
                    sign: Sign::Positive,
                    weight: 0.8,
                })
                .unwrap();
        }
        let answer = session.answer();
        let snapshot = session.snapshot();
        let artifacts = Rid::from_config(config).unwrap().extract_stage(&snapshot);
        engine.adopt_artifacts(&snapshot, &config, artifacts, None);

        let misses_before = engine.stats().cache_misses;
        let served = rid(&engine, &snapshot, None).unwrap();
        assert_eq!(served, answer);
        assert_eq!(
            engine.stats().cache_misses,
            misses_before,
            "adopted artifacts made the rid query a warm hit"
        );
    }

    #[test]
    fn shard_clones_share_the_network_but_not_the_cache() {
        let engine = engine(4);
        let shard = engine.shard_clone(Arc::new(Registry::new()));
        let snapshot = scenario_snapshot(9);
        let a = rid(&engine, &snapshot, None).unwrap();
        let b = rid(&shard, &snapshot, None).unwrap();
        assert_eq!(a, b, "shards answer bit-identically");
        assert_eq!(engine.stats().cache_misses, 1);
        assert_eq!(shard.stats().cache_misses, 1, "caches are independent");
        assert_eq!(engine.stats().rid_requests, 1);
        assert_eq!(shard.stats().rid_requests, 1, "counters are per-shard");
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        assert_eq!(
            engine.simulate(&seeds, 32, 11).unwrap(),
            shard.simulate(&seeds, 32, 11).unwrap(),
            "the shared network serves both shards"
        );
    }

    #[test]
    fn stats_round_trip_json() {
        let engine = engine(4);
        rid(&engine, &scenario_snapshot(7), None).unwrap();
        let stats = engine.stats();
        let back = EngineStats::from_json_value(&stats.to_json_value()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn engine_registry_mirrors_stats() {
        let engine = engine(4);
        let snapshot = scenario_snapshot(8);
        rid(&engine, &snapshot, None).unwrap();
        rid(&engine, &snapshot, None).unwrap();
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter(names::SERVICE_RID_REQUESTS), Some(2));
        assert_eq!(snap.counter(names::SERVICE_CACHE_HITS), Some(1));
        assert_eq!(snap.counter(names::SERVICE_CACHE_MISSES), Some(1));
    }

    #[test]
    fn engine_answers_hand_built_snapshot() {
        // Snapshots are self-contained: the engine answers even for a
        // snapshot not derived from its loaded network.
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.9),
                Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.9),
            ],
        )
        .unwrap();
        let snapshot = InfectedNetwork::from_parts(
            g,
            vec![
                NodeState::Positive,
                NodeState::Positive,
                NodeState::Negative,
            ],
        );
        let result = rid(&engine(2), &snapshot, None).unwrap();
        assert!(!result.detection.initiators.is_empty());
    }
}
