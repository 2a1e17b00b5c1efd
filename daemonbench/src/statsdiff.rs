//! Diffing the daemon's `stats` replies around a timed phase.
//!
//! The `stats` verb returns cumulative counters and histograms (count
//! and nanosecond sum), merged over the process-global registry and
//! every shard. Subtracting a snapshot taken before the timed phase
//! from one taken after it gives exact counts and exact mean durations
//! for the phase alone.

use isomit_graph::json::Value;
use isomit_telemetry::RegistrySnapshot;

/// One parsed `stats` reply.
#[derive(Debug, Clone)]
pub struct StatsSample {
    /// Shard count the daemon reports.
    pub shards: u64,
    /// The merged telemetry registry.
    pub telemetry: RegistrySnapshot,
}

impl StatsSample {
    /// Parses the `result` object of a `stats` reply.
    pub fn from_result(result: &Value) -> Result<StatsSample, String> {
        let shards = result
            .get("shards")
            .and_then(Value::as_u64)
            .ok_or("stats reply has no `shards`")?;
        let telemetry = result
            .get("telemetry")
            .ok_or("stats reply has no `telemetry`")?;
        let telemetry = RegistrySnapshot::from_json_value(telemetry)
            .map_err(|e| format!("stats telemetry: {e}"))?;
        Ok(StatsSample { shards, telemetry })
    }
}

/// Count and nanosecond sum a histogram gained between two samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistDelta {
    /// Observations recorded.
    pub count: u64,
    /// Sum of the recorded values.
    pub sum: u64,
}

impl HistDelta {
    /// Mean recorded value, or 0 without observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The change between a `before` and an `after` sample.
#[derive(Debug, Clone)]
pub struct StatsDiff {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl StatsDiff {
    /// Pairs two samples of the same daemon, `before` taken first.
    pub fn new(before: &StatsSample, after: &StatsSample) -> StatsDiff {
        StatsDiff {
            before: before.telemetry.clone(),
            after: after.telemetry.clone(),
        }
    }

    /// How much a counter grew; a counter absent before counts from 0.
    ///
    /// # Panics
    ///
    /// Panics if the counter shrank: counters are monotone, so that
    /// means the two samples came from different daemons.
    pub fn counter(&self, name: &str) -> u64 {
        let before = self.before.counter(name).unwrap_or(0);
        let after = self.after.counter(name).unwrap_or(0);
        after
            .checked_sub(before)
            .unwrap_or_else(|| panic!("counter {name} went backwards ({before} -> {after})"))
    }

    /// What a histogram gained.
    ///
    /// # Panics
    ///
    /// Panics if its count or sum shrank.
    pub fn histogram(&self, name: &str) -> HistDelta {
        let read = |snap: &RegistrySnapshot| {
            snap.histogram(name)
                .map_or((0, 0), |h| (h.count(), h.sum()))
        };
        let (count0, sum0) = read(&self.before);
        let (count1, sum1) = read(&self.after);
        HistDelta {
            count: count1
                .checked_sub(count0)
                .unwrap_or_else(|| panic!("histogram {name} lost observations")),
            sum: sum1
                .checked_sub(sum0)
                .unwrap_or_else(|| panic!("histogram {name} sum went backwards")),
        }
    }

    /// A gauge's value in the later sample (gauges are levels, not
    /// totals, so they are not differenced).
    pub fn gauge_after(&self, name: &str) -> i64 {
        self.after.gauge(name).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_telemetry::Registry;

    fn sample(registry: &Registry) -> StatsSample {
        let reply = Value::Object(vec![
            ("rid_requests".into(), Value::Number(0.0)),
            ("shards".into(), Value::Number(4.0)),
            ("telemetry".into(), registry.snapshot().to_json_value()),
        ]);
        // Round-trip through the wire encoding, as a real reply does.
        StatsSample::from_result(&Value::parse(&reply.to_json()).unwrap()).unwrap()
    }

    #[test]
    fn diff_counts_only_what_happened_between_the_samples() {
        let registry = Registry::new();
        registry.counter("service.cache.hits").add(5);
        registry.histogram("service.request_ns").record(1_000);
        registry.gauge("service.shard_imbalance_pct").set(40);
        let before = sample(&registry);
        assert_eq!(before.shards, 4);

        registry.counter("service.cache.hits").add(3);
        registry.counter("mc.wide.batches").add(2);
        for ns in [2_000, 4_000, 6_000] {
            registry.histogram("service.request_ns").record(ns);
        }
        registry.gauge("service.shard_imbalance_pct").set(12);
        let after = sample(&registry);

        let diff = StatsDiff::new(&before, &after);
        assert_eq!(diff.counter("service.cache.hits"), 3);
        assert_eq!(
            diff.counter("mc.wide.batches"),
            2,
            "new counter counts from 0"
        );
        assert_eq!(diff.counter("never.recorded"), 0);
        let request = diff.histogram("service.request_ns");
        assert_eq!(
            request,
            HistDelta {
                count: 3,
                sum: 12_000
            }
        );
        assert_eq!(request.mean(), 4_000.0);
        assert_eq!(diff.histogram("never.recorded").mean(), 0.0);
        assert_eq!(diff.gauge_after("service.shard_imbalance_pct"), 12);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn samples_from_different_daemons_are_rejected() {
        let busy = Registry::new();
        busy.counter("service.cache.hits").add(9);
        let fresh = Registry::new();
        fresh.counter("service.cache.hits").add(1);
        StatsDiff::new(&sample(&busy), &sample(&fresh)).counter("service.cache.hits");
    }

    #[test]
    fn replies_without_telemetry_are_errors() {
        let reply = Value::Object(vec![("shards".into(), Value::Number(4.0))]);
        assert!(StatsSample::from_result(&reply).is_err());
    }
}
