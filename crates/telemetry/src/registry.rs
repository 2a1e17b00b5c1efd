//! The named-metric [`Registry`] and its serializable snapshot.
//!
//! A registry hands out get-or-create handles keyed by a dotted metric
//! name (`service.request_ns`). Handles stay valid forever: they are
//! cheap clones over shared atomics, so hot paths look a metric up once
//! and cache the handle. A registry built with [`Registry::disabled`]
//! (or switched off via [`Registry::set_enabled`]) turns every recording
//! into a single relaxed load — telemetry can be left compiled in
//! everywhere without a measurable cost.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge};
use isomit_graph::json::{JsonError, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A set of named counters, gauges and histograms.
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry: recordings are kept.
    pub fn new() -> Registry {
        Registry::with_enabled(true)
    }

    /// A disabled registry: every handle it creates drops recordings at
    /// the cost of one relaxed atomic load (no clock reads for spans).
    pub fn disabled() -> Registry {
        Registry::with_enabled(false)
    }

    fn with_enabled(on: bool) -> Registry {
        Registry {
            enabled: Arc::new(AtomicBool::new(on)),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether recordings are currently kept. The flag is shared with
    /// every handle this registry has created.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips recording on or off for the registry and all its handles,
    /// including ones already handed out.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned metrics map only means another thread panicked while
        // registering; the map itself is always structurally valid.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get-or-create the counter `name`. If `name` already names a metric
    /// of a different kind, a *detached* counter is returned instead of
    /// panicking: recordings into it are real but invisible to snapshots,
    /// and the kind conflict shows up in tests via the snapshot.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::with_flag(Arc::clone(&self.enabled))))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::with_flag(Arc::clone(&self.enabled)),
        }
    }

    /// Get-or-create the gauge `name` (kind conflicts: see
    /// [`counter`](Registry::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::with_flag(Arc::clone(&self.enabled))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::with_flag(Arc::clone(&self.enabled)),
        }
    }

    /// Get-or-create the histogram `name` (kind conflicts: see
    /// [`counter`](Registry::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::with_flag(Arc::clone(&self.enabled))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::with_flag(Arc::clone(&self.enabled)),
        }
    }

    /// Registers the existing `counter` handle under `name` as well, so
    /// one underlying atomic shows up in snapshots under two names.
    ///
    /// The sharded service uses this to expose one physical counter both
    /// under its shard-local name (`shard.3.cache.hits`) and — via the
    /// shared-name summation of [`RegistrySnapshot::merge`] — under the
    /// fleet-wide aggregate (`service.cache.hits`). If `name` is already
    /// taken the alias is dropped (first registration wins, mirroring
    /// the kind-conflict policy of [`counter`](Registry::counter)).
    pub fn alias_counter(&self, name: &str, counter: &Counter) {
        self.lock()
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(counter.clone()));
    }

    /// Registers the existing `gauge` handle under `name` as well
    /// (see [`alias_counter`](Registry::alias_counter)).
    pub fn alias_gauge(&self, name: &str, gauge: &Gauge) {
        self.lock()
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(gauge.clone()));
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.lock();
        let mut snap = RegistrySnapshot::empty();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// An immutable, serializable view of a [`Registry`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// A snapshot with no metrics.
    pub fn empty() -> RegistrySnapshot {
        RegistrySnapshot::default()
    }

    /// `true` when no metric is present at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Combines two snapshots (e.g. the process-global registry and a
    /// per-engine registry). Counters and histogram buckets sum on name
    /// collision; for gauges — instantaneous values with no meaningful
    /// sum — `other` wins. In practice the namespaces are disjoint.
    pub fn merge(&self, other: &RegistrySnapshot) -> RegistrySnapshot {
        let mut out = self.clone();
        for (name, &v) in &other.counters {
            let slot = out.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for (name, &v) in &other.gauges {
            out.gauges.insert(name.clone(), v);
        }
        for (name, h) in &other.histograms {
            let merged = match out.histograms.get(name) {
                Some(mine) => mine.merge(h),
                None => h.clone(),
            };
            out.histograms.insert(name.clone(), merged);
        }
        out
    }

    /// Wire form:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// histograms in the [`HistogramSnapshot::to_json_value`] layout.
    /// Keys appear in sorted order (BTreeMap iteration), so the output
    /// is byte-stable for a given snapshot.
    pub fn to_json_value(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json_value()))
            .collect();
        Value::Object(vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("gauges".to_owned(), Value::Object(gauges)),
            ("histograms".to_owned(), Value::Object(histograms)),
        ])
    }

    /// Serializes to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes the [`to_json_value`](RegistrySnapshot::to_json_value)
    /// form. Missing sections decode as empty.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on a structurally invalid payload.
    pub fn from_json_value(value: &Value) -> Result<RegistrySnapshot, JsonError> {
        fn fields<'v>(value: &'v Value, key: &str) -> Result<&'v [(String, Value)], JsonError> {
            match value.get(key) {
                None => Ok(&[]),
                Some(Value::Object(fields)) => Ok(fields),
                Some(_) => Err(JsonError::new(format!("`{key}` must be an object"))),
            }
        }
        let mut snap = RegistrySnapshot::empty();
        for (name, v) in fields(value, "counters")? {
            let v = v
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("counter `{name}` must be a u64")))?;
            snap.counters.insert(name.clone(), v);
        }
        for (name, v) in fields(value, "gauges")? {
            let v = v
                .as_f64()
                .ok_or_else(|| JsonError::new(format!("gauge `{name}` must be a number")))?;
            snap.gauges.insert(name.clone(), v as i64);
        }
        for (name, v) in fields(value, "histograms")? {
            snap.histograms
                .insert(name.clone(), HistogramSnapshot::from_json_value(v)?);
        }
        Ok(snap)
    }

    /// Parses a snapshot from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or layout.
    pub fn from_json_str(text: &str) -> Result<RegistrySnapshot, JsonError> {
        RegistrySnapshot::from_json_value(&Value::parse(text)?)
    }

    /// Human-readable rendering: one metric per line, sorted by name.
    /// Histograms render as `p50/p95/p99 (n=…)`; metrics whose name ends
    /// in `_ns` are formatted as durations.
    pub fn pretty(&self) -> String {
        let mut lines: BTreeMap<&str, String> = BTreeMap::new();
        for (name, &v) in &self.counters {
            lines.insert(name, v.to_string());
        }
        for (name, &v) in &self.gauges {
            lines.insert(name, v.to_string());
        }
        for (name, h) in &self.histograms {
            let rendered = match (h.p50(), h.p95(), h.p99()) {
                (Some(p50), Some(p95), Some(p99)) => format!(
                    "p50={} p95={} p99={} (n={})",
                    format_metric_value(name, p50),
                    format_metric_value(name, p95),
                    format_metric_value(name, p99),
                    h.count()
                ),
                _ => "(no recordings)".to_owned(),
            };
            lines.insert(name, rendered);
        }
        let mut out = String::new();
        for (name, rendered) in lines {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(&rendered);
            out.push('\n');
        }
        out
    }
}

/// Renders `value` for humans: durations for `*_ns` metrics, plain
/// integers otherwise.
fn format_metric_value(name: &str, value: u64) -> String {
    if name.ends_with("_ns") {
        format_nanos(value)
    } else {
        value.to_string()
    }
}

/// `1234` → `"1.23us"`, `5_000_000_000` → `"5.00s"`, etc.
fn format_nanos(ns: u64) -> String {
    const SCALES: [(f64, &str); 3] = [(1e9, "s"), (1e6, "ms"), (1e3, "us")];
    let v = ns as f64;
    for (scale, unit) in SCALES {
        if v >= scale {
            return format!("{:.2}{unit}", v / scale);
        }
    }
    format!("{ns}ns")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.snapshot().counter("a"), Some(3));
    }

    #[test]
    fn aliases_share_storage_with_their_source_handle() {
        let r = Registry::new();
        let hits = r.counter("service.cache.hits");
        r.alias_counter("shard.0.cache.hits", &hits);
        hits.add(4);
        let depth = r.gauge("service.queue_depth");
        r.alias_gauge("shard.0.queue_depth", &depth);
        depth.set(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("service.cache.hits"), Some(4));
        assert_eq!(snap.counter("shard.0.cache.hits"), Some(4));
        assert_eq!(snap.gauge("shard.0.queue_depth"), Some(3));
        // An occupied name keeps its first registration.
        let other = Counter::new();
        other.add(99);
        r.alias_counter("service.cache.hits", &other);
        assert_eq!(r.snapshot().counter("service.cache.hits"), Some(4));
    }

    #[test]
    fn kind_conflict_returns_detached_handle() {
        let r = Registry::new();
        r.counter("x").inc();
        let g = r.gauge("x"); // wrong kind: detached
        g.set(99);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.gauge("x"), None);
    }

    #[test]
    fn disabled_registry_drops_everything() {
        let r = Registry::disabled();
        r.counter("c").inc();
        r.gauge("g").set(5);
        r.histogram("h").record(10);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(0));
        assert_eq!(snap.gauge("g"), Some(0));
        assert!(snap.histogram("h").is_some_and(HistogramSnapshot::is_empty));
        // Re-enabling reaches handles created while disabled.
        let c = r.counter("c");
        r.set_enabled(true);
        c.inc();
        assert_eq!(r.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn snapshot_json_round_trip() {
        let r = Registry::new();
        r.counter("service.cache.hits").add(7);
        r.gauge("service.queue_depth").set(-2);
        r.histogram("service.request_ns").record(1500);
        let snap = r.snapshot();
        let back = RegistrySnapshot::from_json_str(&snap.to_json_string()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("c").add(2);
        b.counter("c").add(3);
        b.counter("only_b").inc();
        a.histogram("h").record(4);
        b.histogram("h").record(4);
        a.gauge("g").set(1);
        b.gauge("g").set(9);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.counter("c"), Some(5));
        assert_eq!(merged.counter("only_b"), Some(1));
        assert_eq!(merged.histogram("h").map(HistogramSnapshot::count), Some(2));
        assert_eq!(merged.gauge("g"), Some(9));
    }

    #[test]
    fn pretty_renders_one_line_per_metric() {
        let r = Registry::new();
        r.counter("service.cache.hits").add(12);
        let h = r.histogram("service.request_ns");
        for _ in 0..10 {
            h.record(2_000_000);
        }
        r.histogram("idle_ns"); // registered, never recorded
        let text = r.snapshot().pretty();
        assert!(text.contains("service.cache.hits: 12\n"), "{text}");
        assert!(text.contains("service.request_ns: p50="), "{text}");
        assert!(text.contains("(n=10)"), "{text}");
        assert!(text.contains("ms"), "durations humanized: {text}");
        assert!(text.contains("idle_ns: (no recordings)\n"), "{text}");
    }

    #[test]
    fn format_nanos_scales() {
        assert_eq!(format_nanos(999), "999ns");
        assert_eq!(format_nanos(1500), "1.50us");
        assert_eq!(format_nanos(2_500_000), "2.50ms");
        assert_eq!(format_nanos(3_000_000_000), "3.00s");
    }
}
