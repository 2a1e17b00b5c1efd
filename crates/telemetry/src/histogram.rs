//! Log2-bucketed histograms for latency-style measurements.
//!
//! A [`Histogram`] has 64 fixed buckets: bucket 0 holds the values
//! `{0, 1}` and bucket `i` (for `i >= 1`) holds `[2^i, 2^(i+1))`, so a
//! recorded value lands in the bucket of its floor-log2. Bucket math is
//! branch-light and allocation-free; recording is one atomic add on the
//! bucket plus one on the running sum. Percentiles are extracted from a
//! [`HistogramSnapshot`] by nearest-rank over the cumulative bucket
//! counts, reporting the *upper bound* of the selected bucket — an
//! overestimate by at most 2x, monotone in the quantile by construction.

use crate::metrics::relaxed_load;
use isomit_graph::json::{JsonError, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of buckets in every histogram: one per power of two of `u64`.
pub const BUCKET_COUNT: usize = 64;

/// The bucket a value lands in: 0 for `{0, 1}`, otherwise `floor(log2 v)`.
pub fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        (63 - value.leading_zeros()) as usize
    }
}

/// Smallest value contained in bucket `index` (saturates on overflow).
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= BUCKET_COUNT {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// Largest value contained in bucket `index` (saturates on overflow).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= BUCKET_COUNT - 1 {
        u64::MAX
    } else {
        (2u64 << index) - 1
    }
}

#[derive(Debug)]
struct HistogramCore {
    enabled: Arc<AtomicBool>,
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
}

/// A concurrent log2 histogram handle. Clones share the same storage, so
/// a handle can be cached in a `static` or passed across threads freely.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A detached, always-enabled histogram (not tied to any registry).
    pub fn new() -> Histogram {
        Histogram::with_flag(Arc::new(AtomicBool::new(true)))
    }

    /// A histogram gated on a shared enabled flag (used by the registry
    /// so `Registry::set_enabled` reaches every handed-out handle).
    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Histogram {
        Histogram {
            core: Arc::new(HistogramCore {
                enabled,
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Whether recordings are currently kept.
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Relaxed)
    }

    /// Records one value. A disabled histogram drops it: no atomics run.
    pub fn record(&self, value: u64) {
        if !self.is_enabled() {
            return;
        }
        if let Some(bucket) = self.core.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a scoped timer that records its elapsed nanoseconds into
    /// this histogram when dropped. When the histogram is disabled the
    /// span never reads the clock, making it a near-no-op.
    #[must_use = "the span records on drop; binding it to `_` drops it immediately"]
    pub fn span(&self) -> SpanTimer {
        SpanTimer {
            histogram: self.clone(),
            start: if self.is_enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// A point-in-time copy of the bucket counts and running sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.core.buckets.iter().map(relaxed_load).collect(),
            sum: self.core.sum.load(Ordering::Relaxed),
        }
    }
}

/// A scoped timer: measures from construction to drop and records the
/// elapsed nanoseconds into its [`Histogram`]. Obtain via
/// [`Histogram::span`].
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Stops the timer now, recording the measurement. Equivalent to
    /// dropping it, but reads as intent at call sites.
    pub fn stop(self) {}

    /// Abandons the span without recording anything.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

/// A free-standing monotonic timer for deadline math and manual
/// measurements that are recorded conditionally (where [`SpanTimer`]'s
/// record-on-drop is wrong). Keeps raw clock reads inside the telemetry
/// layer: callers never touch [`Instant`] directly.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Immutable bucket counts + sum captured from a [`Histogram`]; the unit
/// of percentile extraction, merging, and JSON serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per bucket; always `BUCKET_COUNT` long.
    buckets: Vec<u64>,
    /// Sum of all recorded values (saturating).
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recordings.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            sum: 0,
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The count in one bucket (0 for out-of-range indices).
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets.get(index).copied().unwrap_or(0)
    }

    /// Nearest-rank quantile, reported as the upper bound of the bucket
    /// containing the rank-th smallest recording. `None` when empty.
    /// `q` is clamped into `[0, 1]`; the result is monotone in `q`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            if cumulative >= rank {
                return Some(bucket_upper_bound(index));
            }
        }
        None
    }

    /// Median (see [`quantile`](HistogramSnapshot::quantile)).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Element-wise sum of two snapshots: identical to one histogram
    /// having recorded both value streams (the property tests pin this).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
            sum: self.sum.saturating_add(other.sum),
        }
    }

    /// Wire form: `{"count": C, "sum": S, "buckets": [[index, count], …]}`
    /// with only non-zero buckets listed. `count` is redundant (it is the
    /// sum of bucket counts) but convenient for `jq`-style consumers.
    pub fn to_json_value(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Array(vec![Value::Number(i as f64), Value::Number(c as f64)]))
            .collect();
        Value::Object(vec![
            ("count".to_owned(), Value::Number(self.count() as f64)),
            ("sum".to_owned(), Value::Number(self.sum as f64)),
            ("buckets".to_owned(), Value::Array(buckets)),
        ])
    }

    /// Decodes the [`to_json_value`](HistogramSnapshot::to_json_value)
    /// form. The redundant `count` field is ignored; counts are read from
    /// `buckets`. Sums beyond 2^53 lose precision on the wire (f64) and
    /// are saturated, never rejected.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on a structurally invalid payload.
    pub fn from_json_value(value: &Value) -> Result<HistogramSnapshot, JsonError> {
        let sum_f = value
            .require("sum")?
            .as_f64()
            .ok_or_else(|| JsonError::new("histogram `sum` must be a number"))?;
        let sum = if sum_f.is_finite() && sum_f > 0.0 {
            if sum_f >= u64::MAX as f64 {
                u64::MAX
            } else {
                sum_f as u64
            }
        } else {
            0
        };
        let mut buckets = vec![0u64; BUCKET_COUNT];
        let pairs = value
            .require("buckets")?
            .as_array()
            .ok_or_else(|| JsonError::new("histogram `buckets` must be an array"))?;
        for pair in pairs {
            let items = pair
                .as_array()
                .ok_or_else(|| JsonError::new("histogram bucket must be [index, count]"))?;
            let (Some(index), Some(count)) = (
                items.first().and_then(Value::as_usize),
                items.get(1).and_then(Value::as_u64),
            ) else {
                return Err(JsonError::new("histogram bucket must be [index, count]"));
            };
            let slot = buckets.get_mut(index).ok_or_else(|| {
                JsonError::new(format!("histogram bucket index {index} out of range"))
            })?;
            *slot = count;
        }
        Ok(HistogramSnapshot { buckets, sum })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..BUCKET_COUNT {
            assert!(bucket_lower_bound(i) <= bucket_upper_bound(i));
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_lower_bound(1), 2);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1106);
        // Median rank 3 → value 3 → bucket 1 → upper bound 3.
        assert_eq!(s.p50(), Some(3));
        // p99 rank 5 → value 1000 → bucket 9 → upper bound 1023.
        assert_eq!(s.p99(), Some(1023));
        assert_eq!(s.quantile(0.0), Some(1));
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), None);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let flag = Arc::new(AtomicBool::new(false));
        let h = Histogram::with_flag(Arc::clone(&flag));
        h.record(42);
        {
            let _span = h.span();
        }
        assert!(h.snapshot().is_empty());
        flag.store(true, Ordering::Relaxed);
        h.record(42);
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn span_records_on_drop_and_cancel_does_not() {
        let h = Histogram::new();
        h.span().stop();
        h.span().cancel();
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn json_round_trip() {
        let h = Histogram::new();
        for v in [0u64, 7, 7, 9000] {
            h.record(v);
        }
        let s = h.snapshot();
        let back = HistogramSnapshot::from_json_value(&s.to_json_value()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn merge_is_elementwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(500);
        b.record(500);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 1001);
        assert_eq!(merged.bucket_count(bucket_index(500)), 2);
    }
}
