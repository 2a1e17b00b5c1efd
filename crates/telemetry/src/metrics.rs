//! Scalar metrics: monotone [`Counter`]s and signed [`Gauge`]s.
//!
//! Handles are cheap clones over shared atomic storage; all operations
//! use relaxed ordering (metrics are independent observations, not a
//! synchronization mechanism). Mutations are gated on a shared enabled
//! flag so a disabled registry reduces every update to one relaxed load.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Relaxed load helper shared by the snapshot paths.
pub(crate) fn relaxed_load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl Counter {
    /// A detached, always-enabled counter (not tied to any registry).
    pub fn new() -> Counter {
        Counter::with_flag(Arc::new(AtomicBool::new(true)))
    }

    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
            enabled,
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating; dropped while disabled).
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, in-flight requests, …).
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A detached, always-enabled gauge (not tied to any registry).
    pub fn new() -> Gauge {
        Gauge::with_flag(Arc::new(AtomicBool::new(true)))
    }

    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Gauge {
        Gauge {
            value: Arc::new(AtomicI64::new(0)),
            enabled,
        }
    }

    /// Overwrites the value (dropped while disabled).
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta`, which may be negative (dropped while disabled).
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raises the value to `v` when `v` is larger, for a high-water mark
    /// (dropped while disabled).
    pub fn set_max(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6, "clones share storage");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set_max(5);
        assert_eq!(g.get(), 7, "a lower value leaves the high-water mark");
        g.set_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn disabled_scalars_drop_updates() {
        let flag = Arc::new(AtomicBool::new(false));
        let c = Counter::with_flag(Arc::clone(&flag));
        let g = Gauge::with_flag(Arc::clone(&flag));
        c.inc();
        g.set(9);
        g.set_max(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        flag.store(true, Ordering::Relaxed);
        c.inc();
        g.set(9);
        assert_eq!((c.get(), g.get()), (1, 9));
    }
}
