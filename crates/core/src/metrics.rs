//! Process-wide registry of named counters and gauges.
//!
//! Instrumented code holds a cheap cloneable handle ([`Counter`],
//! [`Gauge`]) and updates it with relaxed atomics — the registry mutex
//! is touched only on first lookup, never on the hot path. Metric names
//! are dotted paths namespaced by layer (`core.scaling.events`,
//! `spr.moves.accepted`, `forkjoin.worker.3.sites`, `micsim.reports`),
//! which unifies the counters the paper's evaluation cares about across
//! `core`, `parallel`, `search`, and `micsim` in one [`snapshot`].
//!
//! Unlike spans, metrics are always compiled in: a relaxed
//! `fetch_add` on an owned cache line is far below measurement noise
//! for every site instrumented here (all are per-call or colder, never
//! per-site).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    ///
    /// A counter that wrapped would silently report nonsense, while a
    /// pinned `u64::MAX` is unambiguous. The correction is a second
    /// relaxed store, so a concurrent `add` racing the saturation point may
    /// briefly observe the wrapped value — acceptable for
    /// observability counters, and the counter still settles at MAX.
    #[inline]
    pub fn add(&self, n: u64) {
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (non-negative).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Entry {
    Counter(Counter),
    Gauge(Gauge),
}

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Entry>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        // A kind-mismatch panic (below) can poison the mutex, but the
        // map itself is always left structurally consistent.
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Returns (registering on first use) the counter named `name`.
///
/// Panics if `name` is already registered as a different metric kind —
/// that is a programming error, not a runtime condition.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Entry::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Entry::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns (registering on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Entry::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
    {
        Entry::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
}

/// One named metric captured by [`snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Registered dotted name.
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// Captures every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSample> {
    let reg = registry();
    reg.iter()
        .map(|(name, entry)| MetricSample {
            name: name.clone(),
            value: match entry {
                Entry::Counter(c) => MetricValue::Counter(c.get()),
                Entry::Gauge(g) => MetricValue::Gauge(g.get()),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // A second lookup shares the same cell.
        assert_eq!(counter("test.metrics.counter").get(), 5);

        let g = gauge("test.metrics.gauge");
        g.set(17);
        g.set(3);
        assert_eq!(gauge("test.metrics.gauge").get(), 3);
    }

    #[test]
    fn snapshot_lists_metrics_sorted() {
        counter("test.snap.b").inc();
        counter("test.snap.a").add(2);
        let snap = snapshot();
        let names: Vec<_> = snap
            .iter()
            .filter(|s| s.name.starts_with("test.snap."))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["test.snap.a", "test.snap.b"]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        counter("test.metrics.mismatch");
        gauge("test.metrics.mismatch");
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = counter("test.metrics.saturate");
        c.add(u64::MAX - 1);
        c.add(10); // would wrap to 8
        assert_eq!(c.get(), u64::MAX);
        c.inc(); // stays pinned
        assert_eq!(c.get(), u64::MAX);
        // Exact fill without overflow is untouched.
        let c2 = counter("test.metrics.saturate.exact");
        c2.add(u64::MAX);
        assert_eq!(c2.get(), u64::MAX);
    }
}
