//! Counters, gauges, and log2-bucket histograms.
//!
//! An observed rank thread records into the [`MetricsSnapshot`] its
//! observer owns (no lock, no cross-rank contention); the job server
//! records into a [`MetricsRegistry`]. Snapshots are plain data that
//! merge commutatively, so rank snapshots combine into one run-level
//! view.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Summary of one gauge: last set value plus min/max/sum/count of all
/// sets, so merged snapshots keep distributional information.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    pub last: f64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub count: u64,
}

impl GaugeStat {
    fn observe(&mut self, v: f64) {
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    fn merge(&mut self, other: &GaugeStat) {
        self.last = other.last; // arbitrary but deterministic: later snapshot wins
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count += other.count;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `floor(log2(v)) == i` (bucket 0 also holds 0); the last bucket is a
/// catch-all for huge values.
pub const HIST_BUCKETS: usize = 40;

/// Fixed-size log2 histogram of non-negative integer observations
/// (bytes, degrees, message sizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper edge of bucket `i`: the largest value it can hold (bucket 0
    /// holds `{0, 1}`, bucket `i >= 1` holds `[2^i, 2^(i+1))`; the last
    /// bucket is a catch-all).
    pub fn bucket_upper_edge(i: usize) -> u64 {
        if i >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) by walking the cumulative
    /// bucket counts and reporting the upper edge of the bucket the
    /// quantile lands in — a deterministic factor-of-two upper bound,
    /// which is the right direction for imbalance reporting (never
    /// understates the tail). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_upper_edge(i);
            }
        }
        Self::bucket_upper_edge(HIST_BUCKETS - 1)
    }

    /// The (p50, p95, p99) triple reported in run artifacts.
    pub fn quantile_summary(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
        )
    }
}

/// Counters, gauges and histograms by name: what a rank records into
/// while observed, and what a [`MetricsRegistry`] guards. Merges
/// commutatively (except each gauge's `last`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeStat>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|g| g.merge(v))
                .or_insert(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .and_modify(|h| h.merge(v))
                .or_insert_with(|| v.clone());
        }
    }

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => g.observe(value),
            None => {
                self.gauges.insert(
                    name.to_string(),
                    GaugeStat {
                        last: value,
                        min: value,
                        max: value,
                        sum: value,
                        count: 1,
                    },
                );
            }
        }
    }

    pub fn hist_observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::default();
                h.observe(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The job server's metrics registry: a snapshot behind a `Mutex`, so
/// request threads can record into one shared view.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        self.inner.lock().unwrap().counter_add(name, delta);
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner.lock().unwrap().gauge_set(name, value);
    }

    pub fn hist_observe(&self, name: &str, value: u64) {
        self.inner.lock().unwrap().hist_observe(name, value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().unwrap().clone()
    }
}

// ---------------------------------------------------------------------------
// Thread-local helpers (record into the installed rank's record)
// ---------------------------------------------------------------------------

/// Add to a named counter on the current rank's record. No-op when
/// tracing is disabled or no observer is installed.
pub fn counter_add(name: &str, delta: u64) {
    if crate::enabled() {
        crate::span::with_observer(|o| o.record.metrics.counter_add(name, delta));
    }
}

/// Set a named gauge on the current rank's record.
pub fn gauge_set(name: &str, value: f64) {
    if crate::enabled() {
        crate::span::with_observer(|o| o.record.metrics.gauge_set(name, value));
    }
}

/// Process peak resident set (`VmHWM` from `/proc/self/status`), in
/// bytes; 0 where unavailable (non-Linux, or a restricted procfs).
/// The `mem.peak_rss_bytes` gauge, the RSS-bound test and the bench
/// ladder all read this one number.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter_add("moves", 3);
        r.counter_add("moves", 4);
        r.counter_add("edges", 10);
        let s = r.snapshot();
        assert_eq!(s.counter("moves"), 7);
        assert_eq!(s.counter("edges"), 10);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn gauges_track_min_max_mean() {
        let r = MetricsRegistry::new();
        for v in [2.0, 8.0, 5.0] {
            r.gauge_set("q", v);
        }
        let g = r.snapshot().gauges["q"];
        assert_eq!(g.last, 5.0);
        assert_eq!(g.min, 2.0);
        assert_eq!(g.max, 8.0);
        assert_eq!(g.count, 3);
        assert!((g.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let r = MetricsRegistry::new();
        for v in [1u64, 2, 3, 1024] {
            r.hist_observe("bytes", v);
        }
        let h = &r.snapshot().histograms["bytes"];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
    }

    #[test]
    fn percentiles_walk_cumulative_buckets() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        let r = MetricsRegistry::new();
        // 98 small values in bucket 0, one in bucket 4, one in bucket 10.
        for _ in 0..98 {
            r.hist_observe("v", 1);
        }
        r.hist_observe("v", 20);
        r.hist_observe("v", 1024);
        let h = &r.snapshot().histograms["v"];
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(h.percentile(0.98), 1);
        assert_eq!(h.percentile(0.99), Histogram::bucket_upper_edge(4));
        assert_eq!(h.percentile(1.0), Histogram::bucket_upper_edge(10));
        assert_eq!(
            h.quantile_summary(),
            (1, 1, Histogram::bucket_upper_edge(4))
        );
        assert_eq!(Histogram::bucket_upper_edge(0), 1);
        assert_eq!(Histogram::bucket_upper_edge(4), 31);
        assert_eq!(Histogram::bucket_upper_edge(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: every quantile is 0 and the summary is all zeros.
        let empty = Histogram::default();
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(q), 0);
        }
        assert_eq!(empty.quantile_summary(), (0, 0, 0));

        // Single sample: every quantile is that sample's bucket edge.
        let mut one = Histogram::default();
        one.observe(100); // bucket 6, upper edge 127
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(q), 127);
        }
        assert_eq!(one.quantile_summary(), (127, 127, 127));

        // All observations in one bucket: p50 == p99 == that edge,
        // regardless of count.
        let mut flat = Histogram::default();
        for _ in 0..1000 {
            flat.observe(5); // bucket 2, upper edge 7
        }
        assert_eq!(flat.quantile_summary(), (7, 7, 7));
        assert_eq!(flat.percentile(1e-9_f64.max(0.001)), 7);

        // Zero-valued observations land in bucket 0 (edge 1), and the
        // catch-all bucket reports u64::MAX.
        let mut zeros = Histogram::default();
        zeros.observe(0);
        assert_eq!(zeros.percentile(0.5), 1);
        let mut huge = Histogram::default();
        huge.observe(u64::MAX);
        assert_eq!(huge.percentile(0.5), u64::MAX);
    }

    #[test]
    fn snapshots_merge_commutatively() {
        let a = {
            let r = MetricsRegistry::new();
            r.counter_add("moves", 5);
            r.gauge_set("q", 0.4);
            r.hist_observe("bytes", 16);
            r.snapshot()
        };
        let b = {
            let r = MetricsRegistry::new();
            r.counter_add("moves", 7);
            r.counter_add("ghost_hits", 2);
            r.gauge_set("q", 0.6);
            r.hist_observe("bytes", 64);
            r.snapshot()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter("moves"), 12);
        assert_eq!(ab.counter("ghost_hits"), 2);
        assert_eq!(ab.gauges["q"].min, 0.4);
        assert_eq!(ab.gauges["q"].max, 0.6);
        assert_eq!(ab.histograms["bytes"].count, 2);
        // Order-independent except `last`, which takes the merged-in value.
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.histograms, ba.histograms);
        assert_eq!(ab.gauges["q"].sum, ba.gauges["q"].sum);
    }
}
