//! Memory growth of an in-memory detection, in its own test binary:
//! `VmHWM` is a process-wide high-water mark, so sharing a binary with
//! tests that build graphs concurrently would poison the measurement.

use distributed_louvain::dist::{run_distributed, DistConfig};
use distributed_louvain::graph::gen::{rmat, RmatParams};

/// Peak-RSS growth a p=1 detection may add per arc of the resident
/// graph. A rank borrows its rows from the caller's `Csr`, and its ghost
/// layer borrows the rows' `u32` destinations as its targets, so what
/// grows is the sweep state and the rebuild's buffers: 11.7 B per arc
/// measured, 15.6 B when the layer copied the targets. A per-rank copy
/// of the rows adds 12 B per arc on top and reaches this bound
/// (EXPERIMENTS.md has the measurements).
const MAX_GROWTH_BYTES_PER_ARC: f64 = 24.0;

/// Current resident set (`VmRSS`), in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<u64>().ok())
        .expect("VmRSS line in /proc/self/status");
    kib * 1024
}

#[test]
fn p1_detection_does_not_copy_the_resident_arcs() {
    let g = rmat(RmatParams::social(16, 10, 5)).graph;
    // Writing 5 resets VmHWM to the current RSS, so the peak read after
    // the run is the detection's own.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("skipped: cannot reset VmHWM through /proc/self/clear_refs: {e}");
        return;
    }
    let before = rss_bytes();
    let cfg = DistConfig {
        max_iterations: 3,
        ..DistConfig::baseline()
    };
    let out = run_distributed(&g, 1, &cfg);
    let peak = louvain_obs::peak_rss_bytes();
    assert_eq!(out.assignment.len(), g.num_vertices());
    let per_arc = peak.saturating_sub(before) as f64 / g.num_arcs() as f64;
    eprintln!(
        "{} arcs: RSS {before} B before, peak {peak} B, growth {per_arc:.1} B/arc",
        g.num_arcs()
    );
    assert!(
        per_arc < MAX_GROWTH_BYTES_PER_ARC,
        "detection grew the peak RSS by {per_arc:.1} B per arc (bound {MAX_GROWTH_BYTES_PER_ARC})"
    );
}
