//! Memory ceiling of the streamed slab ingest, in its own test binary:
//! `VmHWM` is a process-wide high-water mark, so sharing a binary with
//! tests that materialize graphs in RAM would poison the measurement.

use distributed_louvain::graph::gen::{rmat_stream, RmatParams};
use distributed_louvain::store::{SlabBuilder, SlabOptions};

/// Stream-generate a >=1M-edge RMAT graph straight into a slab and
/// assert the process peak RSS stays well below what materializing the
/// edge list would cost. The builder spills raw triples to disk and
/// keeps one row block resident (here at most 64k raw arcs, about
/// 40 B × 64k = 2.5 MiB) plus O(n) per-vertex arrays; an in-memory build
/// holds every raw triple (24 B each) plus the CSR arrays, several times
/// the raw-triple footprint.
#[test]
fn million_edge_streamed_ingest_is_rss_bounded() {
    let dir = std::env::temp_dir().join(format!("louvain-rss-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rmat_s17.slab");

    let opts = SlabOptions {
        chunk_edges: 1 << 16,
        ..SlabOptions::default()
    };
    let mut b = SlabBuilder::new(1u64 << 17, opts);
    rmat_stream(RmatParams::social(17, 10, 5), &mut b).unwrap();
    let summary = b.finish(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        summary.num_edges >= 1_000_000,
        "graph too small for the claim: {} edges",
        summary.num_edges
    );
    // Raw-triple floor of an in-memory build (EdgeList buffers every
    // accepted edge at 24 bytes before dedup).
    let materialized_floor = summary.edges_in * 24;
    let peak = louvain_obs::peak_rss_bytes();
    assert!(peak > 0, "peak RSS unavailable on this platform");
    assert!(
        peak < materialized_floor,
        "streamed ingest peaked at {peak} B RSS — not below the {materialized_floor} B \
         raw-triple floor of a materialized edge list ({} edges in)",
        summary.edges_in
    );
}
