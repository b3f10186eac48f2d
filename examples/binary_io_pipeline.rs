//! The paper's full input pipeline: convert a graph to the on-disk
//! format once, have every rank read only its own byte ranges of the
//! file (standing in for MPI I/O) at edge-balanced boundaries ("no
//! clever graph partitioning"), and run distributed Louvain on the
//! result.
//!
//! ```sh
//! cargo run --release --example binary_io_pipeline
//! ```

use distributed_louvain::graph::gen::weblike_stream;
use distributed_louvain::prelude::*;
use distributed_louvain::store::{load_rank, SlabBuilder, SlabOptions};

fn main() {
    let dir = std::env::temp_dir().join("louvain-binary-io-example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("web.slab");

    // 1. Stream a generated web graph straight into a slab: no edge list
    //    is ever resident.
    let n = 10_000;
    let mut builder = SlabBuilder::new(n, SlabOptions::default());
    weblike_stream(WeblikeParams::web(n, 3), &mut builder).unwrap();
    let summary = builder.finish(&path).unwrap();
    println!(
        "wrote {} ({} vertices, {} edges, {} KiB)",
        path.display(),
        summary.num_vertices,
        summary.num_edges,
        summary.file_bytes / 1024
    );

    // 2. What each rank reads: its own windows of the file, found from
    //    the sampled offsets without reading the whole offsets section.
    let p = 4;
    for rank in 0..p {
        let slice = load_rank(&path, rank, p).unwrap();
        println!(
            "rank {rank} read {} KiB for {} vertices and {} arcs",
            slice.bytes_read / 1024,
            slice.local.num_local(),
            slice.local.num_local_arcs()
        );
    }

    // 3. The same per-rank byte-range loads inside a distributed run.
    let cfg = DistConfig::baseline();
    let out = run_distributed_source(
        GraphSource::SlabRanged(&path),
        p,
        &cfg,
        RunConfig::default(),
    )
    .unwrap();
    let g = weblike(WeblikeParams::web(n, 3)).graph;
    let q_check = distributed_louvain::graph::modularity(&g, &out.assignment);
    println!(
        "distributed Louvain from file: Q = {:.4} (recomputed {:.4}), {} phases",
        out.modularity, q_check, out.phases
    );

    std::fs::remove_file(&path).ok();
}
