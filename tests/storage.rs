//! Out-of-core storage end-to-end: the three [`GraphSource`] loading
//! modes must be indistinguishable by results.
//!
//! The matrix covers p∈{1,2,8} × {SSCA2, RMAT, LFR} × {baseline delta,
//! colored t4 sweep}, comparing community assignment and modularity
//! bits across the in-memory scatter, the shared mmap, and the per-rank
//! byte-range loads; at p=2 the traced arm additionally compares the
//! per-iteration telemetry rows and checks that slab-backed runs record
//! the `mem.mapped_bytes` gauge the in-memory run does not, and that
//! `mem.csr_bytes` leaves out the rows a mapped run borrows.

use std::path::{Path, PathBuf};

use distributed_louvain::comm::RunConfig;
use distributed_louvain::dist::{
    build_run_report, run_distributed_resilient_source, DistConfig, DistOutcome, GraphSource,
    ReportMeta, ResilOptions, SweepMode, Variant,
};
use distributed_louvain::graph::gen::{
    lfr, lfr_stream, rmat, rmat_stream, ssca2, ssca2_stream, LfrParams, RmatParams, Ssca2Params,
};
use distributed_louvain::graph::{Csr, EdgeSink};
use distributed_louvain::store::{Slab, SlabBuilder, SlabOptions};

/// One directory per test: tests of this binary run concurrently and
/// each removes its directory when done.
fn tmp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("louvain-storage-e2e-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build the in-memory CSR and the slab from the *same* generator edge
/// stream, so any divergence below is the loader's fault, not the
/// generator's.
fn build_pair(
    name: &str,
    dir: &Path,
    gen_csr: Csr,
    stream: impl FnOnce(&mut SlabBuilder),
) -> (Csr, PathBuf) {
    let path = dir.join(format!("{name}.slab"));
    let mut b = SlabBuilder::new(gen_csr.num_vertices() as u64, SlabOptions::default());
    stream(&mut b);
    b.finish(&path).unwrap();
    (gen_csr, path)
}

fn run_src(src: GraphSource<'_>, p: usize, cfg: &DistConfig) -> DistOutcome {
    run_distributed_resilient_source(src, p, cfg, RunConfig::default(), &ResilOptions::none())
        .expect("source run")
}

#[test]
fn all_three_load_paths_are_bit_identical_across_the_matrix() {
    let dir = tmp_dir("matrix");
    let graphs: Vec<(&str, Csr, PathBuf)> = vec![
        {
            let p = Ssca2Params::paper(800, 9);
            let (g, path) = build_pair("ssca2", &dir, ssca2(p).graph, |b| {
                ssca2_stream(p, b).unwrap();
            });
            ("ssca2", g, path)
        },
        {
            let p = RmatParams::social(10, 8, 5);
            let (g, path) = build_pair("rmat", &dir, rmat(p).graph, |b| {
                rmat_stream(p, b).unwrap();
            });
            ("rmat", g, path)
        },
        {
            let p = LfrParams::small(600, 7);
            let (g, path) = build_pair("lfr", &dir, lfr(p).graph, |b| {
                lfr_stream(p, b).unwrap();
            });
            ("lfr", g, path)
        },
    ];

    let arms: Vec<(&str, DistConfig)> = vec![
        (
            "delta",
            DistConfig {
                delta_ghost_refresh: true,
                ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
            },
        ),
        (
            "colored-t4",
            DistConfig {
                delta_ghost_refresh: true,
                sweep: SweepMode::Colored,
                threads_per_rank: 4,
                ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
            },
        ),
    ];

    for (name, g, path) in &graphs {
        let slab = Slab::open(path).unwrap();
        assert_eq!(
            &slab.to_csr(),
            g,
            "{name}: slab round-trip must reproduce the in-memory CSR"
        );
        for (arm, cfg) in &arms {
            for p in [1usize, 2, 8] {
                let mem = run_src(GraphSource::Memory(g), p, cfg);
                let mapped = run_src(GraphSource::SlabMapped(&slab), p, cfg);
                let ranged = run_src(GraphSource::SlabRanged(path), p, cfg);
                for (mode, out) in [("mapped", &mapped), ("ranged", &ranged)] {
                    assert_eq!(
                        mem.assignment, out.assignment,
                        "{name}/{arm} p={p}: {mode} assignment diverged from memory"
                    );
                    assert_eq!(
                        mem.modularity.to_bits(),
                        out.modularity.to_bits(),
                        "{name}/{arm} p={p}: {mode} modularity diverged from memory"
                    );
                    assert_eq!(
                        (mem.phases, mem.total_iterations),
                        (out.phases, out.total_iterations),
                        "{name}/{arm} p={p}: {mode} trajectory diverged from memory"
                    );
                }
            }
        }
    }

    // Traced p=2 pass on one graph: telemetry rows must match across the
    // load paths, slab runs must carry the mem.mapped_bytes gauge (the
    // in-memory run must not), and every run must record peak RSS.
    let (name, g, path) = &graphs[0];
    let slab = Slab::open(path).unwrap();
    let cfg = &arms[0].1;
    louvain_obs::set_enabled(true);
    let mem = run_src(GraphSource::Memory(g), 2, cfg);
    let mapped = run_src(GraphSource::SlabMapped(&slab), 2, cfg);
    let ranged = run_src(GraphSource::SlabRanged(path), 2, cfg);
    louvain_obs::set_enabled(false);

    let telemetry = |out: &DistOutcome| {
        out.trace
            .as_ref()
            .expect("traced run carries a trace")
            .merged_telemetry()
    };
    assert!(!telemetry(&mem).is_empty(), "{name}: telemetry missing");
    assert_eq!(
        telemetry(&mem),
        telemetry(&mapped),
        "{name}: mapped telemetry diverged"
    );
    assert_eq!(
        telemetry(&mem),
        telemetry(&ranged),
        "{name}: ranged telemetry diverged"
    );

    let meta = ReportMeta::new(*name, g.num_vertices() as u64, g.num_edges() as u64);
    let report = |out: &DistOutcome| build_run_report(out, &meta);
    let mem_report = report(&mem);
    assert!(
        !mem_report.metrics.gauges.contains_key("mem.mapped_bytes"),
        "{name}: in-memory run must not report mapped bytes"
    );
    for (mode, out) in [("mapped", &mapped), ("ranged", &ranged)] {
        let r = report(out);
        let gauge = r
            .metrics
            .gauges
            .get("mem.mapped_bytes")
            .unwrap_or_else(|| panic!("{name}: {mode} run must record mem.mapped_bytes"));
        assert!(gauge.sum > 0.0, "{name}: {mode} mapped bytes gauge empty");
        assert!(
            r.metrics.gauges.get("mem.peak_rss_bytes").map(|x| x.max) > Some(0.0),
            "{name}: {mode} run must record peak RSS"
        );
    }
    // `mem.csr_bytes` is each rank's (n + p) offsets, plus a `u32` dest
    // and an `f64` weight per arc unless those are mapped pages, which
    // `mem.mapped_bytes` already counts.
    let offsets = (g.num_vertices() + 2) * 8;
    let rows = g.num_arcs() * 12;
    for (mode, out, want) in [
        ("memory", &mem, offsets + rows),
        ("mapped", &mapped, offsets),
        ("ranged", &ranged, offsets + rows),
    ] {
        let csr = report(out).metrics.gauges["mem.csr_bytes"];
        assert_eq!(
            (csr.count, csr.sum),
            (2, want as f64),
            "{name}: {mode} csr bytes"
        );
    }
    // The shared mapping charges each rank the whole file; byte-range
    // loading reads strictly less than 2x the file per rank pair.
    let mapped_sum = report(&mapped).metrics.gauges["mem.mapped_bytes"].sum;
    let ranged_sum = report(&ranged).metrics.gauges["mem.mapped_bytes"].sum;
    assert!(
        ranged_sum < mapped_sum,
        "{name}: ranged loads ({ranged_sum}) should touch fewer bytes than 2 whole mappings ({mapped_sum})"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Edge streams fed through the generic [`EdgeSink`] trait object reach
/// the slab identically to direct calls (the CLI wires sinks through
/// generics; this guards the trait path itself).
#[test]
fn sink_trait_object_and_direct_calls_build_identical_slabs() {
    let dir = tmp_dir("sink");
    let p = RmatParams::social(8, 4, 3);
    let direct = dir.join("direct.slab");
    let via_dyn = dir.join("dyn.slab");

    let mut b = SlabBuilder::new(1 << 8, SlabOptions::default());
    rmat_stream(p, &mut b).unwrap();
    b.finish(&direct).unwrap();

    let mut b = SlabBuilder::new(1 << 8, SlabOptions::default());
    {
        let sink: &mut dyn EdgeSink = &mut b;
        struct Fwd<'a>(&'a mut dyn EdgeSink);
        impl EdgeSink for Fwd<'_> {
            fn edge(
                &mut self,
                u: u64,
                v: u64,
                w: f64,
            ) -> Result<(), distributed_louvain::graph::IngestError> {
                self.0.edge(u, v, w)
            }
        }
        let mut fwd = Fwd(sink);
        rmat_stream(p, &mut fwd).unwrap();
    }
    b.finish(&via_dyn).unwrap();

    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&via_dyn).unwrap(),
        "slab bytes must not depend on how the sink was dispatched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The matrix's three load paths at a million edges: RMAT scale 18
/// (≈1.9M edges) at p=2 under `louvain run`'s defaults, assignment and
/// modularity bits compared. Too slow for a debug build, so it is
/// ignored by default; `scripts/scale_smoke.sh` runs it with
/// `cargo test --release --test storage -- --ignored`.
#[test]
#[ignore]
fn million_edge_load_paths_are_bit_identical() {
    let dir = tmp_dir("million");
    let params = RmatParams::social(18, 8, 5);
    let (g, path) = build_pair("rmat_s18", &dir, rmat(params).graph, |b| {
        rmat_stream(params, b).unwrap();
    });
    assert!(g.num_edges() >= 1_000_000, "{} edges", g.num_edges());
    let slab = Slab::open(&path).unwrap();
    let cfg = DistConfig::with_variant(Variant::Baseline);
    let mem = run_src(GraphSource::Memory(&g), 2, &cfg);
    let mapped = run_src(GraphSource::SlabMapped(&slab), 2, &cfg);
    let ranged = run_src(GraphSource::SlabRanged(&path), 2, &cfg);
    for (mode, out) in [("mapped", &mapped), ("ranged", &ranged)] {
        assert_eq!(mem.assignment, out.assignment, "{mode} assignment");
        assert_eq!(
            mem.modularity.to_bits(),
            out.modularity.to_bits(),
            "{mode} modularity"
        );
    }
    println!(
        "rmat scale 18: {} vertices, {} edges, Q = {:.6} on all three load paths",
        g.num_vertices(),
        g.num_edges(),
        mem.modularity
    );
    drop(slab);
    std::fs::remove_dir_all(&dir).unwrap();
}
