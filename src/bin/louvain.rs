//! `louvain` — command-line driver for the distributed Louvain library.
//!
//! ```text
//! louvain generate --kind lfr --n 10000 --seed 1 --out g.slab
//! louvain info g.slab
//! louvain run g.slab --ranks 8 --variant etc:0.25 --assignment out.comm
//! louvain quality --truth g.slab.truth --detected out.comm
//! ```
//!
//! Graphs are slabs (`louvain_store`), the one on-disk format: `generate`
//! streams into one, `ingest` builds one from a text edge list, and `run`
//! and `info` read nothing else. Assignments and ground truth are plain
//! text, one community id per line, line number = vertex id.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use distributed_louvain::cli::Args;
use distributed_louvain::comm::{FaultPlan, HealthConfig, RunConfig};
use distributed_louvain::dist::{
    adjusted_rand_index, f_score, nmi, run_distributed_resilient_source, CheckpointOptions,
    DistConfig, GraphSource, ResilOptions, SweepMode, Variant,
};
use distributed_louvain::graph::{gen, metrics, textio, IngestError, IngestPolicy, VertexId};
use distributed_louvain::store::{self, FileKind, Slab, SlabBuilder, SlabOptions, SlabSummary};
use distributed_louvain::{dist, obs};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("quality") => cmd_quality(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
louvain — distributed Louvain community detection (IPDPS 2018 reproduction)

USAGE:
  louvain generate --kind <KIND> --n <N> [--seed <S>] --out <SLAB>
                   [--chunk-edges <C>] [--index-stride <S>]
      KIND: lfr | ssca2 | rmat | weblike | grid3d | erdos-renyi |
            watts-strogatz | barabasi-albert
      extra: --mu <F> (lfr), --avg-degree <F> (erdos-renyi)
      Streams the generator into <SLAB>, a versioned, checksummed
      on-disk CSR: peak memory stays O(n + chunk) no matter how many
      edges are emitted. When the generator plants communities it also
      writes <SLAB>.truth (one community id per line). --chunk-edges
      sets the raw arcs per row block.

  louvain ingest <TEXT-FILE> --out <SLAB> [--repair | --strict]
                 [--chunk-edges <C>] [--index-stride <S>]
      Builds a slab from a text edge list (`src dst [weight]` per line,
      # or % comments, SNAP-style), remapping sparse ids densely and
      streaming in two passes with bounded memory: edges are spilled
      raw, then counting-sorted into CSR rows one row block at a time,
      so graphs far larger than RAM ingest cleanly. The resulting CSR is
      bit-identical to loading the same edges in memory.
      NaN/negative/overflowing weights are always rejected with the
      offending line number. --strict also rejects duplicate edges and
      self-loops; --repair merges duplicates (summing weights) and drops
      self-loops, printing what changed.

  louvain info <SLAB>
      Validates every section checksum, then prints the slab's header,
      degree statistics (and clustering up to 200 000 vertices) and
      section layout.

  louvain run <SLAB> [--ranged]
              [--ranks <P>] [--variant <V>] [--threads-per-rank <T>]
              [--sweep <auto|colored>]
              [--tau <F>] [--assignment <OUT>]
              [--trace-out <TRACE>] [--artifact-out <ARTIFACT>]
              [--checkpoint-dir <DIR>] [--resume]
              [--fault-plan <SPEC>] [--max-recoveries <N>]
              [--comm-timeout-ms <MS>] [--max-retries <N>]
      V: baseline | cycling | et:<alpha> | etc:<alpha> | et+cycling:<alpha>
      Runs distributed Louvain on P simulated ranks, prints the summary,
      optionally writes the community assignment to <OUT>.
      <SLAB> is memory-mapped once and every rank reads its own rows
      in place from the mapping; with --ranged each rank
      instead reads only its own byte ranges from the file (the paper's
      MPI-I/O pattern) — nothing is ever fully resident. Both paths are
      bit-identical to running the in-memory graph.
      --sweep picks the per-rank sweep schedule: `auto` (sequential at one
      thread, colored conflict-free batches otherwise) or `colored` (the
      colored schedule at any thread count). Both are deterministic; the
      colored one gives bit-identical results at every T.
      --trace-out enables tracing and writes a Chrome trace-event JSON
      (load in Perfetto / chrome://tracing; one process track per rank).
      --artifact-out writes a versioned RunArtifact JSON, the schema
      `lens` consumes: the aggregated RunReport (per-step byte totals,
      per-(rank, phase) wall profile, metrics, span rollup) plus
      per-iteration convergence telemetry. Implies tracing, like
      --trace-out.
      --checkpoint-dir writes a checkpoint at every phase boundary;
      --resume restarts from the newest complete checkpoint in that
      directory. A run killed mid-flight and resumed produces
      bit-identical results to an uninterrupted run.
      --fault-plan injects deterministic rank faults, e.g.
      `seed=7;stall:rank=0,ms=80,prob=0.05;crash:rank=1,phase=2,op=0`
      (kinds: stall[,ms=MS] | hang | crash; hang/crash need rank=,
      optional phase=/op=). Message faults (drop, delay, duplicate,
      truncate, flaky-burst, corrupt-payload) are refused: MPI delivers
      every message reliably and in order. Crashes and watchdog-declared
      hangs are absorbed by restarting from the newest checkpoint, up
      to --max-recoveries times (default 8).
      --comm-timeout-ms sets the watchdog deadline per blocked wait
      (default 30000); a rank whose heartbeat stays silent through
      --max-retries more deadlines (default 3) is declared hung.

  louvain quality --truth <FILE> --detected <FILE>
      Precision/recall/F-score (methodology of the paper's §V-D), NMI and
      adjusted Rand index between two assignment files.
";

/// A parsed `--kind` plus its parameters.
enum GenSpec {
    Lfr(gen::LfrParams),
    Ssca2(gen::Ssca2Params),
    Rmat(gen::RmatParams),
    Weblike(gen::WeblikeParams),
    Grid3d(gen::Grid3dParams),
    ErdosRenyi(gen::ErdosRenyiParams),
    WattsStrogatz(gen::WattsStrogatzParams),
    BarabasiAlbert(gen::BarabasiAlbertParams),
}

impl GenSpec {
    fn parse(kind: &str, opts: &Args) -> Result<Self, String> {
        let n: u64 = opts.parse("--n")?.unwrap_or(10_000);
        let seed: u64 = opts.parse("--seed")?.unwrap_or(1);
        Ok(match kind {
            "lfr" => {
                let mu: f64 = opts.parse("--mu")?.unwrap_or(0.1);
                GenSpec::Lfr(gen::LfrParams {
                    mu,
                    ..gen::LfrParams::small(n, seed)
                })
            }
            "ssca2" => GenSpec::Ssca2(gen::Ssca2Params::paper(n, seed)),
            "rmat" => {
                let scale = (63 - n.max(2).leading_zeros() as u64) as u32;
                GenSpec::Rmat(gen::RmatParams::social(scale, 8, seed))
            }
            "weblike" => GenSpec::Weblike(gen::WeblikeParams::web(n, seed)),
            "grid3d" => GenSpec::Grid3d(gen::Grid3dParams::cube(n, seed)),
            "erdos-renyi" => {
                let d: f64 = opts.parse("--avg-degree")?.unwrap_or(8.0);
                GenSpec::ErdosRenyi(gen::ErdosRenyiParams {
                    n,
                    avg_degree: d,
                    seed,
                })
            }
            "watts-strogatz" => GenSpec::WattsStrogatz(gen::WattsStrogatzParams {
                n,
                k: 4,
                beta: 0.1,
                seed,
            }),
            "barabasi-albert" => {
                GenSpec::BarabasiAlbert(gen::BarabasiAlbertParams { n, m: 4, seed })
            }
            other => return Err(format!("unknown generator kind `{other}`")),
        })
    }

    /// Vertex count of the stream this spec will emit — what sizes the
    /// slab builder before the first edge exists.
    fn num_vertices(&self) -> u64 {
        match self {
            GenSpec::Lfr(p) => p.n,
            GenSpec::Ssca2(p) => p.n,
            GenSpec::Rmat(p) => 1 << p.scale,
            GenSpec::Weblike(p) => p.n,
            GenSpec::Grid3d(p) => p.nx * p.ny * p.nz,
            GenSpec::ErdosRenyi(p) => p.n,
            GenSpec::WattsStrogatz(p) => p.n,
            GenSpec::BarabasiAlbert(p) => p.n,
        }
    }

    /// Feed the generator's streamed path into `sink`, returning any
    /// planted ground truth.
    fn stream<S: distributed_louvain::graph::EdgeSink>(
        self,
        sink: &mut S,
    ) -> Result<Option<Vec<VertexId>>, IngestError> {
        Ok(match self {
            GenSpec::Lfr(p) => Some(gen::lfr_stream(p, sink)?),
            GenSpec::Ssca2(p) => Some(gen::ssca2_stream(p, sink)?),
            GenSpec::Weblike(p) => Some(gen::weblike_stream(p, sink)?),
            GenSpec::Rmat(p) => {
                gen::rmat_stream(p, sink)?;
                None
            }
            GenSpec::Grid3d(p) => {
                gen::grid3d_stream(p, sink)?;
                None
            }
            GenSpec::ErdosRenyi(p) => {
                gen::erdos_renyi_stream(p, sink)?;
                None
            }
            GenSpec::WattsStrogatz(p) => {
                gen::watts_strogatz_stream(p, sink)?;
                None
            }
            GenSpec::BarabasiAlbert(p) => {
                gen::barabasi_albert_stream(p, sink)?;
                None
            }
        })
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let values = [
        "--kind",
        "--n",
        "--seed",
        "--out",
        "--mu",
        "--avg-degree",
        "--chunk-edges",
        "--index-stride",
    ];
    let opts = Args::scan(args, &values, &[])?;
    let kind = opts.require("--kind")?;
    let out = PathBuf::from(opts.require("--out")?);
    let spec = GenSpec::parse(kind, &opts)?;
    let sopts = slab_options(&opts, IngestPolicy::Lenient)?;
    let mut b = SlabBuilder::new(spec.num_vertices(), sopts);
    let truth = spec
        .stream(&mut b)
        .map_err(|e| format!("generating {kind}: {e}"))?;
    let summary = b
        .finish(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} vertices, {} edges, {} arcs, {} bytes; slab)",
        out.display(),
        summary.num_vertices,
        summary.num_edges,
        summary.num_arcs,
        summary.file_bytes
    );
    if let Some(truth) = truth {
        let truth_path = truth_sibling(&out);
        write_assignment(&truth_path, &truth)?;
        println!("wrote {} (ground truth)", truth_path.display());
    }
    Ok(())
}

/// Shared `--repair` / `--strict` handling.
fn parse_policy(opts: &Args) -> Result<IngestPolicy, String> {
    if opts.has("--repair") && opts.has("--strict") {
        return Err("--repair and --strict are mutually exclusive".into());
    }
    Ok(if opts.has("--repair") {
        IngestPolicy::Repair
    } else if opts.has("--strict") {
        IngestPolicy::Strict
    } else {
        IngestPolicy::Lenient
    })
}

/// Slab-builder tuning from CLI flags.
fn slab_options(opts: &Args, policy: IngestPolicy) -> Result<SlabOptions, String> {
    let defaults = SlabOptions::default();
    Ok(SlabOptions {
        policy,
        chunk_edges: opts.parse("--chunk-edges")?.unwrap_or(defaults.chunk_edges),
        index_stride: (opts.parse("--index-stride")?).unwrap_or(defaults.index_stride),
        ..defaults
    })
}

/// What `path` holds, by file magic. The retired binary edge list is
/// an error naming it.
fn sniff_kind(path: &Path) -> Result<FileKind, String> {
    store::sniff_kind(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Refuse anything but a slab, saying how to make one.
fn require_slab(path: &Path) -> Result<(), String> {
    match sniff_kind(path)? {
        FileKind::Slab => Ok(()),
        FileKind::Text => Err(format!(
            "{} is not a slab: build one from a text edge list with `louvain ingest`, \
             or with `louvain generate`",
            path.display()
        )),
    }
}

fn print_slab_summary(input: &Path, out: &Path, s: &SlabSummary) {
    println!(
        "ingested {} -> {} ({} vertices, {} edges, {} arcs, {} raw edges in, {} bytes)",
        input.display(),
        out.display(),
        s.num_vertices,
        s.num_edges,
        s.num_arcs,
        s.edges_in,
        s.file_bytes
    );
    if s.repair.any() {
        println!(
            "repaired: {} duplicate edges merged, {} self-loops dropped",
            s.repair.duplicates_merged, s.repair.self_loops_dropped
        );
    }
}

fn cmd_ingest(args: &[String]) -> Result<(), String> {
    let values = ["--out", "--chunk-edges", "--index-stride"];
    let opts = Args::scan(args, &values, &["--repair", "--strict"])?;
    let input = PathBuf::from(opts.sole_positional("input file")?);
    let out = PathBuf::from(opts.require("--out")?);
    let policy = parse_policy(&opts)?;
    let sopts = slab_options(&opts, policy)?;
    if sniff_kind(&input)? == FileKind::Slab {
        return Err(format!("{} is already a slab", input.display()));
    }
    let (b, _original_ids) = textio::stream_text_edge_list(&input, |n| SlabBuilder::new(n, sopts))
        .map_err(|e| format!("{}: {e}", input.display()))?;
    let summary = b
        .finish(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    print_slab_summary(&input, &out, &summary);
    Ok(())
}

/// Isolated vertices, maximum degree and median degree (the upper
/// median) of a CSR, from its row offsets alone.
fn degree_summary(offsets: &[u64]) -> (usize, u64, u64) {
    let mut degs: Vec<u64> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    let isolated = degs.iter().filter(|&&d| d == 0).count();
    let max = degs.iter().copied().max().unwrap_or(0);
    let mid = degs.len() / 2;
    let median = if degs.is_empty() {
        0
    } else {
        *degs.select_nth_unstable(mid).1
    };
    (isolated, max, median)
}

fn slab_info(path: &Path) -> Result<(), String> {
    // Full open: validates the header, the section table, and every
    // section checksum before printing anything.
    let slab = Slab::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let two_m: f64 = slab.weights().iter().sum();
    println!("file:         {}", path.display());
    println!(
        "format:       slab v{} (all section checksums OK)",
        store::FORMAT_VERSION as char
    );
    println!("vertices:     {}", slab.num_vertices());
    println!("edges:        {}", slab.num_edges());
    println!("arcs:         {}", slab.num_arcs());
    println!("total weight: {}", two_m / 2.0);
    let (isolated, max, median) = degree_summary(slab.offsets());
    println!("isolated:     {isolated}");
    println!("max degree:   {max}");
    println!("median degree: {median}");
    if slab.num_vertices() <= 200_000 {
        println!(
            "clustering:   {:.4}",
            metrics::clustering_coefficient(&slab.to_csr())
        );
    }
    println!("file bytes:   {}", slab.mapped_bytes());
    if slab.num_edges() > 0 {
        println!(
            "bytes/edge:   {:.1}",
            slab.mapped_bytes() as f64 / slab.num_edges() as f64
        );
    }
    println!("index stride: {}", slab.index_stride());
    let header = store::peek_header(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for (i, name) in store::SECTION_NAMES.iter().enumerate() {
        let s = header.sections[i];
        println!(
            "section:      {name:<8} offset {:>12}  len {:>12}  fnv1a {:016x}",
            s.offset, s.len, s.checksum
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let opts = Args::scan(args, &[], &[])?;
    let path = PathBuf::from(opts.sole_positional("graph file")?);
    require_slab(&path)?;
    slab_info(&path)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let values = [
        "--ranks",
        "--variant",
        "--threads-per-rank",
        "--sweep",
        "--tau",
        "--assignment",
        "--trace-out",
        "--artifact-out",
        "--checkpoint-dir",
        "--fault-plan",
        "--max-recoveries",
        "--comm-timeout-ms",
        "--max-retries",
    ];
    let bools = ["--ranged", "--resume"];
    let opts = Args::scan(args, &values, &bools)?;
    let path = PathBuf::from(opts.sole_positional("graph file")?);
    let ranks: usize = opts.parse("--ranks")?.unwrap_or(4);
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let threads: usize = opts.parse("--threads-per-rank")?.unwrap_or(1);
    let sweep = match opts.get("--sweep") {
        Some(s) => SweepMode::parse(s).map_err(|e| format!("--sweep: {e}"))?,
        None => SweepMode::Auto,
    };
    let tau: f64 = opts.parse("--tau")?.unwrap_or(1e-6);
    let variant = Variant::parse(opts.get("--variant").unwrap_or("baseline"))?;
    let trace_out = opts.get("--trace-out").map(PathBuf::from);
    let artifact_out = opts.get("--artifact-out").map(PathBuf::from);
    let checkpoint_dir = opts.get("--checkpoint-dir").map(PathBuf::from);
    let resume = opts.has("--resume");
    let max_recoveries: usize = opts.parse("--max-recoveries")?.unwrap_or(8);
    let fault_plan = match opts.get("--fault-plan") {
        Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?),
        None => None,
    };
    if resume && checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }
    let health = {
        let defaults = HealthConfig::default();
        let timeout_ms: u64 =
            (opts.parse("--comm-timeout-ms")?).unwrap_or(defaults.deadline.as_millis() as u64);
        if timeout_ms == 0 {
            return Err("--comm-timeout-ms must be positive".into());
        }
        HealthConfig {
            deadline: std::time::Duration::from_millis(timeout_ms),
            max_retries: opts.parse("--max-retries")?.unwrap_or(defaults.max_retries),
            ..defaults
        }
    };

    let ranged = opts.has("--ranged");

    // --trace-out and --artifact-out enable tracing (telemetry rides on
    // the span machinery).
    if trace_out.is_some() || artifact_out.is_some() {
        obs::set_enabled(true);
    }

    let cfg = DistConfig {
        threshold: tau,
        threads_per_rank: threads,
        sweep,
        ..DistConfig::with_variant(variant)
    };
    let runcfg = RunConfig {
        fault: fault_plan.map(std::sync::Arc::new),
        health,
    };
    let resil = ResilOptions {
        checkpoint: checkpoint_dir.map(CheckpointOptions::new),
        resume,
        crash_budget: max_recoveries,
        hang_budget: max_recoveries,
        ..ResilOptions::none()
    };
    require_slab(&path)?;
    // The mapping outlives the borrowed source.
    let slab;
    let (src, n_vertices, n_edges, how) = if ranged {
        // Validate the header up front so a corrupt file fails here,
        // loudly, instead of inside a rank thread.
        let h = store::peek_header(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let how = "per-rank byte-range loads";
        (
            GraphSource::SlabRanged(&path),
            h.num_vertices,
            h.num_edges,
            how,
        )
    } else {
        slab = Slab::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (nv, ne) = (slab.num_vertices(), slab.num_edges());
        (GraphSource::SlabMapped(&slab), nv, ne, "mmap")
    };
    println!(
        "graph: {n_vertices} vertices, {n_edges} edges (slab, {how}); running {} on {ranks} ranks × {threads} threads",
        variant.label()
    );
    let out = run_distributed_resilient_source(src, ranks, &cfg, runcfg, &resil)?;
    println!("modularity:    {:.6}", out.modularity);
    println!("communities:   {}", out.num_communities);
    println!("phases:        {}", out.phases);
    println!("iterations:    {}", out.total_iterations);
    println!("wall time:     {:.4} s", out.wall.as_secs_f64());
    println!(
        "traffic:       {} p2p msgs, {} KiB, {} collectives",
        out.traffic.p2p_messages,
        out.traffic.p2p_bytes / 1024,
        out.traffic.collective_calls
    );
    if out.traffic.wait_nanos_total() > 0 {
        // Idle time blocked on peers, counted per comm step (summed
        // across ranks).
        println!(
            "blocked wait:  {:.3} ms across ranks (worst step: {})",
            out.traffic.wait_nanos_total() as f64 * 1e-6,
            distributed_louvain::comm::CommStep::ALL
                .iter()
                .max_by_key(|s| out.traffic.step_wait_nanos_for(**s))
                .map(|s| s.label())
                .unwrap_or("other"),
        );
    }
    if let Some(phase) = out.resumed_from_phase {
        println!("resumed from phase {phase}");
    }
    // Checkpoint retention: with the run complete, phase dirs below the
    // newest manifest can never be resumed from again — prune them.
    // Only on success: a failed run keeps everything restorable.
    if let Some(ckpt) = resil.checkpoint.as_ref() {
        if let Ok(store) = distributed_louvain::resil::CheckpointStore::new(&ckpt.dir) {
            match store.prune_superseded() {
                Ok(0) => {}
                Ok(n) => println!("checkpoints:   pruned {n} superseded phase dir(s)"),
                Err(e) => eprintln!("warning: checkpoint retention failed: {e}"),
            }
        }
    }
    if out.recoveries > 0 {
        println!(
            "recoveries:    {} ({} crash, {} hang)",
            out.recoveries,
            out.recoveries - out.hung_events.len() as u64,
            out.hung_events.len()
        );
    }
    for h in &out.hung_events {
        println!(
            "hung rank:     rank {} declared by rank {} in phase {} op {} after {} ms",
            h.rank, h.detector, h.phase, h.op, h.waited_ms
        );
    }
    let t = &out.traffic;
    if t.fault_stalls > 0 {
        println!("faults:        {} stalled", t.fault_stalls);
    }
    if t.wd_timeouts + t.wd_retries + t.wd_stragglers > 0 {
        println!(
            "watchdog:      {} timeouts, {} silent-rank extensions, {} straggler extensions",
            t.wd_timeouts, t.wd_retries, t.wd_stragglers
        );
    }

    if let Some(dest) = opts.get("--assignment") {
        write_assignment(Path::new(dest), &out.assignment)?;
        println!("wrote {dest}");
    }
    if let Some(dest) = &trace_out {
        let trace = out
            .trace
            .as_ref()
            .ok_or("tracing produced no data (was it disabled mid-run?)")?;
        std::fs::write(dest, obs::chrome_trace_json(trace))
            .map_err(|e| format!("{}: {e}", dest.display()))?;
        println!(
            "wrote {} ({} events, {} dropped)",
            dest.display(),
            trace.total_events(),
            trace.total_dropped()
        );
    }
    if let Some(dest) = &artifact_out {
        let meta = dist::ReportMeta::new(
            path.file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default(),
            n_vertices,
            n_edges,
        )
        .variant(variant.label())
        .threads_per_rank(threads);
        let report = dist::build_run_report(&out, &meta);
        let telemetry = out
            .trace
            .as_ref()
            .map(|t| t.merged_telemetry())
            .unwrap_or_default();
        let artifact = obs::RunArtifact {
            name: "louvain-cli".into(),
            description: format!(
                "louvain run {} on {ranks} ranks ({})",
                report.graph,
                variant.label()
            ),
            runs: vec![obs::RunEntry {
                label: obs::run_label(&report.graph, ranks, "full"),
                report,
                telemetry,
            }],
        };
        std::fs::write(dest, artifact.to_json_string())
            .map_err(|e| format!("{}: {e}", dest.display()))?;
        println!("wrote {} (run artifact)", dest.display());
    }
    // If the generator left a ground-truth file next to the input, score
    // against it automatically.
    let truth_path = truth_sibling(&path);
    if truth_path.exists() {
        let truth = read_assignment(&truth_path)?;
        if truth.len() == out.assignment.len() {
            let q = f_score(&truth, &out.assignment);
            println!(
                "vs ground truth: precision {:.4}, recall {:.4}, F {:.4}, NMI {:.4}",
                q.precision,
                q.recall,
                q.f_score,
                nmi(&truth, &out.assignment)
            );
        }
    }
    Ok(())
}

fn cmd_quality(args: &[String]) -> Result<(), String> {
    let opts = Args::scan(args, &["--truth", "--detected"], &[])?;
    let truth = read_assignment(Path::new(opts.require("--truth")?))?;
    let detected = read_assignment(Path::new(opts.require("--detected")?))?;
    if truth.len() != detected.len() {
        return Err(format!(
            "length mismatch: truth has {} vertices, detected {}",
            truth.len(),
            detected.len()
        ));
    }
    let q = f_score(&truth, &detected);
    println!("precision: {:.6}", q.precision);
    println!("recall:    {:.6}", q.recall);
    println!("f_score:   {:.6}", q.f_score);
    println!("nmi:       {:.6}", nmi(&truth, &detected));
    println!("ari:       {:.6}", adjusted_rand_index(&truth, &detected));
    Ok(())
}

/// `<file>.truth` next to a graph file.
fn truth_sibling(graph_path: &Path) -> PathBuf {
    let mut os = graph_path.as_os_str().to_owned();
    os.push(".truth");
    PathBuf::from(os)
}

fn write_assignment(path: &Path, assignment: &[VertexId]) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    for c in assignment {
        writeln!(w, "{c}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

fn read_assignment(path: &Path) -> Result<Vec<VertexId>, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in std::io::BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(
            line.parse()
                .map_err(|_| format!("{}:{}: not a community id: {line}", path.display(), i + 1))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributed_louvain::graph::EdgeList;

    #[test]
    fn unknown_and_valueless_flags_are_refused_by_name() {
        let s = |x: &str| x.to_string();
        // `-p` has never been a flag of `run` (it is `--ranks`); before the
        // strict scanner it was ignored and the run used the default 4.
        let err = cmd_run(&[s("g.slab"), s("-p"), s("2")]).unwrap_err();
        assert!(err.contains("-p"), "unexpected error: {err}");
        let err = cmd_run(&[s("g.slab"), s("--ranks")]).unwrap_err();
        assert!(err.contains("--ranks"), "unexpected error: {err}");
        let err = cmd_run(&[s("g.slab"), s("--ranks"), s("two")]).unwrap_err();
        assert!(err.contains("--ranks") && err.contains("two"), "{err}");
        let err = cmd_generate(&[s("--kind"), s("lfr"), s("--nn"), s("5")]).unwrap_err();
        assert!(err.contains("--nn"), "unexpected error: {err}");
        let err = cmd_info(&[s("a.slab"), s("b.slab")]).unwrap_err();
        assert!(err.contains("b.slab"), "unexpected error: {err}");
        // The racing sweep schedule is deleted: its name is refused.
        let err = cmd_run(&[s("g.slab"), s("--sweep"), s("relaxed")]).unwrap_err();
        assert!(
            err.starts_with("--sweep") && err.contains("relaxed"),
            "{err}"
        );
        // Options deleted as unused are unknown options like any other.
        // Their names are spelt in pieces so that they appear nowhere in
        // the code.
        for (flag, value) in [
            (concat!("--report", "-out"), Some("r.json")),
            (concat!("--checkpoint", "-every"), Some("2")),
            (concat!("--no", "-watchdog"), None),
        ] {
            let mut args = vec![s("g.slab"), s(flag)];
            args.extend(value.map(s));
            let err = cmd_run(&args).unwrap_err();
            assert_eq!(err, format!("unknown option {flag}"));
        }
    }

    /// Zero ranks used to reach `Partition::new`'s `assert!(p > 0)` and
    /// die with a backtrace.
    #[test]
    fn zero_ranks_is_a_usage_error_naming_the_flag() {
        let err = cmd_run(&["g.slab".into(), "--ranks".into(), "0".into()]).unwrap_err();
        assert!(
            err.contains("--ranks") && err.contains("at least 1"),
            "{err}"
        );
    }

    #[test]
    fn assignment_roundtrip() {
        let dir = std::env::temp_dir().join("louvain-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.comm");
        write_assignment(&path, &[3, 1, 4, 1, 5]).unwrap();
        assert_eq!(read_assignment(&path).unwrap(), vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn truth_sibling_appends_extension() {
        assert_eq!(
            truth_sibling(Path::new("/tmp/g.graph")),
            PathBuf::from("/tmp/g.graph.truth")
        );
    }

    #[test]
    fn end_to_end_generate_run_quality() {
        let dir = std::env::temp_dir().join("louvain-cli-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("t.slab");
        let assign = dir.join("t.comm");
        let s = |x: &str| x.to_string();
        cmd_generate(&[
            s("--kind"),
            s("lfr"),
            s("--n"),
            s("800"),
            s("--seed"),
            s("5"),
            s("--out"),
            s(graph.to_str().unwrap()),
        ])
        .unwrap();
        assert!(graph.exists());
        assert!(truth_sibling(&graph).exists());
        cmd_info(&[s(graph.to_str().unwrap())]).unwrap();
        let trace = dir.join("t.trace.json");
        let artifact = dir.join("t.artifact.json");
        cmd_run(&[
            s(graph.to_str().unwrap()),
            s("--ranks"),
            s("2"),
            s("--variant"),
            s("etc:0.25"),
            s("--assignment"),
            s(assign.to_str().unwrap()),
            s("--trace-out"),
            s(trace.to_str().unwrap()),
            s("--artifact-out"),
            s(artifact.to_str().unwrap()),
        ])
        .unwrap();
        assert!(assign.exists());
        // The trace is valid JSON with a traceEvents array; the artifact
        // round-trips through the RunArtifact parser and carries the
        // run's report.
        let doc = obs::Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        let art =
            obs::RunArtifact::from_json_str(&std::fs::read_to_string(&artifact).unwrap()).unwrap();
        let rep = &art.runs[0].report;
        assert_eq!(rep.ranks, 2);
        assert!(rep.traffic.total_bytes() > 0);
        cmd_quality(&[
            s("--truth"),
            s(truth_sibling(&graph).to_str().unwrap()),
            s("--detected"),
            s(assign.to_str().unwrap()),
        ])
        .unwrap();
    }

    /// The community assignment of an in-memory run with `run`'s
    /// defaults at two ranks: the oracle the slab paths must equal.
    fn in_memory_assignment(g: &distributed_louvain::graph::Csr) -> Vec<VertexId> {
        dist::run_distributed(g, 2, &DistConfig::with_variant(Variant::Baseline)).assignment
    }

    #[test]
    fn end_to_end_slab_flow_matches_in_memory() {
        let dir = std::env::temp_dir().join("louvain-cli-slab");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let slab = dir.join("s.slab");
        let s = |x: &str| x.to_string();
        let p = |x: &Path| s(x.to_str().unwrap());
        let spec = [
            s("--kind"),
            s("ssca2"),
            s("--n"),
            s("600"),
            s("--seed"),
            s("3"),
        ];
        let mut args = spec.to_vec();
        args.extend([s("--out"), p(&slab)]);
        cmd_generate(&args).unwrap();
        assert!(truth_sibling(&slab).exists());
        // Info validates every checksum before printing.
        cmd_info(&[p(&slab)]).unwrap();
        // Both slab load paths produce the in-memory run's assignment.
        let mapped = dir.join("map.comm");
        let ranged = dir.join("rng.comm");
        cmd_run(&[
            p(&slab),
            s("--ranks"),
            s("2"),
            s("--assignment"),
            p(&mapped),
        ])
        .unwrap();
        cmd_run(&[
            s("--ranged"),
            p(&slab),
            s("--ranks"),
            s("2"),
            s("--assignment"),
            p(&ranged),
        ])
        .unwrap();
        let g = gen::ssca2(gen::Ssca2Params::paper(600, 3)).graph;
        let want = in_memory_assignment(&g);
        assert_eq!(want, read_assignment(&mapped).unwrap());
        assert_eq!(want, read_assignment(&ranged).unwrap());
        // A text file is refused on both paths, pointing at `ingest`.
        let text = dir.join("g.txt");
        std::fs::write(&text, "0 1\n1 2\n").unwrap();
        for args in [vec![p(&text)], vec![s("--ranged"), p(&text)]] {
            let err = cmd_run(&args).unwrap_err();
            assert!(
                err.contains("not a slab") && err.contains("louvain ingest"),
                "unexpected error: {err}"
            );
        }
        // The flags the slab-only paths made redundant are refused by name.
        let err = cmd_run(&[s("--slab"), p(&slab)]).unwrap_err();
        assert!(err.contains("--slab"), "unexpected error: {err}");
        let mut args = spec.to_vec();
        args.extend([s("--out"), p(&slab), s("--slab")]);
        let err = cmd_generate(&args).unwrap_err();
        assert_eq!(err, "unknown option --slab");
    }

    #[test]
    fn text_ingest_matches_in_memory_convert() {
        let dir = std::env::temp_dir().join("louvain-cli-convert-slab");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("t.txt");
        // Sparse ids, duplicates, and a self-loop exercise the repair
        // policy on both paths.
        let body = "# test\n100 200\n200 300 2.0\n300 100\n100 200 0.5\n300 300\n400 100\n";
        std::fs::write(&text, body).unwrap();
        let slab = dir.join("t.slab");
        let s = |x: &str| x.to_string();
        let p = |x: &Path| s(x.to_str().unwrap());
        cmd_ingest(&[p(&text), s("--out"), p(&slab), s("--repair")]).unwrap();
        let mapped = dir.join("map.comm");
        cmd_run(&[
            p(&slab),
            s("--ranks"),
            s("2"),
            s("--assignment"),
            p(&mapped),
        ])
        .unwrap();
        // The in-memory list, repaired the same way, is the oracle.
        let (mut parsed, _) = textio::stream_text_edge_list(&text, EdgeList::new).unwrap();
        parsed.repair();
        let g = distributed_louvain::graph::Csr::from_edge_list(parsed);
        assert_eq!(in_memory_assignment(&g), read_assignment(&mapped).unwrap());
        // Strict ingest rejects the duplicate.
        assert!(cmd_ingest(&[p(&text), s("--out"), p(&slab), s("--strict")]).is_err());
    }

    /// `run`, `run --ranged`, `info` and `ingest` refuse the retired
    /// binary edge list by name, from its 8-byte magic alone.
    #[test]
    fn retired_binary_edge_list_is_refused_by_name_on_every_path() {
        let dir = std::env::temp_dir().join("louvain-cli-retired");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("g.bin");
        std::fs::write(&old, 0x4C56_4752_4250_4831u64.to_le_bytes()).unwrap();
        let s = |x: &str| x.to_string();
        let p = |x: &Path| s(x.to_str().unwrap());
        for err in [
            cmd_run(&[p(&old), s("--ranks"), s("2")]).unwrap_err(),
            cmd_run(&[s("--ranged"), p(&old)]).unwrap_err(),
            cmd_info(&[p(&old)]).unwrap_err(),
            cmd_ingest(&[p(&old), s("--out"), p(&dir.join("x.slab"))]).unwrap_err(),
        ] {
            assert!(
                err.contains("LVGRBPH1")
                    && err.contains("louvain generate")
                    && err.contains("louvain ingest"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn degree_summary_matches_csr_degree() {
        // A self-loop (one arc), a hub, a path and two isolated vertices.
        let el = distributed_louvain::graph::EdgeList::from_edges(
            8,
            [
                (0, 0, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (1, 4, 1.0),
                (4, 5, 2.0),
            ],
        );
        let g = distributed_louvain::graph::Csr::from_edge_list(el);
        let offsets: Vec<u64> = g.offsets().iter().map(|&o| o as u64).collect();
        let mut degs: Vec<u64> = (0..8).map(|v| g.degree(v) as u64).collect();
        degs.sort_unstable();
        let isolated = degs.iter().filter(|&&d| d == 0).count();
        assert_eq!(isolated, 2);
        assert_eq!(degree_summary(&offsets), (isolated, degs[7], degs[4]));
        assert_eq!(degree_summary(&[0]), (0, 0, 0));
    }

    #[test]
    fn corrupt_slab_fails_loudly_on_every_path() {
        let dir = std::env::temp_dir().join("louvain-cli-slab-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let slab = dir.join("c.slab");
        let s = |x: &str| x.to_string();
        let p = |x: &Path| s(x.to_str().unwrap());
        cmd_generate(&[
            s("--kind"),
            s("lfr"),
            s("--n"),
            s("400"),
            s("--seed"),
            s("2"),
            s("--out"),
            p(&slab),
        ])
        .unwrap();
        let pristine = std::fs::read(&slab).unwrap();
        let header = store::peek_header(&slab).unwrap();
        // Flip one byte inside the offsets section: `info` and mmap runs
        // validate every checksum up front and must name the section.
        let mut bytes = pristine.clone();
        bytes[header.sections[0].offset as usize] ^= 0xFF;
        std::fs::write(&slab, &bytes).unwrap();
        let err = cmd_info(&[p(&slab)]).unwrap_err();
        assert!(
            err.contains("checksum mismatch") && err.contains("offsets"),
            "unexpected error: {err}"
        );
        let err = cmd_run(&[p(&slab), s("--ranks"), s("2")]).unwrap_err();
        assert!(
            err.contains("checksum mismatch") && err.contains("offsets"),
            "unexpected error: {err}"
        );
        // The ranged path reads only its own byte ranges of the big
        // sections, but checksums the small section it reads whole —
        // corrupt the pindex and the per-rank load must fail loudly too.
        let mut bytes = pristine.clone();
        bytes[header.sections[3].offset as usize] ^= 0xFF;
        std::fs::write(&slab, &bytes).unwrap();
        let err = cmd_run(&[s("--ranged"), p(&slab), s("--ranks"), s("2")]).unwrap_err();
        assert!(
            err.contains("checksum mismatch") && err.contains("pindex"),
            "unexpected error: {err}"
        );
        // A version-1 slab is refused by version on every path.
        let mut bytes = pristine.clone();
        bytes[0] = b'1';
        std::fs::write(&slab, &bytes).unwrap();
        for err in [
            cmd_info(&[p(&slab)]).unwrap_err(),
            cmd_run(&[p(&slab), s("--ranks"), s("2")]).unwrap_err(),
            cmd_run(&[s("--ranged"), p(&slab), s("--ranks"), s("2")]).unwrap_err(),
        ] {
            assert!(
                err.contains("slab format version '1'"),
                "unexpected error: {err}"
            );
        }
        // Truncation is a distinct typed error.
        std::fs::write(&slab, &pristine[..100]).unwrap();
        let err = cmd_run(&[p(&slab), s("--ranks"), s("2")]).unwrap_err();
        assert!(err.contains("truncated"), "unexpected error: {err}");
        // Re-ingesting a slab is refused by the magic sniff.
        let err = cmd_ingest(&[p(&slab), s("--out"), p(&dir.join("x.slab"))]).unwrap_err();
        assert!(err.contains("already a slab"), "unexpected error: {err}");
    }

    #[test]
    fn end_to_end_crash_and_resume_flow() {
        let dir = std::env::temp_dir().join("louvain-cli-resil");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("r.slab");
        let ckpt = dir.join("ckpt");
        let clean = dir.join("clean.comm");
        let resumed = dir.join("resumed.comm");
        let s = |x: &str| x.to_string();
        cmd_generate(&[
            s("--kind"),
            s("lfr"),
            s("--n"),
            s("900"),
            s("--seed"),
            s("11"),
            s("--out"),
            s(graph.to_str().unwrap()),
        ])
        .unwrap();
        // Reference: uninterrupted run.
        cmd_run(&[
            s(graph.to_str().unwrap()),
            s("--ranks"),
            s("2"),
            s("--assignment"),
            s(clean.to_str().unwrap()),
        ])
        .unwrap();
        // Stage 1: checkpointed run killed by an injected crash, with no
        // recovery budget — must fail, leaving a phase-1 checkpoint behind.
        let err = cmd_run(&[
            s(graph.to_str().unwrap()),
            s("--ranks"),
            s("2"),
            s("--checkpoint-dir"),
            s(ckpt.to_str().unwrap()),
            s("--fault-plan"),
            s("crash:rank=0,phase=1,op=0"),
            s("--max-recoveries"),
            s("0"),
        ])
        .unwrap_err();
        assert!(err.contains("rank 0"), "unexpected error: {err}");
        assert!(ckpt.join("LATEST").exists());
        // Stage 2: --resume continues from the checkpoint and reproduces
        // the uninterrupted assignment exactly.
        cmd_run(&[
            s("--resume"),
            s(graph.to_str().unwrap()),
            s("--ranks"),
            s("2"),
            s("--checkpoint-dir"),
            s(ckpt.to_str().unwrap()),
            s("--assignment"),
            s(resumed.to_str().unwrap()),
        ])
        .unwrap();
        assert_eq!(
            read_assignment(&clean).unwrap(),
            read_assignment(&resumed).unwrap()
        );
        // --resume without a checkpoint directory is refused.
        let err = cmd_run(&[s("--resume"), s(graph.to_str().unwrap())]).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "unexpected error: {err}");
    }
}
