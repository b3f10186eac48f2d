//! The `--trace` run: per-layer rows, each timed around a call into a
//! layer's public functions on the workload's own graph, plus the
//! traced reps and their self-time table.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use grappolo::{GrappoloConfig, ParallelLouvain};
use louvain_comm::{run_with, Comm, ReduceOp, RunConfig, StatsSnapshot};
use louvain_dist::ghost::GhostLayer;
use louvain_dist::heuristics::distributed_coloring;
use louvain_dist::iteration::{louvain_phase, PhaseContext};
use louvain_dist::rebuild::rebuild;
use louvain_dist::{
    config_fingerprint, run_distributed_resilient_source, serial_louvain, CheckpointOptions,
    DistConfig, GraphSource, ResilOptions, SweepMode,
};
use louvain_graph::ingest::IngestError;
use louvain_graph::{Csr, EdgeList, EdgeSink, LocalGraph, VertexId, VertexPartition, Weight};
use louvain_resil::{CheckpointStore, RankCheckpoint};
use louvain_serve::graph_fingerprint;
use louvain_store::{load_rank, Slab};

use crate::spans::{on_chain, self_ns, Spans};
use crate::stats::summarize;
use crate::workloads::{
    count_rows, ingest, quality_rows, row, run_rows, serve_count_rows, serve_pass, summary, Data,
    Kind, Opts, Rep, Report, Row, Workload,
};

const MIB: f64 = (1 << 20) as f64;

/// Traced reps, and untraced reps they are compared with.
const TRACE_REPS: usize = 3;

/// All-reduces per `comm.allreduce_us` reading.
const ALLREDUCE_OPS: usize = 10_000;
/// Exchange rounds per `comm.alltoallv_mib_per_s` reading, 1 MiB a peer.
const ALLTOALL_ROUNDS: usize = 16;
const ALLTOALL_WORDS: usize = (1 << 20) / 8;
/// Refresh rounds per ghost-refresh reading.
const REFRESH_ROUNDS: usize = 20;
/// One local in this many changes community before a delta refresh.
const DELTA_EVERY: usize = 20;

/// Spans the self-time table names. Any other span counts towards the
/// nearest of these that encloses it; time under none of them is the
/// `unaccounted` row.
const TABLE_SPANS: [&str; 10] = [
    "load",
    "run",
    "ghost_build",
    "iteration",
    "sweep",
    "rebuild",
    "project",
    "checkpoint_write",
    "submit_fresh",
    "submit_hit",
];

struct Count(u64);

impl EdgeSink for Count {
    fn edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), IngestError> {
        // Keeps the generator producing every edge: a sink that only
        // counts lets the compiler fold SSCA#2's clique loops away.
        black_box((u, v, w));
        self.0 += 1;
        Ok(())
    }
}

/// A stopwatch reading taken on a rank thread.
#[derive(Clone, Copy)]
struct Lap {
    start: Instant,
    end: Instant,
}

impl Lap {
    fn of<T>(f: impl FnOnce() -> T) -> (Lap, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (Lap { start, end }, out)
    }

    fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// A collective ends when its slowest rank does.
    fn slowest(laps: impl IntoIterator<Item = Lap>) -> Lap {
        laps.into_iter()
            .max_by(|a, b| a.secs().total_cmp(&b.secs()))
            .expect("at least one rank")
    }
}

/// Per-layer probes share the recorder, the rep counts and the rows.
struct Probe<'a> {
    spans: &'a mut Spans,
    rows: Vec<Row>,
    /// Reps of a call that takes milliseconds.
    light: usize,
    /// Reps of a call that runs a whole phase or detection.
    heavy: usize,
}

impl Probe<'_> {
    /// Minimum over `reps` of the seconds `f` reports.
    fn best(&mut self, reps: usize, mut f: impl FnMut(&mut Spans) -> f64) -> f64 {
        (0..reps)
            .map(|_| f(self.spans))
            .fold(f64::INFINITY, f64::min)
    }

    /// Minimum wall of `reps` calls of `f`, each inside a span `name`.
    fn time<T>(&mut self, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        self.best(reps, |spans| spans.timed(name, || black_box(f())).0)
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push(row(name, value, unit));
    }

    /// `reps` times: run `f` on `p` ranks inside a span `name`. Every
    /// rank hands back laps around the collective calls it made, in call
    /// order; the slowest rank's lap of each call becomes the call's span
    /// and its time. Returns each call's minimum over the reps, and what
    /// the ranks of the last rep returned besides.
    fn ranks<const N: usize, T: Send>(
        &mut self,
        reps: usize,
        name: &'static str,
        calls: [&'static str; N],
        p: usize,
        f: impl Fn(&Comm) -> ([Lap; N], T) + Send + Sync,
    ) -> ([f64; N], Vec<T>) {
        let mut best = [f64::INFINITY; N];
        let mut last = Vec::new();
        for _ in 0..reps {
            let open = self.spans.enter(name);
            let (laps, outs): (Vec<[Lap; N]>, Vec<T>) =
                run_with(p, RunConfig::default(), &f).into_iter().unzip();
            for (i, call) in calls.into_iter().enumerate() {
                let lap = Lap::slowest(laps.iter().map(|l| l[i]));
                self.spans.child(call, lap.start, lap.end);
                best[i] = best[i].min(lap.secs());
            }
            self.spans.exit(open);
            last = outs;
        }
        (best, last)
    }
}

/// The `--trace` run of one workload.
pub fn run(wl: &Workload, opts: &Opts, root: &Path, trace_file: &Path) -> Report {
    let (data, _) = wl.timed_setups(opts, root);
    let reps = if opts.quick { 1 } else { TRACE_REPS };

    // Untraced reps first: the reference the traced ones are compared
    // with, after one discarded warm-up.
    let mut off = Spans::new(false);
    let plain: Vec<Rep> = (0..=reps).map(|i| wl.detect(&data, &mut off, i)).collect();
    let mut spans = Spans::new(true);
    louvain_obs::set_enabled(true);
    let traced: Vec<Rep> = (0..reps)
        .map(|i| {
            spans.rep = i as u32;
            wl.detect(&data, &mut spans, reps + 1 + i)
        })
        .collect();
    louvain_obs::set_enabled(false);

    let (mut attempted, mut failed) = (0, 0);
    for rep in plain.iter().chain(&traced) {
        attempted += rep.attempted;
        let wrong = !wl.check(&data, rep, &plain[0], opts.quick);
        failed += rep.failed.max(wrong as u64);
    }
    let timed = &plain[1..];
    let wall = |reps: &[Rep]| summary(reps, |r| r.wall).min;

    let mut probe = Probe {
        spans: &mut spans,
        rows: run_rows(timed, attempted, failed),
        light: if opts.quick { 1 } else { 5 },
        heavy: if opts.quick { 1 } else { 3 },
    };
    probe.push(
        "obs.trace_overhead_frac",
        wall(&traced) / wall(timed) - 1.0,
        "1",
    );

    let direct = wl.direct(&data);
    probe.rows.extend(count_rows(&direct));
    probe.push(
        "comm.wait_frac",
        direct.traffic.wait_nanos_total() as f64
            / (1e9 * wl.ranks() as f64 * direct.wall.as_secs_f64()),
        "1",
    );

    let edges = graph_layer(&mut probe, &data);
    let slab = data.dir.join("probe.slab");
    store_layer(&mut probe, &data, &edges, &slab);
    drop(edges);
    comm_layer(&mut probe);
    core_layer(&mut probe, wl, &data);
    let serial = reference_layer(&mut probe, &data, wall(timed));
    let reference = data.truth.as_ref().unwrap_or(&serial);
    probe
        .rows
        .extend(quality_rows(reference, &direct.assignment));
    let with_checkpoints = resil_layer(&mut probe, wl, &data, &slab);
    serve_layer(&mut probe, wl, &data, &slab, timed, with_checkpoints);

    let mut rows = probe.rows;
    let (table, closes) = self_time_rows(&spans);
    rows.extend(table);
    attempted += 1;
    if !closes {
        failed += 1;
    }
    std::fs::write(trace_file, spans.chrome_json(wl.name)).expect("write Chrome trace");
    Report {
        rows,
        attempted,
        failed,
    }
}

/// graph: generator stream, CSR build, scatter. Returns the edge list
/// the store probes ingest.
fn graph_layer(probe: &mut Probe, data: &Data) -> EdgeList {
    let mut edges = EdgeList::new(data.gen.num_vertices());
    data.gen.stream(&mut edges);
    let arcs = data.csr.num_arcs() as f64;

    let gen_s = probe.time("graph.gen", probe.light, || {
        let mut count = Count(0);
        data.gen.stream(&mut count);
        count.0
    });
    probe.push(
        "graph.gen_medges_per_s",
        edges.num_edges() as f64 / gen_s / 1e6,
        "Medge/s",
    );

    let light = probe.light;
    let build_s = probe.best(light, |spans| {
        let input = edges.clone();
        spans
            .timed("graph.csr_build", || black_box(Csr::from_edge_list(input)))
            .0
    });
    probe.push("graph.csr_build_ns_per_arc", build_s * 1e9 / arcs, "ns");

    let scatter_s = probe.time("graph.scatter", probe.light, || {
        let part = VertexPartition::balanced_edges(&data.csr, 2);
        LocalGraph::scatter(&data.csr, &part)
    });
    probe.push("graph.scatter_ns_per_arc", scatter_s * 1e9 / arcs, "ns");
    edges
}

/// store: ingest, validated open, zero-copy slicing, ranged load.
fn store_layer(probe: &mut Probe, data: &Data, edges: &EdgeList, slab: &Path) {
    let n = data.gen.num_vertices();
    let arcs = data.csr.num_arcs() as f64;
    let ingest_s = probe.time("store.ingest", probe.light, || {
        ingest(
            |b| {
                for e in edges.edges() {
                    b.edge(e.u, e.v, e.w).expect("edge in range");
                }
            },
            n,
            &data.dir,
            slab,
        )
    });
    probe.push(
        "store.ingest_medges_per_s",
        edges.num_edges() as f64 / ingest_s / 1e6,
        "Medge/s",
    );

    let file_mib = std::fs::metadata(slab).expect("stat slab").len() as f64 / MIB;
    let open_s = probe.time("store.open", probe.light, || {
        Slab::open(slab).expect("open slab")
    });
    probe.push("store.open_mib_per_s", file_mib / open_s, "MiB/s");

    let mapped = Slab::open(slab).expect("open slab");
    let slice_s = probe.time("store.local_graph", probe.light, || {
        let part = mapped.partition(2);
        (mapped.local_graph(&part, 0), mapped.local_graph(&part, 1))
    });
    probe.push("store.local_graph_ns_per_arc", slice_s * 1e9 / arcs, "ns");

    let mut read_mib = 0.0;
    let load_s = probe.time("store.load_rank", probe.light, || {
        let slice = load_rank(slab, 0, 1).expect("ranged load");
        read_mib = slice.bytes_read as f64 / MIB;
        slice
    });
    probe.push("store.load_rank_mib_per_s", read_mib / load_s, "MiB/s");
}

/// comm: the two collectives an iteration leans on, on 2 ranks.
fn comm_layer(probe: &mut Probe) {
    let light = probe.light;
    let ([reduce_s], _) = probe.ranks(light, "comm.allreduce", ["all_reduce"], 2, |c| {
        c.barrier();
        let (lap, ()) = Lap::of(|| {
            for _ in 0..ALLREDUCE_OPS {
                black_box(c.all_reduce(1.0_f64, ReduceOp::Sum));
            }
        });
        ([lap], ())
    });
    probe.push(
        "comm.allreduce_us",
        reduce_s * 1e6 / ALLREDUCE_OPS as f64,
        "us",
    );

    let ([exchange_s], _) = probe.ranks(light, "comm.alltoallv", ["all_to_all_v"], 2, |c| {
        let mut rounds: Vec<Vec<Vec<u64>>> = (0..ALLTOALL_ROUNDS)
            .map(|_| vec![vec![c.rank() as u64; ALLTOALL_WORDS]; c.size()])
            .collect();
        c.barrier();
        let (lap, ()) = Lap::of(|| {
            while let Some(bufs) = rounds.pop() {
                black_box(c.all_to_all_v(bufs));
            }
        });
        ([lap], ())
    });
    // Every rank sends 1 MiB to each of the 2 ranks, itself included.
    let moved_mib = (ALLTOALL_ROUNDS * 2 * 2) as f64;
    probe.push("comm.alltoallv_mib_per_s", moved_mib / exchange_s, "MiB/s");
}

/// What one phase-0 probe measured.
struct Phase0 {
    ghost_build_s: f64,
    phase_s: f64,
    rebuild_s: f64,
    ghosts: usize,
    edges_scanned: u64,
}

/// Ghost discovery, the phase-0 iteration loop and the rebuild of its
/// output, on `p` ranks; minimum of `reps` per call.
fn phase0(probe: &mut Probe, data: &Data, p: usize, cfg: &DistConfig, reps: usize) -> Phase0 {
    let part = VertexPartition::balanced_edges(&data.csr, p);
    let pieces = LocalGraph::scatter(&data.csr, &part);
    let calls = ["GhostLayer::build", "louvain_phase", "rebuild"];
    let ([ghost_build_s, phase_s, rebuild_s], counts) =
        probe.ranks(reps, "core.phase0", calls, p, |c| {
            let lg = &pieces[c.rank()];
            c.barrier();
            let (build, mut ghosts) = Lap::of(|| GhostLayer::build(c, lg));
            let ctx = PhaseContext {
                comm: c,
                lg,
                two_m: c.all_reduce(lg.local_arc_weight(), ReduceOp::Sum),
            };
            c.barrier();
            let (phase, result) =
                Lap::of(|| louvain_phase(&ctx, &mut ghosts, cfg, 0, cfg.threshold));
            c.barrier();
            let (coarsen, out) =
                Lap::of(|| rebuild(c, lg, &ghosts, &result.comm_of_local, &result.ghost_comm));
            black_box(out);
            (
                [build, phase, coarsen],
                (ghosts.num_ghosts(), result.compute.edges_scanned),
            )
        });
    Phase0 {
        ghost_build_s,
        phase_s,
        rebuild_s,
        ghosts: counts.iter().map(|c| c.0).sum(),
        edges_scanned: counts.iter().map(|c| c.1).sum(),
    }
}

/// core: sweep kernel under each schedule, coloring, ghost discovery
/// and refresh, rebuild.
fn core_layer(probe: &mut Probe, wl: &Workload, data: &Data) {
    let arcs = data.csr.num_arcs() as f64;
    let heavy = probe.heavy;
    let capped = DistConfig {
        max_iterations: wl.sweep_cap,
        ..DistConfig::baseline()
    };
    let per_arc = |p: &Phase0| p.phase_s * 1e9 / p.edges_scanned as f64;

    let seq = phase0(probe, data, 1, &capped, heavy);
    probe.push("core.sweep_ns_per_arc", per_arc(&seq), "ns");
    probe.push("core.rebuild_ns_per_arc", seq.rebuild_s * 1e9 / arcs, "ns");
    for (threads, name) in [
        (1, "core.sweep_colored_t1_ns_per_arc"),
        (2, "core.sweep_colored_t2_ns_per_arc"),
    ] {
        let colored = DistConfig {
            sweep: SweepMode::Colored,
            threads_per_rank: threads,
            ..capped.clone()
        };
        let got = phase0(probe, data, 1, &colored, heavy);
        probe.push(name, per_arc(&got), "ns");
    }
    let two = phase0(probe, data, 2, &capped, heavy);
    probe.push(
        "core.rebuild_p2_ns_per_arc",
        two.rebuild_s * 1e9 / arcs,
        "ns",
    );
    probe.push("core.ghost_build_ms", two.ghost_build_s * 1e3, "ms");
    probe.push("core.ghosts", two.ghosts as f64, "count");

    let whole = LocalGraph::scatter(&data.csr, &VertexPartition::balanced_edges(&data.csr, 1));
    let calls = ["distributed_coloring"];
    let ([coloring_s], _) = probe.ranks(probe.light, "core.coloring", calls, 1, |c| {
        let ghosts = GhostLayer::build(c, &whole[0]);
        let (lap, colors) =
            Lap::of(|| distributed_coloring(c, &whole[0], &ghosts, capped.seed ^ 0xC0105));
        ([lap], black_box(colors).1)
    });
    probe.push("core.coloring_ms", coloring_s * 1e3, "ms");

    refresh_probe(probe, data);
}

/// core: full and delta ghost refresh on 2 ranks.
fn refresh_probe(probe: &mut Probe, data: &Data) {
    let part = VertexPartition::balanced_edges(&data.csr, 2);
    let pieces = LocalGraph::scatter(&data.csr, &part);
    let calls = ["GhostLayer::refresh", "GhostLayer::refresh_delta"];
    let ([full_s, delta_s], counts) = probe.ranks(probe.light, "core.refresh", calls, 2, |c| {
        let lg = &pieces[c.rank()];
        let layer = GhostLayer::build(c, lg);
        let vals: Vec<VertexId> = part.range(c.rank()).collect();
        let changed: Vec<bool> = (0..lg.num_local()).map(|l| l % DELTA_EVERY == 0).collect();
        let mut slots = Vec::new();
        c.barrier();
        let (full, ()) = Lap::of(|| {
            for _ in 0..REFRESH_ROUNDS {
                layer.refresh(c, &vals, &mut slots);
            }
        });
        c.barrier();
        let (delta, ()) = Lap::of(|| {
            for _ in 0..REFRESH_ROUNDS {
                layer.refresh_delta(c, &vals, &changed, &mut slots);
            }
        });
        black_box(&slots);
        // Entries a delta round delivers here: requested ghosts whose
        // owner marked them changed.
        let part = &part;
        let delivered = layer
            .requests()
            .iter()
            .enumerate()
            .flat_map(|(owner, ids)| ids.iter().map(move |v| v - part.first(owner)))
            .filter(|l| (*l as usize).is_multiple_of(DELTA_EVERY))
            .count();
        ([full, delta], (layer.num_ghosts(), delivered))
    });
    let ghosts: usize = counts.iter().map(|c| c.0).sum();
    let entries: usize = counts.iter().map(|c| c.1).sum();
    let per = |secs: f64, items: usize| secs * 1e9 / (REFRESH_ROUNDS * items.max(1)) as f64;
    probe.push("core.refresh_full_ns_per_ghost", per(full_s, ghosts), "ns");
    probe.push(
        "core.refresh_delta_ns_per_entry",
        per(delta_s, entries),
        "ns",
    );
}

/// Reference rows: the serial algorithm and the shared-memory baseline
/// on the same graph. Returns the serial partition.
fn reference_layer(probe: &mut Probe, data: &Data, detect_s: f64) -> Vec<VertexId> {
    let mut partition = Vec::new();
    let serial_s = probe.time("core.serial", probe.heavy, || {
        partition = serial_louvain(&data.csr, 1e-6).assignment;
    });
    probe.push("core.serial_s", serial_s, "s");
    probe.push("core.vs_serial", detect_s / serial_s, "1");

    let mut q = 0.0;
    for (threads, name) in [(1, "grappolo.run_t1_s"), (2, "grappolo.run_t2_s")] {
        let runner = ParallelLouvain::new(GrappoloConfig {
            threads,
            ..GrappoloConfig::default()
        });
        let secs = probe.time("grappolo.run", probe.heavy, || {
            q = runner.run(&data.csr).modularity;
        });
        probe.push(name, secs, "s");
        if threads == 1 {
            probe.push("grappolo.modularity", q, "1");
        }
    }
    partition
}

/// resil: checkpoint write and restore of the whole graph as one rank's
/// state, and what checkpointing adds to a detection. Returns the wall
/// of the detection with checkpoints, which is what a served job runs.
fn resil_layer(probe: &mut Probe, wl: &Workload, data: &Data, slab: &Path) -> f64 {
    let n = data.csr.num_vertices() as u64;
    let fingerprint = config_fingerprint(&wl.job_cfg());
    let state = RankCheckpoint {
        rank: 0,
        ranks: 1,
        phase: 1,
        force_min_tau: false,
        prev_q: 0.0,
        final_q: 0.0,
        total_iterations: 0,
        config_fingerprint: fingerprint,
        part_starts: vec![0, n],
        offsets: data.csr.offsets().iter().map(|&o| o as u64).collect(),
        dests: data.csr.dests().to_vec(),
        weights: data.csr.weights().to_vec(),
        cur_of_orig: (0..n).collect(),
        stats: StatsSnapshot::default(),
    };
    let dir = data.dir.join("probe-ckpt");
    let store = CheckpointStore::new(&dir).expect("checkpoint directory");
    let mut bytes = 0;
    let write_s = probe.time("resil.ckpt_write", probe.light, || {
        let entry = store.write_rank(&state).expect("write checkpoint");
        bytes = entry.bytes;
        store
            .commit_phase(1, 1, fingerprint, vec![entry])
            .expect("commit checkpoint");
    });
    let restore_s = probe.time("resil.ckpt_restore", probe.light, || {
        let manifest = store.manifest(1).expect("read manifest");
        store.load_rank(&manifest, 0).expect("load checkpoint")
    });
    let mib = bytes as f64 / MIB;
    probe.push("resil.ckpt_write_mib_per_s", mib / write_s, "MiB/s");
    probe.push("resil.ckpt_restore_mib_per_s", mib / restore_s, "MiB/s");
    probe.push("resil.ckpt_bytes", bytes as f64, "B");

    let cfg = wl.job_cfg();
    let detect = |probe: &mut Probe, name: &'static str, checkpoints: bool| {
        let mut run = 0;
        probe.time(name, probe.heavy, || {
            run += 1;
            // What the server asks for, each time into an empty directory.
            let resil = if checkpoints {
                ResilOptions {
                    checkpoint: Some(CheckpointOptions::new(dir.join(format!("run-{run}")))),
                    resume: true,
                    record_levels: true,
                    ..ResilOptions::none()
                }
            } else {
                ResilOptions::none()
            };
            let source = GraphSource::SlabRanged(slab);
            run_distributed_resilient_source(source, 2, &cfg, RunConfig::default(), &resil)
                .expect("resilient run")
        })
    };
    let without = detect(probe, "resil.run_plain", false);
    let with = detect(probe, "resil.run_checkpointed", true);
    probe.push("resil.ckpt_overhead_frac", with / without - 1.0, "1");
    std::fs::remove_dir_all(&dir).expect("remove probe checkpoints");
    with
}

/// serve: submit→result latency by job kind, the fingerprint behind
/// every job, and what the server adds to the detection it runs.
fn serve_layer(
    probe: &mut Probe,
    wl: &Workload,
    data: &Data,
    slab: &Path,
    reps: &[Rep],
    with_checkpoints_s: f64,
) {
    let own;
    let passes = if wl.kind == Kind::ServeSsca2Mix {
        reps
    } else {
        // One warm-up pass, discarded like every other first rep.
        own = (0..=probe.heavy)
            .map(|i| serve_pass(wl, slab, &data.dir, probe.spans, "serve.pass", 1_000 + i))
            .collect::<Vec<_>>();
        &own[1..]
    };
    let best = |jobs: fn(&Rep) -> &[f64]| {
        let all: Vec<f64> = passes.iter().flat_map(|p| jobs(p).to_vec()).collect();
        summarize(&all).min * 1e3
    };
    let fresh_ms = best(|p| &p.job_latency[..1]);
    probe.push("serve.fresh_ms", fresh_ms, "ms");
    probe.push("serve.hit_ms", best(|p| &p.job_latency[1..]), "ms");
    probe.push(
        "serve.overhead_ms",
        fresh_ms - with_checkpoints_s * 1e3,
        "ms",
    );
    probe.rows.extend(serve_count_rows(passes));

    let file_mib = std::fs::metadata(slab).expect("stat slab").len() as f64 / MIB;
    let print_s = probe.time("serve.fingerprint", probe.light, || {
        graph_fingerprint(slab).expect("fingerprint slab")
    });
    probe.push("serve.fingerprint_mib_per_s", file_mib / print_s, "MiB/s");
}

/// Mean self time per traced rep of each table span, the `unaccounted`
/// remainder, and whether the table adds up to the reps' wall.
fn self_time_rows(spans: &Spans) -> (Vec<Row>, bool) {
    let list = &spans.list;
    let own = self_ns(list);
    // Span → (its rep span, the table span it counts towards), found by
    // walking up; parents precede children in the list.
    let mut rep_of: Vec<Option<usize>> = vec![None; list.len()];
    let mut owner: Vec<Option<&str>> = vec![None; list.len()];
    let mut totals = [0u64; TABLE_SPANS.len()];
    let (mut unaccounted, mut wall, mut reps) = (0u64, 0u64, 0u64);
    for (i, s) in list.iter().enumerate() {
        match s.parent {
            None if s.name == "rep" => {
                rep_of[i] = Some(i);
                wall += s.dur_ns();
                reps += 1;
            }
            None => {}
            Some(p) => {
                rep_of[i] = rep_of[p];
                owner[i] = owner[p];
            }
        }
        if TABLE_SPANS.contains(&s.name) {
            owner[i] = Some(s.name);
        }
        if rep_of[i].is_none() || !on_chain(s) {
            continue;
        }
        match owner[i].and_then(|name| TABLE_SPANS.iter().position(|t| *t == name)) {
            Some(t) => totals[t] += own[i],
            None => unaccounted += own[i],
        }
    }
    let per_rep_ms = |ns: u64| ns as f64 / 1e6 / reps.max(1) as f64;
    let mut rows: Vec<Row> = TABLE_SPANS
        .iter()
        .zip(totals)
        .map(|(name, ns)| row(format!("trace.{name}_self_ms"), per_rep_ms(ns), "ms"))
        .collect();
    rows.push(row(
        "trace.unaccounted_self_ms",
        per_rep_ms(unaccounted),
        "ms",
    ));
    rows.push(row("trace.rep_wall_ms", per_rep_ms(wall), "ms"));
    let sum = totals.iter().sum::<u64>() + unaccounted;
    // Clamping adopted spans into their parents can only lose time.
    let closes = reps > 0 && sum.abs_diff(wall) as f64 <= 1e-3 * wall as f64;
    (rows, closes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    #[test]
    fn self_time_table_closes_and_folds_unnamed_spans_into_their_owner() {
        let mut spans = Spans::new(true);
        let mk = |name, track, start_ns, end_ns, parent| Span {
            name,
            track,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        };
        spans.list = vec![
            mk("rep", 0, 0, 1_000_000, None),
            mk("load", 0, 0, 100_000, Some(0)),
            mk("run", 0, 200_000, 1_000_000, Some(0)),
            mk("phase", 1, 250_000, 950_000, Some(2)),
            mk("iteration", 1, 300_000, 900_000, Some(3)),
            mk("sweep", 1, 300_000, 700_000, Some(4)),
            mk("wait", 1, 750_000, 850_000, Some(4)),
            // Another rank's copy must not be counted twice.
            mk("sweep", 2, 300_000, 800_000, Some(2)),
            // A probe span outside any rep is not part of the table.
            mk("graph.gen", 0, 2_000_000, 3_000_000, None),
        ];
        let (rows, closes) = self_time_rows(&spans);
        assert!(closes);
        let ms = |name: &str| rows.iter().find(|r| r.name == name).unwrap().value;
        assert_eq!(ms("trace.load_self_ms"), 0.1);
        assert_eq!(ms("trace.sweep_self_ms"), 0.4);
        // iteration = 600 − sweep 400; its `wait` child stays with it.
        assert_eq!(ms("trace.iteration_self_ms"), 0.2);
        // run = 800 − phase 700, plus phase's own 100.
        assert_eq!(ms("trace.run_self_ms"), 0.2);
        assert_eq!(ms("trace.unaccounted_self_ms"), 0.1);
        assert_eq!(ms("trace.rep_wall_ms"), 1.0);
    }
}
