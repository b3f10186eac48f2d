//! The four workloads: inputs from `--seed`, the set-up a dataset pays
//! once, the detection a rep times, and the checks on what it returns.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use louvain_comm::{CommStep, RunConfig};
use louvain_dist::{
    f_score, nmi, run_distributed, run_distributed_resilient_source, run_distributed_source,
    DistConfig, DistOutcome, GraphSource, ResilOptions, SweepMode, Variant,
};
use louvain_graph::community::{community_sizes, modularity};
use louvain_graph::gen::{
    lfr_stream, rmat_stream, ssca2_stream, LfrParams, RmatParams, Ssca2Params,
};
use louvain_graph::{Csr, EdgeList, EdgeSink, VertexId};
use louvain_obs::Json;
use louvain_serve::{serve_lines, CachedResult, ServeConfig, Server};
use louvain_store::{Slab, SlabBuilder, SlabOptions};

use crate::procfs::cpu_seconds;
use crate::spans::{Open, Spans};
use crate::stats::{summarize, Summary};

/// `run_seconds` of BENCHMARK.json: what the rep counts below measure
/// at. `--seconds` scales the counts in proportion; it never becomes a
/// time budget, which would hand a faster commit more draws at the
/// minimum.
pub const RUN_SECONDS: f64 = 20.0;

/// Complete set-ups per run; `setup_s` is their minimum.
const SETUPS: usize = 3;

const SLAB_FILE: &str = "graph.slab";

/// Lowest NMI against the planted partition on LFR. Louvain merges
/// planted communities below its resolution limit (about 610 found for
/// 2 700 planted), which puts every seed near 0.88.
const NMI_FLOOR: f64 = 0.85;

/// Jobs of one serve pass: one fresh submission, then identical
/// resubmissions the cache answers.
pub const JOBS_PER_PASS: usize = 4;

/// The end-to-end metrics, `(name, unit)`.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("detect_s", "s"),
    ("detect_cpu_s", "s"),
    ("modularity", "1"),
    ("peak_rss_mib", "MiB"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RmatSeqP1,
    RmatEtP2,
    LfrColoredT2,
    ServeSsca2Mix,
}

pub struct Workload {
    pub kind: Kind,
    /// Its `why` is recorded in BENCHMARK.json.
    pub name: &'static str,
    /// Discarded warm-up reps: the first one or two run up to 50 % slow.
    warm: usize,
    /// Timed reps at `RUN_SECONDS`.
    reps: usize,
    /// Sweeps per phase. Left to converge, phase 0 takes 9 to 17 sweeps
    /// depending on the seed (2 to 4 on SSCA#2) and wall follows it by
    /// ±12 %; a cap no higher than the fewest any seed needs makes every
    /// seed do the same number of full sweeps (arcs scanned then agree
    /// within ±2 %), so runs differ by noise, not by seed.
    pub sweep_cap: usize,
    /// Lowest modularity any seed may report.
    q_floor: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::RmatSeqP1,
        name: "rmat_seq_p1",
        warm: 2,
        reps: 14,
        sweep_cap: 6,
        q_floor: 0.09,
    },
    Workload {
        kind: Kind::RmatEtP2,
        name: "rmat_et_p2",
        warm: 2,
        reps: 20,
        sweep_cap: 6,
        q_floor: 0.09,
    },
    Workload {
        kind: Kind::LfrColoredT2,
        name: "lfr_colored_t2",
        warm: 2,
        reps: 14,
        sweep_cap: 6,
        q_floor: 0.85,
    },
    Workload {
        kind: Kind::ServeSsca2Mix,
        name: "serve_ssca2_mix",
        warm: 1,
        reps: 36,
        sweep_cap: 2,
        q_floor: 0.99,
    },
];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn row(name: impl Into<String>, value: f64, unit: &'static str) -> Row {
    Row {
        name: name.into(),
        value,
        unit,
    }
}

pub struct Report {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
}

/// The generator behind a workload; `--seed` reaches nothing else.
#[derive(Clone, Copy)]
pub enum Gen {
    Rmat(RmatParams),
    Lfr(LfrParams),
    Ssca2(Ssca2Params),
}

impl Gen {
    pub fn num_vertices(&self) -> u64 {
        match self {
            Gen::Rmat(p) => 1 << p.scale,
            Gen::Lfr(p) => p.n,
            Gen::Ssca2(p) => p.n,
        }
    }

    /// Emit the edge stream; returns the planted partition if the model
    /// plants one.
    pub fn stream(&self, sink: &mut impl EdgeSink) -> Option<Vec<VertexId>> {
        let sunk = "generated edges are in range";
        match *self {
            Gen::Rmat(p) => rmat_stream(p, sink).map(|()| None).expect(sunk),
            Gen::Lfr(p) => Some(lfr_stream(p, sink).expect(sunk)),
            Gen::Ssca2(p) => Some(ssca2_stream(p, sink).expect(sunk)),
        }
    }
}

/// What a set-up leaves behind for the reps and the checks.
pub struct Data {
    pub gen: Gen,
    /// The resident graph: the source of `rmat_seq_p1`, and for every
    /// workload the reference the output checks recompute against.
    pub csr: Csr,
    pub truth: Option<Vec<VertexId>>,
    /// The ingested slab (absent for `rmat_seq_p1`, which never reads one).
    pub slab: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub dir: PathBuf,
}

/// One timed rep, reduced to what the checks and the metrics need.
pub struct Rep {
    pub wall: f64,
    pub cpu: f64,
    pub modularity: f64,
    pub assignment: Vec<VertexId>,
    pub num_communities: usize,
    /// Operations attempted and failed inside the rep (served jobs);
    /// a direct detection is one operation.
    pub attempted: u64,
    pub failed: u64,
    pub outcome: Option<DistOutcome>,
    /// Submit→result latency of each served job, seconds.
    pub job_latency: Vec<f64>,
    pub cache_hits: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn gen(&self, opts: &Opts) -> Gen {
        let s = opts.seed;
        match (self.kind, opts.quick) {
            (Kind::RmatSeqP1 | Kind::RmatEtP2, false) => Gen::Rmat(RmatParams::social(17, 10, s)),
            (Kind::RmatSeqP1 | Kind::RmatEtP2, true) => Gen::Rmat(RmatParams::social(10, 8, s)),
            (Kind::LfrColoredT2, false) => Gen::Lfr(LfrParams::small(160_000, s.wrapping_add(2))),
            (Kind::LfrColoredT2, true) => Gen::Lfr(LfrParams::small(2_000, s.wrapping_add(2))),
            (Kind::ServeSsca2Mix, false) => {
                Gen::Ssca2(Ssca2Params::paper(45_000, s.wrapping_add(4)))
            }
            (Kind::ServeSsca2Mix, true) => Gen::Ssca2(Ssca2Params::paper(1_500, s.wrapping_add(4))),
        }
    }

    pub fn ranks(&self) -> usize {
        match self.kind {
            Kind::RmatSeqP1 | Kind::LfrColoredT2 => 1,
            Kind::RmatEtP2 | Kind::ServeSsca2Mix => 2,
        }
    }

    /// What a served job runs, on 2 ranks: `serve_pass` submits exactly
    /// this.
    pub fn job_cfg(&self) -> DistConfig {
        DistConfig {
            max_iterations: self.sweep_cap,
            ..DistConfig::with_variant(Variant::Et { alpha: 0.25 })
        }
    }

    pub fn cfg(&self) -> DistConfig {
        let et = Variant::Et { alpha: 0.25 };
        let base = match self.kind {
            Kind::RmatSeqP1 => DistConfig::baseline(),
            Kind::RmatEtP2 => DistConfig {
                delta_ghost_refresh: true,
                ..DistConfig::with_variant(et)
            },
            Kind::LfrColoredT2 => DistConfig {
                threads_per_rank: 2,
                sweep: SweepMode::Colored,
                ..DistConfig::baseline()
            },
            Kind::ServeSsca2Mix => return self.job_cfg(),
        };
        DistConfig {
            max_iterations: self.sweep_cap,
            ..base
        }
    }

    /// Rep counts for this run: the fixed counts, scaled by `--seconds`.
    pub fn rep_counts(&self, opts: &Opts) -> (usize, usize) {
        if opts.quick {
            return (1, 2);
        }
        let scaled = (self.reps as f64 * opts.seconds / RUN_SECONDS).round() as usize;
        (self.warm, scaled.max(3))
    }

    /// One complete set-up into `dir`: everything paid once per dataset,
    /// nothing paid per detection. Returns the resident graph when the
    /// workload detects on one, and the planted partition if any.
    pub fn setup(&self, gen: Gen, dir: &Path) -> (Option<Csr>, Option<Vec<VertexId>>) {
        std::fs::create_dir_all(dir).expect("create set-up directory");
        let n = gen.num_vertices();
        if self.kind == Kind::RmatSeqP1 {
            let mut edges = EdgeList::new(n);
            let truth = gen.stream(&mut edges);
            return (Some(Csr::from_edge_list(edges)), truth);
        }
        let truth = ingest(|b| gen.stream(b), n, dir, &dir.join(SLAB_FILE));
        if self.kind == Kind::ServeSsca2Mix {
            start_server(&dir.join("setup-root")).drain();
        }
        (None, truth)
    }

    /// `SETUPS` complete set-ups into fresh directories; returns the
    /// last one's data and the minimum wall.
    pub fn timed_setups(&self, opts: &Opts, root: &Path) -> (Data, f64) {
        let gen = self.gen(opts);
        let mut walls = Vec::new();
        let mut last = None;
        for i in 0..if opts.quick || opts.trace { 1 } else { SETUPS } {
            if let Some((dir, _)) = last.take() {
                std::fs::remove_dir_all(dir).expect("remove previous set-up");
            }
            let dir = root.join(format!("setup-{i}"));
            let t = Instant::now();
            let made = self.setup(gen, &dir);
            walls.push(t.elapsed().as_secs_f64());
            last = Some((dir, made));
        }
        let (dir, (csr, truth)) = last.expect("at least one set-up");
        let slab = dir.join(SLAB_FILE);
        // Only the checks read the resident copy of a slab workload's
        // graph, so loading it is not part of the set-up.
        let csr = csr.unwrap_or_else(|| Slab::open(&slab).expect("open own slab").to_csr());
        let data = Data {
            gen,
            csr,
            truth,
            slab,
            dir,
        };
        (data, summarize(&walls).min)
    }

    /// One detection, as the workload defines it.
    pub fn detect(&self, data: &Data, spans: &mut Spans, id: usize) -> Rep {
        if self.kind == Kind::ServeSsca2Mix {
            return serve_pass(self, &data.slab, &data.dir, spans, "rep", id);
        }
        let cfg = self.cfg();
        let rep = spans.enter("rep");
        let cpu0 = cpu_seconds();
        let (run, out) = match self.kind {
            Kind::RmatSeqP1 => run_span(spans, || run_distributed(&data.csr, 1, &cfg)),
            Kind::RmatEtP2 => {
                let (_, slab) = spans.timed("load", || Slab::open(&data.slab).expect("open slab"));
                run_span(spans, || {
                    run_distributed_resilient_source(
                        GraphSource::SlabMapped(&slab),
                        2,
                        &cfg,
                        RunConfig::default(),
                        &ResilOptions::none(),
                    )
                    .expect("resilient run")
                })
            }
            Kind::LfrColoredT2 => run_span(spans, || {
                run_distributed_source(
                    GraphSource::SlabRanged(&data.slab),
                    1,
                    &cfg,
                    RunConfig::default(),
                )
                .expect("ranged run")
            }),
            Kind::ServeSsca2Mix => unreachable!("handled above"),
        };
        let cpu = cpu_seconds() - cpu0;
        let wall = spans.exit(rep);
        if let Some(trace) = &out.trace {
            spans.adopt(run, trace);
        }
        Rep {
            wall,
            cpu,
            modularity: out.modularity,
            assignment: out.assignment.clone(),
            num_communities: out.num_communities,
            attempted: 1,
            failed: 0,
            outcome: Some(out),
            job_latency: Vec::new(),
            cache_hits: 0,
        }
    }

    /// The detection without the server around it: what a served job
    /// runs, and for the other workloads the rep itself.
    pub fn direct(&self, data: &Data) -> DistOutcome {
        if self.kind != Kind::ServeSsca2Mix {
            let rep = self.detect(data, &mut Spans::new(false), 0);
            return rep.outcome.expect("direct detections keep their outcome");
        }
        run_distributed_resilient_source(
            GraphSource::SlabRanged(&data.slab),
            2,
            &self.cfg(),
            RunConfig::default(),
            &ResilOptions::none(),
        )
        .expect("direct run")
    }

    /// Does `rep` hold a correct result? `first` is rep 0's partition,
    /// which every later rep must reproduce bit for bit.
    pub fn check(&self, data: &Data, rep: &Rep, first: &Rep, quick: bool) -> bool {
        let n = data.csr.num_vertices();
        let a = &rep.assignment;
        let dense = a.len() == n && a.iter().all(|&c| (c as usize) < rep.num_communities);
        dense
            && community_sizes(a, rep.num_communities)
                .iter()
                .sum::<usize>()
                == n
            && *a == first.assignment
            && rep.modularity.to_bits() == first.modularity.to_bits()
            && (modularity(&data.csr, a) - rep.modularity).abs() <= 1e-9
            && (quick
                || (rep.modularity >= self.q_floor
                    && (self.kind != Kind::LfrColoredT2
                        || nmi(data.truth.as_ref().expect("LFR plants a truth"), a) >= NMI_FLOOR)))
    }

    /// The end-to-end run: set-ups, warm-ups, timed reps, checks.
    pub fn run(&self, opts: &Opts, root: &Path) -> Report {
        let (data, setup_s) = self.timed_setups(opts, root);
        let (warm, reps) = self.rep_counts(opts);
        let mut spans = Spans::new(false);
        // A served job must return what the same detection returns
        // without the server; the other workloads are that detection.
        let direct = (self.kind == Kind::ServeSsca2Mix).then(|| self.direct(&data));
        let mut done: Vec<Rep> = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for i in 0..warm + reps {
            let mut rep = self.detect(&data, &mut spans, i);
            attempted += rep.attempted;
            let wrong = !self.check(&data, &rep, done.first().unwrap_or(&rep), opts.quick)
                || direct
                    .as_ref()
                    .is_some_and(|d| rep.assignment != d.assignment);
            // A wrong result fails its rep once, however many jobs it held.
            failed += rep.failed.max(wrong as u64);
            if i > 0 {
                rep.outcome = None;
            }
            done.push(rep);
        }
        let timed = &done[warm..];
        let mut rows = vec![
            row("setup_s", setup_s, "s"),
            row("detect_s", summary(timed, |r| r.wall).min, "s"),
            row("detect_cpu_s", summary(timed, |r| r.cpu).min, "s"),
            row("modularity", done[0].modularity, "1"),
            row("peak_rss_mib", peak_rss_mib(), "MiB"),
        ];
        rows.extend(run_rows(timed, attempted, failed));
        let counted = direct.as_ref().or(done[0].outcome.as_ref());
        rows.extend(count_rows(counted.expect("a detection to count")));
        if let Some(truth) = &data.truth {
            rows.extend(quality_rows(truth, &done[0].assignment));
        }
        if self.kind == Kind::ServeSsca2Mix {
            rows.extend(serve_count_rows(timed));
        }
        Report {
            rows,
            attempted,
            failed,
        }
    }
}

pub fn summary(reps: &[Rep], of: fn(&Rep) -> f64) -> Summary {
    summarize(&reps.iter().map(of).collect::<Vec<_>>())
}

/// Diagnostics of the timed reps: not end-to-end metrics, because the
/// noise of a shared host only ever adds time.
pub fn run_rows(timed: &[Rep], attempted: u64, failed: u64) -> Vec<Row> {
    let wall = summary(timed, |r| r.wall);
    vec![
        row("run.detect_med_s", wall.med, "s"),
        row("run.detect_max_s", wall.max, "s"),
        row("run.ops_attempted", attempted as f64, "count"),
        row("run.ops_failed", failed as f64, "count"),
    ]
}

pub fn quality_rows(reference: &[VertexId], detected: &[VertexId]) -> Vec<Row> {
    vec![
        row("core.nmi", nmi(reference, detected), "1"),
        row("core.f_score", f_score(reference, detected).f_score, "1"),
    ]
}

pub fn peak_rss_mib() -> f64 {
    louvain_obs::peak_rss_bytes() as f64 / (1 << 20) as f64
}

fn run_span(spans: &mut Spans, f: impl FnOnce() -> DistOutcome) -> (Open, DistOutcome) {
    let run = spans.enter("run");
    let out = f();
    spans.exit(run);
    (run, out)
}

/// Stream edges into a `SlabBuilder` spilling under `dir`, and finish
/// the slab at `path`.
pub fn ingest<T>(feed: impl FnOnce(&mut SlabBuilder) -> T, n: u64, dir: &Path, path: &Path) -> T {
    let mut builder = SlabBuilder::new(
        n,
        SlabOptions {
            tmp_dir: Some(dir.to_path_buf()),
            ..SlabOptions::default()
        },
    );
    let out = feed(&mut builder);
    builder.finish(path).expect("write slab");
    out
}

fn start_server(checkpoint_root: &Path) -> Server {
    Server::start(ServeConfig {
        workers: 1,
        checkpoint_root: checkpoint_root.to_path_buf(),
        ..ServeConfig::default()
    })
}

/// The exactly-repeating counts of one detection.
pub fn count_rows(out: &DistOutcome) -> Vec<Row> {
    let scanned: u64 = out
        .per_rank_stats
        .iter()
        .flatten()
        .map(|p| p.compute.edges_scanned)
        .sum();
    let bytes = |step| out.traffic.step_bytes_for(step) as f64;
    vec![
        row("core.iterations", out.total_iterations as f64, "count"),
        row("core.phases", out.phases as f64, "count"),
        row("core.edges_scanned", scanned as f64, "count"),
        row("core.communities", out.num_communities as f64, "count"),
        row("comm.refresh_bytes", bytes(CommStep::GhostRefresh), "count"),
        row("comm.delta_push_bytes", bytes(CommStep::DeltaPush), "count"),
        row("comm.pull_bytes", bytes(CommStep::CommunityPull), "count"),
        row(
            "comm.p2p_messages",
            out.traffic.p2p_messages as f64,
            "count",
        ),
        row(
            "comm.collective_calls",
            out.traffic.collective_calls as f64,
            "count",
        ),
    ]
}

pub fn serve_count_rows(passes: &[Rep]) -> Vec<Row> {
    let sum = |f: fn(&Rep) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    vec![
        row("serve.jobs_attempted", sum(|r| r.attempted), "count"),
        row("serve.jobs_failed", sum(|r| r.failed), "count"),
        row("serve.cache_hits", sum(|r| r.cache_hits), "count"),
    ]
}

/// One closed-loop pass against a new server with an empty checkpoint
/// root: one client, `JOBS_PER_PASS` identical submissions over a pipe
/// pair, each awaited to its result line.
pub fn serve_pass(
    wl: &Workload,
    slab: &Path,
    dir: &Path,
    spans: &mut Spans,
    span: &'static str,
    id: usize,
) -> Rep {
    let root = dir.join(format!("pass-{id}"));
    let pass = spans.enter(span);
    let cpu0 = cpu_seconds();
    let server = start_server(&root);
    let (request_rx, mut request_tx) = std::io::pipe().expect("request pipe");
    let (reply_rx, reply_tx) = std::io::pipe().expect("reply pipe");
    let session = {
        let server = server.clone();
        std::thread::spawn(move || {
            serve_lines(
                &server,
                BufReader::new(request_rx),
                Arc::new(Mutex::new(reply_tx)),
            )
        })
    };
    let mut replies = BufReader::new(reply_rx).lines();
    let mut job_latency = Vec::new();
    let mut results: Vec<Json> = Vec::new();
    for job in 0..JOBS_PER_PASS {
        let submit = Json::Obj(vec![
            ("type".into(), Json::str("submit")),
            ("job_id".into(), Json::str(format!("pass{id}-job{job}"))),
            ("graph".into(), Json::str(slab.to_string_lossy())),
            ("ranks".into(), Json::Num(wl.ranks() as f64)),
            (
                "config".into(),
                Json::Obj(vec![
                    ("variant".into(), Json::str("et:0.25")),
                    ("max_iterations".into(), Json::Num(wl.sweep_cap as f64)),
                ]),
            ),
        ]);
        let name = if job == 0 {
            "submit_fresh"
        } else {
            "submit_hit"
        };
        let (latency, result) = spans.timed(name, || {
            writeln!(request_tx, "{}", submit.to_string_compact()).expect("send submit");
            loop {
                let line = replies
                    .next()
                    .expect("server closed the session")
                    .expect("read reply");
                let reply = Json::parse(&line).expect("reply is JSON");
                match reply.get("type").and_then(Json::as_str) {
                    Some("accepted") => {}
                    _ => break reply,
                }
            }
        });
        job_latency.push(latency);
        results.push(result);
    }
    let cpu = cpu_seconds() - cpu0;
    let wall = spans.exit(pass);

    // Everything below is checking and teardown, outside the pass.
    let served: Vec<Option<Arc<CachedResult>>> = (0..JOBS_PER_PASS)
        .map(|job| server.query(&format!("pass{id}-job{job}")))
        .collect();
    drop(request_tx);
    session.join().expect("session thread");
    server.drain();
    std::fs::remove_dir_all(&root).expect("remove checkpoint root");

    let fresh = served[0].clone();
    let mut failed = 0;
    let mut cache_hits = 0;
    for (job, (line, result)) in results.iter().zip(&served).enumerate() {
        let done = line.get("outcome").and_then(Json::as_str) == Some("done");
        let cached = line.get("cached") == Some(&Json::Bool(job > 0));
        let same = match (result, &fresh) {
            (Some(r), Some(f)) => {
                r.assignment == f.assignment
                    && r.modularity.to_bits() == f.modularity.to_bits()
                    && line.get("modularity").and_then(Json::as_f64) == Some(f.modularity)
            }
            _ => false,
        };
        if done && cached && job > 0 {
            cache_hits += 1;
        }
        if !(done && cached && same) {
            failed += 1;
        }
    }
    let (modularity, assignment, num_communities) = fresh.map_or((f64::NAN, Vec::new(), 0), |f| {
        (f.modularity, f.assignment.clone(), f.num_communities)
    });
    Rep {
        wall,
        cpu,
        modularity,
        assignment,
        num_communities,
        attempted: JOBS_PER_PASS as u64,
        failed,
        outcome: None,
        job_latency,
        cache_hits,
    }
}
