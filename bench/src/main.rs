//! `ladder`: the repo's benchmark. One process per workload; every
//! metric printed as `workload metric value unit`, then one JSON line.
//!
//! ```text
//! ladder [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! ladder --aa RUNS          # two alternating sets of RUNS runs, compared
//! ```
//!
//! Without `--workload` it runs all four, each in a child process.

mod aa;
mod layers;
mod procfs;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use louvain_obs::Json;
use workloads::{Opts, Report, Workload, E2E, RUN_SECONDS, WORKLOADS};

/// Where the benchmark writes: traces, and one scratch directory per
/// process, removed on the way out. Inside the checkout it was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: Option<String>,
    aa: Option<usize>,
    opts: Opts,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        aa: None,
        opts: Opts {
            seed: 5,
            seconds: RUN_SECONDS,
            trace: false,
            quick: false,
        },
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| args.next()) {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                // Any 64-bit integer, signed or not, is a seed.
                let text = value("a number")?;
                parsed.opts.seed = text
                    .parse::<u64>()
                    .or_else(|_| text.parse::<i64>().map(|s| s as u64))
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                parsed.opts.seconds = s;
            }
            "--aa" => {
                parsed.aa = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            // `--trace` alone means on; `--trace 0|1` is the driver's form.
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => parsed.opts.trace = v == "1",
                other => {
                    parsed.opts.trace = true;
                    pending = other;
                }
            },
            "--quick" => parsed.opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if Workload::by_name(name).is_none() {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; known: {known:?}"));
        }
    }
    Ok(parsed)
}

/// Run one workload in this process.
pub fn run_workload(wl: &Workload, opts: &Opts) -> Report {
    let out = out_dir();
    let scratch = Scratch(out.join(format!("work-{}-{}", wl.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create scratch directory");
    if opts.trace {
        let trace_file = out.join(format!("trace_{}.json", wl.name));
        layers::run(wl, opts, &scratch.0, &trace_file)
    } else {
        wl.run(opts, &scratch.0)
    }
}

/// The closing JSON line: the end-to-end metrics of a normal run, the
/// per-layer metrics of a traced one.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics = report
        .rows
        .iter()
        .filter(|r| trace || E2E.iter().any(|(name, _)| *name == r.name))
        .map(|r| {
            let metric = Json::Obj(vec![
                ("value".into(), Json::Num(r.value)),
                ("unit".into(), Json::str(r.unit)),
            ]);
            (r.name.clone(), metric)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.failed == 0)),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_string_compact()
}

/// Run every workload, each in a child process of its own so that the
/// peak-RSS high-water marks do not mix. Fails if any child does.
fn run_all(opts: &Opts) -> bool {
    WORKLOADS.iter().fold(true, |ok, wl| {
        let status = aa::ladder_command(wl.name, opts)
            .status()
            .expect("start child process");
        ok && status.success()
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladder: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.aa, &args.workload) {
        (Some(runs), _) => aa::run(*runs, &args.opts),
        (None, None) => run_all(&args.opts),
        (None, Some(name)) => {
            let wl = Workload::by_name(name).expect("validated by parse_args");
            let report = run_workload(wl, &args.opts);
            for r in &report.rows {
                println!("{} {} {} {}", wl.name, r.name, r.value, r.unit);
            }
            println!("{}", result_line(&report, args.opts.trace));
            report.failed == 0
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
