//! `lens` — run-artifact analytics for the distributed Louvain repo.
//!
//! ```text
//! lens show run.json
//! lens diff before.json after.json
//! lens crit run.json
//! ```
//!
//! Every input goes through [`RunArtifact::from_json_str`]: only `LVRA`
//! run artifacts (`louvain run --artifact-out`) are read.

use std::path::Path;
use std::process::ExitCode;

use distributed_louvain::cli::Args;
use distributed_louvain::obs::RunArtifact;
use louvain_lens::{crit, diff, show};

const USAGE: &str = "\
lens — run-artifact analytics (convergence tables, diffs, critical path)

USAGE:
  lens show <ARTIFACT>
      Human summary: one block per run; traced runs get a sparkline
      convergence table (modularity, delta-Q, moves, active fraction,
      community count, ghost bytes per iteration) and a memory line from
      the mem.* gauges: heap bytes of the ranks' starting CSRs,
      mmap-resident bytes, bytes-per-edge, and peak RSS. Every run gets
      the exact min / median / max of the ranks' total traffic.

  lens diff <BASELINE> <CURRENT>
      Match runs by label and tabulate wall / bytes / modularity /
      iterations, a→b, plus the labels only one side has.
      Deterministic: same inputs, byte-identical output. It judges
      nothing: perf is gated by the bench/ ladder, determinism by the
      tests/parity.rs pins.

  lens crit <ARTIFACT>
      Cross-rank critical-path analysis over each traced run's phase
      profile: per-phase compute/transfer/wait/rebuild attribution
      along the slowest-rank chain, and straggler blame — the rank with
      the most self time (compute + transfer + rebuild; blocked wait
      is victim time and does not count). Errors (nonzero exit) when
      no run carries a phase profile (`louvain run --trace-out`).

  lens top <ADDR|FILE> [--watch <SECS>]
      One-screen ops dashboard over a live daemon's metrics: queue
      depth, running jobs, admission/cache counters, and the
      job-latency percentiles. <ADDR> (host:port) fetches over the
      daemon's JSON-lines port; <FILE> reads saved Prometheus text.
      --watch refreshes every SECS seconds until interrupted.

  lens tail <EVENT-LOG> [--kind <KIND>] [--job <ID>]
      Pretty-print a daemon's JSONL event log (--event-log), one
      aligned line per event, filterable by snake_case event kind
      (job_accepted, job_shed, phase_completed, drain_begin, ...) and
      by job id. An unterminated final line (kill -9 mid-write) is
      tolerated; any other malformed line is an error.

show, diff and crit read RunArtifact documents (`louvain run
--artifact-out`).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("show") => run(cmd_show(&args[1..])),
        Some("diff") => run(cmd_diff(&args[1..])),
        Some("crit") => run(cmd_crit(&args[1..])),
        Some("top") => run(cmd_top(&args[1..])),
        Some("tail") => run(cmd_tail(&args[1..])),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn run(r: Result<(), String>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<RunArtifact, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    RunArtifact::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let args = Args::scan(args, &[], &[])?;
    let [path] = args.positionals()[..] else {
        return Err("usage: lens show <ARTIFACT>".into());
    };
    print!("{}", show(&load(path)?));
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let args = Args::scan(args, &[], &[])?;
    let [a, b] = args.positionals()[..] else {
        return Err("usage: lens diff <BASELINE> <CURRENT>".into());
    };
    print!("{}", diff(&load(a)?, &load(b)?).render());
    Ok(())
}

fn cmd_crit(args: &[String]) -> Result<(), String> {
    let args = Args::scan(args, &[], &[])?;
    let [path] = args.positionals()[..] else {
        return Err("usage: lens crit <ARTIFACT>".into());
    };
    print!("{}", crit(&load(path)?)?.render());
    Ok(())
}

/// Fetch Prometheus exposition text from `source`: an existing file is
/// read; anything else must look like host:port and is queried over the
/// daemon's JSON-lines port with a `metrics-text` request.
fn fetch_metrics_text(source: &str) -> Result<String, String> {
    if Path::new(source).exists() {
        return std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"));
    }
    if !source.contains(':') {
        return Err(format!("{source}: not a file, and not a host:port address"));
    }
    use std::io::{BufRead as _, BufReader, Write as _};
    let mut stream = std::net::TcpStream::connect(source).map_err(|e| format!("{source}: {e}"))?;
    writeln!(stream, "{{\"type\":\"metrics-text\"}}").map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    let doc = distributed_louvain::obs::Json::parse(line.trim())
        .map_err(|e| format!("bad response line: {e:?}"))?;
    use distributed_louvain::obs::Json;
    match doc.get("type").and_then(Json::as_str) {
        Some("metrics_text") => doc
            .get("text")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "metrics_text response has no `text`".into()),
        Some("error") => Err(doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("daemon returned an error")
            .to_string()),
        _ => Err(format!("unexpected response: {}", line.trim())),
    }
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let args = Args::scan(args, &["--watch"], &[])?;
    let [source] = args.positionals()[..] else {
        return Err("usage: lens top <ADDR|FILE> [--watch <SECS>]".into());
    };
    let watch_secs: Option<u64> = args.parse("--watch")?;
    loop {
        let text = fetch_metrics_text(source)?;
        let metrics = distributed_louvain::obs::parse_prometheus_text(&text)?;
        print!("{}", louvain_lens::render_top(&metrics));
        let Some(secs) = watch_secs else {
            return Ok(());
        };
        println!("---");
        std::thread::sleep(std::time::Duration::from_secs(secs.max(1)));
    }
}

fn cmd_tail(args: &[String]) -> Result<(), String> {
    let args = Args::scan(args, &["--kind", "--job"], &[])?;
    let [path] = args.positionals()[..] else {
        return Err("usage: lens tail <EVENT-LOG> [--kind <KIND>] [--job <ID>]".into());
    };
    let kind = args.get("--kind");
    if let Some(k) = kind {
        if distributed_louvain::obs::OpKind::parse(k).is_none() {
            return Err(format!("unknown event kind `{k}`"));
        }
    }
    let job = args.get("--job");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = louvain_lens::parse_event_log(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", louvain_lens::render_tail(&events, kind, job));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn a_misspelt_threshold_flag_is_refused_not_defaulted() {
        // `diff` and `crit` judge nothing, so every threshold or baseline
        // flag, spelt right or not, is an unknown option named in the
        // error — never silently ignored.
        type Cmd = fn(&[String]) -> Result<(), String>;
        let cases: [(Cmd, &[&str]); 5] = [
            (cmd_diff, &["a.json", "b.json", "--wal-tol", "4"]),
            (cmd_diff, &["a.json", "b.json", "--wall-tol", "4"]),
            (cmd_diff, &["a.json", "b.json", "--mod-drop", "0.01"]),
            (cmd_crit, &["a.json", "--baseline", "b.json"]),
            (cmd_crit, &["a.json", "--wait-tol", "0.25"]),
        ];
        for (cmd, argv) in cases {
            let flag = argv[argv.len() - 2];
            let err = cmd(&s(argv)).unwrap_err();
            assert!(err.contains(flag), "{argv:?}: unexpected error: {err}");
        }
    }

    #[test]
    fn show_diff_crit_on_real_artifacts() {
        // End-to-end over an artifact file, as the CLI reads one.
        use distributed_louvain::obs::{RunEntry, RunReport, StatsSnapshot};
        let artifact = RunArtifact {
            name: "hand-built".into(),
            description: String::new(),
            runs: vec![RunEntry {
                label: "g/p2/delta".into(),
                report: RunReport {
                    graph: "g".into(),
                    ranks: 2,
                    modularity: 0.8,
                    iterations: 12,
                    wall_seconds: 0.2,
                    traffic: StatsSnapshot {
                        p2p_bytes: 10_000,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                telemetry: Vec::new(),
            }],
        };
        let path = std::env::temp_dir().join(format!("lens-cli-{}.json", std::process::id()));
        std::fs::write(&path, artifact.to_json_string()).unwrap();
        let file = path.to_str().unwrap();
        assert_eq!(load(file).unwrap().runs.len(), 1);

        cmd_show(&s(&[file])).unwrap();
        cmd_diff(&s(&[file, file])).unwrap();
        // No phase profile in a hand-built report: crit says so.
        let err = cmd_crit(&s(&[file])).unwrap_err();
        assert!(err.contains("no runs with a phase profile"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
