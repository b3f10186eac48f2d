//! `louvaind` — the fault-tolerant Louvain job server.
//!
//! ```text
//! louvaind serve --listen 127.0.0.1:7077 --workers 2
//! louvaind submit --addr 127.0.0.1:7077 --job-id a --graph g.slab --ranks 2
//! louvaind query --addr 127.0.0.1:7077 --job-id a
//! ```
//!
//! `serve` speaks the JSON-lines protocol of `louvain_serve::proto` over
//! stdin (the default: one session on the pipe) or TCP (`--listen`,
//! accepting any number of concurrent sessions). SIGTERM/SIGINT drain
//! in-flight jobs to a phase-boundary checkpoint before exit, so a
//! killed daemon's jobs resume from their newest manifest when
//! resubmitted — never from scratch.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use distributed_louvain::cli::Args;
use distributed_louvain::dist::SweepMode;
use distributed_louvain::obs::Json;
use distributed_louvain::serve::{serve_lines, ServeConfig, Server};

const USAGE: &str = "\
louvaind — fault-tolerant job server for distributed Louvain

USAGE:
  louvaind serve [--listen <HOST:PORT>] [--workers <N>] [--queue-depth <N>]
                 [--cache <N>] [--ckpt-root <DIR>] [--quarantine-after <N>]
                 [--crash-budget <N>] [--hang-budget <N>] [--verbose]
                 [--event-log <FILE>] [--event-log-max-bytes <N>]
                 [--flight-dir <DIR>] [--flight-events <N>]
      Run the daemon. Without --listen it serves one JSON-lines session
      on stdin/stdout; with --listen it accepts TCP sessions (port 0
      picks a free port; the bound address is printed on startup).
      SIGTERM/SIGINT drain in-flight jobs to a phase-boundary
      checkpoint, dump the flight recorder, then exit cleanly.
      --event-log appends every operational event as one JSON line
      (rotated at --event-log-max-bytes, default 1 MiB); a panic also
      dumps the flight recorder (last --flight-events events plus a
      metrics snapshot) into --flight-dir before the process dies.

  louvaind submit --addr <HOST:PORT> --job-id <ID> --graph <FILE>
                  [--ranks <N>] [--variant <V>] [--threads <N>]
                  [--sweep auto|colored] [--seed <S>]
                  [--max-phases <N>] [--fault <PLAN>]
                  [--crash-budget <N>] [--hang-budget <N>]
      Submit one job over TCP and print every response line until the
      job is terminal (accepted, then result).

  louvaind query --addr <HOST:PORT> --job-id <ID>
      Fetch a finished job's dendrogram (per-level assignments).

  louvaind watch --addr <HOST:PORT> --job-id <ID>
      Stream the job's per-(phase, iteration) progress lines — replayed
      history first, then live — until its terminal result line.

  louvaind metrics --addr <HOST:PORT>
      Print the daemon's live metrics as Prometheus exposition text
      (the same text `GET /metrics` on the daemon port returns).

  louvaind dump --addr <HOST:PORT>
      Ask the daemon to dump its flight recorder to disk now; prints
      the dump's path.

The wire protocol is one JSON object per line; see DESIGN.md §14.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("dump") => cmd_dump(&args[1..]),
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

// ---------------------------------------------------------------------------
// Signals: typed declaration (no libc crate in the build environment).
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> isize;
    }

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Install SIGTERM (15) and SIGINT (2) handlers that set a flag the
    /// serve loops poll; the drain itself runs on a normal thread.
    pub fn install() {
        unsafe {
            signal(15, on_term);
            signal(2, on_term);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn termed() -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        verbose: args.has("--verbose"),
        ..ServeConfig::default()
    };
    let set = |key: &str, dst: &mut usize| -> Result<(), String> {
        if let Some(v) = args.parse(key)? {
            *dst = v;
        }
        Ok(())
    };
    set("--workers", &mut cfg.workers)?;
    set("--queue-depth", &mut cfg.queue_depth)?;
    set("--cache", &mut cfg.cache_capacity)?;
    set("--quarantine-after", &mut cfg.quarantine_after)?;
    set("--crash-budget", &mut cfg.max_crash_recoveries)?;
    set("--hang-budget", &mut cfg.max_hang_recoveries)?;
    set("--flight-events", &mut cfg.flight_capacity)?;
    if let Some(v) = args.parse("--event-log-max-bytes")? {
        cfg.event_log_max_bytes = v;
    }
    if let Some(dir) = args.get("--ckpt-root") {
        cfg.checkpoint_root = PathBuf::from(dir);
    }
    cfg.event_log = args.get("--event-log").map(PathBuf::from);
    cfg.flight_dir = args.get("--flight-dir").map(PathBuf::from);
    Ok(cfg)
}

/// Dump the flight recorder, logging where it landed (or why not).
fn dump_flight(server: &Server, reason: &str) {
    match server.dump_flight(reason) {
        Ok(path) => eprintln!("louvaind: flight recorder dumped to {}", path.display()),
        Err(e) => eprintln!("louvaind: flight dump failed: {e}"),
    }
}

/// Chain a panic hook that dumps the flight recorder before the default
/// hook prints the panic. Worker panics are caught and mapped to job
/// failures, so reaching this hook means the daemon itself is dying —
/// the dump is the post-mortem: the last N operational events plus a
/// metrics snapshot, written atomically so a half-dead process cannot
/// leave a torn file.
fn install_flight_panic_hook(server: &Server) {
    let server = server.clone();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        dump_flight(&server, "panic");
        previous(info);
    }));
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let values = [
        "--listen",
        "--workers",
        "--queue-depth",
        "--cache",
        "--ckpt-root",
        "--quarantine-after",
        "--crash-budget",
        "--hang-budget",
        "--event-log",
        "--event-log-max-bytes",
        "--flight-dir",
        "--flight-events",
    ];
    let args = Args::scan(args, &values, &["--verbose"])?;
    sig::install();
    let cfg = serve_config(&args)?;
    let server = Server::start(cfg);
    install_flight_panic_hook(&server);
    match args.get("--listen") {
        Some(addr) => serve_tcp(&server, addr),
        None => serve_stdin(&server),
    }
}

/// One JSON-lines session on the stdin/stdout pipe. The reader thread
/// blocks on stdin; the main thread polls the TERM flag so a signal
/// drains and exits even while the pipe is idle.
fn serve_stdin(server: &Server) -> Result<(), String> {
    let writer = Arc::new(Mutex::new(std::io::stdout()));
    let done = Arc::new(AtomicBool::new(false));
    let session = {
        let server = server.clone();
        let writer = writer.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let shutdown = serve_lines(&server, std::io::stdin().lock(), writer);
            done.store(true, Ordering::SeqCst);
            shutdown
        })
    };
    loop {
        if done.load(Ordering::SeqCst) {
            // Session ended: a `shutdown` request already drained; a
            // plain EOF has not.
            let shutdown = session.join().unwrap_or(false);
            if !shutdown {
                server.drain();
            }
            return Ok(());
        }
        if sig::termed() {
            eprintln!("louvaind: signal received, draining");
            server.drain();
            // The drain events are in the ring before the dump, so the
            // post-mortem shows what was shed on the way out.
            dump_flight(server, "sigterm");
            // The session thread may still be blocked on stdin; the
            // process exits regardless — all jobs are checkpointed.
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// TCP listener: nonblocking accept loop polling the TERM flag, one
/// session thread per connection. Any session's `shutdown` request
/// drains the pool and stops the listener.
fn serve_tcp(server: &Server, addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("louvaind listening on {local}");
    std::io::stdout().flush().ok();
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut sessions = Vec::new();
    loop {
        if sig::termed() || shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let server = server.clone();
                let shutdown = shutdown.clone();
                sessions.push(std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    stream.set_nonblocking(false).ok();
                    read_half.set_nonblocking(false).ok();
                    let writer = Arc::new(Mutex::new(stream));
                    if serve_lines(&server, BufReader::new(read_half), writer) {
                        shutdown.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    let termed = sig::termed();
    if termed {
        eprintln!("louvaind: signal received, draining");
    }
    server.drain();
    if termed {
        dump_flight(server, "sigterm");
    }
    for s in sessions {
        let _ = s.join();
    }
    println!("louvaind drained, exiting");
    Ok(())
}

// ---------------------------------------------------------------------------
// submit / query (TCP clients)
// ---------------------------------------------------------------------------

fn connect(args: &Args) -> Result<TcpStream, String> {
    let addr = args.require("--addr")?;
    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Scan a client subcommand that takes `--addr` and `--job-id`.
fn job_client_args(args: &[String]) -> Result<Args<'_>, String> {
    Args::scan(args, &["--addr", "--job-id"], &[])
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let values = [
        "--addr",
        "--job-id",
        "--graph",
        "--ranks",
        "--variant",
        "--threads",
        "--sweep",
        "--seed",
        "--max-phases",
        "--fault",
        "--crash-budget",
        "--hang-budget",
    ];
    let args = Args::scan(args, &values, &[])?;
    let job_id = args.require("--job-id")?;
    let graph = args.require("--graph")?;
    let graph = std::fs::canonicalize(graph)
        .map_err(|e| format!("{graph}: {e}"))?
        .to_string_lossy()
        .into_owned();
    let num = |key: &str| -> Result<Option<Json>, String> {
        Ok(args.parse::<usize>(key)?.map(|v| Json::Num(v as f64)))
    };

    let mut config: Vec<(String, Json)> = Vec::new();
    if let Some(v) = args.get("--variant") {
        config.push(("variant".into(), Json::str(v)));
    }
    if let Some(v) = args.get("--sweep") {
        SweepMode::parse(v).map_err(|e| format!("--sweep: {e}"))?;
        config.push(("sweep".into(), Json::str(v)));
    }
    for (flag, key) in [
        ("--threads", "threads_per_rank"),
        ("--seed", "seed"),
        ("--max-phases", "max_phases"),
    ] {
        if let Some(v) = num(flag)? {
            config.push((key.into(), v));
        }
    }

    let mut req: Vec<(String, Json)> = vec![
        ("type".into(), Json::str("submit")),
        ("job_id".into(), Json::str(job_id)),
        ("graph".into(), Json::str(graph)),
    ];
    if let Some(v) = num("--ranks")? {
        req.push(("ranks".into(), v));
    }
    if !config.is_empty() {
        req.push(("config".into(), Json::Obj(config)));
    }
    if let Some(plan) = args.get("--fault") {
        req.push(("fault_plan".into(), Json::str(plan)));
    }
    for (flag, key) in [
        ("--crash-budget", "max_crash_recoveries"),
        ("--hang-budget", "max_hang_recoveries"),
    ] {
        if let Some(v) = num(flag)? {
            req.push((key.into(), v));
        }
    }

    let stream = connect(&args)?;
    talk(stream, &Json::Obj(req), |line| {
        // Stop once the submission is terminal: a result for our job,
        // a rejection, or a protocol error.
        matches!(
            line.get("type").and_then(Json::as_str),
            Some("result" | "rejected" | "error")
        )
    })
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let args = job_client_args(args)?;
    let req = Json::Obj(vec![
        ("type".into(), Json::str("query")),
        ("job_id".into(), Json::str(args.require("--job-id")?)),
    ]);
    let stream = connect(&args)?;
    talk(stream, &req, |_| true)
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let args = job_client_args(args)?;
    let req = Json::Obj(vec![
        ("type".into(), Json::str("watch")),
        ("job_id".into(), Json::str(args.require("--job-id")?)),
    ]);
    let stream = connect(&args)?;
    talk(stream, &req, |line| {
        // The stream closes with the job's terminal result line (or an
        // error for an unknown job).
        matches!(
            line.get("type").and_then(Json::as_str),
            Some("result" | "error")
        )
    })
}

/// Fetch the daemon's live metrics and print them as Prometheus text —
/// the decoded `text` field, not the JSON envelope, so the output pipes
/// straight into promtool or a file.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let mut stream = connect(&Args::scan(args, &["--addr"], &[])?)?;
    let req = Json::Obj(vec![("type".into(), Json::str("metrics-text"))]);
    writeln!(stream, "{}", req.to_string_compact()).map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let doc = Json::parse(line.trim()).map_err(|e| format!("bad response line: {e}"))?;
    match doc.get("type").and_then(Json::as_str) {
        Some("metrics_text") => {
            let text = doc
                .get("text")
                .and_then(Json::as_str)
                .ok_or("metrics_text response has no `text`")?;
            print!("{text}");
            Ok(())
        }
        Some("error") => Err(doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("daemon returned an error")
            .to_string()),
        _ => Err(format!("unexpected response: {}", line.trim())),
    }
}

fn cmd_dump(args: &[String]) -> Result<(), String> {
    let stream = connect(&Args::scan(args, &["--addr"], &[])?)?;
    let req = Json::Obj(vec![("type".into(), Json::str("dump"))]);
    talk(stream, &req, |_| true)
}

/// Send one request line, print response lines until `done` says stop.
fn talk(mut stream: TcpStream, req: &Json, done: impl Fn(&Json) -> bool) -> Result<(), String> {
    writeln!(stream, "{}", req.to_string_compact()).map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    for line in reader.lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        println!("{line}");
        let doc = Json::parse(&line).map_err(|e| format!("bad response line: {e}"))?;
        if done(&doc) {
            return Ok(());
        }
    }
    Err("connection closed before a terminal response".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_commands_refuse_unknown_flags_before_connecting() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let err = cmd_submit(&s(&["--addr", "127.0.0.1:1", "--rank", "2"])).unwrap_err();
        assert!(err.contains("--rank"), "unexpected error: {err}");
        let submit = ["--addr", "127.0.0.1:1", "--job-id", "j", "--graph", "."];
        let err = cmd_submit(&s(&[&submit[..], &["--sweep", "relaxed"]].concat())).unwrap_err();
        assert!(
            err.starts_with("--sweep") && err.contains("relaxed"),
            "{err}"
        );
        let err = cmd_query(&s(&["--addr", "127.0.0.1:1", "--job-id"])).unwrap_err();
        assert!(err.contains("--job-id"), "unexpected error: {err}");
        let err = cmd_serve(&s(&["--workers", "many"])).unwrap_err();
        assert!(err.contains("--workers") && err.contains("many"), "{err}");
    }
}
