//! The JSON-lines wire protocol `louvaind` speaks over stdin pipes and
//! TCP connections.
//!
//! Requests, one JSON object per line:
//!
//! * `{"type":"submit", "job_id":"...", "graph":"...", "ranks":2,
//!    "config":{...}, "fault_plan":"...", ...}` — answered immediately
//!   with `accepted` or `rejected` (admission control never blocks the
//!   listener), then with a `result` line once the job is terminal.
//! * `{"type":"status", "job_id":"..."}` — current lifecycle state,
//!   including queue position (queued jobs) and current
//!   phase/iteration/modularity (running jobs).
//! * `{"type":"query", "job_id":"..."}` — the dendrogram (per-level
//!   assignments) of a finished job, from the result cache.
//! * `{"type":"metrics-text"}` — the full live snapshot rendered as
//!   Prometheus exposition text (in a `metrics_text` response line).
//! * `{"type":"watch", "job_id":"..."}` — subscribe to the job's
//!   per-(phase, iteration) progress stream: replayed + live `progress`
//!   lines, closed by the job's terminal `result` line.
//! * `{"type":"dump"}` — dump the flight recorder to disk on demand.
//! * `{"type":"shutdown"}` — drain in-flight jobs to a phase-boundary
//!   checkpoint, answer `drained`, and close the session.
//!
//! Unknown or unparsable lines are answered with a typed `error` line;
//! the session stays up. As a convenience for scrapers, a session whose
//! first line is `GET /metrics ...` is treated as a plain HTTP request:
//! it gets the Prometheus text back as an HTTP response and the session
//! closes.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use louvain_obs::{Json, TelemetryRow};

use crate::job::JobSpec;
use crate::server::{JobStatus, Server, SubmitError};

fn error_line(message: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("error")),
        ("message", Json::str(message)),
    ])
}

/// Encode a terminal (or in-flight, for `status`) job state.
pub fn status_json(job_id: &str, seq: Option<u64>, status: &JobStatus) -> Json {
    let mut members = vec![("type", Json::str("result")), ("job_id", Json::str(job_id))];
    if let Some(seq) = seq {
        members.push(("seq", Json::uint(seq)));
    }
    match status {
        JobStatus::Queued => members.push(("outcome", Json::str("queued"))),
        JobStatus::Running => members.push(("outcome", Json::str("running"))),
        JobStatus::Done {
            cached,
            resumed_from_phase,
            crash_recoveries,
            hang_recoveries,
            wall_ms,
            result,
        } => {
            members.push(("outcome", Json::str("done")));
            members.push(("cached", Json::Bool(*cached)));
            members.push((
                "resumed_from_phase",
                resumed_from_phase.map_or(Json::Null, Json::uint),
            ));
            members.push(("crash_recoveries", Json::uint(*crash_recoveries)));
            members.push(("hang_recoveries", Json::uint(*hang_recoveries)));
            members.push(("wall_ms", Json::uint(*wall_ms)));
            members.push(("modularity", Json::Num(result.modularity)));
            members.push(("num_communities", Json::uint(result.num_communities as u64)));
            members.push(("phases", Json::uint(result.phases as u64)));
            members.push(("levels", Json::uint(result.levels.len() as u64)));
        }
        JobStatus::Failed { error, attempts } => {
            members.push(("outcome", Json::str("failed")));
            members.push(("error", Json::str(error.clone())));
            members.push(("attempts", Json::uint(*attempts as u64)));
        }
        JobStatus::Quarantined { error, attempts } => {
            members.push(("outcome", Json::str("quarantined")));
            members.push(("error", Json::str(error.clone())));
            members.push(("attempts", Json::uint(*attempts as u64)));
        }
        JobStatus::Cancelled { at_phase } => {
            members.push(("outcome", Json::str("cancelled")));
            members.push(("at_phase", at_phase.map_or(Json::Null, Json::uint)));
        }
    }
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One per-(phase, iteration) progress line for `watch` subscribers.
pub fn progress_json(job_id: &str, row: &TelemetryRow) -> Json {
    Json::obj(vec![
        ("type", Json::str("progress")),
        ("job_id", Json::str(job_id)),
        ("phase", Json::uint(row.phase)),
        ("iteration", Json::uint(row.iteration)),
        ("modularity", Json::Num(row.modularity)),
        ("delta_q", Json::Num(row.delta_q)),
        ("moves", Json::uint(row.moves)),
        ("active", Json::uint(row.active)),
        ("vertices", Json::uint(row.vertices)),
        ("active_fraction", Json::Num(row.active_fraction())),
    ])
}

fn write_line<W: Write>(writer: &Arc<Mutex<W>>, doc: &Json) {
    let mut w = writer.lock().unwrap();
    let _ = writeln!(w, "{}", doc.to_string_compact());
    let _ = w.flush();
}

/// Answer a plain `GET /metrics` HTTP request on the JSON-lines port —
/// enough for a Prometheus scraper pointed straight at the daemon. Any
/// other path gets a 404. The session closes after one response, as
/// HTTP/1.0 clients expect.
fn serve_http_get<W: Write>(server: &Server, request_line: &str, writer: &Arc<Mutex<W>>) {
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        match server.prometheus_text() {
            Ok(text) => ("200 OK", text),
            Err(e) => ("500 Internal Server Error", format!("{e}\n")),
        }
    } else {
        ("404 Not Found", "only /metrics is served\n".to_string())
    };
    let mut w = writer.lock().unwrap();
    let _ = write!(
        w,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = w.flush();
}

/// Serve one JSON-lines session: read requests from `reader`, write
/// responses to the shared `writer` (shared because result lines for
/// accepted jobs arrive asynchronously, from waiter threads). Returns
/// `true` when the client requested shutdown — the server is already
/// drained in that case.
pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
    server: &Server,
    reader: R,
    writer: Arc<Mutex<W>>,
) -> bool {
    let mut waiters: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut shutdown = false;
    let mut first = true;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if first && line.starts_with("GET ") {
            serve_http_get(server, &line, &writer);
            return false;
        }
        first = false;
        if line.trim().is_empty() {
            continue;
        }
        match handle_line(server, &line, &writer, &mut waiters) {
            SessionStep::Continue => {}
            SessionStep::Shutdown => {
                shutdown = true;
                break;
            }
        }
    }
    if shutdown {
        // Drain before answering so "drained" really means drained:
        // queued jobs shed, running jobs checkpointed and stopped.
        server.drain();
    }
    for h in waiters {
        let _ = h.join();
    }
    if shutdown {
        write_line(&writer, &Json::obj(vec![("type", Json::str("drained"))]));
    }
    shutdown
}

enum SessionStep {
    Continue,
    Shutdown,
}

fn handle_line<W: Write + Send + 'static>(
    server: &Server,
    line: &str,
    writer: &Arc<Mutex<W>>,
    waiters: &mut Vec<std::thread::JoinHandle<()>>,
) -> SessionStep {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => {
            write_line(writer, &error_line(&format!("bad request line: {e}")));
            return SessionStep::Continue;
        }
    };
    let Some(ty) = doc.get("type").and_then(Json::as_str) else {
        write_line(writer, &error_line("request has no string field `type`"));
        return SessionStep::Continue;
    };
    match ty {
        "submit" => {
            let spec = match JobSpec::from_json(&doc) {
                Ok(s) => s,
                Err(e) => {
                    write_line(writer, &error_line(&e));
                    return SessionStep::Continue;
                }
            };
            let job_id = spec.job_id.clone();
            match server.submit(spec) {
                Ok(seq) => {
                    write_line(
                        writer,
                        &Json::obj(vec![
                            ("type", Json::str("accepted")),
                            ("job_id", Json::str(job_id.clone())),
                            ("seq", Json::uint(seq)),
                        ]),
                    );
                    let server = server.clone();
                    let writer = writer.clone();
                    waiters.push(std::thread::spawn(move || {
                        if let Some(status) = server.wait(seq) {
                            write_line(&writer, &status_json(&job_id, Some(seq), &status));
                        }
                    }));
                }
                Err(e) => {
                    let reason = match &e {
                        SubmitError::QueueFull => "queue_full".to_string(),
                        SubmitError::ShuttingDown => "shutting_down".to_string(),
                        SubmitError::Invalid(msg) => format!("invalid: {msg}"),
                    };
                    write_line(
                        writer,
                        &Json::obj(vec![
                            ("type", Json::str("rejected")),
                            ("job_id", Json::str(job_id)),
                            ("reason", Json::str(reason)),
                        ]),
                    );
                }
            }
        }
        "status" => {
            let Some(job_id) = doc.get("job_id").and_then(Json::as_str) else {
                write_line(writer, &error_line("status needs `job_id`"));
                return SessionStep::Continue;
            };
            let detail = server
                .seq_of(job_id)
                .and_then(|seq| server.status_detail(seq));
            match detail {
                Some(d) => {
                    let mut line = status_json(job_id, None, &d.status);
                    if let Json::Obj(members) = &mut line {
                        if let Some(pos) = d.queue_position {
                            members.push(("queue_position".to_string(), Json::uint(pos as u64)));
                        }
                        // Only in-flight jobs report a current position;
                        // terminal lines already carry their final
                        // modularity/phases fields.
                        if matches!(d.status, JobStatus::Running) {
                            if let Some((phase, iteration, modularity)) = d.current {
                                members.push(("phase".to_string(), Json::uint(phase)));
                                members.push(("iteration".to_string(), Json::uint(iteration)));
                                members.push(("modularity".to_string(), Json::Num(modularity)));
                            }
                        }
                    }
                    write_line(writer, &line);
                }
                None => write_line(writer, &error_line(&format!("unknown job `{job_id}`"))),
            }
        }
        "query" => {
            let Some(job_id) = doc.get("job_id").and_then(Json::as_str) else {
                write_line(writer, &error_line("query needs `job_id`"));
                return SessionStep::Continue;
            };
            match server.query(job_id) {
                Some(result) => {
                    let levels = Json::Arr(
                        result
                            .levels
                            .iter()
                            .map(|level| Json::Arr(level.iter().map(|&c| Json::uint(c)).collect()))
                            .collect(),
                    );
                    write_line(
                        writer,
                        &Json::obj(vec![
                            ("type", Json::str("hierarchy")),
                            ("job_id", Json::str(job_id)),
                            ("modularity", Json::Num(result.modularity)),
                            ("num_communities", Json::uint(result.num_communities as u64)),
                            ("levels", levels),
                        ]),
                    );
                }
                None => write_line(
                    writer,
                    &error_line(&format!("no finished result for job `{job_id}`")),
                ),
            }
        }
        "metrics-text" => match server.prometheus_text() {
            Ok(text) => write_line(
                writer,
                &Json::obj(vec![
                    ("type", Json::str("metrics_text")),
                    ("text", Json::str(text)),
                ]),
            ),
            Err(e) => write_line(writer, &error_line(&e)),
        },
        "watch" => {
            let Some(job_id) = doc.get("job_id").and_then(Json::as_str) else {
                write_line(writer, &error_line("watch needs `job_id`"));
                return SessionStep::Continue;
            };
            let Some(seq) = server.seq_of(job_id) else {
                write_line(writer, &error_line(&format!("unknown job `{job_id}`")));
                return SessionStep::Continue;
            };
            // Subscribe before the first status check so no row can slip
            // between the replay and the live stream.
            let Some((replay, rx)) = server.watch(seq) else {
                write_line(writer, &error_line(&format!("unknown job `{job_id}`")));
                return SessionStep::Continue;
            };
            write_line(
                writer,
                &Json::obj(vec![
                    ("type", Json::str("watching")),
                    ("job_id", Json::str(job_id)),
                    ("seq", Json::uint(seq)),
                ]),
            );
            for row in &replay {
                write_line(writer, &progress_json(job_id, row));
            }
            loop {
                match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(row) => write_line(writer, &progress_json(job_id, &row)),
                    Err(err) => match server.status(seq) {
                        None => break,
                        Some(JobStatus::Queued) | Some(JobStatus::Running) => {
                            // A dropped sender with the job still in
                            // flight means it is between attempts; fall
                            // back to polling on the timer.
                            if err == std::sync::mpsc::RecvTimeoutError::Disconnected {
                                std::thread::sleep(Duration::from_millis(50));
                            }
                        }
                        Some(status) => {
                            // Rows buffered ahead of the terminal
                            // transition are still in the channel: the
                            // sink pushes every row before the status
                            // flips, so draining here keeps the stream
                            // complete.
                            while let Ok(row) = rx.try_recv() {
                                write_line(writer, &progress_json(job_id, &row));
                            }
                            write_line(writer, &status_json(job_id, Some(seq), &status));
                            break;
                        }
                    },
                }
            }
        }
        "dump" => match server.dump_flight("on_demand") {
            Ok(path) => write_line(
                writer,
                &Json::obj(vec![
                    ("type", Json::str("flight")),
                    ("path", Json::str(path.to_string_lossy().into_owned())),
                ]),
            ),
            Err(e) => write_line(writer, &error_line(&format!("flight dump failed: {e}"))),
        },
        "shutdown" => return SessionStep::Shutdown,
        other => {
            write_line(
                writer,
                &error_line(&format!("unknown request type `{other}`")),
            );
        }
    }
    SessionStep::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use louvain_graph::gen;
    use louvain_store::{SlabBuilder, SlabOptions};
    use std::io::Cursor;
    use std::path::PathBuf;

    /// Empties `dir` first: the server resumes a job from whatever
    /// checkpoints its directory holds, and an earlier build's run may
    /// have left some of another format version there.
    fn tiny_graph(dir: &std::path::Path) -> PathBuf {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("lfr_tiny.slab");
        let mut b = SlabBuilder::new(300, SlabOptions::default());
        gen::lfr_stream(gen::LfrParams::small(300, 7), &mut b).unwrap();
        b.finish(&path).unwrap();
        path
    }

    fn session_output(server: &Server, script: &str) -> (bool, Vec<Json>) {
        let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
        let shutdown = serve_lines(server, Cursor::new(script.to_string()), writer.clone());
        let bytes = writer.lock().unwrap().clone();
        let lines = String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every response line is JSON"))
            .collect();
        (shutdown, lines)
    }

    #[test]
    fn session_runs_submit_status_query_shutdown() {
        let root = std::env::temp_dir().join("louvain-serve-proto-test");
        let graph = tiny_graph(&root);
        let server = Server::start(ServeConfig {
            workers: 1,
            checkpoint_root: root.join("ckpt"),
            ..ServeConfig::default()
        });
        // Session 1: submit and wait — serve_lines joins the waiter
        // thread before returning, so the result line is in the output.
        let script = format!(
            r#"{{"type":"submit","job_id":"a","graph":{:?},"ranks":2,"config":{{"max_phases":3}}}}"#,
            graph.to_string_lossy()
        ) + "\n";
        let (shutdown, lines) = session_output(&server, &script);
        assert!(!shutdown);
        assert_eq!(
            lines[0].get("type").and_then(Json::as_str),
            Some("accepted")
        );
        let result = lines
            .iter()
            .find(|l| l.get("type").and_then(Json::as_str) == Some("result"))
            .expect("a result line arrives once the job is terminal");
        assert_eq!(result.get("outcome").and_then(Json::as_str), Some("done"));
        assert!(result.get("modularity").and_then(Json::as_f64).unwrap() > 0.0);

        // Session 2: query the dendrogram, then shut down.
        let script = "{\"type\":\"query\",\"job_id\":\"a\"}\n{\"type\":\"shutdown\"}\n";
        let (shutdown, lines) = session_output(&server, script);
        assert!(shutdown);
        let hierarchy = &lines[0];
        assert_eq!(
            hierarchy.get("type").and_then(Json::as_str),
            Some("hierarchy")
        );
        let levels = hierarchy.get("levels").and_then(Json::as_arr).unwrap();
        assert!(!levels.is_empty(), "dendrogram has at least one level");
        assert_eq!(levels[0].as_arr().unwrap().len(), 300);
        assert_eq!(
            lines.last().unwrap().get("type").and_then(Json::as_str),
            Some("drained")
        );

        // Follow-up session against a drained server: submits are shed.
        let (shutdown, lines) = session_output(
            &server,
            &format!(
                "{{\"type\":\"submit\",\"job_id\":\"b\",\"graph\":{:?}}}\n",
                graph.to_string_lossy()
            ),
        );
        assert!(!shutdown);
        assert_eq!(
            lines[0].get("type").and_then(Json::as_str),
            Some("rejected")
        );
        assert_eq!(
            lines[0].get("reason").and_then(Json::as_str),
            Some("shutting_down")
        );
    }

    #[test]
    fn metrics_text_and_dump_verbs_round_trip() {
        let root = std::env::temp_dir().join("louvain-serve-proto-ops-test");
        let _ = std::fs::remove_dir_all(&root);
        let server = Server::start(ServeConfig {
            workers: 0,
            checkpoint_root: root.join("ckpt"),
            ..ServeConfig::default()
        });
        let (shutdown, lines) = session_output(
            &server,
            "{\"type\":\"metrics-text\"}\n{\"type\":\"dump\"}\n",
        );
        assert!(!shutdown);
        assert_eq!(lines.len(), 2);

        assert_eq!(
            lines[0].get("type").and_then(Json::as_str),
            Some("metrics_text")
        );
        let text = lines[0].get("text").and_then(Json::as_str).unwrap();
        let parsed = louvain_obs::parse_prometheus_text(text).unwrap();
        assert!(
            parsed.keys().any(|k| k.starts_with("serve_queue_depth")),
            "exposition carries the serve gauges: {:?}",
            parsed.keys().take(8).collect::<Vec<_>>()
        );

        assert_eq!(lines[1].get("type").and_then(Json::as_str), Some("flight"));
        let path = lines[1].get("path").and_then(Json::as_str).unwrap();
        let doc = std::fs::read_to_string(path).unwrap();
        let (reason, last_seq, events) = louvain_obs::parse_flight_dump(&doc).unwrap();
        assert_eq!(reason, "on_demand");
        assert_eq!(last_seq, events.last().map(|e| e.seq).unwrap_or(0));
        server.drain();
    }

    #[test]
    fn http_get_on_the_json_port_serves_metrics() {
        let server = Server::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let raw = |script: &str| {
            let writer = Arc::new(Mutex::new(Vec::<u8>::new()));
            let shutdown = serve_lines(&server, Cursor::new(script.to_string()), writer.clone());
            assert!(!shutdown, "an HTTP session never drains the server");
            let bytes = writer.lock().unwrap().clone();
            String::from_utf8(bytes).unwrap()
        };

        let response = raw("GET /metrics HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        louvain_obs::parse_prometheus_text(body).unwrap();

        let response = raw("GET /nope HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");

        // `GET ` only short-circuits on the *first* line: later lines
        // that merely look like HTTP still get a JSON error.
        let response = raw("{\"type\":\"metrics-text\"}\nGET /metrics HTTP/1.0\n");
        assert!(
            response.starts_with("{\"type\":\"metrics_text\""),
            "{response}"
        );
        assert!(response.contains("bad request line"), "{response}");
        server.drain();
    }

    #[test]
    fn watch_replays_rows_and_closes_with_the_result_line() {
        let root = std::env::temp_dir().join("louvain-serve-proto-watch-test");
        let graph = tiny_graph(&root);
        let server = Server::start(ServeConfig {
            workers: 1,
            checkpoint_root: root.join("ckpt"),
            ..ServeConfig::default()
        });
        let script = format!(
            r#"{{"type":"submit","job_id":"w","graph":{:?},"ranks":2,"config":{{"max_phases":2}}}}"#,
            graph.to_string_lossy()
        ) + "\n";
        let (_, lines) = session_output(&server, &script);
        assert_eq!(
            lines.last().unwrap().get("outcome").and_then(Json::as_str),
            Some("done")
        );

        // Watching the finished job replays the full progress history,
        // then closes with its terminal result line.
        let (shutdown, lines) = session_output(&server, "{\"type\":\"watch\",\"job_id\":\"w\"}\n");
        assert!(!shutdown);
        assert_eq!(
            lines[0].get("type").and_then(Json::as_str),
            Some("watching")
        );
        let progress: Vec<_> = lines
            .iter()
            .filter(|l| l.get("type").and_then(Json::as_str) == Some("progress"))
            .collect();
        assert!(!progress.is_empty(), "a finished job has progress rows");
        for p in &progress {
            assert!(p.get("modularity").and_then(Json::as_f64).is_some());
            assert!(p.get("active_fraction").and_then(Json::as_f64).is_some());
        }
        let last = lines.last().unwrap();
        assert_eq!(last.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(last.get("outcome").and_then(Json::as_str), Some("done"));

        let (_, lines) = session_output(&server, "{\"type\":\"watch\",\"job_id\":\"nope\"}\n");
        assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("error"));
        server.drain();
    }

    #[test]
    fn bad_lines_get_typed_errors_and_do_not_kill_the_session() {
        let server = Server::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let script = "not json\n{\"no_type\":1}\n{\"type\":\"frobnicate\"}\n\
                      {\"type\":\"status\",\"job_id\":\"nope\"}\n";
        let (shutdown, lines) = session_output(&server, script);
        assert!(!shutdown);
        assert_eq!(lines.len(), 4);
        for l in &lines {
            assert_eq!(l.get("type").and_then(Json::as_str), Some("error"));
        }
        server.drain();
    }

    /// A submit asking for more rank or worker threads than the fixed
    /// bounds is refused by field name before anything is spawned, and
    /// the session serves the next line.
    #[test]
    fn over_limit_submits_are_refused_and_the_session_goes_on() {
        let server = Server::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let script = "{\"type\":\"submit\",\"job_id\":\"a\",\"graph\":\"g\",\"ranks\":1000000}\n\
                      {\"type\":\"submit\",\"job_id\":\"b\",\"graph\":\"g\",\
                       \"config\":{\"threads_per_rank\":1000000}}\n\
                      {\"type\":\"status\",\"job_id\":\"a\"}\n";
        let (shutdown, lines) = session_output(&server, script);
        assert!(!shutdown);
        assert_eq!(lines.len(), 3);
        for (line, field) in lines.iter().zip(["`ranks`", "`config.threads_per_rank`"]) {
            assert_eq!(line.get("type").and_then(Json::as_str), Some("error"));
            let message = line.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(field), "{message}");
        }
        // Neither job was admitted, and the third line was still served.
        let message = lines[2].get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("unknown job"), "{message}");

        // A hand-built spec meets the same check at `submit`, typed.
        let spec = crate::JobSpec {
            job_id: "c".into(),
            graph: "g".into(),
            ranks: crate::job::MAX_RANKS + 1,
            cfg: louvain_dist::DistConfig::baseline(),
            fault_plan: None,
            max_crash_recoveries: None,
            max_hang_recoveries: None,
        };
        match server.submit(spec) {
            Err(SubmitError::Invalid(msg)) => assert!(msg.contains("`ranks`"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        server.drain();
    }
}
