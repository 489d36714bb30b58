//! The line-oriented text protocol spoken over TCP.
//!
//! Requests are single lines; responses are `ok ...` or `err <message>`
//! lines, with two multi-line forms (`list`, `stream`) terminated by an
//! `end` line:
//!
//! ```text
//! ping                      -> ok pong
//! submit job v1 name=...    -> ok <16-hex job id>
//! status <id>               -> ok id=... name=... status=... health=...
//!                              generations=... candidates=...
//!                              evaluations=... cache_hits=...
//!                              screened=... [error=...]
//! health <id>               -> ok <healthy|stalled|faulty|done|failed>
//! list                      -> ok <count>
//!                              job <id> <name> <status> <health>   (xN)
//!                              end
//! stream <id>               -> ok streaming
//!                              event <RunEvent JSONL>              (xN)
//!                              end <final status>
//! cancel <id>               -> ok cancelled
//! metrics                   -> ok metrics
//!                              <Prometheus text exposition>     (xN)
//!                              end
//! metrics json              -> ok <canonical JSON snapshot>
//! debug <id>                -> ok recorded=<n> dropped=<n> hub_dropped=<n>
//!                              stage <name> <total nanos>       (x5)
//!                              event <RunEvent JSONL>           (xN)
//!                              end
//! shutdown                  -> ok shutting-down
//! ```
//!
//! Every reply is written into one per-connection buffer and flushed
//! once it is complete (a `stream` flushes once per poll batch, so live
//! events still arrive promptly), on a socket with `TCP_NODELAY` set: a
//! reply leaves as one segment instead of waiting ~40 ms for the
//! client's delayed ACK. A request line may be at most
//! [`MAX_REQUEST_LINE`] bytes; a longer one is answered with one
//! `err request line exceeds ...` line and the connection is closed.

use std::io::{BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::server::{FlightReport, JobView, Server};
use crate::spec::{JobId, JobSpec};

/// How long a stream poll blocks before re-checking for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest request line accepted, in bytes without its `\n` (the longest
/// valid request, a `submit` line, is a few hundred bytes).
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// Serves one client connection until it closes, errors, or the server
/// shuts down. Intended to run on its own thread.
pub fn handle_connection(server: &Server, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut out = match stream.try_clone() {
        Ok(out) => BufWriter::new(out),
        Err(_) => return,
    };
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Extract complete lines before reading more, so a timeout can
        // never drop partially-received bytes.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if pos > MAX_REQUEST_LINE {
                break;
            }
            let raw: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&raw);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let open = handle_line(server, line, &mut out);
            if out.flush().is_err() || !open {
                return;
            }
        }
        if buf.len() > MAX_REQUEST_LINE {
            let _ = writeln!(out, "err request line exceeds {MAX_REQUEST_LINE} bytes");
            let _ = out.flush();
            return;
        }
        if server.is_shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Dispatches one request line, writing its whole reply into `out`;
/// returns `false` when the connection should close. The caller flushes.
fn handle_line(server: &Server, line: &str, out: &mut dyn Write) -> bool {
    let (cmd, rest) = match line.split_once(' ') {
        Some((cmd, rest)) => (cmd, rest.trim()),
        None => (line, ""),
    };
    let reply = match cmd {
        "ping" => Ok("ok pong".to_string()),
        "submit" => JobSpec::parse(rest)
            .and_then(|spec| server.submit(spec))
            .map(|id| format!("ok {id}")),
        "status" => JobId::parse(rest)
            .and_then(|id| server.status(id))
            .map(|v| {
                let mut line = format!(
                    "ok id={} name={} status={} health={} generations={} candidates={} evaluations={} cache_hits={} screened={}",
                    v.id,
                    v.name,
                    v.status.token(),
                    v.health.token(),
                    v.generations,
                    v.candidates,
                    v.evaluations,
                    v.cache_hits,
                    v.screened,
                );
                if let Some(err) = &v.error {
                    line.push_str(&format!(" error={}", one_line(err)));
                }
                line
            }),
        "health" => JobId::parse(rest)
            .and_then(|id| server.health(id))
            .map(|h| format!("ok {}", h.token())),
        "cancel" => JobId::parse(rest)
            .and_then(|id| server.cancel(id))
            .map(|()| "ok cancelled".to_string()),
        "list" => return write_list(out, &server.list()).is_ok(),
        "stream" => return stream_job(server, rest, out),
        "metrics" => match rest {
            "" => return write_metrics(out, &server.metrics_text()).is_ok(),
            "json" => Ok(format!("ok {}", server.metrics_json())),
            other => Err(crate::error::ServerError::InvalidSpec(format!(
                "metrics takes no argument or 'json', got {other:?}"
            ))),
        },
        "debug" => match JobId::parse(rest).and_then(|id| server.debug_report(id)) {
            Ok(report) => return write_debug(out, &report).is_ok(),
            Err(e) => Err(e),
        },
        "shutdown" => {
            let _ = writeln!(out, "ok shutting-down");
            server.request_shutdown();
            return false;
        }
        other => Err(crate::error::ServerError::InvalidSpec(format!(
            "unknown command {other:?}"
        ))),
    };
    match reply {
        Ok(ok) => writeln!(out, "{ok}"),
        Err(e) => writeln!(out, "err {}", one_line(&e.to_string())),
    }
    .is_ok()
}

fn write_list(out: &mut dyn Write, views: &[JobView]) -> std::io::Result<()> {
    writeln!(out, "ok {}", views.len())?;
    for v in views {
        writeln!(
            out,
            "job {} {} {} {}",
            v.id,
            v.name,
            v.status.token(),
            v.health.token()
        )?;
    }
    writeln!(out, "end")
}

fn write_metrics(out: &mut dyn Write, text: &str) -> std::io::Result<()> {
    out.write_all(b"ok metrics\n")?;
    out.write_all(text.as_bytes())?;
    out.write_all(b"end\n")
}

fn write_debug(out: &mut dyn Write, r: &FlightReport) -> std::io::Result<()> {
    writeln!(
        out,
        "ok recorded={} dropped={} hub_dropped={}",
        r.lines.len(),
        r.dropped,
        r.hub_dropped
    )?;
    for stage in engine::Stage::ALL {
        writeln!(out, "stage {} {}", stage.name(), r.stages.get(stage))?;
    }
    for line in &r.lines {
        writeln!(out, "event {line}")?;
    }
    writeln!(out, "end")
}

/// Streams a job's progress: replays its history, then follows live
/// until the job terminates or the server shuts down, flushing after
/// every poll batch.
fn stream_job(server: &Server, rest: &str, out: &mut dyn Write) -> bool {
    let id = match JobId::parse(rest).and_then(|id| server.status(id).map(|_| id)) {
        Ok(id) => id,
        Err(e) => return writeln!(out, "err {}", one_line(&e.to_string())).is_ok(),
    };
    if writeln!(out, "ok streaming").is_err() {
        return false;
    }
    let mut cursor = 0u64;
    loop {
        let poll = match server.poll_progress(id, cursor, POLL_INTERVAL) {
            Ok(poll) => poll,
            Err(e) => return writeln!(out, "err {}", one_line(&e.to_string())).is_ok(),
        };
        for line in &poll.lines {
            if writeln!(out, "event {line}").is_err() {
                return false;
            }
        }
        cursor = poll.next;
        if poll.done {
            let status = server
                .status(id)
                .map(|v| v.status.token())
                .unwrap_or("unknown");
            return writeln!(out, "end {status}").is_ok();
        }
        if server.is_shutting_down() {
            return writeln!(out, "end shutdown").is_ok();
        }
        if out.flush().is_err() {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::spec::{AlgoSpec, ProblemSpec};

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dse-server-proto-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reply(server: &Server, line: &str) -> String {
        let mut out = Vec::new();
        handle_line(server, line, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn submit_status_health_list_round_trip() {
        let root = tmp_root("roundtrip");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        assert_eq!(reply(&server, "ping"), "ok pong\n");
        let spec = JobSpec::new(
            "proto",
            ProblemSpec::Schaffer,
            AlgoSpec::Nsga2 { pop: 12, gens: 3 },
            7,
        );
        let resp = reply(&server, &format!("submit {}", spec.canonical()));
        let id = resp.trim().strip_prefix("ok ").unwrap().to_string();
        assert_eq!(id, spec.id().to_string());
        server.run_until_idle().unwrap();
        let status = reply(&server, &format!("status {id}"));
        assert!(status.contains("status=done"), "{status}");
        assert!(status.contains("health=done"), "{status}");
        assert_eq!(reply(&server, &format!("health {id}")), "ok done\n");
        let list = reply(&server, "list");
        assert!(list.starts_with("ok 1\n"), "{list}");
        assert!(
            list.contains(&format!("job {id} proto done done")),
            "{list}"
        );
        assert!(list.trim_end().ends_with("end"), "{list}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn errors_are_single_err_lines() {
        let root = tmp_root("errors");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        assert!(reply(&server, "status zzz").starts_with("err "));
        assert!(reply(&server, "bogus").starts_with("err "));
        assert!(reply(&server, "submit job v1 name=x").starts_with("err "));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_and_debug_commands_round_trip() {
        let root = tmp_root("metrics");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = JobSpec::new(
            "m",
            ProblemSpec::Schaffer,
            AlgoSpec::Sacga {
                pop: 16,
                gens: 4,
                parts: 4,
            },
            7,
        );
        let id = server.submit(spec).unwrap();
        server.run_until_idle().unwrap();
        let scrape = reply(&server, "metrics");
        assert!(scrape.starts_with("ok metrics\n"), "{scrape}");
        assert!(scrape.contains("# TYPE dse_engine_candidates_total counter"));
        assert!(scrape.trim_end().ends_with("end"), "{scrape}");
        let json = reply(&server, "metrics json");
        assert!(json.starts_with("ok {\"metrics\":["), "{json}");
        assert_eq!(json.lines().count(), 1);
        assert!(reply(&server, "metrics bogus").starts_with("err "));
        let debug = reply(&server, &format!("debug {id}"));
        assert!(debug.starts_with("ok recorded="), "{debug}");
        assert!(debug.contains("stage evaluation "), "{debug}");
        assert!(debug.contains("event {"), "{debug}");
        assert!(debug.trim_end().ends_with("end"), "{debug}");
        assert!(reply(&server, "debug zzz").starts_with("err "));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stream_of_finished_job_replays_and_ends() {
        let root = tmp_root("stream");
        let server = Server::open(&root, ServerConfig::new()).unwrap();
        let spec = JobSpec::new(
            "s",
            ProblemSpec::Schaffer,
            AlgoSpec::Nsga2 { pop: 12, gens: 3 },
            7,
        );
        let id = server.submit(spec).unwrap();
        server.run_until_idle().unwrap();
        let resp = reply(&server, &format!("stream {id}"));
        assert!(resp.starts_with("ok streaming\n"), "{resp}");
        assert!(resp.contains("event {"), "{resp}");
        assert!(resp.trim_end().ends_with("end done"), "{resp}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
