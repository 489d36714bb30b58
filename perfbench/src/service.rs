//! The `service-sweeps` workload: an in-process `dse-server` serving
//! the line protocol on loopback to a closed loop of client
//! connections, each submitting a sweep of jobs and streaming every job
//! to its `end` line before submitting the next sweep.

use crate::stats::{median, mix, peak_rss_mb, tail, Metrics};
use crate::trace::Tracer;
use crate::Outcome;
use campaign::CellResult;
use dse_server::spec::CellTopo;
use dse_server::{AlgoSpec, JobId, JobSpec, JobStatus, ProblemSpec, Server, ServerConfig};
use moea::hypervolume::hypervolume_2d;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client connections in the closed loop (one thread each).
const CLIENTS: usize = 2;
/// Every job shares one tenant, so its cache is shared across clients.
const TENANT: &str = "bench";
/// Generations per slice: jobs checkpoint every `SLICE` generations and
/// yield their worker whenever the queue is contended.
const SLICE: usize = 5;
/// Completed jobs in the store a restarted daemon opens (set-up).
const STORED_JOBS: usize = 48;
/// Server opens timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Consecutive sweeps of one client that make one fixed budget
/// (`run_wall_s`).
const BLOCK: usize = 4;
/// Every client completes at least this many sweeps, so each arm's
/// first job exists for the output checks.
const MIN_SWEEPS: usize = 2;
/// Cheap-objective problem of three jobs per sweep.
const CHEAP: ProblemSpec = ProblemSpec::Zdt1(30);
/// Tenant cache capacity of `ServerConfig::new()`.
const TENANT_CAPACITY: u64 = 1 << 16;

/// The five cheap-objective arms a sweep rotates through (the arms
/// that accept a tenant cache).
fn cheap_algo(i: usize) -> AlgoSpec {
    match i % 5 {
        0 => AlgoSpec::Sacga {
            pop: 32,
            gens: 30,
            parts: 4,
        },
        1 => AlgoSpec::Steady {
            pop: 32,
            gens: 30,
            parts: 4,
            window: 32,
            quantum: 8,
        },
        2 => AlgoSpec::Nsga2 { pop: 32, gens: 30 },
        3 => AlgoSpec::Cellular {
            pop: 32,
            gens: 30,
            topo: CellTopo::Torus,
            cells: 4,
            radius: 1,
            interval: 10,
            migrants: 1,
            open: 25,
            aniso: 50,
        },
        _ => AlgoSpec::Mesacga { pop: 32, span: 4 },
    }
}

/// The short circuit job of every sweep.
fn drivable_algo() -> AlgoSpec {
    AlgoSpec::Sacga {
        pop: 16,
        gens: 2,
        parts: 4,
    }
}

/// One planned job.
#[derive(Debug, Clone)]
struct Planned {
    spec: JobSpec,
    repeat: bool,
}

fn job_seed(seed: u64, client: usize, sweep: usize, slot: usize) -> u64 {
    mix(
        seed,
        ((client as u64) << 40) | ((sweep as u64) << 4) | slot as u64,
    )
}

/// Sweep `k` of client `c`: cheap arms `3k + c`, `3k + c + 1` and
/// `3k + c + 2` (mod 5), then the drivable job. From the second sweep
/// on, the third job repeats the first job of the previous sweep (same
/// arm, seed and problem) under a new name, so the tenant cache can
/// answer it.
fn sweep(seed: u64, client: usize, k: usize, prefix: &str) -> Vec<Planned> {
    let name = |slot: usize| format!("{prefix}c{client}s{k}j{slot}");
    let base = 3 * k + client;
    let cheap = |slot: usize, seed: u64| {
        JobSpec::new(name(slot), CHEAP, cheap_algo(base + slot), seed)
            .tenant(TENANT)
            .slice(SLICE)
    };
    let third = if k == 0 {
        Planned {
            spec: cheap(2, job_seed(seed, client, k, 2)),
            repeat: false,
        }
    } else {
        Planned {
            spec: cheap(2, job_seed(seed, client, k - 1, 0)),
            repeat: true,
        }
    };
    vec![
        Planned {
            spec: cheap(0, job_seed(seed, client, k, 0)),
            repeat: false,
        },
        Planned {
            spec: cheap(1, job_seed(seed, client, k, 1)),
            repeat: false,
        },
        third,
        Planned {
            spec: JobSpec::new(
                name(3),
                ProblemSpec::Drivable,
                drivable_algo(),
                job_seed(seed, client, k, 3),
            )
            .tenant(TENANT)
            .slice(SLICE),
            repeat: false,
        },
    ]
}

/// One line-protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What a client saw of one job.
#[derive(Debug, Clone)]
struct JobRec {
    planned: Planned,
    id: Option<JobId>,
    submit_rtt_s: f64,
    /// Seconds from the submit ack to the first streamed event.
    queue_wait_s: Option<f64>,
    /// Seconds from the first streamed event to the `end` line.
    run_s: Option<f64>,
    events: u64,
    bytes: u64,
    end: String,
}

/// One completed sweep.
#[derive(Debug, Clone)]
struct SweepRec {
    client: usize,
    k: usize,
    start_s: f64,
    end_s: f64,
    jobs: Vec<JobRec>,
}

/// Runs one client's closed loop until `deadline` (at least
/// [`MIN_SWEEPS`] sweeps), recording protocol spans when traced.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    conn: &mut Conn,
    client: usize,
    seed: u64,
    prefix: &str,
    epoch: Instant,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Vec<SweepRec> {
    let mut sweeps = Vec::new();
    for k in 0.. {
        if k >= MIN_SWEEPS && Instant::now() >= deadline {
            break;
        }
        let trace = ((client as u64) << 32) | k as u64;
        let sweep_span = tracer.map(|t| (t.reserve(), t.now_ns()));
        let parent = sweep_span.map(|(id, _)| id);
        let start_s = epoch.elapsed().as_secs_f64();
        let mut jobs = Vec::new();
        for planned in sweep(seed, client, k, prefix) {
            let t0 = Instant::now();
            let reply = span(tracer, parent, trace, "server.submit", || {
                conn.send(&format!("submit {}", planned.spec.canonical()))?;
                conn.line()
            });
            let submit_rtt_s = t0.elapsed().as_secs_f64();
            let id = match &reply {
                Ok(line) => line
                    .strip_prefix("ok ")
                    .and_then(|id| JobId::parse(id).ok()),
                Err(_) => None,
            };
            if id.is_none() {
                eprintln!(
                    "check failed: submit of {} refused: {reply:?}",
                    planned.spec.name
                );
            }
            jobs.push((planned, id, submit_rtt_s, Instant::now()));
        }
        let mut recs = Vec::new();
        for (planned, id, submit_rtt_s, acked) in jobs {
            let mut rec = JobRec {
                planned,
                id,
                submit_rtt_s,
                queue_wait_s: None,
                run_s: None,
                events: 0,
                bytes: 0,
                end: "refused".into(),
            };
            if let Some(id) = id {
                let streamed = span(tracer, parent, trace, "server.stream", || {
                    stream(conn, id, acked, &mut rec)
                });
                if let Err(e) = streamed {
                    eprintln!("check failed: stream of {id}: {e}");
                    rec.end = "broken".into();
                }
            }
            recs.push(rec);
        }
        let end_s = epoch.elapsed().as_secs_f64();
        if let (Some(t), Some((id, start_ns))) = (tracer, sweep_span) {
            t.push(crate::trace::Span {
                id,
                parent: None,
                trace,
                name: "server.sweep",
                start_ns,
                end_ns: t.now_ns(),
                items: recs.len() as u64,
            });
        }
        sweeps.push(SweepRec {
            client,
            k,
            start_s,
            end_s,
            jobs: recs,
        });
    }
    sweeps
}

fn span<R>(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(parent, trace, name, |_| f()),
        None => f(),
    }
}

/// Streams job `id` to its `end` line.
fn stream(conn: &mut Conn, id: JobId, acked: Instant, rec: &mut JobRec) -> Result<(), String> {
    conn.send(&format!("stream {id}"))?;
    let head = conn.line()?;
    if head != "ok streaming" {
        return Err(format!("unexpected reply {head:?}"));
    }
    let mut first: Option<Instant> = None;
    loop {
        let line = conn.line()?;
        if let Some(event) = line.strip_prefix("event ") {
            if first.is_none() {
                let now = Instant::now();
                rec.queue_wait_s = Some((now - acked).as_secs_f64());
                first = Some(now);
            }
            rec.events += 1;
            rec.bytes += event.len() as u64 + 1;
        } else if let Some(status) = line.strip_prefix("end ") {
            rec.end = status.to_string();
            rec.run_s = first.map(|f| f.elapsed().as_secs_f64());
            return Ok(());
        } else {
            return Err(format!("unexpected stream line {line:?}"));
        }
    }
}

/// A served session: timings of its start and what its closed loop saw.
struct Session {
    open_s: f64,
    setup_s: f64,
    loop_wall_s: f64,
    sweeps: Vec<SweepRec>,
    scrape: String,
}

/// Opens a server over `root`, binds a loopback listener, serves it on
/// a thread and connects [`CLIENTS`] clients (that span is `setup_s`),
/// then runs the closed loop for `seconds` (none when `seconds` is 0),
/// scrapes the registry over the protocol and shuts the server down.
/// `check` runs while the server is still open.
fn session(
    root: &Path,
    seed: u64,
    seconds: f64,
    prefix: &str,
    tracer: Option<&Tracer>,
    check: &mut dyn FnMut(&Server, &[SweepRec]),
) -> Result<Session, String> {
    let t0 = Instant::now();
    let server = Server::open(root, ServerConfig::new()).map_err(|e| e.to_string())?;
    let open_s = t0.elapsed().as_secs_f64();
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let served = scope.spawn(|| server.serve(listener));
        let conns: Result<Vec<Conn>, String> = (0..CLIENTS)
            .map(|_| Conn::connect(addr).map_err(|e| e.to_string()))
            .collect();
        let setup_s = t0.elapsed().as_secs_f64();
        let result = conns.and_then(|mut conns| {
            if seconds <= 0.0 {
                return Ok(Session {
                    open_s,
                    setup_s,
                    loop_wall_s: 0.0,
                    sweeps: Vec::new(),
                    scrape: String::new(),
                });
            }
            let epoch = Instant::now();
            let deadline = epoch + Duration::from_secs_f64(seconds);
            let per_client: Vec<Vec<SweepRec>> = std::thread::scope(|clients| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        clients.spawn(move || {
                            client_loop(conn, c, seed, prefix, epoch, deadline, tracer)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let sweeps: Vec<SweepRec> = per_client.into_iter().flatten().collect();
            let first = sweeps
                .iter()
                .map(|s| s.start_s)
                .fold(f64::INFINITY, f64::min);
            let last = sweeps.iter().map(|s| s.end_s).fold(0.0, f64::max);
            let scrape = scrape(&mut conns[0])?;
            check(&server, &sweeps);
            Ok(Session {
                open_s,
                setup_s,
                loop_wall_s: last - first,
                sweeps,
                scrape,
            })
        });
        server.request_shutdown();
        let served = served.join().expect("serve thread panicked");
        let session = result?;
        served.map_err(|e| e.to_string())?;
        Ok(session)
    })
}

/// The registry snapshot in text exposition, over the protocol.
fn scrape(conn: &mut Conn) -> Result<String, String> {
    conn.send("metrics")?;
    let head = conn.line()?;
    if head != "ok metrics" {
        return Err(format!("unexpected metrics reply {head:?}"));
    }
    let mut text = String::new();
    loop {
        let line = conn.line()?;
        if line == "end" {
            return Ok(text);
        }
        text.push_str(&line);
        text.push('\n');
    }
}

/// Sum of every series named exactly `name` in a text exposition.
fn series_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let base = series.split('{').next()?;
            (base == name).then(|| value.parse::<f64>().ok()).flatten()
        })
        .sum()
}

/// Fills a store with [`STORED_JOBS`] completed jobs (the first sweeps
/// of the closed loop under their own names).
fn populate(root: &Path, seed: u64) -> Result<(), String> {
    let server = Server::open(root, ServerConfig::new()).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    'fill: for k in 0.. {
        for c in 0..CLIENTS {
            for planned in sweep(seed, c, k, "stored") {
                if ids.len() == STORED_JOBS {
                    break 'fill;
                }
                ids.push(server.submit(planned.spec).map_err(|e| e.to_string())?);
            }
        }
    }
    server.run_until_idle().map_err(|e| e.to_string())?;
    for id in ids {
        let view = server.status(id).map_err(|e| e.to_string())?;
        if view.status != JobStatus::Done {
            return Err(format!("stored job {id} ended {:?}", view.status));
        }
    }
    Ok(())
}

/// Per-job outcome checks, run while the server is still open: every
/// job reached `done` over the stream and in its status, with balanced
/// counters. Returns `(jobs checked, failures, counter sums)`.
fn check_jobs(server: &Server, sweeps: &[SweepRec]) -> (u64, u64, [u64; 4]) {
    let mut failed = 0;
    let mut jobs = 0;
    let mut sums = [0u64; 4];
    for rec in sweeps.iter().flat_map(|s| &s.jobs) {
        jobs += 1;
        let Some(id) = rec.id else {
            failed += 1;
            continue;
        };
        let view = match server.status(id) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("check failed: status {id}: {e}");
                failed += 1;
                continue;
            }
        };
        let balanced = view.candidates == view.evaluations + view.cache_hits + view.screened;
        if rec.end != "done" || view.status != JobStatus::Done || !balanced {
            eprintln!(
                "check failed: job {id} streamed end {:?}, status {:?}, balanced {balanced}",
                rec.end, view.status
            );
            failed += 1;
        }
        sums[0] += view.candidates;
        sums[1] += view.evaluations;
        sums[2] += view.cache_hits;
        sums[3] += view.screened;
    }
    (jobs, failed, sums)
}

/// The first job of each distinct arm (and problem) in client 0's
/// sweeps, in sweep order.
fn check_set(sweeps: &[SweepRec]) -> Vec<&JobRec> {
    let mut ordered: Vec<&SweepRec> = sweeps.iter().filter(|s| s.client == 0).collect();
    ordered.sort_by_key(|s| s.k);
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for rec in ordered.iter().flat_map(|s| &s.jobs) {
        let key = format!(
            "{} {}",
            rec.planned.spec.problem.token(),
            rec.planned.spec.algo.token()
        );
        if !seen.contains(&key) {
            seen.push(key);
            out.push(rec);
        }
    }
    out
}

/// Compares the stored front of each check job with a direct in-process
/// run of the same spec, returning the failures and the mean normalized
/// hypervolume of the stored ZDT1 fronts. The short drivable-load job
/// often ends before any design is feasible, so its (often empty) front
/// is checked but left out of the mean.
fn check_against_direct(server: &Server, sweeps: &[SweepRec]) -> (u64, f64) {
    let set = check_set(sweeps);
    let mut failed = 0;
    let mut hv_sum = 0.0;
    let mut hv_jobs = 0;
    for rec in &set {
        let spec = &rec.planned.spec;
        let stored = rec.id.and_then(|id| server.store().read_outcome(id));
        let direct = spec
            .build_optimizer(None, None)
            .map_err(|e| e.to_string())
            .and_then(|opt| opt.run_dyn(spec.seed).map_err(|e| e.to_string()))
            .map(|o| CellResult::from_outcome(spec.algo.token(), spec.seed, &o));
        match (stored, direct) {
            (Some(stored), Ok(direct)) if stored.to_text() == direct.to_text() => {
                if spec.problem == CHEAP {
                    hv_sum += normalized_hv(&stored);
                    hv_jobs += 1;
                }
            }
            (stored, direct) => {
                eprintln!(
                    "check failed: stored front of {} differs from a direct run (stored {}, direct {:?})",
                    spec.name,
                    stored.is_some(),
                    direct.err()
                );
                failed += 1;
            }
        }
    }
    (failed, hv_sum / f64::from(hv_jobs.max(1)))
}

/// Hypervolume of a stored ZDT1 front against the fixed reference point
/// (1.1, 11), divided by the reference box.
fn normalized_hv(cell: &CellResult) -> f64 {
    let reference = [1.1, 11.0];
    let points: Vec<[f64; 2]> = cell.front.iter().map(|(_, o)| [o[0], o[1]]).collect();
    hypervolume_2d(&points, reference) / (reference[0] * reference[1])
}

/// A fresh job-store directory inside the working directory, removed
/// when dropped.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str, seed: u64) -> Result<TempStore, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempStore(dir))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's store is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Bytes of every file under the job directories of `ids`, and the mean
/// size of their checkpoint files.
fn store_bytes(root: &Path, ids: &[JobId]) -> (u64, f64) {
    let mut total = 0;
    let mut checkpoints = Vec::new();
    for id in ids {
        let dir = root.join(format!("job_{id}"));
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let len = entry.metadata().map_or(0, |m| m.len());
            total += len;
            if entry.file_name() == "checkpoint.txt" {
                checkpoints.push(len as f64);
            }
        }
    }
    let per = if checkpoints.is_empty() {
        0.0
    } else {
        checkpoints.iter().sum::<f64>() / checkpoints.len() as f64
    };
    (total, per)
}

/// Latency of every sweep and the wall of every complete block of
/// [`BLOCK`] consecutive sweeps per client.
fn latencies(sweeps: &[SweepRec]) -> (Vec<f64>, Vec<f64>) {
    let lat = sweeps.iter().map(|s| s.end_s - s.start_s).collect();
    let mut blocks = Vec::new();
    for c in 0..CLIENTS {
        let mut mine: Vec<&SweepRec> = sweeps.iter().filter(|s| s.client == c).collect();
        mine.sort_by_key(|s| s.k);
        for chunk in mine.chunks_exact(BLOCK) {
            blocks.push(chunk[BLOCK - 1].end_s - chunk[0].start_s);
        }
    }
    (lat, blocks)
}

/// What the checks of one session found.
#[derive(Debug, Default)]
struct Checked {
    jobs: u64,
    failed: u64,
    /// Summed job counters: candidates, evaluations, cache hits, screened.
    sums: [u64; 4],
    front_hv: f64,
    /// Every job's sweep position (its name without the session prefix)
    /// and stored outcome text, to compare sessions.
    outcomes: Vec<(String, Option<String>)>,
}

fn checked_session(
    root: &Path,
    seed: u64,
    seconds: f64,
    prefix: &str,
    tracer: Option<&Tracer>,
) -> Result<(Session, Checked), String> {
    let mut checked = Checked::default();
    let session = session(
        root,
        seed,
        seconds,
        prefix,
        tracer,
        &mut |server, sweeps| {
            let (jobs, failed, sums) = check_jobs(server, sweeps);
            let (direct_failed, hv) = check_against_direct(server, sweeps);
            checked.outcomes = sweeps
                .iter()
                .flat_map(|s| &s.jobs)
                .map(|r| {
                    let name = &r.planned.spec.name;
                    let key = name.strip_prefix(prefix).unwrap_or(name).to_string();
                    let text =
                        r.id.and_then(|id| server.store().read_outcome(id))
                            .map(|o| o.to_text());
                    (key, text)
                })
                .collect();
            checked.jobs = jobs;
            checked.failed = failed + direct_failed;
            checked.sums = sums;
            checked.front_hv = hv;
        },
    )?;
    Ok((session, checked))
}

/// Runs the workload and returns its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let store = TempStore::new("service", seed)?;
    let root = store.0.as_path();
    populate(root, seed)?;
    if traced {
        return run_traced(root, seed, seconds);
    }
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS - 1 {
        setups.push(session(root, seed, 0.0, "u", None, &mut |_, _| {})?.setup_s);
    }
    let (s, checked) = checked_session(root, seed, seconds, "u", None)?;
    setups.push(s.setup_s);

    let (lat, blocks) = latencies(&s.sweeps);
    let t = tail(&lat);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("run_wall_s", median(&blocks), "s");
    m.put("evals_per_s", checked.sums[1] as f64 / s.loop_wall_s, "1/s");
    m.put("front_hv", checked.front_hv, "hv");
    m.put("sweep_latency_p50_s", median(&lat), "s");
    m.put("sweep_latency_tail_s", t.value, "s");
    m.put("sweeps_per_s", lat.len() as f64 / s.loop_wall_s, "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    let properties = describe(&s, &checked, t);
    Ok(Outcome {
        metrics: m,
        attempted: checked.jobs,
        failed: checked.failed,
        properties,
    })
}

fn describe(s: &Session, checked: &Checked, t: crate::stats::Tail) -> Vec<String> {
    let jobs: Vec<&JobRec> = s.sweeps.iter().flat_map(|s| &s.jobs).collect();
    let repeats = jobs.iter().filter(|j| j.planned.repeat).count();
    let [candidates, evaluations, hits, _] = checked.sums;
    vec![
        format!(
            "closed loop of {CLIENTS} client connections; {} sweeps of 4 jobs in {:.2} s; \
             sweep_latency_tail_s is the p{:.1} over {} sweeps with {} beyond",
            s.sweeps.len(),
            s.loop_wall_s,
            t.percentile,
            t.samples,
            t.beyond
        ),
        format!(
            "repeated-study share: {repeats} of {} jobs ({:.3})",
            jobs.len(),
            repeats as f64 / jobs.len().max(1) as f64
        ),
        format!(
            "tenant cache hit fraction: {:.4} of {candidates} candidates",
            hits as f64 / candidates.max(1) as f64
        ),
        format!(
            "tenant cache over capacity: {} ({evaluations} entries inserted, capacity {TENANT_CAPACITY})",
            if evaluations > TENANT_CAPACITY { "yes" } else { "no" }
        ),
        format!("stored jobs replayed by each server open: {STORED_JOBS}"),
    ]
}

fn run_traced(root: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let half = seconds / 2.0;
    let (plain, plain_checked) = checked_session(root, seed, half, "u", None)?;
    let tracer = Tracer::default();
    let (s, checked) = checked_session(root, seed, half, "t", Some(&tracer))?;

    // The same sweep positions ran in both sessions: their stored
    // outcomes must be byte-identical.
    let mut mismatches = 0;
    for (key, traced_text) in &checked.outcomes {
        if let Some((_, plain_text)) = plain_checked.outcomes.iter().find(|(k, _)| k == key) {
            if traced_text.is_none() || traced_text != plain_text {
                eprintln!("check failed: traced job {key} differs from the untraced run");
                mismatches += 1;
            }
        }
    }

    let jobs: Vec<&JobRec> = s.sweeps.iter().flat_map(|s| &s.jobs).collect();
    let firsts: Vec<&JobRec> = s.sweeps.iter().filter_map(|s| s.jobs.first()).collect();
    let rtts: Vec<f64> = jobs.iter().map(|j| j.submit_rtt_s).collect();
    let ids: Vec<JobId> = jobs.iter().filter_map(|j| j.id).collect();
    let (store_total, per_checkpoint) = store_bytes(root, &ids);
    let [candidates, evaluations, hits, screened] = checked.sums;
    let slices = series_sum(&s.scrape, "dse_server_slice_seconds_count");
    let slice_s = series_sum(&s.scrape, "dse_server_slice_seconds_sum");

    let mut m = Metrics::default();
    m.put("engine.candidates", candidates as f64, "count");
    m.put("engine.evaluations", evaluations as f64, "count");
    m.put("engine.cache_hits", hits as f64, "count");
    m.put("engine.screened", screened as f64, "count");
    m.put(
        "engine.cache.hit_frac",
        hits as f64 / candidates.max(1) as f64,
        "frac",
    );
    m.put("server.submit.rtt_p50_s", median(&rtts), "s");
    m.put("server.submit.rtt_tail_s", tail(&rtts).value, "s");
    m.put(
        "server.queue_wait_p50_s",
        median(
            &firsts
                .iter()
                .filter_map(|j| j.queue_wait_s)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    m.put(
        "server.job_run_p50_s",
        median(&firsts.iter().filter_map(|j| j.run_s).collect::<Vec<_>>()),
        "s",
    );
    let n = jobs.len().max(1) as f64;
    m.put(
        "server.stream.events_per_job",
        jobs.iter().map(|j| j.events).sum::<u64>() as f64 / n,
        "count",
    );
    m.put(
        "server.stream.bytes_per_job",
        jobs.iter().map(|j| j.bytes).sum::<u64>() as f64 / n,
        "B",
    );
    m.put(
        "server.preemptions",
        series_sum(&s.scrape, "dse_server_preemptions_total"),
        "count",
    );
    m.put("server.slices", slices, "count");
    m.put("server.slice_s_sum", slice_s, "s");
    m.put(
        "server.pool.busy_frac",
        slice_s / (ServerConfig::new().workers as f64 * s.loop_wall_s),
        "frac",
    );
    m.put("server.store.bytes", store_total as f64, "B");
    m.put("server.store.bytes_per_checkpoint", per_checkpoint, "B");
    m.put(
        "server.open_s_per_stored_job",
        plain.open_s / STORED_JOBS as f64,
        "s",
    );
    m.put(
        "server.tenant.hit_frac",
        hits as f64 / candidates.max(1) as f64,
        "frac",
    );
    m.put(
        "server.repeat_jobs",
        jobs.iter().filter(|j| j.planned.repeat).count() as f64,
        "count",
    );
    let (plain_lat, _) = latencies(&plain.sweeps);
    let (traced_lat, _) = latencies(&s.sweeps);
    m.put(
        "trace.overhead_frac",
        median(&traced_lat) / median(&plain_lat) - 1.0,
        "frac",
    );

    let spans = tracer.spans();
    crate::write_spans(&tracer, "service-sweeps", seed, &spans);
    let mut properties = describe(&s, &checked, tail(&traced_lat));
    properties.push(
        "server.pool.busy_frac is slice time over worker time; the registry's per-worker \
         busy gauge spans each worker's whole serve loop"
            .into(),
    );
    Ok(Outcome {
        metrics: m,
        attempted: plain_checked.jobs + checked.jobs,
        failed: plain_checked.failed + checked.failed + mismatches,
        properties,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_hold_three_cheap_arms_and_one_drivable_job() {
        for c in 0..CLIENTS {
            for k in 0..6 {
                let jobs = sweep(7, c, k, "x");
                assert_eq!(jobs.len(), 4);
                let arms: Vec<String> = jobs[..3].iter().map(|j| j.spec.algo.token()).collect();
                assert!(arms[0] != arms[1] && arms[1] != arms[2] && arms[0] != arms[2]);
                assert_eq!(jobs[3].spec.problem, ProblemSpec::Drivable);
                assert_eq!(jobs.iter().filter(|j| j.repeat).count(), usize::from(k > 0));
                for j in &jobs {
                    j.spec.validate().expect("valid spec");
                }
            }
        }
    }

    #[test]
    fn a_repeat_is_the_previous_sweeps_first_study_under_a_new_name() {
        let prev = sweep(7, 1, 2, "x");
        let next = sweep(7, 1, 3, "x");
        let (a, b) = (&prev[0].spec, &next[2].spec);
        assert_eq!(
            (a.seed, a.algo.token(), a.problem.token()),
            (b.seed, b.algo.token(), b.problem.token())
        );
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn series_sum_adds_labelled_series() {
        let text =
            "# TYPE dse_x counter\ndse_x{worker=\"0\"} 2\ndse_x{worker=\"1\"} 3.5\ndse_x_count 9\n";
        assert_eq!(series_sum(text, "dse_x"), 5.5);
        assert_eq!(series_sum(text, "dse_x_count"), 9.0);
        assert_eq!(series_sum(text, "dse_y"), 0.0);
    }
}
