//! Integration tests of the optimization service: crash-safe resume,
//! cooperative-preemption determinism across every optimizer loop,
//! exact per-job cache attribution under a shared tenant, watchdog-driven
//! health transitions, and the TCP protocol end to end.
//!
//! The crash-safety golden snapshot lives in `tests/golden/` (re-record
//! with `UPDATE_GOLDEN=1 cargo test -p integration-tests --test server`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dse_server::protocol::{MAX_CONNECTIONS, MAX_REQUEST_LINE};
use dse_server::{
    AlgoSpec, JobHealth, JobId, JobSpec, JobStatus, JobStore, ProblemSpec, Server, ServerConfig,
    ServerError,
};

mod common;
use common::check_golden;

/// A scratch directory unique to this test binary's runs.
fn scratch_dir(name: &str) -> PathBuf {
    common::scratch_dir("server-it", name)
}

fn sacga_spec(name: &str) -> JobSpec {
    JobSpec::new(
        name,
        ProblemSpec::Schaffer,
        AlgoSpec::Sacga {
            pop: 16,
            gens: 12,
            parts: 4,
        },
        42,
    )
}

fn mesacga_spec(name: &str) -> JobSpec {
    JobSpec::new(
        name,
        ProblemSpec::Schaffer,
        AlgoSpec::Mesacga { pop: 16, span: 12 },
        42,
    )
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::new()
    }
}

/// Runs `specs` on a fresh uninterrupted server and returns each job's
/// final `outcome.cell` bytes.
fn reference_outcomes(tag: &str, specs: &[JobSpec], workers: usize) -> Vec<Vec<u8>> {
    let root = scratch_dir(tag);
    let server = Server::open(&root, config(workers)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| server.submit(s.clone()).unwrap())
        .collect();
    server.run_until_idle().unwrap();
    let outcomes = ids
        .iter()
        .map(|&id| std::fs::read(server.store().outcome_path(id)).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    outcomes
}

#[test]
fn killed_daemon_resumes_in_flight_jobs_bit_identically() {
    let specs = [
        sacga_spec("crash-a").slice(2),
        mesacga_spec("crash-b").slice(3),
    ];
    let root = scratch_dir("crash");

    // Phase 1: start both jobs, kill the pool after 4 slices.
    let server = Server::open(&root, config(2)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| server.submit(s.clone()).unwrap())
        .collect();
    let drained = server.run_slices_at_most(4).unwrap();
    assert!(!drained, "4 slices must not finish 12+12 generations");
    for &id in &ids {
        let view = server.status(id).unwrap();
        assert!(
            !view.status.is_terminal(),
            "job {id} should be in flight, was {:?}",
            view.status
        );
    }
    drop(server);

    // Phase 2: a new daemon over the same store rescans and resumes.
    let server = Server::open(&root, config(2)).unwrap();
    for &id in &ids {
        assert_eq!(server.status(id).unwrap().status, JobStatus::Queued);
    }
    server.run_until_idle().unwrap();
    let resumed: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| std::fs::read(server.store().outcome_path(id)).unwrap())
        .collect();

    // The resumed fronts must be byte-identical to an uninterrupted run.
    let reference = reference_outcomes("crash-ref", &specs, 1);
    assert_eq!(resumed, reference);

    // And pinned: the SACGA outcome is a committed golden snapshot.
    check_golden(
        "server_sacga_schaffer_seed42.cell",
        std::str::from_utf8(&resumed[0]).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn legacy_sacga_checkpoint_in_a_job_store_resumes_to_the_recorded_outcome() {
    // A store left by a daemon whose SACGA loop wrote
    // `sacga-checkpoint v1` (killed after three 2-generation slices)
    // resumes on the steady flow to the outcome of the uninterrupted run.
    let spec = sacga_spec("legacy").slice(2);
    let id = spec.id();
    let root = scratch_dir("legacy");
    let store = JobStore::open(&root).unwrap();
    store.create_job(id, &spec).unwrap();
    let legacy = std::fs::read_to_string(common::golden_path("legacy_sacga_checkpoint_gen6.txt"));
    store.write_checkpoint(id, &legacy.unwrap()).unwrap();
    drop(store);

    let server = Server::open(&root, config(1)).unwrap();
    assert_eq!(server.status(id).unwrap().status, JobStatus::Queued);
    server.run_until_idle().unwrap();
    assert_eq!(server.status(id).unwrap().status, JobStatus::Done);
    let outcome = std::fs::read_to_string(server.store().outcome_path(id)).unwrap();
    check_golden("server_sacga_schaffer_seed42.cell", &outcome);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_state_file_is_reenqueued_and_resumed() {
    let spec = sacga_spec("torn").slice(2);
    let root = scratch_dir("torn");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec.clone()).unwrap();
    // Make some progress, then die.
    assert!(!server.run_slices_at_most(2).unwrap());
    drop(server);

    // Simulate a daemon killed mid-write: a state file cut off without
    // its `end` marker.
    let state_path = root.join(format!("job_{id}")).join("state.job");
    std::fs::write(&state_path, "jobstate v1\nstatus runn").unwrap();

    let server = Server::open(&root, config(1)).unwrap();
    let view = server.status(id).unwrap();
    assert_eq!(view.status, JobStatus::Queued, "torn state means in flight");
    server.run_until_idle().unwrap();
    assert_eq!(server.status(id).unwrap().status, JobStatus::Done);

    let resumed = std::fs::read(server.store().outcome_path(id)).unwrap();
    let reference = reference_outcomes("torn-ref", &[spec], 1);
    assert_eq!(vec![resumed], reference);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn preemption_determinism_across_all_loops() {
    // A job suspended and resumed K times at arbitrary generation
    // boundaries must produce the same outcome as an unpreempted run —
    // for every optimizer loop. NSGA-II cannot checkpoint: it ignores
    // the quantum and runs to completion, so the claim holds trivially
    // for it; every other arm really suspends at each slice boundary.
    let arms: Vec<(&str, AlgoSpec)> = vec![
        (
            "sacga",
            AlgoSpec::Sacga {
                pop: 16,
                gens: 10,
                parts: 4,
            },
        ),
        (
            "local",
            AlgoSpec::Local {
                pop: 16,
                gens: 10,
                parts: 4,
            },
        ),
        ("mesacga", AlgoSpec::Mesacga { pop: 16, span: 12 }),
        (
            "steady",
            AlgoSpec::parse("steady:pop=16,gens=10,parts=4").unwrap(),
        ),
        ("nsga2", AlgoSpec::Nsga2 { pop: 16, gens: 10 }),
        (
            "island",
            AlgoSpec::Island {
                pop: 32,
                gens: 10,
                islands: 2,
            },
        ),
        (
            "cellular",
            AlgoSpec::parse("cellular:pop=32,gens=10,topo=ring,cells=4,interval=4,open=25")
                .unwrap(),
        ),
    ];
    for (label, algo) in arms {
        let mut outcomes = Vec::new();
        for slice in [0usize, 1, 3] {
            let root = scratch_dir(&format!("preempt-{label}-{slice}"));
            let server = Server::open(&root, config(1)).unwrap();
            let spec = JobSpec::new(
                format!("preempt-{label}"),
                ProblemSpec::Schaffer,
                algo.clone(),
                42,
            )
            .slice(slice);
            let id = server.submit(spec).unwrap();
            server.run_until_idle().unwrap();
            let view = server.status(id).unwrap();
            assert_eq!(view.status, JobStatus::Done, "{label} slice={slice}");
            let events = std::fs::read_to_string(server.store().events_path(id)).unwrap();
            let suspensions = events.matches("\"checkpoint_written\"").count();
            if slice == 1 && label != "nsga2" {
                assert!(suspensions >= 9, "{label}: {suspensions} suspensions");
            } else if slice == 0 || label == "nsga2" {
                assert_eq!(suspensions, 0, "{label} slice={slice}");
            }
            outcomes.push(std::fs::read(server.store().outcome_path(id)).unwrap());
            let _ = std::fs::remove_dir_all(&root);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "{label}: slice=1 diverged from unpreempted run"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "{label}: slice=3 diverged from unpreempted run"
        );
    }
}

#[test]
fn contended_queue_preempts_and_still_matches_reference() {
    // Two sliced jobs on one worker force the requeue path: each job
    // yields at its slice boundary because the other is waiting, so the
    // worker alternates between them.
    let specs = [
        sacga_spec("yield-a").slice(2),
        sacga_spec("yield-b").slice(2),
    ];
    // Different seeds so the jobs are distinct runs.
    let specs = [specs[0].clone(), {
        let mut s = specs[1].clone();
        s.seed = 43;
        s
    }];
    let root = scratch_dir("contended");
    let server = Server::open(&root, config(1)).unwrap();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| server.submit(s.clone()).unwrap())
        .collect();
    server.run_until_idle().unwrap();
    let interleaved: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| std::fs::read(server.store().outcome_path(id)).unwrap())
        .collect();
    let reference = reference_outcomes("contended-ref", &specs, 1);
    assert_eq!(interleaved, reference);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shared_tenant_cache_attribution_is_exact() {
    // Two jobs in one tenant run the identical (problem, algo, seed)
    // configuration: the second is answered almost entirely from the
    // shared cache, yet per-job counters attribute every candidate
    // exactly, and both fronts match an uncached solo run byte for byte.
    let a = sacga_spec("cache-a").tenant("acme");
    let b = sacga_spec("cache-b").tenant("acme");
    let root = scratch_dir("tenant");
    let server = Server::open(&root, config(1)).unwrap();
    let id_a = server.submit(a).unwrap();
    let id_b = server.submit(b).unwrap();
    server.run_until_idle().unwrap();

    let va = server.status(id_a).unwrap();
    let vb = server.status(id_b).unwrap();
    // Exact per-job accounting: every candidate is either evaluated or
    // a cache hit, per job, even though the cache is shared.
    assert_eq!(va.candidates, va.evaluations + va.cache_hits);
    assert_eq!(vb.candidates, vb.evaluations + vb.cache_hits);
    assert_eq!(va.candidates, vb.candidates, "same seed, same stream");
    // The first job filled the cache the second one drained.
    assert!(va.evaluations > 0);
    let total_hits = va.cache_hits + vb.cache_hits;
    assert!(
        total_hits > 0,
        "identical runs in one tenant must share evaluations"
    );
    assert!(
        va.evaluations + vb.evaluations < va.candidates + vb.candidates,
        "the tenant cache absorbed no work"
    );

    // Scheduling must not leak into results: both outcomes equal the
    // uncached reference.
    let reference = reference_outcomes("tenant-ref", &[sacga_spec("solo")], 1);
    let out_a = std::fs::read(server.store().outcome_path(id_a)).unwrap();
    let out_b = std::fs::read(server.store().outcome_path(id_b)).unwrap();
    let strip_name = |bytes: &[u8]| -> Vec<u8> { bytes.to_vec() };
    // outcome.cell stores arm label + seed, not the job name, so the
    // bytes are directly comparable across differently-named jobs.
    assert_eq!(strip_name(&out_a), reference[0]);
    assert_eq!(strip_name(&out_b), reference[0]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn health_transitions_healthy_to_stalled_mid_run() {
    // Schaffer converges in a handful of generations; a 5-generation
    // stall window over a 60-generation run must fire long before the
    // end. Suspend the job partway to observe the health endpoint in
    // its live (non-terminal) state.
    let spec = JobSpec::new(
        "stall",
        ProblemSpec::Schaffer,
        AlgoSpec::Sacga {
            pop: 24,
            gens: 60,
            parts: 4,
        },
        42,
    )
    .slice(10)
    .stall_window(5);
    let root = scratch_dir("stall");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    assert_eq!(
        server.health(id).unwrap(),
        JobHealth::Healthy,
        "queued jobs start healthy"
    );
    // 4 slices = 40 generations, then a forced suspension.
    assert!(!server.run_slices_at_most(4).unwrap());
    let view = server.status(id).unwrap();
    assert!(!view.status.is_terminal());
    assert_eq!(
        view.health,
        JobHealth::Stalled,
        "plateau must trip the detector"
    );
    // The budget halt simulated a kill, so finish under a fresh daemon:
    // terminal status masks watchdog health at the endpoint, but the
    // persisted state keeps the stall on record.
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.health(id).unwrap(), JobHealth::Done);
    let state = server.store().read_state(id).unwrap();
    assert_eq!(state.health, JobHealth::Stalled);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn health_transitions_healthy_to_faulty_under_fault_injection() {
    // Inject non-finite evaluations at 20% — far above the 1% alarm
    // threshold — and watch the health endpoint flip to faulty.
    let spec = JobSpec::new(
        "faulty",
        ProblemSpec::Schaffer,
        AlgoSpec::Sacga {
            pop: 16,
            gens: 20,
            parts: 4,
        },
        19,
    )
    .slice(5)
    .fault_alarm(0.01)
    .inject_nonfinite(0.2);
    let root = scratch_dir("faulty");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    assert_eq!(server.health(id).unwrap(), JobHealth::Healthy);
    assert!(!server.run_slices_at_most(2).unwrap());
    let view = server.status(id).unwrap();
    assert!(!view.status.is_terminal());
    assert_eq!(view.health, JobHealth::Faulty);
    // Finish under a fresh daemon; the fault record survives the restart.
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.health(id).unwrap(), JobHealth::Done);
    assert_eq!(
        server.store().read_state(id).unwrap().health,
        JobHealth::Faulty
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Candidate attribution must balance exactly: every candidate a job
/// submits is either evaluated, answered from cache, or screened out.
fn assert_attribution_balances(view: &dse_server::JobView) {
    assert_eq!(
        view.candidates,
        view.evaluations + view.cache_hits + view.screened,
        "attribution must balance for job {}: {view:?}",
        view.name
    );
}

#[test]
fn screened_job_attribution_balances_end_to_end() {
    // A drivable job with the surrogate screen enabled: screened
    // candidates are counted separately from evaluations and the
    // persisted state carries the attribution.
    let spec = JobSpec::new(
        "screened",
        ProblemSpec::Drivable,
        AlgoSpec::Sacga {
            pop: 48,
            gens: 8,
            parts: 4,
        },
        42,
    )
    .screen();
    let root = scratch_dir("screened");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    server.run_until_idle().unwrap();
    let view = server.status(id).unwrap();
    assert_eq!(view.status, JobStatus::Done);
    assert!(view.screened > 0, "the screen never fired: {view:?}");
    assert!(
        view.evaluations > 0,
        "the screen must not answer everything"
    );
    assert_attribution_balances(&view);
    // The attribution survives persistence.
    let state = server.store().read_state(id).unwrap();
    assert_eq!(state.screened, view.screened);
    assert_eq!(state.candidates, view.candidates);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn attribution_balances_across_kill_and_resume() {
    // A screened drivable job killed mid-run and resumed by a fresh
    // daemon must report the same balanced attribution as an
    // uninterrupted run: checkpoints carry the engine counters.
    let make_spec = |name: &str| {
        JobSpec::new(
            name,
            ProblemSpec::Drivable,
            AlgoSpec::Sacga {
                pop: 48,
                gens: 8,
                parts: 4,
            },
            42,
        )
        .screen()
        .slice(2)
    };
    let root = scratch_dir("kill-attr");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(make_spec("kill-attr")).unwrap();
    assert!(!server.run_slices_at_most(2).unwrap());
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    server.run_until_idle().unwrap();
    let resumed = server.status(id).unwrap();
    assert_eq!(resumed.status, JobStatus::Done);
    assert_attribution_balances(&resumed);
    let _ = std::fs::remove_dir_all(&root);

    // Uninterrupted reference with the same spec (name-insensitive
    // counters): identical candidate/evaluation/screened totals.
    let root = scratch_dir("kill-attr-ref");
    let server = Server::open(&root, config(1)).unwrap();
    let rid = server.submit(make_spec("kill-attr-ref")).unwrap();
    server.run_until_idle().unwrap();
    let reference = server.status(rid).unwrap();
    assert_attribution_balances(&reference);
    assert_eq!(resumed.candidates, reference.candidates);
    assert_eq!(resumed.evaluations, reference.evaluations);
    assert_eq!(resumed.cache_hits, reference.cache_hits);
    assert_eq!(resumed.screened, reference.screened);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn attribution_balances_under_contended_preemption_slices() {
    // Two sliced jobs alternating on one worker: per-job attribution
    // stays exact through every requeue.
    let a = sacga_spec("attr-a").slice(2).tenant("attr");
    let b = {
        let mut s = sacga_spec("attr-b").slice(3).tenant("attr");
        s.seed = 43;
        s
    };
    let root = scratch_dir("preempt-attr");
    let server = Server::open(&root, config(1)).unwrap();
    let id_a = server.submit(a).unwrap();
    let id_b = server.submit(b).unwrap();
    server.run_until_idle().unwrap();
    for id in [id_a, id_b] {
        let view = server.status(id).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert!(view.candidates > 0);
        assert_attribution_balances(&view);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn duplicate_submission_is_rejected_until_renamed() {
    let root = scratch_dir("dup");
    let server = Server::open(&root, config(1)).unwrap();
    server.submit(sacga_spec("dup")).unwrap();
    assert!(matches!(
        server.submit(sacga_spec("dup")),
        Err(ServerError::DuplicateJob(_))
    ));
    server.submit(sacga_spec("dup2")).unwrap();
    // Duplicates survive restarts: the rescan re-registers known ids.
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    assert!(matches!(
        server.submit(sacga_spec("dup")),
        Err(ServerError::DuplicateJob(_))
    ));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tcp_protocol_end_to_end() {
    let root = scratch_dir("tcp");
    let server = Server::open(&root, config(1)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve(listener));

        let send = |line: &str| -> Vec<String> {
            let mut stream = TcpStream::connect(addr).unwrap();
            writeln!(stream, "{line}").unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let mut lines = Vec::new();
            let multi = line.starts_with("list") || line.starts_with("stream");
            for line in reader.lines() {
                let line = line.unwrap();
                let stop = !multi || line.starts_with("end") || line.starts_with("err");
                lines.push(line);
                if stop {
                    break;
                }
            }
            lines
        };

        assert_eq!(send("ping"), vec!["ok pong"]);
        let spec = sacga_spec("tcp").slice(2);
        let resp = send(&format!("submit {}", spec.canonical()));
        let id = resp[0].strip_prefix("ok ").expect(&resp[0]).to_string();

        // Stream the job live: the subscriber follows until `end done`.
        let streamed = send(&format!("stream {id}"));
        assert_eq!(streamed.first().map(String::as_str), Some("ok streaming"));
        assert_eq!(streamed.last().map(String::as_str), Some("end done"));
        let events = streamed.iter().filter(|l| l.starts_with("event ")).count();
        assert!(
            events >= 12,
            "one GenerationEnd per generation, got {events}"
        );

        let status = send(&format!("status {id}"));
        assert!(status[0].contains("status=done"), "{}", status[0]);
        assert!(status[0].contains("generations=12"), "{}", status[0]);

        // The live stream is the job's `events.jsonl`, line for line, and
        // a stream of the finished job (served from disk) repeats it.
        let events = |lines: &[String]| -> Vec<String> {
            lines
                .iter()
                .filter_map(|l| l.strip_prefix("event ").map(String::from))
                .collect()
        };
        let on_disk = file_lines(&server, JobId::parse(&id).unwrap());
        assert_eq!(events(&streamed), on_disk);
        assert_eq!(events(&send(&format!("stream {id}"))), on_disk);

        assert_eq!(send("shutdown"), vec!["ok shutting-down"]);
        daemon.join().unwrap().unwrap();
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// The job's `events.jsonl`, one string per line.
fn file_lines(server: &Server, id: JobId) -> Vec<String> {
    std::fs::read_to_string(server.store().events_path(id))
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

/// Polls a job's stream from `cursor` until it ends, requiring that no
/// line is skipped.
fn drain_stream(server: &Server, id: JobId, mut cursor: u64) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut lines = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "stream of {id} never ended");
        let poll = server
            .poll_progress(id, cursor, Duration::from_millis(20))
            .unwrap();
        assert_eq!(poll.skipped, 0);
        lines.extend(poll.lines);
        cursor = poll.next;
        if poll.done {
            return lines;
        }
    }
}

/// Runs `server`'s queue to idle while a subscriber that started at
/// cursor 0 before the job ran follows `id` across its terminal
/// transition; returns what the subscriber saw.
fn stream_across_completion(server: &Server, id: JobId) -> Vec<String> {
    let first = server.poll_progress(id, 0, Duration::ZERO).unwrap();
    assert!(!first.done, "the subscriber must start before the job ends");
    std::thread::scope(|scope| {
        let follower = scope.spawn(|| drain_stream(server, id, first.next));
        server.run_until_idle().unwrap();
        let mut lines = first.lines;
        lines.extend(follower.join().unwrap());
        lines
    })
}

/// Asserts three streams of a finished job — one that crossed its
/// terminal transition, one after completion, one after a restart —
/// all equal its `events.jsonl`.
fn assert_streams_match_disk(root: &std::path::Path, spec: &JobSpec, crossed: Vec<String>) {
    let id = spec.id();
    let server = Server::open(root, config(1)).unwrap();
    let on_disk = file_lines(&server, id);
    assert!(on_disk.len() > 12, "{} lines", on_disk.len());
    assert_eq!(crossed, on_disk, "live stream differs from events.jsonl");
    assert_eq!(drain_stream(&server, id, 0), on_disk, "after a restart");
    // A subscriber at cursor c continues at line c.
    assert_eq!(drain_stream(&server, id, 5), on_disk[5..]);
}

#[test]
fn finished_streams_replay_from_disk_byte_identically() {
    // A sliced job that runs uninterrupted.
    let spec = sacga_spec("disk-plain").slice(2);
    let root = scratch_dir("disk-plain");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec.clone()).unwrap();
    let crossed = stream_across_completion(&server, id);
    assert_eq!(server.status(id).unwrap().status, JobStatus::Done);
    assert_eq!(drain_stream(&server, id, 0), crossed, "after completion");
    drop(server);
    assert_streams_match_disk(&root, &spec, crossed);
    let _ = std::fs::remove_dir_all(&root);

    // A sliced job killed mid-run and resumed by a new daemon, whose
    // stream was trimmed back to its checkpoint on restart.
    let spec = sacga_spec("disk-killed").slice(2);
    let root = scratch_dir("disk-killed");
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec.clone()).unwrap();
    assert!(!server.run_slices_at_most(3).unwrap());
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    let crossed = stream_across_completion(&server, id);
    assert_eq!(server.status(id).unwrap().status, JobStatus::Done);
    assert_eq!(drain_stream(&server, id, 0), crossed, "after completion");
    drop(server);
    assert_streams_match_disk(&root, &spec, crossed);
    // The resumed front is still the uninterrupted one.
    let server = Server::open(&root, config(1)).unwrap();
    let resumed = std::fs::read(server.store().outcome_path(id)).unwrap();
    assert_eq!(
        vec![resumed],
        reference_outcomes("disk-killed-ref", &[spec], 1)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn debug_report_is_unchanged_by_the_terminal_transition() {
    // A killed job reopened by a new daemon is live (queued) with its
    // trimmed stream in memory; cancelling it makes it terminal without
    // a new event, so its report moves from memory to disk unchanged.
    let root = scratch_dir("debug-transition");
    let spec = sacga_spec("debug").slice(2);
    let server = Server::open(&root, config(1)).unwrap();
    let id = server.submit(spec).unwrap();
    assert!(!server.run_slices_at_most(3).unwrap());
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    let live = server.debug_report(id).unwrap();
    assert!(!live.lines.is_empty());
    assert!(live.timed_generations > 0);
    assert_eq!(live.lines, file_lines(&server, id));
    server.cancel(id).unwrap();
    server.run_until_idle().unwrap();
    assert_eq!(server.status(id).unwrap().status, JobStatus::Cancelled);
    assert_eq!(server.debug_report(id).unwrap(), live);
    drop(server);
    let server = Server::open(&root, config(1)).unwrap();
    assert_eq!(server.debug_report(id).unwrap(), live, "after a restart");

    // A job that ran to completion: every report taken while it ran is
    // a window of its final stream, and the final report's stage totals
    // cover the whole stream.
    let id = server.submit(sacga_spec("debug-done").slice(1)).unwrap();
    let reports = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            let mut reports = Vec::new();
            while !server.status(id).unwrap().status.is_terminal() {
                reports.push(server.debug_report(id).unwrap());
                std::thread::yield_now();
            }
            reports
        });
        server.run_until_idle().unwrap();
        probe.join().unwrap()
    });
    let on_disk = file_lines(&server, id);
    let done = server.debug_report(id).unwrap();
    assert_eq!(done.lines, on_disk);
    assert_eq!((done.dropped, done.hub_dropped), (0, 0));
    for r in reports {
        let end = usize::try_from(r.dropped).unwrap() + r.lines.len();
        assert_eq!(r.lines, on_disk[end - r.lines.len()..end]);
        assert!(r.timed_generations <= done.timed_generations);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Serves `server` on a loopback listener for the duration of `f`,
/// shutting it down even when `f` panics (so a failure cannot hang).
fn with_daemon(server: &Server, f: impl FnOnce(std::net::SocketAddr)) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve(listener));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        server.request_shutdown();
        daemon.join().unwrap().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Sends one request line in a single write and reads one reply line.
fn round_trip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

#[test]
fn round_trips_do_not_wait_for_delayed_acks() {
    // A client that leaves Nagle's algorithm on: a reply split over two
    // small writes would wait ~40 ms per round trip for the client's
    // delayed ACK (60 round trips >= 2.4 s); one flush per reply takes
    // milliseconds.
    let root = scratch_dir("nodelay");
    let server = Server::open(&root, config(1)).unwrap();
    with_daemon(&server, |addr| {
        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        let spec = sacga_spec("nodelay");
        let submitted = round_trip(
            &mut writer,
            &mut reader,
            &format!("submit {}", spec.canonical()),
        );
        let id = submitted.strip_prefix("ok ").expect(&submitted).to_string();
        let start = Instant::now();
        for _ in 0..50 {
            assert_eq!(round_trip(&mut writer, &mut reader, "ping"), "ok pong");
        }
        for _ in 0..10 {
            let status = round_trip(&mut writer, &mut reader, &format!("status {id}"));
            assert!(status.starts_with(&format!("ok id={id} ")), "{status}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "60 round trips took {elapsed:?}"
        );
    });
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    let root = scratch_dir("line-cap");
    let server = Server::open(&root, config(1)).unwrap();
    with_daemon(&server, |addr| {
        let mut flood = TcpStream::connect(addr).unwrap();
        flood
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Twice the cap with no newline; the daemon may close the
        // connection before reading all of it.
        let _ = flood.write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE]);
        let mut reply = String::new();
        let _ = flood.read_to_string(&mut reply);
        assert_eq!(
            reply,
            format!("err request line exceeds {MAX_REQUEST_LINE} bytes\n")
        );
        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        assert_eq!(round_trip(&mut writer, &mut reader, "ping"), "ok pong");
    });
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connections_over_the_cap_are_refused_until_a_slot_frees() {
    let root = scratch_dir("conn-cap");
    let server = Server::open(&root, config(1)).unwrap();
    with_daemon(&server, |addr| {
        let connect = || {
            let writer = TcpStream::connect(addr).unwrap();
            writer
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let reader = BufReader::new(writer.try_clone().unwrap());
            (writer, reader)
        };
        // Fill every slot; a reply proves the connection holds one.
        let mut idle: Vec<_> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let (mut writer, mut reader) = connect();
                assert_eq!(round_trip(&mut writer, &mut reader, "ping"), "ok pong");
                (writer, reader)
            })
            .collect();
        // One more gets a single `err` line, then end of stream.
        let (_extra, mut reader) = connect();
        let mut reply = String::new();
        reader.read_to_string(&mut reply).unwrap();
        assert_eq!(
            reply,
            format!("err too many connections (at most {MAX_CONNECTIONS})\n")
        );
        // Closing one client frees its slot for the next. A refused
        // client is told so at once; an accepted one hears nothing until
        // it asks.
        drop(idle.pop());
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut writer, mut reader) = loop {
            let (writer, mut reader) = connect();
            writer
                .set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let mut refusal = String::new();
            if reader.read_line(&mut refusal).is_err() {
                writer
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                break (writer, reader);
            }
            assert!(refusal.starts_with("err too many connections"), "{refusal}");
            assert!(Instant::now() < deadline, "no slot freed");
        };
        assert_eq!(round_trip(&mut writer, &mut reader, "ping"), "ok pong");
    });
    let _ = std::fs::remove_dir_all(&root);
}
