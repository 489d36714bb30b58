//! **trace_report** — replay analysis of `results/*.jsonl` run-event
//! logs.
//!
//! ```text
//! trace_report <log.jsonl>... [--json [PATH]] [--scrape ADDR]
//! trace_report --scrape ADDR                    print a live snapshot
//! trace_report --diff <a.jsonl> <b.jsonl>       compare two runs
//! trace_report --clean [DIR]                    remove *.partial/*.bak
//! ```
//!
//! Summary mode prints, per log: generation/evaluation/fault counts,
//! promotion acceptance bucketed by annealing temperature, the
//! hypervolume trajectory, and the per-stage wall-clock breakdown
//! recorded by the `stage_timing` events. `--json` additionally writes
//! the machine-readable runtime aggregate `BENCH_runtime.json`
//! (default `results/BENCH_runtime.json`) that CI publishes; an output
//! path that names an input log, or any `.jsonl` file, is refused as a
//! usage error before anything is read or written.
//!
//! `--scrape ADDR` asks a running `dse_serve` daemon for its live
//! metrics snapshot (the `metrics json` protocol command) and prints
//! it; combined with `--json` the snapshot is folded into the runtime
//! report as a `"scrape"` sibling of `"runs"`.
//!
//! Exit status: `0` on success, `1` on usage errors, `2` when a log
//! cannot be read or replays to an empty summary (no generations) —
//! so CI can use a summary pass as a smoke check.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dse_bench::trace::{
    merge_reference, reference_point, runtime_json_entry, RunSummary, TrajectoryPoint,
};
use dse_bench::{clean_stale_artifacts, read_jsonl_events_lossy};
use engine::Stage;
use sacga::telemetry::RunEvent;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            eprintln!(
                "usage: trace_report <log.jsonl>... [--json [PATH]] [--scrape ADDR]\n\
                 \x20      trace_report --scrape ADDR\n\
                 \x20      trace_report --diff <a.jsonl> <b.jsonl>\n\
                 \x20      trace_report --clean [DIR]"
            );
            ExitCode::from(u8::from(args.is_empty()))
        }
        Some("--diff") => match &args[1..] {
            [a, b] => diff(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: trace_report --diff <a.jsonl> <b.jsonl>");
                ExitCode::from(1)
            }
        },
        Some("--clean") => {
            let dir = args.get(1).map_or("results", String::as_str);
            let removed = clean_stale_artifacts(Path::new(dir));
            for path in &removed {
                println!("removed {}", path.display());
            }
            println!("{} stale file(s) removed from {dir}", removed.len());
            ExitCode::SUCCESS
        }
        Some(_) => summaries(&args),
    }
}

/// Loads a log leniently, reporting skipped lines on stderr. `None`
/// when the file cannot be read or holds no events at all.
fn load(path: &Path) -> Option<(Vec<RunEvent>, usize)> {
    if !path.is_file() {
        eprintln!("trace_report: cannot read {}", path.display());
        return None;
    }
    let (events, skipped) = read_jsonl_events_lossy(path);
    if skipped > 0 {
        eprintln!(
            "trace_report: skipped {skipped} corrupt line(s) in {}",
            path.display()
        );
    }
    if events.is_empty() {
        eprintln!("trace_report: {} replays to no events", path.display());
        return None;
    }
    Some((events, skipped))
}

/// Summary-mode command line: input logs, the optional runtime-JSON
/// output path, and the optional live-scrape address.
#[derive(Debug)]
struct SummaryArgs {
    logs: Vec<PathBuf>,
    json_path: Option<PathBuf>,
    scrape_addr: Option<String>,
}

/// Parses summary-mode arguments.
///
/// `--json` takes the next token as its output path unless that token
/// is a flag. An output path that names an input log — or any `.jsonl`
/// run-event log, as in `--json a.jsonl b.jsonl` — is refused, so a
/// misplaced flag can never overwrite a log with the runtime JSON.
fn parse_summary_args(args: &[String]) -> Result<SummaryArgs, String> {
    let mut logs: Vec<PathBuf> = Vec::new();
    let mut json_path: Option<PathBuf> = None;
    let mut scrape_addr: Option<String> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--json" {
            let next = iter.peek().filter(|a| !a.starts_with("--"));
            json_path = Some(match next {
                Some(_) => PathBuf::from(iter.next().unwrap()),
                None => PathBuf::from("results/BENCH_runtime.json"),
            });
        } else if arg == "--scrape" {
            match iter.next() {
                Some(addr) => scrape_addr = Some(addr.clone()),
                None => return Err("--scrape needs an address".into()),
            }
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            logs.push(PathBuf::from(arg));
        }
    }
    if logs.is_empty() && scrape_addr.is_none() {
        return Err("no logs given".into());
    }
    if let Some(out) = &json_path {
        let is_input = logs.iter().any(|log| same_file(log, out));
        if is_input || out.extension().is_some_and(|e| e == "jsonl") {
            return Err(format!(
                "refusing to write the runtime JSON over run-event log {}; \
                 give --json a .json output path",
                out.display()
            ));
        }
    }
    Ok(SummaryArgs {
        logs,
        json_path,
        scrape_addr,
    })
}

/// Whether `a` and `b` name the same file: equal as written, or
/// resolving to the same existing file.
fn same_file(a: &Path, b: &Path) -> bool {
    a == b
        || matches!(
            (std::fs::canonicalize(a), std::fs::canonicalize(b)),
            (Ok(x), Ok(y)) if x == y
        )
}

fn summaries(args: &[String]) -> ExitCode {
    let SummaryArgs {
        logs,
        json_path,
        scrape_addr,
    } = match parse_summary_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("trace_report: {e}");
            return ExitCode::from(1);
        }
    };

    let scrape = match &scrape_addr {
        Some(addr) => match scrape_metrics(addr) {
            Ok(snapshot) => {
                println!("live scrape from {addr}: {} bytes", snapshot.len());
                Some(snapshot)
            }
            Err(e) => {
                eprintln!("trace_report: scrape of {addr} failed: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let mut entries = Vec::new();
    for path in &logs {
        let Some((events, skipped)) = load(path) else {
            return ExitCode::from(2);
        };
        let summary = RunSummary::from_events(&events, None);
        if summary.generations == 0 {
            eprintln!(
                "trace_report: {} holds no completed generations",
                path.display()
            );
            return ExitCode::from(2);
        }
        print_summary(path, &summary, skipped);
        let label = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into(),
        );
        entries.push(runtime_json_entry(&label, &summary, skipped));
    }

    if let Some(path) = json_path {
        // The parser brace-matches inside "runs":[...], so the optional
        // "scrape" sibling stays backward compatible.
        let scrape_field = scrape
            .as_deref()
            .map_or_else(String::new, |s| format!(",\"scrape\":{s}"));
        let doc = format!(
            "{{\"schema\":1,\"runs\":[{}]{scrape_field}}}\n",
            entries.join(",")
        );
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("trace_report: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("\nwrote {}", path.display());
    } else if let Some(snapshot) = &scrape {
        println!("{snapshot}");
    }
    ExitCode::SUCCESS
}

/// Fetches one `metrics json` snapshot from a running daemon over the
/// line protocol; returns the bare JSON document.
fn scrape_metrics(addr: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    writeln!(stream, "metrics json").map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let line = line.trim_end();
    line.strip_prefix("ok ")
        .filter(|body| body.starts_with('{'))
        .map(str::to_string)
        .ok_or_else(|| format!("unexpected reply {line:?}"))
}

fn print_summary(path: &Path, s: &RunSummary, skipped: usize) {
    println!("== {} ==", path.display());
    println!(
        "generations     {:>10}  (phase I: {})",
        s.generations, s.phase1_generations
    );
    println!("evaluations     {:>10}", s.evaluations);
    println!(
        "fault episodes  {:>10}  ({} quarantined)",
        s.fault_episodes, s.fault_quarantined
    );
    if s.checkpoints > 0 {
        println!("checkpoints     {:>10}", s.checkpoints);
    }
    if skipped > 0 {
        println!("corrupt lines   {:>10}  (skipped)", skipped);
    }

    let acceptance = s.acceptance_by_temperature(5);
    if acceptance.is_empty() {
        println!("promotion acceptance: no annealed promotions recorded");
    } else {
        println!("promotion acceptance by temperature (cold -> hot):");
        for (upper, promoted, candidates) in acceptance {
            #[allow(clippy::cast_precision_loss)]
            let pct = 100.0 * promoted as f64 / candidates as f64;
            println!("  T <= {upper:<8.4} {pct:5.1}%  ({promoted}/{candidates})");
        }
    }

    let ref_point: Vec<String> = s.ref_point.iter().map(|x| format!("{x:.3e}")).collect();
    println!("hypervolume trajectory (ref [{}]):", ref_point.join(", "));
    for point in sample_trajectory(&s.trajectory, 10) {
        println!(
            "  gen {:>5}  front {:>4}  feasible {:>4}  hv {:.4e}",
            point.generation, point.front_size, point.feasible, point.hypervolume
        );
    }

    if s.timed_generations == 0 {
        println!("stage breakdown: no stage timings recorded (v1 log or timing-free sink)");
    } else {
        let total = s.wall_seconds();
        println!(
            "stage breakdown over {} timed generations ({total:.3} s):",
            s.timed_generations
        );
        for stage in Stage::ALL {
            #[allow(clippy::cast_precision_loss)]
            let secs = s.stages.get(stage) as f64 / 1e9;
            let pct = if total > 0.0 {
                100.0 * secs / total
            } else {
                0.0
            };
            println!("  {:<10} {secs:>10.3} s  {pct:5.1}%", stage.name());
        }
        if let Some(eps) = s.evals_per_sec() {
            println!("  evals/sec  {eps:>10.1}");
        }
        if let Some(rate) = s.cache_hit_rate() {
            println!(
                "  cache hits {:>9.1}%  ({}/{})",
                100.0 * rate,
                s.cache_hits,
                s.candidates
            );
        }
    }
    println!();
}

/// At most `max` evenly spaced trajectory points, always keeping the
/// first and last.
fn sample_trajectory(trajectory: &[TrajectoryPoint], max: usize) -> Vec<&TrajectoryPoint> {
    if trajectory.len() <= max {
        return trajectory.iter().collect();
    }
    let last = trajectory.len() - 1;
    let mut picks: Vec<usize> = (0..max).map(|i| i * last / (max - 1)).collect();
    picks.dedup();
    picks.iter().map(|&i| &trajectory[i]).collect()
}

fn diff(path_a: &Path, path_b: &Path) -> ExitCode {
    let (Some((events_a, skipped_a)), Some((events_b, skipped_b))) = (load(path_a), load(path_b))
    else {
        return ExitCode::from(2);
    };
    // One shared reference point so the hypervolumes are comparable.
    let shared = merge_reference(reference_point(&events_a), reference_point(&events_b));
    let a = RunSummary::from_events(&events_a, shared.clone());
    let b = RunSummary::from_events(&events_b, shared);
    if a.generations == 0 || b.generations == 0 {
        eprintln!("trace_report: a diffed log holds no completed generations");
        return ExitCode::from(2);
    }
    if skipped_a + skipped_b > 0 {
        println!(
            "(skipped corrupt lines: {} in A, {} in B)",
            skipped_a, skipped_b
        );
    }

    println!("A = {}", path_a.display());
    println!("B = {}", path_b.display());
    println!("{:<18} {:>14} {:>14} {:>14}", "metric", "A", "B", "B - A");
    let rows: Vec<(&str, f64, f64)> = vec![
        ("generations", to_f64(a.generations), to_f64(b.generations)),
        ("evaluations", to_f64(a.evaluations), to_f64(b.evaluations)),
        (
            "fault episodes",
            to_f64(a.fault_episodes),
            to_f64(b.fault_episodes),
        ),
        (
            "final front size",
            a.last().map_or(0.0, |p| to_f64(p.front_size)),
            b.last().map_or(0.0, |p| to_f64(p.front_size)),
        ),
        ("wall s", a.wall_seconds(), b.wall_seconds()),
        (
            "evals/sec",
            a.evals_per_sec().unwrap_or(0.0),
            b.evals_per_sec().unwrap_or(0.0),
        ),
    ];
    for (name, va, vb) in rows {
        println!("{name:<18} {va:>14.3} {vb:>14.3} {:>+14.3}", vb - va);
    }
    // Hypervolumes live on the problem's objective scale (tiny for the
    // paper problem), so print them in scientific notation.
    let hv_a = a.last().map_or(0.0, |p| p.hypervolume);
    let hv_b = b.last().map_or(0.0, |p| p.hypervolume);
    println!(
        "{:<18} {hv_a:>14.4e} {hv_b:>14.4e} {:>+14.4e}",
        "final hv (shared)",
        hv_b - hv_a
    );
    if a.timed_generations > 0 || b.timed_generations > 0 {
        println!("per-stage seconds:");
        for stage in Stage::ALL {
            #[allow(clippy::cast_precision_loss)]
            let sa = a.stages.get(stage) as f64 / 1e9;
            #[allow(clippy::cast_precision_loss)]
            let sb = b.stages.get(stage) as f64 / 1e9;
            println!(
                "  {:<16} {sa:>14.3} {sb:>14.3} {:>+14.3}",
                stage.name(),
                sb - sa
            );
        }
    }
    ExitCode::SUCCESS
}

/// Lossy-but-fine numeric conversion for table printing.
#[allow(clippy::cast_precision_loss)]
fn to_f64(x: impl TryInto<u64>) -> f64 {
    x.try_into().map_or(f64::NAN, |v: u64| v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<SummaryArgs, String> {
        let args: Vec<String> = list.iter().map(|s| (*s).to_string()).collect();
        parse_summary_args(&args)
    }

    #[test]
    fn json_output_path_defaults_and_skips_flags() {
        let default = Some(PathBuf::from("results/BENCH_runtime.json"));
        let parsed = parse(&["a.jsonl", "b.jsonl", "--json"]).unwrap();
        assert_eq!((parsed.logs.len(), parsed.json_path), (2, default.clone()));
        // A flag right after --json is not taken as the output path.
        let parsed = parse(&["a.jsonl", "--json", "--scrape", "h:1"]).unwrap();
        assert_eq!(parsed.json_path, default);
        assert_eq!(parsed.scrape_addr.as_deref(), Some("h:1"));
        let parsed = parse(&["a.jsonl", "--json", "out.json"]).unwrap();
        assert_eq!(parsed.json_path, Some(PathBuf::from("out.json")));
        for bad in [&["--scrape"][..], &["a.jsonl", "--bogus"], &["--json"]] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_output_may_not_overwrite_a_log() {
        // A leading --json swallows the first log as its output path.
        assert!(parse(&["--json", "a.jsonl", "b.jsonl"]).is_err());
        // An output path equal to an input log, whatever its extension.
        assert!(parse(&["a.jsonl", "--json", "a.jsonl"]).is_err());
        assert!(parse(&["run.log", "--json", "run.log"]).is_err());
    }

    #[test]
    fn refused_output_leaves_the_log_untouched() {
        use sacga::telemetry::{JsonlSink, Optimizer, Sink};
        use sacga::{Sacga, SacgaConfig};

        let dir = std::env::temp_dir().join(format!("trace_report_guard_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        // A replayable log, so only the guard stands between the summary
        // pass and the write.
        let log = dir.join("run.log");
        let config = SacgaConfig::builder()
            .population_size(8)
            .generations(3)
            .partitions(2)
            .build()
            .unwrap();
        let mut sink = JsonlSink::create(&log).unwrap();
        Sacga::new(moea::problems::Schaffer::new(), config)
            .run_with(1, &mut sink)
            .unwrap();
        sink.flush().unwrap();
        let before = std::fs::read(&log).unwrap();

        // The same file spelled another way is still refused.
        let aliased = dir.join("sub").join("..").join("run.log");
        let args = [
            log.display().to_string(),
            "--json".into(),
            aliased.display().to_string(),
        ];
        let _ = summaries(&args);
        assert_eq!(std::fs::read(&log).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
