//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig5-drivable|zdt1-loops|service-sweeps> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the workload's input properties, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when an output check fails. See
//! `perfbench/README.md`.

mod batch;
mod probe;
mod replay;
mod service;
mod stats;
mod trace;

use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// What one workload run produced.
pub struct Outcome {
    /// Metrics the workload measured.
    pub metrics: Metrics,
    /// Operations attempted: optimizer runs, or service jobs.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Input properties, printed beside the workload's purpose.
    pub properties: Vec<String>,
}

/// The workloads, each with the reason it was chosen. `zdt1-loops` is
/// left out of `BENCHMARK.json`; see the README.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "fig5-drivable",
        "Both Fig. 5 arms (TPG and SACGA-8, population 100, 60 generations, 64Ki memo cache) on \
         the drivable-load problem: the circuit model is nearly all of the wall time here.",
    ),
    (
        "zdt1-loops",
        "Six optimizer loops on the cheap ZDT1 objective: the circuit model is bypassed, so the \
         engine session and the loop stages carry the run. Not gated by BENCHMARK.json.",
    ),
    (
        "service-sweeps",
        "A closed loop of 2 client connections submitting sweeps of 4 jobs to an in-process \
         server on loopback: protocol, spec parsing, queue, preemption, job store, tenant cache.",
    ),
];

/// End-to-end metrics (untraced runs) and their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("front_hv", "hv"),
    ("sweep_latency_p50_s", "s"),
    ("sweep_latency_tail_s", "s"),
    ("sweeps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs) and their units. A workload that does
/// not drive a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("circuits.evaluate.calls", "count"),
    ("circuits.evaluate.ns_p50", "ns"),
    ("circuits.evaluate_all.calls", "count"),
    ("circuits.evaluate_all.ns_per_design", "ns"),
    ("circuits.busy_frac", "frac"),
    ("circuits.drivable_load.ns_p50", "ns"),
    ("circuits.integrator_analyze.ns_p50", "ns"),
    ("circuits.opamp_analyze.ns_p50", "ns"),
    ("circuits.robustness.ns_p50", "ns"),
    ("circuits.prepared_plan.ns_p50", "ns"),
    ("circuits.vgs_tail.ns_p50", "ns"),
    ("circuits.drivable_load.top", "count"),
    ("circuits.drivable_load.bisect", "count"),
    ("circuits.drivable_load.none", "count"),
    ("circuits.vgs_tail.no_root", "count"),
    ("engine.candidates", "count"),
    ("engine.evaluations", "count"),
    ("engine.cache_hits", "count"),
    ("engine.screened", "count"),
    ("engine.cache.hit_frac", "frac"),
    ("engine.non_eval_frac", "frac"),
    ("engine.session.ns_per_candidate.nocache", "ns"),
    ("engine.session.ns_per_candidate.cache", "ns"),
    ("loop.tpg.wall_s", "s"),
    ("loop.sacga8.wall_s", "s"),
    ("loop.steady8.wall_s", "s"),
    ("loop.mesacga.wall_s", "s"),
    ("loop.island.wall_s", "s"),
    ("loop.cell_torus.wall_s", "s"),
    ("loop.nsga2.wall_s", "s"),
    ("loop.variation_s", "s"),
    ("loop.evaluation_s", "s"),
    ("loop.ranking_s", "s"),
    ("loop.promotion_s", "s"),
    ("loop.selection_s", "s"),
    ("server.submit.rtt_p50_s", "s"),
    ("server.submit.rtt_tail_s", "s"),
    ("server.queue_wait_p50_s", "s"),
    ("server.job_run_p50_s", "s"),
    ("server.stream.events_per_job", "count"),
    ("server.stream.bytes_per_job", "B"),
    ("server.preemptions", "count"),
    ("server.slices", "count"),
    ("server.slice_s_sum", "s"),
    ("server.pool.busy_frac", "frac"),
    ("server.store.bytes", "B"),
    ("server.store.bytes_per_checkpoint", "B"),
    ("server.open_s_per_stored_job", "s"),
    ("server.tenant.hit_frac", "frac"),
    ("server.repeat_jobs", "count"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Writes a traced run's spans to `.bench_out/<workload>-seed<n>.spans.jsonl`
/// and prints each span name's total and self time.
pub fn write_spans(tracer: &trace::Tracer, workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}.spans.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!(
        "{:<44} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in trace::self_times(spans) {
        println!(
            "{name:<44} {count:>8} {:>12.6} {:>12.6}",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig5-drivable|zdt1-loops|service-sweeps> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (name, why) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .expect("validated workload");
    println!("workload {name}: {why}");
    let result = match args.workload.as_str() {
        "fig5-drivable" => batch::run(batch::Kind::Fig5, args.seed, args.seconds, args.trace),
        "zdt1-loops" => batch::run(batch::Kind::Zdt1, args.seed, args.seconds, args.trace),
        _ => service::run(args.seed, args.seconds, args.trace),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.properties {
        println!("input: {p}");
    }

    // Every workload reports the full metric set of its mode.
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Metrics::default();
    for (metric, unit) in table {
        let value = outcome.metrics.get(metric).unwrap_or(0.0);
        metrics.put(metric, value, unit);
    }
    let mut failed = outcome.failed;
    let broken = metrics.non_finite();
    if !broken.is_empty() {
        eprintln!("check failed: non-finite metrics {broken:?}");
        failed += 1;
    }
    let attempted = outcome.attempted.max(1);
    let correct = failed == 0;
    println!(
        "fail_frac: {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    println!("{}", metrics.result_json(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a `BENCHMARK.json` section lists, in order.
    fn listed(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = s.trim_start_matches([':', ' ']);
                s[1..s[1..].find('"').expect("quoted name") + 1].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(json, "end_to_end"), names(&END_TO_END));
        assert_eq!(listed(json, "per_layer"), names(&PER_LAYER));
        for workload in listed(json, "workloads") {
            assert!(WORKLOADS.iter().any(|(w, _)| *w == workload), "{workload}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} with unit {unit}"
            );
        }
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
