//! The two batch workloads: `fig5-drivable` (both Fig. 5 arms on the
//! drivable-load problem) and `zdt1-loops` (six optimizer loops on the
//! cheap ZDT1 objective).
//!
//! A *round* runs every arm of the workload once, one after another, on
//! one seed derived from the benchmark seed. Rounds repeat until the
//! time budget is spent; round `r` uses the same derived seed in the
//! untraced and the traced run.

use crate::probe::session_ns_per_candidate;
use crate::replay::{replay, LAYERS};
use crate::stats::{median, mix, peak_rss_mb, tail, Metrics};
use crate::trace::{Recorded, Span, StageSum, Tracer};
use crate::Outcome;
use analog_circuits::{DrivableLoadProblem, IntegratorProblem};
use dse_bench::{paper_problem, sacga_ga, FIG_CACHE_CAPACITY, PHASE1_MAX, POP};
use engine::StageNanos;
use moea::dominance::{dominates, Dominance};
use moea::hypervolume::hypervolume_2d;
use moea::nsga2::{Nsga2, Nsga2Config};
use moea::problems::Zdt1;
use moea::{Problem, RunOutcome};
use sacga::telemetry::{DynOptimizer, DynRunStatus, NullSink, Sink};
use sacga::{
    CellularConfig, CellularGa, IslandConfig, IslandGa, Mesacga, MesacgaConfig, Sacga, SacgaConfig,
    SteadyConfig, SteadySacga, Topology,
};
use std::time::Instant;

/// Generation budget of each Fig. 5 arm.
const FIG5_GENS: usize = 60;
/// Generation budget of each generational ZDT1 loop.
const ZDT1_GENS: usize = 500;
/// ZDT1 decision variables.
const ZDT1_DIM: usize = 30;
/// Per-phase span of the 7-phase MESACGA on ZDT1 (7 × 60 generations
/// after phase I).
const MESACGA_SPAN: usize = 60;
/// Designs replayed through the circuit layers: the last ones SACGA-8
/// evaluated in round 0.
const REPLAY_DESIGNS: usize = 1000;
/// Fixed hypervolume reference points.
const FIG5_REF: [f64; 2] = [0.0, IntegratorProblem::HV_POWER_CEILING];
const ZDT1_REF: [f64; 2] = [1.1, 1.1];

/// Which batch workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Both Fig. 5 arms on the drivable-load problem.
    Fig5,
    /// Six loops on ZDT1.
    Zdt1,
}

/// An arm's label and the name of the span around its runs.
struct Arm {
    label: &'static str,
    span: &'static str,
}

const FIG5_ARMS: [Arm; 2] = [
    Arm {
        label: "tpg",
        span: "loop.tpg",
    },
    Arm {
        label: "sacga8",
        span: "loop.sacga8",
    },
];

const ZDT1_ARMS: [Arm; 6] = [
    Arm {
        label: "sacga8",
        span: "loop.sacga8",
    },
    Arm {
        label: "steady8",
        span: "loop.steady8",
    },
    Arm {
        label: "mesacga",
        span: "loop.mesacga",
    },
    Arm {
        label: "island",
        span: "loop.island",
    },
    Arm {
        label: "cell_torus",
        span: "loop.cell_torus",
    },
    Arm {
        label: "nsga2",
        span: "loop.nsga2",
    },
];

type Boxed<'a> = Box<dyn DynOptimizer + 'a>;

/// The Fig. 5 SACGA configuration of `dse_bench::sacga_ga`, for
/// problems other than the bare drivable-load problem (the traced run's
/// wrapper). The traced run checks its fronts against `sacga_ga` runs.
fn fig5_config(partitions: usize) -> SacgaConfig {
    let (lo, hi) = DrivableLoadProblem::slice_range();
    SacgaConfig::builder()
        .population_size(POP)
        .generations(FIG5_GENS)
        .partitions(partitions)
        .phase1_max(PHASE1_MAX.min(FIG5_GENS / 2))
        .slice_range(lo, hi)
        .cache_capacity(FIG_CACHE_CAPACITY)
        .build()
        .expect("static config")
}

fn fig5_plain(p: &DrivableLoadProblem) -> Vec<Boxed<'_>> {
    vec![
        Box::new(sacga_ga(p, 1, FIG5_GENS)),
        Box::new(sacga_ga(p, 8, FIG5_GENS)),
    ]
}

fn fig5_wrapped<'a, P: Problem + Sync + 'a>(p: &'a P) -> Vec<Boxed<'a>> {
    vec![
        Box::new(Sacga::new(p, fig5_config(1))),
        Box::new(Sacga::new(p, fig5_config(8))),
    ]
}

fn zdt1_arms<'a, P: Problem + Sync + 'a>(p: &'a P) -> Vec<Boxed<'a>> {
    let pop = 100;
    vec![
        Box::new(Sacga::new(
            p,
            SacgaConfig::builder()
                .population_size(pop)
                .generations(ZDT1_GENS)
                .partitions(8)
                .slice_range(0.0, 1.0)
                .build()
                .expect("static config"),
        )),
        Box::new(SteadySacga::new(
            p,
            SteadyConfig::builder()
                .population_size(pop)
                .generations(ZDT1_GENS)
                .partitions(8)
                .slice_range(0.0, 1.0)
                .build()
                .expect("static config"),
        )),
        Box::new(Mesacga::new(
            p,
            MesacgaConfig::builder()
                .population_size(pop)
                .paper_phases(MESACGA_SPAN)
                .slice_range(0.0, 1.0)
                .build()
                .expect("static config"),
        )),
        Box::new(IslandGa::new(
            p,
            IslandConfig::builder()
                .population_size(pop)
                .generations(ZDT1_GENS)
                .build()
                .expect("static config"),
        )),
        Box::new(CellularGa::new(
            p,
            CellularConfig::builder()
                .population_size(pop)
                .generations(ZDT1_GENS)
                .topology(Topology::Torus {
                    rows: 2,
                    cols: 2,
                    radius: 1,
                })
                .openness(0.25)
                .build()
                .expect("static config"),
        )),
        Box::new(Nsga2::new(
            p,
            Nsga2Config::builder()
                .population_size(pop)
                .generations(ZDT1_GENS)
                .build()
                .expect("static config"),
        )),
    ]
}

/// Set-up of one workload instance: the problem, every arm's config and
/// optimizer, and each suspendable arm's initial population (a run
/// suspended before its first generation).
fn setup_once(kind: Kind, seed: u64) -> Result<(), String> {
    let suspend_at_zero = |opts: Vec<Boxed<'_>>| -> Result<(), String> {
        for opt in opts.iter().filter(|o| o.supports_suspension()) {
            match opt.run_until_dyn_with(seed, 0, &mut NullSink) {
                Ok(DynRunStatus::Suspended { .. }) => {}
                Ok(DynRunStatus::Complete(_)) => return Err("run did not suspend".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    };
    match kind {
        Kind::Fig5 => {
            let problem = paper_problem();
            suspend_at_zero(fig5_plain(&problem))
        }
        Kind::Zdt1 => {
            let problem = Zdt1::new(ZDT1_DIM);
            suspend_at_zero(zdt1_arms(&problem))
        }
    }
}

fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::Fig5 => 5,
        Kind::Zdt1 => 51,
    }
}

/// One arm's run within a round.
struct ArmRun {
    wall_s: f64,
    outcome: RunOutcome,
}

/// Every arm once on one seed.
struct Round {
    arms: Vec<ArmRun>,
}

impl Round {
    fn wall_s(&self) -> f64 {
        self.arms.iter().map(|a| a.wall_s).sum()
    }
    fn evaluations(&self) -> u64 {
        self.arms.iter().map(|a| a.outcome.stats.evaluations).sum()
    }
}

fn round_seed(seed: u64, round: usize) -> u64 {
    mix(seed, round as u64)
}

/// Runs every arm untraced.
fn run_round(opts: &[Boxed<'_>], seed: u64) -> Result<Round, String> {
    let mut arms = Vec::with_capacity(opts.len());
    for opt in opts {
        let start = Instant::now();
        let outcome = opt.run_dyn(seed).map_err(|e| e.to_string())?;
        arms.push(ArmRun {
            wall_s: start.elapsed().as_secs_f64(),
            outcome,
        });
    }
    Ok(Round { arms })
}

/// A traced round: its arms' runs, stage times summed over the arms,
/// and the designs each arm evaluated (when the wrapper captures them).
struct TracedRound {
    round: Round,
    stages: StageNanos,
    designs: Vec<Vec<Vec<f64>>>,
    /// Arms whose wrapper did not see every design the engine evaluated.
    failed: u64,
}

/// Runs every arm with a span around each run, the wrapped problem
/// attached to that span, and the loops' stage timings summed.
fn run_traced_round<P: Problem>(
    opts: &[Boxed<'_>],
    arms: &[Arm],
    seed: u64,
    round: usize,
    tracer: &Tracer,
    wrapped: &Recorded<'_, P>,
) -> Result<TracedRound, String> {
    let mut runs = Vec::with_capacity(opts.len());
    let mut sink = StageSum::default();
    let mut designs = Vec::with_capacity(opts.len());
    let mut failed = 0;
    for (i, (opt, arm)) in opts.iter().zip(arms).enumerate() {
        let trace = trace_id(round, i);
        let start = Instant::now();
        let outcome = tracer.span(None, trace, arm.span, |id| {
            wrapped.attach(trace, id);
            opt.run_dyn_with(seed, &mut sink as &mut dyn Sink)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let outcome = outcome.map_err(|e| e.to_string())?;
        // Every model evaluation the engine counted went through the
        // wrapper exactly once.
        let seen = wrapped.take_items();
        if seen != outcome.stats.evaluations {
            eprintln!(
                "check failed: {}: the wrapper saw {seen} designs, the engine evaluated {}",
                arm.label, outcome.stats.evaluations
            );
            failed += 1;
        }
        runs.push(ArmRun { wall_s, outcome });
        designs.push(wrapped.take_designs());
    }
    Ok(TracedRound {
        round: Round { arms: runs },
        stages: sink.stages,
        designs,
        failed,
    })
}

fn trace_id(round: usize, arm: usize) -> u64 {
    (round as u64 + 1) * 16 + arm as u64
}

/// The output checks of one batch run: the engine's candidate balance,
/// and a non-empty final front of feasible, mutually non-dominated
/// members.
fn check_outcome(o: &RunOutcome) -> Result<(), String> {
    let s = &o.stats;
    if s.candidates != s.evaluations + s.cache_hits + s.screened {
        return Err(format!(
            "candidates {} != evaluations {} + cache_hits {} + screened {}",
            s.candidates, s.evaluations, s.cache_hits, s.screened
        ));
    }
    if o.front.is_empty() {
        return Err("empty final front".into());
    }
    if let Some(m) = o.front.iter().find(|m| !m.is_feasible()) {
        return Err(format!("infeasible front member {:?}", m.objectives()));
    }
    for (i, a) in o.front.iter().enumerate() {
        for b in &o.front[i + 1..] {
            if dominates(a.objectives(), b.objectives()) != Dominance::Neither {
                return Err(format!(
                    "front members {:?} and {:?} dominate one another",
                    a.objectives(),
                    b.objectives()
                ));
            }
        }
    }
    Ok(())
}

/// Exact text of a run's final front (genes and objectives as f64 bits)
/// and its engine counts, for byte comparison.
fn fingerprint(o: &RunOutcome) -> String {
    let s = &o.stats;
    let mut out = format!(
        "generations={} gen_t={} evaluations={} candidates={} engine_evaluations={} \
         cache_hits={} screened={} batches={} max_batch={} failures={} retries={} \
         recovered={} quarantined={}\n",
        o.generations,
        o.gen_t,
        o.evaluations,
        s.candidates,
        s.evaluations,
        s.cache_hits,
        s.screened,
        s.batches,
        s.max_batch,
        s.failures,
        s.retries,
        s.recovered,
        s.quarantined
    );
    for m in &o.front {
        let hex = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!("{} | {}\n", hex(&m.genes), hex(m.objectives())));
    }
    out
}

fn hv(o: &RunOutcome, scale: [f64; 2], reference: [f64; 2]) -> f64 {
    let points: Vec<[f64; 2]> = o
        .front
        .iter()
        .map(|m| [m.objective(0) * scale[0], m.objective(1) * scale[1]])
        .collect();
    hypervolume_2d(&points, reference)
}

/// `front_hv` of a round: SACGA-8's front in scaled paper units (pF,
/// 0.1 mW) for Fig. 5; the mean over arms for ZDT1.
fn front_hv(kind: Kind, round: &Round) -> f64 {
    match kind {
        Kind::Fig5 => hv(&round.arms[1].outcome, [1e12, 1e4], FIG5_REF),
        Kind::Zdt1 => {
            let sum: f64 = round
                .arms
                .iter()
                .map(|a| hv(&a.outcome, [1.0, 1.0], ZDT1_REF))
                .sum();
            sum / round.arms.len() as f64
        }
    }
}

/// Checks every arm of a round, counting failures.
fn check_round(kind: Kind, round: &Round, failed: &mut u64) {
    let arms = arms(kind);
    for (arm, run) in arms.iter().zip(&round.arms) {
        if let Err(e) = check_outcome(&run.outcome) {
            eprintln!("check failed: {} {}: {e}", workload_name(kind), arm.label);
            *failed += 1;
        }
    }
}

fn arms(kind: Kind) -> &'static [Arm] {
    match kind {
        Kind::Fig5 => &FIG5_ARMS,
        Kind::Zdt1 => &ZDT1_ARMS,
    }
}

fn workload_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Fig5 => "fig5-drivable",
        Kind::Zdt1 => "zdt1-loops",
    }
}

/// Runs rounds while the next one is expected to end no more than half a
/// round past `seconds` (at least one round); `round(r)` runs round `r`
/// and returns its wall time.
fn timed_rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(round(walls.len())?);
        if start.elapsed().as_secs_f64() + 0.5 * median(&walls) > seconds {
            return Ok(walls);
        }
    }
}

/// Runs a batch workload and returns its metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    if traced {
        return run_traced(kind, seed, seconds);
    }
    let mut setups = Vec::new();
    for _ in 0..setup_reps(kind) {
        let start = Instant::now();
        setup_once(kind, seed)?;
        setups.push(start.elapsed().as_secs_f64());
    }

    let fig5_problem = paper_problem();
    let zdt1_problem = Zdt1::new(ZDT1_DIM);
    let opts = match kind {
        Kind::Fig5 => fig5_plain(&fig5_problem),
        Kind::Zdt1 => zdt1_arms(&zdt1_problem),
    };
    // Each round is checked as soon as it ends and only round 0 is kept,
    // so memory does not grow with the number of rounds.
    let mut failed = 0;
    let mut attempted = 0;
    let mut evaluations = 0;
    let mut first = None;
    // Peak memory of set-up plus one round: what one run of the workload
    // needs. Later rounds repeat the same work, and how far allocator
    // fragmentation lifts the high-water mark over them depends on how
    // many rounds fit in the time budget.
    let mut peak_rss = 0.0;
    let walls = timed_rounds(seconds, |r| {
        let round = run_round(&opts, round_seed(seed, r))?;
        check_round(kind, &round, &mut failed);
        attempted += round.arms.len() as u64;
        evaluations += round.evaluations();
        let wall = round.wall_s();
        if r == 0 {
            first = Some(round);
            peak_rss = peak_rss_mb();
        }
        Ok(wall)
    })?;
    let first = first.expect("at least one round");
    let total_wall: f64 = walls.iter().sum();
    let t = tail(&walls);

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("run_wall_s", median(&walls), "s");
    metrics.put("evals_per_s", evaluations as f64 / total_wall, "1/s");
    metrics.put("front_hv", front_hv(kind, &first), "hv");
    metrics.put("sweep_latency_p50_s", median(&walls), "s");
    metrics.put("sweep_latency_tail_s", t.value, "s");
    metrics.put("sweeps_per_s", walls.len() as f64 / total_wall, "1/s");
    metrics.put("peak_rss_mb", peak_rss, "MiB");

    let stats = first
        .arms
        .iter()
        .fold(engine::EngineStats::default(), |mut acc, a| {
            acc.merge(&a.outcome.stats);
            acc
        });
    let mut properties = vec![
        format!(
            "rounds: {} (every arm once per round, one derived seed per round), walls {:.3?} s; \
             sweep_latency_tail_s is the p{:.0} over {} rounds with {} beyond",
            walls.len(),
            walls,
            t.percentile,
            t.samples,
            t.beyond
        ),
        format!(
            "engine cache hit fraction (round 0): {:.4} of {} candidates",
            stats.hit_rate(),
            stats.candidates
        ),
    ];
    properties.push(match kind {
        Kind::Fig5 => {
            let largest = first.arms.iter().map(|a| a.outcome.stats.evaluations).max();
            format!(
                "memo cache over capacity: {} (largest per-run insert count {} of {FIG_CACHE_CAPACITY})",
                if largest.unwrap_or(0) > FIG_CACHE_CAPACITY as u64 { "yes" } else { "no" },
                largest.unwrap_or(0)
            )
        }
        Kind::Zdt1 => "memo cache: none configured, every candidate is evaluated".into(),
    });
    properties.push("drivable_load outcome mix: counted by the traced run (--trace 1)".into());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        properties,
    })
}

fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let fig5_problem = paper_problem();
    let zdt1_problem = Zdt1::new(ZDT1_DIM);
    let arm_table = arms(kind);
    let pairs = match kind {
        Kind::Fig5 => {
            let wrapped = Recorded::new(&fig5_problem, &tracer, true);
            let plain = fig5_plain(&fig5_problem);
            let traced = fig5_wrapped(&wrapped);
            traced_pairs(&plain, &traced, kind, seed, seconds, &tracer, &wrapped)
        }
        Kind::Zdt1 => {
            let wrapped = Recorded::new(&zdt1_problem, &tracer, false);
            let plain = zdt1_arms(&zdt1_problem);
            let traced = zdt1_arms(&wrapped);
            traced_pairs(&plain, &traced, kind, seed, seconds, &tracer, &wrapped)
        }
    }?;
    let first = &pairs.first;

    let spans = tracer.spans();
    let round0_ids: Vec<u64> = (0..arm_table.len()).map(|i| trace_id(0, i)).collect();
    let is_call = |s: &&Span| s.name.starts_with("circuits.evaluate");
    let is_run = |s: &&Span| s.name.starts_with("loop.");
    let calls: Vec<&Span> = spans.iter().filter(is_call).collect();
    let call_ns: u64 = calls.iter().map(|s| s.ns()).sum();
    let run_ns: u64 = spans.iter().filter(is_run).map(|s| s.ns()).sum();
    let named = |name: &str, round0_only: bool| -> Vec<&Span> {
        calls
            .iter()
            .copied()
            .filter(|s| s.name == name && (!round0_only || round0_ids.contains(&s.trace)))
            .collect()
    };

    let mut m = Metrics::default();
    let scalar = named("circuits.evaluate", false);
    let batch = named("circuits.evaluate_all", false);
    m.put(
        "circuits.evaluate.calls",
        named("circuits.evaluate", true).len() as f64,
        "count",
    );
    m.put(
        "circuits.evaluate.ns_p50",
        crate::stats::median_ns(&scalar.iter().map(|s| s.ns()).collect::<Vec<_>>()),
        "ns",
    );
    m.put(
        "circuits.evaluate_all.calls",
        named("circuits.evaluate_all", true).len() as f64,
        "count",
    );
    let batch_items: u64 = batch.iter().map(|s| s.items).sum();
    let batch_ns: u64 = batch.iter().map(|s| s.ns()).sum();
    m.put(
        "circuits.evaluate_all.ns_per_design",
        if batch_items == 0 {
            0.0
        } else {
            batch_ns as f64 / batch_items as f64
        },
        "ns",
    );
    let busy = call_ns as f64 / run_ns as f64;
    m.put("circuits.busy_frac", busy, "frac");

    let mut properties = Vec::new();
    if kind == Kind::Fig5 {
        let sacga8 = &first.designs[1];
        let sample = &sacga8[sacga8.len().saturating_sub(REPLAY_DESIGNS)..];
        let trace = u64::MAX - 1;
        let (mix, p50) = tracer.span(None, trace, "replay", |id| {
            replay(&fig5_problem, sample, &tracer, trace, id)
        });
        for (layer, ns) in LAYERS.iter().zip(&p50) {
            m.put(&format!("{layer}.ns_p50"), *ns, "ns");
        }
        m.put("circuits.drivable_load.top", mix.top as f64, "count");
        m.put("circuits.drivable_load.bisect", mix.bisect as f64, "count");
        m.put("circuits.drivable_load.none", mix.none as f64, "count");
        m.put("circuits.vgs_tail.no_root", mix.vgs_no_root as f64, "count");
        properties.push(format!(
            "drivable_load outcome mix over the last {} designs SACGA-8 evaluated in round 0: \
             top {} / bisect {} / none {}; tail solves without a root: {}",
            sample.len(),
            mix.top,
            mix.bisect,
            mix.none,
            mix.vgs_no_root
        ));
    }

    let mut stats = engine::EngineStats::default();
    for a in &first.round.arms {
        stats.merge(&a.outcome.stats);
    }
    m.put("engine.candidates", stats.candidates as f64, "count");
    m.put("engine.evaluations", stats.evaluations as f64, "count");
    m.put("engine.cache_hits", stats.cache_hits as f64, "count");
    m.put("engine.screened", stats.screened as f64, "count");
    m.put("engine.cache.hit_frac", stats.hit_rate(), "frac");
    m.put("engine.non_eval_frac", 1.0 - busy, "frac");
    properties.push(format!(
        "engine cache hit fraction (round 0): {:.4} of {} candidates",
        stats.hit_rate(),
        stats.candidates
    ));

    let probe_trace = u64::MAX;
    let (nocache, cache) = tracer.span(None, probe_trace, "probe", |id| {
        session_ns_per_candidate(seed, &tracer, probe_trace, id)
    })?;
    m.put("engine.session.ns_per_candidate.nocache", nocache, "ns");
    m.put("engine.session.ns_per_candidate.cache", cache, "ns");

    for (arm, span) in arm_table.iter().map(|a| (a.label, a.span)) {
        let walls: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect();
        m.put(&format!("loop.{arm}.wall_s"), median(&walls), "s");
    }
    for stage in engine::Stage::ALL {
        m.put(
            &format!("loop.{}_s", stage.name()),
            first.stages.get(stage) as f64 * 1e-9,
            "s",
        );
    }
    m.put(
        "trace.overhead_frac",
        median(&pairs.traced_walls) / median(&pairs.plain_walls) - 1.0,
        "frac",
    );

    crate::write_spans(&tracer, workload_name(kind), seed, &spans);
    properties.push(format!(
        "traced rounds: {} (each paired with an untraced round on the same seed; fronts and \
         engine counts compared byte for byte)",
        pairs.plain_walls.len()
    ));
    Ok(Outcome {
        metrics: m,
        attempted: pairs.attempted,
        failed: pairs.failed,
        properties,
    })
}

/// What alternating untraced and traced rounds produced.
struct Pairs {
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Round 0 of the traced side.
    first: TracedRound,
}

/// Alternates untraced and traced rounds on the same derived seeds until
/// the time budget is spent (at least one pair), checking both sides and
/// comparing every arm's fingerprint across them.
fn traced_pairs<P: Problem>(
    plain: &[Boxed<'_>],
    traced: &[Boxed<'_>],
    kind: Kind,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    wrapped: &Recorded<'_, P>,
) -> Result<Pairs, String> {
    let start = Instant::now();
    let arm_table = arms(kind);
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut pair_walls = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut first = None;
    // Leave room for the replay and the session probe.
    let reserve = if kind == Kind::Fig5 { 0.2 } else { 0.1 } * seconds;
    for r in 0.. {
        let s = round_seed(seed, r);
        let pair_start = Instant::now();
        // Alternate which side runs first, so neither always pays for a
        // cold start.
        let (u, t) = if r % 2 == 0 {
            let u = run_round(plain, s)?;
            (
                u,
                run_traced_round(traced, arm_table, s, r, tracer, wrapped)?,
            )
        } else {
            let t = run_traced_round(traced, arm_table, s, r, tracer, wrapped)?;
            (run_round(plain, s)?, t)
        };
        pair_walls.push(pair_start.elapsed().as_secs_f64());
        plain_walls.push(u.wall_s());
        traced_walls.push(t.round.wall_s());
        attempted += 2 * u.arms.len() as u64;
        failed += t.failed;
        check_round(kind, &u, &mut failed);
        check_round(kind, &t.round, &mut failed);
        for (arm, (a, b)) in arm_table.iter().zip(u.arms.iter().zip(&t.round.arms)) {
            if fingerprint(&a.outcome) != fingerprint(&b.outcome) {
                eprintln!(
                    "check failed: {} {} round {r}: traced run differs from untraced run",
                    workload_name(kind),
                    arm.label
                );
                failed += 1;
            }
        }
        if r == 0 {
            first = Some(t);
        }
        if start.elapsed().as_secs_f64() + median(&pair_walls) + reserve > seconds {
            break;
        }
    }
    Ok(Pairs {
        plain_walls,
        traced_walls,
        attempted,
        failed,
        first: first.expect("at least one pair"),
    })
}
