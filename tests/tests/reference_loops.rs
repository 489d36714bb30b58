//! Reference goldens for the presets: generational SACGA (both
//! competition modes), MESACGA and the island model, pinned bit-exactly
//! over a configuration matrix.
//!
//! Each `tests/golden/reference_*.txt` line summarizes one seeded run:
//! the outcome counters in plain text, plus 64-bit FNV-1a digests of
//! the exact bit patterns of the final population (genes, objectives,
//! violations, rank, crowding), the front, the history rows, the
//! MESACGA phase fronts, and every event line except stage timing
//! (wall-clock). Engine counters are pinned whole except the two
//! durations. The SACGA and MESACGA files also pin the checkpoint text
//! at a spread of suspension points (for SACGA, the engine state only,
//! so the digest is independent of the header and of an empty pending
//! look-ahead).
//!
//! The goldens were recorded from the dedicated generational, MESACGA
//! and island loops before those loops became presets of the steady
//! flow and the cellular loop; the presets must reproduce them
//! unchanged. So must a resume from `sacga-checkpoint v1` text, the
//! format the generational loop wrote. To re-record after an
//! intentional behavior change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p integration-tests --test reference_loops
//! ```

use analog_dse::campaign::CellResult;
use analog_dse::circuits::{DrivableLoadProblem, Spec};
use analog_dse::engine::{EngineStats, FaultPlan, FaultPolicy};
use analog_dse::moea::individual::Individual;
use analog_dse::moea::problems::{BinhKorn, Constr, NarrowingCorridor, Schaffer, Tanaka, Zdt1};
use analog_dse::moea::{OptimizeError, Problem, RunOutcome, RunStatus};
use analog_dse::sacga::island::{IslandConfig, IslandGa};
use analog_dse::sacga::mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
use analog_dse::sacga::sacga::{CompetitionMode, Sacga, SacgaConfig};
use analog_dse::sacga::telemetry::{EventKind, Optimizer, RunEvent, Sink};
use analog_dse::sacga::SteadyCheckpoint;

mod common;
use common::check_golden;

/// 64-bit FNV-1a over a rendered string.
fn fnv(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn hex(vs: &[f64]) -> String {
    vs.iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn render_members(members: &[Individual]) -> String {
    let mut out = String::new();
    for m in members {
        out.push_str(&format!(
            "{} | {} | {} | {} {:016x}\n",
            hex(&m.genes),
            hex(m.objectives()),
            hex(m.evaluation.constraint_violations()),
            m.rank,
            m.crowding.to_bits()
        ));
    }
    out
}

/// Engine counters without the wall-clock durations.
fn render_stats(s: &EngineStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}/{}",
        s.candidates,
        s.evaluations,
        s.cache_hits,
        s.screened,
        s.batches,
        s.max_batch,
        s.failures,
        s.retries,
        s.recovered,
        s.quarantined,
        s.injected_panics,
        s.injected_nonfinite,
        s.injected_delays
    )
}

/// Records every event except stage timing as its JSON line.
#[derive(Default)]
struct Lines(Vec<String>);

impl Sink for Lines {
    fn record(&mut self, event: &RunEvent) {
        self.0.push(event.to_json());
    }
    fn wants(&self, kind: EventKind) -> bool {
        kind != EventKind::StageTiming
    }
}

fn summarize(label: &str, o: &RunOutcome, events: &Lines) -> String {
    let history: String = o
        .history
        .iter()
        .map(|h| {
            format!(
                "{} {} {:016x} {} {} {}\n",
                h.generation,
                h.phase,
                h.temperature.to_bits(),
                h.promoted,
                h.feasible,
                h.population
            )
        })
        .collect();
    let phases: String = o
        .phase_fronts
        .iter()
        .map(|f| format!("{}--\n", render_members(f)))
        .collect();
    format!(
        "{label} gen={} gen_t={} evals={} migrations={} front={} stats={} \
         pop={} front={} history={} phases={}:{} events={}:{}\n",
        o.generations,
        o.gen_t,
        o.evaluations,
        o.migrations,
        o.front.len(),
        render_stats(&o.stats),
        fnv(&render_members(&o.population)),
        fnv(&render_members(&o.front)),
        fnv(&history),
        o.phase_fronts.len(),
        fnv(&phases),
        events.0.len(),
        fnv(&events.0.concat()),
    )
}

/// Runs `ga` on `seed` with the event recorder attached and summarizes.
fn run<O: Optimizer>(label: &str, ga: &O, seed: u64) -> String {
    let mut events = Lines::default();
    let outcome = ga.run_with(seed, &mut events).unwrap();
    summarize(label, &outcome, &events)
}

/// A checkpoint's lines with the wall-clock durations of its `stats`
/// record (evaluation and backoff time) zeroed.
fn scrub_durations(text: &str) -> String {
    text.lines()
        .map(|l| match l.strip_prefix("stats ") {
            Some(rest) => {
                let mut toks: Vec<&str> = rest.split(' ').collect();
                toks[5] = "0";
                toks[10] = "0";
                format!("stats {}\n", toks.join(" "))
            }
            None => format!("{l}\n"),
        })
        .collect()
}

/// The engine-state lines of a checkpoint: everything but the header,
/// an empty `pending 0` look-ahead and the `end` marker.
fn state_lines(text: &str) -> String {
    scrub_durations(text)
        .lines()
        .skip(1)
        .filter(|l| *l != "pending 0" && *l != "end")
        .map(|l| format!("{l}\n"))
        .collect()
}

fn sacga_config(pop: usize, gens: usize, parts: usize, mode: CompetitionMode) -> SacgaConfig {
    SacgaConfig::builder()
        .population_size(pop)
        .generations(gens)
        .partitions(parts)
        .mode(mode)
        .build()
        .unwrap()
}

fn sacga_line<P: Problem + Sync>(label: &str, problem: P, cfg: SacgaConfig, seed: u64) -> String {
    run(label, &Sacga::new(problem, cfg), seed)
}

#[test]
fn sacga_presets_reproduce_the_generational_reference() {
    let mut out = String::from("# reference-loops v1: sacga\n");
    for (mode, tag) in [
        (CompetitionMode::Annealed, "sacga"),
        (CompetitionMode::LocalOnly, "local"),
    ] {
        for m in [1usize, 3, 5] {
            for seed in [1u64, 2, 3] {
                let cfg = sacga_config(24, 16, m, mode);
                let label = |p: &str| format!("{tag} {p} m={m} seed={seed}");
                out += &sacga_line(&label("schaffer"), Schaffer::new(), cfg.clone(), seed);
                out += &sacga_line(&label("binhkorn"), BinhKorn::new(), cfg.clone(), seed);
                out += &sacga_line(&label("constr"), Constr::new(), cfg.clone(), seed);
                out += &sacga_line(&label("tanaka"), Tanaka::new(), cfg.clone(), seed);
                out += &sacga_line(&label("zdt1"), Zdt1::new(6), cfg, seed);
            }
        }
    }
    // Phase I ending at its cap with infeasible partitions discarded.
    let capped = SacgaConfig::builder()
        .population_size(30)
        .generations(20)
        .partitions(8)
        .phase1_max(6)
        .slice_range(-2.0, 0.0)
        .build()
        .unwrap();
    out += &sacga_line(
        "sacga corridor capped seed=21",
        NarrowingCorridor::new(0.05),
        capped,
        21,
    );
    // Memoization and fault injection (recovered and quarantined).
    let cached = SacgaConfig::builder()
        .population_size(24)
        .generations(12)
        .partitions(4)
        .cache_capacity(4096)
        .cache_grid(1e-2)
        .build()
        .unwrap();
    out += &sacga_line("sacga schaffer cached seed=4", Schaffer::new(), cached, 4);
    let faulty = SacgaConfig::builder()
        .population_size(24)
        .generations(12)
        .partitions(4)
        .fault_policy(FaultPolicy::tolerant(3))
        .inject_faults(FaultPlan::seeded(11).panics(0.05).nonfinite(0.05))
        .build()
        .unwrap();
    out += &sacga_line("sacga tanaka faulty seed=5", Tanaka::new(), faulty, 5);
    // The circuit problem, through its batch kernel.
    let (lo, hi) = DrivableLoadProblem::slice_range();
    let drivable = SacgaConfig::builder()
        .population_size(16)
        .generations(6)
        .partitions(4)
        .phase1_max(3)
        .slice_range(lo, hi)
        .cache_capacity(1024)
        .build()
        .unwrap();
    out += &sacga_line(
        "sacga drivable m=4 seed=7",
        DrivableLoadProblem::new(Spec::featured()),
        drivable,
        7,
    );
    check_golden("reference_sacga.txt", &out);
}

#[test]
fn sacga_checkpoint_state_matches_the_generational_reference() {
    let mut out = String::from("# reference-loops v1: sacga checkpoint state\n");
    let sacga = |p: Box<dyn Problem + Sync>, cfg| Sacga::new(p, cfg);
    let cases = [
        (
            "schaffer m=5 seed=42",
            sacga(
                Box::new(Schaffer::new()),
                sacga_config(32, 20, 5, CompetitionMode::Annealed),
            ),
        ),
        (
            "tanaka local m=3 seed=42",
            sacga(
                Box::new(Tanaka::new()),
                sacga_config(24, 16, 3, CompetitionMode::LocalOnly),
            ),
        ),
        (
            "constr m=5 seed=42",
            sacga(
                Box::new(Constr::new()),
                sacga_config(24, 16, 5, CompetitionMode::Annealed),
            ),
        ),
    ];
    for (label, ga) in cases {
        for stop in [0usize, 1, 2, 3, 4, 7, 11, 15] {
            let text = match ga.run_until(42, stop).unwrap() {
                RunStatus::Suspended(cp) => cp.to_text(),
                RunStatus::Complete(_) => panic!("{label}: run should suspend at {stop}"),
            };
            out.push_str(&format!(
                "{label} stop={stop} state={}\n",
                fnv(&state_lines(&text))
            ));
        }
    }
    check_golden("reference_sacga_checkpoints.txt", &out);
}

fn mesacga_schedules() -> Vec<(&'static str, Vec<PhaseSpec>)> {
    vec![
        (
            "6-3-1",
            vec![
                PhaseSpec::new(6, 5),
                PhaseSpec::new(3, 5),
                PhaseSpec::new(1, 5),
            ],
        ),
        (
            "8-4-2-1",
            vec![
                PhaseSpec::new(8, 4),
                PhaseSpec::new(4, 4),
                PhaseSpec::new(2, 3),
                PhaseSpec::new(1, 3),
            ],
        ),
        ("1", vec![PhaseSpec::new(1, 6)]),
    ]
}

fn mesacga(
    problem: Box<dyn Problem + Sync>,
    phases: Vec<PhaseSpec>,
    slice: bool,
) -> Mesacga<Box<dyn Problem + Sync>> {
    let mut b = MesacgaConfig::builder()
        .population_size(24)
        .phase1_max(5)
        .phases(phases);
    if slice {
        b = b.slice_range(-1.0, 0.0);
    }
    Mesacga::new(problem, b.build().unwrap())
}

#[test]
fn mesacga_preset_reproduces_the_reference() {
    let mut out = String::from("# reference-loops v1: mesacga\n");
    for (name, phases) in mesacga_schedules() {
        for seed in [1u64, 2] {
            let ga = mesacga(Box::new(Schaffer::new()), phases.clone(), false);
            out += &run(&format!("mesacga {name} schaffer seed={seed}"), &ga, seed);
            let ga = mesacga(Box::new(NarrowingCorridor::new(0.05)), phases.clone(), true);
            out += &run(&format!("mesacga {name} corridor seed={seed}"), &ga, seed);
            let ga = mesacga(Box::new(Tanaka::new()), phases.clone(), false);
            out += &run(&format!("mesacga {name} tanaka seed={seed}"), &ga, seed);
        }
    }
    // Suspension points across phase I, phase boundaries and the end.
    for (name, phases) in mesacga_schedules() {
        for (pname, problem, slice) in [
            (
                "schaffer",
                Box::new(Schaffer::new()) as Box<dyn Problem + Sync>,
                false,
            ),
            ("corridor", Box::new(NarrowingCorridor::new(0.05)), true),
        ] {
            let ga = mesacga(problem, phases.clone(), slice);
            let total = ga.run_seeded(3).unwrap().generations;
            for stop in 0..total {
                let text = match ga.run_until(3, stop).unwrap() {
                    RunStatus::Suspended(cp) => cp.to_text(),
                    RunStatus::Complete(_) => panic!("mesacga should suspend at {stop}"),
                };
                out.push_str(&format!(
                    "mesacga {name} {pname} seed=3 stop={stop} checkpoint={}\n",
                    fnv(&scrub_durations(&text))
                ));
            }
        }
    }
    check_golden("reference_mesacga.txt", &out);
}

#[test]
fn island_preset_reproduces_the_reference() {
    let mut out = String::from("# reference-loops v1: island\n");
    let mut seed = 0u64;
    for (pop, k) in [(32usize, 4usize), (30, 3), (100, 5), (33, 4), (20, 1)] {
        for (interval, migrants) in [(5usize, 2usize), (1, 1), (20, 2), (7, 0)] {
            seed += 1;
            let cfg = IslandConfig::builder()
                .population_size(pop)
                .generations(20)
                .islands(k)
                .migration_interval(interval)
                .migrants(migrants)
                .build()
                .unwrap();
            let label = |p: &str| {
                format!("island {p} pop={pop} k={k} interval={interval} migrants={migrants} seed={seed}")
            };
            out += &run(
                &label("schaffer"),
                &IslandGa::new(Schaffer::new(), cfg.clone()),
                seed,
            );
            out += &run(&label("constr"), &IslandGa::new(Constr::new(), cfg), seed);
        }
    }
    let faulty = IslandConfig::builder()
        .population_size(32)
        .generations(12)
        .islands(4)
        .migration_interval(3)
        .cache_capacity(4096)
        .fault_policy(FaultPolicy::tolerant(3))
        .inject_faults(FaultPlan::seeded(9).panics(0.05).nonfinite(0.05))
        .build()
        .unwrap();
    out += &run(
        "island tanaka faulty cached seed=6",
        &IslandGa::new(Tanaka::new(), faulty),
        6,
    );
    check_golden("reference_island.txt", &out);
}

/// `sacga-checkpoint v1` text written by the generational loop for a
/// Schaffer SACGA job (`sacga:pop=16,gens=12,parts=4`, seed 42)
/// suspended after generation 6.
fn legacy_checkpoint() -> String {
    std::fs::read_to_string(common::golden_path("legacy_sacga_checkpoint_gen6.txt")).unwrap()
}

fn legacy_job() -> Sacga<Schaffer> {
    Sacga::new(
        Schaffer::new(),
        sacga_config(16, 12, 4, CompetitionMode::Annealed),
    )
}

#[test]
fn legacy_sacga_checkpoint_resumes_to_the_uninterrupted_outcome() {
    let cp = SteadyCheckpoint::from_text(&legacy_checkpoint()).unwrap();
    assert_eq!(cp.state.gen, 6);
    assert!(cp.pending.is_empty());
    let outcome = legacy_job().resume(&cp).unwrap();
    let cell = CellResult::from_outcome("sacga:pop=16,gens=12,parts=4", 42, &outcome);
    check_golden("server_sacga_schaffer_seed42.cell", &cell.to_text());
}

#[test]
fn truncated_or_flipped_legacy_checkpoint_is_rejected_without_panicking() {
    let text = legacy_checkpoint();
    let bytes = text.as_bytes();
    // Every cut short of the closing `end` loses the end marker.
    for cut in 0..bytes.len() - 1 {
        let head = std::str::from_utf8(&bytes[..cut]).unwrap();
        assert!(
            matches!(
                SteadyCheckpoint::from_text(head),
                Err(OptimizeError::InvalidCheckpoint { .. })
            ),
            "truncation at byte {cut} parsed"
        );
    }
    // A flipped low bit either breaks the syntax (an InvalidCheckpoint)
    // or yields another well-formed state; resuming one must not panic.
    let ga = legacy_job();
    let mut resumed = 0;
    for i in 0..bytes.len() {
        let mut flipped = bytes.to_vec();
        flipped[i] ^= 0x01;
        let Ok(flipped) = String::from_utf8(flipped) else {
            continue;
        };
        match SteadyCheckpoint::from_text(&flipped) {
            Err(e) => assert!(
                matches!(e, OptimizeError::InvalidCheckpoint { .. }),
                "flip at byte {i}: {e}"
            ),
            Ok(cp) => {
                resumed += 1;
                let _ = ga.resume(&cp);
            }
        }
    }
    assert!(resumed > 0);
    // Counters far out of range are refused rather than overflowed.
    for (from, to) in [
        ("gen 6\n", "gen 18446744073709551615\n"),
        ("gen_t 1\n", "gen_t 18446744073709551615\n"),
    ] {
        let cp = SteadyCheckpoint::from_text(&text.replace(from, to)).unwrap();
        let _ = ga.resume(&cp);
    }
    let huge_gen = text.replace("gen 6\n", "gen 18446744073709551615\n");
    assert!(matches!(
        ga.resume(&SteadyCheckpoint::from_text(&huge_gen).unwrap()),
        Err(OptimizeError::InvalidCheckpoint { .. })
    ));
}
