#![warn(missing_docs)]
//! # sacga — mixing local and global competition in genetic optimization
//!
//! Implementation of the DATE 2005 paper *"Mixing Global and Local
//! Competition in Genetic Optimization based Design Space Exploration of
//! Analog Circuits"* (Somani, Chakrabarti, Patra).
//!
//! Traditional multi-objective GAs rank every individual against every
//! other (*purely global competition*), which on tightly-constrained
//! problems lets an early feasible cluster take over: crossover keeps
//! producing children *inside* the cluster, weaker outlying solutions lose
//! the global competition and die, and the Pareto front ends up covering a
//! small fraction of the objective space.
//!
//! This crate provides the paper's remedies on top of the [`moea`]
//! substrate:
//!
//! * [`partition`] — slicing the objective space into partitions along one
//!   objective, inducing *local* competitions;
//! * [`anneal`] — the simulated-annealing machinery of Sec. 4.4: the
//!   promotion-cost function `c = k₁·e^(k₂·i/(n−1))`, the participation
//!   probability `prob = 1 − e^(−α/(c·T_A))`, the cooling schedule
//!   `T_A = T_init·e^(−k₃·ln(T_init)/span·(gen−gen_t))`, and a closed-form
//!   [`ProbabilityShaper`] that solves the
//!   constants from target probabilities (reproducing Fig. 4);
//! * [`steady`] — the partition-GA flow: offspring production and
//!   incremental merging through the engine's submission/completion API,
//!   bit-identical across worker counts, running a list of annealed
//!   phases after the pure-local phase I. Steady-state SACGA is the flow
//!   with a look-ahead window;
//! * [`sacga`] — the Simulated-Annealing-driven Competition GA: pure local
//!   competition transitioning gradually into pure global competition,
//!   the flow's generational preset (`window == quantum ==
//!   population_size`). The pure local-competition GA of Sec. 4.3
//!   (diverse but slow to converge) is the same preset with promotion
//!   switched off:
//!   [`CompetitionMode::LocalOnly`](sacga::CompetitionMode::LocalOnly);
//! * [`mesacga`] — the Multi-phase Expanding-partitions SACGA of Sec. 4.5:
//!   the generational flow through a phase list of progressively fewer,
//!   larger partitions (e.g. 20 → 13 → 8 → 5 → 3 → 2 → 1), removing the
//!   need to guess the optimal static partition count;
//! * [`cellular`] — a structured-population GA over a pluggable
//!   neighborhood [`topology`] (ring, torus, fully-connected,
//!   small-world); the [`island`] model is its fully-connected preset
//!   with closed mating;
//! * [`checkpoint`] — plain-text run checkpoints: every run but NSGA-II
//!   can be suspended at any generation boundary
//!   ([`Sacga::run_until`](sacga::Sacga::run_until),
//!   [`Mesacga::run_until`](mesacga::Mesacga::run_until)) and resumed
//!   bit-identically, including across process restarts.
//!
//! Three population loops remain — [`moea::nsga2::Nsga2`], the
//! [`steady`] flow and the [`cellular`] loop — and every optimizer
//! built on them ([`sacga`] in either competition mode, [`mesacga`],
//! [`steady`], [`island`], [`cellular`], NSGA-II) implements the unified
//! [`Optimizer`] run API and emits the structured
//! [`RunEvent`] stream of the [`telemetry`] module
//! into composable [`Sink`]s.
//!
//! ## Example
//!
//! ```
//! use sacga::prelude::*;
//! use moea::problems::Schaffer;
//!
//! # fn main() -> Result<(), moea::OptimizeError> {
//! let config = SacgaConfig::builder()
//!     .population_size(40)
//!     .generations(60)
//!     .partitions(8)
//!     .build()?;
//! let ga = Sacga::new(Schaffer::new(), config);
//!
//! // Instrumented run: a memory sink captures the event stream.
//! let mut sink = MemorySink::new();
//! let result = ga.run_with(42, &mut sink)?;
//! assert!(!result.front.is_empty());
//!
//! // Sinks never consume RNG: the bare run is bit-identical.
//! assert_eq!(ga.run(42)?.front_objectives(), result.front_objectives());
//! let ends = sink
//!     .events()
//!     .iter()
//!     .filter(|e| e.kind() == EventKind::GenerationEnd)
//!     .count();
//! assert_eq!(ends, result.generations);
//! # Ok(())
//! # }
//! ```

pub mod anneal;
pub mod cellular;
pub mod checkpoint;
pub mod island;
pub mod mesacga;
pub mod partition;
pub mod prelude;
pub mod sacga;
pub mod steady;
pub mod telemetry;
pub mod topology;

pub use anneal::{AnnealingSchedule, ProbabilityShaper, PromotionPolicy};
pub use cellular::{CellularConfig, CellularGa};
pub use checkpoint::{
    cell_artifact_name, CellularCheckpoint, EngineState, MesacgaCheckpoint, SavedIndividual,
    SteadyCheckpoint,
};
pub use island::{IslandConfig, IslandGa};
pub use mesacga::{Mesacga, MesacgaConfig, PhaseSpec};
pub use partition::PartitionGrid;
pub use sacga::{Sacga, SacgaConfig};
pub use steady::{SteadyConfig, SteadySacga};
pub use telemetry::{
    CheckpointText, DynOptimizer, DynRunStatus, EventKind, FaultRateAlarm, HealthWarning,
    InfeasibilityAlarm, JsonlSink, MemorySink, MetricsRow, MetricsSink, NoCheckpoint, NullSink,
    Optimizer, RunEvent, Sink, StallDetector, Tee, EVENT_SCHEMA_VERSION,
};
pub use topology::Topology;
