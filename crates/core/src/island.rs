//! Island-model multi-objective GA — the diversity-preservation
//! alternative the paper positions itself against.
//!
//! Sec. 4.1: *"A known method of diversity preservation is parallel
//! population GA with inter-population migration controlled in a tribe or
//! island based framework \[7\], which can be extended for Multi-objective
//! GA. However, in this work, we try to establish that this objective can
//! be accomplished by a simple modification in the traditional
//! single-population GA."*
//!
//! This module provides that baseline so the claim can be tested: `k`
//! islands evolve independently (each an elitist constrained-dominance GA
//! on its own subpopulation, *genotypically* separated rather than
//! objective-space partitioned), with periodic ring migration of each
//! island's best individuals. Compare against SACGA with the
//! `ablation_competition_modes` harness or your own experiments.
//!
//! "From Cells to Islands" places the island model at the
//! fully-connected end of the cellular continuum, and that is how it
//! runs: [`IslandGa`] is the [`cellular`](crate::cellular) loop on
//! [`Topology::FullyConnected`] with closed mating, so it checkpoints
//! and resumes like any cellular run.

use crate::cellular::{CellularConfig, CellularConfigBuilder, CellularGa};
use crate::checkpoint::CellularCheckpoint;
use crate::telemetry::{Optimizer, Sink};
use crate::topology::Topology;
use engine::EvaluatorKind;
use moea::operators::Variation;
use moea::problem::Problem;
use moea::{OptimizeError, RunOutcome, RunStatus};

/// Configuration of an island-model run. Build with
/// [`IslandConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct IslandConfig {
    cells: CellularConfig,
}

impl IslandConfig {
    /// Starts a configuration builder.
    pub fn builder() -> IslandConfigBuilder {
        IslandConfigBuilder::default()
    }

    /// Total population across all islands.
    pub fn population_size(&self) -> usize {
        self.cells.population_size()
    }

    /// Number of islands.
    pub fn islands(&self) -> usize {
        self.cells.topology().cells()
    }

    /// Generation budget.
    pub fn generations(&self) -> usize {
        self.cells.generations()
    }
}

/// Builder for [`IslandConfig`].
#[derive(Debug, Clone)]
pub struct IslandConfigBuilder {
    cells: CellularConfigBuilder,
    islands: usize,
}

impl Default for IslandConfigBuilder {
    fn default() -> Self {
        IslandConfigBuilder {
            cells: CellularConfig::builder()
                .population_size(100)
                .generations(250)
                .migration_interval(20)
                .migrants(2),
            islands: 5,
        }
    }
}

impl IslandConfigBuilder {
    /// Sets the total population (split evenly across islands).
    pub fn population_size(mut self, n: usize) -> Self {
        self.cells = self.cells.population_size(n);
        self
    }

    /// Sets the generation budget.
    pub fn generations(mut self, n: usize) -> Self {
        self.cells = self.cells.generations(n);
        self
    }

    /// Sets the island count (≥ 1).
    pub fn islands(mut self, k: usize) -> Self {
        self.islands = k;
        self
    }

    /// Sets how many generations pass between migrations (≥ 1).
    pub fn migration_interval(mut self, g: usize) -> Self {
        self.cells = self.cells.migration_interval(g);
        self
    }

    /// Sets how many individuals migrate per island per event.
    pub fn migrants(mut self, m: usize) -> Self {
        self.cells = self.cells.migrants(m);
        self
    }

    /// Overrides the variation operators.
    pub fn variation(mut self, v: Variation) -> Self {
        self.cells = self.cells.variation(v);
        self
    }

    /// Replaces the whole engine-knob bundle at once (see
    /// [`moea::EngineSetup`]); the individual knob methods below
    /// delegate to the same bundle.
    pub fn engine_setup(mut self, exec: moea::setup::EngineSetup) -> Self {
        self.cells = self.cells.engine_setup(exec);
        self
    }

    /// Selects the candidate-evaluation strategy (default: serial).
    pub fn evaluator(mut self, evaluator: impl Into<EvaluatorKind>) -> Self {
        self.cells = self.cells.evaluator(evaluator);
        self
    }

    /// Enables evaluation memoization with room for `capacity` entries
    /// (default: disabled).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cells = self.cells.cache_capacity(capacity);
        self
    }

    /// Sets the memoization quantization grid (must be positive).
    pub fn cache_grid(mut self, grid: f64) -> Self {
        self.cells = self.cells.cache_grid(grid);
        self
    }

    /// Sets the fault-handling policy for candidate evaluation: retry
    /// budget, non-finite quarantine, and exhaustion behavior.
    pub fn fault_policy(mut self, fault: engine::FaultPolicy) -> Self {
        self.cells = self.cells.fault_policy(fault);
        self
    }

    /// Enables deterministic fault injection with the given plan (a
    /// testing/chaos harness — injected faults are reproducible per
    /// candidate).
    pub fn inject_faults(mut self, plan: engine::FaultPlan) -> Self {
        self.cells = self.cells.inject_faults(plan);
        self
    }

    /// Attaches a live [`engine::EngineMetrics`] bundle: the engine
    /// mirrors its counters and latency/batch-size histograms into the
    /// bundle's registry as evaluation happens. Observation only — an
    /// instrumented run is bit-identical to a bare one.
    pub fn metrics(mut self, metrics: engine::EngineMetrics) -> Self {
        self.cells = self.cells.metrics(metrics);
        self
    }

    /// Finalizes the configuration: `islands` cells on a fully-connected
    /// graph with closed mating, whose first neighbor is the
    /// ring-migration target `(i + 1) % islands`. A single island has no
    /// neighbor and never migrates, so it is exempt from the graph's
    /// two-cell minimum.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError::InvalidConfig`] when islands is zero, the
    /// per-island population would drop below 4, the interval is zero, or
    /// migrants reach the island size.
    pub fn build(self) -> Result<IslandConfig, OptimizeError> {
        if self.islands == 0 {
            return Err(OptimizeError::invalid_config(
                "islands",
                "must be at least 1",
            ));
        }
        let cells = self
            .cells
            .topology(Topology::FullyConnected {
                cells: self.islands,
            })
            .openness(0.0)
            .check()?;
        Ok(IslandConfig { cells })
    }
}

/// The island-model multi-objective GA: the cellular loop on a
/// fully-connected topology with closed mating. Its checkpoints are
/// [`CellularCheckpoint`]s.
///
/// # Examples
///
/// ```
/// use sacga::island::{IslandGa, IslandConfig};
/// use moea::problems::Schaffer;
///
/// # fn main() -> Result<(), moea::OptimizeError> {
/// let config = IslandConfig::builder()
///     .population_size(40)
///     .generations(30)
///     .islands(4)
///     .build()?;
/// let result = IslandGa::new(Schaffer::new(), config).run_seeded(1)?;
/// assert!(!result.front.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IslandGa<P: Problem> {
    cells: CellularGa<P>,
}

impl<P: Problem> IslandGa<P> {
    /// Creates an optimizer for `problem` with `config`.
    pub fn new(problem: P, config: IslandConfig) -> Self {
        IslandGa {
            cells: CellularGa::new(problem, config.cells),
        }
    }

    /// Runs with a seeded RNG.
    ///
    /// # Errors
    ///
    /// Propagates problem-definition errors discovered at start-up and
    /// [`OptimizeError::EvaluationFailed`] when a candidate evaluation
    /// exhausts the fault policy's retry budget with an aborting policy.
    pub fn run_seeded(&self, seed: u64) -> Result<RunOutcome, OptimizeError>
    where
        P: Sync,
    {
        self.cells.run_seeded(seed)
    }
}

impl<P: Problem + Sync> Optimizer for IslandGa<P> {
    type Checkpoint = CellularCheckpoint;

    fn algorithm(&self) -> &'static str {
        "island"
    }

    fn run_with(&self, seed: u64, sink: &mut dyn Sink) -> Result<RunOutcome, OptimizeError> {
        self.cells.run_with(seed, sink)
    }

    fn run_until_with(
        &self,
        seed: u64,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        self.cells.run_until_with(seed, stop_after, sink)
    }

    fn resume_with(
        &self,
        checkpoint: &CellularCheckpoint,
        sink: &mut dyn Sink,
    ) -> Result<RunOutcome, OptimizeError> {
        self.cells.resume_with(checkpoint, sink)
    }

    fn resume_until_with(
        &self,
        checkpoint: &CellularCheckpoint,
        stop_after: usize,
        sink: &mut dyn Sink,
    ) -> Result<RunStatus<CellularCheckpoint>, OptimizeError> {
        self.cells.resume_until_with(checkpoint, stop_after, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RunEvent;
    use moea::problems::{Schaffer, Zdt1};

    fn quick(islands: usize, interval: usize) -> IslandConfig {
        IslandConfig::builder()
            .population_size(40)
            .generations(30)
            .islands(islands)
            .migration_interval(interval)
            .migrants(2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(IslandConfig::builder().islands(0).build().is_err());
        assert!(IslandConfig::builder()
            .population_size(10)
            .islands(5)
            .build()
            .is_err());
        assert!(IslandConfig::builder()
            .migration_interval(0)
            .build()
            .is_err());
        assert!(IslandConfig::builder()
            .population_size(20)
            .islands(2)
            .migrants(10)
            .build()
            .is_err());
        assert!(IslandConfig::builder().build().is_ok());
    }

    #[test]
    fn run_is_deterministic() {
        let a = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(3)
            .unwrap();
        let b = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(3)
            .unwrap();
        assert_eq!(a.front_objectives(), b.front_objectives());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn migrations_happen_on_schedule() {
        let r = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(1)
            .unwrap();
        assert_eq!(r.migrations, 3); // generations 10, 20, 30
    }

    #[test]
    fn events_match_run_structure() {
        use crate::telemetry::MemorySink;
        let mut sink = MemorySink::new();
        let ga = IslandGa::new(Schaffer::new(), quick(4, 10));
        assert_eq!(ga.algorithm(), "island");
        let watched = ga.run_with(1, &mut sink).unwrap();
        let bare = ga.run_seeded(1).unwrap();
        assert_eq!(bare.front_objectives(), watched.front_objectives());
        assert_eq!(bare.history, watched.history);
        let ends = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::GenerationEnd { .. }))
            .count();
        assert_eq!(ends, watched.generations);
        // One Promotion event per migration event (ring migration reuses
        // the promotion vocabulary).
        let promotions = sink
            .events()
            .iter()
            .filter(|e| matches!(e, RunEvent::Promotion { .. }))
            .count();
        assert_eq!(promotions, watched.migrations);
        // The archipelago suspends like any cellular run.
        let RunStatus::Suspended(cp) = ga.run_until(1, 5).unwrap() else {
            panic!("island run should suspend at generation 5");
        };
        assert_eq!(cp.gen, 5);
        assert_eq!(ga.resume(&cp).unwrap().history, bare.history);
    }

    #[test]
    fn single_island_never_migrates() {
        let r = IslandGa::new(Schaffer::new(), quick(1, 10))
            .run_seeded(1)
            .unwrap();
        assert_eq!(r.migrations, 0);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn archipelago_converges_on_schaffer() {
        let cfg = IslandConfig::builder()
            .population_size(60)
            .generations(80)
            .islands(4)
            .migration_interval(10)
            .build()
            .unwrap();
        let r = IslandGa::new(Schaffer::new(), cfg).run_seeded(7).unwrap();
        assert!(r.front.len() > 10);
        for m in &r.front {
            let f1 = m.objective(0);
            let f2 = m.objective(1);
            let expected = (f1.sqrt() - 2.0).powi(2);
            assert!(
                (f2 - expected).abs() < 0.1 + 0.15 * (1.0 + expected),
                "({f1}, {f2}) vs {expected}"
            );
        }
    }

    #[test]
    fn works_on_zdt() {
        let cfg = IslandConfig::builder()
            .population_size(48)
            .generations(40)
            .islands(3)
            .build()
            .unwrap();
        let r = IslandGa::new(Zdt1::new(8), cfg).run_seeded(5).unwrap();
        assert!(!r.front.is_empty());
        assert!(r.population.len() == 48);
    }

    #[test]
    fn evaluation_budget_matches_other_algorithms() {
        // pop + gens*pop evaluations, comparable to NSGA-II/SACGA budgets.
        let r = IslandGa::new(Schaffer::new(), quick(4, 10))
            .run_seeded(2)
            .unwrap();
        assert_eq!(r.evaluations, 40 + 30 * 40);
    }
}
