//! Robustness ("yield") estimation across manufacturing corners and local
//! mismatch.
//!
//! The paper constrains a "Yield Calculation \[6\] (Robustness)" figure; the
//! referenced HOLMES methodology is proprietary, so this module substitutes
//! a deterministic corner × mismatch sweep (see `DESIGN.md` §4): the design
//! is re-analyzed at every process corner plus a small set of
//! low-discrepancy local-mismatch points, and robustness is the fraction of
//! sample points at which all specification constraints hold. The sample
//! set is fixed, so the figure is deterministic and smooth enough for a GA
//! to climb.

use crate::integrator::{self, ClockContext, IntegratorReport};
use crate::process::{Corner, Process};
use crate::sizing::DesignVector;
use crate::specs::Spec;

/// One robustness sample point: a corner plus local mismatch offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Manufacturing corner.
    pub corner: Corner,
    /// NMOS threshold shift (V).
    pub dvt_n: f64,
    /// PMOS threshold shift (V).
    pub dvt_p: f64,
    /// Relative mobility/kp shift.
    pub dkp: f64,
}

/// The deterministic sample plan used by [`robustness`]: the five corners
/// at zero mismatch, plus four mismatch-heavy TT points arranged on a
/// low-discrepancy cross (±12 mV thresholds, ∓6 % mobility).
pub fn sample_plan() -> Vec<SamplePoint> {
    let mut plan: Vec<SamplePoint> = Corner::ALL
        .iter()
        .map(|&corner| SamplePoint {
            corner,
            dvt_n: 0.0,
            dvt_p: 0.0,
            dkp: 0.0,
        })
        .collect();
    let mm = 0.012;
    let dk = 0.06;
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: mm,
        dvt_p: -mm,
        dkp: -dk,
    });
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: -mm,
        dvt_p: mm,
        dkp: dk,
    });
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: mm,
        dvt_p: mm,
        dkp: -dk,
    });
    plan.push(SamplePoint {
        corner: Corner::Tt,
        dvt_n: -mm,
        dvt_p: -mm,
        dkp: dk,
    });
    plan
}

/// `true` when `report` satisfies every *performance* constraint of `spec`
/// (DR, OR, ST, SE, saturation margin). Robustness itself and area are
/// global properties, not per-sample ones.
pub fn passes_performance(report: &IntegratorReport, spec: &Spec) -> bool {
    report.is_biased()
        && report.dynamic_range_db >= spec.dr_min_db
        && report.output_range >= spec.or_min_v
        && report.settling_time <= spec.st_max
        && report.settling_error <= spec.se_max
        && report.opamp.sat_margin >= spec.sat_margin_min
}

/// The [`sample_plan`] with the skewed [`Process`] of every sample point
/// already built. Deriving the nine corner/mismatch process descriptions
/// is design-independent, so a problem prepares this table once, when it
/// is constructed, and reuses it for every candidate.
pub fn prepared_plan(nominal: &Process) -> Vec<(SamplePoint, Process)> {
    sample_plan()
        .into_iter()
        .map(|sp| {
            let process = nominal
                .at_corner(sp.corner)
                .with_mismatch(sp.dvt_n, sp.dvt_p, sp.dkp);
            (sp, process)
        })
        .collect()
}

/// Robustness of a design against a pre-built sample table (see
/// [`prepared_plan`]): the fraction of points at which all performance
/// constraints of `spec` hold, plus the per-sample verdicts.
pub fn robustness_prepared(
    dv: &DesignVector,
    plan: &[(SamplePoint, Process)],
    clock: &ClockContext,
    spec: &Spec,
) -> (f64, Vec<(SamplePoint, bool)>) {
    graded(dv, plan, None, clock, spec)
}

/// Grades `dv` at every point of `plan`. `known` names one point whose
/// report is already at hand; it is graded from that report instead of
/// being analyzed again.
fn graded(
    dv: &DesignVector,
    plan: &[(SamplePoint, Process)],
    known: Option<(usize, &IntegratorReport)>,
    clock: &ClockContext,
    spec: &Spec,
) -> (f64, Vec<(SamplePoint, bool)>) {
    let mut outcomes = Vec::with_capacity(plan.len());
    let mut passed = 0usize;
    for (i, (sp, process)) in plan.iter().enumerate() {
        let ok = match known {
            Some((k, report)) if k == i => passes_performance(report, spec),
            _ => passes_performance(&integrator::analyze(dv, process, clock), spec),
        };
        if ok {
            passed += 1;
        }
        outcomes.push((*sp, ok));
    }
    (passed as f64 / outcomes.len() as f64, outcomes)
}

/// A problem's robustness table: the [`prepared_plan`] of its nominal
/// process, built once, plus the sample whose process *is* the nominal
/// one bit for bit (TT at zero mismatch). The problem has already
/// analyzed the design there, so that sample reuses its report and an
/// evaluation costs one op-amp solve fewer.
#[derive(Debug, Clone)]
pub(crate) struct NominalPlan {
    points: Vec<(SamplePoint, Process)>,
    nominal: Option<usize>,
}

impl NominalPlan {
    /// Prepares the table for `nominal`.
    pub(crate) fn new(nominal: &Process) -> Self {
        let points = prepared_plan(nominal);
        let bits = nominal.bits();
        let nominal = points.iter().position(|(_, p)| p.bits() == bits);
        NominalPlan { points, nominal }
    }

    /// Robustness of `dv`, where `report` is `integrator::analyze(dv,
    /// nominal, clock)`: the same fraction [`robustness_prepared`] returns.
    pub(crate) fn robustness(
        &self,
        dv: &DesignVector,
        report: &IntegratorReport,
        clock: &ClockContext,
        spec: &Spec,
    ) -> f64 {
        let known = self.nominal.map(|k| (k, report));
        graded(dv, &self.points, known, clock, spec).0
    }
}

/// Robustness of a design: the fraction of [`sample_plan`] points at which
/// all performance constraints of `spec` hold. Returns a value in `[0, 1]`
/// together with the per-sample reports (for diagnostics).
pub fn robustness_detailed(
    dv: &DesignVector,
    nominal: &Process,
    clock: &ClockContext,
    spec: &Spec,
) -> (f64, Vec<(SamplePoint, bool)>) {
    robustness_prepared(dv, &prepared_plan(nominal), clock, spec)
}

/// Robustness of a design (just the fraction). See [`robustness_detailed`].
pub fn robustness(dv: &DesignVector, nominal: &Process, clock: &ClockContext, spec: &Spec) -> f64 {
    robustness_detailed(dv, nominal, clock, spec).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_corners_plus_mismatch() {
        let plan = sample_plan();
        assert_eq!(plan.len(), 9);
        for c in Corner::ALL {
            assert!(plan.iter().any(|s| s.corner == c));
        }
        assert!(plan.iter().filter(|s| s.dvt_n != 0.0).count() == 4);
    }

    #[test]
    fn reference_design_is_robust_for_relaxed_spec() {
        let dv = DesignVector::reference();
        let r = robustness(
            &dv,
            &Process::nominal(),
            &ClockContext::standard(),
            &Spec::relaxed(),
        );
        assert!(r > 0.8, "robustness {r}");
    }

    #[test]
    fn impossible_spec_gives_zero_robustness() {
        let dv = DesignVector::reference();
        let mut spec = Spec::featured();
        spec.dr_min_db = 200.0;
        let r = robustness(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn robustness_is_deterministic() {
        let dv = DesignVector::reference();
        let spec = Spec::featured();
        let a = robustness(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        let b = robustness(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_plan_matches_per_call_construction() {
        let dv = DesignVector::reference();
        let spec = Spec::featured();
        let nominal = Process::nominal();
        let clock = ClockContext::standard();
        let plan = prepared_plan(&nominal);
        let (a, da) = robustness_prepared(&dv, &plan, &clock, &spec);
        let (b, db) = robustness_detailed(&dv, &nominal, &clock, &spec);
        assert_eq!(a, b);
        assert_eq!(da, db);
    }

    #[test]
    fn tt_at_zero_mismatch_is_the_nominal_process_bit_for_bit() {
        // The precondition of grading the TT sample from the nominal report.
        let nominal = Process::nominal();
        let mut processes = vec![nominal];
        processes.extend(Corner::ALL.iter().map(|&c| nominal.at_corner(c)));
        for p in processes {
            let tt = p.at_corner(Corner::Tt).with_mismatch(0.0, 0.0, 0.0);
            assert_eq!(tt.bits(), p.bits());
            let same: Vec<usize> = prepared_plan(&p)
                .iter()
                .enumerate()
                .filter(|(_, (_, q))| q.bits() == p.bits())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(same.len(), 1, "plan points equal to the nominal: {same:?}");
            assert_eq!(NominalPlan::new(&p).nominal, Some(same[0]));
        }
    }

    #[test]
    fn detailed_outcomes_match_fraction() {
        let dv = DesignVector::reference();
        let spec = Spec::relaxed();
        let (frac, detail) =
            robustness_detailed(&dv, &Process::nominal(), &ClockContext::standard(), &spec);
        let count = detail.iter().filter(|(_, ok)| *ok).count();
        assert!((frac - count as f64 / detail.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn broken_design_fails_everywhere() {
        let mut dv = DesignVector::reference();
        dv.itail = 500e-6;
        dv.w5 = 2e-6;
        dv.l5 = 1.5e-6;
        let r = robustness(
            &dv,
            &Process::nominal(),
            &ClockContext::standard(),
            &Spec::relaxed(),
        );
        assert_eq!(r, 0.0);
    }
}
