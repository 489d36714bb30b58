//! Replays captured designs through each public function of the circuit
//! model, one span per call, and counts the input properties that decide
//! what the load search costs.

use crate::stats::median_ns;
use crate::trace::{Span, Tracer};
use analog_circuits::mosfet::Mosfet;
use analog_circuits::process::DeviceType;
use analog_circuits::sizing::CL_RANGE;
use analog_circuits::{integrator, opamp, yield_est, DesignVector, DrivableLoadProblem};
use std::hint::black_box;

/// Layer boundaries replayed per design, in call order.
pub const LAYERS: [&str; 6] = [
    "circuits.prepared_plan",
    "circuits.drivable_load",
    "circuits.integrator_analyze",
    "circuits.opamp_analyze",
    "circuits.robustness",
    "circuits.vgs_tail",
];

/// Exact outcome counts of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mix {
    /// Designs that drive the top of the load range (one probe).
    pub top: u64,
    /// Designs whose drivable load is found by scan and bisection.
    pub bisect: u64,
    /// Designs that drive no load in the range.
    pub none: u64,
    /// Tail-current solves with no root below the supply.
    pub vgs_no_root: u64,
}

/// Replays `designs` (raw sizing genes) through every layer in
/// [`LAYERS`], recording one span per call under `parent`, and returns
/// the outcome mix and each layer's median call time in ns.
pub fn replay(
    problem: &DrivableLoadProblem,
    designs: &[Vec<f64>],
    tracer: &Tracer,
    trace: u64,
    parent: u64,
) -> (Mix, Vec<f64>) {
    let process = problem.process();
    let clock = problem.clock();
    let spec = problem.spec();
    let plan = yield_est::prepared_plan(process);
    let mut mix = Mix::default();
    let mut ns: Vec<Vec<u64>> = vec![Vec::with_capacity(designs.len()); LAYERS.len()];
    let mut timed = |layer: usize, f: &mut dyn FnMut()| {
        let start_ns = tracer.now_ns();
        f();
        let end_ns = tracer.now_ns();
        ns[layer].push(end_ns - start_ns);
        tracer.push(Span {
            id: tracer.reserve(),
            parent: Some(parent),
            trace,
            name: LAYERS[layer],
            start_ns,
            end_ns,
            items: 1,
        });
    };
    for genes in designs {
        let dv = DesignVector::from_sizing_genes(genes).quantize();
        timed(0, &mut || {
            black_box(yield_est::prepared_plan(black_box(process)));
        });
        let mut load = None;
        timed(1, &mut || load = problem.drivable_load(black_box(&dv)));
        let cl = match load {
            Some((cl, _)) if cl >= CL_RANGE.1 => {
                mix.top += 1;
                cl
            }
            Some((cl, _)) => {
                mix.bisect += 1;
                cl
            }
            None => {
                mix.none += 1;
                CL_RANGE.0
            }
        };
        let at = dv.with_cl(cl);
        timed(2, &mut || {
            black_box(integrator::analyze(black_box(&at), process, clock));
        });
        timed(3, &mut || {
            black_box(opamp::analyze(black_box(&at), process));
        });
        timed(4, &mut || {
            black_box(yield_est::robustness_prepared(
                black_box(&at),
                &plan,
                clock,
                spec,
            ));
        });
        // The tail solve as the op-amp poses it: M5 carries `itail` at
        // the pair's source voltage (mid-supply when the input pair
        // itself has no solution or no headroom).
        let vdd = process.vdd;
        let m1 = Mosfet::new(DeviceType::Nmos, dv.w1, dv.l1);
        let vds = m1
            .vgs_for_current(process, 0.5 * dv.itail, 0.5 * vdd, vdd)
            .map(|vgs1| dv.vcm_in - vgs1)
            .filter(|&vs1| vs1 > 0.02)
            .unwrap_or(0.5 * vdd);
        let m5 = Mosfet::new(DeviceType::Nmos, dv.w5, dv.l5);
        let mut root = None;
        timed(5, &mut || {
            root = m5.vgs_for_current(process, black_box(dv.itail), vds, vdd);
        });
        if root.is_none() {
            mix.vgs_no_root += 1;
        }
    }
    (mix, ns.iter().map(|v| median_ns(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_circuits::Spec;

    #[test]
    fn replay_classifies_every_design_once() {
        let problem = DrivableLoadProblem::new(Spec::featured());
        let designs = vec![
            DesignVector::reference().to_genes(),
            vec![0.0; 15],
            vec![0.5; 15],
        ];
        let tracer = Tracer::default();
        let (mix, p50) = replay(&problem, &designs, &tracer, 1, 1);
        assert_eq!(mix.top + mix.bisect + mix.none, 3);
        assert!(mix.none >= 1, "the all-minimum design drives nothing");
        assert_eq!(p50.len(), LAYERS.len());
        assert_eq!(tracer.spans().len(), 3 * LAYERS.len());
    }
}
