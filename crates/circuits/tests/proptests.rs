//! Property-based tests of the circuit-model invariants.

use analog_circuits::integrator::{analyze, ClockContext};
use analog_circuits::mosfet::{
    effective_overdrive, Mosfet, KINK_GUARD_ABOVE, SLOPE_FACTOR, V_THERMAL,
};
use analog_circuits::process::{Corner, DeviceType, Process};
use analog_circuits::sizing::DesignVector;
use analog_circuits::{DrivableLoadProblem, IntegratorProblem, Spec};
use moea::Problem;
use proptest::prelude::*;

fn device() -> impl Strategy<Value = Mosfet> {
    (
        prop_oneof![Just(DeviceType::Nmos), Just(DeviceType::Pmos)],
        1e-6f64..400e-6,
        0.18e-6f64..1.5e-6,
    )
        .prop_map(|(d, w, l)| Mosfet::new(d, w, l))
}

proptest! {
    #[test]
    fn effective_overdrive_is_monotone_positive(
        v1 in -1.0f64..1.0,
        v2 in -1.0f64..1.0,
    ) {
        let (a, b) = (v1.min(v2), v1.max(v2));
        prop_assert!(effective_overdrive(a) <= effective_overdrive(b) + 1e-15);
        prop_assert!(effective_overdrive(v1) > 0.0);
        // strong-inversion asymptote
        prop_assert!((effective_overdrive(1.0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn drain_current_monotone_in_vgs(
        m in device(),
        vds in 0.1f64..1.8,
        corner in 0usize..Corner::ALL.len(),
    ) {
        // `id` dips just above the mobility kink (the θ₁·x^(1/3) term has
        // infinite slope there), so it is monotone only on either side of
        // the guard band `[kink, kink + KINK_GUARD_ABOVE]`. The grid is
        // 20 mV steps plus 20 µV steps from 1 mV below the kink to 2 mV past
        // the band, which samples inside the dip (≲ 0.4 mV wide).
        let p = Process::nominal().at_corner(Corner::ALL[corner]);
        let kink = m.mobility_kink(&p);
        let band_end = kink + KINK_GUARD_ABOVE;
        let mut grid: Vec<f64> = (0..=85).map(|k| 0.1 + 0.02 * f64::from(k)).collect();
        grid.extend((0..=650).map(|k| kink - 1e-3 + 2e-5 * f64::from(k)));
        grid.sort_by(f64::total_cmp);
        let mut prev: Option<(bool, f64)> = None;
        for vgs in grid {
            let id = m.id(&p, vgs, vds);
            prop_assert!(id.is_finite() && id > 0.0);
            if (kink..=band_end).contains(&vgs) {
                continue;
            }
            let above_band = vgs > band_end;
            if let Some((side, last)) = prev {
                prop_assert!(
                    side != above_band || id >= last,
                    "current fell to {id:e} at vgs {vgs} (kink {kink})"
                );
            }
            prev = Some((above_band, id));
        }
    }

    #[test]
    fn drain_current_monotone_in_vds(m in device(), vgs in 0.5f64..1.6) {
        let p = Process::nominal();
        let mut prev = -1.0f64;
        for step in 0..24 {
            let vds = 0.02 + 0.075 * step as f64;
            let id = m.id(&p, vgs, vds);
            prop_assert!(id >= prev - 1e-12 * prev.abs().max(1e-18));
            prev = id;
        }
    }

    #[test]
    fn operating_point_is_physical(m in device(), vgs in 0.2f64..1.7, vds in 0.05f64..1.75) {
        let p = Process::nominal();
        let op = m.operating_point(&p, vgs, vds);
        prop_assert!(op.id >= 0.0 && op.id.is_finite());
        prop_assert!(op.gm >= 0.0 && op.gm.is_finite());
        prop_assert!(op.gds >= 0.0 && op.gds.is_finite());
        prop_assert!(op.vdsat > 0.0);
        // gm/id bounded by the subthreshold limit
        if op.id > 1e-12 {
            let gm_over_id = op.gm / op.id;
            prop_assert!(
                gm_over_id < 1.1 / (SLOPE_FACTOR * V_THERMAL),
                "gm/id {gm_over_id} above physical limit"
            );
        }
    }

    #[test]
    fn vgs_for_current_round_trips(m in device(), frac in 0.01f64..0.9) {
        let p = Process::nominal();
        let vds = 0.9;
        let max_id = m.id(&p, 1.7, vds);
        prop_assume!(max_id > 1e-9);
        let target = frac * max_id;
        if let Some(vgs) = m.vgs_for_current(&p, target, vds, 1.7) {
            let achieved = m.id(&p, vgs, vds);
            prop_assert!(
                (achieved - target).abs() / target < 1e-4,
                "round trip {achieved} vs {target}"
            );
        }
    }

    #[test]
    fn integrator_reports_are_finite_everywhere(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let p = Process::nominal();
        let clock = ClockContext::standard();
        for corner in Corner::ALL {
            let r = analyze(&dv.with_cl(1e-12), &p.at_corner(corner), &clock);
            prop_assert!(r.settling_time.is_finite() && r.settling_time > 0.0);
            prop_assert!(r.settling_error.is_finite() && r.settling_error >= 0.0);
            prop_assert!(r.power.is_finite() && r.power > 0.0);
            prop_assert!(r.area.is_finite() && r.area > 0.0);
            prop_assert!(r.dynamic_range_db.is_finite());
            prop_assert!(r.output_range >= 0.0);
        }
    }

    #[test]
    fn fixed_load_problem_evaluations_well_formed(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let problem = IntegratorProblem::new(Spec::featured());
        let ev = problem.evaluate(&genes);
        prop_assert!(problem.check_evaluation(&ev).is_ok());
        prop_assert!(ev.objectives()[1] > 0.0, "power must be positive");
        prop_assert!(ev.objectives()[0] <= 0.0, "-CL must be non-positive");
        prop_assert!(ev.constraint_violations().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn drivable_load_evaluations_are_finite_at_every_corner(
        genes in prop::collection::vec(
            prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0, 0.0f64..1.0],
            15,
        ),
    ) {
        // Anywhere in the gene box (its faces included), at every corner:
        // no panic, and finite objectives and constraint violations for the
        // optimizer to rank.
        for corner in Corner::ALL {
            let problem = DrivableLoadProblem::new(Spec::featured())
                .with_process(Process::nominal().at_corner(corner));
            let ev = problem.evaluate(&genes);
            prop_assert!(problem.check_evaluation(&ev).is_ok());
            prop_assert!(
                ev.objectives().iter().all(|v| v.is_finite()),
                "{corner}: objectives {:?}", ev.objectives()
            );
            prop_assert!(
                ev.constraint_violations().iter().all(|v| v.is_finite() && *v >= 0.0),
                "{corner}: violations {:?}", ev.constraint_violations()
            );
        }
    }

    #[test]
    fn drivable_load_is_feasible_and_edge_tight(
        genes in prop::collection::vec(0.0f64..1.0, 15),
    ) {
        // The search contract: the returned load satisfies the margined
        // load-dependent constraints, and (unless the ceiling was hit) the
        // load just above the returned upper edge does not.
        let problem = DrivableLoadProblem::new(Spec::featured());
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let clock = ClockContext::standard();
        let p = Process::nominal();
        let ok = |cl: f64| {
            let r = analyze(&dv.with_cl(cl), &p, &clock);
            r.is_biased()
                && r.settling_time <= 0.8 * problem.spec().st_max
                && r.settling_error <= 0.8 * problem.spec().se_max
                && r.p2 >= 1.5 * r.omega_c
        };
        if let Some((cl, report)) = problem.drivable_load(&dv) {
            prop_assert!(ok(cl), "returned load must satisfy the margined constraints");
            prop_assert!(report.is_biased());
            let ceiling = analog_circuits::sizing::CL_RANGE.1;
            if cl < ceiling * 0.99 {
                // The bisection interval width is < 0.02 pF.
                prop_assert!(
                    !ok(cl + 0.02e-12),
                    "load just above the edge should be infeasible (cl = {cl})"
                );
            }
        }
    }

    #[test]
    fn quantize_is_idempotent_and_snaps(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let again = dv.quantize();
        prop_assert!((dv.w1 - again.w1).abs() < 1e-18);
        prop_assert!((dv.cc - again.cc).abs() < 1e-24);
        // widths are whole fingers
        let fingers = dv.w6 / analog_circuits::sizing::W_UNIT;
        prop_assert!((fingers - fingers.round()).abs() < 1e-9);
        let units = dv.cs / analog_circuits::sizing::C_UNIT;
        prop_assert!((units - units.round()).abs() < 1e-9);
    }

    #[test]
    fn corners_never_panic_the_yield_estimator(genes in prop::collection::vec(0.0f64..1.0, 15)) {
        let dv = DesignVector::from_sizing_genes(&genes).quantize();
        let rob = analog_circuits::yield_est::robustness(
            &dv.with_cl(1e-12),
            &Process::nominal(),
            &ClockContext::standard(),
            &Spec::featured(),
        );
        prop_assert!((0.0..=1.0).contains(&rob));
    }
}
