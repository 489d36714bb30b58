//! Deep-submicron MOSFET model implementing eqn (1) of the reproduced
//! paper:
//!
//! ```text
//!        1        W   (V_GS − V_T)²
//! I_D = --- µC_ox --- ------------------------- (1 + λ V_DS) ·
//!        2        L   1 − (V_GS − V_T)/(E_sat·L)
//!
//!                       1
//!       · ---------------------------------------------------
//!         1 + θ₁(V_GS + V_T − V_K)^(1/3) + θ₂(V_GS + V_T − V_K)^n
//! ```
//!
//! with `n = 1` for NMOS and `n = 2` for PMOS. The velocity-saturation term
//! is used in the numerically robust form
//! `(V_ov)² / (1 + V_ov/(E_sat·L))` (equivalent first-order behaviour,
//! no pole at `V_ov = E_sat·L`), which is the standard way this family of
//! models is implemented. Channel-length modulation applies in saturation;
//! the triode region is modelled as the usual parabolic interpolation that
//! is current-continuous at `V_DS = V_Dsat`.
//!
//! Voltages are *magnitudes*: callers pass `|V_GS|`, `|V_DS|` for PMOS.

use crate::process::{DeviceType, Process, TransistorParams};

/// Thermal voltage `kT/q` at the nominal temperature (V).
pub const V_THERMAL: f64 = 0.0259;

/// Subthreshold slope factor `n` of the EKV-style inversion interpolation.
pub const SLOPE_FACTOR: f64 = 1.3;

/// Smooth effective overdrive implementing the EKV moderate/weak-inversion
/// interpolation: `V_ov,eff = 2nV_T · ln(1 + exp(V_ov / 2nV_T))`.
///
/// In strong inversion (`V_ov ≫ 2nV_T`) this is `V_ov`; below threshold it
/// decays exponentially, which caps the achievable `g_m/I_D` at the
/// physical subthreshold limit `1/(nV_T)` instead of letting the square law
/// promise unbounded transconductance efficiency at vanishing overdrive.
pub fn effective_overdrive(vov: f64) -> f64 {
    let scale = 2.0 * SLOPE_FACTOR * V_THERMAL;
    let u = vov / scale;
    // Numerically stable softplus.
    let q = if u > 30.0 {
        u
    } else if u < -30.0 {
        u.exp()
    } else {
        u.exp().ln_1p()
    };
    scale * q
}

/// Lowest gate bias [`Mosfet::vgs_for_current`] searches (V), well into
/// subthreshold.
const VGS_FLOOR: f64 = 0.01;

/// Bisection steps that define [`Mosfet::vgs_for_current`]:
/// `|hi − lo| < 2 V / 2^44 ≈ 1e-13 V`, far below any physical meaning.
const BISECTION_STEPS: usize = 44;

/// Lower half-width of the guard band around [`Mosfet::mobility_kink`]
/// (V). Below `kink − KINK_GUARD_BELOW` the mobility factor of eqn (1) is
/// exactly 1, and with mobility fixed the model rises with `V_GS` in every
/// region. The computed argument `V_GS + V_T − V_K` is off by a few ulp of
/// 2 V (≲ 1e-15 V), so there it stays ≤ 0 and is clamped to 0. Nearer the
/// kink, a rounding-positive argument of 1e-15 V would already cut the
/// current by `θ₁·(1e-15)^(1/3) ≈ 3e-6`.
const KINK_GUARD_BELOW: f64 = 1e-6;

/// Upper half-width of the guard band around [`Mosfet::mobility_kink`]
/// (V). Just above the kink, the mobility term `θ₁·x^(1/3)` of eqn (1)
/// (`x = V_GS − kink`) has log-slope `θ₁/(3x^(2/3))`, unbounded as
/// `x → 0`, so `id` dips until that falls below the log-slope of the rest
/// of the model. At the kink the device is in weak or moderate inversion
/// (`V_ov = V_K − 2V_T ≤ 0.02 V` at every corner, even with 30 mV of
/// threshold mismatch), where the rest rises at ≥ 18 V⁻¹; with
/// `θ₁ ≤ 0.3 V⁻¹` the fall is over by `x = (θ₁/54)^(3/2) ≈ 4e-4 V`
/// (measured over 20k random devices, corners, mismatch and `V_DS`: at
/// most 0.35 mV, and back to the current at the kink within 1.8 mV). At
/// `x = 10 mV` the mobility log-slope is ≤ 2.2 V⁻¹, an eighth of the rest.
/// Above the band `id` is non-decreasing again, which
/// `current_is_non_decreasing_outside_the_kink_guard_band` pins.
pub const KINK_GUARD_ABOVE: f64 = 1e-2;

/// Highest gate bias at which the solver certifies signs (V). Above the
/// kink's band, `id` keeps rising while the log-slope of `V_ov²` outgrows
/// those of the mobility and velocity-saturation terms. That holds over the
/// supply range: every caller passes `vgs_max = V_DD = 1.8 V`, and the
/// measured log-slope of `id` stays ≥ 0.47 V⁻¹ up to 2 V. It does not hold
/// without bound, since the PMOS `θ₂·x²` term eventually wins. Midpoints
/// above this bias are evaluated.
const CERTIFIED_VGS_MAX: f64 = 2.0;

/// Distance (V) beyond an evaluated point at which a [`MonotonePiece`]
/// takes the sign of `f = id − target` as certified. `id` is about 30
/// floating-point operations, so its computed value is within
/// ε ≲ 20 · 2^-53 ≈ 2.2e-15 (relative) of exact, and its inputs round by
/// under 1e-15 V. Where the exact `id` rises, two computed values can be
/// misordered only if the exact values differ by < 2ε relative, that is
/// within `2ε / (d ln id / dV_GS) ≤ 4.4e-15 / 0.47 ≈ 9.4e-15 V` of each
/// other. This margin is twice that worst case, and 18× the widest sign
/// inversion measured next to 40k random roots (1.1e-15 V).
const SIGN_MARGIN: f64 = 2e-14;

/// Width (V) to which a [`MonotonePiece`] narrows its bracket. About a
/// tenth of the bisection's final interval, so the replay evaluates about
/// one midpoint after the narrowing.
const BRACKET_WIDTH: f64 = 1e-14;

/// Cap on the Illinois steps of one narrowing (≈ 15 are needed at worst).
/// Signs are only ever certified from evaluated points, so stopping early
/// would cost evaluations, never bits.
const MAX_NARROW_STEPS: usize = 64;

#[cfg(test)]
thread_local! {
    /// `id` evaluations [`Mosfet::vgs_for_current`] runs on this thread, so
    /// tests can pin the solver's exact work.
    pub(crate) static ID_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One stretch `[start, end]` of the [`Mosfet::vgs_for_current`] search
/// range on which `id` is non-decreasing in `V_GS`, with the evaluated
/// points of `f = id − target` closest to the target from each side.
///
/// A point of the piece more than [`SIGN_MARGIN`] below an evaluated
/// `f < 0` point has `f < 0` too, and one more than `SIGN_MARGIN` above an
/// evaluated `f ≥ 0` point has `f ≥ 0`: evaluating it would give the sign
/// the bisection computed. The first time a midpoint is not settled so,
/// the piece completes its bracket from its own ends and narrows it to
/// [`BRACKET_WIDTH`], after which nearly every midpoint is certified.
struct MonotonePiece {
    start: f64,
    end: f64,
    target: f64,
    /// Largest evaluated point with `f < 0`, and `f` there.
    below: Option<(f64, f64)>,
    /// Smallest evaluated point with `f ≥ 0`, and `f` there.
    above: Option<(f64, f64)>,
    /// Whether the one bracket-and-narrow pass has run.
    narrowed: bool,
}

impl MonotonePiece {
    fn new(start: f64, end: f64, target: f64) -> Self {
        MonotonePiece {
            start,
            end,
            target,
            below: None,
            above: None,
            narrowed: false,
        }
    }

    fn contains(&self, x: f64) -> bool {
        self.start <= x && x <= self.end
    }

    /// Keeps `(x, f(x))` if it is the closest evaluated point yet on its
    /// side of the target.
    fn record(&mut self, x: f64, fx: f64) {
        if fx < 0.0 {
            if self.below.is_none_or(|(a, _)| x > a) {
                self.below = Some((x, fx));
            }
        } else if self.above.is_none_or(|(b, _)| x < b) {
            self.above = Some((x, fx));
        }
    }

    /// `Some(f(x) < 0)` when the evaluated points settle it.
    fn certified(&self, x: f64) -> Option<bool> {
        match (self.below, self.above) {
            (Some((a, _)), _) if x < a - SIGN_MARGIN => Some(true),
            (_, Some((b, _))) if x > b + SIGN_MARGIN => Some(false),
            _ => None,
        }
    }

    /// `f(x) < 0` for a point `x` of the piece, exactly as evaluating
    /// `f(x)` would answer.
    fn is_below(&mut self, x: f64, f: &impl Fn(f64) -> f64) -> bool {
        if let Some(below) = self.certified(x) {
            return below;
        }
        if !self.narrowed {
            self.narrowed = true;
            // A piece's end settles the whole piece on its side, or gives
            // the bracket its missing side.
            if self.below.is_none() {
                self.record(self.start, f(self.start));
            }
            if self.above.is_none() {
                self.record(self.end, f(self.end));
            }
            if let (Some(a), Some(b)) = (self.below, self.above) {
                self.narrow(a, b, f);
            }
            if let Some(below) = self.certified(x) {
                return below;
            }
        }
        let fx = f(x);
        self.record(x, fx);
        fx < 0.0
    }

    /// Illinois iteration (regula falsi that halves the stale end's value
    /// when the same end moves twice) on the bracket `a < b`,
    /// `f(a) < 0 ≤ f(b)`, recording every point it evaluates.
    ///
    /// The secant runs on `ln(id / target)`, which is linear in `V_GS` in
    /// subthreshold and gently curved above it; on `f` itself regula falsi
    /// crawls across the exponential. Each point is kept half a
    /// [`BRACKET_WIDTH`] inside the bracket, so once one end is within
    /// rounding of the root (where the secant lands on that end), the next
    /// step closes the bracket.
    fn narrow(
        &mut self,
        (mut a, fa): (f64, f64),
        (mut b, fb): (f64, f64),
        f: &impl Fn(f64) -> f64,
    ) {
        let target = self.target;
        let log = |fv: f64| (fv / target).ln_1p();
        let (mut ga, mut gb) = (log(fa), log(fb));
        let mut last_moved_a = None;
        for _ in 0..MAX_NARROW_STEPS {
            if b - a <= BRACKET_WIDTH {
                break;
            }
            let secant = a - ga * (b - a) / (gb - ga);
            let x = if secant.is_nan() {
                0.5 * (a + b)
            } else {
                secant.clamp(a + 0.5 * BRACKET_WIDTH, b - 0.5 * BRACKET_WIDTH)
            };
            let fx = f(x);
            self.record(x, fx);
            let moved_a = fx < 0.0;
            if moved_a {
                (a, ga) = (x, log(fx));
            } else {
                (b, gb) = (x, log(fx));
            }
            if last_moved_a == Some(moved_a) {
                if moved_a {
                    gb *= 0.5;
                } else {
                    ga *= 0.5;
                }
            }
            last_moved_a = Some(moved_a);
        }
    }
}

/// Operating regions of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `V_GS <= V_T`: no channel.
    Cutoff,
    /// `V_DS < V_Dsat`: resistive channel.
    Triode,
    /// `V_DS >= V_Dsat`: current source behaviour.
    Saturation,
}

/// A sized transistor of one polarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Polarity.
    pub device: DeviceType,
}

/// Full DC operating point of a [`Mosfet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Drain current magnitude (A).
    pub id: f64,
    /// Transconductance ∂I_D/∂V_GS (S).
    pub gm: f64,
    /// Output conductance ∂I_D/∂V_DS (S).
    pub gds: f64,
    /// Saturation voltage (V).
    pub vdsat: f64,
    /// Region of operation.
    pub region: Region,
    /// Gate-source voltage magnitude used (V).
    pub vgs: f64,
    /// Drain-source voltage magnitude used (V).
    pub vds: f64,
}

impl Mosfet {
    /// Creates a sized device.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive.
    pub fn new(device: DeviceType, w: f64, l: f64) -> Self {
        assert!(w > 0.0 && l > 0.0, "device dimensions must be positive");
        Mosfet { w, l, device }
    }

    fn params<'p>(&self, process: &'p Process) -> &'p TransistorParams {
        process.transistor(self.device)
    }

    /// Threshold voltage magnitude in `process` (V).
    pub fn vt(&self, process: &Process) -> f64 {
        self.params(process).vt0
    }

    /// Saturation voltage for a gate overdrive `vov = V_GS − V_T` (V):
    /// the velocity-saturation-reduced effective overdrive, floored at the
    /// weak-inversion saturation voltage `≈ 3V_T`.
    pub fn vdsat(&self, process: &Process, vov: f64) -> f64 {
        self.vdsat_eff(self.params(process), effective_overdrive(vov))
    }

    /// [`Mosfet::vdsat`] from an already computed effective overdrive.
    fn vdsat_eff(&self, p: &TransistorParams, vov_eff: f64) -> f64 {
        let esat_l = p.esat * self.l;
        (vov_eff / (1.0 + vov_eff / esat_l)).max(3.0 * V_THERMAL)
    }

    /// Saturation drain current per eqn (1) with the EKV inversion
    /// interpolation, *without* channel-length modulation (A), from the
    /// effective overdrive `vov_eff` of `vgs`.
    fn id_sat_core(&self, p: &TransistorParams, vgs: f64, vov_eff: f64) -> f64 {
        if vov_eff <= 0.0 {
            return 0.0;
        }
        let esat_l = p.esat * self.l;
        let velocity = 1.0 + vov_eff / esat_l;
        // Mobility degradation: the argument V_GS + V_T − V_K of the paper.
        let x = (vgs + p.vt0 - p.vk).max(0.0);
        let n = self.device.mobility_exponent();
        let mobility = 1.0 + p.theta1 * x.cbrt() + p.theta2 * x.powf(n);
        0.5 * p.kp * (self.w / self.l) * vov_eff * vov_eff / velocity / mobility
    }

    /// Effective channel-length-modulation coefficient (V⁻¹), scaled with
    /// drawn length.
    fn lambda_eff(&self, process: &Process) -> f64 {
        self.params(process).lambda / (self.l / 1e-6)
    }

    /// DC operating point at `(V_GS, V_DS)` magnitudes.
    ///
    /// Current is continuous across the triode/saturation boundary;
    /// derivatives (`gm`, `gds`) are obtained by central differences of the
    /// analytical current, which keeps them consistent with `id` by
    /// construction.
    pub fn operating_point(&self, process: &Process, vgs: f64, vds: f64) -> OperatingPoint {
        let id = self.id(process, vgs, vds);
        let p = self.params(process);
        let vov = vgs - p.vt0;
        let vdsat = self.vdsat(process, vov);
        let region = if vov <= 0.0 {
            Region::Cutoff
        } else if vds < vdsat {
            Region::Triode
        } else {
            Region::Saturation
        };
        let h = 1e-6;
        let gm = (self.id(process, vgs + h, vds) - self.id(process, vgs - h, vds)) / (2.0 * h);
        let gds = (self.id(process, vgs, vds + h) - self.id(process, vgs, (vds - h).max(0.0)))
            / (vds + h - (vds - h).max(0.0));
        OperatingPoint {
            id,
            gm: gm.max(0.0),
            gds: gds.max(0.0),
            vdsat,
            region,
            vgs,
            vds,
        }
    }

    /// Drain current magnitude at `(V_GS, V_DS)` magnitudes (A).
    ///
    /// Below threshold the EKV interpolation yields an exponentially
    /// decaying (but nonzero) subthreshold current.
    pub fn id(&self, process: &Process, vgs: f64, vds: f64) -> f64 {
        let p = self.params(process);
        let vov = vgs - p.vt0;
        if vds <= 0.0 {
            return 0.0;
        }
        let vov_eff = effective_overdrive(vov);
        let vdsat = self.vdsat_eff(p, vov_eff);
        let lambda = self.lambda_eff(process);
        let core = self.id_sat_core(p, vgs, vov_eff);
        if vds >= vdsat {
            core * (1.0 + lambda * (vds - vdsat))
        } else {
            // Parabolic triode interpolation, current-continuous at vdsat.
            let u = vds / vdsat;
            core * u * (2.0 - u)
        }
    }

    /// Gate bias at which mobility degradation sets in (V): the argument
    /// `V_GS + V_T − V_K` of eqn (1)'s mobility term is zero at
    /// `V_GS = V_K − V_T`, and the mobility factor is exactly 1 below it.
    pub fn mobility_kink(&self, process: &Process) -> f64 {
        let p = self.params(process);
        p.vk - p.vt0
    }

    /// Solves for the `V_GS` magnitude that conducts `target_id` in
    /// saturation at `vds` (`None` when the device cannot carry the current
    /// below `vgs_max`).
    ///
    /// The answer is defined as the result of a 44-step bisection on
    /// `[0.01 V, vgs_max]`. `id` is not monotone in `V_GS` just above
    /// [`Mosfet::mobility_kink`], so `id = target` can have three roots
    /// there and the bisection's path picks one. The solver replays that
    /// path exactly, but evaluates `id` only at the midpoints whose side of
    /// the target it cannot certify: on either side of the kink's guard
    /// band `id` is non-decreasing, and a bracket narrowed by an Illinois
    /// iteration settles every midpoint outside it (see `MonotonePiece`).
    /// The result is bit-identical to the plain bisection at about a third
    /// of the `id` evaluations.
    pub fn vgs_for_current(
        &self,
        process: &Process,
        target_id: f64,
        vds: f64,
        vgs_max: f64,
    ) -> Option<f64> {
        if target_id <= 0.0 {
            return Some(self.vt(process));
        }
        let f = |vgs: f64| {
            #[cfg(test)]
            ID_EVALS.with(|n| n.set(n.get() + 1));
            self.id(process, vgs, vds) - target_id
        };
        let f_max = f(vgs_max);
        if f_max < 0.0 {
            return None;
        }
        let f_floor = f(VGS_FLOOR);
        if f_floor > 0.0 {
            // Even deep subthreshold leaks more than the target: report the
            // smallest representable bias.
            return Some(VGS_FLOOR);
        }
        let kink = self.mobility_kink(process);
        let mut pieces = [
            MonotonePiece::new(VGS_FLOOR, kink - KINK_GUARD_BELOW, target_id),
            MonotonePiece::new(
                kink + KINK_GUARD_ABOVE,
                vgs_max.min(CERTIFIED_VGS_MAX),
                target_id,
            ),
        ];
        for (x, fx) in [(VGS_FLOOR, f_floor), (vgs_max, f_max)] {
            if let Some(piece) = pieces.iter_mut().find(|p| p.contains(x)) {
                piece.record(x, fx);
            }
        }
        let (mut lo, mut hi) = (VGS_FLOOR, vgs_max);
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            let below = match pieces.iter_mut().find(|p| p.contains(mid)) {
                Some(piece) => piece.is_below(mid, &f),
                // In the kink's guard band (or above `CERTIFIED_VGS_MAX`):
                // always evaluated.
                None => f(mid) < 0.0,
            };
            if below {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Gate-source capacitance in saturation:
    /// `(2/3)·W·L·C_ox + C_ov·W` (F).
    pub fn cgs(&self, process: &Process) -> f64 {
        (2.0 / 3.0) * self.w * self.l * process.cox + self.params(process).c_overlap * self.w
    }

    /// Gate-drain capacitance in saturation (overlap only) (F).
    pub fn cgd(&self, process: &Process) -> f64 {
        self.params(process).c_overlap * self.w
    }

    /// Drain-bulk junction capacitance: area + sidewall terms of the drain
    /// diffusion (F).
    pub fn cdb(&self, process: &Process) -> f64 {
        let p = self.params(process);
        p.cj * self.w * p.l_diff + p.cjsw * (self.w + 2.0 * p.l_diff)
    }

    /// Active gate area `W·L` (m²); diffusions add `2·W·L_diff`.
    pub fn area(&self, process: &Process) -> f64 {
        self.w * self.l + 2.0 * self.w * self.params(process).l_diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Corner, Process};
    use crate::sizing::PARAM_RANGES;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn nmos() -> Mosfet {
        Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6)
    }

    fn pmos() -> Mosfet {
        Mosfet::new(DeviceType::Pmos, 20e-6, 0.5e-6)
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn rejects_zero_width() {
        let _ = Mosfet::new(DeviceType::Nmos, 0.0, 1e-6);
    }

    #[test]
    fn subthreshold_current_is_small_and_decays() {
        let p = Process::nominal();
        let m = nmos();
        // 150 mV below threshold: orders of magnitude below the on-current.
        let sub = m.id(&p, 0.3, 0.9);
        let on = m.id(&p, 0.9, 0.9);
        assert!(sub > 0.0 && sub < on * 1e-2, "sub {sub} vs on {on}");
        // Exponential decay: each 100 mV below VT costs > 10x.
        let deeper = m.id(&p, 0.2, 0.9);
        assert!(deeper < sub / 10.0);
        let op = m.operating_point(&p, 0.3, 0.9);
        assert_eq!(op.region, Region::Cutoff);
    }

    #[test]
    fn gm_over_id_capped_at_subthreshold_limit() {
        let p = Process::nominal();
        // Huge W/L at tiny current: the square law would promise unbounded
        // gm/id; the EKV interpolation must cap it near 1/(n·V_T) ≈ 30.
        let m = Mosfet::new(DeviceType::Nmos, 400e-6, 0.18e-6);
        let vgs = m.vgs_for_current(&p, 1e-6, 0.9, 1.8).expect("solvable");
        let op = m.operating_point(&p, vgs, 0.9);
        let gm_over_id = op.gm / op.id;
        assert!(
            gm_over_id < 1.05 / (SLOPE_FACTOR * V_THERMAL),
            "gm/id {gm_over_id} exceeds the subthreshold limit"
        );
        assert!(gm_over_id > 15.0, "gm/id {gm_over_id} suspiciously low");
    }

    #[test]
    fn current_increases_with_vgs() {
        let p = Process::nominal();
        let m = nmos();
        let i1 = m.id(&p, 0.7, 0.9);
        let i2 = m.id(&p, 0.9, 0.9);
        assert!(i2 > i1 && i1 > 0.0);
    }

    #[test]
    fn current_scales_with_aspect_ratio() {
        let p = Process::nominal();
        let narrow = Mosfet::new(DeviceType::Nmos, 5e-6, 0.5e-6);
        let wide = Mosfet::new(DeviceType::Nmos, 10e-6, 0.5e-6);
        let (i1, i2) = (narrow.id(&p, 0.8, 0.9), wide.id(&p, 0.8, 0.9));
        assert!(
            (i2 / i1 - 2.0).abs() < 1e-9,
            "width scaling broken: {}",
            i2 / i1
        );
    }

    #[test]
    fn velocity_saturation_compresses_current() {
        // A short channel must deliver *less* than (W/L)-scaled long-channel
        // current at the same overdrive.
        let p = Process::nominal();
        let short = Mosfet::new(DeviceType::Nmos, 1.8e-6, 0.18e-6);
        let long = Mosfet::new(DeviceType::Nmos, 18e-6, 1.8e-6);
        // Same W/L = 10; compare at the same bias.
        let i_short = short.id(&p, 0.9, 1.2);
        let i_long = long.id(&p, 0.9, 1.2);
        assert!(
            i_short < i_long,
            "short-channel current {i_short} should be compressed vs {i_long}"
        );
    }

    #[test]
    fn continuity_at_saturation_boundary() {
        let p = Process::nominal();
        let m = nmos();
        let vgs = 0.9;
        let vdsat = m.vdsat(&p, vgs - m.vt(&p));
        let below = m.id(&p, vgs, vdsat * (1.0 - 1e-9));
        let above = m.id(&p, vgs, vdsat * (1.0 + 1e-9));
        assert!(
            ((below - above) / above).abs() < 1e-6,
            "current discontinuous at vdsat: {below} vs {above}"
        );
    }

    #[test]
    fn triode_current_below_saturation_current() {
        let p = Process::nominal();
        let m = nmos();
        let vgs = 0.9;
        let vdsat = m.vdsat(&p, vgs - m.vt(&p));
        assert!(m.id(&p, vgs, 0.3 * vdsat) < m.id(&p, vgs, vdsat));
    }

    #[test]
    fn lambda_gives_finite_output_conductance() {
        let p = Process::nominal();
        let m = nmos();
        let op = m.operating_point(&p, 0.9, 1.2);
        assert_eq!(op.region, Region::Saturation);
        assert!(op.gds > 0.0);
        assert!(op.gm > op.gds * 10.0, "gm/gds should be >> 1 in saturation");
    }

    #[test]
    fn longer_channel_reduces_lambda_effect() {
        let p = Process::nominal();
        let short = Mosfet::new(DeviceType::Nmos, 10e-6, 0.2e-6);
        let long = Mosfet::new(DeviceType::Nmos, 10e-6, 1.0e-6);
        let gds_ratio_short = {
            let op = short.operating_point(&p, 0.9, 1.2);
            op.gds / op.id
        };
        let gds_ratio_long = {
            let op = long.operating_point(&p, 0.9, 1.2);
            op.gds / op.id
        };
        assert!(gds_ratio_long < gds_ratio_short);
    }

    #[test]
    fn vdsat_below_overdrive() {
        let p = Process::nominal();
        let m = Mosfet::new(DeviceType::Nmos, 2e-6, 0.18e-6);
        let vov = 0.4;
        let vdsat = m.vdsat(&p, vov);
        assert!(vdsat > 0.0 && vdsat < vov);
    }

    #[test]
    fn pmos_is_weaker_than_nmos() {
        let p = Process::nominal();
        let n = nmos();
        let pm = Mosfet::new(DeviceType::Pmos, 10e-6, 0.5e-6);
        assert!(n.id(&p, 0.9, 0.9) > pm.id(&p, 0.9, 0.9));
    }

    #[test]
    fn vgs_for_current_round_trips() {
        let p = Process::nominal();
        let m = nmos();
        let target = 50e-6;
        let vgs = m.vgs_for_current(&p, target, 0.9, 1.8).expect("solvable");
        let achieved = m.id(&p, vgs, 0.9);
        assert!(
            ((achieved - target) / target).abs() < 1e-6,
            "bisection inaccurate: {achieved} vs {target}"
        );
    }

    #[test]
    fn vgs_for_current_detects_impossible() {
        let p = Process::nominal();
        let tiny = Mosfet::new(DeviceType::Nmos, 0.5e-6, 2e-6);
        assert!(tiny.vgs_for_current(&p, 10e-3, 0.9, 1.8).is_none());
    }

    #[test]
    fn vgs_for_zero_current_is_vt() {
        let p = Process::nominal();
        let m = nmos();
        assert_eq!(m.vgs_for_current(&p, 0.0, 0.9, 1.8), Some(m.vt(&p)));
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let p = Process::nominal();
        let small = Mosfet::new(DeviceType::Nmos, 2e-6, 0.2e-6);
        let big = Mosfet::new(DeviceType::Nmos, 20e-6, 0.2e-6);
        assert!(big.cgs(&p) > small.cgs(&p));
        assert!(big.cgd(&p) > small.cgd(&p));
        assert!(big.cdb(&p) > small.cdb(&p));
        assert!(big.area(&p) > small.area(&p));
        assert!((big.cgd(&p) / small.cgd(&p) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mobility_degradation_reduces_current_at_high_gate_drive() {
        // Compare against the same model with θ1 = θ2 = 0.
        let mut p_clean = Process::nominal();
        p_clean.nmos.theta1 = 0.0;
        p_clean.nmos.theta2 = 0.0;
        let p = Process::nominal();
        let m = nmos();
        let degraded = m.id(&p, 1.6, 1.2);
        let clean = m.id(&p_clean, 1.6, 1.2);
        assert!(degraded < clean);
        // and the gap must widen with VGS
        let gap_low = m.id(&p_clean, 0.8, 1.2) / m.id(&p, 0.8, 1.2);
        let gap_high = clean / degraded;
        assert!(gap_high > gap_low);
    }

    #[test]
    fn pmos_mobility_exponent_bites_harder() {
        // With equal θ2, the PMOS n = 2 term must degrade faster in VGS
        // than the NMOS n = 1 term. Compare normalized currents.
        let mut p = Process::nominal();
        p.pmos.kp = p.nmos.kp; // equalize strength
        p.pmos.esat = p.nmos.esat;
        p.pmos.theta1 = p.nmos.theta1;
        p.pmos.theta2 = p.nmos.theta2;
        p.pmos.lambda = p.nmos.lambda;
        let n = nmos();
        let pm = Mosfet::new(DeviceType::Pmos, 10e-6, 0.5e-6);
        let ratio_low = pm.id(&p, 0.8, 0.9) / n.id(&p, 0.8, 0.9);
        let ratio_high = pm.id(&p, 1.7, 0.9) / n.id(&p, 1.7, 0.9);
        assert!(ratio_high < ratio_low);
    }

    #[test]
    fn operating_point_reports_triode() {
        let p = Process::nominal();
        let m = pmos();
        let vdsat = m.vdsat(&p, 0.9 - m.vt(&p));
        let op = m.operating_point(&p, 0.9, vdsat * 0.5);
        assert_eq!(op.region, Region::Triode);
    }

    /// The solver as it was before the replay: the plain 44-step
    /// bisection whose answer `vgs_for_current` must reproduce bit for bit.
    fn bisection_reference(
        m: &Mosfet,
        process: &Process,
        target_id: f64,
        vds: f64,
        vgs_max: f64,
    ) -> Option<f64> {
        if target_id <= 0.0 {
            return Some(m.vt(process));
        }
        let f = |vgs: f64| m.id(process, vgs, vds) - target_id;
        if f(vgs_max) < 0.0 {
            return None;
        }
        if f(VGS_FLOOR) > 0.0 {
            return Some(VGS_FLOOR);
        }
        let (mut lo, mut hi) = (VGS_FLOOR, vgs_max);
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if f(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// `id` evaluations `f` runs through `vgs_for_current` on this thread.
    fn id_evals<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ID_EVALS.with(|n| n.get());
        let out = f();
        (out, ID_EVALS.with(|n| n.get()) - before)
    }

    fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
    }

    /// A device drawn over the gene box: W over every width range
    /// (1–1000 µm), L over every length range, either polarity.
    fn random_device(rng: &mut StdRng) -> Mosfet {
        // Widths are genes 0, 2, …, 8 and lengths genes 1, 3, …, 9.
        let span = |genes: [usize; 5]| {
            genes.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &i| {
                (lo.min(PARAM_RANGES[i].0), hi.max(PARAM_RANGES[i].1))
            })
        };
        let (w_lo, w_hi) = span([0, 2, 4, 6, 8]);
        let (l_lo, l_hi) = span([1, 3, 5, 7, 9]);
        let device = if rng.gen_bool(0.5) {
            DeviceType::Nmos
        } else {
            DeviceType::Pmos
        };
        Mosfet::new(
            device,
            log_uniform(rng, w_lo, w_hi),
            log_uniform(rng, l_lo, l_hi),
        )
    }

    /// A random corner with random threshold and mobility mismatch.
    fn random_process(rng: &mut StdRng) -> Process {
        let corner = Corner::ALL[rng.gen_range(0..Corner::ALL.len())];
        Process::nominal().at_corner(corner).with_mismatch(
            rng.gen_range(-0.03..0.03),
            rng.gen_range(-0.03..0.03),
            rng.gen_range(-0.1..0.1),
        )
    }

    /// Solves `solves` seeded problems with both solvers and asserts equal
    /// bits (`None` and `Some(0.01)` included). A third of the targets are
    /// the current within ±1 mV of the mobility kink, where `id` is not
    /// monotone; the rest are log-uniform from far below the subthreshold
    /// floor to beyond any device's reach. Returns the `None` and
    /// `Some(0.01)` answers, and the solves that ran the bisection with
    /// their `id` evaluations.
    fn differential_sweep(seed: u64, solves: usize) -> SweepTally {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tally = SweepTally::default();
        for i in 0..solves {
            let m = random_device(&mut rng);
            let p = random_process(&mut rng);
            let vds = rng.gen_range(0.005..1.8);
            let vgs_max = if rng.gen_bool(0.75) {
                p.vdd
            } else {
                rng.gen_range(0.2..p.vdd)
            };
            let target = if i % 3 == 0 {
                let kink = m.mobility_kink(&p);
                m.id(&p, kink + rng.gen_range(-1e-3..1e-3), vds)
            } else {
                log_uniform(&mut rng, 1e-13, 1e-1)
            };
            let want = bisection_reference(&m, &p, target, vds, vgs_max);
            let (got, n) = id_evals(|| m.vgs_for_current(&p, target, vds, vgs_max));
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{m:?} target {target:e} vds {vds} vgs_max {vgs_max} in {p:?}: \
                 {got:?} vs bisection {want:?}"
            );
            match want {
                None => tally.unreachable += 1,
                Some(VGS_FLOOR) => tally.floor += 1,
                Some(_) => {
                    tally.rooted += 1;
                    tally.evals += n;
                }
            }
        }
        tally
    }

    #[derive(Default)]
    struct SweepTally {
        unreachable: u64,
        floor: u64,
        rooted: u64,
        evals: u64,
    }

    impl SweepTally {
        fn evals_per_rooted_solve(&self) -> f64 {
            self.evals as f64 / self.rooted as f64
        }
    }

    #[test]
    fn replay_matches_the_bisection_bit_for_bit() {
        let tally = differential_sweep(0x5eed_0044, 20_000);
        assert!(tally.unreachable > 1_000 && tally.floor > 1_000);
        assert!(tally.rooted > 10_000);
        // The bisection spends 46 evaluations on every solve with a root.
        let mean = tally.evals_per_rooted_solve();
        assert!(mean <= 20.0, "{mean:.2} id evaluations per solve");
    }

    /// The 500k-solve version of the differential sweep; run with
    /// `cargo test --release -p analog-circuits -- --ignored`.
    #[test]
    #[ignore = "500k solves: run in release with --ignored"]
    fn replay_matches_the_bisection_bit_for_bit_large() {
        let mean = differential_sweep(0x5eed_0500, 500_000).evals_per_rooted_solve();
        assert!(mean <= 20.0, "{mean:.2} id evaluations per solve");
    }

    #[test]
    fn three_root_pmos_case_returns_the_bisection_root() {
        // `id = target` has three roots within 1 mV of the kink here: one
        // just below it, two inside the dip just above it. A plain Illinois
        // iteration lands on 0.35041189267803896 V, not the bisection's
        // root.
        let p = Process::nominal();
        let m = Mosfet::new(
            DeviceType::Pmos,
            251.9533120593454e-6,
            0.6790362024344584e-6,
        );
        let (target, vds) = (2.6455214279883602e-6, 0.6);
        let kink = m.mobility_kink(&p);
        let signs: Vec<bool> = (-1000..=1000)
            .map(|k| m.id(&p, kink + f64::from(k) * 1e-6, vds) >= target)
            .collect();
        let changes = signs.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(changes, 3, "id − target should change sign three times");
        let want = bisection_reference(&m, &p, target, vds, p.vdd);
        assert_eq!(want, Some(0.3495893160724275));
        let got = m.vgs_for_current(&p, target, vds, p.vdd);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
    }

    #[test]
    fn current_is_non_decreasing_outside_the_kink_guard_band() {
        // The pieces `vgs_for_current` certifies signs on rest on this: on
        // a 0.1 mV grid up to `CERTIFIED_VGS_MAX`, `id` never falls below
        // `kink` or above `kink + KINK_GUARD_ABOVE`, for seeded devices at
        // every corner.
        let mut rng = StdRng::seed_from_u64(0x6b1e);
        for _ in 0..6 {
            let m = random_device(&mut rng);
            let vds = rng.gen_range(0.005..1.8);
            for corner in Corner::ALL {
                let p = Process::nominal().at_corner(corner);
                let kink = m.mobility_kink(&p);
                let mut prev: Option<(bool, f64)> = None;
                for k in 0..=19_900 {
                    let vgs = VGS_FLOOR + f64::from(k) * 1e-4;
                    if (kink..=kink + KINK_GUARD_ABOVE).contains(&vgs) {
                        continue;
                    }
                    let above_kink = vgs > kink;
                    let id = m.id(&p, vgs, vds);
                    if let Some((side, last)) = prev {
                        assert!(
                            side != above_kink || id >= last,
                            "{m:?} at {corner}: id fell to {id:e} at vgs {vgs}"
                        );
                    }
                    prev = Some((above_kink, id));
                }
            }
        }
    }

    #[test]
    fn reference_opamp_solve_costs_a_pinned_id_evaluation_count() {
        let ((), evals) = id_evals(|| {
            let _ = crate::opamp::analyze(
                &crate::sizing::DesignVector::reference(),
                &Process::nominal(),
            );
        });
        // Five solves; the bisection spent 5 × 46 = 230.
        assert_eq!(evals, 75);
    }
}
