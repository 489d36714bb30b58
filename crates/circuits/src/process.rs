//! Synthetic 0.18 µm, 1.8 V CMOS process description with manufacturing
//! corners and deterministic mismatch sampling.
//!
//! The reproduced paper targets "an industry-standard 0.18 µm, 1.8 V,
//! n-well digital CMOS process" whose fitting parameters are proprietary.
//! This module substitutes a physically plausible parameter set (see
//! `DESIGN.md` §4): t_ox = 4.1 nm, V_T0 ≈ ±0.45 V, low-field mobilities of
//! 350 / 85 cm²/Vs, E_sat ≈ 4·10⁶ V/m (NMOS). The optimizer only observes
//! objective/constraint values, so any smooth model of this family
//! exercises the same search behaviour.

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// N-channel MOSFET.
    Nmos,
    /// P-channel MOSFET.
    Pmos,
}

impl DeviceType {
    /// Exponent `n` of the paper's mobility-degradation term:
    /// 1 for NMOS, 2 for PMOS (eqn (1) of the paper).
    pub fn mobility_exponent(self) -> f64 {
        match self {
            DeviceType::Nmos => 1.0,
            DeviceType::Pmos => 2.0,
        }
    }
}

/// Per-polarity transistor model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransistorParams {
    /// Zero-bias threshold voltage magnitude (V).
    pub vt0: f64,
    /// Low-field mobility × C_ox, i.e. the process transconductance
    /// `k' = µ·C_ox` (A/V²).
    pub kp: f64,
    /// Velocity-saturation critical field (V/m).
    pub esat: f64,
    /// Channel-length modulation coefficient at L = 1 µm (V⁻¹); the
    /// effective λ scales as `lambda / (L / 1 µm)`.
    pub lambda: f64,
    /// First mobility-degradation fitting parameter θ₁ (1/V).
    pub theta1: f64,
    /// Second mobility-degradation fitting parameter θ₂ (1/Vⁿ).
    pub theta2: f64,
    /// Mobility-degradation knee voltage V_K (V).
    pub vk: f64,
    /// Gate-drain/source overlap capacitance per width (F/m).
    pub c_overlap: f64,
    /// Drain/source junction capacitance per area (F/m²).
    pub cj: f64,
    /// Drain/source sidewall junction capacitance per perimeter (F/m).
    pub cjsw: f64,
    /// Drain/source diffusion length (m).
    pub l_diff: f64,
}

/// Full process description used by every analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Process {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// NMOS parameters.
    pub nmos: TransistorParams,
    /// PMOS parameters.
    pub pmos: TransistorParams,
    /// Integrated (MiM) capacitor density (F/m²).
    pub cap_density: f64,
    /// Bottom-plate parasitic as a fraction of the main capacitance.
    pub bottom_plate_fraction: f64,
    /// Minimum drawn channel length (m).
    pub l_min: f64,
}

impl TransistorParams {
    fn bits(&self) -> [u64; 11] {
        let TransistorParams {
            vt0,
            kp,
            esat,
            lambda,
            theta1,
            theta2,
            vk,
            c_overlap,
            cj,
            cjsw,
            l_diff,
        } = *self;
        [
            vt0, kp, esat, lambda, theta1, theta2, vk, c_overlap, cj, cjsw, l_diff,
        ]
        .map(f64::to_bits)
    }
}

impl Process {
    /// Every parameter's bit pattern. Processes with equal bits give
    /// bit-identical analyses, which `==` cannot promise (`-0.0 == 0.0`).
    pub(crate) fn bits(&self) -> Vec<u64> {
        let Process {
            vdd,
            cox,
            nmos,
            pmos,
            cap_density,
            bottom_plate_fraction,
            l_min,
        } = *self;
        let mut bits: Vec<u64> = [vdd, cox, cap_density, bottom_plate_fraction, l_min]
            .map(f64::to_bits)
            .to_vec();
        bits.extend(nmos.bits());
        bits.extend(pmos.bits());
        bits
    }

    /// The nominal (typical-typical) synthetic 0.18 µm process.
    pub fn nominal() -> Self {
        // C_ox = eps_ox / t_ox = 3.45e-11 F/m / 4.1e-9 m ≈ 8.4 mF/m².
        let cox = 8.4e-3;
        Process {
            vdd: 1.8,
            cox,
            nmos: TransistorParams {
                vt0: 0.45,
                kp: 295e-6, // µ_n·C_ox ≈ 295 µA/V²
                esat: 4.0e6,
                lambda: 0.06,
                theta1: 0.25,
                theta2: 0.10,
                vk: 0.8,
                c_overlap: 3.5e-10,
                cj: 1.0e-3,
                cjsw: 2.0e-10,
                l_diff: 0.5e-6,
            },
            pmos: TransistorParams {
                vt0: 0.45,
                kp: 72e-6, // µ_p·C_ox ≈ 72 µA/V²
                esat: 1.0e7,
                lambda: 0.08,
                theta1: 0.30,
                theta2: 0.05,
                vk: 0.8,
                c_overlap: 3.5e-10,
                cj: 1.1e-3,
                cjsw: 2.2e-10,
                l_diff: 0.5e-6,
            },
            cap_density: 1.0e-3, // 1 fF/µm² MiM
            bottom_plate_fraction: 0.08,
            l_min: 0.18e-6,
        }
    }

    /// Parameters for a device polarity.
    pub fn transistor(&self, device: DeviceType) -> &TransistorParams {
        match device {
            DeviceType::Nmos => &self.nmos,
            DeviceType::Pmos => &self.pmos,
        }
    }

    /// Applies a manufacturing corner, returning the skewed process.
    pub fn at_corner(&self, corner: Corner) -> Process {
        let mut p = *self;
        let (n_skew, p_skew) = corner.skews();
        apply_skew(&mut p.nmos, n_skew);
        apply_skew(&mut p.pmos, p_skew);
        // Oxide / capacitor density track the overall corner speed.
        let cap_skew = 1.0 - 0.05 * (n_skew.speed + p_skew.speed);
        p.cap_density *= cap_skew;
        p
    }

    /// Applies an additional local-mismatch perturbation (used by yield
    /// estimation): threshold shifts in volts and a relative mobility
    /// change.
    pub fn with_mismatch(&self, dvt_n: f64, dvt_p: f64, dkp_rel: f64) -> Process {
        let mut p = *self;
        p.nmos.vt0 += dvt_n;
        p.pmos.vt0 += dvt_p;
        p.nmos.kp *= 1.0 + dkp_rel;
        p.pmos.kp *= 1.0 + dkp_rel;
        p
    }
}

impl Default for Process {
    fn default() -> Self {
        Process::nominal()
    }
}

/// One polarity's corner skew: `speed` ∈ {−1, 0, +1} for slow/typ/fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Skew {
    /// −1 = slow, 0 = typical, +1 = fast.
    pub speed: f64,
}

fn apply_skew(t: &mut TransistorParams, s: Skew) {
    // Fast: lower VT, higher mobility; slow: the reverse.
    t.vt0 -= 0.030 * s.speed;
    t.kp *= 1.0 + 0.10 * s.speed;
    t.lambda *= 1.0 + 0.05 * s.speed;
}

/// The five classic manufacturing corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Typical NMOS, typical PMOS.
    Tt,
    /// Fast NMOS, fast PMOS.
    Ff,
    /// Slow NMOS, slow PMOS.
    Ss,
    /// Fast NMOS, slow PMOS.
    Fs,
    /// Slow NMOS, fast PMOS.
    Sf,
}

impl Corner {
    /// All corners, TT first.
    pub const ALL: [Corner; 5] = [Corner::Tt, Corner::Ff, Corner::Ss, Corner::Fs, Corner::Sf];

    /// `(nmos_skew, pmos_skew)` for this corner.
    pub fn skews(self) -> (Skew, Skew) {
        let s = |v: f64| Skew { speed: v };
        match self {
            Corner::Tt => (s(0.0), s(0.0)),
            Corner::Ff => (s(1.0), s(1.0)),
            Corner::Ss => (s(-1.0), s(-1.0)),
            Corner::Fs => (s(1.0), s(-1.0)),
            Corner::Sf => (s(-1.0), s(1.0)),
        }
    }

    /// Short display name ("TT", "FF", …).
    pub fn name(self) -> &'static str {
        match self {
            Corner::Tt => "TT",
            Corner::Ff => "FF",
            Corner::Ss => "SS",
            Corner::Fs => "FS",
            Corner::Sf => "SF",
        }
    }
}

impl std::fmt::Display for Corner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_process_is_sane() {
        let p = Process::nominal();
        assert_eq!(p.vdd, 1.8);
        assert!(p.nmos.kp > p.pmos.kp, "NMOS must be stronger than PMOS");
        assert!(p.nmos.vt0 > 0.2 && p.nmos.vt0 < 0.7);
        assert!(p.l_min > 0.0);
    }

    #[test]
    fn ff_corner_is_faster() {
        let nom = Process::nominal();
        let ff = nom.at_corner(Corner::Ff);
        assert!(ff.nmos.vt0 < nom.nmos.vt0);
        assert!(ff.nmos.kp > nom.nmos.kp);
        assert!(ff.pmos.kp > nom.pmos.kp);
    }

    #[test]
    fn ss_corner_is_slower() {
        let nom = Process::nominal();
        let ss = nom.at_corner(Corner::Ss);
        assert!(ss.nmos.vt0 > nom.nmos.vt0);
        assert!(ss.nmos.kp < nom.nmos.kp);
    }

    #[test]
    fn cross_corners_skew_polarities_oppositely() {
        let nom = Process::nominal();
        let fs = nom.at_corner(Corner::Fs);
        assert!(fs.nmos.kp > nom.nmos.kp);
        assert!(fs.pmos.kp < nom.pmos.kp);
        let sf = nom.at_corner(Corner::Sf);
        assert!(sf.nmos.kp < nom.nmos.kp);
        assert!(sf.pmos.kp > nom.pmos.kp);
    }

    #[test]
    fn tt_corner_is_identity() {
        let nom = Process::nominal();
        let tt = nom.at_corner(Corner::Tt);
        assert_eq!(nom, tt);
    }

    #[test]
    fn mismatch_shifts_parameters() {
        let nom = Process::nominal();
        let m = nom.with_mismatch(0.01, -0.01, 0.05);
        assert!((m.nmos.vt0 - nom.nmos.vt0 - 0.01).abs() < 1e-12);
        assert!((m.pmos.vt0 - nom.pmos.vt0 + 0.01).abs() < 1e-12);
        assert!((m.nmos.kp / nom.nmos.kp - 1.05).abs() < 1e-12);
    }

    #[test]
    fn mobility_exponent_follows_paper() {
        assert_eq!(DeviceType::Nmos.mobility_exponent(), 1.0);
        assert_eq!(DeviceType::Pmos.mobility_exponent(), 2.0);
    }

    #[test]
    fn corner_display_names() {
        assert_eq!(Corner::Tt.to_string(), "TT");
        assert_eq!(Corner::ALL.len(), 5);
    }
}
