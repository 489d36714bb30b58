//! Struct-of-arrays batch decoding for generation-sized evaluation.
//!
//! The optimizer loops hand the execution engine whole generations at a
//! time, and part of the per-candidate work outside the numerical circuit
//! analysis is *identical* for every candidate: gene-to-SI decoding walks
//! the same 15 `(lo, hi, log)` ranges and quantization snaps to the same
//! layout units. [`DesignBatch`] decodes a `&[Vec<f64>]` generation into
//! contiguous per-parameter columns (one tight loop per parameter, with
//! the range constants hoisted out), quantizes column-wise, and gathers
//! individual [`DesignVector`]s on demand. (The corner/mismatch process
//! table is built once per problem, not per batch.)
//!
//! **Bit-identity contract.** Every decode here reuses the exact scalar
//! building blocks (`sizing::map_gene`, `sizing::snap_to_unit`, the
//! shared evaluation bodies), applied element-wise in the same order,
//! so the batch path produces byte-identical `Evaluation`s to the scalar
//! path. The `batch_equivalence` proptest suite in `tests/` pins this.

use crate::sizing::{map_gene, snap_to_unit, DesignVector};
use crate::sizing::{CL_RANGE, C_UNIT, I_UNIT, L_UNIT, NUM_PARAMS, VCM_RANGE, W_UNIT};

/// A generation of decoded designs in struct-of-arrays layout: one
/// contiguous column per design parameter.
///
/// # Examples
///
/// ```
/// use analog_circuits::batch::DesignBatch;
/// use analog_circuits::DesignVector;
///
/// let genes: Vec<Vec<f64>> = vec![vec![0.25; 15], vec![0.75; 15]];
/// let db = DesignBatch::decode(&genes);
/// assert_eq!(db.len(), 2);
/// assert_eq!(db.design(0), DesignVector::from_genes(&genes[0]));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignBatch {
    /// Input-pair NMOS widths (m).
    pub w1: Vec<f64>,
    /// Input-pair NMOS lengths (m).
    pub l1: Vec<f64>,
    /// Mirror-load PMOS widths (m).
    pub w3: Vec<f64>,
    /// Mirror-load PMOS lengths (m).
    pub l3: Vec<f64>,
    /// Tail NMOS widths (m).
    pub w5: Vec<f64>,
    /// Tail NMOS lengths (m).
    pub l5: Vec<f64>,
    /// Second-stage PMOS driver widths (m).
    pub w6: Vec<f64>,
    /// Second-stage PMOS driver lengths (m).
    pub l6: Vec<f64>,
    /// Second-stage NMOS sink widths (m).
    pub w7: Vec<f64>,
    /// Second-stage NMOS sink lengths (m).
    pub l7: Vec<f64>,
    /// First-stage tail currents (A).
    pub itail: Vec<f64>,
    /// Miller compensation capacitors (F).
    pub cc: Vec<f64>,
    /// Sampling capacitors (F).
    pub cs: Vec<f64>,
    /// Feedback / integrating capacitors (F).
    pub cf: Vec<f64>,
    /// Load capacitances (F).
    pub cl: Vec<f64>,
    /// Input common-mode voltages (V).
    pub vcm_in: Vec<f64>,
}

/// Decodes one gene column (`genes[*][param]`) into SI values with the
/// range constants hoisted out of the loop.
fn decode_column(genes: &[Vec<f64>], param: usize) -> Vec<f64> {
    let range = crate::sizing::PARAM_RANGES[param];
    genes.iter().map(|g| map_gene(g[param], range)).collect()
}

/// Snaps a column in place to multiples of `unit` (see
/// [`DesignVector::quantize`]).
fn snap_column(col: &mut [f64], unit: f64) {
    for v in col {
        *v = snap_to_unit(*v, unit);
    }
}

impl DesignBatch {
    /// Decodes a generation with [`DesignVector::from_genes`] semantics:
    /// all 15 genes map to their parameter ranges and the common-mode
    /// voltage is fixed at 0.9 V.
    ///
    /// # Panics
    ///
    /// Panics if any gene vector is shorter than 15 genes.
    pub fn decode(genes: &[Vec<f64>]) -> Self {
        let mut db = Self::decode_shared(genes);
        db.cl = decode_column(genes, 14);
        db.vcm_in = vec![0.9; genes.len()];
        db
    }

    /// Decodes a generation with
    /// [`DesignVector::from_sizing_genes`] semantics: gene 15 maps
    /// linearly to the input common-mode voltage over [`VCM_RANGE`] and
    /// the load capacitance is the placeholder `CL_RANGE.0`.
    ///
    /// # Panics
    ///
    /// Panics if any gene vector is shorter than 15 genes.
    pub fn decode_sizing(genes: &[Vec<f64>]) -> Self {
        let mut db = Self::decode_shared(genes);
        db.cl = vec![CL_RANGE.0; genes.len()];
        db.vcm_in = genes
            .iter()
            .map(|g| {
                let u = g[14].clamp(0.0, 1.0);
                VCM_RANGE.0 + u * (VCM_RANGE.1 - VCM_RANGE.0)
            })
            .collect();
        db
    }

    /// Columns 0–13, common to both decodings.
    fn decode_shared(genes: &[Vec<f64>]) -> Self {
        for (i, g) in genes.iter().enumerate() {
            assert_eq!(g.len(), NUM_PARAMS, "candidate {i} needs 15 genes");
        }
        DesignBatch {
            w1: decode_column(genes, 0),
            l1: decode_column(genes, 1),
            w3: decode_column(genes, 2),
            l3: decode_column(genes, 3),
            w5: decode_column(genes, 4),
            l5: decode_column(genes, 5),
            w6: decode_column(genes, 6),
            l6: decode_column(genes, 7),
            w7: decode_column(genes, 8),
            l7: decode_column(genes, 9),
            itail: decode_column(genes, 10),
            cc: decode_column(genes, 11),
            cs: decode_column(genes, 12),
            cf: decode_column(genes, 13),
            cl: Vec::new(),
            vcm_in: Vec::new(),
        }
    }

    /// Column-wise layout quantization; same snapping as
    /// [`DesignVector::quantize`] (load capacitance and common mode stay
    /// continuous).
    pub fn quantize(mut self) -> Self {
        for w in [
            &mut self.w1,
            &mut self.w3,
            &mut self.w5,
            &mut self.w6,
            &mut self.w7,
        ] {
            snap_column(w, W_UNIT);
        }
        for l in [
            &mut self.l1,
            &mut self.l3,
            &mut self.l5,
            &mut self.l6,
            &mut self.l7,
        ] {
            snap_column(l, L_UNIT);
        }
        for c in [&mut self.cc, &mut self.cs, &mut self.cf] {
            snap_column(c, C_UNIT);
        }
        snap_column(&mut self.itail, I_UNIT);
        self
    }

    /// Number of designs in the batch.
    pub fn len(&self) -> usize {
        self.w1.len()
    }

    /// `true` when the batch holds no designs.
    pub fn is_empty(&self) -> bool {
        self.w1.is_empty()
    }

    /// Gathers design `i` back into an ordinary [`DesignVector`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn design(&self, i: usize) -> DesignVector {
        DesignVector {
            w1: self.w1[i],
            l1: self.l1[i],
            w3: self.w3[i],
            l3: self.l3[i],
            w5: self.w5[i],
            l5: self.l5[i],
            w6: self.w6[i],
            l6: self.l6[i],
            w7: self.w7[i],
            l7: self.l7[i],
            itail: self.itail[i],
            cc: self.cc[i],
            cs: self.cs[i],
            cf: self.cf[i],
            cl: self.cl[i],
            vcm_in: self.vcm_in[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_genes(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..NUM_PARAMS)
                    .map(|j| (((i * NUM_PARAMS + j) as f64) * 0.37 + 0.11).fract())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn decode_matches_from_genes_bitwise() {
        let genes = pseudo_genes(9);
        let db = DesignBatch::decode(&genes);
        for (i, g) in genes.iter().enumerate() {
            assert_eq!(db.design(i), DesignVector::from_genes(g), "candidate {i}");
        }
    }

    #[test]
    fn decode_sizing_matches_from_sizing_genes_bitwise() {
        let genes = pseudo_genes(9);
        let db = DesignBatch::decode_sizing(&genes);
        for (i, g) in genes.iter().enumerate() {
            assert_eq!(
                db.design(i),
                DesignVector::from_sizing_genes(g),
                "candidate {i}"
            );
        }
    }

    #[test]
    fn quantize_matches_scalar_quantize_bitwise() {
        let genes = pseudo_genes(9);
        let db = DesignBatch::decode_sizing(&genes).quantize();
        for (i, g) in genes.iter().enumerate() {
            assert_eq!(
                db.design(i),
                DesignVector::from_sizing_genes(g).quantize(),
                "candidate {i}"
            );
        }
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let db = DesignBatch::decode(&[]);
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
    }

    #[test]
    #[should_panic(expected = "15 genes")]
    fn short_candidate_panics() {
        let _ = DesignBatch::decode(&[vec![0.5; 3]]);
    }
}
