//! Series approximation via prototypes (paper §VIII-G, Fig. 11).
//!
//! The case study decomposes a sequence into its assigned prototypes, "with
//! each prototype adjusted to maintain the original mean and standard
//! deviation" — i.e. each segment is replaced by its prototype re-scaled to
//! the segment's local first two moments. This module implements that
//! reconstruction and measures its fidelity.

use crate::engine::Prototypes;
use focus_tensor::{stats, Tensor};

/// Fidelity of a prototype reconstruction of one series.
#[derive(Clone, Debug)]
pub struct ReconstructionReport {
    /// The reconstructed series (same length as the input, truncated to a
    /// whole number of segments).
    pub reconstruction: Vec<f32>,
    /// Bucket index used for each segment.
    pub assignments: Vec<usize>,
    /// Mean squared reconstruction error.
    pub mse: f64,
    /// Pearson correlation between input and reconstruction.
    pub correlation: f32,
}

/// Reconstructs `row` from `prototypes`, segment by segment, re-scaling each
/// prototype to the segment's mean and standard deviation (Fig. 11).
///
/// Only `⌊len/p⌋·p` samples are reconstructed; a trailing partial segment is
/// ignored.
///
/// # Panics
/// If `row` is shorter than one segment.
pub fn reconstruct_row(row: &[f32], prototypes: &Prototypes) -> ReconstructionReport {
    let p = prototypes.segment_len();
    let n_segs = row.len() / p;
    assert!(n_segs > 0, "series of length {} shorter than segment {p}", row.len());
    let used = &row[..n_segs * p];

    // One batched assignment over the row's segments; each row of the
    // kernel is independent, so this equals assigning them one by one.
    let assignments = prototypes.assign_all(&Tensor::from_vec(used.to_vec(), &[n_segs, p]));
    let mut reconstruction = Vec::with_capacity(used.len());
    for (seg, &j) in used.chunks_exact(p).zip(&assignments) {
        let proto = prototypes.centers().row(j);
        let (seg_mean, seg_std) = stats::mean_std(seg);
        let (proto_mean, proto_std) = stats::mean_std(proto);
        // Re-scale the prototype shape to the segment's local moments.
        let scale = if proto_std > 1e-6 { seg_std / proto_std } else { 0.0 };
        for &v in proto {
            reconstruction.push((v - proto_mean) * scale + seg_mean);
        }
    }

    let mse = used
        .iter()
        .zip(&reconstruction)
        .map(|(&a, &b)| {
            let d = (a - b) as f64;
            d * d
        })
        .sum::<f64>()
        / used.len() as f64;
    let correlation = stats::pearson(used, &reconstruction);
    ReconstructionReport {
        reconstruction,
        assignments,
        mse,
        correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{segment_matrix, ClusterConfig};
    use crate::objective::Objective;

    fn periodic_series(len: usize) -> Vec<f32> {
        (0..len)
            .map(|t| {
                let u = t as f32 * 0.125;
                (2.0 * std::f32::consts::PI * u / 4.0).sin() + 0.3 * (t as f32 * 0.01).cos()
            })
            .collect()
    }

    #[test]
    fn reconstruction_preserves_local_moments() {
        let series = periodic_series(512);
        let segs = segment_matrix(&Tensor::from_vec(series.clone(), &[1, 512]), 16);
        let protos = ClusterConfig::new(8, 16).fit(&segs, 1);
        let rep = reconstruct_row(&series, &protos);
        assert_eq!(rep.reconstruction.len(), 512);
        // Each reconstructed segment keeps the segment's mean/std.
        for (seg_orig, seg_rec) in series.chunks_exact(16).zip(rep.reconstruction.chunks_exact(16)) {
            let (m0, s0) = stats::mean_std(seg_orig);
            let (m1, s1) = stats::mean_std(seg_rec);
            assert!((m0 - m1).abs() < 1e-4, "mean {m0} vs {m1}");
            assert!((s0 - s1).abs() < 1e-3, "std {s0} vs {s1}");
        }
    }

    #[test]
    fn k8_approximation_is_faithful() {
        // Fig. 11: k = 8 prototypes capture the essential patterns.
        let series = periodic_series(1_024);
        let segs = segment_matrix(&Tensor::from_vec(series.clone(), &[1, 1_024]), 16);
        let protos = ClusterConfig::new(8, 16).fit(&segs, 2);
        let rep = reconstruct_row(&series, &protos);
        assert!(rep.correlation > 0.9, "corr {}", rep.correlation);
        let var = Tensor::from_vec(series, &[1_024]).var_all() as f64;
        assert!(rep.mse < 0.3 * var, "mse {} vs var {var}", rep.mse);
    }

    #[test]
    fn more_prototypes_reconstruct_no_worse() {
        let series = periodic_series(1_024);
        let segs = segment_matrix(&Tensor::from_vec(series.clone(), &[1, 1_024]), 16);
        let small = ClusterConfig::new(2, 16)
            .with_objective(Objective::RecOnly)
            .fit(&segs, 3);
        let large = ClusterConfig::new(16, 16)
            .with_objective(Objective::RecOnly)
            .fit(&segs, 3);
        let rep_s = reconstruct_row(&series, &small);
        let rep_l = reconstruct_row(&series, &large);
        // Relative band plus an absolute slack: with a periodic series both
        // fits sit at the reconstruction noise floor (~1e-4), where a pure
        // 5% band is below seed-to-seed jitter of the AdamW prototype fit.
        assert!(
            rep_l.mse <= rep_s.mse * 1.05 + 1e-4,
            "k=16 mse {} vs k=2 mse {}",
            rep_l.mse,
            rep_s.mse
        );
    }

    #[test]
    fn assignments_cover_only_valid_buckets() {
        let series = periodic_series(256);
        let segs = segment_matrix(&Tensor::from_vec(series.clone(), &[1, 256]), 8);
        let protos = ClusterConfig::new(4, 8).fit(&segs, 4);
        let rep = reconstruct_row(&series, &protos);
        assert_eq!(rep.assignments.len(), 32);
        assert!(rep.assignments.iter().all(|&j| j < 4));
    }
}
