//! Clustering objectives: the composite distance of Eq. 6 and the gradients
//! of the prototype loss (Eqs. 8–10).

use focus_tensor::stats;

/// Which loss drives assignment and prototype optimisation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Pure Euclidean reconstruction (*Rec Only* in Fig. 8); equivalent to
    /// classic k-means.
    RecOnly,
    /// Reconstruction plus correlation alignment with weight `alpha`
    /// (*Rec+Corr*, Eq. 6/Eq. 10; the paper uses `alpha = 0.2`).
    RecCorr {
        /// Weight of the `1 − corr` term.
        alpha: f32,
    },
}

impl Objective {
    /// The paper's default: `Rec+Corr` with α = 0.2.
    pub fn paper_default() -> Objective {
        Objective::RecCorr { alpha: 0.2 }
    }

    /// Convenience constructor for `Rec+Corr`.
    pub fn rec_corr(alpha: f32) -> Objective {
        assert!(alpha >= 0.0, "alpha must be non-negative, got {alpha}");
        Objective::RecCorr { alpha }
    }

    /// The correlation weight (0 for [`Objective::RecOnly`]).
    pub fn alpha(&self) -> f32 {
        match self {
            Objective::RecOnly => 0.0,
            Objective::RecCorr { alpha } => *alpha,
        }
    }

    /// Composite assignment distance of Eq. 6:
    /// `‖x − c‖² + α · (1 − corr(x, c))`.
    pub fn distance(&self, segment: &[f32], prototype: &[f32]) -> f32 {
        let rec = stats::sq_euclidean(segment, prototype);
        match self {
            Objective::RecOnly => rec,
            Objective::RecCorr { alpha } => {
                rec + alpha * (1.0 - stats::pearson(segment, prototype))
            }
        }
    }
}

/// Gradient of `corr(s, c)` with respect to the prototype `c`.
///
/// With `s̃`, `c̃` the mean-centred vectors and `r = ⟨s̃, c̃⟩/(‖s̃‖‖c̃‖)`:
///
/// ```text
/// ∂r/∂c = s̃/(‖s̃‖‖c̃‖) − r · c̃/‖c̃‖²
/// ```
///
/// (the centring projection leaves already-centred vectors unchanged, so it
/// is absorbed). If either vector is (numerically) constant the correlation
/// is defined as 0 and the gradient as 0.
///
/// The fit sums this over a whole bucket in closed form (see
/// `engine::bucket_grad`); this per-member form is the oracle it is tested
/// against.
#[cfg(test)]
pub(crate) fn corr_grad_wrt_prototype(segment: &[f32], prototype: &[f32], out: &mut [f32]) {
    assert_eq!(segment.len(), prototype.len(), "length mismatch");
    assert_eq!(out.len(), prototype.len(), "output length mismatch");
    let n = segment.len() as f64;
    let ms: f64 = segment.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mc: f64 = prototype.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut dot = 0.0f64;
    let mut ns2 = 0.0f64;
    let mut nc2 = 0.0f64;
    let mut max_s = 0.0f64;
    let mut max_c = 0.0f64;
    for (&s, &c) in segment.iter().zip(prototype) {
        let st = s as f64 - ms;
        let ct = c as f64 - mc;
        dot += st * ct;
        ns2 += st * st;
        nc2 += ct * ct;
        max_s = max_s.max((s as f64).abs());
        max_c = max_c.max((c as f64).abs());
    }
    // Shared scale-aware floor (see `stats::zero_variance`): a constant
    // vector of large magnitude leaves mean-rounding residue in ns2/nc2 that
    // an absolute epsilon misses; dividing by it would make the gradient
    // noise-driven garbage where `corr = 0` defines it as zero.
    if stats::zero_variance(ns2, segment.len(), max_s)
        || stats::zero_variance(nc2, prototype.len(), max_c)
    {
        out.fill(0.0);
        return;
    }
    let ns = ns2.sqrt();
    let nc = nc2.sqrt();
    let r = dot / (ns * nc);
    for ((o, &s), &c) in out.iter_mut().zip(segment).zip(prototype) {
        let st = s as f64 - ms;
        let ct = c as f64 - mc;
        // Project through the centring: grad · (I − 11ᵀ/n). Because both
        // terms below are centred vectors, the projection is the identity.
        *o = ((st / (ns * nc)) - r * ct / nc2) as f32;
    }
    // Numerical centring: the exact gradient has zero mean.
    let mean: f32 = out.iter().sum::<f32>() / out.len() as f32;
    for o in out.iter_mut() {
        *o -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::stats;

    #[test]
    fn rec_only_is_euclidean() {
        let o = Objective::RecOnly;
        assert_eq!(o.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(o.alpha(), 0.0);
    }

    #[test]
    fn corr_term_separates_paper_example() {
        // Example 2: A is Euclidean-equidistant from B and C, but the
        // composite distance must prefer the correlated B.
        let a = [9.0f32, 10.0, 11.0];
        let b = [7.0f32, 10.0, 13.0];
        let c = [11.0f32, 10.0, 9.0];
        let o = Objective::rec_corr(0.2);
        assert!(o.distance(&a, &b) < o.distance(&a, &c));
        // Rec-only cannot tell them apart.
        let r = Objective::RecOnly;
        assert!((r.distance(&a, &b) - r.distance(&a, &c)).abs() < 1e-6);
    }

    #[test]
    fn corr_gradient_matches_finite_differences() {
        let s = [0.3f32, -1.0, 2.0, 0.5, -0.8];
        let mut c = [1.0f32, 0.2, -0.5, 0.7, 0.1];
        let mut grad = [0.0f32; 5];
        corr_grad_wrt_prototype(&s, &c, &mut grad);
        let eps = 1e-3;
        for j in 0..5 {
            let orig = c[j];
            c[j] = orig + eps;
            let up = stats::pearson(&s, &c);
            c[j] = orig - eps;
            let dn = stats::pearson(&s, &c);
            c[j] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (grad[j] - numeric).abs() < 1e-3,
                "j={j}: analytic {} vs numeric {numeric}",
                grad[j]
            );
        }
    }

    #[test]
    fn corr_gradient_is_zero_for_flat_inputs() {
        let flat = [1.0f32; 4];
        let c = [0.5f32, 1.0, -1.0, 0.2];
        let mut grad = [9.0f32; 4];
        corr_grad_wrt_prototype(&flat, &c, &mut grad);
        assert_eq!(grad, [0.0; 4]);
    }

    #[test]
    fn corr_gradient_is_zero_for_large_magnitude_flat_inputs() {
        // |v| ≈ 1e8: mean rounding leaves ns2 tiny-but-positive; the
        // scale-aware floor must still read the vector as flat.
        let flat = [1.0e8f32; 6];
        let c = [0.5f32, 1.0, -1.0, 0.2, 0.9, -0.3];
        let mut grad = [9.0f32; 6];
        corr_grad_wrt_prototype(&flat, &c, &mut grad);
        assert_eq!(grad, [0.0; 6]);
        let mut grad2 = [9.0f32; 6];
        corr_grad_wrt_prototype(&c, &flat, &mut grad2);
        assert_eq!(grad2, [0.0; 6]);
    }

    #[test]
    fn ascending_corr_gradient_increases_correlation() {
        let s = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [0.5f32, -0.2, 0.1, 0.3];
        let before = stats::pearson(&s, &c);
        for _ in 0..50 {
            let mut g = [0.0f32; 4];
            corr_grad_wrt_prototype(&s, &c, &mut g);
            for (cv, gv) in c.iter_mut().zip(&g) {
                *cv += 0.1 * gv;
            }
        }
        let after = stats::pearson(&s, &c);
        assert!(after > before + 0.1, "before {before}, after {after}");
    }
}
