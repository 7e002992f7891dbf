//! The clustering engine: Algorithm 1 of the paper.
//!
//! ```text
//! initialise k prototypes (k-means++ under the composite distance)
//! repeat
//!     assign every segment to its nearest prototype      (Eq. 6)
//!     update every prototype on its bucket's loss        (Eqs. 8–10)
//! until assignments stop changing or max_iters
//! ```

use crate::batch::{assign_nearest, distance_matrix, kpp_sweep, sweep_grain, CenterCache, RowMoments, SegmentStats};
use crate::objective::Objective;
use focus_tensor::{par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nearest prototype to `seg` among `centers: [k, p]`: `(index, distance)`.
fn nearest_center(seg: &[f32], centers: &Tensor, k: usize, objective: &Objective) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for j in 0..k {
        let d = objective.distance(seg, centers.row(j));
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    (best, best_d)
}

/// Cuts a `[N, T]` series matrix into non-overlapping length-`p` segments
/// from every entity, producing `[num_segments, p]`. Trailing partial
/// segments are dropped (the paper assumes `p | T`).
pub fn segment_matrix(series: &Tensor, p: usize) -> Tensor {
    assert_eq!(series.rank(), 2, "segment_matrix expects [entities, time]");
    assert!(p > 0, "segment length must be positive");
    let (n, t) = (series.dims()[0], series.dims()[1]);
    let per_entity = t / p;
    assert!(per_entity > 0, "series length {t} shorter than segment {p}");
    let mut data = Vec::with_capacity(n * per_entity * p);
    for e in 0..n {
        let row = series.row(e);
        for s in 0..per_entity {
            data.extend_from_slice(&row[s * p..(s + 1) * p]);
        }
    }
    Tensor::from_vec(data, &[n * per_entity, p])
}

/// How prototypes are re-estimated each outer iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtoUpdate {
    /// Closed-form bucket mean — classic k-means, exact minimiser of the
    /// reconstruction loss alone.
    ClosedFormMean,
    /// AdamW gradient steps on `L_rec + α·L_corr` (the paper's §V choice).
    AdamW {
        /// Learning rate.
        lr: f32,
        /// Gradient steps per outer iteration.
        steps: usize,
        /// Decoupled weight decay.
        weight_decay: f32,
    },
}

impl ProtoUpdate {
    /// The paper-faithful default: AdamW, a handful of inner steps.
    pub fn paper_default() -> Self {
        ProtoUpdate::AdamW {
            lr: 0.05,
            steps: 8,
            weight_decay: 0.0,
        }
    }
}

/// Configuration of one clustering run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of prototypes `k`.
    pub k: usize,
    /// Segment length `p`.
    pub segment_len: usize,
    /// Assignment / optimisation objective.
    pub objective: Objective,
    /// Prototype update rule.
    pub update: ProtoUpdate,
    /// Maximum outer iterations.
    pub max_iters: usize,
}

impl ClusterConfig {
    /// A config with the paper's defaults (`Rec+Corr`, α = 0.2, AdamW).
    pub fn new(k: usize, segment_len: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(segment_len > 0, "segment_len must be positive");
        ClusterConfig {
            k,
            segment_len,
            objective: Objective::paper_default(),
            update: ProtoUpdate::paper_default(),
            max_iters: 30,
        }
    }

    /// Overrides the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the prototype update rule.
    pub fn with_update(mut self, update: ProtoUpdate) -> Self {
        self.update = update;
        self
    }

    /// Overrides the outer iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Runs Algorithm 1 on `segments: [n, p]`.
    ///
    /// # Panics
    /// If the segment width differs from `segment_len` or there are fewer
    /// segments than prototypes.
    pub fn fit(&self, segments: &Tensor, seed: u64) -> Prototypes {
        self.fit_traced(segments, seed).0
    }

    /// Like [`ClusterConfig::fit`] but also returns the per-iteration loss
    /// trace (used by tests and the Fig. 8 harness).
    pub fn fit_traced(&self, segments: &Tensor, seed: u64) -> (Prototypes, FitTrace) {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        assert_eq!(p, self.segment_len, "segment width {p} != segment_len {}", self.segment_len);
        assert!(
            n >= self.k,
            "need at least k = {} segments, got {n}",
            self.k
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1a5_7e12u64.rotate_left(3));
        focus_trace::span!("cluster/fit");

        // Segments never change during a fit: their norms and centred-
        // normalised rows are computed once and read by every phase below.
        let seg = SegmentStats::new(segments, &self.objective);
        let mut centers = {
            focus_trace::span!("cluster/init");
            kmeans_pp_init(&seg, self.k, &mut rng)
        };
        let mut assignment = vec![usize::MAX; n];
        let mut trace = FitTrace::default();
        let mut adam = AdamState::new(self.k, p);

        let (mut nearest, mut nearest_d) = (vec![0u32; seg.padded_rows()], vec![0.0f32; seg.padded_rows()]);
        for iter in 0..self.max_iters {
            // Assignment step (Eq. 6) via the row-lane kernel; the f64 loss
            // is then folded serially in ascending segment order so the
            // trace is identical at any thread count.
            let cache = CenterCache::new(&centers, &self.objective);
            assign_nearest(&seg, &cache, &mut nearest, &mut nearest_d);
            let mut changed = 0usize;
            let mut loss = 0.0f64;
            for ((slot, &best), &best_d) in assignment.iter_mut().zip(&nearest).zip(&nearest_d) {
                let best = best as usize;
                if *slot != best {
                    changed += 1;
                    *slot = best;
                }
                loss += best_d as f64;
            }
            trace.loss_per_iter.push(loss / n as f64);

            if changed == 0 && iter > 0 {
                trace.converged_at = Some(iter);
                break;
            }

            // Re-seed empty buckets from the farthest segment.
            reseed_empty_buckets(segments, &mut centers, &mut assignment, &self.objective);

            // Update step (Eqs. 8–10).
            focus_trace::span!("cluster/update");
            match self.update {
                ProtoUpdate::ClosedFormMean => {
                    update_mean(&BucketSums::new(&seg, &assignment, self.k, false), &mut centers);
                }
                ProtoUpdate::AdamW { lr, steps, weight_decay } => {
                    let alpha = self.objective.alpha();
                    let sums = BucketSums::new(&seg, &assignment, self.k, alpha > 0.0);
                    update_adamw(&sums, &mut centers, alpha, &mut adam, lr, steps, weight_decay);
                }
            }
        }

        (Prototypes::from_centers(centers, self.objective), trace)
    }
}

/// Per-iteration diagnostics of a [`ClusterConfig::fit_traced`] run.
#[derive(Default, Debug, Clone)]
pub struct FitTrace {
    /// Mean composite assignment distance after each assignment step.
    pub loss_per_iter: Vec<f64>,
    /// The iteration at which assignments stopped changing, if reached.
    pub converged_at: Option<usize>,
}

/// The learned prototype set `C = {c_1, …, c_k}`.
#[derive(Clone, Debug)]
pub struct Prototypes {
    centers: Tensor,
    objective: Objective,
    /// The kernel's center-side data, built once here so online routing
    /// never rebuilds it per call (boxed: models embed prototype sets by
    /// value).
    cache: Box<CenterCache>,
}

impl Prototypes {
    /// Builds a prototype set directly (for tests and deserialisation).
    /// Every constructor ends here, so the center cache always exists and
    /// always matches `centers`.
    pub fn from_centers(centers: Tensor, objective: Objective) -> Self {
        assert_eq!(centers.rank(), 2, "centers must be [k, p]");
        let cache = Box::new(CenterCache::new(&centers, &objective));
        Prototypes {
            centers,
            objective,
            cache,
        }
    }

    /// The prototype matrix, `[k, p]`.
    pub fn centers(&self) -> &Tensor {
        &self.centers
    }

    /// Number of prototypes `k`.
    pub fn k(&self) -> usize {
        self.centers.dims()[0]
    }

    /// Segment length `p`.
    pub fn segment_len(&self) -> usize {
        self.centers.dims()[1]
    }

    /// The objective the prototypes were fitted under.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Index of the nearest prototype to `segment` under the fitted
    /// objective (Eq. 6) — the online assignment of Algorithm 2, line 3.
    ///
    /// Single segments run through the same row-lane kernel as
    /// [`Prototypes::assign_all`] with `n = 1`, so one-off and bulk
    /// assignment can never disagree. To assign many segments, stack them
    /// and call [`Prototypes::assign_all`] once.
    pub fn assign(&self, segment: &[f32]) -> usize {
        assert_eq!(
            segment.len(),
            self.segment_len(),
            "segment length {} != prototype length {}",
            segment.len(),
            self.segment_len()
        );
        self.assign_all(&Tensor::from_vec(segment.to_vec(), &[1, segment.len()]))[0]
    }

    /// Assigns every row of `segments: [n, p]`, returning the bucket index
    /// per segment.
    ///
    /// Runs the row-lane kernel (see [`crate::batch`]): sixteen segments at
    /// a time against every prototype, keeping a running per-segment
    /// minimum instead of a distance matrix. Distances agree with
    /// [`Prototypes::assign_all_scalar`] to f32 roundoff, argmins whenever
    /// the best/second-best margin exceeds it, and exact ties break to the
    /// lowest index on both paths. Identical at any thread count.
    pub fn assign_all(&self, segments: &Tensor) -> Vec<usize> {
        let seg = SegmentStats::new(segments, &self.objective);
        let (mut idx, mut dist) = (vec![0u32; seg.padded_rows()], vec![0.0f32; seg.padded_rows()]);
        assign_nearest(&seg, &self.cache, &mut idx, &mut dist);
        idx[..segments.dims()[0]].iter().map(|&j| j as usize).collect()
    }

    /// Scalar-oracle assignment sweep: a straight per-pair
    /// [`Objective::distance`] loop with f64 accumulation. Kept as the
    /// ground-truth reference for the row-lane kernel (property tests,
    /// benchmark baselines); prefer [`Prototypes::assign_all`] everywhere
    /// else.
    pub fn assign_all_scalar(&self, segments: &Tensor) -> Vec<usize> {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let n = segments.dims()[0];
        let mut out = vec![0usize; n];
        let grain = sweep_grain(self.k() * self.segment_len());
        par::parallel_fill(&mut out, grain, |range, chunk| {
            for (i, o) in range.zip(chunk.iter_mut()) {
                *o = nearest_center(segments.row(i), &self.centers, self.k(), &self.objective).0;
            }
        });
        out
    }

    /// The full `[n, k]` composite-distance matrix from every row of
    /// `segments` to every prototype, via the row-lane kernel.
    pub fn distances(&self, segments: &Tensor) -> Tensor {
        distance_matrix(&SegmentStats::new(segments, &self.objective), &self.cache)
    }

    /// The distance from `segment` to its nearest prototype.
    pub fn nearest_distance(&self, segment: &[f32]) -> f32 {
        let j = self.assign(segment);
        self.objective.distance(segment, self.centers.row(j))
    }
}

/// k-means++ seeding under the composite distance.
///
/// Each sweep is the row-lane tile walk in f64 lanes ([`kpp_sweep`]), whose
/// distances are bitwise-equal to [`Objective::distance`], so the picks
/// match a per-row sweep exactly.
fn kmeans_pp_init(seg: &SegmentStats, k: usize, rng: &mut StdRng) -> Tensor {
    let segments = seg.segments;
    let (n, p) = (segments.dims()[0], segments.dims()[1]);
    let mut centers = Tensor::zeros(&[k, p]);
    let first = rng.gen_range(0..n);
    centers.data_mut()[..p].copy_from_slice(segments.row(first));

    // Distance sweeps are per-segment independent (parallel, bitwise
    // identical to serial); the weighted pick itself stays serial so the RNG
    // stream and the f64 prefix scan keep their exact order.
    let mut padded = vec![0.0f32; seg.padded_rows()];
    kpp_sweep(seg, centers.row(0), true, &mut padded);

    for j in 1..k {
        let dists = &padded[..n];
        let total: f64 = dists.iter().map(|&d| d.max(0.0) as f64).sum();
        let pick = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d.max(0.0) as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(segments.row(pick));
        kpp_sweep(seg, centers.row(j), false, &mut padded);
    }
    centers
}

/// Moves any prototype with an empty bucket onto the segment currently
/// farthest from its assigned prototype.
fn reseed_empty_buckets(
    segments: &Tensor,
    centers: &mut Tensor,
    assignment: &mut [usize],
    objective: &Objective,
) {
    let k = centers.dims()[0];
    let p = centers.dims()[1];
    let mut counts = vec![0usize; k];
    for &a in assignment.iter() {
        counts[a] += 1;
    }
    for j in 0..k {
        if counts[j] > 0 {
            continue;
        }
        // Farthest segment from its own prototype.
        let (mut worst_i, mut worst_d) = (0usize, -1.0f32);
        for (i, &a) in assignment.iter().enumerate() {
            let d = objective.distance(segments.row(i), centers.row(a));
            if d > worst_d {
                worst_d = d;
                worst_i = i;
            }
        }
        centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(segments.row(worst_i));
        counts[assignment[worst_i]] -= 1;
        assignment[worst_i] = j;
        counts[j] = 1;
    }
}

/// Per-bucket sufficient statistics of one assignment, built in one serial
/// pass over the segments in ascending order (so identical at any thread
/// count). The prototype updates only ever need these, never the members.
struct BucketSums {
    p: usize,
    counts: Vec<usize>,
    /// `Σ_{i∈B_j} x_i`, `[k, p]`.
    sums: Vec<f64>,
    /// `S_j = Σ_{i∈B_j} x̂_i`, `[k, p]`; empty unless requested.
    unit_sums: Vec<f64>,
}

impl BucketSums {
    fn new(seg: &SegmentStats, assignment: &[usize], k: usize, with_unit: bool) -> BucketSums {
        let p = seg.segments.dims()[1];
        let mut counts = vec![0usize; k];
        for &a in assignment {
            counts[a] += 1;
        }
        let mut sums = vec![0.0f64; k * p];
        let mut unit_sums = vec![0.0f64; if with_unit { k * p } else { 0 }];
        seg.add_to_buckets(assignment, &mut sums, with_unit.then_some(&mut unit_sums[..]));
        BucketSums {
            p,
            counts,
            sums,
            unit_sums,
        }
    }

    /// `S_j`, or an empty slice when the sums were built without it.
    fn unit_sum(&self, j: usize) -> &[f64] {
        self.unit_sums.get(j * self.p..(j + 1) * self.p).unwrap_or(&[])
    }

    /// Writes the mean of non-empty bucket `j` into `out`.
    fn mean(&self, j: usize, out: &mut [f32]) {
        let inv = 1.0 / self.counts[j] as f64;
        for (o, &s) in out.iter_mut().zip(&self.sums[j * self.p..(j + 1) * self.p]) {
            *o = (s * inv) as f32;
        }
    }
}

/// Closed-form mean update (classic k-means).
fn update_mean(sums: &BucketSums, centers: &mut Tensor) {
    let (k, p) = (centers.dims()[0], centers.dims()[1]);
    for j in 0..k {
        if sums.counts[j] > 0 {
            sums.mean(j, &mut centers.data_mut()[j * p..(j + 1) * p]);
        }
    }
}

/// Gradient of `L_j = ‖c − mean(B_j)‖² + α · (−|B_j|⁻¹ Σ_{i∈B_j} corr(x_i, c))`
/// (Eqs. 8–10) from the bucket's sufficient statistics.
///
/// With `ĉ = c̃/‖c̃‖` and `S = Σ_i x̂_i`, each member contributes
/// `∂corr(x_i, c)/∂c = (x̂_i − (x̂_i·ĉ)ĉ)/‖c̃‖`, which is linear in `x̂_i`, so
/// the bucket sum is exactly `(S − (S·ĉ)ĉ)/‖c̃‖` — `O(p)` per bucket instead
/// of `O(|B_j|·p)`. Constant members have `x̂_i = 0` and a constant center
/// has zero gradient, the convention of [`crate::objective::corr_grad_wrt_prototype`].
fn bucket_grad(center: &[f32], mean: &[f32], unit_sum: &[f64], count: usize, alpha: f32, out: &mut [f32]) {
    for ((g, &c), &m) in out.iter_mut().zip(center).zip(mean) {
        *g = 2.0 * (c - m);
    }
    if alpha <= 0.0 {
        return;
    }
    debug_assert_eq!(unit_sum.len(), center.len(), "correlation objective without bucket sums S_j");
    let cm = RowMoments::of(center);
    if cm.flat {
        return;
    }
    let unit = |c: f32| (c as f64 - cm.mean) / cm.norm;
    let s_dot_c: f64 = unit_sum.iter().zip(center).map(|(&s, &c)| s * unit(c)).sum();
    let corr = |s: f64, c: f32| s - s_dot_c * unit(c);
    // The exact gradient has zero mean; drop the rounding residue.
    let residue = unit_sum.iter().zip(center).map(|(&s, &c)| corr(s, c)).sum::<f64>() / center.len() as f64;
    let scale = alpha as f64 / (count as f64 * cm.norm);
    for ((g, &s), &c) in out.iter_mut().zip(unit_sum).zip(center) {
        *g -= (scale * (corr(s, c) - residue)) as f32;
    }
}

/// Per-prototype AdamW state.
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl AdamState {
    fn new(k: usize, p: usize) -> Self {
        AdamState {
            m: vec![0.0; k * p],
            v: vec![0.0; k * p],
            t: 0,
        }
    }
}

/// AdamW steps on every non-empty bucket's loss (see [`bucket_grad`]).
/// Each step costs `O(k·p)`: the buckets enter only through `sums`.
fn update_adamw(
    sums: &BucketSums,
    centers: &mut Tensor,
    alpha: f32,
    adam: &mut AdamState,
    lr: f32,
    steps: usize,
    weight_decay: f32,
) {
    let (k, p) = (centers.dims()[0], centers.dims()[1]);
    // Bucket means are constant during the inner steps.
    let mut bucket_means = vec![0.0f32; k * p];
    for j in 0..k {
        if sums.counts[j] > 0 {
            sums.mean(j, &mut bucket_means[j * p..(j + 1) * p]);
        }
    }

    let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    let mut grad = vec![0.0f32; p];
    for _ in 0..steps {
        adam.t += 1;
        let bc1 = 1.0 - beta1.powi(adam.t as i32);
        let bc2 = 1.0 - beta2.powi(adam.t as i32);
        for j in 0..k {
            if sums.counts[j] == 0 {
                continue;
            }
            bucket_grad(
                centers.row(j),
                &bucket_means[j * p..(j + 1) * p],
                sums.unit_sum(j),
                sums.counts[j],
                alpha,
                &mut grad,
            );
            // AdamW step with decoupled decay.
            let base = j * p;
            let row = &mut centers.data_mut()[base..base + p];
            for (idx, (c, &g)) in row.iter_mut().zip(&grad).enumerate() {
                if weight_decay > 0.0 {
                    *c *= 1.0 - lr * weight_decay;
                }
                let mi = &mut adam.m[base + idx];
                let vi = &mut adam.v[base + idx];
                *mi = beta1 * *mi + (1.0 - beta1) * g;
                *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *c -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::corr_grad_wrt_prototype;
    use focus_tensor::stats;

    /// Three well-separated planted clusters of segments.
    fn planted(n_per: usize, p: usize) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(99);
        let shapes: [fn(f32) -> f32; 3] = [
            |u| (2.0 * std::f32::consts::PI * u).sin(),
            |u| 2.0 * u - 1.0,
            |u| if u > 0.5 { 1.0 } else { -1.0 },
        ];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (c, shape) in shapes.iter().enumerate() {
            for _ in 0..n_per {
                let noise: f32 = rng.gen_range(0.0..0.1);
                for i in 0..p {
                    let u = i as f32 / p as f32;
                    data.push(shape(u) + noise * rng.gen_range(-1.0f32..1.0));
                }
                labels.push(c);
            }
        }
        (Tensor::from_vec(data, &[3 * n_per, p]), labels)
    }

    /// Clustering accuracy up to label permutation (3 clusters).
    fn purity(assign: &[usize], truth: &[usize], k: usize) -> f64 {
        let mut count = vec![vec![0usize; 3]; k];
        for (&a, &t) in assign.iter().zip(truth) {
            count[a][t] += 1;
        }
        let correct: usize = count.iter().map(|c| c.iter().max().copied().unwrap_or(0)).sum();
        correct as f64 / assign.len() as f64
    }

    #[test]
    fn recovers_planted_clusters_with_mean_update() {
        let (segs, truth) = planted(40, 16);
        let cfg = ClusterConfig::new(3, 16)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean);
        let protos = cfg.fit(&segs, 1);
        let assign = protos.assign_all(&segs);
        assert!(purity(&assign, &truth, 3) > 0.95);
    }

    #[test]
    fn recovers_planted_clusters_with_adamw_update() {
        let (segs, truth) = planted(40, 16);
        let cfg = ClusterConfig::new(3, 16); // paper defaults: Rec+Corr, AdamW
        let protos = cfg.fit(&segs, 2);
        let assign = protos.assign_all(&segs);
        assert!(purity(&assign, &truth, 3) > 0.9);
    }

    #[test]
    fn loss_trace_is_monotone_nonincreasing_for_kmeans() {
        let (segs, _) = planted(30, 8);
        let cfg = ClusterConfig::new(4, 8)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean);
        let (_, trace) = cfg.fit_traced(&segs, 3);
        for w in trace.loss_per_iter.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "loss increased: {:?}", trace.loss_per_iter);
        }
    }

    #[test]
    fn converges_and_reports_iteration() {
        let (segs, _) = planted(30, 8);
        let cfg = ClusterConfig::new(3, 8)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean)
            .with_max_iters(50);
        let (_, trace) = cfg.fit_traced(&segs, 4);
        assert!(trace.converged_at.is_some(), "did not converge in 50 iters");
    }

    #[test]
    fn rec_corr_prototypes_align_in_shape() {
        // With a strong correlation weight, prototypes should correlate with
        // their members even when amplitudes vary.
        let p = 16;
        let mut data = Vec::new();
        for amp_i in 0..30 {
            let amp = 0.5 + amp_i as f32 * 0.1;
            for i in 0..p {
                let u = i as f32 / p as f32;
                data.push(amp * (2.0 * std::f32::consts::PI * u).sin());
            }
        }
        let segs = Tensor::from_vec(data, &[30, p]);
        let cfg = ClusterConfig::new(2, p).with_objective(Objective::rec_corr(2.0));
        let protos = cfg.fit(&segs, 5);
        let assign = protos.assign_all(&segs);
        for (i, &a) in assign.iter().enumerate() {
            let r = stats::pearson(segs.row(i), protos.centers().row(a));
            assert!(r > 0.8, "segment {i} corr {r}");
        }
    }

    #[test]
    fn segment_matrix_layout() {
        let series = Tensor::from_vec((0..20).map(|v| v as f32).collect(), &[2, 10]);
        let segs = segment_matrix(&series, 4);
        // 2 entities × 2 full segments each (tail of 2 dropped).
        assert_eq!(segs.dims(), &[4, 4]);
        assert_eq!(segs.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(segs.row(2), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn deterministic_in_seed() {
        let (segs, _) = planted(20, 8);
        let cfg = ClusterConfig::new(3, 8);
        let a = cfg.fit(&segs, 7);
        let b = cfg.fit(&segs, 7);
        assert_eq!(a.centers().data(), b.centers().data());
    }

    #[test]
    fn assign_is_stable_under_refit_objective() {
        let (segs, _) = planted(20, 8);
        let protos = ClusterConfig::new(3, 8).fit(&segs, 8);
        for i in 0..segs.dims()[0] {
            let j = protos.assign(segs.row(i));
            assert!(j < 3);
            assert!(protos.nearest_distance(segs.row(i)).is_finite());
        }
    }

    /// The per-member loop the closed form replaced: `2(c − m) − α/|B|·Σ_i
    /// ∂corr(x_i, c)/∂c`, one [`corr_grad_wrt_prototype`] call per member.
    fn member_loop_grad(members: &[&[f32]], center: &[f32], mean: &[f32], alpha: f32) -> Vec<f32> {
        let mut grad: Vec<f32> = center.iter().zip(mean).map(|(&c, &m)| 2.0 * (c - m)).collect();
        let mut cg = vec![0.0f32; center.len()];
        let inv = 1.0 / members.len() as f32;
        for x in members {
            corr_grad_wrt_prototype(x, center, &mut cg);
            for (g, &v) in grad.iter_mut().zip(&cg) {
                *g -= alpha * inv * v;
            }
        }
        grad
    }

    /// The closed-form gradient of one bucket, built through the same
    /// cache and bucket pass the fit uses.
    fn closed_form_grad(members: &Tensor, center: &[f32], mean: &[f32], alpha: f32) -> Vec<f32> {
        let objective = if alpha > 0.0 { Objective::rec_corr(alpha) } else { Objective::RecOnly };
        let seg = SegmentStats::new(members, &objective);
        let sums = BucketSums::new(&seg, &vec![0; members.dims()[0]], 1, alpha > 0.0);
        let mut grad = vec![0.0f32; center.len()];
        bucket_grad(center, mean, sums.unit_sum(0), sums.counts[0], alpha, &mut grad);
        grad
    }

    fn assert_rel_close(closed: &[f32], oracle: &[f32], what: &str) {
        let scale = oracle.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (t, (&a, &b)) in closed.iter().zip(oracle).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * scale,
                "{what}[{t}]: closed form {a} vs member loop {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn closed_form_bucket_gradient_matches_member_loop() {
        let mut rng = StdRng::seed_from_u64(21);
        for (case, &(size, p, alpha)) in
            [(1usize, 8usize, 0.2f32), (7, 16, 0.2), (64, 24, 1.0), (300, 12, 0.5), (40, 8, 0.0)].iter().enumerate()
        {
            let mut members = Tensor::randn(&[size, p], 1.5, &mut rng);
            // Every fourth member is constant: it must contribute nothing.
            for i in (0..size).step_by(4) {
                let level = members.row(i)[0];
                members.data_mut()[i * p..(i + 1) * p].fill(level);
            }
            let center = Tensor::randn(&[1, p], 1.0, &mut rng);
            let rows: Vec<&[f32]> = (0..size).map(|i| members.row(i)).collect();
            // mean == center zeroes the reconstruction term, isolating the
            // correlation sum; a distinct mean checks the two combine.
            let other_mean = Tensor::randn(&[1, p], 1.0, &mut rng);
            for mean in [center.row(0), other_mean.row(0)] {
                let closed = closed_form_grad(&members, center.row(0), mean, alpha);
                let oracle = member_loop_grad(&rows, center.row(0), mean, alpha);
                assert_rel_close(&closed, &oracle, &format!("case {case}"));
            }
        }
    }

    #[test]
    fn closed_form_bucket_gradient_follows_constant_conventions() {
        let mut rng = StdRng::seed_from_u64(22);
        let p = 10;
        let members = Tensor::randn(&[12, p], 1.0, &mut rng);
        let rows: Vec<&[f32]> = (0..12).map(|i| members.row(i)).collect();
        let mean = vec![0.25f32; p];
        // A constant center has zero correlation gradient on both paths.
        let flat = vec![3.0f32; p];
        let closed = closed_form_grad(&members, &flat, &mean, 0.4);
        assert_eq!(closed, member_loop_grad(&rows, &flat, &mean, 0.4));
        assert!(closed.iter().all(|&g| g == 2.0 * (3.0 - 0.25)));
        // An all-constant bucket (large magnitude included) contributes zero.
        let levels = Tensor::from_vec(
            (0..3).flat_map(|i| vec![[1.0e8f32, -2.0, 0.5][i]; p]).collect(),
            &[3, p],
        );
        let center = Tensor::randn(&[1, p], 1.0, &mut rng);
        let closed = closed_form_grad(&levels, center.row(0), center.row(0), 0.4);
        assert!(closed.iter().all(|&g| g == 0.0), "constant members must not pull: {closed:?}");
    }

    #[test]
    fn cached_distance_is_bitwise_equal_to_objective_distance() {
        let mut rng = StdRng::seed_from_u64(23);
        let p = 12;
        let mut segs = Tensor::randn(&[50, p], 2.0, &mut rng);
        segs.data_mut()[..p].fill(1.0e8); // large-magnitude constant row
        segs.data_mut()[p..2 * p].fill(-0.75); // ordinary constant row
        let mut centers = Tensor::randn(&[4, p], 1.0, &mut rng);
        centers.data_mut()[..p].fill(0.5);
        for objective in [Objective::RecOnly, Objective::rec_corr(0.2), Objective::rec_corr(3.0)] {
            let seg = SegmentStats::new(&segs, &objective);
            for j in 0..4 {
                let center = centers.row(j);
                let cm = seg.center_moments(center);
                for i in 0..50 {
                    let cached = seg.distance(i, center, cm.as_ref());
                    let direct = objective.distance(segs.row(i), center);
                    assert_eq!(cached.to_bits(), direct.to_bits(), "{objective:?} d({i}, {j})");
                }
            }
        }
    }

    /// The per-row k-means++ sweep the lane kernel replaced: one
    /// [`SegmentStats::distance`] call per segment per new center.
    fn kmeans_pp_per_row(seg: &SegmentStats, k: usize, rng: &mut StdRng) -> Tensor {
        let segments = seg.segments;
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        let mut centers = Tensor::zeros(&[k, p]);
        let first = rng.gen_range(0..n);
        centers.data_mut()[..p].copy_from_slice(segments.row(first));
        let cm = seg.center_moments(centers.row(0));
        let mut dists: Vec<f32> = (0..n).map(|i| seg.distance(i, centers.row(0), cm.as_ref())).collect();
        for j in 1..k {
            let total: f64 = dists.iter().map(|&d| d.max(0.0) as f64).sum();
            let pick = if total <= f64::EPSILON {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut chosen = n - 1;
                for (i, &d) in dists.iter().enumerate() {
                    target -= d.max(0.0) as f64;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            centers.data_mut()[j * p..(j + 1) * p].copy_from_slice(segments.row(pick));
            let cm = seg.center_moments(centers.row(j));
            for (i, d) in dists.iter_mut().enumerate() {
                let nd = seg.distance(i, centers.row(j), cm.as_ref());
                if nd < *d {
                    *d = nd;
                }
            }
        }
        centers
    }

    #[test]
    fn kmeans_pp_lanes_pick_the_per_row_centers() {
        // Row counts off the tile grid, constant rows (large magnitude
        // included), both objectives and several RNG streams.
        let (mut segs, _) = planted(67, 12);
        segs.data_mut()[..12].fill(1.0e8);
        segs.data_mut()[5 * 12..6 * 12].fill(-3.0);
        for objective in [Objective::RecOnly, Objective::rec_corr(0.2), Objective::rec_corr(2.0)] {
            let seg = SegmentStats::new(&segs, &objective);
            for seed in 0..6u64 {
                let lanes = kmeans_pp_init(&seg, 9, &mut StdRng::seed_from_u64(seed));
                let rows = kmeans_pp_per_row(&seg, 9, &mut StdRng::seed_from_u64(seed));
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&lanes), bits(&rows), "{objective:?} seed {seed}");
            }
        }
    }

    #[test]
    fn fit_is_thread_count_invariant_off_the_tile_grid() {
        // 1 001 segments: not a multiple of the lane count, so the last
        // tile is partial and thread blocks split at tile boundaries.
        let _g = par::threads_guard();
        let mut rng = StdRng::seed_from_u64(32);
        let segs = Tensor::randn(&[1_001, 8], 1.0, &mut rng);
        for objective in [Objective::RecOnly, Objective::rec_corr(0.2)] {
            let cfg = ClusterConfig::new(7, 8).with_objective(objective).with_max_iters(5);
            par::set_threads(1);
            let (serial, serial_trace) = cfg.fit_traced(&segs, 33);
            for threads in [2, 4] {
                par::set_threads(threads);
                let (t, trace) = cfg.fit_traced(&segs, 33);
                assert_eq!(t.centers().data(), serial.centers().data(), "{objective:?} at {threads} threads");
                assert_eq!(trace.loss_per_iter, serial_trace.loss_per_iter, "{objective:?} at {threads} threads");
            }
        }
        par::set_threads(0);
    }

    #[test]
    fn fit_is_thread_count_invariant() {
        let _g = par::threads_guard();
        let (segs, _) = planted(700, 16);
        let cfg = ClusterConfig::new(8, 16).with_max_iters(6);
        par::set_threads(1);
        let serial = cfg.fit(&segs, 31);
        for threads in [2, 4] {
            par::set_threads(threads);
            let t = cfg.fit(&segs, 31);
            assert_eq!(t.centers().data(), serial.centers().data(), "{threads} threads");
        }
        par::set_threads(0);
    }

    #[test]
    #[should_panic(expected = "need at least k")]
    fn rejects_more_prototypes_than_segments() {
        let segs = Tensor::zeros(&[2, 4]);
        let _ = ClusterConfig::new(3, 4).fit(&segs, 0);
    }
}
