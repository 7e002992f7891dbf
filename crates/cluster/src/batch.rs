//! The row-lane nearest-prototype kernel for the composite distance (Eq. 6).
//!
//! ```text
//! ‖x − c‖²   = ‖x‖² − 2·x·c + ‖c‖²          (expand the square)
//! corr(x, c) = x̂ · ĉ,   v̂ = (v − mean(v)) / ‖v − mean(v)‖
//! ```
//!
//! [`SegmentStats`] stores the raw rows and `x̂` once per fit in *lane
//! tiles* of [`LANES`] rows, `tile[(t·p + kk)·LANES + lane]`, so element `kk`
//! of sixteen consecutive rows is one contiguous vector. The kernel walks
//! tiles × centers, [`CENTERS_PER_PASS`] centers at a time. Per center it
//! accumulates, in every lane at once, the raw dot `x·c` and the correlation
//! dot `x̂·ĉ` over ascending `kk`, applies the epilogue
//! `max(‖x‖² − 2·x·c + ‖c‖², 0) + α·(1 − clamp(x̂·ĉ, −1, 1))` across the
//! lanes, and folds the result into a running per-lane `(best_d, best_j)`
//! with a strict `<` over ascending `j`. Nothing of size `[n, k]` is
//! written, and no cross-lane (horizontal) reduction is needed. Each lane's
//! dot is the chain `0 + x₀c₀ + x₁c₁ + …` that `raw::gemm_nt` computes per
//! output element, so distances and argmins are bitwise-equal to the
//! two-GEMM formulation this kernel replaced (kept as the test oracle).
//!
//! The kernel accumulates in `f32` where the scalar oracle
//! ([`Objective::distance`]) accumulates in `f64`, so distances agree with
//! the oracle to roundoff (~1e-5 relative), not bitwise; argmin assignments
//! agree whenever the best/second-best margin exceeds that roundoff, and exact
//! ties (duplicate prototypes) resolve identically, because both paths scan
//! prototypes in ascending index with a strict `<`. The same tile walk with
//! `f64` lanes is the k-means++ sweep ([`kpp_sweep`]), whose distances are
//! bitwise-equal to [`Objective::distance`].
//!
//! Work is split over `par` at tile boundaries and every row's arithmetic is
//! independent of the split, so results are identical at any thread count.

// The lane loops index several `[_; LANES]` arrays by one lane index, so
// each reads as the per-lane formula it computes.
#![allow(clippy::needless_range_loop)]

use crate::objective::Objective;
use focus_tensor::{par, stats, Tensor};

/// Rows per lane tile: one 512-bit vector of `f32`.
const LANES: usize = 16;

/// Centers per pass of the assignment kernel: enough independent
/// accumulation chains (centers × dots × vector halves) to keep the FP units
/// busy while each chain waits on its own adds.
const CENTERS_PER_PASS: usize = 4;

/// Minimum per-row preparation work (elements) per thread before the
/// [`SegmentStats`] passes go parallel.
const PREP_GRAIN: usize = 16 * 1024;

/// Minimum distance-evaluation work (~`rows × k × p` flops) per thread
/// before a sweep goes parallel.
const SWEEP_GRAIN_FLOPS: usize = 64 * 1024;

/// Rows (or tiles) per thread for a sweep costing `cost_per_row` flops per
/// row (or tile).
pub(crate) fn sweep_grain(cost_per_row: usize) -> usize {
    SWEEP_GRAIN_FLOPS.div_ceil(cost_per_row.max(1)).max(1)
}

/// Per-prototype data the kernel reads: raw centers, squared norms and
/// centred-normalised copies. [`crate::Prototypes`] builds it once per
/// prototype set; the fit rebuilds it once per iteration.
#[derive(Clone, Debug)]
pub(crate) struct CenterCache {
    k: usize,
    p: usize,
    /// Raw centers `[k, p]` (flat copy; the cache owns its layout).
    centers: Vec<f32>,
    /// `‖c_j‖²` per center, f64-accumulated.
    sq_norms: Vec<f32>,
    /// Centred-normalised centers `ĉ: [k, p]`; constant centers become zero
    /// rows so `x̂·ĉ = 0` reproduces the scalar convention `corr = 0`.
    /// Empty when `alpha == 0` (the correlation dot is skipped entirely).
    unit: Vec<f32>,
    /// Correlation weight of the objective.
    alpha: f32,
}

impl CenterCache {
    pub(crate) fn new(centers: &Tensor, objective: &Objective) -> CenterCache {
        assert_eq!(centers.rank(), 2, "centers must be [k, p]");
        let (k, p) = (centers.dims()[0], centers.dims()[1]);
        assert!(u32::try_from(k).is_ok(), "{k} prototypes exceed the kernel's u32 index lanes");
        let alpha = objective.alpha();
        let data = centers.data().to_vec();
        let sq_norms = (0..k).map(|j| sq_norm(&data[j * p..(j + 1) * p])).collect();
        let mut unit = Vec::new();
        if alpha > 0.0 {
            unit = vec![0.0f32; k * p];
            for j in 0..k {
                center_normalise(&data[j * p..(j + 1) * p], &mut unit[j * p..(j + 1) * p]);
            }
        }
        CenterCache {
            k,
            p,
            centers: data,
            sq_norms,
            unit,
            alpha,
        }
    }
}

/// `‖v‖²` with f64 accumulation (cast once, like the scalar kernels).
fn sq_norm(v: &[f32]) -> f32 {
    v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() as f32
}

/// The f64 moments of one row, accumulated in exactly the order
/// `stats::pearson` uses, so a distance built from cached moments is
/// bitwise-equal to [`Objective::distance`].
#[derive(Clone, Copy, Default)]
pub(crate) struct RowMoments {
    pub(crate) mean: f64,
    /// `‖x − mean‖ = sqrt(Σ (x − mean)²)`.
    pub(crate) norm: f64,
    /// Whether the row is (numerically) constant under the shared
    /// scale-aware [`stats::zero_variance`] floor; its correlation is 0.
    pub(crate) flat: bool,
}

impl RowMoments {
    pub(crate) fn of(v: &[f32]) -> RowMoments {
        let n = v.len() as f64;
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / n;
        let mut sxx = 0.0f64;
        let mut max_abs = 0.0f64;
        for &x in v {
            let d = x as f64 - mean;
            sxx += d * d;
            max_abs = max_abs.max((x as f64).abs());
        }
        RowMoments {
            mean,
            norm: sxx.sqrt(),
            flat: stats::zero_variance(sxx, v.len(), max_abs),
        }
    }
}

/// Writes `(v − mean) / ‖v − mean‖` into `out`; all-zero when `v` is
/// (numerically) constant, matching `stats::pearson`'s zero-variance
/// convention — the shared scale-aware [`stats::zero_variance`] floor, so a
/// constant row of large magnitude (whose mean-rounding residue leaves
/// `sxx` tiny but positive) normalises to zero instead of a noise-only
/// garbage unit vector. Statistics accumulate in f64 like the scalar path.
fn center_normalise(v: &[f32], out: &mut [f32]) {
    let m = RowMoments::of(v);
    let inv = 1.0 / m.norm;
    for (o, &x) in out.iter_mut().zip(v) {
        *o = if m.flat { 0.0 } else { ((x as f64 - m.mean) * inv) as f32 };
    }
}

/// [`center_normalise`] for every lane of `tile: [p, LANES]` at once, from
/// the tile's moments.
fn write_unit_lanes(tile: &[f32], m: &LaneMoments, out: &mut [f32]) {
    let mut inv = [0.0f64; LANES];
    for l in 0..LANES {
        inv[l] = 1.0 / m.norm[l];
    }
    for (o, x) in out.as_chunks_mut::<LANES>().0.iter_mut().zip(tile.as_chunks::<LANES>().0) {
        for l in 0..LANES {
            o[l] = if m.flat[l] { 0.0 } else { ((x[l] as f64 - m.mean[l]) * inv[l]) as f32 };
        }
    }
}

/// The f64 moments of the `LANES` rows of one tile, each lane computed in
/// exactly the order [`RowMoments::of`] uses (so bitwise-equal to it), all
/// lanes at once.
#[derive(Clone, Copy)]
struct LaneMoments {
    mean: [f64; LANES],
    norm: [f64; LANES],
    flat: [bool; LANES],
}

impl Default for LaneMoments {
    fn default() -> LaneMoments {
        LaneMoments {
            mean: [0.0; LANES],
            norm: [0.0; LANES],
            flat: [true; LANES],
        }
    }
}

impl LaneMoments {
    /// Moments of every lane of `tile: [p, LANES]`.
    fn of(tile: &[f32]) -> LaneMoments {
        let xs = tile.as_chunks::<LANES>().0;
        let n = xs.len();
        // `Iterator::sum` of f64 starts from -0.0; so does this.
        let mut mean = [-0.0f64; LANES];
        for x in xs {
            for l in 0..LANES {
                mean[l] += x[l] as f64;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut sxx = [0.0f64; LANES];
        let mut max_abs = [0.0f64; LANES];
        for x in xs {
            for l in 0..LANES {
                let d = x[l] as f64 - mean[l];
                sxx[l] += d * d;
                max_abs[l] = max_abs[l].max((x[l] as f64).abs());
            }
        }
        let mut m = LaneMoments {
            mean,
            ..LaneMoments::default()
        };
        for l in 0..LANES {
            m.norm[l] = sxx[l].sqrt();
            m.flat[l] = stats::zero_variance(sxx[l], n, max_abs[l]);
        }
        m
    }
}

/// Per-segment data that never changes during a fit, computed once: the
/// rows in lane tiles, `‖x‖²`, and — when the objective has a correlation
/// term — the f64 moments and the centred-normalised rows `x̂` (also in lane
/// tiles). The assignment sweeps, the k-means++ distances and the prototype
/// update all read it instead of recomputing it per iteration. Per-row
/// arrays are padded to whole tiles; padding lanes are computed and
/// discarded, never written out.
pub(crate) struct SegmentStats<'a> {
    /// The segments themselves, `[n, p]`.
    pub(crate) segments: &'a Tensor,
    n: usize,
    p: usize,
    /// Raw rows in lane tiles, `[tiles, p, LANES]`; padding lanes zero.
    rows: Vec<f32>,
    /// `‖x_i‖²`, f64-accumulated.
    sq_norms: Vec<f32>,
    /// Per-tile row moments (padding lanes are flat); empty when
    /// `alpha == 0`.
    moments: Vec<LaneMoments>,
    /// `x̂` in lane tiles like `rows`, constant rows zero; empty when
    /// `alpha == 0`.
    unit: Vec<f32>,
    /// Correlation weight of the objective.
    alpha: f32,
}

impl<'a> SegmentStats<'a> {
    pub(crate) fn new(segments: &'a Tensor, objective: &Objective) -> SegmentStats<'a> {
        assert_eq!(segments.rank(), 2, "segments must be [n, p]");
        let (n, p) = (segments.dims()[0], segments.dims()[1]);
        let data = segments.data();
        let tiles = n.div_ceil(LANES);
        let tile_len = p * LANES;
        let alpha = objective.alpha();
        let mut stats = SegmentStats {
            segments,
            n,
            p,
            rows: vec![0.0; tiles * tile_len],
            sq_norms: vec![0.0; tiles * LANES],
            moments: Vec::new(),
            unit: Vec::new(),
            alpha,
        };
        if p == 0 {
            return stats;
        }
        // Every tile is independent, so any partition is bitwise-identical.
        let grain = PREP_GRAIN.div_ceil(tile_len).max(1);
        par::parallel_rows2(&mut stats.rows, tile_len, &mut stats.sq_norms, LANES, grain, 1, |t0, rows, sq| {
            let tiles = rows.chunks_exact_mut(tile_len).zip(sq.as_chunks_mut::<LANES>().0);
            for (t, (tile, sq)) in (t0..).zip(tiles) {
                let first = t * LANES;
                for (lane, row) in data[first * p..n.min(first + LANES) * p].chunks_exact(p).enumerate() {
                    for (kk, &v) in row.iter().enumerate() {
                        tile[kk * LANES + lane] = v;
                    }
                }
                // `‖x‖²` per lane, in `sq_norm`'s order.
                let mut acc = [-0.0f64; LANES];
                for x in tile.as_chunks::<LANES>().0 {
                    for l in 0..LANES {
                        acc[l] += (x[l] as f64) * (x[l] as f64);
                    }
                }
                for l in 0..LANES {
                    sq[l] = acc[l] as f32;
                }
            }
        });
        if alpha > 0.0 {
            let mut unit = vec![0.0f32; stats.rows.len()];
            let mut moments = vec![LaneMoments::default(); tiles];
            let rows = &stats.rows;
            par::parallel_rows2(&mut unit, tile_len, &mut moments, 1, grain, 1, |t0, unit, moments| {
                for (t, (out, m)) in (t0..).zip(unit.chunks_exact_mut(tile_len).zip(moments)) {
                    let tile = &rows[t * tile_len..(t + 1) * tile_len];
                    *m = LaneMoments::of(tile);
                    write_unit_lanes(tile, m, out);
                }
            });
            stats.moments = moments;
            stats.unit = unit;
        }
        stats
    }

    /// Tile `t` of the raw rows, `[p, LANES]`.
    #[inline(always)]
    fn tile(&self, t: usize) -> &[f32] {
        &self.rows[t * self.p * LANES..(t + 1) * self.p * LANES]
    }

    /// Tile `t` of `x̂`, `[p, LANES]` (correlation objectives only).
    #[inline(always)]
    fn unit_tile(&self, t: usize) -> &[f32] {
        &self.unit[t * self.p * LANES..(t + 1) * self.p * LANES]
    }

    /// Adds every row `x_i` into `sums[a_i]` and, when `unit_sums` is
    /// given (correlation objectives only), `x̂_i` into `unit_sums[a_i]`,
    /// both `[k, p]` with `a_i = assignment[i]`. Each bucket element
    /// accumulates its members in ascending `i`, in f64.
    pub(crate) fn add_to_buckets(&self, assignment: &[usize], sums: &mut [f64], mut unit_sums: Option<&mut [f64]>) {
        assert_eq!(assignment.len(), self.n, "assignment covers {} of {} segments", assignment.len(), self.n);
        let p = self.p;
        for (t, members) in assignment.chunks(LANES).enumerate() {
            let rows = self.tile(t).as_chunks::<LANES>().0;
            for (lane, &a) in members.iter().enumerate() {
                for (s, x) in sums[a * p..(a + 1) * p].iter_mut().zip(rows) {
                    *s += x[lane] as f64;
                }
                if let Some(unit_sums) = unit_sums.as_deref_mut() {
                    let unit = self.unit_tile(t).as_chunks::<LANES>().0;
                    for (s, x) in unit_sums[a * p..(a + 1) * p].iter_mut().zip(unit) {
                        *s += x[lane] as f64;
                    }
                }
            }
        }
    }

    /// Row count rounded up to whole tiles: the length of the per-row
    /// buffers the kernels fill.
    pub(crate) fn padded_rows(&self) -> usize {
        self.sq_norms.len()
    }

    /// Asserts that `cache` describes prototypes this cache can be swept
    /// against.
    fn check(&self, cache: &CenterCache) {
        assert_eq!(self.p, cache.p, "segment width {} != prototype width {}", self.p, cache.p);
        assert!(
            cache.alpha <= 0.0 || self.unit.len() == self.rows.len(),
            "segment stats lack x̂ for a correlation objective"
        );
    }

    /// Lane-wise composite distances from the rows of tile `t` to the `C`
    /// centers `j0..j0 + C`, exactly as the two-GEMM sweep computed them.
    #[inline(always)]
    fn lane_distances<const CORR: bool, const C: usize>(
        &self,
        cache: &CenterCache,
        t: usize,
        j0: usize,
    ) -> [[f32; LANES]; C] {
        let p = self.p;
        let dots = lane_dots::<C>(self.tile(t), &cache.centers[j0 * p..(j0 + C) * p]);
        let corr = if CORR {
            lane_dots::<C>(self.unit_tile(t), &cache.unit[j0 * p..(j0 + C) * p])
        } else {
            [[0.0; LANES]; C]
        };
        let x2: &[f32; LANES] =
            self.sq_norms[t * LANES..(t + 1) * LANES].try_into().expect("per-row arrays are padded to whole tiles");
        let mut d = [[0.0f32; LANES]; C];
        for c in 0..C {
            let c2 = cache.sq_norms[j0 + c];
            for l in 0..LANES {
                d[c][l] = (x2[l] - 2.0 * dots[c][l] + c2).max(0.0);
                if CORR {
                    d[c][l] += cache.alpha * (1.0 - corr[c][l].clamp(-1.0, 1.0));
                }
            }
        }
        d
    }

    /// Lane-wise composite distances from the rows of tile `t` to `center`
    /// in f64 lanes, bitwise-equal to [`Objective::distance`]. `dev` holds
    /// `c_kk − mean(c)` and `cm` the center's moments (both unused without
    /// `CORR`): `‖x − c‖²` and `sxy` accumulate in the order
    /// `stats::sq_euclidean` and `stats::pearson` use.
    #[inline(always)]
    fn kpp_lanes<const CORR: bool>(&self, t: usize, center: &[f32], dev: &[f64], cm: &RowMoments) -> [f32; LANES] {
        let mut rec = [0.0f64; LANES];
        let mut sxy = [0.0f64; LANES];
        for (xs, &b) in self.tile(t).as_chunks::<LANES>().0.iter().zip(center) {
            for l in 0..LANES {
                let d = (xs[l] - b) as f64;
                rec[l] += d * d;
            }
        }
        let mut out = [0.0f32; LANES];
        if !CORR {
            for l in 0..LANES {
                out[l] = rec[l] as f32;
            }
            return out;
        }
        let m = &self.moments[t];
        for (xs, &dv) in self.tile(t).as_chunks::<LANES>().0.iter().zip(dev) {
            for l in 0..LANES {
                sxy[l] += (xs[l] as f64 - m.mean[l]) * dv;
            }
        }
        for l in 0..LANES {
            let r = if m.flat[l] || cm.flat {
                0.0
            } else {
                (sxy[l] / (m.norm[l] * cm.norm)).clamp(-1.0, 1.0) as f32
            };
            out[l] = rec[l] as f32 + self.alpha * (1.0 - r);
        }
        out
    }

    /// The composite distance (Eq. 6) from segment `i` to `center`, whose
    /// moments `cm` the caller computed once (`None` when `alpha == 0`),
    /// one row at a time: the per-row form [`kpp_sweep`]'s lanes are tested
    /// against.
    #[cfg(test)]
    pub(crate) fn distance(&self, i: usize, center: &[f32], cm: Option<&RowMoments>) -> f32 {
        let x = self.segments.row(i);
        let Some(cm) = cm else {
            return stats::sq_euclidean(x, center);
        };
        let (alpha, xm, l) = (self.alpha, &self.moments[i / LANES], i % LANES);
        let mut rec = 0.0f64;
        let mut sxy = 0.0f64;
        for (&a, &b) in x.iter().zip(center) {
            let d = (a - b) as f64;
            rec += d * d;
            sxy += (a as f64 - xm.mean[l]) * (b as f64 - cm.mean);
        }
        let r = if xm.flat[l] || cm.flat {
            0.0
        } else {
            (sxy / (xm.norm[l] * cm.norm)).clamp(-1.0, 1.0) as f32
        };
        rec as f32 + alpha * (1.0 - r)
    }

    /// The moments [`SegmentStats::distance`] needs of a center: `None`
    /// when the objective has no correlation term.
    #[cfg(test)]
    pub(crate) fn center_moments(&self, center: &[f32]) -> Option<RowMoments> {
        (self.alpha > 0.0).then(|| RowMoments::of(center))
    }
}

/// Per-lane `Σ_kk tile[kk·LANES + lane] · c[kk]` for each of the `C`
/// centers in `centers: [C, p]`, accumulated from zero in ascending `kk` —
/// per lane exactly the chain `raw::gemm_nt` computes for one output
/// element.
#[inline(always)]
fn lane_dots<const C: usize>(tile: &[f32], centers: &[f32]) -> [[f32; LANES]; C] {
    let p = centers.len() / C;
    let mut acc = [[0.0f32; LANES]; C];
    for (kk, xs) in tile.as_chunks::<LANES>().0.iter().enumerate() {
        for c in 0..C {
            let cv = centers[c * p + kk];
            for l in 0..LANES {
                acc[c][l] += xs[l] * cv;
            }
        }
    }
    acc
}

/// The full `[n, k]` composite distance matrix, one lane tile of rows at a
/// time.
pub(crate) fn distance_matrix(seg: &SegmentStats, cache: &CenterCache) -> Tensor {
    seg.check(cache);
    let k = cache.k;
    let mut out = Tensor::zeros(&[seg.n, k]);
    if k == 0 {
        return out;
    }
    let corr = cache.alpha > 0.0;
    par::parallel_rows(out.data_mut(), k, sweep_grain(k * seg.p), LANES, |r0, block| {
        // One tile's distances, center-major, transposed into the rows.
        let mut tile = vec![0.0f32; k * LANES];
        for (t, rows) in (r0 / LANES..).zip(block.chunks_mut(LANES * k)) {
            if corr {
                distance_tile::<true>(seg, cache, t, &mut tile);
            } else {
                distance_tile::<false>(seg, cache, t, &mut tile);
            }
            for (l, row) in rows.chunks_exact_mut(k).enumerate() {
                for (j, o) in row.iter_mut().enumerate() {
                    *o = tile[j * LANES + l];
                }
            }
        }
    });
    out
}

/// The distances of tile `t` to every center, center-major: `out[j·LANES + lane]`.
#[inline(always)]
fn distance_tile<const CORR: bool>(seg: &SegmentStats, cache: &CenterCache, t: usize, out: &mut [f32]) {
    let (groups, rest) = out.as_chunks_mut::<LANES>().0.split_at_mut(cache.k / CENTERS_PER_PASS * CENTERS_PER_PASS);
    for (g, group) in groups.as_chunks_mut::<CENTERS_PER_PASS>().0.iter_mut().enumerate() {
        *group = seg.lane_distances::<CORR, CENTERS_PER_PASS>(cache, t, g * CENTERS_PER_PASS);
    }
    let full = groups.len();
    for (j, o) in (full..).zip(rest) {
        [*o] = seg.lane_distances::<CORR, 1>(cache, t, j);
    }
}

/// Nearest center of every cached segment: `idx[i] = argmin_j d_ij` and
/// `dist[i] = min_j d_ij`, with the lowest-index tie-break (strict `<` over
/// ascending `j`, exactly like the scalar oracle). A row whose every
/// distance is NaN keeps `(0, +inf)`. Both outputs hold
/// [`SegmentStats::padded_rows`] entries; those past the last segment are
/// scratch.
pub(crate) fn assign_nearest(seg: &SegmentStats, cache: &CenterCache, idx: &mut [u32], dist: &mut [f32]) {
    focus_trace::span!("cluster/assign");
    focus_trace::counter_add("cluster/segments_assigned", seg.n as u64);
    let padded = seg.padded_rows();
    assert!(
        idx.len() == padded && dist.len() == padded,
        "outputs hold {} and {} entries, not the {padded} padded rows",
        idx.len(),
        dist.len()
    );
    seg.check(cache);
    let corr = cache.alpha > 0.0;
    let cost = LANES * cache.k * seg.p * if corr { 2 } else { 1 };
    par::parallel_rows2(idx, LANES, dist, LANES, sweep_grain(cost), 1, |t0, idx, dist| {
        let tiles = idx.as_chunks_mut::<LANES>().0.iter_mut().zip(dist.as_chunks_mut::<LANES>().0);
        for (t, (idx, dist)) in (t0..).zip(tiles) {
            if corr {
                nearest_tile::<true>(seg, cache, t, idx, dist);
            } else {
                nearest_tile::<false>(seg, cache, t, idx, dist);
            }
        }
    });
}

/// [`assign_nearest`] for the rows of tile `t`: a running per-lane
/// `(best_d, best_j)`. The results go out as two whole-tile arrays, which
/// also keeps the per-lane state in vector registers. The center walk is
/// spelled out here and in [`distance_tile`]: a shared walker taking a
/// closure compiled to split, partly scalar lanes and ran about 25% slower
/// at p = 8.
#[inline(always)]
fn nearest_tile<const CORR: bool>(
    seg: &SegmentStats,
    cache: &CenterCache,
    t: usize,
    idx: &mut [u32; LANES],
    dist: &mut [f32; LANES],
) {
    let mut best_d = [f32::INFINITY; LANES];
    let mut best_j = [0u32; LANES];
    let full = cache.k / CENTERS_PER_PASS * CENTERS_PER_PASS;
    for j0 in (0..full).step_by(CENTERS_PER_PASS) {
        let d = seg.lane_distances::<CORR, CENTERS_PER_PASS>(cache, t, j0);
        for (c, d) in d.iter().enumerate() {
            fold_nearest(&mut best_d, &mut best_j, j0 + c, d);
        }
    }
    for j in full..cache.k {
        let [d] = seg.lane_distances::<CORR, 1>(cache, t, j);
        fold_nearest(&mut best_d, &mut best_j, j, &d);
    }
    *idx = best_j;
    *dist = best_d;
}

/// Folds center `j`'s lane distances into the running per-lane minimum
/// (strict `<`, so ties and NaNs keep the earlier center).
#[inline(always)]
fn fold_nearest(best_d: &mut [f32; LANES], best_j: &mut [u32; LANES], j: usize, d: &[f32; LANES]) {
    // `k` fits in u32 (checked by `CenterCache::new`).
    let j = j as u32;
    for l in 0..LANES {
        let better = d[l] < best_d[l];
        best_d[l] = if better { d[l] } else { best_d[l] };
        best_j[l] = if better { j } else { best_j[l] };
    }
}

/// One k-means++ distance sweep against `center`: `dists[i] = d(x_i, c)`
/// when `first`, otherwise `dists[i]` is lowered to `d(x_i, c)` where that
/// is strictly smaller. Every distance is bitwise-equal to
/// [`Objective::distance`]; the center's moments are computed once per
/// sweep and every segment's come from the cache. `dists` holds
/// [`SegmentStats::padded_rows`] entries; those past the last segment are
/// scratch.
pub(crate) fn kpp_sweep(seg: &SegmentStats, center: &[f32], first: bool, dists: &mut [f32]) {
    let padded = seg.padded_rows();
    assert_eq!(dists.len(), padded, "distance buffer holds {} entries, not the {padded} padded rows", dists.len());
    assert_eq!(center.len(), seg.p, "center width {} != segment width {}", center.len(), seg.p);
    let corr = seg.alpha > 0.0;
    let cm = if corr { RowMoments::of(center) } else { RowMoments::default() };
    // `c_kk − mean(c)`: the center's side of every lane's `sxy` chain.
    let dev: Vec<f64> = if corr { center.iter().map(|&b| b as f64 - cm.mean).collect() } else { Vec::new() };
    let cost = LANES * seg.p * if corr { 2 } else { 1 };
    par::parallel_rows(dists, LANES, sweep_grain(cost), 1, |t0, chunk| {
        for (t, out) in (t0..).zip(chunk.as_chunks_mut::<LANES>().0) {
            let nd = if corr {
                seg.kpp_lanes::<true>(t, center, &dev, &cm)
            } else {
                seg.kpp_lanes::<false>(t, center, &dev, &cm)
            };
            for l in 0..LANES {
                if first || nd[l] < out[l] {
                    out[l] = nd[l];
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::raw;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_case(n: usize, k: usize, p: usize, alpha: f32, seed: u64) -> (Tensor, Tensor, Objective) {
        let mut rng = StdRng::seed_from_u64(seed);
        let segs = Tensor::randn(&[n, p], 1.3, &mut rng);
        let centers = Tensor::randn(&[k, p], 1.0, &mut rng);
        (segs, centers, objective(alpha))
    }

    fn objective(alpha: f32) -> Objective {
        if alpha > 0.0 {
            Objective::rec_corr(alpha)
        } else {
            Objective::RecOnly
        }
    }

    /// The two-GEMM formulation the lane kernel replaced, kept as its
    /// oracle: `‖x‖²` and row-major `x̂` per row, two `raw::gemm_nt`
    /// products, the epilogue over the `[n, k]` matrix, then a strict-`<`
    /// ascending argmin per row. Returns the distance matrix and the
    /// `(index, distance)` per row.
    fn two_gemm(segs: &Tensor, cache: &CenterCache) -> (Vec<f32>, Vec<(usize, f32)>) {
        let (n, p, k) = (segs.dims()[0], segs.dims()[1], cache.k);
        let corr = cache.alpha > 0.0;
        let mut dist = vec![0.0f32; n * k];
        raw::gemm_nt(n, p, k, segs.data(), &cache.centers, &mut dist);
        let mut dots = vec![0.0f32; n * k];
        if corr {
            let mut unit = vec![0.0f32; n * p];
            for i in 0..n {
                center_normalise(segs.row(i), &mut unit[i * p..(i + 1) * p]);
            }
            raw::gemm_nt(n, p, k, &unit, &cache.unit, &mut dots);
        }
        let mut nearest = vec![(0usize, f32::INFINITY); n];
        for (i, best) in nearest.iter_mut().enumerate() {
            let x2 = sq_norm(segs.row(i));
            for j in 0..k {
                let v = &mut dist[i * k + j];
                let rec = (x2 - 2.0 * *v + cache.sq_norms[j]).max(0.0);
                *v = if corr {
                    rec + cache.alpha * (1.0 - dots[i * k + j].clamp(-1.0, 1.0))
                } else {
                    rec
                };
                if *v < best.1 {
                    *best = (j, *v);
                }
            }
        }
        (dist, nearest)
    }

    /// The lane kernel's `(index, distance)` per row.
    fn lane_nearest(segs: &Tensor, cache: &CenterCache, obj: &Objective) -> Vec<(usize, f32)> {
        let seg = SegmentStats::new(segs, obj);
        let (mut idx, mut dist) = (vec![0u32; seg.padded_rows()], vec![0.0f32; seg.padded_rows()]);
        assign_nearest(&seg, cache, &mut idx, &mut dist);
        idx.iter().zip(&dist).take(seg.n).map(|(&j, &d)| (j as usize, d)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn nearest_bits(v: &[(usize, f32)]) -> Vec<(usize, u32)> {
        v.iter().map(|&(j, d)| (j, d.to_bits())).collect()
    }

    /// Asserts that the lane kernel (assignment and distance matrix)
    /// reproduces the two-GEMM oracle bit for bit on `segs` × `centers`.
    fn assert_matches_two_gemm(segs: &Tensor, centers: &Tensor, obj: &Objective, what: &str) {
        let cache = CenterCache::new(centers, obj);
        let (dist, nearest) = two_gemm(segs, &cache);
        assert_eq!(nearest_bits(&lane_nearest(segs, &cache, obj)), nearest_bits(&nearest), "{what}: nearest");
        let matrix = distance_matrix(&SegmentStats::new(segs, obj), &cache);
        assert_eq!(bits(matrix.data()), bits(&dist), "{what}: distance matrix");
    }

    #[test]
    fn lane_kernel_is_bitwise_equal_to_two_gemm_oracle() {
        // Tile edges (n = 1, 15, 16, 17, 4097), center counts on and off the
        // centers-per-pass grouping, and widths from one element up.
        let mut seed = 0u64;
        for n in [1usize, 15, 16, 17, 4097] {
            for k in [1usize, 3, 8, 10, 32, 64] {
                for p in [1usize, 8, 16, 32] {
                    for alpha in [0.0f32, 0.2, 1.5] {
                        seed += 1;
                        let (segs, centers, obj) = random_case(n, k, p, alpha, seed);
                        assert_matches_two_gemm(&segs, &centers, &obj, &format!("n={n} k={k} p={p} α={alpha}"));
                    }
                }
            }
        }
    }

    #[test]
    fn lane_kernel_matches_two_gemm_on_edge_rows() {
        let p = 8;
        let mut rng = StdRng::seed_from_u64(40);
        let mut segs = Tensor::randn(&[21, p], 1.0, &mut rng);
        let rows: [Vec<f32>; 6] = [
            vec![2.5; p],                                              // constant
            vec![1.0e8; p],                                            // large-magnitude constant
            (0..p).map(|i| 1.0e8 + 8.0 * i as f32).collect(),          // large magnitude, varying
            vec![-0.0; p],                                             // negative zeros
            (0..p).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect(), // mixed-sign zeros
            vec![0.0; p],                                              // zero row
        ];
        for (i, row) in rows.iter().enumerate() {
            segs.data_mut()[i * p..(i + 1) * p].copy_from_slice(row);
        }
        let mut centers = Tensor::randn(&[6, p], 1.0, &mut rng);
        centers.data_mut()[..p].fill(-0.0);
        centers.data_mut()[p..2 * p].fill(1.0e8);
        centers.data_mut()[2 * p..3 * p].fill(2.5);
        for alpha in [0.0f32, 0.2, 1.5] {
            assert_matches_two_gemm(&segs, &centers, &objective(alpha), &format!("edge rows, α={alpha}"));
        }
    }

    #[test]
    fn nan_rows_keep_the_oracle_result() {
        let p = 6;
        let mut rng = StdRng::seed_from_u64(41);
        let mut segs = Tensor::randn(&[18, p], 1.0, &mut rng);
        segs.data_mut()[3 * p + 2] = f32::NAN;
        segs.data_mut()[17 * p..18 * p].fill(f32::NAN);
        let centers = Tensor::randn(&[5, p], 1.0, &mut rng);
        for alpha in [0.0f32, 0.2] {
            let obj = objective(alpha);
            assert_matches_two_gemm(&segs, &centers, &obj, &format!("NaN rows, α={alpha}"));
        }
        // With a correlation term every distance of a NaN row is NaN, so no
        // center ever wins the strict `<`: the row keeps `(0, +inf)`.
        let obj = Objective::rec_corr(0.2);
        let nearest = lane_nearest(&segs, &CenterCache::new(&centers, &obj), &obj);
        for i in [3, 17] {
            assert_eq!(nearest[i].0, 0, "NaN row {i}");
            assert_eq!(nearest[i].1, f32::INFINITY, "NaN row {i}");
        }
    }

    #[test]
    fn lane_moments_are_bitwise_equal_to_row_moments() {
        let p = 7;
        let mut rng = StdRng::seed_from_u64(42);
        let mut segs = Tensor::randn(&[19, p], 3.0, &mut rng);
        segs.data_mut()[..p].fill(-0.0);
        segs.data_mut()[p..2 * p].fill(1.0e8);
        segs.data_mut()[2 * p..3 * p].fill(-4.25);
        segs.data_mut()[3 * p + 1] = f32::NAN;
        let seg = SegmentStats::new(&segs, &Objective::rec_corr(0.2));
        for i in 0..19 {
            let want = RowMoments::of(segs.row(i));
            let (m, l) = (&seg.moments[i / LANES], i % LANES);
            assert_eq!(m.mean[l].to_bits(), want.mean.to_bits(), "mean of row {i}");
            assert_eq!(m.norm[l].to_bits(), want.norm.to_bits(), "norm of row {i}");
            assert_eq!(m.flat[l], want.flat, "flat of row {i}");
            assert_eq!(seg.sq_norms[i].to_bits(), sq_norm(segs.row(i)).to_bits(), "‖x‖² of row {i}");
            let mut unit = vec![0.0f32; p];
            center_normalise(segs.row(i), &mut unit);
            let (tile, l) = (seg.unit_tile(i / LANES), i % LANES);
            let lane: Vec<f32> = (0..p).map(|kk| tile[kk * LANES + l]).collect();
            assert_eq!(bits(&lane), bits(&unit), "x̂ of row {i}");
        }
        // Padding lanes are flat, so they can never feed a correlation.
        assert!(seg.moments[1].flat[19 - LANES..].iter().all(|&f| f));
    }

    #[test]
    fn kpp_sweep_is_bitwise_equal_to_per_row_distances() {
        let p = 8;
        let mut rng = StdRng::seed_from_u64(43);
        let mut segs = Tensor::randn(&[37, p], 2.0, &mut rng);
        segs.data_mut()[..p].fill(1.0e8);
        segs.data_mut()[p..2 * p].fill(-0.75);
        segs.data_mut()[2 * p..3 * p].fill(-0.0);
        let mut centers = Tensor::randn(&[3, p], 1.0, &mut rng);
        centers.data_mut()[..p].fill(0.5);
        for obj in [Objective::RecOnly, Objective::rec_corr(0.2), Objective::rec_corr(3.0)] {
            let seg = SegmentStats::new(&segs, &obj);
            let mut lanes = vec![0.0f32; seg.padded_rows()];
            let mut rows = vec![f32::INFINITY; 37];
            for j in 0..3 {
                let center = centers.row(j);
                kpp_sweep(&seg, center, j == 0, &mut lanes);
                let cm = seg.center_moments(center);
                for (i, d) in rows.iter_mut().enumerate() {
                    let nd = seg.distance(i, center, cm.as_ref());
                    assert_eq!(nd.to_bits(), obj.distance(segs.row(i), center).to_bits(), "{obj:?} d({i}, {j})");
                    if j == 0 || nd < *d {
                        *d = nd;
                    }
                }
                assert_eq!(bits(&lanes[..37]), bits(&rows), "{obj:?} after center {j}");
            }
        }
    }

    #[test]
    fn distance_matrix_matches_scalar_oracle() {
        for &(n, k, p, alpha, seed) in &[
            (7usize, 3usize, 5usize, 0.0f32, 1u64),
            (64, 8, 16, 0.2, 2),
            (130, 5, 32, 1.0, 3),
        ] {
            let (segs, centers, obj) = random_case(n, k, p, alpha, seed);
            let cache = CenterCache::new(&centers, &obj);
            let d = distance_matrix(&SegmentStats::new(&segs, &obj), &cache);
            for i in 0..n {
                for j in 0..k {
                    let scalar = obj.distance(segs.row(i), centers.row(j));
                    let lane = d.at2(i, j);
                    let tol = 1e-4 * scalar.abs().max(1.0);
                    assert!(
                        (lane - scalar).abs() <= tol,
                        "({n},{k},{p},{alpha}) d[{i},{j}]: kernel {lane} vs scalar {scalar}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_rows_follow_zero_variance_convention() {
        // A flat segment against a flat center: rec = 0, corr defined as 0.
        let segs = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0], &[1, 4]);
        let centers = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0, 0.0, 1.0, 2.0, 3.0], &[2, 4]);
        let obj = Objective::rec_corr(0.5);
        let cache = CenterCache::new(&centers, &obj);
        let d = distance_matrix(&SegmentStats::new(&segs, &obj), &cache);
        assert!((d.at2(0, 0) - 0.5).abs() < 1e-6, "flat-vs-flat must cost α·(1−0)");
        let scalar = obj.distance(segs.row(0), centers.row(1));
        assert!((d.at2(0, 1) - scalar).abs() < 1e-4 * scalar.max(1.0));
    }

    #[test]
    fn large_magnitude_constant_rows_normalise_to_zero() {
        // A constant row at |v| ≈ 1e8: the f64 mean rounds, leaving residuals
        // of order ε₆₄·|v| whose sum of squares exceeded the old absolute
        // f64::EPSILON guard — the row then normalised to a noise-only
        // garbage "unit" vector. The scale-aware floor must zero it.
        let v = vec![1.0e8f32; 6];
        let mut out = vec![9.0f32; 6];
        center_normalise(&v, &mut out);
        assert_eq!(out, vec![0.0; 6], "constant row must normalise to all-zero");

        // One real f32 step at the same magnitude is signal, not noise: the
        // result must be a genuine unit vector.
        let step = f32::from_bits(1.0e8f32.to_bits() + 1);
        let w = [1.0e8, step, 1.0e8, step, 1.0e8, step];
        let mut unit = vec![0.0f32; 6];
        center_normalise(&w, &mut unit);
        let norm: f64 = unit.iter().map(|&x| (x as f64) * (x as f64)).sum();
        assert!((norm - 1.0).abs() < 1e-3, "stepped row must normalise to unit, norm² = {norm}");
    }

    #[test]
    fn large_magnitude_constant_rows_keep_distances_finite() {
        // End-to-end: the corr GEMM on guarded rows can never produce
        // NaN/inf, whatever the rec-term f32 cancellation does.
        let segs = Tensor::from_vec(vec![1.0e8; 6], &[1, 6]);
        let centers = Tensor::from_vec(
            vec![1.0e8, 1.0e8, 1.0e8, 1.0e8, 1.0e8, 1.0e8, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            &[2, 6],
        );
        let obj = Objective::rec_corr(0.5);
        let cache = CenterCache::new(&centers, &obj);
        let d = distance_matrix(&SegmentStats::new(&segs, &obj), &cache);
        for j in 0..2 {
            assert!(d.at2(0, j).is_finite(), "d[0,{j}] must be finite, got {}", d.at2(0, j));
        }
        // The flat-vs-flat corr contribution is exactly α·(1−0); only the
        // rec term carries f32 cancellation noise, which is bounded by the
        // accumulated rounding of the ‖x‖²-scale dot products.
        let rec_noise = 6.0 * f32::EPSILON * 2.0 * 6.0e16;
        assert!(
            (d.at2(0, 0) - 0.5).abs() <= rec_noise,
            "flat-vs-flat: {} should be α + rec-cancellation noise",
            d.at2(0, 0)
        );
    }

    #[test]
    fn exact_ties_resolve_to_lowest_index() {
        // Duplicate centers produce bit-identical distance columns in both
        // paths; the strict-< scan must pick the first.
        let mut rng = StdRng::seed_from_u64(9);
        let segs = Tensor::randn(&[40, 8], 1.0, &mut rng);
        let c = Tensor::randn(&[1, 8], 1.0, &mut rng);
        for obj in [Objective::RecOnly, Objective::rec_corr(0.2)] {
            // Five copies: one pass of four plus a single remainder center.
            let centers = Tensor::from_vec(c.data().repeat(5), &[5, 8]);
            let out = lane_nearest(&segs, &CenterCache::new(&centers, &obj), &obj);
            for (i, &(j, _)) in out.iter().enumerate() {
                assert_eq!(j, 0, "{obj:?}: segment {i} must tie-break to the lowest index");
            }
        }
    }

    #[test]
    fn lane_kernels_are_thread_count_invariant() {
        // `set_threads` is process-global: serialise against any other test
        // in this binary that sweeps the override. 257 rows: the last tile
        // is partial and the blocks split at tile boundaries.
        let _g = par::threads_guard();
        let (segs, centers, obj) = random_case(257, 6, 16, 0.2, 11);
        let cache = CenterCache::new(&centers, &obj);
        let run = || {
            let seg = SegmentStats::new(&segs, &obj);
            let mut kpp = vec![0.0f32; seg.padded_rows()];
            kpp_sweep(&seg, centers.row(0), true, &mut kpp);
            kpp_sweep(&seg, centers.row(1), false, &mut kpp);
            let matrix = distance_matrix(&seg, &cache);
            (nearest_bits(&lane_nearest(&segs, &cache, &obj)), bits(matrix.data()), bits(&kpp[..257]))
        };
        par::set_threads(1);
        let serial = run();
        for threads in [2, 4] {
            par::set_threads(threads);
            assert_eq!(run(), serial, "{threads} threads");
        }
        par::set_threads(0);
    }
}
