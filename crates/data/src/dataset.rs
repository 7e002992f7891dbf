//! Dataset container: splits, train-statistics normalisation and supervised
//! windowing.

use crate::spec::DatasetSpec;
use crate::synth;
use focus_tensor::{stats, Tensor};

/// Which portion of the series a window is drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// The leading train portion.
    Train,
    /// The validation portion.
    Val,
    /// The trailing test portion.
    Test,
}

/// A supervised forecasting sample: lookback `x: [N, L]` and target
/// `y: [N, L_f]`.
#[derive(Clone, Debug)]
pub struct Window {
    /// Historical input, `[entities, lookback]`.
    pub x: Tensor,
    /// Future target, `[entities, horizon]`.
    pub y: Tensor,
    /// Start index of the lookback in the full series.
    pub start: usize,
}

/// A generated multivariate series with its normalisation state.
///
/// Normalisation follows the paper (§VIII-A): z-score per entity using
/// statistics **from the training split only**, applied to the whole series.
pub struct MtsDataset {
    spec: DatasetSpec,
    /// Normalised data, `[entities, len]`.
    data: Tensor,
    /// Per-entity `(mean, std)` computed on the train split.
    train_stats: Vec<(f32, f32)>,
}

impl MtsDataset {
    /// Generates and normalises a dataset for `spec` with the given seed.
    pub fn generate(spec: DatasetSpec, seed: u64) -> Self {
        let raw = synth::generate(&spec, seed);
        Self::from_raw(spec, raw)
    }

    /// Wraps an existing raw `[entities, len]` series (e.g. a perturbed copy
    /// from [`crate::outliers`]), normalising with train-split statistics.
    ///
    /// # Panics
    /// If `raw`'s shape does not match `spec`.
    pub fn from_raw(spec: DatasetSpec, raw: Tensor) -> Self {
        assert_eq!(
            raw.dims(),
            &[spec.entities, spec.len],
            "raw data shape {:?} does not match spec [{}, {}]",
            raw.dims(),
            spec.entities,
            spec.len
        );
        let (train_range, _, _) = spec.split_points();
        let mut data = raw;
        let len = spec.len;
        let mut train_stats = Vec::with_capacity(spec.entities);
        for e in 0..spec.entities {
            let row = &data.data()[e * len..(e + 1) * len];
            let (mean, std) = stats::mean_std(&row[train_range.clone()]);
            train_stats.push((mean, std));
        }
        for (e, &(mean, std)) in train_stats.iter().enumerate() {
            stats::zscore_in_place(&mut data.data_mut()[e * len..(e + 1) * len], mean, std);
        }
        MtsDataset {
            spec,
            data,
            train_stats,
        }
    }

    /// The dataset specification.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The normalised series, `[entities, len]`.
    pub fn data(&self) -> &Tensor {
        &self.data
    }

    /// Per-entity `(mean, std)` of the training split (pre-normalisation).
    pub fn train_stats(&self) -> &[(f32, f32)] {
        &self.train_stats
    }

    /// The index range of a split.
    pub fn range(&self, split: Split) -> std::ops::Range<usize> {
        let (tr, va, te) = self.spec.split_points();
        match split {
            Split::Train => tr,
            Split::Val => va,
            Split::Test => te,
        }
    }

    /// The normalised training-split series of every entity, as one
    /// `[entities, train_len]` tensor — the offline clustering input.
    pub fn train_matrix(&self) -> Tensor {
        let r = self.range(Split::Train);
        let len = self.spec.len;
        let mut out = Vec::with_capacity(self.spec.entities * r.len());
        for e in 0..self.spec.entities {
            out.extend_from_slice(&self.data.data()[e * len + r.start..e * len + r.end]);
        }
        Tensor::from_vec(out, &[self.spec.entities, r.len()])
    }

    /// Start indices of the supervised windows of `(lookback, horizon)`
    /// drawn from `split` at the given stride. Windows never cross the split
    /// boundary. The final admissible start is always included even when
    /// `stride` does not land on it exactly, so evaluation covers the tail
    /// of the split; the last two windows may therefore overlap by more than
    /// `stride` allows elsewhere.
    pub fn window_starts(&self, split: Split, lookback: usize, horizon: usize, stride: usize) -> Vec<usize> {
        assert!(stride > 0, "stride must be positive");
        let r = self.range(split);
        let need = lookback + horizon;
        if r.len() < need {
            return Vec::new();
        }
        let final_start = r.end - need;
        let mut out: Vec<usize> = (r.start..=final_start).step_by(stride).collect();
        if out.last().is_some_and(|&s| s < final_start) {
            out.push(final_start);
        }
        out
    }

    /// The windows at [`MtsDataset::window_starts`], materialised.
    pub fn windows(&self, split: Split, lookback: usize, horizon: usize, stride: usize) -> Vec<Window> {
        self.window_starts(split, lookback, horizon, stride)
            .into_iter()
            .map(|s| self.window_at(s, lookback, horizon))
            .collect()
    }

    /// One window starting at absolute index `start`.
    ///
    /// # Panics
    /// If the window would run past the series end.
    pub fn window_at(&self, start: usize, lookback: usize, horizon: usize) -> Window {
        let len = self.spec.len;
        assert!(
            start + lookback + horizon <= len,
            "window [{start}, {}) exceeds series length {len}",
            start + lookback + horizon
        );
        let n = self.spec.entities;
        let mut x = Vec::with_capacity(n * lookback);
        let mut y = Vec::with_capacity(n * horizon);
        for e in 0..n {
            let row = &self.data.data()[e * len..(e + 1) * len];
            x.extend_from_slice(&row[start..start + lookback]);
            y.extend_from_slice(&row[start + lookback..start + lookback + horizon]);
        }
        Window {
            x: Tensor::from_vec(x, &[n, lookback]),
            y: Tensor::from_vec(y, &[n, horizon]),
            start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Benchmark;

    fn ds() -> MtsDataset {
        MtsDataset::generate(Benchmark::Pems08.scaled(8, 1_000), 11)
    }

    #[test]
    fn train_split_is_standardised() {
        let d = ds();
        let tm = d.train_matrix();
        assert_eq!(tm.dims(), &[8, 600]);
        for e in 0..8 {
            let (m, s) = focus_tensor::stats::mean_std(tm.row(e));
            assert!(m.abs() < 1e-4, "entity {e} train mean {m}");
            assert!((s - 1.0).abs() < 1e-3, "entity {e} train std {s}");
        }
    }

    #[test]
    fn windows_respect_split_boundaries() {
        let d = ds();
        let (lookback, horizon) = (48, 12);
        for split in [Split::Train, Split::Val, Split::Test] {
            let r = d.range(split);
            for w in d.windows(split, lookback, horizon, 16) {
                assert!(w.start >= r.start);
                assert!(w.start + lookback + horizon <= r.end);
                assert_eq!(w.x.dims(), &[8, lookback]);
                assert_eq!(w.y.dims(), &[8, horizon]);
            }
        }
    }

    #[test]
    fn windows_materialise_window_starts() {
        let d = ds();
        for (split, stride) in [(Split::Train, 16), (Split::Val, 7), (Split::Test, 64)] {
            let starts = d.window_starts(split, 48, 12, stride);
            let windows = d.windows(split, 48, 12, stride);
            assert_eq!(windows.iter().map(|w| w.start).collect::<Vec<_>>(), starts);
            for (w, &s) in windows.iter().zip(&starts) {
                assert_eq!(w.x.data(), d.window_at(s, 48, 12).x.data());
            }
        }
    }

    #[test]
    fn window_target_follows_input() {
        let d = ds();
        let w = d.window_at(100, 48, 12);
        // y's first value of entity 0 must equal the series at index 148.
        let expect = d.data().row(0)[148];
        assert_eq!(w.y.at2(0, 0), expect);
        assert_eq!(w.x.at2(0, 47), d.data().row(0)[147]);
    }

    #[test]
    fn too_short_split_yields_no_windows() {
        let d = MtsDataset::generate(Benchmark::Etth1.scaled(4, 100), 1);
        // Val split is 20 steps; a 48+12 window cannot fit.
        assert!(d.windows(Split::Val, 48, 12, 1).is_empty());
    }

    #[test]
    fn stride_controls_window_count() {
        let d = ds();
        let w1 = d.windows(Split::Train, 48, 12, 1).len();
        let w10 = d.windows(Split::Train, 48, 12, 10).len();
        assert!(w1 >= 9 * w10, "stride 1: {w1}, stride 10: {w10}");
    }

    #[test]
    fn non_dividing_stride_still_covers_the_tail() {
        // Train split is 0..600; with need = 60 the final admissible start
        // is 540. Stride 64 steps 0, 64, …, 512 — the old code stopped
        // there and never evaluated the last 28 steps of the split.
        let d = ds();
        let ws = d.windows(Split::Train, 48, 12, 64);
        assert_eq!(ws.len(), 10, "9 strided starts plus the appended tail window");
        let starts: Vec<usize> = ws.iter().map(|w| w.start).collect();
        assert_eq!(starts[..9], [0, 64, 128, 192, 256, 320, 384, 448, 512]);
        assert_eq!(*starts.last().expect("non-empty"), 540, "tail window must end at the split end");
        // Starts stay strictly increasing: no duplicate tail when the
        // stride lands on the final start exactly.
        let exact = d.windows(Split::Train, 48, 12, 60);
        let exact_starts: Vec<usize> = exact.iter().map(|w| w.start).collect();
        assert!(exact_starts.windows(2).all(|p| p[0] < p[1]), "{exact_starts:?}");
        assert_eq!(*exact_starts.last().expect("non-empty"), 540);
        assert_eq!(exact.len(), 10, "dividing stride gains no duplicate window");
    }
}
