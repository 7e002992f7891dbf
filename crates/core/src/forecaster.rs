//! The [`Forecaster`] trait: the shared contract between FOCUS, its
//! ablations and every baseline model.
//!
//! A forecaster exposes a differentiable `forward_window` over an
//! instance-normalised lookback window; the provided methods supply the
//! common train / predict / evaluate machinery so all models in the
//! repository are compared under an identical pipeline (same normalisation,
//! same optimiser, same window sampling).

use focus_autograd::plan::PlanCache;
use focus_autograd::{AdamW, Graph, ParamStore, ParamVars, Var};
use focus_data::{Metrics, MtsDataset, Split};
use focus_nn::revin::{instance_denorm, instance_norm, InstanceStats};
use focus_nn::CostReport;
use focus_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    /// Mean squared error (the convention of the paper's Table III models).
    Mse,
    /// Mean absolute error — more robust to outliers; used by some traffic
    /// baselines and exposed for the robustness studies.
    Mae,
}

/// Knobs of the online training loop.
#[derive(Clone, Debug)]
pub struct TrainOptions {
    /// Passes over the (subsampled) training windows.
    pub epochs: usize,
    /// AdamW learning rate.
    pub lr: f32,
    /// AdamW decoupled weight decay.
    pub weight_decay: f32,
    /// Stride between consecutive training windows.
    pub stride: usize,
    /// Cap on windows per epoch (they are shuffled first).
    pub max_windows: usize,
    /// Shuffle seed.
    pub seed: u64,
    /// Training objective.
    pub loss: Loss,
    /// Early stopping: stop after this many epochs without validation-MSE
    /// improvement and restore the best weights. `None` trains for exactly
    /// `epochs` epochs. `epochs` is the cap either way.
    pub patience: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 3,
            lr: 2e-3,
            weight_decay: 1e-4,
            stride: 8,
            max_windows: 96,
            seed: 0,
            loss: Loss::Mse,
            patience: None,
        }
    }
}

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Mean normalised-space MSE per epoch.
    pub epoch_losses: Vec<f64>,
    /// Windows actually used per epoch.
    pub windows_per_epoch: usize,
    /// Validation MSE per epoch, when early stopping was enabled.
    pub val_losses: Vec<f64>,
    /// Epoch whose weights were kept (best validation), when early stopping
    /// was enabled.
    pub best_epoch: Option<usize>,
}

/// Normalises a target `[N, L_f]` with the lookback window's instance
/// statistics, so training happens in the same space the network sees.
pub fn normalise_target(y: &Tensor, stats: &InstanceStats) -> Tensor {
    let mut out = y.clone();
    let l = y.dims()[1];
    for (e, (&mean, &std)) in stats.means.iter().zip(&stats.stds).enumerate() {
        let denom = std.max(1e-5);
        for v in &mut out.data_mut()[e * l..(e + 1) * l] {
            *v = (*v - mean) / denom;
        }
    }
    out
}

/// A trainable multivariate forecaster over fixed-size windows.
pub trait Forecaster {
    /// Display name used in experiment tables.
    fn name(&self) -> &str;

    /// Lookback window length `L`.
    fn lookback(&self) -> usize;

    /// Forecast horizon `L_f`.
    fn horizon(&self) -> usize;

    /// The model's trainable parameters.
    fn params(&self) -> &ParamStore;

    /// Mutable access to the parameters (for the optimiser step).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Differentiable forward pass over an instance-normalised window
    /// `[N, L]`, producing the normalised forecast `[N, L_f]`.
    fn forward_window(&self, g: &mut Graph, pv: &ParamVars, x_norm: &Tensor) -> Var;

    /// Per-window routing-index sources for plan compilation, in the order
    /// the model's `forward_window` consumes them.
    ///
    /// Models whose tape embeds one-hot routing indices must surface them
    /// here so the plan compiler can bind them as runtime arguments instead
    /// of baking them into the plan (where a per-window change would shut
    /// replay off). The default — no route sources — is correct for models
    /// without index-routed ops.
    fn plan_route_indices(&self, _x_norm: &Tensor) -> Vec<Vec<u32>> {
        Vec::new()
    }

    /// Analytic cost of one forward pass for `entities` series.
    fn cost(&self, entities: usize) -> CostReport;

    /// End-to-end prediction: instance-normalise, forward, de-normalise.
    fn predict(&self, x: &Tensor) -> Tensor {
        let (x_norm, stats) = instance_norm(x);
        let mut g = Graph::new();
        let pv = self.params().register(&mut g);
        let y = self.forward_window(&mut g, &pv, &x_norm);
        instance_denorm(g.value(y), &stats)
    }

    /// Trains on the dataset's training split with AdamW and an MSE loss.
    ///
    /// # Panics
    /// If the training split holds no full window.
    fn train(&mut self, ds: &MtsDataset, opts: &TrainOptions) -> TrainReport {
        let (lookback, horizon) = (self.lookback(), self.horizon());
        let mut starts = ds.window_starts(Split::Train, lookback, horizon, opts.stride);
        assert!(
            !starts.is_empty(),
            "training split too short for lookback {lookback} + horizon {horizon}"
        );
        // The shuffle's draws depend only on the length, so shuffling the
        // starts picks exactly the windows a shuffle of the windows would.
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7ea1);
        starts.shuffle(&mut rng);
        starts.truncate(opts.max_windows);
        let windows: Vec<_> = starts.into_iter().map(|s| ds.window_at(s, lookback, horizon)).collect();

        // Validation windows for early stopping (a small fixed set).
        let val_windows: Vec<_> = if opts.patience.is_some() {
            let all = ds.window_starts(Split::Val, lookback, horizon, horizon.max(1));
            let keep = all.len().div_ceil(16).max(1);
            all.into_iter().step_by(keep).take(16).map(|s| ds.window_at(s, lookback, horizon)).collect()
        } else {
            Vec::new()
        };

        let mut opt = AdamW::new(opts.lr, opts.weight_decay);
        let mut epoch_losses = Vec::with_capacity(opts.epochs);
        let mut val_losses = Vec::new();
        let mut best: Option<(usize, f64, Vec<focus_tensor::Tensor>)> = None;
        let mut stale = 0usize;
        // One tape for the whole run: `reset` keeps the node/grad capacity,
        // so steady-state steps stop paying per-window tape reallocation.
        let mut g = Graph::new();
        // After a couple of interpreted warmup steps the cache holds a
        // verified flat plan; steady-state steps replay it with pre-resolved
        // buffer slots and never touch the tape. Shape changes reset it.
        let mut pcache = PlanCache::new();
        for epoch in 0..opts.epochs {
            let mut total = 0.0f64;
            for w in &windows {
                focus_trace::span!("train/step");
                let (x_norm, stats) = instance_norm(&w.x);
                let y_norm = normalise_target(&w.y, &stats);
                let plans_on = pcache.active();
                let routes: Vec<Vec<u32>> =
                    if plans_on { self.plan_route_indices(&x_norm) } else { Vec::new() };
                let route_refs: Vec<&[u32]> = routes.iter().map(|r| r.as_slice()).collect();
                if let Some(loss) = pcache.try_replay_train(
                    &[&x_norm, &y_norm],
                    &route_refs,
                    self.params_mut(),
                    &mut opt,
                ) {
                    total += loss as f64;
                    continue;
                }
                // The tape consumes the target tensor; keep a copy only
                // while the cache still wants to observe tapes.
                let y_obs = plans_on.then(|| y_norm.clone());
                g.reset();
                let pv = self.params().register(&mut g);
                let pred = self.forward_window(&mut g, &pv, &x_norm);
                let target = g.constant(y_norm);
                let loss = match opts.loss {
                    Loss::Mse => g.mse(pred, target),
                    Loss::Mae => g.mae(pred, target),
                };
                // focus-lint: allow(graph-interpret) -- warmup/fallback interpretation; steady-state steps replay the compiled plan above
                g.backward(loss);
                self.params_mut().step(&mut opt, &g, &pv);
                total += g.value(loss).item() as f64;
                if let Some(y_obs) = y_obs {
                    pcache.observe_train(&g, loss, &pv, self.params(), &[&x_norm, &y_obs], &route_refs);
                }
            }
            epoch_losses.push(total / windows.len() as f64);

            if let Some(patience) = opts.patience {
                if !val_windows.is_empty() {
                    let mut m = Metrics::new();
                    for w in &val_windows {
                        m.update(&self.predict(&w.x), &w.y);
                    }
                    let val = m.mse();
                    val_losses.push(val);
                    let improved = best.as_ref().map(|(_, b, _)| val < *b).unwrap_or(true);
                    if improved {
                        best = Some((epoch, val, self.params().snapshot()));
                        stale = 0;
                    } else {
                        stale += 1;
                        if stale >= patience {
                            break;
                        }
                    }
                }
            }
        }
        let best_epoch = if let Some((epoch, _, snapshot)) = best {
            self.params_mut().restore(&snapshot);
            Some(epoch)
        } else {
            None
        };
        if focus_trace::enabled() {
            println!("{} training phases:", self.name());
            print!("{}", focus_trace::report::phase_table(&focus_trace::snapshot_spans()));
        }
        TrainReport {
            epoch_losses,
            windows_per_epoch: windows.len(),
            val_losses,
            best_epoch,
        }
    }

    /// Evaluates on a split, accumulating MSE/MAE in the dataset's z-scored
    /// space (the paper's metric convention).
    ///
    /// # Panics
    /// If the split holds no full window.
    fn evaluate(&self, ds: &MtsDataset, split: Split, stride: usize) -> Metrics {
        let (lookback, horizon) = (self.lookback(), self.horizon());
        // Windows are cut one at a time, so only one is ever resident.
        let starts = ds.window_starts(split, lookback, horizon, stride);
        assert!(!starts.is_empty(), "no evaluation windows in {split:?}");
        let mut m = Metrics::new();
        // Inference-only plan: after two observed forwards the remaining
        // windows replay without graph construction. Bitwise-identical to
        // the interpreted forward, so metrics are unchanged.
        let mut pcache = PlanCache::new();
        let mut g = Graph::new();
        for start in starts {
            let w = ds.window_at(start, lookback, horizon);
            let (x_norm, stats) = instance_norm(&w.x);
            let plans_on = pcache.active();
            let routes: Vec<Vec<u32>> =
                if plans_on { self.plan_route_indices(&x_norm) } else { Vec::new() };
            let route_refs: Vec<&[u32]> = routes.iter().map(|r| r.as_slice()).collect();
            let y_norm = match pcache.try_replay_forward(&[&x_norm], &route_refs, self.params()) {
                Some(out) => out,
                None => {
                    g.reset();
                    let pv = self.params().register(&mut g);
                    let y = self.forward_window(&mut g, &pv, &x_norm);
                    if plans_on {
                        pcache.observe_forward(&g, y, &pv, self.params(), &[&x_norm], &route_refs);
                    }
                    g.value(y).clone()
                }
            };
            m.update(&instance_denorm(&y_norm, &stats), &w.y);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_target_uses_window_stats() {
        let stats = InstanceStats {
            means: vec![10.0, -5.0],
            stds: vec![2.0, 0.5],
        };
        let y = Tensor::from_vec(vec![12.0, 14.0, -5.5, -4.5], &[2, 2]);
        let n = normalise_target(&y, &stats);
        assert_eq!(n.data(), &[1.0, 2.0, -1.0, 1.0]);
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_600), 3);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let mut model = Focus::fit_offline(&ds, cfg, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 12,
                max_windows: 16,
                patience: Some(2),
                ..Default::default()
            },
        );
        let best = r.best_epoch.expect("early stopping must record a best epoch");
        assert!(!r.val_losses.is_empty());
        // The recorded best epoch must actually be the argmin.
        let argmin = r
            .val_losses
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("validation ran at least one epoch")
            .0;
        assert_eq!(best, argmin);
        // And the restored model must reproduce that validation score.
        let val_windows = ds.windows(Split::Val, 48, 12, 12);
        let mut m = Metrics::new();
        for w in val_windows
            .iter()
            .step_by(val_windows.len().div_ceil(16).max(1))
            .take(16)
        {
            m.update(&model.predict(&w.x), &w.y);
        }
        assert!((m.mse() - r.val_losses[best]).abs() < 1e-9);
    }

    #[test]
    fn mae_loss_trains_too() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 2);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let mut model = Focus::fit_offline(&ds, cfg, 1);
        let r = model.train(
            &ds,
            &TrainOptions {
                epochs: 3,
                max_windows: 16,
                loss: Loss::Mae,
                ..Default::default()
            },
        );
        assert!(
            r.epoch_losses.last().expect("training ran at least one epoch") < &r.epoch_losses[0],
            "MAE training did not improve: {:?}",
            r.epoch_losses
        );
    }

    #[test]
    fn planned_training_is_bitwise_equal_to_interpreted() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 7);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let opts = TrainOptions {
            epochs: 2,
            max_windows: 12,
            ..Default::default()
        };
        let train_with_plans = |on: bool| {
            focus_autograd::plan::set_enabled(on);
            let mut model = Focus::fit_offline(&ds, cfg.clone(), 9);
            let report = model.train(&ds, &opts);
            focus_autograd::plan::set_enabled(true);
            (model.params().snapshot(), report.epoch_losses)
        };
        let (params_i, losses_i) = train_with_plans(false);
        let (params_p, losses_p) = train_with_plans(true);
        for (i, (a, b)) in params_i.iter().zip(&params_p).enumerate() {
            let ba: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ba, bb, "param {i} diverged between interpreter and plan replay");
        }
        assert_eq!(losses_i, losses_p, "epoch losses must match bitwise");
        // And evaluation through the inference plan matches the
        // interpreted-forward metrics exactly.
        focus_autograd::plan::set_enabled(false);
        let model = {
            let mut m = Focus::fit_offline(&ds, cfg.clone(), 9);
            m.train(&ds, &opts);
            m
        };
        let base = model.evaluate(&ds, Split::Test, 24);
        focus_autograd::plan::set_enabled(true);
        let planned = model.evaluate(&ds, Split::Test, 24);
        assert_eq!(base.mse().to_bits(), planned.mse().to_bits());
        assert_eq!(base.mae().to_bits(), planned.mae().to_bits());
    }

    #[test]
    fn streamed_evaluation_equals_materialised_windows() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 5);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let mut model = Focus::fit_offline(&ds, cfg, 3);
        model.train(
            &ds,
            &TrainOptions {
                epochs: 1,
                max_windows: 8,
                ..Default::default()
            },
        );
        for (split, stride) in [(Split::Test, 24), (Split::Val, 7)] {
            let streamed = model.evaluate(&ds, split, stride);
            let mut materialised = Metrics::new();
            for w in ds.windows(split, 48, 12, stride) {
                materialised.update(&model.predict(&w.x), &w.y);
            }
            assert_eq!(streamed.mse().to_bits(), materialised.mse().to_bits(), "{split:?} MSE");
            assert_eq!(streamed.mae().to_bits(), materialised.mae().to_bits(), "{split:?} MAE");
        }
    }

    #[test]
    fn verifier_rejection_falls_back_to_interpreter_bitwise() {
        use crate::model::{Focus, FocusConfig};
        use focus_data::{Benchmark, MtsDataset};
        let ds = MtsDataset::generate(Benchmark::Pems08.scaled(4, 1_200), 11);
        let mut cfg = FocusConfig::new(48, 12);
        cfg.segment_len = 8;
        cfg.n_prototypes = 4;
        cfg.d = 12;
        cfg.cluster_iters = 4;
        let opts = TrainOptions {
            epochs: 2,
            max_windows: 12,
            ..Default::default()
        };
        // With the verifier failpoint armed, every compiled plan is rejected
        // and the cache goes sticky-Off: training must complete on the
        // interpreter, bitwise-equal to a run that never attempted plans.
        // (With the failpoint up, both closures interpret regardless of the
        // process-global enable toggle, so this holds under any test
        // interleaving.)
        focus_autograd::verify::set_fail_all(true);
        let train = |plans: bool| {
            focus_autograd::plan::set_enabled(plans);
            let mut model = Focus::fit_offline(&ds, cfg.clone(), 3);
            let report = model.train(&ds, &opts);
            focus_autograd::plan::set_enabled(true);
            (model.params().snapshot(), report.epoch_losses)
        };
        let (params_a, losses_a) = train(false);
        let (params_b, losses_b) = train(true);
        focus_autograd::verify::set_fail_all(false);
        assert_eq!(losses_a, losses_b, "rejected-plan training must match the interpreter");
        for (i, (a, b)) in params_a.iter().zip(&params_b).enumerate() {
            let ba: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ba, bb, "param {i} diverged under verifier rejection");
        }
        assert!(
            losses_a.last().expect("training ran") < &losses_a[0],
            "fallback training still learns: {losses_a:?}"
        );
    }

    #[test]
    fn normalise_target_guards_zero_std() {
        let stats = InstanceStats {
            means: vec![1.0],
            stds: vec![0.0],
        };
        let y = Tensor::from_vec(vec![2.0], &[1, 1]);
        let n = normalise_target(&y, &stats);
        assert!(n.all_finite());
    }
}
