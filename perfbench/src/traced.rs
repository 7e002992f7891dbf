//! The traced round: the same pipeline as [`crate::round::round`], driven
//! through the public calls that `Focus::fit_offline`, `Forecaster::train`,
//! `Forecaster::evaluate` and `Forecaster::predict` make, with each call
//! timed and recorded as a `focus_trace` span from here. The program gets
//! no extra spans; its own counters are read around the round.
//!
//! The decomposed train and evaluate loops mirror the provided trait
//! methods call for call, so their results must equal the untraced round's
//! bit for bit; the gates check that, which also catches the mirror drifting
//! from the program.

use crate::round::{bits, check_fit, check_models, micros_since, seconds_since, Gates, Reference};
use crate::workload::{Inputs, Shape, DATA_SEED};
use focus_autograd::plan::PlanCache;
use focus_autograd::{AdamW, Graph};
use focus_cluster::{segment_matrix, ClusterConfig, Objective};
use focus_core::forecaster::normalise_target;
use focus_core::{Focus, FocusConfig, Forecaster, Loss, TrainOptions};
use focus_data::{Metrics, MtsDataset, Split, Window};
use focus_nn::revin::{instance_denorm, instance_norm};
use focus_tensor::{par, pool};
use focus_trace::clock::now_ns;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Time per named layer call within one traced round.
#[derive(Default)]
struct Layers {
    /// name → (total ns, calls)
    buckets: BTreeMap<&'static str, (u64, u64)>,
    /// Sum over every timed call, for the attributed share.
    attributed_ns: u64,
}

impl Layers {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = focus_trace::span_guard(name);
        let t0 = now_ns();
        let out = f();
        let dt = now_ns() - t0;
        let b = self.buckets.entry(name).or_default();
        b.0 += dt;
        b.1 += 1;
        self.attributed_ns += dt;
        out
    }

    fn ns(&self, name: &str) -> u64 {
        self.buckets.get(name).map_or(0, |b| b.0)
    }

    /// Mean µs over `per` events (0 when there were none).
    fn us_per(&self, name: &str, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.ns(name) as f64 * 1e-3 / per as f64
        }
    }

    fn calls(&self, name: &str) -> u64 {
        self.buckets.get(name).map_or(0, |b| b.1)
    }
}

/// Step accounting of one decomposed training run.
#[derive(Default)]
struct Steps {
    epochs: u64,
    attempted: u64,
    replayed: u64,
    non_finite: u64,
}

/// Plan-cache outcome of one train or evaluate loop.
#[derive(Default)]
pub struct PlanInfo {
    pub instrs: u64,
    pub slots: u64,
    pub off: Vec<String>,
}

impl PlanInfo {
    fn note(&mut self, who: &str, cache: &PlanCache) {
        if cache.is_off() {
            self.off
                .push(format!("{who}: {}", cache.off_reason().unwrap_or("off")));
        }
    }
}

/// `FocusConfig::cluster` step by step, so segmenting and fitting time
/// separately.
fn cluster_config(cfg: &FocusConfig) -> ClusterConfig {
    let objective = if cfg.alpha > 0.0 {
        Objective::rec_corr(cfg.alpha)
    } else {
        Objective::RecOnly
    };
    ClusterConfig::new(cfg.n_prototypes, cfg.segment_len)
        .with_objective(objective)
        .with_update(cfg.cluster_update)
        .with_max_iters(cfg.cluster_iters)
}

/// `Forecaster::train`, call for call, with every call timed.
fn train(
    m: &mut dyn Forecaster,
    ds: &MtsDataset,
    opts: &TrainOptions,
    lay: &mut Layers,
    plans: &mut PlanInfo,
) -> Steps {
    let (l, h) = (m.lookback(), m.horizon());
    let mut windows = ds.windows(Split::Train, l, h, opts.stride);
    windows.shuffle(&mut StdRng::seed_from_u64(opts.seed ^ 0x7ea1));
    windows.truncate(opts.max_windows);
    let val_windows: Vec<Window> = if opts.patience.is_some() {
        let all = ds.windows(Split::Val, l, h, h.max(1));
        let keep = all.len().div_ceil(16).max(1);
        all.into_iter().step_by(keep).take(16).collect()
    } else {
        Vec::new()
    };
    let mut opt = AdamW::new(opts.lr, opts.weight_decay);
    let mut best: Option<(f64, Vec<focus_tensor::Tensor>)> = None;
    let mut stale = 0usize;
    let mut g = Graph::new();
    let mut pcache = PlanCache::new();
    let mut st = Steps::default();
    for _ in 0..opts.epochs {
        st.epochs += 1;
        for w in &windows {
            st.attempted += 1;
            let (x_norm, y_norm) = lay.time("train.revin", || {
                let (x, stats) = instance_norm(&w.x);
                let y = normalise_target(&w.y, &stats);
                (x, y)
            });
            let plans_on = pcache.active();
            let routes = if plans_on {
                lay.time("core.route", || m.plan_route_indices(&x_norm))
            } else {
                Vec::new()
            };
            let route_refs: Vec<&[u32]> = routes.iter().map(|r| r.as_slice()).collect();
            let replayed = lay.time("autograd.replay_train", || {
                pcache.try_replay_train(&[&x_norm, &y_norm], &route_refs, m.params_mut(), &mut opt)
            });
            if let Some(loss) = replayed {
                st.replayed += 1;
                st.non_finite += u64::from(!loss.is_finite());
                continue;
            }
            let y_obs = plans_on.then(|| y_norm.clone());
            let (pv, loss) = lay.time("train.forward", || {
                g.reset();
                let pv = m.params().register(&mut g);
                let pred = m.forward_window(&mut g, &pv, &x_norm);
                let target = g.constant(y_norm);
                let loss = match opts.loss {
                    Loss::Mse => g.mse(pred, target),
                    Loss::Mae => g.mae(pred, target),
                };
                (pv, loss)
            });
            st.non_finite += u64::from(!g.value(loss).item().is_finite());
            lay.time("autograd.backward", || g.backward(loss));
            lay.time("autograd.optimizer", || {
                m.params_mut().step(&mut opt, &g, &pv)
            });
            if let Some(y_obs) = y_obs {
                lay.time("autograd.compile", || {
                    pcache.observe_train(&g, loss, &pv, m.params(), &[&x_norm, &y_obs], &route_refs)
                });
            }
        }
        if let Some(patience) = opts.patience {
            if !val_windows.is_empty() {
                let val = lay.time("train.validate", || {
                    let mut mm = Metrics::new();
                    for w in &val_windows {
                        mm.update(&m.predict(&w.x), &w.y);
                    }
                    mm.mse()
                });
                if best.as_ref().is_none_or(|(b, _)| val < *b) {
                    best = Some((val, m.params().snapshot()));
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
    if let Some((_, snapshot)) = best {
        m.params_mut().restore(&snapshot);
    }
    if let Some(plan) = pcache.plan().filter(|_| plans.instrs == 0) {
        plans.instrs = plan.n_instrs() as u64;
        plans.slots = plan.n_slots() as u64;
    }
    plans.note(&format!("{} train", m.name()), &pcache);
    st
}

/// `Forecaster::evaluate`, call for call, with every call timed.
fn evaluate(
    m: &dyn Forecaster,
    ds: &MtsDataset,
    stride: usize,
    lay: &mut Layers,
    plans: &mut PlanInfo,
) -> (Metrics, u64) {
    let windows = lay.time("eval.windows", || {
        ds.windows(Split::Test, m.lookback(), m.horizon(), stride)
    });
    let mut mm = Metrics::new();
    let mut pcache = PlanCache::new();
    let mut g = Graph::new();
    let mut replays = 0u64;
    for w in &windows {
        let (x_norm, stats) = lay.time("eval.revin", || instance_norm(&w.x));
        let plans_on = pcache.active();
        let routes = if plans_on {
            lay.time("core.route", || m.plan_route_indices(&x_norm))
        } else {
            Vec::new()
        };
        let route_refs: Vec<&[u32]> = routes.iter().map(|r| r.as_slice()).collect();
        let replayed = lay.time("autograd.replay_forward", || {
            pcache.try_replay_forward(&[&x_norm], &route_refs, m.params())
        });
        let y_norm = match replayed {
            Some(out) => {
                replays += 1;
                out
            }
            None => {
                let (pv, y) = lay.time("eval.forward", || {
                    g.reset();
                    let pv = m.params().register(&mut g);
                    let y = m.forward_window(&mut g, &pv, &x_norm);
                    (pv, y)
                });
                if plans_on {
                    lay.time("autograd.compile", || {
                        pcache.observe_forward(&g, y, &pv, m.params(), &[&x_norm], &route_refs)
                    });
                }
                g.value(y).clone()
            }
        };
        lay.time("eval.revin", || {
            mm.update(&instance_denorm(&y_norm, &stats), &w.y)
        });
    }
    plans.note(&format!("{} evaluate", m.name()), &pcache);
    (mm, replays)
}

/// Everything one traced round measured, by per-layer metric name.
pub struct Traced {
    pub values: BTreeMap<String, f64>,
    /// Per model label, each predict request's µs.
    pub predict_us: BTreeMap<&'static str, Vec<f64>>,
    /// Fit through predict, comparable with the untraced round's wall.
    pub wall_s: f64,
    pub plans: PlanInfo,
}

fn gemm_counts(before: &[(&'static str, u64)], after: &[(&'static str, u64)]) -> [u64; 3] {
    let old: BTreeMap<_, _> = before.iter().copied().collect();
    let mut out = [0u64; 3];
    for &(name, v) in after {
        // Only the monotone GEMM counters; other entries are gauges.
        let class = if name == "gemm/nt_bcast" {
            2
        } else if !(name.starts_with("gemm/") || name.starts_with("bmm/")) {
            continue;
        } else if name.ends_with("_small") {
            0
        } else {
            1
        };
        out[class] += v - old.get(name).copied().unwrap_or(0);
    }
    out
}

/// Runs one traced round and checks it against the untraced reference.
pub fn round(shape: &Shape, inp: &Inputs, gates: &mut Gates, reference: &Reference) -> Traced {
    focus_trace::set_enabled(true);
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };

    // Data synthesis and extraction, outside the compared wall.
    let t0 = now_ns();
    let ds = MtsDataset::generate(shape.spec(), DATA_SEED);
    put("data.generate_ms", seconds_since(t0) * 1e3);
    gates.op(bits(ds.data()) == bits(inp.ds.data()), || {
        "dataset synthesis is not deterministic".into()
    });
    let t0 = now_ns();
    let _ = (
        ds.train_matrix(),
        ds.windows(
            Split::Test,
            shape.lookback,
            shape.horizon,
            shape.eval_stride,
        ),
    );
    put("data.windows_ms", seconds_since(t0) * 1e3);

    let counters0 = focus_trace::snapshot_counters();
    let par0 = par::stats();
    let fresh0 = pool::stats().fresh_allocs_steady;
    let mut resident_peak = pool::stats().resident_bytes;
    let mut lay = Layers::default();
    let mut plans = PlanInfo::default();
    let start = now_ns();

    // Fit: `Focus::fit_offline` step by step.
    let cfg = shape.focus_config();
    let tm = lay.time("fit.train_matrix", || inp.ds.train_matrix());
    let segs = lay.time("cluster.segment", || segment_matrix(&tm, cfg.segment_len));
    let (protos, fit_trace) = lay.time("cluster.fit", || {
        cluster_config(&cfg).fit_traced(&segs, shape.seed)
    });
    check_fit(gates, Some(reference), &protos, inp);
    let assign_protos = protos.clone();
    let focus = lay.time("fit.build", || {
        Focus::with_prototypes(cfg.clone(), protos, shape.seed)
    });
    let iters = fit_trace.loss_per_iter.len();
    let fit_ms = lay.ns("cluster.fit") as f64 * 1e-6;
    resident_peak = resident_peak.max(pool::stats().resident_bytes);

    let mut models = shape.models(&inp.ds, focus);
    let labels: Vec<&'static str> = shape.labels().collect();
    let mut steps = Steps::default();
    for (m, label) in models.iter_mut().zip(&labels) {
        let t0 = now_ns();
        let st = train(m.as_mut(), &inp.ds, &shape.train, &mut lay, &mut plans);
        put(
            &format!("baselines.{label}.train_ms"),
            seconds_since(t0) * 1e3,
        );
        gates.op(st.non_finite == 0, || {
            format!("{label}: {} non-finite train losses", st.non_finite)
        });
        steps.epochs += st.epochs;
        steps.attempted += st.attempted;
        steps.replayed += st.replayed;
    }
    resident_peak = resident_peak.max(pool::stats().resident_bytes);

    let mut fwd_replays = 0;
    let evals: Vec<Metrics> = models
        .iter()
        .map(|m| {
            let (e, r) = evaluate(m.as_ref(), &inp.ds, shape.eval_stride, &mut lay, &mut plans);
            fwd_replays += r;
            e
        })
        .collect();

    // Predict: `Forecaster::predict` step by step, on one reset tape.
    let mut folds = vec![Metrics::new(); models.len()];
    let mut predict_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut g = Graph::new();
    for w in &inp.windows {
        for ((m, f), label) in models.iter().zip(folds.iter_mut()).zip(&labels) {
            let t0 = now_ns();
            let (x_norm, stats) = lay.time("nn.revin", || instance_norm(&w.x));
            let y = lay.time("core.forward", || {
                g.reset();
                let pv = m.params().register(&mut g);
                m.forward_window(&mut g, &pv, &x_norm)
            });
            let out = lay.time("nn.revin", || instance_denorm(g.value(y), &stats));
            predict_us.entry(label).or_default().push(micros_since(t0));
            gates.op(out.all_finite(), || {
                format!(
                    "{label}: traced predict at window {} is not finite",
                    w.start
                )
            });
            f.update(&out, &w.y);
        }
    }
    let wall_s = seconds_since(start);
    check_models(gates, reference, &labels, &evals, &folds);
    resident_peak = resident_peak.max(pool::stats().resident_bytes);

    let gemm = gemm_counts(&counters0, &focus_trace::snapshot_counters());
    let par1 = par::stats();
    let forwards = lay.calls("core.forward");

    // Online assignment of the test segments, outside the compared wall.
    let t0 = now_ns();
    let assigned = assign_protos.assign_all(&inp.test_segments);
    let assign_s = seconds_since(t0);
    gates.op(assigned.iter().all(|&j| j < assign_protos.k()), || {
        "assign_all returned an out-of-range prototype".into()
    });
    focus_trace::set_enabled(false);

    put(
        "cluster.segment_ms",
        lay.ns("cluster.segment") as f64 * 1e-6,
    );
    put("cluster.fit_ms", fit_ms);
    put("cluster.fit_iters", iters as f64);
    put("cluster.ms_per_iter", fit_ms / iters.max(1) as f64);
    put(
        "cluster.assign_segments_per_s",
        assigned.len() as f64 / assign_s,
    );
    put("nn.revin_us", lay.us_per("nn.revin", forwards));
    put("core.forward_us", lay.us_per("core.forward", forwards));
    put(
        "core.route_us",
        lay.us_per("core.route", lay.calls("core.route")),
    );
    put("core.train_steps", steps.attempted as f64);
    put("core.train_epochs", steps.epochs as f64);
    let interpreted = lay.calls("autograd.backward");
    put(
        "autograd.backward_us",
        lay.us_per("autograd.backward", interpreted),
    );
    put(
        "autograd.optimizer_us",
        lay.us_per("autograd.optimizer", interpreted),
    );
    put(
        "autograd.compile_us",
        lay.us_per("autograd.compile", lay.calls("autograd.compile")),
    );
    put(
        "autograd.replay_train_us",
        lay.us_per("autograd.replay_train", steps.replayed),
    );
    put(
        "autograd.replay_forward_us",
        lay.us_per("autograd.replay_forward", fwd_replays),
    );
    put(
        "autograd.replay_share",
        steps.replayed as f64 / steps.attempted.max(1) as f64,
    );
    put("autograd.plan_instrs", plans.instrs as f64);
    put("autograd.plan_slots", plans.slots as f64);
    put("autograd.plan_off", plans.off.len() as f64);
    put("tensor.gemm_small", gemm[0] as f64);
    put("tensor.gemm_tiled", gemm[1] as f64);
    put("tensor.gemm_bcast", gemm[2] as f64);
    put(
        "tensor.pool_fresh_allocs_steady",
        (pool::stats().fresh_allocs_steady - fresh0) as f64,
    );
    put(
        "tensor.pool_resident_peak_mb",
        resident_peak as f64 / (1 << 20) as f64,
    );
    put("tensor.par_inline", (par1.inline - par0.inline) as f64);
    put(
        "trace.attributed_share",
        lay.attributed_ns as f64 * 1e-9 / wall_s,
    );
    Traced {
        values: v,
        predict_us,
        wall_s,
        plans,
    }
}

/// A short train-and-predict probe of each model the workload does not run,
/// at the workload's shape, so every workload reports every model.
pub fn probe(shape: &Shape, inp: &Inputs, gates: &mut Gates) -> BTreeMap<String, f64> {
    let bc = shape.baseline_config();
    let opts = TrainOptions {
        epochs: 1,
        max_windows: 8,
        patience: None,
        ..shape.train.clone()
    };
    let mut out = BTreeMap::new();
    for kind in focus_baselines::ModelKind::ALL {
        if shape.models.contains(&kind) {
            continue;
        }
        let label = kind.label();
        let mut m = bc.build(kind, &inp.ds);
        let t0 = now_ns();
        m.train(&inp.ds, &opts);
        out.insert(
            format!("baselines.{label}.train_ms"),
            seconds_since(t0) * 1e3,
        );
        let mut us = Vec::new();
        for w in inp.windows.iter().take(PROBE_REQUESTS) {
            let t0 = now_ns();
            let y = m.predict(&w.x);
            us.push(micros_since(t0));
            gates.op(y.all_finite(), || {
                format!("{label}: probe predict is not finite")
            });
        }
        let p50 = crate::stats::percentile(&us, 0.5)
            .expect("the probe takes enough requests for a median");
        out.insert(format!("baselines.{label}.predict_p50_us"), p50);
    }
    out
}

/// Predict requests per probed model: the fewest that leave ten samples
/// above the median.
pub const PROBE_REQUESTS: usize = 2 * crate::stats::MIN_BEYOND_TAIL;
