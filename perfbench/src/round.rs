//! One untraced round — fit → train → evaluate → predict — timed from
//! outside around the public calls, and the correctness gates every round
//! must pass.

use crate::workload::{Inputs, Shape};
use focus_cluster::Prototypes;
use focus_core::Focus;
use focus_data::{Metrics, Split};
use focus_trace::clock::now_ns;

/// Attempted and failed operations. An operation is one fit, one model's
/// training, one model's evaluation or one predict request.
#[derive(Default)]
pub struct Gates {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gates {
    /// Records one operation; `ok` is false when any of its checks failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the report readable when one defect fails every round.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// The deterministic outputs of the first round; every later round and
/// every traced round must reproduce them bit for bit.
pub struct Reference {
    pub objective: f64,
    pub centers: Vec<u32>,
    /// Per model, `evaluate(Split::Test)` MSE and MAE.
    pub mse: Vec<f64>,
    pub mae: Vec<f64>,
}

/// Wall-clock measurements of one round.
pub struct Timings {
    pub fit_s: f64,
    pub train_s: f64,
    pub eval_s: f64,
    /// One closed-loop request per test window: every model predicts it.
    pub predict_us: Vec<f64>,
    /// Fit through predict, for the tracing-overhead comparison.
    pub wall_s: f64,
}

pub fn seconds_since(t0: u64) -> f64 {
    (now_ns() - t0) as f64 * 1e-9
}

pub fn micros_since(t0: u64) -> f64 {
    (now_ns() - t0) as f64 * 1e-3
}

/// Mean composite distance (Eq. 6) from each training segment to its
/// nearest prototype.
pub fn fit_objective(protos: &Prototypes, inp: &Inputs) -> f64 {
    let d = protos.distances(&inp.segments);
    let k = protos.k();
    let total: f64 = d
        .data()
        .chunks(k)
        .map(|row| row.iter().copied().fold(f32::INFINITY, f32::min) as f64)
        .sum();
    total / (d.numel() / k) as f64
}

pub fn bits(t: &focus_tensor::Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Checks a fit against the reference, when there is one, and returns its
/// objective.
pub fn check_fit(
    gates: &mut Gates,
    reference: Option<&Reference>,
    protos: &Prototypes,
    inp: &Inputs,
) -> f64 {
    let objective = fit_objective(protos, inp);
    let ok = objective.is_finite()
        && protos.centers().all_finite()
        && reference.is_none_or(|r| {
            r.objective.to_bits() == objective.to_bits() && r.centers == bits(protos.centers())
        });
    gates.op(ok, || {
        format!("fit: objective {objective} or prototypes differ from the first fit")
    });
    objective
}

/// Checks each model's evaluation and the predict outputs folded over the
/// same windows: both must match the reference bitwise.
pub fn check_models(
    gates: &mut Gates,
    reference: &Reference,
    labels: &[&'static str],
    evals: &[Metrics],
    folds: &[Metrics],
) {
    for (i, label) in labels.iter().enumerate() {
        let (e, f) = (&evals[i], &folds[i]);
        let same = |a: f64, b: f64| a.is_finite() && a.to_bits() == b.to_bits();
        gates.op(same(e.mse(), reference.mse[i]), || {
            format!(
                "{label}: test MSE {} differs from the first training ({})",
                e.mse(),
                reference.mse[i]
            )
        });
        gates.op(
            same(e.mae(), reference.mae[i]) && same(f.mse(), e.mse()) && same(f.mae(), e.mae()),
            || {
                format!(
                    "{label}: predict folds to MSE {} / MAE {}, evaluate gave {} / {}",
                    f.mse(),
                    f.mae(),
                    e.mse(),
                    e.mae()
                )
            },
        );
    }
}

/// Runs one untraced round. The first round (no reference yet) defines the
/// reference; later rounds are checked against it.
pub fn round(
    shape: &Shape,
    inp: &Inputs,
    gates: &mut Gates,
    reference: &mut Option<Reference>,
) -> Timings {
    let start = now_ns();
    let focus = Focus::fit_offline(&inp.ds, shape.focus_config(), shape.seed);
    let fit_s = seconds_since(start);
    let objective = check_fit(gates, reference.as_ref(), focus.prototypes(), inp);
    let centers = bits(focus.prototypes().centers());

    let mut models = shape.models(&inp.ds, focus);
    let t0 = now_ns();
    for m in models.iter_mut() {
        m.train(&inp.ds, &shape.train);
    }
    let train_s = seconds_since(t0);

    let t0 = now_ns();
    let evals: Vec<Metrics> = models
        .iter()
        .map(|m| m.evaluate(&inp.ds, Split::Test, shape.eval_stride))
        .collect();
    let eval_s = seconds_since(t0);

    let mut folds = vec![Metrics::new(); models.len()];
    let mut predict_us = Vec::with_capacity(inp.windows.len());
    for w in &inp.windows {
        let t0 = now_ns();
        let outs: Vec<_> = models.iter().map(|m| m.predict(&w.x)).collect();
        predict_us.push(micros_since(t0));
        let finite = outs.iter().all(|o| o.all_finite());
        gates.op(finite, || {
            format!("predict at window {} is not finite", w.start)
        });
        for (f, o) in folds.iter_mut().zip(&outs) {
            f.update(o, &w.y);
        }
    }
    let wall_s = seconds_since(start);

    let reference = reference.get_or_insert_with(|| Reference {
        objective,
        centers,
        mse: evals.iter().map(|e| e.mse()).collect(),
        mae: evals.iter().map(|e| e.mae()).collect(),
    });
    let labels: Vec<_> = shape.labels().collect();
    check_models(gates, reference, &labels, &evals, &folds);
    Timings {
        fit_s,
        train_s,
        eval_s,
        predict_us,
        wall_s,
    }
}
