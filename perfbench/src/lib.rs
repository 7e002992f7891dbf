//! The repository benchmark: the whole FOCUS pipeline a user runs —
//! offline segment clustering (Alg. 1), training to early stop, test-split
//! evaluation and per-window `predict` — timed from outside around the
//! public calls of the library crates.
//!
//! A run pins the tensor backend to one thread, builds its inputs from the
//! workload seed, sets up several times (reporting the median), then runs
//! interleaved rounds of fit → train → evaluate → predict until its time is
//! up, so a slow period on a shared host hits every metric alike. Phase
//! timings are upper quartiles over rounds; predict latency percentiles
//! pool every request of the run. With tracing on, untraced and traced rounds alternate and the
//! per-layer metrics come from the traced ones (see [`traced`]).
//!
//! Every round is checked: fits and trainings must repeat bit for bit, the
//! predict outputs folded over the test windows must equal `evaluate`'s
//! MSE/MAE bitwise, nothing may be non-finite, and a traced round must equal
//! the untraced one. Each failed check is a failed operation.

#![forbid(unsafe_code)]

pub mod round;
pub mod stats;
pub mod traced;
pub mod workload;

use round::{Gates, Reference};
use stats::{median, percentile, quartiles, spread};
use std::collections::BTreeMap;
use workload::{Inputs, Shape};

pub use workload::{Size, Workload};

/// Requests a run collects at least, so that p99 has ten samples beyond it.
pub const MIN_PREDICT_SAMPLES: usize = 1_000;
/// Untraced rounds a run makes at least, so the quartiles rest on data.
pub const MIN_ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Iterations of the host calibration loop.
const CALIB_ITERS: u64 = 4_000_000;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Run settings and diagnostics, reported beside the result.
    pub settings: Vec<(String, String)>,
    /// The traced rounds' span tree as a phase table (empty untraced).
    pub spans: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times a fixed serial integer loop: it does no work of the program, so
/// its spread across rounds measures the host, not the code.
fn calibrate() -> f64 {
    let t0 = focus_trace::clock::now_ns();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    round::micros_since(t0)
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload and collects its metrics: the end-to-end set without
/// tracing, the per-layer set with it.
pub fn run(cfg: &Config) -> Outcome {
    // Before any work: one thread, so the pool never dispatches. At two
    // threads on a shared 2-vCPU VM the same run was slower and several
    // times noisier.
    focus_tensor::par::set_threads(1);
    let par_start = focus_tensor::par::stats();
    let shape = Shape::new(cfg.workload, cfg.size, cfg.seed);
    let mut gates = Gates::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = focus_trace::clock::now_ns();
        drop(inputs.take());
        let inp = Inputs::generate(&shape);
        workload::warm_up(&shape, &inp);
        setup_s.push(round::seconds_since(t0));
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one set-up ran");
    focus_tensor::pool::set_steady(true);

    let mut reference: Option<Reference> = None;
    let mut timings = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut calib = Vec::new();
    let start = focus_trace::clock::now_ns();
    loop {
        if cfg.trace {
            calib.push(calibrate());
        }
        timings.push(round::round(&shape, &inp, &mut gates, &mut reference));
        let reference = reference
            .as_ref()
            .expect("the first round sets the reference");
        if cfg.trace {
            calib.push(calibrate());
            traced_rounds.push(traced::round(&shape, &inp, &mut gates, reference));
        }
        let samples: usize = timings.iter().map(|t| t.predict_us.len()).sum();
        if round::seconds_since(start) >= cfg.seconds
            && samples >= MIN_PREDICT_SAMPLES
            && timings.len() >= MIN_ROUNDS
        {
            break;
        }
    }
    let reference = reference.expect("the first round sets the reference");
    let predict_us: Vec<f64> = timings
        .iter()
        .flat_map(|t| t.predict_us.iter().copied())
        .collect();
    let tail = |q: f64| {
        percentile(&predict_us, q).expect("the round loop collects enough predict samples")
    };

    let par = focus_tensor::par::stats();
    let parallel = par.parallel - par_start.parallel;
    gates.op(parallel == 0, || {
        format!("{parallel} kernel dispatches ran on the thread pool at one thread")
    });

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    if !cfg.trace {
        // The upper quartile over rounds, not the median: on a shared
        // 2-vCPU Xeon VM, co-located load slowed the pipeline by up to 1.7x
        // for seconds at a time, so per-round times are bimodal and a run's
        // median flips between the modes with the share of slow rounds.
        // Across ten runs the median of a phase time spread 14-19%, the
        // upper quartile 8-13%.
        let q3 = |f: &dyn Fn(&round::Timings) -> f64| {
            quartiles(&timings.iter().map(f).collect::<Vec<_>>())[2]
        };
        let windows = inp.windows.len() as f64;
        put("setup_s", median(&setup_s), "s");
        put("fit_s", q3(&|t| t.fit_s), "s");
        put("fit_objective", reference.objective, "distance");
        put("train_s", q3(&|t| t.train_s), "s");
        put(
            "test_mse",
            reference.mse.iter().sum::<f64>() / reference.mse.len() as f64,
            "mse",
        );
        put("eval_windows_per_s", windows / q3(&|t| t.eval_s), "1/s");
        put("predict_p50_us", tail(0.50), "us");
        put("predict_p90_us", tail(0.90), "us");
        put("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    } else {
        let probed = traced::probe(&shape, &inp, &mut gates);
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut model_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for t in &traced_rounds {
            for (k, v) in &t.values {
                series.entry(k.clone()).or_default().push(*v);
            }
            for (label, us) in &t.predict_us {
                model_us.entry(label).or_default().extend(us);
            }
        }
        let mut layer: BTreeMap<String, f64> =
            series.iter().map(|(k, v)| (k.clone(), median(v))).collect();
        for (label, us) in &model_us {
            let p50 = percentile(us, 0.5).expect("every traced round predicts every test window");
            layer.insert(format!("baselines.{label}.predict_p50_us"), p50);
        }
        layer.extend(probed);
        let untraced = median(&timings.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        let traced = median(&traced_rounds.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        layer.insert("trace.overhead_share".into(), traced / untraced - 1.0);
        layer.insert("core.predict_p99_us".into(), tail(0.99));
        layer.insert("core.predict_samples".into(), predict_us.len() as f64);
        layer.insert("tensor.par_parallel".into(), parallel as f64);
        layer.insert("host.calib_us".into(), median(&calib));
        layer.insert("host.calib_spread".into(), spread(&calib));
        for (name, value) in &layer {
            put(name, *value, layer_unit(name));
        }
    }
    let nonfinite: Vec<String> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    gates.op(nonfinite.is_empty(), || {
        format!("non-finite metrics: {nonfinite:?}")
    });

    let mut settings = vec![
        ("workload".to_string(), cfg.workload.name().to_string()),
        ("seed".to_string(), cfg.seed.to_string()),
        ("trace".to_string(), u8::from(cfg.trace).to_string()),
        (
            "threads".to_string(),
            focus_tensor::par::max_threads().to_string(),
        ),
        (
            "host_cores".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "FOCUS_THREADS".to_string(),
            std::env::var("FOCUS_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("rounds".to_string(), timings.len().to_string()),
        ("traced_rounds".to_string(), traced_rounds.len().to_string()),
        ("predict_samples".to_string(), predict_us.len().to_string()),
    ];
    if let Some(t) = traced_rounds.first() {
        for off in &t.plans.off {
            settings.push(("plan_off".to_string(), off.clone()));
        }
    }
    Outcome {
        attempted: gates.attempted,
        failed: gates.failed,
        failures: gates.failures,
        metrics,
        settings,
        spans: if cfg.trace {
            focus_trace::report::phase_table(&focus_trace::snapshot_spans())
        } else {
            String::new()
        },
    }
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    let last = name.rsplit('.').next().unwrap_or(name);
    if last.ends_with("_per_s") {
        "1/s"
    } else if last.ends_with("_ms") || last.starts_with("ms_per_") {
        "ms"
    } else if last.ends_with("_us") {
        "us"
    } else if last.ends_with("_mb") {
        "MB"
    } else if last.ends_with("share") || last.ends_with("spread") {
        "ratio"
    } else {
        "count"
    }
}
