//! Wall-clock backing for the GEMM assignment + sparse routing rewrite:
//!
//! * composite-distance `assign_all` — serial scalar per-pair sweep vs the
//!   row-lane nearest-prototype kernel, swept across worker threads;
//! * one-hot routing — dense `[B,l,k]·[B,k,d]` bmm vs the `route_gather`
//!   index kernel (and the matching backward: dense `bmm_tn` vs
//!   `route_scatter_add`).
//!
//! Rewrites `BENCH_assign.json` at the repository root — a schema-versioned
//! [`focus_trace::report::RunReport`] — so the numbers are tracked alongside
//! the code; equality metrics (`output_match`) record that the fast paths
//! returned the same assignments / bitwise-identical tensors in this run, at
//! every thread count. The run exits non-zero when any of them is 0.

use focus_cluster::{ClusterConfig, Objective, ProtoUpdate};
use focus_tensor::{par, route, Tensor};
use focus_trace::clock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Best-of-`reps` wall time of `f`, in nanoseconds, after one warm-up call.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = clock::now_ns();
        f();
        best = best.min(clock::now_ns().saturating_sub(start) as f64);
    }
    best
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.3} ms", ns / 1e6)
}

struct Sweep {
    label: &'static str,
    naive_ns: f64,
    /// `(threads, ns)` for the fast path.
    fast: Vec<(usize, f64)>,
    /// Fast path reproduced the baseline's output in this run.
    matches: bool,
}

impl Sweep {
    fn fast_t1(&self) -> f64 {
        self.fast.iter().find(|&&(t, _)| t == 1).map_or(f64::NAN, |&(_, ns)| ns)
    }

    fn report(&self) {
        println!(
            "{}: naive {} | speedup at 1 thread: {:.2}x | output match: {}",
            self.label,
            fmt_ms(self.naive_ns),
            self.naive_ns / self.fast_t1(),
            self.matches
        );
        for &(t, ns) in &self.fast {
            println!("  fast, {t} thread(s): {}", fmt_ms(ns));
        }
    }

    fn to_report(&self, report: &mut focus_trace::report::RunReport) {
        report.metric(&format!("{}/naive_ns", self.label), self.naive_ns);
        for &(t, ns) in &self.fast {
            report.metric(&format!("{}/fast_t{t}_ns", self.label), ns);
        }
        report.metric(&format!("{}/speedup_1_thread", self.label), self.naive_ns / self.fast_t1());
        report.metric(&format!("{}/output_match", self.label), f64::from(u8::from(self.matches)));
    }
}

fn sweep_threads() -> Vec<usize> {
    let mut ts = vec![1usize, 2, 4];
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !ts.contains(&max) {
        ts.push(max);
    }
    ts
}

/// Scalar per-pair sweep vs the row-lane assignment kernel, at the sizes of
/// the recorded `assign_all_20000x32_k64` baseline.
fn bench_assign() -> Sweep {
    let (n, p, k) = (20_000usize, 32usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0xa551);
    let segs = Tensor::randn(&[n, p], 1.0, &mut rng);
    let protos = ClusterConfig::new(k, p)
        .with_objective(Objective::rec_corr(0.2))
        .with_update(ProtoUpdate::ClosedFormMean)
        .with_max_iters(3)
        .fit(&segs, 1);
    let reps = 5;

    par::set_threads(1);
    let naive_ns = time_ns(reps, || {
        black_box(protos.assign_all_scalar(&segs));
    });
    let want = protos.assign_all_scalar(&segs);

    let mut sweep = Sweep {
        label: "assign_all_20000x32_k64",
        naive_ns,
        fast: Vec::new(),
        matches: true,
    };
    for t in sweep_threads() {
        par::set_threads(t);
        sweep.matches &= protos.assign_all(&segs) == want;
        sweep.fast.push((t, time_ns(reps, || {
            black_box(protos.assign_all(&segs));
        })));
    }
    par::set_threads(0);
    sweep
}

/// Dense one-hot bmm vs the sparse gather (forward) and scatter-add
/// (backward) routing kernels at ProtoAttn-scale shapes.
fn bench_routing() -> [Sweep; 2] {
    let (b, l, k, d) = (64usize, 128usize, 64usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0x307e);
    let head = Tensor::randn(&[b, k, d], 1.0, &mut rng);
    let dout = Tensor::randn(&[b, l, d], 1.0, &mut rng);
    let indices: Vec<u32> = (0..b * l).map(|_| rng.gen_range(0..k) as u32).collect();
    let one_hot = route::one_hot_matrix(&indices, b, l, k);
    let reps = 7;

    par::set_threads(1);
    let dense_fwd_ns = time_ns(reps, || {
        black_box(one_hot.bmm(&head));
    });
    let dense_bwd_ns = time_ns(reps, || {
        black_box(one_hot.bmm_tn(&dout));
    });
    let fwd_want = one_hot.bmm(&head);
    let bwd_want = one_hot.bmm_tn(&dout);
    let same = |got: &Tensor, want: &Tensor| got.data().iter().zip(want.data()).all(|(x, y)| x.to_bits() == y.to_bits());

    let mut fwd = Sweep {
        label: "route_gather_b64_l128_k64_d64",
        naive_ns: dense_fwd_ns,
        fast: Vec::new(),
        matches: true,
    };
    let mut bwd = Sweep {
        label: "route_scatter_add_b64_l128_k64_d64",
        naive_ns: dense_bwd_ns,
        fast: Vec::new(),
        matches: true,
    };
    for t in sweep_threads() {
        par::set_threads(t);
        fwd.matches &= same(&route::route_gather(&head, &indices, l), &fwd_want);
        bwd.matches &= same(&route::route_scatter_add(&dout, &indices, k), &bwd_want);
        fwd.fast.push((t, time_ns(reps, || {
            black_box(route::route_gather(&head, &indices, l));
        })));
        bwd.fast.push((t, time_ns(reps, || {
            black_box(route::route_scatter_add(&dout, &indices, k));
        })));
    }
    par::set_threads(0);
    [fwd, bwd]
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("assignment + routing sweep (host cores: {cores})");

    let assign = bench_assign();
    let routing = bench_routing();
    assign.report();
    for s in &routing {
        s.report();
    }

    let mut report = focus_trace::report::RunReport::new("assign");
    report
        .setting("assign", "20000x32 segments, k=64, rec+corr(0.2)")
        .setting("routing", "b=64, l=128, k=64, d=64");
    assign.to_report(&mut report);
    for s in &routing {
        s.to_report(&mut report);
    }
    // Record the worker pool's dispatch stats (par/*) for the whole sweep.
    focus_trace::set_enabled(true);
    par::publish_trace_stats();
    focus_trace::set_enabled(false);
    report.capture_trace();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_assign.json");
    match report.write(path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let failed: Vec<&str> = [&assign].into_iter().chain(&routing).filter(|s| !s.matches).map(|s| s.label).collect();
    if !failed.is_empty() {
        eprintln!("output_match is 0 for {failed:?}: a fast path diverged from its baseline");
        std::process::exit(1);
    }
}
