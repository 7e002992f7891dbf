//! Throughput benchmark for the tensor backend's hot kernels: serial
//! reference GEMM vs the cache-blocked/tiled path, swept across worker
//! thread counts (1/2/4/max via [`focus_tensor::par::set_threads`]), plus
//! the nearest-prototype `assign_all` sweep.
//!
//! Besides printing per-config timings, the run rewrites
//! `BENCH_kernels.json` at the repository root — a schema-versioned
//! [`focus_trace::report::RunReport`] — so the numbers are tracked
//! alongside the code. Thread scaling beyond the host's core count cannot
//! speed anything up, so the report records the core count next to the
//! sweep. Each sweep also records `output_match`: whether the fast path
//! reproduced its baseline's output (bitwise for the GEMMs, the same
//! assignments for `assign_all`) at every thread count. The run exits
//! non-zero when any of them is 0.

use focus_cluster::{ClusterConfig, Objective, ProtoUpdate};
use focus_tensor::{par, reference, Tensor};
use focus_trace::clock;
use rand::rngs::StdRng;
use rand::SeedableRng;
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
    /// `(threads, ns)` for the tiled path.
    tiled: Vec<(usize, f64)>,
    /// The tiled path reproduced the naive output at every thread count.
    matches: bool,
}

impl Sweep {
    fn tiled_t1(&self) -> f64 {
        self.tiled.iter().find(|&&(t, _)| t == 1).map_or(f64::NAN, |&(_, ns)| ns)
    }

    fn report(&self) {
        println!(
            "{}: naive {} | tiling speedup at 1 thread: {:.2}x | output match: {}",
            self.label,
            fmt_ms(self.naive_ns),
            self.naive_ns / self.tiled_t1(),
            self.matches
        );
        for &(t, ns) in &self.tiled {
            println!("  tiled, {t} thread(s): {}", fmt_ms(ns));
        }
    }

    fn to_report(&self, report: &mut focus_trace::report::RunReport) {
        report.metric(&format!("{}/naive_ns", self.label), self.naive_ns);
        for &(t, ns) in &self.tiled {
            report.metric(&format!("{}/tiled_t{t}_ns", self.label), ns);
        }
        report.metric(
            &format!("{}/tiling_speedup_1_thread", self.label),
            self.naive_ns / self.tiled_t1(),
        );
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

fn bench_gemm(m: usize, k: usize, n: usize) -> [Sweep; 3] {
    let mut rng = StdRng::seed_from_u64(0x6e3a);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
    let at = Tensor::randn(&[k, m], 1.0, &mut rng);
    let reps = 7;

    let mut c = Tensor::zeros(&[m, n]);
    let naive_nn = time_ns(reps, || {
        c.data_mut().fill(0.0);
        reference::gemm(m, k, n, a.data(), b.data(), c.data_mut());
        black_box(c.data());
    });
    let naive_nt = time_ns(reps, || {
        reference::gemm_nt(m, k, n, a.data(), bt.data(), c.data_mut());
        black_box(c.data());
    });
    let naive_tn = time_ns(reps, || {
        c.data_mut().fill(0.0);
        reference::gemm_tn(m, k, n, at.data(), b.data(), c.data_mut());
        black_box(c.data());
    });

    // Reference outputs the tiled products must reproduce bit for bit.
    let reference_out = |f: &dyn Fn(&mut [f32])| {
        let mut out = vec![0.0f32; m * n];
        f(&mut out);
        out
    };
    let want = [
        reference_out(&|c| reference::gemm(m, k, n, a.data(), b.data(), c)),
        reference_out(&|c| reference::gemm_nt(m, k, n, a.data(), bt.data(), c)),
        reference_out(&|c| reference::gemm_tn(m, k, n, at.data(), b.data(), c)),
    ];

    let mut sweeps = [
        Sweep { label: "gemm_256", naive_ns: naive_nn, tiled: Vec::new(), matches: true },
        Sweep { label: "gemm_nt_256", naive_ns: naive_nt, tiled: Vec::new(), matches: true },
        Sweep { label: "gemm_tn_256", naive_ns: naive_tn, tiled: Vec::new(), matches: true },
    ];
    for t in sweep_threads() {
        par::set_threads(t);
        let got = [a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b)];
        for ((sweep, got), want) in sweeps.iter_mut().zip(&got).zip(&want) {
            let same = got.data().iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits());
            sweep.matches &= same;
        }
        sweeps[0].tiled.push((t, time_ns(reps, || {
            black_box(a.matmul(&b));
        })));
        sweeps[1].tiled.push((t, time_ns(reps, || {
            black_box(a.matmul_nt(&bt));
        })));
        sweeps[2].tiled.push((t, time_ns(reps, || {
            black_box(at.matmul_tn(&b));
        })));
    }
    par::set_threads(0);
    sweeps
}

fn bench_assign_all() -> Sweep {
    let (n, p, k) = (20_000usize, 32usize, 64usize);
    let mut rng = StdRng::seed_from_u64(0xa551);
    let segs = Tensor::randn(&[n, p], 1.0, &mut rng);
    let protos = ClusterConfig::new(k, p)
        .with_objective(Objective::RecOnly)
        .with_update(ProtoUpdate::ClosedFormMean)
        .with_max_iters(3)
        .fit(&segs, 1);
    let reps = 5;

    // "Naive" = the serial scalar per-pair sweep the GEMM path replaces.
    par::set_threads(1);
    let naive_ns = time_ns(reps, || {
        black_box(protos.assign_all_scalar(&segs));
    });
    let want = protos.assign_all_scalar(&segs);
    let mut sweep = Sweep { label: "assign_all_20000x32_k64", naive_ns, tiled: Vec::new(), matches: true };
    for t in sweep_threads() {
        par::set_threads(t);
        sweep.matches &= protos.assign_all(&segs) == want;
        sweep.tiled.push((t, time_ns(reps, || {
            black_box(protos.assign_all(&segs));
        })));
    }
    par::set_threads(0);
    sweep
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel throughput sweep (host cores: {cores})");

    let gemm = bench_gemm(256, 256, 256);
    let assign = bench_assign_all();
    for s in &gemm {
        s.report();
    }
    assign.report();

    let mut report = focus_trace::report::RunReport::new("kernels");
    report
        .setting("shape", "256x256x256")
        .setting("assign", "20000x32 segments, k=64, rec-only");
    for s in &gemm {
        s.to_report(&mut report);
    }
    assign.to_report(&mut report);
    // Record the worker pool's dispatch stats (par/*) for the whole sweep.
    focus_trace::set_enabled(true);
    par::publish_trace_stats();
    focus_trace::set_enabled(false);
    report.capture_trace();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match report.write(path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let failed: Vec<&str> = gemm.iter().chain([&assign]).filter(|s| !s.matches).map(|s| s.label).collect();
    if !failed.is_empty() {
        eprintln!("output_match is 0 for {failed:?}: a fast path diverged from its baseline");
        std::process::exit(1);
    }
}
