//! Repeating the whole pipeline must not grow the tensor pool: two identical
//! fit → train → evaluate → predict rounds leave the same number of bytes
//! resident. Buffers the pool did not allocate (window copies, the
//! clustering input) are freed when dropped instead of piling up on the
//! shelves round after round.
//!
//! This file holds exactly one test so the process-global pool counters are
//! not perturbed by unrelated tests sharing the binary.

use focus_core::model::{Focus, FocusConfig};
use focus_core::{Forecaster, TrainOptions};
use focus_data::{Benchmark, MtsDataset, Split};
use focus_tensor::pool;

fn round(ds: &MtsDataset, cfg: &FocusConfig) {
    let mut model = Focus::fit_offline(ds, cfg.clone(), 5);
    let opts = TrainOptions {
        epochs: 2,
        max_windows: 8,
        ..TrainOptions::default()
    };
    model.train(ds, &opts);
    let metrics = model.evaluate(ds, Split::Test, 16);
    assert!(metrics.mse().is_finite(), "evaluation diverged");
    for w in ds.windows(Split::Test, cfg.lookback, cfg.horizon, 64).iter().take(4) {
        let y = model.predict(&w.x);
        assert!(y.data().iter().all(|v| v.is_finite()), "prediction diverged");
    }
}

#[test]
fn repeated_rounds_keep_pool_residency_flat() {
    let ds = MtsDataset::generate(Benchmark::Pems08.scaled(6, 1_600), 13);
    let mut cfg = FocusConfig::new(64, 16);
    cfg.segment_len = 8;
    cfg.n_prototypes = 6;
    cfg.d = 16;
    cfg.readout = 4;
    cfg.cluster_iters = 8;

    round(&ds, &cfg);
    let first = pool::stats().resident_bytes;
    round(&ds, &cfg);
    let second = pool::stats().resident_bytes;
    assert_eq!(second, first, "pool grew by {} bytes in an identical round", second as i64 - first as i64);
}
