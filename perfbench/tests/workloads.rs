//! Every workload, at reduced size and on a seed other than the default,
//! must pass every gate with and without tracing, and emit exactly the
//! metric names `BENCHMARK.json` lists for that mode.

use focus_perfbench::stats::valid_name;
use focus_perfbench::{run, Config, Size, Workload};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// A run sets process-wide state (thread count, tracing), so the tests
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn listed(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    // The metric arrays hold flat objects, so the first `]` closes them.
    let body = &text[start..start + text[start..].find(']').expect("array closed")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name ends")].to_string()
        })
        .collect()
}

fn check(workload: Workload, trace: bool) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&Config {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Reduced,
    });
    let what = format!("{} trace={trace}", workload.name());
    assert!(out.correct(), "{what}: gates failed: {:?}", out.failures);
    assert!(out.attempted > 0 && out.failed == 0, "{what}");
    let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(
        names.len(),
        out.metrics.len(),
        "{what}: a metric is emitted twice"
    );
    for n in &names {
        assert!(valid_name(n), "{what}: bad metric name {n:?}");
    }
    let expected = listed(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        names, expected,
        "{what}: emitted names differ from BENCHMARK.json"
    );
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    if trace {
        let parallel = out
            .metrics
            .iter()
            .find(|m| m.name == "tensor.par_parallel")
            .expect("par counter reported");
        assert_eq!(
            parallel.value, 0.0,
            "{what}: the one-thread pin did not hold"
        );
    }
    let json = out.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn train_workload_passes_its_gates() {
    check(Workload::Train, false);
    check(Workload::Train, true);
}

#[test]
fn offline_workload_passes_its_gates() {
    check(Workload::Offline, false);
    check(Workload::Offline, true);
}

#[test]
fn zoo_workload_passes_its_gates() {
    check(Workload::Zoo, false);
    check(Workload::Zoo, true);
}
