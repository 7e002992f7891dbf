#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and a warnings-as-
# errors clippy pass over the whole workspace. CI and pre-merge both run
# exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --workspace --examples --benches"
cargo build --release --workspace --examples --benches

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Pinned two-thread leg: every kernel dispatch crosses the worker pool
# instead of inlining, so barrier/determinism regressions that a 1-core
# default run would never exercise fail here.
echo "==> FOCUS_THREADS=2 cargo test --workspace -q"
FOCUS_THREADS=2 cargo test --workspace -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Static-analysis pass: determinism / panic-hygiene / float-hygiene /
# unsafe-forbid invariants plus the cross-file stale-allow and
# opcode-coverage rules (see DESIGN.md §10, §14). The tool prints its rule
# and finding counts so regressions are visible in CI logs, and exits
# nonzero on any enforced finding.
echo "==> focus-lint crates/ src/"
cargo run -q -p focus-lint --release -- crates/ src/

# Machine-readable lint report: the --json mode is what CI dashboards
# consume, so verify that the schema line and a clean result actually come
# out of the same run the human-readable pass just made.
echo "==> focus-lint --json crates/ src/"
cargo run -q -p focus-lint --release -- --json crates/ src/ | tee /tmp/focus-lint-report.json
grep -q '"schema":"focus-lint-report v1"' /tmp/focus-lint-report.json
grep -q '"enforced":0' /tmp/focus-lint-report.json
grep -q '"io_errors":0' /tmp/focus-lint-report.json

# The lint's own fixture suite: every rule (including the workspace-wide
# clock ban and its single crates/trace/src/clock.rs exemption) must keep
# firing on its positive fixture and staying silent on its negative one.
echo "==> cargo test -p focus-lint -q"
cargo test -p focus-lint -q

# Repository benchmark: perfbench is its own cargo workspace, so the
# workspace test legs above never build it. Its tests run every workload at
# reduced size in both modes and require every gate to hold and the emitted
# metric names to equal BENCHMARK.json's lists.
echo "==> cargo test --release --manifest-path perfbench/Cargo.toml"
cargo test --release --manifest-path perfbench/Cargo.toml

# Steady-state train-step benchmark: measures the fused/pooled path against
# the reference path at 1/2/4 threads and rewrites BENCH_trainstep.json.
# Asserts internally that steady-state training performs zero fresh pool
# allocations, so a pool regression fails verification here too.
echo "==> cargo bench -p focus-bench --bench trainstep"
cargo bench -p focus-bench --bench trainstep

# Trace self-check: the bench must have produced a schema-versioned run
# report with a captured span tree (the bench itself asserts span coverage,
# disabled-mode overhead < 2%, and thread-invariant traces; this guards the
# report wiring end to end).
echo "==> trace report self-check (BENCH_trainstep.json)"
grep -q '"schema": "focus-trace-report v1"' BENCH_trainstep.json
grep -q '"spans"' BENCH_trainstep.json

# Compiled-plan self-check: the bench's plan arm must have recorded the plan
# counters (instruction/slot counts, steady-state pool lookups pinned at
# zero) and the plan-over-interpreter speedup metric. The bench itself
# asserts speedup >= 1.10x and bitwise parity with the interpreter; this
# guards that those numbers actually landed in the committed report.
echo "==> compiled-plan self-check (BENCH_trainstep.json)"
grep -q '"plan_instrs"' BENCH_trainstep.json
grep -q '"plan_slots"' BENCH_trainstep.json
grep -q '"plan_pool_lookups_steady": 0' BENCH_trainstep.json
grep -q '"plan_speedup_t1"' BENCH_trainstep.json
grep -q '"plan_after_t1_ns"' BENCH_trainstep.json

# Worker-pool self-check: steady-state training must have spawned zero OS
# threads (the bench asserts it; this guards that the report recorded it)
# and the pool's dispatch counters must have landed in the captured trace.
echo "==> worker-pool self-check (BENCH_trainstep.json)"
grep -q '"steady_state_spawns": 0' BENCH_trainstep.json
grep -q '"par/spawns"' BENCH_trainstep.json
grep -q '"par/parallel"' BENCH_trainstep.json
grep -q '"scaling_efficiency_t2"' BENCH_trainstep.json

echo "verify: OK"
