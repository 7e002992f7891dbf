//! Command line of the repository benchmark:
//!
//! ```text
//! focus-perfbench --workload <train|offline|zoo> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints run settings, the traced span table and any gate failures on
//! stderr, and as the last line of stdout one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 0 only when
//! every gate held.

#![forbid(unsafe_code)]

use focus_perfbench::{run, Config, Size, Workload};
use std::process::ExitCode;

/// Workload seed when none is given.
const DEFAULT_SEED: u64 = 7;
/// Measured seconds when none are given.
const DEFAULT_SECONDS: f64 = 30.0;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Train,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("focus-perfbench: {e}");
            eprintln!("usage: focus-perfbench --workload <train|offline|zoo> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    for (k, v) in &out.settings {
        eprintln!("setting {k} = {v}");
    }
    eprint!("{}", out.spans);
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
