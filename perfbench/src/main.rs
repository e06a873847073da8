//! Wall-clock benchmark of the replicated database over tcpnet.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pbr-bank --seed 1 --seconds 10 --trace 0 \
//!     --shards 2 --load pbr-bank=8000:24 ...
//! ```
//!
//! Prints every metric with its unit on standard error, and as the last
//! line of standard output one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones, with `--trace 1` the per-layer ones. Exits non-zero if an output
//! check failed. See `perfbench/README.md`.

mod client;
mod layers;
mod model;
mod run;
mod schedule;
mod stats;
mod trace;
mod workload;

use run::{Outcome, Settings};
use std::collections::HashMap;
use std::path::PathBuf;
use workload::Workload;

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds N --trace 0|1 \
         --shards N --load NAME=RATE:POOL [--load ...]"
    );
    std::process::exit(2);
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    shards: usize,
    loads: HashMap<String, (f64, usize)>,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

/// `NAME=RATE:POOL`.
fn parse_load(value: &str) -> Option<(String, f64, usize)> {
    let (name, spec) = value.split_once('=')?;
    let (rate, pool) = spec.split_once(':')?;
    let (rate, pool): (f64, usize) = (rate.parse().ok()?, pool.parse().ok()?);
    (rate > 0.0 && pool > 0).then(|| (name.to_string(), rate, pool))
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut shards) = (None, 0, 10.0f64, false, 2);
    let mut loads = HashMap::new();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = parse(&flag, &value),
            "--seconds" => seconds = parse(&flag, &value),
            "--trace" => trace = parse::<u8>(&flag, &value) == 1,
            "--shards" => shards = parse(&flag, &value),
            "--load" => {
                let (name, rate, pool) = parse_load(&value)
                    .unwrap_or_else(|| usage(&format!("bad value for --load: {value}")));
                loads.insert(name, (rate, pool));
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        shards: shards.max(1),
        loads,
    }
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let name = args.workload.name;
    let &(rate, pool) = args
        .loads
        .get(name)
        .unwrap_or_else(|| usage(&format!("no --load given for {name}")));
    let settings = Settings {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        shards: args.shards,
        rate,
        pool,
    };
    // Durable storage and scratch files stay inside the working directory.
    let scratch = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    std::env::set_var("TMPDIR", &scratch);
    let outcome = if args.trace {
        run::traced(&settings, &scratch)
    } else {
        run::end_to_end(&settings)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    eprintln!(
        "perfbench {name} seed {} ({} s, trace {}): {} attempted, {} failed, correct {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
