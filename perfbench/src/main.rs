//! `perfbench` command line. Normally started through `run.py`, which
//! builds it first; see `README.md`.
//!
//! ```text
//! perfbench --workload <fig6|callheavy-farm|warpd-mix> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! Prints the metric table, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output check failed. Sockets go to `$TMPDIR`; traces to
//! `.perfbench-out/`. The farm worker is the `perfbench-worker` binary
//! next to this one.

use perfbench::inputs::Workload;
use perfbench::layers::run_traced;
use perfbench::report::{result_json, table, END_TO_END, PER_LAYER};
use perfbench::workloads::{run_end_to_end, RunConfig};
use std::path::Path;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Where traced runs write their Chrome traces.
const OUT_DIR: &str = ".perfbench-out";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <fig6|callheavy-farm|warpd-mix> --seed N --seconds S \
         --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let worker_cmd = std::env::current_exe()
        .expect("current executable path")
        .with_file_name("perfbench-worker");
    if !worker_cmd.is_file() {
        usage(&format!("worker binary {} not found", worker_cmd.display()));
    }
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        max_ops: None,
        setups: SETUPS,
        worker_cmd,
        run_dir: std::env::temp_dir(),
    };

    println!(
        "perfbench {} seed={} seconds={} trace={} host_cores={}",
        workload.name(),
        seed,
        seconds,
        u8::from(trace),
        cfg.parallelism()
    );
    let (out, mut names) = if trace {
        (run_traced(&cfg, Path::new(OUT_DIR)), PER_LAYER.to_vec())
    } else {
        (run_end_to_end(&cfg), END_TO_END.to_vec())
    };
    // `warpd-mix` reads its own peak RSS at a fixed request count;
    // `run.py` adds it for the other workloads.
    if !trace && out.metrics.get("peak_rss_mb").is_some() {
        names.push("peak_rss_mb");
    }
    print!("{}", table(&out.metrics));
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let line = result_json(&out, &names);
    println!("{line}");
    if !line.starts_with("{\"correct\": true") {
        std::process::exit(1);
    }
}
