//! End-to-end checks of the benchmark itself: runs at a fixed op count
//! are repeatable, and other seeds run clean.

use perfbench::inputs::Workload;
use perfbench::layers::run_traced;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{run_end_to_end, Outcome, RunConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use warp_wire::json::Json;

/// `(name, unit)` of each metric in a section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = warp_wire::json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| m.str_field(k).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Every metric the run reports under a listed name has the listed unit.
fn units_match(out: &Outcome, section: &str) {
    for (name, unit) in listed(section) {
        if let Some(m) = out.metrics.0.iter().find(|m| m.name == name) {
            assert_eq!(m.unit, unit, "{name}");
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let names = |section| -> Vec<String> { listed(section).into_iter().map(|m| m.0).collect() };
    // `peak_rss_mb` is measured by run.py, which reaps the process, or
    // after a fixed request count that these short runs do not reach.
    let e2e: Vec<String> = names("end_to_end")
        .into_iter()
        .filter(|n| n != "peak_rss_mb")
        .collect();
    assert_eq!(e2e, END_TO_END);
    assert_eq!(names("per_layer"), PER_LAYER);
}

/// A fresh scratch directory per run.
fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "perfbench-test-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `f` with a config whose scratch directory is removed afterwards.
fn with_config<T>(cfg: RunConfig, f: impl FnOnce(&RunConfig) -> T) -> T {
    let out = f(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    out
}

fn config(workload: Workload, seed: u64, max_ops: usize) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.0,
        max_ops: Some(max_ops),
        setups: 1,
        worker_cmd: PathBuf::from(env!("CARGO_BIN_EXE_perfbench-worker")),
        run_dir: scratch(),
    }
}

fn clean(out: &Outcome, what: &str) {
    assert!(out.correct, "{what}: {:?}", out.errors);
    assert_eq!(out.failed, 0, "{what}: {:?}", out.errors);
    assert!(out.attempted > 0, "{what}");
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .get(name)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

#[test]
fn two_runs_at_one_seed_give_identical_counts() {
    for w in Workload::ALL {
        let runs: Vec<Outcome> = (0..2)
            .map(|_| with_config(config(w, 0, 4), run_end_to_end))
            .collect();
        clean(&runs[0], w.name());
        units_match(&runs[0], "end_to_end");
        for name in ["code_words", "gen_cycles"] {
            assert_eq!(value(&runs[0], name), value(&runs[1], name), "{name}");
        }
        let traced: Vec<Outcome> = (0..2)
            .map(|_| {
                let out = with_config(config(w, 0, 20), |cfg| run_traced(cfg, &cfg.run_dir));
                clean(&out, w.name());
                out
            })
            .collect();
        units_match(&traced[0], "per_layer");
        for name in PER_LAYER {
            assert!(traced[0].metrics.get(name).is_some(), "{name} not reported");
        }
        for name in [
            "codegen.ii_tried",
            "codegen.total_ii",
            "cache.lookups",
            "cache.stores",
        ] {
            assert_eq!(value(&traced[0], name), value(&traced[1], name), "{name}");
        }
    }
}

#[test]
fn a_second_seed_runs_clean() {
    for w in Workload::ALL {
        let out = with_config(config(w, 12_345, 3), run_end_to_end);
        clean(&out, w.name());
        assert!(value(&out, "gen_cycles") > 0.0);
    }
}
