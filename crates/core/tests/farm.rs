//! The build farm against real `warpd-worker` processes.
//!
//! Every test spawns actual OS worker processes (the binary cargo
//! built for this workspace) and talks to them over sockets. The
//! anchor property is the three-way cross-validation the CI `farm`
//! job enforces: sequential `warpcc`, the threaded executor and the
//! multi-process farm must produce bit-identical module images.

use parcc::farm::{compile_farm, FarmConfig};
use parcc::threads::compile_parallel;
use parcc::{compile_module_source, CompileError, CompileOptions, CompileResult};
use std::path::PathBuf;
use std::time::Duration;
use warp_workload::{synthetic_program, FunctionSize};

/// The worker binary cargo built alongside this test.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_warpd-worker"))
}

fn farm_config(workers: usize) -> FarmConfig {
    FarmConfig {
        worker_cmd: Some(worker_bin()),
        ..FarmConfig::new(workers)
    }
}

fn image_bytes(r: &CompileResult) -> Vec<u8> {
    warp_target::download::encode(&r.module_image).expect("encode module")
}

/// A scratch dir under the target temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("warp-farm-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn farm_matches_sequential_and_threads_on_fig6_workload() {
    // The paper's fig. 6 workload: 8 medium functions, one section.
    let src = synthetic_program(FunctionSize::Medium, 8);
    let opts = CompileOptions::default();

    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (threaded, _) = compile_parallel(&src, &opts, 4).expect("threads");
    let (farmed, report) = compile_farm(&src, &opts, &farm_config(4)).expect("farm");

    assert_eq!(
        image_bytes(&sequential),
        image_bytes(&threaded),
        "threads diverged from sequential"
    );
    assert_eq!(
        image_bytes(&sequential),
        image_bytes(&farmed),
        "farm diverged from sequential"
    );
    assert_eq!(sequential.records, farmed.records, "farm records diverged");
    assert_eq!(report.workers_spawned, 4);
    assert_eq!(report.workers_lost, 0);
    assert!(
        report.faults.is_quiet(),
        "healthy build: {:?}",
        report.faults
    );
}

#[test]
fn cold_farm_ships_hashes_warm_farm_ships_nothing() {
    let src = synthetic_program(FunctionSize::Small, 6);
    let opts = CompileOptions::default();
    let scratch = Scratch::new("warm");
    let cfg = FarmConfig {
        cache_dir: Some(scratch.0.join("cache")),
        ..farm_config(3)
    };

    // Cold: every object travels as a content hash through the shared
    // store — never as bytes in the frame.
    let (cold, cold_report) = compile_farm(&src, &opts, &cfg).expect("cold farm");
    let n = cold.records.len();
    assert_eq!(cold_report.cache_hits, 0);
    assert_eq!(cold_report.hash_shipped, n, "{cold_report:?}");
    assert_eq!(cold_report.bytes_shipped, 0, "{cold_report:?}");

    // Warm: every job resolves from the store before dispatch; no
    // worker process is even spawned.
    let (warm, warm_report) = compile_farm(&src, &opts, &cfg).expect("warm farm");
    assert_eq!(warm_report.cache_hits, n);
    assert_eq!(warm_report.workers_spawned, 0, "warm build spawned workers");
    assert_eq!(warm_report.hash_shipped, 0);
    assert_eq!(warm_report.bytes_shipped, 0);
    assert_eq!(image_bytes(&cold), image_bytes(&warm));
    assert_eq!(cold.records, warm.records);
}

#[test]
fn ship_bytes_mode_is_identical_but_pays_in_bytes() {
    let src = synthetic_program(FunctionSize::Small, 5);
    let opts = CompileOptions::default();
    let cfg = FarmConfig {
        ship_bytes: true,
        ..farm_config(2)
    };
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (farmed, report) = compile_farm(&src, &opts, &cfg).expect("farm");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(report.bytes_shipped, farmed.records.len(), "{report:?}");
    assert_eq!(report.hash_shipped, 0, "{report:?}");
}

#[test]
fn tcp_transport_matches_unix() {
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions::default();
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let cfg = FarmConfig {
        tcp: true,
        ..farm_config(2)
    };
    let (farmed, report) = compile_farm(&src, &opts, &cfg).expect("tcp farm");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(report.workers_spawned, 2);
}

#[test]
fn options_travel_the_wire() {
    // Non-default codegen options must reach the workers (the
    // fingerprint handshake would kill the build otherwise) and the
    // output must still match the sequential compile with the same
    // options.
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions {
        inline: Some(warp_ir::InlinePolicy::default()),
        if_convert: Some(warp_ir::IfConvPolicy::default()),
        absint: true,
        ..CompileOptions::default()
    };
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (farmed, _) = compile_farm(&src, &opts, &farm_config(2)).expect("farm");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(sequential.records, farmed.records);
}

#[test]
fn no_worker_processes_or_sockets_outlive_the_build() {
    let src = synthetic_program(FunctionSize::Small, 4);
    let opts = CompileOptions::default();
    let (_, report) = compile_farm(&src, &opts, &farm_config(3)).expect("farm");
    assert_eq!(report.worker_pids.len(), 3);

    // Every worker must be fully reaped: a zombie still has a /proc
    // entry, so an absent (or foreign) /proc/<pid> proves both exit
    // and reaping.
    for pid in &report.worker_pids {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        assert!(
            !cmdline.contains("warpd-worker"),
            "worker {pid} still alive after the build: {cmdline}"
        );
    }

    // The build's scratch dir (socket + private cache) is removed.
    // Only this build's dir is checked: the other tests of this binary
    // run their own farms concurrently, and their dirs exist until
    // those builds return.
    assert!(
        report.scratch_dir.starts_with(std::env::temp_dir()),
        "{}",
        report.scratch_dir.display()
    );
    assert!(
        !report.scratch_dir.exists(),
        "leaked farm dir: {}",
        report.scratch_dir.display()
    );
}

#[test]
fn missing_worker_binary_is_a_clean_error() {
    let src = synthetic_program(FunctionSize::Small, 2);
    let opts = CompileOptions::default();
    let cfg = FarmConfig {
        worker_cmd: Some(PathBuf::from("/nonexistent/warpd-worker")),
        handshake_timeout: Duration::from_millis(500),
        ..FarmConfig::new(2)
    };
    match compile_farm(&src, &opts, &cfg) {
        Err(CompileError::Worker(msg)) => {
            assert!(
                msg.contains("warpd-worker"),
                "error should name the missing binary: {msg}"
            );
        }
        other => panic!("expected a Worker error, got {other:?}"),
    }
}

#[test]
fn farm_of_one_worker_still_works() {
    let src = synthetic_program(FunctionSize::Small, 3);
    let opts = CompileOptions::default();
    let sequential = compile_module_source(&src, &opts).expect("sequential");
    let (farmed, report) = compile_farm(&src, &opts, &farm_config(1)).expect("farm");
    assert_eq!(image_bytes(&sequential), image_bytes(&farmed));
    assert_eq!(report.workers_spawned, 1);
}
