//! Golden-file test pinning the output and the work of phase 3.
//!
//! For three programs — the paper's Figure 6 module (`S_8` of
//! `f_medium`), the §4.3 user program, and eight large functions with
//! loop unrolling — the test compiles the module sequentially and
//! records a stable digest of the encoded download image, its length,
//! the summed phase-3 work counters and the phase-1 work units. The
//! cost model turns those counters into the 1989 figures, so a change
//! to the scheduler that keeps the bytes but changes the work (or the
//! other way round) shows up here. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test phase3_golden
//! ```

use parcc::{compile_module_source, compile_parallel, CompileOptions, CompileResult};
use warp_cache::StableHasher;
use warp_ir::UnrollPolicy;
use warp_target::download;
use warp_workload::{synthetic_program, user_program, FunctionSize};

const GOLDEN: &str = "tests/golden/phase3_work.txt";

fn unrolled() -> CompileOptions {
    CompileOptions {
        unroll: Some(UnrollPolicy::default()),
        ..CompileOptions::default()
    }
}

/// The pinned (name, source, options) cases.
fn cases() -> Vec<(&'static str, String, CompileOptions)> {
    vec![
        (
            "fig6",
            synthetic_program(FunctionSize::Medium, 8),
            CompileOptions::default(),
        ),
        ("user", user_program(), CompileOptions::default()),
        (
            "large8_unroll",
            synthetic_program(FunctionSize::Large, 8),
            unrolled(),
        ),
    ]
}

/// Stable digest and length of the encoded module. Tests compare these
/// rather than the bytes, so a mismatch prints two short lines.
fn fingerprint(result: &CompileResult) -> (u64, usize) {
    let bytes = download::encode(&result.module_image).expect("encode");
    (StableHasher::new().bytes(&bytes).finish(), bytes.len())
}

/// One golden line: the case name and every pinned figure.
fn summary(name: &str, result: &CompileResult) -> String {
    let (digest, bytes) = fingerprint(result);
    let sum = |f: fn(&parcc::FunctionRecord) -> u64| result.records.iter().map(f).sum::<u64>();
    format!(
        "{name} digest={digest:016x} bytes={bytes} modulo_attempts={} list_attempts={} \
         dep_tests={} words={} phase1_units={} parse_units={}",
        sum(|r| r.p3.modulo_attempts as u64),
        sum(|r| r.p3.list_attempts as u64),
        sum(|r| r.p3.dep_tests as u64),
        sum(|r| u64::from(r.p3.words)),
        result.phase1_units,
        sum(|r| r.parse_units),
    )
}

#[test]
fn phase3_output_and_work_match_golden() {
    let mut text = String::new();
    for (name, source, opts) in cases() {
        let result = compile_module_source(&source, &opts).expect("compile");
        text.push_str(&summary(name, &result));
        text.push('\n');
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, golden,
        "phase-3 output or work changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Spill slots are handed out in a fixed order, so an unrolled module
/// that spills encodes to the same bytes on every compile — including
/// compiles in one process, where every hash set gets its own seed.
#[test]
fn unrolled_spilling_module_is_byte_identical_across_compiles() {
    let source = synthetic_program(FunctionSize::Large, 8);
    let opts = unrolled();
    let first = compile_module_source(&source, &opts).expect("compile");
    assert!(
        first.records.iter().any(|r| r.p3.spills > 1),
        "the case must spill more than one register in some function"
    );
    let expected = fingerprint(&first);
    for _ in 1..6 {
        let again = compile_module_source(&source, &opts).expect("compile");
        assert_eq!(fingerprint(&again), expected);
    }
}

#[test]
fn threads_executor_matches_sequential_under_unroll() {
    let opts = unrolled();
    for source in [synthetic_program(FunctionSize::Large, 8), user_program()] {
        let sequential = compile_module_source(&source, &opts).expect("compile");
        let (parallel, _) = compile_parallel(&source, &opts, 2).expect("compile");
        assert_eq!(fingerprint(&parallel), fingerprint(&sequential));
        assert_eq!(parallel.phase1_units, sequential.phase1_units);
    }
}
