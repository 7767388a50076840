//! Criterion benches for the schedulers and the host simulator: the
//! master's partitioning cost (paper: "scheduling time"), the
//! discrete-event engine's throughput, and the phase-3 modulo
//! scheduler on the Figure 6 module's loops.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parcc::simspec::{par_spec, seq_spec};
use parcc::{compile_module_source, fcfs, grouped_lpt, CompileOptions, Experiment};
use warp_codegen::mdeps::mdep_graph;
use warp_codegen::vcode::VBlock;
use warp_codegen::{allocate, plan_pipeline, select, DEFAULT_MAX_II};
use warp_netsim::simulate;
use warp_target::config::CellConfig;
use warp_workload::{synthetic_program, FunctionSize};

fn bench_assignment(c: &mut Criterion) {
    let src = synthetic_program(FunctionSize::Small, 8);
    let result = compile_module_source(&src, &CompileOptions::default()).unwrap();
    // Replicate records to larger counts for scaling.
    let mut records = Vec::new();
    while records.len() < 64 {
        records.extend(result.records.iter().cloned());
    }
    let mut group = c.benchmark_group("assignment");
    for n in [8usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("fcfs", n), &n, |b, &n| {
            b.iter(|| fcfs(n, 14))
        });
        group.bench_with_input(BenchmarkId::new("grouped_lpt", n), &n, |b, &n| {
            b.iter(|| grouped_lpt(&records[..n], 5))
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let e = Experiment::default();
    let src = synthetic_program(FunctionSize::Medium, 4);
    let result = compile_module_source(&src, &e.opts).unwrap();
    let assignment = fcfs(result.records.len(), e.model.host.workstations - 1);
    let mut group = c.benchmark_group("netsim");
    group.bench_function("sequential_spec", |b| {
        b.iter(|| simulate(e.model.host, seq_spec(&result, &e.model)))
    });
    group.bench_function("parallel_spec", |b| {
        b.iter(|| simulate(e.model.host, par_spec(&result, &e.model, &assignment)))
    });
    group.finish();
}

fn bench_end_to_end_experiment(c: &mut Criterion) {
    let e = Experiment::default();
    let mut group = c.benchmark_group("experiment");
    group.sample_size(10);
    group.bench_function("medium_n4", |b| {
        b.iter(|| e.synthetic(FunctionSize::Medium, 4).expect("experiment"))
    });
    group.finish();
}

/// The software-pipelinable loop blocks of the Figure 6 module
/// (`S_8` of `f_medium`) after register allocation — the input phase 3
/// hands the modulo scheduler — each with its index in its function.
fn fig6_loop_blocks() -> Vec<(VBlock, usize)> {
    let checked = warp_lang::phase1(&synthetic_program(FunctionSize::Medium, 8)).expect("phase1");
    let mut blocks = Vec::new();
    for (si, section) in checked.module.sections.iter().enumerate() {
        for (fi, f) in section.functions.iter().enumerate() {
            let p2 = warp_ir::phase2::phase2(
                f,
                &checked.sections[si].symbol_tables[fi],
                &checked.sections[si].signatures,
            )
            .expect("phase2");
            let mut vf = select(&p2.ir, &p2.loops.pipelinable_blocks());
            allocate(&mut vf, &CellConfig::default()).expect("regalloc");
            for (i, block) in vf.blocks.into_iter().enumerate() {
                if block.is_pipeline_loop {
                    blocks.push((block, i));
                }
            }
        }
    }
    blocks
}

fn bench_modulo(c: &mut Criterion) {
    let blocks = fig6_loop_blocks();
    let mut group = c.benchmark_group("modulo");
    group.bench_function("mdep_graph_fig6_loops", |b| {
        b.iter(|| {
            blocks
                .iter()
                .map(|(block, _)| mdep_graph(block, true).edges.len())
                .sum::<usize>()
        })
    });
    group.bench_function("plan_pipeline_fig6_loops", |b| {
        b.iter(|| {
            blocks
                .iter()
                .map(|(block, idx)| plan_pipeline(block, *idx, DEFAULT_MAX_II).result.is_ok())
                .filter(|&ok| ok)
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_assignment,
    bench_simulator,
    bench_end_to_end_experiment,
    bench_modulo
);
criterion_main!(benches);
