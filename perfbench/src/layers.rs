//! The traced run: per-layer metrics, timed from outside.
//!
//! The benchmark records its own spans, in a `warp_obs` trace, around
//! calls into the crates' public functions; the program's internal
//! `*_traced` spans stay off. Every layer is measured on the
//! workload's own modules:
//!
//! * a layer-by-layer sequential build (parse, sema, phase 2, select,
//!   regalloc, emit, link) next to `compile_module_source`, which it
//!   must match byte for byte;
//! * the threads executor (`compile_parallel`) and its `ThreadReport`;
//! * the farm (`compile_farm`) and its `FarmReport`;
//! * `warpd` requests in the warm/edit/cold rotation, with the reply's
//!   queue and compile times and the daemon's cache counters;
//! * the wire frames and the download encoder on the real payloads.
//!
//! The workload's own op (threads for `fig6`, farm for
//! `callheavy-farm`, requests for `warpd-mix`) gets the largest share
//! and alternates traced and untraced periods, which gives
//! `trace.overhead_ratio`. Every metric is then derived from the
//! trace, which is written as Chrome JSON and validated.

use crate::check::{self, Reference};
use crate::inputs::{Class, Workload};
use crate::measure::{median, ms, Budget, CpuTimes};
use crate::workloads::{farm_config, prepare, service_loop, Outcome, Prepared, RunConfig};
use parcc::{compile_farm, compile_module_source, compile_parallel, CompileOptions, CompileResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use warp_obs::{ClockDomain, Trace, TraceSnapshot};
use warp_service::{Request, RequestOptions, Response, MAX_FRAME_DEFAULT};

/// Span category of every benchmark span.
const CAT: &str = "bench";

/// Ops each probe runs at least, however short the run.
const MIN_PROBE_OPS: usize = 3;

/// Ops the workload's own probe runs at least: two traced and two
/// untraced periods.
const MIN_OWN_OPS: usize = 40;

/// The sequential layers, in pipeline order.
const LAYERS: [&str; 7] = [
    "lang.parse",
    "lang.sema",
    "ir.phase2",
    "codegen.select",
    "codegen.regalloc",
    "codegen.emit",
    "link",
];

/// Exact counts of one layer-by-layer build.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    insts: usize,
    ii_tried: u64,
    pipelined: usize,
    total_ii: u64,
    spills: usize,
}

/// Per-build time of each sequential layer. A build makes one span per
/// layer, on the layer's own track: it starts at the layer's first call
/// and lasts the summed duration of its calls (the Chrome validator is
/// quadratic in trace size, so per-call spans would not scale).
#[derive(Default)]
struct LayerClock {
    first_ns: [Option<u64>; LAYERS.len()],
    total: [Duration; LAYERS.len()],
    calls: [u32; LAYERS.len()],
}

impl LayerClock {
    /// Times one call into layer `k`.
    fn time<R>(&mut self, trace: &Trace, k: usize, f: impl FnOnce() -> R) -> R {
        self.first_ns[k].get_or_insert_with(|| trace.now_ns());
        let t = Instant::now();
        let r = f();
        self.total[k] += t.elapsed();
        self.calls[k] += 1;
        r
    }

    /// Records the build's layer spans.
    fn record(&self, trace: &Trace, build: usize) {
        for (k, name) in LAYERS.iter().enumerate() {
            if let Some(start) = self.first_ns[k] {
                trace.record_span(
                    CAT,
                    *name,
                    trace.track(name),
                    start,
                    self.total[k].as_nanos() as u64,
                    vec![("build", build as f64), ("calls", f64::from(self.calls[k]))],
                );
            }
        }
    }
}

/// Compiles `source` one public layer call at a time, timing each call
/// and recording the build's layer spans in `trace`.
fn layered_build(source: &str, trace: &Trace, build: usize) -> Result<(Vec<u8>, Counts), String> {
    let opts = CompileOptions::default();
    let mut clock = LayerClock::default();
    let parsed = clock.time(trace, 0, || warp_lang::parser::parse(source));
    if parsed.diagnostics.has_errors() {
        return Err("parse errors".into());
    }
    let (checked, diags) = clock.time(trace, 1, || warp_lang::sema::check(parsed.module));
    if diags.has_errors() {
        return Err("semantic errors".into());
    }
    let mut counts = Counts::default();
    let mut images = Vec::new();
    for (si, section) in checked.module.sections.iter().enumerate() {
        let sigs = &checked.sections[si].signatures;
        for (fi, func) in section.functions.iter().enumerate() {
            let symbols = &checked.sections[si].symbol_tables[fi];
            let p2 = clock
                .time(trace, 2, || {
                    warp_ir::phase2::phase2_opts(func, symbols, sigs, None, None)
                })
                .map_err(|e| e.to_string())?;
            let mut vf = clock.time(trace, 3, || {
                warp_codegen::select(&p2.ir, &p2.loops.pipelinable_blocks())
            });
            let ra = clock
                .time(trace, 4, || warp_codegen::allocate(&mut vf, &opts.cell))
                .map_err(|e| e.to_string())?;
            let (image, emit, _) = clock.time(trace, 5, || {
                warp_codegen::emit_function_with_plans(&vf, opts.max_ii)
            });
            counts.insts += p2.work.optimized_insts;
            counts.ii_tried += u64::from(emit.total_iis_tried);
            counts.pipelined += emit.pipelined_loops;
            counts.total_ii += u64::from(emit.total_ii);
            counts.spills += ra.spilled;
            images.push(image);
        }
    }
    let (module, _) = clock
        .time(trace, 6, || parcc::link_module(&checked, images, &opts))
        .map_err(|e| e.to_string())?;
    clock.record(trace, build);
    Ok((check::encode(&module), counts))
}

/// One executor build: the module, its report's phase-1, compile and
/// link times, and extra arguments for the op span.
type ExecOp = (CompileResult, [Duration; 3], Vec<(&'static str, f64)>);

/// The workload's own op: the probe that runs last and longest.
fn own_probe(w: Workload) -> Probe {
    match w {
        Workload::Fig6 => Probe::Threads,
        Workload::CallheavyFarm => Probe::Farm,
        Workload::WarpdMix => Probe::Service,
    }
}

/// The other probes, in run order, with their share of the run and
/// their op cap (which bounds the trace's size).
const OTHER_PROBES: [(Probe, f64, usize); 5] = [
    (Probe::Layers, 0.2, 48),
    (Probe::Threads, 0.1, 48),
    (Probe::Farm, 0.1, 48),
    (Probe::Service, 0.1, 120),
    (Probe::Wire, 0.05, 48),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Layers,
    Threads,
    Farm,
    Service,
    Wire,
}

/// Whether op `i` of the own probe is traced: alternate periods of ten,
/// so both halves see the same request-class mix.
fn traced_period(i: usize) -> bool {
    (i / 10).is_multiple_of(2)
}

struct Ctx<'a> {
    cfg: &'a RunConfig,
    p: &'a Prepared,
    trace: Trace,
    own: Probe,
    /// Untraced latencies of the own probe, ms.
    untraced: Vec<f64>,
}

impl Ctx<'_> {
    fn reference(&self, i: usize) -> &Reference {
        &self.p.refs[i % self.p.refs.len()]
    }

    fn probe_layers(&mut self, budget: Budget, min_ops: usize, out: &mut Outcome) {
        let track = self.trace.track("layers");
        // Exact counts once over the working set.
        let mut total = Counts::default();
        let mut tokens = 0;
        for (k, r) in self.p.refs.iter().enumerate() {
            match layered_build(&r.source, &Trace::disabled(), k) {
                Ok((bytes, c)) => {
                    if bytes != r.bytes {
                        out.fail("layer-by-layer build differs from compile_module_source".into());
                    }
                    total.insts += c.insts;
                    total.ii_tried += c.ii_tried;
                    total.pipelined += c.pipelined;
                    total.total_ii += c.total_ii;
                    total.spills += c.spills;
                }
                Err(e) => out.fail(format!("layer-by-layer build: {e}")),
            }
            tokens += warp_lang::ParseWork::measure(&r.source).tokens;
        }
        let now = self.trace.now_ns();
        for (name, v) in [
            ("lang.tokens", tokens as f64),
            ("ir.insts", total.insts as f64),
            ("codegen.ii_tried", total.ii_tried as f64),
            ("codegen.pipelined_loops", total.pipelined as f64),
            ("codegen.total_ii", total.total_ii as f64),
            ("codegen.spills", total.spills as f64),
        ] {
            self.trace.counter(name, track, now, v);
        }
        let mut i = 0;
        while budget.allows(i, min_ops) {
            let r = self.reference(i);
            {
                let mut s = self.trace.span(CAT, "seq.compile_module_source", track);
                s.arg("build", i as f64);
                if let Err(e) = compile_module_source(&r.source, &CompileOptions::default()) {
                    out.op_failed(format!("compile_module_source: {e}"));
                }
            }
            match layered_build(&r.source, &self.trace, i) {
                Ok((bytes, _)) if bytes == r.bytes => {}
                Ok(_) => {
                    out.op_failed("layer-by-layer build differs from compile_module_source".into())
                }
                Err(e) => out.op_failed(format!("layer-by-layer build: {e}")),
            }
            i += 1;
            out.attempted += 1;
        }
    }

    /// Builds the working set with one executor, `name` (`threads` or
    /// `farm`), recording per traced build an op span and the spans of
    /// its report's phase-1, compile and link times.
    fn probe_executor(
        &mut self,
        probe: Probe,
        name: &'static str,
        budget: Budget,
        min_ops: usize,
        out: &mut Outcome,
        build: impl Fn(&str) -> Result<ExecOp, String>,
    ) {
        let track = self.trace.track(name);
        let own = self.own == probe;
        let refs = &self.p.refs;
        let mut i = 0;
        while budget.allows(i, min_ops) {
            let r = &refs[i % refs.len()];
            let traced = !own || traced_period(i);
            let start = self.trace.now_ns();
            let t = Instant::now();
            match build(&r.source) {
                Ok((result, parts, args)) => {
                    if traced {
                        let mut at = start;
                        for (part, d) in ["phase1", "compile", "link"].iter().zip(parts) {
                            let d = d.as_nanos() as u64;
                            self.trace.record_span(
                                CAT,
                                format!("{name}.{part}"),
                                track,
                                at,
                                d,
                                vec![],
                            );
                            at += d;
                        }
                        // The op span covers the recording of its parts,
                        // so traced and untraced ops differ by the
                        // cost of tracing.
                        let wall = t.elapsed().as_nanos() as u64;
                        self.trace
                            .record_span(CAT, format!("{name}.op"), track, start, wall, args);
                    } else {
                        self.untraced.push(ms(t.elapsed()));
                    }
                    if check::encode(&result.module_image) != r.bytes {
                        out.op_failed(format!("{name} build differs from compile_module_source"));
                    }
                }
                Err(e) => out.op_failed(format!("{name} build: {e}")),
            }
            i += 1;
            out.attempted += 1;
        }
    }

    fn probe_threads(&mut self, budget: Budget, min_ops: usize, out: &mut Outcome) {
        let jobs = self.cfg.parallelism();
        self.probe_executor(Probe::Threads, "threads", budget, min_ops, out, |src| {
            let (result, report) = compile_parallel(src, &CompileOptions::default(), jobs)
                .map_err(|e| e.to_string())?;
            let busy: f64 = report.per_function.iter().map(|(_, d)| ms(*d)).sum();
            let parts = [report.phase1_wall, report.compile_wall, report.link_wall];
            let args = vec![("busy_ms", busy), ("workers", report.workers as f64)];
            Ok((result, parts, args))
        });
    }

    fn probe_farm(&mut self, budget: Budget, min_ops: usize, out: &mut Outcome) {
        let farm = farm_config(self.cfg);
        let worker_cmd = self.cfg.worker_cmd.clone();
        self.probe_executor(Probe::Farm, "farm", budget, min_ops, out, |src| {
            let cpu0 = CpuTimes::now();
            let res = compile_farm(src, &CompileOptions::default(), &farm);
            let children_ms = CpuTimes::now().children_ms - cpu0.children_ms;
            let (result, report) = res.map_err(|e| e.to_string())?;
            check::workers_gone(&report.worker_pids, &worker_cmd)?;
            let parts = [report.phase1_wall, report.compile_wall, report.link_wall];
            let args = vec![
                ("workers_spawned", report.workers_spawned as f64),
                ("hash_shipped", report.hash_shipped as f64),
                ("cpu_children_ms", children_ms),
            ];
            Ok((result, parts, args))
        });
    }

    fn probe_service(&mut self, budget: Budget, min_ops: usize, out: &mut Outcome) {
        let own = self.own == Probe::Service;
        let trace = self.trace.clone();
        let around = move |i: usize,
                           class: Class,
                           op: &mut dyn FnMut() -> Result<Response, String>|
              -> Result<Response, String> {
            if own && !traced_period(i) {
                return op();
            }
            let track = trace.track(&format!("client {:?}", std::thread::current().id()));
            let mut span = trace.span(CAT, format!("service.{}", class.name()), track);
            let res = op();
            match &res {
                Ok(Response::Compiled {
                    queue_ns,
                    compile_ns,
                    ..
                }) => {
                    span.arg("queue_ms", *queue_ns as f64 / 1e6);
                    span.arg("compile_ms", *compile_ns as f64 / 1e6);
                }
                Ok(Response::Overloaded { .. }) => {
                    trace.instant_now(CAT, "service.overloaded", track)
                }
                _ => {}
            }
            res
        };
        let l = service_loop(
            self.p,
            self.cfg.parallelism(),
            budget,
            min_ops,
            &around,
            None,
            out,
        );
        if own {
            self.untraced.extend(
                l.samples
                    .iter()
                    .filter(|s| !traced_period(s.index) && !s.failed && !s.overloaded)
                    .map(|s| s.ms),
            );
        }
        out.attempted += l.samples.len() as u64;
        out.failed += l
            .samples
            .iter()
            .filter(|s| s.failed || s.overloaded)
            .count() as u64;
        let daemon = self.p.daemon.as_ref().expect("daemon");
        let stats = daemon
            .client()
            .and_then(|mut c| c.cache_stats().map_err(|e| e.to_string()));
        match stats {
            Ok(Response::CacheStats { stats, .. }) => {
                let track = self.trace.track("service");
                let now = self.trace.now_ns();
                let hits = stats.memory_hits + stats.disk_hits;
                let lookups = hits + stats.misses;
                self.trace
                    .counter("cache.lookups", track, now, lookups as f64);
                self.trace.counter(
                    "cache.hit_ratio",
                    track,
                    now,
                    hits as f64 / lookups.max(1) as f64,
                );
                self.trace
                    .counter("cache.stores", track, now, stats.stores as f64);
            }
            other => out.fail(format!("cache-stats: {other:?}")),
        }
    }

    fn probe_wire(&mut self, budget: Budget, min_ops: usize, out: &mut Outcome) {
        let track = self.trace.track("wire");
        let mut i = 0;
        while budget.allows(i, min_ops) {
            let r = self.reference(i);
            let req = Request::Compile {
                id: i as u64 + 1,
                module: r.source.clone(),
                options: RequestOptions::default(),
                jobs: 0,
            }
            .to_json();
            let reply = Response::Compiled {
                id: i as u64 + 1,
                image_hex: warp_wire::to_hex(&r.bytes),
                functions: 1,
                warnings: 0,
                cache_hits: 0,
                cache_misses: 0,
                queue_ns: 0,
                compile_ns: 0,
            }
            .to_json();
            let mut reply_frame = Vec::new();
            if let Err(e) = warp_wire::write_message(&mut reply_frame, &reply) {
                out.fail(format!("reply frame: {e}"));
            }
            let mut sink = Vec::new();
            {
                let _s = self.trace.span(CAT, "wire.request_frame", track);
                if let Err(e) = warp_wire::write_message(&mut sink, &req) {
                    out.fail(format!("request frame: {e}"));
                }
            }
            let back = {
                let _s = self.trace.span(CAT, "wire.reply_frame", track);
                warp_wire::read_message(&mut reply_frame.as_slice(), MAX_FRAME_DEFAULT, || true)
            };
            if !matches!(back, Ok(Ok(ref j)) if *j == reply) {
                out.op_failed("reply frame did not read back".into());
            }
            let bytes = {
                let _s = self.trace.span(CAT, "target.encode", track);
                check::encode(&r.image)
            };
            if bytes != r.bytes {
                out.op_failed("encode is not deterministic".into());
            }
            i += 1;
            out.attempted += 1;
        }
    }
}

/// Durations (ms) of spans named `name`.
fn durs(snap: &TraceSnapshot, name: &str) -> Vec<f64> {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect()
}

/// Per-build sums (ms) of spans named `name`, keyed by build number.
fn per_build(snap: &TraceSnapshot, name: &str) -> BTreeMap<u64, f64> {
    let mut m = BTreeMap::new();
    for s in snap.spans.iter().filter(|s| s.name == name) {
        let build = s.arg("build").unwrap_or(0.0) as u64;
        *m.entry(build).or_insert(0.0) += s.dur_ns as f64 / 1e6;
    }
    m
}

/// Median of argument `key` over spans named `name`.
fn arg_median(snap: &TraceSnapshot, name: &str, key: &str) -> f64 {
    let v: Vec<f64> = snap
        .spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.arg(key))
        .collect();
    median(&v)
}

/// Mean of argument `key` over spans named `name` (for values read at
/// clock-tick resolution, whose median would repeat exactly).
fn arg_mean(snap: &TraceSnapshot, name: &str, key: &str) -> f64 {
    let v: Vec<f64> = snap
        .spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.arg(key))
        .collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn counter(snap: &TraceSnapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .rev()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value)
}

/// Derives every per-layer metric from the trace.
fn derive(snap: &TraceSnapshot, untraced: &[f64], own_op: &str, workers: usize, out: &mut Outcome) {
    let m = &mut out.metrics;
    let builds = per_build(snap, "seq.compile_module_source");
    let n_builds = builds.len();
    let layer_builds: Vec<BTreeMap<u64, f64>> = LAYERS.iter().map(|l| per_build(snap, l)).collect();
    let layer_median = |k: usize| median(&layer_builds[k].values().copied().collect::<Vec<_>>());
    let sum_of = |b: u64, which: &[usize]| -> f64 {
        which
            .iter()
            .map(|&k| layer_builds[k].get(&b).copied().unwrap_or(0.0))
            .sum()
    };
    let all: Vec<usize> = (0..LAYERS.len()).collect();
    let seq_total: Vec<f64> = builds.keys().map(|&b| sum_of(b, &all)).collect();
    let compile_part: Vec<f64> = builds.keys().map(|&b| sum_of(b, &[2, 3, 4, 5])).collect();
    let unattributed: Vec<f64> = builds.iter().map(|(&b, &w)| w - sum_of(b, &all)).collect();

    m.push("lang.parse_ms", layer_median(0), "ms", n_builds);
    m.push("lang.sema_ms", layer_median(1), "ms", n_builds);
    m.push("lang.tokens", counter(snap, "lang.tokens"), "count", 1);
    m.push("link.ms", layer_median(6), "ms", n_builds);
    m.push("ir.phase2_ms", layer_median(2), "ms", n_builds);
    m.push("ir.insts", counter(snap, "ir.insts"), "count", 1);
    m.push("codegen.select_ms", layer_median(3), "ms", n_builds);
    m.push("codegen.regalloc_ms", layer_median(4), "ms", n_builds);
    m.push("codegen.emit_ms", layer_median(5), "ms", n_builds);
    let tried = counter(snap, "codegen.ii_tried");
    let pipelined = counter(snap, "codegen.pipelined_loops");
    m.push("codegen.ii_tried", tried, "count", 1);
    m.push("codegen.ii_yield", pipelined / tried.max(1.0), "ratio", 1);
    m.push("codegen.pipelined_loops", pipelined, "count", 1);
    m.push(
        "codegen.total_ii",
        counter(snap, "codegen.total_ii"),
        "count",
        1,
    );
    m.push(
        "codegen.spills",
        counter(snap, "codegen.spills"),
        "count",
        1,
    );
    m.push(
        "layers.unattributed_ms",
        median(&unattributed),
        "ms",
        n_builds,
    );

    let t_op = durs(snap, "threads.op");
    let t_n = t_op.len();
    m.push(
        "threads.phase1_ms",
        median(&durs(snap, "threads.phase1")),
        "ms",
        t_n,
    );
    m.push(
        "threads.compile_ms",
        median(&durs(snap, "threads.compile")),
        "ms",
        t_n,
    );
    m.push(
        "threads.link_ms",
        median(&durs(snap, "threads.link")),
        "ms",
        t_n,
    );
    let busy: Vec<f64> = snap
        .spans
        .iter()
        .filter(|s| s.name == "threads.op")
        .zip(durs(snap, "threads.compile"))
        .map(|(s, compile)| {
            s.arg("busy_ms").unwrap_or(0.0) / (compile * s.arg("workers").unwrap_or(1.0)).max(1e-9)
        })
        .collect();
    m.push("threads.busy_ratio", median(&busy), "ratio", t_n);
    let parts_sum = |prefix: &str| -> Vec<f64> {
        let p = durs(snap, &format!("{prefix}.phase1"));
        let c = durs(snap, &format!("{prefix}.compile"));
        let l = durs(snap, &format!("{prefix}.link"));
        durs(snap, &format!("{prefix}.op"))
            .iter()
            .enumerate()
            .map(|(k, w)| w - p[k] - c[k] - l[k])
            .collect()
    };
    m.push(
        "threads.unattributed_ms",
        median(&parts_sum("threads")),
        "ms",
        t_n,
    );
    m.push(
        "threads.speedup",
        median(&seq_total) / median(&t_op).max(1e-9),
        "ratio",
        t_n,
    );

    let f_n = durs(snap, "farm.op").len();
    let farm_compile = median(&durs(snap, "farm.compile"));
    m.push(
        "farm.phase1_ms",
        median(&durs(snap, "farm.phase1")),
        "ms",
        f_n,
    );
    m.push("farm.compile_ms", farm_compile, "ms", f_n);
    m.push("farm.link_ms", median(&durs(snap, "farm.link")), "ms", f_n);
    m.push(
        "farm.unattributed_ms",
        median(&parts_sum("farm")),
        "ms",
        f_n,
    );
    m.push(
        "farm.workers_spawned",
        arg_median(snap, "farm.op", "workers_spawned"),
        "count",
        f_n,
    );
    m.push(
        "farm.hash_shipped",
        arg_median(snap, "farm.op", "hash_shipped"),
        "count",
        f_n,
    );
    m.push(
        "farm.dispatch_overhead_ms",
        farm_compile - median(&compile_part) / workers.max(1) as f64,
        "ms",
        f_n,
    );
    m.push(
        "farm.cpu_children_ms",
        arg_mean(snap, "farm.op", "cpu_children_ms"),
        "ms",
        f_n,
    );

    for class in Class::ALL {
        let name = format!("service.{}", class.name());
        let spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == name && s.arg("compile_ms").is_some())
            .collect();
        let client: Vec<f64> = spans.iter().map(|s| s.dur_ns as f64 / 1e6).collect();
        let queue: Vec<f64> = spans.iter().filter_map(|s| s.arg("queue_ms")).collect();
        let compile: Vec<f64> = spans.iter().filter_map(|s| s.arg("compile_ms")).collect();
        let gap: Vec<f64> = (0..spans.len())
            .map(|k| client[k] - queue[k] - compile[k])
            .collect();
        let n = spans.len();
        m.push(format!("{name}.client_ms.p50"), median(&client), "ms", n);
        m.push(format!("{name}.queue_ms.p50"), median(&queue), "ms", n);
        m.push(format!("{name}.compile_ms.p50"), median(&compile), "ms", n);
        m.push(format!("{name}.gap_ms.p50"), median(&gap), "ms", n);
    }
    let overloaded = snap
        .instants
        .iter()
        .filter(|i| i.name == "service.overloaded")
        .count();
    m.push("service.overloaded", overloaded as f64, "count", overloaded);
    m.push("cache.lookups", counter(snap, "cache.lookups"), "count", 1);
    m.push(
        "cache.hit_ratio",
        counter(snap, "cache.hit_ratio"),
        "ratio",
        1,
    );
    m.push("cache.stores", counter(snap, "cache.stores"), "count", 1);

    for name in ["wire.request_frame", "wire.reply_frame", "target.encode"] {
        let d = durs(snap, name);
        m.push(format!("{name}_ms"), median(&d), "ms", d.len());
    }

    // The own op's traced latencies: whole ops for the executors, the
    // traced requests' client spans for the service.
    let traced: Vec<f64> = if own_op == "service" {
        snap.spans
            .iter()
            .filter(|s| s.name.starts_with("service.") && s.arg("compile_ms").is_some())
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    } else {
        durs(snap, &format!("{own_op}.op"))
    };
    m.push(
        "trace.overhead_ratio",
        median(&traced) / median(untraced).max(1e-9) - 1.0,
        "ratio",
        traced.len().min(untraced.len()),
    );
}

/// The traced run of `cfg.workload`: per-layer metrics, plus the
/// Chrome trace written to `out_dir`.
pub fn run_traced(cfg: &RunConfig, out_dir: &Path) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let single = RunConfig {
        setups: 1,
        ..cfg.clone()
    };
    let p = match prepare(&single, true) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let own = own_probe(cfg.workload);
    let mut ctx = Ctx {
        cfg,
        p: &p,
        trace: Trace::new(ClockDomain::Monotonic),
        own,
        untraced: Vec::new(),
    };
    let start = Instant::now();
    let mut plan: Vec<(Probe, f64, usize)> = OTHER_PROBES
        .into_iter()
        .filter(|(probe, ..)| *probe != own)
        .collect();
    plan.push((own, 0.0, usize::MAX));
    for (probe, share, cap) in plan {
        let budget = if probe == own {
            // The own op takes whatever time the other probes left.
            cfg.budget(cfg.seconds - start.elapsed().as_secs_f64(), cap)
        } else {
            cfg.budget(cfg.seconds * share, cap)
        };
        let min_ops = if probe == own {
            MIN_OWN_OPS
        } else {
            MIN_PROBE_OPS
        };
        let trace = ctx.trace.clone();
        let _s = trace.span(CAT, format!("probe {probe:?}"), trace.track("bench"));
        let (t, before) = (Instant::now(), out.attempted);
        match probe {
            Probe::Layers => ctx.probe_layers(budget, min_ops, &mut out),
            Probe::Threads => ctx.probe_threads(budget, min_ops, &mut out),
            Probe::Farm => ctx.probe_farm(budget, min_ops, &mut out),
            Probe::Service => ctx.probe_service(budget, min_ops, &mut out),
            Probe::Wire => ctx.probe_wire(budget, min_ops, &mut out),
        }
        println!(
            "probe {probe:?}: {} ops in {:.2} s",
            out.attempted - before,
            t.elapsed().as_secs_f64()
        );
    }
    let snap = ctx.trace.snapshot();
    let own_op = match own {
        Probe::Threads => "threads",
        Probe::Farm => "farm",
        _ => "service",
    };
    derive(&snap, &ctx.untraced, own_op, cfg.parallelism(), &mut out);

    let json = warp_obs::to_chrome_json(&snap);
    match warp_obs::validate_chrome_json(&json) {
        Ok(_) => {
            let path = out_dir.join(format!(
                "trace-{}-seed{}.json",
                cfg.workload.name(),
                cfg.seed
            ));
            let written =
                std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, json));
            match written {
                Ok(()) => println!("trace: {}", path.display()),
                Err(e) => out.fail(format!("writing {}: {e}", path.display())),
            }
        }
        Err(e) => out.fail(format!("trace does not validate: {e}")),
    }
    if let Some(d) = p.daemon {
        d.stop();
    }
    out
}
