//! The end-to-end runs: set-up, the timed closed loop, and the metrics
//! a user of the compiler sees.

use crate::calib::{self, Calibration};
use crate::check::{self, Reference};
use crate::inputs::{Class, Family, Variant, Workload};
use crate::measure::{median, ms, peak_rss_mb, percentile, Budget, CpuTimes, Metrics};
use parcc::{compile_farm, compile_parallel, CompileOptions, FarmConfig};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use warp_service::{Client, DaemonConfig, Endpoint, RequestOptions, Response, Warpd};

/// Ops every timed phase runs at least, so `op_ms.p90` has ten
/// samples beyond it.
pub const MIN_OPS: usize = 100;

/// Requests after which `warpd-mix` reads its peak RSS. The daemon's
/// cache keeps every function an edit or cold request compiles, so
/// memory grows with the requests served; reading it at a fixed count
/// keeps a faster daemon from looking bigger. The end-to-end run
/// serves at least this many requests.
pub const RSS_REQUESTS: usize = 1_000;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Stop each phase after this many ops instead (repeatable runs).
    pub max_ops: Option<usize>,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// The farm worker executable.
    pub worker_cmd: PathBuf,
    /// Directory for sockets and other per-run files.
    pub run_dir: PathBuf,
}

impl RunConfig {
    /// Threads, farm workers and client connections: the host's cores.
    pub fn parallelism(&self) -> usize {
        parcc::default_jobs()
    }

    /// A phase of `seconds` and at most `cap` ops, or exactly
    /// `max_ops` ops (capped) when the run has a fixed op count.
    pub fn budget(&self, seconds: f64, cap: usize) -> Budget {
        match self.max_ops {
            Some(n) => Budget::fixed(n.min(cap)),
            None => Budget::timed(seconds, cap),
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed, were refused or produced wrong output.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Descriptions of failed checks.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a failed op: counted in `failed` and as a failed check.
    pub fn op_failed(&mut self, what: String) {
        self.failed += 1;
        self.fail(what);
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.correct = false;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// A workload set up and ready to run ops.
pub struct Prepared {
    /// The module family.
    pub family: Family,
    /// Reference builds of the base modules.
    pub refs: Vec<Reference>,
    /// The daemon (`warpd-mix` only, and the service probe).
    pub daemon: Option<Daemon>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Set-ups timed.
    pub setups: usize,
}

/// A running in-process `warpd` with the product defaults.
pub struct Daemon {
    warpd: Warpd,
    /// Where clients connect.
    pub endpoint: Endpoint,
}

impl Daemon {
    /// Starts a daemon on a fresh socket in `dir`.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let sock = dir.join(format!(
            "warpd-{}.sock",
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let warpd = Warpd::start(DaemonConfig::new(Endpoint::Unix(sock)))
            .map_err(|e| format!("warpd: {e}"))?;
        let endpoint = warpd.endpoint().clone();
        Ok(Daemon { warpd, endpoint })
    }

    /// A new client connection.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint, Duration::from_secs(5)).map_err(|e| e.to_string())
    }

    /// Stops the daemon and waits for every connection to end.
    pub fn stop(self) {
        self.warpd.stop();
        self.warpd.join();
    }
}

/// One farm build configuration for this host.
pub fn farm_config(cfg: &RunConfig) -> FarmConfig {
    FarmConfig {
        worker_cmd: Some(cfg.worker_cmd.clone()),
        ..FarmConfig::new(cfg.parallelism())
    }
}

/// Compiles `source` with the workload's own executor and returns the
/// encoded module; the farm also proves its workers are gone.
///
/// # Errors
///
/// The compile error or a surviving worker.
pub fn build_op(cfg: &RunConfig, source: &str) -> Result<Vec<u8>, String> {
    let opts = CompileOptions::default();
    match cfg.workload {
        Workload::CallheavyFarm => {
            let farm = farm_config(cfg);
            let (r, report) = compile_farm(source, &opts, &farm).map_err(|e| e.to_string())?;
            check::workers_gone(&report.worker_pids, &cfg.worker_cmd)?;
            Ok(check::encode(&r.module_image))
        }
        _ => {
            let (r, _) =
                compile_parallel(source, &opts, cfg.parallelism()).map_err(|e| e.to_string())?;
            Ok(check::encode(&r.module_image))
        }
    }
}

/// Compiles one module through the daemon; returns the reply.
///
/// # Errors
///
/// Transport failures.
pub fn request(client: &mut Client, source: &str) -> Result<Response, String> {
    client
        .compile(source, RequestOptions::default())
        .map_err(|e| e.to_string())
}

/// Whether `resp` is a compiled module whose bytes are `want_hex`.
pub fn reply_matches(resp: &Response, want_hex: &str) -> bool {
    matches!(resp, Response::Compiled { image_hex, .. } if image_hex == want_hex)
}

/// Sets the workload up `cfg.setups` times and keeps the last one:
/// input generation, reference builds, daemon start and tenant seeding
/// (`warpd-mix`), and two warm-up ops.
///
/// # Errors
///
/// Any set-up failure, including a warm-up op with wrong output.
pub fn prepare(cfg: &RunConfig, with_daemon: bool) -> Result<Prepared, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(Prepared {
            daemon: Some(d), ..
        }) = last.take()
        {
            d.stop();
        }
        let t0 = Instant::now();
        let family = Family::new(cfg.workload, cfg.seed);
        let refs = family
            .bases()
            .iter()
            .map(|s| check::reference(s))
            .collect::<Result<Vec<_>, _>>()?;
        let daemon = if with_daemon {
            let d = Daemon::start(&cfg.run_dir)?;
            let mut c = d.client()?;
            // Seed every tenant cold, then one warm round.
            for _ in 0..2 {
                for r in &refs {
                    let resp = request(&mut c, &r.source)?;
                    if !reply_matches(&resp, &warp_wire::to_hex(&r.bytes)) {
                        return Err(format!("warm-up reply differs: {resp:?}"));
                    }
                }
            }
            Some(d)
        } else {
            for _ in 0..2 {
                if build_op(cfg, &refs[0].source)? != refs[0].bytes {
                    return Err("warm-up build differs from compile_module_source".into());
                }
            }
            None
        };
        times.push(t0.elapsed().as_secs_f64());
        last = Some(Prepared {
            family,
            refs,
            daemon,
            setup_s: 0.0,
            setups: 0,
        });
    }
    let mut p = last.expect("at least one set-up");
    p.setup_s = median(&times);
    p.setups = times.len();
    Ok(p)
}

/// Checks the fixed calls and reports `code_words` and `gen_cycles`.
pub fn exact_counts(p: &Prepared, out: &mut Outcome) {
    let words: u64 = p.refs.iter().map(|r| check::code_words(&r.image)).sum();
    out.metrics
        .push("code_words", words as f64, "count", p.refs.len());
    match check::fixed_calls(&p.family, &p.refs) {
        Ok(cycles) => {
            let calls = p.family.fixed_calls().len();
            out.metrics
                .push("gen_cycles", cycles as f64, "count", calls);
        }
        Err(e) => out.fail(format!("fixed call: {e}")),
    }
}

/// One timed op of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Position of the op in its loop.
    pub index: usize,
    /// Client-observed latency.
    pub ms: f64,
    /// Request class (`warpd-mix`) or `Cold` for builds.
    pub class: Class,
    /// The op failed, was refused or returned wrong output.
    pub failed: bool,
    /// The op was refused with `overloaded`.
    pub overloaded: bool,
}

/// The closed loop's samples plus its wall and CPU time.
#[derive(Debug, Clone, Default)]
pub struct Loop {
    /// Every op, in completion order.
    pub samples: Vec<OpSample>,
    /// Wall time from the first op's start to the last op's end.
    pub wall_s: f64,
    /// CPU of the process and its reaped children over the loop.
    pub cpu_ms: f64,
    /// Peak RSS when the [`RSS_REQUESTS`]th request completed.
    pub peak_rss_mb: Option<f64>,
}

/// Runs back-to-back cold builds of the base module until `budget`
/// ends. `ops_per_s` divides by the time spent building, so the
/// untimed output check after each build does not count.
pub fn build_loop(
    cfg: &RunConfig,
    p: &Prepared,
    budget: Budget,
    cal: &Calibration,
    out: &mut Outcome,
) -> Loop {
    let reference = &p.refs[0];
    let mut samples = Vec::new();
    let (cpu0, paused0) = (CpuTimes::now(), cal.paused());
    let mut busy = 0.0;
    while budget.allows(samples.len(), MIN_OPS) {
        let gate = cal.op();
        let t = Instant::now();
        let res = build_op(cfg, &reference.source);
        let dt = ms(t.elapsed());
        drop(gate);
        busy += dt / 1e3;
        let failed = match res {
            Ok(bytes) if bytes == reference.bytes => false,
            Ok(_) => {
                out.fail("build differs from compile_module_source".into());
                true
            }
            Err(e) => {
                out.fail(format!("build failed: {e}"));
                true
            }
        };
        samples.push(OpSample {
            index: samples.len(),
            ms: dt,
            class: Class::Cold,
            failed,
            overloaded: false,
        });
    }
    Loop {
        samples,
        wall_s: busy,
        cpu_ms: CpuTimes::now().since(cpu0) - (cal.paused().cpu_ms - paused0.cpu_ms),
        peak_rss_mb: None,
    }
}

/// Wraps one request: `(index, class, send)`, returns the reply. The
/// traced run records spans here.
pub type Around<'a> = dyn Fn(usize, Class, &mut dyn FnMut() -> Result<Response, String>) -> Result<Response, String>
    + Sync
    + 'a;

/// Digests of the edit and cold replies per variant, checked against
/// local builds after the loop (digests keep the client's memory flat).
type Pending = Mutex<BTreeMap<Variant, Vec<u64>>>;

/// Digest of a reply's image.
fn digest(image_hex: &str) -> u64 {
    let mut h = DefaultHasher::new();
    image_hex.hash(&mut h);
    h.finish()
}

/// Drives the daemon with `clients` closed-loop connections replaying
/// the family's rotation until `budget` ends. Warm replies are checked
/// inline against the reference; edit and cold replies after the loop
/// against a local build. Requests hold `cal`'s gate, when given, so
/// its pauses fall between them; the loop's wall and CPU time leave
/// the pauses out.
pub fn service_loop(
    p: &Prepared,
    clients: usize,
    budget: Budget,
    min_ops: usize,
    around: &Around,
    cal: Option<&Calibration>,
    out: &mut Outcome,
) -> Loop {
    let daemon = p.daemon.as_ref().expect("service loop needs the daemon");
    let warm_hex: Vec<String> = p.refs.iter().map(|r| warp_wire::to_hex(&r.bytes)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rss = Mutex::new(None);
    let samples = Mutex::new(Vec::new());
    let pending: Pending = Mutex::new(BTreeMap::new());
    let errors = Mutex::new(Vec::new());
    let paused = || cal.map(Calibration::paused).unwrap_or_default();
    let (cpu0, paused0) = (CpuTimes::now(), paused());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| {
                let mut client = match daemon.client() {
                    Ok(c) => c,
                    Err(e) => {
                        errors.lock().expect("errors").push(e);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if !budget.allows(i, min_ops) {
                        return;
                    }
                    let variant = p.family.rotation(i);
                    let source = p.family.source(variant);
                    let gate = cal.map(Calibration::op);
                    let t = Instant::now();
                    let res = around(i, variant.class(), &mut || request(&mut client, &source));
                    let dt = ms(t.elapsed());
                    drop(gate);
                    if done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_REQUESTS {
                        *rss.lock().expect("rss") = peak_rss_mb();
                    }
                    let mut sample = OpSample {
                        index: i,
                        ms: dt,
                        class: variant.class(),
                        failed: true,
                        overloaded: false,
                    };
                    match res {
                        Ok(Response::Compiled { image_hex, .. }) => {
                            sample.failed = false;
                            if let Variant::Warm { tenant } = variant {
                                if image_hex != warm_hex[tenant] {
                                    sample.failed = true;
                                    errors
                                        .lock()
                                        .expect("errors")
                                        .push("warm reply differs from the reference".into());
                                }
                            } else {
                                pending
                                    .lock()
                                    .expect("pending")
                                    .entry(variant)
                                    .or_default()
                                    .push(digest(&image_hex));
                            }
                        }
                        Ok(Response::Overloaded { .. }) => sample.overloaded = true,
                        Ok(other) => errors
                            .lock()
                            .expect("errors")
                            .push(format!("unexpected reply {other:?}")),
                        Err(e) => {
                            errors.lock().expect("errors").push(e);
                            samples.lock().expect("samples").push(sample);
                            return;
                        }
                    }
                    samples.lock().expect("samples").push(sample);
                }
            });
        }
    });
    let (cpu, pauses) = (CpuTimes::now().since(cpu0), paused());
    let wall_s = t0.elapsed().as_secs_f64() - (pauses.wall_s - paused0.wall_s);
    let cpu_ms = cpu - (pauses.cpu_ms - paused0.cpu_ms);
    for e in errors.into_inner().expect("errors") {
        out.fail(e);
    }
    let mut samples = samples.into_inner().expect("samples");
    let pending = pending.into_inner().expect("pending");
    let mismatched = verify_pending(&p.family, pending, clients, out);
    // Mark as many edit/cold samples failed as replies mismatched.
    let mut left = mismatched;
    for s in samples
        .iter_mut()
        .filter(|s| s.class != Class::Warm && !s.failed)
    {
        if left == 0 {
            break;
        }
        s.failed = true;
        left -= 1;
    }
    Loop {
        samples,
        wall_s,
        cpu_ms,
        peak_rss_mb: rss.into_inner().expect("rss"),
    }
}

/// Compiles every distinct edit/cold variant locally, on `threads`
/// threads, and counts the daemon replies that differ.
fn verify_pending(
    family: &Family,
    pending: BTreeMap<Variant, Vec<u64>>,
    threads: usize,
    out: &mut Outcome,
) -> usize {
    let items: Vec<(Variant, Vec<u64>)> = pending.into_iter().collect();
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let verdicts: Vec<(usize, Result<usize, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(variant, replies)| {
                            let bad = check::reference(&family.source(*variant)).map(|r| {
                                let want = digest(&warp_wire::to_hex(&r.bytes));
                                replies.iter().filter(|h| **h != want).count()
                            });
                            (replies.len(), bad)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread"))
            .collect()
    });
    let mut mismatched = 0;
    for (replies, verdict) in verdicts {
        match verdict {
            Ok(0) => {}
            Ok(bad) => {
                out.fail("daemon reply differs from a local compile".into());
                mismatched += bad;
            }
            Err(e) => {
                out.fail(format!("local compile failed: {e}"));
                mismatched += replies;
            }
        }
    }
    mismatched
}

/// Adds the loop's end-to-end metrics to `out`, with every time
/// multiplied by `scale` (see [`calib`]).
pub fn loop_metrics(l: &Loop, scale: f64, out: &mut Outcome) {
    let n = l.samples.len();
    let lat: Vec<f64> = l.samples.iter().map(|s| s.ms).collect();
    let failed = l
        .samples
        .iter()
        .filter(|s| s.failed || s.overloaded)
        .count();
    out.attempted += n as u64;
    out.failed += failed as u64;
    out.metrics
        .push("op_ms.p50", percentile(&lat, 0.5) * scale, "ms", n);
    out.metrics
        .push("op_ms.p90", percentile(&lat, 0.9) * scale, "ms", n);
    let ok = (n - failed) as f64;
    out.metrics
        .push("ops_per_s", ok / l.wall_s.max(1e-9) / scale, "1/s", n);
    out.metrics
        .push("cpu_ms_per_op", l.cpu_ms / n.max(1) as f64 * scale, "ms", n);
    out.metrics
        .push("failed_ratio", failed as f64 / n.max(1) as f64, "ratio", n);
}

/// The untraced end-to-end run of `cfg.workload`.
pub fn run_end_to_end(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let is_service = cfg.workload == Workload::WarpdMix;
    let cal = Calibration::new(cfg.parallelism());
    cal.pause(calib::SETUP_PROBES);
    let p = match prepare(cfg, is_service) {
        Ok(p) => p,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let budget = cfg.budget(cfg.seconds, usize::MAX);
    let l = cal.during(|| {
        if is_service {
            service_loop(
                &p,
                cfg.parallelism(),
                budget,
                RSS_REQUESTS,
                &|_, _, op| op(),
                Some(&cal),
                &mut out,
            )
        } else {
            build_loop(cfg, &p, budget, &cal, &mut out)
        }
    });
    let probes = cal.samples();
    let scale = calib::REF_MS / median(&probes);
    loop_metrics(&l, scale, &mut out);
    out.metrics
        .push("setup_s", p.setup_s * scale, "s", p.setups);
    if let Some(mb) = l.peak_rss_mb {
        out.metrics.push("peak_rss_mb", mb, "MB", 1);
    }
    // The measured times, for reading next to the scaled ones.
    out.metrics
        .push("calib.probe_ms", median(&probes), "ms", probes.len());
    let mut measured = Outcome::default();
    loop_metrics(&l, 1.0, &mut measured);
    measured.metrics.push("setup_s", p.setup_s, "s", p.setups);
    for m in measured.metrics.0 {
        out.metrics
            .push(format!("unscaled.{}", m.name), m.value, m.unit, m.samples);
    }
    exact_counts(&p, &mut out);
    if let Some(d) = p.daemon {
        d.stop();
    }
    out
}
