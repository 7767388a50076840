//! The build farm: real multi-process parallel compilation.
//!
//! [`threads`](crate::threads) reproduces the paper's master/worker
//! hierarchy with OS threads inside one process. This module is the
//! distributed version the paper actually ran: a **coordinator**
//! (the master of §3.2) spawns N `warpd-worker` OS processes and
//! drives them over Unix sockets (TCP behind a flag) with the same
//! 4-byte length-prefixed JSON frames as `warpd` ([`warp_wire`]).
//!
//! The division of labour follows §3.2 exactly:
//!
//! * the coordinator runs phase 1 (parse/sema) itself, plans the
//!   per-function schedule from the a-priori cost estimates
//!   ([`grouped_lpt_estimates`]), dispatches compile jobs in LPT
//!   order, and runs phase 4 (link) once every image is back;
//! * each worker receives the module source once at handshake,
//!   re-runs phase 1 locally (parsing is deterministic, so shipping
//!   the source is cheaper and simpler than serializing a checked
//!   AST), then compiles the `(section, function)` pairs it is told
//!   to.
//!
//! Compiled objects travel **content-addressed**: worker and
//! coordinator share one on-disk [`FnCache`]; a worker stores its
//! [`CachedFunction`] under the job's [`CacheKey`] and replies with
//! the hash only. Warm builds therefore ship *no* object bytes at
//! all. `ship_bytes` (or an unshared cache) falls back to hex-encoded
//! objects in the `done` frame.
//!
//! Faults are first-class, reusing the seeded [`ChaosPlan`] of the
//! threaded driver — except the injected faults are now *real*: the
//! coordinator SIGKILLs worker processes mid-job, workers exit
//! without replying, workers stall past the dispatch timeout. Lost
//! workers trigger [`rebalance_after_loss_estimates`] over the
//! surviving stations; jobs whose retry budget runs out are compiled
//! by the coordinator itself (the in-master sequential fallback).
//! Under every injected fault the final [`ModuleImage`] is
//! bit-identical to a sequential `warpcc` build — the farm chaos
//! suite and the `farm` CI job enforce this.
//!
//! The wire protocol is documented in `docs/FARM.md`; `farm` trace
//! spans follow `docs/TRACING.md`.
//!
//! [`ModuleImage`]: warp_target::program::ModuleImage

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use warp_cache::{CacheKey, CacheValue};
use warp_obs::{Trace, TrackId};
use warp_wire::{
    from_hex, obj, read_message, to_hex, write_message, FrameError, Json, MAX_FRAME_DEFAULT,
};

use crate::driver::{
    compile_function, link_module_parallel_traced, prepare_module_parallel_traced,
    prepare_module_traced, CompileError, CompileOptions, CompileResult,
};
use crate::fncache::{function_key, options_fingerprint, CachedFunction, FnCache};
use crate::scheduler::{grouped_lpt_estimates, rebalance_after_loss_estimates, Assignment};
use crate::threads::{ChaosAction, ChaosPlan, RetryPolicy};

/// Version of the coordinator↔worker handshake. A worker whose
/// `hello` carries a different number is rejected before any source
/// is shipped.
pub const FARM_PROTOCOL_VERSION: u32 = 1;

/// Configuration of one farm build.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker processes to spawn.
    pub workers: usize,
    /// Shared on-disk object store. `None` uses a private directory
    /// under the farm's temp dir (still shared with the workers, but
    /// discarded after the build).
    pub cache_dir: Option<PathBuf>,
    /// Worker executable. `None` resolves `$WARPD_WORKER`, then a
    /// `warpd-worker` binary next to the current executable.
    pub worker_cmd: Option<PathBuf>,
    /// Use TCP on 127.0.0.1 instead of a Unix socket.
    pub tcp: bool,
    /// Ship compiled objects as hex bytes in the `done` frame even
    /// though a shared cache exists (measures the content-addressing
    /// win; also what an unshared-filesystem deployment would do).
    pub ship_bytes: bool,
    /// Seeded fault injection — `Panic` becomes a real SIGKILL of the
    /// worker process, `Lose` a silent worker exit, `Stall` a worker
    /// sleeping past the dispatch timeout.
    pub chaos: Option<ChaosPlan>,
    /// Per-job timeout / retry budget, as in the threaded driver.
    pub policy: RetryPolicy,
    /// How long the coordinator waits for spawned workers to connect
    /// and complete their handshake.
    pub handshake_timeout: Duration,
}

impl FarmConfig {
    /// A farm of `workers` processes with default policy and a
    /// private temporary cache.
    pub fn new(workers: usize) -> FarmConfig {
        FarmConfig {
            workers: workers.max(1),
            cache_dir: None,
            worker_cmd: None,
            tcp: false,
            ship_bytes: false,
            chaos: None,
            policy: RetryPolicy::default(),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// Counts of injected faults and the recovery actions they forced.
/// All zero on a healthy build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmFaultStats {
    /// Worker processes SIGKILLed mid-job (chaos `Panic`).
    pub kills: usize,
    /// Workers told to exit without replying (chaos `Lose`).
    pub exits: usize,
    /// Jobs whose worker was told to stall past the timeout.
    pub stalls: usize,
    /// Dispatch timeouts that fired.
    pub timeouts: usize,
    /// Jobs re-dispatched after a timeout or worker loss.
    pub retries: usize,
    /// Times the schedule was repaired after losing a worker.
    pub rebalances: usize,
    /// Jobs the coordinator compiled itself after the retry budget
    /// ran out (or every worker died).
    pub coordinator_fallbacks: usize,
}

impl FarmFaultStats {
    /// `true` when no fault was observed and no recovery was needed.
    pub fn is_quiet(&self) -> bool {
        *self == FarmFaultStats::default()
    }
}

/// What one farm build did: timings, worker census, and how results
/// travelled (cache hash vs raw bytes).
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// End-to-end wall time.
    pub wall: Duration,
    /// Phase 1 (coordinator, before any worker exists).
    pub phase1_wall: Duration,
    /// Dispatch + compile (handshake to last result).
    pub compile_wall: Duration,
    /// Phase 4 link (coordinator, after the farm is drained).
    pub link_wall: Duration,
    /// Worker processes that connected and passed the handshake.
    pub workers_spawned: usize,
    /// Workers lost mid-build (killed, exited, or hung up).
    pub workers_lost: usize,
    /// OS pids of every worker spawned (tests use these to prove no
    /// process outlives the build).
    pub worker_pids: Vec<u32>,
    /// The run's scratch directory (socket and private cache). It is
    /// removed before the build returns; tests use the path to prove
    /// that.
    pub scratch_dir: PathBuf,
    /// Jobs resolved from the shared cache before dispatch.
    pub cache_hits: usize,
    /// Results that travelled as a content hash (object read from the
    /// shared store).
    pub hash_shipped: usize,
    /// Results that travelled as hex object bytes in the frame.
    pub bytes_shipped: usize,
    /// Fault counters.
    pub faults: FarmFaultStats,
}

// ---------------------------------------------------------------------------
// Transport: one enum over Unix and TCP streams, and the listener.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum FarmStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl FarmStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            FarmStream::Unix(s) => s.set_read_timeout(d),
            FarmStream::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for FarmStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            FarmStream::Unix(s) => s.read(buf),
            FarmStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for FarmStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            FarmStream::Unix(s) => s.write(buf),
            FarmStream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            FarmStream::Unix(s) => s.flush(),
            FarmStream::Tcp(s) => s.flush(),
        }
    }
}

enum FarmListener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl FarmListener {
    /// Binds under `dir` (Unix) or on an ephemeral loopback port
    /// (TCP); returns the listener and the `--connect` address.
    fn bind(tcp: bool, dir: &Path) -> io::Result<(FarmListener, String)> {
        if tcp {
            let l = TcpListener::bind("127.0.0.1:0")?;
            l.set_nonblocking(true)?;
            let addr = format!("tcp:{}", l.local_addr()?);
            Ok((FarmListener::Tcp(l), addr))
        } else {
            let path = dir.join("farm.sock");
            let l = UnixListener::bind(&path)?;
            l.set_nonblocking(true)?;
            let addr = format!("unix:{}", path.display());
            Ok((FarmListener::Unix(l, path), addr))
        }
    }

    /// Polls for one connection until `deadline`; `Ok(None)` on
    /// timeout.
    fn accept_until(&self, deadline: Instant) -> io::Result<Option<FarmStream>> {
        loop {
            let r = match self {
                FarmListener::Unix(l, _) => l.accept().map(|(s, _)| FarmStream::Unix(s)),
                FarmListener::Tcp(l) => l.accept().map(|(s, _)| FarmStream::Tcp(s)),
            };
            match r {
                Ok(s) => return Ok(Some(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for FarmListener {
    fn drop(&mut self) {
        if let FarmListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Scratch directory for one farm run (socket + private cache),
/// removed on drop. The name is unique per process *and* per farm so
/// parallel tests in one test binary cannot collide.
struct FarmDir(PathBuf);

impl FarmDir {
    fn create() -> io::Result<FarmDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "warp-farm-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(FarmDir(path))
    }
}

impl Drop for FarmDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn worker_command(cfg: &FarmConfig) -> PathBuf {
    if let Some(p) = &cfg.worker_cmd {
        return p.clone();
    }
    if let Ok(p) = std::env::var("WARPD_WORKER") {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    // All workspace binaries land in the same target directory; tests
    // run from target/{profile}/deps, one level deeper.
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent();
        while let Some(d) = dir {
            let cand = d.join("warpd-worker");
            if cand.is_file() {
                return cand;
            }
            dir = d.parent();
        }
    }
    PathBuf::from("warpd-worker")
}

fn worker_err(msg: impl Into<String>) -> CompileError {
    CompileError::Worker(msg.into())
}

// ---------------------------------------------------------------------------
// Handshake (coordinator side) — generic over the stream so the
// protocol tests can drive it with a socketpair.
// ---------------------------------------------------------------------------

/// Runs the coordinator's half of the handshake on one accepted
/// connection: read `hello`, validate the protocol version and worker
/// index, send `welcome`, read `ready`, validate the function count.
/// Returns the worker index the peer claimed and its pid.
pub(crate) fn serve_handshake(
    stream: &mut (impl Read + Write),
    welcome: &Json,
    n_workers: usize,
    n_functions: usize,
    deadline: Instant,
) -> Result<(usize, u32), String> {
    let keep = || Instant::now() < deadline;
    let hello = read_message(stream, MAX_FRAME_DEFAULT, keep)
        .map_err(|e| format!("hello: {e}"))?
        .map_err(|e| format!("hello: {e}"))?;
    if hello.str_field("kind") != Some("hello") {
        return Err("handshake: first frame is not hello".into());
    }
    let proto = hello.u64_field("protocol").unwrap_or(0);
    if proto != u64::from(FARM_PROTOCOL_VERSION) {
        let reject = obj(vec![
            ("kind", Json::Str("reject".into())),
            (
                "reason",
                Json::Str(format!(
                    "farm protocol {proto} != coordinator {FARM_PROTOCOL_VERSION}"
                )),
            ),
        ]);
        let _ = write_message(stream, &reject);
        return Err(format!(
            "handshake: worker speaks protocol {proto}, coordinator speaks {FARM_PROTOCOL_VERSION}"
        ));
    }
    let worker = hello.u64_field("worker").unwrap_or(u64::MAX) as usize;
    if worker >= n_workers {
        let reject = obj(vec![
            ("kind", Json::Str("reject".into())),
            (
                "reason",
                Json::Str(format!("unknown worker index {worker}")),
            ),
        ]);
        let _ = write_message(stream, &reject);
        return Err(format!("handshake: unknown worker index {worker}"));
    }
    let pid = hello.u64_field("pid").unwrap_or(0) as u32;
    write_message(stream, welcome).map_err(|e| format!("welcome: {e}"))?;
    let ready = read_message(stream, MAX_FRAME_DEFAULT, keep)
        .map_err(|e| format!("ready: {e}"))?
        .map_err(|e| format!("ready: {e}"))?;
    match ready.str_field("kind") {
        Some("ready") => {}
        Some("error") => {
            return Err(format!(
                "worker {worker}: {}",
                ready.str_field("message").unwrap_or("unspecified error")
            ));
        }
        _ => return Err(format!("worker {worker}: expected ready frame")),
    }
    let funcs = ready.u64_field("functions").unwrap_or(u64::MAX) as usize;
    if funcs != n_functions {
        return Err(format!(
            "worker {worker} parsed {funcs} functions, coordinator has {n_functions} \
             (non-deterministic front end?)"
        ));
    }
    Ok((worker, pid))
}

fn encode_welcome(
    source: &str,
    opts: &CompileOptions,
    options_fp: u64,
    cache: &str,
    n_functions: usize,
) -> Json {
    obj(vec![
        ("kind", Json::Str("welcome".into())),
        ("module", Json::Str(source.to_string())),
        (
            "options",
            obj(vec![
                ("inline", Json::Bool(opts.inline.is_some())),
                ("ifconv", Json::Bool(opts.if_convert.is_some())),
                ("absint", Json::Bool(opts.absint)),
                ("verify", Json::Bool(opts.verify_each_pass)),
            ]),
        ),
        ("fingerprint", Json::Str(format!("{options_fp:016x}"))),
        ("cache", Json::Str(cache.to_string())),
        ("functions", Json::Num(n_functions as f64)),
    ])
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// What a connection thread decided to do next.
enum Work {
    Dispatch(usize),
    Exit,
}

struct FarmState {
    /// Per-connection dispatch queues (local job indices).
    queues: Vec<VecDeque<usize>>,
    /// Jobs awaiting re-dispatch (any surviving connection may take
    /// one once its backoff deadline passes).
    retries: Vec<(usize, Instant)>,
    /// Dispatch attempts per local job.
    attempts: Vec<usize>,
    /// `true` once a job has a result *or* was abandoned to the
    /// coordinator fallback; settled jobs are skipped everywhere.
    settled: Vec<bool>,
    /// Results per local job.
    results: Vec<Option<CachedFunction>>,
    /// Unsettled jobs.
    remaining: usize,
    /// First deterministic compile failure — aborts the build.
    first_error: Option<CompileError>,
    /// Current schedule over the local jobs (station k+1 ↔ connection
    /// k).
    assignment: Assignment,
    alive: Vec<bool>,
    alive_count: usize,
    /// Stations lost so far, cumulative, for rebalancing.
    lost_stations: Vec<usize>,
    stats: FarmFaultStats,
    hash_shipped: usize,
    bytes_shipped: usize,
    workers_lost: usize,
    finished: bool,
}

impl FarmState {
    fn settle(&mut self, j: usize) -> bool {
        if self.settled[j] {
            return false;
        }
        self.settled[j] = true;
        self.remaining -= 1;
        true
    }
}

struct Shared<'a> {
    st: Mutex<FarmState>,
    cv: Condvar,
    estimates: &'a [u64],
}

impl Shared<'_> {
    /// Records a finished job. Returns true if this settled it.
    fn record(&self, j: usize, cf: CachedFunction, via_hash: bool) -> bool {
        let mut st = self.st.lock().expect("farm lock");
        if st.results[j].is_none() {
            st.results[j] = Some(cf);
        }
        if via_hash {
            st.hash_shipped += 1;
        } else {
            st.bytes_shipped += 1;
        }
        let settled = st.settle(j);
        if settled {
            self.cv.notify_all();
        }
        settled
    }

    /// A dispatch of `j` timed out: re-queue it (with backoff) or
    /// abandon it to the coordinator fallback.
    fn on_timeout(&self, j: usize, policy: &RetryPolicy) {
        let mut st = self.st.lock().expect("farm lock");
        st.stats.timeouts += 1;
        if st.settled[j] {
            return;
        }
        if st.attempts[j] < policy.max_attempts && st.alive_count > 0 {
            let shift = st.attempts[j].saturating_sub(1).min(16) as u32;
            let not_before = Instant::now() + policy.backoff * (1u32 << shift);
            st.retries.push((j, not_before));
            st.stats.retries += 1;
        } else {
            st.settle(j);
        }
        self.cv.notify_all();
    }

    /// Connection `k` is gone: mark its station lost, re-plan the
    /// displaced jobs onto the survivors, abandon what cannot move.
    fn on_worker_lost(&self, k: usize, current: Option<usize>, policy: &RetryPolicy) {
        let mut st = self.st.lock().expect("farm lock");
        if !st.alive[k] {
            return;
        }
        st.alive[k] = false;
        st.alive_count -= 1;
        st.workers_lost += 1;
        st.lost_stations.push(k + 1);

        let mut displaced: Vec<usize> = st.queues[k].drain(..).collect();
        if let Some(j) = current {
            if !st.settled[j] {
                // The in-flight job already burned this attempt.
                if st.attempts[j] < policy.max_attempts {
                    displaced.push(j);
                    st.stats.retries += 1;
                } else {
                    st.settle(j);
                }
            }
        }
        displaced.retain(|&j| !st.settled[j]);

        if st.alive_count == 0 {
            // Every worker is dead: the coordinator takes everything
            // (threads.rs's "master's own machine" case).
            for q in &mut st.queues {
                q.clear();
            }
            st.retries.clear();
            for j in 0..st.settled.len() {
                if !st.settled[j] {
                    st.settle(j);
                }
            }
        } else {
            if !displaced.is_empty() {
                st.stats.rebalances += 1;
            }
            let rebalanced =
                rebalance_after_loss_estimates(&st.assignment, self.estimates, &st.lost_stations);
            for &j in &displaced {
                match rebalanced.workstation[j] {
                    0 => {
                        st.settle(j);
                    }
                    station => st.queues[station - 1].push_back(j),
                }
            }
            st.assignment = rebalanced;
        }
        self.cv.notify_all();
    }

    fn take_work(&self, k: usize) -> Work {
        let mut st = self.st.lock().expect("farm lock");
        loop {
            if st.finished || st.first_error.is_some() || st.remaining == 0 || !st.alive[k] {
                return Work::Exit;
            }
            let now = Instant::now();
            if let Some(pos) = st
                .retries
                .iter()
                .position(|&(j, t)| t <= now && !st.settled[j])
            {
                let (j, _) = st.retries.remove(pos);
                return Work::Dispatch(j);
            }
            {
                let state = &mut *st;
                let settled = &state.settled;
                state.retries.retain(|&(j, _)| !settled[j]);
            }
            while let Some(j) = st.queues[k].pop_front() {
                if !st.settled[j] {
                    return Work::Dispatch(j);
                }
            }
            // Nothing dispatchable right now: sleep until the nearest
            // retry matures (or a state change wakes us).
            let wait = st
                .retries
                .iter()
                .map(|&(_, t)| t.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            let (guard, _) = self.cv.wait_timeout(st, wait).expect("farm lock");
            st = guard;
        }
    }
}

/// Reaps `child`: polite wait with a short grace period, then kill.
/// Never leaves a zombie behind.
fn reap(child: &mut Child, grace: Duration) {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}

/// Compiles `source` on a farm of worker processes. See the module
/// docs for the architecture. Equivalent to
/// [`compile_farm_traced`] with a disabled trace.
///
/// # Errors
///
/// Any phase error from the underlying compiler, or
/// [`CompileError::Worker`] for farm-level failures (no worker
/// connected, worker executable missing).
pub fn compile_farm(
    source: &str,
    opts: &CompileOptions,
    cfg: &FarmConfig,
) -> Result<(CompileResult, FarmReport), CompileError> {
    compile_farm_traced(source, opts, cfg, &Trace::disabled())
}

/// [`compile_farm`], recording `farm` spans into `trace`.
///
/// # Errors
///
/// See [`compile_farm`].
pub fn compile_farm_traced(
    source: &str,
    opts: &CompileOptions,
    cfg: &FarmConfig,
    trace: &Trace,
) -> Result<(CompileResult, FarmReport), CompileError> {
    let t0 = Instant::now();
    let coord = trace.track("farm coordinator");
    let whole = trace.span("farm", "farm build", coord);

    // Phase 1 on the coordinator, before any worker exists.
    let (checked, phase1_units, warnings) =
        prepare_module_parallel_traced(source, opts, cfg.workers, trace, coord)?;
    let phase1_wall = t0.elapsed();

    // The global job list, in source order (== record order).
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut estimates_all: Vec<u64> = Vec::new();
    for (si, section) in checked.module.sections.iter().enumerate() {
        for (fi, f) in section.functions.iter().enumerate() {
            jobs.push((si, fi));
            names.push(f.name.clone());
            estimates_all.push(warp_workload::cost_estimate_of(f, source));
        }
    }
    let n = jobs.len();
    let options_fp = options_fingerprint(opts);

    let dir = FarmDir::create().map_err(|e| worker_err(format!("farm: temp dir: {e}")))?;
    let cache_dir = cfg.cache_dir.clone().unwrap_or_else(|| dir.0.join("cache"));
    let cache = FnCache::with_dir(&cache_dir)
        .map_err(|e| worker_err(format!("farm: cache dir {}: {e}", cache_dir.display())))?;

    // Probe the shared store first: warm jobs never reach a worker.
    let keys: Vec<CacheKey> = (0..n)
        .map(|j| function_key(&checked, source, jobs[j].0, jobs[j].1, options_fp))
        .collect();
    let mut results_all: Vec<Option<CachedFunction>> = vec![None; n];
    let mut cache_hits = 0usize;
    for j in 0..n {
        if let Some(cf) = cache.lookup(keys[j]) {
            results_all[j] = Some(cf);
            cache_hits += 1;
        }
    }

    // Dispatch set: the misses, locally indexed.
    let global_of: Vec<usize> = (0..n).filter(|&j| results_all[j].is_none()).collect();
    let estimates: Vec<u64> = global_of.iter().map(|&j| estimates_all[j]).collect();

    let mut report = FarmReport {
        wall: Duration::ZERO,
        phase1_wall,
        compile_wall: Duration::ZERO,
        link_wall: Duration::ZERO,
        workers_spawned: 0,
        workers_lost: 0,
        worker_pids: Vec::new(),
        scratch_dir: dir.0.clone(),
        cache_hits,
        hash_shipped: 0,
        bytes_shipped: 0,
        faults: FarmFaultStats::default(),
    };

    if !global_of.is_empty() {
        let t_farm = Instant::now();
        run_farm(
            source,
            opts,
            cfg,
            &cache,
            &cache_dir,
            options_fp,
            &jobs,
            &names,
            &keys,
            &global_of,
            &estimates,
            &mut results_all,
            &mut report,
            &dir,
            trace,
            coord,
        )?;
        report.compile_wall = t_farm.elapsed();
    }

    // Coordinator fallback: whatever the farm could not deliver.
    for &j in &global_of {
        if results_all[j].is_none() {
            report.faults.coordinator_fallbacks += 1;
            trace.instant_now("farm", format!("fallback {}", names[j]), coord);
            let (image, record) = compile_function(&checked, source, jobs[j].0, jobs[j].1, opts)?;
            let cf = CachedFunction { image, record };
            cache.store(keys[j], cf.clone());
            results_all[j] = Some(cf);
        }
    }

    let t_link = Instant::now();
    let mut images = Vec::with_capacity(n);
    let mut records = Vec::with_capacity(n);
    for cf in results_all.into_iter().flatten() {
        images.push(cf.image);
        records.push(cf.record);
    }
    let (module_image, link_units) =
        link_module_parallel_traced(&checked, images, opts, cfg.workers, trace, coord)?;
    report.link_wall = t_link.elapsed();
    report.wall = t0.elapsed();
    drop(whole);

    Ok((
        CompileResult {
            module_image,
            records,
            phase1_units,
            link_units,
            warnings,
        },
        report,
    ))
}

/// Spawns the worker processes and drives the dispatch loop. On
/// return every worker process has been reaped and the listener is
/// gone; `results_all` holds whatever the farm delivered.
#[allow(clippy::too_many_arguments)]
fn run_farm(
    source: &str,
    opts: &CompileOptions,
    cfg: &FarmConfig,
    cache: &FnCache,
    cache_dir: &Path,
    options_fp: u64,
    jobs: &[(usize, usize)],
    names: &[String],
    keys: &[CacheKey],
    global_of: &[usize],
    estimates: &[u64],
    results_all: &mut [Option<CachedFunction>],
    report: &mut FarmReport,
    dir: &FarmDir,
    trace: &Trace,
    coord: TrackId,
) -> Result<(), CompileError> {
    let n = jobs.len();
    let m = global_of.len();
    let (listener, addr) =
        FarmListener::bind(cfg.tcp, &dir.0).map_err(|e| worker_err(format!("farm: bind: {e}")))?;

    let cmd = worker_command(cfg);
    let mut children: Vec<Option<Child>> = Vec::new();
    for w in 0..cfg.workers.max(1) {
        let child = Command::new(&cmd)
            .arg("--connect")
            .arg(&addr)
            .arg("--worker")
            .arg(w.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(c) => {
                report.worker_pids.push(c.id());
                children.push(Some(c));
            }
            Err(e) => {
                if w == 0 {
                    return Err(worker_err(format!(
                        "farm: cannot spawn worker `{}`: {e}",
                        cmd.display()
                    )));
                }
                children.push(None);
            }
        }
    }
    let spawned = children.iter().flatten().count();

    // Handshake every worker that shows up before the deadline.
    let cache_field = if cfg.ship_bytes {
        String::new()
    } else {
        cache_dir.display().to_string()
    };
    let welcome = encode_welcome(source, opts, options_fp, &cache_field, n);
    let deadline = Instant::now() + cfg.handshake_timeout;
    // (connection stream, worker index) per handshaken connection.
    let mut conns: Vec<(FarmStream, usize)> = Vec::new();
    while conns.len() < spawned && Instant::now() < deadline {
        let Ok(Some(mut stream)) = listener.accept_until(deadline) else {
            break;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        match serve_handshake(&mut stream, &welcome, children.len(), n, deadline) {
            Ok((w, _pid)) => {
                trace.instant_now("farm", format!("worker {w} ready"), coord);
                conns.push((stream, w));
            }
            Err(e) => {
                eprintln!("warp-farm: handshake failed: {e}");
            }
        }
    }
    let n_conn = conns.len();
    report.workers_spawned = n_conn;
    if n_conn == 0 {
        for c in children.iter_mut().flatten() {
            let _ = c.kill();
            let _ = c.wait();
        }
        return Err(worker_err(format!(
            "farm: no workers connected within {:?} (worker cmd `{}`)",
            cfg.handshake_timeout,
            cmd.display()
        )));
    }

    // Seed the per-connection queues from the LPT plan, dispatching
    // heaviest-first within each queue.
    let assignment = grouped_lpt_estimates(estimates, n_conn);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_conn];
    for j in crate::threads::lpt_dispatch_order(estimates.iter().copied()) {
        queues[assignment.workstation[j] - 1].push_back(j);
    }

    let shared = Shared {
        st: Mutex::new(FarmState {
            queues,
            retries: Vec::new(),
            attempts: vec![0; m],
            settled: vec![false; m],
            results: vec![None; m],
            remaining: m,
            first_error: None,
            assignment,
            alive: vec![true; n_conn],
            alive_count: n_conn,
            lost_stations: Vec::new(),
            stats: FarmFaultStats::default(),
            hash_shipped: 0,
            bytes_shipped: 0,
            workers_lost: 0,
            finished: false,
        }),
        cv: Condvar::new(),
        estimates,
    };

    let wtracks: Vec<TrackId> = conns
        .iter()
        .map(|(_, w)| trace.track(&format!("farm worker {w}")))
        .collect();

    std::thread::scope(|scope| {
        for (k, (stream, w)) in conns.into_iter().enumerate() {
            let child = children[w].take();
            let shared = &shared;
            let track = wtracks[k];
            scope.spawn(move || {
                connection_loop(
                    k, w, stream, child, shared, cfg, jobs, names, keys, global_of, cache, trace,
                    track,
                );
            });
        }

        // Wait for the farm to drain (or fail), then release the
        // connection threads.
        let mut st = shared.st.lock().expect("farm lock");
        while st.remaining > 0 && st.first_error.is_none() {
            let (guard, _) = shared
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .expect("farm lock");
            st = guard;
        }
        st.finished = true;
        shared.cv.notify_all();
        drop(st);
    });

    // Reap stragglers the connection threads did not own (workers
    // that spawned but never finished the handshake).
    for c in children.iter_mut().flatten() {
        reap(c, Duration::from_millis(100));
    }
    drop(listener);

    let st = shared.st.into_inner().expect("farm lock");
    if let Some(e) = st.first_error {
        return Err(e);
    }
    for (local, cf) in st.results.into_iter().enumerate() {
        if let Some(cf) = cf {
            results_all[global_of[local]] = Some(cf);
        }
    }
    report.workers_lost = st.workers_lost;
    report.hash_shipped = st.hash_shipped;
    report.bytes_shipped = st.bytes_shipped;
    report.faults = st.stats;
    Ok(())
}

/// One connection thread: pulls jobs for connection `k`, ships them
/// to worker `w`, collects results, and handles that worker's death.
/// Owns (and always reaps) the worker's `Child`.
#[allow(clippy::too_many_arguments)]
fn connection_loop(
    k: usize,
    w: usize,
    mut stream: FarmStream,
    mut child: Option<Child>,
    shared: &Shared<'_>,
    cfg: &FarmConfig,
    jobs: &[(usize, usize)],
    names: &[String],
    keys: &[CacheKey],
    global_of: &[usize],
    cache: &FnCache,
    trace: &Trace,
    track: TrackId,
) {
    let policy = &cfg.policy;
    let inflight_counter = format!("farm in-flight {w}");
    while let Work::Dispatch(j) = shared.take_work(k) {
        let g = global_of[j];
        let (si, fi) = jobs[g];

        // Decide this attempt's fate before sending, so a Panic can
        // kill the process for real while the job is in flight.
        let (attempt, action) = {
            let mut st = shared.st.lock().expect("farm lock");
            let attempt = st.attempts[j];
            st.attempts[j] += 1;
            let action = cfg
                .chaos
                .as_ref()
                .map_or(ChaosAction::None, |p| p.decide(g, attempt));
            match action {
                ChaosAction::Panic => st.stats.kills += 1,
                ChaosAction::Lose => st.stats.exits += 1,
                ChaosAction::Stall => st.stats.stalls += 1,
                ChaosAction::None => {}
            }
            (attempt, action)
        };
        let (chaos, stall_ms) = match action {
            ChaosAction::None | ChaosAction::Panic => ("none", 0u64),
            ChaosAction::Lose => ("exit", 0),
            ChaosAction::Stall => (
                "stall",
                cfg.chaos
                    .as_ref()
                    .map_or(0, |p| p.stall_for.as_millis() as u64),
            ),
        };
        let frame = obj(vec![
            ("kind", Json::Str("job".into())),
            ("job", Json::Num(j as f64)),
            ("section", Json::Num(si as f64)),
            ("function", Json::Num(fi as f64)),
            ("attempt", Json::Num(attempt as f64)),
            ("key", Json::Str(keys[g].hex())),
            ("chaos", Json::Str(chaos.into())),
            ("stall_ms", Json::Num(stall_ms as f64)),
        ]);
        let ts0 = trace.now_ns();
        trace.counter(&inflight_counter, track, ts0, 1.0);
        if write_message(&mut stream, &frame).is_err() {
            trace.instant_now("farm", format!("worker {w} lost (write)"), track);
            shared.on_worker_lost(k, Some(j), policy);
            break;
        }
        if action == ChaosAction::Panic {
            // The injected fault is a *real* SIGKILL mid-job.
            if let Some(c) = child.as_mut() {
                trace.instant_now("fault", format!("kill worker {w}"), track);
                let _ = c.kill();
            }
        }

        // Collect until our job resolves, the deadline passes, or the
        // worker dies. Late results for *other* jobs (an earlier
        // stall's reply) are recorded as they appear.
        let deadline = Instant::now() + policy.job_timeout;
        let mut lost = false;
        loop {
            let keep = || Instant::now() < deadline;
            match read_message(&mut stream, MAX_FRAME_DEFAULT, keep) {
                Ok(Ok(msg)) => match msg.str_field("kind") {
                    Some("done") => {
                        let jid = msg.u64_field("job").unwrap_or(u64::MAX) as usize;
                        if jid >= global_of.len() {
                            lost = true;
                            break;
                        }
                        let cf = if msg.bool_field("stored").unwrap_or(false) {
                            cache.lookup(keys[global_of[jid]])
                        } else {
                            msg.str_field("image_hex")
                                .and_then(|h| from_hex(h).ok())
                                .and_then(|b| CachedFunction::from_bytes(&b))
                                .inspect(|cf| cache.store(keys[global_of[jid]], cf.clone()))
                        };
                        let Some(cf) = cf else {
                            // Protocol violation (hash announced but
                            // object unreadable): drop the worker.
                            lost = true;
                            break;
                        };
                        let via_hash = msg.bool_field("stored").unwrap_or(false);
                        shared.record(jid, cf, via_hash);
                        if jid == j {
                            trace.record_span(
                                "farm",
                                names[global_of[j]].clone(),
                                track,
                                ts0,
                                trace.now_ns().saturating_sub(ts0),
                                vec![("attempt", attempt as f64)],
                            );
                            break;
                        }
                    }
                    Some("fail") => {
                        let msg = msg
                            .str_field("message")
                            .unwrap_or("unspecified worker failure")
                            .to_string();
                        let mut st = shared.st.lock().expect("farm lock");
                        if st.first_error.is_none() {
                            st.first_error = Some(worker_err(format!("worker {w}: {msg}")));
                        }
                        shared.cv.notify_all();
                        drop(st);
                        lost = true;
                        break;
                    }
                    _ => {}
                },
                Ok(Err(_)) => {
                    lost = true;
                    break;
                }
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::ConnectionAborted => {
                    // The deadline fired, not the transport.
                    trace.instant_now("retry", format!("timeout {}", names[g]), track);
                    shared.on_timeout(j, policy);
                    break;
                }
                Err(_) => {
                    lost = true;
                    break;
                }
            }
        }
        trace.counter(&inflight_counter, track, trace.now_ns(), 0.0);
        if lost {
            trace.instant_now("fault", format!("worker {w} lost"), track);
            if let Some(c) = child.as_mut() {
                let _ = c.kill();
            }
            shared.on_worker_lost(k, Some(j), policy);
            break;
        }
    }

    // Orderly goodbye (ignored if the worker is already gone), then
    // reap the process — never leave a zombie or a stray worker.
    let _ = write_message(&mut stream, &obj(vec![("kind", Json::Str("bye".into()))]));
    drop(stream);
    if let Some(mut c) = child {
        reap(&mut c, Duration::from_secs(2));
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

fn connect(addr: &str) -> Result<FarmStream, String> {
    if let Some(path) = addr.strip_prefix("unix:") {
        UnixStream::connect(path)
            .map(FarmStream::Unix)
            .map_err(|e| format!("connect {path}: {e}"))
    } else if let Some(tcp) = addr.strip_prefix("tcp:") {
        TcpStream::connect(tcp)
            .map(FarmStream::Tcp)
            .map_err(|e| format!("connect {tcp}: {e}"))
    } else {
        Err(format!(
            "bad --connect address `{addr}` (want unix:… or tcp:…)"
        ))
    }
}

fn decode_options(welcome: &Json) -> CompileOptions {
    let o = welcome.get("options");
    let flag = |k: &str| o.and_then(|o| o.bool_field(k)).unwrap_or(false);
    CompileOptions {
        inline: flag("inline").then(warp_ir::InlinePolicy::default),
        if_convert: flag("ifconv").then(warp_ir::IfConvPolicy::default),
        absint: flag("absint"),
        verify_each_pass: flag("verify"),
        ..CompileOptions::default()
    }
}

/// The `warpd-worker` main loop: connect to the coordinator,
/// handshake, compile jobs until `bye` (or the socket closes).
/// Returns the process exit code. Public so the thin `warpd-worker`
/// binary (and the farm tests) can call it.
pub fn run_worker(addr: &str, worker: usize) -> i32 {
    match worker_loop(addr, worker) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("warpd-worker[{worker}]: {e}");
            1
        }
    }
}

fn worker_loop(addr: &str, worker: usize) -> Result<i32, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| format!("set timeout: {e}"))?;

    let hello = obj(vec![
        ("kind", Json::Str("hello".into())),
        ("protocol", Json::Num(f64::from(FARM_PROTOCOL_VERSION))),
        ("worker", Json::Num(worker as f64)),
        ("pid", Json::Num(f64::from(std::process::id()))),
    ]);
    write_message(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;

    let welcome = match read_message(&mut stream, MAX_FRAME_DEFAULT, || true) {
        Ok(Ok(msg)) => msg,
        Ok(Err(e)) => return Err(format!("welcome: {e}")),
        Err(e) => return Err(format!("welcome: {e}")),
    };
    match welcome.str_field("kind") {
        Some("welcome") => {}
        Some("reject") => {
            eprintln!(
                "warpd-worker[{worker}]: rejected: {}",
                welcome.str_field("reason").unwrap_or("unspecified")
            );
            return Ok(2);
        }
        _ => return Err("expected welcome frame".into()),
    }

    let source = welcome
        .str_field("module")
        .ok_or("welcome carries no module source")?
        .to_string();
    let opts = decode_options(&welcome);
    let options_fp = options_fingerprint(&opts);
    // The wire carries only the four boolean options warpcc exposes;
    // the fingerprint proves nothing was lost in translation (an
    // unroll policy, a custom cell config) before we compile anything.
    let coord_fp = welcome.str_field("fingerprint").unwrap_or("");
    if format!("{options_fp:016x}") != coord_fp {
        let err = obj(vec![
            ("kind", Json::Str("error".into())),
            (
                "message",
                Json::Str(format!(
                    "options fingerprint mismatch: coordinator {coord_fp}, worker {options_fp:016x} \
                     (an option the farm wire cannot express?)"
                )),
            ),
        ]);
        let _ = write_message(&mut stream, &err);
        return Ok(2);
    }

    let trace = Trace::disabled();
    let track = trace.track("worker");
    let (checked, _units, _warnings) =
        prepare_module_traced(&source, &opts, &trace, track).map_err(|e| format!("phase1: {e}"))?;
    let n: usize = checked
        .module
        .sections
        .iter()
        .map(|s| s.functions.len())
        .sum();
    let expected = welcome.u64_field("functions").unwrap_or(0) as usize;
    if n != expected {
        let err = obj(vec![
            ("kind", Json::Str("error".into())),
            (
                "message",
                Json::Str(format!(
                    "parsed {n} functions, coordinator announced {expected}"
                )),
            ),
        ]);
        let _ = write_message(&mut stream, &err);
        return Ok(2);
    }

    let cache_path = welcome.str_field("cache").unwrap_or("");
    let cache: Option<FnCache> = if cache_path.is_empty() {
        None
    } else {
        FnCache::with_dir(cache_path).ok()
    };

    let ready = obj(vec![
        ("kind", Json::Str("ready".into())),
        ("worker", Json::Num(worker as f64)),
        ("functions", Json::Num(n as f64)),
    ]);
    write_message(&mut stream, &ready).map_err(|e| format!("ready: {e}"))?;

    loop {
        let msg = match read_message(&mut stream, MAX_FRAME_DEFAULT, || true) {
            Ok(Ok(msg)) => msg,
            Ok(Err(e)) => return Err(format!("bad frame: {e}")),
            Err(FrameError::Closed) => return Ok(0),
            Err(e) => return Err(format!("read: {e}")),
        };
        match msg.str_field("kind") {
            Some("bye") => return Ok(0),
            Some("job") => {
                match msg.str_field("chaos") {
                    // Injected fault: die *silently*, mid-protocol —
                    // the coordinator sees a clean EOF with a job in
                    // flight, exactly a lost workstation.
                    Some("exit") => return Ok(3),
                    Some("stall") => {
                        let ms = msg.u64_field("stall_ms").unwrap_or(0);
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
                let job = msg.u64_field("job").unwrap_or(0);
                let si = msg.u64_field("section").unwrap_or(0) as usize;
                let fi = msg.u64_field("function").unwrap_or(0) as usize;
                let sections = &checked.module.sections;
                if si >= sections.len() || fi >= sections[si].functions.len() {
                    let err = obj(vec![
                        ("kind", Json::Str("fail".into())),
                        ("job", Json::Num(job as f64)),
                        ("message", Json::Str(format!("no function ({si},{fi})"))),
                    ]);
                    if write_message(&mut stream, &err).is_err() {
                        return Ok(0); // coordinator hung up
                    }
                    continue;
                }
                let key = function_key(&checked, &source, si, fi, options_fp);
                if msg.str_field("key") != Some(key.hex().as_str()) {
                    let err = obj(vec![
                        ("kind", Json::Str("fail".into())),
                        ("job", Json::Num(job as f64)),
                        (
                            "message",
                            Json::Str(format!(
                                "cache key mismatch on ({si},{fi}): coordinator {}, worker {}",
                                msg.str_field("key").unwrap_or("?"),
                                key.hex()
                            )),
                        ),
                    ]);
                    if write_message(&mut stream, &err).is_err() {
                        return Ok(0); // coordinator hung up
                    }
                    continue;
                }

                // Another worker may have landed this object already
                // (a retried job): a store hit costs one lookup and
                // ships a hash instead of a compile.
                let cached = cache.as_ref().and_then(|c| c.lookup(key));
                let cf = match cached {
                    Some(cf) => cf,
                    None => match crate::driver::compile_function_traced(
                        &checked, &source, si, fi, &opts, &trace, track,
                    ) {
                        Ok((image, record)) => CachedFunction { image, record },
                        Err(e) => {
                            let err = obj(vec![
                                ("kind", Json::Str("fail".into())),
                                ("job", Json::Num(job as f64)),
                                ("message", Json::Str(e.to_string())),
                            ]);
                            if write_message(&mut stream, &err).is_err() {
                                return Ok(0); // coordinator hung up
                            }
                            continue;
                        }
                    },
                };

                let reply = match &cache {
                    Some(c) => {
                        c.store(key, cf);
                        obj(vec![
                            ("kind", Json::Str("done".into())),
                            ("job", Json::Num(job as f64)),
                            ("key", Json::Str(key.hex())),
                            ("stored", Json::Bool(true)),
                        ])
                    }
                    None => obj(vec![
                        ("kind", Json::Str("done".into())),
                        ("job", Json::Num(job as f64)),
                        ("key", Json::Str(key.hex())),
                        ("stored", Json::Bool(false)),
                        ("image_hex", Json::Str(to_hex(&cf.to_bytes()))),
                    ]),
                };
                if write_message(&mut stream, &reply).is_err() {
                    return Ok(0); // coordinator hung up mid-reply
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn welcome_for_test() -> Json {
        encode_welcome(
            "module m;\nend;\n",
            &CompileOptions::default(),
            0xabcd,
            "",
            3,
        )
    }

    #[test]
    fn handshake_rejects_version_mismatch() {
        let (mut coord_side, mut worker_side) = UnixStream::pair().unwrap();
        coord_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let peer = std::thread::spawn(move || {
            let hello = obj(vec![
                ("kind", Json::Str("hello".into())),
                ("protocol", Json::Num(99.0)),
                ("worker", Json::Num(0.0)),
                ("pid", Json::Num(1.0)),
            ]);
            write_message(&mut worker_side, &hello).unwrap();
            // The coordinator must answer with a reject frame.
            let reply = read_message(&mut worker_side, MAX_FRAME_DEFAULT, || true)
                .unwrap()
                .unwrap();
            assert_eq!(reply.str_field("kind"), Some("reject"));
            assert!(reply.str_field("reason").unwrap().contains("protocol 99"));
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = serve_handshake(&mut coord_side, &welcome_for_test(), 4, 3, deadline)
            .expect_err("version 99 must be rejected");
        assert!(err.contains("protocol 99"), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn handshake_rejects_oversized_hello_frame() {
        let (mut coord_side, mut worker_side) = UnixStream::pair().unwrap();
        coord_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        // A length prefix claiming ~1 GiB: the coordinator must fail
        // the handshake without trying to allocate or read it.
        worker_side
            .write_all(&(1_000_000_000u32).to_le_bytes())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = serve_handshake(&mut coord_side, &welcome_for_test(), 4, 3, deadline)
            .expect_err("an oversized hello must fail the handshake");
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn handshake_rejects_unknown_worker_index() {
        let (mut coord_side, mut worker_side) = UnixStream::pair().unwrap();
        coord_side
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let peer = std::thread::spawn(move || {
            let hello = obj(vec![
                ("kind", Json::Str("hello".into())),
                ("protocol", Json::Num(f64::from(FARM_PROTOCOL_VERSION))),
                ("worker", Json::Num(7.0)),
                ("pid", Json::Num(1.0)),
            ]);
            write_message(&mut worker_side, &hello).unwrap();
            let reply = read_message(&mut worker_side, MAX_FRAME_DEFAULT, || true)
                .unwrap()
                .unwrap();
            assert_eq!(reply.str_field("kind"), Some("reject"));
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let err = serve_handshake(&mut coord_side, &welcome_for_test(), 4, 3, deadline)
            .expect_err("worker index 7 of 4 must be rejected");
        assert!(err.contains("unknown worker index 7"), "{err}");
        peer.join().unwrap();
    }

    #[test]
    fn welcome_round_trips_options() {
        let opts = CompileOptions {
            inline: Some(warp_ir::InlinePolicy::default()),
            absint: true,
            ..CompileOptions::default()
        };
        let fp = options_fingerprint(&opts);
        let w = encode_welcome("src", &opts, fp, "/tmp/cache", 5);
        let decoded = decode_options(&w);
        assert_eq!(options_fingerprint(&decoded), fp);
        assert_eq!(w.str_field("fingerprint").unwrap(), format!("{fp:016x}"));
        assert_eq!(w.u64_field("functions"), Some(5));
    }

    #[test]
    fn connect_rejects_malformed_address() {
        let err = connect("carrier-pigeon:coop").unwrap_err();
        assert!(err.contains("bad --connect"), "{err}");
    }
}
