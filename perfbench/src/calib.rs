//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a quarter
//! or more over minutes. CPU time per build moves with wall time, so
//! the host's cores get slower, not just busier, and no choice of
//! thread count or run length removes it. A run therefore pauses its
//! ops at regular intervals and times a fixed [`probe`] that does not
//! call the compiler. The end-to-end times are reported as they would
//! be on a host where the probe takes [`REF_MS`]:
//! `reported = measured * REF_MS / median probe time`. A change to the
//! compiler changes the measured times but not the probe's.

use crate::measure::CpuTimes;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Probe time of the reference host the reported times are scaled to.
/// On the 2-core host the benchmark was written on, the probe took 10
/// to 14 ms, so times there read 10 to 35% below the measured ones.
pub const REF_MS: f64 = 9.0;

/// How often a run pauses its ops to time the probe.
pub const INTERVAL: Duration = Duration::from_millis(200);

/// Probes before set-up.
pub const SETUP_PROBES: usize = 20;

/// Round trips between two threads in one probe.
const TRIPS: usize = 400;

/// Entries of the pointer-chasing table: 2 MB, more than a core's
/// private caches, so the kernel also sees the shared cache.
const CHASE_LEN: usize = 1 << 19;

/// A 64-bit linear congruential generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// A random cyclic permutation of `0..CHASE_LEN`, built once.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rng = Lcg(0x5eed);
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut table = vec![0u32; CHASE_LEN];
        for w in 0..CHASE_LEN {
            table[order[w] as usize] = order[(w + 1) % CHASE_LEN];
        }
        table
    })
}

/// Fixed work shaped like a compiler's: hashing and tree inserts of
/// small heap objects, a sort, and dependent loads through a table
/// larger than a core's caches. Returns a checksum.
pub fn kernel(seed: u64) -> u64 {
    let mut rng = Lcg(seed | 1);
    let mut names: HashMap<String, u64> = HashMap::new();
    for i in 0..3000 {
        *names.entry(format!("v{}", rng.next() % 2000)).or_default() += i;
    }
    let mut tree: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for _ in 0..3000 {
        let len = (rng.next() % 12) as u32;
        let k = rng.next() % 1500;
        tree.entry(k)
            .or_default()
            .extend((0..len).map(|j| j ^ k as u32));
    }
    let mut keys: Vec<u64> = (0..20_000).map(|_| rng.next()).collect();
    keys.sort_unstable();
    let table = chase_table();
    let mut p = (rng.next() % CHASE_LEN as u64) as u32;
    for _ in 0..16_384 {
        p = table[p as usize];
    }
    let mut sum = u64::from(p).wrapping_add(keys[keys.len() / 2]);
    for (k, n) in &names {
        sum = sum.wrapping_add(k.len() as u64 * n);
    }
    for (k, l) in &tree {
        sum = sum.wrapping_add(k ^ l.len() as u64);
    }
    sum
}

/// `trips` round trips of a value between two threads, each a wake-up
/// of a sleeping thread, as between a client, the daemon and its
/// compile threads, or between the executor's workers.
fn wakeups(trips: usize) {
    let (to_echo, echo_in) = std::sync::mpsc::sync_channel::<usize>(0);
    let (echo_out, back) = std::sync::mpsc::sync_channel::<usize>(0);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = echo_in.recv() {
                if echo_out.send(v + 1).is_err() {
                    break;
                }
            }
        });
        let mut v = 0;
        for _ in 0..trips {
            to_echo.send(v).expect("echo thread");
            v = back.recv().expect("echo thread");
        }
        // Ends the echo thread.
        drop(to_echo);
    });
}

/// One probe: the [`kernel`] on `threads` threads at once, then
/// [`TRIPS`] thread wake-ups. Returns the wall time in milliseconds.
/// The wake-ups follow the host's speed most closely. Over nine 8-s
/// `warpd-mix` runs on the 2-core host, the measured CPU per request
/// followed the wake-up time with a correlation of 0.97 and the kernel
/// time with 0.78; over eight `fig6` runs, the measured `op_ms.p50`
/// followed them with 0.97 and 0.81.
pub fn probe(threads: usize, seed: u64) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads.max(1) {
            s.spawn(move || black_box(kernel(black_box(seed.wrapping_add(i as u64)))));
        }
    });
    wakeups(TRIPS);
    t.elapsed().as_secs_f64() * 1e3
}

/// Ops in flight, and whether a pause waits for them to end.
#[derive(Debug, Default)]
struct Gate {
    ops: usize,
    pausing: bool,
}

/// Wall and CPU time spent in pauses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paused {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// CPU of the process, milliseconds.
    pub cpu_ms: f64,
}

/// Probe timings taken while a workload runs, and the gate that keeps
/// them apart from the workload's ops.
pub struct Calibration {
    threads: usize,
    gate: Mutex<Gate>,
    changed: Condvar,
    samples: Mutex<Vec<f64>>,
    paused: Mutex<Paused>,
}

/// Held for the whole of one op; see [`Calibration::op`].
pub struct OpGuard<'a>(&'a Calibration);

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.0.gate();
        g.ops -= 1;
        if g.ops == 0 {
            self.0.changed.notify_all();
        }
    }
}

impl Calibration {
    /// A calibration whose probes run the kernel on `threads` threads,
    /// as many as the workload keeps busy.
    pub fn new(threads: usize) -> Calibration {
        chase_table();
        Calibration {
            threads,
            gate: Mutex::new(Gate::default()),
            changed: Condvar::new(),
            samples: Mutex::new(Vec::new()),
            paused: Mutex::new(Paused::default()),
        }
    }

    fn gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Taken before an op's timer starts and dropped after it stops, so
    /// no pause falls inside an op. Waits while a pause runs or waits
    /// for ops to end.
    pub fn op(&self) -> OpGuard<'_> {
        let mut g = self.gate();
        while g.pausing {
            g = self.changed.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.ops += 1;
        OpGuard(self)
    }

    /// Waits for the ops in flight to end, then times `probes` probes
    /// while no op runs.
    pub fn pause(&self, probes: usize) {
        let mut g = self.gate();
        g.pausing = true;
        while g.ops > 0 {
            g = self.changed.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        let (t, cpu) = (Instant::now(), CpuTimes::now());
        let first = self.samples.lock().expect("samples").len();
        let got: Vec<f64> = (0..probes)
            .map(|i| probe(self.threads, (first + i) as u64))
            .collect();
        self.samples.lock().expect("samples").extend(got);
        {
            let mut paused = self.paused.lock().expect("paused");
            paused.wall_s += t.elapsed().as_secs_f64();
            paused.cpu_ms += CpuTimes::now().since(cpu);
        }
        self.gate().pausing = false;
        self.changed.notify_all();
    }

    /// Runs `work`, pausing its ops every [`INTERVAL`] for a probe.
    pub fn during<R>(&self, work: impl FnOnce() -> R) -> R {
        /// Stops the pausing thread however `work` ends.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut next = Instant::now() + INTERVAL;
                while !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(Duration::from_millis(20)));
                        continue;
                    }
                    self.pause(1);
                    next = Instant::now() + INTERVAL;
                }
            });
            let _stop = Stop(&stop);
            work()
        })
    }

    /// Time spent in pauses so far.
    pub fn paused(&self) -> Paused {
        *self.paused.lock().expect("paused")
    }

    /// Probe timings so far, in milliseconds.
    pub fn samples(&self) -> Vec<f64> {
        self.samples.lock().expect("samples").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn the_probe_does_fixed_work() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
        assert!(probe(2, 1) > 0.0);
    }

    #[test]
    fn no_pause_falls_inside_an_op() {
        let cal = Calibration::new(1);
        let overlaps = AtomicUsize::new(0);
        cal.during(|| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let end = Instant::now() + 3 * INTERVAL;
                        while Instant::now() < end {
                            let _op = cal.op();
                            let before = cal.samples().len();
                            std::thread::sleep(Duration::from_millis(5));
                            if cal.samples().len() != before {
                                overlaps.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    });
                }
            });
        });
        assert!(!cal.samples().is_empty(), "no pause ran");
        assert_eq!(overlaps.load(Ordering::SeqCst), 0);
        assert!(cal.paused().wall_s > 0.0);
    }
}
