//! Clocks, CPU counters and the metric table a run reports.

use std::time::{Duration, Instant};

/// One reported metric: name, value, unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, `ratio`, `MB`, ...).
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// An ordered metric table.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Linear-interpolated percentile `p` (0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * p;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User plus system CPU of this process and its reaped children, in
/// milliseconds, from `/proc/self/stat` (clock-tick resolution).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Own user + system time.
    pub own_ms: f64,
    /// Reaped children's user + system time.
    pub children_ms: f64,
}

impl CpuTimes {
    /// Reads the current counters (zero where `/proc` is unavailable).
    pub fn now() -> CpuTimes {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return CpuTimes::default();
        };
        // Fields after the parenthesised command name; utime is field 14.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<f64> = rest
            .split_whitespace()
            .skip(11)
            .take(4)
            .map(|x| x.parse().unwrap_or(0.0))
            .collect();
        if f.len() < 4 {
            return CpuTimes::default();
        }
        // Linux reports clock ticks of 1/100 s on every supported arch.
        CpuTimes {
            own_ms: (f[0] + f[1]) * 10.0,
            children_ms: (f[2] + f[3]) * 10.0,
        }
    }

    /// Total CPU since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> f64 {
        (self.own_ms - earlier.own_ms) + (self.children_ms - earlier.children_ms)
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB;
/// `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// How long a phase may run: until a deadline, capped at a number of
/// ops; or exactly a fixed number of ops, which makes a run repeatable.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: Option<Instant>,
    cap: usize,
}

impl Budget {
    /// `seconds` from now, and at most `cap` ops.
    pub fn timed(seconds: f64, cap: usize) -> Budget {
        Budget {
            deadline: Some(Instant::now() + Duration::from_secs_f64(seconds.max(0.0))),
            cap,
        }
    }

    /// Exactly `ops` ops, however long they take.
    pub fn fixed(ops: usize) -> Budget {
        Budget {
            deadline: None,
            cap: ops,
        }
    }

    /// Whether op number `done` (0-based) may still start. A timed
    /// phase runs at least `min_ops` ops so every statistic has data.
    pub fn allows(&self, done: usize, min_ops: usize) -> bool {
        done < self.cap
            && self
                .deadline
                .is_none_or(|d| done < min_ops || Instant::now() < d)
    }
}
