//! Percentiles, process memory, the closed-loop runner and the result
//! line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::analysis::JOBS;

/// The `p`-th percentile (0–100) of `samples`, interpolating linearly
/// between the two nearest ranks. `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// High-water resident set size (`VmHWM`) of `pid`, or of this process,
/// in MiB. `0.0` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Attempted and failed operations, with the first few failure messages
/// echoed to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: operation {} failed: {e}", self.attempted);
            }
        }
    }
}

/// Iterations of the probe kernel: about 2 ms on the reference host.
const PROBE_ITERS: usize = 350;

/// What the probe takes on the reference host (a 2-vCPU cloud VM), ms.
/// Normalized latencies read in milliseconds at that host speed.
pub const PROBE_REF_MS: f64 = 2.0;

/// Probes measured on either side of an operation that its normalizer
/// takes the median of.
const PROBE_WINDOW: usize = 2;

/// The probe kernel: small ordered maps of small vectors, the shape of
/// the analysis' own data. Returns its wall time in ms.
fn probe_kernel() -> f64 {
    let t = Instant::now();
    let mut total = 0usize;
    for i in 0..PROBE_ITERS {
        let mut map = std::collections::BTreeMap::new();
        for j in 0..64 {
            map.insert((i * 31 + j) % 97, vec![j as u8; 24]);
        }
        total += std::hint::black_box(&map).len();
    }
    std::hint::black_box(total);
    ms(t.elapsed())
}

/// Host-speed probe: on each of `JOBS` threads at once, the fastest of
/// three runs of a fixed kernel compiled into the benchmark, after one
/// untimed run that warms the caches and the allocator; the mean over
/// the threads. The warm-up makes the probe blind to what the program
/// under test left in the caches, the minimum makes it blind to a stray
/// interrupt, the threads make it see a slowdown of either vCPU the
/// analyses run on, and no change to the program can speed the kernel
/// up: what remains is how fast the host runs right now.
pub fn probe_ms() -> f64 {
    let warm_min = || {
        probe_kernel();
        probe_kernel().min(probe_kernel()).min(probe_kernel())
    };
    let times: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..JOBS).map(|_| scope.spawn(warm_min)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the probe kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// One successful operation of a closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time, ms.
    pub raw: f64,
    /// Wall time scaled to the reference host speed: `raw` times
    /// `PROBE_REF_MS` over the median of the nearby probes.
    pub norm: f64,
}

pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw).collect()
}

pub fn norm(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.norm).collect()
}

/// Prints a phase's raw and normalized percentiles to stderr.
pub fn report(label: &str, samples: &[Sample]) {
    let (raw, norm) = (raw(samples), norm(samples));
    eprintln!(
        "perfbench: {label}: n={} raw p10/p50/p90 = {:.3}/{:.3}/{:.3} ms, \
         normalized p10/p50/p90 = {:.3}/{:.3}/{:.3} ms",
        samples.len(),
        percentile(&raw, 10.0),
        percentile(&raw, 50.0),
        percentile(&raw, 90.0),
        percentile(&norm, 10.0),
        percentile(&norm, 50.0),
        percentile(&norm, 90.0)
    );
}

/// When a measured phase stops: a wall-clock budget, optionally capped
/// at an operation count (the smoke test runs a handful of operations).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub max_ops: Option<u64>,
}

impl Budget {
    /// The same cap over a share of the wall-clock budget.
    pub fn share(self, fraction: f64) -> Budget {
        Budget {
            seconds: self.seconds * fraction,
            max_ops: self.max_ops,
        }
    }

    /// Closed loop: calls `op(i)` back to back until the budget is spent
    /// (always at least once), running the host-speed probe before every
    /// `probe_every`-th call. Each call times itself and returns its
    /// latency in ms, or `None` when it failed.
    pub fn run(self, probe_every: u64, mut op: impl FnMut(u64) -> Option<f64>) -> Vec<Sample> {
        let start = Instant::now();
        let mut probes = Vec::new();
        let mut timed = Vec::new();
        let mut i = 0u64;
        loop {
            if i % probe_every.max(1) == 0 {
                probes.push(probe_ms());
            }
            if let Some(latency) = op(i) {
                timed.push((latency, probes.len() - 1));
            }
            i += 1;
            if self.max_ops.is_some_and(|cap| i >= cap)
                || start.elapsed().as_secs_f64() >= self.seconds
            {
                break;
            }
        }
        timed
            .into_iter()
            .map(|(raw, p)| {
                let window = &probes
                    [p.saturating_sub(PROBE_WINDOW)..(p + PROBE_WINDOW + 1).min(probes.len())];
                Sample {
                    raw,
                    norm: raw * PROBE_REF_MS / median(window),
                }
            })
            .collect()
    }
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Keeps exactly the metrics of `spec`, in its order, filling any
    /// the workload did not exercise with `0`.
    pub fn select(&self, spec: &[(&'static str, &'static str)]) -> Metrics {
        Metrics(
            spec.iter()
                .map(|(name, unit)| (*name, self.get(name), *unit))
                .collect(),
        )
    }

    /// The result line: one JSON object, printed last on stdout. A value
    /// that is not finite (a broken metric, such as a 0/0 rate) prints as
    /// `null`, so a check on the result can catch it.
    pub fn result_line(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 10.0), 1.4);
        assert_eq!(percentile(&[], 10.0), 0.0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::default();
        m.set("latency_p10_ms", 1.5, "ms");
        m.set("setup_s", f64::NAN, "s");
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            m.result_line(&tally),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_p10_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
