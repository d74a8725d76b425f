//! Timing, statistics and bookkeeping shared by every workload.

use std::time::Instant;

/// Runs `f` once and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a non-empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((q * (s.len() - 1) as f64).round() as usize).min(s.len() - 1)]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A measuring window: keep repeating until `secs` have passed and at least
/// `min_reps` repetitions are done.
pub struct Window {
    end: Instant,
    min_reps: usize,
}

impl Window {
    /// A window of `secs` seconds starting now.
    pub fn new(secs: f64, min_reps: usize) -> Window {
        Window {
            end: Instant::now() + std::time::Duration::from_secs_f64(secs.max(0.0)),
            min_reps,
        }
    }

    /// Whether another repetition is due after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_reps || Instant::now() < self.end
    }
}

/// Named metric values in report order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// The recorded `(name, value, unit)` triples.
    pub fn entries(&self) -> &[(&'static str, f64, &'static str)] {
        &self.entries
    }
}

/// Operations attempted and failed, with a note for every failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub misses: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn checks(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.misses.push(what());
        }
    }
}
