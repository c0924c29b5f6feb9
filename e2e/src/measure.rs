//! Clocks, process counters and order statistics.

use std::path::Path;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. With 200 samples,
/// `p = 0.95` returns the 190th and leaves exactly 10 beyond it — the
/// highest percentile that many samples support.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&p));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of unsorted samples (0 when there are none).
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, p)
}

/// Median as the mean of the two middle samples for even counts (0 when
/// there are none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(max − min) / median`: the A/A spread of one metric.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if m == 0.0 {
        if hi == lo {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (hi - lo) / m.abs()
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// exported USER_HZ = 100 on every architecture since 2.6; reading
/// `sysconf` would need libc, which this package does not link.
const TICKS_PER_S: f64 = 100.0;

/// Process user+system CPU time in milliseconds, all threads included
/// (fields 14 and 15 of `/proc/self/stat`). 0 where procfs is missing.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (utime, stime) = (tick(), tick());
    (utime + stime) * 1000.0 / TICKS_PER_S
}

/// A wall clock and a CPU clock started together.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: cpu_ms(),
            wall: Instant::now(),
        }
    }

    /// `(wall nanoseconds, cpu milliseconds)` since [`Stopwatch::start`].
    pub fn stop(self) -> (u64, f64) {
        let wall = self.wall.elapsed().as_nanos() as u64;
        (wall, cpu_ms() - self.cpu)
    }
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MiB; 0 where procfs is missing.
pub fn peak_rss_mib() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Restarts the `VmHWM` high-water mark from the current resident set, so
/// the peak reported at exit belongs to the measured phase and not to the
/// reference answers computed before it. Returns whether the kernel
/// accepted the reset; when it did not, the reported peak covers set-up
/// too.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A writer that only counts: sizes CSV output without storing it.
#[derive(Default)]
pub struct ByteCounter(pub u64);

impl std::io::Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&samples, 0.95);
        assert_eq!(p95, 190.0);
        assert_eq!(samples.iter().filter(|&&x| x > p95).count(), 10);
        assert_eq!(percentile(&samples, 0.5), 100.0);
        assert_eq!(percentile(&samples, 1.0), 200.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn percentile_of_sorts_and_tolerates_empty_input() {
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile_of(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(spread(&[0.0, 1.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.wall.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (wall, cpu) = sw.stop();
        assert!(wall >= 60_000_000);
        assert!(cpu >= 20.0, "cpu clock did not advance: {cpu} ms");
    }
}
