//! Process and host probes read from `/proc`, and the order statistics
//! every report is built from.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Linux reports per-process CPU time in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU time this process has used so far, in milliseconds
/// (`/proc/self/stat` fields 14 and 15, all threads included).
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces; the fields
    // after it start at field 3, so utime (14) and stime (15) are 11, 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<u64>() as f64 * 1000.0 / TICKS_PER_SEC
}

/// Cumulative host CPU accounting from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

pub fn host_cpu() -> HostCpu {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    HostCpu {
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().sum(),
    }
}

impl HostCpu {
    /// Share of host CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Resets the process's peak-RSS watermark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Quantile `q` of `values` with linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest value (0 for an empty slice): for short repeated timings,
/// the repetition least disturbed by the host.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Runs `f`, returning its result and the seconds it took.
pub fn timed_secs<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = std::time::Instant::now();
    let out = f()?;
    Ok((out, start.elapsed().as_secs_f64()))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Total size of the regular files directly under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Derives an independent seed for one input family from the run seed.
pub fn derive_seed(seed: u64, family: &str) -> u64 {
    incite_textkit::fnv1a(family.as_bytes(), seed)
}

/// Encodes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        fs::remove_dir_all(&path).ok();
        fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// An empty subdirectory `name`, cleared if it already exists.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_string_escapes_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n\u{1}é"), "\"a\\\"b\\\\c\\n\\u0001é\"");
    }
}
