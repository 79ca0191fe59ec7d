//! Host-side readings: process CPU time and peak RSS from `/proc`, and
//! order statistics over samples.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// mainstream configuration (and is what `sysconf(_SC_CLK_TCK)` returns).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads included
/// (exited threads are folded into the process totals by the kernel).
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ')'.
    let rest = &stat[stat.rfind(')').expect("malformed /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("numeric utime/stime in /proc/self/stat") as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`) in MB (1e6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 * 1024.0 / 1e6
}

/// Nearest-rank percentile `q` in [0, 1] of `xs` (0 for no samples).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs`: the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when the base is 0 (ratios are reported with their
/// base, so a 0 base stays visible).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_s() >= 0.0);
    }
}
