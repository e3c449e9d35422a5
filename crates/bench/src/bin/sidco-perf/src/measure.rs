//! Sample statistics, process counters and the output digest.

use std::hint::black_box;
use std::time::Instant;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest value
/// with at least a `q` share of the samples at or below it. `None` when
/// `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Whether the `q` percentile of `n` samples has at least
/// [`MIN_SAMPLES_BEYOND`] samples above its rank.
pub fn resolvable(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_SAMPLES_BEYOND
}

/// Median, the mean of the two middle samples for an even count (as Python's
/// `statistics.median`); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by linear interpolation between order
/// statistics — the "exclusive" method of Python's `statistics.quantiles`,
/// so spreads printed here match the ones the suite is judged by.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |j: usize| {
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Seconds elapsed while running `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Seconds a fixed, cache-resident integer kernel takes right now (about
/// 0.4 ms on an idle 2.1 GHz Xeon vCPU). On a shared host the effective
/// speed of a vCPU swings by a third for seconds at a time; this reading,
/// taken around each op, tracks those swings, and dividing by it rescales
/// the op to a fixed host speed.
pub fn calibrate() -> f64 {
    let mut buf = [0u64; 4096];
    let (seconds, _) = timed(|| {
        let mut acc = 0u64;
        for round in 0..160u64 {
            for x in black_box(&mut buf).iter_mut() {
                *x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(round);
                acc ^= *x >> 17;
            }
        }
        black_box(acc)
    });
    seconds
}

/// User plus system CPU seconds this process has consumed, all threads
/// included, from `/proc/self/stat`.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // Linux reports these in USER_HZ ticks, which is 100 on every platform.
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over everything an op produced; two runs of the same code and seed
/// print the same digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent, reproducible sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a mixed seed.
pub fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Input order does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.9), Some(90.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(resolvable(100, 0.9));
        assert!(!resolvable(99, 0.9));
        assert!(resolvable(20, 0.5));
        assert!(!resolvable(19, 0.5));
        assert!(!resolvable(1000, 0.995));
        assert!(resolvable(2000, 0.995));
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), (2.75, 8.25));
        // Two samples extrapolate, as Python does: [1.5, 3.0, 4.5].
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert_eq!(median(&samples), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((relative_spread(&samples) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn digest_and_seed_mixing_are_deterministic() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.5);
        b.f64(1.5);
        assert_eq!(a.value(), b.value());
        b.u64(1);
        assert_ne!(a.value(), b.value());
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        let u = unit(7, 3);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(process_cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
