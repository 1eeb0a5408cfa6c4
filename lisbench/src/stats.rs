//! Latency histograms and the benchmark's summary statistics.
//!
//! Latencies go into a log-linear histogram with 1024 sub-buckets per power
//! of two (0.1% resolution) instead of a growing vector, so the process's
//! memory does not grow with the number of operations a run completes:
//! `peak_rss_mb` would otherwise reward a slower program.

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

#[derive(Clone, Debug, Default)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < 2 * SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (2 * SUB + (shift as u64 - 1) * SUB + ((ns >> shift) - SUB)) as usize
}

/// `[lo, hi)` of the nanoseconds that land in bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < 2 * SUB {
        return (b, b + 1);
    }
    let shift = (b - 2 * SUB) / SUB + 1;
    let mantissa = (b - 2 * SUB) % SUB + SUB;
    (mantissa << shift, (mantissa + 1) << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let b = bucket_of(ns);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The nearest-rank `q`-quantile in nanoseconds, interpolated inside its
    /// bucket (0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, hi) = bucket_range(b);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {rank} is within the {} samples", self.total)
    }
}

/// The tail level: the highest quantile with at least ten samples beyond
/// it, capped at p95 so that on workloads with many operations the tail
/// stays a property of the operation mix rather than of the few slowest
/// requests, whose upper quantiles move with every preemption a shared
/// host deals out. On `serve-reads` p99 falls inside its three slowest
/// requests per pass and swung 25% between runs; p95 falls among the
/// single-range witness requests.
pub fn tail_level(samples: u64) -> f64 {
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.95)
}

/// Median of a non-empty list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_once_with_fine_resolution() {
        for ns in [0u64, 1, 2047, 2048, 2049, 4095, 4096, 123_456_789, 1 << 40] {
            let (lo, hi) = bucket_range(bucket_of(ns));
            assert!(lo <= ns && ns < hi, "{ns} not in [{lo}, {hi})");
            assert!((hi - lo) as f64 <= 1.0 + ns as f64 / SUB as f64);
        }
        for b in 0..40_000 {
            assert_eq!(bucket_of(bucket_range(b).0), b);
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut h = Hist::default();
        let values: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = values[(q * 1000.0f64).ceil() as usize - 1] as f64;
            assert!((h.quantile(q) - exact).abs() / exact < 0.002, "q={q}");
        }
        assert_eq!(tail_level(100), 0.9);
        assert_eq!(tail_level(1_000_000), 0.95);
    }
}
