//! Order statistics, process readings from `/proc/self`, and the
//! in-memory span log.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile of unsorted samples (`q` in [0, 1]);
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile of per-pass samples, robust to passes disturbed by
/// the host: consecutive passes are grouped into blocks holding at least
/// ten samples beyond the quantile, each block's quantile is taken, and
/// the median over blocks is returned. With too few samples for one
/// block, the quantile of everything.
pub fn block_quantile(passes: &[Vec<u64>], q: f64) -> f64 {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for pass in passes {
        let block = blocks.last_mut().expect("never empty");
        block.extend(pass.iter().map(|&x| x as f64));
        if block.len() >= need {
            blocks.push(Vec::new());
        }
    }
    let tail = blocks.pop().unwrap_or_default();
    match blocks.last_mut() {
        // A partial last block joins the block before it.
        Some(last) => last.extend(tail),
        None => return quantile(&tail, q),
    }
    median(&blocks.iter().map(|b| quantile(b, q)).collect::<Vec<_>>())
}

/// Nanoseconds since `t0`.
pub fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15, in clock ticks (100 per second on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Host-wide `(steal, total)` CPU ticks from the `cpu` line of
/// `/proc/stat`: time a hypervisor ran something else on this machine's
/// virtual CPUs, and all time.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Hardware threads the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Polls `/proc/self/status` every 2 ms for the peak thread count,
/// itself excluded.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl ThreadSampler {
    /// Start sampling.
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads().saturating_sub(1));
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    /// Stop, join, and return the peak.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

/// One timed call, in ns since its pass began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public function called.
    pub name: &'static str,
    /// Start tick.
    pub start: u64,
    /// End tick.
    pub end: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    /// Recorded spans, in call order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Record one span.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64) {
        self.spans.push(Span { name, start, end });
    }

    /// Total duration of spans named `name`, ns.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Write the log as TSV (`name`, `start_ns`, `end_ns`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(out, "{}\t{}\t{}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_quantiles_shrug_off_one_disturbed_pass() {
        // Three passes of 20 samples: the p50 blocks need 20 samples, so
        // each pass is a block and the slow middle pass is outvoted.
        let calm: Vec<u64> = (1..=20).collect();
        let slow: Vec<u64> = (1..=20).map(|x| x * 100).collect();
        let passes = vec![calm.clone(), slow, calm];
        assert_eq!(block_quantile(&passes, 0.5), 10.5);
        // Too few samples for a p99 block: the pooled quantile.
        assert!((block_quantile(&passes[..1], 0.99) - 19.81).abs() < 1e-9);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        let sampler = ThreadSampler::start();
        std::thread::sleep(Duration::from_millis(10));
        assert!(sampler.finish() >= 1);
    }
}
