//! Small shared helpers: timing, order statistics, process memory, answer
//! hashing and run provenance.

use std::time::{Duration, Instant};

use ctxform_hash::fx_hash_one;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Runs `f` and returns its value with the milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, ms_since(t))
}

/// The median of `values` (mean of the middle pair for even lengths);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile of `values` by linear interpolation between closest
/// ranks; `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB. `None` when `/proc` does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The order-independent hash of one points-to answer, as stored in the
/// oracle: the heap names are sorted, then hashed as a sequence.
pub fn answer_hash<S: AsRef<str>>(heaps: &[S]) -> u32 {
    let mut names: Vec<&str> = heaps.iter().map(AsRef::as_ref).collect();
    names.sort_unstable();
    fx_hash_one(&names) as u32
}

/// Hex rendering used for every digest in the oracle and on the wire.
pub fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Where and on what a run happened: seed, commit, compiler, core count.
pub struct Provenance {
    pub seed: u64,
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
}

impl Provenance {
    pub fn collect(seed: u64) -> Provenance {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance {
            seed,
            commit: commit().unwrap_or_else(|| "unknown".to_owned()),
            rustc,
            nproc,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "provenance seed={} held_out_seed={} commit={} rustc=\"{}\" nproc={}",
            self.seed,
            crate::HELD_OUT_SEED,
            self.commit,
            self.rustc,
            self.nproc
        )
    }
}

/// The commit being measured: `CTXFORM_COMMIT` when set, else `HEAD` of a
/// `.git` directory in the working directory (exported trees have none).
fn commit() -> Option<String> {
    if let Ok(c) = std::env::var("CTXFORM_COMMIT") {
        return Some(c);
    }
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            let path = format!(".git/{reference}");
            if let Ok(c) = std::fs::read_to_string(path) {
                return Some(c.trim().to_owned());
            }
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        }
        None => Some(head.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn answer_hash_ignores_order() {
        assert_eq!(answer_hash(&["b", "a"]), answer_hash(&["a", "b"]));
        assert_ne!(answer_hash(&["a"]), answer_hash(&["a", "b"]));
    }
}
