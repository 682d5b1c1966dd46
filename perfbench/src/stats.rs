//! Small statistics and process facts.

use std::path::Path;

/// Nearest-rank percentile (sorts the samples); 0 without samples.
pub fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[u64]) -> f64 {
    ratio(samples.iter().sum::<u64>() as f64, samples.len() as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Non-blank, non-comment lines of the `.rs` files under `dir`.
pub fn count_loc(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut n = 0;
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            n += count_loc(&path);
        } else if path.extension().is_some_and(|x| x == "rs") {
            n += loc(&std::fs::read_to_string(&path).unwrap_or_default());
        }
    }
    n
}

fn loc(text: &str) -> u64 {
    let mut n = 0;
    let mut in_block = false;
    for line in text.lines().map(str::trim) {
        if in_block || line.starts_with("/*") {
            in_block = !line.contains("*/");
        } else if !line.is_empty() && !line.starts_with("//") {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn loc_skips_blank_and_comment_lines() {
        let src = "//! doc\n\nfn a() {}\n    // note\n/* block\n still */\nlet x = 1; // tail\n";
        assert_eq!(loc(src), 2);
    }
}
