//! Prometheus-style text exposition.
//!
//! A hand-rolled writer for the text format scrapers understand:
//! `# HELP` / `# TYPE` comments followed by `name{labels} value`
//! samples. Covers the three shapes this workspace produces — plain
//! counters/gauges, [`Histogram`]s (rendered with cumulative
//! per-bucket counts), and [`LockSnapshot`]s (one labeled sample per
//! lock counter).

use bpw_metrics::{Histogram, LockSnapshot};
use std::fmt::Write as _;

/// Incremental builder for one exposition payload.
#[derive(Debug, Default)]
pub struct PromWriter {
    buf: String,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// A gauge sample's value; non-finite values render as `NaN`.
fn gauge_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl PromWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                let _ = write!(self.buf, "{k}=\"{}\"", escape_label_value(v));
            }
            self.buf.push('}');
        }
        let _ = writeln!(self.buf, " {value}");
    }

    /// A monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.header(name, help, "counter");
        self.sample(name, &[], &value.to_string());
        self
    }

    /// One counter metric with several labeled series (e.g. the same
    /// counter for each lock). Emits one header and one sample per
    /// `(label_value, value)` pair under `label_key`.
    pub fn labeled_counter(
        &mut self,
        name: &str,
        help: &str,
        label_key: &str,
        series: &[(&str, u64)],
    ) -> &mut Self {
        self.header(name, help, "counter");
        for (label, value) in series {
            self.sample(name, &[(label_key, label)], &value.to_string());
        }
        self
    }

    /// A point-in-time gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.header(name, help, "gauge");
        self.sample(name, &[], &gauge_value(value));
        self
    }

    /// One gauge metric with several labeled series (e.g. the same
    /// score for each policy). Emits one header and one sample per
    /// `(label_value, value)` pair under `label_key`.
    pub fn labeled_gauge(
        &mut self,
        name: &str,
        help: &str,
        label_key: &str,
        series: &[(&str, f64)],
    ) -> &mut Self {
        self.header(name, help, "gauge");
        for (label, value) in series {
            self.sample(name, &[(label_key, label)], &gauge_value(*value));
        }
        self
    }

    /// A [`Histogram`] with cumulative `_bucket{le="..."}` samples
    /// (only occupied buckets, plus the mandatory `+Inf`), `_sum`, and
    /// `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) -> &mut Self {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for (_, ceil, count) in h.buckets() {
            if count == 0 {
                continue;
            }
            cumulative += count;
            self.sample(
                &format!("{name}_bucket"),
                &[("le", &ceil.to_string())],
                &cumulative.to_string(),
            );
        }
        self.sample(
            &format!("{name}_bucket"),
            &[("le", "+Inf")],
            &h.count().to_string(),
        );
        self.sample(&format!("{name}_sum"), &[], &h.sum().to_string());
        self.sample(&format!("{name}_count"), &[], &h.count().to_string());
        self
    }

    /// One histogram metric with several labeled series (e.g. the same
    /// per-stage latency histogram for each opcode). Emits one header,
    /// then cumulative `_bucket` samples, `_sum`, and `_count` per
    /// series, with that series' labels ahead of the `le` bucket label.
    pub fn labeled_histograms(
        &mut self,
        name: &str,
        help: &str,
        series: &[(&[(&str, &str)], &Histogram)],
    ) -> &mut Self {
        self.header(name, help, "histogram");
        for (labels, h) in series {
            let mut cumulative = 0u64;
            for (_, ceil, count) in h.buckets() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let ceil = ceil.to_string();
                let mut with_le = labels.to_vec();
                with_le.push(("le", ceil.as_str()));
                self.sample(&format!("{name}_bucket"), &with_le, &cumulative.to_string());
            }
            let mut with_le = labels.to_vec();
            with_le.push(("le", "+Inf"));
            self.sample(&format!("{name}_bucket"), &with_le, &h.count().to_string());
            self.sample(&format!("{name}_sum"), labels, &h.sum().to_string());
            self.sample(&format!("{name}_count"), labels, &h.count().to_string());
        }
        self
    }

    /// A [`LockSnapshot`] as six labeled counters under a shared
    /// `lock="<label>"` series. Call once per lock with the same
    /// `prefix` to build multi-lock output; headers repeat per call,
    /// which scrapers tolerate and humans can diff.
    pub fn lock_snapshot(&mut self, prefix: &str, label: &str, snap: &LockSnapshot) -> &mut Self {
        let fields: [(&str, &str, u64); 6] = [
            (
                "acquisitions_total",
                "Successful lock acquisitions.",
                snap.acquisitions,
            ),
            (
                "contentions_total",
                "Blocked acquisitions (the paper's contention events).",
                snap.contentions,
            ),
            (
                "trylock_failures_total",
                "Non-blocking try-lock attempts that failed.",
                snap.trylock_failures,
            ),
            (
                "wait_ns_total",
                "Nanoseconds spent waiting for the lock.",
                snap.wait_ns,
            ),
            (
                "hold_ns_total",
                "Nanoseconds the lock was held.",
                snap.hold_ns,
            ),
            (
                "accesses_covered_total",
                "Page accesses whose bookkeeping the lock protected.",
                snap.accesses_covered,
            ),
        ];
        for (suffix, help, value) in fields {
            let name = format!("{prefix}_{suffix}");
            self.header(&name, help, "counter");
            self.sample(&name, &[("lock", label)], &value.to_string());
        }
        self
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sanity-check an exposition payload: every non-comment, non-blank
/// line must be `name[{labels}] value` with a parseable value. Returns
/// the number of samples, or the first offending line.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator: {line:?}"))?;
        let name = name_part.split('{').next().unwrap_or("");
        if !valid_name(name) {
            return Err(format!("invalid metric name in line {line:?}"));
        }
        if value_part != "NaN" && value_part.parse::<f64>().is_err() {
            return Err(format!("unparseable value in line {line:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let mut w = PromWriter::new();
        w.counter("bpw_requests_total", "Requests served.", 42)
            .gauge("bpw_hit_ratio", "Pool hit ratio.", 0.9375);
        let text = w.finish();
        assert!(text.contains("# TYPE bpw_requests_total counter"));
        assert!(text.contains("bpw_requests_total 42"));
        assert!(text.contains("bpw_hit_ratio 0.9375"));
        assert_eq!(validate_exposition(&text), Ok(2));
    }

    #[test]
    fn labeled_gauge_series_share_one_gauge_header() {
        let mut w = PromWriter::new();
        w.labeled_gauge(
            "bpw_score_ppm",
            "Score.",
            "policy",
            &[("lru", 239_000.0), ("arc", f64::NAN)],
        );
        let text = w.finish();
        assert_eq!(text.matches("# TYPE bpw_score_ppm gauge").count(), 1);
        assert!(!text.contains("counter"));
        assert!(text.contains("bpw_score_ppm{policy=\"lru\"} 239000\n"));
        assert!(text.contains("bpw_score_ppm{policy=\"arc\"} NaN\n"));
        assert_eq!(validate_exposition(&text), Ok(2));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 3, 100] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.histogram("bpw_latency_ns", "Latency.", &h);
        let text = w.finish();
        // Bucket 1 holds {1,1}; bucket [2,3] holds {2,3}; [64,127] holds {100}.
        assert!(text.contains("bpw_latency_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("bpw_latency_ns_bucket{le=\"3\"} 4"));
        assert!(text.contains("bpw_latency_ns_bucket{le=\"127\"} 5"));
        assert!(text.contains("bpw_latency_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("bpw_latency_ns_sum 107"));
        assert!(text.contains("bpw_latency_ns_count 5"));
        assert!(validate_exposition(&text).unwrap() >= 6);
    }

    #[test]
    fn labeled_histogram_series_share_one_metric() {
        let slow = Histogram::new();
        slow.record(100);
        let fast = Histogram::new();
        fast.record(1);
        fast.record(2);
        let mut w = PromWriter::new();
        w.labeled_histograms(
            "bpw_stage_ns",
            "Per-stage latency.",
            &[
                (&[("op", "get"), ("stage", "miss_io")], &slow),
                (&[("op", "put"), ("stage", "pin_hit")], &fast),
            ],
        );
        let text = w.finish();
        assert_eq!(text.matches("# TYPE bpw_stage_ns histogram").count(), 1);
        assert!(text.contains("bpw_stage_ns_bucket{op=\"get\",stage=\"miss_io\",le=\"127\"} 1"));
        assert!(text.contains("bpw_stage_ns_bucket{op=\"get\",stage=\"miss_io\",le=\"+Inf\"} 1"));
        assert!(text.contains("bpw_stage_ns_count{op=\"put\",stage=\"pin_hit\"} 2"));
        assert!(text.contains("bpw_stage_ns_sum{op=\"get\",stage=\"miss_io\"} 100"));
        assert!(validate_exposition(&text).unwrap() >= 8);
    }

    #[test]
    fn lock_snapshot_series_are_labeled() {
        let snap = LockSnapshot {
            acquisitions: 10,
            contentions: 2,
            trylock_failures: 3,
            wait_ns: 400,
            hold_ns: 600,
            accesses_covered: 320,
        };
        let mut w = PromWriter::new();
        w.lock_snapshot("bpw_lock", "replacement", &snap);
        let text = w.finish();
        assert!(text.contains("bpw_lock_acquisitions_total{lock=\"replacement\"} 10"));
        assert!(text.contains("bpw_lock_accesses_covered_total{lock=\"replacement\"} 320"));
        assert_eq!(validate_exposition(&text), Ok(6));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.labeled_counter("bpw_x_total", "X.", "who", &[("a\"b\\c", 1)]);
        let text = w.finish();
        assert!(text.contains("bpw_x_total{who=\"a\\\"b\\\\c\"} 1"));
        assert_eq!(validate_exposition(&text), Ok(1));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("9bad_name 1").is_err());
        assert!(validate_exposition("name notanumber").is_err());
        assert!(validate_exposition("no_value").is_err());
        assert_eq!(validate_exposition("# just a comment\n\n"), Ok(0));
    }
}
