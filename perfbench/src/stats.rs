//! The benchmark's pure arithmetic: percentiles, medians, span self time,
//! `/proc` parsing and failure fractions. Everything here is deterministic
//! and unit-tested; the measuring code in the other modules feeds it.

/// A nearest-rank percentile together with the number of samples it was
/// taken from, so every reported percentile carries its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank (`None` with no samples).
    pub value: Option<u64>,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `p` (in percent) over an ascending-sorted slice:
/// the smallest sample such that at least `p`% of the samples are at or
/// below it.
pub fn percentile(sorted: &[u64], p: f64) -> Percentile {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let value = if sorted.is_empty() {
        None
    } else {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    };
    Percentile {
        value,
        samples: sorted.len(),
    }
}

/// How many samples lie strictly above the nearest-rank `p` percentile —
/// a percentile is only worth reporting with at least ten beyond it.
pub fn samples_beyond(sorted: &[u64], p: f64) -> usize {
    match percentile(sorted, p).value {
        Some(v) => sorted.len() - sorted.partition_point(|&x| x <= v),
        None => 0,
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Failed requests as a share of attempted ones; 0 when nothing was
/// attempted (nothing failed either).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload never
/// reaches contributes nothing per request).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span: a named interval, the span that caused it, and the
/// request it belongs to. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (≥ `start`).
    pub end: u64,
    /// Index of the parent span in the same slice, `None` for a root.
    pub parent: Option<usize>,
    /// Global request index the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap each other are counted
/// once; a child reaching outside its parent is clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Sums user and system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name: state is field 3, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Reads one `Key:   <n> kB` line from the text of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = value.split_whitespace();
        let n = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_sample_count() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0).value, Some(5));
        assert_eq!(percentile(&v, 90.0).value, Some(9));
        assert_eq!(percentile(&v, 99.0).value, Some(10));
        assert_eq!(percentile(&v, 100.0).value, Some(10));
        assert_eq!(percentile(&v, 0.0).value, Some(1), "rank clamps to 1");
        assert_eq!(percentile(&v, 50.0).samples, 10);
        assert_eq!(percentile(&[7], 99.9).value, Some(7));
        let empty = percentile(&[], 50.0);
        assert_eq!((empty.value, empty.samples), (None, 0));
        // Ties: the rank lands inside a run of equal values.
        assert_eq!(percentile(&[1, 2, 2, 2, 9], 50.0).value, Some(2));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(samples_beyond(&v, 90.0), 10);
        assert_eq!(samples_beyond(&v, 99.0), 1);
        assert_eq!(samples_beyond(&[3, 3, 3], 50.0), 0, "ties are not beyond");
        assert_eq!(samples_beyond(&[], 50.0), 0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_handles_zero_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 10), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root [0,100) ⊃ mid [10,60) ⊃ leaf [20,30)
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_back_to_back_children() {
        // Children [0,10) [10,25) [25,40) touch end to start.
        let spans = [
            span("root", 0, 50, None),
            span("a", 0, 10, Some(0)),
            span("b", 10, 25, Some(0)),
            span("c", 25, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 15, 15]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        // Overlapping children (two threads) and one sticking out.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn parses_proc_self_stat() {
        // A command name with spaces and a parenthesis, as the kernel allows.
        let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 \
                    250 37 0 0 20 0 7 0 12345 104857600 2048 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(287));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None, "too few fields");
    }

    #[test]
    fn parses_proc_self_status() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   13212 kB\n\
                      VmRSS:\t   12000 kB\nThreads:\t7\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(13212));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(12000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib(status, "Threads"), None, "not a kB line");
        assert_eq!(parse_status_kib("VmHWMx: 5 kB", "VmHWM"), None);
    }
}
