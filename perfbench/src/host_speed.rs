//! The host's speed during a run, measured alongside the traffic.
//!
//! A virtual machine on a shared host runs the same code faster or slower
//! from one minute to the next, as neighbours load the physical cores;
//! identical runs a few minutes apart differed by up to 30% in throughput.
//! A probe thread therefore runs a fixed unit of work (hashing, string
//! formatting, allocation and sorting, like the interpreter's own mix)
//! every few milliseconds through the measured window and times each unit
//! on its own thread CPU clock, so time it spends waiting for a CPU does not
//! count. Unit times cluster around a fast and a slow speed, and the share
//! of slow units rises and falls with the server's own speed. The run's
//! host factor is therefore the mean unit time (without the slowest 5%,
//! units the host interrupted) divided by [`REFERENCE_UNIT_NS`]; a median
//! unit time, which jumps between the two speeds, tracked the server worse
//! than no scaling at all. Host-clock figures are divided by the factor
//! (throughput multiplied), which puts runs made at different host speeds
//! on one scale. The probe is benchmark code, identical on every commit
//! measured, so a change to the program moves the scaled figures exactly as
//! much as the raw ones.

use crate::proc_self;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Thread CPU time of one probe unit on the reference host, ns: the
/// typical trimmed mean on a 2-vCPU Intel Xeon virtual machine under the
/// `verified-mix` load. Scaled figures read as if the host ran at that
/// speed throughout.
pub const REFERENCE_UNIT_NS: f64 = 370_000.0;

/// Share of the slowest probe units left out of the mean.
const TRIM_SLOWEST: f64 = 0.05;

/// Pause between probe units, so the probe takes a few percent of one CPU.
const PROBE_GAP: Duration = Duration::from_millis(5);

/// One fixed unit of work. Returns a value the optimizer cannot discard.
pub fn unit() -> u64 {
    let mut map: HashMap<u64, String> = HashMap::new();
    let mut x = 7u64;
    for i in 0..1500u64 {
        x = crate::workload::split_mix(x ^ i);
        map.insert(x % 700, format!("v{x}"));
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    let mut acc = 0u64;
    for i in 0..3000u64 {
        acc = acc.wrapping_add(map.get(&(i % 700)).map_or(0, |s| s.len() as u64));
    }
    std::hint::black_box(acc.wrapping_add(keys[0]))
}

/// Runs probe units until `stop` returns true; returns each unit's thread
/// CPU time, ns.
pub fn probe(stop: impl Fn() -> bool) -> Vec<u64> {
    let mut times = Vec::new();
    while !stop() {
        let before = proc_self::thread_cpu_ns();
        unit();
        let after = proc_self::thread_cpu_ns();
        if let (Some(a), Some(b)) = (before, after) {
            times.push(b.saturating_sub(a));
        }
        let wake = Instant::now() + PROBE_GAP;
        while !stop() && Instant::now() < wake {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    times
}

/// The host factor of a run from its probe unit times: the mean unit time
/// without the slowest [`TRIM_SLOWEST`] share, over
/// [`REFERENCE_UNIT_NS`]. Above 1 means a slower host than the reference.
/// `None` without samples.
pub fn factor(unit_ns: &[u64]) -> Option<f64> {
    let mut v = unit_ns.to_vec();
    v.sort_unstable();
    let keep = v.len() - (v.len() as f64 * TRIM_SLOWEST) as usize;
    let kept = &v[..keep];
    if kept.is_empty() {
        return None;
    }
    let mean = kept.iter().map(|&t| t as f64).sum::<f64>() / kept.len() as f64;
    Some(mean / REFERENCE_UNIT_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_trimmed_mean_over_the_reference() {
        assert_eq!(factor(&[]), None);
        assert_eq!(factor(&[370_000]), Some(1.0));
        // The mean follows the share of fast and slow units.
        assert_eq!(factor(&[185_000, 555_000]), Some(1.0));
        assert_eq!(factor(&[185_000, 185_000, 185_000, 555_000]), Some(0.75));
        // Of twenty units the slowest one is left out.
        let mut units = vec![370_000; 19];
        units.push(50_000_000);
        assert_eq!(factor(&units), Some(1.0));
    }

    #[test]
    fn unit_is_deterministic_and_probe_stops() {
        assert_eq!(unit(), unit());
        let calls = std::cell::Cell::new(0);
        let times = probe(|| {
            calls.set(calls.get() + 1);
            calls.get() > 1
        });
        assert_eq!(times.len(), 1, "one unit ran before the stop");
        assert!(times[0] > 0, "a unit takes CPU time");
    }
}
