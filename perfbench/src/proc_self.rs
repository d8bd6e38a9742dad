//! Reads this process's own counters and the run context from `/proc`
//! and from files inside the checkout.

use crate::stats;
use std::path::Path;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which is
/// 100 per second on every architecture Linux supports.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the whole process so far, in ticks.
pub fn cpu_ticks() -> Option<u64> {
    stats::parse_stat_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// The calling thread's kernel thread id.
pub fn thread_id() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// User plus system CPU time of thread `tid` of this process, in ticks.
pub fn thread_cpu_ticks(tid: u64) -> Option<u64> {
    stats::parse_stat_cpu_ticks(
        &std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?,
    )
}

/// Peak resident memory of the process so far, KiB.
pub fn peak_rss_kib() -> Option<u64> {
    stats::parse_status_kib(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// The 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The commit checked out in `root`, read from `.git` without leaving the
/// checkout; `None` when `root` is not a git work tree.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over every file under `dir` (sorted paths, then contents), so a
/// result names the source it measured even outside a git checkout.
pub fn source_fingerprint(dir: &Path) -> Option<u64> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files).ok()?;
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).ok()?;
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Some(h)
}

/// `struct timespec` as the C library lays it out on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

/// Linux's clock id for the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has run so far, ns (time spent waiting for
/// a CPU does not count).
pub fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Words in the kernel's CPU mask as the C library sizes it (1024 CPUs).
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is writable and its size in bytes is passed with it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts thread `tid` of this process (0: the calling thread) to
/// `cpu`. Threads it creates afterwards inherit the restriction.
pub fn pin_thread(tid: u64, cpu: usize) -> bool {
    if cpu >= CPU_MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and its size in bytes is passed with it.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Kernel id and name of every thread of this process.
pub fn threads() -> Vec<(u64, String)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let path = entry.ok()?.path();
        let tid = path.file_name()?.to_str()?.parse().ok()?;
        let name = std::fs::read_to_string(path.join("comm")).ok()?;
        Some((tid, name.trim_end().to_string()))
    })
    .collect()
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Linux's `SCHED_IDLE` policy: the thread runs only when no thread of a
/// normal policy wants its CPU.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
pub fn become_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread; `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_and_pins_own_threads() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty(), "the calling thread may run somewhere");
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
        let me = thread_id().expect("own thread id");
        assert!(threads().iter().any(|(tid, _)| *tid == me));
        // Pinning to a CPU the thread may already use is always allowed.
        assert!(pin_thread(0, cpus[0]));
        assert_eq!(allowed_cpus(), vec![cpus[0]]);
        assert!(!pin_thread(0, CPU_MASK_WORDS * 64), "beyond the mask");
    }
}
