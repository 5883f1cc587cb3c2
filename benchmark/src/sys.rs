//! CPU, thread and memory accounting read from `/proc` (Linux).

use std::sync::OnceLock;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields in `/proc/*/stat`:
/// `AT_CLKTCK` from the auxiliary vector, 100 if it cannot be read.
fn ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    static TICKS: OnceLock<u64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        std::fs::read("/proc/self/auxv")
            .ok()
            .and_then(|auxv| {
                auxv.chunks_exact(16).find_map(|pair| {
                    let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
                    let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
                    (key == AT_CLKTCK).then_some(value)
                })
            })
            .filter(|&t| t > 0)
            .unwrap_or(100)
    })
}

/// `utime + stime` of one `/proc/.../stat` file.
fn stat_cpu(path: &str) -> Option<Duration> {
    let stat = std::fs::read_to_string(path).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    // fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_nanos(
        ticks.saturating_mul(1_000_000_000) / ticks_per_second(),
    ))
}

/// CPU time the hypervisor took from this machine's cores (`steal` in
/// `/proc/stat`), summed over cores; zero where it is not reported.
pub fn steal() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_nanos(ticks.saturating_mul(1_000_000_000) / ticks_per_second())
}

/// CPU time of the whole process, exited threads included.
pub fn process_cpu() -> Duration {
    stat_cpu("/proc/self/stat").expect("/proc/self/stat is readable (Linux only)")
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    stat_cpu("/proc/thread-self/stat").expect("/proc/thread-self/stat is readable (Linux only)")
}

/// CPU time of one thread of this process, `None` once it has exited.
pub fn task_cpu(tid: u32) -> Option<Duration> {
    stat_cpu(&format!("/proc/self/task/{tid}/stat"))
}

/// Ids of the threads this process runs right now, ascending.
pub fn task_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable (Linux only)")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// Threads present in `after` but not in `before` (both ascending).
pub fn new_tasks(before: &[u32], after: &[u32]) -> Vec<u32> {
    after
        .iter()
        .copied()
        .filter(|t| before.binary_search(t).is_err())
        .collect()
}

/// Process high-water resident set size in MiB.
pub fn rss_peak_mb() -> f64 {
    stream_engine::vm_hwm_kb().expect("VmHWM in /proc/self/status (Linux only)") as f64 / 1024.0
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Name of the SIMD backend the class-core kernels dispatched to.
pub fn simd_backend() -> &'static str {
    class_core::simd::active_backend().name()
}
