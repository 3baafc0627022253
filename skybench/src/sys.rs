//! Process-level measurements: CPU time of the process or of the calling
//! thread, and peak resident memory.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Linux `CLOCK_THREAD_CPUTIME_ID`: user + system time of the calling
/// thread. Time the hypervisor takes the virtual CPU away for (steal) is
/// not counted.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User plus system CPU time consumed by this process so far.
pub fn process_cpu() -> Duration {
    cpu_time(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_time(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_time(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
