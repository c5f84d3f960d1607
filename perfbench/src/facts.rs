//! Machine facts and process measurements recorded with every run.

use std::ffi::{c_char, c_int, c_long, CStr};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::ms;

extern "C" {
    /// From libz3, which the `z3` shim links.
    fn Z3_get_full_version() -> *const c_char;
    /// POSIX `sysconf(3)`.
    fn sysconf(name: c_int) -> c_long;
}

/// The stamp of the source tree this binary was built from (see `build.rs`).
pub const TREE_STAMP: &str = env!("PERFBENCH_TREE_STAMP");

/// The linked libz3's full version string.
pub fn z3_version() -> String {
    // SAFETY: `Z3_get_full_version` takes no arguments and returns a pointer
    // to a static, NUL-terminated string owned by libz3 for the life of the
    // process; it is only read here.
    unsafe { CStr::from_ptr(Z3_get_full_version()) }.to_string_lossy().into_owned()
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times a fixed amount of single-threaded integer work, in milliseconds.
/// Taken at the start and end of every run: a run whose calibration moved
/// was measured on a machine whose speed moved.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for i in 0..40_000_000_u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    ms(start.elapsed())
}

/// Resets this process's peak resident set size to its current one (Linux
/// `clear_refs` value 5), so [`peak_rss_mb`] then reads the peak of what
/// follows. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (since the last
/// [`reset_peak_rss`]), in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_s() -> f64 {
    const SC_CLK_TCK: c_int = 2;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line
    let Some((_, rest)) = stat.rsplit_once(')') else { return f64::NAN };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(f64::NAN);
    // SAFETY: `sysconf` only reads its integer argument.
    let hz = unsafe { sysconf(SC_CLK_TCK) } as f64;
    (ticks(11) + ticks(12)) / hz
}
