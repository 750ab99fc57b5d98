//! The machine and build a result was measured on, and process CPU time.
//!
//! Numbers are only comparable between runs with the same fingerprint:
//! wall-clock results from different machines are never compared.

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Env {
    /// Cargo features the crates are built with: always their defaults,
    /// as `repro` and `dyrs-node` ship them.
    pub features: &'static str,
    /// CPUs this process may run on.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
}

impl Env {
    /// Probe the current process.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Env {
            features: "obs",
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec with the C
    // layout of a 64-bit Linux `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a, "{x}");
    }
}
