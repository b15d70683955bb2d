//! Host facilities: CPU affinity, resource usage, a process-independent
//! monotonic clock, and the host fingerprint embedded in every output.
//!
//! The repository has no external dependencies, so the few libc entry
//! points needed are declared here. They exist on 64-bit Linux only;
//! elsewhere every probe reports "unavailable" and the benchmark marks its
//! host-time metrics unresolved instead of reporting unpinned numbers.

use std::process::Command;

use dynmpi_obs::Json;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// Words in the affinity mask handed to the kernel: 1024 CPUs.
    pub const MASK_WORDS: usize = 16;
    pub const RUSAGE_SELF: i32 = 0;
    pub const RUSAGE_CHILDREN: i32 = -1;
    pub const CLOCK_MONOTONIC: i32 = 1;

    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` as laid out on 64-bit Linux (two timevals followed
    /// by fourteen longs).
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub ixrss: i64,
        pub idrss: i64,
        pub isrss: i64,
        pub minflt: i64,
        pub majflt: i64,
        pub nswap: i64,
        pub inblock: i64,
        pub oublock: i64,
        pub msgsnd: i64,
        pub msgrcv: i64,
        pub nsignals: i64,
        pub nvcsw: i64,
        pub nivcsw: i64,
    }

    #[repr(C)]
    #[derive(Default)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

/// Cumulative resource usage of a process (or of its reaped children).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set, KiB.
    pub max_rss_kib: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Usage accumulated since `earlier` (peak RSS is not a delta: it
    /// keeps the later reading).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            max_rss_kib: self.max_rss_kib,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("user_s", Json::Num(self.user_s)),
            ("sys_s", Json::Num(self.sys_s)),
            ("max_rss_kib", Json::UInt(self.max_rss_kib)),
            ("ctx_switches", Json::UInt(self.ctx_switches)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Usage> {
        Some(Usage {
            user_s: j.get("user_s")?.as_f64()?,
            sys_s: j.get("sys_s")?.as_f64()?,
            max_rss_kib: j.get("max_rss_kib")?.as_u64()?,
            ctx_switches: j.get("ctx_switches")?.as_u64()?,
        })
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage(who: i32) -> Option<Usage> {
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout; the kernel writes exactly that many bytes.
    let rc = unsafe { sys::getrusage(who, &mut ru) };
    (rc == 0).then(|| Usage {
        user_s: ru.utime.sec as f64 + ru.utime.usec as f64 * 1e-6,
        sys_s: ru.stime.sec as f64 + ru.stime.usec as f64 * 1e-6,
        max_rss_kib: ru.maxrss.max(0) as u64,
        ctx_switches: (ru.nvcsw.max(0) + ru.nivcsw.max(0)) as u64,
    })
}

/// Resource usage of this process, all threads included.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage_self() -> Option<Usage> {
    rusage(sys::RUSAGE_SELF)
}

/// Resource usage of every child this process has waited for.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage_children() -> Option<Usage> {
    rusage(sys::RUSAGE_CHILDREN)
}

/// CPUs this process may run on, ascending.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; sys::MASK_WORDS];
    // SAFETY: `mask` is writable and its byte length is the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..sys::MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpus`. Returns whether the kernel accepted the mask.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; sys::MASK_WORDS];
    for &c in cpus {
        if c >= sys::MASK_WORDS * 64 {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is readable and its byte length is the size passed.
    !cpus.is_empty()
        && unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

/// Nanoseconds on `CLOCK_MONOTONIC`, which every process on the host
/// shares: a parent's reading taken before `spawn` and a child's reading
/// are comparable, which is how set-up time is measured.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn now_ns() -> u64 {
    let mut ts = sys::Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec`.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod fallback {
    use super::Usage;

    pub fn usage_self() -> Option<Usage> {
        None
    }

    pub fn usage_children() -> Option<Usage> {
        None
    }

    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn set_affinity(_cpus: &[usize]) -> bool {
        false
    }

    /// Wall-clock stand-in: comparable across processes, not monotonic.
    pub fn now_ns() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub use fallback::{allowed_cpus, now_ns, set_affinity, usage_children, usage_self};

/// Pins the calling thread (call it before spawning any other) to the
/// highest-numbered CPU it is allowed on; CPU 0 tends to carry the host's
/// interrupts. `None` when pinning is
/// unavailable or refused: the caller runs anyway and marks host-time
/// metrics unresolved.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    set_affinity(&[cpu]).then_some(cpu)
}

/// A pinned CPU as the outputs carry it: its number, or `null`.
pub fn cpu_json(cpu: Option<usize>) -> Json {
    cpu.map_or(Json::Null, |c| Json::UInt(c as u64))
}

/// What identifies the machine and commit a number was taken on.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub commit: String,
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

impl Fingerprint {
    /// Reads the fingerprint. Call from an unpinned process: `nproc` is
    /// the parallelism available to it.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |t| first_line(&t));
        // A checkout that is not a git repository (the contract driver's)
        // has no commit to name.
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| first_line(&String::from_utf8_lossy(&o.stdout)),
            );
        Fingerprint {
            nproc: dynmpi_testkit::available_threads(),
            cpu_model,
            kernel,
            commit,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::UInt(self.nproc as u64)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("kernel", Json::str(self.kernel.clone())),
            ("commit", Json::str(self.commit.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_round_trips_through_json() {
        let u = Usage {
            user_s: 1.25,
            sys_s: 0.5,
            max_rss_kib: 4096,
            ctx_switches: 77,
        };
        assert_eq!(Usage::from_json(&u.to_json()), Some(u));
    }

    #[test]
    fn usage_delta_keeps_later_peak() {
        let a = Usage {
            user_s: 1.0,
            sys_s: 1.0,
            max_rss_kib: 10,
            ctx_switches: 5,
        };
        let b = Usage {
            user_s: 3.0,
            sys_s: 1.5,
            max_rss_kib: 30,
            ctx_switches: 9,
        };
        let d = b.since(&a);
        assert_eq!((d.user_s, d.sys_s), (2.0, 0.5));
        assert_eq!((d.max_rss_kib, d.ctx_switches), (30, 4));
    }
}
