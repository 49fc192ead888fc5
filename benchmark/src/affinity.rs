//! Confining a workload's process to one CPU.
//!
//! On a small VM a wake-up that crosses CPUs costs tens of microseconds
//! (a two-thread ping-pong on this box: ~300 k/s on one CPU, ~20 k/s
//! across two), a served request has four of them, and where the
//! scheduler puts the client, connection and worker threads changes every
//! few seconds. A request that costs ~50 us of software then measures
//! 90-150 us of hypervisor, and per-second throughput wanders by 2x. The
//! workloads whose requests are that short are therefore run on one CPU,
//! where every hand-off is a local context switch; see `Workload::pinned`.

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn set_affinity(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // room for 1024 CPUs
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of WORDS * 8 readable bytes and that is
    // the size passed; the call reads the mask and keeps no pointer. pid 0
    // is the calling thread; threads it spawns later inherit the mask.
    unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// The highest-numbered CPU this process may run on (CPU 0 takes most
/// interrupts, so the last one is the quieter choice).
fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|cpu| cpu.parse().ok())
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// one CPU. Call before anything is spawned. Returns whether it worked;
/// where it does not (no Linux, no permission) the run goes on unpinned
/// and says so.
pub fn pin_to_one_cpu() -> bool {
    let ok = last_allowed_cpu().is_some_and(set_affinity);
    if !ok {
        eprintln!("warning: could not confine the process to one CPU; latencies will be noisier");
    }
    ok
}
