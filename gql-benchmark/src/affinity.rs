//! Confining the process to one CPU.
//!
//! The machines this benchmark runs on are a few virtual CPUs of a shared
//! host. A request handed from a client thread to a service worker on
//! *another* virtual CPU pays an inter-processor interrupt and, when that
//! CPU was idle, its wake-up through the hypervisor: 60–100 µs that belong
//! to the host, vary with its load and with where the guest scheduler puts
//! each thread, and are two to three times the 55 µs the request itself
//! costs. With every thread on one CPU a hand-over is a context switch, the
//! same each time, and what is left to measure is the program.
//!
//! `sched_setaffinity` comes from the C library `std` already links; there
//! is no crate to add.

/// Room for 1024 CPUs, the kernel's usual `CONFIG_NR_CPUS` ceiling.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin every thread this process has to the first CPU it is allowed on;
/// threads started afterwards inherit the mask. Returns that CPU's number.
/// `available_parallelism` reports 1 from then on: read the machine's CPU
/// count first.
pub fn confine_to_one_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; WORDS];
    // SAFETY: the mask is WORDS * 8 writable bytes, the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or("the affinity mask is empty")?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bits.trailing_zeros();

    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for task in tasks {
        let name = task
            .map_err(|e| format!("/proc/self/task: {e}"))?
            .file_name();
        let Some(tid) = name.to_str().and_then(|s| s.parse::<i32>().ok()) else {
            continue;
        };
        // SAFETY: the mask is WORDS * 8 readable bytes, the size passed.
        if unsafe { sched_setaffinity(tid, WORDS * 8, one.as_ptr()) } != 0 {
            let err = std::io::Error::last_os_error();
            // A thread that ended since the directory was read is no loss.
            if err.raw_os_error() != Some(3) {
                return Err(format!("sched_setaffinity({tid}): {err}"));
            }
        }
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Confining would pin the test runner itself, so only the read side is
    /// exercised here; the `--smoke` test runs the rest.
    #[test]
    fn the_allowed_mask_is_readable_and_not_empty() {
        let mut allowed = [0u64; WORDS];
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) };
        assert_eq!(rc, 0);
        assert!(allowed.iter().any(|w| *w != 0));
    }
}
