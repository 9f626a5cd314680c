//! Best-effort CPU pinning for datapath worker threads.
//!
//! The ingress/worker pipeline (`flymon_netsim::datapath`) pins each
//! worker thread to its own core so a replica's register working set
//! stays in one L1/L2 and the OS cannot migrate a worker mid-replay.
//! `std` exposes no affinity API and the workspace takes no external
//! dependencies, so on Linux/x86_64 this issues the raw
//! `sched_setaffinity` syscall (nr 203) directly; everywhere else it is
//! a no-op returning `false`.
//!
//! Pinning is *purely advisory*: every caller must behave identically
//! when it fails (cgroup restrictions, fewer cores than workers,
//! unsupported target). Nothing about replay semantics — claims, merge
//! laws, per-worker state — may depend on where a thread runs; this
//! module only narrows where the scheduler may place it.
//!
//! This is deliberately the only unsafe code in the workspace, kept
//! behind the crate's `deny(unsafe_code)` + scoped allow so the netsim
//! crate's blanket `forbid(unsafe_code)` stays intact.

/// Width of the CPU mask passed to the kernel: 1024 bits, the classic
/// `CPU_SETSIZE`, as sixteen 64-bit words.
const MASK_WORDS: usize = 16;

/// Pins the *calling thread* to `core` (best effort). Returns `true`
/// when the kernel accepted the mask, `false` on any failure or on
/// targets without the syscall — callers must treat both outcomes the
/// same apart from scheduling quality.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(core: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let bit = core % (MASK_WORDS * 64);
    mask[bit / 64] = 1u64 << (bit % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(pid=0, len, mask) reads `len` bytes from
    // `mask`, which outlives the call and is exactly `MASK_WORDS * 8`
    // bytes; pid 0 addresses the calling thread only. The syscall
    // clobbers rcx/r11 per the x86_64 ABI, declared below. No Rust
    // memory is written by the kernel.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret, // __NR_sched_setaffinity
            in("rdi") 0i64,                 // pid 0 = calling thread
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// No-op fallback: targets without a usable affinity syscall report
/// `false` and leave scheduling to the OS.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_best_effort_and_inert() {
        // Whatever the host allows, the call must return (no fault, no
        // hang) and computation afterwards is unaffected.
        let accepted = pin_current_thread(0);
        let sum: u64 = (0..1000u64).sum();
        assert_eq!(sum, 499_500);
        // On Linux/x86_64 pinning to CPU 0 is expected to succeed in
        // any environment that lets us run at all; elsewhere it must
        // report false rather than pretend.
        if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert!(!accepted);
        }
    }

    #[test]
    fn out_of_range_core_does_not_fault() {
        // A core index beyond the host's CPUs (or the mask width) must
        // degrade to a clean false/true, never UB or a crash.
        let _ = pin_current_thread(usize::MAX);
        let _ = pin_current_thread(1 << 20);
    }
}
