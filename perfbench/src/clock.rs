//! Process CPU time, the clock the bounded time metrics read.
//!
//! On a shared host, wall time also counts the time this process spent
//! waiting for a core: other processes of the machine and hypervisor
//! steal both show up in it. The CPU time of every thread of the
//! process, live or ended, counts only the time its threads ran.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the whole process has used so far, at nanosecond
/// resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_counts_ended_threads() {
        let spin = || {
            let t = std::time::Instant::now();
            let mut x = 1u64;
            while t.elapsed().as_millis() < 60 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        };
        let t0 = process_cpu_s();
        spin();
        let t1 = process_cpu_s();
        assert!(t1 - t0 >= 0.03, "busy loop used {} s", t1 - t0);
        std::thread::spawn(spin).join().expect("spinner");
        let t2 = process_cpu_s();
        assert!(t2 - t1 >= 0.03, "an ended thread's time is kept");
    }
}
