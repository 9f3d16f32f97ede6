//! The host-speed reference that timed batches are scaled by.
//!
//! A shared virtual machine runs the same single-threaded batch at
//! speeds up to 1.6× apart, in phases of a few seconds, with no steal
//! time showing: the vCPUs' cores and caches are shared with other
//! tenants. A fixed loop of random swaps over a 512 KiB and a 4 MiB
//! table slows down in the same phases. [`HostSpeed::measure`] keeps a
//! batch on as many cores as it has workers and times the loop on
//! those same cores just before and just after it. The batch's wall
//! time is then scaled by the square root of [`REFERENCE_S`] over the
//! loop's mean time. In some phases the batches slowed as much as the
//! loop, in others (neighbours loading memory heavily) far less; the
//! square root kept ten-run spreads lowest across both (see
//! `BASELINE.md`). The loop is the benchmark's own code, so a change to
//! the program moves the batch and not the loop.

use std::time::Instant;

/// The reference loop's time on the baseline host (2-vCPU Xeon VM, see
/// `BASELINE.md`) in a quiet phase, in seconds.
pub const REFERENCE_S: f64 = 0.012;

/// log2 of each table's length in `u64`s, and the swaps made in it per
/// pass. Of the table sets tried, these two kept the scaled batch times
/// steadiest in the worst case (see `BASELINE.md`): adding a 16 MiB
/// table tracked quiet-host phases slightly better but slowed far more
/// than the batches when neighbours loaded memory heavily.
const TABLES: [(u32, usize); 2] = [(16, 1 << 21), (19, 1 << 20)];

/// The reference loop's tables, one set per core, allocated once.
pub struct HostSpeed {
    tables: Vec<Tables>,
}

struct Tables([Vec<u64>; 2]);

impl Tables {
    fn new() -> Self {
        Tables(TABLES.map(|(log2, _)| (0..1 << log2).collect()))
    }

    /// One pass of the loop; its wall time in seconds.
    fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for (table, (_, swaps)) in self.0.iter_mut().zip(TABLES) {
            let mask = table.len() - 1;
            for i in 0..swaps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                table.swap(i & mask, x as usize & mask);
            }
            std::hint::black_box(&*table);
        }
        start.elapsed().as_secs_f64()
    }
}

impl HostSpeed {
    /// Allocates and touches one set of tables (512 KiB and 4 MiB) per
    /// core, for `cores` cores.
    pub fn new(cores: usize) -> Self {
        HostSpeed {
            tables: (0..cores.max(1)).map(|_| Tables::new()).collect(),
        }
    }

    /// Runs the reference loop on `cores` threads at once and returns
    /// the mean of their wall times, in seconds.
    pub fn time(&mut self, cores: usize) -> f64 {
        let cores = cores.clamp(1, self.tables.len());
        let (first, rest) = self.tables[..cores]
            .split_first_mut()
            .expect("at least one core");
        let total: f64 = std::thread::scope(|scope| {
            let others: Vec<_> = rest.iter_mut().map(|t| scope.spawn(|| t.time())).collect();
            let mine = first.time();
            mine + others
                .into_iter()
                .map(|h| h.join().expect("reference loop thread"))
                .sum::<f64>()
        });
        total / cores as f64
    }

    /// Runs `f` with the calling thread, and the threads it starts,
    /// kept on the first `cores` of the CPUs it may use, and times the
    /// reference loop on those CPUs just before and just after. Returns
    /// `f`'s result and the loop's mean time. Where the CPU mask cannot
    /// be read or set, `f` and the loop run unrestricted.
    pub fn measure<R>(&mut self, cores: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let saved = affinity::get();
        if let Some(mask) = &saved {
            affinity::set(&affinity::first(mask, cores));
        }
        let before = self.time(cores);
        let result = f();
        let after = self.time(cores);
        if let Some(mask) = &saved {
            affinity::set(mask);
        }
        (result, (before + after) / 2.0)
    }
}

/// The calling thread's CPU mask, through the C library.
mod affinity {
    /// A `cpu_set_t` of 1,024 CPUs.
    #[repr(C)]
    pub struct CpuSet(pub [u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> Option<CpuSet> {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`; best effort.
    pub fn set(mask: &CpuSet) {
        // SAFETY: `mask` is a valid `cpu_set_t`-sized buffer and pid 0
        // names the calling thread. A failure leaves the mask as it was.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    }

    /// The lowest `n` CPUs of `mask` (all of them if it has fewer).
    pub fn first(mask: &CpuSet, n: usize) -> CpuSet {
        let mut out = CpuSet([0; 16]);
        let mut left = n.max(1);
        for (word, bits) in mask.0.iter().enumerate() {
            for bit in 0..64 {
                if left > 0 && bits & (1 << bit) != 0 {
                    out.0[word] |= 1 << bit;
                    left -= 1;
                }
            }
        }
        out
    }
}

/// `seconds` measured while the reference loop took `reference_s`,
/// scaled towards a host where it takes [`REFERENCE_S`] by the square
/// root of the loop's slowdown.
pub fn scaled(seconds: f64, reference_s: f64) -> f64 {
    seconds * (REFERENCE_S / reference_s).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus(mask: &affinity::CpuSet) -> u32 {
        mask.0.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn measure_keeps_the_run_on_the_cores_asked_for() {
        let all = affinity::get().expect("CPU mask readable");
        let mut host = HostSpeed::new(2);
        let (inside, reference_s) = host.measure(1, || affinity::get().expect("CPU mask"));
        assert_eq!(cpus(&inside), 1);
        assert!(reference_s > 0.0);
        assert_eq!(cpus(&affinity::get().expect("CPU mask")), cpus(&all));
        assert_eq!(cpus(&affinity::first(&all, usize::MAX)), cpus(&all));
    }
}
