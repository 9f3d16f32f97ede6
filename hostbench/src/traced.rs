//! What the traced runs share: the run digest, the per-shard step clock
//! and the traced run's result.

use std::collections::HashMap;
use std::thread::ThreadId;

use crate::trace::{Layer, Tracer};

/// FNV-1a 64-bit, as the platform folds its run digests.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds `v` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Opens and closes a shard's `Shard::step` span and remembers which
/// worker thread ran it, so step time can be grouped per worker.
#[derive(Debug, Default)]
pub struct StepClock {
    thread: Option<ThreadId>,
}

impl StepClock {
    /// Call first thing in `Shard::step`.
    pub fn enter(&mut self, tracer: &mut Tracer) {
        self.thread = Some(std::thread::current().id());
        tracer.enter(
            Layer::Step,
            tracer.now_ns(),
            enzian_sim::alloc_count::allocations(),
        );
    }

    /// Call last thing in `Shard::step`.
    pub fn exit(&self, tracer: &mut Tracer) {
        tracer.exit(tracer.now_ns(), enzian_sim::alloc_count::allocations());
    }
}

/// One traced run: the rebuilt platform report, its wall time, and each
/// shard's tracer and step clock.
pub struct TracedRun<R> {
    /// The report rebuilt from the traced shards.
    pub report: R,
    /// Host seconds inside `run_conservative`.
    pub wall_s: f64,
    /// One tracer per shard.
    pub tracers: Vec<Tracer>,
    /// One step clock per shard.
    pub clocks: Vec<StepClock>,
}

impl<R> TracedRun<R> {
    /// The same run with its report converted by `f`.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> TracedRun<S> {
        TracedRun {
            report: f(self.report),
            wall_s: self.wall_s,
            tracers: self.tracers,
            clocks: self.clocks,
        }
    }

    /// Every shard's aggregates folded into one tracer.
    pub fn merged(&self) -> Tracer {
        let mut all = Tracer::new(std::time::Instant::now(), 0);
        for t in &self.tracers {
            all.absorb_totals(t);
        }
        all
    }

    /// `(step_s, wait_s)` summed over workers: each worker's time inside
    /// `Shard::step` of the shards it ran, and the rest of the run's
    /// wall time, which it spent at barriers, exchanging envelopes and
    /// scanning for the next epoch.
    pub fn step_and_wait(&self) -> (f64, f64) {
        let mut per_worker: HashMap<ThreadId, u64> = HashMap::new();
        for (t, c) in self.tracers.iter().zip(&self.clocks) {
            if let Some(id) = c.thread {
                *per_worker.entry(id).or_default() += t.totals(Layer::Step).total_ns;
            }
        }
        let step_s: f64 = per_worker.values().map(|&ns| ns as f64 * 1e-9).sum();
        let wait_s = per_worker
            .values()
            .map(|&ns| (self.wall_s - ns as f64 * 1e-9).max(0.0))
            .sum();
        (step_s, wait_s)
    }

    /// Writes every tracer's kept spans to `path`.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        use std::io::Write;
        writeln!(w, "tracer\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, t) in self.tracers.iter().enumerate() {
            t.write_spans(i, &mut w)?;
        }
        w.flush()
    }
}
