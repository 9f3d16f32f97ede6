//! The untraced and traced benchmark runs and the metrics they report.

use std::time::Instant;

use enzian_eci::EngineStats;
use enzian_sim::alloc_count;

use crate::speed::{self, HostSpeed};
use crate::trace::{quantile, tail_quantile, Layer, Tracer};
use crate::workload::{gate, Report, Size, Spec, Workload};
use crate::{alloc, coherence, traffic};

/// Raw spans each traced shard keeps for the span file.
pub const SPAN_BUDGET: usize = 1 << 13;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one benchmark invocation found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated operations the timed runs attempted.
    pub attempted: u64,
    /// Operations in runs that failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Failed checks, each naming what differed.
    pub failures: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The benchmark's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Benchmark seed (`0` is the workload's default seed).
    pub seed: u64,
    /// Batch size.
    pub size: Size,
    /// Host seconds to keep running trials for.
    pub seconds: f64,
    /// Worker threads of the parallel runs (the host's core count).
    pub threads: usize,
}

/// One untraced run. Runs that count allocations are left out of the
/// timings.
struct Trial {
    threads: usize,
    counted: bool,
    /// Set-up times, scaled by the reference loop.
    setup_s: Vec<f64>,
    /// Run wall time as measured.
    raw_wall_s: f64,
    /// Run wall time, scaled by the reference loop.
    wall_s: f64,
    /// The reference loop's time around the run.
    reference_s: f64,
    allocs: u64,
    ops: u64,
}

impl Trial {
    /// Scales the trial's times by the reference loop, given the
    /// reference loop's time around it.
    fn scale(&mut self, reference_s: f64) {
        self.reference_s = reference_s;
        self.wall_s = speed::scaled(self.raw_wall_s, reference_s);
        for s in &mut self.setup_s {
            *s = speed::scaled(*s, reference_s);
        }
    }
}

/// Set-ups timed per trial; the trial runs the last one.
const SETUP_REPEATS: usize = 16;

/// Sets a run up (workload from seed index `n`, validation, and the
/// cluster for `coherence`) [`SETUP_REPEATS`] times, timing each, then
/// runs the last set-up to completion, counting its allocations when
/// `counted`. The first set-up is timed from `setup_from`.
fn trial(
    p: &Params,
    n: u64,
    threads: usize,
    counted: bool,
    setup_from: Instant,
) -> (Spec, Trial, Report) {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut from = setup_from;
    let (spec, prepared) = loop {
        let spec = p.workload.spec(n, p.size);
        spec.validate();
        let prepared = std::hint::black_box(spec.prepare());
        setup_s.push(from.elapsed().as_secs_f64());
        if setup_s.len() == SETUP_REPEATS {
            break (spec, prepared);
        }
        drop(prepared);
        from = Instant::now();
    };
    alloc::set_counting(counted);
    let allocs0 = alloc_count::allocations();
    let start = Instant::now();
    let report = std::hint::black_box(prepared.run(threads));
    let raw_wall_s = start.elapsed().as_secs_f64();
    let allocs = alloc_count::allocations() - allocs0;
    alloc::set_counting(false);
    let trial = Trial {
        threads,
        counted,
        setup_s,
        raw_wall_s,
        wall_s: raw_wall_s,
        reference_s: speed::REFERENCE_S,
        allocs,
        ops: report.ops(),
    };
    (spec, trial, report)
}

/// The thread counts trials alternate between.
fn counts(p: &Params) -> Vec<usize> {
    if p.threads > 1 {
        vec![p.threads, 1]
    } else {
        vec![1]
    }
}

/// What [`trials`] ran.
struct Trials {
    all: Vec<Trial>,
    /// The threads=N report of each sub-seed's first pair, in sub-seed
    /// order.
    firsts: Vec<Report>,
    /// VmHWM after the first trial, in MB.
    peak_mb: f64,
}

/// Runs pairs of trials, at `p.threads` and then at one thread, cycling
/// through the workload's sub-seeds, until `seconds` have passed. The
/// first pair of each sub-seed counts allocations and is gated; at
/// least one timed pair follows, and every later report is checked
/// against its sub-seed's first. Each trial runs on as many cores as
/// it has workers and is scaled by the reference loop's runs on those
/// cores just before and after it.
fn trials(p: &Params, seconds: f64, process_start: Instant, out: &mut Outcome) -> Trials {
    let start = Instant::now();
    let counts = counts(p);
    let sub_seeds = p.workload.sub_seeds();
    let mut all: Vec<Trial> = Vec::new();
    let mut firsts: Vec<Report> = Vec::new();
    let mut peak_mb = 0.0;
    // Allocated after the first trial, so that VmHWM is the program's.
    let mut host: Option<HostSpeed> = None;
    for pair in 0u64.. {
        let j = pair % sub_seeds;
        let n = p.workload.seed_index(p.seed, j);
        let gated = pair < sub_seeds;
        let failed_before = out.failures.len();
        let mut reports = Vec::with_capacity(counts.len());
        let mut spec = None;
        for &threads in &counts {
            let ((s, mut t, report), reference_s) = match host.as_mut() {
                Some(host) => host.measure(threads, || trial(p, n, threads, gated, Instant::now())),
                None => {
                    let first = trial(p, n, threads, gated, process_start);
                    // Later trials reuse the allocator's free lists, so
                    // the peak is read after the first one only.
                    peak_mb = peak_rss_mb();
                    let host = host.insert(HostSpeed::new(p.threads));
                    (first, host.measure(threads, || ()).1)
                }
            };
            t.scale(reference_s);
            out.attempted += report.ops();
            if !gated {
                if let Err(e) = report.matches(&firsts[j as usize]) {
                    out.failures.push(format!(
                        "trial {} (sub-seed {j}) at threads={threads} differs: {e}",
                        all.len()
                    ));
                }
            }
            all.push(t);
            reports.push(report);
            spec = Some(s);
        }
        if gated {
            let (tn, t1) = (&reports[0], &reports[reports.len() - 1]);
            let spec = spec.expect("a pair runs at least one trial");
            if let Err(f) = gate(p.workload, n, p.size, &spec, t1, tn) {
                out.failures.extend(f);
            }
        }
        if out.failures.len() > failed_before {
            out.failed += reports.iter().map(Report::ops).sum::<u64>();
        }
        if gated {
            firsts.push(reports.swap_remove(0));
        }
        if (!gated && start.elapsed().as_secs_f64() >= seconds) || !out.failures.is_empty() {
            break;
        }
    }
    Trials {
        all,
        firsts,
        peak_mb,
    }
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn timed(all: &[Trial], threads: usize) -> impl Iterator<Item = &Trial> {
    all.iter()
        .filter(move |t| t.threads == threads && !t.counted)
}

/// Median operations per second of the timed trials at `threads`,
/// scaled by the reference loop.
fn median_rate(all: &[Trial], threads: usize) -> f64 {
    median(
        timed(all, threads)
            .map(|t| t.ops as f64 / t.wall_s)
            .collect(),
    )
}

/// The same as measured, unscaled.
fn median_raw_rate(all: &[Trial], threads: usize) -> f64 {
    median(
        timed(all, threads)
            .map(|t| t.ops as f64 / t.raw_wall_s)
            .collect(),
    )
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(p: &Params, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let Trials {
        all,
        firsts,
        peak_mb,
    } = trials(p, p.seconds, process_start, &mut out);
    let counted: Vec<&Trial> = all
        .iter()
        .filter(|t| t.counted && t.threads == p.threads)
        .collect();
    let sum = |f: &dyn Fn(&Report) -> u64| firsts.iter().map(f).sum::<u64>() as f64;
    out.push("ops_per_s", median_rate(&all, p.threads), "1/s");
    out.push("ops_per_s_t1", median_rate(&all, 1), "1/s");
    out.push(
        "setup_s",
        median(all.iter().flat_map(|t| t.setup_s.iter().copied()).collect()),
        "s",
    );
    out.push("peak_rss_mb", peak_mb, "MB");
    out.push(
        "allocs_per_op",
        counted.iter().map(|t| t.allocs).sum::<u64>() as f64
            / counted.iter().map(|t| t.ops).sum::<u64>() as f64,
        "allocs/op",
    );
    out.push(
        "completed_frac",
        sum(&Report::completed) / sum(&Report::ops),
        "ratio",
    );
    for threads in counts(p) {
        let walls: Vec<String> = timed(&all, threads)
            .map(|t| format!("{:.3}", t.raw_wall_s))
            .collect();
        out.notes.push(format!(
            "threads={threads}: {} timed runs of {} operations, wall s as measured [{}]; \
             {:.0} ops/s as measured, {:.0} ops/s scaled by the reference loop",
            walls.len(),
            firsts[0].ops(),
            walls.join(", "),
            median_raw_rate(&all, threads),
            median_rate(&all, threads),
        ));
    }
    let refs: Vec<f64> = all.iter().map(|t| t.reference_s).collect();
    out.notes.push(format!(
        "reference loop: median {:.4} s, min {:.4} s, max {:.4} s over {} trials (REFERENCE_S {} s)",
        median(refs.clone()),
        refs.iter().copied().fold(f64::INFINITY, f64::min),
        refs.iter().copied().fold(0.0, f64::max),
        refs.len(),
        speed::REFERENCE_S,
    ));
    out
}

/// Per-call timing figures of one layer: median, 99.9th percentile,
/// the highest percentile with at least ten samples beyond it, and the
/// sample count.
fn push_per_call(out: &mut Outcome, prefix: &str, t: &crate::trace::LayerTotals) {
    let mut s = t.samples.clone();
    s.sort_unstable();
    let q = tail_quantile(s.len());
    out.push(&format!("{prefix}.p50"), quantile(&s, 0.5) as f64, "ns");
    out.push(&format!("{prefix}.p999"), quantile(&s, 0.999) as f64, "ns");
    out.push(&format!("{prefix}.tail"), quantile(&s, q) as f64, "ns");
    out.push(&format!("{prefix}.samples"), s.len() as f64, "count");
    if !s.is_empty() {
        out.notes.push(format!(
            "{prefix}.tail is quantile {q} of {} samples (max {} ns)",
            s.len(),
            s[s.len() - 1]
        ));
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The traced run: per-layer metrics.
///
/// Untraced trials run for half of `p.seconds` to fix the untraced
/// throughput at both thread counts. Then the workload runs traced
/// twice: at one thread for per-call times and allocations (the
/// allocation counter is process-wide, so a second worker would blur
/// it), and at `p.threads` for step and wait time and the tracing
/// overhead, which includes the cost of counting allocations. Both
/// traced reports must equal the untraced one of sub-seed 0. Traced
/// and untraced throughput are both scaled by the reference loop.
pub fn per_layer(p: &Params, process_start: Instant, spans: Option<&std::path::Path>) -> Outcome {
    let mut out = Outcome::default();
    let Trials { all, firsts, .. } = trials(p, p.seconds / 2.0, process_start, &mut out);
    let untraced_tn = median_rate(&all, p.threads);
    let untraced_t1 = median_rate(&all, 1);
    let base = &firsts[0];
    let ops = base.ops() as f64;
    let (epochs, skipped) = base.epochs();

    // Each traced run is scaled by the reference loop like the
    // untraced trials.
    let mut host = HostSpeed::new(p.threads);
    alloc::set_counting(true);
    let traced = match p.workload.spec(p.workload.seed_index(p.seed, 0), p.size) {
        Spec::Traffic(w) => Some([1, p.threads].map(|threads| {
            let budget = if threads == 1 { SPAN_BUDGET } else { 0 };
            host.measure(threads, || {
                traffic::run(&w, threads, budget).map(Report::Traffic)
            })
        })),
        Spec::Coherence {
            boards,
            slice_bytes,
            work,
        } => Some([1, p.threads].map(|threads| {
            let budget = if threads == 1 { SPAN_BUDGET } else { 0 };
            host.measure(threads, || {
                coherence::run(boards, slice_bytes, &work, threads, budget).map(|r| {
                    Report::Coherence {
                        report: r.report,
                        engine: r.engine,
                        violations: Vec::new(),
                    }
                })
            })
        })),
        Spec::Service(_) => None,
    };
    alloc::set_counting(false);

    out.push("sim.par.epochs", epochs as f64, "count");
    out.push("sim.par.epochs_skipped", skipped as f64, "count");
    out.push("sim.par.messages", base.messages() as f64, "count");
    out.push(
        "sim.par.msgs_per_epoch",
        ratio(base.messages() as f64, epochs as f64),
        "count",
    );
    out.push(
        "sim.par.speedup_2t",
        ratio(untraced_tn, untraced_t1),
        "ratio",
    );

    let (tracer, traced_tn_wall, (step_s, wait_s)) = match &traced {
        Some([(t1, _), (tn, tn_reference_s)]) => {
            for r in [t1, tn] {
                if let Err(e) = r.report.matches(base) {
                    out.failures
                        .push(format!("traced report differs from the untraced one: {e}"));
                    out.failed += r.report.ops();
                }
            }
            if let Some(path) = spans {
                match t1.write_spans(path) {
                    Ok(()) => out.notes.push(format!(
                        "spans of the threads=1 traced run written to {} ({} kept, {} aggregated only)",
                        path.display(),
                        t1.tracers.iter().map(|t| t.spans().len()).sum::<usize>(),
                        t1.tracers.iter().map(Tracer::dropped).sum::<u64>()
                    )),
                    Err(e) => out.notes.push(format!("could not write spans: {e}")),
                }
            }
            (
                t1.merged(),
                speed::scaled(tn.wall_s, *tn_reference_s),
                tn.step_and_wait(),
            )
        }
        None => {
            out.notes.push(format!(
                "{}: per-layer figures are counts only. Its boards are private to \
                 platform::service and timing inside it is left to a later change, so \
                 sim.par.step_s/wait_s, platform.shard.*, codec time and allocations, \
                 sim.channel.* and trace.* read 0.",
                p.workload.name()
            ));
            (Tracer::new(Instant::now(), 0), 0.0, (0.0, 0.0))
        }
    };
    out.push("sim.par.step_s", step_s, "s");
    out.push("sim.par.wait_s", wait_s, "s");

    let tot = |l: Layer| tracer.totals(l);
    let secs = |ns: u64| ns as f64 * 1e-9;
    out.push("platform.shard.self_s", secs(tot(Layer::Step).self_ns), "s");
    out.push(
        "platform.shard.allocs",
        tot(Layer::Step).self_allocs as f64,
        "count",
    );

    // The mux layer: traffic workloads only.
    let mux = [Layer::MuxOpen, Layer::MuxSegment, Layer::MuxTimer];
    let mux_calls: u64 = mux.iter().map(|&l| tot(l).calls).sum();
    let mux_self: u64 = mux.iter().map(|&l| tot(l).self_ns).sum();
    let mux_allocs: u64 = mux.iter().map(|&l| tot(l).self_allocs).sum();
    out.push("net.mux.calls", mux_calls as f64, "count");
    out.push("net.mux.self_s", secs(mux_self), "s");
    push_per_call(&mut out, "net.mux.on_segment_ns", tot(Layer::MuxSegment));
    out.push(
        "net.mux.allocs_per_segment",
        ratio(mux_allocs as f64, tot(Layer::MuxSegment).calls as f64),
        "allocs/seg",
    );
    let (peak, slots, tx, retx, rto) = match base {
        Report::Traffic(r) => (
            r.peak_flows,
            r.table_slots,
            r.segments_tx,
            r.retransmissions,
            r.rto_fires,
        ),
        _ => (0, 0, 0, 0, 0),
    };
    out.push("net.mux.peak_flows", peak as f64, "count");
    out.push("net.mux.table_slots", slots as f64, "count");
    out.push("net.mux.segments_tx", tx as f64, "count");
    out.push(
        "net.mux.timer_fires",
        tot(Layer::MuxTimer).calls as f64,
        "count",
    );
    out.push(
        "net.mux.timer_self_s",
        secs(tot(Layer::MuxTimer).self_ns),
        "s",
    );
    out.push("net.mux.retransmissions", retx as f64, "count");
    out.push("net.mux.rto_fires", rto as f64, "count");
    out.push(
        "net.mux.useful_tx_ratio",
        ratio(tx.saturating_sub(retx) as f64, tx as f64),
        "ratio",
    );

    // Codecs and the fabric channel.
    let seg = tot(Layer::SegmentCodec);
    out.push("net.traffic.codec_s", secs(seg.self_ns), "s");
    out.push("net.traffic.codec_calls", seg.calls as f64, "count");
    let (frames, wire) = match base {
        Report::Traffic(r) => (r.frames, r.wire_bytes),
        Report::Coherence { report, .. } => (report.bridge_frames, report.bridge_wire_bytes),
        Report::Service(r) => (r.svc_frames, r.wire_bytes),
    };
    let bridge = tot(Layer::BridgeCodec);
    out.push("eci.bridge.codec_s", secs(bridge.self_ns), "s");
    out.push("eci.bridge.frames", frames as f64, "count");
    out.push("eci.bridge.wire_bytes", wire as f64, "bytes");
    out.push(
        "eci.bridge.allocs_per_frame",
        ratio(bridge.self_allocs as f64, frames as f64),
        "allocs/frame",
    );
    out.push(
        "sim.channel.calls",
        tot(Layer::ChannelSend).calls as f64,
        "count",
    );
    out.push(
        "sim.channel.self_s",
        secs(tot(Layer::ChannelSend).self_ns),
        "s",
    );

    // The ECI system: coherence only.
    let eci = tot(Layer::EciOp);
    out.push("eci.system.calls", eci.calls as f64, "count");
    out.push("eci.system.self_s", secs(eci.self_ns), "s");
    push_per_call(&mut out, "eci.system.op_ns", eci);
    out.push(
        "eci.system.allocs_per_op",
        ratio(eci.self_allocs as f64, eci.calls as f64),
        "allocs/op",
    );
    let engine = match base {
        Report::Coherence { engine, .. } => *engine,
        _ => EngineStats::default(),
    };
    out.push(
        "eci.engine.mshr_conflicts",
        engine.mshr_conflicts as f64,
        "count",
    );
    out.push(
        "eci.engine.mshr_full_stalls",
        engine.mshr_full_stalls as f64,
        "count",
    );
    out.push(
        "eci.engine.vc_queue_stalls",
        engine.vc_queue_stalls as f64,
        "count",
    );
    out.push(
        "eci.engine.max_inflight",
        engine.max_inflight as f64,
        "count",
    );

    // The replicated service: kv_service only.
    let (msgs_per_op, failovers, catchups, solo, stale) = match base {
        Report::Service(r) => (
            ratio(r.messages as f64, ops),
            r.failovers,
            r.catchups_completed,
            r.solo_commits,
            r.stale_served,
        ),
        _ => (0.0, 0, 0, 0, 0),
    };
    out.push("apps.service.messages_per_op", msgs_per_op, "count");
    out.push("apps.service.failovers", failovers as f64, "count");
    out.push("apps.service.catchups_completed", catchups as f64, "count");
    out.push("apps.service.solo_commits", solo as f64, "count");
    out.push("apps.service.stale_served", stale as f64, "count");

    // Tracing overhead: traced versus untraced throughput at p.threads.
    let traced_ops = ratio(ops, traced_tn_wall);
    out.push("trace.traced_ops_per_s", traced_ops, "1/s");
    out.push("trace.overhead", ratio(untraced_tn, traced_ops), "ratio");
    out.push(
        "trace.spans",
        Layer::ALL.iter().map(|&l| tot(l).calls).sum::<u64>() as f64,
        "count",
    );
    out
}
