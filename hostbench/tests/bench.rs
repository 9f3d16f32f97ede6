//! Tests of the benchmark itself: the span arithmetic, the percentile
//! rules, the workloads' configurations, and the correctness gate and
//! traced runs at a tiny size.

use std::time::Instant;

use enzian_hostbench::measure::{end_to_end, per_layer, Params};
use enzian_hostbench::speed::{scaled, HostSpeed, REFERENCE_S};
use enzian_hostbench::trace::{quantile, tail_quantile, Layer, Span, Tracer};
use enzian_hostbench::workload::{diff_counters, Size, Workload};

#[test]
fn self_time_subtracts_child_spans() {
    // step [0, 100) holds on_segment [10, 40) and send [50, 70);
    // on_segment holds a codec call [15, 25). Allocation counts run
    // alongside: the step makes 1, on_segment 2, the codec 4, send 8.
    let mut t = Tracer::new(Instant::now(), 16);
    t.enter(Layer::Step, 0, 0);
    t.enter(Layer::MuxSegment, 10, 1);
    t.enter(Layer::SegmentCodec, 15, 2);
    t.exit(25, 6);
    t.exit(40, 7);
    t.enter(Layer::ChannelSend, 50, 7);
    t.exit(70, 15);
    t.exit(100, 15);

    let step = t.totals(Layer::Step);
    assert_eq!((step.calls, step.total_ns, step.self_ns), (1, 100, 50));
    assert_eq!(step.self_allocs, 1);
    let seg = t.totals(Layer::MuxSegment);
    assert_eq!((seg.total_ns, seg.self_ns, seg.self_allocs), (30, 20, 2));
    assert_eq!(seg.samples, vec![30]);
    let codec = t.totals(Layer::SegmentCodec);
    assert_eq!((codec.self_ns, codec.self_allocs), (10, 4));
    let send = t.totals(Layer::ChannelSend);
    assert_eq!((send.self_ns, send.self_allocs), (20, 8));

    // Self times partition the root's duration.
    let self_sum: u64 = Layer::ALL.iter().map(|&l| t.totals(l).self_ns).sum();
    assert_eq!(self_sum, 100);

    assert_eq!(
        t.spans(),
        &[
            Span {
                layer: Layer::Step,
                parent: None,
                start_ns: 0,
                end_ns: 100
            },
            Span {
                layer: Layer::MuxSegment,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40
            },
            Span {
                layer: Layer::SegmentCodec,
                parent: Some(1),
                start_ns: 15,
                end_ns: 25
            },
            Span {
                layer: Layer::ChannelSend,
                parent: Some(0),
                start_ns: 50,
                end_ns: 70
            },
        ]
    );
}

#[test]
fn spans_past_the_budget_are_still_aggregated() {
    let mut t = Tracer::new(Instant::now(), 1);
    t.enter(Layer::Step, 0, 0);
    t.enter(Layer::EciOp, 5, 0);
    t.exit(9, 0);
    t.exit(10, 0);
    assert_eq!(t.spans().len(), 1);
    assert_eq!(t.dropped(), 1);
    assert_eq!(t.totals(Layer::Step).self_ns, 6);
    assert_eq!(t.totals(Layer::EciOp).self_ns, 4);
}

#[test]
fn percentiles_never_exceed_the_observed_max() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for n in [1usize, 2, 9, 10, 99, 100, 101, 999, 1_000, 12_345] {
        let mut v: Vec<u64> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Heavy-tailed: most samples small, a few huge.
                (x % 1_000) << (x % 20)
            })
            .collect();
        v.sort_unstable();
        let max = *v.last().unwrap();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0, tail_quantile(n)] {
            let p = quantile(&v, q);
            assert!(p <= max, "q{q} of {n} samples is {p} > max {max}");
            assert!(v.contains(&p));
        }
        // The tail quantile leaves at least ten samples beyond it.
        let q = tail_quantile(n);
        let beyond = n - (q * n as f64).ceil() as usize;
        if q > 0.5 {
            assert!(beyond >= 10, "{n} samples: q{q} leaves {beyond}");
        }
    }
    assert_eq!(quantile(&[], 0.5), 0);
    assert_eq!(tail_quantile(10), 0.5);
    assert_eq!(tail_quantile(100), 0.9);
    assert_eq!(tail_quantile(10_000), 0.999);
}

#[test]
fn every_workload_validates() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        assert_eq!(w.sim_seed(0), w.default_seed());
        for size in [Size::Full, Size::Tiny] {
            for seed in 0..4 {
                let spec = w.spec(seed, size);
                spec.validate();
                assert!(spec.ops() > 0);
            }
        }
    }
}

#[test]
fn sub_seeds_are_distinct_and_start_at_the_default() {
    for w in Workload::ALL {
        assert_eq!(w.seed_index(0, 0), 0);
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..8 {
            for j in 0..w.sub_seeds() {
                assert!(seen.insert(w.sim_seed(w.seed_index(n, j))));
            }
        }
    }
    assert_eq!(Workload::KvService.sub_seeds(), 8);
}

#[test]
fn times_scale_with_the_reference_loop() {
    // A batch on a host whose loop runs four times slower than on the
    // reference host is scaled by the square root, 1/2.
    assert!((scaled(2.0, 4.0 * REFERENCE_S) - 1.0).abs() < 1e-12);
    assert!((scaled(0.5, REFERENCE_S) - 0.5).abs() < 1e-12);
    let t = HostSpeed::new(2).time(2);
    assert!(t > 0.0 && t < 10.0, "reference loop took {t} s");
}

fn tiny(w: Workload, seed: u64) -> Params {
    Params {
        workload: w,
        seed,
        size: Size::Tiny,
        seconds: 0.0,
        threads: 2,
    }
}

#[test]
fn tiny_runs_pass_the_gate() {
    for w in Workload::ALL {
        let out = end_to_end(&tiny(w, 1), Instant::now());
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert_eq!(out.failed, 0);
        for name in [
            "ops_per_s",
            "ops_per_s_t1",
            "setup_s",
            "peak_rss_mb",
            "allocs_per_op",
            "completed_frac",
        ] {
            assert!(out.get(name).is_some(), "{}: no {name}", w.name());
        }
        assert!(out.get("completed_frac").unwrap() > 0.9);
    }
}

#[test]
fn traced_runs_reproduce_the_untraced_report() {
    for w in Workload::ALL {
        let out = per_layer(&tiny(w, 2), Instant::now(), None);
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert!(out.get("sim.par.epochs").unwrap() > 0.0);
        let traced = out.get("trace.spans").unwrap() > 0.0;
        // kv_service is counted, not traced.
        assert_eq!(traced, w != Workload::KvService, "{}", w.name());
    }
}

#[test]
fn a_failed_check_names_the_fields() {
    let w = Workload::ChurnLoss;
    let a = w.spec(1, Size::Tiny).prepare().run(1);
    let b = w.spec(2, Size::Tiny).prepare().run(1);
    let err = a.matches(&b).expect_err("different loss seeds diverge");
    assert!(err.contains("digest"), "{err}");
    let diff = diff_counters(&a.counters(), &b.counters());
    assert!(diff.iter().any(|d| d.starts_with("digest: got ")));
    assert!(a.matches(&w.spec(1, Size::Tiny).prepare().run(2)).is_ok());
}
