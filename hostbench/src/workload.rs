//! The four benchmark workloads, their untraced runs through the public
//! `enzian-platform` entry points, and the correctness gate.

use std::collections::BTreeMap;

use enzian_eci::EngineStats;
use enzian_platform::cluster::{BoardId, ClusterRunReport, ClusterWorkload, EnzianCluster};
use enzian_platform::service::{FaultScenario, ServiceConfig, ServiceRunReport};
use enzian_platform::traffic::{TrafficRunReport, TrafficStack, TrafficWorkload};
use enzian_sim::telemetry::MetricValue;
use enzian_sim::{Duration, MetricsRegistry, Time};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Held-open flow storm: 2 boards, ≥ 2×10⁵ concurrent flows.
    FlowStorm,
    /// 4-board lossy churn: go-back-N timers and fault-plan draws.
    ChurnLoss,
    /// 8-board coherent memory mix through the ECI engine.
    Coherence,
    /// Replicated KV service under rolling crashes.
    KvService,
}

/// How large a batch each run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A few milliseconds of work, for tests.
    Tiny,
}

/// Memory each coherence board contributes to the global space (the
/// `cluster_scale` experiment's slice).
const COHERENCE_SLICE: u64 = 1 << 20;
const COHERENCE_BOARDS: usize = 8;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FlowStorm,
        Workload::ChurnLoss,
        Workload::Coherence,
        Workload::KvService,
    ];

    /// The name used on the command line and in the pin files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlowStorm => "flow_storm",
            Workload::ChurnLoss => "churn_loss",
            Workload::Coherence => "coherence",
            Workload::KvService => "kv_service",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of the experiment leg each workload is shaped after; the
    /// benchmark's `--seed 0`.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FlowStorm => 0x7AF1_F10C,
            Workload::ChurnLoss => 0x7AF1_7055,
            Workload::Coherence => ClusterWorkload::scale().seed,
            Workload::KvService => ServiceConfig::standard().seed,
        }
    }

    /// The simulation seed for benchmark seed `n`: the default seed for
    /// `n = 0`, a distinct well-mixed seed otherwise.
    pub fn sim_seed(self, n: u64) -> u64 {
        self.default_seed()
            .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// How many seeds a benchmark run cycles its batches through.
    /// `kv_service`'s work per client op follows its seed (crash
    /// timing, retries and catch-ups move allocations per op by up to
    /// 14% between seeds), so each run spreads its batches over eight
    /// seeds. The other workloads' costs barely depend on the seed.
    pub fn sub_seeds(self) -> u64 {
        match self {
            Workload::KvService => 8,
            _ => 1,
        }
    }

    /// The seed index of sub-seed `j` of benchmark seed `n`, for
    /// [`Workload::spec`]: sub-seed 0 of seed 0 is index 0, the
    /// default seed, and distinct `(n, j)` give distinct indices.
    pub fn seed_index(self, n: u64, j: u64) -> u64 {
        n.wrapping_mul(self.sub_seeds()).wrapping_add(j)
    }

    /// The platform configuration of one run.
    pub fn spec(self, n: u64, size: Size) -> Spec {
        let seed = self.sim_seed(n);
        let tiny = size == Size::Tiny;
        match self {
            // The `traffic` flows leg at a larger size: every session is
            // opened before the first one's hold ends, so all of them
            // are live at once (two flow slots per session).
            Workload::FlowStorm => {
                let sessions = if tiny { 400 } else { 60_000 };
                Spec::Traffic(
                    TrafficWorkload::small()
                        .with_sessions_per_board(sessions)
                        .with_open_gap(Duration::from_ns(600))
                        .with_bytes_per_session(2 * 1024)
                        .with_hold(Duration::from_ms(40))
                        .with_seed(seed),
                )
            }
            // The `traffic` lossy leg on four boards. The hybrid stack
            // stays out: its spurious-retransmission backlog grows with
            // run length, so its cost per session would too.
            Workload::ChurnLoss => {
                let sessions = if tiny { 24 } else { 1_500 };
                Spec::Traffic(
                    TrafficWorkload::small()
                        .with_boards(4)
                        .with_stack(TrafficStack::Fpga)
                        .with_sessions_per_board(sessions)
                        .with_open_gap(Duration::from_us(12))
                        .with_bytes_per_session(64 * 1024)
                        .with_hold(Duration::from_us(200))
                        .with_loss_bp(100)
                        .with_seed(seed),
                )
            }
            Workload::Coherence => {
                let ops = if tiny { 64 } else { 8_000 };
                Spec::Coherence {
                    boards: COHERENCE_BOARDS,
                    slice_bytes: COHERENCE_SLICE,
                    work: ClusterWorkload::scale()
                        .with_ops_per_stream(ops)
                        .with_seed(seed),
                }
            }
            // `ServiceConfig::standard()` with the client ops and the
            // horizon scaled by the same factor.
            Workload::KvService => {
                let scale = if tiny { 1 } else { 10 };
                let mut cfg = ServiceConfig::standard()
                    .with_scenario(FaultScenario::RollingCrashes)
                    .with_seed(seed);
                cfg.client.ops *= scale;
                cfg.horizon = Time::from_ps(cfg.horizon.as_ps() * scale);
                Spec::Service(cfg)
            }
        }
    }
}

/// The platform configuration of one run.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A `traffic` run.
    Traffic(TrafficWorkload),
    /// An `EnzianCluster` run.
    Coherence {
        /// Boards in the cluster.
        boards: usize,
        /// CPU memory each board contributes to the global space.
        slice_bytes: u64,
        /// The per-board request streams.
        work: ClusterWorkload,
    },
    /// A replicated-service run.
    Service(ServiceConfig),
}

impl Spec {
    /// Checks the configuration the way the platform's constructors do.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration.
    pub fn validate(&self) {
        match self {
            Spec::Traffic(w) => w.validate(),
            Spec::Service(cfg) => cfg.validate(),
            // `ClusterWorkload` has no `validate`; these are the
            // conditions `EnzianCluster::run_parallel` asserts.
            Spec::Coherence {
                boards,
                slice_bytes,
                work,
            } => {
                assert!(*boards >= 2, "a cluster needs at least two boards");
                assert!(work.streams_per_board > 0, "workload needs streams");
                assert!(
                    work.streams_per_board * boards <= 256,
                    "stream tokens and board ids must fit a byte"
                );
                assert!(
                    (boards * work.streams_per_board) as u64 * work.slots_per_stream * 128
                        <= *slice_bytes,
                    "workload's private regions exceed a board slice"
                );
                assert!(work.remote_bp <= 10_000 && work.write_bp <= 10_000);
            }
        }
    }

    /// Operations one run attempts: sessions, coherence ops or client
    /// ops.
    pub fn ops(&self) -> u64 {
        match self {
            Spec::Traffic(w) => w.total_sessions(),
            Spec::Coherence { boards, work, .. } => {
                (boards * work.streams_per_board) as u64 * work.ops_per_stream
            }
            Spec::Service(cfg) => cfg.total_client_ops(),
        }
    }

    /// Builds what a run needs before its clock starts: the cluster of
    /// boards for `coherence`, nothing for the others (their entry
    /// points build their boards inside the run).
    pub fn prepare(&self) -> Prepared {
        let cluster = match *self {
            Spec::Coherence {
                boards,
                slice_bytes,
                ..
            } => Some(EnzianCluster::new(boards, slice_bytes)),
            _ => None,
        };
        Prepared {
            spec: self.clone(),
            cluster,
        }
    }
}

/// A configuration with its set-up done, ready for one run.
pub struct Prepared {
    spec: Spec,
    cluster: Option<EnzianCluster>,
}

impl Prepared {
    /// Runs the batch to completion on `threads` workers through the
    /// platform's public parallel entry point.
    pub fn run(mut self, threads: usize) -> Report {
        match self.spec {
            Spec::Traffic(w) => Report::Traffic(w.run_parallel(threads)),
            Spec::Service(cfg) => Report::Service(Box::new(cfg.run_parallel(threads))),
            Spec::Coherence { boards, work, .. } => {
                let mut cluster = self.cluster.take().expect("prepared cluster");
                let report = cluster.run_parallel(&work, threads);
                let mut violations = Vec::new();
                let mut engine = EngineStats::default();
                for b in 0..boards {
                    let sys = cluster.board(BoardId(b as u8));
                    if !sys.checker().violations().is_empty() {
                        violations.push(format!("board {b}: {:?}", sys.checker().violations()));
                    }
                    add_engine_stats(&mut engine, sys.engine_stats());
                }
                Report::Coherence {
                    report,
                    engine,
                    violations,
                }
            }
        }
    }
}

/// Sums the per-board ECI engine counters (`max_inflight` is the
/// highest board's).
pub fn add_engine_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.started += s.started;
    acc.completed += s.completed;
    acc.mshr_conflicts += s.mshr_conflicts;
    acc.mshr_full_stalls += s.mshr_full_stalls;
    acc.vc_queue_stalls += s.vc_queue_stalls;
    acc.max_inflight = acc.max_inflight.max(s.max_inflight);
}

/// What one run produced.
#[derive(Debug, Clone)]
pub enum Report {
    /// A `traffic` run.
    Traffic(TrafficRunReport),
    /// A cluster run, with the boards' engine counters and protocol
    /// checker findings read after it.
    Coherence {
        /// The cluster's run report.
        report: ClusterRunReport,
        /// Engine counters summed over the boards.
        engine: EngineStats,
        /// Protocol-checker violations, one line per dirty board.
        violations: Vec<String>,
    },
    /// A replicated-service run.
    Service(Box<ServiceRunReport>),
}

impl Report {
    /// Operations attempted.
    pub fn ops(&self) -> u64 {
        match self {
            Report::Traffic(r) => r.opened,
            Report::Coherence { report, .. } => report.total_ops,
            Report::Service(r) => r.total_client_ops,
        }
    }

    /// Operations that did not fail in the simulation: completed
    /// sessions, coherence ops without `failures`, client ops neither
    /// failed nor lost to a crash.
    pub fn completed(&self) -> u64 {
        match self {
            Report::Traffic(r) => r.completed,
            Report::Coherence { report, .. } => report.total_ops - report.failures,
            Report::Service(r) => r.total_client_ops - r.failed_ops - r.crashed_ops,
        }
    }

    /// `(epochs executed, epochs skipped)` by the parallel engine.
    pub fn epochs(&self) -> (u64, u64) {
        match self {
            Report::Traffic(r) => (r.epochs, r.epochs_skipped),
            Report::Coherence { report, .. } => (report.epochs, report.epochs_skipped),
            Report::Service(r) => (r.epochs, r.epochs_skipped),
        }
    }

    /// Cross-board envelopes exchanged.
    pub fn messages(&self) -> u64 {
        match self {
            Report::Traffic(r) => r.messages,
            Report::Coherence { report, .. } => report.messages,
            Report::Service(r) => r.messages,
        }
    }

    /// Every simulated counter the report exports, except the two that
    /// depend on the engine (`epochs`, `epochs_skipped`). Latency
    /// percentiles are gauges and so are not included.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut reg = MetricsRegistry::new();
        match self {
            Report::Traffic(r) => r.export_metrics("r", &mut reg),
            Report::Coherence { report, .. } => report.export_metrics("r", &mut reg),
            Report::Service(r) => r.export_metrics("r", &mut reg),
        }
        reg.iter()
            .filter_map(|(k, v)| match v {
                MetricValue::Counter(c) => Some((k.strip_prefix("r.").unwrap_or(k), *c)),
                _ => None,
            })
            .filter(|(k, _)| *k != "epochs" && *k != "epochs_skipped")
            .map(|(k, c)| (k.to_string(), c))
            .collect()
    }

    /// Compares `self` with `other` on every field that does not depend
    /// on the engine.
    ///
    /// # Errors
    ///
    /// Names the differing counters, or says which non-counter part of
    /// the report differs.
    pub fn matches(&self, other: &Report) -> Result<(), String> {
        let equal = match (self, other) {
            (Report::Traffic(a), Report::Traffic(b)) => {
                let (mut a, mut b) = (a.clone(), b.clone());
                (a.epochs, a.epochs_skipped, b.epochs, b.epochs_skipped) = (0, 0, 0, 0);
                a == b
            }
            (Report::Coherence { report: a, .. }, Report::Coherence { report: b, .. }) => {
                let (mut a, mut b) = (a.clone(), b.clone());
                (a.epochs, a.epochs_skipped, b.epochs, b.epochs_skipped) = (0, 0, 0, 0);
                a == b
            }
            (Report::Service(a), Report::Service(b)) => {
                let (mut a, mut b) = (a.clone(), b.clone());
                (a.epochs, a.epochs_skipped, b.epochs, b.epochs_skipped) = (0, 0, 0, 0);
                a == b
            }
            _ => return Err("reports of different workloads".into()),
        };
        if equal {
            return Ok(());
        }
        let diff = diff_counters(&self.counters(), &other.counters());
        if diff.is_empty() {
            Err("counters agree but latency histograms, flows or logs differ".into())
        } else {
            Err(diff.join(", "))
        }
    }

    /// The run's own audits: every traffic session completed, every
    /// coherence board's protocol checker clean, and the service's
    /// committed logs linearizable with no acknowledged write lost.
    ///
    /// # Errors
    ///
    /// Names the failed audit.
    pub fn audit(&self, spec: &Spec) -> Result<(), String> {
        match (self, spec) {
            (Report::Traffic(r), _) => {
                if r.opened != r.completed || r.accepted != r.closed_server {
                    return Err(format!(
                        "opened {} completed {} accepted {} closed_server {}",
                        r.opened, r.completed, r.accepted, r.closed_server
                    ));
                }
                Ok(())
            }
            (Report::Coherence { violations, .. }, _) => {
                if violations.is_empty() {
                    Ok(())
                } else {
                    Err(violations.join("; "))
                }
            }
            (Report::Service(r), Spec::Service(cfg)) => {
                r.verify_linearizable(cfg.store)
                    .map_err(|e| format!("verify_linearizable: {e}"))?;
                r.audit_zero_lost_acks()
                    .map_err(|e| format!("audit_zero_lost_acks: {e}"))
            }
            (Report::Service(_), _) => Err("service report for a non-service spec".into()),
        }
    }
}

/// `name: got X, want Y` for every counter that differs or exists on
/// one side only.
pub fn diff_counters(got: &BTreeMap<String, u64>, want: &BTreeMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, w) in want {
        match got.get(k) {
            Some(g) if g == w => {}
            Some(g) => out.push(format!("{k}: got {g}, want {w}")),
            None => out.push(format!("{k}: missing, want {w}")),
        }
    }
    for (k, g) in got {
        if !want.contains_key(k) {
            out.push(format!("{k}: got {g}, not pinned"));
        }
    }
    out
}

/// The counters pinned for `w` at `--seed 0` and the full size.
pub fn pinned(w: Workload) -> BTreeMap<String, u64> {
    let text = match w {
        Workload::FlowStorm => include_str!("../pins/flow_storm.txt"),
        Workload::ChurnLoss => include_str!("../pins/churn_loss.txt"),
        Workload::Coherence => include_str!("../pins/coherence.txt"),
        Workload::KvService => include_str!("../pins/kv_service.txt"),
    };
    parse_pins(text)
}

/// Parses `name value` lines; blank lines and `#` comments are skipped.
///
/// # Panics
///
/// Panics on a malformed line (the pin files are part of the benchmark).
pub fn parse_pins(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once(' ').expect("pin line is `name value`");
            (k.to_string(), v.trim().parse().expect("pin value is a u64"))
        })
        .collect()
}

/// Renders `counters` in the pin-file format.
pub fn format_pins(w: Workload, counters: &BTreeMap<String, u64>) -> String {
    let mut s = format!(
        "# Simulated counters of `{}` at --seed 0 (sim seed {:#x}), full size.\n",
        w.name(),
        w.default_seed()
    );
    for (k, v) in counters {
        s.push_str(&format!("{k} {v}\n"));
    }
    s
}

/// The correctness gate of one benchmark run: the threads=1 and
/// threads=N reports agree, the run's audits pass, and at `--seed 0` on
/// the full size the counters equal the pinned ones.
///
/// # Errors
///
/// One line per failed check, naming the mismatched fields.
pub fn gate(
    w: Workload,
    n: u64,
    size: Size,
    spec: &Spec,
    t1: &Report,
    tn: &Report,
) -> Result<(), Vec<String>> {
    let mut failures = Vec::new();
    if let Err(e) = tn.matches(t1) {
        failures.push(format!("threads=N report differs from threads=1: {e}"));
    }
    for (label, r) in [("threads=1", t1), ("threads=N", tn)] {
        if let Err(e) = r.audit(spec) {
            failures.push(format!("{label} audit failed: {e}"));
        }
    }
    if spec.ops() != t1.ops() {
        failures.push(format!(
            "run attempted {} operations, workload has {}",
            t1.ops(),
            spec.ops()
        ));
    }
    if n == 0 && size == Size::Full {
        let diff = diff_counters(&t1.counters(), &pinned(w));
        if !diff.is_empty() {
            failures.push(format!("pinned counters differ: {}", diff.join(", ")));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}
