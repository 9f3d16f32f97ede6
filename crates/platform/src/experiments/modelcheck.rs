//! Model-checking sweeps: exhaustive exploration of the ECI coherence
//! protocol (`modelcheck`) and of the TCP connection FSM
//! (`tcp_explore`), both on the generic [`enzian_sim::explore`] core.
//!
//! The paper validates its protocol implementation with *"assertion
//! checkers generated from the specification"* (§4.6); `modelcheck`
//! runs the complementary static check: [`MoesiModel`] enumerates
//! **every** interleaving of small configurations and proves the SWMR
//! and data-value invariants hold, no state gets stuck, and no credit
//! deadlock exists.
//!
//! `tcp_explore` aims the same core at the *other* protocol the
//! platform implements. [`TcpModel`] drives the real
//! [`enzian_net::tcp::Connection`] transition relation — not a copy of
//! it — over an abstract channel with bounded loss, reordering, and
//! duplication, and the sweep proves that no illegal transition is
//! reachable, no configuration deadlocks short of `Closed`, and both
//! endpoints converge after a FIN exchange even when the adversary
//! retransmits or drops teardown segments.
//!
//! Each sweep ends with a mutation battery: the smallest interesting
//! configuration re-run with four known protocol bugs injected, each of
//! which must be caught with a counterexample decoded through the real
//! wire codec — the self-test that keeps the checker honest — and a
//! seeded random walk over a configuration too large to exhaust.
//!
//! Every row is fully deterministic (canonicalized BFS, seeded walk),
//! so two runs render byte-identical `BENCH_<name>.json` files — which
//! CI asserts with a byte compare.

use enzian_eci::{ExploreConfig, MoesiModel, ALL_MUTATIONS};
use enzian_net::tcp::{TcpModel, TcpModelConfig, ALL_TCP_MUTATIONS};
use enzian_sim::explore::{ProtocolModel, SearchOutcome};
use enzian_sim::MetricsRegistry;

/// Seed for the random-walk row (any value works; fixed for CI).
const WALK_SEED: u64 = 7;
/// Steps of the random-walk row.
const WALK_STEPS: u64 = 4_000;

/// One protocol's sweep: everything that differs between the
/// experiments. Rows, checks, metrics, table and CSV are shared.
pub struct Sweep<M> {
    /// Selector name, metric prefix and CSV stem.
    name: &'static str,
    /// Title of the rendered table.
    title: &'static str,
    /// `(label, model, expect_violation)`: the clean configurations
    /// that must explore violation-free, then the mutation battery that
    /// must trip.
    configs: fn() -> Vec<(String, M, bool)>,
    /// Label and model of the random-walk row.
    walk: fn() -> (&'static str, M),
    /// The acceptance bar: the first clean configuration must exhaust
    /// at least this many states.
    min_clean_states: Option<u64>,
}

/// The ECI coherence protocol sweep (`reproduce modelcheck`).
pub static MOESI: Sweep<MoesiModel> = Sweep {
    name: "modelcheck",
    title: "Model check — exhaustive ECI protocol exploration + mutation self-test (§4.6)",
    configs: moesi_configs,
    walk: || {
        (
            "3 agents, 2 lines",
            MoesiModel::new(ExploreConfig::three_agent().with_lines(2)),
        )
    },
    min_clean_states: None,
};

/// The TCP connection FSM sweep (`reproduce tcp_explore`).
pub static TCP: Sweep<TcpModel> = Sweep {
    name: "tcp_explore",
    title: "TCP model check — bounded exploration of the connection FSM + mutation self-test",
    configs: tcp_configs,
    // Duplex data under loss *and* duplication.
    walk: || {
        (
            "duplex + dup",
            TcpModel::new(TcpModelConfig::deep().with_data_b(1)),
        )
    },
    min_clean_states: Some(10_000),
};

fn moesi_configs() -> Vec<(String, MoesiModel, bool)> {
    let clean = [
        ("2 agents, 1 line", ExploreConfig::two_agent()),
        (
            "2 agents, 1 line, no E grant",
            ExploreConfig::two_agent().with_e_grant(false),
        ),
        ("3 agents, 1 line", ExploreConfig::three_agent()),
        (
            "2 agents, 2 lines, 1 write",
            ExploreConfig::two_agent().with_lines(2).with_max_writes(1),
        ),
    ];
    let clean = clean
        .into_iter()
        .map(|(name, cfg)| (name.to_string(), MoesiModel::new(cfg), false));
    let mutated = ALL_MUTATIONS.into_iter().map(|m| {
        (
            format!("2 agents, 1 line + {m:?}"),
            MoesiModel::new(ExploreConfig::two_agent().with_mutation(Some(m))),
            true,
        )
    });
    clean.chain(mutated).collect()
}

fn tcp_configs() -> Vec<(String, TcpModel, bool)> {
    let clean = [
        ("one-way data, 1 loss", TcpModelConfig::one_way()),
        ("duplex data, 1 loss", TcpModelConfig::duplex()),
        ("one-way data, 1 loss, 1 dup", TcpModelConfig::deep()),
    ];
    let clean = clean
        .into_iter()
        .map(|(name, cfg)| (name.to_string(), TcpModel::new(cfg), false));
    let mutated = ALL_TCP_MUTATIONS.into_iter().map(|m| {
        (
            format!("duplex + {m:?}"),
            TcpModel::new(TcpModelConfig::duplex().with_mutation(Some(m))),
            true,
        )
    });
    clean.chain(mutated).collect()
}

/// One configuration's exploration result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// Human-facing configuration label.
    pub name: String,
    /// `"exhaustive"` or `"walk"`.
    pub mode: &'static str,
    /// Distinct canonical states visited.
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// BFS frontier high-water mark (or walk depth).
    pub frontier_peak: u64,
    /// Depth of the deepest state reached.
    pub max_depth: u64,
    /// The invariant that broke, if any (mutation rows only).
    pub violation: Option<String>,
    /// Whether this row injected a bug and so *must* report one.
    pub expect_violation: bool,
}

impl SweepRow {
    fn new<K: std::fmt::Display>(
        name: String,
        mode: &'static str,
        expect_violation: bool,
        outcome: SearchOutcome<K>,
    ) -> Self {
        SweepRow {
            name,
            mode,
            states: outcome.stats.states,
            transitions: outcome.stats.transitions,
            frontier_peak: outcome.stats.frontier_peak,
            max_depth: outcome.stats.max_depth,
            violation: outcome.violation.map(|c| c.violation.to_string()),
            expect_violation,
        }
    }
}

impl<M: ProtocolModel> Sweep<M> {
    /// Runs the whole sweep, publishing each row's deterministic search
    /// statistics into `reg` under `<name>.*`. (States-per-second and
    /// other wall-clock figures deliberately never enter the registry.)
    ///
    /// # Panics
    ///
    /// Panics if a clean configuration reports a violation, a mutated
    /// one fails to, an exploration hits its state budget, or the first
    /// clean space shrinks below the acceptance bar — each of those is
    /// a protocol (or checker) bug this experiment exists to surface.
    pub fn run_instrumented(&self, reg: &mut MetricsRegistry) -> Vec<SweepRow> {
        let mut rows = Vec::new();
        for (name, model, expect_violation) in (self.configs)() {
            let outcome = model
                .run_exhaustive()
                .unwrap_or_else(|e| panic!("{name}: exploration failed: {e}"));
            rows.push(SweepRow::new(name, "exhaustive", expect_violation, outcome));
        }

        // A long seeded random walk over a configuration too large to
        // exhaust: same determinism, different coverage profile.
        let (label, model) = (self.walk)();
        rows.push(SweepRow::new(
            format!("{label} walk (seed {WALK_SEED})"),
            "walk",
            false,
            model.random_walk(WALK_SEED, WALK_STEPS),
        ));

        if let Some(bar) = self.min_clean_states {
            assert!(
                rows[0].states >= bar,
                "{}: the first clean space collapsed to {} states (bar: {bar})",
                rows[0].name,
                rows[0].states
            );
        }
        for r in &rows {
            match (&r.violation, r.expect_violation) {
                (Some(v), false) => panic!("{}: unexpected violation: {v}", r.name),
                (None, true) => panic!("{}: injected bug was not caught", r.name),
                _ => {}
            }
            let base = format!("{}.{}", self.name, super::metric_slug(&r.name));
            reg.counter_set(&format!("{base}.states"), r.states);
            reg.counter_set(&format!("{base}.transitions"), r.transitions);
            reg.counter_set(&format!("{base}.frontier_peak"), r.frontier_peak);
            reg.counter_set(&format!("{base}.max_depth"), r.max_depth);
            reg.counter_set(
                &format!("{base}.violation"),
                u64::from(r.violation.is_some()),
            );
        }
        reg.counter_set(&format!("{}.configs", self.name), rows.len() as u64);
        reg.counter_set(
            &format!("{}.mutations_caught", self.name),
            rows.iter().filter(|r| r.violation.is_some()).count() as u64,
        );
        rows
    }

    /// Renders the sweep as a table.
    pub fn render_rows(&self, rows: &[SweepRow]) -> String {
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.mode.to_string(),
                    r.states.to_string(),
                    r.transitions.to_string(),
                    r.max_depth.to_string(),
                    r.violation.clone().unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        super::render_table(
            self.title,
            &[
                "configuration",
                "mode",
                "states",
                "transitions",
                "depth",
                "violation",
            ],
            &table_rows,
        )
    }
}

/// Registry adapter: each sweep through the
/// [`Experiment`](super::Experiment) trait.
impl<M: ProtocolModel> super::Experiment for Sweep<M> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, ctx: &mut super::ExperimentCtx<'_>) -> super::ExperimentRows {
        let rows = self.run_instrumented(ctx.reg);
        let csv = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.mode.to_string(),
                    r.states.to_string(),
                    r.transitions.to_string(),
                    r.frontier_peak.to_string(),
                    r.max_depth.to_string(),
                    r.violation.clone().unwrap_or_default(),
                ]
            })
            .collect();
        super::ExperimentRows::new(
            rows,
            vec![super::Table {
                name: self.name,
                header: &[
                    "configuration",
                    "mode",
                    "states",
                    "transitions",
                    "frontier_peak",
                    "max_depth",
                    "violation",
                ],
                rows: csv,
            }],
        )
    }

    fn render(&self, rows: &super::ExperimentRows) -> String {
        self.render_rows(rows.downcast::<Vec<SweepRow>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_moesi() -> Vec<SweepRow> {
        MOESI.run_instrumented(&mut MetricsRegistry::new())
    }

    #[test]
    fn sweep_explores_clean_and_catches_every_mutation() {
        let rows = run_moesi();
        // 4 clean exhaustive + 4 mutations + 1 walk.
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert_eq!(r.violation.is_some(), r.expect_violation, "{}", r.name);
            assert!(r.states > 0 && r.transitions > 0, "{}", r.name);
        }
        // The exhaustive spaces have known sizes; pin the smallest so a
        // silently shrunken search can't masquerade as a clean one.
        assert!(rows[0].states > 500, "2-agent space collapsed");
        let caught: Vec<_> = rows.iter().filter_map(|r| r.violation.as_deref()).collect();
        assert!(caught.contains(&"SWMR invariant"));
        assert!(caught.contains(&"data-value invariant"));
        assert!(caught.contains(&"deadlock"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        assert_eq!(
            MOESI.run_instrumented(&mut a),
            MOESI.run_instrumented(&mut b)
        );
        assert_eq!(a.export_text(), b.export_text());
        assert_eq!(a.export_json(), b.export_json());
    }

    #[test]
    fn render_lists_every_configuration() {
        let rows = run_moesi();
        let s = MOESI.render_rows(&rows);
        for r in &rows {
            assert!(s.contains(&r.name), "{} missing from table", r.name);
        }
    }

    // The full TCP sweep (duplex exhausts ~1.2M states) only runs in
    // release through `reproduce tcp_explore`; here we audit the axes
    // so a sizing regression fails fast without paying for the search.
    #[test]
    fn sweep_covers_clean_budgets_and_every_mutation() {
        let sweep = (TCP.configs)();
        let clean: Vec<_> = sweep.iter().filter(|(_, _, v)| !v).collect();
        let mutated: Vec<_> = sweep.iter().filter(|(_, _, v)| *v).collect();
        assert_eq!(clean.len(), 3, "one-way, duplex, and duplication budgets");
        assert_eq!(mutated.len(), ALL_TCP_MUTATIONS.len());
        for m in ALL_TCP_MUTATIONS {
            assert!(
                mutated
                    .iter()
                    .any(|(n, _, _)| n.contains(&format!("{m:?}"))),
                "mutation battery missing {m:?}"
            );
        }
    }

    // The cheapest full TCP row end-to-end: the one-way configuration
    // must clear the acceptance bar clean, deterministically.
    #[test]
    fn one_way_row_clears_the_acceptance_bar() {
        let (name, model, _) = (TCP.configs)().remove(0);
        let a = model
            .run_exhaustive()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(a.violation.is_none(), "{name} must be clean");
        assert!(a.stats.states >= TCP.min_clean_states.unwrap());
        assert_eq!(a.stats.states, 129_835, "pinned state count");
        assert_eq!(a.stats.transitions, 673_631, "pinned transition count");
        let b = model.run_exhaustive().unwrap();
        assert_eq!(a.stats, b.stats, "exploration must be deterministic");
    }
}
