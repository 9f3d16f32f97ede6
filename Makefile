# Mirrors .github/workflows/ci.yml so `make ci` reproduces the pipeline
# locally. Individual stages are exposed as their own targets.

CARGO ?= cargo

.PHONY: ci fmt fmt-check clippy build test doc determinism loom perf clean

ci: fmt-check clippy build test doc determinism loom perf

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

# Determinism battery. Each entry `<experiment>@<threads>` runs that
# experiment twice at that thread count and fails unless the two
# BENCH_<experiment>.json files are byte-identical; at threads > 1 it
# also reruns at threads 1 and requires the same bytes again, since the
# thread count must never be observable in simulated results. CI runs
# the same list as a matrix over `make determinism/<entry>`.
DETERMINISM := fig11@1 fault_sweep@1 cc_sweep@1 pipelining@1 modelcheck@1 tcp_explore@1 \
	cluster_scale@1 cluster_scale@2 cluster_scale@8 \
	service@1 service@2 service@8 \
	traffic@1 traffic@2 traffic@8

determinism: $(addprefix determinism/,$(DETERMINISM))

determinism/%: build
	@set -e; exp=$(word 1,$(subst @, ,$*)); t=$(word 2,$(subst @, ,$*)); \
	dir=target/determinism/$*; rm -rf $$dir; mkdir -p $$dir/a $$dir/b; \
	target/release/reproduce $$exp --threads $$t --bench-dir $$dir/a > /dev/null; \
	target/release/reproduce $$exp --threads $$t --bench-dir $$dir/b > /dev/null; \
	cmp $$dir/a/BENCH_$$exp.json $$dir/b/BENCH_$$exp.json; \
	if [ "$$t" != 1 ]; then \
		mkdir -p $$dir/seq; \
		target/release/reproduce $$exp --threads 1 --bench-dir $$dir/seq > /dev/null; \
		cmp $$dir/a/BENCH_$$exp.json $$dir/seq/BENCH_$$exp.json; \
	fi; \
	echo "determinism OK: BENCH_$$exp.json byte-identical at threads $$t"

# Perf gate, exactly as CI runs it: sched_hotpath + cluster_scale twice,
# determinism compared modulo timing.* gauges, deterministic counters
# gated against the committed baselines in benches/baselines/, and the
# calendar-queue core's throughput floor over the retained reference
# core enforced.
perf: build
	rm -rf target/perf
	mkdir -p target/perf/a target/perf/b
	target/release/reproduce sched_hotpath --threads 2 --bench-dir target/perf/a > /dev/null
	target/release/reproduce cluster_scale --threads 2 --bench-dir target/perf/a > /dev/null
	target/release/reproduce sched_hotpath --threads 2 --bench-dir target/perf/b > /dev/null
	target/release/reproduce cluster_scale --threads 2 --bench-dir target/perf/b > /dev/null
	target/release/perfgate compare target/perf/a/BENCH_sched_hotpath.json target/perf/b/BENCH_sched_hotpath.json
	target/release/perfgate compare target/perf/a/BENCH_cluster_scale.json target/perf/b/BENCH_cluster_scale.json
	cmp target/perf/a/BENCH_cluster_scale.json target/perf/b/BENCH_cluster_scale.json
	target/release/perfgate baseline benches/baselines/BENCH_sched_hotpath.json target/perf/a/BENCH_sched_hotpath.json
	target/release/perfgate baseline benches/baselines/BENCH_cluster_scale.json target/perf/a/BENCH_cluster_scale.json
	target/release/perfgate speedup target/perf/a/BENCH_sched_hotpath.json \
		sched_hotpath.timing.pod_mevents_per_sec \
		sched_hotpath.timing.reference_mevents_per_sec --min 1.5
	@echo "perf OK: hot path deterministic, baselines held, throughput floor met"

# Exhaustive interleaving checks for the epoch barrier and bounded
# inter-shard channels (the loom-style battery; compiled only under
# --cfg loom).
loom:
	RUSTFLAGS="--cfg loom" $(CARGO) test -p enzian-sim --test loom_par

clean:
	$(CARGO) clean
