//! Command-line entry point of the host-side benchmark.
//!
//! ```text
//! hostbench --workload <flow_storm|churn_loss|coherence|kv_service>
//!           --seed <n> --seconds <s> --trace <0|1>
//! hostbench --write-pins
//! ```
//!
//! Notes go to standard output first; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The process
//! exits non-zero when a correctness check fails.

use std::process::ExitCode;
use std::time::Instant;

use enzian_hostbench::measure::{self, Outcome, Params};
use enzian_hostbench::workload::{format_pins, Size, Workload};

#[global_allocator]
static ALLOC: enzian_hostbench::alloc::GatedCounter = enzian_hostbench::alloc::GatedCounter;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be 1..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Runs every workload once at `--seed 0` and writes its simulated
/// counters to `pins/<workload>.txt`.
fn write_pins() -> ExitCode {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("pins");
    for w in Workload::ALL {
        let spec = w.spec(0, Size::Full);
        let report = spec.prepare().run(1);
        let path = dir.join(format!("{}.txt", w.name()));
        if let Err(e) = std::fs::write(&path, format_pins(w, &report.counters())) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--write-pins"] {
        return write_pins();
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let p = Params {
        workload: args.workload,
        seed: args.seed,
        size: Size::Full,
        seconds: args.seconds as f64,
        threads,
    };
    let sim_seeds: Vec<String> = (0..p.workload.sub_seeds())
        .map(|j| {
            format!(
                "{:#x}",
                p.workload.sim_seed(p.workload.seed_index(p.seed, j))
            )
        })
        .collect();
    println!(
        "hostbench {} seed {} (sim seeds {}), {} s, trace {}, threads {threads} (available_parallelism)",
        p.workload.name(),
        p.seed,
        sim_seeds.join(", "),
        args.seconds,
        u8::from(args.trace)
    );
    let out = if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let spans = std::fs::create_dir_all(&dir)
            .ok()
            .map(|()| dir.join(format!("spans-{}.tsv", p.workload.name())));
        measure::per_layer(&p, process_start, spans.as_deref())
    } else {
        measure::end_to_end(&p, process_start)
    };
    for n in &out.notes {
        println!("note: {n}");
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", json_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
