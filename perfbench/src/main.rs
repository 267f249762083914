//! Command-line entry point; see the library documentation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::check::{check_run, code_digest, Record};
use perfbench::report::{
    calm, end_to_end, fmt_value, host, per_layer, result_json, row, wall, windows, Metric,
};
use perfbench::server::{build_sap, pin_to_one_cpu, repo_root};
use perfbench::socket::{run_socket, SocketConfig};
use perfbench::trace::{replay, LayerTimes};
use perfbench::workload::{warm_slot, Lines, Workload, CLIENTS};

const USAGE: &str =
    "usage: perfbench --workload <cold-mixed|cold-wide|warm-repeat|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Check-prefix lines per connection.
const PREFIX: usize = 1000;

/// Server spawns per run whose set-up time is measured.
const SETUP_TRIALS: usize = 31;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads = vec![Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// One workload's printed outcome.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

fn run_workload(
    sap: &Path,
    code: u64,
    dir: &Path,
    state: &Path,
    workload: Workload,
    args: &Args,
) -> Result<Outcome, String> {
    let lines = Lines::new(workload, args.seed);
    let cfg = SocketConfig {
        seconds: args.seconds,
        prefix: PREFIX,
        setup_trials: SETUP_TRIALS,
    };
    let run = run_socket(sap, dir, &lines, &cfg)?;
    let mut checked = check_run(&lines, &run, PREFIX);
    let record_path = state.join("results").join(format!(
        "{}-seed{}-{code:016x}.json",
        workload.name(),
        args.seed
    ));
    let clean = checked.failed == 0 && checked.problems.is_empty();
    if let Err(e) = Record::of(&lines, PREFIX, &checked).check_or_store(&record_path, clean) {
        checked.problems.push(e);
    }
    let wins = windows(&run, args.seconds);
    let e2e = end_to_end(&run, &wins, &checked);
    let n = checked.attempted;
    let mut extra = BTreeMap::new();
    extra.insert(
        "failed_frac",
        format!(
            "{} ({}/{n})",
            checked.failed as f64 / n.max(1) as f64,
            checked.failed
        ),
    );
    let slowest = run
        .conns
        .iter()
        .flat_map(|c| &c.samples)
        .map(|s| s.latency_ns)
        .max()
        .unwrap_or(0);
    extra.insert("latency_max_ms", format!("{:.3}", slowest as f64 / 1e6));
    let calm = calm(&wins);
    extra.insert(
        "latency_samples",
        format!(
            "{} of {n} (in the {} calmest of {} windows)",
            calm.iter().map(|w| w.latencies_ns.len()).sum::<usize>(),
            calm.len(),
            wins.len()
        ),
    );
    let mut unbounded = wall(&wins);
    unbounded.extend(host(&wins));
    for m in &unbounded {
        extra.insert(m.name, format!("{} {}", fmt_value(m.value), m.unit));
    }
    println!("{}", row(workload.name(), &e2e, &extra));
    if !args.trace {
        return Ok(Outcome {
            metrics: e2e,
            attempted: n,
            failed: checked.failed,
            problems: checked.problems,
        });
    }
    let expected = |c: usize, k: usize| {
        if workload.is_cold() {
            run.conns[c].responses[k].clone()
        } else {
            run.warmup[warm_slot(c, k)].clone()
        }
    };
    let times = match replay(&lines, PREFIX, expected, &run.warmup) {
        Ok(tracer) => {
            let path = state.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
            std::fs::write(
                &path,
                tracer
                    .to_json(workload.name(), args.seed)
                    .to_string_compact()
                    + "\n",
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
            LayerTimes::of(&tracer)
        }
        Err(e) => {
            checked.problems.push(e);
            LayerTimes::default()
        }
    };
    let cpu_ms = e2e
        .iter()
        .find(|m| m.name == "cpu_ms_per_line")
        .map_or(f64::NAN, |m| m.value);
    let mut layers = per_layer(&checked, &times, cpu_ms, run.peak_rss_kib as f64 / 1024.0);
    layers.extend(unbounded);
    println!(
        "{} per layer ({} timed lines replayed):",
        workload.name(),
        times.timed_lines
    );
    for m in &layers {
        println!("  {:28} {:>16} {}", m.name, fmt_value(m.value), m.unit);
    }
    Ok(Outcome {
        metrics: layers,
        attempted: n,
        failed: checked.failed,
        problems: checked.problems,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // The executable sits in <target>/release; build the server there too.
    let target_dir: PathBuf = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?
        .to_path_buf();
    let sap = build_sap(&target_dir)?;
    let code = code_digest(&[&sap, &exe])?;
    let state = repo_root().join(".perfbench");
    let dir = state.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu()?;
    println!(
        "# perfbench seed={} seconds={} trace={} clients={CLIENTS} (closed loop, one request outstanding each) hardware_threads={threads}, server and client on CPU {cpu}",
        args.seed, args.seconds, args.trace as u8
    );
    let outcomes: Result<Vec<_>, String> = args
        .workloads
        .iter()
        .map(|&w| {
            run_workload(&sap, code, &dir, &state, w, args)
                .map(|o| (w, o))
                .map_err(|e| format!("{}: {e}", w.name()))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (workload, o) in outcomes? {
        for p in &o.problems {
            eprintln!("perfbench: {}: check failed: {p}", workload.name());
        }
        correct &= o.problems.is_empty() && o.failed == 0;
        attempted += o.attempted;
        failed += o.failed;
        for m in o.metrics {
            let key = if args.workloads.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}.{}", workload.name(), m.name)
            };
            correct &= m.value.is_finite();
            metrics.push((key, m));
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
