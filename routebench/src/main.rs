//! `routebench --workload <grid-cold|swap-heavy|daemon-hot|all> --seed N
//! --seconds S --trace <0|1>`
//!
//! Prints one metric per line (name, value, unit), then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `all` runs each workload in a
//! child process of this binary. Exits 2 on a usage error.

use routebench::report::RunResult;
use routebench::run::run;
use routebench::workloads::Workload;
use std::process::ExitCode;

const USAGE: &str =
    "usage: routebench --workload <grid-cold|swap-heavy|daemon-hot|all> --seed N --seconds S --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                })
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_rows(workload: Workload, result: &RunResult) {
    for problem in &result.problems {
        eprintln!("routebench: {}: {problem}", workload.name());
    }
    let row = |name: &str, value: f64, unit: &str| {
        println!("{:<12} {name:<32} {value:>14.6} {unit}", workload.name());
    };
    row(
        "failed_frac",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
    );
    for m in &result.metrics.0 {
        row(&m.name, m.value, &m.unit);
    }
}

/// Run one workload in a child process of this binary, forward its rows
/// and return its result line.
fn run_child(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("child process exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (rows, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !rows.is_empty() {
        println!("{rows}");
    }
    RunResult::from_json(last)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let [workload] = args.workloads[..] {
        let result = run(workload, args.seed, args.seconds, args.trace);
        print_rows(workload, &result);
        println!("{}", result.to_json());
        return ExitCode::SUCCESS;
    }
    // Each workload runs in a process of its own, so that `peak_rss_mb`
    // is its own peak and no workload inherits another's heap.
    let mut total = RunResult { correct: true, ..RunResult::default() };
    for workload in &args.workloads {
        let result = match run_child(*workload, &args) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("routebench: {}: {e}", workload.name());
                total.correct = false;
                continue;
            }
        };
        total.correct &= result.correct;
        total.attempted += result.attempted;
        total.failed += result.failed;
        for m in result.metrics.0 {
            total
                .metrics
                .push(format!("{}.{}", workload.name(), m.name), m.value, &m.unit);
        }
    }
    println!("{}", total.to_json());
    ExitCode::SUCCESS
}
