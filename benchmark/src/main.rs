//! `wmn-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! wmn-benchmark --workload W --seed N --seconds S --trace 0|1
//!               [--scale F] [--record FILE] [--rev REV]     one run
//! wmn-benchmark --summarise FILE                            table of a record file
//! wmn-benchmark --compare A B                               A/A verdict, exit 1 on failure
//! wmn-benchmark --catalogue                                 BENCHMARK.json
//! wmn-benchmark --workloads                                 workload names
//! ```

mod catalogue;
mod digest;
mod gen;
mod hostprobe;
mod parmesh;
mod report;
mod run;
mod served;
mod span;
mod stack;
mod stats;
mod units;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs leave their files (socket, checkpoints, traces): the
/// package's git-ignored `out/`, created on demand. Runs start at the repo
/// root; `cargo test` starts in the package itself.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("the benchmark's out/ is creatable");
    dir
}

const USAGE: &str = "usage: wmn-benchmark --workload W --seed N --seconds S --trace 0|1 \
[--scale F] [--record FILE] [--rev REV] | --summarise FILE | --compare A B | --catalogue | --workloads";

struct Cli {
    run: run::Args,
    record: Option<PathBuf>,
    rev: String,
}

/// Strict parsing: an unknown or malformed flag is an error, never ignored
/// — a silently dropped `--seed` would measure the wrong inputs.
fn parse_run(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut record, mut rev) = (1.0f64, None, "unknown".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|_| bad())?,
            "--record" => record = Some(PathBuf::from(value)),
            "--rev" => rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be in (0, 60] and --scale in (0, 1]".into());
    }
    Ok(Cli {
        run: run::Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scale,
        },
        record,
        rev,
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--catalogue") => print!("{}", catalogue::benchmark_json()),
        Some("--workloads") => {
            for w in &catalogue::WORKLOADS {
                println!("{}", w.name);
            }
        }
        Some("--summarise") => {
            let path = args.get(1).ok_or(USAGE)?;
            let records = report::read_records(path.as_ref())?;
            print!("{}", report::summarise(&records));
            if records.failed() > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        Some("--compare") => {
            let (a, b) = (args.get(1).ok_or(USAGE)?, args.get(2).ok_or(USAGE)?);
            let (table, ok) = report::compare(
                &report::read_records(a.as_ref())?,
                &report::read_records(b.as_ref())?,
            );
            print!("{table}");
            if !ok {
                return Ok(ExitCode::FAILURE);
            }
        }
        Some(_) => {
            let cli = parse_run(&args)?;
            let outcome = run::run(&cli.run)?;
            for note in &outcome.notes {
                println!("# {note}");
            }
            for failure in &outcome.failures {
                println!("# FAILED {failure}");
            }
            if let Some(path) = &cli.record {
                report::append_record(path, &cli.run, &cli.rev, &outcome)
                    .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
            }
            println!("{}", report::result_line(&outcome));
        }
        None => return Err(USAGE.into()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wmn-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
