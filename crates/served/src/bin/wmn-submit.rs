//! `wmn-submit` — thin client for the scenario-service daemon.
//!
//! ```text
//! wmn-submit --socket PATH [scenario flags] [--priority P] [--stream] [--json]
//! wmn-submit --socket PATH --cancel JOB
//! wmn-submit --socket PATH --shutdown
//! wmn-submit --socket PATH --ping
//! ```
//!
//! Default action submits one job and waits for its result. `--stream`
//! additionally prints the daemon's 1 Hz probe lines as they arrive.
//! Exit codes: 0 success, 1 job failed/cancelled or connection error, 2
//! usage, 3 daemon busy. Daemon status and the per-job listing are
//! `wmn-trace jobs PATH`.

use cnlr::cli::{self, Argv};
use cnlr::outln;
use std::time::Duration;
use wmn_served::{Client, ClientError, ScenarioSpec};

fn help() -> String {
    format!(
        "usage: wmn-submit --socket PATH [options]\n\
         \n\
         actions (default: submit one job and wait)\n\
         \x20 --cancel JOB      cancel a job by id\n\
         \x20 --shutdown        ask the daemon to drain and exit\n\
         \x20 --ping            liveness check\n\
         \n\
         scenario (the flags wmn-sim takes too; defaults in brackets)\n\
         {}\n\
         submission\n\
         \x20 --priority P      higher runs first [0]\n\
         \x20 --stream          stream 1 Hz probe lines to stdout\n\
         \x20 --retry-busy S    retry on busy for up to S seconds [0]\n\
         \x20 --json            raw JSON output instead of a summary",
        ScenarioSpec::flag_help()
    )
}

enum Action {
    Submit,
    Cancel(u64),
    Shutdown,
    Ping,
}

fn main() {
    let mut socket: Option<String> = None;
    let mut action = Action::Submit;
    let mut spec = ScenarioSpec::default();
    let mut priority: i64 = 0;
    let mut stream = false;
    let mut json = false;
    let mut retry_busy = Duration::ZERO;
    let mut argv = Argv::from_env();
    let mut parse = || -> Result<(), String> {
        while let Some(flag) = argv.next_arg() {
            if spec.set_flag(&flag, &mut argv)? {
                continue;
            }
            match flag.as_str() {
                "--socket" => socket = Some(argv.value("--socket")?),
                "--cancel" => action = Action::Cancel(argv.parsed("--cancel")?),
                "--shutdown" => action = Action::Shutdown,
                "--ping" => action = Action::Ping,
                "--priority" => priority = argv.parsed("--priority")?,
                "--stream" => stream = true,
                "--retry-busy" => {
                    let s: f64 = argv.parsed("--retry-busy")?;
                    retry_busy = Duration::try_from_secs_f64(s)
                        .map_err(|e| format!("--retry-busy: bad value '{s}' ({e})"))?;
                }
                "--json" => json = true,
                "--help" | "-h" => cli::help(&help()),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(())
    };
    if let Err(msg) = parse() {
        cli::usage_error("wmn-submit", &msg);
    }
    let Some(socket) = socket else {
        cli::usage_error("wmn-submit", "--socket is required");
    };
    let mut client = match Client::connect(&socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {socket}: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match action {
        Action::Ping => client.ping().map(|()| outln!("pong")),
        Action::Shutdown => client.shutdown().map(|()| outln!("draining")),
        Action::Cancel(id) => client.cancel(id).map(|o| outln!("job {id}: {o}")),
        Action::Submit => {
            let run =
                client.run_retrying(&spec, priority, stream, retry_busy, |line| outln!("{line}"));
            match run {
                Ok(result) if result.ok => {
                    if json {
                        outln!("{}", result.to_line());
                    } else {
                        outln!(
                            "job {}: done in {:.2}s ({} events, prefix {}, warm cache {})",
                            result.job,
                            result.wall_s,
                            result.events,
                            if result.prefix_reused {
                                "reused"
                            } else {
                                "built"
                            },
                            if result.warm_import {
                                "imported"
                            } else {
                                "cold"
                            },
                        );
                        for (k, v) in &result.metrics {
                            outln!("  {k:<20} {v}");
                        }
                    }
                    Ok(())
                }
                Ok(result) => {
                    eprintln!(
                        "job {}: {}",
                        result.job,
                        result.error.as_deref().unwrap_or("failed")
                    );
                    std::process::exit(1);
                }
                Err(e) => Err(e),
            }
        }
    };
    match outcome {
        Ok(()) => {}
        Err(ClientError::Busy) => {
            eprintln!("error: daemon busy (queue full)");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
