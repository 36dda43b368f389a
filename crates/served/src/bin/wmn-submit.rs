//! `wmn-submit` — thin client for the scenario-service daemon.
//!
//! ```text
//! wmn-submit --socket PATH [scenario flags] [--priority P] [--stream] [--json]
//! wmn-submit --socket PATH --status [--json]
//! wmn-submit --socket PATH --cancel JOB
//! wmn-submit --socket PATH --shutdown
//! wmn-submit --socket PATH --ping
//! ```
//!
//! Default action submits one job and waits for its result. `--stream`
//! additionally prints the daemon's 1 Hz probe lines and the job manifest
//! as they arrive. Exit codes: 0 success, 1 job failed/cancelled or
//! connection error, 2 usage, 3 daemon busy.

use cnlr::cli::{self, Argv};
use std::time::Duration;
use wmn_served::{Client, ClientError, ScenarioSpec};

fn help() -> String {
    format!(
        "usage: wmn-submit --socket PATH [options]\n\
         \n\
         actions (default: submit one job and wait)\n\
         \x20 --status          print daemon status\n\
         \x20 --jobs            print per-job listing\n\
         \x20 --cancel JOB      cancel a job by id\n\
         \x20 --shutdown        ask the daemon to drain and exit\n\
         \x20 --ping            liveness check\n\
         \n\
         scenario (the flags wmn-sim takes too; defaults in brackets)\n\
         {}\n\
         submission\n\
         \x20 --priority P      higher runs first [0]\n\
         \x20 --stream          stream 1 Hz probes + manifest to stdout\n\
         \x20 --retry-busy S    retry on busy for up to S seconds [0]\n\
         \x20 --json            raw JSON output instead of a summary",
        ScenarioSpec::flag_help()
    )
}

enum Action {
    Submit,
    Status,
    Jobs,
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
                "--status" => action = Action::Status,
                "--jobs" => action = Action::Jobs,
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
        Action::Ping => client.ping().map(|()| println!("pong")),
        Action::Shutdown => client.shutdown().map(|()| println!("draining")),
        Action::Cancel(id) => client.cancel(id).map(|o| println!("job {id}: {o}")),
        Action::Status => client.status().map(|s| {
            if json {
                return println!("{}", s.to_line());
            }
            println!(
                "queued {} | running {} | done {} | cancelled {} | failed {} | \
                 busy-rejected {} | capacity {} | workers {}{}",
                s.queued,
                s.running,
                s.stats.done,
                s.stats.cancelled,
                s.stats.failed,
                s.stats.rejected_busy,
                s.capacity,
                s.workers,
                if s.draining { " | DRAINING" } else { "" }
            );
            println!(
                "prefix cache: {} hits / {} builds; warm link cache: {} imports / {} exports",
                s.stats.prefix_hits,
                s.stats.prefix_builds,
                s.stats.warm_imports,
                s.stats.warm_exports
            );
        }),
        Action::Jobs => client.jobs().map(|jobs| {
            if json {
                return println!("{}", jobs.to_line());
            }
            println!(
                "{:>5}  {:<10} {:<16} {:>6}  seed",
                "job", "state", "scheme", "prio"
            );
            for j in jobs.0 {
                println!(
                    "{:>5}  {:<10} {:<16} {:>6}  {}",
                    j.id, j.state, j.scheme, j.priority, j.seed
                );
            }
        }),
        Action::Submit => {
            let mut submit_and_wait = || {
                let job = client.submit(&spec, priority, stream)?;
                client.wait(job, |line| println!("{line}"))
            };
            // Bounded busy-retry wraps the whole submit (no retry at 0 s).
            let deadline = std::time::Instant::now() + retry_busy;
            let run = loop {
                match submit_and_wait() {
                    Err(ClientError::Busy) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    other => break other,
                }
            };
            match run {
                Ok(result) if result.ok => {
                    if json {
                        println!("{}", result.to_line());
                    } else {
                        println!(
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
                            println!("  {k:<20} {v}");
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
