//! `wmn-served` — the scenario-service daemon.
//!
//! ```text
//! wmn-served --socket PATH [--workers N] [--queue-cap N]
//! ```
//!
//! Listens on a Unix-domain socket for newline-delimited JSON job requests
//! (protocol v1, DESIGN.md §4.6). SIGTERM or SIGINT begins a graceful
//! drain: in-flight jobs finish, queued jobs run, new submissions are
//! refused with `draining`, then the process exits 0. The `shutdown` op
//! does the same over the wire.

use cnlr::cli::{self, Argv};
use std::sync::atomic::Ordering;
use std::time::Duration;
use wmn_served::{Server, ServerConfig};
use wmn_sim::signals::{interrupt_on, SIGINT, SIGTERM};

const HELP: &str = "\
usage: wmn-served --socket PATH [--workers N] [--queue-cap N]

  --socket PATH     Unix-domain socket to listen on (required)
  --workers N       worker threads, 1-1024 [WMN_THREADS, else cores - 1]
  --queue-cap N     max queued jobs before `busy`, at least 1 [64]";

/// Most worker threads the daemon starts: each is an OS thread spawned at
/// start, and a count past the host's cores only queues jobs in the kernel
/// instead of in the daemon.
const MAX_WORKERS: usize = 1024;

fn parse_args(mut argv: Argv) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::new("");
    while let Some(flag) = argv.next_arg() {
        match flag.as_str() {
            "--socket" => cfg.socket = argv.value("--socket")?.into(),
            "--workers" => cfg.workers = argv.parsed("--workers")?,
            "--queue-cap" => cfg.queue_cap = argv.parsed("--queue-cap")?,
            "--help" | "-h" => cli::help(HELP),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cfg.socket.as_os_str().is_empty() {
        return Err("--socket is required".into());
    }
    // Zero workers would accept jobs that never run, a zero cap would
    // refuse every job as `busy`; the library allows both for its tests.
    if !(1..=MAX_WORKERS).contains(&cfg.workers) {
        return Err(format!(
            "--workers (or WMN_THREADS) must be in 1..={MAX_WORKERS}, got {}",
            cfg.workers
        ));
    }
    if cfg.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = parse_args(Argv::from_env()).unwrap_or_else(|e| cli::usage_error("wmn-served", &e));
    let socket_display = cfg.socket.display().to_string();
    let (workers, cap) = (cfg.workers, cfg.queue_cap);
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot listen on {socket_display}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("wmn-served: listening on {socket_display} ({workers} workers, queue cap {cap})");
    let term = interrupt_on(&[SIGINT, SIGTERM]);
    while !server.shutdown_requested() {
        if term.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("wmn-served: draining (in-flight jobs finish, new submissions refused)");
    let stats = server.join();
    eprintln!(
        "wmn-served: drained; {} submitted, {} done, {} cancelled, {} failed, \
         {} busy-rejected; prefix cache {} hits / {} builds, warm link cache \
         {} imports / {} exports",
        stats.submitted,
        stats.done,
        stats.cancelled,
        stats.failed,
        stats.rejected_busy,
        stats.prefix_hits,
        stats.prefix_builds,
        stats.warm_imports,
        stats.warm_exports,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<ServerConfig, String> {
        parse_args(Argv::new(
            args.split_whitespace().map(str::to_string).collect(),
        ))
    }

    #[test]
    fn worker_and_queue_counts_it_cannot_serve_are_refused() {
        for (args, flag) in [
            ("--workers 0", "--workers"),
            ("--workers 1025", "--workers"),
            ("--workers 1 --queue-cap 0", "--queue-cap"),
        ] {
            let err = parse(&format!("--socket s {args}")).expect_err(args);
            assert!(err.starts_with(flag), "{err}");
        }
        let cfg = parse("--socket s --workers 1024 --queue-cap 1").expect("in range");
        assert_eq!((cfg.workers, cfg.queue_cap), (1024, 1));
        let cfg = parse("--socket s --workers 1").expect("in range");
        assert_eq!((cfg.workers, cfg.queue_cap), (1, 64));
        assert_eq!(parse("--workers 2").unwrap_err(), "--socket is required");
    }
}
