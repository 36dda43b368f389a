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
  --workers N       worker threads [WMN_THREADS or all cores]
  --queue-cap N     max queued jobs before `busy` [64]";

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
