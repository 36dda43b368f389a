//! The daemon workload: an in-process `wmn-served` with 2 workers, drained
//! by 2 closed-loop clients (the daemon's callers are sweep scripts that
//! wait for each reply before sending the next job).

use crate::digest;
use crate::span::{scoped, Recorder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use wmn_served::{
    standard_metrics, Client, JobResult, ScenarioSpec, Server, ServerConfig, ServiceStats,
};
use wmn_telemetry::TelemetryConfig;

/// Worker threads of the daemon = host cores on the reference host.
pub const WORKERS: usize = 2;
/// Client connections, each with one job in flight.
pub const CLIENTS: usize = 2;

/// The socket lives inside the checkout; the path is relative so it stays
/// under the 108-byte `sun_path` limit wherever the checkout is.
fn socket_path() -> PathBuf {
    crate::out_dir().join(format!("served-{}.sock", std::process::id()))
}

/// The daemon's set-up work: bind the socket, start the worker and accept
/// threads, open every client connection.
fn start() -> (Server, Vec<Client>) {
    let socket = socket_path();
    let server = Server::start(ServerConfig {
        socket: socket.clone(),
        workers: WORKERS,
        queue_cap: 64,
    })
    .expect("daemon binds its socket");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(&socket).expect("daemon listens"))
        .collect();
    (server, clients)
}

/// Wait until the daemon has accepted every connection. It polls its
/// listener every 25 ms, so this takes 0, 25 or 50 ms depending on where
/// in the poll the connections landed: a sleep of random phase, not work,
/// and kept out of both the set-up time and the batch's wall.
fn await_ready(clients: &mut [Client]) {
    for c in clients {
        c.ping().expect("daemon answers ping");
    }
}

/// Set-up on its own.
pub fn setup_once() -> f64 {
    let t = Instant::now();
    let (server, clients) = start();
    let setup_s = t.elapsed().as_secs_f64();
    drop(clients);
    server.join();
    setup_s
}

/// One job as its client saw it.
pub struct Job {
    pub result: JobResult,
    /// Submit → result, milliseconds.
    pub latency_ms: f64,
}

pub struct Pass {
    pub setup_s: f64,
    /// First submit → last result.
    pub wall_s: f64,
    /// In spec order.
    pub jobs: Vec<Job>,
    pub stats: ServiceStats,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn digest(&self) -> u64 {
        digest::fold(self.jobs.iter().map(|j| digest::of_job(&j.result)))
    }
}

/// Start a fresh daemon (so every pass builds its 8 prefixes again), drain
/// the batch, drain the daemon. `between` runs before and after the batch,
/// outside every timing.
pub fn pass(specs: &[ScenarioSpec], rec: Option<&Recorder>, between: &mut dyn FnMut()) -> Pass {
    let t = Instant::now();
    let (server, mut clients) = scoped(rec, "served.start_connect", None, 0, |_| start());
    let setup_s = t.elapsed().as_secs_f64();
    await_ready(&mut clients);
    between();

    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let mut done: Vec<(usize, Result<Job, String>)> =
        scoped(rec, "bench.pass", None, 0, |pass_span| {
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .map(|mut client| {
                        let next = &next;
                        s.spawn(move || {
                            let mut mine = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(spec) = specs.get(i) else { break };
                                mine.push((
                                    i,
                                    run_job(&mut client, spec, rec, pass_span, i as u32 + 1),
                                ));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        });
    let wall_s = t.elapsed().as_secs_f64();
    between();
    let stats = server.join();

    done.sort_by_key(|(i, _)| *i);
    let mut out = Pass {
        setup_s,
        wall_s,
        jobs: Vec::with_capacity(specs.len()),
        stats,
        failures: Vec::new(),
    };
    for (i, job) in done {
        match job {
            Ok(job) if job.result.ok && job.result.events > 0 => out.jobs.push(job),
            Ok(job) => out.failures.push(format!(
                "job {i}: {}",
                job.result.error.as_deref().unwrap_or("no events")
            )),
            Err(e) => out.failures.push(format!("job {i}: {e}")),
        }
    }
    out
}

fn run_job(
    client: &mut Client,
    spec: &ScenarioSpec,
    rec: Option<&Recorder>,
    parent: Option<usize>,
    run: u32,
) -> Result<Job, String> {
    scoped(rec, "bench.job", parent, run, |job_span| {
        let t = Instant::now();
        let id = scoped(rec, "served.submit_ack", job_span, run, |_| {
            client.submit(spec, 0, false)
        })
        .map_err(|e| e.to_string())?;
        let result = scoped(rec, "served.ack_result", job_span, run, |_| {
            client.wait(id, |_| {})
        })
        .map_err(|e| e.to_string())?;
        Ok(Job {
            result,
            latency_ms: t.elapsed().as_secs_f64() * 1000.0,
        })
    })
}

/// The same spec as a one-shot in-process run, shaped like the daemon's
/// result: `(events, wire metrics, counters)`.
pub struct OneShot {
    pub events: u64,
    pub metrics: Vec<(String, f64)>,
    pub counters: Vec<(String, u64)>,
}

pub fn one_shot(spec: &ScenarioSpec) -> OneShot {
    let r = spec
        .to_builder()
        .expect("generated specs are valid")
        .telemetry(TelemetryConfig::disabled())
        .build()
        .expect("generated specs build")
        .run();
    OneShot {
        events: r.events,
        metrics: standard_metrics(&r)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        counters: r
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

/// Whether a daemon result equals its one-shot run, metric bits included.
pub fn same_as_one_shot(job: &JobResult, one: &OneShot) -> bool {
    job.events == one.events
        && job.counters == one.counters
        && job.metrics.len() == one.metrics.len()
        && job
            .metrics
            .iter()
            .zip(&one.metrics)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Inputs};

    #[test]
    fn small_batch_dedups_prefixes_and_equals_one_shot_runs() {
        let Inputs::Served(mut specs) = generate("served_batch", 8, 0.1).unwrap() else {
            panic!("served specs");
        };
        specs.truncate(8); // two (seed, load) groups x four schemes
        let rec = Recorder::new();
        let p = pass(&specs, Some(&rec), &mut || {});
        assert!(p.failures.is_empty(), "{:?}", p.failures);
        assert_eq!(p.jobs.len(), 8);
        assert_eq!(p.stats.done, 8);
        assert_eq!(p.stats.prefix_builds + p.stats.prefix_hits, 8);
        assert_eq!(p.stats.prefix_builds, 2);
        for (job, spec) in p.jobs.iter().zip(&specs) {
            assert!(
                same_as_one_shot(&job.result, &one_shot(spec)),
                "{}",
                spec.scheme
            );
        }
        // start_connect + pass + per job (job, submit_ack, ack_result)
        assert_eq!(rec.into_spans().len(), 2 + 8 * 3);
    }
}
