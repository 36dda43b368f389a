//! The service core: Unix-socket listener, bounded priority queue, worker
//! pool, prefix-dedup cache and graceful drain.
//!
//! Correctness stance: the daemon never writes result files — it streams
//! metrics, counters and a per-job `RunManifest` back over the socket and
//! lets the *client* persist them, so a cancelled job can never leave a
//! partial CSV or manifest on disk. Dedup and warm-cache hand-offs are
//! pure performance; every guarantee is re-checked at the `cnlr` layer
//! (`prefix_fingerprint` equality on build, position bit-equality on
//! cache import).

use crate::proto::{
    fmt_f64, read_line_capped, refusal, standard_metrics, JobInfo, JobListing, JobResult, Request,
    ServiceStats, ServiceStatus, PROTOCOL_VERSION,
};
use crate::spec::ScenarioSpec;
use cnlr::{LinkCacheSnapshot, ScenarioPrefix, Scheme};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;
use wmn_sim::{SimDuration, StopReason};
use wmn_telemetry::json::{object, Layout};
use wmn_telemetry::{
    EventKind, EventSink, RunManifest, SharedSink, TelemetryConfig, TelemetryEvent,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Unix-domain socket path (removed and re-bound on start).
    pub socket: PathBuf,
    /// Worker threads. `0` is permitted (jobs queue but never run) — the
    /// backpressure tests use it to pin queue states deterministically.
    pub workers: usize,
    /// Maximum *queued* (not yet running) jobs before `run` is refused
    /// with `busy`.
    pub queue_cap: usize,
}

impl ServerConfig {
    /// Defaults: `WMN_THREADS`-derived worker count, queue capacity 64.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            workers: wmn_metrics::default_threads(),
            queue_cap: 64,
        }
    }
}

/// Lifecycle of one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// On a worker.
    Running,
    /// Completed successfully.
    Done,
    /// Cancelled (queued-cancel or mid-run interrupt).
    Cancelled,
    /// Build or validation failure.
    Failed,
}

impl JobState {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// One line streamed back to the submitting connection.
struct JobLine {
    text: String,
    /// True for the terminal `result` line.
    last: bool,
}

struct JobEntry {
    spec: ScenarioSpec,
    priority: i64,
    stream: bool,
    state: JobState,
    interrupt: Arc<AtomicBool>,
    reply: mpsc::Sender<JobLine>,
}

/// Finished jobs kept on record for `jobs` and `cancel`; a queued or
/// running job always is. Without the bound the listing outgrows the
/// client's response cap and the daemon's memory grows with its age.
const FINISHED_KEPT: usize = 1024;

#[derive(Default)]
struct CoreState {
    next_id: u64,
    /// Queued job ids in submission order (selection scans for the best
    /// priority; FIFO within a level).
    queue: Vec<u64>,
    jobs: HashMap<u64, JobEntry>,
    /// The finished jobs still in `jobs`, oldest first.
    ended: VecDeque<u64>,
    draining: bool,
    stats: ServiceStats,
}

impl CoreState {
    /// Where in `queue` the job to run next is: the highest priority, FIFO
    /// (lowest queue index) within a level.
    fn next_in_queue(&self) -> Option<usize> {
        let by_priority_then_age = |(ai, a): &(usize, &u64), (bi, b): &(usize, &u64)| {
            let (pa, pb) = (self.jobs[a].priority, self.jobs[b].priority);
            pa.cmp(&pb).then(bi.cmp(ai))
        };
        (self.queue.iter().enumerate())
            .max_by(by_priority_then_age)
            .map(|(i, _)| i)
    }

    /// The one way a job ends: record its terminal `state`, hand its
    /// submitter the terminal line `text`, and forget the oldest finished
    /// job once more than [`FINISHED_KEPT`] are on record.
    fn finish(&mut self, id: u64, state: JobState, text: String) {
        let Some(entry) = self.jobs.get_mut(&id) else {
            return;
        };
        match state {
            JobState::Done => self.stats.done += 1,
            JobState::Cancelled => self.stats.cancelled += 1,
            JobState::Failed => self.stats.failed += 1,
            JobState::Queued | JobState::Running => unreachable!("{state:?} is not an end"),
        }
        entry.state = state;
        let _ = entry.reply.send(JobLine { text, last: true });
        self.ended.push_back(id);
        if self.ended.len() > FINISHED_KEPT {
            let oldest = self.ended.pop_front().expect("longer than the bound");
            self.jobs.remove(&oldest);
        }
    }
}

/// Scheme-independent build products shared across a prefix's jobs.
#[derive(Default)]
struct SlotInner {
    prefix: Option<Arc<ScenarioPrefix>>,
    warm: Option<Arc<LinkCacheSnapshot>>,
}

struct Core {
    state: Mutex<CoreState>,
    cv: Condvar,
    /// fingerprint → slot. The slot's own mutex is held across a prefix
    /// build so concurrent same-prefix jobs wait for one build instead of
    /// racing to duplicate it.
    prefixes: Mutex<HashMap<u64, Arc<Mutex<SlotInner>>>>,
    /// External shutdown request (signal handler or `shutdown` op).
    shutdown: AtomicBool,
    workers: usize,
    queue_cap: usize,
    /// Set once the drain has fully completed (workers idle, queue empty);
    /// the accept loop keeps answering status/cancel until then.
    finished: AtomicBool,
}

impl Core {
    fn new(workers: usize, queue_cap: usize) -> Core {
        Core {
            state: Mutex::new(CoreState {
                next_id: 1,
                ..CoreState::default()
            }),
            cv: Condvar::new(),
            prefixes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            workers,
            queue_cap,
            finished: AtomicBool::new(false),
        }
    }

    /// Queue a job and return its id, or the wire word for why not.
    fn submit(
        &self,
        spec: ScenarioSpec,
        priority: i64,
        stream: bool,
        reply: mpsc::Sender<JobLine>,
    ) -> Result<u64, &'static str> {
        let mut st = self.state.lock().unwrap();
        if st.draining {
            return Err("draining");
        }
        if st.queue.len() >= self.queue_cap {
            st.stats.rejected_busy += 1;
            return Err("busy");
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobEntry {
                spec,
                priority,
                stream,
                state: JobState::Queued,
                interrupt: Arc::new(AtomicBool::new(false)),
                reply,
            },
        );
        st.queue.push(id);
        st.stats.submitted += 1;
        self.cv.notify_one();
        Ok(id)
    }

    /// Cancel a job in any state; returns the wire outcome string.
    fn cancel(&self, id: u64) -> &'static str {
        let mut st = self.state.lock().unwrap();
        let Some(state) = st.jobs.get(&id).map(|e| e.state) else {
            return "unknown";
        };
        match state {
            JobState::Queued => {
                st.queue.retain(|&q| q != id);
                let text = JobResult::failure(id, "cancelled").to_line();
                st.finish(id, JobState::Cancelled, text);
                "cancelled"
            }
            JobState::Running => {
                st.jobs[&id].interrupt.store(true, Ordering::SeqCst);
                "cancelling"
            }
            _ => "finished",
        }
    }

    fn begin_drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.draining = true;
        self.cv.notify_all();
    }

    fn status(&self) -> ServiceStatus {
        let st = self.state.lock().unwrap();
        let running = st.jobs.values().filter(|j| j.state == JobState::Running);
        ServiceStatus {
            queued: st.queue.len() as u64,
            running: running.count() as u64,
            capacity: self.queue_cap as u64,
            workers: self.workers as u64,
            draining: st.draining,
            stats: st.stats,
        }
    }

    fn jobs(&self) -> JobListing {
        let st = self.state.lock().unwrap();
        let mut rows: Vec<JobInfo> = (st.jobs.iter())
            .map(|(&id, job)| JobInfo {
                id,
                state: job.state.name().to_string(),
                scheme: job.spec.scheme.clone(),
                seed: job.spec.seed,
                priority: job.priority,
            })
            .collect();
        rows.sort_unstable_by_key(|row| row.id);
        JobListing(rows)
    }

    /// End job `id` in `state` with `result` as its terminal line.
    fn finish(&self, id: u64, state: JobState, result: &JobResult) {
        let text = result.to_line();
        self.state.lock().unwrap().finish(id, state, text);
    }

    fn bump<F: FnOnce(&mut ServiceStats)>(&self, f: F) {
        f(&mut self.state.lock().unwrap().stats);
    }
}

/// Forwards 1 Hz probe events onto the job's reply channel as `probe`
/// stream lines; everything else is discarded (full traces stay a
/// client-side concern via `wmn-sim`).
struct ProbeForwardSink {
    job: u64,
    reply: mpsc::Sender<JobLine>,
}

impl EventSink for ProbeForwardSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        if !matches!(ev.kind, EventKind::NodeProbe { .. }) {
            return;
        }
        // Splice the job tag into the event's own JSON object.
        let body = ev.to_jsonl();
        let _ = self.reply.send(JobLine {
            text: format!("{{\"stream\":\"probe\",\"job\":{},{}", self.job, &body[1..]),
            last: false,
        });
    }
}

/// A running service instance.
pub struct Server {
    core: Arc<Core>,
    socket: PathBuf,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind the socket and start the worker pool and accept loop.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let core = Arc::new(Core::new(cfg.workers, cfg.queue_cap));
        let worker_handles: Vec<_> = (0..cfg.workers)
            .map(|_| {
                let core = core.clone();
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        let accept_core = core.clone();
        let accept_handle = std::thread::spawn(move || accept_loop(&accept_core, listener));
        Ok(Server {
            core,
            socket: cfg.socket,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// Ask the service to drain: in-flight jobs finish, new submissions
    /// are refused with `draining`. Idempotent; also triggered by the
    /// `shutdown` op.
    pub fn request_shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.core.begin_drain();
    }

    /// Whether a shutdown/drain has been requested (by either side).
    pub fn shutdown_requested(&self) -> bool {
        self.core.shutdown.load(Ordering::SeqCst)
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStats {
        self.core.state.lock().unwrap().stats
    }

    /// Drain and wait for every thread; removes the socket file. Returns
    /// the final counters.
    pub fn join(mut self) -> ServiceStats {
        self.request_shutdown();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // Workers are gone: anything still queued (possible only with a
        // zero-worker pool) is cancelled so waiting submitters get their
        // terminal line instead of a silent hang.
        {
            let mut st = self.core.state.lock().unwrap();
            let leftover: Vec<u64> = st.queue.drain(..).collect();
            for id in leftover {
                let text = JobResult::failure(id, "cancelled").to_line();
                st.finish(id, JobState::Cancelled, text);
            }
        }
        self.core.finished.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket);
        self.core.state.lock().unwrap().stats
    }
}

fn accept_loop(core: &Arc<Core>, listener: UnixListener) {
    // Stays alive through the drain so status/jobs/cancel keep answering;
    // exits only once the drain has fully completed.
    while !core.finished.load(Ordering::SeqCst) {
        if core.shutdown.load(Ordering::SeqCst) {
            core.begin_drain();
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let _ = stream.set_nonblocking(false);
                let core = core.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(&core, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Longest request line the daemon reads: a valid `run` line is under 400
/// bytes. A constant, not a setting — nothing legitimate comes near it.
const MAX_REQUEST_LINE: usize = 64 * 1024;

fn handle_connection(core: &Arc<Core>, stream: UnixStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match read_line_capped(&mut reader, MAX_REQUEST_LINE, "request") {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()), // EOF: client closed.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Not the protocol: say so once and hang up.
                return writeln!(writer, "{}", refusal(&e.to_string()));
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let answer = match Request::parse(&line) {
            Err(e) => refusal(&e),
            Ok(Request::Ping) => format!("{{\"ok\":true,\"pong\":{PROTOCOL_VERSION}}}"),
            Ok(Request::Status) => core.status().to_line(),
            Ok(Request::Jobs) => core.jobs().to_line(),
            Ok(Request::Cancel { job }) => {
                let outcome = core.cancel(job);
                let ok = outcome != "unknown";
                format!("{{\"ok\":{ok},\"job\":{job},\"outcome\":\"{outcome}\"}}")
            }
            Ok(Request::Shutdown) => {
                // Drain first: the ack promises that new jobs are refused.
                core.shutdown.store(true, Ordering::SeqCst);
                core.begin_drain();
                "{\"ok\":true,\"draining\":true}".to_string()
            }
            Ok(Request::Run {
                spec,
                priority,
                stream: want_stream,
            }) => {
                let (tx, rx) = mpsc::channel();
                match core.submit(spec, priority, want_stream, tx) {
                    Err(why) => refusal(why),
                    Ok(id) => {
                        writeln!(writer, "{{\"ok\":true,\"job\":{id}}}")?;
                        writer.flush()?;
                        // Pump stream lines until the terminal result. A
                        // write failure means the client vanished: cancel
                        // the job rather than burn a worker for nobody.
                        for jl in rx {
                            if writeln!(writer, "{}", jl.text).is_err() {
                                core.cancel(id);
                                break;
                            }
                            if jl.last {
                                break;
                            }
                            writer.flush()?;
                        }
                        writer.flush()?;
                        continue;
                    }
                }
            }
        };
        writeln!(writer, "{answer}")?;
        writer.flush()?;
    }
}

fn worker_loop(core: &Arc<Core>) {
    loop {
        let claimed = {
            let mut st = core.state.lock().unwrap();
            loop {
                if let Some(i) = st.next_in_queue() {
                    let id = st.queue.remove(i);
                    let e = st.jobs.get_mut(&id).unwrap();
                    e.state = JobState::Running;
                    break Some((
                        id,
                        e.spec.clone(),
                        e.stream,
                        e.interrupt.clone(),
                        e.reply.clone(),
                    ));
                }
                if st.draining {
                    break None;
                }
                st = core.cv.wait(st).unwrap();
            }
        };
        match claimed {
            Some((id, spec, stream, interrupt, reply)) => guarded(core, id, || {
                run_job(core, id, &spec, stream, &interrupt, &reply)
            }),
            None => return,
        }
    }
}

/// Run one job's work so that a panic in it (a bug in the stack under a
/// spec that passed validation) costs that job and not the worker: the job
/// ends `Failed`, its submitter gets the panic message as the terminal
/// line, and the caller goes on to the next job.
fn guarded(core: &Core, id: u64, work: impl FnOnce()) {
    let Err(panic) = catch_unwind(AssertUnwindSafe(work)) else {
        return;
    };
    let message = (panic.downcast_ref::<&str>().copied())
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("not a string");
    let result = JobResult::failure(id, format!("job panicked: {message}"));
    core.finish(id, JobState::Failed, &result);
}

fn run_job(
    core: &Arc<Core>,
    id: u64,
    spec: &ScenarioSpec,
    stream: bool,
    interrupt: &Arc<AtomicBool>,
    reply: &mpsc::Sender<JobLine>,
) {
    let t0 = std::time::Instant::now();
    let fail = |msg: String| core.finish(id, JobState::Failed, &JobResult::failure(id, msg));
    let builder = match spec.to_builder() {
        Ok(b) => b,
        Err(e) => return fail(format!("bad spec: {e}")),
    };
    let fp = builder.prefix_fingerprint();
    let slot = {
        let mut map = core.prefixes.lock().unwrap();
        // Crude bound: a figure sweep reuses a handful of prefixes; a
        // pathological stream of distinct ones just flushes the cache.
        if map.len() >= 64 && !map.contains_key(&fp) {
            map.clear();
        }
        map.entry(fp)
            .or_insert_with(|| Arc::new(Mutex::new(SlotInner::default())))
            .clone()
    };
    let (prefix, warm_snap, prefix_reused) = {
        // A build that panicked under this lock left the slot as it found
        // it (both fields are set whole, after the work), so the poison
        // flag carries no news: the next job of the prefix builds afresh.
        let mut inner = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let (prefix, reused) = match &inner.prefix {
            Some(p) => (p.clone(), true),
            None => match builder.build_prefix() {
                Ok(p) => {
                    let p = Arc::new(p);
                    inner.prefix = Some(p.clone());
                    (p, false)
                }
                Err(e) => return fail(format!("build failed: {e}")),
            },
        };
        let warm = if spec.warm_cache_eligible() {
            inner.warm.clone()
        } else {
            None
        };
        (prefix, warm, reused)
    };
    core.bump(|s| {
        if prefix_reused {
            s.prefix_hits += 1;
        } else {
            s.prefix_builds += 1;
        }
    });
    let mut builder = builder;
    if stream {
        let sink: SharedSink = Arc::new(Mutex::new(ProbeForwardSink {
            job: id,
            reply: reply.clone(),
        }));
        builder = builder
            .telemetry(TelemetryConfig {
                enabled: true,
                trace_path: None,
                probe_interval: Some(SimDuration::from_secs(1)),
                profile: false,
            })
            .telemetry_sink(sink);
    }
    let mut sim = match builder.build_with_prefix(&prefix) {
        Ok(s) => s,
        Err(e) => return fail(format!("build failed: {e}")),
    };
    let warm_import = warm_snap.as_ref().is_some_and(|s| sim.import_link_cache(s));
    if warm_import {
        core.bump(|s| s.warm_imports += 1);
    }
    let (results, network, reason) = sim.interrupt(interrupt.clone()).run_full();
    let wall_s = t0.elapsed().as_secs_f64();
    if reason == StopReason::Interrupted {
        let cancelled = JobResult::failure(id, "cancelled");
        return core.finish(id, JobState::Cancelled, &cancelled);
    }
    if spec.warm_cache_eligible() && warm_snap.is_none() {
        if let Some(snapshot) = network.medium.export_link_cache() {
            let mut inner = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.warm.is_none() {
                inner.warm = Some(Arc::new(snapshot));
                drop(inner);
                core.bump(|s| s.warm_exports += 1);
            }
        }
    }
    let manifest = job_manifest(id, spec, &results, wall_s, fp, prefix_reused, warm_import);
    let _ = reply.send(JobLine {
        text: object(Layout::Compact, |o| {
            o.field("stream", "manifest")
                .field("job", &id)
                .field("manifest", &manifest.to_json());
        }),
        last: false,
    });
    let result = JobResult {
        job: id,
        ok: true,
        error: None,
        wall_s,
        events: results.events,
        metrics: standard_metrics(&results)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        counters: results
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        pathloss_evals: results.medium.pathloss_evals,
        link_cache_hits: results.medium.link_cache_hits,
        link_budgets: results.medium.link_budgets,
        prefix_reused,
        warm_import,
    };
    core.finish(id, JobState::Done, &result);
}

/// The per-job provenance manifest streamed after a successful run. It
/// records the dedup facts (fingerprint, prefix reuse, warm-cache import)
/// next to the run's own counters — "the batch reports link-budget cache
/// reuse in its manifest" lives here and in the aggregated sweep manifest.
fn job_manifest(
    id: u64,
    spec: &ScenarioSpec,
    results: &cnlr::RunResults,
    wall_s: f64,
    fingerprint: u64,
    prefix_reused: bool,
    warm_import: bool,
) -> RunManifest {
    let scheme_label = Scheme::parse(&spec.scheme)
        .map(|s| s.label())
        .unwrap_or_else(|_| spec.scheme.clone());
    RunManifest {
        schemes: vec![scheme_label],
        seeds: vec![spec.seed],
        xs: vec![],
        params: vec![
            ("scheme".into(), spec.scheme.clone()),
            (
                "grid".into(),
                format!("{}x{}", spec.grid_rows, spec.grid_cols),
            ),
            ("flows".into(), spec.flows.to_string()),
            ("pps".into(), fmt_f64(spec.pps)),
            ("duration_s".into(), fmt_f64(spec.duration_s)),
            ("warmup_s".into(), fmt_f64(spec.warmup_s)),
            ("prefix_fingerprint".into(), format!("{fingerprint:016x}")),
            ("prefix_reused".into(), prefix_reused.to_string()),
            ("warm_cache_import".into(), warm_import.to_string()),
            (
                "pathloss_evals".into(),
                results.medium.pathloss_evals.to_string(),
            ),
            (
                "link_cache_hits".into(),
                results.medium.link_cache_hits.to_string(),
            ),
            (
                "link_budgets".into(),
                results.medium.link_budgets.to_string(),
            ),
        ],
        wall_s,
        events_processed: results.events,
        counters: results.counters(),
        ..RunManifest::stamped(format!("job{id}"), "wmn-served job")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_entry(priority: i64) -> JobEntry {
        let (tx, _rx) = mpsc::channel();
        JobEntry {
            spec: ScenarioSpec::default(),
            priority,
            stream: false,
            state: JobState::Queued,
            interrupt: Arc::new(AtomicBool::new(false)),
            reply: tx,
        }
    }

    #[test]
    fn selection_is_priority_then_fifo() {
        let mut st = CoreState {
            queue: vec![1, 2, 3, 4],
            ..CoreState::default()
        };
        for (id, prio) in [(1u64, 0i64), (2, 5), (3, 5), (4, 1)] {
            st.jobs.insert(id, dummy_entry(prio));
        }
        let mut order = Vec::new();
        while let Some(i) = st.next_in_queue() {
            order.push(st.queue.remove(i));
        }
        assert_eq!(order, vec![2, 3, 4, 1], "priority desc, FIFO within level");
    }

    fn queued(core: &Core) -> (u64, mpsc::Receiver<JobLine>) {
        let (tx, rx) = mpsc::channel();
        let submitted = core.submit(ScenarioSpec::default(), 0, false, tx);
        (submitted.expect("room in the queue"), rx)
    }

    #[test]
    fn a_panicking_job_fails_alone_and_its_worker_goes_on() {
        let core = Core::new(1, 4);
        let (id, rx) = queued(&core);
        guarded(&core, id, || panic!("boom {}", 7));
        let line = rx.try_recv().expect("the submitter's terminal line");
        assert!(line.last);
        assert_eq!(
            line.text,
            r#"{"stream":"result","job":1,"ok":false,"error":"job panicked: boom 7"}"#
        );
        {
            let st = core.state.lock().unwrap();
            assert_eq!(st.jobs[&id].state, JobState::Failed);
            assert_eq!(st.stats.failed, 1);
        }
        // The thread that ran it is still here for the next job.
        let mut ran = false;
        guarded(&core, id, || ran = true);
        assert!(ran);
        assert!(rx.try_recv().is_err(), "a job ends once");
    }

    #[test]
    fn only_the_newest_finished_jobs_stay_on_record() {
        let core = Core::new(0, FINISHED_KEPT + 8);
        let submitters: Vec<_> = (0..FINISHED_KEPT + 5).map(|_| queued(&core)).collect();
        for (id, _) in &submitters[..FINISHED_KEPT + 3] {
            assert_eq!(core.cancel(*id), "cancelled");
        }
        let rows = core.jobs().0;
        let in_state = |name: &str| rows.iter().filter(|row| row.state == name).count();
        assert_eq!(
            (in_state("cancelled"), in_state("queued")),
            (FINISHED_KEPT, 2)
        );
        assert_eq!(
            rows[0].id, 4,
            "the three oldest finished jobs are forgotten"
        );
        assert_eq!(core.cancel(1), "unknown");
        assert_eq!(core.status().stats.cancelled, FINISHED_KEPT as u64 + 3);
    }
}
