//! Blocking line-protocol client — the substrate under `wmn-submit`,
//! `wmn-trace jobs` and the `--served` figure sweeps.

use crate::proto::{read_line_capped, JobResult, Request};
use crate::spec::ScenarioSpec;
use std::io::{BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};
use wmn_telemetry::json::{get, JsonValue};
use wmn_telemetry::parse_object;

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The daemon refused with `busy` (bounded queue full).
    Busy,
    /// The daemon is draining and refuses new jobs.
    Draining,
    /// The daemon rejected the request (bad spec, unknown job, …).
    Rejected(String),
    /// The daemon answered something unparseable.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Busy => write!(f, "daemon busy (queue full)"),
            ClientError::Draining => write!(f, "daemon draining"),
            ClientError::Rejected(e) => write!(f, "rejected: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Daemon-level counters as returned by the `status` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStatus {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently on a worker.
    pub running: u64,
    /// Jobs accepted over the daemon's life.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub done: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Submissions refused with `busy`.
    pub rejected_busy: u64,
    /// Queue capacity.
    pub capacity: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Scenario prefixes built from scratch.
    pub prefix_builds: u64,
    /// Jobs that reused a cached prefix.
    pub prefix_hits: u64,
    /// Jobs that imported a warm link-budget cache.
    pub warm_imports: u64,
    /// Warm caches exported into the dedup slot.
    pub warm_exports: u64,
}

/// One row of the `jobs` listing.
#[derive(Clone, Debug)]
pub struct JobInfo {
    /// Job id.
    pub id: u64,
    /// Lifecycle state name.
    pub state: String,
    /// Scheme spec string.
    pub scheme: String,
    /// Master seed.
    pub seed: u64,
    /// Scheduling priority.
    pub priority: i64,
}

/// Longest response line the client reads, so a broken daemon cannot grow
/// the client without bound either. The largest fixed-size response is the
/// `manifest` stream line — 1 947 bytes measured for a mobile, churning
/// 8×8 job, whose counter registry is the fullest — and the `jobs` listing
/// adds 25–70 bytes per job on record: 1 MiB is 500 manifests, or a
/// listing of some 15 000 jobs.
const MAX_RESPONSE_LINE: usize = 1024 * 1024;

/// A connected protocol client (one request/response in flight at a time).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connect to a daemon socket.
    pub fn connect(socket: impl AsRef<Path>) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        writeln!(self.writer, "{}", req.to_line())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        match read_line_capped(&mut self.reader, MAX_RESPONSE_LINE, "response") {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err(ClientError::Protocol("daemon closed the connection".into())),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                Err(ClientError::Protocol(e.to_string()))
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    fn read_pairs(&mut self) -> Result<Vec<(String, JsonValue)>, ClientError> {
        let line = self.read_line()?;
        parse_object(line.trim())
            .ok_or_else(|| ClientError::Protocol(format!("unparseable response: {}", line.trim())))
    }

    /// Map a `{"ok":false,...}` response to the matching error.
    fn check_ok(pairs: &[(String, JsonValue)]) -> Result<(), ClientError> {
        if matches!(get(pairs, "ok"), Some(JsonValue::Bool(true))) {
            return Ok(());
        }
        let err = get(pairs, "error")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown error");
        Err(match err {
            "busy" => ClientError::Busy,
            "draining" => ClientError::Draining,
            other => ClientError::Rejected(other.to_string()),
        })
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Ping)?;
        Self::check_ok(&self.read_pairs()?)
    }

    /// Begin a graceful drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        Self::check_ok(&self.read_pairs()?)
    }

    /// Cancel a job; returns the daemon's outcome word
    /// (`cancelled` / `cancelling` / `finished`).
    pub fn cancel(&mut self, job: u64) -> Result<String, ClientError> {
        self.send(&Request::Cancel { job })?;
        let pairs = self.read_pairs()?;
        Self::check_ok(&pairs).map_err(|e| match e {
            ClientError::Rejected(_) => ClientError::Rejected(format!("unknown job {job}")),
            other => other,
        })?;
        Ok(get(&pairs, "outcome")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown")
            .to_string())
    }

    /// The raw one-line JSON `status` response (for `--json` passthrough).
    pub fn status_raw(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Status)?;
        Ok(self.read_line()?.trim().to_string())
    }

    /// Parsed daemon status.
    pub fn status(&mut self) -> Result<ServiceStatus, ClientError> {
        self.send(&Request::Status)?;
        let pairs = self.read_pairs()?;
        Self::check_ok(&pairs)?;
        let n = |key: &str| get(&pairs, key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(ServiceStatus {
            queued: n("queued"),
            running: n("running"),
            submitted: n("submitted"),
            done: n("done"),
            cancelled: n("cancelled"),
            failed: n("failed"),
            rejected_busy: n("rejected_busy"),
            capacity: n("capacity"),
            workers: n("workers"),
            draining: matches!(get(&pairs, "draining"), Some(JsonValue::Bool(true))),
            prefix_builds: n("prefix_builds"),
            prefix_hits: n("prefix_hits"),
            warm_imports: n("warm_imports"),
            warm_exports: n("warm_exports"),
        })
    }

    /// The raw one-line JSON `jobs` response.
    pub fn jobs_raw(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Jobs)?;
        Ok(self.read_line()?.trim().to_string())
    }

    /// Parsed per-job listing.
    pub fn jobs(&mut self) -> Result<Vec<JobInfo>, ClientError> {
        self.send(&Request::Jobs)?;
        let pairs = self.read_pairs()?;
        Self::check_ok(&pairs)?;
        let arr = |key: &str| -> Vec<JsonValue> {
            match get(&pairs, key) {
                Some(JsonValue::Arr(items)) => items.clone(),
                _ => Vec::new(),
            }
        };
        let (ids, states, schemes, seeds, priorities) = (
            arr("ids"),
            arr("states"),
            arr("schemes"),
            arr("seeds"),
            arr("priorities"),
        );
        let mut out = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            out.push(JobInfo {
                id: id.as_u64().unwrap_or(0),
                state: states
                    .get(i)
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                scheme: schemes
                    .get(i)
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string(),
                seed: seeds
                    .get(i)
                    .and_then(|v| v.as_str())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0),
                priority: priorities.get(i).and_then(|v| v.as_f64()).unwrap_or(0.0) as i64,
            });
        }
        Ok(out)
    }

    /// Submit a job; returns its id once the daemon acks. The connection
    /// then carries that job's stream lines — follow with
    /// [`Client::wait`].
    pub fn submit(
        &mut self,
        spec: &ScenarioSpec,
        priority: i64,
        stream: bool,
    ) -> Result<u64, ClientError> {
        self.send(&Request::Run {
            spec: spec.clone(),
            priority,
            stream,
        })?;
        let pairs = self.read_pairs()?;
        Self::check_ok(&pairs)?;
        get(&pairs, "job")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ClientError::Protocol("run ack missing job id".into()))
    }

    /// Pump stream lines for a submitted job until its terminal result.
    /// Every non-terminal line (probes, the manifest) is handed to
    /// `on_line` verbatim.
    pub fn wait(
        &mut self,
        job: u64,
        mut on_line: impl FnMut(&str),
    ) -> Result<JobResult, ClientError> {
        loop {
            let line = self.read_line()?;
            let trimmed = line.trim();
            let Some(pairs) = parse_object(trimmed) else {
                return Err(ClientError::Protocol(format!(
                    "unparseable stream line: {trimmed}"
                )));
            };
            match get(&pairs, "stream").and_then(JsonValue::as_str) {
                Some("result") => {
                    let result = JobResult::from_pairs(&pairs).map_err(ClientError::Protocol)?;
                    if result.job != job {
                        return Err(ClientError::Protocol(format!(
                            "result for job {} while waiting on {job}",
                            result.job
                        )));
                    }
                    return Ok(result);
                }
                Some(_) => on_line(trimmed),
                None => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected line while streaming: {trimmed}"
                    )))
                }
            }
        }
    }

    /// Submit and wait, no streaming.
    pub fn run(&mut self, spec: &ScenarioSpec, priority: i64) -> Result<JobResult, ClientError> {
        let job = self.submit(spec, priority, false)?;
        self.wait(job, |_| {})
    }

    /// [`Client::run`] with bounded retry on `busy`: backpressure from the
    /// daemon's bounded queue is an invitation to resubmit, not an error,
    /// so sweep drivers sleep (25 ms doubling to 400 ms) and retry until
    /// `max_wait` is spent.
    pub fn run_retrying(
        &mut self,
        spec: &ScenarioSpec,
        priority: i64,
        max_wait: Duration,
    ) -> Result<JobResult, ClientError> {
        let deadline = Instant::now() + max_wait;
        let mut backoff = Duration::from_millis(25);
        loop {
            match self.run(spec, priority) {
                Err(ClientError::Busy) => {
                    if Instant::now() + backoff > deadline {
                        return Err(ClientError::Busy);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(400));
                }
                other => return other,
            }
        }
    }
}
