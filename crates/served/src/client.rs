//! Blocking line-protocol client — the substrate under `wmn-submit`,
//! `wmn-trace jobs` and the `--served` figure sweeps.

use crate::proto::{read_line_capped, JobListing, JobResult, Request, ServiceStatus};
use crate::spec::ScenarioSpec;
use std::io::{BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};
use wmn_telemetry::json::{parse, JsonValue};

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

/// Longest response line the client reads, so a broken daemon cannot grow
/// the client without bound either. The largest per-job line is the
/// terminal `result` — 1 641 bytes measured for a mobile, churning 8×8
/// job, whose counter registry is the fullest — and the `jobs` listing
/// adds 25–70 bytes per job on record, of which the daemon keeps every
/// unfinished one (its queue is bounded) and the newest 1 024 finished,
/// about 76 KB at the default queue cap: 1 MiB is 600 such results, or
/// over ten such listings.
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

    /// Send `req` and read its one-line answer, which must be a JSON
    /// object; a `{"ok":false,...}` becomes the matching error.
    fn ask(&mut self, req: &Request) -> Result<JsonValue, ClientError> {
        writeln!(self.writer, "{}", req.to_line())?;
        self.writer.flush()?;
        let line = self.read_line()?;
        let v = parse(&line)
            .filter(|v| matches!(v, JsonValue::Obj(_)))
            .ok_or_else(|| {
                ClientError::Protocol(format!("unparseable response: {}", line.trim()))
            })?;
        if v.field("ok") == Some(true) {
            return Ok(v);
        }
        let err: Option<String> = v.field("error");
        Err(match err.as_deref().unwrap_or("unknown error") {
            "busy" => ClientError::Busy,
            "draining" => ClientError::Draining,
            other => ClientError::Rejected(other.to_string()),
        })
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

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.ask(&Request::Ping).map(drop)
    }

    /// Begin a graceful drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.ask(&Request::Shutdown).map(drop)
    }

    /// Cancel a job; returns the daemon's outcome word
    /// (`cancelled` / `cancelling` / `finished`).
    pub fn cancel(&mut self, job: u64) -> Result<String, ClientError> {
        let v = self.ask(&Request::Cancel { job }).map_err(|e| match e {
            ClientError::Rejected(_) => ClientError::Rejected(format!("unknown job {job}")),
            other => other,
        })?;
        (v.field("outcome")).ok_or_else(|| ClientError::Protocol("cancel ack lacks outcome".into()))
    }

    /// The daemon's status (its `to_line` is the response verbatim, for
    /// `--json` output).
    pub fn status(&mut self) -> Result<ServiceStatus, ClientError> {
        ServiceStatus::from_json(&self.ask(&Request::Status)?).map_err(ClientError::Protocol)
    }

    /// The per-job listing (likewise verbatim through its `to_line`).
    pub fn jobs(&mut self) -> Result<JobListing, ClientError> {
        JobListing::from_json(&self.ask(&Request::Jobs)?).map_err(ClientError::Protocol)
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
        let run = Request::Run {
            spec: spec.clone(),
            priority,
            stream,
        };
        (self.ask(&run)?.field("job"))
            .ok_or_else(|| ClientError::Protocol("run ack missing job id".into()))
    }

    /// Pump stream lines for a submitted job until its terminal result.
    /// Every non-terminal line (the `probe` lines of a streamed job; a
    /// job that did not ask to stream sends none) is handed to `on_line`
    /// verbatim.
    pub fn wait(
        &mut self,
        job: u64,
        mut on_line: impl FnMut(&str),
    ) -> Result<JobResult, ClientError> {
        loop {
            let line = self.read_line()?;
            let trimmed = line.trim();
            let parsed = parse(trimmed);
            let stream: Option<String> = parsed.as_ref().and_then(|v| v.field("stream"));
            match (parsed, stream.as_deref()) {
                (Some(v), Some("result")) => {
                    let result = JobResult::from_json(&v).map_err(ClientError::Protocol)?;
                    if result.job != job {
                        return Err(ClientError::Protocol(format!(
                            "result for job {} while waiting on {job}",
                            result.job
                        )));
                    }
                    return Ok(result);
                }
                (Some(_), Some(_)) => on_line(trimmed),
                _ => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected line while streaming: {trimmed}"
                    )))
                }
            }
        }
    }

    /// Submit and wait, with bounded retry on `busy`: backpressure from
    /// the daemon's bounded queue is an invitation to resubmit, not an
    /// error, so callers sleep (25 ms doubling to 400 ms) and retry until
    /// `max_wait` is spent (no retry at zero). Stream lines go to
    /// `on_line` as in [`Client::wait`].
    pub fn run_retrying(
        &mut self,
        spec: &ScenarioSpec,
        priority: i64,
        stream: bool,
        max_wait: Duration,
        mut on_line: impl FnMut(&str),
    ) -> Result<JobResult, ClientError> {
        let deadline = Instant::now() + max_wait;
        let mut backoff = Duration::from_millis(25);
        loop {
            let job = self.submit(spec, priority, stream);
            match job.and_then(|job| self.wait(job, &mut on_line)) {
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
