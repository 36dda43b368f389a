//! The newline-delimited request/response protocol (versioned, flat JSON).
//!
//! Every line is one flat JSON object, read and written through
//! [`wmn_telemetry::json`]; each response with more than an `ok` in it is
//! one struct here ([`JobResult`], [`ServiceStatus`], [`JobListing`]) that
//! the daemon writes with `to_line` and the client reads with `from_json`,
//! so the two sides cannot disagree about a key. Requests carry `"v":1` and an
//! `"op"`; responses to a `run` are an immediate ack followed, on the same
//! connection, by `"stream"`-tagged lines (`probe`, `manifest`, `result`)
//! until the terminal `result` line. 64-bit seeds travel as strings (the
//! wire form; a bare integer is accepted too and read exactly); metric
//! values travel as shortest-roundtrip decimals, which Rust's `{}`
//! formatting guarantees re-parse to the identical bits — the
//! byte-identity of served figure CSVs rests on that.

use crate::spec::ScenarioSpec;
use cnlr::RunResults;
use std::io::{BufRead, Error, ErrorKind::InvalidData, Read};
use wmn_telemetry::json::{get, object, FromJson, JsonValue, Layout, Seq, ToJson};
use wmn_telemetry::{json_members, parse_object};

/// Wire-protocol version; bumped on any incompatible change.
pub const PROTOCOL_VERSION: u64 = 1;

/// Read one newline-terminated line of at most `cap` bytes; `None` at a
/// clean end of stream. A peer that sends more than `cap` bytes without a
/// newline, or bytes that are not UTF-8, gets an `InvalidData` error whose
/// message says which — `BufRead::read_line` would instead grow its
/// `String` until the process runs out of memory. The rest of an over-long
/// line is left unread: the caller answers and closes.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
    cap: usize,
    what: &str,
) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    (reader.take(cap as u64 + 1)).read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() > cap && !buf.ends_with(b"\n") {
        return Err(Error::new(InvalidData, format!("{what} line too long")));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| Error::new(InvalidData, format!("{what} is not valid UTF-8")))
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job.
    Run {
        /// The scenario to run.
        spec: ScenarioSpec,
        /// Scheduling priority (higher runs first; FIFO within a level).
        priority: i64,
        /// Stream 1 Hz telemetry probes back over the connection.
        stream: bool,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id from the `run` ack.
        job: u64,
    },
    /// Service-level counters and queue depth.
    Status,
    /// Per-job status listing.
    Jobs,
    /// Liveness check.
    Ping,
    /// Begin a graceful drain (equivalent to SIGTERM).
    Shutdown,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let pairs =
            parse_object(line.trim()).ok_or("malformed request (not a flat JSON object)")?;
        let v = get(&pairs, "v")
            .and_then(JsonValue::as_u64)
            .ok_or("missing protocol version \"v\"")?;
        if v != PROTOCOL_VERSION {
            return Err(format!(
                "unsupported protocol version {v} (daemon speaks {PROTOCOL_VERSION})"
            ));
        }
        let op = get(&pairs, "op")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "run" => {
                let spec = ScenarioSpec::from_pairs(&pairs)?;
                let priority = get(&pairs, "priority")
                    .map(|v| v.as_f64().ok_or("bad priority"))
                    .transpose()?
                    .unwrap_or(0.0) as i64;
                let stream = matches!(get(&pairs, "stream"), Some(JsonValue::Bool(true)));
                Ok(Request::Run {
                    spec,
                    priority,
                    stream,
                })
            }
            "cancel" => {
                let job = get(&pairs, "job")
                    .and_then(JsonValue::as_u64)
                    .ok_or("cancel needs a \"job\" id")?;
                Ok(Request::Cancel { job })
            }
            "status" => Ok(Request::Status),
            "jobs" => Ok(Request::Jobs),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }

    /// Serialise for sending (the client side of [`Request::parse`]).
    pub fn to_line(&self) -> String {
        object(Layout::Compact, |o| {
            let o = o.field("v", &PROTOCOL_VERSION);
            match self {
                Request::Run {
                    spec,
                    priority,
                    stream,
                } => {
                    spec.write_members(o.field("op", "run"));
                    o.field("priority", priority).field("stream", stream)
                }
                Request::Cancel { job } => o.field("op", "cancel").field("job", job),
                Request::Status => o.field("op", "status"),
                Request::Jobs => o.field("op", "jobs"),
                Request::Ping => o.field("op", "ping"),
                Request::Shutdown => o.field("op", "shutdown"),
            };
        })
    }
}

/// Format an `f64` for the wire: shortest-roundtrip decimal, or `null`
/// for non-finite values (JSON has no NaN/Inf). The client maps `null`
/// back to NaN.
pub fn fmt_f64(v: f64) -> String {
    v.to_json_in(Layout::Compact)
}

/// The one-line answer to a request the daemon will not serve.
pub(crate) fn refusal(error: &str) -> String {
    object(Layout::Compact, |o| {
        o.field("ok", &false).field("error", error);
    })
}

/// The member `key` of a response, which must be there and be a `T`.
fn need<T: FromJson>(v: &JsonValue, key: &str) -> Result<T, String> {
    v.field(key)
        .ok_or_else(|| format!("response lacks a well-formed \"{key}\""))
}

/// The metric set the daemon extracts from every completed run, keyed for
/// the wire. The served figures (fig3 reads `pdr`; fig11 reads `pdr`,
/// `pdr_outage`, `repair_latency_s`, `reconverge_s`) read these same
/// definitions in their in-process branch too, which is what keeps served
/// and one-shot CSVs byte-identical.
pub fn standard_metrics(r: &RunResults) -> Vec<(&'static str, f64)> {
    let repair = if r.repair_latency_s.is_empty() {
        0.0
    } else {
        r.repair_latency_s.iter().sum::<f64>() / r.repair_latency_s.len() as f64
    };
    vec![
        ("pdr", r.pdr()),
        ("pdr_outage", r.pdr_during_outage.unwrap_or(0.0)),
        ("repair_latency_s", repair),
        ("reconverge_s", r.reconverge_s.unwrap_or(0.0)),
        ("mean_delay_ms", r.mean_delay_ms()),
        ("goodput_kbps", r.goodput_kbps),
        ("rreq_per_discovery", r.rreq_tx_per_discovery),
        ("saved_rebroadcast", r.saved_rebroadcast),
        ("discovery_success", r.discovery_success),
        ("nrl", r.normalized_routing_load),
        ("jain_forwarding", r.jain_forwarding),
    ]
}

/// The terminal per-job response, as both sides see it.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job id.
    pub job: u64,
    /// Whether the run completed (false: cancelled or failed).
    pub ok: bool,
    /// Failure/cancellation reason when `ok` is false.
    pub error: Option<String>,
    /// Wall-clock seconds the run took on its worker.
    pub wall_s: f64,
    /// Engine events processed.
    pub events: u64,
    /// `(key, value)` pairs from [`standard_metrics`].
    pub metrics: Vec<(String, f64)>,
    /// The run's aggregated counter registry.
    pub counters: Vec<(String, u64)>,
    /// Medium pathloss evaluations (cache perf).
    pub pathloss_evals: u64,
    /// Medium link-cache hits (cache perf).
    pub link_cache_hits: u64,
    /// Link budgets evaluated (cache perf).
    pub link_budgets: u64,
    /// Whether the scenario prefix came from the dedup cache.
    pub prefix_reused: bool,
    /// Whether a warm link-budget cache was imported.
    pub warm_import: bool,
}

impl JobResult {
    /// A failed/cancelled result.
    pub fn failure(job: u64, error: impl Into<String>) -> JobResult {
        JobResult {
            job,
            ok: false,
            error: Some(error.into()),
            wall_s: 0.0,
            events: 0,
            metrics: Vec::new(),
            counters: Vec::new(),
            pathloss_evals: 0,
            link_cache_hits: 0,
            link_budgets: 0,
            prefix_reused: false,
            warm_import: false,
        }
    }

    /// Look up a metric by wire key (NaN when absent).
    pub fn metric(&self, key: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(k, _)| k == key)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// Serialise as the terminal `result` stream line.
    pub fn to_line(&self) -> String {
        object(Layout::Compact, |o| {
            o.field("stream", "result")
                .field("job", &self.job)
                .field("ok", &self.ok);
            if !self.ok {
                o.field("error", self.error.as_deref().unwrap_or("failed"));
                return;
            }
            o.field("wall_s", &self.wall_s)
                .field("events", &self.events)
                .field("metric_names", &Seq(self.metrics.iter().map(|(k, _)| k)))
                .field("metric_values", &Seq(self.metrics.iter().map(|(_, v)| v)))
                .field("counter_names", &Seq(self.counters.iter().map(|(k, _)| k)))
                .field("counter_values", &Seq(self.counters.iter().map(|(_, v)| v)))
                .field("pathloss_evals", &self.pathloss_evals)
                .field("link_cache_hits", &self.link_cache_hits)
                .field("link_budgets", &self.link_budgets)
                .field("prefix_reused", &self.prefix_reused)
                .field("warm_import", &self.warm_import);
        })
    }

    /// Read a `result` stream line back (client side).
    pub fn from_json(v: &JsonValue) -> Result<JobResult, String> {
        let job = need(v, "job")?;
        if !need::<bool>(v, "ok")? {
            let error = v.field("error").unwrap_or_else(|| "failed".to_string());
            return Ok(JobResult::failure(job, error));
        }
        let (metric_names, metric_values): (Vec<String>, Vec<f64>) =
            (need(v, "metric_names")?, need(v, "metric_values")?);
        let (counter_names, counter_values): (Vec<String>, Vec<u64>) =
            (need(v, "counter_names")?, need(v, "counter_values")?);
        if metric_names.len() != metric_values.len() || counter_names.len() != counter_values.len()
        {
            return Err("mismatched name/value array lengths".into());
        }
        Ok(JobResult {
            job,
            ok: true,
            error: None,
            wall_s: need(v, "wall_s")?,
            events: need(v, "events")?,
            metrics: metric_names.into_iter().zip(metric_values).collect(),
            counters: counter_names.into_iter().zip(counter_values).collect(),
            pathloss_evals: need(v, "pathloss_evals")?,
            link_cache_hits: need(v, "link_cache_hits")?,
            link_budgets: need(v, "link_budgets")?,
            prefix_reused: need(v, "prefix_reused")?,
            warm_import: need(v, "warm_import")?,
        })
    }
}

/// Service-level counters (monotonic over the daemon's life).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub done: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed (bad spec / build error / panic).
    pub failed: u64,
    /// `run` requests refused with `busy`.
    pub rejected_busy: u64,
    /// Scenario prefixes built from scratch.
    pub prefix_builds: u64,
    /// Jobs that reused a cached prefix.
    pub prefix_hits: u64,
    /// Jobs that imported a warm link-budget cache.
    pub warm_imports: u64,
    /// Warm link-budget caches exported into the dedup slot.
    pub warm_exports: u64,
}

/// The `status` response: the queue as it stands, and the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently on a worker.
    pub running: u64,
    /// Queue capacity.
    pub capacity: u64,
    /// Worker-pool size.
    pub workers: u64,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// The daemon's counters.
    pub stats: ServiceStats,
}

json_members!(ServiceStatus {
    "queued" => queued,
    "running" => running,
    "submitted" => stats.submitted,
    "done" => stats.done,
    "cancelled" => stats.cancelled,
    "failed" => stats.failed,
    "rejected_busy" => stats.rejected_busy,
    "capacity" => capacity,
    "workers" => workers,
    "draining" => draining,
    "prefix_builds" => stats.prefix_builds,
    "prefix_hits" => stats.prefix_hits,
    "warm_imports" => stats.warm_imports,
    "warm_exports" => stats.warm_exports,
});

impl ServiceStatus {
    /// Serialise as the one-line `status` response.
    pub fn to_line(&self) -> String {
        object(Layout::Compact, |o| {
            o.field("ok", &true).field("v", &PROTOCOL_VERSION);
            self.write_members(o);
        })
    }

    /// Read a `status` response back (client side).
    pub fn from_json(v: &JsonValue) -> Result<ServiceStatus, String> {
        let mut status = ServiceStatus::default();
        let read = status.read_members(v);
        read.map(|()| status)
            .ok_or_else(|| "malformed status response".into())
    }
}

/// One row of the `jobs` listing.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// The `jobs` response: the jobs on record, ascending by id. On the wire
/// it is five parallel columns (`ids`, `states`, `schemes`, `seeds` as
/// strings, `priorities`), which keeps the line a flat object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobListing(pub Vec<JobInfo>);

impl JobListing {
    /// Serialise as the one-line `jobs` response.
    pub fn to_line(&self) -> String {
        let rows = self.0.iter();
        object(Layout::Compact, |o| {
            o.field("ok", &true)
                .field("ids", &Seq(rows.clone().map(|j| j.id)))
                .field("states", &Seq(rows.clone().map(|j| &j.state)))
                .field("schemes", &Seq(rows.clone().map(|j| &j.scheme)))
                .field("seeds", &Seq(rows.clone().map(|j| j.seed.to_string())))
                .field("priorities", &Seq(rows.clone().map(|j| j.priority)));
        })
    }

    /// Read a `jobs` response back (client side).
    pub fn from_json(v: &JsonValue) -> Result<JobListing, String> {
        let (ids, priorities): (Vec<u64>, Vec<f64>) = (need(v, "ids")?, need(v, "priorities")?);
        let (states, schemes, seeds): (Vec<String>, Vec<String>, Vec<String>) =
            (need(v, "states")?, need(v, "schemes")?, need(v, "seeds")?);
        let columns = [states.len(), schemes.len(), seeds.len(), priorities.len()];
        if columns != [ids.len(); 4] {
            return Err("jobs columns differ in length".into());
        }
        let row = |i: usize| -> Result<JobInfo, String> {
            Ok(JobInfo {
                id: ids[i],
                state: states[i].clone(),
                scheme: schemes[i].clone(),
                seed: (seeds[i].parse()).map_err(|_| format!("bad seed '{}' in jobs", seeds[i]))?,
                priority: priorities[i] as i64,
            })
        };
        (0..ids.len())
            .map(row)
            .collect::<Result<_, _>>()
            .map(JobListing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_telemetry::json::parse;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = [
            Request::Run {
                spec: ScenarioSpec {
                    seed: u64::MAX - 7,
                    ..ScenarioSpec::default()
                },
                priority: -3,
                stream: true,
            },
            Request::Cancel { job: 12 },
            Request::Status,
            Request::Jobs,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert_eq!(Request::parse(&line).unwrap(), r, "roundtrip of {line}");
        }
    }

    #[test]
    fn version_is_enforced() {
        assert!(Request::parse("{\"op\":\"ping\"}").is_err());
        assert!(Request::parse("{\"v\":2,\"op\":\"ping\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"v\":1,\"op\":\"fly\"}").is_err());
    }

    #[test]
    fn result_roundtrip_is_bit_exact() {
        let jr = JobResult {
            job: 5,
            ok: true,
            error: None,
            wall_s: 1.25,
            events: 123_456,
            metrics: vec![
                ("pdr".into(), 0.1 + 0.2), // classic non-terminating decimal
                ("mean_delay_ms".into(), f64::NAN),
            ],
            counters: vec![("rreq_originated".into(), 42)],
            pathloss_evals: 9,
            link_cache_hits: 1000,
            link_budgets: 1009,
            prefix_reused: true,
            warm_import: false,
        };
        let line = parse(&jr.to_line()).expect("result line parses");
        let back = JobResult::from_json(&line).unwrap();
        assert_eq!(back.job, jr.job);
        assert_eq!(back.metrics[0].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(back.metrics[1].1.is_nan());
        assert_eq!(back.counters, jr.counters);
        assert!(back.prefix_reused && !back.warm_import);
    }

    /// The `status` and `jobs` lines as wire v1 has always had them, through
    /// the one struct each side now uses.
    #[test]
    fn status_and_jobs_lines_are_the_v1_bytes_and_round_trip() {
        let status_line =
            "{\"ok\":true,\"v\":1,\"queued\":1,\"running\":0,\"submitted\":2,\"done\":0,\
            \"cancelled\":1,\"failed\":0,\"rejected_busy\":1,\"capacity\":2,\"workers\":0,\
            \"draining\":false,\"prefix_builds\":0,\"prefix_hits\":3,\"warm_imports\":0,\
            \"warm_exports\":0}";
        let status = ServiceStatus {
            queued: 1,
            capacity: 2,
            stats: ServiceStats {
                submitted: 2,
                cancelled: 1,
                rejected_busy: 1,
                prefix_hits: 3,
                ..ServiceStats::default()
            },
            ..ServiceStatus::default()
        };
        assert_eq!(status.to_line(), status_line);
        assert_eq!(
            ServiceStatus::from_json(&parse(status_line).unwrap()),
            Ok(status)
        );
        let short = status_line.replace(",\"warm_exports\":0", "");
        assert!(ServiceStatus::from_json(&parse(&short).unwrap()).is_err());

        let jobs_line = "{\"ok\":true,\"ids\":[1,2],\"states\":[\"cancelled\",\"queued\"],\
            \"schemes\":[\"gossip:0.65\",\"cnlr\"],\
            \"seeds\":[\"18446744073709551615\",\"18446744073709551614\"],\"priorities\":[-3,-2]}";
        let row = |id, state: &str, scheme: &str, seed, priority| JobInfo {
            id,
            state: state.into(),
            scheme: scheme.into(),
            seed,
            priority,
        };
        let jobs = JobListing(vec![
            row(1, "cancelled", "gossip:0.65", u64::MAX, -3),
            row(2, "queued", "cnlr", u64::MAX - 1, -2),
        ]);
        assert_eq!(jobs.to_line(), jobs_line);
        assert_eq!(JobListing::from_json(&parse(jobs_line).unwrap()), Ok(jobs));
        let empty =
            "{\"ok\":true,\"ids\":[],\"states\":[],\"schemes\":[],\"seeds\":[],\"priorities\":[]}";
        assert_eq!(JobListing::default().to_line(), empty);
        for bad in [
            jobs_line.replace("[1,2]", "[1]"),
            jobs_line.replace("\"18446744073709551614\"", "\"x\""),
            jobs_line.replace("\"states\"", "\"stats\""),
        ] {
            assert!(
                JobListing::from_json(&parse(&bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn request_and_result_lines_are_the_v1_bytes() {
        let spec = ScenarioSpec {
            seed: u64::MAX - 1,
            clients: 1,
            churn: Some((30.0, 10.5)),
            ..ScenarioSpec::default()
        };
        let run = Request::Run {
            spec,
            priority: -2,
            stream: true,
        };
        assert_eq!(
            run.to_line(),
            "{\"v\":1,\"op\":\"run\",\"seed\":\"18446744073709551614\",\"scheme\":\"cnlr\",\
             \"grid_rows\":8,\"grid_cols\":8,\"pitch_m\":180,\"flows\":20,\"pps\":4,\"payload\":512,\
             \"duration_s\":60,\"warmup_s\":10,\"clients\":1,\"client_speed\":10,\
             \"churn_mtbf_s\":30,\"churn_mttr_s\":10.5,\"priority\":-2,\"stream\":true}"
        );
        assert_eq!(
            Request::Cancel { job: 7 }.to_line(),
            "{\"v\":1,\"op\":\"cancel\",\"job\":7}"
        );
        assert_eq!(Request::Ping.to_line(), "{\"v\":1,\"op\":\"ping\"}");
        let done = JobResult {
            ok: true,
            error: None,
            wall_s: 1.25,
            events: 123,
            metrics: vec![("pdr".into(), 0.1 + 0.2), ("d".into(), f64::NAN)],
            counters: vec![("a\"b".into(), 42), ("c".into(), u64::MAX)],
            pathloss_evals: 9,
            prefix_reused: true,
            ..JobResult::failure(5, "")
        };
        assert_eq!(
            done.to_line(),
            "{\"stream\":\"result\",\"job\":5,\"ok\":true,\"wall_s\":1.25,\"events\":123,\
             \"metric_names\":[\"pdr\",\"d\"],\"metric_values\":[0.30000000000000004,null],\
             \"counter_names\":[\"a\\\"b\",\"c\"],\"counter_values\":[42,18446744073709551615],\
             \"pathloss_evals\":9,\"link_cache_hits\":0,\"link_budgets\":0,\
             \"prefix_reused\":true,\"warm_import\":false}"
        );
        assert_eq!(
            JobResult::failure(3, "can\"celled\n").to_line(),
            "{\"stream\":\"result\",\"job\":3,\"ok\":false,\"error\":\"can\\\"celled\\n\"}"
        );
        assert_eq!(
            refusal("unknown op 'fly\u{1}'"),
            "{\"ok\":false,\"error\":\"unknown op 'fly\\u0001'\"}"
        );
    }

    #[test]
    fn failure_lines_carry_the_reason() {
        let jr = JobResult::failure(3, "cancelled");
        let back = JobResult::from_json(&parse(&jr.to_line()).unwrap()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("cancelled"));
    }
}
