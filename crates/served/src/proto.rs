//! The newline-delimited request/response protocol (versioned, flat JSON).
//!
//! Every line is one flat JSON object — the shape
//! [`wmn_telemetry::parse_object`] reads. Requests carry `"v":1` and an
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
use wmn_telemetry::json::{get, JsonValue};
use wmn_telemetry::{escape_json, parse_object};

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
        match self {
            Request::Run {
                spec,
                priority,
                stream,
            } => format!(
                "{{\"v\":{PROTOCOL_VERSION},\"op\":\"run\",{},\"priority\":{priority},\"stream\":{stream}}}",
                spec.json_fields()
            ),
            Request::Cancel { job } => {
                format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"cancel\",\"job\":{job}}}")
            }
            Request::Status => format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"status\"}}"),
            Request::Jobs => format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"jobs\"}}"),
            Request::Ping => format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"ping\"}}"),
            Request::Shutdown => format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"shutdown\"}}"),
        }
    }
}

/// Format an `f64` for the wire: shortest-roundtrip decimal, or `null`
/// for non-finite values (JSON has no NaN/Inf). The client maps `null`
/// back to NaN.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn f64_array(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(fmt_f64).collect();
    format!("[{}]", items.join(","))
}

fn str_array<'a>(items: impl Iterator<Item = &'a str>) -> String {
    let items: Vec<String> = items.map(|s| format!("\"{}\"", escape_json(s))).collect();
    format!("[{}]", items.join(","))
}

fn u64_array(values: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
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
        if !self.ok {
            return format!(
                "{{\"stream\":\"result\",\"job\":{},\"ok\":false,\"error\":\"{}\"}}",
                self.job,
                escape_json(self.error.as_deref().unwrap_or("failed"))
            );
        }
        format!(
            "{{\"stream\":\"result\",\"job\":{},\"ok\":true,\"wall_s\":{},\"events\":{},\
             \"metric_names\":{},\"metric_values\":{},\
             \"counter_names\":{},\"counter_values\":{},\
             \"pathloss_evals\":{},\"link_cache_hits\":{},\"link_budgets\":{},\
             \"prefix_reused\":{},\"warm_import\":{}}}",
            self.job,
            fmt_f64(self.wall_s),
            self.events,
            str_array(self.metrics.iter().map(|(k, _)| k.as_str())),
            f64_array(self.metrics.iter().map(|(_, v)| *v)),
            str_array(self.counters.iter().map(|(k, _)| k.as_str())),
            u64_array(self.counters.iter().map(|(_, v)| *v)),
            self.pathloss_evals,
            self.link_cache_hits,
            self.link_budgets,
            self.prefix_reused,
            self.warm_import,
        )
    }

    /// Parse a `result` stream line back (client side).
    pub fn from_pairs(pairs: &[(String, JsonValue)]) -> Result<JobResult, String> {
        let job = get(pairs, "job")
            .and_then(JsonValue::as_u64)
            .ok_or("result missing job id")?;
        let ok = matches!(get(pairs, "ok"), Some(JsonValue::Bool(true)));
        if !ok {
            let error = get(pairs, "error")
                .and_then(JsonValue::as_str)
                .unwrap_or("failed")
                .to_string();
            return Ok(JobResult::failure(job, error));
        }
        let names = |key: &str| -> Result<Vec<String>, String> {
            match get(pairs, key) {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("non-string in {key}"))
                    })
                    .collect(),
                _ => Err(format!("result missing {key}")),
            }
        };
        let metric_names = names("metric_names")?;
        let counter_names = names("counter_names")?;
        let metric_values: Vec<f64> = match get(pairs, "metric_values") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Null => f64::NAN,
                    other => other.as_f64().unwrap_or(f64::NAN),
                })
                .collect(),
            _ => return Err("result missing metric_values".into()),
        };
        let counter_values: Vec<u64> = match get(pairs, "counter_values") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| v.as_u64().ok_or("non-integer counter value"))
                .collect::<Result<_, _>>()?,
            _ => return Err("result missing counter_values".into()),
        };
        if metric_names.len() != metric_values.len() || counter_names.len() != counter_values.len()
        {
            return Err("mismatched name/value array lengths".into());
        }
        let u64_field = |key: &str| get(pairs, key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(JobResult {
            job,
            ok,
            error: None,
            wall_s: get(pairs, "wall_s")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            events: u64_field("events"),
            metrics: metric_names.into_iter().zip(metric_values).collect(),
            counters: counter_names.into_iter().zip(counter_values).collect(),
            pathloss_evals: u64_field("pathloss_evals"),
            link_cache_hits: u64_field("link_cache_hits"),
            link_budgets: u64_field("link_budgets"),
            prefix_reused: matches!(get(pairs, "prefix_reused"), Some(JsonValue::Bool(true))),
            warm_import: matches!(get(pairs, "warm_import"), Some(JsonValue::Bool(true))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pairs = parse_object(&jr.to_line()).expect("result line parses");
        let back = JobResult::from_pairs(&pairs).unwrap();
        assert_eq!(back.job, jr.job);
        assert_eq!(back.metrics[0].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(back.metrics[1].1.is_nan());
        assert_eq!(back.counters, jr.counters);
        assert!(back.prefix_reused && !back.warm_import);
    }

    #[test]
    fn failure_lines_carry_the_reason() {
        let jr = JobResult::failure(3, "cancelled");
        let pairs = parse_object(&jr.to_line()).unwrap();
        let back = JobResult::from_pairs(&pairs).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("cancelled"));
    }
}
