//! Hostile and broken clients against an in-process daemon: whatever one
//! connection does, it gets a one-line `{"ok":false,…}` where the protocol
//! allows a reply, and the daemon keeps serving everyone else. Every wait
//! sits under a watchdog, so a regression shows up as a failed test, not a
//! hung suite.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use wmn_served::{Client, ScenarioSpec, Server, ServerConfig};

const WATCHDOG: Duration = Duration::from_secs(60);

fn start(tag: &str) -> (Server, PathBuf) {
    start_with(tag, 2)
}

fn start_with(tag: &str, workers: usize) -> (Server, PathBuf) {
    let path =
        std::env::temp_dir().join(format!("wmn_served_adv_{tag}_{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        socket: path.clone(),
        workers,
        queue_cap: 8,
    })
    .expect("daemon starts");
    (server, path)
}

fn tiny(duration_s: f64) -> ScenarioSpec {
    ScenarioSpec {
        grid_rows: 4,
        grid_cols: 4,
        flows: 2,
        pps: 2.0,
        payload: 256,
        duration_s,
        warmup_s: 2.0,
        ..ScenarioSpec::default()
    }
}

/// Run `f` on its own thread; panic if it has not finished in time.
fn watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("watchdog: {what} did not finish"))
}

/// Write `bytes` on a fresh connection and return the daemon's first reply
/// line, or `None` if it hung up (or stayed silent) without one. The write
/// runs on its own thread: a daemon that stops reading must not block the
/// test, and one that hangs up mid-write hands the writer an EPIPE.
fn raw_exchange(path: &Path, bytes: Vec<u8>) -> Option<String> {
    let stream = UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let writing = std::thread::spawn(move || {
        let _ = writer.write_all(&bytes);
        writer
    });
    let mut line = String::new();
    let got = BufReader::new(&stream).read_line(&mut line);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    drop(writing.join());
    matches!(got, Ok(n) if n > 0).then(|| line.trim().to_string())
}

/// The daemon answers a fresh client and still runs jobs.
fn assert_still_serving(path: &Path, after: &str) {
    let path = path.to_path_buf();
    let result = watchdog(after, move || {
        let mut client = Client::connect(&path).expect("connect");
        client.ping().expect("ping");
        (client.run_retrying(&tiny(4.0), 0, false, Duration::ZERO, |_| {})).expect("small run")
    });
    assert!(result.ok, "after {after}: {:?}", result.error);
}

fn assert_refused(reply: Option<String>, needle: &str) {
    let reply = reply.unwrap_or_else(|| panic!("no reply where `{needle}` was expected"));
    assert!(
        reply.starts_with("{\"ok\":false,") && reply.contains(needle),
        "expected a refusal mentioning `{needle}`, got {reply}"
    );
}

#[test]
fn a_never_terminated_line_is_refused_at_the_cap_not_buffered() {
    let (server, path) = start("longline");
    assert_refused(raw_exchange(&path, vec![b'a'; 1 << 20]), "line too long");
    assert_still_serving(&path, "a 1 MiB unterminated line");
    // The cap is about the line, not the connection: a long-lived client
    // may send any number of ordinary lines.
    let mut client = Client::connect(&path).expect("connect");
    for _ in 0..2000 {
        client.ping().expect("ping");
    }
    server.join();
}

#[test]
fn bytes_that_are_not_utf8_get_an_answer() {
    let (server, path) = start("utf8");
    let reply = raw_exchange(
        &path,
        b"{\"v\":1,\"op\":\"ping\",\"x\":\"\xff\xfe\"}\n".to_vec(),
    );
    assert_refused(reply, "not valid UTF-8");
    assert_still_serving(&path, "a non-UTF-8 line");
    server.join();
}

#[test]
fn a_line_nested_60_000_deep_is_refused_not_recursed_into() {
    let (server, path) = start("nested");
    // 60 023 bytes, under the request-line cap: the parser used to recurse
    // once per bracket and overflow the connection thread's stack, which
    // aborts the process and every job in it.
    let mut line = b"{\"v\":1,\"op\":\"ping\",\"a\":".to_vec();
    line.extend(std::iter::repeat_n(b'[', 60_000));
    assert_eq!(line.len(), 60_023);
    line.push(b'\n');
    let stream = UnixStream::connect(&path).expect("connect");
    (&stream).write_all(&line).expect("send");
    // The same connection goes on: first the refusal, then a pong.
    (&stream)
        .write_all(b"{\"v\":1,\"op\":\"ping\"}\n")
        .expect("send");
    let mut lines = BufReader::new(&stream).lines();
    assert_refused(lines.next().and_then(Result::ok), "malformed request");
    assert_eq!(
        lines.next().and_then(Result::ok).as_deref(),
        Some("{\"ok\":true,\"pong\":1}")
    );
    assert_still_serving(&path, "the deeply nested line");
    server.join();
}

#[test]
fn a_scheme_parameter_out_of_range_is_refused_at_the_door() {
    // One worker: a job that took it down (`gossip:nan` used to pass
    // validation and panic in the policy's constructor) would leave the
    // follow-up job queued for ever.
    let (server, path) = start_with("nan", 1);
    let line =
        "{\"v\":1,\"op\":\"run\",\"scheme\":\"gossip:nan\",\"duration_s\":5,\"warmup_s\":1}\n";
    assert_refused(raw_exchange(&path, line.into()), "gossip p must be in");
    assert_still_serving(&path, "the NaN gossip probability");
    let stats = server.join();
    assert_eq!((stats.submitted, stats.done, stats.failed), (1, 1, 0));
}

#[test]
fn a_node_count_that_overflows_is_a_refusal_not_a_dead_handler() {
    let (server, path) = start("overflow");
    let line = "{\"v\":1,\"op\":\"run\",\"grid_rows\":9223372036854775809,\"grid_cols\":2,\
                \"duration_s\":5,\"warmup_s\":1}\n";
    assert_refused(raw_exchange(&path, line.into()), "more than 10000 nodes");
    assert_still_serving(&path, "the overflowing spec");
    let stats = server.join();
    assert_eq!(stats.submitted, 1, "only the follow-up job was accepted");
}

#[test]
fn a_client_that_vanishes_mid_stream_costs_a_cancelled_job_only() {
    let (server, path) = start("vanish");
    let job = {
        let mut client = Client::connect(&path).expect("connect");
        // Streamed, and far longer than the test: only a cancel ends it.
        client.submit(&tiny(100_000.0), 0, true).expect("ack")
    }; // Dropped: the daemon's next probe write fails.
    assert_still_serving(&path, "a mid-stream disconnect");
    let listing = path.clone();
    watchdog("the abandoned job's cancellation", move || {
        let mut client = Client::connect(&listing).expect("connect");
        let deadline = Instant::now() + WATCHDOG;
        loop {
            let jobs = client.jobs().expect("jobs").0;
            let state = &jobs.iter().find(|j| j.id == job).expect("listed").state;
            if state == "cancelled" {
                return;
            }
            assert!(Instant::now() < deadline, "job {job} still {state}");
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    let stats = server.join();
    assert_eq!((stats.cancelled, stats.failed), (1, 0));
}

#[test]
fn cancelling_twice_or_cancelling_nothing_is_answered_both_times() {
    let (server, path) = start("dupcancel");
    let mut submitter = Client::connect(&path).expect("connect");
    let job = submitter.submit(&tiny(100_000.0), 0, false).expect("ack");
    let (admin_path, id) = (path.clone(), job);
    let outcomes = watchdog("two cancels", move || {
        let mut admin = Client::connect(&admin_path).expect("connect");
        let first = admin.cancel(id).expect("first cancel");
        let second = admin.cancel(id).expect("second cancel");
        let unknown = admin.cancel(id + 1000).map_err(|e| e.to_string());
        (first, second, unknown)
    });
    assert!(
        ["cancelled", "cancelling"].contains(&outcomes.0.as_str()),
        "first cancel: {}",
        outcomes.0
    );
    assert!(
        ["cancelling", "finished"].contains(&outcomes.1.as_str()),
        "second cancel: {}",
        outcomes.1
    );
    assert_eq!(
        outcomes.2,
        Err(format!("rejected: unknown job {}", job + 1000))
    );
    let result = watchdog("the cancelled job's terminal line", move || {
        submitter.wait(job, |_| {}).expect("terminal line")
    });
    assert_eq!(result.error.as_deref(), Some("cancelled"));
    assert_still_serving(&path, "duplicate cancels");
    let stats = server.join();
    assert_eq!(stats.cancelled, 1, "one job, cancelled once");
}

mod request_lines {
    use proptest::prelude::*;
    use wmn_served::{Request, ScenarioSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Whatever bytes arrive on the socket, `Request::parse` — fed the
        /// line as lossy UTF-8 — answers `Err`, it does not panic.
        #[test]
        fn arbitrary_bytes_are_an_error_not_a_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
        ) {
            let line = String::from_utf8_lossy(&bytes);
            prop_assert!(Request::parse(&line).is_err(), "accepted {line:?}");
        }

        /// A valid `run` line with one byte changed, or cut short, parses
        /// or is refused; the damage never reaches a panic.
        #[test]
        fn a_damaged_run_line_is_parsed_or_refused(
            at in any::<u16>(),
            to in any::<u8>(),
            cut in any::<bool>(),
        ) {
            let request = Request::Run {
                spec: ScenarioSpec { clients: 3, churn: Some((30.0, 10.0)), ..ScenarioSpec::default() },
                priority: -2,
                stream: true,
            };
            let mut bytes = request.to_line().into_bytes();
            let at = at as usize % bytes.len();
            if cut {
                bytes.truncate(at);
            } else {
                bytes[at] = to;
            }
            let _ = Request::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
