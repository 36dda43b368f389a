//! `wmn-trace` — query a JSONL telemetry trace or a ShardProfile artifact.
//!
//! ```text
//! wmn-trace summary <trace.jsonl> [--verify <manifest.json>]
//! wmn-trace drops <trace.jsonl> [--by-reason] [--by-node]
//! wmn-trace timeline <trace.jsonl> --node N [--limit K]
//! wmn-trace convergence <trace.jsonl> [--bin-s S]
//! wmn-trace profile <profile.json> [--prometheus]
//! wmn-trace diff a.jsonl b.jsonl [--ignore f1,f2]
//! wmn-trace ckpt <checkpoint-dir | file.wmnckpt>
//! wmn-trace jobs <socket> [--json]
//! ```
//!
//! Traces are what `wmn-sim --trace-out` writes (either model); profiles
//! are what `wmn-sim --parmesh --profile-out` writes. Every command names
//! its artefact; none is looked up by default. `summary --verify`
//! cross-checks the trace's event totals against the counter registry a
//! run manifest recorded; any mismatch is a non-zero exit (the invariant
//! is exact because instrumentation emits each event adjacent to its
//! counter increment; merged multi-region traces of one run never
//! double-count). Unknown flags are an error (exit 2), never ignored.

use cnlr::cli::{self, Argv};
use std::collections::BTreeMap;
use wmn_telemetry::{
    counter_for_ctrl_drop, counter_for_drop, counter_for_event, profile_to_prometheus, EventKind,
    LogHistogram, RunManifest, ShardProfile, TelemetryEvent,
};

const BIN: &str = "wmn-trace";

const USAGE: &str = "\
usage: wmn-trace <summary|drops|timeline|convergence|profile|diff|ckpt|jobs> <path> [options]

summary      event totals per kind   [--verify <manifest.json>]
drops        discard breakdown       [--by-reason] [--by-node]
timeline     one node's event log    --node N [--limit K]
convergence  per-bin data counts     [--bin-s S]
             (these four read a wmn-sim --trace-out JSONL trace)
profile      engine profile report   [--prometheus]
             reads a wmn-sim --profile-out JSON artefact
diff         first divergence between two traces
             wmn-trace diff a.jsonl b.jsonl [--ignore f1,f2]
ckpt         list checkpoints in a dir (or inspect one file):
             epoch, committed horizon, regions, events, size,
             checksum status, manifest lineage; corrupt files
             are reported and exit non-zero
jobs         query a wmn-served daemon's queue:
             wmn-trace jobs <socket> [--json]
             queue depth, running/queued/cancelled counts,
             dedup economics and a per-job status table";

struct Args {
    command: String,
    path: std::path::PathBuf,
    path2: Option<std::path::PathBuf>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags each command accepts, as `(name, takes_value)`. The parser
/// rejects anything else: a silently ignored flag (or a `--verify` with a
/// missing path) would report success without doing the requested check.
fn known_flags(command: &str) -> Result<&'static [(&'static str, bool)], String> {
    Ok(match command {
        "summary" => &[("verify", true)],
        "drops" => &[("by-reason", false), ("by-node", false)],
        "timeline" => &[("node", true), ("limit", true)],
        "convergence" => &[("bin-s", true)],
        "profile" => &[("prometheus", false)],
        "diff" => &[("ignore", true)],
        "ckpt" => &[],
        "jobs" => &[("json", false)],
        "--help" | "-h" => cli::help(USAGE),
        other => return Err(format!("unknown command '{other}'")),
    })
}

impl Args {
    fn parse(mut argv: Argv) -> Result<Self, String> {
        let command = argv.next_arg().ok_or("missing command")?;
        let known = known_flags(&command)?;
        let mut path: Option<std::path::PathBuf> = None;
        let mut path2: Option<std::path::PathBuf> = None;
        let mut flags = Vec::new();
        while let Some(a) = argv.next_arg() {
            if let Some(name) = a.strip_prefix("--") {
                let Some(&(_, takes_value)) = known.iter().find(|(n, _)| *n == name) else {
                    return Err(format!("unknown flag {a} for `{command}`"));
                };
                let value = takes_value.then(|| argv.value(&a)).transpose()?;
                flags.push((name.to_string(), value));
            } else if path.is_none() {
                path = Some(a.into());
            } else if path2.is_none() {
                path2 = Some(a.into());
            } else {
                return Err(format!("unexpected argument '{a}'"));
            }
        }
        let path = path.ok_or_else(|| format!("`{command}` needs a path"))?;
        Ok(Args {
            command,
            path,
            path2,
            flags,
        })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `--name` parsed as `T`, if given (exit 2 on a bad value).
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name).map(|v| {
            cli::parse(&format!("--{name}"), v).unwrap_or_else(|e| cli::usage_error(BIN, &e))
        })
    }
}

fn parse_events(text: &str) -> Vec<TelemetryEvent> {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match TelemetryEvent::from_jsonl(line) {
            Some(ev) => events.push(ev),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("note: skipped {skipped} unparseable line(s)");
    }
    events
}

/// The text of an artefact the command cannot do without (exit 1 if unreadable).
fn read(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(1);
    })
}

fn summary(events: &[TelemetryEvent], args: &Args) {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut nodes = std::collections::BTreeSet::new();
    let mut runs = std::collections::BTreeSet::new();
    let mut t_max = 0u64;
    for ev in events {
        *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        nodes.insert(ev.node);
        runs.insert(ev.run);
        t_max = t_max.max(ev.t_ns);
    }
    println!(
        "{} events | {} runs | {} nodes | span {:.3} s",
        events.len(),
        runs.len(),
        nodes.len(),
        t_max as f64 / 1e9
    );
    println!("\n| kind | count |\n|---|---|");
    for (kind, count) in &by_kind {
        println!("| {kind} | {count} |");
    }
    if let Some(manifest) = args.value("verify") {
        verify(events, &by_kind, std::path::Path::new(manifest));
    }
}

/// Cross-check event totals against the counter registry in a manifest.
/// Counters the manifest does not record are treated as 0 (e.g.
/// `drop_retry_limit`, which by design is never emitted for data).
fn verify(
    events: &[TelemetryEvent],
    by_kind: &BTreeMap<&'static str, u64>,
    manifest: &std::path::Path,
) {
    let Some(RunManifest { counters, .. }) = RunManifest::from_json(&read(manifest)) else {
        eprintln!("error: {} is not a run manifest", manifest.display());
        std::process::exit(1);
    };
    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut check = |counter_name: &str, traced: u64| {
        let expect = counters.get(counter_name);
        checked += 1;
        if traced != expect {
            failed += 1;
            println!("FAIL {counter_name}: trace has {traced}, manifest has {expect}");
        }
    };
    // Every counter-mapped kind, so one that never reached the trace still
    // fails against a nonzero manifest counter.
    for kind in EventKind::NAMES {
        if let Some(name) = counter_for_event(kind) {
            check(name, by_kind.get(kind).copied().unwrap_or(0));
        }
    }
    // data_drop and ctrl_drop map per reason, not per kind.
    let mut by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ctrl_by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::DataDrop { reason, .. } => {
                *by_reason.entry(counter_for_drop(reason)).or_insert(0) += 1;
            }
            EventKind::CtrlDrop { reason } => {
                if let Some(name) = counter_for_ctrl_drop(reason) {
                    *ctrl_by_reason.entry(name).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
    for r in wmn_telemetry::DropReason::ALL {
        check(
            counter_for_drop(r),
            by_reason.get(counter_for_drop(r)).copied().unwrap_or(0),
        );
        if let Some(name) = counter_for_ctrl_drop(r) {
            check(name, ctrl_by_reason.get(name).copied().unwrap_or(0));
        }
    }
    if failed == 0 {
        println!(
            "\nverify OK: {checked} counters match {}",
            manifest.display()
        );
    } else {
        println!("\nverify FAILED: {failed}/{checked} counters mismatch");
        std::process::exit(1);
    }
}

fn drops(events: &[TelemetryEvent], args: &Args) {
    let by_reason_only = args.flag("by-reason") && !args.flag("by-node");
    let by_node_only = args.flag("by-node") && !args.flag("by-reason");
    let mut by_reason: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_node: BTreeMap<u32, u64> = BTreeMap::new();
    let mut data = 0u64;
    let mut ctrl = 0u64;
    for ev in events {
        // Control-frame drops get a `ctrl_` prefix so the table keeps data
        // and control losses apart even when the underlying reason matches.
        let reason = match ev.kind {
            EventKind::DataDrop { reason, .. } => {
                data += 1;
                reason.name().to_string()
            }
            EventKind::CtrlDrop { reason } => {
                ctrl += 1;
                format!("ctrl_{}", reason.name())
            }
            _ => continue,
        };
        *by_reason.entry(reason).or_insert(0) += 1;
        *by_node.entry(ev.node).or_insert(0) += 1;
    }
    println!("{} drops ({data} data, {ctrl} control)", data + ctrl);
    if !by_node_only {
        println!("\n| reason | count |\n|---|---|");
        for (reason, count) in &by_reason {
            println!("| {reason} | {count} |");
        }
    }
    if !by_reason_only {
        println!("\n| node | count |\n|---|---|");
        for (node, count) in &by_node {
            println!("| {node} | {count} |");
        }
    }
}

fn timeline(events: &[TelemetryEvent], args: &Args) {
    let Some(node) = args.parsed::<u32>("node") else {
        cli::usage_error(BIN, "timeline requires --node N");
    };
    let limit = args.parsed("limit").unwrap_or(usize::MAX);
    let total = events.iter().filter(|ev| ev.node == node).count();
    for (printed, ev) in events.iter().filter(|ev| ev.node == node).enumerate() {
        if printed >= limit {
            println!("... {} more (raise --limit)", total - printed);
            break;
        }
        println!("{ev}");
    }
    if total == 0 {
        println!("no events for node {node}");
    }
}

/// Most rows `convergence` prints: a million one-second bins is eleven days
/// of simulated time.
const MAX_BINS: u64 = 1_000_000;

fn convergence(events: &[TelemetryEvent], args: &Args) {
    let bin_s: f64 = args.parsed("bin-s").unwrap_or(1.0);
    // At least one nanosecond per bin: the bin index divides by it.
    if !(bin_s >= 1e-9 && bin_s.is_finite()) {
        cli::usage_error(BIN, "--bin-s must be positive");
    }
    let bin_ns = (bin_s * 1e9) as u64;
    #[derive(Default, Clone)]
    struct Bin {
        originated: u64,
        delivered: u64,
        dropped: u64,
        rreq: u64,
    }
    let counted = |ev: &&TelemetryEvent| {
        matches!(
            ev.kind,
            EventKind::DataOriginate { .. }
                | EventKind::DataDeliver { .. }
                | EventKind::DataDrop { .. }
                | EventKind::RreqOriginate { .. }
                | EventKind::RreqForward { .. }
        )
    };
    // One row per bin up to the last counted event. A trace may hold any
    // `t` up to u64::MAX, so the row count is bounded before anything is
    // allocated.
    let rows = match events.iter().filter(counted).map(|ev| ev.t_ns).max() {
        None => 0,
        Some(t) => match (t / bin_ns).checked_add(1) {
            Some(rows) if rows <= MAX_BINS => rows as usize,
            _ => {
                eprintln!(
                    "error: an event at t = {t} ns needs more than {MAX_BINS} bins of {bin_s} s; \
                     raise --bin-s"
                );
                std::process::exit(1);
            }
        },
    };
    let mut bins = vec![Bin::default(); rows];
    let mut first_delivery: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events.iter().filter(counted) {
        let i = (ev.t_ns / bin_ns) as usize;
        match ev.kind {
            EventKind::DataOriginate { .. } => bins[i].originated += 1,
            EventKind::DataDeliver { flow, .. } => {
                first_delivery.entry(flow).or_insert(ev.t_ns);
                bins[i].delivered += 1;
            }
            EventKind::DataDrop { .. } => bins[i].dropped += 1,
            EventKind::RreqOriginate { .. } | EventKind::RreqForward { .. } => bins[i].rreq += 1,
            _ => {}
        }
    }
    println!("| t_s | originated | delivered | dropped | rreq_tx |\n|---|---|---|---|---|");
    for (i, b) in bins.iter().enumerate() {
        println!(
            "| {:.1} | {} | {} | {} | {} |",
            i as f64 * bin_s,
            b.originated,
            b.delivered,
            b.dropped,
            b.rreq
        );
    }
    if !first_delivery.is_empty() {
        println!("\nfirst delivery per flow:");
        for (flow, t) in &first_delivery {
            println!("  flow {flow}: {:.3} s", *t as f64 / 1e9);
        }
    }
}

/// Render a profile's pre-bucketed log histogram with `#` bars.
fn log_histogram(label: &str, unit: &str, h: &LogHistogram) {
    if h.count() == 0 {
        println!("{label}: no samples");
        return;
    }
    println!(
        "{label}: {} samples, mean {:.1} {unit}, p50 {} {unit}, p99 {} {unit}, max {} {unit}",
        h.count(),
        h.mean(),
        h.quantile(0.5),
        h.quantile(0.99),
        h.max()
    );
    let widest = h.nonzero_buckets().map(|(_, _, c)| c).max().unwrap_or(1) as usize;
    for (lo, hi, count) in h.nonzero_buckets() {
        let bar = "#".repeat(((count as usize) * 40).div_ceil(widest));
        println!("  [{lo:>12}, {hi:>12}) {count:>6} {bar}");
    }
}

/// The `wmn-trace profile` report over a `--profile-out` artifact:
/// run totals, per-region utilisation table, top stall sources, and the
/// three engine histograms.
fn shard_profile_report(p: &ShardProfile) {
    println!(
        "shard profile ({}) | {} regions | {} threads | host cores {}",
        p.schema, p.regions, p.threads, p.host.host_cores
    );
    let wall_s = p.wall_ns as f64 / 1e9;
    println!(
        "{} events in {} epochs | {:.3} s wall | {:.0} ev/s | merge share {:.1}%",
        p.events,
        p.epochs,
        wall_s,
        p.events as f64 / wall_s.max(1e-9),
        100.0 * p.merge_ns as f64 / p.wall_ns.max(1) as f64
    );
    println!(
        "cross-region events     : {} ({:.2}% of total)",
        p.cross_region,
        100.0 * p.cross_region as f64 / p.events.max(1) as f64
    );
    println!("load-imbalance factor   : {:.3}", p.imbalance_factor());
    println!(
        "barrier-wait share      : {:.3} (mean over regions)",
        p.barrier_wait_share()
    );
    if p.steal_epochs > 0 {
        println!(
            "work stealing           : {:.1} regions moved/epoch over {} epochs",
            p.regions_moved_per_epoch(),
            p.steal_epochs
        );
        println!(
            "post-steal imbalance    : {:.3} (ideal 1.0 = perfectly packed)",
            p.post_steal_imbalance()
        );
    } else {
        println!("work stealing           : off (static region assignment)");
    }
    if p.host.peak_rss_bytes > 0 {
        println!(
            "peak RSS                : {:.1} MiB",
            p.host.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
    }

    println!("\n| region | events | share | busy ms | wait ms | util | outbox | stalled | bound others | max queue |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in &p.per_region {
        println!(
            "| {} | {} | {:.1}% | {:.2} | {:.2} | {:.3} | {} | {} | {} | {} |",
            r.region,
            r.events,
            100.0 * r.events as f64 / p.events.max(1) as f64,
            r.busy_ns as f64 / 1e6,
            r.wait_ns as f64 / 1e6,
            r.utilisation(),
            r.outbox,
            r.stalled_windows,
            r.bound_others,
            r.max_queue
        );
    }

    let top = p.top_stall_sources(3);
    if top.is_empty() {
        println!("\ntop stall sources: none (no bounded windows)");
    } else {
        println!("\ntop stall sources (whose horizon bound the barrier):");
        // One window per region per epoch, so a single region can bound up
        // to `regions` windows each epoch — normalise by total windows.
        let windows = (p.epochs * p.regions).max(1);
        for (i, (region, bound)) in top.iter().enumerate() {
            println!(
                "  {}. region {region} bound others in {bound} window(s) ({:.1}% of windows)",
                i + 1,
                100.0 * *bound as f64 / windows as f64
            );
        }
    }

    println!();
    log_histogram("event service time", "ns", &p.service_ns);
    println!();
    log_histogram("queue depth at epoch boundaries", "events", &p.queue_depth);
    println!();
    log_histogram("bounded epoch width", "ns", &p.epoch_width_ns);
}

/// `wmn-trace profile`: report on (or export) a ShardProfile artefact.
fn profile_cmd(args: &Args) {
    // A profile cut short, of another schema or a trace ends here.
    let Some(p) = ShardProfile::from_json(&read(&args.path)) else {
        eprintln!(
            "error: {} is not a {} artefact (write one with wmn-sim --profile-out)",
            args.path.display(),
            wmn_telemetry::profile::PROFILE_SCHEMA
        );
        std::process::exit(1);
    };
    if args.flag("prometheus") {
        print!("{}", profile_to_prometheus(&p));
    } else {
        shard_profile_report(&p);
    }
}

/// `wmn-trace diff a.jsonl b.jsonl [--ignore f1,f2]`: localise the first
/// event where two traces disagree. Exit 0 when identical (modulo ignored
/// fields), 1 at the first divergence.
fn diff(args: &Args) {
    let Some(path_b) = args.path2.as_deref() else {
        cli::usage_error(BIN, "diff requires two trace paths");
    };
    let read_lines = |path: &std::path::Path| -> Vec<String> {
        let lines = read(path);
        let kept = lines.lines().filter(|l| !l.trim().is_empty());
        kept.map(str::to_string).collect()
    };
    let a = read_lines(&args.path);
    let b = read_lines(path_b);
    let ignore: Vec<String> = args
        .value("ignore")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    match wmn_telemetry::first_divergence(&a, &b, &ignore) {
        None => {
            println!(
                "traces identical: {} events ({} vs {})",
                a.len(),
                args.path.display(),
                path_b.display()
            );
        }
        Some(d) => {
            let t = |ns: Option<u64>| match ns {
                Some(ns) => format!("{:.6}s", ns as f64 / 1e9),
                None => "-".to_string(),
            };
            println!(
                "traces diverge at event {} (t {} vs {})",
                d.index,
                t(d.t_left),
                t(d.t_right)
            );
            match (&d.left, &d.right) {
                (Some(l), Some(r)) => {
                    println!("  a: {l}");
                    println!("  b: {r}");
                    for f in &d.fields {
                        println!("  field {}: {} != {}", f.field, f.left, f.right);
                    }
                }
                (Some(l), None) => {
                    println!("  a: {l}");
                    println!("  b: <trace ended at {} events>", b.len());
                }
                (None, Some(r)) => {
                    println!("  a: <trace ended at {} events>", a.len());
                    println!("  b: {r}");
                }
                (None, None) => unreachable!("divergence with no sides"),
            }
            std::process::exit(1);
        }
    }
}

/// `wmn-trace ckpt <dir|file>`: audit checkpoints without loading them.
/// A directory lists every `.wmnckpt` inside (epoch order, stray names
/// last); a single file is inspected alone. Each row shows the epoch,
/// committed horizon, region/event counts, file size and integrity
/// verdict; the run manifest's lineage (if the directory holds one) is
/// echoed afterwards. Any unreadable or corrupt checkpoint exits 1 so CI
/// can gate on the listing itself.
fn ckpt_cmd(args: &Args) {
    use wmn_sim::checkpoint;

    let entries: Vec<(Option<u64>, std::path::PathBuf)> = if args.path.is_dir() {
        match checkpoint::list_dir(&args.path) {
            Ok(list) => list,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        vec![(None, args.path.clone())]
    };
    if entries.is_empty() {
        println!("no checkpoints in {}", args.path.display());
        return;
    }

    println!(
        "{:>8}  {:>12}  {:>7}  {:>10}  {:>10}  status",
        "epoch", "horizon_s", "regions", "events", "bytes"
    );
    let mut bad = 0usize;
    for (_, path) in &entries {
        let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let verdict = checkpoint::read_file(path).and_then(|bytes| checkpoint::inspect(&bytes));
        match verdict {
            Ok(meta) => {
                println!(
                    "{:>8}  {:>12.3}  {:>7}  {:>10}  {:>10}  ok  {}",
                    meta.epoch,
                    meta.committed_ns as f64 / 1e9,
                    meta.regions,
                    meta.events,
                    size,
                    path.file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| path.display().to_string()),
                );
            }
            Err(e) => {
                bad += 1;
                println!(
                    "{:>8}  {:>12}  {:>7}  {:>10}  {:>10}  CORRUPT  {}",
                    "-",
                    "-",
                    "-",
                    "-",
                    size,
                    path.display()
                );
                eprintln!("error: {}: {e}", path.display());
            }
        }
    }

    // Lineage comes from the run manifest wmn-sim drops next to its
    // checkpoints; absent for bare files or dirs written by other tools.
    let manifest = if args.path.is_dir() {
        args.path.join("run_manifest.json")
    } else {
        args.path.with_file_name("run_manifest.json")
    };
    let text = std::fs::read_to_string(&manifest).ok();
    match text.as_deref().map(RunManifest::from_json) {
        Some(Some(run)) if !run.lineage.is_empty() => {
            println!("\nlineage ({}):", manifest.display());
            for entry in &run.lineage {
                println!("  - {entry}");
            }
        }
        Some(None) => eprintln!("warning: {} is not a run manifest", manifest.display()),
        _ => {}
    }

    if bad > 0 {
        eprintln!("{bad} corrupt checkpoint(s)");
        std::process::exit(1);
    }
}

/// `wmn-trace jobs <socket> [--json]`: query a running `wmn-served`
/// daemon over its admin protocol. Prints queue depth, lifecycle counts,
/// the batch-dedup economics (prefix builds/hits, warm cache traffic) and
/// a per-job status table; `--json` passes the daemon's raw one-line
/// `status` and `jobs` responses through for scripting.
fn jobs_cmd(args: &Args) {
    let mut client = wmn_served::Client::connect(&args.path).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", args.path.display());
        std::process::exit(1);
    });
    let fail = |e: wmn_served::ClientError| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let status = client.status().unwrap_or_else(|e| fail(e));
    let jobs = client.jobs().unwrap_or_else(|e| fail(e));
    if args.flag("json") {
        // The typed lines re-serialise to the daemon's own bytes.
        println!("{}\n{}", status.to_line(), jobs.to_line());
        return;
    }
    let jobs = jobs.0;
    println!(
        "daemon at {} | {} worker(s), queue {}/{}{}",
        args.path.display(),
        status.workers,
        status.queued,
        status.capacity,
        if status.draining { " | DRAINING" } else { "" }
    );
    println!(
        "jobs: {} submitted | {} running | {} queued | {} done | {} cancelled | {} failed | {} refused busy",
        status.stats.submitted,
        status.running,
        status.queued,
        status.stats.done,
        status.stats.cancelled,
        status.stats.failed,
        status.stats.rejected_busy
    );
    println!(
        "dedup: {} prefix build(s), {} prefix hit(s) | warm cache: {} export(s), {} import(s)",
        status.stats.prefix_builds,
        status.stats.prefix_hits,
        status.stats.warm_exports,
        status.stats.warm_imports
    );
    if jobs.is_empty() {
        println!("\nno jobs on record");
        return;
    }
    println!("\n| job | state | scheme | seed | priority |\n|---|---|---|---|---|");
    for j in &jobs {
        println!(
            "| {} | {} | {} | {} | {} |",
            j.id, j.state, j.scheme, j.seed, j.priority
        );
    }
}

fn main() {
    let args = Args::parse(Argv::from_env()).unwrap_or_else(|e| cli::usage_error(BIN, &e));
    match args.command.as_str() {
        "diff" => return diff(&args),
        "profile" => return profile_cmd(&args),
        "ckpt" => return ckpt_cmd(&args),
        "jobs" => return jobs_cmd(&args),
        _ => {}
    }
    let events = parse_events(&read(&args.path));
    match args.command.as_str() {
        "summary" => summary(&events, &args),
        "drops" => drops(&events, &args),
        "timeline" => timeline(&events, &args),
        "convergence" => convergence(&events, &args),
        other => unreachable!("`{other}` passed known_flags"),
    }
}
