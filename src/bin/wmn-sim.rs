//! `wmn-sim` — command-line scenario runner.
//!
//! Runs a single mesh scenario and prints the full result record. Example:
//!
//! ```sh
//! wmn-sim --grid 8 --pitch 180 --scheme cnlr --flows 30 --pps 8 \
//!         --duration 60 --warmup 10 --seed 1
//! ```
//!
//! The scenario itself is a [`ScenarioSpec`] — the same description, flag
//! table and validation `wmn-submit` and the daemon use; this tool adds
//! only what is its own (scale presets, scripted crashes, console tracing,
//! the ParMesh engine's knobs). `--help` lists everything.

use std::sync::{Arc, Mutex};
use wmn::cnlr::cli::{self, parse, Argv};
use wmn::cnlr::ScenarioSpec;
use wmn::sim::{SimDuration, SimTime};
use wmn::telemetry::{ConsoleSink, EventSink, FileSink, RunManifest, SharedSink, TelemetryConfig};
use wmn::topology::{Placement, Region};
use wmn::ScenarioBuilder;

/// Parsed CLI options: the scenario, plus the flags only this tool has.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The scenario flags, validated (`--nodes` already folded into the
    /// grid).
    pub spec: ScenarioSpec,
    /// Large-scale preset: overrides `--grid` with ~N nodes at standard
    /// density (`grid` placement or `random`).
    pub nodes: Option<usize>,
    pub random_placement: bool,
    pub csv: bool,
    pub trace: bool,
    /// Run the shard-parallel ParMesh scale model instead of the classic
    /// full-MAC stack (requires `--nodes`).
    pub parmesh: bool,
    /// Worker threads for the sharded engine (ParMesh only).
    pub threads: usize,
    /// Fold telemetry into O(1)-memory per-region fingerprints instead of
    /// a trace (ParMesh only; the scale alternative to --trace-out).
    pub trace_hash: bool,
    /// Region-count override for the sharded engine (ParMesh only).
    pub regions: Option<usize>,
    /// Write the run's telemetry trace as JSONL to this path (either model).
    pub trace_out: Option<String>,
    /// Write the engine execution profile as JSON to this path (ParMesh only).
    pub profile_out: Option<String>,
    /// Scripted crashes: `(node, down_s, Some(up_s))` reboots, `None` stays down.
    pub fails: Vec<(u32, f64, Option<f64>)>,
    /// Write epoch-barrier checkpoints to this directory (ParMesh only).
    pub checkpoint_dir: Option<String>,
    /// Simulated seconds between checkpoints (requires `--checkpoint-dir`).
    pub checkpoint_every_s: Option<f64>,
    /// Resume from the newest checkpoint in `--checkpoint-dir`.
    pub resume: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            spec: ScenarioSpec::default(),
            nodes: None,
            random_placement: false,
            csv: false,
            trace: false,
            parmesh: false,
            threads: 1,
            trace_hash: false,
            regions: None,
            trace_out: None,
            profile_out: None,
            fails: Vec::new(),
            checkpoint_dir: None,
            checkpoint_every_s: None,
            resume: false,
        }
    }
}

/// The `--help` text: the shared scenario flags, then this tool's own.
fn help() -> String {
    format!(
        "\
wmn-sim — run one wireless-mesh scenario

SCENARIO (the flags wmn-submit takes too; defaults in brackets):
{}
THIS TOOL:
  --nodes N         large-scale preset: ~N routers at standard density
                    (overrides --grid/--pitch; up to 10000 for the classic
                    stack, 1000000 with --parmesh)
  --random          with --nodes: uniform-random placement instead of grid
  --fail N@T[:U]    crash node N at T s; reboot at U s if given (repeatable)
  --csv             emit one CSV line instead of the report
  --trace           print every telemetry event to stderr as it happens
  --trace-out PATH  write the run's JSONL telemetry trace to PATH (created
                    before the run; inspect it with wmn-trace)
  --parmesh         shard-parallel scale model (requires --nodes; results
                    are identical for any --threads value)
  --threads N       worker threads for the sharded engine [1]; more than
                    one packs regions onto workers from measured busy times
  --regions N       region-count override for the sharded engine; the
                    auto-tuner warns and grants the nearest geometry-legal
                    grid when a request cannot be honoured
  --trace-hash      fold telemetry into an O(1)-memory fingerprint and
                    print it (with --parmesh; the million-node alternative
                    to --trace-out, incompatible with --checkpoint-dir)
  --profile-out PATH  write the engine execution profile as JSON (with
                    --parmesh; inspect with `wmn-trace profile`)
  --checkpoint-dir DIR  write epoch-barrier checkpoints (with --parmesh;
                    inspect with `wmn-trace ckpt`); Ctrl-C checkpoints and
                    exits with code 130
  --checkpoint-every S  simulated seconds between checkpoints [1]
  --resume          continue from the newest checkpoint in --checkpoint-dir;
                    the finished run is byte-identical to an uninterrupted one
  --help            this text
",
        ScenarioSpec::flag_help()
    )
}

/// Parse a `--fail` spec: `N@T` (permanent) or `N@T:U` (reboot at `U`).
pub fn parse_fail(s: &str) -> Result<(u32, f64, Option<f64>), String> {
    let (node, times) = s.split_once('@').ok_or("--fail needs N@T[:U]")?;
    let node = parse("--fail", node)?;
    let (down, up) = match times.split_once(':') {
        Some((d, u)) => (d, Some(parse::<f64>("--fail", u)?)),
        None => (times, None),
    };
    let down: f64 = parse("--fail", down)?;
    let on_the_clock = |t: f64| t.is_finite() && t >= 0.0;
    if !(on_the_clock(down) && up.is_none_or(on_the_clock)) {
        return Err("--fail times must be finite and not negative".into());
    }
    if up.is_some_and(|u| u <= down) {
        return Err("--fail reboot time must be after the crash".into());
    }
    Ok((node, down, up))
}

/// What an argument vector parses to: a runnable scenario, or an explicit
/// help request (which exits 0 — asking for usage is not an error).
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    Run(Box<Options>),
    Help,
}

/// The scenario flags ParMesh reads; `--warmup` is only checked.
const PARMESH_SCENARIO_FLAGS: [&str; 5] = ["--seed", "--flows", "--duration", "--pps", "--warmup"];

/// Parse the command line. Unknown flags, missing values and out-of-range
/// scenarios are errors (exit 2 in `main`), never ignored and never left
/// for the simulator to trip over.
pub fn parse_args(mut argv: Argv) -> Result<Parsed, String> {
    let mut o = Options::default();
    let mut scenario_flags = Vec::new();
    while let Some(flag) = argv.next_arg() {
        if o.spec.set_flag(&flag, &mut argv)? {
            scenario_flags.push(flag);
            continue;
        }
        match flag.as_str() {
            "--nodes" => o.nodes = Some(argv.parsed("--nodes")?),
            "--random" => o.random_placement = true,
            "--fail" => o.fails.push(parse_fail(&argv.value("--fail")?)?),
            "--csv" => o.csv = true,
            "--trace" => o.trace = true,
            "--parmesh" => o.parmesh = true,
            "--threads" => o.threads = argv.parsed("--threads")?,
            "--trace-hash" => o.trace_hash = true,
            "--regions" => o.regions = Some(argv.parsed("--regions")?),
            "--trace-out" => o.trace_out = Some(argv.value("--trace-out")?),
            "--profile-out" => o.profile_out = Some(argv.value("--profile-out")?),
            "--checkpoint-dir" => o.checkpoint_dir = Some(argv.value("--checkpoint-dir")?),
            "--checkpoint-every" => o.checkpoint_every_s = Some(argv.parsed("--checkpoint-every")?),
            "--resume" => o.resume = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if let Some(n) = o.nodes {
        if n < 4 {
            return Err("--nodes must be ≥ 4".into());
        }
        let cap = if o.parmesh { 1_000_000 } else { 10_000 };
        if n > cap {
            return Err(format!("--nodes is supported up to {cap}"));
        }
        if !o.parmesh {
            // The scale preset: a near-square grid at the standard density
            // (`--random` swaps the placement in at build time).
            let side = (n as f64).sqrt().round() as usize;
            (o.spec.grid_rows, o.spec.grid_cols, o.spec.pitch_m) = (side, side, 180.0);
        }
    }
    if o.parmesh && o.nodes.is_none() {
        return Err("--parmesh requires --nodes".into());
    }
    let unread = (scenario_flags.iter()).find(|f| !PARMESH_SCENARIO_FLAGS.contains(&f.as_str()));
    if let (true, Some(flag)) = (o.parmesh, unread) {
        return Err(format!("{flag} does not apply with --parmesh"));
    }
    if o.threads < 1 {
        return Err("--threads must be ≥ 1".into());
    }
    if o.regions == Some(0) {
        return Err("--regions must be ≥ 1".into());
    }
    if !o.parmesh
        && (o.threads > 1
            || o.trace_hash
            || o.regions.is_some()
            || o.profile_out.is_some()
            || o.checkpoint_dir.is_some()
            || o.checkpoint_every_s.is_some()
            || o.resume)
    {
        return Err(
            "--threads/--trace-hash/--regions/--profile-out/--checkpoint-dir/\
             --checkpoint-every/--resume apply only with --parmesh"
                .into(),
        );
    }
    if o.trace && o.trace_out.is_some() {
        return Err("--trace prints the events --trace-out records; pick one".into());
    }
    if (o.checkpoint_every_s.is_some() || o.resume) && o.checkpoint_dir.is_none() {
        return Err("--checkpoint-every/--resume need --checkpoint-dir".into());
    }
    if o.trace_hash && o.checkpoint_dir.is_some() {
        return Err(
            "--trace-hash folds events away as they happen; checkpoints need \
             the buffered trace, so it cannot combine with --checkpoint-dir"
                .into(),
        );
    }
    if o.checkpoint_every_s
        .is_some_and(|s| !(s > 0.0 && s.is_finite()))
    {
        return Err("--checkpoint-every must be positive".into());
    }
    if o.random_placement && o.nodes.is_none() {
        return Err("--random requires --nodes".into());
    }
    o.spec.validate()?;
    let routers = match o.nodes {
        Some(n) if o.random_placement => n,
        _ => o.spec.grid_rows * o.spec.grid_cols,
    };
    let nodes = routers + o.spec.clients;
    if let Some(&(node, ..)) = o.fails.iter().find(|f| f.0 as usize >= nodes) {
        return Err(format!(
            "--fail: no node {node} among the scenario's {nodes}"
        ));
    }
    Ok(Parsed::Run(Box::new(o)))
}

/// Exit code for an interrupted (SIGINT, checkpointed) run, matching the
/// shell convention for `128 + SIGINT`.
const EXIT_INTERRUPTED: i32 = 130;

/// The `--trace-out` file, created before either model runs so that an
/// unwritable path costs no simulation (exit 1).
fn create_trace_file(path: &str) -> Arc<Mutex<FileSink>> {
    match FileSink::create(path.as_ref()) {
        Ok(sink) => Arc::new(Mutex::new(sink)),
        Err(e) => {
            eprintln!("cannot create trace file '{path}': {e}");
            std::process::exit(1);
        }
    }
}

/// Flush the `--trace-out` file; a failed write exits 1.
fn finish_trace_file(sink: &Mutex<FileSink>, path: &str) {
    if let Err(e) = sink.lock().expect("no trace writer panicked").finish() {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
}

/// Run the shard-parallel ParMesh scale model and print its report.
fn run_parmesh(opts: &Options, trace_file: Option<Arc<Mutex<FileSink>>>) {
    let n = opts
        .nodes
        .expect("parse_args refuses --parmesh without --nodes");
    let spec = &opts.spec;
    let mut pm = wmn::ParMesh::new(n)
        .seed(spec.seed)
        .flows(spec.flows)
        .duration(SimDuration::from_secs_f64(spec.duration_s))
        .interval(SimDuration::from_secs_f64(1.0 / spec.pps))
        .threads(opts.threads)
        .telemetry(opts.trace_out.is_some())
        .trace_hash(opts.trace_hash)
        .profile(opts.profile_out.is_some());
    if let Some(r) = opts.regions {
        pm = pm.regions(r);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        pm = pm.checkpoint_dir(dir).resume(opts.resume);
        if let Some(s) = opts.checkpoint_every_s {
            pm = pm.checkpoint_every(SimDuration::from_secs_f64(s));
        }
        #[cfg(unix)]
        {
            pm = pm.interrupt(wmn::sim::signals::interrupt_on(&[
                wmn::sim::signals::SIGINT,
            ]));
        }
    }
    // Checkpointed runs carry their provenance: a run manifest in the
    // checkpoint dir whose lineage records every fresh start and resume.
    // It is written *before* the run starts (and refreshed with real
    // stats after), so the chain survives a kill -9 mid-run.
    let write_manifest = |lineage: Vec<String>, wall: f64, events: u64| {
        let Some(dir) = &opts.checkpoint_dir else {
            return;
        };
        let manifest = RunManifest {
            seeds: vec![spec.seed],
            params: vec![
                ("nodes".into(), n.to_string()),
                ("flows".into(), spec.flows.to_string()),
                ("duration_s".into(), format!("{}", spec.duration_s)),
                ("threads".into(), opts.threads.to_string()),
                (
                    "scenario_fingerprint".into(),
                    format!("{:016x}", pm.scenario_fingerprint()),
                ),
            ],
            wall_s: wall,
            events_processed: events,
            lineage,
            ..RunManifest::stamped("run", "parmesh checkpointed run")
        };
        if let Err(e) = manifest.write(std::path::Path::new(dir)) {
            eprintln!("could not write run manifest: {e}");
        }
    };
    let prior_lineage = opts.checkpoint_dir.as_ref().map(|dir| {
        let dir = std::path::Path::new(dir);
        // A resumed run extends the chain the manifest already holds.
        let prior = std::fs::read_to_string(dir.join("run_manifest.json"))
            .ok()
            .and_then(|text| RunManifest::from_json(&text))
            .map_or(Vec::new(), |earlier| earlier.lineage);
        // Provisional entry: what this leg is about to do. The post-run
        // rewrite replaces it with the supervisor's ground truth.
        let entry = if opts.resume {
            wmn::sim::checkpoint::list_dir(dir)
                .ok()
                .and_then(|files| files.into_iter().filter_map(|(e, _)| e).max())
                .map(|e| format!("resumed from epoch {e}"))
                .unwrap_or_else(|| "fresh".to_string())
        } else {
            "fresh".to_string()
        };
        let mut provisional = prior.clone();
        provisional.push(entry);
        write_manifest(provisional, 0.0, 0);
        prior
    });
    let t0 = std::time::Instant::now();
    let out = match pm.try_run() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let r = &out.report;
    let interrupted = out.supervisor.as_ref().is_some_and(|sup| sup.interrupted);

    if let (Some(sink), Some(path)) = (trace_file, &opts.trace_out) {
        let mut writer = sink.lock().expect("no trace writer panicked");
        for ev in &out.trace {
            writer.record(ev);
        }
        drop(writer);
        finish_trace_file(&sink, path);
        eprintln!("wrote {} events to {path}", out.trace.len());
    }

    if let Some((count, fp)) = out.trace_fp {
        // The fingerprint is invariant to --threads; compare it
        // across runs instead of diffing traces that would not fit.
        eprintln!("trace fingerprint: {count} events, {fp:016x}");
    }

    if let Some(path) = &opts.profile_out {
        let Some(p) = out.profile.as_ref() else {
            eprintln!("profile missing from outcome despite --profile-out");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, p.to_json()) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote profile to {path} (imbalance {:.2}, barrier-wait share {:.3}, \
             {:.1} regions moved/epoch)",
            p.imbalance_factor(),
            p.barrier_wait_share(),
            p.regions_moved_per_epoch()
        );
    }

    // Refresh the provisional manifest with the supervisor's ground truth
    // and the finished run's stats.
    if let Some(sup) = out.supervisor.as_ref() {
        let mut lineage = prior_lineage.clone().unwrap_or_default();
        lineage.push(match sup.resumed_from_epoch {
            Some(e) => format!("resumed from epoch {e}"),
            None => "fresh".to_string(),
        });
        if sup.interrupted {
            lineage.push(format!("interrupted at epoch {}", r.epochs));
        }
        write_manifest(lineage, wall, r.events);
        eprintln!(
            "checkpoints: {} written{}",
            sup.checkpoints_written,
            match sup.resumed_from_epoch {
                Some(e) => format!(", resumed from epoch {e}"),
                None => String::new(),
            }
        );
    }

    if opts.csv {
        println!("nodes,regions,threads,seed,pdr,mean_delay_ms,mean_hops,originated,delivered,forwards,events,epochs,cross_region,wall_s");
        println!(
            "{},{},{},{},{:.4},{:.2},{:.2},{},{},{},{},{},{},{:.3}",
            r.nodes,
            r.regions,
            opts.threads,
            spec.seed,
            r.pdr(),
            r.mean_delay_s * 1e3,
            r.mean_hops,
            r.originated,
            r.delivered,
            r.forwards,
            r.events,
            r.epochs,
            r.cross_region,
            wall,
        );
        if interrupted {
            std::process::exit(EXIT_INTERRUPTED);
        }
        return;
    }

    println!("model                   : parmesh (shard-parallel)");
    println!(
        "nodes / regions / threads: {} / {} / {}",
        r.nodes, r.regions, opts.threads
    );
    println!(
        "originated / delivered  : {} / {}",
        r.originated, r.delivered
    );
    println!("delivery ratio          : {:.4}", r.pdr());
    println!(
        "mean delay / hops       : {:.1} ms / {:.2}",
        r.mean_delay_s * 1e3,
        r.mean_hops
    );
    println!(
        "drops (nr/exp/down)     : {}/{}/{}",
        r.dropped_no_route, r.dropped_expired, r.dropped_node_down
    );
    println!(
        "events / epochs / cross : {} / {} / {}",
        r.events, r.epochs, r.cross_region
    );
    print_wall_and_rss(wall);
    if interrupted {
        eprintln!("interrupted — state checkpointed; rerun with --resume to continue");
        std::process::exit(EXIT_INTERRUPTED);
    }
}

/// The last two report lines of both modes: the run's wall time and the
/// process's high-water resident set (`VmHWM`).
fn print_wall_and_rss(wall_s: f64) {
    println!("wall-clock              : {wall_s:.3} s");
    let peak_rss = wmn::telemetry::sample_host().peak_rss_bytes;
    println!(
        "peak RSS                : {:.1} MiB",
        peak_rss as f64 / 1048576.0
    );
}

/// The classic full-stack scenario: the spec's own lowering plus this
/// tool's three overlays (`--nodes --random`, `--trace`, `--fail`).
fn classic_builder(opts: &Options) -> Result<ScenarioBuilder, String> {
    let mut builder = opts.spec.to_builder()?;
    if let (Some(n), true) = (opts.nodes, opts.random_placement) {
        // Exactly `n` routers, uniform in a field of the grid preset's
        // density (one per 180 m × 180 m). That can leave small
        // disconnected pockets at large `n`, so connectivity is not
        // required — flow endpoints are still drawn reachable-pairs-only.
        let side_m = (n as f64).sqrt() * 180.0;
        builder = builder
            .region(Region::new(side_m, side_m))
            .placement(Placement::UniformRandom { count: n })
            .require_connected(false);
    }
    if opts.trace {
        // Console tracing: typed events rendered human-readably on stderr
        // (what the old string-ring tracer used to do).
        let sink: SharedSink = Arc::new(Mutex::new(ConsoleSink));
        builder = builder
            .telemetry(TelemetryConfig::enabled())
            .telemetry_sink(sink);
    }
    if !opts.fails.is_empty() {
        let mut plan = opts.spec.fault_plan().unwrap_or_default();
        for &(node, down_s, up_s) in &opts.fails {
            plan = match up_s {
                Some(u) => plan.fail_node_for(
                    node,
                    SimTime::from_secs_f64(down_s),
                    SimDuration::from_secs_f64(u - down_s),
                ),
                None => plan.fail_node(node, SimTime::from_secs_f64(down_s)),
            };
        }
        builder = builder.faults(plan);
    }
    Ok(builder)
}

fn main() {
    let opts = match parse_args(Argv::from_env()) {
        Ok(Parsed::Run(o)) => *o,
        Ok(Parsed::Help) => cli::help(&help()),
        Err(msg) => cli::usage_error("wmn-sim", &msg),
    };

    let trace_file = opts.trace_out.as_deref().map(create_trace_file);
    if opts.parmesh {
        run_parmesh(&opts, trace_file);
        return;
    }

    let mut builder = classic_builder(&opts).unwrap_or_else(|e| cli::usage_error("wmn-sim", &e));
    if let Some(sink) = &trace_file {
        builder = builder
            .telemetry(TelemetryConfig::enabled())
            .telemetry_sink(sink.clone() as SharedSink);
    }
    let t_build = std::time::Instant::now();
    let sim = builder.build().unwrap_or_else(|e| {
        eprintln!("scenario rejected: {e}");
        std::process::exit(1);
    });
    let setup = t_build.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let r = sim.run();
    let wall = t0.elapsed().as_secs_f64();
    if let (Some(sink), Some(path)) = (&trace_file, &opts.trace_out) {
        finish_trace_file(sink, path);
    }

    if opts.csv {
        println!(
            "scheme,nodes,flows,seed,pdr,mean_delay_ms,p95_delay_ms,goodput_kbps,rreq_per_disc,srb,nrl,jain,collisions,energy_mj_per_pkt"
        );
        println!(
            "{},{},{},{},{:.4},{:.2},{:.2},{:.1},{:.2},{:.3},{:.3},{:.3},{},{:.2}",
            r.scheme,
            r.nodes,
            r.flows,
            opts.spec.seed,
            r.pdr(),
            r.mean_delay_ms(),
            r.summary.p95_delay_s * 1e3,
            r.goodput_kbps,
            r.rreq_tx_per_discovery,
            r.saved_rebroadcast,
            r.normalized_routing_load,
            r.jain_forwarding,
            r.medium.collisions,
            r.comm_energy_per_delivered_mj,
        );
        return;
    }

    println!("scheme                  : {}", r.scheme);
    println!(
        "nodes / flows / seed    : {} / {} / {}",
        r.nodes, r.flows, opts.spec.seed
    );
    println!(
        "sent / delivered        : {} / {}",
        r.summary.sent, r.summary.delivered
    );
    println!("delivery ratio          : {:.4}", r.pdr());
    println!(
        "mean / p95 delay        : {:.1} / {:.1} ms",
        r.mean_delay_ms(),
        r.summary.p95_delay_s * 1e3
    );
    println!("goodput                 : {:.1} kb/s", r.goodput_kbps);
    println!("RREQ tx / discovery     : {:.1}", r.rreq_tx_per_discovery);
    println!(
        "saved rebroadcasts      : {:.1} %",
        r.saved_rebroadcast * 100.0
    );
    println!("normalized routing load : {:.3}", r.normalized_routing_load);
    println!("discovery success       : {:.3}", r.discovery_success);
    println!(
        "Jain fairness / hotspot : {:.3} / {:.1}",
        r.jain_forwarding, r.hotspot
    );
    println!(
        "collisions / noise loss : {} / {}",
        r.medium.collisions, r.medium.noise_losses
    );
    println!(
        "drops (q/nr/bo/df/lf/ex): {}/{}/{}/{}/{}/{}",
        r.drops.queue_full,
        r.drops.no_route,
        r.drops.buffer_overflow,
        r.drops.discovery_failed,
        r.drops.link_failure,
        r.drops.expired
    );
    println!("ctrl drops (queue full) : {}", r.drops.ctrl_queue_full);
    println!(
        "comm energy / delivered : {:.2} mJ",
        r.comm_energy_per_delivered_mj
    );
    if r.faults.node_down + r.faults.injected > 0 {
        println!(
            "faults (down/up/other)  : {}/{}/{}",
            r.faults.node_down, r.faults.node_up, r.faults.injected
        );
        let repair = if r.repair_latency_s.is_empty() {
            "-".to_string()
        } else {
            let mean = r.repair_latency_s.iter().sum::<f64>() / r.repair_latency_s.len() as f64;
            format!("{mean:.2} s")
        };
        println!("mean route repair       : {repair}");
        match r.pdr_during_outage {
            Some(p) => println!("PDR during outages      : {p:.4}"),
            None => println!("PDR during outages      : -"),
        }
    }
    println!("events processed        : {}", r.events);
    println!("set-up                  : {setup:.3} s");
    print_wall_and_rss(wall);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn::mobility::MobilityConfig;
    use wmn::{presets, FaultPlan, Scheme};

    /// The scheme grammar `--scheme` values are validated against.
    fn parse_scheme(s: &str) -> Result<Scheme, String> {
        Scheme::parse(s)
    }

    fn argv(s: &str) -> Argv {
        Argv::new(s.split_whitespace().map(str::to_string).collect())
    }

    /// Parse and unwrap to runnable options (panics on Help or error).
    fn opts(s: &str) -> Options {
        match parse_args(argv(s)).unwrap() {
            Parsed::Run(o) => *o,
            Parsed::Help => panic!("unexpected help request"),
        }
    }

    #[test]
    fn defaults_when_empty() {
        let o = opts("");
        assert_eq!(o, Options::default());
    }

    #[test]
    fn full_parse() {
        let o = opts(
            "--grid 6 --pitch 200 --scheme gossip:0.7 --flows 12 --pps 6 \
             --payload 256 --duration 30 --warmup 5 --seed 9 --clients 4 \
             --client-speed 15 --csv",
        );
        assert_eq!((o.spec.grid_rows, o.spec.grid_cols), (6, 6));
        assert_eq!(o.spec.pitch_m, 200.0);
        assert_eq!(parse_scheme(&o.spec.scheme), Ok(Scheme::Gossip { p: 0.7 }));
        assert_eq!(o.spec.flows, 12);
        assert_eq!(o.spec.payload, 256);
        assert_eq!(o.spec.seed, 9);
        assert_eq!(o.spec.clients, 4);
        assert!(o.csv);
    }

    #[test]
    fn scheme_parsing() {
        let bad_scheme = |s: &str| parse_args(argv(&format!("--scheme {s}"))).is_err();
        assert_eq!(parse_scheme("flooding").unwrap(), Scheme::Flooding);
        assert_eq!(
            parse_scheme("gossip:0.5").unwrap(),
            Scheme::Gossip { p: 0.5 }
        );
        assert_eq!(
            parse_scheme("gossip:0.5:2").unwrap(),
            Scheme::GossipK { p: 0.5, k: 2 }
        );
        assert!(matches!(
            parse_scheme("counter:4").unwrap(),
            Scheme::Counter { threshold: 4, .. }
        ));
        assert!(matches!(
            parse_scheme("distance:-75").unwrap(),
            Scheme::Distance { .. }
        ));
        assert!(parse_scheme("distance").is_err());
        assert!(matches!(parse_scheme("cnlr").unwrap(), Scheme::Cnlr(_)));
        assert!(matches!(parse_scheme("vap").unwrap(), Scheme::VapCnlr(..)));
        assert!(parse_scheme("nope").is_err() && bad_scheme("nope"));
        assert!(parse_scheme("gossip").is_err() && bad_scheme("gossip"));
        assert!(parse_scheme("gossip:x").is_err() && bad_scheme("gossip:x"));
    }

    #[test]
    fn fault_flags() {
        let o = opts("--fail 5@10 --fail 7@12:20 --churn 120,8");
        assert_eq!(o.fails, vec![(5, 10.0, None), (7, 12.0, Some(20.0))]);
        assert_eq!(o.spec.churn, Some((120.0, 8.0)));
        assert!(parse_fail("5").is_err());
        assert!(parse_fail("x@10").is_err());
        assert!(parse_fail("5@10:9").is_err());
        assert!(parse_args(argv("--churn 120")).is_err());
        assert!(parse_args(argv("--churn 0,8")).is_err());
        assert!(parse_args(argv("--churn 120,-1")).is_err());
        assert!(
            parse_args(argv("--fail 64@10")).is_err(),
            "8x8 has nodes 0..=63"
        );
        assert!(parse_args(argv("--fail 64@10 --clients 1")).is_ok());
    }

    #[test]
    fn scale_flags() {
        let o = opts("--nodes 1000 --random --flows 50");
        assert_eq!(o.nodes, Some(1000));
        assert!(o.random_placement);
        assert_eq!(o.spec.flows, 50);
        assert!(parse_args(argv("--nodes 2")).is_err());
        assert!(parse_args(argv("--nodes 20000")).is_err());
        assert!(parse_args(argv("--random")).is_err(), "--random alone");
    }

    #[test]
    fn parmesh_flags() {
        let o = opts(
            "--parmesh --nodes 100000 --threads 8 --regions 64 --trace-out /tmp/t.jsonl \
             --profile-out /tmp/p.json",
        );
        assert!(o.parmesh);
        assert_eq!(o.nodes, Some(100_000));
        assert_eq!(o.threads, 8);
        assert_eq!(o.regions, Some(64));
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/p.json"));
        assert!(parse_args(argv("--parmesh")).is_err(), "needs --nodes");
        assert!(
            parse_args(argv("--nodes 1000 --threads 2")).is_err(),
            "--threads without --parmesh"
        );
        assert!(
            parse_args(argv("--nodes 1000 --profile-out /tmp/p.json")).is_err(),
            "--profile-out without --parmesh"
        );
        // One trace flag for both models; the console trace is its
        // alternative, not an addition.
        let o = opts("--grid 5 --trace-out /tmp/t.jsonl");
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert!(!o.parmesh);
        for line in [
            "--trace --trace-out x",
            "--parmesh --nodes 1000 --trace --trace-out x",
        ] {
            let err = parse_args(argv(line)).expect_err(line);
            assert!(err.contains("--trace-out"), "{line}: {err}");
        }
        assert!(
            parse_args(argv("--nodes 100000")).is_err(),
            "classic stack caps at 10000"
        );
        assert!(parse_args(argv("--parmesh --nodes 100000 --threads 0")).is_err());
        // ParMesh reads seed, flows, duration and pps; warm-up is checked.
        let o = opts("--parmesh --nodes 1000 --seed 3 --flows 9 --duration 10 --pps 2 --warmup 2");
        assert_eq!((o.spec.seed, o.spec.flows, o.spec.pps), (3, 9, 2.0));
        for ignored in [
            "--scheme flooding",
            "--grid 4",
            "--pitch 200",
            "--payload 256",
            "--clients 3",
            "--client-speed 5",
            "--churn 60,5",
            "--hello 2",
        ] {
            let line = format!("--parmesh --nodes 1000 {ignored}");
            let err = parse_args(argv(&line)).expect_err(&line);
            assert!(err.contains("--parmesh"), "{line}: {err}");
        }
    }

    /// A multi-worker run always packs windows by the planner: `--steal`
    /// is as unknown as any other flag.
    #[test]
    fn million_node_cap_and_steal_flags() {
        let o = opts("--parmesh --nodes 1000000 --trace-hash");
        assert_eq!(o.nodes, Some(1_000_000));
        assert!(o.trace_hash);
        for line in [
            "--parmesh --nodes 1000 --steal on",
            "--parmesh --nodes 1000 --steal off",
            "--nodes 1000 --steal off",
        ] {
            let err = parse_args(argv(line)).expect_err(line);
            assert_eq!(err, "unknown flag '--steal'", "{line}");
        }
        assert!(
            parse_args(argv("--parmesh --nodes 1000001")).is_err(),
            "parmesh caps at one million nodes"
        );
        assert!(
            parse_args(argv("--nodes 200000")).is_err(),
            "classic stack still caps at 10000"
        );
        assert!(parse_args(argv("--trace-hash")).is_err());
        assert!(
            parse_args(argv(
                "--parmesh --nodes 1000 --trace-hash --checkpoint-dir /tmp/ck"
            ))
            .is_err(),
            "--trace-hash cannot combine with checkpoints"
        );
    }

    #[test]
    fn errors() {
        assert!(parse_args(argv("--grid")).is_err());
        assert!(parse_args(argv("--bogus 1")).is_err());
        assert!(parse_args(argv("--grid 1")).is_err());
        assert!(parse_args(argv("--duration 5 --warmup 9")).is_err());
    }

    /// Every line here ran (or hung, or panicked with a backtrace) before
    /// the command line went through `ScenarioSpec::validate`.
    #[test]
    fn malformed_scenarios_are_refused_before_anything_runs() {
        for line in [
            "--duration inf",
            "--pps 0",
            "--pps -1",
            "--pitch -5",
            "--duration nan",
            "--warmup -3",
            "--client-speed nan",
            "--churn nan,1",
            "--fail 3@nan",
            "--payload 0",
            "--fail 3@inf",
            "--fail 3@1:inf",
            "--fail 3@-1",
            "--grid 3x",
            "--grid 4294967296x4294967296",
            "--parmesh --nodes 1000 --checkpoint-dir /tmp/ck --checkpoint-every nan",
            "--parmesh --nodes 1000 --regions 0",
            "--hello 0",
            "--hello nan",
        ] {
            let err = parse_args(argv(line)).expect_err(line);
            assert!(!err.contains('\n'), "{line}: one line, got {err:?}");
        }
    }

    /// CLI ≡ wire ≡ builder: an argv line lowers to the scenario the
    /// hand-written chain this tool used to carry built for it, and the
    /// spec survives the daemon's wire form.
    #[test]
    fn cli_wire_and_builder_describe_the_same_scenario() {
        use wmn::telemetry::json::{object, Layout};
        use wmn::telemetry::parse_object;
        let secs = SimDuration::from_secs_f64;
        // The former `main`, literally: preset or grid, then the common tail.
        let tail = |b: ScenarioBuilder, scheme: &str, flows, pps, payload, dur, warm| {
            b.scheme(Scheme::parse(scheme).unwrap())
                .flows(flows, pps, payload)
                .duration(secs(dur))
                .warmup(secs(warm))
        };
        let grid = |seed, side, pitch| ScenarioBuilder::new().seed(seed).grid(side, side, pitch);
        let rwp = |v_max: f64| MobilityConfig::RandomWaypoint {
            v_min: 1.0,
            v_max: v_max.max(1.0),
            pause_s: 2.0,
        };
        let cases: Vec<(&str, ScenarioBuilder)> = vec![
            (
                "",
                tail(grid(1, 8, 180.0), "cnlr", 20, 4.0, 512, 60.0, 10.0),
            ),
            (
                "--grid 6 --pitch 200 --scheme gossip:0.7 --flows 12 --pps 6 \
                 --payload 256 --duration 30 --warmup 5 --seed 9 --clients 4 \
                 --client-speed 15 --csv",
                tail(grid(9, 6, 200.0), "gossip:0.7", 12, 6.0, 256, 30.0, 5.0)
                    .mobile_clients(4, rwp(15.0)),
            ),
            (
                "--nodes 1000",
                tail(
                    presets::scale_grid(1000, 20, 1),
                    "cnlr",
                    20,
                    4.0,
                    512,
                    60.0,
                    10.0,
                ),
            ),
            (
                "--nodes 400 --random",
                tail(
                    presets::scale_random(400, 20, 1),
                    "cnlr",
                    20,
                    4.0,
                    512,
                    60.0,
                    10.0,
                ),
            ),
            (
                "--clients 4 --client-speed 15",
                tail(grid(1, 8, 180.0), "cnlr", 20, 4.0, 512, 60.0, 10.0)
                    .mobile_clients(4, rwp(15.0)),
            ),
            (
                "--churn 60,5",
                tail(grid(1, 8, 180.0), "cnlr", 20, 4.0, 512, 60.0, 10.0)
                    .faults(FaultPlan::new().churn(secs(60.0), secs(5.0))),
            ),
            (
                "--clients 3 --client-speed 0 --hello 2",
                tail(grid(1, 8, 180.0), "cnlr", 20, 4.0, 512, 60.0, 10.0)
                    .mobile_clients(3, MobilityConfig::Static)
                    .hello_interval(secs(2.0)),
            ),
        ];
        for (line, parent) in cases {
            let o = opts(line);
            let built = classic_builder(&o).unwrap();
            assert_eq!(
                built.prefix_fingerprint(),
                parent.prefix_fingerprint(),
                "{line:?}: topology and flow draw"
            );
            // The fingerprint leaves out scheme, mobility model and faults;
            // the builder's whole state covers those too.
            assert_eq!(format!("{built:?}"), format!("{parent:?}"), "{line:?}");
            let wire = object(Layout::Compact, |members| o.spec.write_members(members));
            let back = ScenarioSpec::from_pairs(&parse_object(&wire).unwrap());
            assert_eq!(back.as_ref(), Ok(&o.spec), "{line:?}: wire round trip");
        }
    }

    #[test]
    fn help_is_not_an_error() {
        assert_eq!(parse_args(argv("--help")).unwrap(), Parsed::Help);
        assert_eq!(parse_args(argv("-h")).unwrap(), Parsed::Help);
        // --help wins even mid-line: the user asked for usage, print it.
        assert_eq!(parse_args(argv("--grid 6 --help")).unwrap(), Parsed::Help);
    }

    #[test]
    fn checkpoint_flags() {
        let o =
            opts("--parmesh --nodes 1000 --checkpoint-dir /tmp/ck --checkpoint-every 2.5 --resume");
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.checkpoint_every_s, Some(2.5));
        assert!(o.resume);
        // Parmesh-only and dependency validation.
        assert!(
            parse_args(argv("--nodes 1000 --checkpoint-dir /tmp/ck")).is_err(),
            "--checkpoint-dir without --parmesh"
        );
        assert!(
            parse_args(argv("--parmesh --nodes 1000 --resume")).is_err(),
            "--resume without --checkpoint-dir"
        );
        assert!(
            parse_args(argv("--parmesh --nodes 1000 --checkpoint-every 1")).is_err(),
            "--checkpoint-every without --checkpoint-dir"
        );
        assert!(parse_args(argv(
            "--parmesh --nodes 1000 --checkpoint-dir /tmp/ck --checkpoint-every 0"
        ))
        .is_err());
        // Strict parsing: missing values exit through the error path.
        assert!(parse_args(argv("--checkpoint-dir")).is_err());
        assert!(parse_args(argv("--checkpoint-every")).is_err());
    }
}
