//! One benchmark run: set up, measure passes for `--seconds`, check the
//! outputs, and turn the passes into the catalogue's metrics.

use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::gen::{self, Inputs};
use crate::span::{self, Recorder};
use crate::stack::CountSink;
use crate::{hostprobe, parmesh, served, stack, stats, units};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wmn_sim::SimDuration;
use wmn_telemetry::sample_host;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1.0 for real runs; `--smoke` passes 0.1.
    pub scale: f64,
}

pub struct Outcome {
    pub attempted: u64,
    /// One message per failed job or check.
    pub failures: Vec<String>,
    /// Catalogue order: end-to-end metrics untraced, per-layer traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Threads the load generator and the program actually used.
    pub threads_used: usize,
    /// Digest of one pass's outputs; every pass of the run reproduced it.
    pub digest: u64,
    /// Human-readable lines: digests, pass counts, span self times.
    pub notes: Vec<String>,
}

/// What every workload kind reports about one pass.
struct PassSummary {
    /// Timed section as the clock read it, seconds.
    raw_wall_s: f64,
    /// Per job, milliseconds, as the clock read them.
    raw_job_ms: Vec<f64>,
    /// Mean slowdown of the host-speed probes run between this pass's jobs.
    slowdown: f64,
    /// By how much that slowed this workload: clock ÷ `factor` is the time
    /// on a quiet reference host.
    factor: f64,
    digest: u64,
}

impl PassSummary {
    /// The pass's wall on a quiet reference host.
    fn wall_s(&self) -> f64 {
        self.raw_wall_s / self.factor
    }
}

/// The last pass, kept whole for the per-layer metrics (the daemon's come
/// from its traced pass alone).
enum Detail {
    Stack(stack::Pass),
    ParMesh(parmesh::Pass),
    Served,
}

struct Measured {
    passes: Vec<PassSummary>,
    /// Set-up walls on a quiet reference host, seconds.
    setups: Vec<f64>,
    last: Option<Detail>,
    attempted: u64,
    failures: Vec<String>,
}

fn setup_once(inputs: &Inputs, prober: &Prober) -> f64 {
    let probe = hostprobe::sample();
    let setup_s = match inputs {
        Inputs::Stack(cells) => stack::setup_once(cells),
        Inputs::ParMesh(specs) => parmesh::setup_once(specs),
        Inputs::Served(_) => served::setup_once(),
    };
    let slowdown = hostprobe::slowdown(&[probe, hostprobe::sample()]);
    setup_s / hostprobe::factor(slowdown, prober.sensitivity)
}

/// Times passes against the host-speed probe (see `hostprobe`).
struct Prober {
    /// Probes per hook: at least 16 a pass, in equal bursts before each job
    /// and after the last (stack, ParMesh) or around the batch (daemon).
    burst: usize,
    sensitivity: f64,
}

impl Prober {
    fn new(inputs: &Inputs, sensitivity: f64) -> Self {
        let hooks = match inputs {
            Inputs::Served(_) => 2,
            _ => inputs.jobs() + 1,
        };
        Prober {
            burst: 16usize.div_ceil(hooks),
            sensitivity,
        }
    }

    /// Run `pass`, handing it the hook to call between its jobs; return
    /// its result, the probes' mean slowdown, and the factor by which that
    /// slowed this workload (clock ÷ factor = time on a quiet host).
    fn run<T>(&self, pass: impl FnOnce(&mut dyn FnMut()) -> T) -> (T, f64, f64) {
        let mut probes = Vec::new();
        let out = pass(&mut || probes.extend((0..self.burst).map(|_| hostprobe::sample())));
        let slowdown = hostprobe::slowdown(&probes);
        (out, slowdown, hostprobe::factor(slowdown, self.sensitivity))
    }
}

fn one_pass(inputs: &Inputs, prober: &Prober, m: &mut Measured) -> Detail {
    let ((raw_wall_s, raw_job_ms, digest, setup_s, failures, detail), slowdown, factor) = prober
        .run(|between| match inputs {
            Inputs::Stack(cells) => {
                let mut p = stack::pass(cells, None, None, between);
                let failures = std::mem::take(&mut p.failures);
                let (wall, jobs, digest, setup) =
                    (p.wall_s(), p.job_ms.clone(), p.digest(), p.setup_s);
                (wall, jobs, digest, Some(setup), failures, Detail::Stack(p))
            }
            Inputs::ParMesh(specs) => {
                let mut p = parmesh::pass(specs, None, 1, |cfg| cfg, between);
                let failures = std::mem::take(&mut p.failures);
                let (wall, jobs, digest) = (p.wall_s(), p.job_ms.clone(), p.digest());
                (wall, jobs, digest, None, failures, Detail::ParMesh(p))
            }
            Inputs::Served(specs) => {
                let p = served::pass(specs, None, between);
                let jobs = p.jobs.iter().map(|j| j.latency_ms).collect();
                let (wall, digest, setup) = (p.wall_s, p.digest(), p.setup_s);
                (wall, jobs, digest, Some(setup), p.failures, Detail::Served)
            }
        });
    let summary = PassSummary {
        raw_wall_s,
        raw_job_ms,
        slowdown,
        factor,
        digest,
    };
    m.attempted += inputs.jobs() as u64;
    m.failures.extend(failures);
    // Every repetition must reproduce the first one's outputs.
    if let Some(first) = m.passes.first() {
        if first.digest != summary.digest {
            m.failures.push(format!(
                "pass {} digest {:016x} differs from pass 0 digest {:016x}",
                m.passes.len(),
                summary.digest,
                first.digest
            ));
        }
    }
    m.setups
        .extend(setup_s.map(|s| s / hostprobe::factor(slowdown, prober.sensitivity)));
    m.passes.push(summary);
    detail
}

/// Set up repeatedly, then run whole passes for about `seconds`.
fn measure(inputs: &Inputs, prober: &Prober, seconds: f64) -> Measured {
    // Set-up is 1–50 ms, so one sample is mostly timer noise: repeat it for
    // a tenth of the run (at least 9 times, at most 40) and report the
    // median.
    let mut setups = Vec::new();
    let t = Instant::now();
    while setups.len() < 9 || (setups.len() < 40 && t.elapsed().as_secs_f64() < 0.1 * seconds) {
        setups.push(setup_once(inputs, prober));
    }
    let mut m = Measured {
        passes: Vec::new(),
        setups,
        last: None,
        attempted: 0,
        failures: Vec::new(),
    };
    // Passes are whole, so the loop stops at the pass boundary nearest to
    // `seconds`: another pass starts only if at least half of it fits.
    let t = Instant::now();
    loop {
        let t_pass = Instant::now();
        m.last = Some(one_pass(inputs, prober, &mut m));
        if t.elapsed().as_secs_f64() + 0.5 * t_pass.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m
}

/// Each job's median over the passes, milliseconds on a quiet reference
/// host, in job order. Passes that lost a job to a failure are left out.
fn job_ms(passes: &[PassSummary], jobs: usize) -> Vec<f64> {
    (0..jobs)
        .map(|j| {
            let reps: Vec<f64> = passes
                .iter()
                .filter(|p| p.raw_job_ms.len() == jobs)
                .map(|p| p.raw_job_ms[j] / p.factor)
                .collect();
            if reps.is_empty() {
                f64::NAN
            } else {
                stats::median(&reps)
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let inputs = gen::generate(workload.name, args.seed, args.scale)
        .expect("every catalogue workload has a generator");
    let rss_before = sample_host().peak_rss_bytes;
    // A traced run measures untraced passes only as the reference its
    // traced pass is compared with, so half the time is enough.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let prober = Prober::new(&inputs, workload.probe_sensitivity);
    let mut m = measure(&inputs, &prober, seconds);
    let rss_after_passes = sample_host().peak_rss_bytes;

    let job_ms = job_ms(&m.passes, inputs.jobs());
    if job_ms.iter().any(|ms| ms.is_nan()) {
        return Err(format!("no pass completed every job: {:?}", m.failures));
    }
    let walls: Vec<f64> = m.passes.iter().map(PassSummary::wall_s).collect();
    let wall_s = stats::median(&walls);
    let threads_used = match (&inputs, args.trace) {
        (Inputs::Served(_), _) => served::WORKERS.max(served::CLIENTS),
        // The traced ParMesh run adds its 2-thread runs.
        (Inputs::ParMesh(_), true) => 2,
        _ => 1,
    };
    let mut notes = vec![format!(
        "{}: seed {} scale {} passes {} jobs/pass {} digest {:016x}",
        args.workload,
        args.seed,
        args.scale,
        m.passes.len(),
        inputs.jobs(),
        m.passes[0].digest
    )];
    for (i, p) in m.passes.iter().enumerate() {
        notes.push(format!(
            "pass {i}: clock {:.4} s, probe slowdown {:.3}, factor {:.3}, corrected {:.4} s",
            p.raw_wall_s,
            p.slowdown,
            p.factor,
            p.wall_s()
        ));
    }

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    if !args.trace {
        values.insert("wall_s", wall_s);
        values.insert("sim_s_per_wall_s", inputs.sim_seconds() / wall_s);
        values.insert("jobs_per_s", inputs.jobs() as f64 / wall_s);
        // The midpoint median, not the nearest rank: the job mixes are even
        // splits of light and heavy jobs, and the nearest rank would sit on
        // the edge of one cluster and move with whichever cell landed there.
        values.insert("job_ms_p50", stats::median(&job_ms));
        values.insert("job_ms_p90", stats::percentile(&job_ms, 90.0));
        values.insert(
            "peak_rss_mib",
            sample_host().peak_rss_bytes as f64 / (1u64 << 20) as f64,
        );
        values.insert("setup_s", stats::median(&m.setups));
    } else {
        values.insert("bench.passes", m.passes.len() as f64);
        values.insert("bench.jobs_timed", (m.passes.len() * inputs.jobs()) as f64);
        values.insert(
            "bench.job_tail_pct",
            stats::highest_supported_percentile(job_ms.len()).unwrap_or(0.0),
        );
        values.insert("bench.host_cores", sample_host().host_cores as f64);
        values.insert("bench.threads_used", threads_used as f64);
        let unit_costs: HashMap<&'static str, f64> =
            units::measure(args.seconds).into_iter().collect();
        let rec = Recorder::new();
        let last = m.last.take().expect("at least one pass ran");
        let mut ctx = TraceCtx {
            wall_s,
            prober: &prober,
            rec: &rec,
            m: &mut m,
        };
        let layer = match (&inputs, &last) {
            (Inputs::Stack(cells), Detail::Stack(last)) => {
                trace_stack(cells, last, &unit_costs, &mut ctx)
            }
            (Inputs::ParMesh(specs), Detail::ParMesh(last)) => {
                let grown = rss_after_passes.saturating_sub(rss_before);
                trace_parmesh(specs, last, grown, args.scale, &mut ctx)
            }
            (Inputs::Served(specs), Detail::Served) => trace_served(specs, &mut ctx),
            _ => unreachable!("a pass has its inputs' kind"),
        };
        values.extend(unit_costs);
        values.extend(layer);
        let spans = rec.into_spans();
        for (name, self_ns, count) in span::self_time_by_name(&spans) {
            notes.push(format!(
                "span {name}: {count} spans, self time {:.3} ms",
                self_ns as f64 / 1e6
            ));
        }
        let path = crate::out_dir().join(format!("trace.{}.jsonl", args.workload));
        span::write_jsonl(&path, &args.workload, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
    }

    // Emit exactly the catalogue's names; a layer the workload does not
    // exercise reads 0.
    let metrics = if args.trace {
        PER_LAYER
            .iter()
            .map(|c| (c.name, values.get(c.name).copied().unwrap_or(0.0), c.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|c| (c.name, values[c.name], c.unit))
            .collect()
    };
    Ok(Outcome {
        attempted: m.attempted,
        failures: m.failures,
        metrics,
        threads_used,
        digest: m.passes[0].digest,
        notes,
    })
}

type Layer = Vec<(&'static str, f64)>;

/// What every traced pass needs: the untraced wall it is compared with,
/// the probe it is timed against, where its spans and failures go.
struct TraceCtx<'a> {
    /// Median untraced pass wall, seconds on a quiet reference host.
    wall_s: f64,
    prober: &'a Prober,
    rec: &'a Recorder,
    m: &'a mut Measured,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced pass of a stack workload, the exact counts of the untraced
/// one, and the estimated shares of its wall.
fn trace_stack(
    cells: &[wmn_served::ScenarioSpec],
    untraced: &stack::Pass,
    unit: &HashMap<&'static str, f64>,
    ctx: &mut TraceCtx<'_>,
) -> Layer {
    let (wall_s, prober, rec) = (ctx.wall_s, ctx.prober, ctx.rec);
    let m = &mut *ctx.m;
    // Twice, so that one noisy pass does not decide the overhead ratio; the
    // second pass's counts are the ones kept.
    let discarded = Arc::new(Mutex::new(CountSink::default()));
    let (first, _, first_factor) =
        prober.run(|between| stack::pass(cells, Some(rec), Some(&discarded), between));
    let sink = Arc::new(Mutex::new(CountSink::default()));
    let (traced, _, factor) =
        prober.run(|between| stack::pass(cells, Some(rec), Some(&sink), between));
    m.attempted += 2 * cells.len() as u64;
    m.failures
        .extend(first.failures.iter().chain(&traced.failures).cloned());
    let traced_wall_s = stats::median(&[first.wall_s() / first_factor, traced.wall_s() / factor]);
    // Telemetry observes; it must not change a counter.
    for (i, (t, u)) in traced.results.iter().zip(&untraced.results).enumerate() {
        if t.counters() != u.counters() || t.summary != u.summary {
            m.failures.push(format!(
                "cell {i}: traced run's counters differ from untraced"
            ));
        }
    }
    let sink = sink.lock().expect("sink lock");

    let sum = |f: &dyn Fn(&cnlr::RunResults) -> u64| untraced.results.iter().map(f).sum::<u64>();
    let events = sum(&|r| r.events);
    let tx_started = sum(&|r| r.medium.tx_started);
    let link_budgets = sum(&|r| r.medium.link_budgets);
    let pathloss_evals = sum(&|r| r.medium.pathloss_evals);
    let cache_hits = sum(&|r| r.medium.link_cache_hits);
    let collisions = sum(&|r| r.medium.collisions);
    let phy_delivered = sum(&|r| r.medium.delivered);
    let noise_losses = sum(&|r| r.medium.noise_losses);
    let aborted = sum(&|r| r.medium.aborted_by_tx);
    let tx_attempts = sum(&|r| r.mac.data_tx_attempts);
    let retries = sum(&|r| r.mac.retries);
    let rreq_received = sum(&|r| r.routing.rreq_received);
    let data_forwarded = sum(&|r| r.routing.data_forwarded);
    let succeeded = sum(&|r| r.routing.discoveries_succeeded);
    let failed = sum(&|r| r.routing.discoveries_failed);
    let sent = sum(&|r| r.summary.sent);
    let delivered = sum(&|r| r.summary.delivered);

    // Estimated nanoseconds per layer: exact count x unit cost.
    let depth = sink.depth_max.max(1) as f64;
    // The hold cost grows with log(depth): interpolate between the two
    // measured depths, 2^10 and 2^16.
    let w = ((depth.log2() - 10.0) / 6.0).clamp(0.0, 1.0);
    let hold_ns = (1.0 - w) * unit["sim.queue.hold_ns_d1k"] + w * unit["sim.queue.hold_ns_d64k"];
    let queue_ns = events as f64 * hold_ns;
    let radio_ns = pathloss_evals as f64 * unit["radio.rx_power_ns"]
        + (phy_delivered + noise_losses) as f64 * unit["radio.per_ns"];
    let hit = ratio(cache_hits, tx_started);
    let per_tx_ns = hit * unit["core.medium.start_tx_warm_ns"]
        + (1.0 - hit) * unit["core.medium.start_tx_cold_ns"]
        + unit["core.medium.rx_end_ns"];
    // The medium's unit costs include the radio calls made inside them.
    let medium_ns = (tx_started as f64 * per_tx_ns - radio_ns).max(0.0);
    // Every sensing radio sees a transmission start and end; transitions
    // swallowed by an already-busy channel make this an upper bound.
    let mac_ns = tx_attempts as f64 * unit["mac.dcf.frame_ns"]
        + 2.0 * link_budgets as f64 * unit["mac.dcf.sense_ns"]
        + phy_delivered as f64 * unit["mac.dcf.rx_frame_ns"];
    let rreq_ns: f64 = untraced
        .results
        .iter()
        .map(|r| {
            let per = if r.scheme.starts_with("flood") {
                unit["routing.rreq_ns_flooding"]
            } else {
                unit["routing.rreq_ns_cnlr"]
            };
            r.routing.rreq_received as f64 * per
        })
        .sum();
    let routing_ns = rreq_ns + data_forwarded as f64 * unit["routing.forward_ns"];
    let wall_ns = wall_s * 1e9;
    let shares = [queue_ns, medium_ns, radio_ns, mac_ns, routing_ns].map(|ns| ns / wall_ns);

    vec![
        ("sim.events", events as f64),
        ("sim.events_per_s", events as f64 / wall_s),
        ("sim.queue.depth_max", sink.depth_max as f64),
        ("core.medium.tx_started", tx_started as f64),
        ("core.medium.link_budgets", link_budgets as f64),
        ("core.medium.pathloss_evals", pathloss_evals as f64),
        ("core.medium.cache_hit_ratio", hit),
        (
            "core.medium.budget_reuse_ratio",
            1.0 - ratio(pathloss_evals, link_budgets),
        ),
        ("core.medium.collisions", collisions as f64),
        (
            "core.medium.rx_useful_ratio",
            ratio(
                phy_delivered,
                phy_delivered + collisions + noise_losses + aborted,
            ),
        ),
        ("mac.tx_attempts", tx_attempts as f64),
        ("mac.retries", retries as f64),
        ("mac.retry_ratio", ratio(retries, tx_attempts)),
        ("mac.backoffs", sum(&|r| r.mac.backoffs) as f64),
        (
            "mac.drops_queue_full",
            sum(&|r| r.mac.drops_queue_full) as f64,
        ),
        (
            "mac.queue_peak",
            untraced
                .results
                .iter()
                .map(|r| r.max_queue_peak)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("routing.rreq_received", rreq_received as f64),
        (
            "routing.rreq_forwarded",
            sum(&|r| r.routing.rreq_forwarded) as f64,
        ),
        (
            "routing.rreq_dup_ratio",
            ratio(sum(&|r| r.routing.rreq_duplicates), rreq_received),
        ),
        ("routing.data_forwarded", data_forwarded as f64),
        (
            "routing.discoveries",
            sum(&|r| r.routing.discoveries_started) as f64,
        ),
        (
            "routing.discovery_success",
            ratio(succeeded, succeeded + failed),
        ),
        ("traffic.sent", sent as f64),
        ("traffic.delivered", delivered as f64),
        ("traffic.pdr", ratio(delivered, sent)),
        (
            "faults.injected",
            sum(&|r| r.faults.node_down + r.faults.node_up + r.faults.injected) as f64,
        ),
        ("telemetry.events", sink.events as f64),
        ("telemetry.overhead_ratio", traced_wall_s / wall_s),
        ("bench.trace_overhead_ratio", traced_wall_s / wall_s),
        ("share.sim.queue", shares[0]),
        ("share.core.medium", shares[1]),
        ("share.radio", shares[2]),
        ("share.mac", shares[3]),
        ("share.routing", shares[4]),
        ("share.unattributed", 1.0 - shares.iter().sum::<f64>()),
    ]
}

/// ParMesh: a profiled 1-thread run, three profiled 2-thread runs, a
/// checkpointing run, and the identity of all their reports.
fn trace_parmesh(
    specs: &[gen::ParMeshSpec],
    untraced: &parmesh::Pass,
    rss_growth: u64,
    scale: f64,
    ctx: &mut TraceCtx<'_>,
) -> Layer {
    let (wall_s, prober, rec) = (ctx.wall_s, ctx.prober, ctx.rec);
    let m = &mut *ctx.m;
    let reference = untraced.digest();
    // Run one variant of the workload against the probe; check that it
    // reproduces the plain run's report; return it with its corrected wall.
    let mut variant =
        |what: &str, threads: usize, tune: &dyn Fn(cnlr::ParMesh) -> cnlr::ParMesh| {
            let (p, _, factor) =
                prober.run(|between| parmesh::pass(specs, Some(rec), threads, tune, between));
            m.attempted += specs.len() as u64;
            m.failures.extend(p.failures.iter().cloned());
            if p.digest() != reference {
                m.failures.push(format!(
                    "{what}: report differs from the plain 1-thread run"
                ));
            }
            let wall_s = p.wall_s() / factor;
            (p, wall_s)
        };
    let (t1, t1_wall) = variant("profiled 1-thread run", 1, &|cfg| cfg.profile(true));
    // Two threads, profiled like the 1-thread run they are compared with.
    let t2: Vec<(parmesh::Pass, f64)> = (0..3)
        .map(|_| variant("2-thread run", 2, &|cfg| cfg.profile(true)))
        .collect();
    let ckpt_dir = crate::out_dir().join(format!("ckpt-{}", std::process::id()));
    let (_, ckpt_wall) = variant("checkpointing run", 1, &|cfg| {
        cfg.checkpoint_dir(&ckpt_dir)
            .checkpoint_every(SimDuration::from_millis(500))
    });
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Trace-hash identity across thread counts, on a tenth of the mesh:
    // hashing every event of the full mesh would dwarf the run it checks.
    if let Some(Inputs::ParMesh(small)) = gen::generate("parmesh_100k", specs[0].seed, 0.1 * scale)
    {
        let fp = |threads| {
            parmesh::pass(
                &small,
                None,
                threads,
                |cfg| cfg.trace_hash(true),
                &mut || {},
            )
            .outcomes[0]
                .trace_fp
        };
        m.attempted += 2;
        let (a, b) = (fp(1), fp(2));
        if a.is_none() || a != b {
            m.failures
                .push(format!("trace hash differs across threads: {a:?} vs {b:?}"));
        }
    }

    let report = &untraced.outcomes[0].report;
    let p1 = t1.outcomes[0]
        .profile
        .as_ref()
        .expect("profiling was requested");
    let busy_ns: u64 = p1.per_region.iter().map(|r| r.busy_ns).sum();
    let windows: u64 = p1.per_region.iter().map(|r| r.active_windows).sum();
    let t2_walls: Vec<f64> = t2.iter().map(|(_, wall)| *wall).collect();
    let t2_wall = stats::median(&t2_walls);
    let t2_range = t2_walls.iter().cloned().fold(f64::MIN, f64::max)
        - t2_walls.iter().cloned().fold(f64::MAX, f64::min);
    let p2 = t2[2].0.outcomes[0]
        .profile
        .as_ref()
        .expect("profiling was requested");
    vec![
        ("sim.events", report.events as f64),
        ("sim.events_per_s", report.events as f64 / wall_s),
        ("traffic.sent", report.originated as f64),
        ("traffic.delivered", report.delivered as f64),
        ("traffic.pdr", report.pdr()),
        ("sim.shard.epochs", report.epochs as f64),
        ("sim.shard.regions", report.regions as f64),
        ("sim.shard.cross_region", report.cross_region as f64),
        ("sim.shard.events_per_window", ratio(p1.events, windows)),
        ("sim.shard.busy_share", ratio(busy_ns, p1.wall_ns)),
        ("sim.shard.barrier_wait_share", p1.barrier_wait_share()),
        ("sim.shard.merge_share", ratio(p1.merge_ns, p1.wall_ns)),
        ("sim.shard.imbalance_factor", p1.imbalance_factor()),
        (
            "sim.shard.regions_moved_per_epoch",
            p2.regions_moved_per_epoch(),
        ),
        ("sim.shard.profile_overhead_ratio", t1_wall / wall_s),
        ("bench.trace_overhead_ratio", t1_wall / wall_s),
        ("sim.checkpoint.overhead_ratio", ckpt_wall / wall_s),
        ("core.parmesh.forwards", report.forwards as f64),
        ("core.parmesh.mean_hops", report.mean_hops),
        ("core.parmesh.pdr", report.pdr()),
        (
            "core.parmesh.bytes_per_node",
            rss_growth as f64 / report.nodes as f64,
        ),
        ("sim.shard.t2_wall_s", t2_wall),
        ("sim.shard.t2_speedup", t1_wall / t2_wall),
        ("sim.shard.t2_spread", t2_range / t2_wall),
        ("sim.shard.t2_wait_share", p2.barrier_wait_share()),
    ]
}

/// The daemon: one traced batch, the same specs as one-shot runs on two
/// threads, and the equality of every job with its one-shot run.
fn trace_served(specs: &[wmn_served::ScenarioSpec], ctx: &mut TraceCtx<'_>) -> Layer {
    let (wall_s, prober, rec) = (ctx.wall_s, ctx.prober, ctx.rec);
    let m = &mut *ctx.m;
    // Twice, so that one noisy batch does not decide the overhead ratio;
    // the second batch's results are the ones kept.
    let (first, _, first_factor) = prober.run(|between| served::pass(specs, Some(rec), between));
    let (traced, _, factor) = prober.run(|between| served::pass(specs, Some(rec), between));
    m.attempted += 2 * specs.len() as u64;
    m.failures
        .extend(first.failures.iter().chain(&traced.failures).cloned());
    let traced_wall_s = stats::median(&[first.wall_s / first_factor, traced.wall_s / factor]);

    // The same specs without the daemon: one-shot runs on as many threads
    // as it has workers.
    let ((shots, inprocess_clock_s), _, inprocess_factor) = prober.run(|between| {
        between();
        let t = Instant::now();
        let shots = rec.scope("bench.one_shot_x2", None, 0, |_| {
            wmn_metrics::run_jobs(specs.len(), served::WORKERS, |i| {
                served::one_shot(&specs[i])
            })
        });
        let clock_s = t.elapsed().as_secs_f64();
        between();
        (shots, clock_s)
    });
    let inprocess_s = inprocess_clock_s / inprocess_factor;
    m.attempted += specs.len() as u64;
    if traced.jobs.len() == shots.len() {
        for (i, (job, one)) in traced.jobs.iter().zip(&shots).enumerate() {
            if !served::same_as_one_shot(&job.result, one) {
                m.failures.push(format!(
                    "job {i}: daemon result differs from its one-shot run"
                ));
            }
        }
    }

    let run_ms: Vec<f64> = traced
        .jobs
        .iter()
        .map(|j| j.result.wall_s * 1000.0)
        .collect();
    let overhead_ms: Vec<f64> = traced
        .jobs
        .iter()
        .map(|j| j.latency_ms - j.result.wall_s * 1000.0)
        .collect();
    let events: u64 = traced.jobs.iter().map(|j| j.result.events).sum();
    let s = traced.stats;
    vec![
        ("sim.events", events as f64),
        ("sim.events_per_s", events as f64 / traced.wall_s),
        ("served.jobs", s.done as f64),
        ("served.prefix_hits", s.prefix_hits as f64),
        ("served.prefix_builds", s.prefix_builds as f64),
        (
            "served.prefix_hit_ratio",
            ratio(s.prefix_hits, s.prefix_hits + s.prefix_builds),
        ),
        ("served.warm_imports", s.warm_imports as f64),
        ("served.rejected_busy", s.rejected_busy as f64),
        ("served.run_ms_p50", stats::median(&run_ms)),
        ("served.overhead_ms_p50", stats::median(&overhead_ms)),
        (
            "served.worker_util",
            run_ms.iter().sum::<f64>() / 1000.0 / (served::WORKERS as f64 * traced.wall_s),
        ),
        ("served.vs_inprocess_ratio", traced_wall_s / inprocess_s),
        ("bench.trace_overhead_ratio", traced_wall_s / wall_s),
    ]
}
