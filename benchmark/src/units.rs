//! Unit costs: every layer timed from outside, by calling its public
//! functions on inputs shaped like the workloads (an 8 x 8 grid at the
//! standard pitch, 546-byte broadcast frames, RREQ storms that are mostly
//! duplicates). Each cost is the fastest of `BATCHES` batches (host noise
//! only ever slows a batch down).
//!
//! These are not the cost of the same call inside a run — caches are
//! warmer here — so `share.*` built from them is an estimate, and
//! `share.unattributed` says how much it misses.

use cnlr::{CnlrConfig, CnlrPolicy, Event, Medium, MediumEffect, ScenarioBuilder};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wmn_mac::{
    FrameKind, Mac, MacAction, MacAddr, MacFrame, MacParams, MacSdu, TimerKind, BROADCAST,
};
use wmn_mobility::{Mobility, MobilityConfig};
use wmn_radio::{PathLoss, PhyParams, Rate};
use wmn_routing::{
    CrossLayer, DataPacket, Flooding, FlowId, Hello, NodeId, Packet, RebroadcastPolicy, RouteTable,
    Routing, RoutingConfig, RoutingTimer, Rreq, RreqKey,
};
use wmn_served::{Client, JobResult, Request, ScenarioSpec, Server, ServerConfig};
use wmn_sim::shard::{
    Lookahead, RegionCtx, RegionWorld, ShardProbe, ShardRunReport, ShardedEngine, WindowSample,
};
use wmn_sim::{checkpoint, Engine, EventQueue, Scheduler, SimDuration, SimRng, SimTime, World};
use wmn_telemetry::{
    EventKind, LogHistogram, MemorySink, SharedSink, Tel, TelemetryConfig, TelemetryEvent,
};
use wmn_topology::{Placement, Region, SpatialIndex, Vec2};

const BATCHES: usize = 5;

/// Time `chunk` — which performs and returns a number of operations — in
/// `BATCHES` batches of at least `batch_s` seconds; ns per operation of
/// the fastest batch.
fn per_op_ns(batch_s: f64, mut chunk: impl FnMut() -> u64) -> f64 {
    chunk(); // warm caches and lazy allocations outside the timing
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let mut ops = 0u64;
            while t.elapsed().as_secs_f64() < batch_s {
                ops += chunk();
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_batch.into_iter().fold(f64::INFINITY, f64::min)
}

/// The hold model: pop the earliest event, schedule one a random delay
/// later, at a steady depth, with the full stack's event type as payload.
fn queue_hold(batch_s: f64, depth: usize) -> f64 {
    let mut rng = SimRng::new(depth as u64);
    let mut q: EventQueue<Event> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.schedule(
            SimTime(rng.below(1_000_000)),
            Event::TxEnd {
                node: i as u32,
                tx_id: i as u64,
            },
        );
    }
    per_op_ns(batch_s, || {
        for _ in 0..4096 {
            let (t, ev) = q.pop().expect("steady depth");
            q.schedule(t + SimDuration(1 + rng.below(1_000_000)), ev);
        }
        4096
    })
}

/// A world that reschedules each event it handles: the engine's own cost
/// per dispatched event, at a future-event list 64 deep.
struct Echo;

impl World for Echo {
    type Event = u32;
    fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
        sched.after(SimDuration(64_000), ev);
    }
}

fn engine_dispatch(batch_s: f64) -> f64 {
    per_op_ns(batch_s, || {
        // 64 events recurring every 64 µs for 5 ms of simulated time.
        let mut engine = Engine::new(SimTime::from_millis(5));
        for i in 0..64u32 {
            engine.prime(SimTime(1_000 * i as u64), i);
        }
        engine.run(&mut Echo).events_processed
    })
}

/// 256 regions in a 16 x 16 grid, ring-1 lookahead of 1 ms as in ParMesh;
/// each region handles one event per millisecond and sends one to its
/// right-hand neighbour, so every epoch is a barrier with a merge.
struct Beat {
    id: u32,
}

impl RegionWorld for Beat {
    type Event = bool;
    fn handle(&mut self, local: bool, ctx: &mut RegionCtx<'_, bool>) {
        if local {
            let at = ctx.now() + SimDuration::from_millis(1);
            ctx.at(at, true);
            let (x, y) = (self.id % 16, self.id / 16);
            ctx.send(y * 16 + (x + 1) % 16, at, false);
        }
    }
}

#[derive(Default)]
struct MergeProbe {
    merged: u64,
    merge_ns: u64,
}

impl ShardProbe for MergeProbe {
    fn window(&mut self, _sample: &WindowSample) {}
    fn epoch_end(&mut self, _epoch: u64, _wall_ns: u64, merged: u64, merge_ns: u64) {
        self.merged += merged;
        self.merge_ns += merge_ns;
    }
    fn run_end(&mut self, _report: &ShardRunReport, _wall_ns: u64) {}
}

fn beat_engine(sim_ms: u64) -> ShardedEngine<Beat> {
    let worlds = (0..256).map(|id| Beat { id }).collect();
    let lookahead = Lookahead::from_fn(256, |a, b| {
        let (dx, dy) = ((a % 16).abs_diff(b % 16), (a / 16).abs_diff(b / 16));
        // Wrap-around in x: column 15 sends to column 0.
        if dx.min(16 - dx).max(dy) <= 1 {
            SimDuration::from_millis(1)
        } else {
            wmn_sim::shard::NEVER
        }
    });
    let mut engine = ShardedEngine::new(worlds, lookahead, SimTime::from_millis(sim_ms));
    for r in 0..256 {
        engine.prime(r, SimTime::ZERO, true);
    }
    engine
}

/// Wall per epoch barrier in microseconds, on `threads` workers.
fn shard_epoch_us(batch_s: f64, threads: usize) -> f64 {
    let mut epochs_per_run = 0u64;
    let ns_per_run = per_op_ns(batch_s, || {
        let (report, _) = beat_engine(200).run(threads);
        epochs_per_run = report.epochs;
        1
    });
    ns_per_run / epochs_per_run as f64 / 1000.0
}

/// The engine's own merge timer over its own count of merged events.
fn shard_merge_ns(batch_s: f64) -> f64 {
    let mut probe = MergeProbe::default();
    per_op_ns(batch_s, || {
        beat_engine(200).run_probed(1, Some(&mut probe));
        1
    });
    probe.merge_ns as f64 / probe.merged.max(1) as f64
}

/// (seal MiB/s, open-and-verify MiB/s) on a 4 MiB payload.
fn checkpoint_mib_s(batch_s: f64) -> (f64, f64) {
    let payload: Vec<u8> = (0..4usize << 20).map(|i| (i * 31) as u8).collect();
    let mib = payload.len() as f64 / (1 << 20) as f64;
    let seal_ns = per_op_ns(batch_s, || {
        black_box(checkpoint::seal(1, 2, 3, 256, 4, black_box(&payload)));
        1
    });
    let image = checkpoint::seal(1, 2, 3, 256, 4, &payload);
    let read_ns = per_op_ns(batch_s, || {
        let (meta, body) = checkpoint::open(black_box(&image)).expect("sealed image opens");
        black_box((meta.payload_len, body.len()));
        1
    });
    (mib / (seal_ns / 1e9), mib / (read_ns / 1e9))
}

/// The backbone every stack workload uses: 8 x 8 routers, 180 m pitch.
fn backbone_positions() -> (Region, Vec<Vec2>) {
    let region = Region::new(8.0 * 180.0, 8.0 * 180.0);
    let grid = Placement::Grid {
        rows: 8,
        cols: 8,
        jitter_frac: 0.15,
    };
    let positions = grid.generate(region, &mut SimRng::new(0xBE7C));
    (region, positions)
}

fn backbone_index(phy: &PhyParams) -> (Region, SpatialIndex) {
    let (region, positions) = backbone_positions();
    let cell = phy.interference_range_m().max(50.0) / 2.0;
    (region, SpatialIndex::new(region, cell, &positions))
}

struct MediumCosts {
    start_tx_warm_ns: f64,
    start_tx_cold_ns: f64,
    rx_end_ns: f64,
}

/// One broadcast at a time, sources in rotation: `start_tx`, `tx_end`,
/// `rx_end`, each timed on its own (two `Instant` reads per call, ~50 ns,
/// are inside the figure). "Cold" moves one neighbour a metre before each
/// transmission, which is what a mobile client does to the link cache.
fn medium_costs(batch_s: f64) -> MediumCosts {
    let phy = PhyParams::classic_802_11b();
    let run = |cold: bool| -> (f64, f64) {
        let (_, mut index) = backbone_index(&phy);
        let n = index.len();
        let home: Vec<Vec2> = (0..n).map(|i| index.position(i)).collect();
        let mut away = vec![false; n];
        let mut medium = Medium::new(phy.clone(), n, SimRng::new(7), 25.0);
        let mut out = Vec::new();
        let mut now = SimTime::from_millis(1);
        let (mut src, mut tx_ns, mut rx_ns, mut cycles) = (0usize, 0u64, 0u64, 0u64);
        let mut samples = Vec::with_capacity(BATCHES);
        for batch in 0..=BATCHES {
            let t_batch = Instant::now();
            while t_batch.elapsed().as_secs_f64() < batch_s {
                for _ in 0..256 {
                    if cold {
                        // One metre out and back around the home position,
                        // so nobody wanders off the field.
                        let nb = (src + 1) % n;
                        away[nb] = !away[nb];
                        let dx = if away[nb] { 1.0 } else { 0.0 };
                        index.update(nb, Vec2::new(home[nb].x + dx, home[nb].y));
                    }
                    let frame = MacFrame {
                        kind: FrameKind::Data,
                        src: MacAddr(src as u32),
                        dst: BROADCAST,
                        air_bytes: 512 + 34,
                        sdu_id: cycles + 1,
                        nav_us: 0,
                    };
                    out.clear();
                    let t = Instant::now();
                    medium.start_tx(src as u32, frame, None, now, &index, &mut out);
                    tx_ns += t.elapsed().as_nanos() as u64;
                    let (mut tx_end, mut rx_end) = (None, None);
                    for e in &out {
                        match *e {
                            MediumEffect::ScheduleTxEnd { tx_id, at, .. } => {
                                tx_end = Some((tx_id, at))
                            }
                            MediumEffect::ScheduleRxEnd { tx_id, at } => rx_end = Some((tx_id, at)),
                            _ => {}
                        }
                    }
                    let (tx_id, at) = tx_end.expect("every transmission ends");
                    out.clear();
                    medium.tx_end(tx_id, at, &mut out);
                    now = at;
                    if let Some((tx_id, at)) = rx_end {
                        out.clear();
                        let t = Instant::now();
                        medium.rx_end(tx_id, at, &mut out);
                        rx_ns += t.elapsed().as_nanos() as u64;
                        now = at;
                    }
                    black_box(&out);
                    now += SimDuration::from_micros(100);
                    src = (src + 1) % n;
                    cycles += 1;
                }
            }
            // Batch 0 warms every transmitter's cache line; it is dropped.
            if batch > 0 {
                samples.push((tx_ns as f64 / cycles as f64, rx_ns as f64 / cycles as f64));
            }
            (tx_ns, rx_ns, cycles) = (0, 0, 0);
        }
        let fastest =
            |f: fn(&(f64, f64)) -> f64| samples.iter().map(f).fold(f64::INFINITY, f64::min);
        (fastest(|s| s.0), fastest(|s| s.1))
    };
    let (warm, rx_end) = run(false);
    let (cold, _) = run(true);
    MediumCosts {
        start_tx_warm_ns: warm,
        start_tx_cold_ns: cold,
        rx_end_ns: rx_end,
    }
}

/// A broadcast frame's life in the DCF: enqueue, contention timer fires,
/// frame goes on air, transmission completes.
fn dcf_frame(batch_s: f64) -> f64 {
    let mut mac = Mac::new(MacAddr(0), MacParams::default(), SimRng::new(3));
    let mut out = Vec::new();
    let mut now = SimTime::from_millis(1);
    let mut id = 0u64;
    per_op_ns(batch_s, || {
        for _ in 0..1024 {
            id += 1;
            out.clear();
            let sdu = MacSdu {
                id,
                dst: BROADCAST,
                bytes: 512,
                priority: false,
            };
            mac.enqueue(sdu, now, &mut out);
            let (at, gen) = out
                .iter()
                .find_map(|a| match *a {
                    MacAction::SetTimer {
                        kind: TimerKind::Main,
                        at,
                        gen,
                    } => Some((at, gen)),
                    _ => None,
                })
                .expect("an idle MAC arms its contention timer");
            out.clear();
            mac.on_timer(TimerKind::Main, gen, at, &mut out);
            debug_assert!(out.iter().any(|a| matches!(a, MacAction::StartTx(_))));
            out.clear();
            now = at + SimDuration::from_micros(4_560);
            mac.on_tx_complete(now, &mut out);
            black_box(&out);
            now += SimDuration::from_micros(100);
        }
        1024
    })
}

/// A carrier-sense transition at a radio that hears a transmission start
/// or end. Half the radios are idle (the call flips a flag), half are
/// counting down a backoff that the transition freezes or resumes.
fn dcf_sense(batch_s: f64) -> f64 {
    let mut idle = Mac::new(MacAddr(1), MacParams::default(), SimRng::new(4));
    let mut contending = Mac::new(MacAddr(2), MacParams::default(), SimRng::new(4));
    let mut out = Vec::new();
    let mut now = SimTime::from_millis(1);
    let sdu = MacSdu {
        id: 1,
        dst: BROADCAST,
        bytes: 512,
        priority: false,
    };
    contending.enqueue(sdu, now, &mut out);
    per_op_ns(batch_s, || {
        for _ in 0..1024 {
            for busy in [true, false] {
                // 30 µs apart: inside DIFS, so the backoff never runs out
                // and the MAC stays in contention for the whole batch.
                now += SimDuration::from_micros(30);
                out.clear();
                idle.on_channel(busy, now, &mut out);
                contending.on_channel(busy, now, &mut out);
            }
            black_box(&out);
        }
        1024 * 4
    })
}

/// A decoded broadcast data frame handed to the MAC: address filter,
/// duplicate ring, `Deliver`.
fn dcf_rx_frame(batch_s: f64) -> f64 {
    let mut mac = Mac::new(MacAddr(0), MacParams::default(), SimRng::new(4));
    let mut out = Vec::new();
    let now = SimTime::from_millis(1);
    let mut id = 0u64;
    per_op_ns(batch_s, || {
        for _ in 0..1024 {
            id += 1;
            out.clear();
            let frame = MacFrame {
                kind: FrameKind::Data,
                src: MacAddr(1 + (id % 8) as u32),
                dst: BROADCAST,
                air_bytes: 512 + 34,
                sdu_id: id,
                nav_us: 0,
            };
            mac.on_rx_frame(frame, now, &mut out);
            black_box(&out);
        }
        1024
    })
}

fn hello_from(
    routing: &mut Routing,
    nb: u32,
    seq: u32,
    now: SimTime,
    out: &mut Vec<wmn_routing::RoutingAction>,
) {
    let hello = Hello {
        seq,
        load: wmn_mac::LoadDigest {
            queue_util: 0.2,
            busy_ratio: 0.4,
            mac_service_s: 0.003,
        },
        velocity: (0.0, 0.0),
    };
    routing.on_packet(
        Packet::Hello(hello),
        NodeId(nb),
        &CrossLayer::default(),
        now,
        out,
    );
}

/// `Routing::on_packet` per RREQ received, at the storm's mix: each
/// discovery reaches the node from four of its eight neighbours, so one
/// first copy (policy decision, forward) to three duplicates.
fn rreq_cost(batch_s: f64, policy: fn() -> Box<dyn RebroadcastPolicy>) -> f64 {
    let mut routing = Routing::new(
        NodeId(0),
        RoutingConfig::default(),
        policy(),
        SimRng::new(5),
    );
    let cross = CrossLayer {
        last_rx_dbm: Some(-70.0),
        ..CrossLayer::default()
    };
    let mut out = Vec::new();
    let mut now = SimTime::from_millis(1);
    let (mut id, mut hello_seq) = (0u32, 0u32);
    per_op_ns(batch_s, || {
        // HELLOs and the sweep timer arrive as often as in a run (every
        // second or so of simulated time), keeping neighbours alive and
        // the duplicate cache bounded.
        hello_seq += 1;
        for nb in 1..=8 {
            hello_from(&mut routing, nb, hello_seq, now, &mut out);
        }
        routing.on_timer(RoutingTimer::Sweep, &cross, now, &mut out);
        out.clear();
        for _ in 0..64 {
            id += 1;
            let rreq = Rreq {
                key: RreqKey {
                    origin: NodeId(100 + id % 40),
                    id,
                },
                origin_seq: id,
                target: NodeId(200 + id % 40),
                target_seq: None,
                hop_count: 2,
                path_load: 0.3,
                ttl: 16,
            };
            for copy in 0..4 {
                let from = NodeId(1 + (id + copy) % 8);
                routing.on_packet(Packet::Rreq(rreq), from, &cross, now, &mut out);
                now += SimDuration::from_millis(2);
            }
            out.clear();
        }
        64 * 4
    })
}

/// `Routing::on_packet` per data packet relayed over a valid route.
fn forward_cost(batch_s: f64) -> f64 {
    let mut routing = Routing::new(
        NodeId(0),
        RoutingConfig::default(),
        Box::new(Flooding::new()),
        SimRng::new(6),
    );
    let cross = CrossLayer::default();
    let mut out = Vec::new();
    let mut now = SimTime::from_millis(1);
    let (mut seq, mut hello_seq) = (0u32, 0u32);
    per_op_ns(batch_s, || {
        hello_seq += 1;
        for nb in 1..=8 {
            hello_from(&mut routing, nb, hello_seq, now, &mut out);
        }
        out.clear();
        for _ in 0..512 {
            seq += 1;
            let data = DataPacket {
                flow: FlowId(seq % 8),
                seq,
                src: NodeId(1 + seq % 4),
                dst: NodeId(5 + seq % 4),
                payload: 512,
                created: now,
            };
            routing.on_packet(Packet::Data(data), data.src, &cross, now, &mut out);
            now += SimDuration::from_millis(1);
        }
        debug_assert!(out.len() == 512, "every packet is relayed");
        out.clear();
        512
    })
}

fn table_lookup(batch_s: f64) -> f64 {
    let mut table = RouteTable::new();
    let now = SimTime::from_millis(1);
    for d in 0..64u32 {
        table.offer(
            NodeId(d),
            NodeId(d % 8),
            3,
            1,
            3.0,
            SimDuration::from_secs(10),
            now,
        );
    }
    let mut d = 0u32;
    per_op_ns(batch_s, || {
        for _ in 0..4096 {
            d = (d + 7) % 64;
            black_box(table.valid_route(NodeId(black_box(d)), now));
        }
        4096
    })
}

fn telemetry_event(i: u64) -> TelemetryEvent {
    TelemetryEvent {
        t_ns: 1_000 * i,
        run: 1,
        node: (i % 64) as u32,
        kind: EventKind::PhyTxStart {
            tx_id: i,
            bytes: 546,
        },
    }
}

fn sweep_builder() -> ScenarioBuilder {
    cnlr::presets::backbone(8, 40, 11)
        .flows(40, 8.0, 512)
        .telemetry(TelemetryConfig::disabled())
}

/// A result line the size of a real one, from a short real run.
fn sample_job_result() -> JobResult {
    let r = cnlr::presets::small(2)
        .telemetry(TelemetryConfig::disabled())
        .build()
        .expect("preset builds")
        .run();
    JobResult {
        job: 17,
        ok: true,
        error: None,
        wall_s: 0.1234,
        events: r.events,
        metrics: wmn_served::standard_metrics(&r)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        counters: r
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        pathloss_evals: r.medium.pathloss_evals,
        link_cache_hits: r.medium.link_cache_hits,
        link_budgets: r.medium.link_budgets,
        prefix_reused: true,
        warm_import: false,
    }
}

/// Round trip of a `ping` on a connected client; the daemon has no
/// workers, so nothing else runs.
fn ping_us(batch_s: f64) -> f64 {
    let socket = crate::out_dir().join(format!("ping-{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        socket: socket.clone(),
        workers: 0,
        queue_cap: 1,
    })
    .expect("daemon binds its socket");
    let mut client = Client::connect(&socket).expect("daemon accepts");
    let ns = per_op_ns(batch_s, || {
        for _ in 0..64 {
            client.ping().expect("daemon answers ping");
        }
        64
    });
    drop(client);
    server.join();
    ns / 1000.0
}

/// Every unit cost, by catalogue name. `seconds` is the run's `--seconds`:
/// the whole pass takes a little less than that.
pub fn measure(seconds: f64) -> Vec<(&'static str, f64)> {
    let b = seconds * 0.004;
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    m.push(("sim.queue.hold_ns_d1k", queue_hold(b, 1 << 10)));
    m.push(("sim.queue.hold_ns_d64k", queue_hold(b, 1 << 16)));
    let mut rng = SimRng::new(1);
    m.push((
        "sim.rng.f64_ns",
        per_op_ns(b, || {
            let mut acc = 0.0;
            for _ in 0..4096 {
                acc += rng.f64();
            }
            black_box(acc);
            4096
        }),
    ));
    m.push(("sim.engine.dispatch_ns", engine_dispatch(b)));
    m.push(("sim.shard.epoch_us_t1", shard_epoch_us(b, 1)));
    m.push(("sim.shard.epoch_us_t2", shard_epoch_us(b, 2)));
    m.push(("sim.shard.merge_ns_per_event", shard_merge_ns(b)));
    let (seal, read) = checkpoint_mib_s(b);
    m.push(("sim.checkpoint.seal_mib_s", seal));
    m.push(("sim.checkpoint.read_mib_s", read));

    let phy = PhyParams::classic_802_11b();
    let mut d = 10.0f64;
    m.push((
        "radio.rx_power_ns",
        per_op_ns(b, || {
            let mut acc = 0.0;
            for i in 0..4096u32 {
                d = 10.0 + (d * 1.37) % 600.0;
                acc += phy.rx_power_dbm(black_box(d), i % 64, (i + 1) % 64);
            }
            black_box(acc);
            4096
        }),
    ));
    let bits = wmn_radio::frame::error_model_bits(546);
    let mut sinr = 1.0f64;
    m.push((
        "radio.per_ns",
        per_op_ns(b, || {
            let mut acc = 0.0;
            for _ in 0..4096 {
                // SINR between 0 and 20 dB, where the PER curve bends.
                sinr = 1.0 + (sinr * 1.618) % 99.0;
                acc += Rate::Dbpsk1Mbps.per(black_box(sinr), bits);
            }
            black_box(acc);
            4096
        }),
    ));
    let two_ray = PathLoss::default_two_ray();
    m.push((
        "radio.pathloss_ns",
        per_op_ns(b, || {
            let mut acc = 0.0;
            for _ in 0..4096 {
                d = 10.0 + (d * 1.37) % 600.0;
                acc += two_ray.loss_db(black_box(d));
            }
            black_box(acc);
            4096
        }),
    ));

    let (region, mut index) = backbone_index(&phy);
    let radius = phy.interference_range_m() + 25.0;
    let mut found = Vec::new();
    let mut node = 0usize;
    m.push((
        "topology.spatial.query_ns",
        per_op_ns(b, || {
            for _ in 0..1024 {
                node = (node + 5) % index.len();
                index.query_radius(index.position(node), radius, node, &mut found);
                black_box(found.len());
            }
            1024
        }),
    ));
    let mut step = 0u64;
    m.push((
        "topology.spatial.move_ns",
        per_op_ns(b, || {
            for _ in 0..4096 {
                step += 1;
                node = (node + 5) % index.len();
                let p = index.position(node);
                // 40 m hops along x, folded into the field: some cross a
                // cell border (bucket move), most do not.
                let x = (p.x + 40.0) % region.width;
                index.update(node, Vec2::new(x, p.y));
            }
            black_box(index.epoch());
            4096
        }),
    ));
    let mut mrng = SimRng::new(8);
    let walker = Mobility::new(
        MobilityConfig::RandomWaypoint {
            v_min: 1.0,
            v_max: 10.0,
            pause_s: 2.0,
        },
        Vec2::new(300.0, 300.0),
        region,
        SimTime::ZERO,
        &mut mrng,
    );
    let leg_ns = walker.next_update().as_nanos().max(2);
    let mut t_ns = 0u64;
    m.push((
        "mobility.sample_ns",
        per_op_ns(b, || {
            let mut acc = 0.0;
            for _ in 0..4096 {
                t_ns = (t_ns + 7_919_000) % leg_ns;
                acc += walker.position(SimTime(black_box(t_ns))).x;
            }
            black_box(acc);
            4096
        }),
    ));

    let medium = medium_costs(b);
    m.push(("core.medium.start_tx_warm_ns", medium.start_tx_warm_ns));
    m.push(("core.medium.start_tx_cold_ns", medium.start_tx_cold_ns));
    m.push(("core.medium.rx_end_ns", medium.rx_end_ns));
    m.push(("mac.dcf.frame_ns", dcf_frame(b)));
    m.push(("mac.dcf.sense_ns", dcf_sense(b)));
    m.push(("mac.dcf.rx_frame_ns", dcf_rx_frame(b)));
    m.push((
        "routing.rreq_ns_flooding",
        rreq_cost(b, || Box::new(Flooding::new())),
    ));
    m.push((
        "routing.rreq_ns_cnlr",
        rreq_cost(b, || Box::new(CnlrPolicy::new(CnlrConfig::default()))),
    ));
    m.push(("routing.forward_ns", forward_cost(b)));
    m.push(("routing.table.lookup_ns", table_lookup(b)));

    let off = Tel::off();
    let mut i = 0u64;
    m.push((
        "telemetry.emit_off_ns",
        per_op_ns(b, || {
            for _ in 0..4096 {
                i += 1;
                black_box(&off).emit_at((i % 64) as u32, SimTime(i), telemetry_event(i).kind);
            }
            4096
        }),
    ));
    let memory = Arc::new(Mutex::new(MemorySink::default()));
    let on = Tel::new(memory.clone() as SharedSink, 1);
    m.push((
        "telemetry.emit_mem_ns",
        per_op_ns(b, || {
            for _ in 0..4096 {
                i += 1;
                on.emit_at((i % 64) as u32, SimTime(i), telemetry_event(i).kind);
            }
            // Keep the sink at its steady capacity instead of growing it
            // for the whole batch.
            memory.lock().expect("sink lock").events.clear();
            4096
        }),
    ));
    m.push((
        "telemetry.jsonl_ns",
        per_op_ns(b, || {
            for _ in 0..256 {
                i += 1;
                black_box(telemetry_event(black_box(i)).to_jsonl());
            }
            256
        }),
    ));
    let mut hist = LogHistogram::new();
    m.push((
        "telemetry.histogram.record_ns",
        per_op_ns(b, || {
            for _ in 0..4096 {
                i += 1;
                hist.record(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40));
            }
            black_box(hist.count());
            4096
        }),
    ));

    m.push((
        "core.builder.build_ms_8x8",
        per_op_ns(b, || {
            black_box(
                sweep_builder()
                    .build()
                    .expect("backbone builds")
                    .network
                    .nodes
                    .len(),
            );
            1
        }) / 1e6,
    ));
    m.push((
        "core.builder.build_ms_2500",
        per_op_ns(b, || {
            let sim = cnlr::presets::scale_grid(2500, 100, 11)
                .telemetry(TelemetryConfig::disabled())
                .build()
                .expect("scale grid builds");
            black_box(sim.network.nodes.len());
            1
        }) / 1e6,
    ));
    let prefix = sweep_builder()
        .build_prefix()
        .expect("backbone prefix builds");
    m.push((
        "core.builder.prefix_reuse_ms",
        per_op_ns(b, || {
            let sim = sweep_builder()
                .build_with_prefix(&prefix)
                .expect("prefix matches its own builder");
            black_box(sim.network.nodes.len());
            1
        }) / 1e6,
    ));

    let line = Request::Run {
        spec: ScenarioSpec::default(),
        priority: 0,
        stream: false,
    }
    .to_line();
    m.push((
        "served.proto.parse_ns",
        per_op_ns(b, || {
            for _ in 0..64 {
                black_box(Request::parse(black_box(&line)).expect("own line parses"));
            }
            64
        }),
    ));
    let result = sample_job_result();
    m.push((
        "served.proto.result_encode_ns",
        per_op_ns(b, || {
            for _ in 0..64 {
                black_box(black_box(&result).to_line());
            }
            64
        }),
    ));
    m.push(("served.ping_us", ping_us(b)));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_cost_in_the_catalogue_is_measured_and_positive() {
        let measured = measure(0.05);
        for (name, value) in &measured {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        let names: Vec<&str> = measured.iter().map(|(n, _)| *n).collect();
        // The unit costs are the catalogue's first block, in order.
        let catalogue: Vec<&str> = crate::catalogue::PER_LAYER[..names.len()]
            .iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, catalogue);
        assert_eq!(names.last(), Some(&"served.ping_us"));
    }

    #[test]
    fn beat_engine_has_one_barrier_per_millisecond() {
        let (report, _) = beat_engine(50).run(1);
        assert!(report.epochs >= 50, "{} epochs", report.epochs);
        assert!(report.cross_region >= 50 * 256);
    }
}
