//! Full-stack workloads: each job is `ScenarioSpec → build → run_full`,
//! run back to back in-process on one thread, as a figure sweep does.

use crate::digest;
use crate::span::{scoped, Recorder};
use cnlr::RunResults;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wmn_served::ScenarioSpec;
use wmn_sim::{SimDuration, StopReason};
use wmn_telemetry::{EventKind, EventSink, SharedSink, TelemetryConfig, TelemetryEvent};

/// What one pass over the cells produced.
pub struct Pass {
    /// Sum of `build()` walls: the pass's set-up.
    pub setup_s: f64,
    /// `run_full()` wall per cell, milliseconds.
    pub job_ms: Vec<f64>,
    pub results: Vec<RunResults>,
    /// One message per failed cell.
    pub failures: Vec<String>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.job_ms.iter().sum::<f64>() / 1000.0
    }

    pub fn digest(&self) -> u64 {
        digest::fold(self.results.iter().map(digest::of_run))
    }
}

/// The telemetry sink of the traced pass: counts events and keeps the
/// deepest future-event list any `EngineProbe` saw. Storing the events (as
/// `MemorySink` does) would cost more memory than the run it observes.
#[derive(Default)]
pub struct CountSink {
    pub events: u64,
    pub depth_max: u64,
}

impl EventSink for CountSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.events += 1;
        if let EventKind::EngineProbe { heap, .. } = ev.kind {
            self.depth_max = self.depth_max.max(heap);
        }
    }
}

/// Build every cell and drop it: the set-up a pass pays, on its own.
pub fn setup_once(cells: &[ScenarioSpec]) -> f64 {
    let t = Instant::now();
    for spec in cells {
        let sim = builder_for(spec, None)
            .build()
            .expect("generated specs build");
        std::hint::black_box(&sim.network.nodes.len());
    }
    t.elapsed().as_secs_f64()
}

fn builder_for(spec: &ScenarioSpec, sink: Option<&Arc<Mutex<CountSink>>>) -> cnlr::ScenarioBuilder {
    let b = spec.to_builder().expect("generated specs are valid");
    match sink {
        // Explicitly off, never `from_env`: an inherited WMN_TELEMETRY must
        // not change what the benchmark measures.
        None => b.telemetry(TelemetryConfig::disabled()),
        Some(sink) => b
            .telemetry(TelemetryConfig {
                enabled: true,
                trace_path: None,
                probe_interval: Some(SimDuration::from_secs(1)),
                profile: true,
            })
            .telemetry_sink(sink.clone() as SharedSink),
    }
}

/// Run every cell once. With a sink the pass is the traced one: telemetry
/// and engine probes on, events counted into `sink`. `between` runs before
/// every cell and after the last, outside every timing.
pub fn pass(
    cells: &[ScenarioSpec],
    rec: Option<&Recorder>,
    sink: Option<&Arc<Mutex<CountSink>>>,
    between: &mut dyn FnMut(),
) -> Pass {
    let mut out = Pass {
        setup_s: 0.0,
        job_ms: Vec::with_capacity(cells.len()),
        results: Vec::with_capacity(cells.len()),
        failures: Vec::new(),
    };
    scoped(rec, "bench.pass", None, 0, |pass_span| {
        for (i, spec) in cells.iter().enumerate() {
            let run = i as u32 + 1;
            between();
            scoped(rec, "bench.job", pass_span, run, |job_span| {
                let builder = builder_for(spec, sink);
                let t = Instant::now();
                let sim = scoped(rec, "core.builder.build", job_span, run, |_| {
                    builder.build()
                });
                out.setup_s += t.elapsed().as_secs_f64();
                let sim = match sim {
                    Ok(sim) => sim,
                    Err(e) => {
                        out.failures
                            .push(format!("cell {i} ({}): build: {e}", spec.scheme));
                        return;
                    }
                };
                let t = Instant::now();
                let (results, network, reason) =
                    scoped(rec, "core.simulation.run_full", job_span, run, |_| {
                        sim.run_full()
                    });
                out.job_ms.push(t.elapsed().as_secs_f64() * 1000.0);
                drop(network);
                scoped(rec, "bench.check", job_span, run, |_| {
                    if let Some(why) = check(&results, reason) {
                        out.failures
                            .push(format!("cell {i} ({}): {why}", spec.scheme));
                    }
                });
                out.results.push(results);
            });
        }
        between();
    });
    out
}

/// A run fails on a non-horizon stop or a broken conservation identity.
fn check(r: &RunResults, reason: StopReason) -> Option<String> {
    if reason != StopReason::HorizonReached {
        return Some(format!("stopped with {reason:?}, not at the horizon"));
    }
    if r.summary.delivered > r.summary.sent {
        return Some(format!(
            "delivered {} > sent {}",
            r.summary.delivered, r.summary.sent
        ));
    }
    if r.events == 0 || r.summary.sent == 0 {
        return Some("no events or no traffic".into());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Inputs};

    #[test]
    fn passes_repeat_bit_for_bit_and_tracing_leaves_counters_alone() {
        let Inputs::Stack(mut cells) = generate("stack_mobile", 3, 0.1).unwrap() else {
            panic!("stack cells");
        };
        cells.truncate(2);
        let (a, b) = (
            pass(&cells, None, None, &mut || {}),
            pass(&cells, None, None, &mut || {}),
        );
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.job_ms.len(), 2);

        let sink = Arc::new(Mutex::new(CountSink::default()));
        let rec = Recorder::new();
        let mut hooks = 0;
        let traced = pass(&cells, Some(&rec), Some(&sink), &mut || hooks += 1);
        assert_eq!(hooks, 3, "before each cell and after the last");
        assert!(traced.failures.is_empty());
        for (t, u) in traced.results.iter().zip(&a.results) {
            assert_eq!(t.counters(), u.counters());
            assert_eq!(t.summary, u.summary);
        }
        let sink = sink.lock().unwrap();
        assert!(sink.events > 0 && sink.depth_max > 0);
        // pass + per cell (job, build, run_full, check)
        assert_eq!(rec.into_spans().len(), 1 + 2 * 4);
    }
}
