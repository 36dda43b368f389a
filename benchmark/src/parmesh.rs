//! The ParMesh scale workload: `ParMesh::run` on one thread.

use crate::digest;
use crate::gen::ParMeshSpec;
use crate::span::{scoped, Recorder};
use cnlr::{ParMesh, ParMeshOutcome, ParMeshReport};
use std::time::Instant;
use wmn_sim::{SimDuration, SimTime};

/// The run a spec describes, on `threads` workers.
pub fn configure(spec: &ParMeshSpec, threads: usize) -> ParMesh {
    ParMesh::new(spec.nodes)
        .seed(spec.seed)
        .flows(spec.flows)
        .interval(SimDuration::from_millis(spec.interval_ms))
        .duration(SimDuration::from_millis(spec.duration_ms))
        .regions(spec.regions)
        .threads(threads)
}

pub struct Pass {
    /// `ParMesh::run` wall per spec, milliseconds (construction included:
    /// the API builds and runs in one call).
    pub job_ms: Vec<f64>,
    pub outcomes: Vec<ParMeshOutcome>,
    pub failures: Vec<String>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.job_ms.iter().sum::<f64>() / 1000.0
    }

    pub fn digest(&self) -> u64 {
        digest::fold(self.outcomes.iter().map(|o| digest::of_parmesh(&o.report)))
    }
}

/// Zero-horizon runs: placement, churn schedule, spatial hash, region
/// worlds and priming, with no simulated time — the set-up inside `run`.
pub fn setup_once(specs: &[ParMeshSpec]) -> f64 {
    let t = Instant::now();
    for spec in specs {
        let out = configure(spec, 1).duration(SimDuration::ZERO).run();
        std::hint::black_box(out.report.events);
    }
    t.elapsed().as_secs_f64()
}

/// Run every spec once with `tune` applied (threads, profiling, …).
/// `between` runs before every run and after the last, outside every timing.
pub fn pass(
    specs: &[ParMeshSpec],
    rec: Option<&Recorder>,
    threads: usize,
    tune: impl Fn(ParMesh) -> ParMesh,
    between: &mut dyn FnMut(),
) -> Pass {
    let mut out = Pass {
        job_ms: Vec::new(),
        outcomes: Vec::new(),
        failures: Vec::new(),
    };
    scoped(rec, "bench.pass", None, 0, |pass_span| {
        for (i, spec) in specs.iter().enumerate() {
            let cfg = tune(configure(spec, threads));
            between();
            let t = Instant::now();
            let outcome = scoped(rec, "core.parmesh.run", pass_span, i as u32 + 1, |_| {
                cfg.run()
            });
            out.job_ms.push(t.elapsed().as_secs_f64() * 1000.0);
            if let Some(why) = check(&outcome.report, spec) {
                out.failures.push(format!("run {i}: {why}"));
            }
            out.outcomes.push(outcome);
        }
        between();
    });
    out
}

/// Conservation: every originated packet is delivered, dropped with a
/// reason, or still in flight at the horizon.
fn check(r: &ParMeshReport, spec: &ParMeshSpec) -> Option<String> {
    let accounted = r.delivered + r.dropped_no_route + r.dropped_expired + r.dropped_node_down;
    if accounted > r.originated {
        return Some(format!(
            "delivered + dropped = {accounted} > originated {}",
            r.originated
        ));
    }
    if r.end_time != SimTime::ZERO + SimDuration::from_millis(spec.duration_ms) {
        return Some(format!("ended at {} before the horizon", r.end_time));
    }
    if r.nodes != spec.nodes || r.originated == 0 || r.delivered == 0 {
        return Some("wrong size or no traffic".into());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pass_conserves_and_repeats() {
        let specs = [ParMeshSpec {
            seed: 4,
            nodes: 2_000,
            flows: 500,
            interval_ms: 250,
            duration_ms: 2_000,
            regions: 256,
        }];
        let a = pass(&specs, None, 1, |p| p, &mut || {});
        let b = pass(&specs, None, 2, |p| p.profile(true), &mut || {});
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(
            a.digest(),
            b.digest(),
            "threads and profiling are wall-only"
        );
        assert!(b.outcomes[0].profile.is_some());
        assert!(setup_once(&specs) > 0.0);
    }
}
