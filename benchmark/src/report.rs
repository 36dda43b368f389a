//! Run records and what is made of them: the contract's result line, the
//! tab-separated record file, the summary table and the A/A comparison.
//!
//! Record rows (one file per set of runs, appended to by every run):
//! `m <workload> <seed> <trace> <rev> <host_cores> <threads_used> <metric> <value> <unit>`
//! `d <workload> <seed> <trace> <digest>`
//! `x <workload> <seed> <trace> <attempted> <failed>`

use crate::catalogue::{END_TO_END, EXACT_COUNTS, WORKLOADS};
use crate::run::{Args, Outcome};
use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;

/// The one JSON object the contract asks for on the last line of stdout.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failures.len(),
        metrics.join(", ")
    )
}

/// Append this run's rows. Every row carries the thread count the run
/// actually used, the host's cores, the git revision and the seed.
pub fn append_record(
    path: &std::path::Path,
    args: &Args,
    rev: &str,
    o: &Outcome,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let cores = wmn_telemetry::sample_host().host_cores;
    let trace = args.trace as u8;
    for (name, value, unit) in &o.metrics {
        writeln!(
            f,
            "m\t{}\t{}\t{trace}\t{rev}\t{cores}\t{}\t{name}\t{value}\t{unit}",
            args.workload, args.seed, o.threads_used
        )?;
    }
    writeln!(
        f,
        "d\t{}\t{}\t{trace}\t{:016x}",
        args.workload, args.seed, o.digest
    )?;
    writeln!(
        f,
        "x\t{}\t{}\t{trace}\t{}\t{}",
        args.workload,
        args.seed,
        o.attempted,
        o.failures.len()
    )
}

/// One metric's `(seed, value)` per run, and its unit.
type Samples = (Vec<(u64, f64)>, String);

/// One set of runs, read back.
#[derive(Default)]
pub struct Records {
    /// `(workload, metric)` → samples.
    pub metrics: BTreeMap<(String, String), Samples>,
    /// `(workload, seed)` → digests seen.
    pub digests: BTreeMap<(String, u64), Vec<String>>,
    /// workload → `(attempted, failed)` summed over its runs.
    pub checks: BTreeMap<String, (u64, u64)>,
    pub stamps: Vec<String>,
}

pub fn read_records(path: &std::path::Path) -> Result<Records, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut r = Records::default();
    for (n, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}:{}: malformed record row", path.display(), n + 1);
        match f.as_slice() {
            ["m", workload, seed, _trace, rev, cores, threads, metric, value, unit] => {
                let seed: u64 = seed.parse().map_err(|_| bad())?;
                let value: f64 = value.parse().map_err(|_| bad())?;
                r.metrics
                    .entry((workload.to_string(), metric.to_string()))
                    .or_insert_with(|| (Vec::new(), unit.to_string()))
                    .0
                    .push((seed, value));
                let stamp =
                    format!("rev {rev}, {cores} host cores, {workload} on {threads} threads");
                if !r.stamps.contains(&stamp) {
                    r.stamps.push(stamp);
                }
            }
            ["d", workload, seed, _trace, digest] => {
                let seed: u64 = seed.parse().map_err(|_| bad())?;
                let seen = r.digests.entry((workload.to_string(), seed)).or_default();
                if !seen.contains(&digest.to_string()) {
                    seen.push(digest.to_string());
                }
            }
            ["x", workload, _seed, _trace, attempted, failed] => {
                let e = r.checks.entry(workload.to_string()).or_default();
                e.0 += attempted.parse::<u64>().map_err(|_| bad())?;
                e.1 += failed.parse::<u64>().map_err(|_| bad())?;
            }
            _ => return Err(bad()),
        }
    }
    Ok(r)
}

fn values(samples: &[(u64, f64)]) -> Vec<f64> {
    samples.iter().map(|(_, v)| *v).collect()
}

impl Records {
    /// Jobs and checks that failed, over all runs.
    pub fn failed(&self) -> u64 {
        self.checks.values().map(|(_, failed)| failed).sum()
    }
}

/// Every metric by name with its unit: sample count, median, quartiles and
/// the noise floor (IQR ÷ median) where there are at least two samples.
pub fn summarise(r: &Records) -> String {
    let mut out = String::new();
    for stamp in &r.stamps {
        out.push_str(&format!("# {stamp}\n"));
    }
    out.push_str("workload\tmetric\tunit\tn\tmedian\tq1\tq3\tiqr/median\n");
    for w in &WORKLOADS {
        for ((workload, metric), (samples, unit)) in &r.metrics {
            if workload != w.name {
                continue;
            }
            let v = values(samples);
            let (q, spread) = if v.len() >= 2 {
                let (q1, q3) = stats::quartiles(&v);
                (
                    format!("{q1:.6}\t{q3:.6}"),
                    format!("{:.4}", stats::spread(&v)),
                )
            } else {
                ("-\t-".to_string(), "-".to_string())
            };
            out.push_str(&format!(
                "{workload}\t{metric}\t{unit}\t{}\t{:.6}\t{q}\t{spread}\n",
                v.len(),
                stats::median(&v)
            ));
        }
    }
    for (workload, (attempted, failed)) in &r.checks {
        out.push_str(&format!(
            "{workload}\tfailed_share\tratio\t{attempted}\t{:.6}\t-\t-\t-\n",
            *failed as f64 / (*attempted).max(1) as f64
        ));
    }
    for ((workload, seed), digests) in &r.digests {
        out.push_str(&format!(
            "digest\t{workload}\tseed {seed}\t{}\n",
            digests.join(" ")
        ));
    }
    out
}

/// By how much of `a` the metric got worse in `b` (negative: better).
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// A/A: two sets of runs of the same tree must agree within each metric's
/// bound, and on every digest and exact count. Returns the table and
/// whether everything held.
pub fn compare(a: &Records, b: &Records) -> (String, bool) {
    let mut out = String::from(
        "workload\tmetric\tmedian_a\tmedian_b\tworse_by\tbound\tspread_a\tspread_b\tverdict\n",
    );
    let mut ok = a.failed() + b.failed() == 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some((sa, _)), Some((sb, _))) = (a.metrics.get(&key), b.metrics.get(&key)) else {
                out.push_str(&format!(
                    "{}\t{}\tmissing from a set\t\t\t\t\t\tFAIL\n",
                    w.name, m.name
                ));
                ok = false;
                continue;
            };
            let (va, vb) = (values(sa), values(sb));
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse = worse_by(m.better, ma, mb);
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    stats::spread(v)
                } else {
                    0.0
                }
            };
            let (spa, spb) = (spread(&va), spread(&vb));
            // The set-up time's spread is reported but not judged: the
            // bound applies to its medians only.
            let spread_ok = m.name == "setup_s" || (spa <= m.bound && spb <= m.bound);
            let pass = worse <= m.bound && spread_ok;
            ok &= pass;
            out.push_str(&format!(
                "{}\t{}\t{ma:.6}\t{mb:.6}\t{worse:+.4}\t{}\t{spa:.4}\t{spb:.4}\t{}\n",
                w.name,
                m.name,
                m.bound,
                if pass { "ok" } else { "FAIL" }
            ));
        }
    }
    for (key, da) in &a.digests {
        let same = b.digests.get(key).is_some_and(|db| db == da) && da.len() == 1;
        ok &= same;
        out.push_str(&format!(
            "digest\t{}\tseed {}\t{}\t{}\n",
            key.0,
            key.1,
            da.join(" "),
            if same { "identical" } else { "DIFFERS" }
        ));
    }
    for ((workload, metric), (sa, _)) in &a.metrics {
        if !EXACT_COUNTS.contains(&metric.as_str()) {
            continue;
        }
        let sb = b
            .metrics
            .get(&(workload.clone(), metric.clone()))
            .map(|(s, _)| s);
        let same = sb.is_some_and(|sb| {
            sa.iter()
                .all(|(seed, v)| sb.iter().any(|(s2, v2)| s2 == seed && v2 == v))
        });
        if !same {
            ok = false;
            out.push_str(&format!("count\t{workload}\t{metric}\tDIFFERS\n"));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(wall: f64) -> Outcome {
        Outcome {
            attempted: 16,
            failures: Vec::new(),
            metrics: END_TO_END
                .iter()
                .map(|m| (m.name, if m.name == "wall_s" { wall } else { 2.5 }, m.unit))
                .collect(),
            threads_used: 1,
            digest: 0x00ff_00ff_00ff_00ff,
            notes: Vec::new(),
        }
    }

    fn args(seed: u64) -> Args {
        Args {
            workload: "stack_sweep".into(),
            seed,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(1.25));
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 16, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        let mut failed = outcome(1.0);
        failed.failures.push("cell 3: stopped early".into());
        assert!(
            result_line(&failed).contains("\"correct\": false")
                && result_line(&failed).contains("\"failed\": 1")
        );
    }

    #[test]
    fn records_round_trip_and_compare_judges_by_bound() {
        let dir = crate::out_dir().join(format!("test-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (pa, pb, pc) = (dir.join("a.tsv"), dir.join("b.tsv"), dir.join("c.tsv"));
        for seed in 1..=3 {
            append_record(
                &pa,
                &args(seed),
                "abc123",
                &outcome(2.0 + 0.01 * seed as f64),
            )
            .unwrap();
            append_record(
                &pb,
                &args(seed),
                "abc123",
                &outcome(2.1 + 0.01 * seed as f64),
            )
            .unwrap();
            append_record(
                &pc,
                &args(seed),
                "abc123",
                &outcome(2.6 + 0.01 * seed as f64),
            )
            .unwrap();
        }
        let (a, b, c) = (
            read_records(&pa).unwrap(),
            read_records(&pb).unwrap(),
            read_records(&pc).unwrap(),
        );
        let key = ("stack_sweep".to_string(), "wall_s".to_string());
        assert_eq!(values(&a.metrics[&key].0), vec![2.01, 2.02, 2.03]);
        assert!(summarise(&a).contains("stack_sweep\twall_s\ts\t3\t2.020000"));
        assert!(summarise(&a).contains("abc123"));

        // Only stack_sweep was recorded, so the other workloads are missing
        // and the overall verdict fails; judge the rows themselves.
        let row = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("stack_sweep\twall_s"))
                .unwrap()
                .to_string()
        };
        assert!(
            row(&compare(&a, &b).0).ends_with("ok"),
            "5 % worse is within 10 %"
        );
        assert!(
            row(&compare(&a, &c).0).ends_with("FAIL"),
            "29 % worse is not"
        );
        assert!(
            row(&compare(&c, &a).0).ends_with("ok"),
            "better is never a regression"
        );
        assert!(compare(&a, &b).0.contains("identical"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by("higher", 10.0, 11.0) < 0.0);
    }
}
