//! The one scenario description: what `wmn-sim` and `wmn-submit` parse
//! their flags into, what travels over the daemon's socket, and what the
//! `--served` figure sweeps and the benchmark build their jobs from.
//!
//! Everything a scenario field needs lives here — the struct field, its
//! default, its bound in [`ScenarioSpec::validate`], its wire key in
//! [`ScenarioSpec::write_members`] / [`ScenarioSpec::from_pairs`], its row in
//! the command-line flag table and its lowering in
//! [`ScenarioSpec::to_builder`].

use crate::cli::{parse, parse_pair, Argv};
use crate::{FaultPlan, ScenarioBuilder, Scheme};
use wmn_mobility::MobilityConfig;
use wmn_sim::SimDuration;
use wmn_telemetry::json::{get, JsonValue, ObjectWriter};

/// A scenario: enough to express every served figure sweep (fig3's 8×8
/// load sweep, fig11's 6×6 churn sweep) exactly, while staying a flat JSON
/// object the hand-rolled parser can read.
///
/// Seeds are serialised as JSON *strings*; a bare integer is accepted too
/// (the reader keeps plain integers exact over the full 64 bits).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed.
    pub seed: u64,
    /// Scheme spec string ([`Scheme::parse`] grammar).
    pub scheme: String,
    /// Backbone grid rows.
    pub grid_rows: usize,
    /// Backbone grid columns.
    pub grid_cols: usize,
    /// Grid pitch, metres.
    pub pitch_m: f64,
    /// Number of random CBR flows.
    pub flows: usize,
    /// Per-flow packet rate, packets/s.
    pub pps: f64,
    /// Payload size, bytes.
    pub payload: usize,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Statistics warm-up, seconds.
    pub warmup_s: f64,
    /// Mobile client count (0 = static mesh).
    pub clients: usize,
    /// Mobile client max speed, m/s.
    pub client_speed: f64,
    /// Node churn as `(mtbf_s, mttr_s)`, absent for fault-free runs.
    pub churn: Option<(f64, f64)>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 1,
            scheme: "cnlr".into(),
            grid_rows: 8,
            grid_cols: 8,
            pitch_m: 180.0,
            flows: 20,
            pps: 4.0,
            payload: 512,
            duration_s: 60.0,
            warmup_s: 10.0,
            clients: 0,
            client_speed: 10.0,
            churn: None,
        }
    }
}

/// Side of a spatial-index cell, metres: the nominal radio range of the
/// default PHY (`ConnectivityGraph::from_positions`; the medium's own index
/// uses half the 550 m interference range, which is coarser).
const INDEX_CELL_M: f64 = 250.0;
/// Most index cells a valid region may span. 10 000 routers at a pitch of
/// one full radio range cover 10 000; 250 000 is a 125 km square, 8 MB of
/// empty buckets.
const MAX_INDEX_CELLS: f64 = 250_000.0;
/// Most crash/reboot cycles a valid churn may be expected to schedule
/// (nodes × duration / (mtbf + mttr)); fig11's heaviest cell expects 86.
const MAX_CHURN_FAULTS: f64 = 100_000.0;

/// One command-line flag of a scenario. [`FLAGS`] is the only place that
/// maps a flag to a spec field: `wmn-sim` and `wmn-submit` both parse and
/// document their scenario flags through it.
struct Flag {
    name: &'static str,
    /// Shape of the value, as the help text shows it.
    shape: &'static str,
    help: &'static str,
    set: fn(&mut ScenarioSpec, &str) -> Result<(), String>,
    /// The field's current value, for the `[default]` column.
    show: fn(&ScenarioSpec) -> String,
}

/// A flag whose value is its field's `FromStr` / `Display` form.
macro_rules! plain {
    ($name:literal $shape:literal, $help:literal, $field:ident) => {
        Flag {
            name: $name,
            shape: $shape,
            help: $help,
            set: |s, v| {
                s.$field = parse($name, v)?;
                Ok(())
            },
            show: |s| s.$field.to_string(),
        }
    };
}

const FLAGS: &[Flag] = &[
    plain!("--scheme" "S", "flooding | gossip:P[:K] | counter:C[:RAD_MS] |\n\
        \x20                   distance:DBM | cnlr | vap", scheme),
    plain!("--seed" "N", "master seed", seed),
    Flag {
        name: "--grid",
        shape: "R[xC]",
        help: "backbone router grid, rows x columns (C = R if omitted)",
        set: |s, v| {
            let (rows, cols) = v.split_once('x').unwrap_or((v, v));
            (s.grid_rows, s.grid_cols) = (parse("--grid", rows)?, parse("--grid", cols)?);
            Ok(())
        },
        show: |s| format!("{}x{}", s.grid_rows, s.grid_cols),
    },
    plain!("--pitch" "M", "grid pitch, metres", pitch_m),
    plain!("--flows" "N", "random CBR flows", flows),
    plain!("--pps" "R", "packets per second per flow", pps),
    plain!("--payload" "B", "payload bytes", payload),
    plain!("--duration" "S", "simulated seconds", duration_s),
    plain!("--warmup" "S", "statistics warm-up seconds", warmup_s),
    plain!("--clients" "N", "mobile random-waypoint clients", clients),
    plain!("--client-speed" "V", "client max speed, m/s", client_speed),
    Flag {
        name: "--churn",
        shape: "MTBF,MTTR",
        help: "stochastic crash/reboot of every node, mean seconds",
        set: |s, v| {
            s.churn = Some(parse_pair("--churn", v, ',')?);
            Ok(())
        },
        show: |s| s.churn.map_or("off".into(), |(a, b)| format!("{a},{b}")),
    },
];

impl ScenarioSpec {
    /// If `flag` is a scenario flag, take its value from `argv`, store it
    /// and return `true`; `false` leaves `argv` untouched for the caller's
    /// own flags. Shapes are checked here, ranges by
    /// [`ScenarioSpec::validate`] once the whole line is read.
    pub fn set_flag(&mut self, flag: &str, argv: &mut Argv) -> Result<bool, String> {
        let Some(f) = FLAGS.iter().find(|f| f.name == flag) else {
            return Ok(false);
        };
        (f.set)(self, &argv.value(flag)?)?;
        Ok(true)
    }

    /// The scenario flags as help-text lines, defaults in brackets.
    pub fn flag_help() -> String {
        let default = ScenarioSpec::default();
        let line = |f: &Flag| {
            let flag = format!("{} {}", f.name, f.shape);
            format!("  {flag:<18}{} [{}]\n", f.help, (f.show)(&default))
        };
        FLAGS.iter().map(line).collect()
    }

    /// Validate every field, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        Scheme::parse(&self.scheme)?;
        if self.grid_rows < 2 || self.grid_cols < 2 {
            return Err("grid must be at least 2x2".into());
        }
        // Checked: a wire value near 2^63 must not wrap to a small product.
        let nodes = (self.grid_rows.checked_mul(self.grid_cols))
            .and_then(|backbone| backbone.checked_add(self.clients));
        let Some(nodes) = nodes.filter(|&n| n <= 10_000) else {
            return Err("more than 10000 nodes".into());
        };
        // Positive, and of a size whose products, reciprocals and
        // nanosecond counts stay finite: NaN, ±inf, 0, 1e-320 and 1e300
        // are all outside.
        let (mtbf, mttr) = self.churn.unwrap_or((1.0, 1.0)); // absent churn passes
        for (name, x) in [
            ("pitch_m", self.pitch_m),
            ("pps", self.pps),
            ("duration_s", self.duration_s),
            ("client_speed", self.client_speed),
            ("churn mtbf", mtbf),
            ("churn mttr", mttr),
        ] {
            if !(1e-9..=1e9).contains(&x) {
                return Err(format!("{name} must be positive (1e-9 to 1e9)"));
            }
        }
        // Two sizes derived from fields that each pass alone. The spatial
        // indexes lay a dense grid of radio-range cells over the region,
        // and churn is expanded into its whole schedule before the run:
        // neither has an interrupt point, and the first aborts on allocation.
        let cells = (self.grid_rows as f64 * self.pitch_m / INDEX_CELL_M).ceil()
            * (self.grid_cols as f64 * self.pitch_m / INDEX_CELL_M).ceil();
        if cells > MAX_INDEX_CELLS {
            return Err(format!(
                "region too large: more than {MAX_INDEX_CELLS} cells of {INDEX_CELL_M} m"
            ));
        }
        let faults = nodes as f64 * self.duration_s / (mtbf + mttr);
        if self.churn.is_some() && faults > MAX_CHURN_FAULTS {
            return Err(format!(
                "churn too fast: more than {MAX_CHURN_FAULTS} crashes expected"
            ));
        }
        if self.payload == 0 {
            return Err("payload must be positive".into());
        }
        if !(self.warmup_s >= 0.0 && self.warmup_s < self.duration_s) {
            return Err("warmup_s must be in [0, duration_s)".into());
        }
        Ok(())
    }

    /// Lower into a [`ScenarioBuilder`]. The mapping is fixed so that a
    /// spec submitted over the socket builds the *same* scenario as the
    /// equivalent one-shot figure binary — the byte-identity guarantee
    /// depends on it.
    pub fn to_builder(&self) -> Result<ScenarioBuilder, String> {
        self.validate()?;
        let scheme = Scheme::parse(&self.scheme)?;
        let mut b = ScenarioBuilder::new()
            .seed(self.seed)
            .grid(self.grid_rows, self.grid_cols, self.pitch_m)
            .scheme(scheme)
            .flows(self.flows, self.pps, self.payload)
            .duration(SimDuration::from_secs_f64(self.duration_s))
            .warmup(SimDuration::from_secs_f64(self.warmup_s));
        if self.clients > 0 {
            b = b.mobile_clients(
                self.clients,
                MobilityConfig::RandomWaypoint {
                    v_min: 1.0,
                    v_max: self.client_speed.max(1.0),
                    pause_s: 2.0,
                },
            );
        }
        if let Some(plan) = self.fault_plan() {
            b = b.faults(plan);
        }
        Ok(b)
    }

    /// The spec's fault plan: node churn, absent for a fault-free run
    /// (`wmn-sim --fail` scripts its crashes onto this).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.churn.map(|(mtbf, mttr)| {
            FaultPlan::new().churn(
                SimDuration::from_secs_f64(mtbf),
                SimDuration::from_secs_f64(mttr),
            )
        })
    }

    /// Whether a warm link-budget cache may be handed between runs of this
    /// spec's prefix. Mobility and faults bump the medium's position epoch
    /// / gain state mid-run, so only static fault-free worlds qualify (the
    /// medium re-checks on both export and import).
    pub fn warm_cache_eligible(&self) -> bool {
        self.clients == 0 && self.churn.is_none()
    }

    /// Write the spec's fields as members of a request line.
    pub fn write_members(&self, o: &mut ObjectWriter<'_>) {
        o.field("seed", &self.seed.to_string())
            .field("scheme", &self.scheme)
            .field("grid_rows", &self.grid_rows)
            .field("grid_cols", &self.grid_cols)
            .field("pitch_m", &self.pitch_m)
            .field("flows", &self.flows)
            .field("pps", &self.pps)
            .field("payload", &self.payload)
            .field("duration_s", &self.duration_s)
            .field("warmup_s", &self.warmup_s);
        if self.clients > 0 {
            o.field("clients", &self.clients)
                .field("client_speed", &self.client_speed);
        }
        if let Some((mtbf, mttr)) = self.churn {
            o.field("churn_mtbf_s", &mtbf).field("churn_mttr_s", &mttr);
        }
    }

    /// Reconstruct a spec from parsed request pairs. Missing fields take
    /// their defaults; present fields must have the right shape.
    pub fn from_pairs(pairs: &[(String, JsonValue)]) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::default();
        if let Some(v) = get(pairs, "seed") {
            spec.seed = match v {
                JsonValue::Str(s) => s.parse::<u64>().map_err(|_| format!("bad seed '{s}'"))?,
                other => other.as_u64().ok_or("bad seed")?,
            };
        }
        if let Some(v) = get(pairs, "scheme") {
            spec.scheme = v.as_str().ok_or("scheme must be a string")?.to_string();
        }
        let usize_field = |key: &str, slot: &mut usize| -> Result<(), String> {
            if let Some(v) = get(pairs, key) {
                *slot = v.as_u64().ok_or_else(|| format!("bad {key}"))? as usize;
            }
            Ok(())
        };
        usize_field("grid_rows", &mut spec.grid_rows)?;
        usize_field("grid_cols", &mut spec.grid_cols)?;
        usize_field("flows", &mut spec.flows)?;
        usize_field("payload", &mut spec.payload)?;
        usize_field("clients", &mut spec.clients)?;
        let f64_field = |key: &str, slot: &mut f64| -> Result<(), String> {
            if let Some(v) = get(pairs, key) {
                *slot = v.as_f64().ok_or_else(|| format!("bad {key}"))?;
            }
            Ok(())
        };
        f64_field("pitch_m", &mut spec.pitch_m)?;
        f64_field("pps", &mut spec.pps)?;
        f64_field("duration_s", &mut spec.duration_s)?;
        f64_field("warmup_s", &mut spec.warmup_s)?;
        f64_field("client_speed", &mut spec.client_speed)?;
        let mtbf = get(pairs, "churn_mtbf_s").map(|v| v.as_f64().ok_or("bad churn_mtbf_s"));
        let mttr = get(pairs, "churn_mttr_s").map(|v| v.as_f64().ok_or("bad churn_mttr_s"));
        spec.churn = match (mtbf, mttr) {
            (Some(a), Some(b)) => Some((a?, b?)),
            (None, None) => None,
            _ => return Err("churn needs both churn_mtbf_s and churn_mttr_s".into()),
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_telemetry::json::{object, Layout};
    use wmn_telemetry::parse_object;

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let spec = ScenarioSpec {
            // A seed above 2^53 would corrupt through an f64 number path.
            seed: 0xDEAD_BEEF_CAFE_F00D,
            scheme: "gossip:0.65".into(),
            grid_rows: 6,
            grid_cols: 7,
            pitch_m: 170.5,
            flows: 12,
            pps: 4.25,
            payload: 256,
            duration_s: 20.5,
            warmup_s: 5.25,
            clients: 3,
            client_speed: 12.5,
            churn: Some((30.0, 10.0)),
        };
        let line = object(Layout::Compact, |o| spec.write_members(o));
        let pairs = parse_object(&line).expect("parses");
        let back = ScenarioSpec::from_pairs(&pairs).expect("valid");
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let pairs = parse_object("{\"seed\":\"7\",\"flows\":3}").unwrap();
        let spec = ScenarioSpec::from_pairs(&pairs).unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.flows, 3);
        assert_eq!(spec.scheme, "cnlr");
        assert_eq!(spec.churn, None);
    }

    #[test]
    fn seeds_are_exact_as_string_or_bare_integer() {
        for line in [
            "{\"seed\":\"16045690984503111693\"}",
            "{\"seed\":16045690984503111693}",
        ] {
            let spec = ScenarioSpec::from_pairs(&parse_object(line).unwrap()).unwrap();
            assert_eq!(spec.seed, 0xDEAD_BEEF_CAFE_F00D, "{line}");
        }
        let too_big = parse_object("{\"seed\":18446744073709551616}").unwrap();
        assert!(ScenarioSpec::from_pairs(&too_big).is_err());
    }

    #[test]
    fn validation_rejects_nonsense() {
        for bad in [
            "{\"scheme\":\"nope\"}",
            "{\"grid_rows\":1}",
            "{\"pps\":0}",
            "{\"payload\":0}",
            "{\"duration_s\":0}",
            "{\"warmup_s\":99,\"duration_s\":10}",
            "{\"churn_mtbf_s\":30}",
            "{\"churn_mtbf_s\":0,\"churn_mttr_s\":10}",
            // rows * cols wraps to 2 in unchecked usize arithmetic.
            "{\"grid_rows\":9223372036854775809,\"grid_cols\":2}",
        ] {
            let pairs = parse_object(bad).unwrap();
            assert!(ScenarioSpec::from_pairs(&pairs).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn builder_mapping_matches_fig3_preset() {
        // The served fig3 sweep must build the same scenario as
        // `presets::backbone(8, 0, seed).flows(x, 8.0, 512)`.
        let spec = ScenarioSpec {
            seed: 42,
            scheme: "flooding".into(),
            flows: 10,
            pps: 8.0,
            duration_s: 20.0,
            warmup_s: 5.0,
            ..ScenarioSpec::default()
        };
        let via_spec = spec.to_builder().unwrap();
        let direct = crate::presets::backbone(8, 0, 42)
            .scheme(Scheme::Flooding)
            .flows(10, 8.0, 512)
            .duration(SimDuration::from_secs(20))
            .warmup(SimDuration::from_secs(5));
        assert_eq!(
            via_spec.prefix_fingerprint(),
            direct.prefix_fingerprint(),
            "spec lowering drifted from the one-shot preset"
        );
    }

    #[test]
    fn the_readme_prints_the_generated_flag_list() {
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&ScenarioSpec::flag_help()),
            "README.md's scenario flag list is not `ScenarioSpec::flag_help()`:\n{}",
            ScenarioSpec::flag_help()
        );
    }

    #[test]
    fn warm_cache_eligibility() {
        let mut spec = ScenarioSpec::default();
        assert!(spec.warm_cache_eligible());
        spec.clients = 2;
        assert!(!spec.warm_cache_eligible());
        spec.clients = 0;
        spec.churn = Some((30.0, 10.0));
        assert!(!spec.warm_cache_eligible());
    }
}
