//! `ScenarioSpec` as a parser of outside input: command lines reach it
//! through the flag table, daemon job lines through `from_pairs`. Neither
//! may panic whatever arrives, and whatever they accept must be a
//! scenario the builder can take: at most 10 000 nodes counted without
//! wrap-around, and a prefix build that returns, under a watchdog,
//! instead of panicking, aborting on an allocation or running for ever.

use cnlr::cli::Argv;
use cnlr::{BuildError, ScenarioSpec};
use proptest::prelude::*;
use wmn_telemetry::JsonValue;

const FLAGS: [&str; 15] = [
    "--scheme",
    "--seed",
    "--grid",
    "--pitch",
    "--flows",
    "--pps",
    "--payload",
    "--duration",
    "--warmup",
    "--clients",
    "--client-speed",
    "--churn",
    "--hello",
    "--bogus",
    "-h",
];

const KEYS: [&str; 16] = [
    "seed",
    "scheme",
    "grid_rows",
    "grid_cols",
    "pitch_m",
    "flows",
    "pps",
    "payload",
    "duration_s",
    "warmup_s",
    "clients",
    "client_speed",
    "churn_mtbf_s",
    "churn_mttr_s",
    "hello_s",
    "op",
];

/// Values that have broken a parser or a bound somewhere before.
const NASTY: [&str; 28] = [
    "1e7",
    "1e6",
    "1e-9,1e-9",
    "1e9",
    "nan",
    "inf",
    "-inf",
    "-1",
    "0",
    "-0",
    "1e308",
    "1e-320",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775809",
    "9223372036854775809x2",
    "4294967296x4294967296",
    "3x",
    "x3",
    "x",
    "",
    ",",
    "3,",
    "nan,1",
    "60,5",
    "gossip:nan",
    "counter:18446744073709551615",
    "é∞",
];

/// One argv token from two random draws: a flag, a nasty value, a small
/// ordinary number (so that whole lines are accepted often), or raw bytes.
fn token(pick: u8, raw: u64) -> String {
    match pick % 8 {
        0..=2 => FLAGS[raw as usize % FLAGS.len()].to_string(),
        3 | 4 => NASTY[raw as usize % NASTY.len()].to_string(),
        5 => (raw % 40).to_string(),
        6 => format!("{}x{}", raw % 23, (raw >> 8) % 23),
        _ => String::from_utf8_lossy(&raw.to_le_bytes()).into_owned(),
    }
}

/// One wire value from two random draws, over every `JsonValue` shape and
/// the numeric edge cases by name.
fn json_value(pick: u8, raw: u64) -> JsonValue {
    match pick % 12 {
        0 => JsonValue::Int(raw),
        1 | 2 => JsonValue::Int(raw % 40),
        3 => JsonValue::Num(f64::from_bits(raw)),
        4 => JsonValue::Num([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][raw as usize % 3]),
        5 => JsonValue::Num((raw % 20_000) as f64 / 100.0 - 50.0),
        6 => JsonValue::Num([1e308, -1e308, 1e-320, 1.8446744073709552e19][raw as usize % 4]),
        7 => JsonValue::Int([u64::MAX, 9223372036854775809, 4294967296][raw as usize % 3]),
        8 => JsonValue::Str(NASTY[raw as usize % NASTY.len()].to_string()),
        9 => JsonValue::Bool(raw.is_multiple_of(2)),
        10 => JsonValue::Null,
        _ => JsonValue::Arr(vec![JsonValue::Int(raw)]),
    }
}

/// The loop `wmn-sim` and `wmn-submit` run, without their own flags.
fn parse_line(tokens: Vec<String>) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::default();
    let mut argv = Argv::new(tokens);
    while let Some(flag) = argv.next_arg() {
        if !spec.set_flag(&flag, &mut argv)? {
            return Err(format!("unknown flag '{flag}'"));
        }
    }
    spec.validate()?;
    Ok(spec)
}

/// The prefix build of a validated spec under a 20 s watchdog: its
/// answer, or `None` if it hung or died.
fn prefix_in_time(spec: &ScenarioSpec) -> Option<Result<(), BuildError>> {
    let builder = spec.to_builder().expect("a validated spec lowers");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(builder.build_prefix().map(drop)));
    rx.recv_timeout(std::time::Duration::from_secs(20)).ok()
}

/// What every accepted spec must satisfy.
fn assert_buildable(spec: &ScenarioSpec) -> Result<(), TestCaseError> {
    let nodes = spec.grid_rows as u128 * spec.grid_cols as u128 + spec.clients as u128;
    prop_assert!(nodes <= 10_000, "{nodes} nodes accepted: {spec:?}");
    // `Ok` or a `BuildError` (disconnected, no flow pairs): both are
    // answers. Getting one, and in time, is the property.
    prop_assert!(
        prefix_in_time(spec).is_some(),
        "build_prefix hung or died on {spec:?}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn argv_tokens_never_panic_and_accepted_lines_build(
        draws in prop::collection::vec((any::<u8>(), any::<u64>()), 0..12),
    ) {
        let tokens = draws.into_iter().map(|(pick, raw)| token(pick, raw)).collect();
        if let Ok(spec) = parse_line(tokens) {
            assert_buildable(&spec)?;
        }
    }

    #[test]
    fn wire_pairs_never_panic_and_accepted_specs_build(
        draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..10),
    ) {
        let pairs: Vec<(String, JsonValue)> = draws
            .into_iter()
            .map(|(key, pick, raw)| (KEYS[key as usize % KEYS.len()].to_string(), json_value(pick, raw)))
            .collect();
        if let Ok(spec) = ScenarioSpec::from_pairs(&pairs) {
            assert_buildable(&spec)?;
        }
    }
}

/// The job line that took the daemon down: the node count wraps to 2.
#[test]
fn the_overflowing_grid_is_refused() {
    let pairs = vec![
        ("grid_rows".to_string(), JsonValue::Int(9223372036854775809)),
        ("grid_cols".to_string(), JsonValue::Int(2)),
    ];
    assert_eq!(
        ScenarioSpec::from_pairs(&pairs),
        Err("more than 10000 nodes".to_string())
    );
    let line = ["--grid", "4294967296x4294967296"].map(str::to_string);
    assert_eq!(
        parse_line(line.to_vec()),
        Err("more than 10000 nodes".to_string())
    );
}

/// Three lines whose every field is in range and whose derived sizes are
/// not: the first aborted on a 345 GB allocation, the other two ran on
/// with no interrupt point.
#[test]
fn resource_bombs_are_refused_not_built() {
    for (line, why) in [
        ("--grid 3 --pitch 1e7", "region too large"),
        ("--grid 3 --pitch 1e6", "region too large"),
        ("--churn 1e-9,1e-9", "churn too fast"),
    ] {
        let refusal = parse_line(line.split(' ').map(str::to_string).collect()).unwrap_err();
        assert!(refusal.starts_with(why), "{line}: {refusal}");
    }
    // The largest region and the fastest churn that are valid do build.
    let edge = "--grid 3 --pitch 41000 --churn 0.018,0.018 --duration 200 --warmup 0";
    let spec = parse_line(edge.split(' ').map(str::to_string).collect()).expect("valid");
    assert_buildable(&spec).expect("built in time");
}

/// Jobs at the node cap with the most flows: the flow draw tests each
/// candidate pair in constant time, so even 5 000 failed attempts over
/// 10 000 routers answer at once.
#[test]
fn node_cap_flow_draws_answer_in_time() {
    for (line, answer) in [
        ("--grid 100 --flows 4000", Ok(())),
        ("--grid 100 --flows 100000", Err(BuildError::NoFlowPairs)),
    ] {
        let spec = parse_line(line.split(' ').map(str::to_string).collect()).expect("valid");
        assert_eq!(prefix_in_time(&spec), Some(answer), "{line}");
    }
}
