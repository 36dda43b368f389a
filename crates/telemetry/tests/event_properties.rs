//! Property tests of the event codecs as parsers of external input: trace
//! files, checkpoint payloads and daemon lines reach them from outside the
//! process, so they must refuse garbage cleanly and never panic.
//!
//! 1. Random bytes into `decode_binary` give `Ok` or `Err`; an `Ok` event
//!    re-encodes to exactly the bytes consumed.
//! 2. Every event so produced survives JSONL: `to_jsonl(from_jsonl(line))`
//!    is the same line (lines, not events — floats travel at wire
//!    precision and non-finite ones render as Rust prints them) and the
//!    integer fields come back exact over the full `u64`/`u32` range.
//! 3. Every truncation and single-byte mutation of a valid line is `None`
//!    or an event that re-serialises and re-parses.
//! 4. Arbitrary bytes, as lossy UTF-8, never panic `parse_object`.

use proptest::prelude::*;
use wmn_sim::checkpoint::{ByteReader, ByteWriter};
use wmn_telemetry::{parse_object, EventKind, TelemetryEvent};

/// 16 header bytes, the tag, and the widest payload (four `f64`s).
const MAX_ENCODED: usize = 16 + 1 + 32;

fn encoded(ev: &TelemetryEvent) -> Vec<u8> {
    let mut w = ByteWriter::new();
    ev.encode_binary(&mut w);
    w.into_inner()
}

/// An event decoded from random bytes whose tag and code bytes are folded
/// into range, so most inputs yield one and every kind is reached.
fn event_from(mut bytes: Vec<u8>) -> Option<TelemetryEvent> {
    bytes[16] %= EventKind::NAMES.len() as u8;
    bytes[17] %= 3; // a valid drop reason and fault code alike
    TelemetryEvent::decode_binary(&mut ByteReader::new(&bytes)).ok()
}

/// A parsed line must be a fixed point of write → read → write.
fn assert_reserialises(ev: &TelemetryEvent) -> Result<(), TestCaseError> {
    let line = ev.to_jsonl();
    let back = TelemetryEvent::from_jsonl(&line);
    prop_assert!(back.is_some(), "own output does not parse: {line}");
    prop_assert_eq!(back.unwrap().to_jsonl(), line);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_binary_never_panics_and_reencodes_what_it_consumed(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_ENCODED + 8),
    ) {
        let mut r = ByteReader::new(&bytes);
        if let Ok(ev) = TelemetryEvent::decode_binary(&mut r) {
            let again = encoded(&ev);
            prop_assert!(again.len() <= bytes.len());
            prop_assert_eq!(&again[..], &bytes[..again.len()]);
        }
    }

    #[test]
    fn jsonl_roundtrips_lines_and_keeps_integers_exact(
        bytes in prop::collection::vec(any::<u8>(), MAX_ENCODED..MAX_ENCODED + 1),
    ) {
        let Some(ev) = event_from(bytes) else { return Ok(()) };
        let line = ev.to_jsonl();
        let back = TelemetryEvent::from_jsonl(&line);
        prop_assert!(back.is_some(), "own output does not parse: {line}");
        let back = back.unwrap();
        prop_assert_eq!(back.to_jsonl(), line);
        prop_assert_eq!((back.t_ns, back.run, back.node), (ev.t_ns, ev.run, ev.node));
        // Integer payloads are exact too: kinds without a float field come
        // back equal (this fails above 2^53 when integers detour via f64).
        if !matches!(ev.kind, EventKind::NodeProbe { .. } | EventKind::EngineProbe { .. }) {
            prop_assert_eq!(back, ev);
        }
    }

    #[test]
    fn damaged_lines_are_refused_or_reparse(
        bytes in prop::collection::vec(any::<u8>(), MAX_ENCODED..MAX_ENCODED + 1),
        mutation in any::<u8>(),
    ) {
        let Some(ev) = event_from(bytes) else { return Ok(()) };
        let line = ev.to_jsonl();
        for cut in 0..line.len() {
            if let Some(ev) = TelemetryEvent::from_jsonl(&line[..cut]) {
                assert_reserialises(&ev)?;
            }
        }
        for at in 0..line.len() {
            let mut damaged = line.clone().into_bytes();
            damaged[at] = mutation;
            let damaged = String::from_utf8_lossy(&damaged);
            if let Some(ev) = TelemetryEvent::from_jsonl(&damaged) {
                assert_reserialises(&ev)?;
            }
        }
    }

    #[test]
    fn parse_object_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        wrap in any::<bool>(),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        // Half the cases get an object shell so the scanner goes deep.
        let text = if wrap { format!("{{\"k\":{text}}}") } else { text.into_owned() };
        let _ = parse_object(&text);
        let _ = TelemetryEvent::from_jsonl(&text);
    }
}
