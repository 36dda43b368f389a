//! The pinned wire formats of the trace vocabulary.
//!
//! For every event kind, every [`DropReason`] and every [`FaultCode`] this
//! file holds the literal JSONL line, the hex of the checkpoint byte form,
//! the console text and the mirrored counter, captured from the
//! hand-written codecs before the schema table replaced them. It makes the
//! wire-stability rules executable: never renumber a checkpoint tag or a
//! reason/fault byte (they feed `HashSink`, so the committed fig14 trace
//! fingerprints depend on them, and every checkpoint on disk), never rename
//! a kind, a JSON key or a counter. A new kind adds a row; no row changes.

use wmn_sim::checkpoint::{ByteReader, ByteWriter};
use wmn_telemetry::{
    counter_for_ctrl_drop, counter_for_drop, counter_for_event, DropReason, EventKind, FaultCode,
    TelemetryEvent,
};

struct Row {
    ev: TelemetryEvent,
    jsonl: &'static str,
    hex: &'static str,
    display: &'static str,
    counter: Option<&'static str>,
}

fn row(
    (t_ns, run, node): (u64, u32, u32),
    kind: EventKind,
    jsonl: &'static str,
    hex: &'static str,
    display: &'static str,
    counter: Option<&'static str>,
) -> Row {
    let ev = TelemetryEvent {
        t_ns,
        run,
        node,
        kind,
    };
    Row {
        ev,
        jsonl,
        hex,
        display,
        counter,
    }
}

fn rows() -> Vec<Row> {
    vec![
        // One row per kind, in checkpoint-tag order.
        row(
            (1_500_000_000, 3, 7),
            EventKind::RreqOriginate { id: 4, target: 9 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rreq_originate","id":4,"target":9}"#,
            "002f6859000000000300000007000000000400000009000000",
            "    1.500000s n7   RREQ originate id=4 -> n9",
            Some("rreq_originated"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RreqRecv { origin: 1, id: 2 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rreq_recv","origin":1,"id":2}"#,
            "002f6859000000000300000007000000010100000002000000",
            "    1.500000s n7   RREQ recv (1,2)",
            Some("rreq_received"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RreqDuplicate { origin: 1, id: 2 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rreq_duplicate","origin":1,"id":2}"#,
            "002f6859000000000300000007000000020100000002000000",
            "    1.500000s n7   RREQ dup (1,2)",
            Some("rreq_duplicates"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RreqForward { origin: 1, id: 2 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rreq_forward","origin":1,"id":2}"#,
            "002f6859000000000300000007000000030100000002000000",
            "    1.500000s n7   RREQ forward (1,2)",
            Some("rreq_forwarded"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RreqSuppress { origin: 1, id: 2 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rreq_suppress","origin":1,"id":2}"#,
            "002f6859000000000300000007000000040100000002000000",
            "    1.500000s n7   RREQ suppress (1,2)",
            Some("rreq_suppressed"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RrepGenerate { origin: 0, target: 9 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rrep_generate","origin":0,"target":9}"#,
            "002f6859000000000300000007000000050000000009000000",
            "    1.500000s n7   RREP generate 9 -> 0",
            Some("rrep_generated"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RrepForward { origin: 0, target: 9 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rrep_forward","origin":0,"target":9}"#,
            "002f6859000000000300000007000000060000000009000000",
            "    1.500000s n7   RREP forward 9 -> 0",
            Some("rrep_forwarded"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RrepDrop { origin: 0, target: 9 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rrep_drop","origin":0,"target":9}"#,
            "002f6859000000000300000007000000070000000009000000",
            "    1.500000s n7   RREP drop 9 -> 0",
            Some("rrep_dropped"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::RerrSend { count: 2 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"rerr_send","count":2}"#,
            "002f68590000000003000000070000000802000000",
            "    1.500000s n7   RERR send x2",
            Some("rerr_sent"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::HelloSend { seq: 11 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"hello_send","seq":11}"#,
            "002f6859000000000300000007000000090b000000",
            "    1.500000s n7   HELLO send #11",
            Some("hello_sent"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::DataOriginate { flow: 1, seq: 42 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"data_originate","flow":1,"seq":42}"#,
            "002f68590000000003000000070000000a010000002a000000",
            "    1.500000s n7   DATA originate f1#42",
            Some("data_originated"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::DataForward { flow: 1, seq: 42 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"data_forward","flow":1,"seq":42}"#,
            "002f68590000000003000000070000000b010000002a000000",
            "    1.500000s n7   DATA forward f1#42",
            Some("data_forwarded"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::DataDeliver { flow: 1, seq: 42 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"data_deliver","flow":1,"seq":42}"#,
            "002f68590000000003000000070000000c010000002a000000",
            "    1.500000s n7   DATA deliver f1#42",
            Some("data_delivered"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::DataDrop { reason: DropReason::NoRoute, flow: 1, seq: 42 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"data_drop","reason":"no_route","flow":1,"seq":42}"#,
            "002f68590000000003000000070000000d00010000002a000000",
            "    1.500000s n7   DATA drop f1#42 [no_route]",
            None,
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::CtrlDrop { reason: DropReason::NoRoute },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"ctrl_drop","reason":"no_route"}"#,
            "002f68590000000003000000070000000e00",
            "    1.500000s n7   CTRL drop [no_route]",
            None,
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::MacEnqueue { depth: 5 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"mac_enqueue","depth":5}"#,
            "002f68590000000003000000070000000f05000000",
            "    1.500000s n7   MAC enqueue depth=5",
            Some("mac_enqueued"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::MacDequeue { depth: 4 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"mac_dequeue","depth":4}"#,
            "002f68590000000003000000070000001004000000",
            "    1.500000s n7   MAC dequeue depth=4",
            Some("mac_dequeued"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::MacBackoff { slots: 15 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"mac_backoff","slots":15}"#,
            "002f6859000000000300000007000000110f000000",
            "    1.500000s n7   MAC backoff slots=15",
            Some("mac_backoffs"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::MacTxAttempt { retry: 2 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"mac_tx_attempt","retry":2}"#,
            "002f68590000000003000000070000001202000000",
            "    1.500000s n7   MAC tx attempt retry=2",
            None,
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::PhyTxStart { tx_id: 1234, bytes: 560 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"phy_tx_start","tx_id":1234,"bytes":560}"#,
            "002f685900000000030000000700000013d20400000000000030020000",
            "    1.500000s n7   PHY tx start #1234 560B",
            Some("phy_tx_started"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::PhyRx { tx_id: 1234 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"phy_rx","tx_id":1234}"#,
            "002f685900000000030000000700000014d204000000000000",
            "    1.500000s n7   PHY rx #1234",
            Some("phy_delivered"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::PhyCollision { tx_id: 1234 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"phy_collision","tx_id":1234}"#,
            "002f685900000000030000000700000015d204000000000000",
            "    1.500000s n7   PHY collision #1234",
            Some("phy_collisions"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::PhyCapture { tx_id: 1234 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"phy_capture","tx_id":1234}"#,
            "002f685900000000030000000700000016d204000000000000",
            "    1.500000s n7   PHY capture #1234",
            Some("phy_captures"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::PhyNoise { tx_id: 1234 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"phy_noise","tx_id":1234}"#,
            "002f685900000000030000000700000017d204000000000000",
            "    1.500000s n7   PHY noise loss #1234",
            Some("phy_noise_losses"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::NodeProbe { queue: 0.25, busy: 0.5, load: 0.375, fwd_p: 0.8 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"node_probe","queue":0.250000,"busy":0.500000,"load":0.375000,"fwd_p":0.800000}"#,
            "002f685900000000030000000700000018000000000000d03f000000000000e03f000000000000d83f9a9999999999e93f",
            "    1.500000s n7   PROBE queue=0.250 busy=0.500 load=0.375 fwd_p=0.800",
            None,
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::NodeDown { incarnation: 0 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"node_down","inc":0}"#,
            "002f68590000000003000000070000001900000000",
            "    1.500000s n7   FAULT node down inc=0",
            Some("fault_node_down"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::NodeUp { incarnation: 1 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"node_up","inc":1}"#,
            "002f68590000000003000000070000001a01000000",
            "    1.500000s n7   FAULT node up inc=1",
            Some("fault_node_up"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::FaultInjected { fault: FaultCode::NoiseStart },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"fault_injected","fault":"noise_start"}"#,
            "002f68590000000003000000070000001b00",
            "    1.500000s n7   FAULT inject [noise_start]",
            Some("fault_injected"),
        ),
        row(
            (1_500_000_000, 3, 7),
            EventKind::EngineProbe { events: 100_000, rate: 2.5e6, heap: 128 },
            r#"{"t":1500000000,"run":3,"node":7,"kind":"engine_probe","events":100000,"rate":2500000.0,"heap":128}"#,
            "002f68590000000003000000070000001ca08601000000000000000000d01243418000000000000000",
            "    1.500000s n7   ENGINE events=100000 rate=2500000/s heap=128",
            None,
        ),
        // Every other drop reason, on both drop kinds.
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::DiscoveryFailed, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"discovery_failed","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d010000000000000000",
            "    0.000000s n1   DATA drop f0#0 [discovery_failed]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::BufferOverflow, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"buffer_overflow","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d020000000000000000",
            "    0.000000s n1   DATA drop f0#0 [buffer_overflow]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::LinkFailure, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"link_failure","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d030000000000000000",
            "    0.000000s n1   DATA drop f0#0 [link_failure]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::Expired, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"expired","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d040000000000000000",
            "    0.000000s n1   DATA drop f0#0 [expired]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::QueueFull, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"queue_full","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d050000000000000000",
            "    0.000000s n1   DATA drop f0#0 [queue_full]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::RetryLimit, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"retry_limit","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d060000000000000000",
            "    0.000000s n1   DATA drop f0#0 [retry_limit]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::DataDrop { reason: DropReason::NodeDown, flow: 0, seq: 0 },
            r#"{"t":2,"run":0,"node":1,"kind":"data_drop","reason":"node_down","flow":0,"seq":0}"#,
            "020000000000000000000000010000000d070000000000000000",
            "    0.000000s n1   DATA drop f0#0 [node_down]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::DiscoveryFailed },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"discovery_failed"}"#,
            "020000000000000000000000010000000e01",
            "    0.000000s n1   CTRL drop [discovery_failed]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::BufferOverflow },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"buffer_overflow"}"#,
            "020000000000000000000000010000000e02",
            "    0.000000s n1   CTRL drop [buffer_overflow]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::LinkFailure },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"link_failure"}"#,
            "020000000000000000000000010000000e03",
            "    0.000000s n1   CTRL drop [link_failure]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::Expired },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"expired"}"#,
            "020000000000000000000000010000000e04",
            "    0.000000s n1   CTRL drop [expired]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::QueueFull },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"queue_full"}"#,
            "020000000000000000000000010000000e05",
            "    0.000000s n1   CTRL drop [queue_full]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::RetryLimit },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"retry_limit"}"#,
            "020000000000000000000000010000000e06",
            "    0.000000s n1   CTRL drop [retry_limit]",
            None,
        ),
        row(
            (2, 0, 1),
            EventKind::CtrlDrop { reason: DropReason::NodeDown },
            r#"{"t":2,"run":0,"node":1,"kind":"ctrl_drop","reason":"node_down"}"#,
            "020000000000000000000000010000000e07",
            "    0.000000s n1   CTRL drop [node_down]",
            None,
        ),
        // The other fault codes.
        row(
            (2, 0, 1),
            EventKind::FaultInjected { fault: FaultCode::NoiseEnd },
            r#"{"t":2,"run":0,"node":1,"kind":"fault_injected","fault":"noise_end"}"#,
            "020000000000000000000000010000001b01",
            "    0.000000s n1   FAULT inject [noise_end]",
            Some("fault_injected"),
        ),
        row(
            (2, 0, 1),
            EventKind::FaultInjected { fault: FaultCode::LinkShift },
            r#"{"t":2,"run":0,"node":1,"kind":"fault_injected","fault":"link_shift"}"#,
            "020000000000000000000000010000001b02",
            "    0.000000s n1   FAULT inject [link_shift]",
            Some("fault_injected"),
        ),
        // Extreme payloads: full-width integers, floats the six-decimal
        // JSONL form rounds, a signed zero, a half-way rounding case.
        row(
            (u64::MAX, u32::MAX, u32::MAX),
            EventKind::PhyTxStart { tx_id: u64::MAX, bytes: u32::MAX },
            r#"{"t":18446744073709551615,"run":4294967295,"node":4294967295,"kind":"phy_tx_start","tx_id":18446744073709551615,"bytes":4294967295}"#,
            "ffffffffffffffffffffffffffffffff13ffffffffffffffffffffffff",
            "18446744073.709553s n4294967295 PHY tx start #18446744073709551615 4294967295B",
            Some("phy_tx_started"),
        ),
        row(
            (u64::MAX, u32::MAX, u32::MAX),
            EventKind::NodeProbe { queue: 0.1 + 0.2, busy: f64::MIN_POSITIVE, load: 1.0 / 3.0, fwd_p: -0.0 },
            r#"{"t":18446744073709551615,"run":4294967295,"node":4294967295,"kind":"node_probe","queue":0.300000,"busy":0.000000,"load":0.333333,"fwd_p":-0.000000}"#,
            "ffffffffffffffffffffffffffffffff18343333333333d33f0000000000001000555555555555d53f0000000000000080",
            "18446744073.709553s n4294967295 PROBE queue=0.300 busy=0.000 load=0.333 fwd_p=-0.000",
            None,
        ),
        row(
            (0, 0, 0),
            EventKind::EngineProbe { events: u64::MAX, rate: 0.25, heap: u64::MAX },
            r#"{"t":0,"run":0,"node":0,"kind":"engine_probe","events":18446744073709551615,"rate":0.2,"heap":18446744073709551615}"#,
            "000000000000000000000000000000001cffffffffffffffff000000000000d03fffffffffffffffff",
            "    0.000000s n0   ENGINE events=18446744073709551615 rate=0/s heap=18446744073709551615",
            None,
        ),
    ]
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn encoded(ev: &TelemetryEvent) -> Vec<u8> {
    let mut w = ByteWriter::new();
    ev.encode_binary(&mut w);
    w.into_inner()
}

#[test]
fn every_wire_form_matches_its_pinned_literal() {
    for r in rows() {
        let name = r.ev.kind.name();
        assert_eq!(r.ev.to_jsonl(), r.jsonl, "JSONL writer moved for {name}");
        assert_eq!(to_hex(&encoded(&r.ev)), r.hex, "byte form moved for {name}");
        assert_eq!(r.ev.to_string(), r.display, "console text moved for {name}");
        assert_eq!(
            counter_for_event(name),
            r.counter,
            "counter moved for {name}"
        );

        // The readers accept exactly what is pinned. Bytes come back
        // bit-exact; JSONL floats travel at wire precision, so compare the
        // re-serialised line rather than the event.
        let bytes = from_hex(r.hex);
        let mut reader = ByteReader::new(&bytes);
        let back = TelemetryEvent::decode_binary(&mut reader)
            .unwrap_or_else(|e| panic!("pinned bytes of {name} no longer decode: {e:?}"));
        reader.expect_end().expect("decode consumed every byte");
        assert_eq!(encoded(&back), bytes, "byte roundtrip of {name}");
        let parsed = TelemetryEvent::from_jsonl(r.jsonl)
            .unwrap_or_else(|| panic!("pinned line of {name} no longer parses"));
        assert_eq!(parsed.to_jsonl(), r.jsonl, "JSONL roundtrip of {name}");
    }
}

#[test]
fn the_rows_cover_every_kind_reason_and_code() {
    use std::collections::BTreeSet;
    let rows = rows();
    let kinds: BTreeSet<&str> = rows.iter().map(|r| r.ev.kind.name()).collect();
    assert_eq!(kinds.len(), 29, "a new kind needs a pinned row here");
    let mut data = BTreeSet::new();
    let mut ctrl = BTreeSet::new();
    let mut faults = BTreeSet::new();
    for r in &rows {
        match r.ev.kind {
            EventKind::DataDrop { reason, .. } => drop(data.insert(reason)),
            EventKind::CtrlDrop { reason } => drop(ctrl.insert(reason)),
            EventKind::FaultInjected { fault } => drop(faults.insert(fault)),
            _ => {}
        }
    }
    let all_reasons: BTreeSet<DropReason> = DropReason::ALL.into_iter().collect();
    assert_eq!(data, all_reasons);
    assert_eq!(ctrl, all_reasons);
    assert_eq!(faults, FaultCode::ALL.into_iter().collect());
}

#[test]
fn reason_and_fault_vocabularies_are_pinned() {
    // (name, data-drop counter, control-drop counter), in `ALL` order —
    // which is also the byte code each reason travels under.
    let reasons = [
        ("no_route", "drop_no_route", None),
        ("discovery_failed", "drop_discovery_failed", None),
        ("buffer_overflow", "drop_buffer_overflow", None),
        ("link_failure", "drop_link_failure", None),
        ("expired", "drop_expired", None),
        (
            "queue_full",
            "drop_queue_full",
            Some("drop_ctrl_queue_full"),
        ),
        ("retry_limit", "drop_retry_limit", None),
        ("node_down", "drop_node_down", Some("drop_ctrl_node_down")),
    ];
    assert_eq!(DropReason::ALL.len(), reasons.len());
    for (reason, (name, data, ctrl)) in DropReason::ALL.into_iter().zip(reasons) {
        assert_eq!(reason.name(), name);
        assert_eq!(DropReason::from_name(name), Some(reason));
        assert_eq!(counter_for_drop(reason), data);
        assert_eq!(counter_for_ctrl_drop(reason), ctrl);
    }
    let faults = ["noise_start", "noise_end", "link_shift"];
    assert_eq!(FaultCode::ALL.len(), faults.len());
    for (code, name) in FaultCode::ALL.into_iter().zip(faults) {
        assert_eq!(code.name(), name);
        assert_eq!(FaultCode::from_name(name), Some(code));
    }
}
