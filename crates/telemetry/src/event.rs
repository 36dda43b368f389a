//! The typed cross-layer event vocabulary and its four wire forms.
//!
//! The vocabulary is declared **once**, in the `event_schema!` table below:
//! one entry per kind gives its checkpoint tag, variant, JSONL `kind` name,
//! mirrored counter, console text and fields, and the table generates
//! [`EventKind`], its [`name`](EventKind::name) and
//! [`NAMES`](EventKind::NAMES), the JSONL writer and reader, the checkpoint
//! byte codec, the console rendering and [`counter_for_event`]. Adding a
//! kind is one table entry (DESIGN §4.2: entry grammar, wire-stability
//! rules).
//!
//! Every event is one flat JSON object per line:
//!
//! ```json
//! {"t":1500000000,"run":0,"node":7,"kind":"rreq_forward","origin":3,"id":2}
//! ```
//!
//! `kind` names are stable snake_case identifiers; where an event mirrors a
//! counter in the [`crate::Counters`] registry the table records which, and
//! that mapping is what lets `wmn-trace summary` cross-check a trace
//! against a run manifest exactly.

use crate::json::{get, parse_object, JsonValue};
use std::fmt::{self, Write};
use wmn_sim::checkpoint::{ByteReader, ByteWriter, CheckpointError};

/// How one field *type* crosses the JSONL and checkpoint wires (the console
/// text prints it through its `Display`). The schema tables only name
/// types; these five impls (`u32`, `u64`, `f64`, [`DropReason`],
/// [`FaultCode`]) are the only code that knows their encodings.
trait Field: Copy {
    /// The JSONL value (the table's `[decimals]` formats it).
    fn json(self) -> impl fmt::Display;
    /// Read the JSONL value back; `None` refuses the whole line.
    fn read_json(v: &JsonValue) -> Option<Self>;
    /// Append the checkpoint bytes.
    fn put(self, out: &mut ByteWriter);
    /// Inverse of [`Field::put`].
    fn take(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError>;
}

macro_rules! int_fields {
    ($($ty:ident)*) => {$(
        impl Field for $ty {
            fn json(self) -> impl fmt::Display {
                self
            }
            // Narrowing is checked: an out-of-range value refuses the line
            // instead of becoming a different event.
            fn read_json(v: &JsonValue) -> Option<Self> {
                v.as_u64().and_then(|n| n.try_into().ok())
            }
            fn put(self, out: &mut ByteWriter) {
                out.$ty(self);
            }
            fn take(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
                r.$ty()
            }
        }
    )*};
}
int_fields!(u32 u64);

/// Floats travel rounded to the table's decimals in JSONL and as raw bits
/// in checkpoints, so a checkpoint decode is bit-identical.
impl Field for f64 {
    fn json(self) -> impl fmt::Display {
        self
    }
    fn read_json(v: &JsonValue) -> Option<Self> {
        v.as_f64()
    }
    fn put(self, out: &mut ByteWriter) {
        out.f64_bits(self);
    }
    fn take(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        r.f64_bits()
    }
}

/// A small closed code set that travels as a snake_case name in JSONL and
/// console text and as one byte in checkpoints. One line per code: *byte,
/// variant, name*; bytes and names are append-only. `counters f = "prefix"`
/// also generates `f(code)`, the registry counter `prefix + name`.
macro_rules! wire_codes {
    (
        $(#[$doc:meta])* $ty:ident, $what:literal, counters $counter_fn:ident = $prefix:literal
        { $($(#[$vdoc:meta])* $code:literal $variant:ident $name:literal,)* }
    ) => {
        wire_codes! { $(#[$doc])* $ty, $what { $($(#[$vdoc])* $code $variant $name,)* } }

        /// The registry counter for a `data_drop` event with `reason`.
        pub fn $counter_fn(reason: $ty) -> &'static str {
            match reason {
                $($ty::$variant => concat!($prefix, $name),)*
            }
        }
    };
    (
        $(#[$doc:meta])* $ty:ident, $what:literal
        { $($(#[$vdoc:meta])* $code:literal $variant:ident $name:literal,)* }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $ty {
            $($(#[$vdoc])* $variant,)*
        }

        impl $ty {
            /// All codes, in stable reporting order.
            pub const ALL: [$ty; [$($code),*].len()] = [$($ty::$variant),*];

            /// Stable snake_case name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)*
                }
            }

            /// Inverse of `name`.
            pub fn from_name(s: &str) -> Option<Self> {
                Self::ALL.into_iter().find(|c| c.name() == s)
            }
        }

        impl Field for $ty {
            fn json(self) -> impl fmt::Display {
                match self {
                    $(Self::$variant => concat!("\"", $name, "\""),)*
                }
            }
            fn read_json(v: &JsonValue) -> Option<Self> {
                v.as_str().and_then(Self::from_name)
            }
            fn put(self, out: &mut ByteWriter) {
                out.u8(match self {
                    $(Self::$variant => $code,)*
                });
            }
            fn take(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
                Ok(match r.u8()? {
                    $($code => Self::$variant,)*
                    other => {
                        return Err(CheckpointError::Corrupt(format!(
                            concat!("unknown ", $what, " {}"),
                            other
                        )))
                    }
                })
            }
        }

        /// The stable name, as the console text prints it.
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

wire_codes! {
    /// Why a packet was discarded — the single namespace every layer's drops
    /// map into (exactly one `DropReason` per discarded packet).
    DropReason, "drop reason code", counters counter_for_drop = "drop_" {
        /// Routing: no route at an intermediate hop.
        0 NoRoute "no_route",
        /// Routing: route discovery failed after all retries.
        1 DiscoveryFailed "discovery_failed",
        /// Routing: discovery buffer overflowed at the origin.
        2 BufferOverflow "buffer_overflow",
        /// Routing: link-layer retry limit mid-path.
        3 LinkFailure "link_failure",
        /// Routing: packet expired in the origin buffer.
        4 Expired "expired",
        /// MAC: interface queue overflow.
        5 QueueFull "queue_full",
        /// MAC: retry limit (control payloads that have no routing fallback).
        6 RetryLimit "retry_limit",
        /// Faults: the packet was queued or buffered at a node that crashed.
        7 NodeDown "node_down",
    }
}

wire_codes! {
    /// Which fault model produced a [`EventKind::FaultInjected`] event.
    FaultCode, "fault code" {
        /// A region-scoped noise-floor burst started.
        0 NoiseStart "noise_start",
        /// A region-scoped noise-floor burst ended.
        1 NoiseEnd "noise_end",
        /// A per-node pathloss/shadowing shift was applied (link flap).
        2 LinkShift "link_shift",
    }
}

/// The event-schema table: one entry per kind,
///
/// ```text
/// /// variant doc
/// TAG => Variant("json_kind", Some("mirrored_counter") | None, "console text {field}") {
///     /// field doc
///     field: type = "json key" [decimals],
/// },
/// ```
///
/// `TAG` is the checkpoint byte — an explicit literal, never positional,
/// because it feeds `HashSink` and every checkpoint on disk. Tags, kind
/// names and JSON keys are append-only. `[decimals]` is the JSONL precision
/// of an `f64` field (without it the shortest round-trip form is written);
/// the console text may format a field too (`{rate:.0}`).
macro_rules! event_schema {
    ($(
        $(#[$vdoc:meta])*
        $tag:literal => $variant:ident($name:literal, $counter:expr, $text:literal) {
            $($(#[$fdoc:meta])* $field:ident: $ty:ty = $key:literal $([$decimals:literal])?,)*
        },
    )*) => {
        /// What happened (the per-kind payload of a [`TelemetryEvent`]).
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum EventKind {
            $($(#[$vdoc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl EventKind {
            /// Every kind name, in checkpoint-tag order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable snake_case kind name.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $name,)*
                }
            }

            /// Append the payload as `,"key":value` JSONL members, one
            /// `write!` per kind.
            fn write_json(&self, out: &mut String) {
                let _ = match *self {
                    $(EventKind::$variant { $($field),* } => write!(
                        out,
                        concat!($(",\"", $key, "\":{", $(":.", $decimals,)? "}"),*),
                        $($field.json()),*
                    ),)*
                };
            }

            /// Read the payload of kind `name` from a parsed JSONL line.
            fn read_json(name: &str, pairs: &[(String, JsonValue)]) -> Option<Self> {
                Some(match name {
                    $($name => EventKind::$variant {
                        $($field: Field::read_json(get(pairs, $key)?)?,)*
                    },)*
                    _ => return None,
                })
            }

            /// Append the tag byte and the payload bytes.
            fn put(&self, out: &mut ByteWriter) {
                match *self {
                    $(EventKind::$variant { $($field),* } => {
                        out.u8($tag);
                        $($field.put(out);)*
                    })*
                }
            }

            /// Inverse of [`EventKind::put`].
            fn take(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
                Ok(match r.u8()? {
                    $($tag => EventKind::$variant { $($field: Field::take(r)?,)* },)*
                    other => {
                        return Err(CheckpointError::Corrupt(format!(
                            "unknown event tag {other}"
                        )))
                    }
                })
            }

            /// Write the console text.
            fn show(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match *self {
                    $(EventKind::$variant { $($field),* } => write!(f, $text),)*
                }
            }
        }

        /// The registry counter a trace-event kind mirrors, if any.
        ///
        /// Instrumentation emits these kinds exactly adjacent to the
        /// corresponding counter increment, so for a complete trace
        /// `count(kind) == counters.get(counter_for_event(kind))` — the
        /// invariant `wmn-trace summary --verify` and the conservation test
        /// check. Kinds without an entry (queue/backoff micro-events,
        /// probes) are diagnostic only; `data_drop` and `ctrl_drop` map per
        /// reason ([`crate::counter_for_drop`],
        /// [`crate::counter_for_ctrl_drop`]).
        pub fn counter_for_event(kind_name: &str) -> Option<&'static str> {
            match kind_name {
                $($name => $counter,)*
                _ => None,
            }
        }
    };
}

event_schema! {
    /// A route discovery RREQ left its origin.
    0 => RreqOriginate("rreq_originate", Some("rreq_originated"),
        "RREQ originate id={id} -> n{target}") {
        /// Per-origin discovery id.
        id: u32 = "id",
        /// Discovery target.
        target: u32 = "target",
    },
    /// An RREQ copy arrived (first or duplicate).
    1 => RreqRecv("rreq_recv", Some("rreq_received"), "RREQ recv ({origin},{id})") {
        /// Discovery origin.
        origin: u32 = "origin",
        /// Discovery id.
        id: u32 = "id",
    },
    /// A duplicate RREQ copy was ignored.
    2 => RreqDuplicate("rreq_duplicate", Some("rreq_duplicates"), "RREQ dup ({origin},{id})") {
        /// Discovery origin.
        origin: u32 = "origin",
        /// Discovery id.
        id: u32 = "id",
    },
    /// A first-copy RREQ was rebroadcast.
    3 => RreqForward("rreq_forward", Some("rreq_forwarded"), "RREQ forward ({origin},{id})") {
        /// Discovery origin.
        origin: u32 = "origin",
        /// Discovery id.
        id: u32 = "id",
    },
    /// A first-copy RREQ was suppressed (policy or TTL).
    4 => RreqSuppress("rreq_suppress", Some("rreq_suppressed"), "RREQ suppress ({origin},{id})") {
        /// Discovery origin.
        origin: u32 = "origin",
        /// Discovery id.
        id: u32 = "id",
    },
    /// An RREP was generated (by the target or an intermediate).
    5 => RrepGenerate("rrep_generate", Some("rrep_generated"),
        "RREP generate {target} -> {origin}") {
        /// Discovery origin the RREP travels to.
        origin: u32 = "origin",
        /// Route target it describes.
        target: u32 = "target",
    },
    /// An RREP was forwarded along the reverse path.
    6 => RrepForward("rrep_forward", Some("rrep_forwarded"), "RREP forward {target} -> {origin}") {
        /// Discovery origin.
        origin: u32 = "origin",
        /// Route target.
        target: u32 = "target",
    },
    /// An RREP was dropped (no reverse route / link failure).
    7 => RrepDrop("rrep_drop", Some("rrep_dropped"), "RREP drop {target} -> {origin}") {
        /// Discovery origin.
        origin: u32 = "origin",
        /// Route target.
        target: u32 = "target",
    },
    /// A RERR broadcast left this node.
    8 => RerrSend("rerr_send", Some("rerr_sent"), "RERR send x{count}") {
        /// Number of unreachable destinations listed.
        count: u32 = "count",
    },
    /// A HELLO beacon left this node.
    9 => HelloSend("hello_send", Some("hello_sent"), "HELLO send #{seq}") {
        /// Beacon sequence number.
        seq: u32 = "seq",
    },
    /// The application originated a data packet.
    10 => DataOriginate("data_originate", Some("data_originated"), "DATA originate f{flow}#{seq}") {
        /// Flow id.
        flow: u32 = "flow",
        /// Per-flow sequence number.
        seq: u32 = "seq",
    },
    /// A data packet was forwarded at an intermediate hop.
    11 => DataForward("data_forward", Some("data_forwarded"), "DATA forward f{flow}#{seq}") {
        /// Flow id.
        flow: u32 = "flow",
        /// Per-flow sequence number.
        seq: u32 = "seq",
    },
    /// A data packet reached its destination application.
    12 => DataDeliver("data_deliver", Some("data_delivered"), "DATA deliver f{flow}#{seq}") {
        /// Flow id.
        flow: u32 = "flow",
        /// Per-flow sequence number.
        seq: u32 = "seq",
    },
    /// A data packet was discarded (terminal).
    13 => DataDrop("data_drop", None, "DATA drop f{flow}#{seq} [{reason}]") {
        /// Why.
        reason: DropReason = "reason",
        /// Flow id.
        flow: u32 = "flow",
        /// Per-flow sequence number.
        seq: u32 = "seq",
    },
    /// A control packet (RREQ/RREP/RERR/HELLO) was discarded at the MAC.
    14 => CtrlDrop("ctrl_drop", None, "CTRL drop [{reason}]") {
        /// Why.
        reason: DropReason = "reason",
    },
    /// An MSDU entered the interface queue.
    15 => MacEnqueue("mac_enqueue", Some("mac_enqueued"), "MAC enqueue depth={depth}") {
        /// Queue depth after the push.
        depth: u32 = "depth",
    },
    /// An MSDU left the interface queue for transmission.
    16 => MacDequeue("mac_dequeue", Some("mac_dequeued"), "MAC dequeue depth={depth}") {
        /// Queue depth after the pop.
        depth: u32 = "depth",
    },
    /// A contention backoff was armed.
    17 => MacBackoff("mac_backoff", Some("mac_backoffs"), "MAC backoff slots={slots}") {
        /// Slots drawn from the contention window.
        slots: u32 = "slots",
    },
    /// A frame transmission attempt started (first try or retry).
    18 => MacTxAttempt("mac_tx_attempt", None, "MAC tx attempt retry={retry}") {
        /// Retry index (0 = first attempt).
        retry: u32 = "retry",
    },
    /// A transmission entered the air.
    19 => PhyTxStart("phy_tx_start", Some("phy_tx_started"), "PHY tx start #{tx_id} {bytes}B") {
        /// Medium transmission id.
        tx_id: u64 = "tx_id",
        /// On-air frame bytes.
        bytes: u32 = "bytes",
    },
    /// A frame was received successfully.
    20 => PhyRx("phy_rx", Some("phy_delivered"), "PHY rx #{tx_id}") {
        /// Medium transmission id of the received frame.
        tx_id: u64 = "tx_id",
    },
    /// A reception was destroyed by interference.
    21 => PhyCollision("phy_collision", Some("phy_collisions"), "PHY collision #{tx_id}") {
        /// Medium transmission id of the lost frame.
        tx_id: u64 = "tx_id",
    },
    /// A reception survived interference via capture.
    22 => PhyCapture("phy_capture", Some("phy_captures"), "PHY capture #{tx_id}") {
        /// Medium transmission id of the captured frame.
        tx_id: u64 = "tx_id",
    },
    /// A reception failed on noise (PER draw).
    23 => PhyNoise("phy_noise", Some("phy_noise_losses"), "PHY noise loss #{tx_id}") {
        /// Medium transmission id of the lost frame.
        tx_id: u64 = "tx_id",
    },
    /// Periodic per-node sample of the cross-layer signals.
    24 => NodeProbe("node_probe", None,
        "PROBE queue={queue:.3} busy={busy:.3} load={load:.3} fwd_p={fwd_p:.3}") {
        /// Interface-queue utilisation `[0, 1]`.
        queue: f64 = "queue" [6],
        /// Channel busy ratio `[0, 1]`.
        busy: f64 = "busy" [6],
        /// Neighbourhood load estimate `[0, 1]` (0 for load-blind schemes).
        load: f64 = "load" [6],
        /// Rebroadcast probability the policy would apply right now.
        fwd_p: f64 = "fwd_p" [6],
    },
    /// A node crashed (fault schedule): radio off, all state lost.
    25 => NodeDown("node_down", Some("fault_node_down"), "FAULT node down inc={incarnation}") {
        /// Incarnation being retired (0 for the boot-time instance).
        incarnation: u32 = "inc",
    },
    /// A node rebooted with cold routing/MAC/neighbour state.
    26 => NodeUp("node_up", Some("fault_node_up"), "FAULT node up inc={incarnation}") {
        /// New incarnation number (1 for the first reboot).
        incarnation: u32 = "inc",
    },
    /// A non-churn fault was injected (noise burst edge or link shift).
    27 => FaultInjected("fault_injected", Some("fault_injected"), "FAULT inject [{fault}]") {
        /// Which fault model fired.
        fault: FaultCode = "fault",
    },
    /// Periodic event-loop sample (behind the `profile` flag).
    28 => EngineProbe("engine_probe", None, "ENGINE events={events} rate={rate:.0}/s heap={heap}") {
        /// Events processed since the run started.
        events: u64 = "events",
        /// Events per wall-clock second over the last tick.
        rate: f64 = "rate" [1],
        /// Future-event-list depth.
        heap: u64 = "heap",
    },
}

/// One structured trace record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryEvent {
    /// Simulation time, nanoseconds.
    pub t_ns: u64,
    /// Run id (distinguishes concurrent sweep replications sharing a sink).
    pub run: u32,
    /// Node the event happened at.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

// Every sink buffers these by value and `Tel::emit` builds one per call, so
// a table entry that widens the payload is a hot-path change, not a free one.
const _: () = assert!(std::mem::size_of::<EventKind>() == 40);
const _: () = assert!(std::mem::size_of::<TelemetryEvent>() == 56);

impl TelemetryEvent {
    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"run\":{},\"node\":{},\"kind\":\"{}\"",
            self.t_ns,
            self.run,
            self.node,
            self.kind.name()
        );
        self.kind.write_json(&mut s);
        s.push('}');
        s
    }

    /// Parse one JSONL line. Returns `None` on malformed input, an
    /// out-of-range field or an unknown kind (forward compatibility:
    /// unknown lines are skippable).
    pub fn from_jsonl(line: &str) -> Option<Self> {
        let pairs = parse_object(line)?;
        Some(TelemetryEvent {
            t_ns: Field::read_json(get(&pairs, "t")?)?,
            run: Field::read_json(get(&pairs, "run")?)?,
            node: Field::read_json(get(&pairs, "node")?)?,
            kind: EventKind::read_json(get(&pairs, "kind")?.as_str()?, &pairs)?,
        })
    }

    /// Serialize into a checkpoint payload. Unlike [`TelemetryEvent::to_jsonl`]
    /// (which rounds floats to six decimals), this encoding carries `f64`
    /// fields as raw bits, so a decode is bit-identical to the original —
    /// a requirement for checkpoint/resume byte-equivalence of trace files.
    pub fn encode_binary(&self, out: &mut ByteWriter) {
        out.u64(self.t_ns);
        out.u32(self.run);
        out.u32(self.node);
        self.kind.put(out);
    }

    /// Inverse of [`TelemetryEvent::encode_binary`].
    pub fn decode_binary(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(TelemetryEvent {
            t_ns: r.u64()?,
            run: r.u32()?,
            node: r.u32()?,
            kind: EventKind::take(r)?,
        })
    }
}

/// Human-oriented one-line rendering (the `--trace` console format that
/// replaced the old string ring).
impl fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12.6}s n{:<3} ", self.t_ns as f64 / 1e9, self.node)?;
        self.kind.show(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TelemetryEvent> {
        let mk = |kind| TelemetryEvent {
            t_ns: 1_500_000_000,
            run: 3,
            node: 7,
            kind,
        };
        vec![
            mk(EventKind::RreqOriginate { id: 4, target: 9 }),
            mk(EventKind::RreqRecv { origin: 1, id: 2 }),
            mk(EventKind::RreqDuplicate { origin: 1, id: 2 }),
            mk(EventKind::RreqForward { origin: 1, id: 2 }),
            mk(EventKind::RreqSuppress { origin: 1, id: 2 }),
            mk(EventKind::RrepGenerate {
                origin: 0,
                target: 9,
            }),
            mk(EventKind::RrepForward {
                origin: 0,
                target: 9,
            }),
            mk(EventKind::RrepDrop {
                origin: 0,
                target: 9,
            }),
            mk(EventKind::RerrSend { count: 2 }),
            mk(EventKind::HelloSend { seq: 11 }),
            mk(EventKind::DataOriginate { flow: 1, seq: 42 }),
            mk(EventKind::DataForward { flow: 1, seq: 42 }),
            mk(EventKind::DataDeliver { flow: 1, seq: 42 }),
            mk(EventKind::DataDrop {
                reason: DropReason::NoRoute,
                flow: 1,
                seq: 42,
            }),
            mk(EventKind::CtrlDrop {
                reason: DropReason::QueueFull,
            }),
            mk(EventKind::MacEnqueue { depth: 5 }),
            mk(EventKind::MacDequeue { depth: 4 }),
            mk(EventKind::MacBackoff { slots: 15 }),
            mk(EventKind::MacTxAttempt { retry: 2 }),
            mk(EventKind::PhyTxStart {
                tx_id: 1234,
                bytes: 560,
            }),
            mk(EventKind::PhyRx { tx_id: 1234 }),
            mk(EventKind::PhyCollision { tx_id: 1234 }),
            mk(EventKind::PhyCapture { tx_id: 1234 }),
            mk(EventKind::PhyNoise { tx_id: 1234 }),
            mk(EventKind::NodeProbe {
                queue: 0.25,
                busy: 0.5,
                load: 0.375,
                fwd_p: 0.8,
            }),
            mk(EventKind::NodeDown { incarnation: 0 }),
            mk(EventKind::NodeUp { incarnation: 1 }),
            mk(EventKind::FaultInjected {
                fault: FaultCode::NoiseStart,
            }),
            mk(EventKind::EngineProbe {
                events: 100_000,
                rate: 2.5e6,
                heap: 128,
            }),
        ]
    }

    #[test]
    fn jsonl_roundtrip_every_kind() {
        for ev in samples() {
            let line = ev.to_jsonl();
            let back =
                TelemetryEvent::from_jsonl(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(back, ev, "roundtrip mismatch for {line}");
        }
    }

    #[test]
    fn display_is_nonempty_and_distinct_per_kind() {
        let mut seen = std::collections::HashSet::new();
        for ev in samples() {
            let s = ev.to_string();
            assert!(!s.is_empty());
            assert!(seen.insert(s.clone()), "duplicate rendering: {s}");
        }
    }

    #[test]
    fn unknown_kind_is_skippable() {
        assert!(TelemetryEvent::from_jsonl(
            "{\"t\":1,\"run\":0,\"node\":0,\"kind\":\"weird_future_thing\"}"
        )
        .is_none());
    }

    #[test]
    fn binary_roundtrip_every_kind_bit_exact() {
        // Use float values that the six-decimal JSONL form would mangle, to
        // prove the binary codec is lossless where JSONL is not.
        let mut events = samples();
        events.push(TelemetryEvent {
            t_ns: u64::MAX,
            run: u32::MAX,
            node: u32::MAX,
            kind: EventKind::NodeProbe {
                queue: 0.1 + 0.2,
                busy: f64::MIN_POSITIVE,
                load: 1.0 / 3.0,
                fwd_p: -0.0,
            },
        });
        let mut w = ByteWriter::new();
        w.u64(events.len() as u64);
        for ev in &events {
            ev.encode_binary(&mut w);
        }
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        let n = r.u64().unwrap();
        assert_eq!(n as usize, events.len());
        for ev in &events {
            let back = TelemetryEvent::decode_binary(&mut r).unwrap();
            assert_eq!(back, *ev);
            if let (EventKind::NodeProbe { queue: a, .. }, EventKind::NodeProbe { queue: b, .. }) =
                (ev.kind, back.kind)
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn binary_decode_rejects_bad_tags() {
        let mut w = ByteWriter::new();
        w.u64(1);
        w.u32(0);
        w.u32(0);
        w.u8(200); // no such event tag
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            TelemetryEvent::decode_binary(&mut r),
            Err(CheckpointError::Corrupt(_))
        ));

        let mut w = ByteWriter::new();
        w.u64(1);
        w.u32(0);
        w.u32(0);
        w.u8(14); // CtrlDrop
        w.u8(99); // no such drop reason
        let buf = w.into_inner();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            TelemetryEvent::decode_binary(&mut r),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn drop_reason_names_roundtrip() {
        for r in DropReason::ALL {
            assert_eq!(DropReason::from_name(r.name()), Some(r));
        }
        assert_eq!(DropReason::from_name("bogus"), None);
    }

    #[test]
    fn fault_code_names_roundtrip() {
        for c in FaultCode::ALL {
            assert_eq!(FaultCode::from_name(c.name()), Some(c));
        }
        assert_eq!(FaultCode::from_name("bogus"), None);
    }

    #[test]
    fn schema_table_is_self_consistent() {
        use std::collections::HashSet;
        let names: HashSet<&str> = EventKind::NAMES.iter().copied().collect();
        assert_eq!(names.len(), EventKind::NAMES.len(), "duplicate kind name");

        // Tags are unique, dense `0..NAMES.len()` and in table order: an
        // all-zero payload decodes under every tag below `NAMES.len()` to
        // the kind declared at that position, and under no other tag. (A
        // duplicate tag or name in the table is otherwise only an
        // `unreachable_patterns` warning.)
        for tag in 0..=u8::MAX {
            let mut bytes = vec![0u8; 16];
            bytes.push(tag);
            bytes.extend([0u8; 40]);
            let decoded = TelemetryEvent::decode_binary(&mut ByteReader::new(&bytes));
            let Some(name) = EventKind::NAMES.get(tag as usize) else {
                assert!(decoded.is_err(), "tag {tag} decodes but has no name");
                continue;
            };
            let ev = decoded.unwrap_or_else(|e| panic!("tag {tag} ({name}) is a gap: {e:?}"));
            assert_eq!(ev.kind.name(), *name, "tag {tag} is out of table order");
            let mut w = ByteWriter::new();
            ev.encode_binary(&mut w);
            assert_eq!(w.into_inner()[16], tag, "{name} writes another tag");
            assert_eq!(TelemetryEvent::from_jsonl(&ev.to_jsonl()), Some(ev));
        }
        let sampled: HashSet<&str> = samples().iter().map(|ev| ev.kind.name()).collect();
        assert_eq!(sampled, names, "samples() must cover every kind");

        // Only kinds map to counters, no two kinds to the same one; probes
        // and micro-events stay unmapped and drops map per reason.
        assert_eq!(counter_for_event("no_such_kind"), None);
        let mapped: Vec<&str> = EventKind::NAMES
            .iter()
            .filter_map(|n| counter_for_event(n))
            .collect();
        assert_eq!(mapped.len(), 24);
        assert_eq!(mapped.iter().collect::<HashSet<_>>().len(), mapped.len());
        assert_eq!(counter_for_event("rreq_forward"), Some("rreq_forwarded"));
        assert_eq!(counter_for_event("phy_rx"), Some("phy_delivered"));
        for unmapped in [
            "node_probe",
            "engine_probe",
            "mac_tx_attempt",
            "data_drop",
            "ctrl_drop",
        ] {
            assert!(names.contains(unmapped));
            assert_eq!(counter_for_event(unmapped), None);
        }
        for r in DropReason::ALL {
            assert_eq!(crate::counter_for_drop(r), format!("drop_{}", r.name()));
            if let Some(name) = crate::counter_for_ctrl_drop(r) {
                assert_eq!(name, format!("drop_ctrl_{}", r.name()));
            }
        }
        assert_eq!(
            crate::counter_for_ctrl_drop(DropReason::QueueFull),
            Some("drop_ctrl_queue_full")
        );
        assert_eq!(
            crate::counter_for_ctrl_drop(DropReason::NodeDown),
            Some("drop_ctrl_node_down")
        );
        assert_eq!(crate::counter_for_ctrl_drop(DropReason::NoRoute), None);
    }

    #[test]
    fn jsonl_integers_are_exact_and_range_checked() {
        let line = |node: &str, tx_id: &str| {
            format!("{{\"t\":1,\"run\":0,\"node\":{node},\"kind\":\"phy_rx\",\"tx_id\":{tx_id}}}")
        };
        // Above 2^53 an f64 detour would round to ...992.
        let ev = TelemetryEvent::from_jsonl(&line("7", "9007199254740993")).expect("parse");
        assert_eq!(
            ev.kind,
            EventKind::PhyRx {
                tx_id: 9_007_199_254_740_993
            }
        );
        // A u32 field one past its range refuses the line; it used to wrap
        // to node 0.
        assert_eq!(TelemetryEvent::from_jsonl(&line("4294967296", "1")), None);
        assert_eq!(TelemetryEvent::from_jsonl(&line("7", "-1")), None);
        assert_eq!(TelemetryEvent::from_jsonl(&line("7", "1.5")), None);
        assert_eq!(
            TelemetryEvent::from_jsonl(&line("7", "18446744073709551616")),
            None
        );
    }
}
