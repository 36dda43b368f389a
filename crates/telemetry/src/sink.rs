//! Pluggable event sinks and the per-layer [`Tel`] emission handle.
//!
//! The handle is the hot-path boundary: a disabled `Tel` is a `None` and
//! every `emit` is a single branch. Enabled handles share one
//! `Arc<Mutex<dyn EventSink>>`: every layer of a run records into it, and
//! runs that share one sink stay separable by their records' `run` id.

use crate::event::{EventKind, TelemetryEvent};
use std::io::Write;
use std::sync::{Arc, Mutex};
use wmn_sim::SimTime;

/// Where telemetry events go.
pub trait EventSink: Send {
    /// Record one event.
    fn record(&mut self, ev: &TelemetryEvent);
    /// Flush buffered output (end of run).
    fn flush(&mut self) {}
}

/// A shared, thread-safe sink handle.
pub type SharedSink = Arc<Mutex<dyn EventSink>>;

/// Collects events in memory (tests and in-process analysis).
#[derive(Default)]
pub struct MemorySink {
    /// The recorded events, in emission order.
    pub events: Vec<TelemetryEvent>,
}

impl EventSink for MemorySink {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.events.push(*ev);
    }
}

/// Streams events as JSONL to a buffered writer (usually a file).
pub struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Create (truncate) `path` for JSONL output.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(FileSink {
            w: std::io::BufWriter::new(f),
        })
    }

    /// Flush the buffered tail, reporting a failed write (which
    /// [`EventSink::flush`] cannot).
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

impl EventSink for FileSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        let _ = writeln!(self.w, "{}", ev.to_jsonl());
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Folds events into a fingerprint instead of storing them — O(1) memory
/// at any trace size.
///
/// Each event is hashed individually (FNV-1a over its binary encoding) and
/// folded in with sequence-sensitive mixing, so the fingerprint identifies
/// the exact event sequence this sink saw. Give each region its own
/// `HashSink` and combine the per-region fingerprints in region order:
/// per-region emission order is deterministic for any worker count, so the
/// combined value is the million-node-scale stand-in for a full
/// `wmn-trace diff` when materialising the trace would not fit.
#[derive(Default)]
pub struct HashSink {
    count: u64,
    sum: u64,
    xor: u64,
}

impl HashSink {
    /// An empty fingerprint accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(events, fingerprint)` so far. The fingerprint folds the additive
    /// and xor combinations together; the count disambiguates the empty
    /// trace.
    pub fn fingerprint(&self) -> (u64, u64) {
        (self.count, self.sum.rotate_left(17) ^ self.xor)
    }
}

impl EventSink for HashSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        let mut w = wmn_sim::checkpoint::ByteWriter::new();
        ev.encode_binary(&mut w);
        let h = wmn_sim::checkpoint::fnv1a(&w.into_inner());
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left((self.count % 63) as u32);
    }
}

/// Prints the human rendering of every event to stderr (`--trace`).
#[derive(Default)]
pub struct ConsoleSink;

impl EventSink for ConsoleSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        eprintln!("{ev}");
    }
}

/// The cloneable per-layer emission handle. Each layer entity (one MAC, one
/// routing engine, the medium, the network) holds its own `Tel` carrying the
/// node id it reports as; all clones share the run's sink.
#[derive(Clone, Default)]
pub struct Tel {
    sink: Option<SharedSink>,
    run: u32,
    node: u32,
}

impl Tel {
    /// A disabled handle (the default everywhere).
    pub fn off() -> Self {
        Tel::default()
    }

    /// An enabled handle for `run`, reporting as node 0 until
    /// [`Tel::for_node`] re-homes it.
    pub fn new(sink: SharedSink, run: u32) -> Self {
        Tel {
            sink: Some(sink),
            run,
            node: 0,
        }
    }

    /// A clone of this handle that reports as `node`.
    pub fn for_node(&self, node: u32) -> Self {
        Tel {
            sink: self.sink.clone(),
            run: self.run,
            node,
        }
    }

    /// True when events are being collected. Use to skip argument
    /// computation that is only needed for telemetry.
    #[inline]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit an event at this handle's node.
    #[inline]
    pub fn emit(&self, now: SimTime, kind: EventKind) {
        self.emit_at(self.node, now, kind);
    }

    /// Emit an event attributed to an explicit node (for network-level
    /// emitters that act on behalf of many nodes).
    #[inline]
    pub fn emit_at(&self, node: u32, now: SimTime, kind: EventKind) {
        if let Some(sink) = &self.sink {
            let ev = TelemetryEvent {
                t_ns: now.as_nanos(),
                run: self.run,
                node,
                kind,
            };
            match sink.lock() {
                Ok(mut s) => s.record(&ev),
                Err(poisoned) => poisoned.into_inner().record(&ev),
            }
        }
    }

    /// Flush the underlying sink (end of run).
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            match sink.lock() {
                Ok(mut s) => s.flush(),
                Err(poisoned) => poisoned.into_inner().flush(),
            }
        }
    }
}

impl std::fmt::Debug for Tel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tel")
            .field("on", &self.on())
            .field("run", &self.run)
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> (SharedSink, Arc<Mutex<MemorySink>>) {
        let inner = Arc::new(Mutex::new(MemorySink::default()));
        (inner.clone() as SharedSink, inner)
    }

    #[test]
    fn disabled_handle_emits_nothing() {
        let tel = Tel::off();
        assert!(!tel.on());
        tel.emit(SimTime(5), EventKind::HelloSend { seq: 1 });
        tel.flush(); // no-op, must not panic
    }

    #[test]
    fn enabled_handle_records_with_node_and_run() {
        let (sink, inner) = memory();
        let tel = Tel::new(sink, 7);
        let t3 = tel.for_node(3);
        assert!(t3.on());
        t3.emit(SimTime(1_000), EventKind::HelloSend { seq: 2 });
        t3.emit_at(9, SimTime(2_000), EventKind::RerrSend { count: 1 });
        let evs = &inner.lock().unwrap().events;
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].run, evs[0].node, evs[0].t_ns), (7, 3, 1_000));
        assert_eq!((evs[1].run, evs[1].node), (7, 9));
    }

    #[test]
    fn clones_share_one_sink() {
        let (sink, inner) = memory();
        let tel = Tel::new(sink, 0);
        for n in 0..4 {
            tel.for_node(n)
                .emit(SimTime(n as u64), EventKind::HelloSend { seq: n });
        }
        assert_eq!(inner.lock().unwrap().events.len(), 4);
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join("wmn_telemetry_sink_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.jsonl");
        {
            let sink: SharedSink = Arc::new(Mutex::new(FileSink::create(&path).expect("create")));
            let tel = Tel::new(sink, 1).for_node(2);
            tel.emit(SimTime(42), EventKind::PhyRx { tx_id: 99 });
            tel.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let ev = TelemetryEvent::from_jsonl(text.lines().next().expect("one line")).expect("parse");
        assert_eq!(ev.kind, EventKind::PhyRx { tx_id: 99 });
        assert_eq!((ev.t_ns, ev.run, ev.node), (42, 1, 2));
        let _ = std::fs::remove_file(&path);
    }
}
