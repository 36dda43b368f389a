//! Ordered merging of per-region traces and trace diffing.
//!
//! Shard-parallel runs give every region its own sink (a mutex-shared
//! global sink would serialise workers and make emission order depend on
//! thread scheduling). [`merge_region_traces`] folds the per-region buffers
//! into one trace in deterministic `(t_ns, region, emission index)` order —
//! the same total order the sharded engine uses for cross-region events —
//! so the merged trace is bit-identical for any worker count.
//!
//! [`first_divergence`] is the inverse tool: given two JSONL traces it
//! localises the first event where they disagree (index, timestamps,
//! field-level delta), which is what the `wmn-trace diff` command and the
//! CI thread-count smoke test use to prove shard counts don't change
//! results.

use crate::event::TelemetryEvent;
use crate::json::{get, parse_object, JsonValue, Layout, ToJson};

/// Merge per-region trace buffers into one deterministic trace.
///
/// Within a region, events are already in emission order (regions process
/// their events sequentially in time order); across regions the key
/// `(t_ns, region, index-within-region)` is a total order — the index
/// disambiguates within a region, the region id across regions.
pub fn merge_region_traces(per_region: Vec<Vec<TelemetryEvent>>) -> Vec<TelemetryEvent> {
    let total = per_region.iter().map(Vec::len).sum();
    let mut tagged: Vec<(u64, u32, u32, TelemetryEvent)> = Vec::with_capacity(total);
    for (region, events) in per_region.into_iter().enumerate() {
        for (idx, ev) in events.into_iter().enumerate() {
            tagged.push((ev.t_ns, region as u32, idx as u32, ev));
        }
    }
    tagged.sort_by_key(|(t, region, idx, _)| (*t, *region, *idx));
    tagged.into_iter().map(|(_, _, _, ev)| ev).collect()
}

/// One differing field at the first divergent event.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDelta {
    /// Field name (JSON key).
    pub field: String,
    /// Rendered value on the left side (`"<absent>"` when missing).
    pub left: String,
    /// Rendered value on the right side (`"<absent>"` when missing).
    pub right: String,
}

/// The first point where two traces disagree.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// 0-based event index of the first disagreement.
    pub index: usize,
    /// Left event's timestamp (ns), when the left side has an event here.
    pub t_left: Option<u64>,
    /// Right event's timestamp (ns), when the right side has an event here.
    pub t_right: Option<u64>,
    /// The raw left line (`None` when the left trace ended first).
    pub left: Option<String>,
    /// The raw right line (`None` when the right trace ended first).
    pub right: Option<String>,
    /// Field-level delta (empty when one side ended, or when a line was
    /// unparseable and only the raw difference is known).
    pub fields: Vec<FieldDelta>,
}

fn field_deltas(
    a: &[(String, JsonValue)],
    b: &[(String, JsonValue)],
    ignore: &[String],
) -> Vec<FieldDelta> {
    let ignored = |k: &str| ignore.iter().any(|i| i == k);
    let mut out = Vec::new();
    for (k, va) in a.iter().filter(|(k, _)| !ignored(k)) {
        let right = match get(b, k) {
            Some(vb) if vb == va => continue,
            Some(vb) => vb.to_json_in(Layout::Compact),
            None => "<absent>".into(),
        };
        out.push(FieldDelta {
            field: k.clone(),
            left: va.to_json_in(Layout::Compact),
            right,
        });
    }
    for (k, vb) in b.iter().filter(|(k, _)| !ignored(k) && get(a, k).is_none()) {
        out.push(FieldDelta {
            field: k.clone(),
            left: "<absent>".into(),
            right: vb.to_json_in(Layout::Compact),
        });
    }
    out
}

/// Find the first event where two JSONL traces disagree, ignoring the
/// listed fields (e.g. `run` for traces from different processes).
///
/// Returns `None` when the traces are identical under the ignore set.
/// Lines are compared structurally when both parse as JSON objects,
/// byte-wise otherwise (and a trace that ended has no line to compare).
pub fn first_divergence(a: &[String], b: &[String], ignore: &[String]) -> Option<Divergence> {
    for index in 0..a.len().max(b.len()) {
        let (left, right) = (a.get(index), b.get(index));
        if left == right {
            continue;
        }
        let parsed = |line: Option<&String>| line.and_then(|l| parse_object(l));
        let (pa, pb) = (parsed(left), parsed(right));
        let fields = match (&pa, &pb) {
            (Some(fa), Some(fb)) => field_deltas(fa, fb, ignore),
            _ => Vec::new(),
        };
        if pa.is_some() && pb.is_some() && fields.is_empty() {
            // Equal modulo ignored fields (or key order).
            continue;
        }
        let t_of = |pairs: &Option<Vec<(String, JsonValue)>>| get(pairs.as_ref()?, "t")?.as_u64();
        return Some(Divergence {
            index,
            t_left: t_of(&pa),
            t_right: t_of(&pb),
            left: left.cloned(),
            right: right.cloned(),
            fields,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t_ns: u64, node: u32, seq: u32) -> TelemetryEvent {
        TelemetryEvent {
            t_ns,
            run: 0,
            node,
            kind: EventKind::HelloSend { seq },
        }
    }

    #[test]
    fn merge_orders_by_time_then_region_then_index() {
        let r0 = vec![ev(10, 0, 0), ev(30, 0, 1), ev(30, 0, 2)];
        let r1 = vec![ev(10, 1, 0), ev(20, 1, 1)];
        let merged = merge_region_traces(vec![r0, r1]);
        let key: Vec<(u64, u32)> = merged.iter().map(|e| (e.t_ns, e.node)).collect();
        // t=10: region 0 before region 1; t=30: region 0's two events keep
        // their emission order.
        assert_eq!(key, vec![(10, 0), (10, 1), (20, 1), (30, 0), (30, 0)]);
    }

    #[test]
    fn merge_is_independent_of_buffer_count_partitioning() {
        // The same logical events split across different region counts but
        // with identical (t, region, idx) keys merge identically.
        let whole = merge_region_traces(vec![vec![ev(1, 0, 0), ev(2, 0, 1), ev(3, 0, 2)]]);
        assert_eq!(whole.len(), 3);
        assert!(whole.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    fn lines(evs: &[TelemetryEvent]) -> Vec<String> {
        evs.iter().map(TelemetryEvent::to_jsonl).collect()
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let t = lines(&[ev(1, 2, 3), ev(4, 5, 6)]);
        assert!(first_divergence(&t, &t.clone(), &[]).is_none());
    }

    #[test]
    fn divergence_reports_index_time_and_fields() {
        let a = lines(&[ev(1, 2, 3), ev(4, 5, 6)]);
        let b = lines(&[ev(1, 2, 3), ev(4, 5, 7)]);
        let d = first_divergence(&a, &b, &[]).expect("must diverge");
        assert_eq!(d.index, 1);
        assert_eq!(d.t_left, Some(4));
        assert_eq!(d.t_right, Some(4));
        assert_eq!(d.fields.len(), 1);
        assert_eq!(d.fields[0].field, "seq");
        assert_eq!(
            (d.fields[0].left.as_str(), d.fields[0].right.as_str()),
            ("6", "7")
        );
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = lines(&[ev(1, 2, 3)]);
        let b = lines(&[ev(1, 2, 3), ev(4, 5, 6)]);
        let d = first_divergence(&a, &b, &[]).expect("must diverge");
        assert_eq!(d.index, 1);
        assert!(d.left.is_none());
        assert_eq!(d.t_right, Some(4));
    }

    #[test]
    fn ignored_fields_do_not_diverge() {
        let mut x = ev(1, 2, 3);
        x.run = 9;
        let a = lines(&[x]);
        let b = lines(&[ev(1, 2, 3)]);
        assert!(first_divergence(&a, &b, &[]).is_some());
        assert!(first_divergence(&a, &b, &["run".to_string()]).is_none());
    }

    #[test]
    fn unparseable_lines_fall_back_to_byte_compare() {
        let a = vec!["not json at all".to_string()];
        let b = vec!["different garbage".to_string()];
        let d = first_divergence(&a, &b, &[]).expect("must diverge");
        assert_eq!(d.index, 0);
        assert!(d.fields.is_empty());
        assert!(first_divergence(&a, &a.clone(), &[]).is_none());
    }
}
