//! The unified counter registry.
//!
//! Every per-layer counter struct (`RoutingStats`, `MacStats`,
//! `MediumStats`, the network drop counters) exports its fields into one
//! flat registry with stable snake_case names — the single source of truth
//! read by `tab2_summary`, the run manifest, and the `wmn-trace` verifier.

use crate::json::{FromJson, JsonValue, Layout, Pairs, ToJson};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// An ordered name → value registry. Insertion order is preserved so
/// reports are stable; re-adding a name sums into the existing entry
/// (network-wide aggregation over nodes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Add `value` under `name` (summing with any existing entry).
    pub fn add(&mut self, name: &'static str, value: u64) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.entries.push((name, value)),
        }
    }

    /// [`Counters::add`] for a name that arrives as data (a manifest file, a
    /// daemon's result line). The registry hands out `&'static str` names,
    /// so a spelling not seen before is leaked, once per process: the
    /// counter vocabulary bounds the pool.
    pub fn add_named(&mut self, name: &str, value: u64) {
        static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        if let Some((_, v)) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            return *v += value;
        }
        let mut pool = POOL.lock().expect("nothing panics holding the pool");
        let name = pool.get(name).copied().unwrap_or_else(|| {
            let leaked: &'static str = Box::leak(name.into());
            pool.insert(leaked);
            leaked
        });
        self.entries.push((name, value));
    }

    /// The value under `name` (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// True when `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| *n == name)
    }

    /// Iterate `(name, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all entries whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

impl ToJson for Counters {
    fn write_json(&self, out: &mut String, layout: Layout) {
        Pairs(self.entries.iter().copied()).write_json(out, layout)
    }
}

impl FromJson for Counters {
    fn read_json(v: &JsonValue) -> Option<Self> {
        let mut counters = Counters::new();
        for (name, value) in Vec::<(String, u64)>::read_json(v)? {
            counters.add_named(&name, value);
        }
        Some(counters)
    }
}

/// The registry counter for a `ctrl_drop` event with `reason`, if any.
///
/// Control payloads are only ever discarded at a full MAC queue or at a
/// crashed node; other reasons never appear on the control path.
pub fn counter_for_ctrl_drop(reason: crate::DropReason) -> Option<&'static str> {
    use crate::DropReason::*;
    match reason {
        QueueFull => Some("drop_ctrl_queue_full"),
        NodeDown => Some("drop_ctrl_node_down"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_and_preserves_order() {
        let mut c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        c.add("b", 3);
        assert_eq!(c.get("b"), 5);
        assert_eq!(c.get("a"), 1);
        assert_eq!(c.get("missing"), 0);
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn prefix_sum_and_json() {
        let mut c = Counters::new();
        c.add("drop_no_route", 4);
        c.add("drop_queue_full", 6);
        c.add("rreq_originated", 1);
        assert_eq!(c.sum_prefix("drop_"), 10);
        assert_eq!(
            c.to_json_in(Layout::Compact),
            "{\"drop_no_route\":4,\"drop_queue_full\":6,\"rreq_originated\":1}"
        );
    }
}
