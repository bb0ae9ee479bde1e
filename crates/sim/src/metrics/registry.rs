//! A zero-dependency metrics registry: named counters, gauges and
//! histograms behind `BTreeMap`s, so every enumeration is deterministic
//! and a registry can be diffed and serialized byte-identically across
//! runs.
//!
//! Names are dotted paths by convention (`comm.bytes`,
//! `ironman.dn.ns`); the registry itself imposes no schema.

use super::hist::Histogram;
use std::collections::BTreeMap;

/// Named counters (monotone `u64`), gauges (point-in-time `f64`) and
/// log2 [`Histogram`]s.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        *self.counter_mut(name) += delta;
    }

    /// The named counter's value; 0 when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mutable access to a counter, creating it at zero. Handy for hot
    /// loops that want to skip the name lookup per event.
    pub fn counter_mut(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_string(), 0);
        }
        self.counters.get_mut(name).expect("just inserted")
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The named gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into the named histogram (creating it).
    pub fn record(&mut self, name: &str, value: u64) {
        self.hist_mut(name).record(value);
    }

    /// The named histogram, if anything was ever recorded into it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Mutable access to a histogram, creating it empty.
    pub fn hist_mut(&mut self, name: &str) -> &mut Histogram {
        if !self.hists.contains_key(name) {
            self.hists.insert(name.to_string(), Histogram::new());
        }
        self.hists.get_mut(name).expect("just inserted")
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_to_zero_and_accumulate() {
        let mut r = Registry::new();
        assert_eq!(r.counter("comm.bytes"), 0);
        r.inc("comm.bytes", 10);
        r.inc("comm.bytes", 5);
        assert_eq!(r.counter("comm.bytes"), 15);
        *r.counter_mut("comm.msgs") += 2;
        assert_eq!(r.counter("comm.msgs"), 2);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("util"), None);
        r.set_gauge("util", 0.5);
        r.set_gauge("util", 0.75);
        assert_eq!(r.gauge("util"), Some(0.75));
    }

    #[test]
    fn histograms_record_and_summarize() {
        let mut r = Registry::new();
        assert!(r.hist("lat").is_none());
        r.record("lat", 100);
        r.record("lat", 200);
        let s = r.hist("lat").unwrap().summary().unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 300);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = Registry::new();
        r.inc("z", 1);
        r.inc("a", 1);
        r.inc("m", 1);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn empty_registry_reports_empty() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.counters().count(), 0);
        assert_eq!(r.gauges().count(), 0);
        assert_eq!(r.hists().count(), 0);
    }
}
