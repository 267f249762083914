//! Service-level observability: cumulative aggregation of per-solve
//! telemetry, a deterministic snapshot stream, and Chrome trace-event
//! export.
//!
//! [`crate::telemetry`] records *one* solve; this module is the layer
//! above it, built for long-lived engines (the serve engine) that answer
//! many requests and need a service-lifetime view of themselves: which
//! arms win, where work units go, how deep the degradation ladder bites
//! per tenant. Three pieces:
//!
//! * [`Histogram`] — the log2 histogram the telemetry layer stores
//!   internally, promoted to a public, mergeable type (bucket 0 holds
//!   the value 0, bucket `k` holds `[2^(k-1), 2^k)`);
//! * [`ObsNode`] — an owned, mergeable span-tree node.
//!   [`ObsNode::merge_span`] folds a finished recorder's
//!   [`SpanData`] snapshot into a cumulative
//!   hierarchical profile; [`chrome_trace`] serializes a profile as
//!   Chrome trace-event JSON (`ph:"B"/"E"` pairs) so it opens in any
//!   trace viewer;
//! * [`Aggregator`] — the service-lifetime accumulator: flat named
//!   counters, export-only operational counters, log2 histograms,
//!   per-tenant breakdowns ([`TenantObs`]), and the merged profile,
//!   plus the per-tick [`Aggregator::snapshot_line`] export.
//!
//! ## Determinism contract
//!
//! The aggregator itself is plain sequential state — the caller (the
//! serve engine's sequential merge pass) feeds it in input order, so its
//! contents are a pure function of the request stream. Two counter
//! families are distinguished on purpose:
//!
//! * **snapshot counters** ([`Aggregator::count`]) may appear in the
//!   per-tick snapshot stream and must therefore be invariant under
//!   worker width, cache warmth, and replay — only record facts about
//!   the *request stream* (admissions, outcomes, per-request work
//!   meters), never about engine internals that warmth can shift;
//! * **operational counters** ([`Aggregator::count_ops`]) appear only in
//!   the full [`Aggregator::to_json_string`] export and may legitimately
//!   vary with cache warmth (solves actually executed, responses
//!   replayed from cache).
//!
//! Snapshot lines and traces contain logical work-unit "time" only;
//! wall-clock nanoseconds appear in a trace only when the source
//! recorder opted into timings ([`TraceClock::WallNanos`]).

use std::collections::BTreeMap;

use crate::budget::CheckpointClass;
use crate::json::escape_str;
use crate::telemetry::SpanData;

/// Schema version of the snapshot-line and full-export documents.
pub const OBS_SCHEMA_VERSION: u64 = 1;

/// Number of log2 histogram buckets: bucket 0 holds the value 0, bucket
/// `k` (1 ..= 64) holds values in `[2^(k-1), 2^k)`.
pub const HIST_BUCKETS: usize = 65;

/// A log2 histogram over `u64` values.
///
/// Zero gets its own bucket (index 0): an empty-work request is a
/// distinct signal from a one-unit request and must never alias with
/// bucket 1. The JSON encoding is the sparse pair list
/// `[[bucket,count],…]` used by the telemetry export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; HIST_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: Box::new([0u64; HIST_BUCKETS]) }
    }

    /// Log2 bucket index of a value: `0 → 0`, else `⌊log2 v⌋ + 1`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if let Some(b) = self.buckets.get_mut(Self::bucket_of(v)) {
            *b = b.saturating_add(n);
        }
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Total observation count.
    pub fn total(&self) -> u64 {
        self.buckets.iter().fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Count in one bucket (0 for out-of-range indices).
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// The non-empty `(bucket, count)` pairs, in bucket order — the
    /// sparse form the JSON exports encode.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, &c)| (i, c))
    }

    /// Rebuilds a histogram from sparse `(bucket, count)` pairs; `None`
    /// if any bucket index is out of range. Inverse of
    /// [`Histogram::entries`].
    pub fn from_entries(pairs: &[(usize, u64)]) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(idx, count) in pairs {
            let b = h.buckets.get_mut(idx)?;
            *b = b.saturating_add(count);
        }
        Some(h)
    }

    /// Appends the sparse JSON encoding `[[bucket,count],…]` to `out`.
    fn push_json(&self, out: &mut String) {
        out.push('[');
        let mut first = true;
        for (bucket, count) in self.entries() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('[');
            push_u64(out, bucket as u64);
            out.push(',');
            push_u64(out, count);
            out.push(']');
        }
        out.push(']');
    }
}

/// One node of a cumulative observability profile: the owned, mergeable
/// counterpart of the telemetry layer's internal span node.
///
/// Names are owned `String`s (merged profiles outlive the `'static`
/// recorder they came from is not guaranteed for future producers), and
/// every collection is a `BTreeMap` so iteration — and therefore every
/// export — is deterministically sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsNode {
    /// Phase name.
    pub name: String,
    /// Times the phase was entered, summed across merged solves.
    pub entries: u64,
    /// Wall-clock nanoseconds, nonzero only when a merged recorder
    /// opted into timings.
    pub busy_ns: u64,
    /// Work units by [`CheckpointClass`] index.
    pub work: [u64; CheckpointClass::ALL.len()],
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Monotonic gauge maxima.
    pub gauges: BTreeMap<String, u64>,
    /// Log2 histograms, bucket-wise merged.
    pub hists: BTreeMap<String, Histogram>,
    /// Child phases by name.
    pub children: BTreeMap<String, ObsNode>,
}

impl ObsNode {
    /// An empty node named `name`.
    pub fn new(name: &str) -> ObsNode {
        ObsNode { name: name.to_string(), ..ObsNode::default() }
    }

    /// A profile built from a single span snapshot.
    pub fn from_span(span: &SpanData) -> ObsNode {
        let mut node = ObsNode::new(span.name);
        node.merge_span(span);
        node
    }

    /// Folds a finished recorder's span snapshot into this node: entry
    /// counts, work, and counters add; gauges take the max; histograms
    /// merge bucket-wise; children recurse by name.
    pub fn merge_span(&mut self, span: &SpanData) {
        self.entries = self.entries.saturating_add(span.entries);
        self.busy_ns = self.busy_ns.saturating_add(span.busy_ns);
        for (w, s) in self.work.iter_mut().zip(span.work.iter()) {
            *w = w.saturating_add(*s);
        }
        for &(name, v) in &span.counters {
            let slot = self.counters.entry(name.to_string()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for &(name, v) in &span.gauges {
            let slot = self.gauges.entry(name.to_string()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (name, h) in &span.hists {
            self.hists.entry(name.to_string()).or_default().merge(h);
        }
        for child in &span.children {
            self.children
                .entry(child.name.to_string())
                .or_insert_with(|| ObsNode::new(child.name))
                .merge_span(child);
        }
    }

    /// Work units of one class on this node (children excluded).
    pub fn work_units(&self, class: CheckpointClass) -> u64 {
        self.work.get(class.index()).copied().unwrap_or(0)
    }

    /// Total work units on this node (children excluded).
    pub fn work_total(&self) -> u64 {
        self.work.iter().fold(0u64, |acc, &w| acc.saturating_add(w))
    }

    /// Total work units of the whole subtree rooted here.
    pub fn subtree_work(&self) -> u64 {
        self.children
            .values()
            .fold(self.work_total(), |acc, c| acc.saturating_add(c.subtree_work()))
    }

    /// Child node by name.
    pub fn child(&self, name: &str) -> Option<&ObsNode> {
        self.children.get(name)
    }

    /// Appends the node's JSON object (same shape as the telemetry
    /// export's span objects) to `out`.
    fn push_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        out.push_str(&escape_str(&self.name));
        out.push_str("\",\"n\":");
        push_u64(out, self.entries);
        if self.busy_ns > 0 {
            out.push_str(",\"busy_ns\":");
            push_u64(out, self.busy_ns);
        }
        if self.work_total() > 0 {
            out.push_str(",\"work\":{");
            let mut first = true;
            for class in CheckpointClass::ALL {
                let v = self.work_units(class);
                if v == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(class.as_str());
                out.push_str("\":");
                push_u64(out, v);
            }
            out.push('}');
        }
        for (key, map) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            if map.is_empty() {
                continue;
            }
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_str(k));
                out.push_str("\":");
                push_u64(out, *v);
            }
            out.push('}');
        }
        if !self.hists.is_empty() {
            out.push_str(",\"hist\":{");
            for (i, (k, h)) in self.hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape_str(k));
                out.push_str("\":");
                h.push_json(out);
            }
            out.push('}');
        }
        if !self.children.is_empty() {
            out.push_str(",\"children\":[");
            for (i, child) in self.children.values().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                child.push_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }

    /// The node (and subtree) as a standalone JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(256);
        self.push_json(&mut out);
        out
    }
}

/// Which quantity supplies the trace-event timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClock {
    /// Deterministic work units from the budget meter (the default):
    /// byte-identical across runs, widths, and machines.
    WorkUnits,
    /// Wall-clock nanoseconds (`busy_ns`) — only meaningful for
    /// profiles merged from recorders with timings enabled, and **not**
    /// reproducible across runs.
    WallNanos,
}

/// Serializes a profile as Chrome trace-event JSON: one `ph:"B"` /
/// `ph:"E"` pair per phase, children laid out sequentially inside their
/// parent's interval, timestamps from the deterministic work-unit meter
/// (or `busy_ns` under [`TraceClock::WallNanos`]). Load the result in
/// any `chrome://tracing`-compatible viewer.
///
/// Under [`TraceClock::WorkUnits`] a phase's duration is its subtree
/// work total, so the root interval spans exactly the profile's total
/// metered work and sibling phases never overlap.
pub fn chrome_trace(root: &ObsNode, clock: TraceClock) -> String {
    fn duration(node: &ObsNode, clock: TraceClock) -> u64 {
        match clock {
            TraceClock::WorkUnits => node.subtree_work(),
            TraceClock::WallNanos => {
                let kids: u64 = node
                    .children
                    .values()
                    .fold(0u64, |acc, c| acc.saturating_add(duration(c, clock)));
                node.busy_ns.max(kids)
            }
        }
    }

    fn emit(node: &ObsNode, t0: u64, clock: TraceClock, out: &mut String, first: &mut bool) {
        let dur = duration(node, clock);
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("{\"name\":\"");
        out.push_str(&escape_str(&node.name));
        out.push_str("\",\"ph\":\"B\",\"ts\":");
        push_u64(out, t0);
        out.push_str(",\"pid\":1,\"tid\":1,\"args\":{\"n\":");
        push_u64(out, node.entries);
        out.push_str(",\"work\":");
        push_u64(out, node.work_total());
        for (k, v) in &node.counters {
            out.push_str(",\"");
            out.push_str(&escape_str(k));
            out.push_str("\":");
            push_u64(out, *v);
        }
        out.push_str("}}");
        let mut cursor = t0;
        for child in node.children.values() {
            emit(child, cursor, clock, out, first);
            cursor = cursor.saturating_add(duration(child, clock));
        }
        out.push_str(",{\"name\":\"");
        out.push_str(&escape_str(&node.name));
        out.push_str("\",\"ph\":\"E\",\"ts\":");
        push_u64(out, t0.saturating_add(dur));
        out.push_str(",\"pid\":1,\"tid\":1}");
    }

    let mut out = String::with_capacity(1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    emit(root, 0, clock, &mut out, &mut first);
    out.push_str("]}");
    out
}

/// Per-tenant cumulative breakdown carried in snapshot lines and the
/// full export. All fields are pure functions of the request stream
/// (admission decisions are made before the cache is consulted), so
/// they are safe to emit in the deterministic snapshot stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantObs {
    /// Request lines attributed to the tenant.
    pub requests: u64,
    /// `"status":"ok"` responses.
    pub ok: u64,
    /// `"status":"error"` responses.
    pub err: u64,
    /// `"status":"shed"` responses.
    pub shed: u64,
    /// Admissions below the full rung (Lemma-13 or greedy floor).
    pub degraded: u64,
    /// Work units metered by the tenant's solves (from the per-request
    /// [`crate::budget::SolveReport`]s).
    pub work: u64,
    /// Current admission token-bucket level (synced at snapshot time).
    pub bucket: u64,
}

impl TenantObs {
    /// Appends the tenant's JSON object (fixed field order) to `out`.
    fn push_json(&self, out: &mut String) {
        out.push_str("{\"requests\":");
        push_u64(out, self.requests);
        out.push_str(",\"ok\":");
        push_u64(out, self.ok);
        out.push_str(",\"err\":");
        push_u64(out, self.err);
        out.push_str(",\"shed\":");
        push_u64(out, self.shed);
        out.push_str(",\"degraded\":");
        push_u64(out, self.degraded);
        out.push_str(",\"work\":");
        push_u64(out, self.work);
        out.push_str(",\"bucket\":");
        push_u64(out, self.bucket);
        out.push('}');
    }
}

/// The service-lifetime observability accumulator.
///
/// Owned by a long-lived engine and fed from its sequential merge pass;
/// see the module docs for the snapshot-vs-operational counter split
/// and the determinism contract.
#[derive(Debug, Default)]
pub struct Aggregator {
    /// Snapshot-grade counters (warmth/width/replay-invariant).
    counters: BTreeMap<&'static str, u64>,
    /// Export-only operational counters (may vary with cache warmth).
    ops: BTreeMap<&'static str, u64>,
    /// Export-only log2 histograms.
    hists: BTreeMap<&'static str, Histogram>,
    /// Per-tenant breakdowns.
    tenants: BTreeMap<String, TenantObs>,
    /// The merged hierarchical profile.
    profile: ObsNode,
    /// Counter values as of the previous snapshot (for per-tick deltas).
    baseline: BTreeMap<&'static str, u64>,
    /// Snapshot lines emitted.
    snapshots: u64,
}

impl Aggregator {
    /// A fresh, empty aggregator.
    pub fn new() -> Aggregator {
        Aggregator { profile: ObsNode::new("root"), ..Aggregator::default() }
    }

    /// Adds `n` to the snapshot counter `name`. Only record facts that
    /// are invariant under worker width and cache warmth — this family
    /// feeds the deterministic snapshot stream.
    pub fn count(&mut self, name: &'static str, n: u64) {
        let slot = self.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Adds `n` to the operational counter `name` (full export only;
    /// cache warmth may legitimately change these).
    pub fn count_ops(&mut self, name: &'static str, n: u64) {
        let slot = self.ops.entry(name).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Records `v` into the log2 histogram `name` (full export only).
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Current value of a snapshot counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of an operational counter.
    pub fn op(&self, name: &str) -> u64 {
        self.ops.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if anything was observed into it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Mutable per-tenant slot, created zeroed on first sight.
    pub fn tenant_mut(&mut self, name: &str) -> &mut TenantObs {
        self.tenants.entry(name.to_string()).or_default()
    }

    /// The per-tenant breakdowns, sorted by tenant name.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &TenantObs)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds a finished solve's span snapshot into the cumulative
    /// profile.
    pub fn merge_span(&mut self, span: &SpanData) {
        self.profile.merge_span(span);
    }

    /// The merged hierarchical profile (root node).
    pub fn profile(&self) -> &ObsNode {
        &self.profile
    }

    /// Snapshot lines emitted so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Renders one single-line snapshot record for logical tick `tick`
    /// and advances the delta baseline:
    ///
    /// ```json
    /// {"v":1,"kind":"snapshot","tick":3,"counters":{…},"delta":{…},
    ///  "tenants":{"hog":{…}}}
    /// ```
    ///
    /// `counters` carries every snapshot counter (sorted, cumulative);
    /// `delta` carries only the counters that changed since the previous
    /// snapshot, with the change amount. The record contains no
    /// wall-clock data and no operational counters, so for a fixed
    /// request stream it is byte-identical at any worker width, any
    /// cache warmth, and on replay.
    pub fn snapshot_line(&mut self, tick: u64) -> String {
        self.snapshots = self.snapshots.saturating_add(1);
        let mut out = String::with_capacity(256);
        out.push_str("{\"v\":");
        push_u64(&mut out, OBS_SCHEMA_VERSION);
        out.push_str(",\"kind\":\"snapshot\",\"tick\":");
        push_u64(&mut out, tick);
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            push_u64(&mut out, *v);
        }
        out.push_str("},\"delta\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            let before = self.baseline.get(k).copied().unwrap_or(0);
            let delta = v.saturating_sub(before);
            if delta == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            push_u64(&mut out, delta);
        }
        out.push_str("},\"tenants\":{");
        for (i, (name, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_str(name));
            out.push_str("\":");
            t.push_json(&mut out);
        }
        out.push_str("}}");
        self.baseline = self.counters.clone();
        out
    }

    /// The full cumulative export: snapshot counters, operational
    /// counters, histograms, tenants, and the merged profile, as one
    /// sorted single-line JSON document. Unlike the snapshot stream,
    /// the `ops` section may vary with cache warmth (it counts solves
    /// actually executed vs replayed).
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"v\":");
        push_u64(&mut out, OBS_SCHEMA_VERSION);
        out.push_str(",\"kind\":\"obs\"");
        for (key, map) in [("counters", &self.counters), ("ops", &self.ops)] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(k);
                out.push_str("\":");
                push_u64(&mut out, *v);
            }
            out.push('}');
        }
        out.push_str(",\"hist\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            h.push_json(&mut out);
        }
        out.push_str("},\"tenants\":{");
        for (i, (name, t)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_str(name));
            out.push_str("\":");
            t.push_json(&mut out);
        }
        out.push_str("},\"profile\":");
        self.profile.push_json(&mut out);
        out.push('}');
        out
    }
}

/// Writes a `u64` without going through `format!` (the exporters stay
/// allocation-light).
fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        if let Some(b) = buf.get_mut(i) {
            *b = b'0' + (v % 10) as u8;
        }
        v /= 10;
        if v == 0 || i == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(buf.get(i..).unwrap_or_default()).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Recorder;

    #[test]
    fn zero_values_get_their_own_bucket() {
        // Regression: an empty-work request must not alias with the
        // [1,2) bucket.
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(1);
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        let pairs: Vec<(usize, u64)> = h.entries().collect();
        assert_eq!(pairs, vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(255), 8);
        assert_eq!(Histogram::bucket_of(256), 9);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_merge_and_entries_round_trip() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0u64, 1, 7, 7, 1 << 40] {
            a.record(v);
        }
        b.record_n(3, 4);
        a.merge(&b);
        assert_eq!(a.total(), 9);
        let pairs: Vec<(usize, u64)> = a.entries().collect();
        let back = Histogram::from_entries(&pairs).expect("in range");
        assert_eq!(back, a);
        assert!(Histogram::from_entries(&[(HIST_BUCKETS, 1)]).is_none());
        assert!(Histogram::new().is_empty());
        assert!(!a.is_empty());
    }

    fn sample_span(weight: u64) -> SpanData {
        let rec = Recorder::new();
        let t = rec.handle();
        t.work(CheckpointClass::Driver, 1);
        let arm = t.span("small");
        arm.count("lp.solves", weight);
        arm.work(CheckpointClass::LpPivot, 10 * weight);
        arm.gauge_max("peak", weight);
        arm.observe("sizes", weight);
        drop(arm);
        rec.snapshot()
    }

    #[test]
    fn merge_span_accumulates_across_solves() {
        let mut node = ObsNode::new("root");
        node.merge_span(&sample_span(2));
        node.merge_span(&sample_span(5));
        assert_eq!(node.work_units(CheckpointClass::Driver), 2);
        let small = node.child("small").expect("merged");
        assert_eq!(small.entries, 2);
        assert_eq!(small.counters.get("lp.solves"), Some(&7));
        assert_eq!(small.gauges.get("peak"), Some(&5), "gauges take the max");
        assert_eq!(small.work_units(CheckpointClass::LpPivot), 70);
        assert_eq!(small.hists.get("sizes").map(Histogram::total), Some(2));
        assert_eq!(node.subtree_work(), 72);
    }

    #[test]
    fn obs_node_json_matches_telemetry_span_shape() {
        let node = ObsNode::from_span(&sample_span(2));
        let json = node.to_json_string();
        assert!(json.starts_with("{\"name\":\"root\",\"n\":0"), "{json}");
        assert!(json.contains("\"counters\":{\"lp.solves\":2}"), "{json}");
        assert!(json.contains("\"hist\":{\"sizes\":[[2,1]]}"), "{json}");
        assert!(!json.contains("busy_ns"), "timings are opt-in: {json}");
    }

    #[test]
    fn chrome_trace_nests_children_sequentially() {
        let mut node = ObsNode::new("root");
        node.merge_span(&sample_span(1));
        node.merge_span(&sample_span(1));
        let trace = chrome_trace(&node, TraceClock::WorkUnits);
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        // Root B at 0, small B at 0, small E at 20, root E at 22.
        assert!(trace.contains("{\"name\":\"root\",\"ph\":\"B\",\"ts\":0,"), "{trace}");
        assert!(trace.contains("{\"name\":\"small\",\"ph\":\"B\",\"ts\":0,"), "{trace}");
        assert!(trace.contains("{\"name\":\"small\",\"ph\":\"E\",\"ts\":20,"), "{trace}");
        assert!(trace.contains("{\"name\":\"root\",\"ph\":\"E\",\"ts\":22,"), "{trace}");
        // Every B has a matching E.
        assert_eq!(trace.matches("\"ph\":\"B\"").count(), trace.matches("\"ph\":\"E\"").count());
        // The document parses as JSON.
        crate::json::parse(&trace).expect("trace is valid JSON");
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let build = || {
            let mut node = ObsNode::new("root");
            node.merge_span(&sample_span(3));
            chrome_trace(&node, TraceClock::WorkUnits)
        };
        assert_eq!(build(), build());
        assert!(!build().contains("busy"), "work-unit clock carries no wall time");
    }

    #[test]
    fn aggregator_counters_and_tenants_accumulate() {
        let mut agg = Aggregator::new();
        agg.count("obs.requests", 2);
        agg.count("obs.requests", 1);
        agg.count_ops("obs.solves", 1);
        agg.observe("obs.req.work", 0);
        agg.observe("obs.req.work", 9);
        let t = agg.tenant_mut("hog");
        t.requests += 2;
        t.ok += 1;
        assert_eq!(agg.counter("obs.requests"), 3);
        assert_eq!(agg.op("obs.solves"), 1);
        assert_eq!(agg.hist("obs.req.work").map(Histogram::total), Some(2));
        assert_eq!(agg.hist("obs.req.work").map(|h| h.bucket(0)), Some(1));
        assert_eq!(agg.tenants().count(), 1);
    }

    #[test]
    fn snapshot_lines_carry_cumulative_and_delta() {
        let mut agg = Aggregator::new();
        agg.count("obs.ok", 2);
        agg.tenant_mut("a").ok = 2;
        let s1 = agg.snapshot_line(1);
        assert_eq!(
            s1,
            "{\"v\":1,\"kind\":\"snapshot\",\"tick\":1,\"counters\":{\"obs.ok\":2},\
             \"delta\":{\"obs.ok\":2},\"tenants\":{\"a\":{\"requests\":0,\"ok\":2,\
             \"err\":0,\"shed\":0,\"degraded\":0,\"work\":0,\"bucket\":0}}}"
        );
        agg.count("obs.ok", 1);
        let s2 = agg.snapshot_line(2);
        assert!(s2.contains("\"counters\":{\"obs.ok\":3}"), "{s2}");
        assert!(s2.contains("\"delta\":{\"obs.ok\":1}"), "{s2}");
        // No change since the last snapshot: empty delta.
        let s3 = agg.snapshot_line(3);
        assert!(s3.contains("\"delta\":{}"), "{s3}");
        assert_eq!(agg.snapshots(), 3);
        crate::json::parse(&s3).expect("snapshot is valid JSON");
    }

    #[test]
    fn full_export_separates_ops_from_snapshot_counters() {
        let mut agg = Aggregator::new();
        agg.count("obs.ok", 1);
        agg.count_ops("obs.solves", 1);
        agg.observe("obs.req.work", 4);
        agg.merge_span(&sample_span(1));
        let json = agg.to_json_string();
        assert!(json.contains("\"counters\":{\"obs.ok\":1}"), "{json}");
        assert!(json.contains("\"ops\":{\"obs.solves\":1}"), "{json}");
        assert!(json.contains("\"hist\":{\"obs.req.work\":[[3,1]]}"), "{json}");
        assert!(json.contains("\"profile\":{\"name\":\"root\""), "{json}");
        assert!(!json.contains('\n'));
        crate::json::parse(&json).expect("export is valid JSON");
        // The snapshot stream never mentions ops counters.
        assert!(!agg.snapshot_line(1).contains("obs.solves"));
    }

    #[test]
    fn tenant_names_are_escaped() {
        let mut agg = Aggregator::new();
        agg.tenant_mut("we\"ird").requests = 1;
        let line = agg.snapshot_line(1);
        crate::json::parse(&line).expect("escaped tenant names stay valid JSON");
        assert!(line.contains("we\\\"ird"), "{line}");
    }
}
