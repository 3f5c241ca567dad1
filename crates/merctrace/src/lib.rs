//! merctrace — cycle-accurate tracing and metrics for the Mercury
//! simulation.
//!
//! The paper's evaluation (§7.3/§7.4) hinges on *where* the cycles of
//! a mode switch go — rendezvous, state transfer, page-info
//! recompute, reload — yet end-to-end numbers alone cannot show that.
//! merctrace is the observability layer the rest of the workspace
//! reports through: a process-wide set of per-CPU event rings holding
//! span begin/end, counter and histogram records, each timestamped in
//! **simulated cycles** (the `simx86` cost-model clock, 3000 cycles =
//! 1 µs — see `simx86::costs`), never in host time.  Probes read the
//! simulated clock with the free `Cpu::cycles()` accessor, so tracing
//! never perturbs the numbers it reports.
//!
//! # Feature gating
//!
//! The probe macros ([`span_begin!`], [`span_end!`], [`counter!`],
//! [`hist!`]) are the only interface instrumented crates use, and they
//! are compiled by the `enabled` cargo feature:
//!
//! * feature **off** (the default, and what `cargo test --workspace`
//!   builds): every macro expands to an empty block — the arguments
//!   are not even evaluated, so instrumented hot paths carry zero
//!   probe overhead;
//! * feature **on** (selected by the umbrella crate's `trace` feature,
//!   which the `switch_timeline` bin requires): macros forward to
//!   [`record`], which appends to the per-CPU ring and updates the
//!   aggregate counter/histogram tables.
//!
//! The library itself (rings, registry, exporters) is always
//! compiled, so it can be tested and documented in both
//! configurations; [`ENABLED`] reports which one this build is.
//!
//! Recording is additionally gated at runtime by [`arm`]/[`disarm`]
//! (disarmed at startup), so a tracing-enabled binary can warm up its
//! workload without flooding the rings and then trace just the region
//! of interest.
//!
//! # Example
//!
//! ```
//! // Direct API — works in both feature configurations.
//! merctrace::init(1024);
//! merctrace::arm();
//! merctrace::reset();
//! let cpu = 31; // use a dedicated CPU index so the example is self-contained
//! merctrace::record(cpu, merctrace::Kind::SpanBegin, "doc.attach", 0, 1_000);
//! merctrace::record(cpu, merctrace::Kind::Counter, "doc.hypercalls", 3, 1_500);
//! merctrace::record(cpu, merctrace::Kind::SpanEnd, "doc.attach", 0, 4_000);
//! let snap = merctrace::snapshot();
//! assert_eq!(snap.span_cycles().get("doc.attach"), Some(&3_000));
//! assert_eq!(snap.counter("doc.hypercalls"), 3);
//! // Exporters: plain JSON and Chrome about://tracing format.
//! let json = merctrace::export::json(&snap);
//! assert!(json.contains("doc.attach"));
//! let chrome = merctrace::export::chrome_trace(&snap, 3_000); // 3000 cycles = 1 µs
//! assert!(chrome.contains("\"ph\":\"B\""));
//! merctrace::disarm();
//! ```
//!
//! The macro layer looks the same but vanishes when the feature is
//! off:
//!
//! ```
//! merctrace::init(1024);
//! merctrace::arm();
//! merctrace::reset();
//! merctrace::span_begin!(30, "doc.macro.span", 100);
//! merctrace::span_end!(30, "doc.macro.span", 700);
//! let snap = merctrace::snapshot();
//! if merctrace::ENABLED {
//!     assert_eq!(snap.span_cycles()["doc.macro.span"], 600);
//! } else {
//!     // Compiled out: nothing was recorded at all.
//!     assert!(snap.span_cycles().get("doc.macro.span").is_none());
//! }
//! merctrace::disarm();
//! ```
//!
//! # Probe namespaces
//!
//! Instrumented crates use dotted, stable probe names: `simx86.*`,
//! `xenon.*`, `nimbus.*` and `switch.*` (the full inventory is tabled
//! in DESIGN.md §11), plus `watchdog.*` from the cluster crate's
//! dependability watchdog —
//! `watchdog.fault.{detected,recovered}` counters and
//! `watchdog.{attach,detach,degraded}` events around the
//! detect → attach → recover → detach loop (DESIGN.md §12).

#![deny(missing_docs)]

pub mod export;
pub mod registry;
pub mod ring;

use ring::Ring;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Whether this build of merctrace has the `enabled` feature on, i.e.
/// whether the probe macros expand to real recording calls.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Number of per-CPU rings the tracer allocates.  Records for CPU
/// indices at or above this are counted in
/// [`Snapshot::out_of_range`] and otherwise discarded.
pub const MAX_CPUS: usize = 32;

/// Ring capacity (records per CPU) used when [`record`] runs before
/// [`init`] was called.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Dense id assigned to each probe name by [`registry::intern`].
pub type ProbeId = u16;

/// The kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Opens a span; paired with the next [`Kind::SpanEnd`] of the
    /// same probe on the same CPU (spans of the same name may nest).
    SpanBegin,
    /// Closes the innermost open span of the same probe on this CPU.
    SpanEnd,
    /// Adds `value` to the probe's aggregate counter.
    Counter,
    /// Adds one `value` sample to the probe's aggregate histogram.
    Hist,
}

impl Kind {
    /// Stable lower-case name, as used by the JSON exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::SpanBegin => "span_begin",
            Kind::SpanEnd => "span_end",
            Kind::Counter => "counter",
            Kind::Hist => "hist",
        }
    }
}

/// One entry in a per-CPU event ring.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Timestamp in simulated cycles.
    pub ts: u64,
    /// Interned probe id (resolve with [`registry::name`]).
    pub probe: ProbeId,
    /// Record kind.
    pub kind: Kind,
    /// Counter increment or histogram sample; 0 for spans.
    pub value: u64,
}

/// Aggregate summary of one histogram probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistSummary {
    fn add(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

struct Tracer {
    rings: Vec<Mutex<Ring>>,
    counters: Mutex<BTreeMap<ProbeId, u64>>,
    hists: Mutex<BTreeMap<ProbeId, HistSummary>>,
    out_of_range: Mutex<u64>,
    // Runtime gate.  Acquire/Release so a disarm on one thread is
    // ordered against in-flight records on another; the volint
    // ATOMIC-ORDER rule audits this file for Relaxed use.
    armed: AtomicBool,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

fn make_tracer(capacity: usize) -> Tracer {
    Tracer {
        rings: (0..MAX_CPUS)
            .map(|_| Mutex::new(Ring::new(capacity)))
            .collect(),
        counters: Mutex::new(BTreeMap::new()),
        hists: Mutex::new(BTreeMap::new()),
        out_of_range: Mutex::new(0),
        armed: AtomicBool::new(false),
    }
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| make_tracer(DEFAULT_RING_CAPACITY))
}

/// Install the process-wide tracer with the given per-CPU ring
/// capacity.  The first caller wins; returns `true` when this call
/// performed the installation, `false` when a tracer (possibly with a
/// different capacity) already existed.
pub fn init(capacity_per_cpu: usize) -> bool {
    let mut installed = false;
    TRACER.get_or_init(|| {
        installed = true;
        make_tracer(capacity_per_cpu)
    });
    installed
}

/// Start recording.  The tracer starts disarmed so enabled builds can
/// warm up workloads without filling the rings.
pub fn arm() {
    tracer().armed.store(true, Ordering::Release);
}

/// Stop recording.  Records arriving while disarmed are discarded
/// before touching any ring.
pub fn disarm() {
    tracer().armed.store(false, Ordering::Release);
}

/// Whether the tracer is currently recording.
pub fn is_armed() -> bool {
    tracer().armed.load(Ordering::Acquire)
}

/// Append one record to `cpu`'s ring (and fold counters/histograms
/// into the aggregate tables).  This is what the probe macros expand
/// to when the `enabled` feature is on; it is also callable directly,
/// in any configuration, by code that owns its own instrumentation
/// decision (e.g. the exporter tests above).
pub fn record(cpu: usize, kind: Kind, name: &'static str, value: u64, ts: u64) {
    let t = tracer();
    if !t.armed.load(Ordering::Acquire) {
        return;
    }
    let probe = registry::intern(name);
    if cpu < MAX_CPUS {
        t.rings[cpu]
            .lock()
            .expect("trace ring poisoned")
            .push(Record {
                ts,
                probe,
                kind,
                value,
            });
    } else {
        *t.out_of_range.lock().expect("trace counter poisoned") += 1;
    }
    match kind {
        Kind::Counter => {
            *t.counters
                .lock()
                .expect("trace counter poisoned")
                .entry(probe)
                .or_insert(0) += value;
        }
        Kind::Hist => {
            t.hists
                .lock()
                .expect("trace hist poisoned")
                .entry(probe)
                .or_default()
                .add(value);
        }
        Kind::SpanBegin | Kind::SpanEnd => {}
    }
}

/// Discard all recorded data (rings, counters, histograms, drop
/// counts).  The probe-name registry is preserved: ids are stable for
/// the life of the process.
pub fn reset() {
    let t = tracer();
    for ring in &t.rings {
        ring.lock().expect("trace ring poisoned").clear();
    }
    t.counters.lock().expect("trace counter poisoned").clear();
    t.hists.lock().expect("trace hist poisoned").clear();
    *t.out_of_range.lock().expect("trace counter poisoned") = 0;
}

/// The records of one CPU's ring at snapshot time.
#[derive(Debug, Clone)]
pub struct CpuTrace {
    /// CPU index.
    pub cpu: usize,
    /// Retained records, oldest first.
    pub records: Vec<Record>,
    /// Records lost to ring overflow on this CPU.
    pub dropped: u64,
}

/// A consistent copy of everything the tracer holds.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Probe names, indexed by [`ProbeId`].
    pub probes: Vec<&'static str>,
    /// Per-CPU traces (only CPUs with records or drops are included).
    pub cpus: Vec<CpuTrace>,
    /// Aggregate counters by probe name.
    pub counters: Vec<(&'static str, u64)>,
    /// Aggregate histograms by probe name.
    pub hists: Vec<(&'static str, HistSummary)>,
    /// Records discarded because their CPU index was ≥ [`MAX_CPUS`].
    pub out_of_range: u64,
}

impl Snapshot {
    /// Resolve a probe id to its name (`"?"` if unknown).
    pub fn probe_name(&self, id: ProbeId) -> &'static str {
        self.probes.get(id as usize).copied().unwrap_or("?")
    }

    /// Total cycles spent inside each span probe, summed over all
    /// CPUs.  Begin/end records are paired per CPU with a stack per
    /// probe, so same-name spans may nest; unmatched begins are
    /// ignored.
    pub fn span_cycles(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for cpu in &self.cpus {
            let mut stacks: HashMap<ProbeId, Vec<u64>> = HashMap::new();
            for r in &cpu.records {
                match r.kind {
                    Kind::SpanBegin => stacks.entry(r.probe).or_default().push(r.ts),
                    Kind::SpanEnd => {
                        if let Some(begin) = stacks.entry(r.probe).or_default().pop() {
                            *out.entry(self.probe_name(r.probe)).or_insert(0) +=
                                r.ts.saturating_sub(begin);
                        }
                    }
                    Kind::Counter | Kind::Hist => {}
                }
            }
        }
        out
    }

    /// Number of completed (begin/end-paired) spans per probe.
    pub fn span_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for cpu in &self.cpus {
            let mut depth: HashMap<ProbeId, u64> = HashMap::new();
            for r in &cpu.records {
                match r.kind {
                    Kind::SpanBegin => *depth.entry(r.probe).or_insert(0) += 1,
                    Kind::SpanEnd => {
                        let d = depth.entry(r.probe).or_insert(0);
                        if *d > 0 {
                            *d -= 1;
                            *out.entry(self.probe_name(r.probe)).or_insert(0) += 1;
                        }
                    }
                    Kind::Counter | Kind::Hist => {}
                }
            }
        }
        out
    }

    /// Aggregate counter value for `name` (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Aggregate histogram for `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<HistSummary> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| *h)
    }

    /// Total records lost anywhere (ring overflow plus out-of-range
    /// CPU indices).
    pub fn total_dropped(&self) -> u64 {
        self.out_of_range + self.cpus.iter().map(|c| c.dropped).sum::<u64>()
    }
}

/// Copy the tracer's current state out for analysis or export.
pub fn snapshot() -> Snapshot {
    let t = tracer();
    let probes = registry::names();
    let mut cpus = Vec::new();
    for (i, ring) in t.rings.iter().enumerate() {
        let ring = ring.lock().expect("trace ring poisoned");
        if !ring.is_empty() || ring.dropped() > 0 {
            cpus.push(CpuTrace {
                cpu: i,
                records: ring.records(),
                dropped: ring.dropped(),
            });
        }
    }
    let name_of = |id: &ProbeId| probes.get(*id as usize).copied().unwrap_or("?");
    let counters = t
        .counters
        .lock()
        .expect("trace counter poisoned")
        .iter()
        .map(|(id, v)| (name_of(id), *v))
        .collect();
    let hists = t
        .hists
        .lock()
        .expect("trace hist poisoned")
        .iter()
        .map(|(id, h)| (name_of(id), *h))
        .collect();
    let out_of_range = *t.out_of_range.lock().expect("trace counter poisoned");
    Snapshot {
        probes,
        cpus,
        counters,
        hists,
        out_of_range,
    }
}

// --------------------------------------------------------------- the macros

/// Open a span: `span_begin!(cpu_index, "probe.name", now_cycles)`.
///
/// Pair with [`span_end!`] of the same probe on the same CPU.  The
/// name must be a `&'static str`; the timestamp is the simulated
/// cycle count (read it with the free `Cpu::cycles()`, never
/// `rdtsc()`, so probing leaves simulated time untouched).  Expands
/// to nothing — arguments unevaluated — when the `enabled` feature is
/// off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! span_begin {
    ($cpu:expr, $name:expr, $ts:expr) => {
        $crate::record(
            $cpu as usize,
            $crate::Kind::SpanBegin,
            $name,
            0u64,
            $ts as u64,
        )
    };
}

/// Close the innermost open span of this probe on this CPU:
/// `span_end!(cpu_index, "probe.name", now_cycles)`.
///
/// Expands to nothing — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! span_end {
    ($cpu:expr, $name:expr, $ts:expr) => {
        $crate::record(
            $cpu as usize,
            $crate::Kind::SpanEnd,
            $name,
            0u64,
            $ts as u64,
        )
    };
}

/// Add to a named counter: `counter!(cpu_index, "probe.name", delta,
/// now_cycles)`.
///
/// Expands to nothing — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! counter {
    ($cpu:expr, $name:expr, $value:expr, $ts:expr) => {
        $crate::record(
            $cpu as usize,
            $crate::Kind::Counter,
            $name,
            $value as u64,
            $ts as u64,
        )
    };
}

/// Record one histogram sample: `hist!(cpu_index, "probe.name",
/// sample, now_cycles)`.
///
/// Expands to nothing — arguments unevaluated — when the `enabled`
/// feature is off.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! hist {
    ($cpu:expr, $name:expr, $value:expr, $ts:expr) => {
        $crate::record(
            $cpu as usize,
            $crate::Kind::Hist,
            $name,
            $value as u64,
            $ts as u64,
        )
    };
}

/// Open a span (compiled-out variant: the `enabled` feature is off,
/// so this expands to an empty block and its arguments are never
/// evaluated).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! span_begin {
    ($($args:tt)*) => {{}};
}

/// Close a span (compiled-out variant: expands to an empty block,
/// arguments never evaluated).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! span_end {
    ($($args:tt)*) => {{}};
}

/// Add to a counter (compiled-out variant: expands to an empty block,
/// arguments never evaluated).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! counter {
    ($($args:tt)*) => {{}};
}

/// Record a histogram sample (compiled-out variant: expands to an
/// empty block, arguments never evaluated).
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! hist {
    ($($args:tt)*) => {{}};
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global and unit tests share the process,
    // so each test below uses its own CPU indices and probe names and
    // never calls the global `reset()`.

    #[test]
    fn record_and_snapshot_roundtrip() {
        init(256);
        arm();
        record(20, Kind::SpanBegin, "t.lib.span", 0, 100);
        record(20, Kind::Counter, "t.lib.count", 5, 150);
        record(20, Kind::Hist, "t.lib.hist", 40, 180);
        record(20, Kind::Hist, "t.lib.hist", 60, 190);
        record(20, Kind::SpanEnd, "t.lib.span", 0, 400);
        let snap = snapshot();
        assert_eq!(snap.span_cycles()["t.lib.span"], 300);
        assert_eq!(snap.span_counts()["t.lib.span"], 1);
        assert_eq!(snap.counter("t.lib.count"), 5);
        let h = snap.hist("t.lib.hist").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 100);
        assert_eq!(h.min, 40);
        assert_eq!(h.max, 60);
        assert!((h.mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_pair_innermost_first() {
        init(256);
        arm();
        record(21, Kind::SpanBegin, "t.lib.nest", 0, 0);
        record(21, Kind::SpanBegin, "t.lib.nest", 0, 10);
        record(21, Kind::SpanEnd, "t.lib.nest", 0, 30); // inner: 20
        record(21, Kind::SpanEnd, "t.lib.nest", 0, 100); // outer: 100
        let snap = snapshot();
        assert_eq!(snap.span_cycles()["t.lib.nest"], 120);
        assert_eq!(snap.span_counts()["t.lib.nest"], 2);
    }

    #[test]
    fn disarmed_records_are_discarded() {
        init(256);
        arm();
        disarm();
        record(22, Kind::Counter, "t.lib.disarmed", 1, 0);
        let snap = snapshot();
        assert_eq!(snap.counter("t.lib.disarmed"), 0);
        assert!(!snap.cpus.iter().any(|c| c.cpu == 22));
        arm();
    }

    #[test]
    fn out_of_range_cpu_is_counted() {
        init(256);
        arm();
        record(MAX_CPUS + 3, Kind::Counter, "t.lib.oor", 1, 0);
        let snap = snapshot();
        assert!(snap.out_of_range >= 1);
        // The aggregate counter still fires: only the ring record has
        // nowhere to go.
        assert_eq!(snap.counter("t.lib.oor"), 1);
    }

    #[test]
    fn enabled_flag_matches_feature() {
        assert_eq!(ENABLED, cfg!(feature = "enabled"));
    }
}
