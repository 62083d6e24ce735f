//! The statically-shaped metric registry.
//!
//! Rather than a string-keyed map (which would put a hash + allocation on
//! every hot-path update), the registry is a plain struct of per-subsystem
//! metric groups: every instrumentation site touches a field directly, so
//! recording is exactly one relaxed atomic op. Every metric is declared
//! once, as a row of the `registry!` table below: the row gives the
//! field, its type, its export name and help string, and for counters
//! the deterministic/runtime class. The macro generates the group
//! structs, [`Registry`], and the enumeration behind
//! [`Registry::counters`] etc., which only runs at export time.
//!
//! A *deterministic* counter is one whose value is a pure function of the
//! workload (seed, parameters): simulated events, messages, findings,
//! encoded bytes. Everything timing- or scheduling-dependent (pool reuse,
//! mailbox depth, latencies) is *runtime*: real under the same roof, but
//! excluded from the manifest's reproducibility-checked section because
//! two byte-identical runs legitimately differ there.

use crate::metrics::{Counter, Gauge, Histogram};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Class of a counter row: a pure function of the workload, exported in
/// the manifest's deterministic section.
const DETERMINISTIC: bool = true;
/// Class of a counter row: timing- or scheduling-dependent, exported in
/// the manifest's runtime section.
const RUNTIME: bool = false;

/// One metric of the table, borrowed from a live registry. Only counters
/// carry a class; gauges and histograms are always runtime.
enum Row<'a> {
    Counter(&'a Counter, bool),
    Gauge(&'a Gauge),
    Histogram(&'a Histogram),
}

/// Declare the registry: one block per subsystem group, one row per
/// metric. A row reads
///
/// ```text
/// /// field doc
/// field: Counter(DETERMINISTIC or RUNTIME) = "export_name", "help";
/// field: Gauge = "export_name", "help";
/// field: Histogram = "export_name", "help";
/// ```
///
/// and becomes a public field of its group struct plus one entry of
/// `Registry::each`, in table order.
macro_rules! registry {
    ($(
        $(#[$group_doc:meta])*
        $group:ident: $Group:ident {
            $(
                $(#[$doc:meta])*
                $field:ident: $Kind:ident $(($class:expr))? = $name:literal, $help:literal;
            )*
        }
    )*) => {
        $(
            $(#[$group_doc])*
            #[derive(Debug, Default)]
            pub struct $Group {
                $($(#[$doc])* pub $field: $Kind,)*
            }
        )*

        /// All subsystem metric groups under one roof.
        #[derive(Debug, Default)]
        pub struct Registry {
            $(pub $group: $Group,)*
        }

        impl Registry {
            /// Visit every metric in table order with its group's field
            /// name, its export name and its help string.
            fn each<'a>(
                &'a self,
                mut visit: impl FnMut(&str, &'static str, &'static str, Row<'a>),
            ) {
                $($(
                    visit(
                        stringify!($group),
                        $name,
                        $help,
                        Row::$Kind(&self.$group.$field $(, $class)?),
                    );
                )*)*
            }
        }
    };
}

registry! {
    /// `mpisim`: the virtual-time MPI substrate.
    mpi: MpiMetrics {
        /// Simulations executed (`ats_mpi::run` entries).
        runs: Counter(DETERMINISTIC) = "ats_mpisim_runs_total", "Simulations executed";
        /// Rank threads spawned across all runs.
        ranks: Counter(DETERMINISTIC) = "ats_mpisim_ranks_total", "Rank threads spawned";
        /// Events recorded into rank-local traces.
        events: Counter(DETERMINISTIC) =
            "ats_mpisim_events_total", "Events recorded into traces";
        /// Point-to-point envelopes pushed through mailboxes.
        messages: Counter(DETERMINISTIC) =
            "ats_mpisim_messages_total", "P2P envelopes through mailboxes";
        /// Collective operations completed (one per op, not per rank).
        collectives: Counter(DETERMINISTIC) =
            "ats_mpisim_collectives_total", "Collective operations completed";
        /// Simulated tree/butterfly stages across all collectives.
        collective_rounds: Counter(DETERMINISTIC) =
            "ats_mpisim_collective_rounds_total", "Simulated collective tree stages";
        /// Deepest any mailbox queue ever got.
        mailbox_depth_max: Gauge =
            "ats_mpisim_mailbox_depth_max", "Deepest mailbox queue seen";
        /// Scheduler events executed by the discrete-event backend (task
        /// resumptions popped off the virtual-clock queue).
        sched_events: Counter(DETERMINISTIC) =
            "ats_mpisim_sched_events_total", "Discrete-event scheduler events executed";
        /// Deepest the discrete-event ready queue ever got.
        sched_ready_depth_max: Gauge =
            "ats_mpisim_sched_ready_depth_max", "Deepest discrete-event ready queue seen";
    }

    /// `trace`: codecs and the event-buffer pool.
    trace: TraceMetrics {
        /// Bytes produced by the ATSB binary encoder.
        binary_bytes_encoded: Counter(DETERMINISTIC) =
            "ats_trace_binary_bytes_encoded_total", "ATSB bytes encoded";
        /// Bytes consumed by the ATSB binary decoder.
        binary_bytes_decoded: Counter(DETERMINISTIC) =
            "ats_trace_binary_bytes_decoded_total", "ATSB bytes decoded";
        /// Bytes written as JSONL.
        jsonl_bytes_encoded: Counter(DETERMINISTIC) =
            "ats_trace_jsonl_bytes_encoded_total", "JSONL bytes written";
        /// Bytes read as JSONL.
        jsonl_bytes_decoded: Counter(DETERMINISTIC) =
            "ats_trace_jsonl_bytes_decoded_total", "JSONL bytes read";
        /// Event-buffer pool takes satisfied from the pool.
        pool_hits: Counter(RUNTIME) =
            "ats_trace_pool_hits_total", "Event-buffer pool reuse hits";
        /// Event-buffer pool takes that allocated fresh.
        pool_misses: Counter(RUNTIME) =
            "ats_trace_pool_misses_total", "Event-buffer pool misses";
        /// Buffers recycled back into the pool.
        pool_recycled: Counter(RUNTIME) =
            "ats_trace_pool_recycled_total", "Event buffers recycled";
    }

    /// `harness::pool`: the bounded sweep worker pool.
    pool: PoolMetrics {
        /// Tasks executed through the pool.
        tasks: Counter(DETERMINISTIC) = "ats_pool_tasks_total", "Worker-pool tasks executed";
        /// Nanoseconds workers spent executing tasks (busy time).
        busy_ns: Counter(RUNTIME) = "ats_pool_busy_nanoseconds_total", "Worker busy time";
        /// Nanoseconds of pool wall time (per `run_indexed` call, summed).
        wall_ns: Counter(RUNTIME) = "ats_pool_wall_nanoseconds_total", "Pool wall time";
        /// Worker count of the most recent pool launch.
        jobs_occupancy: Gauge =
            "ats_pool_jobs_occupancy", "Workers in the latest pool launch";
        /// Delay between pool launch and each task being claimed.
        queue_wait: Histogram = "ats_pool_queue_wait_seconds", "Task claim latency";
        /// Per-task execution time.
        task_time: Histogram = "ats_pool_task_time_seconds", "Per-task execution time";
    }

    /// `analyzer`: EXPERT-style pattern search.
    analyzer: AnalyzerMetrics {
        /// Analyses performed.
        analyses: Counter(DETERMINISTIC) = "ats_analyzer_analyses_total", "Analyses performed";
        /// Events ingested across all analyses.
        events_ingested: Counter(DETERMINISTIC) =
            "ats_analyzer_events_ingested_total", "Events ingested";
        /// Bytes ingested from on-disk traces.
        bytes_ingested: Counter(DETERMINISTIC) =
            "ats_analyzer_bytes_ingested_total", "Bytes ingested from disk";
        /// Findings reported (above-threshold severities).
        findings: Counter(DETERMINISTIC) = "ats_analyzer_findings_total", "Findings reported";
        /// State extraction pass.
        extract_time: Histogram = "ats_analyzer_extract_seconds", "State extraction pass";
        /// Late-sender pattern matching.
        late_sender_time: Histogram =
            "ats_analyzer_pattern_late_sender_seconds", "Late-sender matching";
        /// Late-receiver pattern matching.
        late_receiver_time: Histogram =
            "ats_analyzer_pattern_late_receiver_seconds", "Late-receiver matching";
        /// Wrong-order pattern matching.
        wrong_order_time: Histogram =
            "ats_analyzer_pattern_wrong_order_seconds", "Wrong-order matching";
        /// Collective wait-state matching.
        collective_time: Histogram =
            "ats_analyzer_pattern_collective_seconds", "Collective wait matching";
        /// Critical-wait (progress/serialization) matching.
        critical_time: Histogram =
            "ats_analyzer_pattern_critical_seconds", "Critical-wait matching";
        /// Severity cube → report build.
        severity_time: Histogram =
            "ats_analyzer_severity_seconds", "Severity cube and report build";
    }

    /// `fuzz::campaign`: the seeded scenario fuzzer.
    fuzz: FuzzMetrics {
        /// Scenarios executed.
        scenarios: Counter(DETERMINISTIC) =
            "ats_fuzz_scenarios_total", "Fuzz scenarios executed";
        /// Phases across all executed scenarios.
        phases: Counter(DETERMINISTIC) = "ats_fuzz_phases_total", "Fuzz phases executed";
        /// Oracle violations found.
        violations: Counter(DETERMINISTIC) = "ats_fuzz_violations_total", "Oracle violations";
        /// Simulation re-runs spent shrinking violating scenarios.
        shrink_iterations: Counter(DETERMINISTIC) =
            "ats_fuzz_shrink_iterations_total", "Shrink re-runs";
        /// Full oracle verdict latency (predict + execute + compare).
        oracle_time: Histogram = "ats_fuzz_oracle_seconds", "Oracle verdict latency";
        /// End-to-end per-scenario latency (generate + run + check).
        scenario_time: Histogram = "ats_fuzz_scenario_seconds", "Per-scenario latency";
    }

    /// `store`: the content-addressed artifact store. All store counters are
    /// runtime-classified — hits and misses depend on what previous runs left
    /// on disk, not on the workload alone.
    store: StoreMetrics {
        /// Lookups satisfied from the store (integrity-verified).
        hits: Counter(RUNTIME) = "ats_store_hits_total", "Artifact-store verified hits";
        /// Lookups that found nothing usable.
        misses: Counter(RUNTIME) = "ats_store_misses_total", "Artifact-store misses";
        /// Entries committed.
        puts: Counter(RUNTIME) = "ats_store_puts_total", "Artifact-store entries committed";
        /// Entries rejected because size or checksum verification failed.
        integrity_failures: Counter(RUNTIME) =
            "ats_store_integrity_failures_total", "Artifact-store checksum rejections";
        /// Artifact bytes read back on hits.
        bytes_read: Counter(RUNTIME) =
            "ats_store_bytes_read_total", "Artifact bytes replayed from the store";
        /// Artifact bytes written on puts.
        bytes_written: Counter(RUNTIME) =
            "ats_store_bytes_written_total", "Artifact bytes persisted to the store";
    }

    /// `serve`: the campaign HTTP service. All serve metrics are
    /// runtime-classified — they measure traffic, not workload.
    serve: ServeMetrics {
        /// Requests accepted and answered (any status).
        requests: Counter(RUNTIME) = "ats_serve_requests_total", "Service requests answered";
        /// Connections shed with 429 at admission.
        shed: Counter(RUNTIME) =
            "ats_serve_shed_total", "Connections shed with 429 at admission";
        /// Responses with a 4xx/5xx status.
        errors: Counter(RUNTIME) =
            "ats_serve_errors_total", "Service responses with an error status";
        /// Response body bytes written.
        bytes_out: Counter(RUNTIME) =
            "ats_serve_bytes_out_total", "Response body bytes written";
        /// Campaign rows streamed across all responses.
        rows_streamed: Counter(RUNTIME) =
            "ats_serve_rows_streamed_total", "Campaign rows streamed to clients";
        /// Most requests ever in flight at once.
        inflight_max: Gauge =
            "ats_serve_inflight_max", "Most requests ever in flight at once";
        /// Live connections right now.
        connections: Gauge = "ats_serve_connections", "Live service connections";
        /// Request latency, accept to last byte.
        request_time: Histogram =
            "ats_serve_request_seconds", "Request latency, accept to last byte";
    }
}

/// An enumerated counter: name, help, deterministic flag, current value.
pub struct CounterDesc {
    pub name: &'static str,
    pub help: &'static str,
    pub deterministic: bool,
    pub value: u64,
}

/// An enumerated gauge.
pub struct GaugeDesc {
    pub name: &'static str,
    pub help: &'static str,
    pub value: u64,
}

/// An enumerated histogram (borrowed; render via its accessors).
pub struct HistDesc<'a> {
    pub name: &'static str,
    pub help: &'static str,
    pub hist: &'a Histogram,
}

impl Registry {
    /// Enumerate every counter with its export name. The `deterministic`
    /// flag drives the manifest partition (see module docs).
    pub fn counters(&self) -> Vec<CounterDesc> {
        let mut out = Vec::new();
        self.each(|_, name, help, row| {
            if let Row::Counter(c, deterministic) = row {
                out.push(CounterDesc {
                    name,
                    help,
                    deterministic,
                    value: c.get(),
                });
            }
        });
        out
    }

    /// Enumerate every gauge. Gauges are always runtime-classified.
    pub fn gauges(&self) -> Vec<GaugeDesc> {
        let mut out = Vec::new();
        self.each(|_, name, help, row| {
            if let Row::Gauge(g) = row {
                out.push(GaugeDesc {
                    name,
                    help,
                    value: g.get(),
                });
            }
        });
        out
    }

    /// Enumerate every histogram. Histograms are always runtime-classified.
    pub fn histograms(&self) -> Vec<HistDesc<'_>> {
        let mut out = Vec::new();
        self.each(|_, name, help, row| {
            if let Row::Histogram(hist) = row {
                out.push(HistDesc { name, help, hist });
            }
        });
        out
    }
}

/// A cloneable, shareable reference to a [`Registry`].
///
/// Configs thread a `Handle` the same way they thread a trace-buffer
/// pool: `Option<Handle>` defaulting to `None`
/// (no instrumentation, near-zero cost). A *fresh* handle gives a test or
/// session its own registry, immune to concurrent pollution; the
/// process-wide [`global`] handle is what free-function call sites (the
/// trace codec) record into when [`global_enabled`] is armed.
#[derive(Clone, Default)]
pub struct Handle(Arc<Registry>);

impl Handle {
    /// A handle to a brand-new, all-zero registry.
    pub fn new() -> Self {
        Handle(Arc::new(Registry::default()))
    }

    /// Do these two handles share one registry?
    pub fn same_registry(&self, other: &Handle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Handle {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.0
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obs::Handle({:p})", Arc::as_ptr(&self.0))
    }
}

static GLOBAL: OnceLock<Handle> = OnceLock::new();
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide registry handle (created on first use).
pub fn global() -> &'static Handle {
    GLOBAL.get_or_init(Handle::new)
}

/// Should free-function call sites (trace codec, pools without an explicit
/// handle) record into [`global`]? Default `false`: one relaxed load and
/// out.
#[inline]
pub fn global_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Arm or disarm global recording.
pub fn set_global_enabled(enabled: bool) {
    GLOBAL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// `Some(global handle)` when armed, `None` otherwise — the one-liner for
/// free-function instrumentation sites.
#[inline]
pub fn global_if_enabled() -> Option<&'static Handle> {
    if global_enabled() {
        Some(global())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_handles_are_independent() {
        let a = Handle::new();
        let b = Handle::new();
        a.mpi.events.add(10);
        assert_eq!(a.mpi.events.get(), 10);
        assert_eq!(b.mpi.events.get(), 0);
        assert!(!a.same_registry(&b));
        let c = a.clone();
        assert!(a.same_registry(&c));
        c.mpi.events.inc();
        assert_eq!(a.mpi.events.get(), 11);
    }

    #[test]
    fn enumeration_covers_all_subsystems() {
        const PREFIXES: [(&str, &str); 7] = [
            ("mpi", "ats_mpisim_"),
            ("trace", "ats_trace_"),
            ("pool", "ats_pool_"),
            ("analyzer", "ats_analyzer_"),
            ("fuzz", "ats_fuzz_"),
            ("store", "ats_store_"),
            ("serve", "ats_serve_"),
        ];
        let r = Registry::default();
        let names: Vec<&str> = r
            .counters()
            .iter()
            .map(|c| c.name)
            .chain(r.gauges().iter().map(|g| g.name))
            .chain(r.histograms().iter().map(|h| h.name))
            .collect();
        for (_, prefix) in PREFIXES {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no metric for subsystem {prefix}"
            );
        }
        // Export names are unique.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        // Each name carries its own group's prefix.
        r.each(|group, name, _, _| {
            let (_, prefix) = PREFIXES
                .iter()
                .find(|(g, _)| *g == group)
                .unwrap_or_else(|| panic!("no prefix for group {group}"));
            assert!(name.starts_with(prefix), "{name} is in group {group}");
        });
        // Counters are totals; histograms measure seconds.
        for c in r.counters() {
            assert!(c.name.ends_with("_total"), "counter {}", c.name);
        }
        for h in r.histograms() {
            assert!(h.name.ends_with("_seconds"), "histogram {}", h.name);
        }
    }
}
