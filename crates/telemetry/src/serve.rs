//! The serving counters, declared once.
//!
//! Every counter, gauge and histogram that `bitflow-serve` and
//! `bitflow-net` keep per served model is one row of the table at the
//! bottom of this file. The table generates the live [`ServeGauges`]
//! atomics, the serializable [`ServeSnapshot`], [`ServeGauges::snapshot`],
//! the [`ServeCounter`] handles the serving layers bump, and
//! [`ServeSnapshot::ROWS`], from which the Prometheus exposition renders
//! the serving families. A new counter is one row.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::hist::{bucket_upper_edge, LatencyHistogram};
use crate::snapshot::HistBucket;

/// Upper edges of the served-batch-size histogram buckets. Batches larger
/// than the last edge land in the implicit overflow bucket
/// (`le == u64::MAX` in [`SizeBucket`] terms).
pub const BATCH_SIZE_EDGES: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// One non-empty batch-size-histogram bucket: `count` served micro-batches
/// of `≤ le` requests (and more than the previous bucket's edge). Sparse
/// and non-cumulative, like [`HistBucket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeBucket {
    /// Inclusive upper edge of the bucket (requests per batch);
    /// `u64::MAX` marks the overflow bucket.
    pub le: u64,
    /// Batches that landed in this bucket.
    pub count: u64,
}

/// One request-lifecycle stage's latency distribution: how many requests
/// passed through the stage, the summed nanoseconds, and the occupied
/// histogram buckets (sparse, non-cumulative, same bucketing as
/// [`HistBucket`] op histograms). Always on — the serving runtime records
/// these whether or not tracing is enabled.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Requests that passed through the stage.
    pub count: u64,
    /// Summed stage time, nanoseconds.
    pub total_ns: u64,
    /// Occupied latency-histogram buckets (sparse, non-cumulative).
    pub buckets: Vec<HistBucket>,
}

/// One always-on request-lifecycle stage timer: a lock-free latency
/// histogram plus a running nanosecond sum, so the Prometheus exposition
/// can render a real histogram family (`_bucket`/`_sum`/`_count`).
/// Recording is two relaxed `fetch_add`s — cheap enough to leave on even
/// when tracing is off.
#[derive(Default)]
struct StageTimer {
    hist: LatencyHistogram,
    total_ns: AtomicU64,
}

impl StageTimer {
    #[inline]
    fn record(&self, ns: u64) {
        self.hist.record(ns);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageSnapshot {
        let buckets = self.hist.snapshot_buckets();
        StageSnapshot {
            count: self.hist.count(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(idx, &count)| HistBucket {
                    le_ns: bucket_upper_edge(idx),
                    count,
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for StageTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageTimer")
            .field("count", &self.hist.count())
            .field("total_ns", &self.total_ns.load(Ordering::Relaxed))
            .finish()
    }
}

/// The sparse, non-cumulative form of the live batch-size buckets.
fn size_buckets(hist: &[AtomicU64; BATCH_SIZE_EDGES.len() + 1]) -> Vec<SizeBucket> {
    hist.iter()
        .enumerate()
        .map(|(idx, c)| SizeBucket {
            le: BATCH_SIZE_EDGES.get(idx).copied().unwrap_or(u64::MAX),
            count: c.load(Ordering::Relaxed),
        })
        .filter(|b| b.count > 0)
        .collect()
}

/// How a table row's value moves, and so how it is stored and exported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowKind {
    /// Monotone count, bumped with [`ServeGauges::add`]; a Prometheus
    /// counter.
    Counter,
    /// Level raised and lowered as things come and go; a gauge.
    UpDown,
    /// Level published whole with [`ServeGauges::set`]; a gauge.
    Set,
    /// Running maximum since start; a gauge.
    Max,
    /// The served-batch-size histogram over [`BATCH_SIZE_EDGES`].
    BatchSizes,
    /// A request-lifecycle stage latency histogram.
    Stage,
}

impl RowKind {
    /// The Prometheus `# TYPE` of the row's family.
    pub(crate) fn prometheus_type(self) -> &'static str {
        match self {
            RowKind::Counter => "counter",
            RowKind::UpDown | RowKind::Set | RowKind::Max => "gauge",
            RowKind::BatchSizes | RowKind::Stage => "histogram",
        }
    }
}

/// A row's value, read from a [`ServeSnapshot`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum RowValue<'a> {
    Scalar(u64),
    BatchSizes(&'a [SizeBucket]),
    Stage(&'a StageSnapshot),
}

/// One row of the serving-counter table.
#[derive(Clone, Copy, Debug)]
pub struct ServeRow {
    /// The [`ServeSnapshot`] field, and JSON key, holding the row.
    pub field: &'static str,
    /// How the value moves.
    pub kind: RowKind,
    /// Prometheus family. `None` for `batches` and `batch_items`, which the
    /// batch-size histogram renders as its `_count` and `_sum`.
    pub family: Option<&'static str>,
    /// The label that tells this row apart from the other rows of its
    /// family, as `(name, value)`.
    pub label: Option<(&'static str, &'static str)>,
    /// The family's `# HELP` text, given on its first row only.
    pub help: &'static str,
    value: for<'a> fn(&'a ServeSnapshot) -> RowValue<'a>,
}

impl ServeRow {
    /// The row's value in `snap`.
    pub(crate) fn value<'a>(&self, snap: &'a ServeSnapshot) -> RowValue<'a> {
        (self.value)(snap)
    }
}

/// Expands the counter table into the types and functions listed in the
/// module docs. A row reads
///
/// ```text
/// field: Kind(Handle) => "family" {label = "value"}, "help";
/// ```
///
/// where `(Handle)` names the row's [`ServeCounter`] variant (only rows a
/// single event moves have one), and the family part is absent for rows
/// another row's exposition covers.
macro_rules! serve_counters {
    (@live BatchSizes) => { [AtomicU64; BATCH_SIZE_EDGES.len() + 1] };
    (@live Stage) => { StageTimer };
    (@live $scalar:ident) => { AtomicU64 };
    (@snap BatchSizes) => { Vec<SizeBucket> };
    (@snap Stage) => { StageSnapshot };
    (@snap $scalar:ident) => { u64 };
    (@load BatchSizes $live:expr) => { size_buckets(&$live) };
    (@load Stage $live:expr) => { $live.snapshot() };
    (@load $scalar:ident $live:expr) => { $live.load(Ordering::Relaxed) };
    (@value BatchSizes $field:ident) => { |s: &ServeSnapshot| RowValue::BatchSizes(&s.$field) };
    (@value Stage $field:ident) => { |s: &ServeSnapshot| RowValue::Stage(&s.$field) };
    (@value $scalar:ident $field:ident) => { |s: &ServeSnapshot| RowValue::Scalar(s.$field) };
    (@opt) => { None };
    (@opt $e:expr) => { Some($e) };
    (@help) => { "" };
    (@help $help:literal) => { $help };
    ($(
        $(#[$doc:meta])*
        $field:ident: $kind:ident $(($handle:ident))?
            $(=> $family:literal $({$lk:ident = $lv:literal})? $(, $help:literal)?)?;
    )*) => {
        /// Live serving-runtime counters updated by `bitflow-serve` and
        /// `bitflow-net`. All relaxed atomics: a bump on the request path
        /// is one atomic op on a fixed field, with no lock and no
        /// allocation. The server shares one handle with
        /// [`ModelTelemetry`](crate::ModelTelemetry), so the counters
        /// surface in [`MetricsSnapshot::serve`](crate::MetricsSnapshot::serve)
        /// and the Prometheus exposition.
        #[derive(Debug, Default)]
        pub struct ServeGauges {
            $($field: serve_counters!(@live $kind),)*
        }

        /// Serving-runtime counters from `bitflow-serve` and `bitflow-net`:
        /// admission, shedding, deadlines, worker health, batching, stage
        /// latencies, the network front-end and the resource governor. All
        /// zero for a model served without the runtime.
        ///
        /// Conservation law (checked by the soak tests): `submitted ==
        /// accepted + rejected()`, and once the server has drained,
        /// `accepted == resolved()`. In a multi-model server each model's
        /// counters obey the law independently.
        #[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct ServeSnapshot {
            $($(#[$doc])* pub $field: serve_counters!(@snap $kind),)*
        }

        /// A table row that one event moves on its own: the argument of
        /// [`ServeGauges::inc`], [`add`](ServeGauges::add),
        /// [`sub`](ServeGauges::sub) and [`set`](ServeGauges::set). The
        /// [`ServeSnapshot`] field of the same name documents each one.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum ServeCounter {
            $($($handle,)?)*
        }

        impl ServeCounter {
            const fn kind(self) -> RowKind {
                match self {
                    $($(ServeCounter::$handle => RowKind::$kind,)?)*
                }
            }
        }

        impl ServeGauges {
            #[inline]
            fn slot(&self, c: ServeCounter) -> &AtomicU64 {
                match c {
                    $($(ServeCounter::$handle => &self.$field,)?)*
                }
            }

            /// Point-in-time copy of every row.
            pub fn snapshot(&self) -> ServeSnapshot {
                ServeSnapshot {
                    $($field: serve_counters!(@load $kind self.$field),)*
                }
            }
        }

        impl ServeSnapshot {
            /// The counter table, in exposition order.
            pub const ROWS: &'static [ServeRow] = &[$(
                ServeRow {
                    field: stringify!($field),
                    kind: RowKind::$kind,
                    family: serve_counters!(@opt $($family)?),
                    label: serve_counters!(@opt $($((stringify!($lk), $lv))?)?),
                    help: serve_counters!(@help $($($help)?)?),
                    value: serve_counters!(@value $kind $field),
                },
            )*];
        }
    };
}

impl ServeGauges {
    /// Adds one to counter `c`.
    #[inline]
    pub fn inc(&self, c: ServeCounter) {
        self.add(c, 1);
    }

    /// Adds `n` to counter or up/down gauge `c`.
    #[inline]
    pub fn add(&self, c: ServeCounter, n: u64) {
        debug_assert!(matches!(c.kind(), RowKind::Counter | RowKind::UpDown));
        self.slot(c).fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from up/down gauge `c`.
    #[inline]
    pub fn sub(&self, c: ServeCounter, n: u64) {
        debug_assert_eq!(c.kind(), RowKind::UpDown);
        self.slot(c).fetch_sub(n, Ordering::Relaxed);
    }

    /// Publishes `v` as the value of set gauge `c`.
    #[inline]
    pub fn set(&self, c: ServeCounter, v: u64) {
        debug_assert_eq!(c.kind(), RowKind::Set);
        self.slot(c).store(v, Ordering::Relaxed);
    }

    /// A request entered the admission queue: counts it as accepted and
    /// raises the depth gauge and its high-water mark.
    pub fn enqueued(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// A worker served one coalesced micro-batch of `size` requests in a
    /// single engine call (`size == 1` is the unbatched fast path).
    pub fn batch_served(&self, size: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_items.fetch_add(size, Ordering::Relaxed);
        self.batch_size_max.fetch_max(size, Ordering::Relaxed);
        let idx = BATCH_SIZE_EDGES
            .iter()
            .position(|&edge| size <= edge)
            .unwrap_or(BATCH_SIZE_EDGES.len());
        self.batch_size_hist[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The resource governor granted a lease of `bytes`. Raises the
    /// used-bytes and live-lease gauges.
    pub fn mem_reserved(&self, bytes: u64) {
        self.mem_used_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.mem_leases.fetch_add(1, Ordering::Relaxed);
    }

    /// A memory lease of `bytes` was released. Lowers the used-bytes and
    /// live-lease gauges.
    pub fn mem_released(&self, bytes: u64) {
        self.mem_used_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.mem_leases.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request spent `ns` in the admission queue before a worker popped
    /// it.
    #[inline]
    pub fn record_queue_wait_ns(&self, ns: u64) {
        self.stage_queue_wait.record(ns);
    }

    /// A request spent `ns` between being popped and its micro-batch
    /// starting execution (coalescing window plus dispatch).
    #[inline]
    pub fn record_batch_wait_ns(&self, ns: u64) {
        self.stage_batch_wait.record(ns);
    }

    /// A request spent `ns` executing inside the engine.
    #[inline]
    pub fn record_exec_ns(&self, ns: u64) {
        self.stage_exec.record(ns);
    }

    /// A response spent `ns` being written to the wire.
    #[inline]
    pub fn record_write_ns(&self, ns: u64) {
        self.stage_write.record(ns);
    }
}

impl ServeSnapshot {
    /// Submissions refused at admission: the sum of the rejection rows,
    /// the rows with a `reason` label.
    pub fn rejected(&self) -> u64 {
        Self::ROWS
            .iter()
            .filter(|row| row.label.is_some_and(|(name, _)| name == "reason"))
            .map(|row| match row.value(self) {
                RowValue::Scalar(v) => v,
                RowValue::BatchSizes(_) | RowValue::Stage(_) => 0,
            })
            .sum()
    }

    /// Admitted requests that reached an outcome: completed, failed, shed
    /// or missed by deadline, or cancelled.
    pub fn resolved(&self) -> u64 {
        self.completed + self.failed + self.shed_deadline + self.deadline_missed + self.cancelled
    }
}

serve_counters! {
    /// Requests offered to `submit` (admitted or not).
    submitted: Counter(Submitted)
        => "bitflow_serve_submitted_total", "Requests offered to the serving admission queue.";
    /// Requests admitted into the queue.
    accepted: Counter
        => "bitflow_serve_accepted_total", "Requests admitted into the serving queue.";
    /// Requests that completed with logits.
    completed: Counter(Completed)
        => "bitflow_serve_completed_total", "Admitted requests that returned logits.";
    /// Requests that resolved to a typed inference error (including
    /// caught worker panics).
    failed: Counter(Failed)
        => "bitflow_serve_failed_total", "Admitted requests that resolved to an inference error.";
    /// Admitted requests dropped *before* running because their deadline
    /// budget was already unmeetable (deadline-aware shedding).
    shed_deadline: Counter(ShedDeadline)
        => "bitflow_serve_deadline_shed_total",
        "Admitted requests dropped before running: deadline unmeetable.";
    /// Admitted requests cancelled *mid-run* by their deadline.
    deadline_missed: Counter(DeadlineMissed)
        => "bitflow_serve_deadline_missed_total",
        "Admitted requests cancelled mid-run by their deadline.";
    /// Admitted requests cancelled by their caller.
    cancelled: Counter(Cancelled)
        => "bitflow_serve_cancelled_total", "Admitted requests cancelled by their caller.";
    /// Panics caught and isolated inside workers.
    worker_panics: Counter(WorkerPanics)
        => "bitflow_serve_worker_panics_total", "Panics caught and isolated by serving workers.";
    /// Worker loops restarted after a panic escaped the per-request
    /// backstop.
    worker_restarts: Counter(WorkerRestarts)
        => "bitflow_serve_worker_restarts_total", "Worker loops restarted after an escaped panic.";
    /// Circuit-breaker trips into the shedding state.
    breaker_trips: Counter(BreakerTrips)
        => "bitflow_serve_breaker_trips_total",
        "Circuit-breaker transitions into the shedding state.";
    /// Submissions refused because the queue was at capacity.
    rejected_queue_full: Counter(RejectedQueueFull)
        => "bitflow_serve_rejected_total" {reason = "queue_full"},
        "Submissions refused at admission, by reason.";
    /// Submissions refused while the circuit breaker was shedding load.
    rejected_shedding: Counter(RejectedShedding)
        => "bitflow_serve_rejected_total" {reason = "shedding"};
    /// Submissions refused while the server was draining for shutdown.
    rejected_draining: Counter(RejectedDraining)
        => "bitflow_serve_rejected_total" {reason = "draining"};
    /// Submissions refused because the target model's admission quota was
    /// exhausted (multi-model tenancy).
    rejected_quota: Counter(RejectedQuota)
        => "bitflow_serve_rejected_total" {reason = "quota"};
    /// Submissions refused because a byte budget (global or per-tenant)
    /// could not cover the request.
    rejected_memory: Counter(RejectedMemory)
        => "bitflow_serve_rejected_total" {reason = "memory"};
    /// Requests waiting in the admission queue right now (gauge).
    queue_depth: UpDown(QueueDepth)
        => "bitflow_serve_queue_depth", "Requests waiting in the admission queue right now.";
    /// Highest queue depth observed.
    queue_depth_max: Max
        => "bitflow_serve_queue_depth_max", "High-water mark of the admission queue since start.";
    /// Served-batch-size histogram over [`BATCH_SIZE_EDGES`] (sparse,
    /// non-cumulative; `le == u64::MAX` is the overflow bucket).
    batch_size_hist: BatchSizes
        => "bitflow_serve_batch_size", "Requests per served micro-batch (1 is the unbatched path).";
    /// Coalesced micro-batches served (a batch of one is the unbatched
    /// fast path).
    batches: Counter;
    /// Requests served across all micro-batches (`batch_items / batches`
    /// is the mean served batch size).
    batch_items: Counter;
    /// Largest micro-batch served.
    batch_size_max: Max
        => "bitflow_serve_batch_size_max", "Largest micro-batch served since start.";
    /// Admission-queue wait distribution (enqueue → worker pop).
    stage_queue_wait: Stage
        => "bitflow_stage_queue_wait_ns", "Admission-queue wait per request, nanoseconds.";
    /// Batch-formation wait distribution (pop → micro-batch exec start:
    /// the coalescing window plus dispatch).
    stage_batch_wait: Stage
        => "bitflow_stage_batch_wait_ns",
        "Batch-formation wait per request (coalescing + dispatch), nanoseconds.";
    /// Engine execution distribution (per request, inside its batch).
    stage_exec: Stage
        => "bitflow_stage_exec_ns", "Engine execution time per request, nanoseconds.";
    /// Response-write distribution (serialize + write to the wire).
    stage_write: Stage
        => "bitflow_stage_write_ns", "Response write time per request, nanoseconds.";
    /// TCP connections accepted by the network front-end.
    net_accepted_conns: Counter(NetAcceptedConns)
        => "bitflow_net_accepted_conns_total", "TCP connections accepted by the network front-end.";
    /// TCP connections refused at the accept loop (connection cap).
    net_rejected_conns: Counter(NetRejectedConns)
        => "bitflow_net_rejected_conns_total",
        "TCP connections refused at the accept loop (connection cap).";
    /// Connections dropped because a read deadline expired (includes the
    /// slowloris header timeout).
    net_timeouts_read: Counter(NetTimeoutsRead)
        => "bitflow_net_timeouts_read_total",
        "Connections dropped by an expired read deadline (slowloris included).";
    /// Connections dropped because a response write stalled past its
    /// deadline.
    net_timeouts_write: Counter(NetTimeoutsWrite)
        => "bitflow_net_timeouts_write_total", "Connections dropped by a stalled response write.";
    /// Requests refused as malformed before reaching admission (bad
    /// request line, oversized headers or body, undecodable tensor).
    net_malformed_requests: Counter(NetMalformedRequests)
        => "bitflow_net_malformed_requests_total",
        "Requests refused as malformed before reaching admission.";
    /// Request bytes read off the wire (headers + bodies).
    net_bytes_in: Counter(NetBytesIn)
        => "bitflow_net_bytes_in_total", "Request bytes read off the wire.";
    /// Response bytes written to the wire (including partial writes).
    net_bytes_out: Counter(NetBytesOut)
        => "bitflow_net_bytes_out_total", "Response bytes written to the wire.";
    /// Accept-loop `accept(2)` errors (EMFILE/ENFILE descriptor
    /// exhaustion included).
    net_accept_errors: Counter(NetAcceptErrors)
        => "bitflow_net_accept_errors_total",
        "Accept-loop accept(2) errors (descriptor exhaustion included).";
    /// Connections shed because their handler thread could not be spawned
    /// (counted apart from cap rejections).
    net_spawn_sheds: Counter(NetSpawnSheds)
        => "bitflow_net_spawn_sheds_total",
        "Connections shed because a handler thread could not be spawned.";
    /// Bytes currently held by live memory leases (gauge).
    mem_used_bytes: UpDown
        => "bitflow_mem_used_bytes", "Bytes currently held by live memory leases.";
    /// The governor's global byte budget; 0 = unbudgeted (gauge).
    mem_budget_bytes: Set(MemBudgetBytes)
        => "bitflow_mem_budget_bytes",
        "The resource governor's global byte budget (0 = unbudgeted).";
    /// Live memory leases outstanding (gauge).
    mem_leases: UpDown
        => "bitflow_mem_leases", "Live memory leases outstanding.";
    /// Brownout state machine: 0 = Normal, 1 = Brownout, 2 = Shed (gauge).
    degradation_state: Set(DegradationState)
        => "bitflow_degradation_state", "Brownout state machine: 0 Normal, 1 Brownout, 2 Shed.";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_contiguous_with_one_header_row() {
        let mut seen: Vec<&str> = Vec::new();
        let mut prev: Option<&ServeRow> = None;
        for row in ServeSnapshot::ROWS {
            let Some(family) = row.family else {
                assert_eq!(row.help, "", "{} has help but no family", row.field);
                continue;
            };
            match prev.filter(|p| p.family == Some(family)) {
                Some(first) => {
                    assert_eq!(row.help, "", "{}: help belongs on the first row", row.field);
                    assert_eq!(row.kind, first.kind, "{}: one kind per family", row.field);
                    assert!(
                        row.label.is_some(),
                        "{}: rows of a family need labels",
                        row.field
                    );
                }
                None => {
                    assert!(!seen.contains(&family), "{family} is split");
                    assert!(!row.help.is_empty(), "{family} has no help");
                    seen.push(family);
                    prev = Some(row);
                }
            }
        }
    }

    #[test]
    fn rejected_sums_exactly_the_rejection_family() {
        let mut snap = ServeSnapshot::default();
        let reasons: Vec<&str> = ServeSnapshot::ROWS
            .iter()
            .filter(|r| r.family == Some("bitflow_serve_rejected_total"))
            .map(|r| r.label.expect("reason label").1)
            .collect();
        assert_eq!(
            reasons,
            ["queue_full", "shedding", "draining", "quota", "memory"]
        );
        snap.rejected_queue_full = 1;
        snap.rejected_shedding = 10;
        snap.rejected_draining = 100;
        snap.rejected_quota = 1_000;
        snap.rejected_memory = 10_000;
        snap.submitted = 100_000;
        assert_eq!(snap.rejected(), 11_111);
    }

    #[test]
    fn resolved_sums_the_outcomes() {
        let snap = ServeSnapshot {
            completed: 1,
            failed: 10,
            shed_deadline: 100,
            deadline_missed: 1_000,
            cancelled: 10_000,
            accepted: 100_000,
            ..ServeSnapshot::default()
        };
        assert_eq!(snap.resolved(), 11_111);
    }

    #[test]
    fn serve_gauges_track_quota_and_batch_sizes() {
        let g = ServeGauges::default();
        g.inc(ServeCounter::RejectedQuota);
        g.batch_served(1);
        g.batch_served(3);
        g.batch_served(40);
        let snap = g.snapshot();
        assert_eq!(snap.rejected_quota, 1);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_items, 44);
        assert_eq!(snap.batch_size_max, 40);
        // 1 lands in le=1, 3 in le=4, 40 overflows past the last edge.
        assert_eq!(
            snap.batch_size_hist,
            vec![
                SizeBucket { le: 1, count: 1 },
                SizeBucket { le: 4, count: 1 },
                SizeBucket {
                    le: u64::MAX,
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn serve_gauges_track_queue_and_memory_levels() {
        let g = ServeGauges::default();
        g.enqueued();
        g.enqueued();
        g.sub(ServeCounter::QueueDepth, 1);
        g.mem_reserved(500);
        g.mem_reserved(100);
        g.mem_released(100);
        g.set(ServeCounter::MemBudgetBytes, 4_096);
        g.set(ServeCounter::DegradationState, 2);
        let snap = g.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_max, 2);
        assert_eq!(snap.mem_used_bytes, 500);
        assert_eq!(snap.mem_leases, 1);
        assert_eq!(snap.mem_budget_bytes, 4_096);
        assert_eq!(snap.degradation_state, 2);
    }

    #[test]
    fn serve_gauges_track_net_counters() {
        let g = ServeGauges::default();
        g.inc(ServeCounter::NetAcceptedConns);
        g.inc(ServeCounter::NetAcceptedConns);
        g.inc(ServeCounter::NetRejectedConns);
        g.inc(ServeCounter::NetTimeoutsRead);
        g.inc(ServeCounter::NetTimeoutsWrite);
        g.inc(ServeCounter::NetMalformedRequests);
        g.add(ServeCounter::NetBytesIn, 1_024);
        g.add(ServeCounter::NetBytesOut, 256);
        g.add(ServeCounter::NetBytesOut, 256);
        let snap = g.snapshot();
        assert_eq!(snap.net_accepted_conns, 2);
        assert_eq!(snap.net_rejected_conns, 1);
        assert_eq!(snap.net_timeouts_read, 1);
        assert_eq!(snap.net_timeouts_write, 1);
        assert_eq!(snap.net_malformed_requests, 1);
        assert_eq!(snap.net_bytes_in, 1_024);
        assert_eq!(snap.net_bytes_out, 512);
    }

    #[test]
    fn serve_gauges_track_stage_timings() {
        let g = ServeGauges::default();
        g.record_queue_wait_ns(1_000);
        g.record_queue_wait_ns(3_000);
        g.record_batch_wait_ns(500);
        g.record_exec_ns(10_000);
        g.record_write_ns(200);
        let snap = g.snapshot();
        assert_eq!(snap.stage_queue_wait.count, 2);
        assert_eq!(snap.stage_queue_wait.total_ns, 4_000);
        assert_eq!(snap.stage_batch_wait.count, 1);
        assert_eq!(snap.stage_exec.total_ns, 10_000);
        assert_eq!(snap.stage_write.count, 1);
        // Bucket counts reconcile with the stage count.
        let bucketed: u64 = snap.stage_queue_wait.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucketed, 2);
    }
}
