//! Lock-free per-operator metrics and batch-queue gauges.
//!
//! A [`ModelTelemetry`] is built once per compiled model from a list of
//! [`OpDescriptor`]s (name, kind, static cost model) and shared behind an
//! `Arc` by every serving thread. Recording a sample touches only relaxed
//! atomics — no locks, no allocation — so enabled-telemetry overhead is a
//! `Instant` pair plus a handful of `fetch_add`s per operator.
//!
//! The *cost model* ([`OpCost`]) is computed at compile time from the
//! operator's geometry: how many effective xor+popcount bit-operations one
//! call performs, how many bytes it moves, and (for GEMM-backed operators)
//! the tile shape. The hot path records only latency; rates like GOPS and
//! bandwidth fall out at snapshot time as `cost × calls / total_ns`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::perf::{self, PerfSample};
use bitflow_simd::scheduler::TierReason;
use serde::{Deserialize, Serialize};

use std::sync::Arc;

use crate::hist::{bucket_upper_edge, LatencyHistogram};
use crate::serve::ServeGauges;
use crate::snapshot::{
    BatchSnapshot, HistBucket, MetricsSnapshot, OpBound, OpSnapshot, PerfSnapshot, SCHEMA_VERSION,
};

/// Coarse operator category, mirroring the engine's runtime op set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Float input → sign bits (first-layer binarization).
    Binarize,
    /// PressedConv binary convolution.
    Conv,
    /// Binary max-pool (OR over packed words).
    Pool,
    /// Spatial-to-row reflattening between conv and FC stages.
    Flatten,
    /// Binary fully-connected layer with sign activation.
    Fc,
    /// Final fully-connected layer producing integer logits.
    FcOut,
}

impl OpKind {
    /// Stable lower-case label used in snapshots.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Binarize => "binarize",
            OpKind::Conv => "conv",
            OpKind::Pool => "pool",
            OpKind::Flatten => "flatten",
            OpKind::Fc => "fc",
            OpKind::FcOut => "fc-out",
        }
    }
}

/// bgemm micro-kernel tile geometry for a GEMM-backed operator, following
/// the paper's M×N×K convention (§III-C): N is the reduction / vector axis,
/// K the output-neuron / multi-core axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileStats {
    /// GEMM M dimension (rows / output pixels).
    pub m: usize,
    /// GEMM K dimension (output channels / neurons) — the multi-core axis.
    pub k: usize,
    /// GEMM N (reduction) dimension in packed 64-bit words — the vector axis.
    pub n_words: usize,
    /// 4-way-unrolled output quads per row in the micro-kernel.
    pub quads: usize,
    /// Remainder outputs per row handled by the non-unrolled tail.
    pub tail: usize,
    /// Output-column chunk granted to each parallel task.
    pub par_k_chunk: usize,
}

/// Static per-call cost of one operator, derived from its geometry at
/// compile time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    /// Effective xor+popcount bit-operations per call: 2 ops (one xor, one
    /// popcount-accumulate) for every weight·activation bit position the
    /// operator evaluates. This is the numerator of the paper's
    /// "binary GOPS" throughput metric.
    pub bit_ops: u64,
    /// Bytes read per call (packed activations + packed weights).
    pub bytes_read: u64,
    /// Bytes written per call.
    pub bytes_written: u64,
    /// Micro-kernel tile geometry, for GEMM-backed operators.
    pub tile: Option<TileStats>,
}

/// Compile-time description of one operator channel.
#[derive(Clone, Debug)]
pub struct OpDescriptor {
    /// Operator name (layer name or builtin step name like "binarize-input").
    pub name: String,
    /// Operator category.
    pub kind: OpKind,
    /// Static per-call cost.
    pub cost: OpCost,
    /// SIMD tier the operator runs (`None` for operators without a
    /// vector kernel choice).
    pub tier: Option<SimdLevel>,
    /// Why that tier: measured (with the timings), the §III-B rule, or
    /// streaming. Set exactly when `tier` is.
    pub why: Option<TierReason>,
}

/// Live counters for one operator. All fields are relaxed atomics.
struct OpMetrics {
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: LatencyHistogram,
}

impl OpMetrics {
    fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            hist: LatencyHistogram::new(),
        }
    }

    #[inline]
    fn record(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.hist.record(ns);
    }
}

struct OpChannel {
    name: String,
    kind: OpKind,
    cost: OpCost,
    metrics: OpMetrics,
}

/// Batch-serving gauges updated by `try_infer_batch`.
#[derive(Default)]
pub struct BatchGauges {
    batches: AtomicU64,
    items: AtomicU64,
    failed_items: AtomicU64,
    chunks: AtomicU64,
    max_batch: AtomicU64,
    queued_items: AtomicU64,
}

impl BatchGauges {
    /// Called once when a batch of `items` requests is accepted, split into
    /// `chunks` per-thread chunks. Raises the queued-items gauge.
    pub fn batch_started(&self, items: u64, chunks: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        self.chunks.fetch_add(chunks, Ordering::Relaxed);
        self.max_batch.fetch_max(items, Ordering::Relaxed);
        self.queued_items.fetch_add(items, Ordering::Relaxed);
    }

    /// Called per completed item. Lowers the queued-items gauge; counts the
    /// item as failed when `ok` is false.
    pub fn item_finished(&self, ok: bool) {
        self.queued_items.fetch_sub(1, Ordering::Relaxed);
        if !ok {
            self.failed_items.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Items currently in flight inside `try_infer_batch` (0 when idle).
    pub fn queued(&self) -> u64 {
        self.queued_items.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> BatchSnapshot {
        BatchSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            failed_items: self.failed_items.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queued_items: self.queued_items.load(Ordering::Relaxed),
        }
    }
}

/// Hardware-counter totals accumulated across sampled requests. All
/// relaxed atomics; the optional events track how many samples actually
/// carried them so absence is never reported as zero.
#[derive(Default)]
struct PerfTotals {
    sampled_requests: AtomicU64,
    cycles: AtomicU64,
    instructions: AtomicU64,
    llc_misses: AtomicU64,
    llc_samples: AtomicU64,
    branch_misses: AtomicU64,
    branch_samples: AtomicU64,
}

/// Whether BITFLOW_PERF explicitly disables counter sampling.
fn perf_disabled_by_env() -> bool {
    std::env::var_os("BITFLOW_PERF").is_some_and(|v| v.as_os_str() == "0")
}

/// All telemetry state for one compiled model: a request count,
/// per-operator channels, batch gauges, and perf-counter totals. Shared
/// behind `Arc` by every thread serving the model.
pub struct ModelTelemetry {
    model: String,
    ops: Vec<OpChannel>,
    batch: BatchGauges,
    requests: AtomicU64,
    perf_sampling: AtomicBool,
    perf: PerfTotals,
    serve: Arc<ServeGauges>,
}

impl ModelTelemetry {
    /// Telemetry for `model`, one operator channel per descriptor.
    pub fn new(model: impl Into<String>, descriptors: Vec<OpDescriptor>) -> Self {
        let ops = descriptors
            .into_iter()
            .map(|d| OpChannel {
                name: d.name,
                kind: d.kind,
                cost: d.cost,
                metrics: OpMetrics::new(),
            })
            .collect();
        // Sampling defaults to on whenever the machine can deliver it;
        // BITFLOW_PERF=0 opts out. Probing here (construction happens at
        // enable-telemetry time, off the hot path) keeps the per-request
        // check a single relaxed load.
        let sampling = !perf_disabled_by_env() && perf::probe().is_ok();
        Self {
            model: model.into(),
            ops,
            batch: BatchGauges::default(),
            requests: AtomicU64::new(0),
            perf_sampling: AtomicBool::new(sampling),
            perf: PerfTotals::default(),
            serve: Arc::new(ServeGauges::default()),
        }
    }

    /// Handle to the serving-runtime counters. The serving layer clones
    /// this so its admission/deadline/worker events land in the same
    /// snapshot and Prometheus exposition as the operator metrics.
    pub fn serve(&self) -> Arc<ServeGauges> {
        Arc::clone(&self.serve)
    }

    /// Number of operator channels.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Name of operator channel `idx`.
    pub fn op_name(&self, idx: usize) -> Option<&str> {
        self.ops.get(idx).map(|c| c.name.as_str())
    }

    /// Records one sample for operator channel `idx`. Out-of-range indices
    /// are ignored (telemetry must never panic the serving path).
    #[inline]
    pub fn record_op(&self, idx: usize, ns: u64) {
        if let Some(ch) = self.ops.get(idx) {
            ch.metrics.record(ns);
        }
    }

    /// Counts one request entering the engine.
    #[inline]
    pub fn request_started(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Batch-serving gauges.
    pub fn batch(&self) -> &BatchGauges {
        &self.batch
    }

    /// Whether per-request hardware-counter sampling is active.
    #[inline]
    pub fn perf_sampling(&self) -> bool {
        self.perf_sampling.load(Ordering::Relaxed)
    }

    /// Turns hardware-counter sampling on or off at runtime. Turning it on
    /// on a machine without counter access is harmless: every request
    /// degrades to the uncounted path.
    pub fn set_perf_sampling(&self, on: bool) {
        self.perf_sampling.store(on, Ordering::Relaxed);
    }

    /// Accumulates one request's counter sample.
    pub fn record_perf_sample(&self, s: &PerfSample) {
        self.perf.sampled_requests.fetch_add(1, Ordering::Relaxed);
        self.perf.cycles.fetch_add(s.cycles, Ordering::Relaxed);
        self.perf
            .instructions
            .fetch_add(s.instructions, Ordering::Relaxed);
        if let Some(v) = s.llc_misses {
            self.perf.llc_misses.fetch_add(v, Ordering::Relaxed);
            self.perf.llc_samples.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(v) = s.branch_misses {
            self.perf.branch_misses.fetch_add(v, Ordering::Relaxed);
            self.perf.branch_samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `f` with this thread's hardware-counter group counting, and
    /// accumulates the sample into the model totals. When sampling is off
    /// or counters are unavailable, `f` runs directly — the only cost is
    /// one relaxed load. Allocation-free in every steady-state path.
    #[inline]
    pub fn perf_request_scope<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.perf_sampling.load(Ordering::Relaxed) {
            return f();
        }
        perf::with_thread_group(|g| match g {
            Some(g) => {
                let (r, sample) = g.measure(f);
                if let Some(s) = sample {
                    self.record_perf_sample(&s);
                }
                r
            }
            None => f(),
        })
    }

    fn perf_snapshot(&self) -> PerfSnapshot {
        let status = if perf_disabled_by_env() {
            "disabled".to_string()
        } else {
            match perf::probe() {
                Ok(_) => "ok".to_string(),
                Err(reason) => format!("unavailable: {reason}"),
            }
        };
        let sampled = self.perf.sampled_requests.load(Ordering::Relaxed);
        let cycles = (sampled > 0).then(|| self.perf.cycles.load(Ordering::Relaxed));
        let instructions = (sampled > 0).then(|| self.perf.instructions.load(Ordering::Relaxed));
        let ipc = match (cycles, instructions) {
            (Some(c), Some(i)) if c > 0 => Some(i as f64 / c as f64),
            _ => None,
        };
        PerfSnapshot {
            status,
            sampled_requests: sampled,
            cycles,
            instructions,
            llc_misses: (self.perf.llc_samples.load(Ordering::Relaxed) > 0)
                .then(|| self.perf.llc_misses.load(Ordering::Relaxed)),
            branch_misses: (self.perf.branch_samples.load(Ordering::Relaxed) > 0)
                .then(|| self.perf.branch_misses.load(Ordering::Relaxed)),
            ipc,
        }
    }

    /// Consistent point-in-time copy of every counter, with percentiles,
    /// rates (GOPS, bandwidth), and roofline attribution computed from the
    /// static cost model and the cached machine roofline.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ops = self.ops.iter().map(op_snapshot).collect();
        let roofline = crate::roofline::current();
        let mut snap = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            model: self.model.clone(),
            requests: self.requests.load(Ordering::Relaxed),
            machine: roofline.to_snapshot(),
            perf: self.perf_snapshot(),
            ops,
            batch: self.batch.snapshot(),
            serve: self.serve.snapshot(),
        };
        roofline.annotate(&mut snap);
        snap
    }
}

impl std::fmt::Debug for ModelTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelTelemetry")
            .field("model", &self.model)
            .field("ops", &self.ops.len())
            .finish_non_exhaustive()
    }
}

fn op_snapshot(ch: &OpChannel) -> OpSnapshot {
    let calls = ch.metrics.calls.load(Ordering::Relaxed);
    let total_ns = ch.metrics.total_ns.load(Ordering::Relaxed);
    let max_ns = ch.metrics.max_ns.load(Ordering::Relaxed);
    let mean_ns = if calls > 0 {
        total_ns as f64 / calls as f64
    } else {
        0.0
    };
    // 1 bit-op per ns == 1e9 bit-ops per second == 1 GOPS, so the ratio of
    // totals is directly in GOPS.
    let gops = if total_ns > 0 {
        (ch.cost.bit_ops.saturating_mul(calls)) as f64 / total_ns as f64
    } else {
        0.0
    };
    let gb_per_s = if total_ns > 0 {
        (ch.cost.bytes_read + ch.cost.bytes_written).saturating_mul(calls) as f64 / total_ns as f64
    } else {
        0.0
    };
    let buckets = ch.metrics.hist.snapshot_buckets();
    let hist = buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(idx, &count)| HistBucket {
            le_ns: bucket_upper_edge(idx),
            count,
        })
        .collect();
    OpSnapshot {
        name: ch.name.clone(),
        kind: ch.kind,
        calls,
        total_ns,
        mean_ns,
        max_ns,
        p50_ns: crate::hist::percentile_of(&buckets, 50.0),
        p95_ns: crate::hist::percentile_of(&buckets, 95.0),
        p99_ns: crate::hist::percentile_of(&buckets, 99.0),
        bit_ops_per_call: ch.cost.bit_ops,
        bytes_read_per_call: ch.cost.bytes_read,
        bytes_written_per_call: ch.cost.bytes_written,
        gops,
        gb_per_s,
        // Roofline attribution is stamped by `Roofline::annotate`.
        pct_of_peak_compute: 0.0,
        pct_of_peak_bandwidth: 0.0,
        bound: OpBound::Idle,
        hist,
        tile: ch.cost.tile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptors() -> Vec<OpDescriptor> {
        vec![
            OpDescriptor {
                name: "binarize-input".to_string(),
                kind: OpKind::Binarize,
                cost: OpCost::default(),
                tier: None,
                why: None,
            },
            OpDescriptor {
                name: "conv1".to_string(),
                kind: OpKind::Conv,
                cost: OpCost {
                    bit_ops: 2_000,
                    bytes_read: 512,
                    bytes_written: 128,
                    tile: Some(TileStats {
                        m: 64,
                        k: 32,
                        n_words: 9,
                        quads: 8,
                        tail: 0,
                        par_k_chunk: 32,
                    }),
                },
                tier: Some(SimdLevel::Avx512),
                why: Some(TierReason::Paper),
            },
        ]
    }

    #[test]
    fn record_and_snapshot() {
        let t = ModelTelemetry::new("test-net", descriptors());
        assert_eq!(t.op_count(), 2);
        assert_eq!(t.op_name(1), Some("conv1"));
        for ns in [100u64, 200, 300, 400] {
            t.record_op(1, ns);
        }
        let snap = t.snapshot();
        let conv = &snap.ops[1];
        assert_eq!(conv.calls, 4);
        assert_eq!(conv.total_ns, 1_000);
        assert!((conv.mean_ns - 250.0).abs() < 1e-9);
        assert_eq!(conv.max_ns, 400);
        // 2000 bit-ops × 4 calls / 1000 ns = 8 GOPS exactly.
        assert!((conv.gops - 8.0).abs() < 1e-9, "gops {}", conv.gops);
        // (512+128) bytes × 4 calls / 1000 ns = 2.56 GB/s.
        assert!((conv.gb_per_s - 2.56).abs() < 1e-9);
        assert_eq!(conv.tile.map(|s| s.n_words), Some(9));
        // Untouched channel stays zero.
        assert_eq!(snap.ops[0].calls, 0);
        assert_eq!(snap.ops[0].gops, 0.0);
    }

    #[test]
    fn out_of_range_record_is_ignored() {
        let t = ModelTelemetry::new("test-net", descriptors());
        t.record_op(99, 1); // must not panic
        assert_eq!(t.snapshot().ops[0].calls, 0);
    }

    #[test]
    fn requests_are_counted() {
        let t = ModelTelemetry::new("test-net", vec![]);
        t.request_started();
        t.request_started();
        assert_eq!(t.snapshot().requests, 2);
    }

    #[test]
    fn batch_gauges_track_in_flight_items() {
        let t = ModelTelemetry::new("test-net", vec![]);
        t.batch().batch_started(4, 2);
        assert_eq!(t.batch().queued(), 4);
        t.batch().item_finished(true);
        t.batch().item_finished(false);
        assert_eq!(t.batch().queued(), 2);
        t.batch().item_finished(true);
        t.batch().item_finished(true);
        let snap = t.snapshot();
        assert_eq!(snap.batch.batches, 1);
        assert_eq!(snap.batch.items, 4);
        assert_eq!(snap.batch.failed_items, 1);
        assert_eq!(snap.batch.chunks, 2);
        assert_eq!(snap.batch.max_batch, 4);
        assert_eq!(snap.batch.queued_items, 0);
    }
}
