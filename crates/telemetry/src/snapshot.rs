//! Serializable point-in-time copies of the live telemetry state.
//!
//! Snapshots carry plain integers and floats only — they round-trip
//! through `serde_json` and are what the bench bins write to
//! `results/telemetry.json`.

use serde::{Deserialize, Serialize};

use crate::metrics::{OpKind, TileStats};
use crate::serve::ServeSnapshot;

/// Schema version written into every [`MetricsSnapshot`] (and, via the
/// bench crate, every `results/*.json` artifact). v1 was the PR-3 snapshot
/// without roofline, machine, or perf-counter fields; v2 added them; v3
/// added the serving-runtime counters ([`ServeSnapshot`]); v4 added the
/// multi-model tenancy counters (quota rejections) and the served
/// micro-batch-size histogram; v5 added the network front-end counters
/// (`net_*`: connections, timeouts, malformed requests, byte totals);
/// v6 added the request-lifecycle stage histograms
/// ([`StageSnapshot`](crate::StageSnapshot): queue-wait, batch-wait, exec, write);
/// v7 added the resource-governance counters (memory-pressure
/// rejections, byte-budget gauges, degradation state, accept-error and
/// spawn-shed counters) under a nested `govern` object; v8 moved them to
/// the top level of [`ServeSnapshot`], one key per row of the serving
/// counter table.
/// Readers must refuse to overwrite files written by a *newer* schema.
pub const SCHEMA_VERSION: u32 = 8;

/// One non-empty latency-histogram bucket: `count` samples with values
/// `≤ le_ns` (and greater than the previous bucket's edge). Sparse — only
/// occupied buckets are stored — and non-cumulative; the Prometheus
/// exporter accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Inclusive upper edge of the bucket, nanoseconds.
    pub le_ns: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// Roofline verdict for one operator: which peak it is closer to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpBound {
    /// Closer to peak xor+popcount throughput than to peak bandwidth.
    Compute,
    /// Closer to peak memory bandwidth.
    Memory,
    /// No calls recorded — nothing to attribute.
    Idle,
}

/// The machine the snapshot was taken on, plus its roofline peaks. Flat
/// strings/numbers so the schema is self-describing in JSON.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineSnapshot {
    /// Detected ISA features, e.g. `"sse2+ssse3+popcnt+avx2"`.
    pub features: String,
    /// Widest usable xor+popcount path, bits.
    pub simd_width_bits: u64,
    /// Logical cores visible to the process.
    pub logical_cores: u64,
    /// Estimated sustained core frequency, GHz.
    pub freq_ghz: f64,
    /// Where the frequency came from: `"cpuinfo"`, `"calibrated"`, `"assumed"`.
    pub freq_source: String,
    /// Theoretical peak xor+popcount throughput, GOPS (2 bit-ops per
    /// evaluated position × SIMD width × frequency × cores).
    pub peak_gops: f64,
    /// Peak memory bandwidth used as the roofline's slanted ceiling, GB/s.
    pub peak_gb_per_s: f64,
    /// Where the bandwidth peak came from: `"measured"` or `"env"`.
    pub bw_source: String,
}

/// Hardware-counter totals accumulated across sampled requests.
///
/// The contract of the acceptance criteria: counter fields are populated
/// *or explicitly marked unavailable* — `status` always says which, and
/// `None` never silently means zero.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfSnapshot {
    /// `"ok"`, `"disabled"` (BITFLOW_PERF=0), or `"unavailable: <reason>"`.
    pub status: String,
    /// Requests the counter group was wrapped around.
    pub sampled_requests: u64,
    /// Total core cycles across sampled requests.
    pub cycles: Option<u64>,
    /// Total retired instructions across sampled requests.
    pub instructions: Option<u64>,
    /// Total last-level-cache misses, when the PMU granted the event.
    pub llc_misses: Option<u64>,
    /// Total mispredicted branches, when the PMU granted the event.
    pub branch_misses: Option<u64>,
    /// Instructions per cycle over all sampled requests.
    pub ipc: Option<f64>,
}

impl PerfSnapshot {
    /// A snapshot that explains why no counters were collected.
    pub fn unavailable(reason: &str) -> Self {
        Self {
            status: format!("unavailable: {reason}"),
            sampled_requests: 0,
            cycles: None,
            instructions: None,
            llc_misses: None,
            branch_misses: None,
            ipc: None,
        }
    }
}

/// Point-in-time counters for one operator, with derived percentiles and
/// rates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpSnapshot {
    /// Operator name (layer name or builtin step name).
    pub name: String,
    /// Operator category.
    pub kind: OpKind,
    /// Number of recorded calls.
    pub calls: u64,
    /// Sum of per-call wall times, nanoseconds.
    pub total_ns: u64,
    /// Mean per-call wall time, nanoseconds.
    pub mean_ns: f64,
    /// Maximum observed per-call wall time, nanoseconds (exact).
    pub max_ns: u64,
    /// Median per-call latency (histogram estimate, ≤6.25% relative error).
    pub p50_ns: u64,
    /// 95th-percentile per-call latency (histogram estimate).
    pub p95_ns: u64,
    /// 99th-percentile per-call latency (histogram estimate).
    pub p99_ns: u64,
    /// Effective xor+popcount bit-operations one call performs (static).
    pub bit_ops_per_call: u64,
    /// Bytes read per call (static).
    pub bytes_read_per_call: u64,
    /// Bytes written per call (static).
    pub bytes_written_per_call: u64,
    /// Sustained binary-op throughput: `bit_ops × calls / total_ns`, in
    /// giga-ops per second.
    pub gops: f64,
    /// Sustained memory traffic in GB/s (bytes moved / total time).
    pub gb_per_s: f64,
    /// Achieved share of the machine's peak xor+popcount throughput, in
    /// percent (`100 × gops / peak_gops`). 0 when idle.
    pub pct_of_peak_compute: f64,
    /// Achieved share of the machine's peak memory bandwidth, in percent.
    pub pct_of_peak_bandwidth: f64,
    /// Roofline verdict: compute-bound, memory-bound, or idle.
    pub bound: OpBound,
    /// Occupied latency-histogram buckets (sparse, non-cumulative).
    pub hist: Vec<HistBucket>,
    /// bgemm tile geometry for GEMM-backed operators.
    pub tile: Option<TileStats>,
}

/// Batch-serving counters from `try_infer_batch`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchSnapshot {
    /// Batches accepted.
    pub batches: u64,
    /// Items across all batches.
    pub items: u64,
    /// Items that returned an error.
    pub failed_items: u64,
    /// Per-thread chunks the batches were split into.
    pub chunks: u64,
    /// Largest single batch seen.
    pub max_batch: u64,
    /// Items in flight at snapshot time (0 when idle).
    pub queued_items: u64,
}

/// Everything a model's telemetry knows, frozen at one instant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Model name the telemetry was built for.
    pub model: String,
    /// Requests that have entered the engine (including in-flight).
    pub requests: u64,
    /// The machine and its roofline peaks.
    pub machine: MachineSnapshot,
    /// Hardware-counter totals (or why they are absent).
    pub perf: PerfSnapshot,
    /// One entry per operator, in execution order.
    pub ops: Vec<OpSnapshot>,
    /// Batch-serving counters.
    pub batch: BatchSnapshot,
    /// Serving-runtime counters (zero without `bitflow-serve`).
    pub serve: ServeSnapshot,
}

impl MetricsSnapshot {
    /// A snapshot carrying only serving-runtime counters, for exposing a
    /// model served without operator telemetry: no ops, no perf counters,
    /// and a zeroed machine section (building the real one would run the
    /// roofline bandwidth probe, far too expensive for a metrics scrape).
    pub fn serve_only(model: impl Into<String>, serve: ServeSnapshot) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            model: model.into(),
            requests: 0,
            machine: MachineSnapshot {
                features: String::new(),
                simd_width_bits: 0,
                logical_cores: 0,
                freq_ghz: 0.0,
                freq_source: "unavailable".to_string(),
                peak_gops: 0.0,
                peak_gb_per_s: 0.0,
                bw_source: "unavailable".to_string(),
            },
            perf: PerfSnapshot::unavailable("telemetry disabled"),
            ops: Vec::new(),
            batch: BatchSnapshot::default(),
            serve,
        }
    }

    /// Total time attributed to operators, nanoseconds.
    pub fn total_op_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.total_ns).sum()
    }

    /// The operator with the largest total time, if any time was recorded.
    pub fn hottest_op(&self) -> Option<&OpSnapshot> {
        self.ops
            .iter()
            .filter(|o| o.total_ns > 0)
            .max_by_key(|o| o.total_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{SizeBucket, StageSnapshot};

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            model: "vgg16".to_string(),
            requests: 3,
            machine: MachineSnapshot {
                features: "sse2+avx2".to_string(),
                simd_width_bits: 256,
                logical_cores: 4,
                freq_ghz: 2.1,
                freq_source: "cpuinfo".to_string(),
                peak_gops: 4300.8,
                peak_gb_per_s: 12.0,
                bw_source: "measured".to_string(),
            },
            perf: PerfSnapshot {
                status: "ok".to_string(),
                sampled_requests: 3,
                cycles: Some(6_300_000),
                instructions: Some(12_600_000),
                llc_misses: Some(1_024),
                branch_misses: None,
                ipc: Some(2.0),
            },
            ops: vec![
                OpSnapshot {
                    name: "conv1".to_string(),
                    kind: OpKind::Conv,
                    calls: 3,
                    total_ns: 3_000,
                    mean_ns: 1_000.0,
                    max_ns: 1_200,
                    p50_ns: 992,
                    p95_ns: 1_184,
                    p99_ns: 1_184,
                    bit_ops_per_call: 1_000_000,
                    bytes_read_per_call: 4_096,
                    bytes_written_per_call: 1_024,
                    gops: 1_000.0,
                    gb_per_s: 5.12,
                    pct_of_peak_compute: 23.25,
                    pct_of_peak_bandwidth: 42.67,
                    bound: OpBound::Memory,
                    hist: vec![
                        HistBucket {
                            le_ns: 1_023,
                            count: 2,
                        },
                        HistBucket {
                            le_ns: 1_215,
                            count: 1,
                        },
                    ],
                    tile: Some(TileStats {
                        m: 1024,
                        k: 64,
                        n_words: 9,
                        quads: 16,
                        tail: 0,
                        par_k_chunk: 32,
                    }),
                },
                OpSnapshot {
                    name: "pool1".to_string(),
                    kind: OpKind::Pool,
                    calls: 3,
                    total_ns: 600,
                    mean_ns: 200.0,
                    max_ns: 250,
                    p50_ns: 200,
                    p95_ns: 248,
                    p99_ns: 248,
                    bit_ops_per_call: 0,
                    bytes_read_per_call: 2_048,
                    bytes_written_per_call: 512,
                    gops: 0.0,
                    gb_per_s: 12.8,
                    pct_of_peak_compute: 0.0,
                    pct_of_peak_bandwidth: 100.0,
                    bound: OpBound::Memory,
                    hist: vec![HistBucket {
                        le_ns: 255,
                        count: 3,
                    }],
                    tile: None,
                },
            ],
            batch: BatchSnapshot {
                batches: 1,
                items: 3,
                failed_items: 0,
                chunks: 1,
                max_batch: 3,
                queued_items: 0,
            },
            serve: ServeSnapshot {
                submitted: 12,
                accepted: 9,
                completed: 6,
                failed: 1,
                rejected_queue_full: 2,
                rejected_shedding: 1,
                rejected_draining: 0,
                rejected_quota: 0,
                shed_deadline: 1,
                deadline_missed: 1,
                cancelled: 0,
                worker_panics: 1,
                worker_restarts: 1,
                breaker_trips: 0,
                queue_depth: 0,
                queue_depth_max: 4,
                batches: 4,
                batch_items: 7,
                batch_size_max: 3,
                batch_size_hist: vec![
                    SizeBucket { le: 1, count: 2 },
                    SizeBucket { le: 4, count: 2 },
                ],
                net_accepted_conns: 5,
                net_rejected_conns: 1,
                net_timeouts_read: 2,
                net_timeouts_write: 1,
                net_malformed_requests: 3,
                net_bytes_in: 40_960,
                net_bytes_out: 8_192,
                rejected_memory: 2,
                net_accept_errors: 1,
                net_spawn_sheds: 1,
                mem_used_bytes: 1_048_576,
                mem_budget_bytes: 4_194_304,
                mem_leases: 3,
                degradation_state: 1,
                stage_queue_wait: StageSnapshot {
                    count: 7,
                    total_ns: 70_000,
                    buckets: vec![HistBucket {
                        le_ns: 16_383,
                        count: 7,
                    }],
                },
                stage_batch_wait: StageSnapshot {
                    count: 7,
                    total_ns: 3_500,
                    buckets: vec![HistBucket {
                        le_ns: 511,
                        count: 7,
                    }],
                },
                stage_exec: StageSnapshot {
                    count: 7,
                    total_ns: 700_000,
                    buckets: vec![HistBucket {
                        le_ns: 131_071,
                        count: 7,
                    }],
                },
                stage_write: StageSnapshot::default(),
            },
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let snap = sample();
        let json = serde_json::to_string_pretty(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.model, snap.model);
        assert_eq!(back.requests, snap.requests);
        assert_eq!(back.machine, snap.machine);
        assert_eq!(back.perf, snap.perf);
        assert_eq!(back.batch, snap.batch);
        assert_eq!(back.serve, snap.serve);
        assert_eq!(back.ops.len(), snap.ops.len());
        for (a, b) in back.ops.iter().zip(snap.ops.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.calls, b.calls);
            assert_eq!(a.total_ns, b.total_ns);
            assert_eq!(a.max_ns, b.max_ns);
            assert_eq!(a.p50_ns, b.p50_ns);
            assert_eq!(a.p95_ns, b.p95_ns);
            assert_eq!(a.p99_ns, b.p99_ns);
            assert_eq!(a.bit_ops_per_call, b.bit_ops_per_call);
            assert!((a.mean_ns - b.mean_ns).abs() < 1e-9);
            assert!((a.gops - b.gops).abs() < 1e-9);
            assert!((a.gb_per_s - b.gb_per_s).abs() < 1e-9);
            assert!((a.pct_of_peak_compute - b.pct_of_peak_compute).abs() < 1e-9);
            assert!((a.pct_of_peak_bandwidth - b.pct_of_peak_bandwidth).abs() < 1e-9);
            assert_eq!(a.bound, b.bound);
            assert_eq!(a.hist, b.hist);
            assert_eq!(a.tile, b.tile);
        }
    }

    /// Every key path of `v` (`a.b` into objects, `a[]` into arrays),
    /// sorted.
    fn key_paths(v: &serde::Value, prefix: &str, out: &mut std::collections::BTreeSet<String>) {
        match v {
            serde::Value::Object(fields) => {
                for (k, v) in fields {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    key_paths(v, &path, out);
                    out.insert(path);
                }
            }
            serde::Value::Array(items) => {
                for v in items {
                    key_paths(v, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn schema_version_pins_the_key_set() {
        // Changing the key set of a snapshot is a schema change: bump
        // SCHEMA_VERSION, then re-pin the keys here together with it.
        const PINNED_VERSION: u32 = 8;
        const PINNED_KEYS: &[&str] = &[
            "batch",
            "batch.batches",
            "batch.chunks",
            "batch.failed_items",
            "batch.items",
            "batch.max_batch",
            "batch.queued_items",
            "machine",
            "machine.bw_source",
            "machine.features",
            "machine.freq_ghz",
            "machine.freq_source",
            "machine.logical_cores",
            "machine.peak_gb_per_s",
            "machine.peak_gops",
            "machine.simd_width_bits",
            "model",
            "ops",
            "ops[].bit_ops_per_call",
            "ops[].bound",
            "ops[].bytes_read_per_call",
            "ops[].bytes_written_per_call",
            "ops[].calls",
            "ops[].gb_per_s",
            "ops[].gops",
            "ops[].hist",
            "ops[].hist[].count",
            "ops[].hist[].le_ns",
            "ops[].kind",
            "ops[].max_ns",
            "ops[].mean_ns",
            "ops[].name",
            "ops[].p50_ns",
            "ops[].p95_ns",
            "ops[].p99_ns",
            "ops[].pct_of_peak_bandwidth",
            "ops[].pct_of_peak_compute",
            "ops[].tile",
            "ops[].tile.k",
            "ops[].tile.m",
            "ops[].tile.n_words",
            "ops[].tile.par_k_chunk",
            "ops[].tile.quads",
            "ops[].tile.tail",
            "ops[].total_ns",
            "perf",
            "perf.branch_misses",
            "perf.cycles",
            "perf.instructions",
            "perf.ipc",
            "perf.llc_misses",
            "perf.sampled_requests",
            "perf.status",
            "requests",
            "schema_version",
            "serve",
            "serve.accepted",
            "serve.batch_items",
            "serve.batch_size_hist",
            "serve.batch_size_hist[].count",
            "serve.batch_size_hist[].le",
            "serve.batch_size_max",
            "serve.batches",
            "serve.breaker_trips",
            "serve.cancelled",
            "serve.completed",
            "serve.deadline_missed",
            "serve.degradation_state",
            "serve.failed",
            "serve.mem_budget_bytes",
            "serve.mem_leases",
            "serve.mem_used_bytes",
            "serve.net_accept_errors",
            "serve.net_accepted_conns",
            "serve.net_bytes_in",
            "serve.net_bytes_out",
            "serve.net_malformed_requests",
            "serve.net_rejected_conns",
            "serve.net_spawn_sheds",
            "serve.net_timeouts_read",
            "serve.net_timeouts_write",
            "serve.queue_depth",
            "serve.queue_depth_max",
            "serve.rejected_draining",
            "serve.rejected_memory",
            "serve.rejected_queue_full",
            "serve.rejected_quota",
            "serve.rejected_shedding",
            "serve.shed_deadline",
            "serve.stage_batch_wait",
            "serve.stage_batch_wait.buckets",
            "serve.stage_batch_wait.buckets[].count",
            "serve.stage_batch_wait.buckets[].le_ns",
            "serve.stage_batch_wait.count",
            "serve.stage_batch_wait.total_ns",
            "serve.stage_exec",
            "serve.stage_exec.buckets",
            "serve.stage_exec.buckets[].count",
            "serve.stage_exec.buckets[].le_ns",
            "serve.stage_exec.count",
            "serve.stage_exec.total_ns",
            "serve.stage_queue_wait",
            "serve.stage_queue_wait.buckets",
            "serve.stage_queue_wait.buckets[].count",
            "serve.stage_queue_wait.buckets[].le_ns",
            "serve.stage_queue_wait.count",
            "serve.stage_queue_wait.total_ns",
            "serve.stage_write",
            "serve.stage_write.buckets",
            "serve.stage_write.count",
            "serve.stage_write.total_ns",
            "serve.submitted",
            "serve.worker_panics",
            "serve.worker_restarts",
        ];
        let mut paths = std::collections::BTreeSet::new();
        key_paths(&sample().to_value(), "", &mut paths);
        let paths: Vec<&str> = paths.iter().map(String::as_str).collect();
        assert_eq!(
            paths, PINNED_KEYS,
            "the snapshot key set changed: bump SCHEMA_VERSION and re-pin"
        );
        assert_eq!(
            SCHEMA_VERSION, PINNED_VERSION,
            "SCHEMA_VERSION changed: re-pin the key set it stands for"
        );
    }

    #[test]
    fn aggregates() {
        let snap = sample();
        assert_eq!(snap.total_op_ns(), 3_600);
        assert_eq!(snap.hottest_op().map(|o| o.name.as_str()), Some("conv1"));
    }

    #[test]
    fn hottest_op_empty_when_idle() {
        let mut snap = sample();
        for op in &mut snap.ops {
            op.total_ns = 0;
        }
        assert!(snap.hottest_op().is_none());
    }
}
