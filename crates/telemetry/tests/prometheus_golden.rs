//! Golden Prometheus exposition: a fixed snapshot, in which every serving
//! counter holds a distinct value, must render byte for byte as the
//! checked-in `golden/exposition.prom`. A counter exported under the wrong
//! family or label shows up as a changed line.
//!
//! An intentional change to the exposition is blessed explicitly:
//!
//! ```sh
//! BITFLOW_BLESS=1 cargo test -p bitflow-telemetry --test prometheus_golden
//! ```

use std::path::PathBuf;

use bitflow_telemetry::{
    BatchSnapshot, HistBucket, MachineSnapshot, MetricsSnapshot, OpBound, OpKind, OpSnapshot,
    PerfSnapshot, ServeSnapshot, SizeBucket, StageSnapshot, SCHEMA_VERSION,
};

fn stage(count: u64, total_ns: u64, edges: &[(u64, u64)]) -> StageSnapshot {
    StageSnapshot {
        count,
        total_ns,
        buckets: edges
            .iter()
            .map(|&(le_ns, count)| HistBucket { le_ns, count })
            .collect(),
    }
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        model: "golden".to_string(),
        requests: 7,
        machine: MachineSnapshot {
            features: "sse2+avx2".to_string(),
            simd_width_bits: 256,
            logical_cores: 2,
            freq_ghz: 2.5,
            freq_source: "cpuinfo".to_string(),
            peak_gops: 2560.0,
            peak_gb_per_s: 12.5,
            bw_source: "measured".to_string(),
        },
        perf: PerfSnapshot {
            status: "ok".to_string(),
            sampled_requests: 7,
            cycles: Some(70_000),
            instructions: Some(140_000),
            llc_misses: Some(300),
            branch_misses: None,
            ipc: Some(2.0),
        },
        ops: vec![OpSnapshot {
            name: "conv1".to_string(),
            kind: OpKind::Conv,
            calls: 7,
            total_ns: 7_700,
            mean_ns: 1_100.0,
            max_ns: 1_400,
            p50_ns: 1_056,
            p95_ns: 1_376,
            p99_ns: 1_376,
            bit_ops_per_call: 1_000_000,
            bytes_read_per_call: 4_096,
            bytes_written_per_call: 1_024,
            gops: 909.0,
            gb_per_s: 4.5,
            pct_of_peak_compute: 35.5,
            pct_of_peak_bandwidth: 36.0,
            bound: OpBound::Memory,
            hist: vec![
                HistBucket {
                    le_ns: 1_023,
                    count: 3,
                },
                HistBucket {
                    le_ns: 1_407,
                    count: 4,
                },
            ],
            tile: None,
        }],
        batch: BatchSnapshot {
            batches: 2,
            items: 7,
            failed_items: 1,
            chunks: 3,
            max_batch: 4,
            queued_items: 0,
        },
        serve: ServeSnapshot {
            submitted: 101,
            accepted: 102,
            completed: 103,
            failed: 104,
            rejected_queue_full: 105,
            rejected_shedding: 106,
            rejected_draining: 107,
            rejected_quota: 108,
            shed_deadline: 109,
            deadline_missed: 110,
            cancelled: 111,
            worker_panics: 112,
            worker_restarts: 113,
            breaker_trips: 114,
            queue_depth: 115,
            queue_depth_max: 116,
            batches: 117,
            batch_items: 118,
            batch_size_max: 119,
            batch_size_hist: vec![
                SizeBucket { le: 1, count: 60 },
                SizeBucket { le: 4, count: 50 },
                SizeBucket { le: 16, count: 7 },
            ],
            net_accepted_conns: 120,
            net_rejected_conns: 121,
            net_timeouts_read: 122,
            net_timeouts_write: 123,
            net_malformed_requests: 124,
            net_bytes_in: 125,
            net_bytes_out: 126,
            rejected_memory: 127,
            net_accept_errors: 128,
            net_spawn_sheds: 129,
            mem_used_bytes: 130,
            mem_budget_bytes: 131,
            mem_leases: 132,
            degradation_state: 133,
            stage_queue_wait: stage(134, 135_000, &[(2_047, 100), (8_191, 34)]),
            stage_batch_wait: stage(136, 137_000, &[(1_023, 136)]),
            stage_exec: stage(138, 139_000, &[(16_383, 138)]),
            stage_write: stage(140, 141_000, &[(511, 40), (4_095, 100)]),
        },
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("exposition.prom")
}

#[test]
fn exposition_matches_golden() {
    let text = snapshot().to_prometheus();
    let path = golden_path();
    if std::env::var_os("BITFLOW_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with BITFLOW_BLESS=1",
            path.display()
        )
    });
    for (i, (got, want)) in text.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from the golden", i + 1);
    }
    assert_eq!(
        text.lines().count(),
        want.lines().count(),
        "line count differs from the golden"
    );
}
