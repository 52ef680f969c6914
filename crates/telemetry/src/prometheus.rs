//! Prometheus text exposition of a [`MetricsSnapshot`].
//!
//! [`MetricsSnapshot::to_prometheus`] renders the version-0.0.4 text
//! format: one `# HELP`/`# TYPE` header per metric family, all series of a
//! family contiguous, label values escaped, histogram buckets cumulative
//! and terminated with `le="+Inf"`. The output is a plain `String` so a
//! future HTTP endpoint can serve it verbatim; today the bench bins print
//! it and the tests parse it back.
//!
//! Counter families use the `_total` suffix convention; achieved rates and
//! roofline percentages are gauges (they can go down); per-operator
//! latency is a native histogram family derived from the log2-octave
//! buckets, with each bucket's inclusive upper edge as its `le` bound.

use std::fmt::Write;

use crate::serve::{RowValue, ServeSnapshot};
use crate::snapshot::{MetricsSnapshot, OpBound};

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the serving families from the counter table, in table order.
/// Consecutive rows of one family share its `# HELP`/`# TYPE` header;
/// histograms render cumulative buckets terminated by `+Inf`, then
/// `_sum` and `_count`.
fn serve_families(s: &mut String, sv: &ServeSnapshot, mlab: &str) {
    let mut prev = None;
    for row in ServeSnapshot::ROWS {
        let Some(name) = row.family else { continue };
        if prev != Some(name) {
            let _ = writeln!(s, "# HELP {name} {}", row.help);
            let _ = writeln!(s, "# TYPE {name} {}", row.kind.prometheus_type());
            prev = Some(name);
        }
        match row.value(sv) {
            RowValue::Scalar(v) => match row.label {
                Some((key, value)) => {
                    let _ = writeln!(s, "{name}{{{mlab},{key}=\"{value}\"}} {v}");
                }
                None => {
                    let _ = writeln!(s, "{name}{{{mlab}}} {v}");
                }
            },
            // The batch-size histogram's count and sum are the `batches`
            // and `batch_items` rows.
            RowValue::BatchSizes(buckets) => {
                let mut cum = 0u64;
                for b in buckets {
                    cum += b.count;
                    let le = if b.le == u64::MAX {
                        "+Inf".to_string()
                    } else {
                        b.le.to_string()
                    };
                    let _ = writeln!(s, "{name}{{{mlab},le=\"{le}\"}} {cum}");
                }
                if buckets.last().map(|b| b.le) != Some(u64::MAX) {
                    let _ = writeln!(s, "{name}{{{mlab},le=\"+Inf\"}} {}", sv.batches);
                }
                let _ = writeln!(s, "{name}_sum{{{mlab}}} {}", sv.batch_items);
                let _ = writeln!(s, "{name}_count{{{mlab}}} {}", sv.batches);
            }
            RowValue::Stage(stage) => {
                let mut cum = 0u64;
                for b in &stage.buckets {
                    cum += b.count;
                    let _ = writeln!(s, "{name}{{{mlab},le=\"{}\"}} {cum}", b.le_ns);
                }
                let _ = writeln!(s, "{name}{{{mlab},le=\"+Inf\"}} {}", stage.count);
                let _ = writeln!(s, "{name}_sum{{{mlab}}} {}", stage.total_ns);
                let _ = writeln!(s, "{name}_count{{{mlab}}} {}", stage.count);
            }
        }
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(4096);
        let model = escape_label(&self.model);

        fn family(s: &mut String, name: &str, help: &str, kind: &str, rows: Vec<(String, String)>) {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} {kind}");
            for (labels, value) in rows {
                let _ = writeln!(s, "{name}{{{labels}}} {value}");
            }
        }
        let op_labels = |op: &crate::snapshot::OpSnapshot| {
            format!(
                "model=\"{model}\",op=\"{}\",kind=\"{}\"",
                escape_label(&op.name),
                op.kind.label()
            )
        };

        family(
            &mut s,
            "bitflow_requests_total",
            "Requests that have entered the engine (including in-flight).",
            "counter",
            vec![(format!("model=\"{model}\""), self.requests.to_string())],
        );

        family(
            &mut s,
            "bitflow_op_calls_total",
            "Recorded operator invocations.",
            "counter",
            self.ops
                .iter()
                .map(|op| (op_labels(op), op.calls.to_string()))
                .collect(),
        );
        family(
            &mut s,
            "bitflow_op_time_ns_total",
            "Wall time attributed to the operator, nanoseconds.",
            "counter",
            self.ops
                .iter()
                .map(|op| (op_labels(op), op.total_ns.to_string()))
                .collect(),
        );
        family(
            &mut s,
            "bitflow_op_gops",
            "Sustained xor+popcount throughput, GOPS.",
            "gauge",
            self.ops
                .iter()
                .map(|op| (op_labels(op), fmt_f64(op.gops)))
                .collect(),
        );
        family(
            &mut s,
            "bitflow_op_gb_per_s",
            "Sustained memory traffic, GB/s.",
            "gauge",
            self.ops
                .iter()
                .map(|op| (op_labels(op), fmt_f64(op.gb_per_s)))
                .collect(),
        );
        family(
            &mut s,
            "bitflow_op_pct_of_peak_compute",
            "Achieved share of the machine's peak xor+popcount throughput, percent.",
            "gauge",
            self.ops
                .iter()
                .map(|op| (op_labels(op), fmt_f64(op.pct_of_peak_compute)))
                .collect(),
        );
        family(
            &mut s,
            "bitflow_op_pct_of_peak_bandwidth",
            "Achieved share of the machine's peak memory bandwidth, percent.",
            "gauge",
            self.ops
                .iter()
                .map(|op| (op_labels(op), fmt_f64(op.pct_of_peak_bandwidth)))
                .collect(),
        );
        family(
            &mut s,
            "bitflow_op_memory_bound",
            "Roofline verdict: 1 memory-bound, 0 compute-bound, absent idle.",
            "gauge",
            self.ops
                .iter()
                .filter(|op| op.bound != OpBound::Idle)
                .map(|op| {
                    let v = if op.bound == OpBound::Memory {
                        "1"
                    } else {
                        "0"
                    };
                    (op_labels(op), v.to_string())
                })
                .collect(),
        );

        // Histogram family: cumulative buckets from the sparse snapshot.
        let mut hist_rows = Vec::new();
        for op in &self.ops {
            let labels = op_labels(op);
            let mut cum = 0u64;
            for b in &op.hist {
                cum += b.count;
                hist_rows.push((format!("{labels},le=\"{}\"", b.le_ns), cum.to_string()));
            }
            hist_rows.push((format!("{labels},le=\"+Inf\""), op.calls.to_string()));
        }
        family(
            &mut s,
            "bitflow_op_latency_ns",
            "Per-call operator latency, nanoseconds (log2-octave buckets).",
            "histogram",
            hist_rows,
        );
        // _sum/_count live outside the bucket family header.
        for op in &self.ops {
            let labels = op_labels(op);
            let _ = writeln!(s, "bitflow_op_latency_ns_sum{{{labels}}} {}", op.total_ns);
            let _ = writeln!(s, "bitflow_op_latency_ns_count{{{labels}}} {}", op.calls);
        }

        let m = &self.machine;
        let mlab = format!("model=\"{model}\"");
        family(
            &mut s,
            "bitflow_machine_peak_gops",
            "Theoretical peak xor+popcount throughput, GOPS.",
            "gauge",
            vec![(mlab.clone(), fmt_f64(m.peak_gops))],
        );
        family(
            &mut s,
            "bitflow_machine_peak_gb_per_s",
            "Peak streaming memory bandwidth, GB/s.",
            "gauge",
            vec![(mlab.clone(), fmt_f64(m.peak_gb_per_s))],
        );
        family(
            &mut s,
            "bitflow_machine_freq_ghz",
            "Estimated sustained core frequency, GHz.",
            "gauge",
            vec![(mlab.clone(), fmt_f64(m.freq_ghz))],
        );
        family(
            &mut s,
            "bitflow_machine_logical_cores",
            "Logical cores visible to the process.",
            "gauge",
            vec![(mlab.clone(), m.logical_cores.to_string())],
        );

        family(
            &mut s,
            "bitflow_perf_sampled_requests_total",
            "Requests wrapped in a hardware-counter group.",
            "counter",
            vec![(mlab.clone(), self.perf.sampled_requests.to_string())],
        );
        family(
            &mut s,
            "bitflow_perf_available",
            "Whether hardware counters are being collected (status label).",
            "gauge",
            vec![(
                format!(
                    "model=\"{model}\",status=\"{}\"",
                    escape_label(&self.perf.status)
                ),
                (if self.perf.status == "ok" { "1" } else { "0" }).to_string(),
            )],
        );
        let perf_counters: [(&str, &str, Option<u64>); 4] = [
            (
                "bitflow_perf_cycles_total",
                "Core cycles across sampled requests.",
                self.perf.cycles,
            ),
            (
                "bitflow_perf_instructions_total",
                "Retired instructions across sampled requests.",
                self.perf.instructions,
            ),
            (
                "bitflow_perf_llc_misses_total",
                "Last-level-cache misses across sampled requests.",
                self.perf.llc_misses,
            ),
            (
                "bitflow_perf_branch_misses_total",
                "Mispredicted branches across sampled requests.",
                self.perf.branch_misses,
            ),
        ];
        for (name, help, value) in perf_counters {
            if let Some(v) = value {
                family(
                    &mut s,
                    name,
                    help,
                    "counter",
                    vec![(mlab.clone(), v.to_string())],
                );
            }
        }

        let b = &self.batch;
        family(
            &mut s,
            "bitflow_batch_items_total",
            "Items accepted across all batches.",
            "counter",
            vec![(mlab.clone(), b.items.to_string())],
        );
        family(
            &mut s,
            "bitflow_batch_failed_items_total",
            "Items that returned an error.",
            "counter",
            vec![(mlab.clone(), b.failed_items.to_string())],
        );
        family(
            &mut s,
            "bitflow_batch_queued_items",
            "Items currently in flight inside try_infer_batch.",
            "gauge",
            vec![(mlab.clone(), b.queued_items.to_string())],
        );

        serve_families(&mut s, &self.serve, &mlab);

        s
    }
}

#[cfg(test)]
mod tests {
    use crate::serve::{ServeSnapshot, SizeBucket, StageSnapshot};
    use crate::snapshot::{
        BatchSnapshot, HistBucket, MachineSnapshot, MetricsSnapshot, OpBound, OpSnapshot,
        PerfSnapshot, SCHEMA_VERSION,
    };
    use crate::OpKind;

    fn snap() -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            model: "small-cnn".to_string(),
            requests: 8,
            machine: MachineSnapshot {
                features: "sse2+avx2".to_string(),
                simd_width_bits: 256,
                logical_cores: 2,
                freq_ghz: 2.1,
                freq_source: "cpuinfo".to_string(),
                peak_gops: 2150.4,
                peak_gb_per_s: 11.5,
                bw_source: "measured".to_string(),
            },
            perf: PerfSnapshot::unavailable("no PMU"),
            ops: vec![OpSnapshot {
                name: "conv1".to_string(),
                kind: OpKind::Conv,
                calls: 8,
                total_ns: 8_000,
                mean_ns: 1_000.0,
                max_ns: 1_500,
                p50_ns: 1_008,
                p95_ns: 1_488,
                p99_ns: 1_488,
                bit_ops_per_call: 1_000_000,
                bytes_read_per_call: 4_096,
                bytes_written_per_call: 1_024,
                gops: 1_000.0,
                gb_per_s: 5.12,
                pct_of_peak_compute: 46.5,
                pct_of_peak_bandwidth: 44.5,
                bound: OpBound::Compute,
                hist: vec![
                    HistBucket {
                        le_ns: 1_023,
                        count: 5,
                    },
                    HistBucket {
                        le_ns: 1_535,
                        count: 3,
                    },
                ],
                tile: None,
            }],
            batch: BatchSnapshot::default(),
            serve: ServeSnapshot {
                submitted: 20,
                accepted: 17,
                completed: 12,
                failed: 1,
                rejected_queue_full: 2,
                rejected_shedding: 1,
                rejected_draining: 0,
                rejected_quota: 3,
                shed_deadline: 2,
                deadline_missed: 1,
                cancelled: 1,
                worker_panics: 1,
                worker_restarts: 1,
                breaker_trips: 1,
                queue_depth: 3,
                queue_depth_max: 6,
                batches: 6,
                batch_items: 14,
                batch_size_max: 4,
                batch_size_hist: vec![
                    SizeBucket { le: 1, count: 2 },
                    SizeBucket { le: 4, count: 4 },
                ],
                net_accepted_conns: 9,
                net_rejected_conns: 2,
                net_timeouts_read: 4,
                net_timeouts_write: 1,
                net_malformed_requests: 5,
                net_bytes_in: 123_456,
                net_bytes_out: 65_432,
                rejected_memory: 4,
                net_accept_errors: 3,
                net_spawn_sheds: 2,
                mem_used_bytes: 2_097_152,
                mem_budget_bytes: 8_388_608,
                mem_leases: 5,
                degradation_state: 2,
                stage_queue_wait: StageSnapshot {
                    count: 12,
                    total_ns: 48_000,
                    buckets: vec![
                        HistBucket {
                            le_ns: 2_047,
                            count: 7,
                        },
                        HistBucket {
                            le_ns: 8_191,
                            count: 5,
                        },
                    ],
                },
                stage_batch_wait: StageSnapshot {
                    count: 12,
                    total_ns: 6_000,
                    buckets: vec![HistBucket {
                        le_ns: 1_023,
                        count: 12,
                    }],
                },
                stage_exec: StageSnapshot {
                    count: 12,
                    total_ns: 96_000,
                    buckets: vec![HistBucket {
                        le_ns: 16_383,
                        count: 12,
                    }],
                },
                stage_write: StageSnapshot::default(),
            },
        }
    }

    #[test]
    fn exposition_has_headers_and_series() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_requests_total counter"));
        assert!(text.contains("bitflow_requests_total{model=\"small-cnn\"} 8"));
        assert!(text
            .contains("bitflow_op_calls_total{model=\"small-cnn\",op=\"conv1\",kind=\"conv\"} 8"));
        assert!(text.contains("# TYPE bitflow_op_latency_ns histogram"));
        assert!(text.contains("le=\"+Inf\"} 8"));
        assert!(text.contains("bitflow_op_latency_ns_sum"));
        assert!(text.contains("bitflow_op_latency_ns_count"));
        assert!(text.contains("status=\"unavailable: no PMU\"} 0"));
        // Unavailable counters are absent, not zero.
        assert!(!text.contains("bitflow_perf_cycles_total{"));
    }

    #[test]
    fn serve_families_render() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_serve_submitted_total counter"));
        assert!(text.contains("bitflow_serve_submitted_total{model=\"small-cnn\"} 20"));
        assert!(text.contains("bitflow_serve_accepted_total{model=\"small-cnn\"} 17"));
        assert!(text
            .contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"queue_full\"} 2"));
        assert!(text
            .contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"shedding\"} 1"));
        assert!(text
            .contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"draining\"} 0"));
        assert!(text.contains("# TYPE bitflow_serve_queue_depth gauge"));
        assert!(text.contains("bitflow_serve_queue_depth{model=\"small-cnn\"} 3"));
        assert!(text.contains("bitflow_serve_queue_depth_max{model=\"small-cnn\"} 6"));
        assert!(text.contains("bitflow_serve_breaker_trips_total{model=\"small-cnn\"} 1"));
        assert!(
            text.contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"quota\"} 3")
        );
        assert!(
            text.contains("bitflow_serve_rejected_total{model=\"small-cnn\",reason=\"memory\"} 4")
        );
    }

    #[test]
    fn governance_families_render() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_mem_used_bytes gauge"));
        assert!(text.contains("bitflow_mem_used_bytes{model=\"small-cnn\"} 2097152"));
        assert!(text.contains("bitflow_mem_budget_bytes{model=\"small-cnn\"} 8388608"));
        assert!(text.contains("bitflow_mem_leases{model=\"small-cnn\"} 5"));
        assert!(text.contains("# TYPE bitflow_degradation_state gauge"));
        assert!(text.contains("bitflow_degradation_state{model=\"small-cnn\"} 2"));
        assert!(text.contains("# TYPE bitflow_net_accept_errors_total counter"));
        assert!(text.contains("bitflow_net_accept_errors_total{model=\"small-cnn\"} 3"));
        assert!(text.contains("bitflow_net_spawn_sheds_total{model=\"small-cnn\"} 2"));
    }

    #[test]
    fn net_families_render() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_net_accepted_conns_total counter"));
        assert!(text.contains("bitflow_net_accepted_conns_total{model=\"small-cnn\"} 9"));
        assert!(text.contains("bitflow_net_rejected_conns_total{model=\"small-cnn\"} 2"));
        assert!(text.contains("bitflow_net_timeouts_read_total{model=\"small-cnn\"} 4"));
        assert!(text.contains("bitflow_net_timeouts_write_total{model=\"small-cnn\"} 1"));
        assert!(text.contains("bitflow_net_malformed_requests_total{model=\"small-cnn\"} 5"));
        assert!(text.contains("bitflow_net_bytes_in_total{model=\"small-cnn\"} 123456"));
        assert!(text.contains("bitflow_net_bytes_out_total{model=\"small-cnn\"} 65432"));
    }

    #[test]
    fn batch_size_histogram_is_cumulative_with_inf_terminator() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_serve_batch_size histogram"));
        assert!(text.contains("bitflow_serve_batch_size{model=\"small-cnn\",le=\"1\"} 2"));
        assert!(text.contains("bitflow_serve_batch_size{model=\"small-cnn\",le=\"4\"} 6"));
        assert!(text.contains("bitflow_serve_batch_size{model=\"small-cnn\",le=\"+Inf\"} 6"));
        assert!(text.contains("bitflow_serve_batch_size_sum{model=\"small-cnn\"} 14"));
        assert!(text.contains("bitflow_serve_batch_size_count{model=\"small-cnn\"} 6"));
        assert!(text.contains("bitflow_serve_batch_size_max{model=\"small-cnn\"} 4"));
    }

    #[test]
    fn stage_histograms_render_cumulative_with_inf_terminator() {
        let text = snap().to_prometheus();
        assert!(text.contains("# TYPE bitflow_stage_queue_wait_ns histogram"));
        assert!(text.contains("bitflow_stage_queue_wait_ns{model=\"small-cnn\",le=\"2047\"} 7"));
        assert!(text.contains("bitflow_stage_queue_wait_ns{model=\"small-cnn\",le=\"8191\"} 12"));
        assert!(text.contains("bitflow_stage_queue_wait_ns{model=\"small-cnn\",le=\"+Inf\"} 12"));
        assert!(text.contains("bitflow_stage_queue_wait_ns_sum{model=\"small-cnn\"} 48000"));
        assert!(text.contains("bitflow_stage_queue_wait_ns_count{model=\"small-cnn\"} 12"));
        assert!(text.contains("# TYPE bitflow_stage_batch_wait_ns histogram"));
        assert!(text.contains("# TYPE bitflow_stage_exec_ns histogram"));
        assert!(text.contains("bitflow_stage_exec_ns_sum{model=\"small-cnn\"} 96000"));
        // An idle stage still renders an empty histogram with +Inf = 0.
        assert!(text.contains("bitflow_stage_write_ns{model=\"small-cnn\",le=\"+Inf\"} 0"));
        assert!(text.contains("bitflow_stage_write_ns_count{model=\"small-cnn\"} 0"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = snap().to_prometheus();
        let c1023 = text
            .lines()
            .find(|l| l.contains("le=\"1023\""))
            .expect("first bucket");
        let c1535 = text
            .lines()
            .find(|l| l.contains("le=\"1535\""))
            .expect("second bucket");
        assert!(c1023.ends_with(" 5"), "{c1023}");
        assert!(c1535.ends_with(" 8"), "{c1535}");
    }

    #[test]
    fn label_escaping() {
        let mut s = snap();
        s.model = "a\"b\\c\nd".to_string();
        let text = s.to_prometheus();
        assert!(text.contains("model=\"a\\\"b\\\\c\\nd\""));
    }
}
