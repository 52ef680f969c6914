//! Property tests for the Prometheus text exposition.
//!
//! Two invariants, over randomized snapshots (including label values with
//! quotes, backslashes, and newlines):
//!
//! 1. **Format validity** — every line of `to_prometheus()` is a comment
//!    header or a parseable series (`name{labels} value`), every `# TYPE`
//!    precedes its family's series, histogram buckets are cumulative with
//!    strictly increasing `le` edges terminated by `+Inf`, and
//!    `+Inf == _count == calls`.
//! 2. **Counter round-trip** — the integer counters in the text equal the
//!    same counters read back from the serde-JSON form of the snapshot, so
//!    the two exporters can never drift apart silently.

use bitflow_telemetry::{
    BatchSnapshot, HistBucket, MachineSnapshot, MetricsSnapshot, OpBound, OpKind, OpSnapshot,
    PerfSnapshot, RowKind, ServeSnapshot, SizeBucket, StageSnapshot, BATCH_SIZE_EDGES,
    SCHEMA_VERSION,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One parsed series line.
#[derive(Debug)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn metric_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses one series line, validating the grammar strictly. Returns an
/// error message describing the first violation.
fn parse_series(line: &str) -> Result<Series, String> {
    let brace = line.find('{');
    let (name, rest) = match brace {
        Some(i) => (&line[..i], &line[i..]),
        None => {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("no value separator: {line}"))?;
            let value = value
                .parse::<f64>()
                .map_err(|_| format!("bad value: {line}"))?;
            return Ok(Series {
                name: name.to_string(),
                labels: vec![],
                value,
            });
        }
    };
    if !metric_name_ok(name) {
        return Err(format!("bad metric name `{name}`"));
    }
    // Parse `{k="v",k="v"} value` with escape handling.
    let mut chars = rest.chars();
    if chars.next() != Some('{') {
        return Err(format!("expected `{{`: {line}"));
    }
    let mut labels = Vec::new();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if !metric_name_ok(&key) {
            return Err(format!("bad label name `{key}` in {line}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label value not quoted: {line}"));
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {line}")),
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => return Err(format!("unterminated label value: {line}")),
            }
        }
        labels.push((key, val));
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("bad label separator {other:?}: {line}")),
        }
    }
    let value_text: String = chars.collect();
    let value_text = value_text.trim();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("bad value: {line}"))?,
    };
    Ok(Series {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses the whole exposition, checking header/series structure, and
/// returns the series list. Panics (via Err) on any format violation.
fn parse_exposition(text: &str) -> Result<Vec<Series>, String> {
    let mut series = Vec::new();
    let mut typed: std::collections::HashMap<String, String> = Default::default();
    let mut seen_families: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if !metric_name_ok(name) {
                return Err(format!("bad family name in header: {line}"));
            }
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                if !["counter", "gauge", "histogram"].contains(&kind) {
                    return Err(format!("bad TYPE kind: {line}"));
                }
                typed.insert(name.to_string(), kind.to_string());
            } else if keyword != "HELP" {
                return Err(format!("unknown comment keyword: {line}"));
            }
            continue;
        }
        let s = parse_series(line)?;
        // Strip histogram suffixes to find the owning family.
        let family = s
            .name
            .strip_suffix("_sum")
            .or_else(|| s.name.strip_suffix("_count"))
            .filter(|f| typed.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&s.name)
            .to_string();
        if !typed.contains_key(&family) {
            return Err(format!("series before its TYPE header: {line}"));
        }
        // Families must be contiguous: once we move on, never come back.
        match seen_families.last() {
            Some(last) if *last == family => {}
            _ => {
                if seen_families.contains(&family) {
                    return Err(format!("family `{family}` is not contiguous"));
                }
                seen_families.push(family);
            }
        }
        series.push(s);
    }
    Ok(series)
}

/// A random stage-latency snapshot: a sparse histogram with increasing
/// edges whose bucket counts sum to exactly `count`.
fn random_stage(rng: &mut StdRng) -> StageSnapshot {
    let count = rng.gen_range(0..10_000u64);
    let mut remaining = count;
    let mut le = 0u64;
    let mut buckets = Vec::new();
    for _ in 0..rng.gen_range(0..5usize) {
        le += rng.gen_range(1..100_000u64);
        let c = rng.gen_range(0..=remaining);
        remaining -= c;
        if c > 0 {
            buckets.push(HistBucket {
                le_ns: le,
                count: c,
            });
        }
    }
    if remaining > 0 {
        le += rng.gen_range(1..100_000u64);
        buckets.push(HistBucket {
            le_ns: le,
            count: remaining,
        });
    }
    StageSnapshot {
        count,
        total_ns: count * rng.gen_range(1..100_000u64),
        buckets,
    }
}

/// Builds a randomized snapshot from a seed: tricky label values, sparse
/// histograms, optional perf counters.
fn random_snapshot(seed: u64) -> MetricsSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let tricky = ["plain", "qu\"ote", "back\\slash", "new\nline", "sp ace"];
    let model = tricky[rng.gen_range(0..tricky.len())].to_string();
    let n_ops = rng.gen_range(0..4usize);
    let ops = (0..n_ops)
        .map(|i| {
            let calls = rng.gen_range(0..1000u64);
            // Sparse histogram: increasing edges, bucket counts that sum
            // to at most `calls` (the +Inf row absorbs the rest).
            let mut hist = Vec::new();
            let mut le = 0u64;
            let mut remaining = calls;
            for _ in 0..rng.gen_range(0..4usize) {
                le += rng.gen_range(1..1_000u64);
                let c = rng.gen_range(0..=remaining);
                remaining -= c;
                if c > 0 {
                    hist.push(HistBucket {
                        le_ns: le,
                        count: c,
                    });
                }
            }
            let total_ns = calls * rng.gen_range(1..10_000u64);
            OpSnapshot {
                name: format!("{}_{i}", tricky[rng.gen_range(0..tricky.len())]),
                kind: [OpKind::Conv, OpKind::Fc, OpKind::Pool][rng.gen_range(0..3usize)],
                calls,
                total_ns,
                mean_ns: rng.gen_range(0.0..1e6),
                max_ns: rng.gen_range(0..1_000_000),
                p50_ns: rng.gen_range(0..1_000_000),
                p95_ns: rng.gen_range(0..1_000_000),
                p99_ns: rng.gen_range(0..1_000_000),
                bit_ops_per_call: rng.gen_range(0..u32::MAX as u64),
                bytes_read_per_call: rng.gen_range(0..1_000_000),
                bytes_written_per_call: rng.gen_range(0..1_000_000),
                gops: rng.gen_range(0.0..5_000.0),
                gb_per_s: rng.gen_range(0.0..100.0),
                pct_of_peak_compute: rng.gen_range(0.0..100.0),
                pct_of_peak_bandwidth: rng.gen_range(0.0..100.0),
                bound: [OpBound::Compute, OpBound::Memory, OpBound::Idle][rng.gen_range(0..3usize)],
                hist,
                tile: None,
            }
        })
        .collect();
    let perf = if rng.gen_bool(0.5) {
        PerfSnapshot {
            status: "ok".to_string(),
            sampled_requests: rng.gen_range(0..1000),
            cycles: Some(rng.gen_range(0..u32::MAX as u64)),
            instructions: Some(rng.gen_range(0..u32::MAX as u64)),
            llc_misses: rng.gen_bool(0.5).then(|| rng.gen_range(0..1_000_000)),
            branch_misses: None,
            ipc: Some(rng.gen_range(0.0..8.0)),
        }
    } else {
        PerfSnapshot::unavailable("perf_event_open(config=0) failed: ENOENT (errno 2)")
    };
    MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        model,
        requests: rng.gen_range(0..100_000),
        machine: MachineSnapshot {
            features: "sse2+ssse3+popcnt+avx2".to_string(),
            simd_width_bits: 256,
            logical_cores: rng.gen_range(1..128),
            freq_ghz: rng.gen_range(0.5..6.0),
            freq_source: "calibrated".to_string(),
            peak_gops: rng.gen_range(1.0..100_000.0),
            peak_gb_per_s: rng.gen_range(1.0..500.0),
            bw_source: "measured".to_string(),
        },
        perf,
        ops,
        batch: BatchSnapshot {
            batches: rng.gen_range(0..1000),
            items: rng.gen_range(0..10_000),
            failed_items: rng.gen_range(0..100),
            chunks: rng.gen_range(0..1000),
            max_batch: rng.gen_range(0..64),
            queued_items: rng.gen_range(0..64),
        },
        serve: {
            // Sparse batch-size histogram consistent with `batches`: the
            // +Inf row the renderer emits absorbs the remainder.
            let batches = rng.gen_range(0..10_000u64);
            let mut remaining = batches;
            let mut batch_size_hist = Vec::new();
            for &le in &BATCH_SIZE_EDGES {
                let c = rng.gen_range(0..=remaining);
                remaining -= c;
                if c > 0 {
                    batch_size_hist.push(SizeBucket { le, count: c });
                }
            }
            ServeSnapshot {
                submitted: rng.gen_range(0..100_000),
                accepted: rng.gen_range(0..100_000),
                completed: rng.gen_range(0..100_000),
                failed: rng.gen_range(0..1_000),
                rejected_queue_full: rng.gen_range(0..10_000),
                rejected_shedding: rng.gen_range(0..10_000),
                rejected_draining: rng.gen_range(0..10_000),
                rejected_quota: rng.gen_range(0..10_000),
                shed_deadline: rng.gen_range(0..10_000),
                deadline_missed: rng.gen_range(0..10_000),
                cancelled: rng.gen_range(0..10_000),
                worker_panics: rng.gen_range(0..100),
                worker_restarts: rng.gen_range(0..100),
                breaker_trips: rng.gen_range(0..100),
                queue_depth: rng.gen_range(0..256),
                queue_depth_max: rng.gen_range(0..256),
                batches,
                batch_items: rng.gen_range(0..100_000),
                batch_size_max: rng.gen_range(0..64),
                batch_size_hist,
                net_accepted_conns: rng.gen_range(0..100_000),
                net_rejected_conns: rng.gen_range(0..10_000),
                net_timeouts_read: rng.gen_range(0..10_000),
                net_timeouts_write: rng.gen_range(0..10_000),
                net_malformed_requests: rng.gen_range(0..10_000),
                net_bytes_in: rng.gen_range(0..u32::MAX as u64),
                net_bytes_out: rng.gen_range(0..u32::MAX as u64),
                rejected_memory: rng.gen_range(0..10_000),
                net_accept_errors: rng.gen_range(0..10_000),
                net_spawn_sheds: rng.gen_range(0..10_000),
                mem_used_bytes: rng.gen_range(0..u32::MAX as u64),
                mem_budget_bytes: rng.gen_range(0..u32::MAX as u64),
                mem_leases: rng.gen_range(0..10_000),
                degradation_state: rng.gen_range(0..3),
                stage_queue_wait: random_stage(&mut rng),
                stage_batch_wait: random_stage(&mut rng),
                stage_exec: random_stage(&mut rng),
                stage_write: random_stage(&mut rng),
            }
        },
    }
}

/// The value of the unique series `name` carrying label `key="value"`.
fn labelled_value(series: &[Series], name: &str, key: &str, value: &str) -> Option<f64> {
    let mut it = series
        .iter()
        .filter(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == value));
    let found = it.next()?;
    assert!(
        it.next().is_none(),
        "duplicate series for {name}{{{key}=\"{value}\"}}"
    );
    Some(found.value)
}

/// Asserts that the histogram family `name`'s buckets have strictly
/// increasing `le` edges, cumulative counts, and end in `+Inf == count`.
fn check_histogram(buckets: &[&Series], name: &str, count: u64) -> Result<(), TestCaseError> {
    let mut prev_le = -1.0f64;
    let mut prev_cum = -1.0f64;
    for b in buckets {
        let le = &b
            .labels
            .iter()
            .find(|(k, _)| k == "le")
            .expect("bucket has le")
            .1;
        let le = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().expect("numeric le")
        };
        prop_assert!(le > prev_le, "le not increasing for {}", name);
        prop_assert!(b.value >= prev_cum, "buckets not cumulative for {}", name);
        prev_le = le;
        prev_cum = b.value;
    }
    let last = buckets.last().expect("+Inf bucket always present");
    prop_assert!(prev_le.is_infinite(), "{} not terminated by +Inf", name);
    prop_assert_eq!(last.value, count as f64, "{} +Inf != count", name);
    Ok(())
}

/// The value of the unique series `name` restricted to label `op="..."`.
fn series_value(series: &[Series], name: &str, op: Option<&str>) -> Option<f64> {
    let mut it = series.iter().filter(|s| {
        s.name == name
            && match op {
                Some(op) => s.labels.iter().any(|(k, v)| k == "op" && v == op),
                None => true,
            }
    });
    let found = it.next()?;
    assert!(it.next().is_none(), "duplicate series for {name}");
    Some(found.value)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn exposition_is_valid_and_round_trips_counters(seed in any::<u64>()) {
        let snap = random_snapshot(seed);
        let text = snap.to_prometheus();
        let series = parse_exposition(&text).map_err(TestCaseError::fail)?;

        // Counter round-trip goes through the *JSON* exporter, so the two
        // serialization paths are checked against each other.
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");

        prop_assert_eq!(
            series_value(&series, "bitflow_requests_total", None),
            Some(back.requests as f64)
        );
        prop_assert_eq!(
            series_value(&series, "bitflow_batch_items_total", None),
            Some(back.batch.items as f64)
        );
        prop_assert_eq!(
            series_value(&series, "bitflow_perf_sampled_requests_total", None),
            Some(back.perf.sampled_requests as f64)
        );
        prop_assert_eq!(
            series_value(&series, "bitflow_perf_cycles_total", None),
            back.perf.cycles.map(|c| c as f64)
        );
        prop_assert_eq!(
            series_value(&series, "bitflow_machine_logical_cores", None),
            Some(back.machine.logical_cores as f64)
        );

        // Every row of the serving-counter table round-trips through both
        // exporters: the series its family and label name in the text
        // equals the JSON value under its field name.
        let tree: serde::Value = serde_json::from_str(&json).expect("parse");
        let serve = tree.field("serve").expect("snapshot is an object");
        let json_u64 = |v: &serde::Value| match v {
            serde::Value::UInt(n) => *n as f64,
            other => panic!("expected an unsigned integer, found {}", other.kind()),
        };
        for row in ServeSnapshot::ROWS {
            let Some(name) = row.family else { continue };
            let field = serve.field(row.field).expect("serve is an object");
            match row.kind {
                RowKind::Stage => {
                    let stage: StageSnapshot = serde::Deserialize::from_value(field)
                        .expect("stage histogram");
                    let buckets: Vec<&Series> =
                        series.iter().filter(|s| s.name == name).collect();
                    check_histogram(&buckets, name, stage.count)?;
                    prop_assert_eq!(
                        series_value(&series, &format!("{name}_count"), None),
                        Some(stage.count as f64)
                    );
                    prop_assert_eq!(
                        series_value(&series, &format!("{name}_sum"), None),
                        Some(stage.total_ns as f64)
                    );
                }
                RowKind::BatchSizes => {
                    // The histogram's count and sum are the `batches` and
                    // `batch_items` rows.
                    let count = serve.field("batches").expect("serve is an object");
                    let sum = serve.field("batch_items").expect("serve is an object");
                    prop_assert_eq!(
                        series_value(&series, &format!("{name}_count"), None),
                        Some(json_u64(count))
                    );
                    prop_assert_eq!(
                        series_value(&series, &format!("{name}_sum"), None),
                        Some(json_u64(sum))
                    );
                }
                _ => {
                    let text = match row.label {
                        Some((key, value)) => labelled_value(&series, name, key, value),
                        None => series_value(&series, name, None),
                    };
                    prop_assert_eq!(text, Some(json_u64(field)), "row {}", row.field);
                }
            }
        }

        for op in &back.ops {
            prop_assert_eq!(
                series_value(&series, "bitflow_op_calls_total", Some(&op.name)),
                Some(op.calls as f64),
                "op {}", op.name
            );
            prop_assert_eq!(
                series_value(&series, "bitflow_op_time_ns_total", Some(&op.name)),
                Some(op.total_ns as f64)
            );

            // Histogram invariants: cumulative counts monotone over
            // strictly increasing le edges, +Inf == _count == calls.
            let buckets: Vec<&Series> = series
                .iter()
                .filter(|s| {
                    s.name == "bitflow_op_latency_ns"
                        && s.labels.iter().any(|(k, v)| k == "op" && v == &op.name)
                })
                .collect();
            check_histogram(&buckets, &op.name, op.calls)?;
            prop_assert_eq!(
                series_value(&series, "bitflow_op_latency_ns_count", Some(&op.name)),
                Some(op.calls as f64)
            );
            prop_assert_eq!(
                series_value(&series, "bitflow_op_latency_ns_sum", Some(&op.name)),
                Some(op.total_ns as f64)
            );
        }
    }
}
