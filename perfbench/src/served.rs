//! Load generation shared by the served workloads: paced client threads
//! (open loop at a fixed rate, or closed loop), phase results, and the
//! serving runtime's counters read as a delta over a measured window.

use std::time::{Duration, Instant};

use bitflow_serve::ModelClient;
use bitflow_telemetry::{HistBucket, ServeSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::report::{Metrics, PhaseCount};
use crate::stats::{bucket_quantile_us, hist_quantile, median, merge_buckets, stage_delta, Hist};
use crate::trace::{SpanBuf, Tracer};

/// Length of the windows tail latencies and goodput are computed over.
pub const WINDOW_S: f64 = 1.0;

/// How one request ended.
pub enum Outcome {
    /// Logits came back (the request function verifies them).
    Ok,
    /// Admission control refused it (HTTP 429/503, `RejectReason`).
    Refused,
    /// An error status, an engine error, a timeout or a dead connection.
    Failed,
}

/// What a client's request function reports back to the pacing loop.
pub struct Exchange {
    pub outcome: Outcome,
    /// Request class (0 = the small model, 1 = the tiered model).
    pub class: usize,
    /// When the request was handed over (written to the socket, or
    /// returned from `submit`); the rest of the round trip is waiting.
    pub handed_over: Instant,
    /// Bytes written plus bytes read, for wire requests.
    pub bytes: u64,
}

/// What one phase measured. Every thread of the phase records into the
/// same fixed-size histograms, so a phase holds as much memory after a
/// million requests as after one.
pub struct PhaseResult {
    pub count: PhaseCount,
    /// Latency of every successful request, ms, per [`WINDOW_S`] window of
    /// when it was due (or sent) and per class: from when it was due if
    /// its sender was still busy then, else from the send.
    windows: Vec<[Hist; 2]>,
    /// Send → response, microseconds (the layer round trip).
    pub rtt_us: Hist,
    /// Duration of the hand-over call (`submit` or the socket write), µs.
    pub handover_us: Hist,
    /// How late each request went out while its sender was free, ms.
    pub lag_ms: Hist,
    pub bytes: u64,
}

impl PhaseResult {
    /// An empty phase of `secs` seconds.
    pub fn new(secs: f64) -> Self {
        let n = (secs / WINDOW_S).floor().max(1.0) as usize;
        Self {
            count: PhaseCount::default(),
            windows: (0..n).map(|_| Default::default()).collect(),
            rtt_us: Hist::default(),
            handover_us: Hist::default(),
            lag_ms: Hist::default(),
            bytes: 0,
        }
    }

    /// Records a successful request of `class`, due (or sent) `at_s`
    /// seconds into the phase, that took `lat_ms`.
    pub fn record_latency(&self, class: usize, at_s: f64, lat_ms: f64) {
        let i = ((at_s / WINDOW_S).max(0.0) as usize).min(self.windows.len() - 1);
        self.windows[i][class].record(lat_ms);
    }

    /// The `p`-quantile of `classes`' latencies in each window, and the
    /// median of those: one stalled window moves it by one rank.
    pub fn windowed_quantile(&self, classes: &[usize], p: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .map(|w| classes.iter().map(|&c| &w[c]).collect::<Vec<_>>())
            .filter(|parts| parts.iter().any(|h| h.len() > 0))
            .map(|parts| hist_quantile(&parts, p))
            .collect();
        median(&per)
    }

    /// Completions within `limit_ms` per second, the median over windows.
    pub fn goodput_rps(&self, limit_ms: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.iter().map(|h| h.count_le(limit_ms)).sum::<f64>() / WINDOW_S)
            .collect();
        median(&per)
    }

    /// Finalises the phase's accounting: the generator-lag p99 and whether
    /// the generator (lag above `max_lag_ms`) set the schedule.
    pub fn close(&mut self, name: &str, max_lag_ms: f64) {
        self.count.name = name.to_string();
        self.count.gen_lag_p99_ms = self.lag_ms.quantile(0.99);
        self.count.valid = self.count.gen_lag_p99_ms <= max_lag_ms;
    }
}

/// Names of the spans a client loop records around each request.
pub struct SpanNames {
    pub root: &'static str,
    pub handover: &'static str,
    pub wait: &'static str,
}

/// Runs `clients` threads for `secs`. With `rate`, each thread paces its
/// share of an open-loop schedule of `rate` requests per second in total
/// and latency counts from when a request was due; without, each thread
/// runs a closed loop and latency counts from the send. `request(r)`
/// performs one request, where `r` is a seeded random draw the caller
/// maps to an input (and tenant).
#[allow(clippy::too_many_arguments)]
pub fn client_loop<F>(
    clients: usize,
    rate: Option<f64>,
    secs: f64,
    seed: u64,
    tracer: Option<&Tracer>,
    names: &SpanNames,
    make_request: impl Fn(usize) -> F + Sync,
) -> PhaseResult
where
    F: FnMut(u64) -> Exchange,
{
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let mut total = PhaseResult::new(secs);
    let shared = &total;
    let per_thread: Vec<(PhaseCount, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let make_request = &make_request;
                scope.spawn(move || {
                    let mut request = make_request(t);
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (t as u64 + 1)));
                    let mut spans = SpanBuf::new(tracer);
                    let mut count = PhaseCount::default();
                    let mut bytes = 0;
                    let interval = rate.map(|r| Duration::from_secs_f64(clients as f64 / r));
                    let mut due = start
                        + rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(t as f64 / r));
                    let mut free_at = start;
                    while due < end {
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        if interval.is_some() {
                            shared
                                .lag_ms
                                .record((sent - due.max(free_at)).as_secs_f64() * 1e3);
                        }
                        // A request counts from when it was due if this
                        // thread was still busy with the previous one then
                        // (the program held it up); otherwise from the send,
                        // so the generator's own wake-up lateness, reported
                        // as lag, stays out of the program's latency.
                        let origin = if interval.is_some() && free_at > due {
                            due
                        } else {
                            sent
                        };
                        let (req_id, root) = spans.request();
                        count.sent += 1;
                        let ex = request(rng.gen());
                        let done = Instant::now();
                        bytes += ex.bytes;
                        match ex.outcome {
                            Outcome::Ok => {
                                count.succeeded += 1;
                                shared.record_latency(
                                    ex.class,
                                    (origin - start).as_secs_f64(),
                                    (done - origin).as_secs_f64() * 1e3,
                                );
                                shared.rtt_us.record((done - sent).as_secs_f64() * 1e6);
                                shared
                                    .handover_us
                                    .record((ex.handed_over - sent).as_secs_f64() * 1e6);
                            }
                            Outcome::Refused => count.refused += 1,
                            Outcome::Failed => count.failed += 1,
                        }
                        if spans.enabled() {
                            spans.record(root, req_id, names.handover, sent, ex.handed_over);
                            spans.record(root, req_id, names.wait, ex.handed_over, done);
                            spans.record_with_id(root, 0, req_id, names.root, origin, done);
                        }
                        free_at = done;
                        due = match interval {
                            Some(i) => due + i,
                            None => done,
                        };
                    }
                    (count, bytes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (count, bytes) in per_thread {
        total.count.add(&count);
        total.bytes += bytes;
    }
    total
}

/// Snapshot of every tenant's serving counters.
pub fn snapshot(clients: &[ModelClient<'_>]) -> Vec<ServeSnapshot> {
    clients.iter().map(ModelClient::metrics).collect()
}

/// The serving layer's per-layer metrics over a window: the delta of
/// `Server::metrics()` summed over tenants, plus the benchmark's own
/// timing of the `submit` call inside the window. The one exception is
/// `serve.queue_depth_max`: the server keeps it as a running maximum, so
/// it is the largest queue depth since the server started (its warm-up and
/// any earlier phase included), not the window's.
pub fn serve_layers(
    before: &[ServeSnapshot],
    after: &[ServeSnapshot],
    submit_us: &[&Hist],
) -> Metrics {
    let mut queue: Vec<HistBucket> = Vec::new();
    let mut batch: Vec<HistBucket> = Vec::new();
    let mut exec: Vec<HistBucket> = Vec::new();
    let mut write: Vec<HistBucket> = Vec::new();
    let (mut batches, mut items, mut refused, mut depth_max) = (0u64, 0u64, 0u64, 0u64);
    for (b, a) in before.iter().zip(after) {
        merge_buckets(
            &mut queue,
            &stage_delta(&b.stage_queue_wait, &a.stage_queue_wait),
        );
        merge_buckets(
            &mut batch,
            &stage_delta(&b.stage_batch_wait, &a.stage_batch_wait),
        );
        merge_buckets(&mut exec, &stage_delta(&b.stage_exec, &a.stage_exec));
        merge_buckets(&mut write, &stage_delta(&b.stage_write, &a.stage_write));
        batches += a.batches - b.batches;
        items += a.batch_items - b.batch_items;
        refused += rejected(a) - rejected(b);
        // Not a delta: the counter is a maximum since the server started.
        depth_max = depth_max.max(a.queue_depth_max);
    }
    let mut m = Metrics::default();
    m.set(
        "serve.queue_wait_p50_us",
        bucket_quantile_us(&queue, 0.50),
        "us",
    );
    m.set(
        "serve.queue_wait_p99_us",
        bucket_quantile_us(&queue, 0.99),
        "us",
    );
    m.set(
        "serve.batch_wait_p50_us",
        bucket_quantile_us(&batch, 0.50),
        "us",
    );
    m.set("serve.exec_p50_us", bucket_quantile_us(&exec, 0.50), "us");
    m.set("serve.exec_p99_us", bucket_quantile_us(&exec, 0.99), "us");
    m.set("serve.write_p50_us", bucket_quantile_us(&write, 0.50), "us");
    m.set(
        "serve.batch_size_mean",
        items as f64 / batches.max(1) as f64,
        "count",
    );
    m.set("serve.batches", batches as f64, "count");
    m.set("serve.refused", refused as f64, "count");
    m.set("serve.queue_depth_max", depth_max as f64, "count");
    m.set("serve.submit_us", hist_quantile(submit_us, 0.5), "us");
    m
}

fn rejected(s: &ServeSnapshot) -> u64 {
    s.rejected_queue_full + s.rejected_shedding + s.rejected_draining + s.rejected_quota
}
