//! `mixed_serve`: two tenants in one `Server::start_multi`, `small_cnn`
//! and `tiered_cnn`, split 9:1 by count and submitted in process. Queues
//! build, micro-batches form, and small requests wait behind tiered ones;
//! the engine runs its serial and batch paths on small working sets.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bitflow_graph::{load_model, CompiledModel};
use bitflow_serve::{ModelClient, ModelRegistry, ResponseHandle, Server, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::models::{Generated, Net, Oracle};
use crate::report::{PhaseCount, Report};
use crate::served::{
    client_loop, serve_layers, snapshot, Exchange, Outcome, PhaseResult, SpanNames,
};
use crate::stats::{iq_mean, median};
use crate::trace::{SpanBuf, Tracer};
use crate::{rss_mb, Res, RunCtx};

/// Mean offered rate of the open-loop Poisson latency phase, requests per
/// second. On a shared 2-core host saturation throughput measured 5.4k rps
/// when quiet and 2k rps under heavy steal; the rate sits near a third of
/// the contended figure so that contended periods do not overload it.
const RATE_RPS: f64 = 600.0;
/// Submissions kept outstanding in the closed-loop saturation phase: the
/// smallest count on the goodput plateau at which micro-batches form. On a
/// shared 2-core host (default `ServerConfig`: 2 workers, `max_batch` 8),
/// medians of 3 seeds × 10 s, outstanding → goodput, p50, p90:
/// 1 → 2853 rps, 0.06 ms, 0.61 ms; 2 → 5633, 0.05, 1.89; 4 → 5001, 0.26,
/// 2.68; 8 → 5671, 0.48, 3.57; 16 → 5669, 1.13, 7.00; 32 → 5378, 4.29,
/// 12.39. With no more outstanding than workers no queue builds and every
/// request runs alone; past 8 the extra requests only wait in the queue.
const OUTSTANDING: usize = 8;
/// Latency limit for `goodput_rps`.
const LIMIT_MS: f64 = 25.0;
/// Share of requests that go to the small tenant (9:1 by count).
const SMALL_SHARE: f64 = 0.9;
/// Threads that wait on response handles in the latency phase, so each
/// completion is timed when its handle resolves, not in submission order.
const COLLECTORS: usize = 16;
const INPUTS: [usize; 2] = [64, 16];
const NETS: [Net; 2] = [Net::Small, Net::Tiered];

const SPANS: SpanNames = SpanNames {
    root: "serve.request",
    handover: "serve.submit",
    wait: "serve.wait",
};

/// Both tenants' generated models and oracles.
struct Tenants {
    gens: Vec<Generated>,
    oracles: Vec<Oracle>,
}

impl Tenants {
    /// Maps a random draw to (class, input index): 9:1 small to tiered.
    fn pick(&self, r: u64) -> (usize, usize) {
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let class = usize::from(u >= SMALL_SHARE);
        let n = self.gens[class].inputs.len() as u64;
        (class, (r % n) as usize)
    }
}

struct Up {
    server: Server,
    setup_s: f64,
    decode_s: f64,
    compile_s: f64,
    start_ms: f64,
}

/// Both container files → compiled models → `Server::start_multi` → one
/// verified response per tenant.
fn bring_up(ctx: &RunCtx, t: &Tenants) -> Res<Up> {
    let t0 = Instant::now();
    let mut decode_s = 0.0;
    let mut compile_s = 0.0;
    let mut registry = ModelRegistry::new();
    for gen in &t.gens {
        let a = Instant::now();
        let (spec, weights) = load_model(&gen.path)?;
        let b = Instant::now();
        let model = CompiledModel::try_compile(&spec, &weights)?;
        compile_s += b.elapsed().as_secs_f64();
        decode_s += (b - a).as_secs_f64();
        registry.register(gen.net.tag(), Arc::new(model), None);
    }
    let t1 = Instant::now();
    let server = Server::start_multi(registry, ServerConfig::default());
    let start_ms = t1.elapsed().as_secs_f64() * 1e3;
    for (class, gen) in t.gens.iter().enumerate() {
        let client = server.client(gen.net.tag()).ok_or("tenant missing")?;
        let handle = client
            .submit(gen.inputs[0].clone())
            .map_err(|e| format!("first request refused: {e}"))?;
        let logits = handle.wait()?;
        ctx.verifier.record(t.oracles[class].matches(0, &logits));
    }
    Ok(Up {
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        decode_s,
        compile_s,
        start_ms,
    })
}

/// An admitted request on its way to a collector.
struct Pending {
    handle: ResponseHandle,
    class: usize,
    idx: usize,
    /// When the request was sent: `submit` never blocks, so the generator
    /// is never held up by the program and any lateness is its own.
    sent: Instant,
    submitted: Instant,
    request: u64,
    root: u64,
}

/// Open loop: one thread submits on a seeded Poisson schedule, never
/// waiting for replies; collector threads wait on the handles and time
/// each completion from when its request was sent.
fn poisson_phase(
    ctx: &RunCtx,
    clients: &[ModelClient<'_>],
    t: &Tenants,
    secs: f64,
    tracer: Option<&Tracer>,
) -> PhaseResult {
    let (tx, rx) = mpsc::channel::<Pending>();
    let rx = Mutex::new(rx);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let mut total = PhaseResult::new(secs);
    let shared = &total;
    let counts: Vec<PhaseCount> = std::thread::scope(|scope| {
        let collectors: Vec<_> = (0..COLLECTORS)
            .map(|_| {
                let rx = &rx;
                scope.spawn(move || {
                    let mut count = PhaseCount::default();
                    let mut spans = SpanBuf::new(tracer);
                    loop {
                        let next = rx.lock().expect("collector queue lock").recv();
                        let Ok(p) = next else { break };
                        let result = p.handle.wait();
                        let done = Instant::now();
                        match result {
                            Ok(logits) => {
                                ctx.verifier
                                    .record(t.oracles[p.class].matches(p.idx, &logits));
                                count.succeeded += 1;
                                shared.record_latency(
                                    p.class,
                                    (p.sent - start).as_secs_f64(),
                                    (done - p.sent).as_secs_f64() * 1e3,
                                );
                                shared
                                    .rtt_us
                                    .record((done - p.submitted).as_secs_f64() * 1e6);
                            }
                            Err(_) => count.failed += 1,
                        }
                        spans.record(p.root, p.request, SPANS.wait, p.submitted, done);
                        spans.record_with_id(p.root, 0, p.request, SPANS.root, p.sent, done);
                    }
                    count
                })
            })
            .collect();

        let mut gen = PhaseCount::default();
        let mut spans = SpanBuf::new(tracer);
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x504f_4953);
        let mut due = start;
        let mut free_at = start;
        loop {
            let gap = -(1.0 - rng.gen::<f64>()).ln() / RATE_RPS;
            due += Duration::from_secs_f64(gap);
            if due >= end {
                break;
            }
            let (class, idx) = t.pick(rng.gen());
            let input = t.gens[class].inputs[idx].clone();
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            shared
                .lag_ms
                .record((sent - due.max(free_at)).as_secs_f64() * 1e3);
            gen.sent += 1;
            let (request, root) = spans.request();
            let submitted = clients[class].submit(input);
            let after = Instant::now();
            shared
                .handover_us
                .record((after - sent).as_secs_f64() * 1e6);
            spans.record(root, request, SPANS.handover, sent, after);
            match submitted {
                Ok(handle) => {
                    let p = Pending {
                        handle,
                        class,
                        idx,
                        sent,
                        submitted: after,
                        request,
                        root,
                    };
                    if tx.send(p).is_err() {
                        gen.failed += 1;
                    }
                }
                Err(_) => gen.refused += 1,
            }
            free_at = Instant::now();
        }
        drop(tx);
        let mut counts = vec![gen];
        counts.extend(
            collectors
                .into_iter()
                .map(|c| c.join().expect("collector thread panicked")),
        );
        counts
    });
    for c in &counts {
        total.count.add(c);
    }
    total
}

/// Closed loop: [`OUTSTANDING`] threads, each with one submission in
/// flight, tenant drawn 9:1 per request.
fn saturation_phase(
    ctx: &RunCtx,
    clients: &[ModelClient<'_>],
    t: &Tenants,
    secs: f64,
    tracer: Option<&Tracer>,
) -> PhaseResult {
    client_loop(OUTSTANDING, None, secs, ctx.seed, tracer, &SPANS, |_| {
        move |r: u64| {
            let (class, idx) = t.pick(r);
            let submitted = clients[class].submit(t.gens[class].inputs[idx].clone());
            let handed_over = Instant::now();
            let outcome = match submitted {
                Err(_) => Outcome::Refused,
                Ok(handle) => match handle.wait() {
                    Ok(logits) => {
                        ctx.verifier.record(t.oracles[class].matches(idx, &logits));
                        Outcome::Ok
                    }
                    Err(_) => Outcome::Failed,
                },
            };
            Exchange {
                outcome,
                class,
                handed_over,
                bytes: 0,
            }
        }
    })
}

/// Runs the workload. Untraced: the closed-loop saturation phase, which
/// gives the end-to-end metrics. Traced: the Poisson latency phase and the
/// saturation phase, each once untraced and once traced.
pub fn run(ctx: &RunCtx, secs: f64, trace: bool, setup_reps: usize) -> Res<Report> {
    let mut gens = Vec::new();
    let mut oracles = Vec::new();
    for (net, n) in NETS.into_iter().zip(INPUTS) {
        let gen = Generated::new(net, ctx.seed, n, &ctx.out_dir)?;
        let (spec, weights) = load_model(&gen.path)?;
        let model = CompiledModel::try_compile(&spec, &weights)?;
        ctx.record_tiers(net.tag(), &model);
        let mut oracle = Oracle::compute(&model, &gen.inputs)?;
        if ctx.corrupt_oracle {
            oracle.corrupt();
        }
        gens.push(gen);
        oracles.push(oracle);
    }
    let tenants = Tenants { gens, oracles };

    let mut ups = Vec::new();
    let mut up = None;
    for _ in 0..setup_reps.max(1) {
        drop(up.take());
        let u = bring_up(ctx, &tenants)?;
        ups.push([u.setup_s, u.decode_s, u.compile_s, u.start_ms]);
        up = Some(u);
    }
    let up = up.ok_or("no set-up ran")?;
    let col = |k: usize| -> Vec<f64> { ups.iter().map(|u| u[k]).collect() };
    let clients: Vec<ModelClient<'_>> = NETS
        .iter()
        .map(|n| up.server.client(n.tag()).ok_or("tenant missing"))
        .collect::<Result<_, _>>()?;

    // Warm-up before timing.
    saturation_phase(ctx, &clients, &tenants, 0.3, None);

    let max_lag_ms = LIMIT_MS / 10.0;
    let mut report = Report::default();
    if !trace {
        let mut sat = saturation_phase(ctx, &clients, &tenants, secs, None);
        sat.close("saturation", f64::INFINITY);
        let m = &mut report.metrics;
        m.set("setup_s", iq_mean(&col(0)), "s");
        m.set("latency_p50_ms", sat.windowed_quantile(&[0, 1], 0.50), "ms");
        m.set("latency_p90_ms", sat.windowed_quantile(&[0, 1], 0.90), "ms");
        m.set("goodput_rps", sat.goodput_rps(LIMIT_MS), "1/s");
        report.phases.push(sat.count);
        m.set("rss_mb", rss_mb(), "MB");
    } else {
        let mut untraced = poisson_phase(ctx, &clients, &tenants, secs * 0.2, None);
        untraced.close("latency_untraced", max_lag_ms);
        let mut sat_untraced = saturation_phase(ctx, &clients, &tenants, secs * 0.3, None);
        sat_untraced.close("saturation_untraced", f64::INFINITY);
        let tracer = Tracer::new();
        let before = snapshot(&clients);
        let mut lat = poisson_phase(ctx, &clients, &tenants, secs * 0.2, Some(&tracer));
        lat.close("latency_traced", max_lag_ms);
        let mut sat = saturation_phase(ctx, &clients, &tenants, secs * 0.3, Some(&tracer));
        sat.close("saturation_traced", f64::INFINITY);
        let after = snapshot(&clients);
        let untraced_p50 = sat_untraced.windowed_quantile(&[0, 1], 0.5);
        let m = &mut report.metrics;
        m.set(
            "openloop.latency_p50_ms",
            untraced.windowed_quantile(&[0, 1], 0.50),
            "ms",
        );
        m.set(
            "openloop.latency_p90_ms",
            untraced.windowed_quantile(&[0, 1], 0.90),
            "ms",
        );
        m.set(
            "openloop.latency_p99_ms",
            untraced.windowed_quantile(&[0, 1], 0.99),
            "ms",
        );
        m.set(
            "openloop.small_p99_ms",
            untraced.windowed_quantile(&[0], 0.99),
            "ms",
        );
        m.set("model_io.decode_s", median(&col(1)), "s");
        m.set("engine.compile_s", median(&col(2)), "s");
        m.set("serve.start_ms", median(&col(3)), "ms");
        m.fill_from(&serve_layers(
            &before,
            &after,
            &[&lat.handover_us, &sat.handover_us],
        ));
        m.set("bench.gen_lag_p99_ms", lat.count.gen_lag_p99_ms, "ms");
        m.set(
            "trace.overhead_pct",
            100.0 * (sat.windowed_quantile(&[0, 1], 0.5) - untraced_p50) / untraced_p50,
            "%",
        );
        ctx.write_trace("mixed_serve", &tracer)?;
        report
            .phases
            .extend([untraced.count, sat_untraced.count, lat.count, sat.count]);
    }
    drop(clients);
    up.server.shutdown();
    Ok(report)
}
