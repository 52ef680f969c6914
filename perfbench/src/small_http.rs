//! The `small_http` probe: `small_cnn` behind `NetServer` + `Server`
//! (default `ServerConfig`) on loopback, driven over keep-alive HTTP/1.1 by
//! `nproc` paced client threads. The engine is a small share of each round
//! trip, so the net and serve layers' per-request costs dominate. It is not
//! a gated workload (too unsteady on a shared 2-core host, see README.md);
//! every traced run runs it briefly for the `net.*` and
//! `serve.roundtrip_*` metrics, and `vgg16_b1` also for `serve.*` and
//! `openloop.*`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use bitflow_graph::{load_model, CompiledModel};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{ModelRegistry, Server, ServerConfig};

use crate::http::{request_bytes, Conn};
use crate::models::{Generated, Net, Oracle};
use crate::report::Report;
use crate::served::{
    client_loop, serve_layers, snapshot, Exchange, Outcome, PhaseResult, SpanNames,
};
use crate::trace::Tracer;
use crate::{Res, RunCtx};

/// Offered rate of the open-loop phases, requests per second. On a shared
/// 2-core host the closed-loop capacity measured 12k rps when quiet and
/// under 3k rps under heavy steal; half the quiet capacity overloads the
/// server in contended periods, so the rate sits near a third of the
/// contended capacity.
const RATE_RPS: f64 = 1000.0;
/// Latency limit: the same 10 ms p99 SLO `loadgen` uses. A phase whose
/// generator lag p99 exceeds a tenth of it is marked invalid.
const LIMIT_MS: f64 = 10.0;
/// Distinct inputs requests draw from.
const INPUTS: usize = 64;
/// Length of each of the probe's three phases, seconds.
const PHASE_S: f64 = 0.5;
/// The tenant name requests are routed to.
const TENANT: &str = "small";

const HTTP_SPANS: SpanNames = SpanNames {
    root: "http.request",
    handover: "http.write",
    wait: "http.read",
};
const INPROC_SPANS: SpanNames = SpanNames {
    root: "serve.request",
    handover: "serve.submit",
    wait: "serve.wait",
};

/// A listening server, with its set-up split.
struct Up {
    net: NetServer,
    server: Arc<Server>,
    decode_s: f64,
    compile_s: f64,
    start_ms: f64,
    bind_ms: f64,
}

/// Container file → compiled model → `Server::start_multi` →
/// `NetServer::bind` → first response, in process and then over HTTP,
/// both verified.
fn bring_up(ctx: &RunCtx, gen: &Generated, oracle: &Oracle, requests: &[Vec<u8>]) -> Res<Up> {
    let t0 = Instant::now();
    let (spec, weights) = load_model(&gen.path)?;
    let t1 = Instant::now();
    let model = CompiledModel::try_compile(&spec, &weights)?;
    let t2 = Instant::now();
    let mut registry = ModelRegistry::new();
    registry.register(TENANT, Arc::new(model), None);
    let server = Arc::new(Server::start_multi(registry, ServerConfig::default()));
    let t3 = Instant::now();
    let net = NetServer::bind(Arc::clone(&server), NetConfig::default())?;
    let t4 = Instant::now();
    let client = server.client(TENANT).ok_or("tenant missing")?;
    let handle = client
        .submit(gen.inputs[0].clone())
        .map_err(|e| format!("first request refused: {e}"))?;
    ctx.verifier.record(oracle.matches(0, &handle.wait()?));
    drop(client);
    let mut conn = Conn::connect(net.local_addr())?;
    conn.send(&requests[0])?;
    let reply = conn.receive()?;
    if reply.status != 200 {
        return Err(format!("first request answered {}", reply.status).into());
    }
    ctx.verifier
        .record(oracle.matches_bytes(0, conn.body(&reply)));
    Ok(Up {
        net,
        server,
        decode_s: (t1 - t0).as_secs_f64(),
        compile_s: (t2 - t1).as_secs_f64(),
        start_ms: (t3 - t2).as_secs_f64() * 1e3,
        bind_ms: (t4 - t3).as_secs_f64() * 1e3,
    })
}

/// HTTP traffic from `clients` keep-alive connections.
#[allow(clippy::too_many_arguments)]
fn http_phase(
    ctx: &RunCtx,
    addr: SocketAddr,
    requests: &[Vec<u8>],
    oracle: &Oracle,
    clients: usize,
    rate: Option<f64>,
    secs: f64,
    tracer: Option<&Tracer>,
) -> PhaseResult {
    client_loop(clients, rate, secs, ctx.seed, tracer, &HTTP_SPANS, |_| {
        let mut conn: Option<Conn> = None;
        move |r: u64| {
            let idx = (r % requests.len() as u64) as usize;
            let failed = |at| Exchange {
                outcome: Outcome::Failed,
                class: 0,
                handed_over: at,
                bytes: 0,
            };
            let mut c = match conn.take() {
                Some(c) => c,
                None => match Conn::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return failed(Instant::now()),
                },
            };
            if c.send(&requests[idx]).is_err() {
                return failed(Instant::now());
            }
            let handed_over = Instant::now();
            let Ok(reply) = c.receive() else {
                return failed(handed_over);
            };
            let outcome = match reply.status {
                200 => {
                    ctx.verifier
                        .record(oracle.matches_bytes(idx, c.body(&reply)));
                    Outcome::Ok
                }
                429 | 503 => Outcome::Refused,
                _ => Outcome::Failed,
            };
            let bytes = (requests[idx].len() + reply.bytes_read) as u64;
            if !reply.close {
                conn = Some(c);
            }
            Exchange {
                outcome,
                class: 0,
                handed_over,
                bytes,
            }
        }
    })
}

/// The same traffic sent in process: `Server::submit` + `wait`.
#[allow(clippy::too_many_arguments)]
fn inproc_phase(
    ctx: &RunCtx,
    server: &Server,
    gen: &Generated,
    oracle: &Oracle,
    clients: usize,
    rate: Option<f64>,
    secs: f64,
    tracer: Option<&Tracer>,
) -> PhaseResult {
    client_loop(clients, rate, secs, ctx.seed, tracer, &INPROC_SPANS, |_| {
        move |r: u64| {
            let idx = (r % gen.inputs.len() as u64) as usize;
            let input = gen.inputs[idx].clone();
            let submitted = server.submit(input);
            let handed_over = Instant::now();
            let outcome = match submitted {
                Err(_) => Outcome::Refused,
                Ok(handle) => match handle.wait() {
                    Ok(logits) => {
                        ctx.verifier.record(oracle.matches(idx, &logits));
                        Outcome::Ok
                    }
                    Err(_) => Outcome::Failed,
                },
            };
            Exchange {
                outcome,
                class: 0,
                handed_over,
                bytes: 0,
            }
        }
    })
}

/// Runs the probe: one set-up, then the open-loop latency phase at
/// [`RATE_RPS`] once untraced (the `openloop.*` metrics), once traced over
/// HTTP, and once traced in process. The serving counters are read as a
/// delta over the two traced phases, so `serve.submit_us`, timed in the
/// in-process phase, comes from the same window as the `serve.*` histograms.
pub fn probe(ctx: &RunCtx) -> Res<Report> {
    let gen = Generated::new(Net::Small, ctx.seed, INPUTS, &ctx.out_dir)?;
    let oracle = {
        let (spec, weights) = load_model(&gen.path)?;
        let model = CompiledModel::try_compile(&spec, &weights)?;
        ctx.record_tiers("small", &model);
        let mut oracle = Oracle::compute(&model, &gen.inputs)?;
        if ctx.corrupt_oracle {
            oracle.corrupt();
        }
        oracle
    };
    let requests: Vec<Vec<u8>> = gen
        .inputs
        .iter()
        .map(|x| request_bytes(TENANT, x))
        .collect();

    let up = bring_up(ctx, &gen, &oracle, &requests)?;
    let addr = up.net.local_addr();
    let clients = ctx.nproc;
    let tenant = up.server.client(TENANT).ok_or("tenant missing")?;

    // Warm-up: fill caches and connection state before timing.
    http_phase(ctx, addr, &requests, &oracle, clients, None, 0.3, None);

    let max_lag_ms = LIMIT_MS / 10.0;
    let open_loop = Some(RATE_RPS);
    let mut untraced = http_phase(
        ctx, addr, &requests, &oracle, clients, open_loop, PHASE_S, None,
    );
    untraced.close("latency_untraced", max_lag_ms);
    let tracer = Tracer::new();
    let t = Some(&tracer);
    let before = snapshot(std::slice::from_ref(&tenant));
    let mut lat = http_phase(
        ctx, addr, &requests, &oracle, clients, open_loop, PHASE_S, t,
    );
    lat.close("latency_traced", max_lag_ms);
    let mut inproc = inproc_phase(
        ctx, &up.server, &gen, &oracle, clients, open_loop, PHASE_S, t,
    );
    inproc.close("inproc_traced", max_lag_ms);
    let after = snapshot(std::slice::from_ref(&tenant));

    let mut report = Report::default();
    let m = &mut report.metrics;
    for (name, p) in [
        ("openloop.latency_p50_ms", 0.50),
        ("openloop.latency_p90_ms", 0.90),
        ("openloop.latency_p99_ms", 0.99),
        // One tenant: every request is a small one.
        ("openloop.small_p99_ms", 0.99),
    ] {
        m.set(name, untraced.windowed_quantile(&[0], p), "ms");
    }
    m.set("model_io.decode_s", up.decode_s, "s");
    m.set("engine.compile_s", up.compile_s, "s");
    m.set("serve.start_ms", up.start_ms, "ms");
    m.set("net.bind_ms", up.bind_ms, "ms");
    m.fill_from(&serve_layers(&before, &after, &[&inproc.handover_us]));
    m.set("serve.roundtrip_p50_us", inproc.rtt_us.quantile(0.50), "us");
    m.set("serve.roundtrip_p99_us", inproc.rtt_us.quantile(0.99), "us");
    m.set("net.roundtrip_p50_us", lat.rtt_us.quantile(0.50), "us");
    m.set("net.roundtrip_p99_us", lat.rtt_us.quantile(0.99), "us");
    m.set(
        "net.bytes_per_request",
        lat.bytes as f64 / lat.count.sent.max(1) as f64,
        "B",
    );
    ctx.write_trace("small_http", &tracer)?;
    report
        .phases
        .extend([untraced.count, lat.count, inproc.count]);
    drop(tenant);
    up.net.shutdown();
    Ok(report)
}
