//! `vgg16_b1`: full-size VGG-16 at batch 1, one caller in a closed loop of
//! parallel `try_infer` over an `nproc`-thread pool (paper Fig. 11). The
//! kernels and the engine do all the work; serve and net do none.

use std::time::{Duration, Instant};

use bitflow_graph::{load_model, CompiledModel, InferenceContext};
use bitflow_telemetry::{roofline, OpKind};
use bitflow_tensor::Tensor;

use crate::models::{Generated, Net, Oracle};
use crate::report::{PhaseCount, Report};
use crate::stats::{iq_mean, mean, median, quantile, windowed_quantile};
use crate::trace::{SpanBuf, Tracer};
use crate::{rss_mb, Res, RunCtx};

/// Distinct input images; the oracle runs each serially once.
const INPUTS: usize = 4;
/// Latency limit for `goodput_rps`: an inference slower than this misses.
const LIMIT_MS: f64 = 1000.0;
/// Length of the windows the latency quantiles and `goodput_rps` are
/// taken over; the median over windows is reported. On a shared 2-vCPU
/// host single inferences run from 111 to over 250 ms, and the level
/// shifts for seconds at a time (the median of 5 s windows moved between
/// 123 and 223 ms within one 30 s run), so a quantile over a whole run
/// follows how long each level lasted. Cut from one 600 s run, 19
/// stretches of 30 s spread (interquartile range over median) 0.129 in the
/// whole-stretch p90 and 0.080 in the median of 2 s windows, and 0.096 /
/// 0.099 in the p50; 13 stretches of 45 s: p90 0.099 / 0.075, p50 0.083 /
/// 0.085, goodput 0.114 / 0.083. A window holds about ten inferences.
const WINDOW_S: f64 = 2.0;
/// One call of a loop: when it started, seconds into the loop, and how
/// long it took, ms.
type Sample = (f64, f64);
/// Largest share of a profiled call that may fall between its operators.
/// The engine times each operator around its kernel; what is left is the
/// request check, the per-op bookkeeping and the logits copy, under 0.1%
/// of a VGG-16 inference on the development host.
const MAX_BETWEEN_SHARE: f64 = 0.05;

/// A compiled VGG-16 ready to serve, with the time its set-up took.
struct Loaded {
    model: CompiledModel,
    ctx: InferenceContext,
    setup_s: f64,
    decode_s: f64,
    compile_s: f64,
}

/// Container file → decoded weights → compiled engine → context → first
/// parallel response, verified against the oracle.
fn load(ctx: &RunCtx, gen: &Generated, oracle: &Oracle, pool: &rayon::ThreadPool) -> Res<Loaded> {
    let t0 = Instant::now();
    let (spec, weights) = load_model(&gen.path)?;
    let t1 = Instant::now();
    let model = CompiledModel::try_compile(&spec, &weights)?;
    drop(weights);
    let t2 = Instant::now();
    let mut ictx = model.try_new_context()?;
    ictx.parallel = true;
    let logits = pool.install(|| model.try_infer(&mut ictx, &gen.inputs[0]))?;
    ctx.verifier.record(oracle.matches(0, &logits));
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Loaded {
        model,
        ctx: ictx,
        setup_s,
        decode_s: (t1 - t0).as_secs_f64(),
        compile_s: (t2 - t1).as_secs_f64(),
    })
}

/// Latencies of a closed loop of `try_infer` calls for `secs`, and the
/// gaps between one call's return and the next call (the loop's own
/// lateness).
fn closed_loop(
    ctx: &RunCtx,
    loaded: &mut Loaded,
    inputs: &[Tensor],
    oracle: &Oracle,
    secs: f64,
) -> Res<(Vec<Sample>, Vec<f64>, PhaseCount)> {
    let mut lat_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut phase = PhaseCount {
        name: "closed_loop".into(),
        valid: true,
        ..PhaseCount::default()
    };
    let begin = Instant::now();
    let end = begin + Duration::from_secs_f64(secs);
    let mut last_done: Option<Instant> = None;
    let mut i = 0usize;
    // At least two samples, so short smoke runs still yield a spread.
    while Instant::now() < end || lat_ms.len() < 2 {
        let idx = i % inputs.len();
        let t0 = Instant::now();
        if let Some(done) = last_done {
            gaps_ms.push((t0 - done).as_secs_f64() * 1e3);
        }
        phase.sent += 1;
        match loaded.model.try_infer(&mut loaded.ctx, &inputs[idx]) {
            Ok(logits) => {
                let t1 = Instant::now();
                lat_ms.push(((t0 - begin).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e3));
                phase.succeeded += 1;
                ctx.verifier.record(oracle.matches(idx, &logits));
            }
            Err(_) => phase.failed += 1,
        }
        last_done = Some(Instant::now());
        i += 1;
    }
    Ok((lat_ms, gaps_ms, phase))
}

/// Inferences within [`LIMIT_MS`] per second of loop time in each
/// [`WINDOW_S`] window, and the median over windows. A call holds the loop
/// from its start to the next call's start (the last one, for its latency).
fn goodput_rps(lat: &[Sample]) -> f64 {
    // (good inferences, seconds held) per window.
    let mut windows: Vec<(f64, f64)> = Vec::new();
    for (k, &(at_s, ms)) in lat.iter().enumerate() {
        let held_s = lat.get(k + 1).map_or(ms / 1e3, |next| next.0 - at_s);
        let i = (at_s / WINDOW_S) as usize;
        if windows.len() <= i {
            windows.resize(i + 1, (0.0, 0.0));
        }
        windows[i].0 += f64::from(u8::from(ms <= LIMIT_MS));
        windows[i].1 += held_s;
    }
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| w.1 > 0.0)
        .map(|w| w.0 / w.1)
        .collect();
    median(&per)
}

/// What the profiled loop measured.
struct Profiled {
    /// Wall time of each `try_infer_profiled` call.
    totals_ms: Vec<Sample>,
    /// Mean time per operator, in execution order, ms.
    ops: Vec<(String, f64)>,
    /// Mean of call time minus the sum of its op times, ms.
    between_ms: f64,
    /// Calls whose op times added up to more than the call's wall time.
    overcounted: u64,
    phase: PhaseCount,
}

/// The traced loop: `try_infer_profiled` per call, one root span per
/// inference and one child span per operator. The engine reports op
/// durations, not starts, so op spans are laid end to end from the call's
/// start; the remainder is `engine.between_ops_ms`.
fn profiled_loop(
    ctx: &RunCtx,
    loaded: &mut Loaded,
    inputs: &[Tensor],
    oracle: &Oracle,
    secs: f64,
    tracer: &Tracer,
) -> Res<Profiled> {
    let mut totals_ms = Vec::new();
    let mut op_sums: Vec<(String, f64)> = Vec::new();
    let mut between_sum = 0.0;
    let mut overcounted = 0;
    let mut phase = PhaseCount {
        name: "profiled_loop".into(),
        valid: true,
        ..PhaseCount::default()
    };
    let mut spans = SpanBuf::new(Some(tracer));
    let begin = Instant::now();
    let end = begin + Duration::from_secs_f64(secs);
    let mut i = 0usize;
    while Instant::now() < end || totals_ms.len() < 2 {
        let idx = i % inputs.len();
        let (request, root) = spans.request();
        phase.sent += 1;
        let t0 = Instant::now();
        let result = loaded
            .model
            .try_infer_profiled(&mut loaded.ctx, &inputs[idx]);
        let t1 = Instant::now();
        i += 1;
        let (logits, times) = match result {
            Ok(r) => r,
            Err(_) => {
                phase.failed += 1;
                continue;
            }
        };
        phase.succeeded += 1;
        ctx.verifier.record(oracle.matches(idx, &logits));
        let total_ms = (t1 - t0).as_secs_f64() * 1e3;
        if times.iter().map(|(_, d)| *d).sum::<Duration>() > t1 - t0 {
            overcounted += 1;
        }
        let mut op_ms_sum = 0.0;
        let mut at = t0;
        for (k, (name, d)) in times.iter().enumerate() {
            let ms = d.as_secs_f64() * 1e3;
            op_ms_sum += ms;
            match op_sums.get_mut(k) {
                Some(slot) => slot.1 += ms,
                None => op_sums.push((name.clone(), ms)),
            }
            spans.record(root, request, &format!("engine.op.{name}"), at, at + *d);
            at += *d;
        }
        spans.record_with_id(root, 0, request, "engine.try_infer_profiled", t0, t1);
        between_sum += total_ms - op_ms_sum;
        totals_ms.push(((t0 - begin).as_secs_f64(), total_ms));
    }
    let n = totals_ms.len().max(1) as f64;
    for slot in &mut op_sums {
        slot.1 /= n;
    }
    Ok(Profiled {
        totals_ms,
        ops: op_sums,
        between_ms: between_sum / n,
        overcounted,
        phase,
    })
}

/// Runs the workload. Untraced: the end-to-end metrics. Traced: an
/// untraced half and a profiled half, giving the per-operator split, the
/// set-up split and the tracing overhead.
pub fn run(ctx: &RunCtx, secs: f64, trace: bool, setup_reps: usize) -> Res<Report> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(ctx.nproc)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    let gen = Generated::new(Net::Vgg16, ctx.seed, INPUTS, &ctx.out_dir)?;
    let oracle = {
        let (spec, weights) = load_model(&gen.path)?;
        let model = CompiledModel::try_compile(&spec, &weights)?;
        drop(weights);
        ctx.record_tiers("vgg16", &model);
        let mut oracle = Oracle::compute(&model, &gen.inputs)?;
        if ctx.corrupt_oracle {
            oracle.corrupt();
        }
        oracle
    };

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..setup_reps.max(1) {
        // Drop the previous engine first, so every repetition starts from
        // the same memory state.
        drop(loaded.take());
        let l = load(ctx, &gen, &oracle, &pool)?;
        setups.push((l.setup_s, l.decode_s, l.compile_s));
        loaded = Some(l);
    }
    let mut loaded = loaded.ok_or("no set-up ran")?;
    let setup_s = iq_mean(&setups.iter().map(|s| s.0).collect::<Vec<_>>());

    // Warm the caches and the pool once before timing.
    pool.install(|| loaded.model.try_infer(&mut loaded.ctx, &gen.inputs[0]))?;

    let mut report = Report::default();
    let m = &mut report.metrics;
    if !trace {
        let (lat, _, phase) =
            pool.install(|| closed_loop(ctx, &mut loaded, &gen.inputs, &oracle, secs))?;
        let rss = rss_mb();
        m.set("setup_s", setup_s, "s");
        m.set("rss_mb", rss, "MB");
        m.set(
            "latency_p50_ms",
            windowed_quantile(&lat, WINDOW_S, 0.50),
            "ms",
        );
        m.set(
            "latency_p90_ms",
            windowed_quantile(&lat, WINDOW_S, 0.90),
            "ms",
        );
        m.set("goodput_rps", goodput_rps(&lat), "1/s");
        report.phases.push(phase);
        return Ok(report);
    }

    let (untraced, gaps, phase_u) =
        pool.install(|| closed_loop(ctx, &mut loaded, &gen.inputs, &oracle, secs / 2.0))?;
    let tracer = Tracer::new();
    let Profiled {
        totals_ms: traced,
        ops,
        between_ms: between,
        overcounted,
        phase: phase_t,
    } = pool
        .install(|| profiled_loop(ctx, &mut loaded, &gen.inputs, &oracle, secs / 2.0, &tracer))?;
    let descs = loaded.model.op_descriptors();
    let peak_gops = roofline::current().peak_gops;
    let mut seen = std::collections::BTreeSet::new();
    for (name, ms) in &ops {
        if !seen.insert(name.clone()) {
            return Err(format!("operator name `{name}` is not unique").into());
        }
        m.set(format!("engine.op.{name}.ms"), *ms, "ms");
        if let Some(d) = descs
            .iter()
            .find(|d| &d.name == name && d.kind == OpKind::Conv)
        {
            let gops = d.cost.bit_ops as f64 / (ms * 1e6);
            m.set(format!("engine.op.{name}.gops"), gops, "GOPS");
            m.set(
                format!("engine.op.{name}.pct_peak"),
                100.0 * gops / peak_gops,
                "%",
            );
        }
    }
    let infer_traced_ms = mean(&traced.iter().map(|s| s.1).collect::<Vec<_>>());
    let untraced_p50 = windowed_quantile(&untraced, WINDOW_S, 0.5);
    m.set("engine.between_ops_ms", between, "ms");
    m.set("engine.infer_traced_ms", infer_traced_ms, "ms");
    m.set("engine.infer_untraced_p50_ms", untraced_p50, "ms");
    m.set(
        "model_io.decode_s",
        median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        "s",
    );
    m.set(
        "engine.compile_s",
        median(&setups.iter().map(|s| s.2).collect::<Vec<_>>()),
        "s",
    );
    m.set("bench.gen_lag_p99_ms", quantile(&gaps, 0.99), "ms");
    m.set(
        "trace.overhead_pct",
        100.0 * (windowed_quantile(&traced, WINDOW_S, 0.5) - untraced_p50) / untraced_p50,
        "%",
    );
    let op_sum: f64 = ops.iter().map(|o| o.1).sum();
    eprintln!(
        "vgg16_b1 traced split ({} profiled inferences):",
        traced.len()
    );
    for (name, ms) in &ops {
        eprintln!("  {name:<16} {ms:>10.3} ms");
    }
    eprintln!("  {:<16} {between:>10.3} ms", "between ops");
    eprintln!(
        "  sum {:.3} ms = traced inference {infer_traced_ms:.3} ms ({:.3}% between ops); untraced latency_p50_ms {untraced_p50:.3}",
        op_sum + between,
        100.0 * between / infer_traced_ms
    );
    // Between-ops is the remainder of each call, so the sum holds by
    // definition. What can fail is the engine's side of it: op times that
    // add up to more than the call they ran in, or a remainder so large
    // that the op times no longer account for the call.
    if overcounted > 0 {
        return Err(format!(
            "in {overcounted} profiled calls the op times add up to more than the call"
        )
        .into());
    }
    if between > MAX_BETWEEN_SHARE * infer_traced_ms {
        return Err(format!(
            "{between:.3} ms of a {infer_traced_ms:.3} ms profiled inference falls between \
             operators, more than {}%",
            100.0 * MAX_BETWEEN_SHARE
        )
        .into());
    }
    report.phases.push(phase_u);
    report.phases.push(phase_t);
    ctx.write_trace("vgg16_b1", &tracer)?;
    Ok(report)
}
