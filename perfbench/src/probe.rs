//! Engine timings on the small models for the traced run: serial
//! `try_infer` and the per-item cost of a `try_infer_batch` of the serving
//! runtime's `max_batch`, the two paths the served workloads run.

use std::time::Instant;

use bitflow_graph::{load_model, CompiledModel};
use bitflow_serve::ServerConfig;

use crate::models::{Generated, Net, Oracle};
use crate::report::Metrics;
use crate::stats::median;
use crate::{Res, RunCtx};

/// Serial calls and batch calls timed per model.
const SMALL_CALLS: (usize, usize) = (2000, 300);
const TIERED_CALLS: (usize, usize) = (200, 30);

pub fn small_engine(ctx: &RunCtx) -> Res<Metrics> {
    let max_batch = ServerConfig::default().max_batch;
    let mut m = Metrics::default();
    for (net, (serial_calls, batch_calls)) in
        [(Net::Small, SMALL_CALLS), (Net::Tiered, TIERED_CALLS)]
    {
        let gen = Generated::new(net, ctx.seed, max_batch, &ctx.out_dir)?;
        let (spec, weights) = load_model(&gen.path)?;
        let model = CompiledModel::try_compile(&spec, &weights)?;
        let mut oracle = Oracle::compute(&model, &gen.inputs)?;
        if ctx.corrupt_oracle {
            oracle.corrupt();
        }

        let mut ictx = model.try_new_context()?;
        let mut serial_us = Vec::with_capacity(serial_calls);
        for i in 0..serial_calls {
            let idx = i % gen.inputs.len();
            let t0 = Instant::now();
            let logits = model.try_infer(&mut ictx, &gen.inputs[idx])?;
            serial_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ctx.verifier.record(oracle.matches(idx, &logits));
        }

        let mut item_us = Vec::with_capacity(batch_calls);
        for _ in 0..batch_calls {
            let t0 = Instant::now();
            let results = model.try_infer_batch(&gen.inputs);
            item_us.push(t0.elapsed().as_secs_f64() * 1e6 / gen.inputs.len() as f64);
            for (idx, r) in results.iter().enumerate() {
                let ok = matches!(r, Ok(logits) if oracle.matches(idx, logits));
                ctx.verifier.record(ok);
            }
        }
        m.set(
            format!("engine.infer_us.{}", net.tag()),
            median(&serial_us),
            "us",
        );
        m.set(
            format!("engine.batch_item_us.{}", net.tag()),
            median(&item_us),
            "us",
        );
    }
    Ok(m)
}
