//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vgg16_b1 --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Workloads: `vgg16_b1`, `mixed_serve` (see README.md). A traced run
//! also runs the `small_http` probe for the wire and in-process round trip.
//! Models and inputs are generated from `--seed`; every response is checked
//! bit-exact against serial `try_infer` oracle logits. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer metrics, as the last
//! line of standard output. The run record (host, kernel tiers, fused
//! convs, per-phase request accounting) goes to standard error and to
//! `perfbench/out/`. `--corrupt-oracle` flips one oracle bit, which must
//! fail the run.

mod http;
mod mixed;
mod models;
mod probe;
mod report;
mod served;
mod small_http;
mod stats;
mod trace;
mod vgg;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

use bitflow_graph::spec::LayerSpec;
use bitflow_graph::CompiledModel;
use bitflow_simd::VectorScheduler;
use bitflow_telemetry::roofline;

use report::{json_number, json_str, result_json, Report, Verifier};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "usage: perfbench --workload <vgg16_b1|mixed_serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--corrupt-oracle]";

/// Environment variables that change what the program does. `try_compile`
/// reads `BITFLOW_FUSE`, so a stray variable would measure another program.
const ALTERING_ENV: [&str; 6] = [
    "BITFLOW_FUSE",
    "BITFLOW_CHAOS",
    "BITFLOW_TRACE",
    "BITFLOW_SERVE_",
    "BITFLOW_MEM_",
    "BITFLOW_NET_",
];

/// Set-up repetitions per run; the interquartile mean is reported.
const VGG_SETUP_REPS: usize = 3;
const SERVED_SETUP_REPS: usize = 31;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Vgg16B1,
    MixedServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "vgg16_b1" => Some(Self::Vgg16B1),
            "mixed_serve" => Some(Self::MixedServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Vgg16B1 => "vgg16_b1",
            Self::MixedServe => "mixed_serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_oracle: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut corrupt_oracle = false;
        while let Some(flag) = it.next() {
            if flag == "--corrupt-oracle" {
                corrupt_oracle = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds out of range: {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            corrupt_oracle,
        })
    }
}

/// What every workload shares: the seed, the host's parallelism, where
/// files go, the oracle verdicts, and the run record.
pub struct RunCtx {
    pub seed: u64,
    pub nproc: usize,
    pub out_dir: PathBuf,
    pub corrupt_oracle: bool,
    pub verifier: Verifier,
    /// JSON members describing each compiled model (kernel tiers, fusion).
    models: Mutex<Vec<String>>,
}

impl RunCtx {
    /// Records the §III-B kernel tier `VectorScheduler::select` gives each
    /// conv of `model`, and the convs whose sign epilogue fused.
    pub fn record_tiers(&self, tag: &str, model: &CompiledModel) {
        let spec = model.spec();
        let shapes = spec.infer_shapes();
        let scheduler = VectorScheduler::new();
        let tiers: Vec<String> = spec
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, LayerSpec::Conv { .. }))
            .map(|(i, l)| {
                let level = scheduler.select(spec.input_width(i, &shapes)).level;
                format!(
                    "{}: {}",
                    json_str(l.name()),
                    json_str(&format!("{level:?}"))
                )
            })
            .collect();
        let fused: Vec<String> = model
            .fused_conv_names()
            .iter()
            .map(|n| json_str(n))
            .collect();
        let entry = format!(
            "{}: {{\"tiers\": {{{}}}, \"fused\": [{}]}}",
            json_str(tag),
            tiers.join(", "),
            fused.join(", ")
        );
        let mut models = self.models.lock().expect("run record lock");
        if !models.contains(&entry) {
            models.push(entry);
        }
    }

    /// Writes a traced phase's spans to `out/trace-<workload>-s<seed>.jsonl`.
    pub fn write_trace(&self, workload: &str, tracer: &trace::Tracer) -> Res<()> {
        let path = self
            .out_dir
            .join(format!("trace-{workload}-s{}.jsonl", self.seed));
        tracer.write_jsonl(&path)?;
        eprintln!("{} spans written to {}", tracer.len(), path.display());
        Ok(())
    }
}

/// Resident set size of this process, MB, from `/proc/self/status`, read
/// after the allocator has returned its free memory to the system. How
/// much freed memory glibc keeps otherwise follows its dynamic trim
/// threshold: one `vgg16_b1` binary read 95 MB or 107 MB depending only on
/// how it was launched. Trimmed, the figure is the memory the program
/// holds, holes between live blocks included.
pub fn rss_mb() -> f64 {
    release_free_memory();
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and may run at any time; it
    // only hands free heap pages back to the system.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

fn altering_env_var() -> Option<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .find(|k| ALTERING_ENV.iter().any(|p| k.starts_with(p)))
}

/// Runs one workload; in a traced run, the layers the workload does not
/// exercise itself are filled from short probes of the others, so every
/// traced run prints every per-layer metric.
fn run(args: &Args, ctx: &RunCtx) -> Res<Report> {
    let secs = args.seconds;
    let mut report = match args.workload {
        Workload::Vgg16B1 => vgg::run(ctx, secs, args.trace, VGG_SETUP_REPS)?,
        Workload::MixedServe => mixed::run(ctx, secs, args.trace, SERVED_SETUP_REPS)?,
    };
    if !args.trace {
        return Ok(report);
    }
    let own = report.totals();
    report.metrics.set(
        "error_rate",
        (own.failed + own.refused) as f64 / own.sent.max(1) as f64,
        "ratio",
    );
    report.metrics.fill_from(&probe::small_engine(ctx)?);
    let mut probes = vec![small_http::probe(ctx)?];
    if args.workload != Workload::Vgg16B1 {
        probes.push(vgg::run(ctx, 2.0, true, 1)?);
    }
    for p in probes {
        report.metrics.fill_from(&p.metrics);
        report.phases.extend(p.phases.into_iter().map(|mut phase| {
            phase.name = format!("probe:{}", phase.name);
            phase
        }));
    }
    Ok(report)
}

fn run_record(args: &Args, ctx: &RunCtx, report: &Report) -> String {
    let host = roofline::current();
    let phases: Vec<String> = report
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"refused\": {}, \"gen_lag_p99_ms\": {}, \"valid\": {}}}",
                json_str(&p.name),
                p.sent,
                p.succeeded,
                p.failed,
                p.refused,
                json_number(p.gen_lag_p99_ms),
                p.valid
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"features\": {}, \"mhz\": {}, \"peak_gops\": {}}}, \"models\": {{{}}}, \"phases\": [{}], \"verified\": {}, \"mismatched\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        json_number(args.seconds),
        args.trace,
        ctx.nproc,
        json_str(&host.machine.features.to_string()),
        json_number(host.machine.freq_ghz * 1e3),
        json_number(host.peak_gops),
        ctx.models.lock().expect("run record lock").join(", "),
        phases.join(", "),
        ctx.verifier.checked(),
        ctx.verifier.mismatched()
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = altering_env_var() {
        eprintln!(
            "perfbench: refusing to run with {var} set: it changes the program being measured"
        );
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let ctx = RunCtx {
        seed: args.seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir,
        corrupt_oracle: args.corrupt_oracle,
        verifier: Verifier::default(),
        models: Mutex::new(Vec::new()),
    };
    let report = match run(&args, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let record = run_record(&args, &ctx, &report);
    eprintln!("run record: {record}");
    let record_path = ctx.out_dir.join(format!(
        "record-{}-s{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", record_path.display());
    }
    for p in report.phases.iter().filter(|p| !p.valid) {
        eprintln!(
            "perfbench: phase {} INVALID: generator lag p99 {:.3} ms set the schedule",
            p.name, p.gen_lag_p99_ms
        );
    }
    let correct = ctx.verifier.mismatched() == 0 && ctx.verifier.checked() > 0;
    if !correct {
        eprintln!(
            "perfbench: {} of {} responses differ from the oracle",
            ctx.verifier.mismatched(),
            ctx.verifier.checked()
        );
    }
    let totals = report.totals();
    println!(
        "{}",
        result_json(
            correct,
            totals.sent.max(1),
            totals.failed + totals.refused,
            &report.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
