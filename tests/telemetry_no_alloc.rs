//! Allocation guard for the telemetry hot path.
//!
//! The serving contract is that an untraced request performs exactly one
//! heap allocation — the returned logits vector — through `try_infer` and
//! through the serving call `try_serve` with a live cancel token and a tag,
//! and that enabling telemetry adds **zero** further allocations: metric
//! recording is all relaxed atomics, and op spans are built only for a
//! request that carries a trace. A counting global allocator pins these
//! facts so an accidental `Vec`/`String`/boxing on the recorded path fails
//! loudly.

use bitflow_graph::models::small_cnn;
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::{CancelToken, CompiledModel, InferRequest};
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    // const-init so reading the counter never itself allocates.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn bump() {
        COUNTING.with(|on| {
            if on.get() {
                on.set(false);
                let n = ALLOC_COUNT.with(|c| {
                    c.set(c.get() + 1);
                    c.get()
                });
                if n >= 1 && std::env::var_os("ALLOC_TRACE").is_some() {
                    eprintln!(
                        "--- alloc #{n} ---\n{}",
                        std::backtrace::Backtrace::force_capture()
                    );
                }
                on.set(true);
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        Self::bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        Self::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        Self::bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled on this thread and returns how
/// many heap allocations it performed.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOC_COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let n = ALLOC_COUNT.with(|c| c.get());
    (n, out)
}

/// The engine entry point a measured request goes through.
#[derive(Clone, Copy)]
enum Call {
    /// `try_infer`.
    Infer,
    /// `try_serve` with a live cancel token (deadline armed) and a tag.
    Serve,
}

fn infer_alloc_count(enable_telemetry: bool, call: Call) -> u64 {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(21);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = CompiledModel::try_compile(&spec, &weights).expect("compile");
    if enable_telemetry {
        model.enable_telemetry();
    }
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let mut ctx = model.new_context();
    let cancel = CancelToken::with_budget(Duration::from_secs(600));
    let request = InferRequest {
        input: &input,
        cancel: &cancel,
        tag: 7,
        trace: None,
    };
    let mut run = || match call {
        Call::Infer => model.try_infer(&mut ctx, &input),
        Call::Serve => model.try_serve(&mut ctx, &request),
    };
    // Warm-up: first call may fault in lazily-initialized state.
    let warm = run().expect("warm-up");
    let (n, out) = count_allocs(|| run().expect("measured"));
    assert_eq!(out, warm, "warm-up and measured runs must agree");
    n
}

#[test]
fn try_infer_allocates_exactly_once_without_telemetry() {
    // The single allocation is the returned logits vector.
    assert_eq!(infer_alloc_count(false, Call::Infer), 1);
}

#[test]
fn enabled_telemetry_adds_no_allocations() {
    // Recording metrics must not add a single heap allocation over the
    // bare path.
    assert_eq!(infer_alloc_count(true, Call::Infer), 1);
}

#[test]
fn try_serve_allocates_exactly_once() {
    // Cancel checks, the tag guard and the panic backstop are all
    // allocation-free, with telemetry off and on.
    assert_eq!(infer_alloc_count(false, Call::Serve), 1);
    assert_eq!(infer_alloc_count(true, Call::Serve), 1);
}
