//! The BitFlow inference engine.
//!
//! [`CompiledModel::try_compile`] turns a [`NetworkSpec`] +
//! [`NetworkWeights`] into a ready-to-run binary engine, performing the
//! paper's network-level work up front:
//!
//! * weights → [`BitFilterBank`]/[`BinaryFcWeights`] (binarize + pack +
//!   fused transpose, once);
//! * batch-norm → per-channel sign thresholds (folded);
//! * every activation/scratch buffer *planned* (sized at the padded
//!   geometry its consumer requires — zero-cost padding);
//! * per-layer SIMD kernels chosen by the vector execution scheduler: each
//!   conv's tier timed on a sample of its own geometry
//!   ([`VectorScheduler::tune_conv`]), pooling on the §III-B channel rule,
//!   FC on the widest tier.
//!
//! The compiled model is **immutable and `Send + Sync`**: one
//! `Arc<CompiledModel>` serves any number of request threads. The mutable
//! half — the pre-allocated activation/scratch buffers the plan describes —
//! lives in a per-session [`InferenceContext`] ([`CompiledModel::new_context`]).
//!
//! Every inference walks the op chain through one loop, reached by five
//! calls: [`CompiledModel::try_infer`] (allocation-free apart from the
//! returned logits), [`CompiledModel::try_infer_profiled`] (plus per-op
//! wall times), [`CompiledModel::try_infer_batch`] (a batch fanned out over
//! the installed rayon pool, one context per worker chunk, bit-identical to
//! running the images serially), and the two serving calls
//! [`CompiledModel::try_serve`] / [`CompiledModel::try_serve_batch`], whose
//! [`InferRequest`]s carry a cancel token, a fault-hook tag and a request
//! trace.
//!
//! [`FloatNetwork`] compiles the same spec into the full-precision baseline
//! engine (im2col conv + sgemm, float max-pool, sgemm FC).

use crate::cancel::CancelToken;
use crate::error::{BitFlowError, InputGeometry, SlotKind, SlotTypeError};
use crate::plan::{ExecPlan, PlanOptions};
use crate::spec::{LayerIo, LayerSpec, NetworkSpec};
use crate::weights::{LayerWeights, NetworkWeights};
use bitflow_gemm::pack::PackedMatrix;
use bitflow_gemm::sgemm::transpose;
use bitflow_ops::binary::{
    binarize_pack_into, binarize_threshold_into, binary_max_pool_into, pack_signed_dots_into,
    pressed_conv_into, pressed_conv_parallel_into, pressed_conv_sign_parallel_into,
    pressed_conv_sign_scratch_into, BinaryFcWeights, SignThresholds,
};
use bitflow_ops::float::{conv_im2col_parallel, fc_parallel, max_pool_parallel, relu};
use bitflow_simd::kernels::SimdLevel;
use bitflow_simd::scheduler::{ConvShape, ConvTuning, TierReason, VectorScheduler};
use bitflow_telemetry::{
    MetricsSnapshot, ModelTelemetry, OpCost, OpDescriptor, OpKind, OpSpan, TileStats, TraceBuilder,
};
use bitflow_tensor::{BitFilterBank, BitTensor, FilterShape, Layout, Shape, Tensor};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A fault-injection hook called at every operator boundary with the
/// operator's index, name, and the request tag of the inference run on
/// this thread ([`UNTAGGED`] outside any tagged run). Installed per model
/// by the chaos layer (`BITFLOW_CHAOS` via `bitflow-serve`); the hook may
/// sleep (slow-op) or panic (panic-op). The tag travels through
/// [`InferTagGuard`], so it reaches hooks even on rayon workers inside
/// [`CompiledModel::try_serve_batch`], where a serve-side
/// thread-local would not. Disabled cost: one `OnceLock::get` per operator.
pub type FaultHook = Arc<dyn Fn(usize, &str, u64) + Send + Sync>;

/// The request tag reported to a [`FaultHook`] when no tagged inference is
/// running on the current thread.
pub const UNTAGGED: u64 = u64::MAX;

thread_local! {
    /// Index of the operator currently executing on this thread, or
    /// `usize::MAX` when none is. Lets the `catch_unwind` backstops name
    /// the operator that panicked without any hot-path allocation.
    static CURRENT_OP: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Request tag of the inference run on this thread ([`UNTAGGED`] when
    /// none), maintained by [`InferTagGuard`] and handed to fault hooks.
    static CURRENT_TAG: Cell<u64> = const { Cell::new(UNTAGGED) };
    /// Request-scoped [`TraceBuilder`] active on this thread (none when
    /// tracing is off), maintained by [`TraceScopeGuard`]. Like the tag,
    /// it travels with each [`InferRequest`] so operator spans land in the
    /// right request even on rayon workers.
    static CURRENT_TRACE: RefCell<Option<Arc<TraceBuilder>>> = const { RefCell::new(None) };
}

/// RAII guard that tags every operator executed on this thread with a
/// request id until dropped (restoring the previous tag, so nested scopes
/// compose). Fault hooks receive the tag, letting per-request chaos
/// decisions survive the hop onto rayon workers.
pub struct InferTagGuard {
    prev: u64,
}

/// Tags the current thread's inference with `tag` for the guard's
/// lifetime.
pub fn enter_infer_tag(tag: u64) -> InferTagGuard {
    let prev = CURRENT_TAG.with(|c| c.replace(tag));
    InferTagGuard { prev }
}

impl Drop for InferTagGuard {
    fn drop(&mut self) {
        CURRENT_TAG.with(|c| c.set(self.prev));
    }
}

/// RAII guard that scopes a request's [`TraceBuilder`] to the current
/// thread (restoring the previous one on drop, so nested scopes compose).
/// While a scope is active, every operator the engine runs on this thread
/// pushes an [`OpSpan`] into the builder.
pub struct TraceScopeGuard {
    prev: Option<Arc<TraceBuilder>>,
}

/// Makes `trace` the current thread's request trace for the guard's
/// lifetime.
pub fn enter_trace_scope(trace: Arc<TraceBuilder>) -> TraceScopeGuard {
    let prev = CURRENT_TRACE.with(|c| c.replace(Some(trace)));
    TraceScopeGuard { prev }
}

/// The request trace scoped to this thread, if any. Cost when tracing is
/// off: one thread-local borrow and an `Option` clone of `None`.
#[must_use]
pub fn current_trace() -> Option<Arc<TraceBuilder>> {
    CURRENT_TRACE.with(|c| c.borrow().clone())
}

impl Drop for TraceScopeGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// A pre-allocated runtime buffer.
enum Slot {
    /// Pressed activation map (possibly with padding margins).
    Bit(BitTensor),
    /// Float scratch map (conv integer counts before re-binarization).
    Map(Tensor),
    /// Float vector (FC counts / logits).
    Vec(Vec<f32>),
    /// Packed activation vector between FC layers.
    Packed(PackedMatrix),
}

impl Slot {
    /// What this slot holds (diagnostic face of the enum).
    fn kind(&self) -> SlotKind {
        match self {
            Slot::Bit(_) => SlotKind::Bit,
            Slot::Map(_) => SlotKind::Map,
            Slot::Vec(_) => SlotKind::Vec,
            Slot::Packed(_) => SlotKind::Packed,
        }
    }
    // The typed accessors: a mismatch yields the actual kind, and the
    // operator dispatch turns it into a `SlotTypeError` carrying the layer
    // name — one diagnosable path instead of eight anonymous panics.
    fn bit(&self) -> Result<&BitTensor, SlotKind> {
        match self {
            Slot::Bit(t) => Ok(t),
            other => Err(other.kind()),
        }
    }
    fn bit_mut(&mut self) -> Result<&mut BitTensor, SlotKind> {
        match self {
            Slot::Bit(t) => Ok(t),
            other => Err(other.kind()),
        }
    }
    fn map(&self) -> Result<&Tensor, SlotKind> {
        match self {
            Slot::Map(t) => Ok(t),
            other => Err(other.kind()),
        }
    }
    fn map_mut(&mut self) -> Result<&mut Tensor, SlotKind> {
        match self {
            Slot::Map(t) => Ok(t),
            other => Err(other.kind()),
        }
    }
    fn vec(&self) -> Result<&Vec<f32>, SlotKind> {
        match self {
            Slot::Vec(v) => Ok(v),
            other => Err(other.kind()),
        }
    }
    fn vec_mut(&mut self) -> Result<&mut Vec<f32>, SlotKind> {
        match self {
            Slot::Vec(v) => Ok(v),
            other => Err(other.kind()),
        }
    }
    fn packed(&self) -> Result<&PackedMatrix, SlotKind> {
        match self {
            Slot::Packed(p) => Ok(p),
            other => Err(other.kind()),
        }
    }
    fn packed_mut(&mut self) -> Result<&mut PackedMatrix, SlotKind> {
        match self {
            Slot::Packed(p) => Ok(p),
            other => Err(other.kind()),
        }
    }
    /// Approximate buffer size in bytes (for the memory plan).
    fn bytes(&self) -> usize {
        match self {
            Slot::Bit(t) => t.words().len() * 8,
            Slot::Map(t) => t.data().len() * 4,
            Slot::Vec(v) => v.len() * 4,
            Slot::Packed(p) => p.bytes(),
        }
    }
}

/// Logits plus the per-operator wall-clock times of the run that produced
/// them.
pub type ProfiledLogits = (Vec<f32>, Vec<(String, Duration)>);

/// One serving request for [`CompiledModel::try_serve`] and
/// [`CompiledModel::try_serve_batch`]: the input tensor, the request's own
/// cancel token, the tag fault hooks see while it runs, and the trace its
/// operator spans go to.
pub struct InferRequest<'a> {
    /// Input image.
    pub input: &'a Tensor,
    /// Cooperative cancellation for this request only.
    pub cancel: &'a CancelToken,
    /// Request tag reported to the installed [`FaultHook`]. [`UNTAGGED`]
    /// leaves the calling thread's tag as it is.
    pub tag: u64,
    /// Request trace to collect this request's operator spans into. `None`
    /// leaves the calling thread's trace scope as it is. Entered via
    /// [`enter_trace_scope`] on whatever rayon worker runs the request.
    pub trace: Option<Arc<TraceBuilder>>,
}

/// Attaches layer context to a slot-kind mismatch, making it a
/// [`BitFlowError::SlotType`].
fn slot_type(layer: &str, expected: SlotKind) -> impl FnOnce(SlotKind) -> BitFlowError + '_ {
    move |actual| {
        BitFlowError::SlotType(SlotTypeError {
            layer: layer.to_string(),
            expected,
            actual,
        })
    }
}

/// The compile-time description of one runtime buffer: the model keeps the
/// *plan* (immutable, shareable), each [`InferenceContext`] allocates the
/// actual [`Slot`]s from it.
#[derive(Clone, Copy, Debug)]
enum SlotSpec {
    /// Pressed activation map of the given padded geometry.
    Bit { h: usize, w: usize, c: usize },
    /// Float scratch map.
    Map { h: usize, w: usize, c: usize },
    /// Float vector.
    Vec { len: usize },
    /// Single-row packed vector of `n` logical bits.
    Packed { n: usize },
}

impl SlotSpec {
    fn allocate(&self) -> Slot {
        match *self {
            SlotSpec::Bit { h, w, c } => Slot::Bit(BitTensor::zeros(h, w, c)),
            SlotSpec::Map { h, w, c } => {
                Slot::Map(Tensor::zeros(Shape::hwc(h, w, c), Layout::Nhwc))
            }
            SlotSpec::Vec { len } => Slot::Vec(vec![0.0f32; len]),
            SlotSpec::Packed { n } => Slot::Packed(PackedMatrix::zeros(1, n)),
        }
    }
}

/// Source of an FC layer's input.
#[derive(Clone, Copy)]
enum FcIn {
    /// Flattened pressed map in the given slot.
    Bit(usize),
    /// Packed vector from a previous FC.
    Packed(usize),
}

/// One compiled runtime operation.
enum RtOp {
    /// Float input map → pressed (padded) input buffer.
    BinarizeInput { out: usize, pad: usize },
    /// Fused PressedConv + integer-threshold sign epilogue → pressed
    /// (padded) output. The `scratch` slot is a `Vec` of `k` floats (one
    /// conv window of dots) — the h·w·k float count map never exists.
    ConvSign {
        name: String,
        bank: BitFilterBank,
        st: SignThresholds,
        stride: usize,
        level: SimdLevel,
        why: TierReason,
        input: usize,
        scratch: usize,
        out: usize,
        out_pad: usize,
    },
    /// Unfused conv: PressedConv → float count map (an unfused plan or a
    /// float-tapped chain). A [`RtOp::BnSign`] consumes the map.
    ConvFloat {
        name: String,
        bank: BitFilterBank,
        stride: usize,
        level: SimdLevel,
        why: TierReason,
        input: usize,
        out: usize,
    },
    /// Standalone folded-BN threshold + sign + pack over a float count map
    /// (the unfused second pass).
    BnSign {
        name: String,
        thresholds: Vec<f32>,
        flip: Vec<bool>,
        input: usize,
        out: usize,
        out_pad: usize,
    },
    /// Binary max-pool → pressed (padded) output.
    Pool {
        name: String,
        kh: usize,
        kw: usize,
        stride: usize,
        level: SimdLevel,
        input: usize,
        out: usize,
        out_pad: usize,
    },
    /// Repack a pressed map into a flat packed vector (flatten with a
    /// non-word-aligned channel count — the rare general path).
    Reflatten { input: usize, out: usize },
    /// Binary FC + folded BN + integer-threshold sign → packed vector.
    FcSign {
        name: String,
        weights: BinaryFcWeights,
        st: SignThresholds,
        level: SimdLevel,
        input: FcIn,
        scratch: usize,
        out: usize,
    },
    /// Final binary FC producing float logits.
    FcOut {
        name: String,
        weights: BinaryFcWeights,
        level: SimdLevel,
        input: FcIn,
        out: usize,
    },
}

impl RtOp {
    fn name(&self) -> &str {
        match self {
            RtOp::BinarizeInput { .. } => "binarize-input",
            RtOp::Reflatten { .. } => "flatten",
            RtOp::ConvSign { name, .. }
            | RtOp::ConvFloat { name, .. }
            | RtOp::BnSign { name, .. }
            | RtOp::Pool { name, .. }
            | RtOp::FcSign { name, .. }
            | RtOp::FcOut { name, .. } => name,
        }
    }

    /// The SIMD tier this op runs and why, for ops with a vector kernel.
    fn tier(&self) -> Option<(SimdLevel, TierReason)> {
        match self {
            RtOp::ConvSign { level, why, .. } | RtOp::ConvFloat { level, why, .. } => {
                Some((*level, why.clone()))
            }
            RtOp::Pool { level, .. } => Some((*level, TierReason::Paper)),
            RtOp::FcSign { level, .. } | RtOp::FcOut { level, .. } => {
                Some((*level, TierReason::Streaming))
            }
            RtOp::BinarizeInput { .. } | RtOp::BnSign { .. } | RtOp::Reflatten { .. } => None,
        }
    }
}

/// The immutable compiled binary inference engine: packed weights, folded
/// batch-norm thresholds, per-layer kernel choices, and the activation
/// buffer plan. `Send + Sync` by construction — share one instance across
/// request threads via `Arc`, giving each thread its own
/// [`InferenceContext`].
pub struct CompiledModel {
    spec: NetworkSpec,
    plan: ExecPlan,
    ops: Vec<RtOp>,
    slot_specs: Vec<SlotSpec>,
    logits_slot: usize,
    float_bytes: usize,
    packed_bytes: usize,
    /// Telemetry is opt-in per model: empty until
    /// [`CompiledModel::enable_telemetry`], after which every serving
    /// thread records into the shared handle. The disabled cost is one
    /// `OnceLock::get` pointer check per request.
    telemetry: OnceLock<Arc<ModelTelemetry>>,
    /// Fault-injection hook, empty in production. Same first-caller-wins
    /// `OnceLock` discipline as telemetry.
    fault_hook: OnceLock<FaultHook>,
}

// Compile-enforced: an `Arc<CompiledModel>` must be usable from any thread.
// If a future weight/op representation picks up interior mutability or raw
// pointers without the matching guarantees, this line stops the build.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<CompiledModel>();

/// The mutable half of an inference session: the pre-allocated
/// activation/scratch buffers one in-flight request needs. Cheap to create
/// (a handful of zeroed buffers, no weight work) and tied to the
/// [`CompiledModel`] that produced it — using it with a different model
/// panics on the first geometry mismatch.
pub struct InferenceContext {
    slots: Vec<Slot>,
    /// Use the multi-threaded operator variants (over the installed rayon
    /// pool) for this session. Results are bit-identical either way.
    pub parallel: bool,
}

impl InferenceContext {
    /// Total pre-allocated activation/scratch memory in bytes.
    pub fn activation_bytes(&self) -> usize {
        self.slots.iter().map(Slot::bytes).sum()
    }
}

impl CompiledModel {
    /// Compiles a spec + weights into a ready engine (paper: all
    /// "pre-processions to save run time cost" happen here), reporting
    /// every malformed spec, spec/weight disagreement, or unschedulable
    /// kernel as a typed [`BitFlowError`] instead of panicking. Runs
    /// [`NetworkSpec::validate`] and
    /// [`NetworkWeights::validate_against`] first, so the build below
    /// works on geometry-checked data only.
    pub fn try_compile(spec: &NetworkSpec, weights: &NetworkWeights) -> Result<Self, BitFlowError> {
        Self::try_compile_with(spec, weights, &PlanOptions::default())
    }

    /// [`CompiledModel::try_compile`] with explicit [`PlanOptions`] — the
    /// entry point for A/B and differential harnesses, e.g.
    /// [`PlanOptions::unfused`] as the oracle for the fused plan.
    pub fn try_compile_with(
        spec: &NetworkSpec,
        weights: &NetworkWeights,
        opts: &PlanOptions,
    ) -> Result<Self, BitFlowError> {
        let shapes = spec.validate()?;
        weights.validate_against(spec, &shapes)?;
        let plan = ExecPlan::build(spec, opts);
        let fused: std::collections::BTreeSet<&str> = plan.fused_convs().into_iter().collect();
        let scheduler = VectorScheduler::new();
        let mut ops = Vec::new();
        let mut slot_specs = Vec::new();

        // Input stage: binarize+pack the float input into a buffer padded
        // for the first layer.
        let in_pad = spec.layers[0].input_pad();
        slot_specs.push(SlotSpec::Bit {
            h: spec.input.h + 2 * in_pad,
            w: spec.input.w + 2 * in_pad,
            c: spec.input.c,
        });
        ops.push(RtOp::BinarizeInput {
            out: 0,
            pad: in_pad,
        });
        let mut cur = CurSlot::Bit(0);

        for (i, layer) in spec.layers.iter().enumerate() {
            let out_pad = spec.layers.get(i + 1).map_or(0, LayerSpec::input_pad);
            let (in_h, in_w, in_c) = match if i == 0 {
                LayerIo::Map {
                    h: spec.input.h,
                    w: spec.input.w,
                    c: spec.input.c,
                }
            } else {
                shapes[i - 1]
            } {
                LayerIo::Map { h, w, c } => (h, w, c),
                LayerIo::Vector { n } => (1, 1, n),
            };
            match (layer, &weights.layers[i]) {
                (LayerSpec::Conv { name, k, params }, LayerWeights::Conv { w, fshape, bn }) => {
                    debug_assert_eq!(*fshape, FilterShape::new(*k, params.kh, params.kw, in_c));
                    let bank = BitFilterBank::from_floats(w, *fshape);
                    let fold = bn.fold();
                    let (oh, ow) = match shapes[i] {
                        LayerIo::Map { h, w, .. } => (h, w),
                        _ => unreachable!(),
                    };
                    let input = cur.bit_slot();
                    let padded_w = match slot_specs[input] {
                        SlotSpec::Bit { w, .. } => w,
                        _ => unreachable!("conv input slot is pressed"),
                    };
                    let ConvTuning { level, why } = scheduler.tune_conv(
                        bank.filter_words_all(),
                        ConvShape {
                            k: *k,
                            kh: params.kh,
                            kw: params.kw,
                            c: in_c,
                            padded_w,
                            stride: params.stride,
                        },
                    )?;
                    let out = if fused.contains(name.as_str()) {
                        // Fused Conv→BN→Sign: the scratch is one window of
                        // dots (k floats); the sign epilogue compares the
                        // integer dot against the folded threshold and
                        // writes the output already pressed.
                        let st = SignThresholds::from_fold(&fold, params.kh * params.kw * in_c);
                        let scratch = slot_specs.len();
                        slot_specs.push(SlotSpec::Vec { len: *k });
                        let out = slot_specs.len();
                        slot_specs.push(SlotSpec::Bit {
                            h: oh + 2 * out_pad,
                            w: ow + 2 * out_pad,
                            c: *k,
                        });
                        ops.push(RtOp::ConvSign {
                            name: name.clone(),
                            bank,
                            st,
                            stride: params.stride,
                            level,
                            why,
                            input,
                            scratch,
                            out,
                            out_pad,
                        });
                        out
                    } else {
                        // Unfused reference dataflow: conv → float count
                        // map, then a separate BN+sign pass re-reads it.
                        let counts = slot_specs.len();
                        slot_specs.push(SlotSpec::Map {
                            h: oh,
                            w: ow,
                            c: *k,
                        });
                        let out = slot_specs.len();
                        slot_specs.push(SlotSpec::Bit {
                            h: oh + 2 * out_pad,
                            w: ow + 2 * out_pad,
                            c: *k,
                        });
                        ops.push(RtOp::ConvFloat {
                            name: name.clone(),
                            bank,
                            stride: params.stride,
                            level,
                            why,
                            input,
                            out: counts,
                        });
                        ops.push(RtOp::BnSign {
                            name: format!("{name}:bnsign"),
                            thresholds: fold.thresholds,
                            flip: fold.flip,
                            input: counts,
                            out,
                            out_pad,
                        });
                        out
                    };
                    cur = CurSlot::Bit(out);
                }
                (LayerSpec::Pool { name, params }, LayerWeights::Pool) => {
                    let (oh, ow, oc) = match shapes[i] {
                        LayerIo::Map { h, w, c } => (h, w, c),
                        _ => unreachable!(),
                    };
                    let _ = (in_h, in_w);
                    let out = slot_specs.len();
                    slot_specs.push(SlotSpec::Bit {
                        h: oh + 2 * out_pad,
                        w: ow + 2 * out_pad,
                        c: oc,
                    });
                    ops.push(RtOp::Pool {
                        name: name.clone(),
                        kh: params.kh,
                        kw: params.kw,
                        stride: params.stride,
                        level: scheduler.try_select(in_c)?.level,
                        input: cur.bit_slot(),
                        out,
                        out_pad,
                    });
                    cur = CurSlot::Bit(out);
                }
                (LayerSpec::Fc { name, k }, LayerWeights::Fc { w, n, k: wk, bn }) => {
                    debug_assert_eq!(k, wk, "fc width mismatch");
                    let fc_in = match cur {
                        CurSlot::Bit(slot) => {
                            let (bh, bw, bc) = match slot_specs[slot] {
                                SlotSpec::Bit { h, w, c } => (h, w, c),
                                _ => unreachable!("FC input slot is pressed"),
                            };
                            // Direct flatten works when pixels are
                            // word-tight (no press-tail gaps between
                            // pixels) and the buffer carries no padding.
                            let tight = bc % 64 == 0 || (bh == 1 && bw == 1);
                            debug_assert_eq!(bh * bw * bc, *n, "flatten width");
                            if tight {
                                FcIn::Bit(slot)
                            } else {
                                let flat = slot_specs.len();
                                slot_specs.push(SlotSpec::Packed { n: *n });
                                ops.push(RtOp::Reflatten {
                                    input: slot,
                                    out: flat,
                                });
                                FcIn::Packed(flat)
                            }
                        }
                        CurSlot::Packed(slot) => FcIn::Packed(slot),
                    };
                    let weights_packed = BinaryFcWeights::pack(w, *n, *k);
                    let level = scheduler.streaming_level();
                    let is_last = i + 1 == spec.layers.len();
                    if is_last {
                        let out = slot_specs.len();
                        slot_specs.push(SlotSpec::Vec { len: *k });
                        ops.push(RtOp::FcOut {
                            name: name.clone(),
                            weights: weights_packed,
                            level,
                            input: fc_in,
                            out,
                        });
                        cur = CurSlot::Packed(usize::MAX); // terminal
                    } else {
                        // The FC dots are integer-valued (n − 2·popcount),
                        // so the same popcount-domain epilogue applies with
                        // window width n.
                        let st = SignThresholds::from_fold(&bn.fold(), *n);
                        let scratch = slot_specs.len();
                        slot_specs.push(SlotSpec::Vec { len: *k });
                        let out = slot_specs.len();
                        slot_specs.push(SlotSpec::Packed { n: *k });
                        ops.push(RtOp::FcSign {
                            name: name.clone(),
                            weights: weights_packed,
                            st,
                            level,
                            input: fc_in,
                            scratch,
                            out,
                        });
                        cur = CurSlot::Packed(out);
                    }
                }
                // validate_against() already rejected kind disagreements.
                (l, _) => unreachable!("spec/weights mismatch at layer {}", l.name()),
            }
        }

        let logits_slot = slot_specs.len() - 1;
        Ok(Self {
            spec: spec.clone(),
            plan,
            ops,
            slot_specs,
            logits_slot,
            float_bytes: weights.float_bytes(),
            packed_bytes: weights.packed_bytes(),
            telemetry: OnceLock::new(),
            fault_hook: OnceLock::new(),
        })
    }

    /// The execution plan this engine compiled to — introspection for
    /// tests and tools asserting exactly which Conv→BN→Sign chains fused.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Names of convs whose sign epilogue fused, in execution order.
    pub fn fused_conv_names(&self) -> Vec<&str> {
        self.plan.fused_convs()
    }

    /// Allocates a fresh inference session: every activation/scratch buffer
    /// the plan describes, zeroed. One context per concurrent request.
    pub fn new_context(&self) -> InferenceContext {
        InferenceContext {
            slots: self.slot_specs.iter().map(SlotSpec::allocate).collect(),
            parallel: false,
        }
    }

    /// Fallible variant of [`CompiledModel::new_context`]: probes the
    /// allocator with `try_reserve` for every buffer the plan describes
    /// before materialising it, so a context the machine cannot afford
    /// comes back as [`BitFlowError::ResourceExhausted`] instead of an
    /// allocator abort. The probe is freed before the real allocation, so
    /// the transient overhead is one slot's bytes.
    pub fn try_new_context(&self) -> Result<InferenceContext, BitFlowError> {
        let mut slots: Vec<Slot> = Vec::new();
        slots
            .try_reserve_exact(self.slot_specs.len())
            .map_err(|_| BitFlowError::ResourceExhausted {
                what: "inference context",
                bytes: (self.slot_specs.len() * std::mem::size_of::<Slot>()) as u64,
            })?;
        for spec in &self.slot_specs {
            let bytes = slot_bytes(spec);
            let mut probe: Vec<u8> = Vec::new();
            probe
                .try_reserve_exact(bytes)
                .map_err(|_| BitFlowError::ResourceExhausted {
                    what: "inference context",
                    bytes: bytes as u64,
                })?;
            drop(probe);
            slots.push(spec.allocate());
        }
        Ok(InferenceContext {
            slots,
            parallel: false,
        })
    }

    /// The spec this engine was compiled from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Float model size in bytes (what a full-precision network ships).
    pub fn float_model_bytes(&self) -> usize {
        self.float_bytes
    }

    /// Packed model size in bytes (what this engine holds) — Table V.
    pub fn packed_model_bytes(&self) -> usize {
        self.packed_bytes
    }

    /// Activation/scratch bytes each [`InferenceContext`] pre-allocates.
    pub fn context_bytes(&self) -> usize {
        self.slot_specs.iter().map(slot_bytes).sum()
    }

    /// Enables per-operator telemetry and returns the shared handle.
    /// Idempotent: once enabled, later calls return the existing handle.
    pub fn enable_telemetry(&self) -> Arc<ModelTelemetry> {
        self.telemetry
            .get_or_init(|| Arc::new(ModelTelemetry::new(&self.spec.name, self.op_descriptors())))
            .clone()
    }

    /// The telemetry handle, if [`CompiledModel::enable_telemetry`] ran.
    pub fn telemetry(&self) -> Option<&Arc<ModelTelemetry>> {
        self.telemetry.get()
    }

    /// Point-in-time copy of every telemetry counter, or `None` while
    /// telemetry is disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.telemetry.get().map(|t| t.snapshot())
    }

    /// Builds the static per-operator cost model: for each runtime op, how
    /// many effective xor+popcount bit-operations one call performs, how
    /// many bytes it moves, (for GEMM-backed ops) the bgemm tile shape, and
    /// the SIMD tier it runs with the reason that tier was chosen.
    /// Pure geometry — computed once here so the serving hot path records
    /// nothing but latency. Public so roofline/regression gates can compare
    /// fused vs. unfused bytes-moved without enabling telemetry.
    pub fn op_descriptors(&self) -> Vec<OpDescriptor> {
        self.ops
            .iter()
            .map(|op| {
                let (kind, cost) = match op {
                    RtOp::BinarizeInput { out, .. } => (
                        OpKind::Binarize,
                        OpCost {
                            bit_ops: 0,
                            bytes_read: (self.spec.input.numel() * 4) as u64,
                            bytes_written: slot_bytes(&self.slot_specs[*out]) as u64,
                            tile: None,
                        },
                    ),
                    RtOp::ConvSign {
                        bank,
                        input,
                        out,
                        out_pad,
                        ..
                    } => {
                        let f = bank.shape();
                        let cw = bank.c_words();
                        let (oh, ow) = match self.slot_specs[*out] {
                            SlotSpec::Bit { h, w, .. } => (h - 2 * out_pad, w - 2 * out_pad),
                            _ => (0, 0),
                        };
                        // One output element = one binary dot over the
                        // kh·kw window of pressed words; every evaluated
                        // bit position costs one xor + one
                        // popcount-accumulate.
                        let window_bits = (f.kh * f.kw * cw * 64) as u64;
                        (
                            OpKind::Conv,
                            OpCost {
                                bit_ops: 2 * (oh * ow * f.k) as u64 * window_bits,
                                bytes_read: (slot_bytes(&self.slot_specs[*input])
                                    + f.k * f.kh * f.kw * cw * 8)
                                    as u64,
                                bytes_written: slot_bytes(&self.slot_specs[*out]) as u64,
                                tile: None,
                            },
                        )
                    }
                    RtOp::ConvFloat {
                        bank, input, out, ..
                    } => {
                        let f = bank.shape();
                        let cw = bank.c_words();
                        let (oh, ow) = match self.slot_specs[*out] {
                            SlotSpec::Map { h, w, .. } => (h, w),
                            _ => (0, 0),
                        };
                        let window_bits = (f.kh * f.kw * cw * 64) as u64;
                        (
                            OpKind::Conv,
                            OpCost {
                                bit_ops: 2 * (oh * ow * f.k) as u64 * window_bits,
                                bytes_read: (slot_bytes(&self.slot_specs[*input])
                                    + f.k * f.kh * f.kw * cw * 8)
                                    as u64,
                                // The float count map the fused epilogue
                                // never materializes.
                                bytes_written: slot_bytes(&self.slot_specs[*out]) as u64,
                                tile: None,
                            },
                        )
                    }
                    RtOp::BnSign { input, out, .. } => (
                        OpKind::Binarize,
                        OpCost {
                            bit_ops: 0,
                            bytes_read: slot_bytes(&self.slot_specs[*input]) as u64,
                            bytes_written: slot_bytes(&self.slot_specs[*out]) as u64,
                            tile: None,
                        },
                    ),
                    RtOp::Pool { input, out, .. } => (
                        OpKind::Pool,
                        OpCost {
                            bit_ops: 0,
                            bytes_read: slot_bytes(&self.slot_specs[*input]) as u64,
                            bytes_written: slot_bytes(&self.slot_specs[*out]) as u64,
                            tile: None,
                        },
                    ),
                    RtOp::Reflatten { input, out } => (
                        OpKind::Flatten,
                        OpCost {
                            bit_ops: 0,
                            bytes_read: slot_bytes(&self.slot_specs[*input]) as u64,
                            bytes_written: slot_bytes(&self.slot_specs[*out]) as u64,
                            tile: None,
                        },
                    ),
                    RtOp::FcSign { weights, out, .. } => (
                        OpKind::Fc,
                        (fc_cost(weights, Some(slot_bytes(&self.slot_specs[*out])))),
                    ),
                    RtOp::FcOut { weights, .. } => (OpKind::FcOut, fc_cost(weights, None)),
                };
                let (tier, why) = op.tier().unzip();
                OpDescriptor {
                    name: op.name().to_string(),
                    kind,
                    cost,
                    tier,
                    why,
                }
            })
            .collect()
    }

    /// Checks one inference request against this model: input geometry,
    /// finiteness, and context provenance. Everything [`Self::try_infer`]
    /// needs to guarantee the operator chain below cannot fault.
    fn check_request(&self, ctx: &InferenceContext, input: &Tensor) -> Result<(), InputGeometry> {
        if input.shape() != self.spec.input {
            return Err(InputGeometry::ShapeMismatch {
                expected: self.spec.input,
                actual: input.shape(),
            });
        }
        if let Some(index) = input.data().iter().position(|x| !x.is_finite()) {
            return Err(InputGeometry::NonFinite { index });
        }
        if ctx.slots.len() != self.slot_specs.len() {
            return Err(InputGeometry::ContextMismatch {
                expected: self.slot_specs.len(),
                actual: ctx.slots.len(),
            });
        }
        Ok(())
    }

    /// Runs inference in `ctx`; returns the logits. Allocation-free apart
    /// from the returned logits vector. Malformed requests (wrong input
    /// shape, NaN/Inf values, a context from a different model) come back
    /// as typed errors before any operator runs.
    pub fn try_infer(
        &self,
        ctx: &mut InferenceContext,
        input: &Tensor,
    ) -> Result<Vec<f32>, BitFlowError> {
        self.run_ops(ctx, input, &CancelToken::none(), None)
    }

    /// Runs inference with per-operator wall-clock timing, with the same
    /// error contract as [`CompiledModel::try_infer`].
    pub fn try_infer_profiled(
        &self,
        ctx: &mut InferenceContext,
        input: &Tensor,
    ) -> Result<ProfiledLogits, BitFlowError> {
        let mut times = Vec::with_capacity(self.ops.len());
        let logits = self.run_ops(ctx, input, &CancelToken::none(), Some(&mut times))?;
        Ok((logits, times))
    }

    /// Runs a batch of images over the installed rayon pool with per-item
    /// results: [`CompiledModel::try_serve_batch`] over untagged,
    /// uncancellable, untraced requests.
    pub fn try_infer_batch(&self, inputs: &[Tensor]) -> Vec<Result<Vec<f32>, BitFlowError>> {
        let none = CancelToken::none();
        let requests: Vec<InferRequest<'_>> = inputs
            .iter()
            .map(|input| InferRequest {
                input,
                cancel: &none,
                tag: UNTAGGED,
                trace: None,
            })
            .collect();
        self.try_serve_batch(&requests)
    }

    /// Runs one serving request in `ctx`. The request's [`CancelToken`] is
    /// checked at every operator boundary: a cancelled token surfaces as
    /// [`BitFlowError::Cancelled`], a passed deadline as
    /// [`BitFlowError::DeadlineExceeded`]. Abandoning a run between
    /// operators does not poison `ctx` — every operator fully overwrites
    /// its output interior and padding margins are never written, so the
    /// next complete run through the same context stays bit-identical to a
    /// fresh one.
    ///
    /// The request's tag reaches the installed [`FaultHook`] and its trace
    /// collects one [`OpSpan`] per operator. A panic inside inference is
    /// caught and reported as [`BitFlowError::Internal`] naming the
    /// operator that was executing; `ctx` may then hold partially-written
    /// buffers, so replace it (cheap — a handful of zeroed allocations)
    /// before reusing it.
    pub fn try_serve(
        &self,
        ctx: &mut InferenceContext,
        request: &InferRequest<'_>,
    ) -> Result<Vec<f32>, BitFlowError> {
        CURRENT_OP.with(|c| c.set(usize::MAX));
        let run = std::panic::AssertUnwindSafe(|| {
            // A panicking hook unwinds through the guards' Drops, restoring
            // the tag and trace before the next request runs on this thread.
            let _tag = (request.tag != UNTAGGED).then(|| enter_infer_tag(request.tag));
            let _trace = request
                .trace
                .as_ref()
                .map(|tb| enter_trace_scope(Arc::clone(tb)));
            self.run_ops(ctx, request.input, request.cancel, None)
        });
        std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            // `&*payload`, not `&payload`: the latter would unsize the `Box`
            // itself into the `dyn Any` and every downcast of the actual
            // message would miss.
            let msg = panic_message(&*payload);
            let i = CURRENT_OP.with(|c| c.replace(usize::MAX));
            Err(BitFlowError::Internal(match self.ops.get(i) {
                Some(op) => format!("operator `{}` (#{i}): {msg}", op.name()),
                None => msg,
            }))
        })
    }

    /// Runs a batch of serving requests over the installed rayon pool with
    /// per-request results: the batch is split into contiguous chunks, each
    /// worker chunk gets its own [`InferenceContext`], and every request
    /// runs through [`CompiledModel::try_serve`] inside its worker — so
    /// tags, traces and cancellations keep working when requests are
    /// coalesced into a batch.
    ///
    /// **Graceful degradation:** a malformed or cancelled request yields its
    /// own `Err` without poisoning the rest of the batch — every other
    /// request's logits are bit-identical to running it through
    /// [`CompiledModel::try_infer`] serially. A panic is reported as
    /// [`BitFlowError::Internal`] for that request only, and the worker's
    /// context is replaced before the next request runs.
    pub fn try_serve_batch(
        &self,
        requests: &[InferRequest<'_>],
    ) -> Vec<Result<Vec<f32>, BitFlowError>> {
        use rayon::prelude::*;
        if requests.is_empty() {
            return Vec::new();
        }
        let threads = rayon::current_num_threads().max(1);
        let chunk = requests.len().div_ceil(threads).max(1);
        let telemetry = self.telemetry.get();
        if let Some(t) = telemetry {
            t.batch()
                .batch_started(requests.len() as u64, requests.len().div_ceil(chunk) as u64);
        }
        let mut out: Vec<Result<Vec<f32>, BitFlowError>> = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || {
            Err(BitFlowError::Internal("item not reached".into()))
        });
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(ci, outs)| {
                let mut ctx = self.new_context();
                for (j, o) in outs.iter_mut().enumerate() {
                    *o = self.try_serve(&mut ctx, &requests[ci * chunk + j]);
                    if matches!(o, Err(BitFlowError::Internal(_))) {
                        // A panic may have left the session buffers
                        // partially written — replace them so later
                        // requests stay bit-identical to serial runs.
                        ctx = self.new_context();
                    }
                    if let Some(t) = telemetry {
                        t.batch().item_finished(o.is_ok());
                    }
                }
            });
        out
    }

    /// The one operator loop behind every inference call. The cancel token
    /// is checked at each operator boundary. Telemetry (per-op latency
    /// histograms and the request's hardware counters), the thread's trace
    /// scope (one [`OpSpan`] per op) and `profile` (one wall time per op)
    /// are optional observers; with none of them active the loop reads no
    /// clock.
    fn run_ops(
        &self,
        ctx: &mut InferenceContext,
        input: &Tensor,
        cancel: &CancelToken,
        mut profile: Option<&mut Vec<(String, Duration)>>,
    ) -> Result<Vec<f32>, BitFlowError> {
        self.check_request(ctx, input)?;
        let telemetry = self.telemetry.get();
        let trace = current_trace();
        let timed = telemetry.is_some() || trace.is_some() || profile.is_some();
        let mut run = || -> Result<(), BitFlowError> {
            for i in 0..self.ops.len() {
                cancel.check()?;
                let t0 = timed.then(Instant::now);
                self.run_op(&mut ctx.slots, ctx.parallel, i, input)?;
                let Some(t0) = t0 else { continue };
                let elapsed = t0.elapsed();
                if let Some(t) = telemetry {
                    t.record_op(i, elapsed.as_nanos() as u64);
                }
                if let Some(tb) = &trace {
                    tb.push_op(OpSpan {
                        op_index: i as u64,
                        name: self.ops[i].name().to_string(),
                        start_ns: tb.offset_ns(t0),
                        duration_ns: elapsed.as_nanos() as u64,
                    });
                }
                if let Some(times) = profile.as_deref_mut() {
                    times.push((self.ops[i].name().to_string(), elapsed));
                }
            }
            Ok(())
        };
        match telemetry {
            // The whole loop runs inside the hardware-counter scope, which
            // is one relaxed load when sampling is off or unavailable.
            Some(t) => {
                t.request_started();
                t.perf_request_scope(run)?;
            }
            None => run()?,
        }
        Ok(ctx.slots[self.logits_slot]
            .vec()
            .map_err(slot_type("logits", SlotKind::Vec))?
            .clone())
    }

    /// Installs a [`FaultHook`] called at every operator boundary (chaos
    /// injection: the hook may sleep or panic). First caller wins, like
    /// [`CompiledModel::enable_telemetry`]; returns `false` when a hook
    /// was already installed. Disabled cost is one `OnceLock::get` per
    /// operator.
    pub fn install_fault_hook(&self, hook: FaultHook) -> bool {
        self.fault_hook.set(hook).is_ok()
    }

    /// Whether a fault hook is installed.
    pub fn fault_hook_installed(&self) -> bool {
        self.fault_hook.get().is_some()
    }

    fn run_op(
        &self,
        slots: &mut [Slot],
        parallel: bool,
        i: usize,
        input: &Tensor,
    ) -> Result<(), BitFlowError> {
        let op_name = self.ops[i].name();
        // Record which operator this thread is in, so the catch_unwind
        // backstops can name it if a panic unwinds out of the kernels.
        CURRENT_OP.with(|c| c.set(i));
        if let Some(hook) = self.fault_hook.get() {
            hook(i, op_name, CURRENT_TAG.with(Cell::get));
        }
        match &self.ops[i] {
            RtOp::BinarizeInput { out, pad } => {
                binarize_pack_into(
                    input,
                    slots[*out]
                        .bit_mut()
                        .map_err(slot_type(op_name, SlotKind::Bit))?,
                    *pad,
                );
            }
            RtOp::ConvSign {
                bank,
                st,
                stride,
                level,
                input: in_slot,
                scratch,
                out,
                out_pad,
                ..
            } => {
                if parallel {
                    // Fused conv + integer sign epilogue, padded output
                    // rows over the installed rayon pool (each worker
                    // carries its own window of dots).
                    let (inp, dst) = two_slots(slots, *in_slot, *out);
                    pressed_conv_sign_parallel_into(
                        *level,
                        inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                        bank,
                        *stride,
                        st,
                        dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                        *out_pad,
                    );
                } else {
                    // Fused single pass (conv + integer threshold + sign +
                    // pack), borrowing the layer's k-float scratch vector
                    // as the per-window dot buffer so the request
                    // allocates nothing.
                    let (inp, scr, dst) = three_slots(slots, *in_slot, *scratch, *out);
                    let dots = scr.vec_mut().map_err(slot_type(op_name, SlotKind::Vec))?;
                    pressed_conv_sign_scratch_into(
                        *level,
                        inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                        bank,
                        *stride,
                        st,
                        dots,
                        dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                        *out_pad,
                    );
                }
            }
            RtOp::ConvFloat {
                bank,
                stride,
                level,
                input: in_slot,
                out,
                ..
            } => {
                let (inp, dst) = two_slots(slots, *in_slot, *out);
                let input = inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?;
                let counts = dst.map_mut().map_err(slot_type(op_name, SlotKind::Map))?;
                if parallel {
                    pressed_conv_parallel_into(*level, input, bank, *stride, counts);
                } else {
                    pressed_conv_into(*level, input, bank, *stride, counts);
                }
            }
            RtOp::BnSign {
                thresholds,
                flip,
                input: in_slot,
                out,
                out_pad,
                ..
            } => {
                let (src, dst) = two_slots(slots, *in_slot, *out);
                binarize_threshold_into(
                    src.map().map_err(slot_type(op_name, SlotKind::Map))?,
                    thresholds,
                    flip,
                    dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                    *out_pad,
                );
            }
            RtOp::Pool {
                kh,
                kw,
                stride,
                level,
                input: in_slot,
                out,
                out_pad,
                ..
            } => {
                let (inp, dst) = two_slots(slots, *in_slot, *out);
                binary_max_pool_into(
                    *level,
                    inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                    *kh,
                    *kw,
                    *stride,
                    dst.bit_mut().map_err(slot_type(op_name, SlotKind::Bit))?,
                    *out_pad,
                );
            }
            RtOp::Reflatten {
                input: in_slot,
                out,
            } => {
                let (inp, dst) = two_slots(slots, *in_slot, *out);
                reflatten(
                    inp.bit().map_err(slot_type(op_name, SlotKind::Bit))?,
                    dst.packed_mut()
                        .map_err(slot_type(op_name, SlotKind::Packed))?,
                );
            }
            RtOp::FcSign {
                weights,
                st,
                level,
                input: fc_in,
                scratch,
                out,
                ..
            } => {
                run_fc_into(op_name, slots, *fc_in, weights, *level, *scratch, parallel)?;
                let (scr, dst) = two_slots(slots, *scratch, *out);
                let packed = dst
                    .packed_mut()
                    .map_err(slot_type(op_name, SlotKind::Packed))?;
                pack_signed_dots_into(
                    scr.vec().map_err(slot_type(op_name, SlotKind::Vec))?,
                    st,
                    packed.row_mut(0),
                );
            }
            RtOp::FcOut {
                weights,
                level,
                input: fc_in,
                out,
                ..
            } => {
                run_fc_into(op_name, slots, *fc_in, weights, *level, *out, parallel)?;
            }
        }
        Ok(())
    }
}

/// Tracks which slot holds the live activation during compilation.
enum CurSlot {
    Bit(usize),
    Packed(usize),
}

impl CurSlot {
    fn bit_slot(&self) -> usize {
        match self {
            CurSlot::Bit(s) => *s,
            CurSlot::Packed(_) => panic!("spatial layer after FC"),
        }
    }
}

/// Planned size of a slot in bytes, mirroring [`SlotSpec::allocate`]'s
/// layout arithmetic without allocating.
fn slot_bytes(spec: &SlotSpec) -> usize {
    match *spec {
        SlotSpec::Bit { h, w, c } => h * w * c.div_ceil(64) * 8,
        SlotSpec::Map { h, w, c } => h * w * c * 4,
        SlotSpec::Vec { len } => len * 4,
        SlotSpec::Packed { n } => n.div_ceil(64) * 8,
    }
}

/// Static cost of one binary FC call: a 1×K bgemm reducing over N bits.
/// `packed_out_bytes` is the extra packed-activation write of the
/// sign-repack stage (FcSign only).
fn fc_cost(weights: &BinaryFcWeights, packed_out_bytes: Option<usize>) -> OpCost {
    let n_words = weights.n.div_ceil(64);
    let g = bitflow_gemm::tile_stats(1, weights.n, weights.k);
    OpCost {
        // Every output neuron evaluates n_words·64 bit positions, one xor +
        // one popcount-accumulate each.
        bit_ops: 2 * (weights.k * n_words * 64) as u64,
        bytes_read: ((1 + weights.k) * n_words * 8) as u64,
        bytes_written: (weights.k * 4 + packed_out_bytes.unwrap_or(0)) as u64,
        tile: Some(TileStats {
            m: g.m,
            k: g.k,
            n_words: g.n_words,
            quads: g.quads,
            tail: g.tail,
            par_k_chunk: g.par_k_chunk,
        }),
    }
}

/// Three distinct mutable slot borrows.
fn three_slots(
    slots: &mut [Slot],
    a: usize,
    b: usize,
    c: usize,
) -> (&mut Slot, &mut Slot, &mut Slot) {
    assert!(a != b && b != c && a != c, "aliasing slots");
    // Resolve via raw pointers after the distinctness check; a sort-based
    // split_at_mut chain over three arbitrary indices is strictly worse to
    // read and no safer.
    let base = slots.as_mut_ptr();
    assert!(a < slots.len() && b < slots.len() && c < slots.len());
    unsafe { (&mut *base.add(a), &mut *base.add(b), &mut *base.add(c)) }
}

/// Two distinct mutable slot borrows.
fn two_slots(slots: &mut [Slot], a: usize, b: usize) -> (&mut Slot, &mut Slot) {
    assert_ne!(a, b, "aliasing slots");
    if a < b {
        let (lo, hi) = slots.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = slots.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Runs the binary FC matmul allocation-free, reading from either a
/// flattened pressed map (whose word array, for word-tight channel counts,
/// *is* the packed activation vector) or a packed vector, writing the K dot
/// products into the vec slot `out`.
fn run_fc_into(
    op_name: &str,
    slots: &mut [Slot],
    fc_in: FcIn,
    weights: &BinaryFcWeights,
    level: SimdLevel,
    out: usize,
    parallel: bool,
) -> Result<(), BitFlowError> {
    let in_slot = match fc_in {
        FcIn::Bit(s) | FcIn::Packed(s) => s,
    };
    let (inp, dst) = two_slots(slots, in_slot, out);
    let words: &[u64] = match fc_in {
        FcIn::Bit(_) => inp
            .bit()
            .map_err(slot_type(op_name, SlotKind::Bit))?
            .words(),
        FcIn::Packed(_) => inp
            .packed()
            .map_err(slot_type(op_name, SlotKind::Packed))?
            .row(0),
    };
    let dst = dst.vec_mut().map_err(slot_type(op_name, SlotKind::Vec))?;
    if parallel {
        weights.forward_into_parallel(level, words, dst);
    } else {
        weights.forward_into(level, words, dst);
    }
    Ok(())
}

/// Renders a `catch_unwind` payload as a message for
/// [`BitFlowError::Internal`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".to_string()
    }
}

/// Bit-by-bit repack of a pressed map into a flat packed vector (general
/// flatten path for non-word-aligned channel counts).
fn reflatten(src: &BitTensor, dst: &mut PackedMatrix) {
    let n = src.h() * src.w() * src.c();
    assert_eq!(dst.n_logical, n);
    let row = dst.row_mut(0);
    row.fill(0);
    let mut bit = 0usize;
    for h in 0..src.h() {
        for w in 0..src.w() {
            for c in 0..src.c() {
                if src.get(h, w, c) > 0 {
                    row[bit / 64] |= 1 << (bit % 64);
                }
                bit += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Float baseline engine
// ---------------------------------------------------------------------------

/// The full-precision counterpart network: im2col conv + ReLU, float
/// max-pool, sgemm FC (+ ReLU between FCs). Weight transposes are hoisted
/// to compile time, mirroring what any production float engine does.
pub struct FloatNetwork {
    spec: NetworkSpec,
    layers: Vec<FloatRt>,
}

enum FloatRt {
    Conv {
        name: String,
        w: Vec<f32>,
        fshape: FilterShape,
        params: bitflow_ops::ConvParams,
    },
    Pool {
        name: String,
        params: bitflow_ops::ConvParams,
    },
    Fc {
        name: String,
        wt: Vec<f32>,
        n: usize,
        k: usize,
        last: bool,
    },
}

impl FloatNetwork {
    /// Compiles the float baseline from the same spec/weights as the binary
    /// engine (batch-norm statistics are ignored: the float VGG baseline is
    /// conv+ReLU, as in the original architecture).
    pub fn compile(spec: &NetworkSpec, weights: &NetworkWeights) -> Self {
        assert_eq!(spec.layers.len(), weights.layers.len());
        let n_layers = spec.layers.len();
        let layers = spec
            .layers
            .iter()
            .zip(&weights.layers)
            .enumerate()
            .map(|(i, (l, w))| match (l, w) {
                (LayerSpec::Conv { name, params, .. }, LayerWeights::Conv { w, fshape, .. }) => {
                    FloatRt::Conv {
                        name: name.clone(),
                        w: w.clone(),
                        fshape: *fshape,
                        params: *params,
                    }
                }
                (LayerSpec::Pool { name, params }, LayerWeights::Pool) => FloatRt::Pool {
                    name: name.clone(),
                    params: *params,
                },
                (LayerSpec::Fc { name, .. }, LayerWeights::Fc { w, n, k, .. }) => FloatRt::Fc {
                    name: name.clone(),
                    wt: transpose(w, *n, *k),
                    n: *n,
                    k: *k,
                    last: i + 1 == n_layers,
                },
                (l, _) => panic!("spec/weights mismatch at {}", l.name()),
            })
            .collect();
        Self {
            spec: spec.clone(),
            layers,
        }
    }

    /// Runs float inference (uses the parallel operator variants; install a
    /// 1-thread pool for single-core numbers).
    pub fn infer(&self, input: &Tensor) -> Vec<f32> {
        self.infer_profiled(input).0
    }

    /// Float inference with per-layer timings.
    pub fn infer_profiled(&self, input: &Tensor) -> (Vec<f32>, Vec<(String, Duration)>) {
        assert_eq!(input.shape(), self.spec.input);
        let mut times = Vec::with_capacity(self.layers.len());
        let mut map: Option<Tensor> = Some(input.clone());
        let mut vec: Option<Vec<f32>> = None;
        for layer in &self.layers {
            let t0 = Instant::now();
            match layer {
                FloatRt::Conv {
                    name,
                    w,
                    fshape,
                    params,
                } => {
                    let m = match map.as_ref() {
                        Some(m) => m,
                        None => panic!("conv after FC"),
                    };
                    let mut out = conv_im2col_parallel(m, w, *fshape, *params);
                    relu(&mut out);
                    map = Some(out);
                    times.push((name.clone(), t0.elapsed()));
                }
                FloatRt::Pool { name, params } => {
                    let m = match map.as_ref() {
                        Some(m) => m,
                        None => panic!("pool after FC"),
                    };
                    map = Some(max_pool_parallel(m, *params));
                    times.push((name.clone(), t0.elapsed()));
                }
                FloatRt::Fc {
                    name,
                    wt,
                    n,
                    k,
                    last,
                } => {
                    let flat: Vec<f32> = match (&map, &vec) {
                        (Some(m), _) => m.data().to_vec(),
                        (None, Some(v)) => v.clone(),
                        _ => unreachable!(),
                    };
                    assert_eq!(flat.len(), *n, "fc input width");
                    let mut out = fc_parallel(&flat, wt, *n, *k);
                    if !*last {
                        for x in &mut out {
                            if *x < 0.0 {
                                *x = 0.0;
                            }
                        }
                    }
                    map = None;
                    vec = Some(out);
                    times.push((name.clone(), t0.elapsed()));
                }
            }
        }
        let vec = match vec {
            Some(v) => v,
            None => panic!("network must end with FC"),
        };
        (vec, times)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::models::small_cnn;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (NetworkSpec, NetworkWeights, Tensor) {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(7);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        (spec, weights, input)
    }

    fn compile(spec: &NetworkSpec, weights: &NetworkWeights) -> CompiledModel {
        CompiledModel::try_compile(spec, weights).expect("compile")
    }

    fn infer(model: &CompiledModel, ctx: &mut InferenceContext, input: &Tensor) -> Vec<f32> {
        model.try_infer(ctx, input).expect("infer")
    }

    #[test]
    fn compile_and_infer() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let logits = infer(&model, &mut model.new_context(), &input);
        assert_eq!(logits.len(), 10);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn inference_is_deterministic_and_repeatable() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = model.new_context();
        let a = infer(&model, &mut ctx, &input);
        let b = infer(&model, &mut ctx, &input);
        assert_eq!(a, b, "second inference over reused buffers must agree");
    }

    #[test]
    fn parallel_matches_serial_bit_exactly() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = model.new_context();
        let serial = infer(&model, &mut ctx, &input);
        ctx.parallel = true;
        let parallel = infer(&model, &mut ctx, &input);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn profiled_matches_plain() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = model.new_context();
        let plain = infer(&model, &mut ctx, &input);
        let (profiled, times) = model
            .try_infer_profiled(&mut ctx, &input)
            .expect("profiled");
        assert_eq!(plain, profiled);
        // input binarize + conv + pool + flatten (32-channel non-aligned
        // flatten inserts a repack op) + fc.
        assert_eq!(times.len(), spec.layers.len() + 2);
        assert_eq!(times[0].0, "binarize-input");
        assert_eq!(times[1].0, "conv1");
        assert!(times.iter().any(|(n, _)| n == "flatten"));
    }

    #[test]
    fn engine_matches_direct_op_chain() {
        // Hand-execute the same small network with the raw ops and compare.
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let got = infer(&model, &mut model.new_context(), &input);

        use bitflow_ops::binary::{
            binarize_pack_padded, binary_fc, binary_max_pool, pressed_conv, BinaryFcWeights,
        };
        let (cw, cf, cbn) = match &weights.layers[0] {
            LayerWeights::Conv { w, fshape, bn } => (w, fshape, bn),
            _ => unreachable!(),
        };
        let bank = BitFilterBank::from_floats(cw, *cf);
        let pressed = binarize_pack_padded(&input, 1);
        let counts = pressed_conv(SimdLevel::Avx512, &pressed, &bank, 1);
        let fold = cbn.fold();
        let signed = bitflow_ops::binary::binarize_threshold_padded(
            &counts,
            &fold.thresholds,
            &fold.flip,
            0,
        );
        let pooled = binary_max_pool(SimdLevel::Avx512, &signed, 2, 2, 2);
        let (fw, fn_, fk) = match &weights.layers[2] {
            LayerWeights::Fc { w, n, k, .. } => (w, *n, *k),
            _ => unreachable!(),
        };
        let flat = pooled.to_tensor();
        let packed_w = BinaryFcWeights::pack(fw, fn_, fk);
        let want = binary_fc(SimdLevel::Avx512, flat.data(), &packed_w);
        assert_eq!(got, want);
    }

    #[test]
    fn float_network_runs_and_differs_from_binary() {
        let (spec, weights, input) = setup();
        let fnet = FloatNetwork::compile(&spec, &weights);
        let (logits, times) = fnet.infer_profiled(&input);
        assert_eq!(logits.len(), 10);
        assert_eq!(times.len(), spec.layers.len());
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn model_size_accounting() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        assert_eq!(model.float_model_bytes(), weights.float_bytes());
        assert_eq!(model.packed_model_bytes(), weights.packed_bytes());
        assert!(model.context_bytes() > 0);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let mut rng = StdRng::seed_from_u64(9);
        let bad = Tensor::random(Shape::hwc(4, 4, 3), Layout::Nhwc, &mut rng);
        assert!(matches!(
            model.try_infer(&mut model.new_context(), &bad),
            Err(BitFlowError::InputGeometry(
                InputGeometry::ShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn contexts_are_independent() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut a = model.new_context();
        let mut b = model.new_context();
        let want = infer(&model, &mut a, &input);
        assert_eq!(infer(&model, &mut b, &input), want);
        // Running one again changes nothing.
        assert_eq!(infer(&model, &mut a, &input), want);
        assert_eq!(model.context_bytes(), a.activation_bytes());
    }

    #[test]
    fn infer_batch_bit_identical_to_serial() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let mut rng = StdRng::seed_from_u64(13);
        let inputs: Vec<Tensor> = (0..7)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        let mut ctx = model.new_context();
        let serial: Vec<Vec<f32>> = inputs
            .iter()
            .map(|img| infer(&model, &mut ctx, img))
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let batch: Vec<Vec<f32>> = pool
                .install(|| model.try_infer_batch(&inputs))
                .into_iter()
                .map(|r| r.expect("batch item"))
                .collect();
            assert_eq!(batch, serial, "threads={threads}");
        }
        assert!(model.try_infer_batch(&[]).is_empty());
    }

    #[test]
    fn telemetry_disabled_by_default() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        assert!(model.telemetry().is_none());
        assert!(model.metrics_snapshot().is_none());
        infer(&model, &mut model.new_context(), &input);
        assert!(
            model.metrics_snapshot().is_none(),
            "inference must not enable it"
        );
    }

    #[test]
    fn telemetry_counts_ops_and_derives_rates() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = model.new_context();
        let before = infer(&model, &mut ctx, &input);
        model.enable_telemetry();
        let after = infer(&model, &mut ctx, &input);
        assert_eq!(before, after, "telemetry must not change logits");
        infer(&model, &mut ctx, &input);

        let snap = model.metrics_snapshot().expect("enabled");
        assert_eq!(snap.model, spec.name);
        assert_eq!(snap.requests, 2);
        // binarize + conv + pool + flatten (non-aligned 32-channel) + fc.
        assert_eq!(snap.ops.len(), spec.layers.len() + 2);
        assert_eq!(snap.ops[0].name, "binarize-input");
        assert_eq!(snap.ops[1].name, "conv1");
        for op in &snap.ops {
            assert_eq!(op.calls, 2, "{}", op.name);
            assert!(op.total_ns > 0, "{}", op.name);
            assert!(op.p50_ns <= op.p95_ns && op.p95_ns <= op.p99_ns);
            assert!(op.max_ns as f64 >= op.mean_ns, "{}", op.name);
        }
        let conv = &snap.ops[1];
        assert!(conv.bit_ops_per_call > 0);
        assert!(conv.gops > 0.0);
        let fc = snap.ops.last().expect("ops");
        assert_eq!(fc.kind, bitflow_telemetry::OpKind::FcOut);
        let tile = fc.tile.expect("fc has tile stats");
        assert_eq!(tile.m, 1);
        assert_eq!(tile.k, 10);
        assert_eq!(tile.n_words, 8); // 512 flattened bits
    }

    #[test]
    fn telemetry_batch_gauges() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        model.enable_telemetry();
        let mut rng = StdRng::seed_from_u64(21);
        let mut inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        inputs[3] = Tensor::random(Shape::hwc(2, 2, 3), Layout::Nhwc, &mut rng); // malformed
        let results = model.try_infer_batch(&inputs);
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        let snap = model.metrics_snapshot().expect("enabled");
        assert_eq!(snap.batch.batches, 1);
        assert_eq!(snap.batch.items, 5);
        assert_eq!(snap.batch.failed_items, 1);
        assert_eq!(snap.batch.max_batch, 5);
        assert_eq!(snap.batch.queued_items, 0, "gauge returns to idle");
        assert!(snap.batch.chunks >= 1);
    }

    #[test]
    fn profiled_run_feeds_telemetry_and_trace() {
        // The profile is one more observer of the same op loop: a profiled
        // run still counts in telemetry and still lands in the trace scope.
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let telemetry = model.enable_telemetry();
        let mut ctx = model.new_context();
        infer(&model, &mut ctx, &input);
        let calls = |t: &ModelTelemetry| -> Vec<u64> {
            t.snapshot().ops.iter().map(|op| op.calls).collect()
        };
        let before = calls(&telemetry);
        let tb = Arc::new(TraceBuilder::new("req-profiled"));
        let times = {
            let _scope = enter_trace_scope(Arc::clone(&tb));
            model
                .try_infer_profiled(&mut ctx, &input)
                .expect("profiled")
                .1
        };
        let after = calls(&telemetry);
        assert_eq!(after.len(), times.len());
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(a - b, 1, "op {} must be counted once", times[i].0);
        }
        let trace = tb.finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        let want: Vec<&str> = times.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, want, "one op span per op, in order");
    }

    #[test]
    fn trace_scope_collects_op_spans_without_telemetry() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let tb = Arc::new(TraceBuilder::new("req-a"));
        {
            let _scope = enter_trace_scope(Arc::clone(&tb));
            infer(&model, &mut model.new_context(), &input);
        }
        assert!(current_trace().is_none(), "guard restores the empty scope");
        let trace = tb.finish();
        assert_eq!(trace.spans.len(), spec.layers.len() + 2);
        assert_eq!(trace.spans[0].name, "binarize-input");
        for w in trace.spans.windows(2) {
            assert!(
                w[0].start_ns <= w[1].start_ns,
                "op spans run in sequence on one thread"
            );
        }
    }

    #[test]
    fn untagged_untraced_serve_keeps_the_outer_scope() {
        let (spec, weights, input) = setup();
        let model = compile(&spec, &weights);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        assert!(model.install_fault_hook(Arc::new(move |_, _, tag| {
            sink.lock().expect("hook lock").push(tag);
        })));
        let tb = Arc::new(TraceBuilder::new("outer"));
        let none = CancelToken::none();
        {
            let _tag = enter_infer_tag(42);
            let _scope = enter_trace_scope(Arc::clone(&tb));
            let request = InferRequest {
                input: &input,
                cancel: &none,
                tag: UNTAGGED,
                trace: None,
            };
            model
                .try_serve(&mut model.new_context(), &request)
                .expect("serve");
            assert!(current_trace().is_some(), "outer trace scope survives");
        }
        assert_eq!(tb.finish().spans.len(), spec.layers.len() + 2);
        let tags = seen.lock().expect("lock");
        assert!(tags.iter().all(|&t| t == 42), "outer tag reaches the hook");
    }

    #[test]
    fn batch_items_carry_their_traces_onto_workers() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        // Telemetry on: op spans must land in each request's own trace
        // alongside the telemetry record.
        model.enable_telemetry();
        let mut rng = StdRng::seed_from_u64(23);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        let builders: Vec<Arc<TraceBuilder>> = (0..4)
            .map(|i| Arc::new(TraceBuilder::new(format!("req-{i}"))))
            .collect();
        let none = CancelToken::none();
        let requests: Vec<InferRequest<'_>> = inputs
            .iter()
            .zip(&builders)
            .enumerate()
            .map(|(i, (input, tb))| InferRequest {
                input,
                cancel: &none,
                tag: i as u64,
                trace: Some(Arc::clone(tb)),
            })
            .collect();
        let results = model.try_serve_batch(&requests);
        assert!(results.iter().all(Result::is_ok));
        for (i, tb) in builders.iter().enumerate() {
            let trace = tb.finish();
            assert_eq!(trace.id, format!("req-{i}"));
            assert_eq!(
                trace.spans.len(),
                spec.layers.len() + 2,
                "item {i} must collect exactly its own op spans"
            );
        }
        assert!(current_trace().is_none());
    }

    #[test]
    fn enable_telemetry_is_idempotent() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let a = model.enable_telemetry();
        let b = model.enable_telemetry();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn serve_batch_matches_serial_and_honours_tokens() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let mut rng = StdRng::seed_from_u64(17);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        let mut ctx = model.new_context();
        let serial: Vec<Vec<f32>> = inputs
            .iter()
            .map(|img| infer(&model, &mut ctx, img))
            .collect();
        let tokens: Vec<CancelToken> = (0..6).map(|_| CancelToken::new()).collect();
        tokens[3].cancel();
        let requests: Vec<InferRequest<'_>> = inputs
            .iter()
            .zip(&tokens)
            .enumerate()
            .map(|(i, (input, cancel))| InferRequest {
                input,
                cancel,
                tag: i as u64,
                trace: None,
            })
            .collect();
        let results = model.try_serve_batch(&requests);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(
                    matches!(r, Err(BitFlowError::Cancelled)),
                    "cancelled item must abort, got {r:?}"
                );
            } else {
                assert_eq!(
                    r.as_ref().expect("uncancelled item"),
                    &serial[i],
                    "item {i} diverged from serial inference"
                );
            }
        }
        assert!(model.try_serve_batch(&[]).is_empty());
    }

    #[test]
    fn batch_items_report_their_tags_to_fault_hooks() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let seen = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let sink = Arc::clone(&seen);
        assert!(model.install_fault_hook(Arc::new(move |_, _, tag| {
            sink.lock().expect("hook lock").insert(tag);
        })));
        let mut rng = StdRng::seed_from_u64(19);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        let none = CancelToken::none();
        let requests: Vec<InferRequest<'_>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| InferRequest {
                input,
                cancel: &none,
                tag: 100 + i as u64,
                trace: None,
            })
            .collect();
        let results = model.try_serve_batch(&requests);
        assert!(results.iter().all(Result::is_ok));
        {
            // Scoped: the hook locks this same mutex on this thread during
            // the untagged inference below.
            let seen = seen.lock().expect("lock");
            for i in 0..5u64 {
                assert!(
                    seen.contains(&(100 + i)),
                    "tag {} never reached the fault hook (rayon workers lose \
                     serve-side thread-locals — the tag must travel with the item)",
                    100 + i
                );
            }
        }
        // Untagged inference reports UNTAGGED, not a stale batch tag.
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        infer(&model, &mut model.new_context(), &input);
        assert!(seen.lock().expect("lock").contains(&UNTAGGED));
    }

    #[test]
    fn nondefault_bn_epsilon_matches_float_reference() {
        // A model whose BN layers use ε = 1e-1 over deliberately small
        // variances (so ε dominates the denominator), with β amplified so
        // the ε-induced threshold shift spans several integer count
        // levels: the engine must fold with the layer's own ε. The
        // reference computes the explicit float BN + sign path; a second
        // compile with the old hardcoded default shows the bug this
        // guards against.
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(77);
        let mut weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        for lw in &mut weights.layers {
            if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                bn.eps = 1e-1;
                for v in &mut bn.var {
                    *v *= 1e-3;
                }
                for b in &mut bn.beta {
                    *b *= 20.0;
                }
            }
        }
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let model = compile(&spec, &weights);
        let got = infer(&model, &mut model.new_context(), &input);

        // Hand-executed chain with explicit BN: y = γ·(x−μ)/√(σ²+ε) + β,
        // bit = y ≥ 0 — no folding anywhere.
        use bitflow_ops::binary::{
            binarize_pack_padded, binarize_threshold_padded, binary_fc, binary_max_pool,
            pressed_conv, BinaryFcWeights,
        };
        let (cw, cf, cbn) = match &weights.layers[0] {
            LayerWeights::Conv { w, fshape, bn } => (w, fshape, bn),
            _ => unreachable!(),
        };
        let bank = BitFilterBank::from_floats(cw, *cf);
        let pressed = binarize_pack_padded(&input, 1);
        let counts = pressed_conv(SimdLevel::Avx512, &pressed, &bank, 1);
        let k = cf.k;
        let mut bn_out = counts.clone();
        for (i, y) in bn_out.data_mut().iter_mut().enumerate() {
            let c = i % k;
            *y = cbn.gamma[c] * (*y - cbn.mean[c]) / (cbn.var[c] + cbn.eps).sqrt() + cbn.beta[c];
        }
        let zeros = vec![0.0f32; k];
        let no_flip = vec![false; k];
        let signed = binarize_threshold_padded(&bn_out, &zeros, &no_flip, 0);
        let pooled = binary_max_pool(SimdLevel::Avx512, &signed, 2, 2, 2);
        let (fw, fn_, fk) = match &weights.layers[2] {
            LayerWeights::Fc { w, n, k, .. } => (w, *n, *k),
            _ => unreachable!(),
        };
        let flat = pooled.to_tensor();
        let packed_w = BinaryFcWeights::pack(fw, fn_, fk);
        let want = binary_fc(SimdLevel::Avx512, flat.data(), &packed_w);
        assert_eq!(got, want, "engine must fold with the layer's ε");

        // Regression half: the old behavior (hardcoded 1e-5) folds
        // different thresholds, and with ε-dominated variances the logits
        // actually diverge.
        let mut old = weights.clone();
        for lw in &mut old.layers {
            if let LayerWeights::Conv { bn, .. } | LayerWeights::Fc { bn, .. } = lw {
                bn.eps = 1e-5;
            }
        }
        let old_model = compile(&spec, &old);
        let old_logits = infer(&old_model, &mut old_model.new_context(), &input);
        assert_ne!(
            got, old_logits,
            "folding with the default ε must be observable on this model \
             (otherwise this test cannot catch the bug)"
        );
    }

    #[test]
    fn random_inputs_give_varied_logits() {
        let (spec, weights, _) = setup();
        let model = compile(&spec, &weights);
        let mut ctx = model.new_context();
        let mut rng = StdRng::seed_from_u64(11);
        let a = infer(
            &model,
            &mut ctx,
            &Tensor::random(spec.input, Layout::Nhwc, &mut rng),
        );
        let b = infer(
            &model,
            &mut ctx,
            &Tensor::random(spec.input, Layout::Nhwc, &mut rng),
        );
        assert_ne!(a, b, "different inputs should give different logits");
    }

    #[test]
    fn conv_tiers_are_measured_and_runnable_on_this_host() {
        let spec = crate::models::tiered_cnn();
        let mut rng = StdRng::seed_from_u64(5);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
        let host = bitflow_simd::features();
        let a = compile(&spec, &weights);
        let convs: Vec<OpDescriptor> = a
            .op_descriptors()
            .into_iter()
            .filter(|d| d.kind == OpKind::Conv)
            .collect();
        assert_eq!(convs.len(), 4, "tiered_cnn has one conv per §III-B tier");
        for d in &convs {
            let tier = d.tier.expect("every conv reports its tier");
            assert!(tier.available(host), "{}: {tier} cannot run here", d.name);
            match &d.why {
                Some(TierReason::Measured { ns, paper }) => {
                    assert_eq!(
                        bitflow_simd::scheduler::pick(ns, *paper),
                        tier,
                        "{}",
                        d.name
                    );
                }
                other => panic!("{}: conv tier not measured: {other:?}", d.name),
            }
        }
        // Tiers may differ between compiles; the logits may not.
        let b = compile(&spec, &weights);
        let run = |m: &CompiledModel| infer(m, &mut m.new_context(), &input);
        let (la, lb) = (run(&a), run(&b));
        assert_eq!(
            la.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            lb.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
