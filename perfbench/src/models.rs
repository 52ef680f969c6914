//! Models and inputs generated from the seed, the model container files the
//! program loads them from, and the oracle every response is checked
//! against.

use std::path::{Path, PathBuf};

use bitflow_graph::models::{small_cnn, tiered_cnn, vgg16};
use bitflow_graph::{save_model, CompiledModel, NetworkSpec, NetworkWeights};
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};

use crate::Res;

/// The networks the workloads serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Full-size VGG-16, 224×224×3 (paper Fig. 11).
    Vgg16,
    /// `small_cnn`: 8×8×16, one conv, one pool, a 10-way head.
    Small,
    /// `tiered_cnn`: 32×32×3, one conv per §III-B kernel tier.
    Tiered,
}

impl Net {
    pub fn spec(self) -> NetworkSpec {
        match self {
            Net::Vgg16 => vgg16(),
            Net::Small => small_cnn(),
            Net::Tiered => tiered_cnn(),
        }
    }

    /// Short name used for tenants, files and metric suffixes.
    pub fn tag(self) -> &'static str {
        match self {
            Net::Vgg16 => "vgg16",
            Net::Small => "small",
            Net::Tiered => "tiered",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Net::Vgg16 => 0x5647_4731,
            Net::Small => 0x534d_414c,
            Net::Tiered => 0x5449_4552,
        }
    }
}

/// One network's generated artefacts: its container file and the
/// distinct inputs requests draw from.
pub struct Generated {
    pub net: Net,
    pub path: PathBuf,
    pub inputs: Vec<Tensor>,
}

impl Generated {
    /// Draws weights (random batch-norm, so threshold folding is exercised)
    /// and `n_inputs` inputs from `seed`, and writes the weights to a model
    /// container file in `dir`. The float weights are dropped before this
    /// returns; the program only ever sees the file.
    pub fn new(net: Net, seed: u64, n_inputs: usize, dir: &Path) -> Res<Self> {
        let spec = net.spec();
        let mut rng = StdRng::seed_from_u64(seed ^ net.salt());
        let path = dir.join(format!("{}-{}.btfm", net.tag(), std::process::id()));
        {
            let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
            save_model(&path, &spec, &weights)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let inputs = (0..n_inputs)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        Ok(Self { net, path, inputs })
    }
}

impl Drop for Generated {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Reference logits for every distinct input, from serial `try_infer`.
pub struct Oracle {
    logits: Vec<Vec<f32>>,
    bytes: Vec<Vec<u8>>,
}

impl Oracle {
    /// Runs every input once through a fresh serial context.
    pub fn compute(model: &CompiledModel, inputs: &[Tensor]) -> Res<Self> {
        let mut ctx = model.try_new_context()?;
        ctx.parallel = false;
        let logits = inputs
            .iter()
            .map(|x| model.try_infer(&mut ctx, x))
            .collect::<Result<Vec<_>, _>>()?;
        let bytes = logits.iter().map(|l| le_bytes(l)).collect();
        Ok(Self { logits, bytes })
    }

    /// Flips the lowest mantissa bit of input 0's first logit, so every
    /// later check of input 0 fails: proves the verification is live.
    pub fn corrupt(&mut self) {
        if let Some(first) = self.logits.first_mut().and_then(|l| l.first_mut()) {
            *first = f32::from_bits(first.to_bits() ^ 1);
        }
        self.bytes = self.logits.iter().map(|l| le_bytes(l)).collect();
    }

    /// Bit-exact comparison against input `idx`'s reference logits.
    pub fn matches(&self, idx: usize, logits: &[f32]) -> bool {
        let want = &self.logits[idx];
        want.len() == logits.len()
            && want
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Bit-exact comparison of a wire body (little-endian f32 logits).
    pub fn matches_bytes(&self, idx: usize, body: &[u8]) -> bool {
        self.bytes[idx] == body
    }
}

fn le_bytes(logits: &[f32]) -> Vec<u8> {
    logits.iter().flat_map(|v| v.to_le_bytes()).collect()
}
