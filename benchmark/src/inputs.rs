//! Seeded input generation. Everything the program under test sees is
//! made here from `--seed`: traces, model sequences, tensors, the fault
//! seed and the NASBench sample of the boot catalog.

use optimus_model::tensor::Tensor;
use optimus_model::{Activation, GraphBuilder, ModelGraph};
use optimus_workload::{AzureTraceGenerator, Trace};

/// Deterministic splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An independent seed for item `index` of input stream `stream`.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    rng.next() ^ Rng::new(index).next()
}

/// Input streams derived from `--seed`.
pub mod stream {
    pub const TRACE: u64 = 1;
    pub const FAULTS: u64 = 2;
    pub const MODEL_SEQUENCE: u64 = 3;
    pub const TENSOR: u64 = 4;
    pub const BOOT_CATALOG: u64 = 5;
    pub const MICRO: u64 = 6;
}

/// An input tensor whose values are multiples of 1/256 in [-1, 1]: exact
/// in `f32`, `f64` and their shortest decimal form, so a value survives
/// the JSON request body bit-for-bit.
pub fn seeded_tensor(shape: [usize; 4], seed: u64) -> Tensor {
    let mut rng = Rng::new(seed);
    let data = (0..shape.iter().product::<usize>())
        .map(|_| (rng.below(513) as f32 - 256.0) / 256.0)
        .collect();
    Tensor::new(shape, data)
}

/// The first `n` invocations of an Azure-style trace over `names`.
///
/// The generator's rates are heavy-tailed, so the span needed for `n`
/// invocations varies several-fold between seeds: start from the typical
/// span and double until the trace is long enough.
pub fn azure_trace(names: &[String], seed: u64, n: usize) -> Trace {
    // ≈0.35 invocations/s is typical for the 37-function catalog.
    let mut duration = n as f64 / 0.35 * 1.5;
    loop {
        let mut trace = AzureTraceGenerator::new(duration, seed).generate(names);
        if trace.len() >= n {
            trace.invocations.truncate(n);
            trace.duration = trace.invocations.last().map_or(1.0, |i| i.time + 1.0);
            return trace;
        }
        duration *= 2.0;
    }
}

/// Input shape of the two always-warm models behind `serve_http_warm`.
pub const TINY_INPUT: [usize; 4] = [1, 3, 8, 8];

/// Tiny CNN with a 4-logit head: the response body stays small, so the
/// HTTP workload measures the front end and not float formatting.
pub fn tiny_cnn(name: &str, channels: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let x = b.input(TINY_INPUT);
    let x = b.conv2d_after(x, 3, channels, (3, 3), (1, 1), 1);
    let x = b.activation_after(x, Activation::Relu);
    let x = b.global_avg_pool_after(x);
    let x = b.flatten_after(x);
    let _ = b.dense_after(x, channels, 4);
    b.finish().expect("valid tiny CNN")
}

/// Input shape of the sibling CNNs behind `serve_gateway_churn`.
pub const SIBLING_INPUT: [usize; 4] = [1, 3, 16, 16];

const SIBLING_WIDTHS: [usize; 4] = [8, 12, 16, 24];
const SIBLING_DEPTHS: [usize; 4] = [2, 3, 4, 5];

/// 16 sibling CNNs (4 widths × 4 depths) in one seed group, so tensors
/// are shared wherever shapes agree and every ordered pair has a real
/// meta-operator plan.
pub fn sibling_cnns() -> Vec<ModelGraph> {
    let mut models = Vec::new();
    for width in SIBLING_WIDTHS {
        for depth in SIBLING_DEPTHS {
            let mut b = GraphBuilder::new(format!("cnn-w{width}-d{depth}")).seed_group("sibling");
            let mut x = b.input(SIBLING_INPUT);
            let mut ch = 3;
            for _ in 0..depth {
                x = b.conv2d_after(x, ch, width, (3, 3), (1, 1), 1);
                x = b.activation_after(x, Activation::Relu);
                ch = width;
            }
            x = b.global_avg_pool_after(x);
            x = b.flatten_after(x);
            let _ = b.dense_after(x, ch, 8);
            models.push(b.finish().expect("valid sibling CNN"));
        }
    }
    models
}

/// `n` distinct one-cell-per-stage NASBench-201 architectures: registered
/// at boot, never requested. Every sampled cell carries the same six edge
/// operations (none, skip, conv1x1, 2 × conv3x3, avgpool) and the seed
/// draws their wiring (360 cells), so two seeds' catalogs differ in
/// architecture but not in size: planning time, artifact bytes and the
/// resident set stay comparable from seed to seed.
pub fn nasbench_sample(seed: u64, n: usize) -> Vec<ModelGraph> {
    const EDGE_OPS: [u64; 6] = [0, 1, 2, 3, 3, 4];
    assert!(n <= 360, "only 360 wirings of the fixed edge operations");
    let mut rng = Rng::new(sub_seed(seed, stream::BOOT_CATALOG, 0));
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < n {
        let mut digits = EDGE_OPS;
        for i in (1..digits.len()).rev() {
            digits.swap(i, rng.below(i + 1));
        }
        // `CellSpec::from_index` reads the edges as base-5 digits.
        picked.insert(digits.iter().rev().fold(0, |index, d| index * 5 + d));
    }
    picked
        .into_iter()
        .map(|index| optimus_zoo::nasbench::nasbench_model_sized(index, 1, 0))
        .collect()
}
