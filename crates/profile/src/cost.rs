//! The parametric latency cost model.

use optimus_model::{ModelGraph, OpAttrs, OpKind, Operation};
use serde::{Deserialize, Serialize};

use crate::env::Environment;

/// Version of the calibrated cost model.
///
/// Persisted plan artifacts embed this number: a plan computed against one
/// calibration must not be replayed against another, so loaders reject
/// artifacts whose cost-model version differs (the same contract as
/// the artifact's own format version). Bump whenever
/// [`CostParams`] defaults or the cost formulas change.
pub const COST_MODEL_VERSION: u32 = 1;

/// Cost interface consumed by the planner and the simulator.
///
/// All costs are in seconds of simulated latency. Implementations must be
/// deterministic: the planner caches plans computed offline from these
/// numbers (§4.4 Module 3).
pub trait CostProvider {
    /// Latency to instantiate an operation's *structure* (graph-node
    /// creation and variable allocation, without assigning weight values).
    fn structure_cost(&self, attrs: &OpAttrs) -> f64;

    /// Latency to assign an operation's weight values into an existing
    /// structure (the memcpy-like final step of loading).
    fn assign_cost(&self, attrs: &OpAttrs) -> f64;

    /// `Replace` meta-operator: overwrite weights in place.
    fn replace_cost(&self, dst: &OpAttrs) -> f64;

    /// `Reshape` meta-operator: morph `src` into `dst`'s shape.
    ///
    /// Returns `None` when the pair is not reshape-compatible (different
    /// kinds — §4.4's first observation: cross-kind transformation either
    /// is impossible or costs more than loading from scratch).
    fn reshape_cost(&self, src: &OpAttrs, dst: &OpAttrs) -> Option<f64>;

    /// `Reduce` meta-operator: delete an operation (constant — Figure 8).
    fn reduce_cost(&self, src: &OpAttrs) -> f64;

    /// `Add` meta-operator: create a destination op from scratch
    /// (structure + weight assignment).
    fn add_cost(&self, dst: &OpAttrs) -> f64 {
        self.structure_cost(dst) + self.assign_cost(dst)
    }

    /// `Edge` meta-operator: rewire one data-flow edge (negligible).
    fn edge_cost(&self) -> f64;

    /// Latency to deserialize a model file (negligible — Figure 3).
    fn deserialize_cost(&self, model: &ModelGraph) -> f64;

    /// Full scratch-load latency of a model:
    /// deserialize + Σ structure + Σ assign.
    fn model_load_cost(&self, model: &ModelGraph) -> f64 {
        self.load_breakdown(model).total()
    }

    /// Loading latency split into the paper's Figure 3 components.
    fn load_breakdown(&self, model: &ModelGraph) -> LoadBreakdown {
        let mut structure = 0.0;
        let mut assign = 0.0;
        for (_, op) in model.ops() {
            structure += self.structure_cost(&op.attrs);
            assign += self.assign_cost(&op.attrs);
        }
        LoadBreakdown {
            deserialize: self.deserialize_cost(model),
            structure,
            assign,
        }
    }

    /// The cheapest way to turn `src` into a structurally/weight-identical
    /// copy of `dst` *in place*: free when identical, `Replace` when only
    /// weights differ, `Reshape`+`Replace` when shapes differ within a
    /// kind, `None` across kinds.
    fn substitute_cost(&self, src: &Operation, dst: &Operation) -> Option<f64> {
        if src.kind() != dst.kind() {
            return None;
        }
        if src.attrs == dst.attrs {
            let same_weights = match (&src.weights, &dst.weights) {
                (None, None) => true,
                (Some(a), Some(b)) => a.id() == b.id(),
                _ => false,
            };
            if same_weights {
                // Identical operation: nothing to do (cost of a lookup).
                return Some(0.0);
            }
            if src.kind().has_weights() {
                return Some(self.replace_cost(&dst.attrs));
            }
            return Some(0.0);
        }
        let reshape = self.reshape_cost(&src.attrs, &dst.attrs)?;
        let replace = if dst.kind().has_weights() {
            self.replace_cost(&dst.attrs)
        } else {
            0.0
        };
        Some(reshape + replace)
    }
}

/// Calibrated parameters of the cost model. All times in seconds, all
/// per-byte rates in seconds/byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Per-kind structure-instantiation constant for heavy, weight-bearing
    /// kinds (CONV).
    pub k_conv: f64,
    /// Structure constant for dense/projection kinds.
    pub k_dense: f64,
    /// Structure constant for normalisation kinds.
    pub k_norm: f64,
    /// Structure constant for embeddings.
    pub k_embedding: f64,
    /// Structure constant for weight-free kinds (activation, pool, add…).
    pub k_light: f64,
    /// Structure cost per weight byte (variable allocation).
    pub c_struct: f64,
    /// Weight-assignment cost per byte (memcpy-like).
    pub c_assign: f64,
    /// `Replace` fixed overhead.
    pub k_replace: f64,
    /// `Reshape` fixed overhead.
    pub k_reshape: f64,
    /// `Reshape` per-byte rate when the operation grows.
    pub c_reshape_grow: f64,
    /// `Reshape` per-byte rate when the operation shrinks.
    pub c_reshape_shrink: f64,
    /// `Reduce` constant.
    pub k_reduce: f64,
    /// `Edge` constant.
    pub k_edge: f64,
    /// Deserialization fixed cost.
    pub k_deser: f64,
    /// Deserialization per-byte rate.
    pub c_deser: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // Calibration. k_conv and c_struct are tied by Figure 4's
        // CONV(3x3,512) / CONV(3x3,64) = 1.7867 ratio:
        //   c_struct = 0.7867·k_conv / (w512 − 1.7867·w64) bytes
        // with w512 = 2.36M·4 B and w64 = 36.9K·4 B  ⇒  c_struct ≈
        // 0.0857·k_conv per MB. k_conv = 30 ms gives c_struct ≈ 2.57 ns/B.
        CostParams {
            k_conv: 0.030,
            k_dense: 0.035,
            k_norm: 0.015,
            k_embedding: 0.030,
            k_light: 0.003,
            c_struct: 2.57e-9,
            c_assign: 1.0e-9,
            k_replace: 0.0005,
            k_reshape: 0.002,
            c_reshape_grow: 1.2e-9,
            c_reshape_shrink: 0.4e-9,
            k_reduce: 0.001,
            k_edge: 0.00005,
            k_deser: 0.001,
            c_deser: 5.0e-11,
        }
    }
}

/// Figure 3's decomposition of model loading.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadBreakdown {
    /// Deserializing the model file.
    pub deserialize: f64,
    /// Loading the model structure.
    pub structure: f64,
    /// Assigning weights into the structure.
    pub assign: f64,
}

impl LoadBreakdown {
    /// Total loading latency.
    pub fn total(&self) -> f64 {
        self.deserialize + self.structure + self.assign
    }

    /// Fraction of the total spent loading structure.
    pub fn structure_fraction(&self) -> f64 {
        self.structure / self.total()
    }

    /// Fraction of the total spent assigning weights.
    pub fn assign_fraction(&self) -> f64 {
        self.assign / self.total()
    }
}

/// The calibrated cost model for one execution environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    params: CostParams,
    env: Environment,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(Environment::Cpu)
    }
}

impl CostModel {
    /// Cost model for an environment with default calibration.
    pub fn new(env: Environment) -> Self {
        CostModel {
            params: CostParams::default(),
            env,
        }
    }

    /// Cost model with explicit parameters.
    pub fn with_params(env: Environment, params: CostParams) -> Self {
        CostModel { params, env }
    }

    /// The environment this model describes.
    pub fn environment(&self) -> Environment {
        self.env
    }

    /// Calibrated parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    fn kind_constant(&self, kind: OpKind) -> f64 {
        let p = &self.params;
        match kind {
            OpKind::Conv2d => p.k_conv,
            OpKind::Dense | OpKind::Query | OpKind::Key | OpKind::Value | OpKind::AttnOutput => {
                p.k_dense
            }
            OpKind::BatchNorm | OpKind::LayerNorm => p.k_norm,
            OpKind::Embedding | OpKind::PosEmbedding => p.k_embedding,
            // Input is a placeholder; everything else is a light op.
            OpKind::Input => p.k_light * 0.5,
            _ => p.k_light,
        }
    }

    fn weight_bytes(attrs: &OpAttrs) -> f64 {
        (attrs.weight_count() * 4) as f64
    }
}

impl CostProvider for CostModel {
    fn structure_cost(&self, attrs: &OpAttrs) -> f64 {
        let base =
            self.kind_constant(attrs.kind()) + self.params.c_struct * Self::weight_bytes(attrs);
        base * self.env.load_multiplier()
    }

    fn assign_cost(&self, attrs: &OpAttrs) -> f64 {
        self.params.c_assign * Self::weight_bytes(attrs) * self.env.assign_multiplier()
    }

    fn replace_cost(&self, dst: &OpAttrs) -> f64 {
        (self.params.k_replace + self.params.c_assign * Self::weight_bytes(dst))
            * self.env.assign_multiplier()
    }

    fn reshape_cost(&self, src: &OpAttrs, dst: &OpAttrs) -> Option<f64> {
        if src.kind() != dst.kind() {
            return None;
        }
        let sb = Self::weight_bytes(src);
        let db = Self::weight_bytes(dst);
        let rate = if db >= sb {
            self.params.c_reshape_grow
        } else {
            self.params.c_reshape_shrink
        };
        // Cost scales with the magnitude of the change plus a term for the
        // destination representation, matching Figure 8's observation that
        // Reshape depends on the destination operation's shape change.
        let magnitude = (db - sb).abs() + 0.25 * db.min(sb);
        Some((self.params.k_reshape + rate * magnitude) * self.env.load_multiplier())
    }

    fn reduce_cost(&self, _src: &OpAttrs) -> f64 {
        self.params.k_reduce * self.env.load_multiplier()
    }

    fn edge_cost(&self) -> f64 {
        self.params.k_edge
    }

    fn deserialize_cost(&self, model: &ModelGraph) -> f64 {
        self.params.k_deser + self.params.c_deser * model.byte_size() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_model::Padding;

    fn conv(inc: usize, outc: usize, k: usize) -> OpAttrs {
        OpAttrs::Conv2d {
            in_channels: inc,
            out_channels: outc,
            kernel: (k, k),
            stride: (1, 1),
            padding: Padding::Same,
            groups: 1,
            bias: false,
        }
    }

    #[test]
    fn figure4_conv_ratio_is_calibrated() {
        // CONV 3×3/512 loads 78.67% slower than CONV 3×3/64 (Figure 4).
        let m = CostModel::default();
        let small = m.structure_cost(&conv(64, 64, 3));
        let large = m.structure_cost(&conv(512, 512, 3));
        let ratio = large / small;
        assert!(
            (ratio - 1.7867).abs() < 0.02,
            "conv512/conv64 ratio {ratio:.4}, paper says 1.7867"
        );
    }

    #[test]
    fn figure4_conv_is_order_of_magnitude_slower_than_activation() {
        let m = CostModel::default();
        let act = m.structure_cost(&OpAttrs::Activation {
            kind: optimus_model::Activation::Relu,
        });
        let cv = m.structure_cost(&conv(64, 64, 3));
        let ratio = cv / act;
        assert!((8.0..=15.0).contains(&ratio), "conv/act ratio {ratio:.1}");
    }

    #[test]
    fn figure5c_reshape_is_fraction_of_scratch_load() {
        // Reshaping a CONV into another CONV costs roughly a third of
        // loading the destination from scratch (Figure 5c).
        let m = CostModel::default();
        let src = conv(64, 64, 1);
        let dst = conv(64, 64, 5);
        let reshape = m.reshape_cost(&src, &dst).unwrap();
        let scratch = m.add_cost(&dst);
        let frac = reshape / scratch;
        assert!(
            frac < 0.5,
            "reshape/add = {frac:.2}, should be well below 1"
        );
        assert!(frac > 0.05, "reshape suspiciously free: {frac:.3}");
    }

    #[test]
    fn shrinking_reshape_cheaper_than_growing() {
        // §8.2: transforming large→small is faster than small→large.
        let m = CostModel::default();
        let small = conv(64, 64, 3);
        let large = conv(512, 512, 3);
        let grow = m.reshape_cost(&small, &large).unwrap();
        let shrink = m.reshape_cost(&large, &small).unwrap();
        assert!(shrink < grow, "shrink {shrink} !< grow {grow}");
    }

    #[test]
    fn cross_kind_reshape_is_rejected() {
        let m = CostModel::default();
        let c = conv(8, 8, 3);
        let d = OpAttrs::Dense {
            in_features: 8,
            out_features: 8,
            bias: false,
        };
        assert!(m.reshape_cost(&c, &d).is_none());
        assert!(m.reshape_cost(&d, &c).is_none());
    }

    #[test]
    fn replace_scales_with_destination_bytes() {
        let m = CostModel::default();
        let small = m.replace_cost(&conv(64, 64, 3));
        let large = m.replace_cost(&conv(512, 512, 3));
        assert!(large > small * 10.0, "replace {large} vs {small}");
    }

    #[test]
    fn reduce_is_constant_and_edge_negligible() {
        let m = CostModel::default();
        assert_eq!(
            m.reduce_cost(&conv(8, 8, 1)),
            m.reduce_cost(&conv(512, 512, 7))
        );
        assert!(m.edge_cost() < m.reduce_cost(&conv(8, 8, 1)) / 5.0);
    }

    #[test]
    fn substitute_identical_ops_is_free() {
        let m = CostModel::default();
        let op = Operation::with_seeded_weights("c", conv(8, 8, 3), 7);
        assert_eq!(m.substitute_cost(&op, &op.clone()), Some(0.0));
    }

    #[test]
    fn substitute_same_shape_different_weights_is_replace() {
        let m = CostModel::default();
        let a = Operation::with_seeded_weights("c", conv(8, 8, 3), 7);
        let b = Operation::with_seeded_weights("c", conv(8, 8, 3), 8);
        let cost = m.substitute_cost(&a, &b).unwrap();
        assert!((cost - m.replace_cost(&b.attrs)).abs() < 1e-12);
    }

    #[test]
    fn substitute_cross_kind_is_none() {
        let m = CostModel::default();
        let a = Operation::with_seeded_weights("c", conv(8, 8, 3), 7);
        let b = Operation::weightless(
            "r",
            OpAttrs::Activation {
                kind: optimus_model::Activation::Relu,
            },
        );
        assert!(m.substitute_cost(&a, &b).is_none());
    }

    #[test]
    fn gpu_environment_loads_slower_but_assigns_faster() {
        let cpu = CostModel::new(Environment::Cpu);
        let gpu = CostModel::new(Environment::Gpu);
        let attrs = conv(64, 64, 3);
        assert!(gpu.structure_cost(&attrs) > cpu.structure_cost(&attrs));
        assert!(gpu.assign_cost(&attrs) < cpu.assign_cost(&attrs));
    }
}
