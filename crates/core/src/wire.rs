//! Hand-written binary codec for the types a [`TransformPlan`] reaches —
//! the entry payload of a [`PlanArtifact`](crate::PlanArtifact) v2.
//!
//! Integers are LEB128 varints, `f64`/`f32` and weight seeds are raw
//! little-endian, strings and sequences are count-prefixed, enums are one
//! tag byte followed by their fields in declaration order. There is no
//! intermediate value tree: [`Wire::put`] appends to one `Vec<u8>`,
//! [`Wire::get`] builds the value straight from a [`Reader`].
//!
//! The decoder treats its input as hostile: every count prefix is checked
//! against the bytes that remain (a count of `n` must be followed by at
//! least `n · MIN_BYTES` bytes) *before* anything is allocated for it,
//! nesting is depth-bounded, and every failure is a [`WireError`], never
//! a panic.
//!
//! Wall-clock `planning_seconds` is deliberately not encoded: it is the
//! one field of a plan that differs between two processes planning the
//! same pair, and persisted bytes must not. Decoded plans carry `0.0`.

use optimus_model::{
    Activation, OpAttrs, OpId, Operation, Padding, PoolKind, TensorShape, WeightInit, WeightSpec,
    Weights,
};

use crate::metaop::{MetaOp, PlanCost, TransformPlan};

/// Why a byte string is not an encoded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireError(pub(crate) &'static str);

type Result<T> = std::result::Result<T, WireError>;

/// `CropPad` weight specs nest; real plans are one or two deep. The bound
/// keeps a hostile chain from overflowing the stack in decode, and later
/// in the recursive `Drop`/`Clone`/`PartialEq` of the decoded value.
const MAX_NESTING: u32 = 32;

/// Cursor over untrusted bytes; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    depth: u32,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, depth: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(WireError("truncated"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7F);
            if shift == 63 && low > 1 {
                return Err(WireError("varint overflows 64 bits"));
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError("varint longer than 10 bytes"))
    }

    /// A count prefix for elements of at least `min_bytes` each, rejected
    /// when the remaining input could not hold that many.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = usize::get(self)?;
        if n > self.buf.len() / min_bytes {
            return Err(WireError("count exceeds the remaining input"));
        }
        Ok(n)
    }

    fn tag(&mut self, variants: u8) -> Result<u8> {
        let tag = self.u8()?;
        if tag >= variants {
            return Err(WireError("unknown enum tag"));
        }
        Ok(tag)
    }
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A type with a binary form.
pub(crate) trait Wire: Sized {
    /// Fewest bytes one encoded value takes — what a count prefix is
    /// checked against before a `Vec` is sized from it.
    const MIN_BYTES: usize;

    fn put(&self, out: &mut Vec<u8>);

    fn get(r: &mut Reader<'_>) -> Result<Self>;
}

impl Wire for usize {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        usize::try_from(r.varint()?).map_err(|_| WireError("integer exceeds usize"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(r.tag(2)? == 1)
    }
}

impl Wire for f32 {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f32::from_le_bytes(r.array()?))
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(f64::from_le_bytes(r.array()?))
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.count(1)?;
        std::str::from_utf8(r.take(len)?)
            .map(str::to_owned)
            .map_err(|_| WireError("string is not UTF-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for item in self {
            item.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count(T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.tag(2)? {
            0 => None,
            _ => Some(T::get(r)?),
        })
    }
}

impl Wire for OpId {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.0));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        u32::try_from(r.varint()?)
            .map(OpId)
            .map_err(|_| WireError("operation id exceeds u32"))
    }
}

impl Wire for TensorShape {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TensorShape(Vec::get(r)?))
    }
}

impl Wire for WeightSpec {
    const MIN_BYTES: usize = 2;

    fn put(&self, out: &mut Vec<u8>) {
        self.shape.put(out);
        match &self.init {
            WeightInit::Zeros => out.push(0),
            WeightInit::Seeded(seed) => {
                out.push(1);
                out.extend_from_slice(&seed.to_le_bytes());
            }
            WeightInit::Dense(values) => {
                out.push(2);
                values.put(out);
            }
            WeightInit::CropPad(src) => {
                out.push(3);
                src.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        let shape = TensorShape::get(r)?;
        let init = match r.tag(4)? {
            0 => WeightInit::Zeros,
            1 => WeightInit::Seeded(u64::from_le_bytes(r.array()?)),
            2 => WeightInit::Dense(Vec::get(r)?),
            _ => {
                if r.depth == MAX_NESTING {
                    return Err(WireError("weight spec nested too deeply"));
                }
                r.depth += 1;
                let src = WeightSpec::get(r)?;
                r.depth -= 1;
                WeightInit::CropPad(Box::new(src))
            }
        };
        Ok(WeightSpec { shape, init })
    }
}

impl Wire for Weights {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.tensors.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Weights {
            tensors: Vec::get(r)?,
        })
    }
}

/// `Wire` for a field-less enum: the tag is the variant's position in
/// the list.
macro_rules! wire_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        const _: () = {
            const ALL: &[$ty] = &[$($ty::$variant),+];

            impl Wire for $ty {
                const MIN_BYTES: usize = 1;

                fn put(&self, out: &mut Vec<u8>) {
                    let tag = ALL.iter().position(|v| v == self).expect("variant is listed");
                    out.push(tag as u8);
                }

                fn get(r: &mut Reader<'_>) -> Result<Self> {
                    Ok(ALL[usize::from(r.tag(ALL.len() as u8)?)])
                }
            }
        };
    };
}

wire_unit_enum!(Activation {
    Relu,
    Relu6,
    Sigmoid,
    Tanh,
    Gelu,
    Swish,
    Softmax
});
wire_unit_enum!(PoolKind { Max, Avg });
wire_unit_enum!(Padding { Valid, Same });

impl Wire for OpAttrs {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        // Tag byte, then each field in order.
        macro_rules! put {
            ($tag:literal $(, $field:expr)*) => {{
                out.push($tag);
                $($field.put(out);)*
            }};
        }
        match self {
            OpAttrs::Input { shape } => put!(0, shape),
            OpAttrs::Conv2d {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                bias,
            } => put!(
                1,
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                groups,
                bias
            ),
            OpAttrs::Dense {
                in_features,
                out_features,
                bias,
            } => put!(2, in_features, out_features, bias),
            OpAttrs::BatchNorm { features } => put!(3, features),
            OpAttrs::LayerNorm { features } => put!(4, features),
            OpAttrs::Activation { kind } => put!(5, kind),
            OpAttrs::Pool2d {
                kind,
                size,
                stride,
                padding,
            } => put!(6, kind, size, stride, padding),
            OpAttrs::GlobalPool { kind } => put!(7, kind),
            OpAttrs::Add => put!(8),
            OpAttrs::Concat => put!(9),
            OpAttrs::Flatten => put!(10),
            OpAttrs::Dropout { rate } => put!(11, rate),
            OpAttrs::ZeroPad { pad } => put!(12, pad),
            OpAttrs::Embedding { vocab, hidden } => put!(13, vocab, hidden),
            OpAttrs::PosEmbedding { max_len, hidden } => put!(14, max_len, hidden),
            OpAttrs::Query { hidden, heads } => put!(15, hidden, heads),
            OpAttrs::Key { hidden, heads } => put!(16, hidden, heads),
            OpAttrs::Value { hidden, heads } => put!(17, hidden, heads),
            OpAttrs::AttnOutput { hidden } => put!(18, hidden),
            OpAttrs::Logit { heads } => put!(19, heads),
            OpAttrs::Attend { heads } => put!(20, heads),
            OpAttrs::Softmax => put!(21),
            OpAttrs::Lstm { input, hidden } => put!(22, input, hidden),
            OpAttrs::Gru { input, hidden } => put!(23, input, hidden),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.tag(24)? {
            0 => OpAttrs::Input {
                shape: Wire::get(r)?,
            },
            1 => OpAttrs::Conv2d {
                in_channels: Wire::get(r)?,
                out_channels: Wire::get(r)?,
                kernel: Wire::get(r)?,
                stride: Wire::get(r)?,
                padding: Wire::get(r)?,
                groups: Wire::get(r)?,
                bias: Wire::get(r)?,
            },
            2 => OpAttrs::Dense {
                in_features: Wire::get(r)?,
                out_features: Wire::get(r)?,
                bias: Wire::get(r)?,
            },
            3 => OpAttrs::BatchNorm {
                features: Wire::get(r)?,
            },
            4 => OpAttrs::LayerNorm {
                features: Wire::get(r)?,
            },
            5 => OpAttrs::Activation {
                kind: Wire::get(r)?,
            },
            6 => OpAttrs::Pool2d {
                kind: Wire::get(r)?,
                size: Wire::get(r)?,
                stride: Wire::get(r)?,
                padding: Wire::get(r)?,
            },
            7 => OpAttrs::GlobalPool {
                kind: Wire::get(r)?,
            },
            8 => OpAttrs::Add,
            9 => OpAttrs::Concat,
            10 => OpAttrs::Flatten,
            11 => OpAttrs::Dropout {
                rate: Wire::get(r)?,
            },
            12 => OpAttrs::ZeroPad { pad: Wire::get(r)? },
            13 => OpAttrs::Embedding {
                vocab: Wire::get(r)?,
                hidden: Wire::get(r)?,
            },
            14 => OpAttrs::PosEmbedding {
                max_len: Wire::get(r)?,
                hidden: Wire::get(r)?,
            },
            15 => OpAttrs::Query {
                hidden: Wire::get(r)?,
                heads: Wire::get(r)?,
            },
            16 => OpAttrs::Key {
                hidden: Wire::get(r)?,
                heads: Wire::get(r)?,
            },
            17 => OpAttrs::Value {
                hidden: Wire::get(r)?,
                heads: Wire::get(r)?,
            },
            18 => OpAttrs::AttnOutput {
                hidden: Wire::get(r)?,
            },
            19 => OpAttrs::Logit {
                heads: Wire::get(r)?,
            },
            20 => OpAttrs::Attend {
                heads: Wire::get(r)?,
            },
            21 => OpAttrs::Softmax,
            22 => OpAttrs::Lstm {
                input: Wire::get(r)?,
                hidden: Wire::get(r)?,
            },
            _ => OpAttrs::Gru {
                input: Wire::get(r)?,
                hidden: Wire::get(r)?,
            },
        })
    }
}

impl Wire for Operation {
    const MIN_BYTES: usize = 3;

    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        self.attrs.put(out);
        self.weights.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Operation {
            name: Wire::get(r)?,
            attrs: Wire::get(r)?,
            weights: Wire::get(r)?,
        })
    }
}

impl Wire for MetaOp {
    const MIN_BYTES: usize = 2;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            MetaOp::Replace { src, weights } => {
                out.push(0);
                src.put(out);
                weights.put(out);
            }
            MetaOp::Reshape { src, attrs } => {
                out.push(1);
                src.put(out);
                attrs.put(out);
            }
            MetaOp::Reduce { src } => {
                out.push(2);
                src.put(out);
            }
            MetaOp::Add { op, dst } => {
                out.push(3);
                op.put(out);
                dst.put(out);
            }
            MetaOp::EdgeAdd { from, to } => {
                out.push(4);
                from.put(out);
                to.put(out);
            }
            MetaOp::EdgeRemove { from, to } => {
                out.push(5);
                from.put(out);
                to.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.tag(6)? {
            0 => MetaOp::Replace {
                src: Wire::get(r)?,
                weights: Wire::get(r)?,
            },
            1 => MetaOp::Reshape {
                src: Wire::get(r)?,
                attrs: Wire::get(r)?,
            },
            2 => MetaOp::Reduce { src: Wire::get(r)? },
            3 => MetaOp::Add {
                op: Wire::get(r)?,
                dst: Wire::get(r)?,
            },
            4 => MetaOp::EdgeAdd {
                from: Wire::get(r)?,
                to: Wire::get(r)?,
            },
            _ => MetaOp::EdgeRemove {
                from: Wire::get(r)?,
                to: Wire::get(r)?,
            },
        })
    }
}

impl Wire for PlanCost {
    const MIN_BYTES: usize = 45;

    fn put(&self, out: &mut Vec<u8>) {
        for seconds in [self.replace, self.reshape, self.reduce, self.add, self.edge] {
            seconds.put(out);
        }
        for steps in [
            self.n_replace,
            self.n_reshape,
            self.n_reduce,
            self.n_add,
            self.n_edge,
        ] {
            steps.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(PlanCost {
            replace: Wire::get(r)?,
            reshape: Wire::get(r)?,
            reduce: Wire::get(r)?,
            add: Wire::get(r)?,
            edge: Wire::get(r)?,
            n_replace: Wire::get(r)?,
            n_reshape: Wire::get(r)?,
            n_reduce: Wire::get(r)?,
            n_add: Wire::get(r)?,
            n_edge: Wire::get(r)?,
        })
    }
}

impl Wire for TransformPlan {
    const MIN_BYTES: usize = 50;

    fn put(&self, out: &mut Vec<u8>) {
        self.src_model.put(out);
        self.dst_model.put(out);
        self.planner.put(out);
        self.cost.put(out);
        self.mapping.put(out);
        self.steps.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(TransformPlan {
            src_model: Wire::get(r)?,
            dst_model: Wire::get(r)?,
            planner: Wire::get(r)?,
            cost: Wire::get(r)?,
            mapping: Wire::get(r)?,
            steps: Wire::get(r)?,
            planning_seconds: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let mut bytes = Vec::new();
        value.put(&mut bytes);
        assert!(bytes.len() >= T::MIN_BYTES, "{value:?} encodes shorter");
        let mut r = Reader::new(&bytes);
        assert_eq!(&T::get(&mut r).expect("decodes"), value);
        assert!(r.is_empty(), "{value:?} left bytes unread");
        // Every strict prefix is an error, never a panic or a value.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                T::get(&mut r).is_err(),
                "{value:?} decoded from {cut} bytes"
            );
        }
    }

    #[test]
    fn varints_roundtrip_at_the_boundaries() {
        for v in [0usize, 1, 127, 128, 16_383, 16_384, usize::MAX] {
            roundtrip(&v);
        }
        // Eleven continuation bytes, and a tenth byte past bit 63.
        assert!(usize::get(&mut Reader::new(&[0x80; 11])).is_err());
        let mut over = [0xFF; 10];
        over[9] = 0x02;
        assert!(usize::get(&mut Reader::new(&over)).is_err());
    }

    /// One operation per `OpAttrs` variant, one weight spec per
    /// `WeightInit` variant (nested `CropPad` included), one step per
    /// `MetaOp` variant.
    #[test]
    fn every_variant_roundtrips() {
        let attrs = vec![
            OpAttrs::Input {
                shape: TensorShape::new([1, 3, 224, 224]),
            },
            OpAttrs::Conv2d {
                in_channels: 3,
                out_channels: 64,
                kernel: (7, 7),
                stride: (2, 2),
                padding: Padding::Same,
                groups: 1,
                bias: true,
            },
            OpAttrs::Dense {
                in_features: 512,
                out_features: 1000,
                bias: false,
            },
            OpAttrs::BatchNorm { features: 64 },
            OpAttrs::LayerNorm { features: 768 },
            OpAttrs::Activation {
                kind: Activation::Softmax,
            },
            OpAttrs::Pool2d {
                kind: PoolKind::Avg,
                size: (3, 3),
                stride: (2, 2),
                padding: Padding::Valid,
            },
            OpAttrs::GlobalPool {
                kind: PoolKind::Max,
            },
            OpAttrs::Add,
            OpAttrs::Concat,
            OpAttrs::Flatten,
            OpAttrs::Dropout { rate: 0.1 },
            OpAttrs::ZeroPad { pad: (1, 2) },
            OpAttrs::Embedding {
                vocab: 30_522,
                hidden: 768,
            },
            OpAttrs::PosEmbedding {
                max_len: 512,
                hidden: 768,
            },
            OpAttrs::Query {
                hidden: 768,
                heads: 12,
            },
            OpAttrs::Key {
                hidden: 768,
                heads: 12,
            },
            OpAttrs::Value {
                hidden: 768,
                heads: 12,
            },
            OpAttrs::AttnOutput { hidden: 768 },
            OpAttrs::Logit { heads: 12 },
            OpAttrs::Attend { heads: 12 },
            OpAttrs::Softmax,
            OpAttrs::Lstm {
                input: 128,
                hidden: 256,
            },
            OpAttrs::Gru {
                input: 128,
                hidden: 256,
            },
        ];
        assert_eq!(attrs.len(), optimus_model::OpKind::ALL.len());
        let nested = WeightSpec::crop_pad_of(
            WeightSpec::crop_pad_of(WeightSpec::seeded([4, 4], u64::MAX), [2, 6]),
            [3, 3],
        );
        let weights = Weights::new(vec![
            WeightSpec::zeros([8]),
            WeightSpec::dense([2, 2], vec![0.5, -1.25, f32::MIN_POSITIVE, 3.0]),
            nested,
        ]);
        let mut steps: Vec<MetaOp> = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| MetaOp::Reshape {
                src: OpId(i as u32),
                attrs: a.clone(),
            })
            .collect();
        steps.extend([
            MetaOp::Replace {
                src: OpId(u32::MAX),
                weights: weights.clone(),
            },
            MetaOp::Reduce { src: OpId(7) },
            MetaOp::Add {
                op: Operation {
                    name: "block3.attn.query ✓".to_string(),
                    attrs: attrs[15].clone(),
                    weights: Some(weights),
                },
                dst: OpId(200),
            },
            MetaOp::Add {
                op: Operation::weightless("relu", attrs[5].clone()),
                dst: OpId(201),
            },
            MetaOp::EdgeAdd {
                from: OpId(1),
                to: OpId(2),
            },
            MetaOp::EdgeRemove {
                from: OpId(300),
                to: OpId(0),
            },
        ]);
        roundtrip(&TransformPlan {
            src_model: "a".to_string(),
            dst_model: String::new(),
            steps,
            mapping: vec![(OpId(0), OpId(1)), (OpId(128), OpId(129))],
            cost: PlanCost {
                replace: 0.25,
                reshape: 1e-9,
                reduce: 0.0,
                add: f64::MAX,
                edge: -0.0,
                n_replace: 1,
                n_reshape: 24,
                n_reduce: 1,
                n_add: 2,
                n_edge: 2,
            },
            planner: "group".to_string(),
            planning_seconds: 0.0,
        });
    }

    #[test]
    fn planning_seconds_is_not_encoded() {
        let plan = |planning_seconds| TransformPlan {
            src_model: "a".to_string(),
            dst_model: "b".to_string(),
            steps: vec![MetaOp::Reduce { src: OpId(1) }],
            mapping: Vec::new(),
            cost: PlanCost::default(),
            planner: "group".to_string(),
            planning_seconds,
        };
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        plan(1e-6).put(&mut fast);
        plan(3.5).put(&mut slow);
        assert_eq!(fast, slow);
        let back = TransformPlan::get(&mut Reader::new(&slow)).unwrap();
        assert_eq!(back.planning_seconds, 0.0);
    }

    #[test]
    fn counts_larger_than_the_input_are_rejected_before_allocation() {
        // A steps vector claiming usize::MAX elements, then nothing.
        let mut bytes = Vec::new();
        usize::MAX.put(&mut bytes);
        assert_eq!(
            Vec::<MetaOp>::get(&mut Reader::new(&bytes)),
            Err(WireError("count exceeds the remaining input"))
        );
        // A dense tensor claiming more f32s than there are bytes.
        let mut bytes = Vec::new();
        TensorShape::new([2]).put(&mut bytes);
        bytes.push(2);
        9usize.put(&mut bytes);
        bytes.extend_from_slice(&[0; 32]);
        assert!(WeightSpec::get(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn crop_pad_chains_are_depth_bounded() {
        let chain = |depth: u32| {
            let mut bytes = Vec::new();
            for _ in 0..depth {
                bytes.extend_from_slice(&[0, 3]); // rank-0 shape, CropPad
            }
            bytes.extend_from_slice(&[0, 0]); // rank-0 shape, Zeros
            bytes
        };
        assert!(WeightSpec::get(&mut Reader::new(&chain(MAX_NESTING))).is_ok());
        assert_eq!(
            WeightSpec::get(&mut Reader::new(&chain(MAX_NESTING + 1))),
            Err(WireError("weight spec nested too deeply"))
        );
        // Deep enough to overflow the stack if it were followed.
        assert!(WeightSpec::get(&mut Reader::new(&chain(2_000_000))).is_err());
    }
}
