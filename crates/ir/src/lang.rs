//! [`TensorLang`]: the tensor-graph operator language of TENSAT (paper
//! Table 2), implemented as a [`Language`] for the e-graph substrate.
//!
//! Operator parameters (strides, axes, padding and activation modes) are
//! integer children ([`TensorLang::Num`]); variable-length parameters
//! (shapes, permutations) and tensor identifiers are interned strings
//! ([`TensorLang::Str`]), exactly as described in the paper.
//!
//! One departure from Table 2: the paper's `split` yields a pair cut where
//! the producing `concat` joined its inputs, which no operand's value
//! records. Here [`TensorLang::Split0`] and [`TensorLang::Split1`] each take
//! the cut as an `extent` child, so every operator's output is a function
//! of its operands' values.

use std::fmt;
use tensat_egraph::{Id, Language, Symbol};

/// Activation modes fused into `matmul`/`conv` or applied stand-alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// No activation.
    None,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Integer encoding used inside the graph representation.
    pub fn code(self) -> i64 {
        match self {
            Activation::None => 0,
            Activation::Relu => 1,
            Activation::Tanh => 2,
            Activation::Sigmoid => 3,
        }
    }

    /// Decodes an integer code; unknown codes map to `None`.
    pub fn from_code(code: i64) -> Self {
        match code {
            1 => Activation::Relu,
            2 => Activation::Tanh,
            3 => Activation::Sigmoid,
            _ => Activation::None,
        }
    }
}

/// Padding modes for convolutions and pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding ("valid").
    Valid,
    /// Output spatial size equals input spatial size ("same").
    Same,
}

impl Padding {
    /// Integer encoding used inside the graph representation.
    pub fn code(self) -> i64 {
        match self {
            Padding::Valid => 0,
            Padding::Same => 1,
        }
    }

    /// Decodes an integer code; unknown codes map to `Valid`.
    pub fn from_code(code: i64) -> Self {
        if code == 1 {
            Padding::Same
        } else {
            Padding::Valid
        }
    }
}

/// The TENSAT tensor operator language (paper Table 2).
///
/// Children are ordered exactly as in the paper's type signatures. `Num`
/// and `Str` are the parameter leaves; `Input`/`Weight` carry a string
/// identifier of the form `name@d1_d2_...` encoding the tensor shape.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TensorLang {
    /// Integer literal (parameters: strides, axes, modes, counts).
    Num(i64),
    /// Interned string literal (names, shapes, permutations).
    Str(Symbol),
    /// Input tensor; child: `Str` identifier `name@shape`.
    Input([Id; 1]),
    /// Weight tensor; child: `Str` identifier `name@shape`.
    Weight([Id; 1]),
    /// Element-wise addition; children: `input1, input2`.
    Ewadd([Id; 2]),
    /// Element-wise multiplication; children: `input1, input2`.
    Ewmul([Id; 2]),
    /// Matrix multiplication; children: `activation, input1, input2`.
    Matmul([Id; 3]),
    /// Grouped convolution; children:
    /// `stride_h, stride_w, padding, activation, input, weight`.
    Conv([Id; 6]),
    /// ReLU activation; child: `input`.
    Relu([Id; 1]),
    /// Tanh activation; child: `input`.
    Tanh([Id; 1]),
    /// Sigmoid activation; child: `input`.
    Sigmoid([Id; 1]),
    /// Max pooling; children:
    /// `input, kernel_h, kernel_w, stride_h, stride_w, padding, activation`.
    Poolmax([Id; 7]),
    /// Average pooling; children as for [`TensorLang::Poolmax`].
    Poolavg([Id; 7]),
    /// Transpose; children: `input, permutation (Str)`.
    Transpose([Id; 2]),
    /// Pad a convolution kernel with zeros to match `ref_input`'s spatial
    /// size; children: `input, ref_input`.
    Enlarge([Id; 2]),
    /// Concatenate two tensors; children: `axis, input1, input2`.
    Concat2([Id; 3]),
    /// Concatenate three tensors; children: `axis, input1..input3`.
    Concat3([Id; 4]),
    /// Concatenate four tensors; children: `axis, input1..input4`.
    Concat4([Id; 5]),
    /// Concatenate five tensors; children: `axis, input1..input5`.
    Concat5([Id; 6]),
    /// The first `extent` entries of a tensor along `axis` (the first half
    /// of a split, paper Table 2); children: `axis, extent, input`.
    Split0([Id; 3]),
    /// The entries of a tensor from `extent` on along `axis` (the second
    /// half of a split); children: `axis, extent, input`.
    Split1([Id; 3]),
    /// Update a grouped-convolution weight to merge groups;
    /// children: `weight, count`.
    Merge([Id; 2]),
    /// Reshape; children: `input, shape (Str)`.
    Reshape([Id; 2]),
    /// Combines two outputs so the overall graph is single-rooted; no
    /// runtime operator is associated with it. Children: `input1, input2`.
    Noop([Id; 2]),
}

impl TensorLang {
    /// The operator name as used in the textual (s-expression) form.
    pub fn op_name(&self) -> &'static str {
        match self {
            TensorLang::Num(_) => "num",
            TensorLang::Str(_) => "str",
            TensorLang::Input(_) => "input",
            TensorLang::Weight(_) => "weight",
            TensorLang::Ewadd(_) => "ewadd",
            TensorLang::Ewmul(_) => "ewmul",
            TensorLang::Matmul(_) => "matmul",
            TensorLang::Conv(_) => "conv",
            TensorLang::Relu(_) => "relu",
            TensorLang::Tanh(_) => "tanh",
            TensorLang::Sigmoid(_) => "sigmoid",
            TensorLang::Poolmax(_) => "poolmax",
            TensorLang::Poolavg(_) => "poolavg",
            TensorLang::Transpose(_) => "transpose",
            TensorLang::Enlarge(_) => "enlarge",
            TensorLang::Concat2(_) => "concat2",
            TensorLang::Concat3(_) => "concat3",
            TensorLang::Concat4(_) => "concat4",
            TensorLang::Concat5(_) => "concat5",
            TensorLang::Split0(_) => "split0",
            TensorLang::Split1(_) => "split1",
            TensorLang::Merge(_) => "merge",
            TensorLang::Reshape(_) => "reshape",
            TensorLang::Noop(_) => "noop",
        }
    }

    /// Constructs an operator node from its textual name and children.
    ///
    /// Leaf tokens (`Num`, `Str`, pattern variables) are not handled here;
    /// the pattern parser in `tensat-rules` deals with those. Returns an
    /// error naming the operator if the name is unknown or the arity is
    /// wrong.
    pub fn from_op(name: &str, children: Vec<Id>) -> Result<Self, String> {
        fn arr<const N: usize>(name: &str, children: Vec<Id>) -> Result<[Id; N], String> {
            let len = children.len();
            children
                .try_into()
                .map_err(|_| format!("operator `{name}` expects {N} children, got {len}"))
        }
        let node = match name {
            "input" => TensorLang::Input(arr(name, children)?),
            "weight" => TensorLang::Weight(arr(name, children)?),
            "ewadd" => TensorLang::Ewadd(arr(name, children)?),
            "ewmul" => TensorLang::Ewmul(arr(name, children)?),
            "matmul" => TensorLang::Matmul(arr(name, children)?),
            "conv" => TensorLang::Conv(arr(name, children)?),
            "relu" => TensorLang::Relu(arr(name, children)?),
            "tanh" => TensorLang::Tanh(arr(name, children)?),
            "sigmoid" => TensorLang::Sigmoid(arr(name, children)?),
            "poolmax" => TensorLang::Poolmax(arr(name, children)?),
            "poolavg" => TensorLang::Poolavg(arr(name, children)?),
            "transpose" => TensorLang::Transpose(arr(name, children)?),
            "enlarge" => TensorLang::Enlarge(arr(name, children)?),
            "concat2" => TensorLang::Concat2(arr(name, children)?),
            "concat3" => TensorLang::Concat3(arr(name, children)?),
            "concat4" => TensorLang::Concat4(arr(name, children)?),
            "concat5" => TensorLang::Concat5(arr(name, children)?),
            "split0" => TensorLang::Split0(arr(name, children)?),
            "split1" => TensorLang::Split1(arr(name, children)?),
            "merge" => TensorLang::Merge(arr(name, children)?),
            "reshape" => TensorLang::Reshape(arr(name, children)?),
            "noop" => TensorLang::Noop(arr(name, children)?),
            _ => return Err(format!("unknown operator `{name}`")),
        };
        Ok(node)
    }
}

impl Language for TensorLang {
    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (TensorLang::Num(a), TensorLang::Num(b)) => a == b,
            (TensorLang::Str(a), TensorLang::Str(b)) => a == b,
            _ => {
                std::mem::discriminant(self) == std::mem::discriminant(other)
                    && self.children().len() == other.children().len()
            }
        }
    }

    fn children(&self) -> &[Id] {
        match self {
            TensorLang::Num(_) | TensorLang::Str(_) => &[],
            TensorLang::Input(c) | TensorLang::Weight(c) => c,
            TensorLang::Ewadd(c) | TensorLang::Ewmul(c) => c,
            TensorLang::Matmul(c) => c,
            TensorLang::Conv(c) => c,
            TensorLang::Relu(c) | TensorLang::Tanh(c) | TensorLang::Sigmoid(c) => c,
            TensorLang::Poolmax(c) | TensorLang::Poolavg(c) => c,
            TensorLang::Transpose(c) | TensorLang::Enlarge(c) => c,
            TensorLang::Concat2(c) => c,
            TensorLang::Concat3(c) => c,
            TensorLang::Concat4(c) => c,
            TensorLang::Concat5(c) => c,
            TensorLang::Split0(c) | TensorLang::Split1(c) => c,
            TensorLang::Merge(c) | TensorLang::Reshape(c) | TensorLang::Noop(c) => c,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            TensorLang::Num(_) | TensorLang::Str(_) => &mut [],
            TensorLang::Input(c) | TensorLang::Weight(c) => c,
            TensorLang::Ewadd(c) | TensorLang::Ewmul(c) => c,
            TensorLang::Matmul(c) => c,
            TensorLang::Conv(c) => c,
            TensorLang::Relu(c) | TensorLang::Tanh(c) | TensorLang::Sigmoid(c) => c,
            TensorLang::Poolmax(c) | TensorLang::Poolavg(c) => c,
            TensorLang::Transpose(c) | TensorLang::Enlarge(c) => c,
            TensorLang::Concat2(c) => c,
            TensorLang::Concat3(c) => c,
            TensorLang::Concat4(c) => c,
            TensorLang::Concat5(c) => c,
            TensorLang::Split0(c) | TensorLang::Split1(c) => c,
            TensorLang::Merge(c) | TensorLang::Reshape(c) | TensorLang::Noop(c) => c,
        }
    }

    fn display_op(&self) -> String {
        match self {
            TensorLang::Num(n) => n.to_string(),
            TensorLang::Str(s) => s.to_string(),
            _ => self.op_name().to_string(),
        }
    }
}

impl fmt::Display for TensorLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_op())
    }
}

/// Encodes a tensor identifier `name@d1_d2_...` from a name and shape.
pub fn encode_identifier(name: &str, shape: &[i64]) -> Symbol {
    let dims: Vec<String> = shape.iter().map(|d| d.to_string()).collect();
    Symbol::new(format!("{name}@{}", dims.join("_")))
}

/// Decodes a tensor identifier into `(name, shape)`.
///
/// # Errors
///
/// Returns an error if the identifier has no `@shape` part or a dimension
/// fails to parse.
pub fn decode_identifier(sym: Symbol) -> Result<(String, Vec<i64>), String> {
    let s = sym.as_str();
    let (name, dims) = s
        .split_once('@')
        .ok_or_else(|| format!("identifier `{s}` missing @shape"))?;
    let shape = dims
        .split('_')
        .filter(|d| !d.is_empty())
        .map(|d| {
            d.parse::<i64>()
                .map_err(|_| format!("bad dimension `{d}` in identifier `{s}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((name.to_string(), shape))
}

/// Encodes an axis permutation as a string symbol, e.g. `[1,0]` → `"1_0"`.
pub fn encode_permutation(perm: &[usize]) -> Symbol {
    let parts: Vec<String> = perm.iter().map(|p| p.to_string()).collect();
    Symbol::new(parts.join("_"))
}

/// Decodes an axis permutation string.
pub fn decode_permutation(sym: Symbol) -> Result<Vec<usize>, String> {
    sym.as_str()
        .split('_')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| format!("bad permutation element `{p}`"))
        })
        .collect()
}

/// Encodes a target shape for `reshape` as a string symbol.
pub fn encode_shape(shape: &[i64]) -> Symbol {
    let parts: Vec<String> = shape.iter().map(|p| p.to_string()).collect();
    Symbol::new(parts.join("_"))
}

/// Decodes a target shape string.
pub fn decode_shape(sym: Symbol) -> Result<Vec<i64>, String> {
    sym.as_str()
        .split('_')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse::<i64>()
                .map_err(|_| format!("bad shape element `{p}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensat_egraph::assert_ord_contract;

    #[test]
    fn activation_and_padding_roundtrip() {
        for a in [
            Activation::None,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            assert_eq!(Activation::from_code(a.code()), a);
        }
        for p in [Padding::Valid, Padding::Same] {
            assert_eq!(Padding::from_code(p.code()), p);
        }
    }

    #[test]
    fn identifier_roundtrip() {
        let sym = encode_identifier("act1", &[32, 64, 7, 7]);
        assert_eq!(sym.as_str(), "act1@32_64_7_7");
        let (name, shape) = decode_identifier(sym).unwrap();
        assert_eq!(name, "act1");
        assert_eq!(shape, vec![32, 64, 7, 7]);
        assert!(decode_identifier(Symbol::new("noshape")).is_err());
        assert!(decode_identifier(Symbol::new("bad@1_x")).is_err());
    }

    #[test]
    fn permutation_and_shape_roundtrip() {
        let p = encode_permutation(&[1, 0, 2]);
        assert_eq!(decode_permutation(p).unwrap(), vec![1, 0, 2]);
        let s = encode_shape(&[3, 224, 224]);
        assert_eq!(decode_shape(s).unwrap(), vec![3, 224, 224]);
    }

    #[test]
    fn from_op_arity_checks() {
        let ids: Vec<Id> = (0..3).map(Id::from).collect();
        assert!(TensorLang::from_op("matmul", ids.clone()).is_ok());
        assert!(TensorLang::from_op("matmul", ids[..2].to_vec()).is_err());
        assert!(TensorLang::from_op("frobnicate", ids).is_err());
    }

    #[test]
    fn matches_distinguishes_constants_but_not_children() {
        assert!(TensorLang::Num(3).matches(&TensorLang::Num(3)));
        assert!(!TensorLang::Num(3).matches(&TensorLang::Num(4)));
        let a = TensorLang::Ewadd([Id::from(0usize), Id::from(1usize)]);
        let b = TensorLang::Ewadd([Id::from(5usize), Id::from(9usize)]);
        assert!(a.matches(&b));
        assert!(!a.matches(&TensorLang::Ewmul([Id::from(0usize), Id::from(1usize)])));
    }

    /// Pins the `Language` ordering contract (operator-major, then
    /// children-lexicographic) that the e-matching machine's range lookup
    /// relies on: pseudo-random pairs covering every pair of operators,
    /// equal and unequal literals, and children on both sides of each
    /// other.
    #[test]
    fn tensorlang_keeps_the_ordering_contract() {
        // Every operator with its arity.
        const OPS: [(&str, usize); 22] = [
            ("input", 1),
            ("weight", 1),
            ("ewadd", 2),
            ("ewmul", 2),
            ("matmul", 3),
            ("conv", 6),
            ("relu", 1),
            ("tanh", 1),
            ("sigmoid", 1),
            ("poolmax", 7),
            ("poolavg", 7),
            ("transpose", 2),
            ("enlarge", 2),
            ("concat2", 3),
            ("concat3", 4),
            ("concat4", 5),
            ("concat5", 6),
            ("split0", 3),
            ("split1", 3),
            ("merge", 2),
            ("reshape", 2),
            ("noop", 2),
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut node = |variant: usize| match variant {
            0 => TensorLang::Num(next(3) as i64 - 1),
            1 => TensorLang::Str(Symbol::new(["x@1", "y@2", "1_0"][next(3) as usize])),
            v => {
                let (name, arity) = OPS[v - 2];
                let children = (0..arity).map(|_| Id::from(next(3) as usize)).collect();
                TensorLang::from_op(name, children).expect("operator table is right")
            }
        };
        for va in 0..OPS.len() + 2 {
            for vb in 0..OPS.len() + 2 {
                for _ in 0..20 {
                    assert_ord_contract(&node(va), &node(vb));
                }
            }
        }
    }

    #[test]
    fn op_names_are_parseable() {
        // Every non-leaf operator's name must round-trip through from_op.
        let two = [Id::from(0usize), Id::from(0usize)];
        let samples: Vec<TensorLang> = vec![
            TensorLang::Ewadd(two),
            TensorLang::Matmul([two[0]; 3]),
            TensorLang::Conv([two[0]; 6]),
            TensorLang::Poolmax([two[0]; 7]),
            TensorLang::Concat3([two[0]; 4]),
            TensorLang::Split0([two[0]; 3]),
            TensorLang::Noop(two),
        ];
        for node in samples {
            let rebuilt = TensorLang::from_op(node.op_name(), node.children().to_vec()).unwrap();
            assert!(node.matches(&rebuilt));
        }
    }
}
