//! [`TensorAnalysis`]: the e-class analysis attaching [`TensorData`] (shape,
//! layout, split position, weights-only flag) to every e-class, used for
//! shape checking during the exploration phase (paper §4 and §6).

use crate::shape::{infer, TensorData};
use crate::TensorLang;
use tensat_egraph::{Analysis, DidMerge, EGraph, Id};

/// E-class analysis computing [`TensorData`] for every class.
///
/// Because all e-nodes in a class are semantically equivalent, they must
/// agree on the output shape; `merge` therefore prefers whichever side is
/// valid and combines the `weights_only` flags (if any representation of a
/// value is computable from weights alone, the value is a constant at
/// inference time).
#[derive(Debug, Clone, Copy, Default)]
pub struct TensorAnalysis;

impl Analysis<TensorLang> for TensorAnalysis {
    type Data = TensorData;

    fn make(egraph: &EGraph<TensorLang, Self>, enode: &TensorLang) -> Self::Data {
        let get = |id: Id| egraph.eclass(id).data.clone();
        infer(enode, &get)
    }

    fn merge(&mut self, to: &mut Self::Data, from: Self::Data) -> DidMerge {
        use TensorData::*;
        match (&mut *to, from) {
            (Invalid(_), from @ (Scalar(_) | Str(_) | Tensor(_) | Tuple(..))) => {
                *to = from;
                DidMerge(true, false)
            }
            (_, Invalid(_)) => DidMerge(false, true),
            (Tensor(a), Tensor(b)) => {
                let mut did = DidMerge(false, false);
                if !a.weights_only && b.weights_only {
                    a.weights_only = true;
                    did.0 = true;
                } else if a.weights_only && !b.weights_only {
                    did.1 = true;
                }
                if a.split_at.is_none() && b.split_at.is_some() {
                    a.split_at = b.split_at;
                    did.0 = true;
                } else if a.split_at.is_some() && a.split_at != b.split_at {
                    did.1 = true;
                }
                if a.shape != b.shape {
                    // Equivalent terms should agree on shape; if they do not
                    // (which indicates an unsound rewrite), keep the existing
                    // data and note that the other side differed.
                    did.1 = true;
                }
                did
            }
            _ => DidMerge(false, false),
        }
    }
}

/// A type alias for the e-graph specialised to the tensor language.
pub type TensorEGraph = EGraph<TensorLang, TensorAnalysis>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::encode_identifier;
    use tensat_egraph::Symbol;

    fn add_input(eg: &mut TensorEGraph, name: &str, shape: &[i64]) -> Id {
        let s = eg.add(TensorLang::Str(encode_identifier(name, shape)));
        eg.add(TensorLang::Input([s]))
    }

    fn add_weight(eg: &mut TensorEGraph, name: &str, shape: &[i64]) -> Id {
        let s = eg.add(TensorLang::Str(encode_identifier(name, shape)));
        eg.add(TensorLang::Weight([s]))
    }

    #[test]
    fn analysis_computes_shapes_in_egraph() {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let a = add_input(&mut eg, "a", &[8, 128]);
        let w = add_weight(&mut eg, "w", &[128, 64]);
        let act = eg.add(TensorLang::Num(0));
        let mm = eg.add(TensorLang::Matmul([act, a, w]));
        eg.rebuild();
        assert_eq!(eg.eclass(mm).data.shape().unwrap(), &[8, 64]);
        assert_eq!(eg.eclass(a).data.shape().unwrap(), &[8, 128]);
    }

    #[test]
    fn merge_prefers_valid_data() {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        // A split without concat history is invalid...
        let x = add_input(&mut eg, "x", &[128, 96]);
        let one = eg.add(TensorLang::Num(1));
        let bad_split = eg.add(TensorLang::Split([one, x]));
        let s0 = eg.add(TensorLang::Split0([bad_split]));
        assert!(!eg.eclass(s0).data.is_valid());
        // ...but once unioned with a valid tensor, the class data is valid.
        let a = add_input(&mut eg, "a", &[128, 64]);
        eg.union(s0, a);
        eg.rebuild();
        assert!(eg.eclass(s0).data.is_valid());
        assert_eq!(eg.eclass(s0).data.shape().unwrap(), &[128, 64]);
    }

    #[test]
    fn weights_only_flag_propagates_through_union() {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let x = add_input(&mut eg, "x", &[64, 64]);
        let w1 = add_weight(&mut eg, "w1", &[64, 64]);
        let w2 = add_weight(&mut eg, "w2", &[64, 64]);
        // (ewadd w1 w2) is weights-only; x is not. Unioning them marks the
        // class as weights-only (the value is provably a constant).
        let ww = eg.add(TensorLang::Ewadd([w1, w2]));
        assert!(eg.eclass(ww).data.as_tensor().unwrap().weights_only);
        eg.union(ww, x);
        eg.rebuild();
        assert!(eg.eclass(x).data.as_tensor().unwrap().weights_only);
        let _ = Symbol::new("unused");
    }
}
