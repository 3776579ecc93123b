//! Shape inference, the cost model and the shape-check condition read
//! e-class analysis data in place: the only heap allocations of a call are
//! the data it produces. A counting global allocator measures each call; it
//! counts per thread, so the harness's parallel tests do not disturb each
//! other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tensat_egraph::{Analysis, Subst, Var};
use tensat_ir::{
    encode_identifier, CostModel, Id, Padding, TensorAnalysis, TensorEGraph, TensorLang,
};
use tensat_rules::{parse_pattern, shape_check};

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn counted() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands the caller's arguments to `System` unchanged
// and returns its answer unchanged; the counter touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `realloc`'s contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the number of allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

struct Fixture {
    eg: TensorEGraph,
    x: Id,
    w1: Id,
    w2: Id,
    /// `(matmul 0 x (concat2 1 w1 w2))`, shape [8, 96].
    root: Id,
    matmul: TensorLang,
    conv: TensorLang,
}

fn leaf(eg: &mut TensorEGraph, name: &str, shape: &[i64], weight: bool) -> Id {
    let s = eg.add(TensorLang::Str(encode_identifier(name, shape)));
    eg.add(if weight {
        TensorLang::Weight([s])
    } else {
        TensorLang::Input([s])
    })
}

fn fixture() -> Fixture {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let x = leaf(&mut eg, "x", &[8, 128], false);
    let w1 = leaf(&mut eg, "w1", &[128, 64], true);
    let w2 = leaf(&mut eg, "w2", &[128, 32], true);
    let image = leaf(&mut eg, "image", &[1, 64, 56, 56], false);
    let kernel = leaf(&mut eg, "kernel", &[128, 64, 3, 3], true);
    let zero = eg.add(TensorLang::Num(0));
    let one = eg.add(TensorLang::Num(1));
    let same = eg.add(TensorLang::Num(Padding::Same.code()));
    let cat = eg.add(TensorLang::Concat2([one, w1, w2]));
    let matmul = TensorLang::Matmul([zero, x, w1]);
    eg.add(matmul.clone());
    let conv = TensorLang::Conv([one, one, same, zero, image, kernel]);
    eg.add(conv.clone());
    let root = eg.add(TensorLang::Matmul([zero, x, cat]));
    eg.rebuild();
    Fixture {
        eg,
        x,
        w1,
        w2,
        root,
        matmul,
        conv,
    }
}

#[test]
fn a_cost_model_call_allocates_only_its_output_shape() {
    let f = fixture();
    let model = CostModel::default();
    let get = |id: Id| &f.eg.eclass(id).data;
    for node in [&f.matmul, &f.conv] {
        let (cost, n) = allocations(|| model.node_cost(node, &get));
        assert!(cost.is_finite() && cost > 0.0, "{node:?}: {cost:?}");
        assert!(n <= 1, "{node:?}: {n} allocations");
    }
}

#[test]
fn the_analysis_allocates_only_its_output_shape() {
    let f = fixture();
    let (data, n) = allocations(|| TensorAnalysis::make(&f.eg, &f.matmul));
    assert_eq!(data.shape(), Some(&[8, 64][..]));
    assert!(n <= 1, "{n} allocations");
}

#[test]
fn the_shape_check_borrows_every_bound_variable() {
    let f = fixture();
    let check = shape_check(parse_pattern("(matmul 0 ?x (concat2 1 ?w1 ?w2))").unwrap());
    let mut subst = Subst::new();
    subst.insert(Var::new("x"), f.x);
    subst.insert(Var::new("w1"), f.w1);
    subst.insert(Var::new("w2"), f.w2);
    let (ok, n) = allocations(|| check(&f.eg, f.root, &subst));
    assert!(ok);
    // The pattern's data list, concat's list of parts, and one shape per
    // tensor operator: the three bound tensors are read in place.
    assert!(n <= 4, "{n} allocations");
}
