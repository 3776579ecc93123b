//! Criterion micro-benchmarks of the e-graph substrate: add/union/rebuild
//! throughput and e-matching, the operations that dominate the exploration
//! phase.

use criterion::{criterion_group, criterion_main, Criterion};
use tensat_ir::{GraphBuilder, TensorAnalysis, TensorEGraph};
use tensat_models::{build_benchmark, ModelScale};
use tensat_rules::single_rules;

fn build_graph(n: usize) -> tensat_egraph::RecExpr<tensat_ir::TensorLang> {
    let mut g = GraphBuilder::new();
    let x = g.input("x", &[32, 64]);
    let mut outs = vec![];
    for i in 0..n {
        let w = g.weight(&format!("w{i}"), &[64, 64]);
        let m = g.matmul(x, w);
        outs.push(g.relu(m));
    }
    g.finish(&outs)
}

fn bench_add_and_rebuild(c: &mut Criterion) {
    let graph = build_graph(32);
    c.bench_function("egraph_add_expr_rebuild_32_branches", |b| {
        b.iter(|| {
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&graph);
            eg.rebuild();
            std::hint::black_box(root)
        })
    });
}

fn bench_ematching(c: &mut Criterion) {
    let graph = build_graph(32);
    let mut eg = TensorEGraph::new(TensorAnalysis);
    eg.add_expr(&graph);
    eg.rebuild();
    let rules = single_rules();
    c.bench_function("ematch_all_rules_32_branches", |b| {
        b.iter(|| {
            let total: usize = rules.iter().map(|r| r.search(&eg).len()).sum();
            std::hint::black_box(total)
        })
    });
}

/// Head-to-head search micro-benchmark on real benchmark model e-graphs:
/// the compiled, op-indexed e-matching machine ([`tensat_egraph::Pattern::search`],
/// `ematch_machine_*`, what `Rewrite::search` runs in production) versus
/// the parallel sharded driver ([`tensat_egraph::search_all_parallel`] with
/// 4 threads, bit-identical match lists) versus the legacy recursive
/// matcher kept as the differential-testing oracle
/// ([`tensat_egraph::Pattern::search_naive`]).
/// The e-graph is grown by two exploration iterations first so classes hold
/// multiple nodes, as they do during saturation (bigger than the
/// one-iteration setup this bench used before the parallel driver existed,
/// so absolute numbers are not comparable across PRs).
fn bench_machine_vs_naive_on_models(c: &mut Criterion) {
    let rules = single_rules();
    for model in ["BERT", "ResNeXt-50"] {
        // Two exploration iterations on the default model scale: the search
        // workload must be large enough (hundreds of microseconds) that the
        // parallel driver's thread-spawn cost is amortized — on a tiny
        // e-graph the sharded search measures spawn overhead, not matching.
        let graph = build_benchmark(model, ModelScale::default());
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let root = eg.add_expr(&graph);
        eg.rebuild();
        tensat_core::explore(
            &mut eg,
            root,
            &rules,
            &[],
            &tensat_core::ExplorationConfig {
                max_iter: 2,
                node_limit: 20_000,
                search_threads: 1,
                ..Default::default()
            },
        );

        c.bench_function(&format!("ematch_machine_{model}"), |b| {
            b.iter(|| {
                let total: usize = rules
                    .iter()
                    .flat_map(|r| r.search(&eg))
                    .map(|m| m.substs.len())
                    .sum();
                std::hint::black_box(total)
            })
        });
        c.bench_function(&format!("ematch_parallel_{model}"), |b| {
            let searchers: Vec<_> = rules.iter().map(|r| &r.searcher).collect();
            b.iter(|| {
                let total: usize = tensat_egraph::search_all_parallel(&searchers, &eg, 4)
                    .iter()
                    .flat_map(|ms| ms.iter().map(|m| m.substs.len()))
                    .sum();
                std::hint::black_box(total)
            })
        });
        c.bench_function(&format!("ematch_naive_{model}"), |b| {
            b.iter(|| {
                let total: usize = rules
                    .iter()
                    .flat_map(|r| r.searcher.search_naive(&eg))
                    .map(|m| m.substs.len())
                    .sum();
                std::hint::black_box(total)
            })
        });
    }
}

fn bench_one_exploration_iteration(c: &mut Criterion) {
    let graph = build_graph(8);
    let rules = single_rules();
    c.bench_function("explore_one_iteration_8_branches", |b| {
        b.iter(|| {
            let mut eg = TensorEGraph::new(TensorAnalysis);
            let root = eg.add_expr(&graph);
            eg.rebuild();
            let stats = tensat_core::explore(
                &mut eg,
                root,
                &rules,
                &[],
                &tensat_core::ExplorationConfig {
                    max_iter: 1,
                    // Pinned: the default is env/core-count dependent, and
                    // this e-graph is far too small for sharding to pay —
                    // unpinned, the bench would measure spawn overhead and
                    // drift across hosts.
                    search_threads: 1,
                    ..Default::default()
                },
            );
            std::hint::black_box(stats.enodes)
        })
    });
}

criterion_group!(
    benches,
    bench_add_and_rebuild,
    bench_ematching,
    bench_machine_vs_naive_on_models,
    bench_one_exploration_iteration
);
criterion_main!(benches);
