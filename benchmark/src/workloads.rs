//! The four workloads. Each is a fixed list of `(model, scale, limits,
//! extractor)` rows chosen so that one layer of the library carries the
//! time; `README.md` gives the sizing runs behind every number here.

use std::time::Duration;
use tensat_core::{
    CycleFilter, ExplorationMode, ExtractionMode, GuidedConfig, OptimizerConfig, TasoConfig,
};
use tensat_egraph::{RecExpr, Symbol};
use tensat_ir::{CostModel, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};

/// A workload's name and the reason it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zoo7_small",
        why: "all 7 models x k_multi 1,2 on 67-2004 e-node e-graphs: per-call fixed costs and \
              the multi-pattern product carry the time; big-e-graph mechanisms are bypassed",
    },
    Workload {
        name: "bert_apply",
        why: "BERT saturated to 20k e-nodes: apply and the descendants-map cycle pre-filter \
              dominate (~140k matches per late iteration add <800 e-nodes)",
    },
    Workload {
        name: "nasnet_search",
        why: "NasNet-A at 4 cells to 30k e-nodes: e-matching search dominates and it alone \
              exceeds the 2048-candidate spawn threshold; apply work should barely move it",
    },
    Workload {
        name: "ilp_extract",
        why: "three e-graphs whose reduced ILPs prove Optimal: >90% of the op is extraction \
              reduce/encode/solve, so explore-side changes predict no change",
    },
];

/// One graph of a workload with the configuration it is optimized under.
pub struct Case {
    /// `<model>/b<blocks>/k<k_multi>/n<node_limit>`, unique within the workload.
    pub label: String,
    pub graph: RecExpr<TensorLang>,
    pub config: OptimizerConfig,
}

/// The scale every sizing run used. Scales are pinned because some do not
/// optimize at all: VGG-19 at `blocks: 8` returns `NoFiniteTerm`.
const BASE: ModelScale = ModelScale {
    blocks: 2,
    hidden: 128,
    batch: 8,
};

struct Row {
    model: &'static str,
    blocks: usize,
    k_multi: usize,
    node_limit: usize,
    extraction: ExtractionMode,
}

fn rows(workload: &str) -> Option<Vec<Row>> {
    use ExtractionMode::{GreedyDag, Ilp};
    let row = |model, blocks, k_multi, node_limit, extraction| Row {
        model,
        blocks,
        k_multi,
        node_limit,
        extraction,
    };
    Some(match workload {
        "zoo7_small" => BENCHMARKS
            .iter()
            .flat_map(|&model| [1, 2].map(|k_multi| row(model, 2, k_multi, 2000, GreedyDag)))
            .collect(),
        // 20 000 for sample count: at 35 000 a ninth iteration costs 4.7 s
        // of apply, at the paper's 50 000 it costs 49 s.
        "bert_apply" => vec![row("BERT", 2, 1, 20_000, GreedyDag)],
        "nasnet_search" => vec![row("NasNet-A", 4, 1, 30_000, GreedyDag)],
        "ilp_extract" => vec![
            row("NasNet-A", 2, 1, 2000, Ilp),
            row("Inception-v3", 8, 1, 20_000, Ilp),
            row("NasRNN", 2, 1, 20_000, Ilp),
        ],
        _ => return None,
    })
}

/// Every field that has a `TENSAT_*` override is written out, and the
/// library is pinned to one thread, so the environment cannot change a run
/// and all the work is on the calling thread, where it is timed.
fn config(row: &Row) -> OptimizerConfig {
    OptimizerConfig {
        k_multi: row.k_multi,
        max_iter: 15,
        node_limit: row.node_limit,
        // Neither time limit binds on any case; an op on which one does fails.
        exploration_time_limit: Duration::from_secs(120),
        cycle_filter: CycleFilter::Efficient,
        search_threads: 1,
        apply_threads: Some(1),
        exploration: ExplorationMode::Saturate,
        guided: GuidedConfig::default(),
        taso: TasoConfig::default(),
        extraction: row.extraction,
        ilp_cycle_constraints: false,
        ilp_integer_topo_vars: false,
        ilp_time_limit: Duration::from_secs(60),
        cost_model: CostModel::default(),
    }
}

/// Two ILPs known to be hard: BERT's e-graph at 303 and at 1000 e-nodes,
/// neither proven `Optimal` when the benchmark was defined. Each gets two
/// seconds. Not a workload: `extract.ilp_hard_proved_share` only records
/// whether a later solver change starts to close them.
pub fn ilp_hard_probes() -> Vec<Case> {
    [303, 1000]
        .iter()
        .map(|&node_limit| {
            let row = Row {
                model: "BERT",
                blocks: BASE.blocks,
                k_multi: 1,
                node_limit,
                extraction: ExtractionMode::Ilp,
            };
            Case {
                label: format!("BERT/ilp-hard/n{node_limit}"),
                graph: build_benchmark(row.model, BASE),
                config: OptimizerConfig {
                    ilp_time_limit: Duration::from_secs(2),
                    ..config(&row)
                },
            }
        })
        .collect()
}

/// SplitMix64: enough to shuffle a sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Gives every input and weight tensor a name that carries the seed. The
/// optimizer must not care what tensors are called, and a later change that
/// caches by name across calls gets no free hits from one seed to the next.
fn rename_tensors(graph: &RecExpr<TensorLang>, seed: u64) -> RecExpr<TensorLang> {
    let nodes = graph.nodes().iter().map(|node| match node {
        TensorLang::Str(sym) => match sym.as_str().split_once('@') {
            Some((name, shape)) => TensorLang::Str(Symbol::new(format!("{name}.s{seed}@{shape}"))),
            None => node.clone(),
        },
        _ => node.clone(),
    });
    RecExpr::from_nodes(nodes.collect())
}

/// Builds a workload's cases from the seed, or `None` for an unknown name.
///
/// The seed orders the sweep and names the tensors. It does not draw the
/// graphs' sizes: the driver needs every end-to-end metric to hold still
/// from one seed to the next, and both cost ratio and peak memory move with
/// `(hidden, batch)`.
pub fn generate(workload: &str, seed: u64) -> Option<Vec<Case>> {
    let mut cases: Vec<Case> = rows(workload)?
        .iter()
        .map(|row| {
            let scale = ModelScale {
                blocks: row.blocks,
                ..BASE
            };
            Case {
                label: format!(
                    "{}/b{}/k{}/n{}",
                    row.model, row.blocks, row.k_multi, row.node_limit
                ),
                graph: rename_tensors(&build_benchmark(row.model, scale), seed),
                config: config(row),
            }
        })
        .collect();
    // Fisher-Yates; the modulo bias over at most 14 cases is immaterial.
    let mut rng = Rng(seed);
    for i in (1..cases.len()).rev() {
        cases.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    Some(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(cases: &[Case]) -> Vec<(String, String)> {
        cases
            .iter()
            .map(|c| (c.label.clone(), c.graph.to_string()))
            .collect()
    }

    #[test]
    fn seed_zero_generation_repeats() {
        for w in &WORKLOADS {
            let (a, b) = (generate(w.name, 0).unwrap(), generate(w.name, 0).unwrap());
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", w.name);
        }
        assert!(generate("no_such_workload", 0).is_none());
    }

    #[test]
    fn seeds_reorder_and_rename_but_keep_the_graphs() {
        let (a, b) = (
            generate("zoo7_small", 1).unwrap(),
            generate("zoo7_small", 2).unwrap(),
        );
        assert_eq!(a.len(), 14);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let canonical = |cases: &[Case], seed: u64| {
            let mut f = fingerprint(cases);
            for (_, graph) in &mut f {
                *graph = graph.replace(&format!(".s{seed}@"), "@");
            }
            f.sort();
            f
        };
        assert_eq!(canonical(&a, 1), canonical(&b, 2));
        assert!(a.iter().all(|c| tensat_models::is_well_typed(&c.graph)));
    }

    #[test]
    fn labels_are_unique_and_threads_pinned() {
        for w in &WORKLOADS {
            let cases = generate(w.name, 0).unwrap();
            let mut labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), cases.len(), "{}", w.name);
            for c in &cases {
                assert_eq!(c.config.search_threads, 1);
                assert_eq!(c.config.exploration_config().resolved_apply_threads(), 1);
            }
        }
    }
}
