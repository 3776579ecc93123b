//! # tensat-bench
//!
//! The experiment harness. The `paper` binary runs one of [`EXPERIMENTS`],
//! the paper's evaluation (§6), prints the [`Table`] it returns and writes
//! it to `results/<experiment>.csv`; `bench_report` times search and
//! extraction on the big NasNet-A e-graph. This library holds the
//! experiments and what they share: the benchmark scale, the
//! configurations and the explored e-graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::Path;
use std::time::Duration;
use tensat_core::{
    explore, extract, extract_greedy_dag, extract_ilp, CycleFilter, ExplorationMode,
    ExplorationStats, ExtractionMode, IlpConfig, OptimizationResult, Optimizer, OptimizerConfig,
};
use tensat_egraph::{Id, Language, RecExpr};
use tensat_ir::{CostModel, TensorAnalysis, TensorEGraph, TensorLang};
use tensat_models::{build_benchmark, ModelScale, BENCHMARKS};
use tensat_rules::{multi_rules, single_rules};
use tensat_taso::{BacktrackingConfig, BacktrackingSearch};

/// The scale the `paper` binary runs the seven benchmark models at.
pub fn harness_scale() -> ModelScale {
    ModelScale {
        blocks: 2,
        hidden: 128,
        batch: 8,
    }
}

/// `graph` added to a fresh e-graph, and its root class.
pub fn seeded(graph: &RecExpr<TensorLang>) -> (TensorEGraph, Id) {
    let mut eg = TensorEGraph::new(TensorAnalysis);
    let root = eg.add_expr(graph);
    eg.rebuild();
    (eg, root)
}

/// An id-independent signature of a rebuilt e-graph and its root class:
/// equal for two e-graphs that differ only in the ids of their classes and
/// e-nodes, so two runs that reach the same saturated e-graph by different
/// routes (rule order, thread count, another loop) compare equal.
///
/// Iterated class hashing: an e-node hashes its label
/// ([`Language::display_op`] and its arity, never an interned id), its
/// filter bit and its children's class hashes; a class hashes the sorted
/// list of its e-node hashes and its previous hash. Every class starts at
/// 0, and refinement stops at the first round that does not add a
/// distinct class hash. The result hashes the sorted class hashes and the
/// root's. The mixer is a SplitMix64 finalizer fixed here, so a signature
/// pinned in a test holds across processes and toolchains.
///
/// # Panics
///
/// If the e-graph is not clean ([`tensat_egraph::EGraph::rebuild`]).
pub fn signature(egraph: &TensorEGraph, root: Id) -> u64 {
    assert!(egraph.is_clean(), "the signature reads a rebuilt e-graph");
    let slot = |id: Id| egraph.slot_index(id).expect("a live class");
    // Per class slot: its e-nodes as (label hash, child slots).
    let mut classes: Vec<Vec<(u64, Vec<usize>)>> = vec![Vec::new(); egraph.num_slots()];
    for class in egraph.classes() {
        classes[slot(class.id)] = class
            .node_ids()
            .iter()
            .map(|&n| {
                let node = egraph.enode(n);
                let label = fold(0, node.display_op().bytes().map(u64::from));
                let label = fold(
                    label,
                    [
                        node.children().len() as u64,
                        u64::from(egraph.is_filtered(n)),
                    ],
                );
                (label, node.children().iter().map(|&c| slot(c)).collect())
            })
            .collect();
    }
    let mut hashes = vec![0; classes.len()];
    let mut distinct = usize::from(!hashes.is_empty());
    loop {
        let next: Vec<u64> = classes
            .iter()
            .zip(&hashes)
            .map(|(nodes, &previous)| {
                let mut node_hashes: Vec<u64> = nodes
                    .iter()
                    .map(|(label, children)| fold(*label, children.iter().map(|&c| hashes[c])))
                    .collect();
                node_hashes.sort_unstable();
                fold(previous, node_hashes)
            })
            .collect();
        hashes = next;
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() <= distinct {
            break;
        }
        distinct = sorted.len();
    }
    let root_hash = hashes[slot(root)];
    hashes.sort_unstable();
    fold(fold(0, hashes), [root_hash])
}

/// The SplitMix64 finalizer: a fixed bijection on `u64` that spreads every
/// input bit over the output.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `h` with each of `items` mixed in, in order.
fn fold(h: u64, items: impl IntoIterator<Item = u64>) -> u64 {
    items
        .into_iter()
        .fold(h, |h, x| mix(h.wrapping_add(0x9e37_79b9_7f4a_7c15) ^ x))
}

/// `graph` seeded into a fresh e-graph and explored with the full rule set
/// under `config`: the e-graph, its root class and the exploration stats.
pub fn explored(
    graph: &RecExpr<TensorLang>,
    config: &OptimizerConfig,
) -> (TensorEGraph, Id, ExplorationStats) {
    let (mut eg, root) = seeded(graph);
    let stats = explore(&mut eg, root, &single_rules(), &multi_rules(), config);
    (eg, root, stats)
}

/// NasNet-A at `blocks: 4`, explored with the full rule set until
/// `node_limit` stops it: the e-graph of the repo benchmark's
/// `nasnet_search` workload. It is the one benchmark model on which single
/// classes grow to over a thousand e-nodes (the separable-conv outputs of
/// a cell all become equal), so it is where a search that is not
/// output-sensitive shows — the per-rule search table of `bench_report`
/// and the machine-vs-oracle differential test both run on it — and, with
/// its root, the big e-graph extraction is timed and pinned on.
pub fn nasnet_egraph(node_limit: usize) -> (TensorEGraph, Id) {
    let scale = ModelScale {
        blocks: 4,
        ..harness_scale()
    };
    let config = OptimizerConfig {
        k_multi: 1,
        max_iter: 15,
        node_limit,
        search_threads: 1,
        cycle_filter: CycleFilter::Efficient,
        ..Default::default()
    };
    let (eg, root, _) = explored(&build_benchmark("NasNet-A", scale), &config);
    (eg, root)
}

/// The TENSAT configuration used for the headline results (paper §6.1),
/// with `k_multi` and the node limit set per experiment.
pub fn tensat_config(k_multi: usize, node_limit: usize) -> OptimizerConfig {
    OptimizerConfig {
        k_multi,
        max_iter: 15,
        node_limit,
        exploration_time_limit: Duration::from_secs(30),
        ilp_time_limit: Duration::from_secs(30),
        ..Default::default()
    }
}

/// The TASO baseline configuration used for the headline results
/// (`n = 100`, `alpha = 1.0`, paper §6.1).
pub fn taso_config() -> BacktrackingConfig {
    BacktrackingConfig {
        iterations: 100,
        alpha: 1.0,
        time_limit: Duration::from_secs(60),
        ..Default::default()
    }
}

/// One cell of a [`Table`], printed and written to CSV as the same text.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A name or a status.
    Text(String),
    /// A count.
    Int(usize),
    /// A measurement, and the decimals it is written with.
    Float(f64, usize),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float(x, decimals) => write!(f, "{x:.decimals$}"),
        }
    }
}

/// What an experiment returns: column names, and rows holding one cell
/// per column.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column names, the CSV header.
    pub columns: Vec<&'static str>,
    /// The rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the columns of a CSV `header`.
    fn new(header: &'static str) -> Self {
        let columns = header.split(',').collect();
        Table {
            columns,
            rows: vec![],
        }
    }

    /// Every row as text, the header first.
    fn text(&self) -> Vec<Vec<String>> {
        let header = self.columns.iter().map(|c| c.to_string()).collect();
        let rows = self.rows.iter();
        let rows = rows.map(|row| row.iter().map(Cell::to_string).collect());
        std::iter::once(header).chain(rows).collect()
    }

    /// The table as CSV: the header line, then one line per row.
    pub fn csv(&self) -> String {
        self.text().iter().map(|row| row.join(",") + "\n").collect()
    }

    /// The table with its columns aligned: the first left, the rest right.
    fn aligned(&self) -> String {
        let text = self.text();
        let width = |i: usize| text.iter().map(|r| r[i].chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..self.columns.len()).map(width).collect();
        let mut out = String::new();
        for row in &text {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                out += &match i {
                    0 => format!("{cell:<w$}"),
                    _ => format!("  {cell:>w$}"),
                };
            }
            out += "\n";
        }
        out
    }
}

/// Prints `table` aligned under the experiment's `name` and writes it to
/// `results/<name>.csv`, creating the directory.
pub fn report(name: &str, table: &Table) -> std::io::Result<()> {
    println!("{name}\n{}", table.aligned());
    std::fs::create_dir_all("results")?;
    let path = Path::new("results").join(format!("{name}.csv"));
    std::fs::write(&path, table.csv())?;
    println!("[results written to {}]", path.display());
    Ok(())
}

/// What an experiment runs at.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    /// The scale of every benchmark model.
    pub scale: ModelScale,
    /// The e-node limit of every exploration.
    pub node_limit: usize,
    /// Runs per model of `taso_vs_tensat`; the other experiments run once.
    pub reps: usize,
}

/// One experiment: its name (on the command line, and its CSV's file
/// stem), the node limit it explores to at the harness scale, and the
/// function that runs it.
pub type Experiment = (&'static str, usize, fn(&Setting) -> Table);

/// Every experiment of the paper's evaluation, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("taso_vs_tensat", 20_000, taso_vs_tensat),
    ("table4_greedy_vs_ilp", 20_000, table4_greedy_vs_ilp),
    ("table5_cycle_constraints", 8_000, table5_cycle_constraints),
    ("table6_cycle_filtering", 8_000, table6_cycle_filtering),
    ("table7_exploration", 20_000, table7_exploration),
    ("fig6_tradeoff", 20_000, fig6_tradeoff),
    ("fig7_kmulti", 20_000, fig7_kmulti),
];

/// TENSAT's result on the model `name`, built as `graph`.
fn optimized(
    graph: &RecExpr<TensorLang>,
    config: OptimizerConfig,
    name: &str,
) -> OptimizationResult {
    Optimizer::new(config)
        .optimize(graph)
        .unwrap_or_else(|e| panic!("TENSAT failed on {name}: {e}"))
}

/// The mean of `xs`, and its standard error.
fn mean_stderr(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, (var / n).sqrt())
}

/// Tables 1 and 3, Figures 4 and 5: TASO and TENSAT on every model, `reps`
/// times (Inception-v3 at `k_multi` 2, as in the paper). Times and
/// speedups are means over the runs; `speedup_ratio` is TASO's time over
/// TENSAT's.
fn taso_vs_tensat(s: &Setting) -> Table {
    let mut table = Table::new("model,k_multi,taso_time_s,taso_best_s,taso_speedup_pct,tensat_time_s,exploration_s,extraction_s,tensat_speedup_pct,taso_stderr,tensat_stderr,enodes,speedup_ratio");
    for &name in BENCHMARKS {
        let graph = build_benchmark(name, s.scale);
        let k_multi = if name == "Inception-v3" { 2 } else { 1 };
        let (mut runs, mut enodes) = (vec![], 0);
        for _ in 0..s.reps {
            let taso = BacktrackingSearch::with_default_rules(taso_config()).run(&graph);
            let tensat = optimized(&graph, tensat_config(k_multi, s.node_limit), name);
            enodes = tensat.stats.exploration.enodes;
            runs.push([
                taso.total_time.as_secs_f64(),
                taso.time_to_best.as_secs_f64(),
                taso.speedup_percent(),
                tensat.optimizer_time().as_secs_f64(),
                tensat.stats.exploration.time.as_secs_f64(),
                tensat.stats.extraction_time.as_secs_f64(),
                tensat.speedup_percent(),
            ]);
        }
        let stats: [(f64, f64); 7] =
            std::array::from_fn(|i| mean_stderr(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()));
        let mut row = vec![Cell::Text(name.into()), Cell::Int(k_multi)];
        for ((mean, _), decimals) in stats.iter().zip([3, 3, 2, 3, 3, 3, 2]) {
            row.push(Cell::Float(*mean, decimals));
        }
        let (taso_time, tensat_time) = (stats[0].0, stats[3].0);
        let ratio = if tensat_time > 0.0 {
            taso_time / tensat_time
        } else {
            f64::INFINITY
        };
        row.extend([
            Cell::Float(stats[2].1, 3),
            Cell::Float(stats[6].1, 3),
            Cell::Int(enodes),
            Cell::Float(ratio, 2),
        ]);
        table.rows.push(row);
    }
    table
}

/// Table 4: tree-greedy, greedy-DAG and ILP extraction on one explored
/// e-graph per model (`k_multi` 1), so the table isolates extraction
/// quality from exploration noise. Each extractor reports the DAG cost
/// (each e-node charged once), its wall-clock time and the tree cost
/// (shared subgraphs charged per use).
fn table4_greedy_vs_ilp(s: &Setting) -> Table {
    let mut table = Table::new("model,original_us,tree_us,greedy_dag_us,ilp_us,tree_time_s,greedy_dag_time_s,ilp_time_s,tree_treecost_us,greedy_dag_treecost_us,ilp_treecost_us,ilp_status");
    let model = CostModel::default();
    for &name in BENCHMARKS {
        let graph = build_benchmark(name, s.scale);
        let config = OptimizerConfig {
            k_multi: 1,
            max_iter: 15,
            node_limit: s.node_limit,
            cycle_filter: CycleFilter::Efficient,
            ..Default::default()
        };
        let (eg, root, _) = explored(&graph, &config);
        let modes = [
            ExtractionMode::Greedy,
            ExtractionMode::GreedyDag,
            ExtractionMode::Ilp,
        ];
        let [tree, dag, ilp] = modes.map(|mode| {
            extract(mode, &eg, root, &model, &IlpConfig::default())
                .unwrap_or_else(|e| panic!("{mode:?} extraction failed on {name}: {e}"))
        });
        assert!(
            dag.dag_cost <= tree.dag_cost + 1e-9,
            "{name}: greedy-dag ({}) must never be worse than tree-greedy ({})",
            dag.dag_cost,
            tree.dag_cost
        );
        let status = ilp.ilp.as_ref().map(|s| format!("{:?}", s.status));
        let outcomes = [&tree, &dag, &ilp];
        let mut row = vec![
            Cell::Text(name.into()),
            Cell::Float(model.graph_cost(&graph), 3),
        ];
        row.extend(outcomes.map(|o| Cell::Float(o.dag_cost, 3)));
        row.extend(outcomes.map(|o| Cell::Float(o.time.as_secs_f64(), 4)));
        row.extend(outcomes.map(|o| Cell::Float(model.tree_cost(&o.expr), 3)));
        row.push(Cell::Text(status.unwrap_or_else(|| "-".into())));
        table.rows.push(row);
    }
    table
}

/// The models of Tables 5 and 6, each run at `k_multi` 1 and 2.
const CYCLE_MODELS: [&str; 3] = ["BERT", "NasRNN", "NasNet-A"];

/// Table 5: ILP solve time with the cycle constraints (real and integer
/// topological-order variables) and without, on an e-graph explored with
/// efficient cycle filtering (`NaN`: no solve).
fn table5_cycle_constraints(s: &Setting) -> Table {
    let mut table = Table::new("model,k_multi,with_real_s,with_int_s,without_s");
    let model = CostModel::default();
    for (name, k) in CYCLE_MODELS.into_iter().flat_map(|m| [(m, 1), (m, 2)]) {
        let config = OptimizerConfig {
            k_multi: k,
            max_iter: 8,
            node_limit: s.node_limit,
            exploration_time_limit: Duration::from_secs(20),
            cycle_filter: CycleFilter::Efficient,
            ..Default::default()
        };
        let (eg, root, _) = explored(&build_benchmark(name, s.scale), &config);
        let solve_time = |cycle_constraints, integer_topo_vars| {
            let config = IlpConfig {
                cycle_constraints,
                integer_topo_vars,
                time_limit: Duration::from_secs(60),
            };
            let stats = extract_ilp(&eg, root, &model, &config)
                .ok()
                .and_then(|o| o.ilp);
            Cell::Float(stats.map_or(f64::NAN, |s| s.solve_time.as_secs_f64()), 4)
        };
        let (real, int) = (solve_time(true, false), solve_time(true, true));
        let without = solve_time(false, false);
        table.rows.push(vec![
            Cell::Text(name.into()),
            Cell::Int(k),
            real,
            int,
            without,
        ]);
    }
    table
}

/// Table 6: exploration time under vanilla and efficient cycle filtering.
///
/// Vanilla recomputes the descendants map for every candidate application.
/// That map is a snapshot of the class graph with a component order — one
/// linear pass, no n x n closure — so the recompute costs O(classes +
/// edges) instead of a bit-matrix fixpoint, and the vanilla column is
/// smaller than the paper's ratio suggests; it still grows with matches x
/// e-graph size where the efficient column does not.
fn table6_cycle_filtering(s: &Setting) -> Table {
    let mut table = Table::new("model,k_multi,vanilla_s,efficient_s");
    for (name, k) in CYCLE_MODELS.into_iter().flat_map(|m| [(m, 1), (m, 2)]) {
        let graph = build_benchmark(name, s.scale);
        let explore_time = |cycle_filter| {
            let config = OptimizerConfig {
                k_multi: k,
                max_iter: 8,
                node_limit: s.node_limit,
                exploration_time_limit: Duration::from_secs(120),
                cycle_filter,
                ..Default::default()
            };
            Cell::Float(explored(&graph, &config).2.time.as_secs_f64(), 4)
        };
        let efficient = explore_time(CycleFilter::Efficient);
        let vanilla = explore_time(CycleFilter::Vanilla);
        table.rows.push(vec![
            Cell::Text(name.into()),
            Cell::Int(k),
            vanilla,
            efficient,
        ]);
    }
    table
}

/// Table 7 (this reproduction's extension of Figure 4's axis): explore
/// time, final e-graph size and greedy-DAG extracted cost per exploration
/// strategy. `saturate` is the paper's saturate-all loop; `guided` is the
/// beam search under a node budget 4x below the saturated size (does its
/// extracted cost hold up on a fraction of the e-graph?). TASO has no row:
/// it searches concrete graphs, not an e-graph, and `taso_vs_tensat`
/// reports it on every model.
fn table7_exploration(s: &Setting) -> Table {
    let mut table = Table::new("model,strategy,explore_s,enodes,node_budget,dag_cost_us");
    let model = CostModel::default();
    for &name in BENCHMARKS {
        let graph = build_benchmark(name, s.scale);
        let seed_nodes = seeded(&graph).0.total_number_of_nodes();
        // The saturated size sets the guided budget, so saturate runs first.
        let mut saturated_nodes = 0;
        for mode in [ExplorationMode::Saturate, ExplorationMode::Guided] {
            let budget = match mode {
                ExplorationMode::Saturate => s.node_limit,
                ExplorationMode::Guided => (saturated_nodes / 4).max(seed_nodes),
            };
            let config = OptimizerConfig {
                exploration: mode,
                max_iter: 8,
                node_limit: budget,
                exploration_time_limit: Duration::from_secs(60),
                search_threads: 1,
                ..Default::default()
            };
            let (eg, root, stats) = explored(&graph, &config);
            if mode == ExplorationMode::Saturate {
                saturated_nodes = stats.enodes;
            }
            let dag = extract_greedy_dag(&eg, root, &model)
                .unwrap_or_else(|e| panic!("greedy-DAG extraction failed on {name}: {e}"));
            table.rows.push(vec![
                Cell::Text(name.into()),
                Cell::Text(stats.strategy.into()),
                Cell::Float(stats.time.as_secs_f64(), 4),
                Cell::Int(stats.enodes),
                Cell::Int(budget),
                Cell::Float(dag.dag_cost, 3),
            ]);
        }
    }
    table
}

/// Figure 6: the speedup-vs-optimizer-time trade-off on Inception-v3 (60 s
/// timeout), sweeping TASO's iteration budget and TENSAT's `k_multi` and
/// iteration limit.
fn fig6_tradeoff(s: &Setting) -> Table {
    let mut table = Table::new("optimizer,budget,time_s,speedup_pct");
    let graph = build_benchmark("Inception-v3", s.scale);
    let mut push = |optimizer: String, budget, time: Duration, speedup| {
        let time = Cell::Float(time.as_secs_f64(), 3);
        let row = [
            Cell::Text(optimizer),
            Cell::Int(budget),
            time,
            Cell::Float(speedup, 2),
        ];
        table.rows.push(row.to_vec());
    };
    for iterations in [1, 5, 10, 25, 50, 100] {
        let config = BacktrackingConfig {
            iterations,
            time_limit: Duration::from_secs(60),
            ..Default::default()
        };
        let taso = BacktrackingSearch::with_default_rules(config).run(&graph);
        push(
            "taso".into(),
            iterations,
            taso.total_time,
            taso.speedup_percent(),
        );
    }
    for (k, iters) in [(0, 3), (1, 5), (1, 15), (2, 15)] {
        let config = OptimizerConfig {
            max_iter: iters,
            exploration_time_limit: Duration::from_secs(60),
            ..tensat_config(k, s.node_limit)
        };
        let tensat = optimized(&graph, config, "Inception-v3");
        let (time, speedup) = (tensat.optimizer_time(), tensat.speedup_percent());
        push(format!("tensat_k{k}_i{iters}"), iters, time, speedup);
    }
    table
}

/// Figure 7: speedup, optimizer time and final e-graph size as `k_multi`
/// goes from 0 to 3.
fn fig7_kmulti(s: &Setting) -> Table {
    let mut table = Table::new("model,k_multi,speedup_pct,time_s,enodes");
    for &name in BENCHMARKS {
        let graph = build_benchmark(name, s.scale);
        for k in 0..=3 {
            let tensat = optimized(&graph, tensat_config(k, s.node_limit), name);
            table.rows.push(vec![
                Cell::Text(name.into()),
                Cell::Int(k),
                Cell::Float(tensat.speedup_percent(), 2),
                Cell::Float(tensat.optimizer_time().as_secs_f64(), 3),
                Cell::Int(tensat.stats.exploration.enodes),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `relu(x + y) = tanh(x)` over two 4x4 inputs, `y` added first if
    /// `y_first`, and the node-table ids of `relu(x + y)` (the root) and
    /// `tanh(x)`.
    fn small(y_first: bool) -> (TensorEGraph, Id, Id) {
        let mut eg = TensorEGraph::new(TensorAnalysis);
        let mut input = |name| {
            let s = eg.add(TensorLang::Str(tensat_ir::encode_identifier(name, &[4, 4])));
            eg.add(TensorLang::Input([s]))
        };
        let (x, y) = if y_first {
            let y = input("y");
            (input("x"), y)
        } else {
            (input("x"), input("y"))
        };
        let sum = eg.add(TensorLang::Ewadd([x, y]));
        let relu = eg.add(TensorLang::Relu([sum]));
        let tanh = eg.add(TensorLang::Tanh([x]));
        eg.union(relu, tanh);
        eg.rebuild();
        (eg, relu, tanh)
    }

    #[test]
    fn isomorphic_e_graphs_get_equal_signatures() {
        let (a, a_root, a_tanh) = small(false);
        let (b, b_root, b_tanh) = small(true);
        let x = |eg: &TensorEGraph, tanh| eg.enode(tanh).children()[0];
        assert_ne!(x(&a, a_tanh), x(&b, b_tanh), "the two number `x` apart");
        assert_eq!(signature(&a, a_root), signature(&b, b_root));
    }

    #[test]
    fn one_more_node_union_or_filter_changes_the_signature() {
        let (base, root, tanh) = small(false);
        let expected = signature(&base, root);
        let x = base.enode(tanh).children()[0];
        let sum = base.enode(root).children()[0];
        let y = base.enode(sum).children()[1];

        let mut node = base.clone();
        node.add(TensorLang::Sigmoid([root]));
        node.rebuild();
        let mut union = base.clone();
        union.union(x, y);
        union.rebuild();
        let mut filter = base.clone();
        filter.filter_node(tanh);
        for (what, eg) in [("e-node", node), ("union", union), ("filter", filter)] {
            assert_ne!(signature(&eg, root), expected, "one more {what}");
        }
    }

    #[test]
    fn the_signature_is_the_same_in_every_process() {
        let (eg, root, _) = small(false);
        assert_eq!(signature(&eg, root), 15_189_492_868_320_858_791);
    }

    #[test]
    fn configs_have_paper_defaults() {
        let c = tensat_config(1, 20_000);
        assert_eq!((c.k_multi, c.max_iter, c.node_limit), (1, 15, 20_000));
        assert!(matches!(c.extraction, ExtractionMode::Ilp));
        assert!(!c.ilp_cycle_constraints);
        let t = taso_config();
        assert_eq!((t.iterations, t.alpha), (100, 1.0));
    }

    #[test]
    fn a_table_is_written_once_as_csv_and_aligned() {
        let mut table = Table::new("model,time_s");
        table
            .rows
            .push(vec![Cell::Text("BERT".into()), Cell::Float(0.12345, 3)]);
        table
            .rows
            .push(vec![Cell::Text("VGG-19".into()), Cell::Int(12)]);
        assert_eq!(table.csv(), "model,time_s\nBERT,0.123\nVGG-19,12\n");
        let aligned = "model   time_s\nBERT     0.123\nVGG-19      12\n";
        assert_eq!(table.aligned(), aligned);
    }
}
