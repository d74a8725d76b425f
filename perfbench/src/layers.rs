//! The traced pass: per-layer metrics. Layer calls are timed from outside
//! through each crate's public API; the engine's own trace (`TraceReport`,
//! `LatencyFeed`) supplies the phase split of a traced job.

use std::hint::black_box;
use std::sync::Arc;

use treeserver::obs::trace::{Phase, PHASES};
use treeserver::{Cluster, GbtModel, JobSpec};
use ts_datatable::{BinnedColumn, Column, DataTable, Labels, SortedColumn};
use ts_serve::ServeStats;
use ts_splits::hist::{best_hist_split_at, HistColumnRef};
use ts_splits::impurity::{Impurity, LabelView};
use ts_splits::sorted::{best_split_at, ColumnRef, NodeRows};
use ts_tree::{train_subtree, train_tree, CompiledTree, LocalDataset, TableView, TrainParams};
use ts_tree::{ForestModel, TrainMode};

use crate::measure::{median, quantile, ratio, timed, Metrics, Tally, Window};
use crate::serving::serve;
use crate::workload::{Bench, Checker, Model, Recipe, Rep};

/// Repetitions of each layer probe; the probe reports their median.
const PROBE_REPS: usize = 3;
/// Bin budget of the histogram probes (the gbt-hist splitter's).
const PROBE_BINS: usize = 64;

/// Median wall seconds of `PROBE_REPS` calls of `f`.
fn probe<R>(mut f: impl FnMut() -> R) -> f64 {
    let secs: Vec<f64> = (0..PROBE_REPS)
        .map(|_| timed(|| black_box(f())).1)
        .collect();
    median(&secs)
}

/// Trains on `cluster` until `window` closes, after one untimed warm-up job.
fn train_reps(
    bench: &Bench,
    cluster: &Cluster,
    window: Window,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Vec<Rep> {
    checker.check(bench.timed_train(cluster), tally);
    let mut reps = Vec::new();
    while window.more(reps.len()) {
        match checker.check(bench.timed_train(cluster), tally) {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    reps
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

pub fn run(bench: &Bench, seconds: f64, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let mut checker = Checker::default();
    let t = &bench.train;
    let labels = bench.root_labels();

    // Data-table and split-kernel layers, on the workload's own table.
    let sorted: Vec<SortedColumn> = t.columns().iter().map(SortedColumn::build).collect();
    let binned = bin_columns(t);
    m.push(
        "datatable.presort_s",
        probe(|| {
            t.columns()
                .iter()
                .map(SortedColumn::build)
                .collect::<Vec<_>>()
        }),
        "s",
    );
    m.push("datatable.bin_s", probe(|| bin_columns(t)), "s");
    let view = LabelView::of(&labels, bench.root_classes());
    let imp = match labels {
        Labels::Class(_) => Impurity::Gini,
        Labels::Real(_) => Impurity::Variance,
    };
    m.push(
        "splits.exact_root_s",
        probe(|| {
            (0..t.n_attrs())
                .filter_map(|a| {
                    let col =
                        ColumnRef::of_column(t.column(a), &sorted[a], t.schema().attr_type(a));
                    best_split_at(col, NodeRows::All(t.n_rows()), None, view, imp)
                })
                .count()
        }),
        "s",
    );
    m.push(
        "splits.hist_root_s",
        probe(|| {
            (0..t.n_attrs())
                .filter_map(|a| {
                    let col = HistColumnRef::of_column(
                        t.column(a),
                        binned[a].as_ref(),
                        t.schema().attr_type(a),
                    );
                    best_hist_split_at(col, NodeRows::All(t.n_rows()), view, imp)
                })
                .count()
        }),
        "s",
    );
    drop((sorted, binned));

    // Untraced cluster: the baseline job time, per-job traffic, busy time,
    // kernel-path counters and one label broadcast.
    let cluster = bench.launch(false);
    let update_labels_s = probe(|| cluster.update_labels(&labels));
    let reps = train_reps(
        bench,
        &cluster,
        Window::new(seconds * 0.3, 2),
        &mut checker,
        tally,
    );
    cluster.shutdown();
    let Some(first) = reps.first() else {
        return m;
    };
    let train_s = median_of(&reps, |r| r.wall_s);
    let compers = (bench.cfg.n_workers * bench.cfg.compers_per_worker) as f64;
    let (hits, borrows) = reps.iter().fold((0, 0), |(h, b), r| {
        let k = r.traffic.kernel;
        (h + k.pool_hits, b + k.pool_hits + k.pool_misses)
    });

    // Traced cluster: the same jobs with recording on.
    let traced = bench.launch(true);
    let traced_reps = train_reps(
        bench,
        &traced,
        Window::new(seconds * 0.3, 2),
        &mut checker,
        tally,
    );
    let report = traced.trace_report();
    let feed = traced.latency_feed().unwrap_or_default();
    traced.shutdown();
    let traced_s = if traced_reps.is_empty() {
        0.0
    } else {
        median_of(&traced_reps, |r| r.wall_s)
    };

    // Single-worker reference: the same trees on one thread.
    let (local, local_s) = timed(|| local_reference(bench));
    // Histogram splits are lossy, so only the exact forest must match.
    if matches!(bench.recipe, Recipe::Forest(_)) {
        tally.check(local.bytes() == first.model.bytes(), || {
            "the cluster's forest differs from the single-threaded exact trainer's".into()
        });
    }

    m.push(
        "splits.sorted_scans",
        median_of(&reps, |r| r.traffic.kernel.numeric_sorted_scans as f64),
        "count",
    );
    m.push(
        "splits.gather_scans",
        median_of(&reps, |r| r.traffic.kernel.numeric_gather_scans as f64),
        "count",
    );
    m.push(
        "splits.pool_hit_frac",
        ratio(hits as f64, borrows as f64),
        "fraction",
    );
    m.push("tree.local_train_s", local_s, "s");
    m.push("tree.compile_s", probe(|| first.model.compile()), "s");
    m.push("core.speedup_vs_local", local_s / train_s, "ratio");
    match &report {
        Some(r) => {
            tally.check(r.phase_totals_ns.iter().sum::<u64>() == r.wall_ns, || {
                "critical-path phases do not sum to the traced job's wall time".into()
            });
            for (phase, ns) in PHASES.iter().zip(r.phase_totals_ns) {
                m.push(phase_metric(*phase), ns as f64, "ns");
            }
            m.push("core.cp.wall_ns", r.wall_ns as f64, "ns");
        }
        None => tally.check(false, || {
            "the traced cluster produced no trace report".into()
        }),
    }
    m.push(
        "core.column_task_p50_us",
        feed.column.p50_ns as f64 / 1e3,
        "us",
    );
    m.push(
        "core.column_task_p95_us",
        feed.column.p95_ns as f64 / 1e3,
        "us",
    );
    m.push(
        "core.subtree_task_p50_us",
        feed.subtree.p50_ns as f64 / 1e3,
        "us",
    );
    m.push(
        "core.subtree_task_p95_us",
        feed.subtree.p95_ns as f64 / 1e3,
        "us",
    );
    m.push(
        "core.worker_busy_frac",
        median_of(&reps, |r| {
            r.traffic.busy_ns as f64 / (compers * r.wall_s * 1e9)
        }),
        "fraction",
    );
    m.push("core.update_labels_s", update_labels_s, "s");
    m.push(
        "netsim.msgs",
        median_of(&reps, |r| r.traffic.msgs as f64),
        "count",
    );
    m.push(
        "netsim.master_sent_bytes",
        median_of(&reps, |r| r.traffic.master_bytes as f64),
        "bytes",
    );
    m.push(
        "netsim.split_plane_bytes",
        if traced_reps.is_empty() {
            0.0
        } else {
            median_of(&traced_reps, |r| r.traffic.split_plane_bytes as f64)
        },
        "bytes",
    );

    // Serving engine and request tier, with a `ServeStats` on the engine.
    let stats = Arc::new(ServeStats::new());
    let served = serve(
        &first.model,
        &bench.train,
        bench.seed,
        Window::new(seconds * 0.2, 1),
        Arc::clone(&stats),
        tally,
    );
    let batch_us: Vec<f64> = stats
        .batch_spans()
        .iter()
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    let last = &served.last;
    let q = last.latency_quantiles().unwrap_or_default();
    m.push(
        "serve.bulk_rows_per_s",
        median(&served.bulk_rows_per_s),
        "rows/s",
    );
    m.push("serve.batch_p50_us", median(&batch_us), "us");
    m.push("serve.batch_p99_us", quantile(&batch_us, 0.99), "us");
    m.push(
        "serve.mean_batch_rows",
        stats.summary().mean_batch_rows,
        "rows",
    );
    m.push("front.rps", median(&served.rps), "1/s");
    m.push("front.virtual_p50_us", q.p50_ns as f64 / 1e3, "us");
    m.push("front.virtual_p99_us", q.p99_ns as f64 / 1e3, "us");
    m.push("front.batches", last.batches as f64, "count");
    m.push(
        "front.deadline_flush_frac",
        ratio(last.deadline_flushes as f64, last.batches as f64),
        "fraction",
    );
    m.push(
        "obs.overhead_frac",
        ratio(traced_s, train_s) - 1.0,
        "fraction",
    );
    m
}

/// The `core.cp.*` metric name of a critical-path phase.
fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::Scheduling => "core.cp.scheduling_ns",
        Phase::Network => "core.cp.network_ns",
        Phase::Queueing => "core.cp.queueing_ns",
        Phase::Compute => "core.cp.compute_ns",
        Phase::Gather => "core.cp.gather_ns",
    }
}

/// Bins every numeric column (categoricals need no index).
fn bin_columns(t: &DataTable) -> Vec<Option<BinnedColumn>> {
    t.columns()
        .iter()
        .map(|c| match c {
            Column::Numeric(v) => Some(BinnedColumn::build(v, PROBE_BINS)),
            Column::Categorical(_) => None,
        })
        .collect()
}

/// Trains the workload's model on one thread with the exact trainer: the
/// job's own tree specs for forests, the same boosting loop as
/// `train_gbt_on` for boosting.
fn local_reference(bench: &Bench) -> Model {
    let t = &bench.train;
    match &bench.recipe {
        Recipe::Forest(spec) => {
            let trees = expand(spec, t)
                .into_iter()
                .map(|(candidates, params, seed)| {
                    train_tree(t, &candidates, &params, seed).canonicalize()
                })
                .collect();
            Model::Forest(ForestModel::new(trees, t.schema().task))
        }
        Recipe::Gbt(cfg) => {
            let ys = t.labels().as_class().expect("binary labels");
            let spec = JobSpec::decision_tree(ts_datatable::Task::Regression)
                .with_impurity(Impurity::Variance)
                .with_dmax(cfg.dmax)
                .with_tau_leaf(cfg.tau_leaf)
                .with_seed(cfg.seed);
            let (_, params, seed) = expand(&spec, t).pop().expect("one tree spec");
            let all: Vec<usize> = (0..t.n_attrs()).collect();
            let view = treeserver::gbt::regression_view(t, vec![0.0; t.n_rows()]);
            let mut data = LocalDataset::from_table(&view, &all);
            let mut margins = vec![0.0; t.n_rows()];
            let mut trees = Vec::with_capacity(cfg.n_rounds);
            for _ in 0..cfg.n_rounds {
                data.labels = Labels::Real(
                    ys.iter()
                        .zip(&margins)
                        .map(|(&y, &m): (&u32, &f64)| y as f64 - 1.0 / (1.0 + (-m).exp()))
                        .collect(),
                );
                let tree = train_subtree(&data, &params, 0, seed).canonicalize();
                CompiledTree::compile(&tree).add_margins_table(
                    &TableView::of(t),
                    cfg.eta,
                    &mut margins,
                );
                trees.push(tree);
            }
            Model::Gbt(GbtModel {
                trees,
                base: 0.0,
                eta: cfg.eta,
                objective: cfg.objective,
            })
        }
    }
}

/// `(candidates, params, seed)` of every tree `spec` trains on `t`, as the
/// engine's subtree tasks would train them.
fn expand(spec: &JobSpec, t: &DataTable) -> Vec<(Vec<usize>, TrainParams, u64)> {
    spec.expand(t.n_attrs())
        .into_iter()
        .map(|s| {
            let params = TrainParams {
                impurity: s.params.impurity,
                dmax: s.params.dmax,
                tau_leaf: s.params.tau_leaf,
                mode: if s.params.extra_trees {
                    TrainMode::ExtraTrees
                } else {
                    TrainMode::Exact
                },
                threads: 1,
            };
            (s.candidates, params, s.seed)
        })
        .collect()
}
