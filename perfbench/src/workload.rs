//! The three workloads: their generated inputs, cluster shape and model.

use std::sync::Arc;

use treeserver::gbt::regression_view;
use treeserver::obs::ObsConfig;
use treeserver::{
    train_gbt_on, Cluster, ClusterConfig, GbtConfig, GbtModel, JobResult, JobSpec, NetModel,
    Splitter,
};
use ts_datatable::metrics::accuracy;
use ts_datatable::synth::PaperDataset;
use ts_datatable::{DataTable, Labels, Task};
use ts_serve::CompiledModel;
use ts_splits::sorted::{kernel_counters, KernelCounters};
use ts_tree::ForestModel;

use crate::measure::Tally;

/// A benchmark workload, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact-split random forest on Covtype-shaped data.
    ForestExact,
    /// Histogram-split boosting on SUSY-shaped data.
    GbtHist,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ForestExact, Workload::GbtHist];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ForestExact => "forest-exact",
            Workload::GbtHist => "gbt-hist",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one training operation trains.
#[derive(Debug, Clone)]
pub enum Recipe {
    /// One random-forest job.
    Forest(JobSpec),
    /// One boosted model: `n_rounds` sequential tree jobs.
    Gbt(GbtConfig),
}

/// A trained model, with trees in canonical node order so that two equal
/// models serialize to equal bytes.
pub enum Model {
    Forest(ForestModel),
    Gbt(GbtModel),
}

impl Model {
    /// Canonical serialization, compared byte for byte between repetitions.
    pub fn bytes(&self) -> String {
        match self {
            Model::Forest(f) => f.to_json(),
            Model::Gbt(g) => tsjson::to_string(g).expect("boosted model serializes"),
        }
    }

    /// The model compiled for serving.
    pub fn compile(&self) -> CompiledModel {
        match self {
            Model::Forest(f) => CompiledModel::from_forest(f),
            Model::Gbt(g) => CompiledModel::from_gbt(g),
        }
    }

    /// Class labels from the per-row reference traversal (not the compiled
    /// engine), the oracle the served predictions are checked against.
    pub fn reference_labels(&self, table: &DataTable) -> Vec<u32> {
        match self {
            Model::Forest(f) => f.predict_labels_reference(table),
            Model::Gbt(g) => g
                .predict_margins_reference(table)
                .into_iter()
                .map(|m| u32::from(m > 0.0))
                .collect(),
        }
    }

    /// Test accuracy.
    pub fn accuracy(&self, test: &DataTable) -> f64 {
        let truth = test.labels().as_class().expect("classification table");
        accuracy(&self.compile().predict_labels(test), truth)
    }
}

/// Traffic and busy-time counters of a cluster at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub bytes: u64,
    pub msgs: u64,
    pub master_bytes: u64,
    pub busy_ns: u64,
    pub split_plane_bytes: u64,
    /// Process-wide split-kernel counters (`ts_splits::sorted`).
    pub kernel: KernelCounters,
}

impl Traffic {
    pub fn of(cluster: &Cluster) -> Traffic {
        let r = cluster.report();
        Traffic {
            bytes: r.per_node.iter().map(|n| n.sent_bytes).sum(),
            msgs: r.per_node.iter().map(|n| n.sent_msgs).sum(),
            master_bytes: r.master_sent_bytes,
            busy_ns: r.per_node.iter().map(|n| n.busy_ns).sum(),
            split_plane_bytes: r.split_bytes_sent + r.hist_bytes_sent,
            kernel: kernel_counters(),
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(self, before: Traffic) -> Traffic {
        Traffic {
            bytes: self.bytes - before.bytes,
            msgs: self.msgs - before.msgs,
            master_bytes: self.master_bytes - before.master_bytes,
            busy_ns: self.busy_ns - before.busy_ns,
            split_plane_bytes: self.split_plane_bytes - before.split_plane_bytes,
            kernel: KernelCounters {
                numeric_sorted_scans: self.kernel.numeric_sorted_scans
                    - before.kernel.numeric_sorted_scans,
                numeric_gather_scans: self.kernel.numeric_gather_scans
                    - before.kernel.numeric_gather_scans,
                pool_hits: self.kernel.pool_hits - before.kernel.pool_hits,
                pool_misses: self.kernel.pool_misses - before.kernel.pool_misses,
            },
        }
    }
}

/// One timed training operation.
pub struct Rep {
    pub model: Model,
    pub wall_s: f64,
    pub traffic: Traffic,
}

/// Checks every training outcome of a run against its first model.
#[derive(Default)]
pub struct Checker {
    reference: Option<String>,
}

impl Checker {
    /// Counts `rep` as one operation: failed when the engine failed the job
    /// or the model is not byte-identical to the run's first model.
    pub fn check(&mut self, rep: Result<Rep, String>, tally: &mut Tally) -> Option<Rep> {
        match rep {
            Err(e) => {
                tally.check(false, || e);
                None
            }
            Ok(r) => {
                let bytes = r.model.bytes();
                let reference = self.reference.get_or_insert_with(|| bytes.clone());
                tally.check(bytes == *reference, || {
                    "a repetition trained a model that differs from the first".into()
                });
                Some(r)
            }
        }
    }
}

/// Seed of the generated tables. The table plays the part of a fixed
/// dataset; the workload seed picks the train/test split, the forest's
/// column samples and the request stream, so runs with different seeds
/// measure the same problem.
const DATASET_SEED: u64 = 0x7EE5_0001;

/// A workload's generated inputs and fixed configuration.
pub struct Bench {
    pub seed: u64,
    /// Training rows; also the table requests and bulk scoring read.
    pub train: Arc<DataTable>,
    pub test: DataTable,
    pub cfg: ClusterConfig,
    pub recipe: Recipe,
}

impl Bench {
    /// Generates the workload's inputs from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let (dataset, scale) = match workload {
            Workload::ForestExact => (PaperDataset::Covtype, 0.05),
            Workload::GbtHist => (PaperDataset::Susy, 0.05),
        };
        let (train, test) = dataset
            .generate(scale, DATASET_SEED)
            .train_test_split(0.8, seed);
        let task = train.schema().task;
        let (tau_d, splitter, recipe) = match workload {
            Workload::ForestExact => (
                train.n_rows() as u64 / 20,
                Splitter::Exact,
                Recipe::Forest(JobSpec::random_forest(task, 16).with_seed(seed)),
            ),
            Workload::GbtHist => (
                2_000,
                Splitter::Histogram {
                    bins: 64,
                    vote_k: 2,
                },
                Recipe::Gbt(GbtConfig::for_task(task).with_rounds(20).with_dmax(5)),
            ),
        };
        let cfg = ClusterConfig {
            n_workers: 2,
            compers_per_worker: 1,
            replication: 2,
            tau_d,
            tau_dfs: 4 * tau_d,
            net: NetModel::instant(),
            work_ns_per_unit: 0,
            splitter,
            ..ClusterConfig::default()
        };
        Bench {
            seed,
            train: Arc::new(train),
            test,
            cfg,
            recipe,
        }
    }

    /// Human-readable description of the run's fixed settings.
    pub fn provenance(&self) -> String {
        let splitter = match self.cfg.splitter {
            Splitter::Exact => "exact".to_string(),
            Splitter::Histogram { bins, vote_k } => {
                format!("histogram(bins={bins},vote_k={vote_k})")
            }
        };
        let model = match &self.recipe {
            Recipe::Forest(j) => format!("random_forest(trees={},dmax={})", j.n_trees(), j.dmax),
            Recipe::Gbt(g) => format!("gbt(rounds={},dmax={})", g.n_rounds, g.dmax),
        };
        format!(
            "\"train_rows\": {}, \"test_rows\": {}, \"attrs\": {}, \"workers\": {}, \
             \"compers_per_worker\": {}, \"replication\": {}, \"tau_d\": {}, \"tau_dfs\": {}, \
             \"splitter\": \"{splitter}\", \"model\": \"{model}\", \"work_ns_per_unit\": {}, \
             \"net\": \"NetModel::instant\"",
            self.train.n_rows(),
            self.test.n_rows(),
            self.train.n_attrs(),
            self.cfg.n_workers,
            self.cfg.compers_per_worker,
            self.cfg.replication,
            self.cfg.tau_d,
            self.cfg.tau_dfs,
            self.cfg.work_ns_per_unit,
        )
    }

    /// Launches the cluster over the training table, or over its regression
    /// view for boosting (as `train_gbt` prepares it). `traced` switches
    /// the engine's event recording on.
    pub fn launch(&self, traced: bool) -> Cluster {
        let mut cfg = self.cfg.clone();
        if traced {
            cfg.obs = ObsConfig {
                enabled: true,
                ring_capacity: 1 << 18,
                ..ObsConfig::default()
            };
        }
        match self.recipe {
            Recipe::Forest(_) => Cluster::launch(cfg, &self.train),
            Recipe::Gbt(_) => Cluster::launch(
                cfg,
                &regression_view(&self.train, vec![0.0; self.train.n_rows()]),
            ),
        }
    }

    /// Trains one model on `cluster`; `Err` when the engine reports a
    /// failed job.
    pub fn train(&self, cluster: &Cluster) -> Result<Model, String> {
        match &self.recipe {
            Recipe::Forest(spec) => match cluster.train(spec.clone()) {
                JobResult::Failed(e) => Err(format!("job failed: {e}")),
                result => {
                    let f = result.into_forest();
                    let trees = f.trees.iter().map(|t| t.canonicalize()).collect();
                    Ok(Model::Forest(ForestModel::new(trees, f.task)))
                }
            },
            Recipe::Gbt(cfg) => Ok(Model::Gbt(train_gbt_on(cluster, &self.train, cfg.clone()))),
        }
    }

    /// Trains one model and records its wall time and traffic.
    pub fn timed_train(&self, cluster: &Cluster) -> Result<Rep, String> {
        let before = Traffic::of(cluster);
        let t0 = std::time::Instant::now();
        let model = self.train(cluster)?;
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Rep {
            model,
            wall_s,
            traffic: Traffic::of(cluster).since(before),
        })
    }

    /// The labels the root node of the first tree is split on: the class
    /// labels for forests, round 0's pseudo-targets for boosting.
    pub fn root_labels(&self) -> Labels {
        match &self.recipe {
            Recipe::Forest(_) => self.train.labels().clone(),
            Recipe::Gbt(_) => Labels::Real(
                self.train
                    .labels()
                    .as_class()
                    .expect("binary labels")
                    .iter()
                    .map(|&y| y as f64 - 0.5)
                    .collect(),
            ),
        }
    }

    /// Class count of the root labels (0 for real-valued targets).
    pub fn root_classes(&self) -> u32 {
        match (&self.recipe, self.train.schema().task) {
            (Recipe::Forest(_), Task::Classification { n_classes }) => n_classes,
            _ => 0,
        }
    }
}
