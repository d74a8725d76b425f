//! Golden distributed-vs-local equivalence harness: with the paper's
//! *default* thresholds (`τ_D = 10,000`, `τ_dfs = 80,000`) the cluster must
//! reproduce the single-machine exact trainer bit-for-bit. The datasets are
//! sized above `τ_D` so the root genuinely runs as sharded column-tasks and
//! the frontier later crosses into subtree-task territory — the τ boundary
//! the equivalence guarantee has to survive.

use treeserver::{Cluster, ClusterConfig, JobSpec};
use ts_datatable::synth::{generate, SynthSpec};
use ts_datatable::{DataTable, Task};
use ts_tree::{train_tree, TrainParams};

const SEEDS: [u64; 3] = [11, 42, 977];

fn datasets(seed: u64) -> [DataTable; 2] {
    [
        generate(&SynthSpec {
            rows: 12_000,
            numeric: 5,
            categorical: 2,
            cat_cardinality: 5,
            noise: 0.05,
            concept_depth: 5,
            seed,
            ..Default::default()
        }),
        generate(&SynthSpec {
            rows: 12_000,
            numeric: 4,
            categorical: 1,
            task: Task::Regression,
            seed,
            ..Default::default()
        }),
    ]
}

#[test]
fn default_thresholds_match_local_trainer_across_seeds() {
    let cfg = ClusterConfig::default();
    assert_eq!(cfg.tau_d, 10_000, "test assumes the paper's default τ_D");
    assert_eq!(
        cfg.tau_dfs, 80_000,
        "test assumes the paper's default τ_dfs"
    );
    for seed in SEEDS {
        for t in datasets(seed) {
            let params = TrainParams {
                dmax: 8,
                ..TrainParams::for_task(t.schema().task)
            };
            let reference = train_tree(&t, &(0..t.n_attrs()).collect::<Vec<_>>(), &params, 0);
            let cluster = Cluster::launch(ClusterConfig::default(), &t);
            let model = cluster
                .train(JobSpec::decision_tree(t.schema().task).with_dmax(8))
                .into_tree();
            cluster.shutdown();
            assert_eq!(
                model.canonicalize(),
                reference.canonicalize(),
                "seed {seed}, task {:?}: cluster diverged from the exact trainer",
                t.schema().task
            );
        }
    }
}

/// FNV-1a (64-bit) of a string: a stable digest for pinned models.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of a forest's canonical JSON: trees rebuilt in pre-order, so the
/// pin is independent of the order the cluster completed subtrees in.
fn forest_digest(forest: &ts_tree::ForestModel) -> u64 {
    let canon = ts_tree::ForestModel::new(
        forest.trees.iter().map(|t| t.canonicalize()).collect(),
        forest.task,
    );
    fnv1a(&tsjson::to_string(&canon).expect("forest serializes"))
}

/// A 2-worker cluster with `τ_D` at a twentieth of the rows, so every tree
/// runs its upper levels as column-tasks and the rest as subtree-tasks —
/// both consumers of the exact split kernels.
fn small_cluster(t: &DataTable, steal: bool) -> ClusterConfig {
    let tau_d = t.n_rows() as u64 / 20;
    ClusterConfig {
        n_workers: 2,
        tau_d,
        tau_dfs: 4 * tau_d,
        steal,
        ..ClusterConfig::default()
    }
}

/// Trains `job` on a fresh cluster with stealing off and on, asserting
/// both runs produce the model pinned by `golden`.
fn assert_forest_digest(t: &DataTable, job: JobSpec, golden: u64, what: &str) {
    for steal in [false, true] {
        let cluster = Cluster::launch(small_cluster(t, steal), t);
        let forest = cluster.train(job.clone()).into_forest();
        cluster.shutdown();
        let digest = forest_digest(&forest);
        assert_eq!(
            digest, golden,
            "steal={steal}: {what} digest moved (got {digest:#018x})"
        );
    }
}

// Golden pins: these exact models must keep their bytes across split-kernel
// rewrites. A change to a digest is a model change and needs a reason, not
// a re-pin.

#[test]
fn gini_forest_matches_pinned_digest() {
    const GOLDEN: u64 = 0x1c19_8ef2_bfae_f944;
    let t = ts_datatable::synth::PaperDataset::Covtype.generate(0.005, 20_220_513);
    assert_eq!(t.n_rows(), 2_905);
    let job = JobSpec::random_forest(t.schema().task, 8).with_seed(7);
    assert_forest_digest(&t, job, GOLDEN, "7-class Gini forest");
}

#[test]
fn entropy_forest_matches_pinned_digest() {
    const GOLDEN: u64 = 0xc32f_7a0e_c99e_8a83;
    let t = generate(&SynthSpec {
        rows: 3_000,
        numeric: 6,
        categorical: 2,
        cat_cardinality: 5,
        task: Task::Classification { n_classes: 4 },
        noise: 0.05,
        missing_rate: 0.05,
        concept_depth: 5,
        seed: 31,
        ..Default::default()
    });
    let job = JobSpec::random_forest(t.schema().task, 4)
        .with_impurity(ts_splits::Impurity::Entropy)
        .with_seed(3);
    assert_forest_digest(&t, job, GOLDEN, "entropy forest");
}

#[test]
fn variance_tree_matches_pinned_digest() {
    const GOLDEN: u64 = 0xa79f_1c62_8efb_dd63;
    let t = generate(&SynthSpec {
        rows: 3_000,
        numeric: 5,
        categorical: 2,
        cat_cardinality: 6,
        task: Task::Regression,
        missing_rate: 0.05,
        seed: 17,
        ..Default::default()
    });
    let job = JobSpec::decision_tree(t.schema().task).with_dmax(12);
    assert_forest_digest(&t, job, GOLDEN, "variance regression tree");
}
