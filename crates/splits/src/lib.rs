//! Split-finding kernels for TreeServer.
//!
//! This crate implements Appendix B of the paper — the per-column algorithms
//! that find the best split-condition of a single attribute over the rows
//! `Dx` of a tree node — plus the approximate machinery used by the
//! baselines:
//!
//! - [`impurity`]: Gini index, entropy and variance, with incremental
//!   (add/remove one label) aggregates so a sorted scan finds the best
//!   numeric threshold in one pass with `O(1)` incremental cost.
//! - [`exact`]: exact best splits — *Case 1* (ordinal `Ai <= v` via sorted
//!   scan), *Case 2* (categorical regression via Breiman's
//!   sort-groups-by-mean), *Case 3* (categorical classification via
//!   one-vs-rest singleton subsets `|Sl| = 1`).
//! - [`condition`]: the split-condition type shared by every trainer, and
//!   row partitioning (how a delegate worker splits `Ix` into `Ixl`/`Ixr`).
//! - [`histogram`]: equi-depth binning and mergeable histograms — the
//!   PLANET/MLlib approximation (`maxBins`).
//! - [`hist`]: the distributed histogram split engine — allocation-free
//!   per-node per-bin kernels over load-time `BinnedColumn` indices, used
//!   by the engine's `--splitter hist` mode (docs/HISTOGRAM.md).
//! - [`sketch`]: a mergeable weighted quantile sketch — the XGBoost
//!   approximation.
//! - [`random`]: the completely-random splits used by extra-trees
//!   (Appendix F).
//! - [`sorted`]: the sorted-column split engine — presorted per-column
//!   indices, row bitmaps and a thread-local scratch arena that turn the
//!   exact numeric kernel into an allocation-free linear scan (docs/PERF.md).
//!
//! All kernels are deterministic, with explicit total-order tie-breaking, so
//! the distributed engine and the single-threaded trainer produce *identical*
//! trees — the invariant behind the paper's "exact training" claim and this
//! repo's strongest integration test.

pub mod condition;
pub mod exact;
pub mod hist;
pub mod histogram;
pub mod impurity;
pub mod random;
pub mod sketch;
pub mod sorted;

pub use condition::{partition_positions, partition_rows, partition_rows_buf, SplitTest};
pub use exact::{best_split_for_column, ColumnSplit};
pub use hist::{
    best_hist_gain_at, best_hist_split_at, top_k_candidates, HistCandidate, HistColumnRef,
};
pub use impurity::{Impurity, LabelView, NodeStats};
pub use sorted::{best_split_at, kernel_counters, ColumnRef, KernelCounters, NodeRows, RowBitmap};
