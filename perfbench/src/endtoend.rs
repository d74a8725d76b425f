//! The untraced pass: the end-to-end metrics a user of the system sees.

use crate::measure::{median, peak_rss_mb, timed, Metrics, Tally, Window};
use crate::workload::{Bench, Checker};

/// Untimed launches before the first timed one. The first launches in a
/// process fault in fresh memory and run up to 1.5× slower than later ones.
const WARMUP_LAUNCHES: usize = 2;

/// Repetitions at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

pub fn run(bench: &Bench, seconds: f64, tally: &mut Tally) -> Metrics {
    // Warm-up: launches, then one job on the last of them (the first job in
    // a process pays one-off costs such as page faults). Checked, not timed.
    let mut checker = Checker::default();
    for i in 0..WARMUP_LAUNCHES {
        let cluster = bench.launch(false);
        if i + 1 == WARMUP_LAUNCHES {
            checker.check(bench.timed_train(&cluster), tally);
        }
        cluster.shutdown();
    }
    // Read now: later relaunches leave the allocator's free lists more
    // fragmented the more of them a run fits in, so a later reading would
    // grow as the program gets faster.
    let peak_rss = peak_rss_mb();

    // Every repetition launches a fresh cluster and trains one model on
    // it, so set-up and training are both sampled across the whole window
    // and host speed phases weigh on them alike.
    let window = Window::new(seconds, MIN_REPS);
    let (mut model, mut setups, mut walls, mut bytes) = (None, Vec::new(), Vec::new(), Vec::new());
    while window.more(walls.len()) {
        let (cluster, setup_s) = timed(|| bench.launch(false));
        let rep = checker.check(bench.timed_train(&cluster), tally);
        cluster.shutdown();
        let Some(r) = rep else {
            break;
        };
        setups.push(setup_s);
        walls.push(r.wall_s);
        bytes.push(r.traffic.bytes as f64);
        model.get_or_insert(r.model);
    }

    let mut m = Metrics::default();
    let Some(model) = model else {
        return m;
    };
    m.push("setup_s", median(&setups), "s");
    m.push("train_s", median(&walls), "s");
    m.push("accuracy", model.accuracy(&bench.test), "fraction");
    m.push("job_bytes", median(&bytes), "bytes");
    m.push("peak_rss_mb", peak_rss, "MiB");
    m
}
