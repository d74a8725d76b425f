//! The serving phase: a trained model behind the request tier and under
//! bulk scoring, every prediction checked against the reference traversal.

use std::sync::Arc;

use ts_datatable::DataTable;
use ts_front::{ArrivalPlan, FrontConfig, FrontReport, FrontServer, ModelRegistry, Score};
use ts_serve::ServeStats;

use crate::measure::{timed, Tally, Window};
use crate::workload::Model;

/// Requests in one open-loop stream.
const REQUESTS: usize = 100_000;
/// Mean virtual arrival rate of the stream.
const QPS: f64 = 20_000.0;
/// Connections the stream's requests are spread over.
const CONNS: u32 = 16;

/// What the serving phase measured.
pub struct Served {
    /// Requests completed per wall second of each `FrontServer::run`.
    pub rps: Vec<f64>,
    /// Rows per wall second of each bulk `predict_labels` call.
    pub bulk_rows_per_s: Vec<f64>,
    /// The last stream's report (virtual latencies, batches).
    pub last: FrontReport,
}

/// Serves `model` over `table` until `window` closes, alternating one
/// request stream through a fresh `FrontServer` with one bulk scoring pass.
/// `stats` is attached to the request tier's engine only.
pub fn serve(
    model: &Model,
    table: &Arc<DataTable>,
    seed: u64,
    window: Window,
    stats: Arc<ServeStats>,
    tally: &mut Tally,
) -> Served {
    let bulk = model.compile();
    let expected = bulk.predict_labels(table);
    tally.check(expected == model.reference_labels(table), || {
        "compiled bulk predictions differ from the reference traversal".into()
    });

    let registry = Arc::new(ModelRegistry::new(model.compile().with_stats(stats)));
    let arrivals =
        ArrivalPlan::Poisson { qps: QPS }.generate(REQUESTS, table.n_rows() as u32, CONNS, seed);

    let mut served = Served {
        rps: Vec::new(),
        bulk_rows_per_s: Vec::new(),
        last: FrontReport::default(),
    };
    // Rep 0 warms caches and allocator state and is checked, not timed.
    let mut rep = 0;
    while rep == 0 || window.more(rep - 1) {
        let mut server = FrontServer::new(
            FrontConfig::default(),
            Arc::clone(&registry),
            Arc::clone(table),
        );
        let (report, wall) = timed(|| server.run(&arrivals));
        let wrong = report
            .responses
            .iter()
            .filter(|r| r.score != Score::Label(expected[r.row as usize]))
            .count();
        let lost = arrivals.len() - report.responses.len().min(arrivals.len());
        tally.check(
            report.responses.len() + report.sheds.len() == arrivals.len(),
            || "responses plus sheds differ from requests".into(),
        );
        tally.checks(arrivals.len() as u64, (wrong + lost) as u64, || {
            format!(
                "request stream: {wrong} mismatched responses, {} sheds, {} of {} answered",
                report.sheds.len(),
                report.responses.len(),
                arrivals.len()
            )
        });

        let (labels, bulk_wall) = timed(|| bulk.predict_labels(table));
        tally.check(labels == expected, || {
            "bulk predictions changed between calls".into()
        });

        if rep > 0 {
            served.rps.push(report.responses.len() as f64 / wall);
            served
                .bulk_rows_per_s
                .push(table.n_rows() as f64 / bulk_wall);
        }
        served.last = report;
        rep += 1;
    }
    served
}
