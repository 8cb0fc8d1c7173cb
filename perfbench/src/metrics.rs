//! The reported metrics: end-to-end from an untraced run, per-layer
//! from a traced one.

use probe::RunReport;

use crate::common::{Side, WorldRun};
use crate::stats::{highest_tail, median, percentile};
use crate::trace::self_times;

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as printed; a bounded or per-layer metric's name as listed
    /// in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it (1 for a single reading).
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        // An empty float sum is -0.0; report it as 0.
        value: value + 0.0,
        samples,
    }
}

/// End-to-end metrics of an untraced run: `setup` holds the set-up
/// samples. These are the metrics `BENCHMARK.json` bounds.
pub fn end_to_end(setup: &[f64], run: &WorldRun, peak_rss_bytes: u64) -> Vec<Metric> {
    let steps = run.step_times();
    let n = steps.len();
    let lag = &run.lag_s;
    vec![
        metric("setup_s", "s", median(setup).unwrap_or(0.0), setup.len()),
        metric("step_s.p50", "s", median(&steps).unwrap_or(0.0), n),
        metric("steps_per_s", "1/s", n as f64 / run.loop_wall_s(), n),
        metric("insitu_frac", "frac", run.insitu_frac(), n),
        metric(
            "result_lag_s.p50",
            "s",
            median(lag).unwrap_or(0.0),
            lag.len(),
        ),
        metric("peak_rss_bytes", "bytes", peak_rss_bytes as f64, 1),
    ]
}

/// Tail percentiles of a run, printed with the metrics but not bounded:
/// on a shared 2-core host they move by more than any bound from one
/// run to the next. p90 and, when the step count supports one, the
/// highest tail percentile with ten samples beyond it.
pub fn tails(run: &WorldRun) -> Vec<Metric> {
    let steps = run.step_times();
    let lag = &run.lag_s;
    let mut rows = vec![
        metric(
            "step_s.p90",
            "s",
            percentile(&steps, 90.0).unwrap_or(0.0),
            steps.len(),
        ),
        metric(
            "result_lag_s.p90",
            "s",
            percentile(lag, 90.0).unwrap_or(0.0),
            lag.len(),
        ),
    ];
    let name = match highest_tail(steps.len()) {
        Some(p) if p > 99.0 => Some(("step_s.p99.9", p)),
        Some(p) if p > 90.0 => Some(("step_s.p99", p)),
        _ => None,
    };
    if let Some((name, p)) = name {
        rows.push(metric(
            name,
            "s",
            percentile(&steps, p).unwrap_or(0.0),
            steps.len(),
        ));
    }
    rows
}

/// Mean duration and mean self time per call of each span name, over
/// every rank of a traced run.
struct SpanTable {
    rows: Vec<(&'static str, f64, f64, usize)>,
}

impl SpanTable {
    fn new(run: &WorldRun) -> Self {
        let mut rows: Vec<(&'static str, f64, f64, usize)> = Vec::new();
        for r in &run.ranks {
            for (s, own) in r.spans.iter().zip(self_times(&r.spans)) {
                match rows.iter_mut().find(|row| row.0 == s.name) {
                    Some(row) => {
                        row.1 += s.duration();
                        row.2 += own;
                        row.3 += 1;
                    }
                    None => rows.push((s.name, s.duration(), own, 1)),
                }
            }
        }
        SpanTable { rows }
    }

    fn row(&self, name: &str) -> Option<&(&'static str, f64, f64, usize)> {
        self.rows.iter().find(|r| r.0 == name)
    }

    /// Mean inclusive seconds per call (0 when never called).
    fn mean(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |r| r.1 / r.3 as f64)
    }

    /// Mean self seconds per call.
    fn mean_self(&self, name: &str) -> f64 {
        self.row(name).map_or(0.0, |r| r.2 / r.3 as f64)
    }

    /// Total self time over total duration.
    fn self_frac(&self, name: &str) -> f64 {
        self.row(name)
            .map_or(0.0, |r| if r.1 > 0.0 { r.2 / r.1 } else { 0.0 })
    }
}

/// Probe readings of a traced run, per bridge step of the report that
/// recorded them.
struct Reports<'a>(&'a [(Side, RunReport)]);

impl Reports<'_> {
    fn iter(&self, side: Option<Side>) -> impl Iterator<Item = &RunReport> {
        self.0
            .iter()
            .filter(move |(s, _)| side.is_none_or(|want| *s == want))
            .map(|(_, r)| r)
    }

    /// Σ over reports of (counter field summed over matching counters)
    /// per bridge step.
    fn per_step(
        &self,
        side: Option<Side>,
        matches: impl Fn(&str) -> bool,
        field: impl Fn(&probe::CounterAgg) -> u64,
    ) -> f64 {
        self.iter(side)
            .map(|r| {
                let total: u64 = r
                    .counters
                    .iter()
                    .filter(|c| matches(&c.name))
                    .map(&field)
                    .sum();
                total as f64 / r.steps.max(1) as f64
            })
            .sum()
    }

    /// Largest value of matching gauges.
    fn gauge_max(&self, matches: impl Fn(&str) -> bool) -> f64 {
        self.iter(None)
            .flat_map(|r| r.gauges.iter())
            .filter(|g| matches(&g.name))
            .map(|g| g.max)
            .max()
            .unwrap_or(0) as f64
    }

    /// Σ over the listed phases of the mean per-rank total, per step;
    /// the largest over reports.
    fn phase_per_step(&self, labels: &[&str]) -> f64 {
        self.iter(None)
            .map(|r| {
                let total: f64 = labels
                    .iter()
                    .filter_map(|l| r.phase(l))
                    .map(|p| p.mean_s)
                    .sum();
                total / r.steps.max(1) as f64
            })
            .fold(0.0, f64::max)
    }
}

/// Per-layer metrics of a traced run; `untraced` is the untraced run
/// made in the same process, the base of `trace.overhead_frac`.
pub fn per_layer(untraced: &WorldRun, traced: &WorldRun, cpu: (f64, f64), rss: u64) -> Vec<Metric> {
    let spans = SpanTable::new(traced);
    let reports = Reports(&traced.reports);
    let layer = |name: &str| {
        traced
            .layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let steps = traced.step_times().len();
    let ctx = traced
        .ranks
        .iter()
        .fold(crate::procfs::CtxSwitches::default(), |a, r| a.plus(r.ctx));
    let overhead = match (median(&traced.step_times()), median(&untraced.step_times())) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    let s = "s";
    let count = "count";
    let bytes = "bytes";
    let minimpi = |n: &str| n.starts_with("minimpi/");
    let fanout = |n: &str| n.starts_with("broker/") && n.ends_with("/fanout");
    let responses = |n: &str| n == "query/responses";
    vec![
        metric("oscillator.step_s", s, spans.mean("oscillator.step"), steps),
        metric("sensei.execute_s", s, spans.mean("sensei.execute"), steps),
        metric(
            "sensei.bridge_self_s",
            s,
            spans.mean_self("sensei.execute"),
            steps,
        ),
        metric(
            "sensei.histogram_s",
            s,
            spans.mean("sensei.histogram"),
            steps,
        ),
        metric(
            "sensei.autocorrelation_s",
            s,
            spans.mean("sensei.autocorrelation"),
            steps,
        ),
        metric(
            "minimpi.collective_s",
            s,
            reports.phase_per_step(&["per-step/histogram/range", "per-step/histogram/reduce"]),
            steps,
        ),
        metric(
            "minimpi.messages_per_step",
            count,
            reports.per_step(Some(Side::Step), minimpi, |c| c.messages),
            steps,
        ),
        metric(
            "minimpi.bytes_per_step",
            bytes,
            reports.per_step(Some(Side::Step), minimpi, |c| c.bytes),
            steps,
        ),
        metric("catalyst.slice_s", s, spans.mean("catalyst.slice"), steps),
        metric("libsim.slice_s", s, spans.mean("libsim.slice"), steps),
        metric(
            "catalyst.png_bytes",
            bytes,
            layer("catalyst.png_bytes"),
            steps,
        ),
        metric("adios.ship_s", s, spans.mean("adios.ship"), steps),
        metric(
            "adios.advance_wait_s",
            s,
            layer("adios.advance_wait_s"),
            steps,
        ),
        metric(
            "adios.marshal_send_s",
            s,
            layer("adios.marshal_send_s"),
            steps,
        ),
        metric(
            "adios.bytes_per_step",
            bytes,
            layer("adios.bytes_per_step"),
            steps,
        ),
        metric(
            "adios.endpoint_ingest_s",
            s,
            layer("adios.endpoint_ingest_s"),
            steps,
        ),
        metric(
            "broker.deliveries_per_step",
            count,
            reports.per_step(None, fanout, |c| c.messages),
            steps,
        ),
        metric(
            "broker.queue_peak",
            count,
            reports.gauge_max(|n| n.starts_with("broker/") && n.ends_with("/queue_peak")),
            1,
        ),
        metric(
            "broker.evictions",
            count,
            reports
                .iter(None)
                .filter_map(|r| r.counter("broker/evictions"))
                .map(|c| c.calls as f64)
                .sum(),
            1,
        ),
        metric("query.server_s", s, spans.mean("query.server"), steps),
        metric("query.poll_s", s, spans.mean("query.poll"), steps),
        metric(
            "query.responses_per_step",
            count,
            reports.per_step(None, responses, |c| c.messages),
            steps,
        ),
        metric(
            "query.response_bytes_per_step",
            bytes,
            reports.per_step(None, responses, |c| c.bytes),
            steps,
        ),
        metric(
            "datamodel.owned_bytes",
            bytes,
            reports.gauge_max(|n| n == probe::GAUGE_DATASET_OWNED),
            1,
        ),
        metric(
            "datamodel.shared_bytes",
            bytes,
            reports.gauge_max(|n| n == probe::GAUGE_DATASET_SHARED),
            1,
        ),
        metric("proc.ctx_switches_invol", count, ctx.involuntary as f64, 1),
        metric("proc.ctx_switches_vol", count, ctx.voluntary as f64, 1),
        metric("proc.cpu_user_s", s, cpu.0, 1),
        metric("proc.cpu_sys_s", s, cpu.1, 1),
        metric("proc.vm_hwm_bytes", bytes, rss as f64, 1),
        metric("trace.overhead_frac", "frac", overhead, steps),
        metric("unattributed_frac", "frac", spans.self_frac("step"), steps),
    ]
}
