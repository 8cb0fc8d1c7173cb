//! The `intransit-staging` workload: one writer ships each step through
//! FlexPath (`adios::pair`) to one endpoint, which runs the histogram
//! and autocorrelation on the decoded BP data and tees the stream
//! through a staging broker to a few subscribers.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use adios::staging::{run_endpoint_with_broker, AdiosWriterAnalysis};
use adios::{pair, BpVar, BrokerConfig, Role, StagingBroker, Subscription, TopicKey};
use minimpi::{Comm, World};
use oscillator::{SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::{AnalysisAdaptor, Bridge, DataAdaptor, Steering};

use crate::common::{
    drive, sample_indices, solve_and_execute, Checks, Mode, Params, RankRun, Side, WorldRun, RANKS,
};
use crate::insitu::{BINS, REFERENCE_SAMPLES, TOP_K, WINDOW};
use crate::procfs::CtxSwitches;
use crate::timed::{boundary_of, Timed};
use crate::trace::{lock, SharedTracer, SpanRec, Tracer};

/// Broker subscribers on the endpoint's tee.
pub const TAP_SUBSCRIBERS: usize = 3;

/// Span names of the endpoint's analysis calls.
const ENDPOINT_SPANS: [&str; 3] = ["sensei.histogram", "sensei.autocorrelation", "broker.drain"];

/// Drains the broker tee in-thread on the endpoint, once per step, and
/// counts what each subscriber received.
struct BrokerTap {
    subs: Vec<Subscription<BpVar>>,
    /// Per boundary, messages each subscriber drained.
    drained: Vec<(u64, Vec<usize>)>,
}

impl AnalysisAdaptor for BrokerTap {
    fn name(&self) -> &str {
        "broker-tap"
    }

    fn execute(&mut self, data: &dyn DataAdaptor, _comm: &Comm) -> Steering {
        let counts = self
            .subs
            .iter()
            .map(|s| std::iter::from_fn(|| s.try_next()).count())
            .collect();
        self.drained.push((boundary_of(data.step()), counts));
        Steering::Continue
    }
}

/// Per boundary on the writer: (advance seconds, marshal + send
/// seconds, bytes) added by that step.
type ShipDelta = (u64, f64, f64, usize);

/// Writer's results.
struct WriterOut {
    run: RankRun,
    ready: f64,
    report: Option<probe::RunReport>,
    ship: Vec<ShipDelta>,
}

/// Endpoint's results.
struct EndpointOut {
    run: RankRun,
    ready: f64,
    report: Option<probe::RunReport>,
    histograms: Vec<(u64, f64, HistogramResult)>,
    drained: Vec<(u64, Vec<usize>)>,
    autocorrelation_peaks: Option<usize>,
}

enum Out {
    Writer(WriterOut),
    Endpoint(EndpointOut),
}

/// Run one world of the in transit workload.
pub fn run(seed: u64, params: &Params, mode: Mode) -> WorldRun {
    let deck = crate::inputs::deck(seed);
    let p = params.clone();
    let epoch = Instant::now();
    let outs = World::run(RANKS, move |world| {
        let tracer = Tracer::shared(epoch, world.rank());
        if mode.trace() {
            // Split communicators inherit the probe.
            world.attach_probe(probe::enabled());
        }
        match pair(world, 1) {
            Role::Writer { sub, writer } => {
                Out::Writer(writer_main(world, &sub, writer, &deck, &p, mode, &tracer))
            }
            Role::Endpoint { sub, mut reader } => {
                let analyses = endpoint_analyses(&tracer);
                world.barrier();
                let ready = lock(&tracer).now();
                lock(&tracer).set_recording(mode.trace());
                let before = CtxSwitches::thread();
                let (bridge, report) = run_endpoint_with_broker(
                    world,
                    &sub,
                    &mut reader,
                    analyses.boxed,
                    &analyses.broker,
                );
                let run = RankRun {
                    rank: world.rank(),
                    stepping: false,
                    ctx: CtxSwitches::thread().since(before),
                    failures: bridge.failure_reports().len() as u64,
                    spans: lock(&tracer).take_spans(),
                    ..RankRun::default()
                };
                let histograms = std::mem::take(&mut *lock(&analyses.histograms));
                let drained = std::mem::take(&mut lock(&analyses.tap).drained);
                let autocorrelation_peaks = analyses
                    .autocorrelation
                    .lock()
                    .as_ref()
                    .map(|r| r.iter().map(Vec::len).sum());
                Out::Endpoint(EndpointOut {
                    run,
                    ready,
                    report: mode.trace().then_some(report),
                    histograms,
                    drained,
                    autocorrelation_peaks,
                })
            }
        }
    });
    let mut writer = None;
    let mut endpoint = None;
    for out in outs {
        match out {
            Out::Writer(w) => writer = Some(w),
            Out::Endpoint(e) => endpoint = Some(e),
        }
    }
    let writer = writer.expect("writer result");
    let endpoint = endpoint.expect("endpoint result");
    let mut world = WorldRun {
        setup_s: writer.ready.max(endpoint.ready),
        ..WorldRun::default()
    };
    if matches!(mode, Mode::Measure { .. }) {
        finish(seed, params, &writer, &endpoint, &mut world);
    }
    world.reports.extend(writer.report.map(|r| (Side::Step, r)));
    world
        .reports
        .extend(endpoint.report.map(|r| (Side::Endpoint, r)));
    let timed: Vec<u64> = writer.run.steps.iter().map(|s| s.boundary).collect();
    let mut ep_run = endpoint.run;
    ep_run.spans = timed_spans(ep_run.spans, &timed);
    world.ranks = vec![writer.run, ep_run];
    world
}

/// The endpoint's analyses and the handles read after the run.
struct EndpointAnalyses {
    boxed: Vec<Box<dyn AnalysisAdaptor>>,
    broker: StagingBroker,
    histograms: Arc<Mutex<Vec<(u64, f64, HistogramResult)>>>,
    tap: Arc<Mutex<BrokerTap>>,
    autocorrelation: sensei::analysis::autocorrelation::ResultsHandle,
}

fn endpoint_analyses(tracer: &SharedTracer) -> EndpointAnalyses {
    let hist = HistogramAnalysis::new("data", BINS);
    let results = hist.results_handle();
    let histograms: Arc<Mutex<Vec<(u64, f64, HistogramResult)>>> = Arc::default();
    let seen = Arc::clone(&histograms);
    let hist = Timed::new(hist, "sensei.histogram", tracer)
        .step_from_data()
        .with_hook(move |_, step, at| {
            if let Some(r) = results.lock().take() {
                lock(&seen).push((boundary_of(step), at, r));
            }
        });
    let ac = Autocorrelation::new("data", WINDOW, TOP_K);
    let autocorrelation = ac.results_handle();
    let ac = Timed::new(ac, "sensei.autocorrelation", tracer).step_from_data();
    let broker = StagingBroker::new(BrokerConfig::default());
    let subs = (0..TAP_SUBSCRIBERS)
        .map(|_| {
            broker
                .subscribe(TopicKey::new("data", 0))
                .expect("tap subscription admitted")
        })
        .collect();
    let tap = Timed::new(
        BrokerTap {
            subs,
            drained: Vec::new(),
        },
        "broker.drain",
        tracer,
    )
    .step_from_data();
    let tap_handle = tap.handle();
    EndpointAnalyses {
        boxed: vec![Box::new(hist), Box::new(ac), Box::new(tap)],
        broker,
        histograms,
        tap: tap_handle,
        autocorrelation,
    }
}

fn writer_main(
    world: &Comm,
    sub: &Comm,
    writer: adios::FlexpathWriter,
    deck: &str,
    params: &Params,
    mode: Mode,
    tracer: &SharedTracer,
) -> WriterOut {
    let cfg = SimConfig {
        grid: [params.grid; 3],
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(sub, cfg, Some(deck));
    let mut bridge = Bridge::new();
    if mode.trace() {
        bridge.set_probe(world.probe());
    }
    // The writer closes its stream over the world communicator after
    // the bridge (over the writer group) has finalized.
    let ship = Timed::new(AdiosWriterAnalysis::new(writer), "adios.ship", tracer).skip_finalize();
    let shipper = ship.handle();
    bridge.register(Box::new(ship));
    world.barrier();
    let ready = lock(tracer).now();
    let mut ship_deltas: Vec<ShipDelta> = Vec::new();
    let mut last = (0.0, 0.0, 0usize);
    let mut step = |b| {
        let rec = solve_and_execute(tracer, b, &mut sim, sub, &mut bridge, world);
        let s = lock(&shipper);
        let now = (s.advance_seconds, s.write_seconds, s.bytes_shipped);
        ship_deltas.push((b, now.0 - last.0, now.1 - last.1, now.2 - last.2));
        last = now;
        rec
    };
    let mut run = RankRun {
        rank: world.rank(),
        stepping: true,
        ..RankRun::default()
    };
    match mode {
        Mode::SetupOnly => {}
        Mode::Measure { trace, seconds } => {
            (run.steps, run.ctx) = drive(sub, params, seconds, tracer, trace, &mut step);
        }
    }
    let report = bridge.finalize(sub);
    lock(&shipper).finalize(world);
    run.failures = bridge.failure_reports().len() as u64;
    run.spans = lock(tracer).take_spans();
    WriterOut {
        run,
        ready,
        report: mode.trace().then_some(report),
        ship: ship_deltas,
    }
}

/// Keep the endpoint spans of the writer's timed boundaries.
fn timed_spans(spans: Vec<SpanRec>, timed: &[u64]) -> Vec<SpanRec> {
    let (Some(&first), Some(&last)) = (timed.first(), timed.last()) else {
        return Vec::new();
    };
    // Endpoint spans are roots (the endpoint loop itself is inside the
    // library), so filtering keeps parents consistent.
    spans
        .into_iter()
        .filter(|s| s.step >= first && s.step <= last)
        .collect()
}

/// Post-run: time to insight, the correctness checks, and the
/// workload's own per-layer values, over the writer's timed steps.
fn finish(seed: u64, params: &Params, w: &WriterOut, e: &EndpointOut, world: &mut WorldRun) {
    let timed = &w.run.steps;
    let (Some(first), Some(last)) = (timed.first(), timed.last()) else {
        return;
    };
    let (first, last) = (first.boundary, last.boundary);
    let in_timed = |b: u64| b >= first && b <= last;
    let mut checks = Checks::default();

    // Endpoint histograms: one per step, all points, and bitwise equal
    // to the in situ histogram of the same step.
    let hist: Vec<&(u64, f64, HistogramResult)> =
        e.histograms.iter().filter(|h| in_timed(h.0)).collect();
    checks.check(hist.len() == timed.len(), || {
        format!(
            "endpoint: {} histograms for {} steps",
            hist.len(),
            timed.len()
        )
    });
    for (b, at, r) in &hist {
        world
            .lag_s
            .push(at - timed[(b - first) as usize].data_ready);
        let total: u64 = r.counts.iter().sum();
        checks.check(total == params.points(), || {
            format!("endpoint step {b}: histogram holds {total} points")
        });
    }
    let picks: Vec<&(u64, f64, HistogramResult)> = sample_indices(hist.len(), REFERENCE_SAMPLES)
        .into_iter()
        .map(|i| hist[i])
        .collect();
    let boundaries: Vec<u64> = picks.iter().map(|h| h.0).collect();
    let reference = crate::reference::histograms(seed, params, &boundaries, BINS);
    for (h, r) in picks.iter().zip(&reference) {
        checks.check(crate::reference::same_bits(&h.2, r), || {
            format!("endpoint step {}: in transit histogram != in situ", h.0)
        });
    }
    checks.check(e.autocorrelation_peaks.is_some_and(|n| n > 0), || {
        "endpoint autocorrelation produced no peaks".to_string()
    });

    // Broker tee: every subscriber gets the step's `data` block once.
    for (b, counts) in e.drained.iter().filter(|d| in_timed(d.0)) {
        for (i, &n) in counts.iter().enumerate() {
            checks.check(n == 1, || {
                format!("step {b}: tap subscriber {i} drained {n} messages")
            });
        }
    }
    world.checks.absorb(checks);

    let ship: Vec<&ShipDelta> = w.ship.iter().filter(|d| in_timed(d.0)).collect();
    let n = ship.len().max(1) as f64;
    world.layers.extend([
        (
            "adios.advance_wait_s",
            ship.iter().map(|d| d.1).sum::<f64>() / n,
        ),
        (
            "adios.marshal_send_s",
            ship.iter().map(|d| d.2).sum::<f64>() / n,
        ),
        (
            "adios.bytes_per_step",
            ship.iter().map(|d| d.3 as f64).sum::<f64>() / n,
        ),
        (
            "adios.endpoint_ingest_s",
            endpoint_ingest(&e.run.spans, first, last),
        ),
    ]);
}

/// Mean gap between the end of one step's last endpoint analysis call
/// and the start of the next step's first: receive, decode and tee.
fn endpoint_ingest(spans: &[SpanRec], first: u64, last: u64) -> f64 {
    let mut per_step: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| ENDPOINT_SPANS.contains(&s.name) && s.step >= first && s.step <= last)
    {
        let e = per_step.entry(s.step).or_insert((s.start, s.end));
        e.0 = e.0.min(s.start);
        e.1 = e.1.max(s.end);
    }
    let gaps: Vec<f64> = per_step
        .iter()
        .zip(per_step.iter().skip(1))
        .filter(|((a, _), (b, _))| **b == **a + 1)
        .map(|((_, prev), (_, next))| next.0 - prev.1)
        .collect();
    crate::stats::mean(&gaps)
}
