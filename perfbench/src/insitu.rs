//! The in situ workloads: `insitu-analysis` (histogram +
//! autocorrelation on the bridge) and `insitu-render` (Catalyst slice +
//! Libsim slice), both on [`RANKS`] ranks of one world.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minimpi::{Comm, World};
use oscillator::{SimConfig, Simulation};
use sensei::analysis::autocorrelation::Autocorrelation;
use sensei::analysis::histogram::{HistogramAnalysis, HistogramResult};
use sensei::Bridge;

use crate::common::{
    drive, png_dims, sample_indices, solve_and_execute, Checks, Mode, Params, RankRun, Side,
    StepRec, WorldRun, RANKS,
};
use crate::timed::{boundary_of, Timed};
use crate::trace::{lock, SharedTracer, Tracer};

/// Histogram bins.
pub const BINS: usize = 64;
/// Autocorrelation delay window.
pub const WINDOW: usize = 10;
/// Autocorrelation peaks kept per delay.
pub const TOP_K: usize = 16;
/// Steps compared bitwise against the 1-rank reference.
pub const REFERENCE_SAMPLES: usize = 16;
/// Every PNG's header is checked; this many are fully decoded.
pub const PNG_DECODES: usize = 16;

/// Which in situ configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Histogram + autocorrelation.
    Analysis,
    /// Catalyst slice + Libsim slice.
    Render,
}

/// One analysis result as it became available on rank 0.
struct Seen<T> {
    boundary: u64,
    at: f64,
    value: T,
}

/// One PNG as produced on rank 0: its size, header dimensions, and
/// (for the sampled ones) the bytes.
struct Png {
    /// Encoded bytes.
    len: usize,
    /// IHDR width and height.
    dims: Option<(usize, usize)>,
    /// Kept bytes, for a full decode after the run.
    bytes: Option<Vec<u8>>,
}

/// What rank 0's wrappers capture during the run.
#[derive(Default)]
struct Captured {
    histograms: Vec<Seen<HistogramResult>>,
    catalyst: Vec<Seen<Png>>,
    libsim: Vec<Seen<Png>>,
    autocorrelation_peaks: Option<usize>,
}

type Shared<T> = Arc<Mutex<T>>;

/// Take the PNG an analysis just produced (rank 0 only); keep the
/// bytes of every `keep_every`-th boundary for a full decode.
fn capture_png(
    handle: &catalyst::pipeline::PngHandle,
    boundary: u64,
    keep_every: u64,
) -> Option<Png> {
    let bytes = handle.lock().take()?;
    Some(Png {
        len: bytes.len(),
        dims: png_dims(&bytes),
        bytes: boundary.is_multiple_of(keep_every).then_some(bytes),
    })
}

/// Run one world of an in situ workload.
pub fn run(kind: Kind, seed: u64, params: &Params, mode: Mode) -> WorldRun {
    let deck = crate::inputs::deck(seed);
    let p = params.clone();
    let epoch = Instant::now();
    let outs = World::run(RANKS, move |comm| {
        rank_main(comm, kind, &deck, &p, mode, epoch)
    });
    let mut world = WorldRun::default();
    let mut captured = None;
    for (run, ready, report, cap) in outs {
        world.setup_s = world.setup_s.max(ready);
        if let Some(report) = report {
            world.reports.push((Side::Step, report));
        }
        if run.rank == 0 {
            captured = Some(cap);
        }
        world.ranks.push(run);
    }
    let captured = captured.expect("rank 0 result");
    if matches!(mode, Mode::Measure { .. }) {
        let timed: Vec<StepRec> = world.ranks[0].steps.clone();
        finish(kind, seed, params, &timed, captured, &mut world);
    }
    world
}

type RankOut = (RankRun, f64, Option<probe::RunReport>, Captured);

fn rank_main(
    comm: &Comm,
    kind: Kind,
    deck: &str,
    params: &Params,
    mode: Mode,
    epoch: Instant,
) -> RankOut {
    let tracer = Tracer::shared(epoch, comm.rank());
    let cfg = SimConfig {
        grid: [params.grid; 3],
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(comm, cfg, (comm.rank() == 0).then_some(deck));
    let mut bridge = Bridge::new();
    if mode.trace() {
        let p = probe::enabled();
        comm.attach_probe(p.clone());
        bridge.set_probe(p);
    }
    let captured: Shared<Captured> = Arc::default();
    let autocorrelation = register(kind, params, &tracer, &captured, &mut bridge);
    comm.barrier();
    let ready = lock(&tracer).now();

    let mut step = |b| solve_and_execute(&tracer, b, &mut sim, comm, &mut bridge, comm);
    let mut run = RankRun {
        rank: comm.rank(),
        stepping: true,
        ..RankRun::default()
    };
    match mode {
        Mode::SetupOnly => {}
        Mode::Measure { trace, seconds } => {
            (run.steps, run.ctx) = drive(comm, params, seconds, &tracer, trace, &mut step);
        }
    }
    let report = bridge.finalize(comm);
    run.failures = bridge.failure_reports().len() as u64;
    run.spans = lock(&tracer).take_spans();
    let mut cap = std::mem::take(&mut *lock(&captured));
    if let Some(h) = autocorrelation {
        cap.autocorrelation_peaks = h.lock().as_ref().map(|r| r.iter().map(Vec::len).sum());
    }
    let report = (mode.trace() && comm.rank() == 0).then_some(report);
    (run, ready, report, cap)
}

/// Register the workload's analyses, each behind a timing wrapper
/// whose hook captures rank 0's results. Returns the autocorrelation
/// results handle, if any.
fn register(
    kind: Kind,
    params: &Params,
    tracer: &SharedTracer,
    captured: &Shared<Captured>,
    bridge: &mut Bridge,
) -> Option<sensei::analysis::autocorrelation::ResultsHandle> {
    match kind {
        Kind::Analysis => {
            let hist = HistogramAnalysis::new("data", BINS);
            let results = hist.results_handle();
            let cap = Arc::clone(captured);
            let hist =
                Timed::new(hist, "sensei.histogram", tracer).with_hook(move |_, step, at| {
                    if let Some(value) = results.lock().take() {
                        lock(&cap).histograms.push(Seen {
                            boundary: boundary_of(step),
                            at,
                            value,
                        });
                    }
                });
            bridge.register(Box::new(hist));
            let ac = Autocorrelation::new("data", WINDOW, TOP_K);
            let handle = ac.results_handle();
            bridge.register(Box::new(Timed::new(ac, "sensei.autocorrelation", tracer)));
            Some(handle)
        }
        Kind::Render => {
            let keep_every = 8;
            let mut pipe = catalyst::SlicePipeline::new("data", 2, params.grid as i64 / 2);
            (pipe.width, pipe.height) = params.catalyst_image;
            let slice = catalyst::CatalystSliceAnalysis::new(pipe);
            let png = slice.png_handle();
            let cap = Arc::clone(captured);
            let slice =
                Timed::new(slice, "catalyst.slice", tracer).with_hook(move |_, step, at| {
                    let b = boundary_of(step);
                    if let Some(value) = capture_png(&png, b, keep_every) {
                        lock(&cap).catalyst.push(Seen {
                            boundary: b,
                            at,
                            value,
                        });
                    }
                });
            bridge.register(Box::new(slice));
            let session = libsim::Session {
                image: params.libsim_image,
                frequency: 1,
                plots: vec![libsim::Plot::Pseudocolor {
                    array: "data".into(),
                    axis: 2,
                    index: params.grid as i64 / 2,
                }],
            };
            // The per-rank runtime-config probe looks inside the
            // checkout only.
            let vis = libsim::LibsimAnalysis::new(session, Path::new("perfbench/.visitrc"));
            let png = vis.png_handle();
            let cap = Arc::clone(captured);
            let vis = Timed::new(vis, "libsim.slice", tracer).with_hook(move |_, step, at| {
                let b = boundary_of(step);
                if let Some(value) = capture_png(&png, b, keep_every) {
                    lock(&cap).libsim.push(Seen {
                        boundary: b,
                        at,
                        value,
                    });
                }
            });
            bridge.register(Box::new(vis));
            None
        }
    }
}

/// Post-run: time to insight and the correctness checks, over the
/// timed boundaries of rank 0.
fn finish(
    kind: Kind,
    seed: u64,
    params: &Params,
    timed: &[StepRec],
    captured: Captured,
    world: &mut WorldRun,
) {
    let first = timed.first().map_or(0, |s| s.boundary);
    let last = timed.last().map_or(0, |s| s.boundary);
    let in_timed = |b: u64| b >= first && b <= last;
    let ready_at = |b: u64| timed[(b - first) as usize].data_ready;
    let mut checks = Checks::default();
    match kind {
        Kind::Analysis => {
            let hist: Vec<&Seen<HistogramResult>> = captured
                .histograms
                .iter()
                .filter(|s| in_timed(s.boundary))
                .collect();
            checks.check(hist.len() == timed.len(), || {
                format!("{} histograms for {} timed steps", hist.len(), timed.len())
            });
            for s in &hist {
                world.lag_s.push(s.at - ready_at(s.boundary));
                let total: u64 = s.value.counts.iter().sum();
                checks.check(total == params.points(), || {
                    format!("step {}: histogram holds {total} points", s.boundary)
                });
            }
            let picks: Vec<&Seen<HistogramResult>> = sample_indices(hist.len(), REFERENCE_SAMPLES)
                .into_iter()
                .map(|i| hist[i])
                .collect();
            let boundaries: Vec<u64> = picks.iter().map(|s| s.boundary).collect();
            let reference = crate::reference::histograms(seed, params, &boundaries, BINS);
            for (s, r) in picks.iter().zip(&reference) {
                checks.check(crate::reference::same_bits(&s.value, r), || {
                    format!(
                        "step {}: histogram differs from the 1-rank reference",
                        s.boundary
                    )
                });
            }
            checks.check(
                captured.autocorrelation_peaks.is_some_and(|n| n > 0),
                || "autocorrelation produced no peaks".to_string(),
            );
        }
        Kind::Render => {
            let mut png_bytes = Vec::new();
            for (name, pngs, size) in [
                ("catalyst", &captured.catalyst, params.catalyst_image),
                ("libsim", &captured.libsim, params.libsim_image),
            ] {
                let timed_pngs: Vec<&Seen<Png>> =
                    pngs.iter().filter(|s| in_timed(s.boundary)).collect();
                checks.check(timed_pngs.len() == timed.len(), || {
                    format!(
                        "{name}: {} images for {} steps",
                        timed_pngs.len(),
                        timed.len()
                    )
                });
                for s in &timed_pngs {
                    checks.check(s.value.dims == Some(size), || {
                        format!("{name} step {}: image is {:?}", s.boundary, s.value.dims)
                    });
                    if name == "catalyst" {
                        png_bytes.push(s.value.len as f64);
                    }
                }
                let kept: Vec<&Seen<Png>> = timed_pngs
                    .iter()
                    .copied()
                    .filter(|s| s.value.bytes.is_some())
                    .collect();
                for i in sample_indices(kept.len(), PNG_DECODES) {
                    let s = kept[i];
                    let bytes = s.value.bytes.as_deref().unwrap_or_default();
                    let decoded = render::png::decode_rgb(bytes);
                    let ok = matches!(&decoded, Ok((w, h, rgb))
                        if (*w, *h) == size && rgb.len() == w * h * 3);
                    checks.check(ok, || {
                        format!(
                            "{name} step {}: PNG does not decode to {size:?}",
                            s.boundary
                        )
                    });
                }
            }
            // Time to insight: both images of the step exist.
            for (c, l) in captured.catalyst.iter().zip(&captured.libsim) {
                if in_timed(c.boundary) && c.boundary == l.boundary {
                    world.lag_s.push(c.at.max(l.at) - ready_at(c.boundary));
                }
            }
            world
                .layers
                .push(("catalyst.png_bytes", crate::stats::mean(&png_bytes)));
        }
    }
    world.checks.absorb(checks);
}
