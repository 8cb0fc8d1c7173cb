//! What every workload shares: sizing, the warm-up/timed step loop,
//! per-step records, checks, and the shape of one world's results.

use std::time::Instant;

use minimpi::Comm;
use oscillator::{OscillatorAdaptor, Simulation};
use probe::RunReport;
use sensei::Bridge;

use crate::procfs::CtxSwitches;
use crate::trace::{lock, SharedTracer, SpanRec};

/// Ranks of every workload (one process, one thread per rank).
pub const RANKS: usize = 2;

/// Boundaries between the step loop's stop decisions.
const CHUNK: u64 = 8;

/// Sizing of one run.
#[derive(Clone, Debug)]
pub struct Params {
    /// Global grid points per axis.
    pub grid: usize,
    /// Warm-up before the timed loop, seconds.
    pub warmup_s: f64,
    /// Fewest timed steps (p90 needs 100 to leave 10 beyond it).
    pub min_steps: u64,
    /// Most timed steps.
    pub max_steps: u64,
    /// Catalyst slice image (width, height).
    pub catalyst_image: (usize, usize),
    /// Libsim slice image (width, height).
    pub libsim_image: (usize, usize),
}

impl Params {
    /// The benchmark's sizing.
    pub fn full() -> Self {
        Params {
            grid: 64,
            warmup_s: 3.0,
            min_steps: 120,
            max_steps: 50_000,
            catalyst_image: (960, 540),
            libsim_image: (540, 540),
        }
    }

    /// A tiny sizing for smoke tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            grid: 12,
            warmup_s: 0.02,
            min_steps: 8,
            max_steps: 40,
            catalyst_image: (48, 27),
            libsim_image: (27, 27),
        }
    }

    /// Global grid points.
    pub fn points(&self) -> u64 {
        (self.grid as u64).pow(3)
    }
}

/// What one world does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Set up and tear down: a set-up time sample.
    SetupOnly,
    /// Set up, warm up, then time a loop of `seconds`.
    Measure {
        /// Record spans and enable the program's probe.
        trace: bool,
        /// Target length of the timed loop.
        seconds: f64,
    },
}

impl Mode {
    /// Is this a traced run?
    pub fn trace(self) -> bool {
        matches!(self, Mode::Measure { trace: true, .. })
    }
}

/// One bridge boundary on one rank. Times are seconds since the
/// world's epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepRec {
    /// 0-based bridge boundary.
    pub boundary: u64,
    /// Boundary start.
    pub start: f64,
    /// End of the step's solve: the step's data exists from here on.
    pub data_ready: f64,
    /// Boundary end (all in situ work returned).
    pub end: f64,
    /// Seconds inside `Simulation::step` (0 on a paused boundary).
    pub solve_s: f64,
}

impl StepRec {
    /// Boundary duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One rank's share of a world's results.
#[derive(Default)]
pub struct RankRun {
    /// World rank.
    pub rank: usize,
    /// Does this rank's step loop count toward step time (false for
    /// the in transit endpoint)?
    pub stepping: bool,
    /// Timed boundaries.
    pub steps: Vec<StepRec>,
    /// Spans recorded in the timed loop (traced runs).
    pub spans: Vec<SpanRec>,
    /// Context switches of the rank thread in the timed loop.
    pub ctx: CtxSwitches,
    /// Bridge failure reports on this rank.
    pub failures: u64,
}

/// Correctness checks, counted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Failed ones.
    pub failed: u64,
    /// The first few failures, described.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure found without a matching attempt of its own
    /// (a failure report, an eviction).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Merge another tally.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Which part of the pipeline a run report covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The ranks that step the simulation.
    Step,
    /// The in transit endpoint.
    Endpoint,
}

/// One world's results.
#[derive(Default)]
pub struct WorldRun {
    /// World spawn to every rank ready for its first step, seconds.
    pub setup_s: f64,
    /// Per-rank records.
    pub ranks: Vec<RankRun>,
    /// Time-to-insight samples over the timed steps, seconds.
    pub lag_s: Vec<f64>,
    /// Correctness tally.
    pub checks: Checks,
    /// The program's probe reports (traced runs).
    pub reports: Vec<(Side, RunReport)>,
    /// Per-layer values only the workload can compute.
    pub layers: Vec<(&'static str, f64)>,
}

impl WorldRun {
    /// Count each bridge failure report as a failed check.
    pub fn count_failure_reports(&mut self) {
        for r in &self.ranks {
            for _ in 0..r.failures {
                self.checks
                    .fail(format!("rank {}: bridge failure report", r.rank));
            }
        }
    }

    /// Per timed step, the slowest stepping rank's boundary time.
    pub fn step_times(&self) -> Vec<f64> {
        let stepping: Vec<&RankRun> = self.ranks.iter().filter(|r| r.stepping).collect();
        let n = stepping.iter().map(|r| r.steps.len()).min().unwrap_or(0);
        (0..n)
            .map(|i| {
                stepping
                    .iter()
                    .map(|r| r.steps[i].duration())
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    /// Wall time of the timed loop on the first stepping rank.
    pub fn loop_wall_s(&self) -> f64 {
        self.ranks
            .iter()
            .find(|r| r.stepping)
            .and_then(|r| Some(r.steps.last()?.end - r.steps.first()?.start))
            .unwrap_or(0.0)
    }

    /// Share of the timed loop spent outside `Simulation::step`,
    /// averaged over the stepping ranks.
    pub fn insitu_frac(&self) -> f64 {
        let fracs: Vec<f64> = self
            .ranks
            .iter()
            .filter(|r| r.stepping && !r.steps.is_empty())
            .map(|r| {
                let wall = r.steps.last().map_or(0.0, |s| s.end) - r.steps[0].start;
                let solve: f64 = r.steps.iter().map(|s| s.solve_s).sum();
                1.0 - solve / wall
            })
            .collect();
        crate::stats::mean(&fracs)
    }
}

/// The step loop: a warm-up of `Params::warmup_s`, then a timed loop
/// of `seconds` (and at least `Params::min_steps` steps) with span
/// recording as requested. `step` runs one bridge boundary and reports
/// it. Every [`CHUNK`] boundaries rank 0 decides whether the phase goes
/// on and broadcasts it, so all ranks of `comm` run the same steps
/// without a collective inside any step, and a run lasts as long on a
/// slow host as on a fast one.
pub fn drive(
    comm: &Comm,
    params: &Params,
    seconds: f64,
    tracer: &SharedTracer,
    trace: bool,
    mut step: impl FnMut(u64) -> StepRec,
) -> (Vec<StepRec>, CtxSwitches) {
    let mut boundary = 0u64;
    let mut phase = |secs: f64, min: u64, step: &mut dyn FnMut(u64) -> StepRec| {
        let start = Instant::now();
        let mut recs: Vec<StepRec> = Vec::new();
        loop {
            for _ in 0..CHUNK {
                recs.push(step(boundary));
                boundary += 1;
            }
            let n = recs.len() as u64;
            let go_on = (comm.rank() == 0)
                .then(|| n < params.max_steps && (n < min || start.elapsed().as_secs_f64() < secs));
            if !comm.bcast(0, go_on) {
                return recs;
            }
        }
    };
    phase(params.warmup_s, 0, &mut step);
    lock(tracer).set_recording(trace);
    let before = CtxSwitches::thread();
    let recs = phase(seconds, params.min_steps, &mut step);
    let ctx = CtxSwitches::thread().since(before);
    lock(tracer).set_recording(false);
    (recs, ctx)
}

/// One in situ boundary: solve on `sim_comm`, then hand the zero-copy
/// adaptor to the bridge on `bridge_comm`, with the step, the solve and
/// the bridge call as spans.
pub fn solve_and_execute(
    tracer: &SharedTracer,
    boundary: u64,
    sim: &mut Simulation,
    sim_comm: &Comm,
    bridge: &mut Bridge,
    bridge_comm: &Comm,
) -> StepRec {
    let (root, solve) = {
        let mut t = lock(tracer);
        t.set_step(boundary);
        (t.open("step"), t.open("oscillator.step"))
    };
    sim.step(sim_comm);
    let (data_ready, exec) = {
        let mut t = lock(tracer);
        (t.close(solve), t.open("sensei.execute"))
    };
    bridge.execute(&OscillatorAdaptor::new(sim), bridge_comm);
    let end = {
        let mut t = lock(tracer);
        t.close(exec);
        t.close(root)
    };
    StepRec {
        boundary,
        start: root.start,
        data_ready,
        end,
        solve_s: data_ready - solve.start,
    }
}

/// Width and height from a PNG's IHDR chunk, without decoding.
pub fn png_dims(png: &[u8]) -> Option<(usize, usize)> {
    if png.len() < 24 || &png[12..16] != b"IHDR" {
        return None;
    }
    let be = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize;
    Some((be(&png[16..20]), be(&png[20..24])))
}

/// Evenly spaced picks of at most `max` items from `0..n`.
pub fn sample_indices(n: usize, max: usize) -> Vec<usize> {
    if n == 0 || max == 0 {
        return Vec::new();
    }
    let stride = n.div_ceil(max);
    (0..n).step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_cover_the_range() {
        assert_eq!(sample_indices(0, 4), Vec::<usize>::new());
        assert_eq!(sample_indices(3, 8), vec![0, 1, 2]);
        assert_eq!(sample_indices(10, 4), vec![0, 3, 6, 9]);
        assert!(sample_indices(1000, 16).len() <= 16);
    }

    #[test]
    fn png_dims_reads_ihdr() {
        let fb = render::framebuffer::Framebuffer::new(7, 5);
        let png = render::png::encode_framebuffer(
            &fb,
            render::color::Color::BLACK,
            render::deflate::Mode::Fixed,
        );
        assert_eq!(png_dims(&png), Some((7, 5)));
        assert_eq!(png_dims(b"not a png"), None);
    }
}
